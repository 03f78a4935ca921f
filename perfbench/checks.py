"""Output checkers for the benchmark, written apart from gdmagic.

Nothing here imports gdmagic. Graphs are rebuilt from their factor
definitions as lists of neighbour sets, with the product vertex (i, j)
numbered i * |V(H)| + j. Groups are tuples of cyclic factor orders and
elements are tuples of residues; sums are taken coordinate by coordinate.
Every expected answer comes from that code or from a closed formula with a
short proof, noted where it is used.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque

# --- graphs ------------------------------------------------------------------
# A graph spec is a nested tuple: ("C", n), ("K", n), ("P", n), ("S", n),
# ("Kb", m, n), ("KmM", n), ("pow", g, k), ("join", g, h), ("lex", g, h),
# ("dir", g, h).


def expr(spec) -> str:
    """The gdmagic expression text for a graph spec."""
    kind = spec[0]
    if kind in ("pow",):
        return f"pow({expr(spec[1])},{spec[2]})"
    if kind in ("join", "lex", "dir"):
        return f"{kind}({expr(spec[1])},{expr(spec[2])})"
    return f"{kind}({','.join(str(x) for x in spec[1:])})"


def from_edges(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _distances(adj, src):
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def build(spec) -> list[set[int]]:
    """Adjacency (a list of neighbour sets) of a graph spec."""
    kind = spec[0]
    if kind == "C":
        n = spec[1]
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "K":
        n = spec[1]
        return from_edges(n, itertools.combinations(range(n), 2))
    if kind == "P":
        n = spec[1]
        return from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "S":
        n = spec[1]
        return from_edges(n + 1, [(0, i) for i in range(1, n + 1)])
    if kind == "Kb":
        m, n = spec[1], spec[2]
        return from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    if kind == "KmM":
        n = spec[1]
        return from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                               if u // 2 != v // 2])
    if kind == "pow":
        g, k = build(spec[1]), spec[2]
        edges = []
        for u in range(len(g)):
            dist = _distances(g, u)
            edges += [(u, v) for v in range(u + 1, len(g)) if 1 <= dist[v] <= k]
        return from_edges(len(g), edges)
    g, h = build(spec[1]), build(spec[2])
    gn, hn = len(g), len(h)
    if kind == "join":
        edges = [(u, v) for u in range(gn) for v in g[u] if u < v]
        edges += [(gn + u, gn + v) for u in range(hn) for v in h[u] if u < v]
        edges += [(u, gn + w) for u in range(gn) for w in range(hn)]
        return from_edges(gn + hn, edges)
    adj = [set() for _ in range(gn * hn)]
    for i in range(gn):
        for j in range(hn):
            x = i * hn + j
            for ip in g[i]:
                if kind == "lex":
                    adj[x].update(range(ip * hn, ip * hn + hn))
                elif kind == "dir":
                    adj[x].update(ip * hn + jp for jp in h[j])
                else:
                    raise ValueError(f"unknown graph kind {kind!r}")
            if kind == "lex":
                adj[x].update(i * hn + jp for jp in h[j])
    return adj


def is_regular(adj) -> bool:
    return len({len(s) for s in adj}) <= 1


def is_tree(adj) -> bool:
    n = len(adj)
    if n == 0 or sum(len(s) for s in adj) != 2 * (n - 1):
        return False
    return min(_distances(adj, 0)) >= 0


def is_star(adj) -> bool:
    """K(1,m) for some m >= 1 (K(1,1) counts, with either end as centre)."""
    n = len(adj)
    if n < 2:
        return False
    return any(len(adj[c]) == n - 1 and all(len(adj[u]) == 1 for u in range(n) if u != c)
               for c in range(n))


# --- groups ------------------------------------------------------------------

def parse_group(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text == "trivial":
        return ()
    factors = []
    for part in text.split("x"):
        if not re.fullmatch(r"Z[0-9]+", part) or int(part[1:]) < 2:
            raise ValueError(f"bad group {text!r}")
        factors.append(int(part[1:]))
    return tuple(factors)


def elements(factors):
    return list(itertools.product(*(range(f) for f in factors)))


def add(factors, a, b):
    return tuple((x + y) % f for x, y, f in zip(a, b, factors))


def total(factors, elems):
    s = [0] * len(factors)
    for e in elems:
        for k, c in enumerate(e):
            s[k] += c
    return tuple(c % f for c, f in zip(s, factors))


def double(factors, a):
    return add(factors, a, a)


def parse_element(factors, text: str):
    """A label in canonical form: (r1,...,rk) with 0 <= ri < fi, else None."""
    m = re.fullmatch(r"\(([0-9,]*)\)", text.strip())
    if not m:
        return None
    coords = tuple(int(c) for c in m.group(1).split(",")) if m.group(1) else ()
    if len(coords) != len(factors) or any(not 0 <= c < f for c, f in zip(coords, factors)):
        return None
    return coords


def _partitions(n: int) -> int:
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total_ in range(part, n + 1):
            counts[total_] += counts[total_ - part]
    return counts[n]


def abelian_group_count(n: int) -> int:
    """Isomorphism classes of abelian groups of order n: the product of the
    partition numbers of the prime exponents of n."""
    count, d = 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        count *= _partitions(e)
        d += 1
    return count


# --- labelings -----------------------------------------------------------------

def weights(adj, factors, labels):
    """Neighbour-label sums, coordinate by coordinate."""
    out = []
    for nbrs in adj:
        s = [0] * len(factors)
        for u in nbrs:
            for k, c in enumerate(labels[u]):
                s[k] += c
        out.append(tuple(c % f for c, f in zip(s, factors)))
    return out


def magic_constant(adj, factors, labels):
    """The common weight of a bijective labeling, or None when the labels are
    not a bijection onto the group or the weights differ."""
    if len(labels) != len(adj) or len(adj) != math.prod(factors):
        return None
    if len(set(labels)) != len(labels):
        return None
    if any(len(x) != len(factors) or any(not 0 <= c < f for c, f in zip(x, factors))
           for x in labels):
        return None
    ws = set(weights(adj, factors, labels))
    return ws.pop() if len(ws) == 1 else None


def parse_certificate(text: str, factors):
    """(graph line, group line, mu, labels) of a certificate, or raise
    ValueError when it is malformed or a coordinate is out of range."""
    fields, labels = {}, {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("v "):
            _, idx, label = line.split(None, 2)
            if int(idx) in labels:
                raise ValueError(f"vertex {idx} labelled twice")
            value = parse_element(factors, label)
            if value is None:
                raise ValueError(f"label {label!r} is not a canonical element")
            labels[int(idx)] = value
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"bad line {line!r}")
        fields[key.strip()] = value.strip()
    if sorted(labels) != list(range(len(labels))):
        raise ValueError("vertex ids are not 0..n-1")
    mu = parse_element(factors, fields.get("mu", ""))
    if mu is None:
        raise ValueError("mu missing or not a canonical element")
    return fields.get("graph"), fields.get("group"), mu, [labels[v] for v in range(len(labels))]


def check_certificate(text: str, spec, group_text: str, adj=None):
    """None when the certificate labels `spec` magically over the group with
    the mu it claims and names `spec` on its graph line; else the reason."""
    factors = parse_group(group_text)
    try:
        graph_line, group_line, mu, labels = parse_certificate(text, factors)
    except ValueError as exc:
        return f"malformed certificate: {exc}"
    if graph_line != expr(spec):
        return f"graph line {graph_line!r} is not the requested {expr(spec)!r}"
    if group_line is None or parse_group(group_line) != factors:
        return f"group line {group_line!r} is not {group_text}"
    adj = build(spec) if adj is None else adj
    if len(labels) != len(adj):
        return f"{len(labels)} labels for {len(adj)} vertices"
    got = magic_constant(adj, factors, labels)
    if got is None:
        return "labels are not a magic bijection"
    if got != mu:
        return f"weights are {got}, certificate claims {mu}"
    return None


def swap_labels(text: str, x: int, y: int) -> str:
    """The certificate text with the labels of vertices x and y exchanged."""
    lines = text.splitlines()
    at = {}
    for k, line in enumerate(lines):
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[0] == "v" and int(parts[1]) in (x, y):
            at[int(parts[1])] = (k, parts[2])
    (kx, lx), (ky, ly) = at[x], at[y]
    lines[kx], lines[ky] = f"v {x} {ly}", f"v {y} {lx}"
    return "\n".join(lines) + "\n"


# --- closed-form answers for the search and classify instances ------------------
# Each function below states the argument it rests on.

def count_kmn(m: int, n: int, factors) -> int:
    """Magic labelings of K(m,n) (first part 0..m-1): every vertex of one
    part has weight S_other, so the labeling is magic exactly when the label
    set A of the first part has S_A = s - S_A, i.e. 2 S_A = s(group).
    Count the m-subsets A with that property, times m! n! orders."""
    elems = elements(factors)
    s = total(factors, elems)
    good = sum(1 for a in itertools.combinations(elems, m)
               if double(factors, total(factors, a)) == s)
    return good * math.factorial(m) * math.factorial(n)


def count_kmm(n: int, factors) -> int:
    """Magic labelings of K(n) minus the matching {2i,2i+1}: w(v) = s - l(v)
    - l(v'), so every twin pair must sum to one c. The pairing x -> c - x is
    then forced and must have no fixed point (no x with 2x = c); the pairs go
    to the n/2 twin pairs in (n/2)! ways, each in 2 orientations."""
    elems = elements(factors)
    doubles = {double(factors, x) for x in elems}
    good_c = sum(1 for c in elems if c not in doubles)
    p = n // 2
    return good_c * math.factorial(p) * 2 ** p


def count_hub_kmm(n: int, factors) -> int:
    """Magic labelings of join(KmM(n),K(1)) over a group of odd order: the
    hub has weight -l(h) and every other vertex s - l(v) - l(v') with s = 0,
    so the pairs partition the group less l(h) into pairs summing to l(h).
    x -> l(h) - x fixes only l(h)/2, which must be l(h) itself, so l(h) = 0
    and the pairs are {x, -x}: (n/2)! 2^(n/2) labelings."""
    if math.prod(factors) % 2 == 0:
        raise ValueError("only odd orders are covered by this argument")
    p = n // 2
    return math.factorial(p) * 2 ** p


def count_cycle(n: int) -> int:
    """C(n): l(i-1) + l(i+1) = mu for every i forces l(i+4) = l(i), so a
    bijection exists only for n = 4."""
    if n == 4:
        raise ValueError("C(4) is not covered by this argument")
    return 0


def has_closed_twins(adj) -> bool:
    """Two adjacent vertices u, v with N[u] = N[v] differ in weight by
    l(v) - l(u) != 0, so no magic labeling exists over any group."""
    return any(v in adj[u] and adj[u] - {v} == adj[v] - {u}
               for u in range(len(adj)) for v in adj[u] if u < v)


def regular_count_divisor(n: int, factors) -> int:
    """On a regular graph l -> l + c and l -> -l map magic labelings to magic
    labelings, and the n translations together with negation (when some
    element has order > 2) act freely."""
    has_big = any(f > 2 for f in factors)
    return 2 * n if has_big else n


def tree_is_gdm(adj) -> bool:
    """A tree is group distance magic exactly when it is K(1,m), m mod 4 != 1."""
    return is_star(adj) and (len(adj) - 1) % 4 != 1


def kmn_is_gdm(m: int, n: int) -> bool:
    """K(m,n) is group distance magic exactly when (m + n) mod 4 != 2."""
    return (m + n) % 4 != 2


A000055 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def tree_canon(adj) -> str:
    """Canonical text of a free tree: the smaller AHU code over its centres."""
    n = len(adj)
    if n == 1:
        return "()"
    degree = [len(s) for s in adj]
    leaves = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(leaves)
        nxt = []
        for leaf in leaves:
            for w in adj[leaf]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
            degree[leaf] = 0
        leaves = nxt

    def code(v, parent):
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in leaves)


# --- obstructions -----------------------------------------------------------------

def blocking_obstructions(adj) -> dict[str, tuple[int, ...]]:
    """The obstructions that rule out every group, each with its first witness.

    two-universal: the first two vertices adjacent to all others.
    shared-neighborhood: the lexicographically first pair u < v with
    deg u = deg v = d and |N(u) & N(v)| = d - 1 (for d >= 2 such a pair has a
    common neighbour, so only pairs within distance two are scanned).
    tree-shape: a tree that is not K(1,m) with m mod 4 != 1.
    """
    n = len(adj)
    found = {}
    universal = [v for v in range(n) if len(adj[v]) == n - 1] if n > 1 else []
    if len(universal) >= 2:
        found["two-universal"] = tuple(universal[:2])
    best = None
    ones = [v for v in range(n) if len(adj[v]) == 1]
    for a, b in itertools.combinations(ones, 2):
        if adj[a] != adj[b]:
            best = (a, b)
            break
    for u in range(n):
        if best is not None and u >= best[0]:
            break
        d = len(adj[u])
        if d < 2:
            continue
        near = set()
        for w in adj[u]:
            near |= adj[w]
        for v in sorted(near):
            if v > u and len(adj[v]) == d and len(adj[u] & adj[v]) == d - 1:
                if best is None or (u, v) < best:
                    best = (u, v)
                break
    if best is not None:
        found["shared-neighborhood"] = best
    if is_tree(adj) and n >= 2 and not tree_is_gdm(adj):
        found["tree-shape"] = ()
    return found


def check_obstructions(adj, reported) -> str | None:
    """Compare reported (kind, witness) pairs, forced-identity aside, with
    blocking_obstructions(adj); None when they agree."""
    want = blocking_obstructions(adj)
    got = {kind: tuple(witness) for kind, witness in reported if kind != "forced-identity"}
    if got != want:
        return f"obstructions {got} differ from {want}"
    return None
