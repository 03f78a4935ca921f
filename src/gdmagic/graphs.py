"""Simple-graph kernel: named constructions, an expression parser, graph
powers, tree recognition and enumeration, and twin structure: each graph's
twin-class record (``Graph.twin_classes``, built once per graph), which the
shape tests for K(m,n), a hub over K(n) minus a matching, and a twin-paired
(balanced) graph read.

Vertex numbering conventions are part of the contract, since labelings are
reported against concrete ids:

* ``K(n)``, ``P(n)``: vertices 0..n-1, path edges i ~ i+1;
* ``C(n)``: i ~ i+-1 (mod n);
* ``S(n)``: vertex 0 is the center, leaves 1..n;
* ``Kb(m,n)``: first part 0..m-1, second part m..m+n-1;
* ``Km(m1,...,mt)``: parts consecutive in the given order;
* ``KmM(n)``: complete graph minus the matching {2i, 2i+1};
* ``join(g,h)``: g's vertices first, then h's shifted by |V(g)|.
"""

from __future__ import annotations

import functools
import sys
from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional,
                    Sequence, Union)

if TYPE_CHECKING:
    from .products import FactoredProduct

__all__ = [
    "Graph",
    "GraphError",
    "GraphParseError",
    "complete",
    "cycle",
    "path",
    "star",
    "complete_bipartite",
    "complete_multipartite",
    "complete_minus_matching",
    "join",
    "graph_power",
    "MAX_EXPR_DEPTH",
    "Construction",
    "CONSTRUCTIONS",
    "construct_graph",
    "parse_expression",
    "from_edge_list_text",
    "from_edge_list_file",
    "is_tree",
    "find_twin_pairing",
    "complete_bipartite_parts",
    "matching_join_pairs",
    "MAX_TREE_VERTICES",
    "enumerate_trees",
]


class GraphError(ValueError):
    """Malformed construction arguments or edge lists."""


class GraphParseError(GraphError):
    """Malformed graph expression."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    adj: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return Graph(n, tuple(frozenset(s) for s in nbrs))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.adj)

    @property
    def num_edges(self) -> int:
        return sum(self.degrees) // 2

    @functools.cached_property
    def twin_classes(self) -> tuple[tuple[frozenset[int], ...], tuple[int, ...],
                                    tuple[tuple[int, ...], ...]]:
        """The twin-class record, built on first read and kept with the
        graph: the distinct neighbourhoods, compared by value, in order of
        first occurrence; for each vertex the position of its own among
        them; and each class's vertices in ascending order. Twins (vertices
        with equal neighbourhoods) share one position."""
        position: dict[frozenset[int], int] = {}
        index = [position.setdefault(nbrs, len(position)) for nbrs in self.adj]
        members: list[list[int]] = [[] for _ in position]
        for v, k in enumerate(index):
            members[k].append(v)
        return tuple(position), tuple(index), tuple(map(tuple, members))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]


# named constructions ------------------------------------------------------

def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"K(n) needs n >= 1, got {n}")
    return complete_multipartite((1,) * n)


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"C(n) needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"P(n) needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """K_{1,n}: center 0, leaves 1..n."""
    if n < 1:
        raise GraphError(f"S(n) needs n >= 1, got {n}")
    return complete_multipartite((1, n))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise GraphError(f"Kb(m,n) needs m,n >= 1, got ({m},{n})")
    return complete_multipartite((m, n))


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Parts of the given sizes, numbered consecutively in the given order;
    every vertex is adjacent to all vertices outside its part."""
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError(f"Km needs part sizes >= 1, got {tuple(sizes)}")
    n = sum(sizes)
    everyone = frozenset(range(n))
    adj: list[frozenset[int]] = []
    for s in sizes:
        part = range(len(adj), len(adj) + s)
        adj += [everyone.difference(part)] * s
    return Graph(n, tuple(adj))


def complete_minus_matching(n: int) -> Graph:
    """K_n minus the perfect matching {2i, 2i+1}; n must be even."""
    if n < 2 or n % 2:
        raise GraphError(f"KmM(n) needs an even n >= 2, got {n}")
    return complete_multipartite((2,) * (n // 2))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides; g comes first."""
    left, right = frozenset(range(g.n)), frozenset(range(g.n, g.n + h.n))
    return Graph(g.n + h.n, tuple(
        [right.union(nbrs) for nbrs in g.adj]
        + [left.union([g.n + w for w in nbrs]) for nbrs in h.adj]))


def _bfs_dist(g: Graph, src: int) -> list[int]:
    dist = [-1] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def graph_power(g: Graph, k: int) -> Graph:
    """Same vertices; u ~ v when 1 <= d(u,v) <= k."""
    if k < 1:
        raise GraphError(f"graph power needs k >= 1, got {k}")
    adj = []
    for u in range(g.n):
        # breadth-first from u, cut off after k levels
        seen, frontier = {u}, {u}
        for _ in range(k):
            frontier = {w for x in frontier for w in g.adj[x]} - seen
            if not frontier:
                break
            seen |= frontier
        seen.discard(u)
        adj.append(frozenset(seen))
    return Graph(g.n, tuple(adj))


def is_tree(g: Graph) -> bool:
    """Connected with n - 1 edges: one BFS, and none when the edge count
    already rules it out."""
    return g.n > 0 and g.num_edges == g.n - 1 and min(_bfs_dist(g, 0)) >= 0


# twin pairs -------------------------------------------------------------------

def find_twin_pairing(g: Graph) -> Optional[tuple[tuple[int, int], ...]]:
    """Pair up vertices with identical open neighborhoods.

    Vertices fall into classes of equal neighborhoods (``Graph.twin_classes``);
    the pairing exists exactly when every class has even size. Pairs are
    taken in ascending id order inside each class, and returned sorted.
    """
    classes = g.twin_classes[2]
    if any(len(members) % 2 for members in classes):
        return None
    return tuple(sorted(members[t:t + 2] for members in classes
                        for t in range(0, len(members), 2)))


def complete_bipartite_parts(g: Graph) -> Optional[tuple[list[int], list[int]]]:
    """The two color classes if g is a complete bipartite graph, else None;
    vertex 0's class first.

    These are exactly the graphs with two twin classes: a twin is never its
    twin's neighbour, so each class is independent, and a vertex adjacent
    to one member of the other class is adjacent to all of it, so each
    class is the other's neighbourhood (with no edge, there is one class)."""
    classes = g.twin_classes[2]
    if len(classes) != 2:
        return None
    return list(classes[0]), list(classes[1])


def matching_join_pairs(g: Graph, hub: int) -> Optional[list[tuple[int, int]]]:
    """Twin pairs of a complete-minus-matching joined to a universal hub.

    Every non-hub vertex must be adjacent to the hub and miss exactly one
    other non-hub vertex; those misses must pair up. Equivalently, the hub
    is alone in its twin class and every other class is a pair of degree
    n - 2 (a twin is never its twin's neighbour, so the pair misses only
    itself and has the hub among its neighbours).
    """
    _, index, classes = g.twin_classes
    own = index[hub]
    pairs = [members for k, members in enumerate(classes) if k != own]
    if len(classes[own]) != 1 or any(
            len(members) != 2 or g.degree(members[0]) != g.n - 2
            for members in pairs):
        return None
    return pairs


# tree enumeration -------------------------------------------------------------

# Largest tree order enumerate_trees accepts: n = 14 gives 3159 trees in about
# 0.1 s, while n = 16 gives 19,320 trees and about 74 MB more memory.
MAX_TREE_VERTICES = 14


def _next_rooted_levels(levels: list[int], p: int) -> None:
    """Beyer-Hedetniemi successor, in place: decrease the canonical level
    sequence at position p and refill the tail by copying the subtree of
    p's new parent, giving the next rooted tree in decreasing order."""
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - p + q]


def _second_branch(levels: list[int]) -> int:
    """Index where the root's second subtree starts (len(levels) if none)."""
    m = 2
    while m < len(levels) and levels[m] != 1:
        m += 1
    return m


def _centre_rooted(levels: list[int]) -> bool:
    """Whether a canonical rooted level sequence is the one chosen for its
    free tree. The root's first subtree is its highest; the root must be
    the centre or, when the tree is bicentral (the other centre heads the
    first subtree), the centre whose half is larger, or lexicographically
    not smaller when the two halves have equal size."""
    m = _second_branch(levels)
    h1 = max(levels[1:m])
    h2 = max(levels[m:], default=0)
    if h2 == h1:
        return True
    if h2 != h1 - 1:
        return False
    left, rest = m - 1, len(levels) - m + 1
    return left < rest or (left == rest
                           and [x - 1 for x in levels[1:m]] <= [0] + levels[m:])


def _free_tree_levels(n: int):
    """Wright, Richmond, Odlyzko and McKay, "Constant time generation of
    free trees" (SIAM J. Comput. 15, 1986): every free tree on n >= 2
    vertices exactly once, as its centre-rooted level sequence, in
    decreasing lexicographic order from the path to the star."""
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        if not _centre_rooted(levels):
            # No sequence with this first subtree is chosen: step to the
            # next first subtree, and give the rest a path tall enough to
            # keep the root central.
            p = _second_branch(levels) - 1
            deep = levels[p] > 2
            _next_rooted_levels(levels, p)
            if deep:
                h = max(levels[1:_second_branch(levels)])
                levels[n - h:] = range(1, h + 1)
        yield tuple(levels)
        p = n - 1
        while levels[p] == 1:
            p -= 1
        if p == 0:
            return
        _next_rooted_levels(levels, p)


def _tree_from_levels(levels: Sequence[int]) -> Graph:
    """Vertex i is the i-th entry; its parent is the nearest earlier vertex
    one level up."""
    last = [0] * len(levels)
    edges = []
    for v in range(1, len(levels)):
        edges.append((last[levels[v] - 1], v))
        last[levels[v]] = v
    return Graph.from_edges(len(levels), edges)


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Generated directly, with no isomorphism test: each tree is built from
    its centre-rooted level sequence (vertex 0 is a centre), in generation
    order, from the path to the star. Supported for
    1 <= n <= MAX_TREE_VERTICES.
    """
    if not 1 <= n <= MAX_TREE_VERTICES:
        raise GraphError(f"tree enumeration supports 1..{MAX_TREE_VERTICES} "
                         f"vertices, got {n}")
    if n == 1:
        return [Graph.from_edges(1, [])]
    return [_tree_from_levels(levels) for levels in _free_tree_levels(n)]


# edge-list files ---------------------------------------------------------------

def _too_long(digits: str) -> str:
    return (f"integer of {len(digits)} digits is over the "
            f"{sys.get_int_max_str_digits()}-digit limit")


def _int_pair(line: str) -> Optional[tuple[int, int]]:
    """The two integers of an edge-list line, or None when it holds
    anything else."""
    parts = line.split()
    digits = [p.removeprefix("-") for p in parts]
    if len(parts) != 2 or not all(d.isdecimal() for d in digits):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:  # more digits than int() converts
        raise GraphError(
            "edge list line: " + _too_long(max(digits, key=len))) from None


def from_edge_list_text(text: str) -> Graph:
    """Parse the edge-list format: first line "n m", then m lines "u v"."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty edge list")
    head = _int_pair(lines[0])
    if head is None:
        raise GraphError(f"edge list header must be 'n m', got {lines[0]!r}")
    n, m = head
    if len(lines) - 1 != m:
        raise GraphError(f"edge list declares {m} edges but has {len(lines) - 1}")
    edges = []
    seen = set()
    for ln in lines[1:]:
        pair = _int_pair(ln)
        if pair is None:
            raise GraphError(f"bad edge line {ln!r}")
        u, v = pair
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def from_edge_list_file(filename: str) -> Graph:
    with open(filename, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(
            f"edge list {filename!r} is not UTF-8: byte "
            f"0x{data[exc.start]:02x} at offset {exc.start}") from None
    return from_edge_list_text(text)


# expression parser --------------------------------------------------------------

# Most constructions an expression may nest; the parser recurses twice per
# level, which keeps it well inside Python's default recursion limit.
MAX_EXPR_DEPTH = 100

# Most characters of the input that a parse error quotes: a longer input is
# quoted as the stretch of this width around the error position.
_ERROR_WINDOW = 80


class Construction(NamedTuple):
    """An expression atom: its comma-separated arguments, each named by the
    parser method that reads it, and the builder that takes them."""

    args: tuple[str, ...]
    build: Callable[..., Graph]


def _products():
    from . import products  # products imports this module
    return products


# The atoms of graph expressions. The builders call the constructions by
# their module-level names, so that a construction rebound in its module
# (a tracer's wrapper) is the one called.
CONSTRUCTIONS: dict[str, Construction] = {
    "K": Construction(("integer",), lambda n: complete(n)),
    "C": Construction(("integer",), lambda n: cycle(n)),
    "P": Construction(("integer",), lambda n: path(n)),
    "S": Construction(("integer",), lambda n: star(n)),
    "Kb": Construction(("integer", "integer"),
                       lambda m, n: complete_bipartite(m, n)),
    "Km": Construction(("integers",), lambda sizes: complete_multipartite(sizes)),
    "KmM": Construction(("integer",), lambda n: complete_minus_matching(n)),
    "join": Construction(("graph", "graph"), lambda g, h: join(g, h)),
    "pow": Construction(("graph", "integer"), lambda g, k: graph_power(g, k)),
    "lex": Construction(("graph", "graph"),
                        lambda g, h: _products().lex_product(g, h)),
    "dir": Construction(("graph", "graph"),
                        lambda g, h: _products().direct_product(g, h)),
    "cart": Construction(("graph", "graph"),
                         lambda g, h: _products().cartesian_product(g, h)),
    "file": Construction(("raw_path",), lambda name: from_edge_list_file(name)),
}


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> GraphParseError:
        start = max(0, min(self.pos - _ERROR_WINDOW // 2,
                           len(self.text) - _ERROR_WINDOW))
        end = start + _ERROR_WINDOW
        quoted = (("..." if start else "") + repr(self.text[start:end])
                  + ("..." if end < len(self.text) else ""))
        return GraphParseError(f"{message} (at position {self.pos} in {quoted})")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a construction name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise GraphParseError(
                _too_long(self.text[start:self.pos])
                + f" (at position {start})") from None

    def integers(self) -> list[int]:
        out = [self.integer()]
        while self.peek() == ",":
            self.pos += 1
            out.append(self.integer())
        return out

    def raw_path(self) -> str:
        self.skip_ws()
        if self.peek() == '"':
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] != '"':
                self.pos += 1
            if self.pos >= len(self.text):
                raise self.error("unterminated quoted path")
            out = self.text[start:self.pos]
            self.pos += 1
            return out
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != ")":
            self.pos += 1
        return self.text[start:self.pos].strip()

    def parse(self) -> Union[Graph, FactoredProduct]:
        g = self.graph()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input after expression")
        return g

    def graph(self) -> Union[Graph, FactoredProduct]:
        name = self.name()
        if self.depth == MAX_EXPR_DEPTH:
            raise self.error(f"expression nests more than {MAX_EXPR_DEPTH} "
                             "constructions")
        self.depth += 1
        self.expect("(")
        g = self.payload(name)
        self.expect(")")
        self.depth -= 1
        return g

    def payload(self, name: str) -> Union[Graph, FactoredProduct]:
        row = CONSTRUCTIONS.get(name)
        if row is None:
            raise self.error(f"unknown construction {name!r}")
        args = []
        for i, kind in enumerate(row.args):
            if i:
                self.expect(",")
            args.append(getattr(self, kind)())
        if self.depth == 1 and name in ("lex", "dir"):
            return _products().FactoredProduct(name, *args)
        return row.build(*args)


def parse_expression(expr: str) -> Union[Graph, FactoredProduct]:
    """The graph of an expression such as lex(C(3),C(4)) or Kb(2,3), with
    construct_graph's errors, except that a top-level lex or dir product is
    held as its factors, built, and is not itself built."""
    return _ExprParser(expr).parse()


def construct_graph(expr: str) -> Graph:
    """Build a graph from an expression such as lex(C(3),C(4)) or Kb(2,3)."""
    g = parse_expression(expr)
    return g if isinstance(g, Graph) else g.build()
