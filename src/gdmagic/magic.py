"""Group labelings of graphs: weights, verification, structural
obstructions, the paper's closed forms for trees and K(m,n), and
certificate serialization.

A labeling assigns every vertex a distinct group element; it is magic when
every vertex's neighbor-label sum lands on one common element, the magic
constant.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .abelian import GroupElement, GroupError, GroupSpec, parse_group_spec
from .graphs import Graph, is_tree, matching_join_pairs, parse_expression
from .products import FactoredProduct

__all__ = [
    "LabelingError",
    "CertificateError",
    "Labeling",
    "Obstruction",
    "Certificate",
    "TWO_UNIVERSAL",
    "SHARED_NEIGHBORHOOD",
    "TREE_SHAPE",
    "FORCED_IDENTITY",
    "weight",
    "verify",
    "magic_permutations",
    "obstruction_two_universal",
    "obstruction_shared_neighborhood",
    "tree_group_magic",
    "kmn_group_magic",
    "detect_biregular_universal",
    "all_obstructions",
    "check_graph_line",
    "format_certificate",
    "parse_certificate",
    "load_certificate",
    "save_certificate",
    "verify_certificate",
]


class LabelingError(ValueError):
    """Assignment is not a bijection, sizes disagree, or inputs are invalid."""


class CertificateError(LabelingError):
    """Malformed certificate text."""


@dataclass(frozen=True, init=False)
class Labeling:
    """A bijection from vertex ids to group elements, held as one tuple of
    plain ints per cyclic factor, ``columns[k][v]`` coordinate k of vertex
    v's label; the rows ``assignment`` are built on their first read.
    Given as rows (coerced) or as ``columns=``, the labels are checked once,
    by ``_check_injective``. ``magic_constant`` is the claimed weight."""

    group: GroupSpec
    columns: tuple[tuple[int, ...], ...]
    magic_constant: Optional[GroupElement] = None

    def __init__(self, group: GroupSpec, assignment=None,
                 magic_constant=None, *, columns=None):
        columns = (_label_columns(group, assignment) if columns is None
                   else _checked_columns(group, columns))
        _check_injective(group, columns)
        if magic_constant is not None:
            magic_constant = group.element(magic_constant)
        for field, value in zip(self.__dataclass_fields__,
                                (group, columns, magic_constant)):
            object.__setattr__(self, field, value)

    @functools.cached_property
    def assignment(self) -> tuple[GroupElement, ...]:
        return tuple(zip(*self.columns)) or ((),) * self.group.order


def _label_columns(group: GroupSpec, labels) -> tuple[tuple[int, ...], ...]:
    """The rows ``labels`` as one tuple per cyclic factor, coerced through
    ``group.element`` unless all are reduced elements already; the count of
    the trivial group's labels, which no column carries, is checked here."""
    try:
        rows = tuple(labels)
        if not ({tuple}.issuperset(map(type, rows))
                and {group.arity}.issuperset(map(len, rows))):
            rows = tuple(map(group.element, rows))
        columns = tuple(zip(*rows)) or ((),) * group.arity
        if not _reduced(columns, group.factors):
            columns = tuple(zip(*map(group.element, rows)))
    except GroupError:
        raise
    except (TypeError, ValueError) as exc:
        raise LabelingError(f"labels must be sequences of integer "
                            f"coordinates, one per vertex ({exc})") from None
    if not columns and len(rows) != group.order:
        raise LabelingError(f"{len(rows)} labels for a group of order "
                            f"{group.order_text()}")
    return columns


def _checked_columns(group: GroupSpec, columns: Iterable[Iterable[int]],
                     least: int = 0) -> tuple[tuple[int, ...], ...]:
    """``columns`` as tuples; raises unless they are ``least`` or more, one
    per factor f, of one length, of plain ints 0 <= c < f."""
    columns = tuple(map(tuple, columns))
    if (not least <= len(columns) == group.arity
            or len(set(map(len, columns))) > 1
            or not _reduced(columns, group.factors)):
        raise LabelingError(
            f"label columns must be one list of plain ints 0 <= c < f per "
            f"cyclic factor f of group {group}, all of one length")
    return columns


def _reduced(columns: Sequence[Sequence[int]], factors: Sequence[int]) -> bool:
    """Whether every entry of ``columns`` is a plain int 0 <= c < factor."""
    return (not columns or not columns[0]
            or {int}.issuperset(map(type, itertools.chain(*columns)))
            and min(map(min, columns)) >= 0
            and all(map(operator.gt, factors, map(max, columns))))


def _check_injective(group: GroupSpec, columns: Sequence[Sequence[int]]
                     ) -> None:
    """Raise LabelingError unless the labels given as ``columns`` (one per
    cyclic factor, of one length, reduced; none: the trivial group's one
    label) are group.order labels, no two alike: each label's mixed-radix
    code, its position in ``GroupSpec.elements()``, goes into one set."""
    if not columns:
        return
    codes = columns[0]
    if len(codes) != group.order:
        raise LabelingError(f"{len(codes)} labels for a group of order "
                            f"{group.order_text()}")
    for column, f in zip(columns[1:], group.factors[1:]):
        codes = [code * f + c for code, c in zip(codes, column)]
    if len(set(codes)) != len(codes):
        raise LabelingError("assignment is not injective")


def _is_element(group: GroupSpec, x) -> bool:
    try:  # a reduced element of the group's arity
        return tuple(x) == group.element(x)
    except (TypeError, ValueError):  # GroupError is a ValueError
        return False


def _check_sizes(g: Union[Graph, FactoredProduct],
                 labeling: Labeling) -> None:
    if g.n != labeling.group.order:  # a Labeling labels every element once
        raise LabelingError(
            f"graph has {g.n} vertices but labeling covers "
            f"{labeling.group.order}")


def weight(g: Graph, labeling: Labeling, v: int) -> GroupElement:
    """Group sum of the labels on v's neighbors (zero for isolated v)."""
    _check_sizes(g, labeling)
    grp = labeling.group
    total = grp.zero()
    for u in sorted(g.adj[v]):
        total = grp.add(total, labeling.assignment[u])
    return total


def _common_weight(neighbourhoods: Sequence[Iterable[int]],
                   factors: Sequence[int],
                   columns: Iterable[Sequence[int]]
                   ) -> tuple[Optional[GroupElement], Optional[Iterable[int]]]:
    """The weight all of ``neighbourhoods`` share and None, or None and the
    neighbourhood the scan stopped at, whose weight differs from the first
    one's.

    This is the weight kernel of a Graph in ``verify`` and
    ``verify_certificate`` (``_weights``), which also confirms every hit of
    ``magic_permutations``. ``neighbourhoods`` lists the neighbourhoods to
    sum, twins' once, vertex 0's first; ``columns`` gives, per cyclic
    factor, coordinate k of every vertex's label. Coordinate k of a weight
    is the plain-int sum of coordinate k of the neighbours' labels, reduced
    mod the k-th factor; no group addition runs. Per factor, the first
    neighbourhood's coordinate is the target and the scan stops at the first
    neighbourhood whose coordinate differs, so a later factor's column is
    never asked for. ``weight`` is the per-vertex definition this agrees
    with.
    """
    mu = []
    for f, column in zip(factors, columns):
        get = column.__getitem__
        rest = iter(neighbourhoods)
        target = sum(map(get, next(rest))) % f
        for nbrs in rest:
            if sum(map(get, nbrs)) % f != target:
                return None, nbrs  # no later factor's column is asked for
        mu.append(target)
    return tuple(mu), None


def _level_weights(g: FactoredProduct, factors: Sequence[int],
                   columns: Iterable[Sequence[int]]
                   ) -> tuple[GroupElement,
                              Optional[tuple[int, GroupElement]]]:
    """``_weights`` of a lex or dir product, summed one level at a time
    from its factors, which builds neither the product nor an index list
    per vertex.

    Per cyclic factor: S_c(i) sums block i (vertices i·|V(H)| + j) over the
    c-th distinct neighbourhood of H, from one slice per vertex of H, and
    B(i) sums the whole block. Vertex (i, j), j in class c of H, weighs
    S_c(i) + T(i) in G ∘ H, T(i) the sum of B over N_G(i) (one sum per
    distinct neighbourhood of G, spread by G's twin index), and the sum of
    S_c over N_G(i) in G × H (one per distinct neighbourhood of G). Each
    class of H gets one list of reduced weights, over the vertices (lex) or
    distinct neighbourhoods (dir) of G, that ``list.count`` compares with
    vertex 0's. An entry's first vertex pairs its row's first vertex of G
    with its class's first vertex of H, so the first vertex whose weight
    differs is the least such pair over the mismatches of every factor.
    """
    left, h, lex = g.g, g.h, g.kind == "lex"
    gn, hn = left.n, h.n
    g_distinct, g_index, g_classes = left.twin_classes
    h_distinct, h_index, h_classes = h.twin_classes

    def over_g(values):
        """One sum of ``values`` per distinct neighbourhood of G."""
        return map(sum, map(map, itertools.repeat(values.__getitem__),
                            g_distinct))
    tables, mu = [], []
    for f, column in zip(factors, columns):
        blocks = [column[j::hn] for j in range(hn)]  # vertex j of each block
        sums = [list(map(sum, zip(*map(blocks.__getitem__, js)))) if js
                else [0] * gn for js in h_distinct]
        if lex:
            outer = list(over_g(list(map(sum, zip(*blocks)))))
            outer = list(map(outer.__getitem__, g_index))
            sums = [map(operator.add, s, outer) for s in sums]
        else:
            sums = map(over_g, sums)
        tables.append([list(map(f.__rmod__, s)) for s in sums])
        mu.append(tables[-1][0][0])
    row_first = range(gn) if lex else [members[0] for members in g_classes]
    first = min((row_first[list(map(target.__ne__, ws)).index(True)] * hn
                 + h_classes[c][0]
                 for weights, target in zip(tables, mu)
                 for c, ws in enumerate(weights)
                 if ws.count(target) != len(ws)), default=None)
    if first is None:
        return tuple(mu), None
    i, j = divmod(first, hn)
    row, c = (i if lex else g_index[i]), h_index[j]
    return tuple(mu), (first, tuple(weights[c][row] for weights in tables))


def _weights(g: Union[Graph, FactoredProduct], factors: Sequence[int],
             columns: Sequence[Sequence[int]]
             ) -> tuple[GroupElement, Optional[tuple[int, GroupElement]]]:
    """Vertex 0's weight, and None when every vertex of g has it, else the
    first vertex whose weight differs and its weight; ``columns`` holds,
    per cyclic factor, coordinate k of every label. A lex or dir product
    held as its factors is summed by ``_level_weights``. A Graph's distinct
    neighbourhoods go through ``_common_weight``, which stops at the first
    that differs on the first factor that differs; one before it may
    differ on a later factor only, so the prefix before it is scanned again
    until it agrees.
    """
    if not isinstance(g, Graph):
        return _level_weights(g, factors, columns)
    distinct, _, classes = g.twin_classes
    mu, stop = _common_weight(distinct, factors, columns)
    if stop is None:
        return mu, None
    while stop is not None:
        differs = distinct.index(stop)
        mu, stop = _common_weight(distinct[:differs], factors, columns)
    # neighbourhoods come in order of first occurrence, so the first vertex
    # with this one is the first whose weight differs
    return mu, (classes[differs][0], _common_weight(
        distinct[differs:differs + 1], factors, columns)[0])


def verify(g: Union[Graph, FactoredProduct],
           labeling: Labeling) -> Optional[GroupElement]:
    """The magic constant when all vertex weights agree, else None: the
    weight kernel that ``verify_certificate`` runs too (``_weights``). g is
    a Graph, or a lex or dir product held as its factors, whose weights are
    summed from the factors without building it.

    Edgeless graphs verify with the identity (all weights are empty sums).
    """
    _check_sizes(g, labeling)
    mu, differs = _weights(g, labeling.group.factors, labeling.columns)
    return mu if differs is None else None


def magic_permutations(g: Graph, labeling: Labeling) -> Iterator[Labeling]:
    """Every rearrangement of ``labeling``'s labels that is magic on g, in
    ``itertools.permutations`` order, each carrying its magic constant.

    Labels are packed into one integer column, base b_k = d·(f_k - 1) + 1
    per cyclic factor f_k, d the largest distinct neighbourhood's size (at
    least 1). Each edge (a, b) of a cheapest spanning tree of the distinct
    neighbourhoods (``Graph.twin_classes``), cheapest first, is a lazy
    C-level stage keeping a candidate whose sums over N_a∖N_b and N_b∖N_a
    weigh the same (README, "the naive permutation scan"). Each hit's label
    columns are confirmed, and given their constant, by ``verify``'s kernel
    (``_common_weight``); a hit it rejects raises LabelingError.
    """
    _check_sizes(g, labeling)
    group, rows = labeling.group, labeling.assignment
    neighbourhoods = g.twin_classes[0]
    d = max(1, max(map(len, neighbourhoods)))
    radix, places, place = [], [], 1  # the last factor is the lowest digit
    for f in reversed(group.factors):
        radix.append((d * (f - 1) + 1, f))
        places.insert(0, place)
        place *= radix[-1][0]
    # each label's coordinates times their places, summed
    packed = list(map(sum, map(map, itertools.repeat(operator.mul), rows,
                               itertools.repeat(places))))
    coordinates = [dict(zip(packed, c)).__getitem__ for c in labeling.columns]

    @functools.cache
    def code(total):
        """The weight of a sum of packed labels as an element code; the
        cache is the lookup, filled with the sums the scan meets."""
        weight, place = 0, 1
        for base, f in radix:
            total, digit = divmod(total, base)
            weight += digit % f * place
            place *= f
        return weight

    # Prim's tree: best[j] is the cheapest (|N_a Δ N_j|, a) into the tree
    best = dict.fromkeys(range(1, len(neighbourhoods)), (sys.maxsize, 0))
    edges, b = [], 0
    while best:
        for j in best:
            best[j] = min(best[j], (len(neighbourhoods[b] ^ neighbourhoods[j]),
                                    b))
        b = min(best, key=best.__getitem__)
        edges.append((*best.pop(b), b))
    stream = itertools.permutations(packed)
    for _, a, b in sorted(edges):
        # an empty side weighs the identity, code 0; one label needs no sum
        one, other = neighbourhoods[a], neighbourhoods[b]
        sides = list(filter(None, (one - other, other - one)))
        *copies, kept = itertools.tee(stream, len(sides) + 1)
        codes = [itertools.repeat(0)] * 2
        for k, (side, copy) in enumerate(zip(sides, copies)):
            picked = map(operator.itemgetter(*side), copy)
            codes[k] = map(code, picked if len(side) == 1 else
                           map(sum, picked))
        stream = itertools.compress(kept, map(operator.eq, *codes))
    for candidate in stream:
        columns = [tuple(map(get, candidate)) for get in coordinates]
        mu, _ = _common_weight(neighbourhoods, group.factors, columns)
        if mu is None:  # never expected: the lookup or the packing is wrong
            raise LabelingError(f"the packed scan kept {columns!r}, which "
                                f"the weight kernel finds not magic")
        yield Labeling(group, columns=columns, magic_constant=mu)


# obstructions ----------------------------------------------------------------

TWO_UNIVERSAL = "two-universal"
SHARED_NEIGHBORHOOD = "shared-neighborhood"
TREE_SHAPE = "tree-shape"
FORCED_IDENTITY = "forced-identity"


@dataclass(frozen=True)
class Obstruction:
    """A structural finding about a graph's magic labelings.

    ``two-universal``, ``shared-neighborhood`` and ``tree-shape`` block: they
    rule out a magic labeling over every group of matching order.
    ``forced-identity`` only pins the label of one vertex to the identity.
    """

    kind: str
    witness: tuple[int, ...]
    detail: str

    @property
    def blocks(self) -> bool:
        """Whether no group of the graph's order has a magic labeling."""
        return self.kind != FORCED_IDENTITY


def obstruction_two_universal(g: Graph) -> Optional[Obstruction]:
    """Two distinct vertices adjacent to everything else rule out magicness:
    both would need weight s - label, forcing equal labels."""
    universal = [v for v in range(g.n) if g.degree(v) == g.n - 1 and g.n > 1]
    if len(universal) >= 2:
        u, v = universal[0], universal[1]
        return Obstruction(TWO_UNIVERSAL, (u, v),
                           f"vertices {u} and {v} are both adjacent to every "
                           "other vertex")
    return None


def obstruction_shared_neighborhood(g: Graph) -> Optional[Obstruction]:
    """A pair u, v with |N(u) & N(v)| = deg(u)-1 = deg(v)-1 rules out
    magicness; the first witness in lexicographic pair order is returned.

    Two vertices of degree 1 form a witness exactly when their neighbours
    differ. For degree d >= 2, N(u) is the d-1 shared neighbours plus one
    more, so their least element is one of the two smallest of N(u) and
    their greatest one of the two largest: both vertices of a witness sit
    in one bucket (d, least, greatest), and only pairs within a bucket are
    tested, each pair once. Twins share all d neighbours, so they are never
    a witness, and a witness (u, v) gives one made of the first vertex of
    u's neighbourhood and the first of v's, which is no later in pair
    order: only the first vertex of each distinct neighbourhood is
    bucketed. Nothing is bucketed when the degree-one vertices give a
    witness (0, v): no pair comes before it.
    """
    adj, degrees = g.adj, g.degrees
    best = None
    ones = [v for v, d in enumerate(degrees) if d == 1]
    for v in ones[1:]:
        if adj[v] != adj[ones[0]]:
            best = (ones[0], v)
            break
    if best is None or best[0] != 0:  # no pair comes before a witness (0, v)
        distinct, _, classes = g.twin_classes
        firsts = [members[0] for members in classes]
        buckets: dict[tuple[int, int, int], list[int]] = {}
        slots = []  # slots[k]: (bucket, position of firsts[k] in it) per key
        for u, nbrs in zip(firsts, distinct):
            d, mine = len(nbrs), []
            if d >= 2:
                s = sorted(nbrs)
                for key in {(d, s[0], s[-1]), (d, s[0], s[-2]),
                            (d, s[1], s[-1])}:
                    bucket = buckets.setdefault(key, [])
                    mine.append((bucket, len(bucket)))
                    bucket.append(u)
            slots.append(mine)
        for u, mine in zip(firsts, slots):
            if best is not None and best[0] <= u:
                break
            nbrs, shared = adj[u], degrees[u] - 1
            later = [bucket[pos + 1:] for bucket, pos in mine
                     if len(bucket) > pos + 1]
            if len(later) > 1:
                later = [sorted(set().union(*later))]
            for v in itertools.chain(*later):
                if best is not None and (u, v) >= best:
                    break
                if len(nbrs & adj[v]) == shared:
                    best = (u, v)
                    break
    if best is None:
        return None
    u, v = best
    d = degrees[u]
    return Obstruction(
        SHARED_NEIGHBORHOOD, (u, v),
        f"deg({u}) = deg({v}) = {d} and the neighborhoods share "
        f"{d - 1} vertices")


def tree_group_magic(t: Graph) -> bool:
    """Whether a non-trivial tree admits a magic labeling over any (hence
    every) abelian group of matching order: exactly the stars K_{1,m} with
    m mod 4 != 1."""
    if not is_tree(t):
        raise LabelingError("graph is not a tree")
    if t.n < 2:
        raise LabelingError("tree must have at least two vertices")
    # a star: one vertex of degree n - 1 takes every edge
    return max(t.degrees) == t.n - 1 and (t.n - 1) % 4 != 1


def kmn_group_magic(m: int, n: int) -> bool:
    """Whether K_{m,n} is magic over every abelian group of order m + n."""
    if m < 1 or n < 1:
        raise LabelingError(f"part sizes must be >= 1, got ({m},{n})")
    return (m + n) % 4 != 2


def detect_biregular_universal(g: Graph) -> Optional[tuple[int, int]]:
    """Detect an odd-order graph with one universal vertex and all other
    degrees equal to some r2 in {1, 2, 3, n-3}, or r2 = n-2 when the rest is
    a complete graph minus a perfect matching.

    In such graphs every magic labeling assigns the identity to the
    universal vertex. Only odd n > 3 qualifies (for even order the forced
    label can genuinely differ from the identity).
    """
    n = g.n
    if n <= 3 or n % 2 == 0:
        return None
    universal = [v for v in range(n) if g.degree(v) == n - 1]
    if len(universal) != 1:
        return None
    v = universal[0]
    rest = {g.degree(u) for u in range(n) if u != v}
    if len(rest) != 1:
        return None
    r2 = rest.pop()
    if r2 == n - 2:
        return (v, r2) if matching_join_pairs(g, v) is not None else None
    if r2 in (1, 2, 3, n - 3):
        return (v, r2)
    return None


def all_obstructions(g: Graph) -> list[Obstruction]:
    """Run every structural check and collect the findings."""
    out = []
    for check in (obstruction_two_universal, obstruction_shared_neighborhood):
        found = check(g)
        if found:
            out.append(found)
    try:
        tree_shape = not tree_group_magic(g)
    except LabelingError:  # not a tree on two or more vertices
        tree_shape = False
    if tree_shape:
        out.append(Obstruction(
            TREE_SHAPE, (),
            "tree is not a star K(1,m) with m mod 4 != 1"))
    det = detect_biregular_universal(g)
    if det is not None:
        v, r2 = det
        out.append(Obstruction(
            FORCED_IDENTITY, (v,),
            f"any magic labeling must assign the identity to vertex {v} "
            f"(degrees {g.n - 1} and {r2})"))
    return out


# certificates ----------------------------------------------------------------

@dataclass(frozen=True, init=False)
class Certificate:
    """Self-contained record of a labeling: graph expression, group, claimed
    magic constant, per-vertex labels, and an optional construction tag.

    The labels are held as a Labeling holds them, but unchecked, until
    ``verify_certificate``. Rows given are coerced as a Labeling's; rows
    the group cannot hold are kept as given, for ``verify_certificate`` to
    reject. The ``labels`` rows are built on their first read."""

    graph_expr: str
    group: GroupSpec
    mu: GroupElement
    _columns: Optional[tuple[tuple[int, ...], ...]]
    theorem: Optional[str] = None

    def __init__(self, graph_expr: str, group: GroupSpec, mu: GroupElement,
                 labels=None, theorem: Optional[str] = None, *, columns=None):
        if columns is None:
            try:
                columns = _label_columns(group, labels)
            except (GroupError, LabelingError):  # kept to name the fault
                object.__setattr__(self, "labels", labels)
        elif _is_element(group, mu):
            columns, mu = _checked_columns(group, columns, 1), group.element(mu)
        else:
            raise LabelingError(f"mu {mu!r} is not an element of {group}")
        for field, value in zip(self.__dataclass_fields__,
                                (graph_expr, group, mu, columns, theorem)):
            object.__setattr__(self, field, value)

    @classmethod
    def from_columns(cls, graph_expr: str, group: GroupSpec,
                     mu: GroupElement, columns: Iterable[Iterable[int]],
                     theorem: Optional[str] = None) -> Certificate:
        """The certificate whose label of vertex v has coordinate k
        ``columns[k][v]``; raises unless mu and the columns are reduced."""
        return cls(graph_expr, group, mu, theorem=theorem, columns=columns)

    @functools.cached_property
    def labels(self) -> tuple[GroupElement, ...]:
        return tuple(zip(*self._columns)) or ((),) * self.group.order


def check_graph_line(graph_expr: str) -> None:
    """Raise unless ``graph_expr`` fits on a certificate's one "graph:"
    line: one line as ``str.splitlines``, which ``parse_certificate`` reads
    by, counts them."""
    if len(graph_expr.splitlines()) > 1:
        raise CertificateError(
            "graph expression spans more than one line; a certificate "
            "holds it on its one 'graph:' line")


def format_certificate(cert: Certificate) -> str:
    """The certificate's text, one field per line; a graph expression that
    spans lines cannot be written as one field and raises."""
    check_graph_line(cert.graph_expr)
    grp = cert.group
    lines = []
    if cert.theorem:
        lines.append(f"# theorem: {cert.theorem}")
    lines.append(f"graph: {cert.graph_expr}")
    lines.append(f"group: {grp}")
    lines.append(f"mu: {grp.format_element(cert.mu)}")
    # rows the group cannot hold, kept with no columns, raise here
    lines += grp.format_columns(cert._columns
                                or _label_columns(grp, cert.labels), "v %d ")
    return "\n".join(lines) + "\n"


def _theorem_tag(line: str) -> Optional[str]:
    """The tag of a "# theorem: <tag>" comment line: the first word after
    "theorem:", blanks allowed after the "#" and the colon; None for any
    other comment. A blank is what ``str.isspace`` calls one."""
    rest = line[1:].lstrip()
    if not rest.startswith("theorem:"):
        return None
    words = rest[len("theorem:"):].split(None, 1)
    return words[0] if words else None


def _read_lines(lines: Iterable[str], fields: dict[str, str],
                raw_labels: dict[int, str]) -> Optional[str]:
    """Read certificate lines one at a time into ``fields`` and
    ``raw_labels``, raising at the first bad one (a field given twice must
    repeat its value); returns the last theorem tag."""
    theorem = None
    for line in lines:
        if line.startswith("#"):
            theorem = _theorem_tag(line) or theorem
            continue
        if line.startswith("v "):
            parts = line.split(None, 2)
            if len(parts) != 3 or not parts[1].isdecimal():
                raise CertificateError(f"bad vertex line {line!r}")
            try:
                idx = int(parts[1])
            except ValueError:  # more digits than int() converts
                raise CertificateError(
                    f"vertex index of {len(parts[1])} digits is over the "
                    f"{sys.get_int_max_str_digits()}-digit limit") from None
            if idx in raw_labels:
                raise CertificateError(f"duplicate vertex {idx}")
            raw_labels[idx] = parts[2]
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise CertificateError(f"bad certificate line {line!r}")
        key, value = key.strip(), value.strip()
        if fields.setdefault(key, value) != value:
            raise CertificateError(
                f"certificate has two {key!r} lines that differ")
    return theorem


def _read_canonical(text: str) -> Optional[Certificate]:
    """The certificate in ``text`` when the text is laid out as
    format_certificate writes one, else None. Such a text is read in one
    pass, with no line read on its own: the numbers of mu and of every
    label go straight into one integer column per cyclic factor.

    The layout: a "#" line when the text starts with "#"; "graph: " and
    "group: " lines of printable characters, no blank around the graph
    expression, the group not trivial; then "mu: (m1,...,mk)" and
    "v i (c1,...,ck)" for i = 0..n-1 in order, each line ended by "\n",
    every number ASCII digits. Deleting the digits must leave exactly the
    layout's other characters, and the separators that hold no number
    ("mu: (", " (" and ")\nv ") must occur whole as often as the layout
    has them, so every run of digits stands where a number goes. The
    per-line reader reads the same certificate from such a text."""
    *head, block = text.split("\n", 3 if text.startswith("#") else 2)
    if len(head) < 2 or not all(map(str.isprintable, head)):
        return None
    theorem = _theorem_tag(head.pop(0)) if len(head) == 3 else None
    (graph_key, _, graph), (group_key, _, spec) = (
        line.partition(": ") for line in head)
    if (graph_key, group_key) != ("graph", "group") or graph != graph.strip():
        return None
    try:
        group = parse_group_spec(spec)
    except GroupError:
        return None
    n, arity = group.order, group.arity
    numbers = "(" + "," * (arity - 1) + ")\n"
    # the line count first: the layout is built only for a group whose
    # order the text can hold
    if (not arity or block.count("\n") != n + 1
            or not block.startswith("mu: (") or not block.endswith(")\n")
            or block.count(" (") != n + 1 or block.count(")\nv ") != n
            or block.translate(str.maketrans("", "", "0123456789"))
            != "mu: " + numbers + ("v  " + numbers) * n):
        return None
    # the words are mu's k numbers, then per label its index and its k
    # numbers: in steps of k + 1, the slice from k is the indices, and the
    # slice from k + 1 + j column j
    words = block.translate(str.maketrans("mu:v(),", "       ")).split()
    step = arity + 1  # the indices 0..n-1 are compared as one string
    if (len(words) != arity + n * step
            or " ".join(words[arity::step]) != " ".join(["%d"] * n) % (
                *range(n),)):
        return None
    try:
        mu = tuple(map(int, words[:arity]))
        columns = [tuple(map(int, words[k::step]))
                   for k in range(step, step + arity)]
        # refuses a coordinate, or one of mu's, not below its factor
        return Certificate.from_columns(graph, group, mu, columns, theorem)
    except ValueError:  # a LabelingError, or more digits than int() reads
        return None


def parse_certificate(text: str) -> Certificate:
    """Read a certificate's text. Text laid out as format_certificate
    writes it is read in one pass (``_read_canonical``); any other text is
    read one line at a time, so that a message names the first bad line."""
    cert = _read_canonical(text)
    if cert is not None:
        return cert
    fields: dict[str, str] = {}
    raw_labels: dict[int, str] = {}
    theorem = _read_lines(filter(None, map(str.strip, text.splitlines())),
                          fields, raw_labels)
    for required in ("graph", "group", "mu"):
        if required not in fields:
            raise CertificateError(f"certificate missing {required!r} line")
    group = parse_group_spec(fields["group"])
    mu = group.parse_element(fields["mu"])
    n = group.order
    # the count first: the group's order may be far beyond any list's
    if len(raw_labels) != n or sorted(raw_labels) != list(range(n)):
        try:
            detail = f"certificate must label vertices 0..{n - 1} exactly once"
        except ValueError:  # n - 1 has more digits than int-to-str converts
            detail = (f"certificate labels {len(raw_labels)} vertices but "
                      f"group {group} has order {group.order_text()}")
        raise CertificateError(detail)
    labels = tuple(group.parse_elements(map(raw_labels.pop, range(n))))
    return Certificate(fields["graph"], group, mu, labels, theorem)


def load_certificate(filename: str) -> Certificate:
    with open(filename, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CertificateError(
            f"certificate {filename!r} is not UTF-8: byte "
            f"0x{data[exc.start]:02x} at offset {exc.start}") from None
    return parse_certificate(text)


def save_certificate(cert: Certificate, filename: str) -> None:
    text = format_certificate(cert)  # first, so a refused one leaves no file
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write(text)


def verify_certificate(cert: Certificate) -> tuple[bool, str, Optional[GroupElement]]:
    """Recompute the certificate from scratch: parse the graph expression,
    compare its size with the group order, check the labels (as columns,
    with no row built) and that mu is a group element, and check every
    weight against mu. A top-level lex or dir product is summed from its
    factors, unbuilt, so its size is compared with the group order before
    anything that large is built. Returns (ok, detail, actual_mu).
    """
    try:
        g = parse_expression(cert.graph_expr)
    except ValueError as exc:
        return False, f"bad graph expression: {exc}", None
    group = cert.group
    if g.n != group.order:
        return False, (f"graph has {g.n} vertices but group {group} "
                       f"has order {group.order_text()}"), None
    try:
        # rows the group cannot hold, kept with no columns, raise here
        columns = cert._columns or _label_columns(group, cert.labels)
        _check_injective(group, columns)
    except (GroupError, LabelingError) as exc:
        return False, str(exc), None
    if not _is_element(group, cert.mu):
        return False, f"mu {cert.mu!r} is not an element of {group}", None
    mu, differs = _weights(g, group.factors, columns)
    if differs is not None:
        v, wv = differs
        return False, (f"weights differ: vertex 0 has "
                       f"{group.format_element(mu)}, vertex {v} has "
                       f"{group.format_element(wv)}"), None
    if mu != cert.mu:
        return False, (f"magic constant is {group.format_element(mu)} but "
                       f"certificate claims {group.format_element(cert.mu)}"),\
               mu
    return True, "ok", mu
