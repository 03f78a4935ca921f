"""Exhaustive search for magic labelings.

Two engines share nothing but the definition of a weight:

* a pruned search that reads the magic system's own linear algebra: per
  cyclic factor of the group, one Howell form of the system tells each
  vertex exactly which labels still extend to a solution, so the only
  dead ends are repeated labels; translation and open-twin symmetry in
  count and first mode, and in count mode a closed-form count of the free
  tail;
* a deliberately naive permutation scan, used as the independent oracle:
  every one of the n! permutations of the group's elements, unpruned, is
  scored on packed integer labels, one stage per edge of a cheapest
  spanning tree of the distinct neighbourhoods
  (``magic.magic_permutations``), and every labeling it reports is
  confirmed by the verifier's per-factor weight kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .abelian import GroupSpec, enumerate_abelian_groups, sum_of_elements
from .graphs import Graph
from .magic import Labeling, blocking_obstruction, magic_permutations

__all__ = [
    "SolverError",
    "SearchSizeError",
    "SearchOptions",
    "NAIVE_VERTEX_CAP",
    "PRUNED_VERTEX_CAP",
    "ALL_MODE_CAP",
    "search_labelings",
    "classify_over_all_groups",
]

NAIVE_VERTEX_CAP = 8
PRUNED_VERTEX_CAP = 12
# labelings that all mode lists, 8! and more, so that the naive path, which
# lists at most 8!, needs no check of its own
ALL_MODE_CAP = 100_000


class SolverError(ValueError):
    """Bad search request."""


class SearchSizeError(SolverError):
    """Instance exceeds the supported size cap."""


@dataclass(frozen=True)
class SearchOptions:
    """mode: first | all | count; vertex_order: degree_desc | input;
    use_pruning=False selects the naive oracle path; jobs: checked to be at
    least 1 and otherwise ignored, since every search runs in one process."""

    mode: str = "first"
    vertex_order: str = "degree_desc"
    use_pruning: bool = True
    jobs: int = 1


def _vertex_order(g: Graph, kind: str) -> list[int]:
    if kind == "input":
        return list(range(g.n))
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _naive(g: Graph, group: GroupSpec, mode: str):
    """Scan every permutation of the group's elements as vertex labels
    (``magic_permutations``). The scan is lazy, so first mode reads the
    permutations only up to the first hit, and count mode builds a
    Labeling only per hit."""
    hits = magic_permutations(
        g, Labeling(group, columns=list(zip(*group.elements()))))
    if mode == "count":
        return sum(1 for _ in hits)
    return list(itertools.islice(hits, 1 if mode == "first" else None))


def _howell(rows: list[list[int]], f: int) -> list[Optional[list[int]]]:
    """A Howell form over Z_f of ``rows``, one or more lists of one length
    with entries in [0, f): per column c, the one row that leads there, as its entries
    from c on, or None. Rows combine two at a time by unimodular steps,
    which keep their span, and after each pivot its multiple by
    f / gcd(pivot, f), zero in the pivot's column, joins the rows left. So
    for every c the rows that lead at c or later span every vector of the
    row module that is zero before c (J. A. Howell, "Spans in the module
    (Z_m)^s", 1986; A. Storjohann, "Algorithms for Matrix Canonical Forms",
    2000)."""
    inverse = {a: pow(a, -1, f) for a in range(1, f) if math.gcd(a, f) == 1}
    leads: list[Optional[list[int]]] = []
    for _ in range(len(rows[0])):
        pivot, rest = None, []
        for row in rows:
            if row[0]:
                if pivot is None:
                    pivot = row
                    continue
                if pivot[0] in inverse:
                    q = row[0] * inverse[pivot[0]]
                    row = [(y - q * x) % f for x, y in zip(pivot, row)]
                else:  # Euclid on the leading entries, swapping the rows
                    while row[0]:
                        q = pivot[0] // row[0]
                        pivot, row = row, [(x - q * y) % f
                                           for x, y in zip(pivot, row)]
                if not any(row):
                    continue
            rest.append(row[1:])
        if pivot is not None:
            annihilator = f // math.gcd(pivot[0], f)
            if annihilator < f:
                rest.append([x * annihilator % f for x in pivot[1:]])
        leads.append(pivot)
        rows = rest
    return leads


class _FactorSystem(NamedTuple):
    """The magic system over one cyclic factor Z_f as the search reads it:
    each Howell row, and then mu, keeps its constant plus its coefficients
    times the labels so far in a field of ``width`` bits of one integer,
    which starts at ``constant`` and gains x times ``weights[j]`` when
    depth j takes residue x. ``reads``: per row, (its depth, its field's
    shift, h = gcd(its leading coefficient, f)); x solves it when
    h·x + field = 0. ``free``: the least depth whose labels on are free."""

    width: int
    reads: list[tuple[int, int, int]]
    weights: list[int]
    constant: int
    free: int


def _factor_system(g: Graph, order: list[int], f: int,
                   s: int) -> Optional[_FactorSystem]:
    """The magic system of g over Z_f in Howell form, or None when it has no
    solution. The unknowns are the labels along ``order`` and mu: one
    equation sum over N of l = mu per distinct neighbourhood N
    (``Graph.twin_classes``), less the first one's to eliminate mu, and
    sum of all l = s, the coordinate of s(group). The columns run through
    the labels in reverse order, then the constant, so the rows that lead at
    depth d or before span every equation on the labels up to d: a prefix
    extends to a solution exactly when each label solves the row that leads
    at its depth.

    Depth d starts a free tail when no row leads after d but the last
    depth's, and that row's coefficients from d on are all its unit leading
    one: every equation on the labels from d on is then a multiple of their
    sum, which a labeling by all the group's elements fixes."""
    n = g.n
    column = [0] * n
    for d, v in enumerate(order):
        column[v] = n - 1 - d
    first, *others = g.twin_classes[0]
    rows = []
    for nbrs in others:
        row = [0] * (n + 1)
        for v in nbrs - first:
            row[column[v]] = 1
        for v in first - nbrs:
            row[column[v]] = f - 1
        rows.append(row)
    rows.append([1] * n + [-s % f])
    leads = _howell(rows, f)
    if leads[n] is not None:  # a row 0 = c with c != 0
        return None
    width = (f + n * (f - 1) ** 2).bit_length()
    reads, weights, constant = [], [0] * n, 0
    for depth in range(n):
        lead = leads[n - 1 - depth]
        if lead is not None:
            h, at = math.gcd(lead[0], f), len(reads) * width
            # a unit u with u·lead[0] = h, which keeps the row's solutions
            u = pow(lead[0], -1, f) if h == 1 else next(
                u for u in range(1, f)
                if u * lead[0] % f == h and math.gcd(u, f) == 1)
            reads.append((depth, at, h))
            weights[:depth] = [w + (u * b % f << at) for w, b in
                               zip(weights, reversed(lead[1:-1]))]
            constant += u * lead[-1] % f << at
    for v in first:  # mu, the weight of vertex 0
        weights[n - 1 - column[v]] += 1 << len(reads) * width
    free, last = n, leads[0]
    if last is not None and math.gcd(last[0], f) == 1:
        free = n - 1  # last[n - d]: the coefficient at depth d - 1
        while free and leads[n - free] is None and last[n - free] == last[0]:
            free -= 1
    return _FactorSystem(width, reads, weights, constant, free)


def _search(g: Graph, group: GroupSpec, order: list[int], mode: str,
            pinned: bool, systems: dict):
    """Label the vertices in ``order``, each with the element codes (indices
    in ``group.elements()``) that extend the labels before it to a solution
    of the magic system, in element order: results come in lexicographic
    order of the label sequence along ``order``. Per cyclic factor, the
    Howell rows of ``_factor_system`` (kept in ``systems`` by (f, s) for
    the request's next group) say which residues those are, as bit masks
    of codes, so a candidate fails only by repeating a label.

    ``pinned``, on a regular graph in count and first mode: l -> l + c keeps
    all weights equal (the all-ones direction lies in the solution module)
    and moves every labeling when c != 0, so order[0] takes code 0 and
    count mode multiplies by n; the least labeling has code 0 there anyway.

    In first and count mode the members of each open twin class (order[0]
    left out when pinned) take increasing codes along ``order``: a twin
    swap keeps mu, so this keeps the least labeling of each orbit, and a
    vertex stops once too few unused codes above its candidate are left for
    the members after it. In count mode the free tail, when it is one
    class, takes the unused codes above the member before it in one way or
    none, and the count is multiplied by k! per class of k members.
    Returns the count, or the list of labelings, each made from its
    codes' digits per factor as label columns and mu's fields as its
    coordinates, with no label row built.
    """
    n = g.n
    digits = list(zip(*group.elements()))  # digits[k][e]: code e's residue
    # every factor's fields, one after another in one integer
    reads: list[list] = [[] for _ in range(n)]  # (shift, mask, f, solving)
    adds = [[0] * n for _ in range(n)]  # [j][e]: what code e at depth j adds
    accumulator = shift = 0
    frees, mu_fields = [], []
    for f, s, digit in zip(group.factors, sum_of_elements(group), digits):
        if (f, s) not in systems:
            systems[f, s] = _factor_system(g, order, f, s)
        system = systems[f, s]
        if system is None:
            return 0 if mode == "count" else []
        field = (1 << system.width) - 1
        having = [0] * f  # having[x]: the codes of residue x
        for e, x in enumerate(digit):
            having[x] |= 1 << e
        for depth, at, h in system.reads:
            solving = [0] * f  # [t]: the codes with h·x + t = 0
            for x in range(f):
                solving[-h * x % f] |= having[x]
            reads[depth].append((shift + at, field, f, solving))
        accumulator += system.constant << shift
        for j, w in enumerate(system.weights):
            if w:
                w <<= shift
                adds[j] = [u + x * w for u, x in zip(adds[j], digit)]
        shift += system.width * len(system.reads)
        mu_fields.append((shift, field, f))
        shift += system.width
        frees.append(system.free)
    # path[d]: the code at depth d; path[n] = -1 is the code before a class's
    # first member, so a member's least code is path[before] + 1
    path, before, later = [0] * n + [-1], [n] * n, [0] * n
    position = g.twin_classes[1]
    classes: list[list[int]] = [[] for _ in g.twin_classes[2]]
    if mode != "all":
        for depth in range(int(pinned), n):
            classes[position[order[depth]]].append(depth)
    for members in classes:
        for k, depth in enumerate(members):
            before[depth] = members[k - 1] if k else n
            later[depth] = len(members) - 1 - k
    steps = list(zip(before, later, reads, adds))
    depth_of = sorted(range(n), key=order.__getitem__)
    free = n + 1
    if mode == "count":
        free = n
        while free and position[order[free - 1]] == position[order[-1]]:
            free -= 1
        free = max([free, *frees])
    found: list[Labeling] = []
    tally = 0

    def dfs(depth: int, unused: int, sums: int) -> bool:
        nonlocal tally
        if depth >= free:
            low = path[before[depth]] if depth < n else -1
            tally += math.comb((unused >> low + 1).bit_count(), n - depth)
            return True
        if depth == n:
            if len(found) == ALL_MODE_CAP:
                raise SearchSizeError(
                    f"more than {ALL_MODE_CAP} labelings, over the cap of all "
                    f"mode (ALL_MODE_CAP); --mode count counts them")
            codes = list(map(path.__getitem__, depth_of))
            found.append(Labeling(group, columns=[
                list(map(digit.__getitem__, codes)) for digit in digits],
                magic_constant=[(sums >> at & field) % f
                                for at, field, f in mu_fields]))
            return mode != "first"
        prior, room, rows, add = steps[depth]
        candidates = unused
        for _ in range(room):  # leave the largest unused codes to the class
            candidates ^= 1 << candidates.bit_length() - 1
        least = path[prior] + 1
        candidates = candidates >> least << least
        for at, field, f, solving in rows:
            candidates &= solving[(sums >> at & field) % f]
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            e = path[depth] = bit.bit_length() - 1
            if not dfs(depth + 1, unused ^ bit, sums + add[e]):
                return False
        return True

    # pinned, order[0] keeps code 0, all of whose residues are 0; no row
    # leads at depth 0 when the solutions are closed under translation
    dfs(int(pinned), (1 << n) - 1 - pinned, accumulator)
    if mode != "count":
        return found
    for members in classes:
        tally *= math.factorial(len(members))
    return tally * n if pinned else tally


def _check_request(g: Graph, group: GroupSpec, opts: SearchOptions) -> None:
    if opts.mode not in ("first", "all", "count"):
        raise SolverError(f"unknown search mode {opts.mode!r}")
    if opts.vertex_order not in ("degree_desc", "input"):
        raise SolverError(f"unknown vertex order {opts.vertex_order!r}")
    if opts.jobs < 1:
        raise SolverError(f"--jobs must be at least 1, got {opts.jobs}")
    if g.n != group.order:
        raise SolverError(
            f"graph has {g.n} vertices but group {group} has order "
            f"{group.order_text()}")
    cap = PRUNED_VERTEX_CAP if opts.use_pruning else NAIVE_VERTEX_CAP
    if g.n > cap:
        raise SearchSizeError(
            f"{'pruned' if opts.use_pruning else 'naive'} search supports at "
            f"most {cap} vertices, got {g.n}")


def _answers(g: Graph, specs: list[GroupSpec], opts: SearchOptions) -> list:
    """The answer of ``opts`` for g over each group of ``specs``: every
    request is checked first, the naive oracle scans every graph, a
    blocking obstruction answers before any linear algebra, and the groups
    share one Howell form per (cyclic factor, coordinate of s(group))."""
    for spec in specs:
        _check_request(g, spec, opts)
    if not opts.use_pruning:
        return [_naive(g, spec, opts.mode) for spec in specs]
    if blocking_obstruction(g) is not None:
        return [0 if opts.mode == "count" else [] for _ in specs]
    order = _vertex_order(g, opts.vertex_order)
    pinned = (opts.mode in ("count", "first") and g.n > 1
              and len(set(g.degrees)) == 1)
    systems: dict = {}
    return [_search(g, spec, order, opts.mode, pinned, systems)
            for spec in specs]


def search_labelings(g: Graph, group: GroupSpec,
                     opts: SearchOptions = SearchOptions()):
    """All magic labelings of g over the group, in a deterministic order.

    Returns a list of labelings for modes "first" and "all", or an int for
    mode "count". The naive path accepts at most 8 vertices, the pruned path
    at most 12, and mode "all" lists at most ALL_MODE_CAP labelings. The
    pruned path does not search a graph with a blocking obstruction
    (``Obstruction.blocks``), which has none; the naive path scans it.
    """
    return _answers(g, [group], opts)[0]


def classify_over_all_groups(g: Graph,
                             opts: SearchOptions = SearchOptions()
                             ) -> dict[GroupSpec, bool]:
    """For each isomorphism class of abelian groups of order |V(g)|, whether
    g admits a magic labeling; g is group distance magic when all do.

    ``search_labelings``'s first mode, over all groups at once: one
    obstruction scan, and one Howell form per cyclic factor and
    coordinate of s(group) that the groups have in common.
    """
    specs = enumerate_abelian_groups(g.n)
    found = _answers(g, specs, replace(opts, mode="first"))
    return {spec: bool(labelings) for spec, labelings in zip(specs, found)}
