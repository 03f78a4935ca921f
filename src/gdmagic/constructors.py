"""Constructive labelers for product graphs and small named families.

Every labeler has a core, ``_label_*``, that assembles an explicit bijection
onto the target group in split coordinates (z, a) over Z_d x A and maps it
back to the caller's group, and a public form, ``label_*``, that runs the
core and re-checks its result with the verifier before reporting. The
reported ``predicted_mu`` is the constant the construction is designed to
achieve; a verification mismatch raises instead of being patched over.
``label_with_method`` runs the cores alone: its caller checks the result,
as the CLI does by verifying the certificate it writes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .abelian import (
    CyclicFactorSplit,
    GroupElement,
    GroupSpec,
    find_cyclic_factor,
    sum_of_elements,
    two_power_exponents,
)
from .graphs import (
    Graph,
    complete_bipartite_parts,
    find_twin_pairing,
    matching_join_pairs,
)
from .magic import Labeling, verify
from .products import FactoredProduct

__all__ = [
    "ConstructionError",
    "ConstructionReport",
    "label_matching_join_graph",
    "label_star_graph",
    "label_lex_c4k2",
    "label_dir_c4k2",
    "label_lex_balanced_pow2",
    "label_dir_balanced_pow2",
    "label_lex_even_degrees",
    "label_lex_kmn_mixed",
    "auto_label",
    "auto_label_bare",
    "LabelingMethod",
    "METHODS",
    "method_product",
    "label_with_method",
]


class ConstructionError(ValueError):
    """A labeler's precondition failed; the message names the condition."""

    def __init__(self, message: str, diagnostics: Optional[list[str]] = None):
        super().__init__(message)
        self.diagnostics = diagnostics if diagnostics is not None else [message]


class _WrongShape(ConstructionError):
    """The graph is not of the shape the labeler labels."""


@dataclass
class ConstructionReport:
    """A labeled graph, its labels over ``group`` and the constant the
    labeler promised. ``labeled`` is the graph, or the product held as its
    factors; ``graph`` is the graph itself, a product built on its first
    read. ``columns`` holds the labels as the labeler made them, list k
    holding coordinate k of every label; the rows ``labels`` and the
    checked ``labeling`` are made from them on their first read."""

    labeled: Union[Graph, FactoredProduct]
    group: GroupSpec
    columns: list[list[int]]
    theorem: str
    predicted_mu: GroupElement
    parameters: dict = field(default_factory=dict)

    @functools.cached_property
    def graph(self) -> Graph:
        labeled = self.labeled
        return labeled if isinstance(labeled, Graph) else labeled.build()

    @functools.cached_property
    def labeling(self) -> Labeling:
        return Labeling(self.group, columns=self.columns,
                        magic_constant=self.predicted_mu)

    @functools.cached_property
    def labels(self) -> tuple[GroupElement, ...]:
        return tuple(zip(*self.columns))


def _verifying(core: Callable[..., Optional[ConstructionReport]]
               ) -> Callable[..., Optional[ConstructionReport]]:
    """The public labeler of ``core``, named as it is without the leading
    underscore: core's report, returned once the verifier has confirmed
    that every weight is the predicted constant."""
    @functools.wraps(core)
    def labeler(*args, **kwargs):
        report = core(*args, **kwargs)
        if report is not None:
            mu = verify(report.labeled, report.labeling)
            if mu != report.predicted_mu:
                fmt = report.group.format_element
                got = fmt(mu) if mu is not None else "no constant"
                raise ConstructionError(
                    f"{report.theorem}: construction produced {got} instead "
                    f"of {fmt(report.predicted_mu)}; please report this input")
        return report
    labeler.__name__ = labeler.__qualname__ = core.__name__.lstrip("_")
    return labeler


def _check_order(group: GroupSpec, expected: int) -> None:
    if group.order != expected:
        raise ConstructionError(
            f"group {group} has order {group.order_text()}, expected {expected}")


def _split_or_error(group: GroupSpec, d: int) -> CyclicFactorSplit:
    split = find_cyclic_factor(group, d)
    if split is None:
        raise ConstructionError(
            f"group {group} has no Z{d} direct factor (primary decomposition "
            + "x".join(f"Z{q}" for q in group.canonical_factors()) + ")")
    return split


def _twin_pair_labels(columns: list[list[int]], hn: int,
                      pairing: tuple[tuple[int, int], ...],
                      split: CyclicFactorSplit, pair_z: int,
                      blocks: Iterable[tuple[int, list[int], list[GroupElement]]]
                      ) -> list[list[int]]:
    """Fill blocks of a product with a twin-paired H (vertex i*hn + j is
    vertex j of H in block i) into the label ``columns``, one list per
    cyclic factor. Each block is (i, zs, as_): the first vertex of twin
    pair t gets the split element (zs[t], as_[t]) and its twin gets
    (pair_z, 0) minus that, so every twin pair sums to (pair_z, 0).

    All blocks' first vertices are mapped by one ``from_pair_columns``; the
    map is additive, so the twins are one column subtraction from the image
    of (pair_z, 0). Each run of consecutive block ids then takes, per
    factor and vertex j of H, one strided slice of those images."""
    ids, zs, as_ = [], [], []
    for i, block_zs, block_as in blocks:
        ids.append(i)
        zs += block_zs
        as_ += block_as
    size, count = len(pairing), len(zs)
    # vertex j of H in block b takes image bases[j] + b * size: its pair's
    # first vertex's, or after all of those, its twin's
    bases = [0] * hn
    for t, (j, jp) in enumerate(pairing):
        bases[j], bases[jp] = t, count + t
    breaks = [b for b in range(1, len(ids)) if ids[b] != ids[b - 1] + 1]
    runs = list(zip([0, *breaks], [*breaks, len(ids)]))
    total = split.from_pair(pair_z, split.complement.zero())
    for column, primary, c, f in zip(columns,
                                     split.from_pair_columns(zs, as_),
                                     total, split.group.factors):
        images = primary + list(map(f.__rmod__, map(c.__sub__, primary)))
        for start, stop in runs:
            at = ids[start] * hn
            for j, base in enumerate(bases):
                column[at + j:at + (stop - start) * hn:hn] = \
                    images[base + start * size:base + stop * size:size]
    return columns


def _inverse_pair_values(comp: GroupSpec) -> list[tuple[GroupElement, GroupElement]]:
    pairs = []
    taken = {comp.zero()}
    for a in comp.elements():
        if a not in taken:
            pairs.append((a, comp.neg(a)))
            taken.update(pairs[-1])
    return pairs


# ---------------------------------------------------------------------------
# universal vertex over a complete-minus-matching core

def _label_matching_join_graph(g: Graph,
                               group: GroupSpec) -> ConstructionReport:
    """Label a graph shaped like a universal vertex joined onto a complete
    graph minus a perfect matching: the hub gets the identity and every twin
    pair gets an inverse pair (x, -x); all weights collapse to the identity.
    """
    n = g.n
    if n < 3 or n % 2 == 0:
        raise _WrongShape(f"vertex count must be odd and >= 3, got {n}")
    universal = [v for v in range(n) if g.degree(v) == n - 1]
    if len(universal) != 1:
        raise _WrongShape("graph needs exactly one universal vertex")
    hub = universal[0]
    pairs = matching_join_pairs(g, hub)
    if pairs is None:
        raise _WrongShape(
            "non-hub vertices must form a complete graph minus a perfect "
            "matching")
    _check_order(group, n)
    columns = [[0] * n for _ in group.factors]
    for (a, b), (x, neg_x) in zip(pairs, _inverse_pair_values(group)):
        for column, xk, nk in zip(columns, x, neg_x):
            column[a], column[b] = xk, nk
    return ConstructionReport(g, group, columns, "matching-join",
                              group.zero(), {"n": n})


# ---------------------------------------------------------------------------
# stars

def _label_star_graph(g: Graph,
                      group: GroupSpec) -> Optional[ConstructionReport]:
    """Label a star: scan for a center label x with 2x equal to the sum of
    all group elements; leaves take the rest in canonical order. Returns
    None when no such x exists (leaf count 1 mod 4)."""
    n = g.n
    # a star is a complete bipartite graph with a part of one vertex
    center = next((part[0] for part in complete_bipartite_parts(g) or ()
                   if len(part) == 1), None)
    if center is None:
        raise _WrongShape("graph is not a star")
    _check_order(group, n)
    target = sum_of_elements(group)
    x = next((e for e in group.elements() if group.add(e, e) == target), None)
    if x is None:
        return None
    rest = [e for e in group.elements() if e != x]
    rest.insert(center, x)
    return ConstructionReport(g, group, list(map(list, zip(*rest))), "star",
                              x, {"n": n - 1})


# ---------------------------------------------------------------------------
# products with a complete-minus-matching factor on 4k+2 vertices

def _c4k2_host(method: str, h: Graph
               ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Validate H: a complete graph minus a perfect matching on 4k+2
    vertices, k >= 1. Returns (k, pairing)."""
    if h.n < 6 or h.n % 4 != 2:
        raise ConstructionError(
            f"method {method} needs H on 4k+2 vertices, got {h.n}")
    if {h.n - 1 - d for d in h.degrees} != {1}:
        raise ConstructionError(
            "H must be a complete graph minus a perfect matching")
    return (h.n - 2) // 4, find_twin_pairing(h)


def _c4k2_columns(g: Graph, h: Graph,
                  pairing: tuple[tuple[int, int], ...],
                  split: CyclicFactorSplit, k: int) -> list[list[int]]:
    # block i, pair t: primary label (t, a_i)
    zs = list(range(2 * k + 1))
    return _twin_pair_labels(
        [[0] * (g.n * h.n) for _ in split.group.factors], h.n, pairing, split,
        4 * k + 1,
        ((i, zs, [a] * len(zs))
         for i, a in enumerate(split.complement.elements())))


def _label_lex_c4k2(g: Graph, h: Graph,
                    group: GroupSpec) -> ConstructionReport:
    """Label G o H for H the complete graph minus a matching on 4k+2
    vertices, i.e. the (2k)-th power of a (4k+2)-cycle.

    Needs all degrees of G even, or all odd; the magic constant comes out as
    (2k+2, 0) respectively (1, 0) in Z_{4k+2} x A coordinates.
    """
    k, pairing = _c4k2_host("c4k2-lex", h)
    parities = {d % 2 for d in g.degrees}
    if len(parities) != 1:
        raise ConstructionError(
            "degrees of G are neither all even nor all odd "
            f"(degrees {sorted(set(g.degrees))})")
    _check_order(group, (4 * k + 2) * g.n)
    split = _split_or_error(group, 4 * k + 2)
    columns = _c4k2_columns(g, h, pairing, split, k)
    z = (2 * k + 2) % (4 * k + 2) if parities == {0} else 1
    predicted = split.from_pair(z, split.complement.zero())
    return ConstructionReport(FactoredProduct("lex", g, h), group, columns,
                              "c4k2-lex", predicted, {"k": k})


def _label_dir_c4k2(g: Graph, h: Graph,
                    group: GroupSpec) -> ConstructionReport:
    """Label G x H for the same H; needs all degrees of G congruent to a
    common m mod 4k+2, and reaches the constant (-2mk, 0)."""
    k, pairing = _c4k2_host("c4k2-dir", h)
    mod = 4 * k + 2
    m = _common_residue(g, mod)
    _check_order(group, mod * g.n)
    split = _split_or_error(group, mod)
    columns = _c4k2_columns(g, h, pairing, split, k)
    predicted = split.from_pair((-2 * m * k) % mod, split.complement.zero())
    return ConstructionReport(FactoredProduct("dir", g, h), group, columns,
                              "c4k2-dir", predicted, {"k": k, "m": m})


# ---------------------------------------------------------------------------
# products with a balanced factor on 2^k vertices

def _pow2_host(h: Graph) -> tuple[int, int,
                                  tuple[tuple[int, int], ...]]:
    """Validate H: 2^k vertices with k >= 2, regular, twin-paired. Returns
    (k, r, pairing) where H is 2r-regular."""
    n = h.n
    k = n.bit_length() - 1
    if n < 4 or (1 << k) != n:
        raise ConstructionError(
            f"H must have 2^k vertices with k >= 2, got {n}")
    degs = set(h.degrees)
    if len(degs) != 1:
        raise ConstructionError("H must be regular")
    pairing = find_twin_pairing(h)
    if pairing is None:
        raise ConstructionError("H is not balanced: no twin pairing exists")
    deg = degs.pop()
    assert deg % 2 == 0  # neighborhoods are unions of twin pairs
    return k, deg // 2, pairing


def _common_residue(g: Graph, mod: int) -> int:
    residues = {d % mod for d in g.degrees}
    if len(residues) != 1:
        raise ConstructionError(
            f"degrees of G are not all congruent mod {mod} "
            f"(residues {sorted(residues)})")
    return residues.pop()


def _balanced_host(g: Graph, h: Graph, group: GroupSpec, s: int
                   ) -> tuple[int, int, tuple[tuple[int, int], ...],
                              CyclicFactorSplit]:
    """The balanced-* labelers' checks on H, s and the group; returns
    (k, r, pairing, split) with split: group ~ Z_{2^s} x A."""
    k, r, pairing = _pow2_host(h)
    if s < 1:
        raise ConstructionError(f"s must be >= 1, got {s}")
    _check_order(group, (1 << k) * g.n)
    # checked before 1 << s is built, as s may be arbitrarily large
    if s >= group.order.bit_length():
        raise ConstructionError(
            f"s = {s} is too large: 2^s exceeds the order {group.order} "
            f"of group {group}")
    return k, r, pairing, _split_or_error(group, 1 << s)


def _pow2_columns(g: Graph, h: Graph,
                  pairing: tuple[tuple[int, int], ...],
                  split: CyclicFactorSplit, k: int,
                  s: int) -> list[list[int]]:
    # block i, pair t: primary label, for s <= k-1,
    #   (t // 2^{k-s}, a_{(t mod 2^{k-s}) + 2^{k-s} i}),
    # and otherwise ((2^{k-1} i + t) mod 2^{s-1}, a_{i // 2^{s-k}})
    comp = list(split.complement.elements())
    pairs = 1 << (k - 1)
    if s <= k - 1:
        chunk = 1 << (k - s)
        zs = [t // chunk for t in range(pairs)]
        blocks = ((i, zs, comp[chunk * i:chunk * (i + 1)] * (pairs // chunk))
                  for i in range(g.n))
    else:
        if g.n % (1 << (s - k)):
            raise ConstructionError(
                f"vertex count {g.n} is not divisible by 2^{s - k}")
        halfmod, shift = 1 << (s - 1), 1 << (s - k)
        blocks = ((i, [(pairs * i + t) % halfmod for t in range(pairs)],
                   [comp[i // shift]] * pairs) for i in range(g.n))
    return _twin_pair_labels([[0] * (g.n * h.n) for _ in split.group.factors],
                             h.n, pairing, split, (1 << s) - 1, blocks)


def _label_lex_balanced_pow2(g: Graph, h: Graph, group: GroupSpec,
                             s: int) -> ConstructionReport:
    """Label G o H for a balanced 2r-regular H on 2^k vertices, splitting the
    group as Z_{2^s} x A.

    For s <= k-1 there is no condition on G and the constant is (-r, 0); for
    s >= k all degrees of G must be congruent mod 2^{s-1} and the constant is
    (-r - 2^{k-1} m, 0).
    """
    k, r, pairing, split = _balanced_host(g, h, group, s)
    if s <= k - 1:
        columns = _pow2_columns(g, h, pairing, split, k, s)
        predicted = split.from_pair((-r) % (1 << s), split.complement.zero())
        return ConstructionReport(FactoredProduct("lex", g, h), group,
                                  columns, "balanced-lex-small-s", predicted,
                                  {"k": k, "s": s, "r": r})
    m = _common_residue(g, 1 << (s - 1))
    columns = _pow2_columns(g, h, pairing, split, k, s)
    predicted = split.from_pair((-r - (1 << (k - 1)) * m) % (1 << s),
                                split.complement.zero())
    return ConstructionReport(FactoredProduct("lex", g, h), group, columns,
                              "balanced-lex-large-s", predicted,
                              {"k": k, "s": s, "r": r, "m": m})


def _label_dir_balanced_pow2(g: Graph, h: Graph, group: GroupSpec,
                             s: int) -> ConstructionReport:
    """Label G x H for a balanced H on 2^k vertices; all degrees of G must be
    congruent to a common m mod 2^s and the constant is (-mr, 0)."""
    k, r, pairing, split = _balanced_host(g, h, group, s)
    m = _common_residue(g, 1 << s)
    columns = _pow2_columns(g, h, pairing, split, k, s)
    predicted = split.from_pair((-m * r) % (1 << s), split.complement.zero())
    size = "small" if s <= k - 1 else "large"
    return ConstructionReport(FactoredProduct("dir", g, h), group, columns,
                              f"balanced-dir-{size}-s", predicted,
                              {"k": k, "s": s, "r": r, "m": m})


def _label_lex_even_degrees(g: Graph, h: Graph,
                            group: GroupSpec) -> ConstructionReport:
    """Label G o H when every degree of G is even and positive, splitting off
    a full Z_{2^k} factor; pair t of block i takes (2t, a_i) and the constant
    is (-r, 0). For groups without an exact Z_{2^k} factor use the small-s
    labeler instead."""
    k, r, pairing = _pow2_host(h)
    if any(d % 2 or d == 0 for d in g.degrees):
        raise ConstructionError(
            "G has an odd-degree or isolated vertex; all degrees must be "
            "even and >= 2")
    _check_order(group, (1 << k) * g.n)
    split = find_cyclic_factor(group, 1 << k)
    if split is None:
        raise ConstructionError(
            f"group {group} has no Z{1 << k} direct factor; route to the "
            f"small-s labeler with s <= {k - 1}")
    comp = split.complement
    zs = list(range(0, 1 << k, 2))
    columns = _twin_pair_labels(
        [[0] * (g.n * h.n) for _ in group.factors], h.n, pairing, split,
        (1 << k) - 1,
        ((i, zs, [a] * len(zs)) for i, a in enumerate(comp.elements())))
    predicted = split.from_pair((-r) % (1 << k), comp.zero())
    return ConstructionReport(FactoredProduct("lex", g, h), group, columns,
                              "even-degrees-lex", predicted, {"k": k, "r": r})


def _label_lex_kmn_mixed(g: Graph, h: Graph,
                         group: GroupSpec) -> ConstructionReport:
    """Label K_{m,n} o H with m even, n odd, and H a 2r-regular balanced
    graph on 2^k vertices with r odd, over a group with an exact Z_{2^k}
    factor. G may number its vertices in any order.

    The even side's block values are chosen inverse-closed (pairs (a, -a))
    and the identity sits on the odd side; this is what makes the union of
    all block labelings a bijection. Both block sums land on (2^{k-1}, 0)
    and every weight on (-r, 0).
    """
    parts = complete_bipartite_parts(g)
    if parts is None:
        raise _WrongShape("G is not a complete bipartite graph")
    evens = [p for p in parts if len(p) % 2 == 0]
    odds = [p for p in parts if len(p) % 2 == 1]
    if not evens or not odds or len(evens[0]) < 2:
        raise _WrongShape(
            "G must be K(m,n) with m even (>= 2) and n odd; got part "
            f"sizes {sorted(len(p) for p in parts)}")
    xs, ys = evens[0], odds[0]
    k, r, pairing = _pow2_host(h)
    if r % 2 == 0:
        raise ConstructionError(
            f"H must be 2r-regular with r odd, got r = {r}")
    _check_order(group, (1 << k) * g.n)
    split = _split_or_error(group, 1 << k)
    comp = split.complement
    value_pairs = _inverse_pair_values(comp)
    need = len(xs) // 2
    x_vals = [v for pr in value_pairs[:need] for v in pr]
    y_vals = [comp.zero()] + [v for pr in value_pairs[need:] for v in pr]
    pairs = 1 << (k - 1)
    x_zs = [(pairs + 1) * t % (1 << k) for t in range(pairs)]
    y_zs = list(range(0, 1 << k, 2))
    columns = [[0] * (g.n * h.n) for _ in group.factors]
    _twin_pair_labels(columns, h.n, pairing, split, pairs - 1,
                      ((i, x_zs, [a] * pairs) for i, a in zip(xs, x_vals)))
    _twin_pair_labels(columns, h.n, pairing, split, (1 << k) - 1,
                      ((i, y_zs, [a] * pairs) for i, a in zip(ys, y_vals)))
    predicted = split.from_pair((-r) % (1 << k), comp.zero())
    return ConstructionReport(FactoredProduct("lex", g, h), group, columns,
                              "kmn-mixed-lex", predicted,
                              {"k": k, "r": r, "m": len(xs), "n": len(ys),
                               "t": (r - 1) // 2})


# ---------------------------------------------------------------------------
# dispatcher

def _auto_label(g: Graph, h: Graph, product: str,
                group: GroupSpec) -> ConstructionReport:
    """Pick a labeler for the product of G with a balanced H.

    For H on 2^k vertices the available cyclic 2-power exponents of the
    group are tried largest first: small exponents go to the unconditional
    (lex) or mod-2^s (dir) branch, exponent k prefers the even-degree and
    mixed complete-bipartite specializations, and larger exponents use the
    mod-2^{s-1} branch. H on 4k+2 vertices (complete minus a matching)
    routes to the corresponding labelers. Raises with one diagnostic per
    failed route when nothing applies. The routes are tried by their cores,
    so the chosen route's labels are verified once, by auto_label.
    """
    if product not in ("lex", "dir"):
        raise ConstructionError(f"product must be 'lex' or 'dir', got {product!r}")
    hn = h.n
    if hn >= 4 and hn & (hn - 1) == 0:
        return _auto_pow2(g, h, product, group)
    if hn >= 6 and hn % 4 == 2 and {hn - 1 - d for d in h.degrees} == {1}:
        return METHODS[f"c4k2-{product}"].label_product(
            g, h, product, group, None)
    raise ConstructionError(
        "H must have 2^k vertices (k >= 2) and be balanced, or be a complete "
        f"graph minus a perfect matching on 4k+2 vertices; got {hn} vertices")


def _auto_pow2(g: Graph, h: Graph, product: str,
               group: GroupSpec) -> ConstructionReport:
    k, r, _ = _pow2_host(h)
    _check_order(group, (1 << k) * g.n)
    exponents = sorted(two_power_exponents(group), reverse=True)
    if not exponents:
        raise ConstructionError(
            f"group {group} has no cyclic 2-power direct factor")
    diagnostics: list[str] = []
    for n0 in exponents:
        if n0 == k and product == "lex":
            try:
                return _label_lex_even_degrees(g, h, group)
            except ConstructionError as exc:
                diagnostics.append(f"even-degrees (s={n0}): {exc}")
            if r % 2 == 1:
                try:
                    return _label_lex_kmn_mixed(g, h, group)
                except _WrongShape:
                    pass
                except ConstructionError as exc:
                    diagnostics.append(f"kmn-mixed (s={n0}): {exc}")
        try:
            return METHODS[f"balanced-{product}"].label_product(
                g, h, product, group, n0)
        except ConstructionError as exc:
            diagnostics.append(f"s={n0}: {exc}")
    raise ConstructionError(
        "no applicable construction:\n  " + "\n  ".join(diagnostics),
        diagnostics)


def _auto_label_bare(g: Graph,
                     group: GroupSpec) -> Optional[ConstructionReport]:
    """Label a bare (non-product) graph when its shape admits a construction:
    stars and universal-vertex-over-matching graphs. Returns None for a star
    whose center equation has no solution."""
    for method in ("star", "matching-join"):
        try:
            return METHODS[method].label_bare(g, group)
        except _WrongShape:
            pass
    raise ConstructionError(
        "graph is neither a star nor a universal vertex over a complete "
        "graph minus a perfect matching; provide a second factor for the "
        "product constructions")


# ---------------------------------------------------------------------------
# the public labelers: each core, verified

label_matching_join_graph = _verifying(_label_matching_join_graph)
label_star_graph = _verifying(_label_star_graph)
label_lex_c4k2 = _verifying(_label_lex_c4k2)
label_dir_c4k2 = _verifying(_label_dir_c4k2)
label_lex_balanced_pow2 = _verifying(_label_lex_balanced_pow2)
label_dir_balanced_pow2 = _verifying(_label_dir_balanced_pow2)
label_lex_even_degrees = _verifying(_label_lex_even_degrees)
label_lex_kmn_mixed = _verifying(_label_lex_kmn_mixed)
auto_label = _verifying(_auto_label)
auto_label_bare = _verifying(_auto_label_bare)


# ---------------------------------------------------------------------------
# method table: the `label --method` choices

class LabelingMethod(NamedTuple):
    """A method's own product ("lex", "dir", or None: none fixed), whether
    it needs the exponent s, and its labelers' unverified cores
    label_product(g, h, product, group, s) and label_bare(g, group), None
    for a shape it does not take."""

    product: Optional[str]
    needs_s: bool
    label_product: Optional[Callable[..., ConstructionReport]]
    label_bare: Optional[Callable[..., Optional[ConstructionReport]]]


# The entries call the labelers' cores by their module-level names, so
# that a core rebound in this module is the one called.
METHODS: dict[str, LabelingMethod] = {
    "auto": LabelingMethod(
        None, False,
        lambda g, h, product, group, s: _auto_label(g, h, product, group),
        lambda g, group: _auto_label_bare(g, group)),
    "balanced-dir": LabelingMethod(
        "dir", True,
        lambda g, h, product, group, s:
            _label_dir_balanced_pow2(g, h, group, s),
        None),
    "balanced-lex": LabelingMethod(
        "lex", True,
        lambda g, h, product, group, s:
            _label_lex_balanced_pow2(g, h, group, s),
        None),
    "c4k2-dir": LabelingMethod(
        "dir", False,
        lambda g, h, product, group, s: _label_dir_c4k2(g, h, group),
        None),
    "c4k2-lex": LabelingMethod(
        "lex", False,
        lambda g, h, product, group, s: _label_lex_c4k2(g, h, group),
        None),
    "even-degrees-lex": LabelingMethod(
        "lex", False,
        lambda g, h, product, group, s: _label_lex_even_degrees(g, h, group),
        None),
    "kmn-mixed-lex": LabelingMethod(
        "lex", False,
        lambda g, h, product, group, s: _label_lex_kmn_mixed(g, h, group),
        None),
    "matching-join": LabelingMethod(
        None, False, None,
        lambda g, group: _label_matching_join_graph(g, group)),
    "star": LabelingMethod(
        None, False, None, lambda g, group: _label_star_graph(g, group)),
}


def method_product(method: str, has_h: bool,
                   product: Optional[str]) -> Optional[str]:
    """The product `method` labels, given whether there is a second factor
    H and the product asked for (None: any): its own, else the one asked
    for, else lex; None for a bare graph. Raises on a shape or product the
    method does not take."""
    entry = METHODS[method]
    if not has_h:
        if entry.label_bare is None:
            raise ConstructionError(f"method {method} requires --h")
        return None
    if entry.label_product is None:
        raise ConstructionError(f"method {method} takes no --h factor")
    if entry.product is not None and product not in (None, entry.product):
        raise ConstructionError(
            f"method {method} builds a {entry.product} product, but "
            f"--product {product} was given")
    return product or entry.product or "lex"


def label_with_method(method: str, g: Graph, h: Optional[Graph],
                      product: Optional[str], group: GroupSpec,
                      s: Optional[int]) -> Optional[ConstructionReport]:
    """Run `method`'s core on the product of G and H that method_product
    names, or on G alone when h is None. Returns None only for a star
    whose center equation has no solution. Raises when s is given to a
    method that takes none, or missing for one that needs it.

    Unlike the public labelers, it does not verify the report: the caller
    checks it, as the CLI does by verifying the certificate it writes, so
    that ``label`` sums the weights once."""
    entry = METHODS[method]
    product = method_product(method, h is not None, product)
    if s is not None and not entry.needs_s:
        raise ConstructionError(f"method {method} takes no --s")
    if h is None:
        return entry.label_bare(g, group)
    if entry.needs_s and s is None:
        raise ConstructionError(f"method {method} requires --s")
    return entry.label_product(g, h, product, group, s)
