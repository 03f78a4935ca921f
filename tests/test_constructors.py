import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from gdmagic.abelian import (
    enumerate_abelian_groups,
    find_cyclic_factor,
    parse_group_spec,
)
from gdmagic.constructors import (
    METHODS,
    ConstructionError,
    auto_label,
    auto_label_bare,
    label_dir_balanced_pow2,
    label_dir_c4k2,
    label_lex_balanced_pow2,
    label_lex_c4k2,
    label_lex_even_degrees,
    label_lex_kmn_mixed,
    label_matching_join_graph,
    label_star_graph,
    label_with_method,
)
from gdmagic.graphs import (
    Graph,
    complete,
    complete_bipartite,
    complete_minus_matching,
    complete_multipartite,
    construct_graph,
    cycle,
    find_twin_pairing,
    graph_power,
    join,
    path,
    star,
)
from gdmagic.magic import verify
from gdmagic.products import direct_product, lex_product

P = parse_group_spec


def _block_sums(report, h_order):
    group = report.labeling.group
    blocks = len(report.labeling.assignment) // h_order
    sums = []
    for i in range(blocks):
        total = group.zero()
        for j in range(h_order):
            total = group.add(total, report.labeling.assignment[i * h_order + j])
        sums.append(total)
    return sums


def _pair_sums(report, pairing, h_order):
    group = report.labeling.group
    blocks = len(report.labeling.assignment) // h_order
    sums = set()
    for i in range(blocks):
        for j, jp in pairing:
            sums.add(group.add(report.labeling.assignment[i * h_order + j],
                               report.labeling.assignment[i * h_order + jp]))
    return sums


# matching-join ----------------------------------------------------------------

def _matching_join(n, group):
    """The matching-join labeler on its canonical graph join(KmM(n-1), K(1))."""
    return label_matching_join_graph(
        join(complete_minus_matching(n - 1), complete(1)), group)


def test_matching_join_small():
    rep = _matching_join(5, P("Z5"))
    assert rep.predicted_mu == (0,)
    assert rep.labeling.assignment == ((1,), (4,), (2,), (3,), (0,))
    assert verify(rep.graph, rep.labeling) == (0,)


def test_matching_join_z3z3():
    rep = _matching_join(9, P("Z3xZ3"))
    assert rep.predicted_mu == (0, 0)
    assert rep.labeling.assignment[8] == (0, 0)  # hub
    assert verify(rep.graph, rep.labeling) == (0, 0)


def test_matching_join_rejects():
    with pytest.raises(ConstructionError):
        label_matching_join_graph(complete(4), P("Z4"))  # even order
    with pytest.raises(ConstructionError):
        _matching_join(5, P("Z4"))
    with pytest.raises(ConstructionError):
        label_matching_join_graph(cycle(5), P("Z5"))


def test_matching_join_graph_structural():
    # same construction through the wheel drawn as Km(1,2,2)
    g = complete_multipartite((1, 2, 2))
    rep = label_matching_join_graph(g, P("Z5"))
    assert rep.labeling.assignment[0] == (0,)
    assert verify(g, rep.labeling) == (0,)


# stars --------------------------------------------------------------------------

def test_star_z4():
    rep = label_star_graph(star(3), P("Z4"))
    assert rep.predicted_mu == (1,)
    assert rep.labeling.assignment == ((1,), (0,), (2,), (3,))


def test_star_z2z2():
    rep = label_star_graph(star(3), P("Z2xZ2"))
    assert rep.predicted_mu == (0, 0)
    assert rep.labeling.assignment[0] == (0, 0)


def test_star_unreachable():
    assert label_star_graph(star(5), P("Z6")) is None
    assert label_star_graph(star(1), P("Z2")) is None  # K2: 2x = 1 has no solution


def test_star_rejects():
    with pytest.raises(ConstructionError):
        label_star_graph(star(3), P("Z5"))
    with pytest.raises(ConstructionError):
        label_star_graph(path(4), P("Z4"))


def test_star_emptiness_matches_mod4_rule():
    for leaves in range(1, 8):
        for group in enumerate_abelian_groups(leaves + 1):
            rep = label_star_graph(star(leaves), group)
            assert (rep is None) == (leaves % 4 == 1)
            if rep is not None:
                assert verify(rep.graph, rep.labeling) == rep.predicted_mu


# products with K_{4k+2} - M ------------------------------------------------------

def test_lex_c4k2_k2():
    h = graph_power(cycle(6), 2)
    rep = label_lex_c4k2(complete(2), h, P("Z6xZ2"))
    assert rep.predicted_mu == (1, 0)
    assert _block_sums(rep, 6) == [P("Z6xZ2").element((3, 0))] * 2
    pairing = find_twin_pairing(h)
    assert _pair_sums(rep, pairing, 6) == {P("Z6xZ2").element((5, 0))}


def test_lex_c4k2_c3():
    rep = label_lex_c4k2(cycle(3), graph_power(cycle(6), 2), P("Z6xZ3"))
    assert rep.predicted_mu == (4, 0)


def test_lex_c4k2_rejects_mixed_parity():
    with pytest.raises(ConstructionError):
        label_lex_c4k2(path(3), graph_power(cycle(6), 2), P("Z6xZ3"))


def test_lex_c4k2_rejects_missing_split():
    # Z18 = Z2 x Z9 has no Z3 prime-power factor, hence no Z6 split
    with pytest.raises(ConstructionError):
        label_lex_c4k2(cycle(3), graph_power(cycle(6), 2), P("Z18"))


def test_dir_c4k2():
    rep = label_dir_c4k2(complete(4), graph_power(cycle(6), 2), P("Z6xZ4"))
    assert rep.predicted_mu == (0, 0)
    assert rep.parameters["m"] == 3
    rep = label_dir_c4k2(cycle(6), graph_power(cycle(6), 2), P("Z6xZ6"))
    assert rep.predicted_mu == (2, 0)
    with pytest.raises(ConstructionError):
        label_dir_c4k2(path(3), graph_power(cycle(6), 2), P("Z6xZ3"))


def test_c4k2_k2_host():
    # k = 2: host on 10 vertices, C5 has even degrees
    group = P("Z10xZ5")
    rep = label_lex_c4k2(cycle(5), graph_power(cycle(10), 4), group)
    split = find_cyclic_factor(group, 10)
    assert rep.predicted_mu == split.from_pair(6, split.complement.zero())


@pytest.mark.parametrize("labeler, method", [(label_lex_c4k2, "c4k2-lex"),
                                             (label_dir_c4k2, "c4k2-dir")])
def test_c4k2_reads_k_from_h(labeler, method):
    rep = labeler(complete(2), graph_power(cycle(10), 4), P("Z10xZ2"))
    assert rep.parameters["k"] == 2
    for h in (cycle(4), complete_minus_matching(8), cycle(5)):
        with pytest.raises(ConstructionError,
                           match=f"method {method} needs H on 4k\\+2 "
                                 f"vertices, got {h.n}"):
            labeler(complete(2), h, P(f"Z{2 * h.n}"))
    with pytest.raises(ConstructionError, match="minus a perfect matching"):
        labeler(complete(2), cycle(6), P("Z6xZ2"))


# balanced factors on 2^k vertices ------------------------------------------------

def test_lex_small_s():
    group = P("Z2xZ6")
    rep = label_lex_balanced_pow2(path(3), cycle(4), group, 1)
    assert rep.theorem == "balanced-lex-small-s"
    assert rep.predicted_mu == (1, 0)
    # block label sums collapse to the identity
    assert set(_block_sums(rep, 4)) == {group.zero()}
    pairing = find_twin_pairing(cycle(4))
    split = find_cyclic_factor(group, 2)
    assert _pair_sums(rep, pairing, 4) == {
        split.from_pair(1, split.complement.zero())}


def test_lex_large_s():
    group = P("Z4xZ4")
    rep = label_lex_balanced_pow2(complete(4), cycle(4), group, 2)
    assert rep.theorem == "balanced-lex-large-s"
    assert rep.predicted_mu == (1, 0)
    assert rep.parameters["m"] == 1  # degrees 3 mod 2
    split = find_cyclic_factor(group, 4)
    minus_half = split.from_pair(-2 % 4, split.complement.zero())
    assert set(_block_sums(rep, 4)) == {minus_half}


def test_lex_large_s_rejects_mixed_degrees():
    with pytest.raises(ConstructionError):
        label_lex_balanced_pow2(path(3), cycle(4), P("Z4xZ3"), 2)


def test_dir_small_s():
    rep = label_dir_balanced_pow2(cycle(4), cycle(4), P("Z2xZ8"), 1)
    assert rep.theorem == "balanced-dir-small-s"
    assert rep.predicted_mu == (0, 0)


def test_dir_large_s():
    rep = label_dir_balanced_pow2(complete(4), cycle(4), P("Z4xZ4"), 2)
    assert rep.theorem == "balanced-dir-large-s"
    assert rep.predicted_mu == (1, 0)


def test_dir_rejects_mixed_degrees():
    with pytest.raises(ConstructionError):
        label_dir_balanced_pow2(path(3), cycle(4), P("Z4xZ3"), 1)
    with pytest.raises(ConstructionError):
        label_dir_balanced_pow2(path(3), cycle(4), P("Z4xZ3"), 2)


def test_pow2_rejects_bad_host():
    with pytest.raises(ConstructionError):
        label_lex_balanced_pow2(path(3), cycle(6), P("Z2xZ9"), 1)
    with pytest.raises(ConstructionError):
        label_lex_balanced_pow2(path(3), complete(4), P("Z4xZ3"), 1)


def test_kmm8_host():
    kmm8 = complete_minus_matching(8)
    group = P("Z8xZ3")
    rep = label_lex_balanced_pow2(cycle(3), kmm8, group, 3)
    assert rep.parameters["r"] == 3
    split = find_cyclic_factor(group, 8)
    assert rep.predicted_mu == split.from_pair((-3 - 4 * 2) % 8,
                                               split.complement.zero())


def test_even_degrees():
    group = P("Z4xZ3")
    rep = label_lex_even_degrees(cycle(3), cycle(4), group)
    assert rep.theorem == "even-degrees-lex"
    assert rep.predicted_mu == (3, 0)
    split = find_cyclic_factor(group, 4)
    minus_half = split.from_pair(-2 % 4, split.complement.zero())
    assert set(_block_sums(rep, 4)) == {minus_half}
    pairing = find_twin_pairing(cycle(4))
    assert _pair_sums(rep, pairing, 4) == {
        split.from_pair(3, split.complement.zero())}
    rep = label_lex_even_degrees(complete_multipartite((2, 2, 2)), cycle(4),
                                 P("Z4xZ6"))
    assert verify(rep.graph, rep.labeling) == rep.predicted_mu


def test_even_degrees_rejects():
    with pytest.raises(ConstructionError):
        label_lex_even_degrees(complete(2), cycle(4), P("Z4xZ2"))
    with pytest.raises(ConstructionError):  # no exact Z4 factor
        label_lex_even_degrees(cycle(3), cycle(4), P("Z2xZ2xZ3"))


def test_kmn_mixed():
    group = P("Z4xZ5")
    rep = label_lex_kmn_mixed(complete_bipartite(2, 3), cycle(4), group)
    assert rep.theorem == "kmn-mixed-lex"
    assert rep.predicted_mu == (3, 0)
    split = find_cyclic_factor(group, 4)
    half = split.from_pair(2, split.complement.zero())
    assert set(_block_sums(rep, 4)) == {half}
    # twin sums: (2^{k-1}-1, 0) on the even side, (2^k-1, 0) on the odd side
    pairing = find_twin_pairing(cycle(4))
    zero_a = split.complement.zero()
    assert _pair_sums(rep, pairing, 4) == {
        split.from_pair(1, zero_a), split.from_pair(3, zero_a)}


def test_kmn_mixed_routes_without_exact_factor():
    rep = auto_label(complete_bipartite(2, 3), cycle(4), "lex", P("Z2xZ2xZ5"))
    assert rep.theorem == "balanced-lex-small-s"
    split = find_cyclic_factor(P("Z2xZ2xZ5"), 2)
    assert rep.predicted_mu == split.from_pair(1, split.complement.zero())


def test_kmn_mixed_rejects():
    with pytest.raises(ConstructionError):
        label_lex_kmn_mixed(complete_bipartite(3, 3), cycle(4),
                            P("Z4xZ6"))  # m odd
    with pytest.raises(ConstructionError):
        label_lex_kmn_mixed(complete_bipartite(2, 2), cycle(4),
                            P("Z4xZ4"))  # n even
    with pytest.raises(ConstructionError):  # r = 2 even
        label_lex_kmn_mixed(complete_bipartite(2, 3),
                            complete_bipartite(4, 4), P("Z8xZ5"))


def test_kmn_mixed_takes_either_side_order_and_checks_the_group():
    # K(3,2) numbers its odd side first
    rep = label_lex_kmn_mixed(complete_bipartite(3, 2), cycle(4), P("Z4xZ5"))
    assert rep.parameters["m"] == 2 and rep.parameters["n"] == 3
    assert verify(rep.graph, rep.labeling) == rep.predicted_mu
    with pytest.raises(ConstructionError, match="has order 16, expected 20"):
        label_lex_kmn_mixed(complete_bipartite(2, 3), cycle(4), P("Z4xZ4"))
    # the labeler does not reroute; auto_label does
    with pytest.raises(ConstructionError, match="no Z4 direct factor"):
        label_lex_kmn_mixed(complete_bipartite(2, 3), cycle(4),
                            P("Z2xZ2xZ5"))


# dispatcher --------------------------------------------------------------------

def test_auto_even_degree_preference():
    rep = auto_label(cycle(3), cycle(4), "lex", P("Z12"))
    assert rep.theorem == "even-degrees-lex"
    assert rep.predicted_mu == (3,)


def test_auto_small_s():
    rep = auto_label(cycle(3), cycle(4), "lex", P("Z2xZ2xZ3"))
    assert rep.theorem == "balanced-lex-small-s"
    assert rep.predicted_mu == (1, 0, 0)


def test_auto_kmn():
    rep = auto_label(complete_bipartite(2, 3), cycle(4), "lex", P("Z4xZ5"))
    assert rep.theorem == "kmn-mixed-lex"


def test_auto_c4k2_family():
    h = graph_power(cycle(6), 2)
    rep = auto_label(complete(2), h, "lex", P("Z6xZ2"))
    assert rep.theorem == "c4k2-lex"
    rep = auto_label(complete(4), h, "dir", P("Z6xZ4"))
    assert rep.theorem == "c4k2-dir"


def test_auto_diagnostics():
    with pytest.raises(ConstructionError) as exc:
        auto_label(path(3), cycle(4), "dir", P("Z12"))
    assert "mod 4" in str(exc.value)
    assert exc.value.diagnostics


def test_auto_large_s_fallback():
    # Z16: only s=4 available; C4 degrees are 2 mod 8
    rep = auto_label(cycle(4), cycle(4), "lex", P("Z16"))
    assert rep.theorem == "balanced-lex-large-s"
    assert rep.predicted_mu == (11,)


def test_auto_bare():
    rep = auto_label_bare(star(4), P("Z5"))
    assert rep.theorem == "star"
    rep = auto_label_bare(join(complete_minus_matching(6), complete(1)),
                          P("Z7"))
    assert rep.theorem == "matching-join"
    assert auto_label_bare(star(5), P("Z2xZ3")) is None
    with pytest.raises(ConstructionError):
        auto_label_bare(cycle(5), P("Z5"))


@pytest.mark.parametrize("method, h, labeler", [
    ("even-degrees-lex", cycle(4), "label_lex_even_degrees"),
    ("auto", cycle(4), "label_lex_even_degrees"),
    ("auto", None, "label_star_graph"),
])
def test_method_table_calls_labelers_by_module_name(monkeypatch, method, h,
                                                    labeler):
    # the core of a labeler, rebound in the module, is the one the table
    # and auto_label's core call, so that a test can plant a fault in it
    from gdmagic import constructors

    calls = []
    real = getattr(constructors, "_" + labeler)

    def spy(*args, **kwargs):
        calls.append(labeler)
        return real(*args, **kwargs)

    monkeypatch.setattr(constructors, "_" + labeler, spy)
    g, group = (cycle(3), P("Z4xZ3")) if h is not None else (star(4), P("Z5"))
    rep = constructors.label_with_method(method, g, h, None, group, None)
    assert calls == [labeler] and rep.theorem in ("even-degrees-lex", "star")


# cross-cutting invariants --------------------------------------------------------

def _sample_reports():
    kmm8 = complete_minus_matching(8)
    kmm6 = graph_power(cycle(6), 2)
    return [
        (_matching_join(7, P("Z7")), None),
        (label_lex_c4k2(complete(2), kmm6, P("Z6xZ2")), 6),
        (label_dir_c4k2(cycle(6), kmm6, P("Z6xZ6")), 6),
        (label_lex_balanced_pow2(path(3), cycle(4), P("Z2xZ6"), 1), 4),
        (label_lex_balanced_pow2(complete(4), cycle(4), P("Z4xZ4"), 2), 4),
        (label_dir_balanced_pow2(cycle(4), cycle(4), P("Z2xZ8"), 1), 4),
        (label_lex_even_degrees(cycle(3), cycle(4), P("Z4xZ3")), 4),
        (label_lex_kmn_mixed(complete_bipartite(2, 3), cycle(4), P("Z4xZ5")),
         4),
        (label_lex_balanced_pow2(cycle(3), kmm8, P("Z8xZ3"), 3), 8),
    ]


def test_label_reports_a_construction_its_verifier_rejects(monkeypatch):
    from gdmagic import constructors

    monkeypatch.setattr(constructors, "verify", lambda g, labeling: None)
    with pytest.raises(ConstructionError) as info:
        label_lex_even_degrees(cycle(3), cycle(4), P("Z4xZ3"))
    assert str(info.value) == ("even-degrees-lex: construction produced no "
                               "constant instead of (3,0); please report "
                               "this input")


# the public labeler of each METHODS entry, as (labeler of a product,
# labeler of a bare graph); the product labelers take s when the entry does
PUBLIC_LABELERS = {
    "auto": (lambda g, h, product, group, s: auto_label(g, h, product, group),
             auto_label_bare),
    "balanced-dir": (lambda g, h, product, group, s:
                     label_dir_balanced_pow2(g, h, group, s), None),
    "balanced-lex": (lambda g, h, product, group, s:
                     label_lex_balanced_pow2(g, h, group, s), None),
    "c4k2-dir": (lambda g, h, product, group, s: label_dir_c4k2(g, h, group),
                 None),
    "c4k2-lex": (lambda g, h, product, group, s: label_lex_c4k2(g, h, group),
                 None),
    "even-degrees-lex": (lambda g, h, product, group, s:
                         label_lex_even_degrees(g, h, group), None),
    "kmn-mixed-lex": (lambda g, h, product, group, s:
                      label_lex_kmn_mixed(g, h, group), None),
    "matching-join": (None, label_matching_join_graph),
    "star": (None, label_star_graph),
}

# G, H (None: a bare G); K(2,3) also with its parts interleaved, {0, 2} and
# {1, 3, 4}, so that its blocks are filled in runs of one
COLUMN_CORPUS = [
    (cycle(3), cycle(4)), (complete_bipartite(2, 3), cycle(4)),
    (Graph.from_edges(5, [(u, v) for u in (0, 2) for v in (1, 3, 4)]),
     cycle(4)),
    (complete_bipartite(3, 2), complete_minus_matching(8)),
    (cycle(4), complete_minus_matching(6)), (path(3), cycle(4)),
    (complete(4), cycle(4)), (star(3), None), (star(4), None),
    (join(complete_minus_matching(4), complete(1)), None),
]


def test_label_with_method_columns_are_the_public_labelers_labels():
    labeled = set()
    for method, entry in METHODS.items():
        on_product, on_bare = PUBLIC_LABELERS[method]
        for g, h in COLUMN_CORPUS:
            if (h is None) != (on_product is None):
                continue
            for group in enumerate_abelian_groups(g.n * (h.n if h else 1)):
                products = ((None,) if h is None else
                            (entry.product,) if entry.product else
                            ("lex", "dir"))
                exponents = (range(1, group.order.bit_length())
                             if entry.needs_s else (None,))
                for product, s in itertools.product(products, exponents):
                    try:
                        report = label_with_method(method, g, h, product,
                                                   group, s)
                    except ConstructionError as exc:
                        with pytest.raises(ConstructionError) as info:
                            if h is None:
                                on_bare(g, group)
                            else:
                                on_product(g, h, product, group, s)
                        assert str(info.value) == str(exc)
                        continue
                    public = (on_bare(g, group) if h is None
                              else on_product(g, h, product, group, s))
                    if report is None:  # a star with no center label
                        assert public is None
                        continue
                    assigned = public.labeling.assignment
                    assert report.columns == [list(column) for column in
                                              zip(*assigned)]
                    assert report.labels == assigned
                    labeled.add(method)
    assert labeled == set(METHODS)


# one call per public labeler that labels its input
VERIFIED_LABELERS = [
    lambda: auto_label(cycle(3), cycle(4), "lex", P("Z4xZ3")),
    lambda: auto_label_bare(star(3), P("Z4")),
    lambda: label_dir_balanced_pow2(cycle(3), cycle(4), P("Z4xZ3"), 2),
    lambda: label_lex_balanced_pow2(cycle(3), cycle(4), P("Z4xZ3"), 2),
    lambda: label_dir_c4k2(cycle(4), complete_minus_matching(6),
                           P("Z4xZ2xZ3")),
    lambda: label_lex_c4k2(cycle(4), complete_minus_matching(6),
                           P("Z4xZ2xZ3")),
    lambda: label_lex_even_degrees(cycle(3), cycle(4), P("Z4xZ3")),
    lambda: label_lex_kmn_mixed(complete_bipartite(2, 3), cycle(4),
                                P("Z4xZ5")),
    lambda: label_matching_join_graph(
        join(complete_minus_matching(4), complete(1)), P("Z5")),
    lambda: label_star_graph(star(3), P("Z4")),
]


@pytest.mark.parametrize("labeler", VERIFIED_LABELERS)
def test_a_public_labeler_checks_its_columns_once_and_builds_no_rows(
        monkeypatch, labeler):
    from gdmagic import constructors, magic

    calls = {"_check_injective": 0, "_weights": 0}
    for name in calls:
        def counted(*args, _real=getattr(magic, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(magic, name, counted)

    def no_rows(self):
        raise AssertionError(f"a {type(self).__name__} built label rows")

    for cls, rows in ((magic.Labeling, "assignment"),
                      (constructors.ConstructionReport, "labels")):
        monkeypatch.setattr(cls, rows, property(no_rows))
    report = labeler()
    # the labeler's columns go unchanged into the Labeling that verify
    # sums: one scan of the labels and one weight pass
    assert calls == {"_check_injective": 1, "_weights": 1}
    assert report.labeling.columns == tuple(map(tuple, report.columns))


def test_every_report_verifies_and_is_bijective():
    for rep, _ in _sample_reports():
        group = rep.labeling.group
        assert len(set(rep.labeling.assignment)) == group.order
        assert verify(rep.graph, rep.labeling) == rep.predicted_mu
        assert rep.labeling.magic_constant == rep.predicted_mu


# every product method of the table against the README's preconditions ---------

PROPERTY_HOSTS = ("C(4)", "KmM(6)", "KmM(8)", "Kb(4,4)")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


# graphs on <= 6 vertices whose degrees meet the methods' conditions far
# more often than random ones do
SHAPED_GRAPHS = (
    ["Km(2,2,2)", "Km(1,1,2)", "KmM(4)", "KmM(6)", "join(K(1),KmM(4))"]
    + [f"K({n})" for n in range(1, 7)] + [f"C({n})" for n in range(3, 7)]
    + [f"Km({n})" for n in range(2, 7)]  # no edges
    + [f"S({n})" for n in range(2, 6)]
    + [f"Kb({m},{n})" for m in range(1, 6) for n in range(1, 7 - m)])


def _congruent(g, mod):
    return len({d % mod for d in g.degrees}) == 1


def _is_kmn_mixed(g):
    """G is K(m,n) with m even (>= 2) and n odd, by a scan of all vertex
    subsets for a side whose edges are exactly those to the other side."""
    for mask in range(1, (1 << g.n) - 1):
        side = {v for v in range(g.n) if mask >> v & 1}
        m, n = len(side), g.n - len(side)
        if (m % 2 == 0 and n % 2 == 1 and g.num_edges == m * n
                and all((u in side) != (v in side) for u, v in g.edges())):
            return True
    return False


def _readme_precondition(method, product, g, h, group, s):
    """Whether the README's method table promises a labeling: the input
    shape holds and the group has the required cyclic factor."""
    if h.n == 6:  # KmM(6) = K(4k+2) - M with k = 1
        if not method.startswith("c4k2") or not find_cyclic_factor(group, 6):
            return False
        return _congruent(g, 2) if product == "lex" else _congruent(g, 6)
    k, r = h.n.bit_length() - 1, h.degree(0) // 2
    if method == "balanced-lex":
        return bool(find_cyclic_factor(group, 1 << s)) and (
            s < k or _congruent(g, 1 << (s - 1)))
    if method == "balanced-dir":
        return bool(find_cyclic_factor(group, 1 << s)) and _congruent(
            g, 1 << s)
    if not find_cyclic_factor(group, 1 << k):
        return False
    if method == "even-degrees-lex":
        return all(d % 2 == 0 and d > 0 for d in g.degrees)
    if method == "kmn-mixed-lex":
        return r % 2 == 1 and _is_kmn_mixed(g)
    return False


def _product_calls(group):
    """(method, product, s) for every product entry of METHODS but auto,
    with every s that 2^s <= |group| allows for the methods that take one."""
    for method, entry in METHODS.items():
        if entry.label_product is None or method == "auto":
            continue
        for product in (entry.product,) if entry.product else ("lex", "dir"):
            exponents = (range(1, group.order.bit_length()) if entry.needs_s
                         else (None,))
            for s in exponents:
                yield method, product, s


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_graphs() | st.sampled_from(SHAPED_GRAPHS).map(construct_graph),
       st.sampled_from(PROPERTY_HOSTS))
@example(complete_bipartite(2, 3), "C(4)")
@example(complete_bipartite(3, 2), "KmM(8)")
@example(cycle(3), "KmM(6)")
@example(complete(1), "Kb(4,4)")
def test_product_labelers_meet_the_readme_table(g, h_expr):
    h = construct_graph(h_expr)
    products = {"lex": lex_product(g, h), "dir": direct_product(g, h)}

    def check(rep, product, group):
        assert rep.graph == products[product]
        assert sorted(rep.labeling.assignment) == list(group.elements())
        assert verify(rep.graph, rep.labeling) == rep.predicted_mu

    for group in enumerate_abelian_groups(g.n * h.n):
        labeled = {"lex": False, "dir": False}
        for method, product, s in _product_calls(group):
            try:
                rep = label_with_method(method, g, h, product, group, s)
            except ConstructionError:
                assert not _readme_precondition(method, product, g, h, group,
                                                s), (method, s, group)
                continue
            check(rep, product, group)
            labeled[product] = True
        # auto tries every route of the table, so it labels exactly when
        # some method does
        for product in ("lex", "dir"):
            try:
                rep = label_with_method("auto", g, h, product, group, None)
            except ConstructionError:
                assert not labeled[product], (product, group)
                continue
            assert labeled[product], (product, group)
            check(rep, product, group)
