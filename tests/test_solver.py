import io

import pytest
from hypothesis import given, settings, strategies as st

from gdmagic.abelian import enumerate_abelian_groups, parse_group_spec
from gdmagic.graphs import (
    Graph,
    complete,
    complete_minus_matching,
    construct_graph,
    cycle,
    join,
    path,
    star,
)
from gdmagic.magic import verify
from gdmagic.solver import (
    SearchOptions,
    SearchSizeError,
    SolverError,
    classify_over_all_groups,
    search_labelings,
)

P = parse_group_spec

COUNT = SearchOptions(mode="count")
COUNT_NAIVE = SearchOptions(mode="count", use_pruning=False)
ALL = SearchOptions(mode="all")
ALL_NAIVE = SearchOptions(mode="all", use_pruning=False)


def test_first_mode_returns_verified_labeling():
    found = search_labelings(cycle(4), P("Z4"), SearchOptions(mode="first"))
    assert len(found) == 1
    lab = found[0]
    assert verify(cycle(4), lab) == lab.magic_constant


def test_counts_match_hand_derivations():
    # C4: the two position pairs must carry equal sums
    assert search_labelings(cycle(4), P("Z4"), COUNT) == 16
    # over Z2xZ2 every bijection works (x + y = 0 forces x = y)
    assert search_labelings(cycle(4), P("Z2xZ2"), COUNT) == 24
    # star K(1,3): center from 2x = s, leaves free
    assert search_labelings(star(3), P("Z4"), COUNT) == 12
    assert search_labelings(star(3), P("Z2xZ2"), COUNT) == 24
    assert search_labelings(path(4), P("Z4"), COUNT) == 0
    assert search_labelings(star(5), P("Z2xZ3"), COUNT) == 0
    # wheel: hub forced to 0, twin pairs carry inverse pairs
    wheel = join(complete_minus_matching(4), complete(1))
    assert search_labelings(wheel, P("Z5"), COUNT) == 8


def test_pruned_equals_naive():
    cases = [
        (cycle(4), "Z4"), (cycle(4), "Z2xZ2"), (star(3), "Z4"),
        (star(3), "Z2xZ2"), (path(4), "Z4"), (cycle(5), "Z5"),
        (path(3), "Z3"), (complete(4), "Z4"),
    ]
    for g, spec in cases:
        group = P(spec)
        assert search_labelings(g, group, COUNT) == \
            search_labelings(g, group, COUNT_NAIVE)
        pruned = {lab.assignment for lab in search_labelings(g, group, ALL)}
        naive = {lab.assignment for lab in search_labelings(g, group, ALL_NAIVE)}
        assert pruned == naive


def test_all_results_verify():
    for g, spec in ((cycle(4), "Z4"), (cycle(5), "Z5"), (star(4), "Z5")):
        group = P(spec)
        for lab in search_labelings(g, group, ALL):
            assert verify(g, lab) == lab.magic_constant is not None


def test_labeling_set_closed_under_negation():
    group = P("Z4")
    labelings = {lab.assignment for lab in search_labelings(cycle(4), group, ALL)}
    for assignment in labelings:
        negated = tuple(group.neg(x) for x in assignment)
        assert negated in labelings


def test_vertex_order_does_not_change_count():
    for order in ("degree_desc", "input"):
        opts = SearchOptions(mode="count", vertex_order=order)
        assert search_labelings(star(3), P("Z4"), opts) == 12


def test_edgeless_graph_counts_all_bijections():
    from gdmagic.graphs import Graph
    g = Graph.from_edges(3, [])
    assert search_labelings(g, P("Z3"), COUNT) == 6
    assert search_labelings(g, P("Z3"), COUNT_NAIVE) == 6


def test_isolated_vertex_pins_constant():
    from gdmagic.graphs import Graph
    # one edge + one isolated vertex: isolated weight is 0, edge weights are
    # the endpoint labels, which can never both be 0
    g = Graph.from_edges(3, [(0, 1)])
    assert search_labelings(g, P("Z3"), COUNT) == 0
    assert search_labelings(g, P("Z3"), COUNT_NAIVE) == 0


def test_size_caps():
    with pytest.raises(SearchSizeError):
        search_labelings(cycle(9), P("Z9"), COUNT_NAIVE)
    with pytest.raises(SearchSizeError):
        search_labelings(cycle(13), P("Z13"), COUNT)
    with pytest.raises(SolverError):
        search_labelings(cycle(4), P("Z5"), COUNT)
    with pytest.raises(SolverError):
        search_labelings(cycle(4), P("Z4"), SearchOptions(mode="sometimes"))


def test_classify_examples():
    assert classify_over_all_groups(cycle(4)) == {
        P("Z4"): True, P("Z2xZ2"): True}
    assert classify_over_all_groups(star(5)) == {P("Z2xZ3"): False}
    assert classify_over_all_groups(star(4)) == {P("Z5"): True}


def test_parallel_matches_sequential():
    group = P("Z4")
    seq_count = search_labelings(cycle(4), group, COUNT)
    par_count = search_labelings(cycle(4), group,
                                 SearchOptions(mode="count", jobs=2))
    assert par_count == seq_count
    seq_all = [lab.assignment for lab in search_labelings(cycle(4), group, ALL)]
    par_all = [lab.assignment for lab in search_labelings(
        cycle(4), group, SearchOptions(mode="all", jobs=2))]
    assert par_all == seq_all
    first_par = search_labelings(cycle(4), group,
                                 SearchOptions(mode="first", jobs=2))
    first_seq = search_labelings(cycle(4), group, SearchOptions(mode="first"))
    assert [lab.assignment for lab in first_par] == \
        [lab.assignment for lab in first_seq]
    # KmM(8) is regular, so count mode pins the first vertex and the
    # branches split on the second vertex's label
    g = complete_minus_matching(8)
    assert search_labelings(g, P("Z8"), SearchOptions(mode="count", jobs=2)) \
        == search_labelings(g, P("Z8"), COUNT) == 1536


@pytest.mark.parametrize("expr", ["C(4)", "S(5)", "C(8)", "KmM(6)",
                                  "join(KmM(6),K(1))", "lex(C(4),K(2))"])
def test_parallel_classify_matches_sequential(expr):
    g = construct_graph(expr)
    assert classify_over_all_groups(g, SearchOptions(jobs=2)) == \
        classify_over_all_groups(g)


def test_classify_starts_one_pool(monkeypatch):
    import concurrent.futures
    import os

    from gdmagic.cli import run

    made = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outputs = []
    for jobs in ("1", "2"):
        out = io.StringIO()
        assert run(["classify", "--graph", "C(8)", "--jobs", jobs], out) == 1
        outputs.append(out.getvalue())
    assert made == [{"max_workers": 2}]
    assert outputs[0] == outputs[1]


# counts of the engine this one replaced; KmM(10) took it about 6 minutes
@pytest.mark.parametrize("expr, spec, count", [
    ("KmM(8)", "Z8", 1536),
    ("KmM(8)", "Z2xZ4", 2304),
    ("pow(C(12),2)", "Z12", 2304),
    ("join(KmM(8),K(1))", "Z9", 384),
    ("Kb(2,7)", "Z9", 40320),
    ("KmM(10)", "Z10", 19200),
])
def test_regression_counts(expr, spec, count):
    assert search_labelings(construct_graph(expr), P(spec), COUNT) == count


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_graphs())
def test_pruned_matches_naive_oracle(g):
    for group in enumerate_abelian_groups(g.n):
        naive = search_labelings(g, group, ALL_NAIVE)
        assert search_labelings(g, group, COUNT) == len(naive)
        pruned = search_labelings(g, group, ALL)
        assert {lab.assignment for lab in pruned} == \
            {lab.assignment for lab in naive}
        # both scan label sequences in lexicographic order
        first = search_labelings(
            g, group, SearchOptions(mode="first", vertex_order="input"))
        assert [(lab.assignment, lab.magic_constant) for lab in first] == \
            [(lab.assignment, lab.magic_constant) for lab in naive[:1]]


def test_counts_are_stable_across_groups_of_same_class():
    # Z6 and Z2xZ3 are the same group up to isomorphism; counts agree
    for g in (cycle(6), star(5)):
        assert search_labelings(g, P("Z6"), COUNT) == \
            search_labelings(g, P("Z2xZ3"), COUNT)


def test_forced_identity_detection_matches_naive_oracle():
    # wherever the unique-universal/biregular shape is detected, every
    # labeling found by the naive scan pins the detected vertex to 0
    from gdmagic.graphs import Graph, complete_multipartite
    from gdmagic.magic import detect_biregular_universal

    friendship = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                                      (1, 2), (3, 4)])
    graphs = [star(4), star(6), join(complete_minus_matching(4), complete(1)),
              join(complete_minus_matching(6), complete(1)),
              complete_multipartite((1, 2, 2)), friendship]
    detected = 0
    for g in graphs:
        result = detect_biregular_universal(g)
        assert result is not None, g.degrees
        v, _ = result
        detected += 1
        for group in enumerate_abelian_groups(g.n):
            found = search_labelings(
                g, group, SearchOptions(mode="all", use_pruning=False))
            for lab in found:
                assert lab.assignment[v] == group.zero()
    assert detected == len(graphs)


@pytest.mark.parametrize("use_pruning", [True, False])
def test_unknown_vertex_order_is_rejected_on_both_paths(use_pruning):
    opts = SearchOptions(mode="all", vertex_order="bogus",
                         use_pruning=use_pruning)
    with pytest.raises(SolverError, match="unknown vertex order 'bogus'"):
        search_labelings(cycle(4), P("Z4"), opts)


def _atlas_regular_graphs():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if 2 <= n <= 7 and len({d for _, d in h.degree()}) == 1:
            yield Graph.from_edges(n, list(h.edges()))


def test_pinned_first_is_the_first_of_all():
    from gdmagic.solver import _plan

    first = SearchOptions(mode="first")
    checked, magic = 0, 0
    for g in _atlas_regular_graphs():
        assert _plan(g, first).prefix == (0,)
        for group in enumerate_abelian_groups(g.n):
            pinned = search_labelings(g, group, first)
            everything = search_labelings(g, group, ALL)
            assert len(pinned) <= 1
            assert [(lab.assignment, lab.magic_constant) for lab in pinned] \
                == [(lab.assignment, lab.magic_constant)
                    for lab in everything[:1]]
            checked += 1
            magic += bool(pinned)
    assert (checked, magic) == (29, 10)


@pytest.mark.parametrize("expr, spec", [("Kb(3,3)", "Z6"), ("C(6)", "Z6")])
def test_parallel_pinned_first_matches_sequential(expr, spec):
    g, group = construct_graph(expr), P(spec)
    seq = search_labelings(g, group, SearchOptions(mode="first"))
    par = search_labelings(g, group, SearchOptions(mode="first", jobs=2))
    assert len(seq) <= 1
    assert [(lab.assignment, lab.magic_constant) for lab in par] == \
        [(lab.assignment, lab.magic_constant) for lab in seq]


@pytest.mark.parametrize("expr, spec, hits", [("KmM(6)", "Z6", 144),
                                              ("C(8)", "Z8", 0)])
def test_naive_count_builds_a_labeling_only_per_hit(monkeypatch, expr, spec,
                                                    hits):
    from gdmagic.magic import Labeling

    built = []
    real = Labeling.__post_init__

    def counting(self):
        built.append(self.assignment)
        real(self)

    monkeypatch.setattr(Labeling, "__post_init__", counting)
    g = construct_graph(expr)
    assert search_labelings(g, P(spec), COUNT_NAIVE) == hits
    # one to check the group's elements, then one per hit
    assert len(built) <= hits + 1


@pytest.mark.parametrize("expr, spec", [("KmM(6)", "Z6"), ("C(4)", "Z2xZ2"),
                                        ("S(3)", "Z4"), ("C(4)", "Z4")])
def test_naive_labelings_carry_the_verified_constant(expr, spec):
    g, group = construct_graph(expr), P(spec)
    for mode in ("first", "all"):
        found = search_labelings(
            g, group, SearchOptions(mode=mode, use_pruning=False))
        assert found
        for lab in found:
            assert lab.magic_constant is not None
            assert verify(g, lab) == lab.magic_constant
