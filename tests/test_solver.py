import io
import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from gdmagic.abelian import (
    GroupSpec,
    cayley_tables,
    enumerate_abelian_groups,
    parse_group_spec,
)
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
from gdmagic.magic import Labeling, verify
from gdmagic.solver import (
    SearchOptions,
    SearchSizeError,
    SolverError,
    _constraints,
    _plan,
    _run,
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
    import multiprocessing.pool
    import os

    from gdmagic.cli import run

    made = []

    class CountingPool(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outputs = []
    for jobs in ("1", "2"):
        out = io.StringIO()
        assert run(["classify", "--graph", "KmM(8)", "--jobs", jobs], out) == 0
        outputs.append(out.getvalue())
    assert made == [{"processes": 2}]
    assert outputs[0] == outputs[1]
    assert multiprocessing.active_children() == []


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
    real = Labeling.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Labeling, "__init__", counting)
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


def _parent_search(g: Graph, group: GroupSpec, order: list[int], mode: str,
            prefix: tuple[int, ...] = ()):
    """The pruned search before twin classes, kept as the oracle for the
    twin-ordered one: backtracking over integer element codes with forward
    checking, translation pinning through ``prefix`` and the free tail
    counted as (n - depth)!, with no twin order."""
    n = g.n
    add, neg, s = cayley_tables(group)
    sub = [[row[neg[b]] for b in range(n)] for row in add]
    sub_t = [list(col) for col in zip(*sub)]
    elements = list(group.elements())
    cons = _constraints(g)
    step = [add if plus else sub for _, plus in cons]
    unstep = [sub if plus else add for _, plus in cons]
    # force[c][mu][value]: the last member's label that closes c at mu
    force = [sub if plus else sub_t for _, plus in cons]
    value = [0 if plus else s for _, plus in cons]
    left = [len(members) for members, _ in cons]
    cons_of = [[c for c, (members, _) in enumerate(cons) if v in members]
               for v in range(n)]
    used = [False] * n
    label = [0] * n
    counting = mode == "count"
    fixed = len(prefix)
    tail = [math.factorial(k) for k in range(n + 1)]
    found: list[Labeling] = []
    tally = 0
    # a constraint with no members (an isolated vertex) is closed at 0
    mu0 = 0 if 0 in left else -1

    def dfs(depth: int, mu: int, open_: int) -> bool:
        nonlocal tally
        if counting and open_ == 0 and depth >= fixed:
            tally += tail[n - depth]
            return True
        if depth == n:
            assignment = tuple(elements[label[v]] for v in range(n))
            found.append(Labeling(group, assignment, elements[mu]))
            return mode != "first"
        v = order[depth]
        mine = cons_of[v]
        if depth < fixed:
            candidates = prefix[depth:depth + 1]
        else:
            candidates = range(n)
            if mu >= 0:
                for c in mine:
                    if left[c] == 1:
                        candidates = (force[c][mu][value[c]],)
                        break
        for e in candidates:
            if used[e]:
                continue
            new_mu, ok, closed = mu, True, 0
            for c in mine:
                w = step[c][value[c]][e]
                value[c] = w
                left[c] -= 1
                if left[c] == 0:
                    closed += 1
                    if new_mu < 0:
                        new_mu = w
                    elif w != new_mu:
                        ok = False
            used[e] = True
            if ok and new_mu >= 0:
                # forward check; when mu is new, every constraint can force
                for c in (range(len(cons)) if mu < 0 else mine):
                    if left[c] == 1 and used[force[c][new_mu][value[c]]]:
                        ok = False
                        break
            keep_going = True
            if ok:
                label[v] = e
                keep_going = dfs(depth + 1, new_mu, open_ - closed)
            used[e] = False
            for c in mine:
                value[c] = unstep[c][value[c]][e]
                left[c] += 1
            if not keep_going:
                return False
        return True

    dfs(0, mu0, sum(1 for k in left if k))
    return tally if counting else found


# runs the branches of a --jobs search one after another in this process
IN_PROCESS = SimpleNamespace(imap=map)


def _answers(result, mode):
    if mode == "count":
        return result
    return [(lab.assignment, lab.magic_constant) for lab in result]


def _parent_answers(g, group, opts):
    """What the search answered before twin classes, by the same plan."""
    order, prefix, _ = _plan(g, opts)
    result = _parent_search(g, group, order, opts.mode, prefix)
    if opts.mode == "count" and prefix:
        result *= g.n
    return _answers(result, opts.mode)


def test_twin_ordered_search_matches_the_parent_on_the_atlas():
    nx = pytest.importorskip("networkx")
    cases = 0
    for h in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
        for group in enumerate_abelian_groups(g.n):
            for mode in ("first", "count"):
                opts = SearchOptions(mode=mode)
                assert _answers(search_labelings(g, group, opts), mode) == \
                    _parent_answers(g, group, opts), (list(h.edges()), mode)
                cases += 1
    assert cases == 2526


@st.composite
def graphs_with_planted_twins(draw):
    """A random graph on 1..8 vertices in classes of 1..3, every class all
    open twins (no edges inside) or all closed twins (a clique), with
    random edges between classes, numbered at random."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, sizes = draw(st.integers(1, 8)), []
    while sum(sizes) < n:
        sizes.append(min(rnd.randint(1, 3), n - sum(sizes)))
    p = draw(st.sampled_from([0.3, 0.5, 0.7]))
    starts = list(itertools.accumulate([0] + sizes))
    members = [range(a, b) for a, b in zip(starts, starts[1:])]
    edges = []
    for i, j in itertools.combinations(range(len(sizes)), 2):
        if rnd.random() < p:
            edges += itertools.product(members[i], members[j])
    for part in members:
        if rnd.random() < 0.5:
            edges += itertools.combinations(part, 2)
    order = list(range(starts[-1]))
    rnd.shuffle(order)
    return Graph.from_edges(len(order), [(order[u], order[v])
                                         for u, v in edges])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graphs_with_planted_twins())
@example(construct_graph("lex(C(4),K(2))"))
@example(construct_graph("Kb(3,5)"))
@example(Graph.from_edges(6, [(0, 1), (2, 3)]))
def test_twin_ordered_search_matches_the_parent_and_the_naive_oracle(g):
    for group in enumerate_abelian_groups(g.n):
        naive = search_labelings(g, group, ALL_NAIVE)
        # the naive scan goes in input order, as first mode does with it;
        # in input order a count's free tail often follows twins of its
        # vertices that are already labeled
        for opts in (COUNT, SearchOptions(mode="count", vertex_order="input"),
                     SearchOptions(mode="first"),
                     SearchOptions(mode="first", vertex_order="input")):
            mode, plan = opts.mode, _plan(g, opts)
            expected = _parent_answers(g, group, opts)
            assert _answers(_run(g, group, mode, plan, None), mode) \
                == expected
            # the branches of --jobs 2, one per label of the first
            # vertex that is not pinned
            assert _answers(_run(g, group, mode, plan, IN_PROCESS), mode) \
                == expected
            if mode == "count":
                assert expected == len(naive)
            elif opts.vertex_order == "input":
                assert expected == _answers(naive[:1], mode)


def test_closed_twins_are_answered_without_searching(monkeypatch):
    """Closed twins u, v are adjacent, so w(u) - w(v) = l(v) - l(u): no
    labeling is magic, and they share deg - 1 neighbours."""
    nx = pytest.importorskip("networkx")
    from gdmagic import solver
    from gdmagic.magic import obstruction_shared_neighborhood

    def refuse(*args):
        raise AssertionError("searched a graph with closed twins")

    monkeypatch.setattr(solver, "_search", refuse)
    graphs = cases = 0
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if len({frozenset(h[v]) | {v} for v in h}) == n:
            continue
        g = Graph.from_edges(n, list(h.edges()))
        assert obstruction_shared_neighborhood(g) is not None
        for group in enumerate_abelian_groups(n):
            assert search_labelings(g, group, SearchOptions()) == []
            assert search_labelings(g, group, ALL) == []
            assert search_labelings(g, group, COUNT) == 0
            assert search_labelings(g, group, COUNT_NAIVE) == 0
            cases += 1
        assert set(classify_over_all_groups(g).values()) == {False}
        graphs += 1
    assert (graphs, cases) == (561, 567)


def _cli(argv):
    from gdmagic.cli import run

    out, err = io.StringIO(), io.StringIO()
    return run(argv, out, err), out.getvalue(), err.getvalue()


def test_naive_first_reads_the_permutations_no_further_than_the_first_hit(
        monkeypatch):
    g = construct_graph("Kb(2,6)")
    first_hit = {}
    for group in enumerate_abelian_groups(g.n):
        candidates = itertools.permutations(tuple(group.elements()))
        first_hit[str(group)] = next(
            k for k, rows in enumerate(candidates)
            if verify(g, Labeling(group, rows)) is not None)
    assert first_hit == {"Z8": 720, "Z4xZ2": 0, "Z2xZ2xZ2": 0}
    real, read = itertools.permutations, []

    def source(labels):
        for candidate in real(labels):
            read.append(candidate)
            yield candidate
    monkeypatch.setattr(itertools, "permutations", source)
    code, out, _ = _cli(["search", "--graph", "Kb(2,6)", "--group", "Z8",
                         "--mode", "first", "--naive"])
    assert code == 0 and len(read) == 721
    read.clear()
    code, out, _ = _cli(["classify", "--graph", "Kb(2,6)", "--naive"])
    assert code == 0 and len(read) == 721 + 1 + 1


def _recipe_graph(i):
    """Graph i of a fixed recipe of random 12-vertex graphs: one
    random.Random(12) draws them in turn, and graph k takes each pair
    u < v, in order, as an edge with probability (0.3, 0.5, 0.7)[k % 3]."""
    rnd = random.Random(12)
    for k in range(i + 1):
        p = (0.3, 0.5, 0.7)[k % 3]
        edges = [e for e in itertools.combinations(range(12), 2)
                 if rnd.random() < p]
    return Graph.from_edges(12, edges)


def test_blocking_obstructions_are_answered_without_searching(monkeypatch):
    """Graphs with no closed twins but a shared-neighborhood witness, on
    which the pruned search took 0.3 s (the prism) and 7-10 s per group
    (graphs 2 and 11 of the recipe); the naive oracle still scans them."""
    from gdmagic import solver
    from gdmagic.magic import all_obstructions

    def refuse(*args):
        raise AssertionError("searched a graph with a blocking obstruction")

    monkeypatch.setattr(solver, "_search", refuse)
    for g, witness in ((construct_graph("cart(K(2),C(6))"), (0, 7)),
                       (_recipe_graph(2), (4, 9)),
                       (_recipe_graph(11), (4, 11))):
        assert len({nbrs | {v} for v, nbrs in enumerate(g.adj)}) == g.n
        assert [(o.kind, o.witness) for o in all_obstructions(g)] == \
            [("shared-neighborhood", witness)]
        for group in enumerate_abelian_groups(g.n):
            assert search_labelings(g, group, SearchOptions()) == []
            assert search_labelings(g, group, ALL) == []
            assert search_labelings(g, group, COUNT) == 0
        assert set(classify_over_all_groups(g).values()) == {False}
    assert _cli(["search", "--graph", "cart(K(2),C(6))", "--group", "Z12",
                 "--json"]) == \
        (1, '{"mode": "first", "count": 0, "labelings": []}\n', "")
    # C(8) has a shared-neighborhood witness too, but --naive is not gated
    real, read = itertools.permutations, []

    def source(labels):
        for candidate in real(labels):
            read.append(candidate)
            yield candidate
    monkeypatch.setattr(itertools, "permutations", source)
    assert _cli(["search", "--graph", "C(8)", "--group", "Z8", "--mode",
                 "count", "--naive"])[0] == 1
    assert len(read) == math.factorial(8)


def test_closed_twins_start_no_pool_and_keep_the_exit_codes(monkeypatch):
    import multiprocessing.pool
    import os

    made = []

    class CountingPool(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    graph = ["--graph", "lex(C(4),K(3))"]
    for argv in (["search", *graph, "--group", "Z12", "--mode", "count"],
                 ["classify", *graph]):
        answers = [_cli(argv + ["--jobs", jobs]) for jobs in ("1", "2")]
        assert answers[0] == answers[1]
        assert answers[0][0] == 1 and answers[0][1]
    assert made == []
    # the request is checked before the rule: K(13) has closed twins
    over = (2, "", "error: pruned search supports at most 12 vertices, "
                   "got 13\n")
    assert _cli(["search", "--graph", "K(13)", "--group", "Z13"]) == over
    assert _cli(["classify", "--graph", "K(13)"]) == over
    assert _cli(["classify", "--graph", "lex(C(4),K(3))", "--jobs", "0"]) \
        == (2, "", "error: --jobs must be at least 1, got 0\n")


def test_all_mode_lists_at_most_the_cap(monkeypatch):
    from gdmagic import solver

    # C(4) has 16 labelings over Z4, four per label of its first vertex
    monkeypatch.setattr(solver, "ALL_MODE_CAP", 10)
    refusal = ("error: more than 10 labelings, over the cap of all mode "
               "(ALL_MODE_CAP); --mode count counts them\n")
    for jobs in ("1", "2"):
        assert _cli(["search", "--graph", "C(4)", "--group", "Z4",
                     "--mode", "all", "--jobs", jobs]) == (2, "", refusal)
    g, group, opts = cycle(4), P("Z4"), SearchOptions(mode="all")
    plan = _plan(g, opts)
    # every branch is under the cap, and their union over it
    for pool in (None, IN_PROCESS):
        with pytest.raises(SearchSizeError) as refused:
            _run(g, group, "all", plan, pool)
        assert f"error: {refused.value}\n" == refusal
    monkeypatch.setattr(solver, "ALL_MODE_CAP", 16)
    assert len(_run(g, group, "all", plan, IN_PROCESS)) == 16
    assert search_labelings(g, group, COUNT) == 16


def _later_branches_sleep(args):
    """The branch worker, but a branch other than the first of its plan
    ((0,) unpinned, (0, 1) pinned) sleeps 30 s before it searches."""
    from gdmagic import solver

    if args[4] not in ((0,), (0, 1)):
        time.sleep(30)
    return solver._search(*args)


def test_an_answer_or_a_refusal_ends_the_workers(monkeypatch):
    import multiprocessing.pool
    import os

    from gdmagic import solver

    ended = []

    class SpyPool(multiprocessing.pool.Pool):
        def terminate(self):
            ended.append(True)
            super().terminate()

    monkeypatch.setattr(multiprocessing.pool, "Pool", SpyPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # the workers are forked after these, so they run the sleeping worker
    # and see the lower cap
    monkeypatch.setattr(solver, "_branch_worker", _later_branches_sleep)
    monkeypatch.setattr(solver, "ALL_MODE_CAP", 2)
    refusal = ("error: more than 2 labelings, over the cap of all mode "
               "(ALL_MODE_CAP); --mode count counts them\n")
    search = ["search", "--graph", "C(4)", "--group", "Z4", "--jobs", "2"]
    first = _cli(search[:-2])
    assert first[0] == 0
    # the first branch holds the first witness and, unpinned, more
    # labelings than the cap: neither answer waits for a later branch
    for argv, answer in ((search, first),
                         (search + ["--mode", "all"], (2, "", refusal))):
        started = time.perf_counter()
        assert _cli(argv) == answer
        assert time.perf_counter() - started < 15
        assert multiprocessing.active_children() == []
    assert ended == [True, True]
