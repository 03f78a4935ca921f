import io
import itertools
import math
import pathlib
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from gdmagic.abelian import (
    GroupSpec,
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
from gdmagic.magic import Labeling, blocking_obstruction, verify
from gdmagic.solver import (
    SearchOptions,
    SearchSizeError,
    SolverError,
    classify_over_all_groups,
    search_labelings,
)
from test_abelian import cayley_tables

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


def test_parallel_matches_sequential(monkeypatch):
    """The library's jobs=2 answers as jobs=1 and starts no process; the
    command line's --jobs is checked in
    test_jobs_is_checked_and_starts_no_process."""
    import os

    monkeypatch.setattr(os, "fork", _refuse_fork)
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
    # jobs is checked and ignored: every search runs in this process
    g = complete_minus_matching(8)
    assert search_labelings(g, P("Z8"), SearchOptions(mode="count", jobs=2)) \
        == search_labelings(g, P("Z8"), COUNT) == 1536


@pytest.mark.parametrize("expr", ["C(4)", "S(5)", "C(8)", "KmM(6)",
                                  "join(KmM(6),K(1))", "lex(C(4),K(2))"])
def test_parallel_classify_matches_sequential(monkeypatch, expr):
    import os

    monkeypatch.setattr(os, "fork", _refuse_fork)
    g = construct_graph(expr)
    assert classify_over_all_groups(g, SearchOptions(jobs=2)) == \
        classify_over_all_groups(g)


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


def test_pinned_first_is_the_first_of_all(monkeypatch):
    """On a regular graph first and count mode pin the first vertex of the
    order to code 0 and all mode does not; the pinned first answer is still
    the first of all mode's list."""
    from gdmagic import solver

    pins = []
    real = solver._search

    def recording(g, group, order, mode, pinned, systems):
        pins.append((mode, pinned))
        return real(g, group, order, mode, pinned, systems)

    monkeypatch.setattr(solver, "_search", recording)
    first = SearchOptions(mode="first")
    checked = magic = searched = 0
    for g in _atlas_regular_graphs():
        for group in enumerate_abelian_groups(g.n):
            pins.clear()
            pinned = search_labelings(g, group, first)
            everything = search_labelings(g, group, ALL)
            assert search_labelings(g, group, COUNT) == len(everything)
            # a blocking obstruction answers before any search
            assert pins in ([], [("first", True), ("all", False),
                                 ("count", True)])
            assert len(pinned) <= 1
            assert [(lab.assignment, lab.magic_constant) for lab in pinned] \
                == [(lab.assignment, lab.magic_constant)
                    for lab in everything[:1]]
            checked += 1
            magic += bool(pinned)
            searched += bool(pins)
    assert (checked, magic) == (29, 10)
    assert searched > magic


@pytest.mark.parametrize("expr, spec", [("Kb(3,3)", "Z6"), ("C(6)", "Z6")])
def test_parallel_pinned_first_matches_sequential(monkeypatch, expr, spec):
    import os

    monkeypatch.setattr(os, "fork", _refuse_fork)
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


def _constraints(g: Graph) -> list[tuple[frozenset[int], bool]]:
    """One weight constraint per distinct neighbourhood, in the smaller of
    two equivalent forms: w(v) = mu is a sum over N(v), and since all
    labels sum to s(group), also s - (sum over V - N(v)) = mu. A constraint
    is (members, plus): its running value starts at 0 and adds each
    member's label (plus), or starts at s and subtracts them."""
    everyone = frozenset(range(g.n))
    return [(nbrs, True) if 2 * len(nbrs) <= g.n else (everyone - nbrs, False)
            for nbrs in g.twin_classes[0]]


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


def _answers(result, mode):
    if mode == "count":
        return result
    return [(lab.assignment, lab.magic_constant) for lab in result]


def _parent_answers(g, group, opts):
    """What the search answered before twin classes: the vertices in
    ``opts.vertex_order``, and in count and first mode on a regular graph
    the first of them pinned to code 0, the count then multiplied by n."""
    order = (list(range(g.n)) if opts.vertex_order == "input"
             else sorted(range(g.n), key=lambda v: (-g.degree(v), v)))
    pinned = opts.mode != "all" and g.n > 1 and len(set(g.degrees)) == 1
    result = _parent_search(g, group, order, opts.mode, (0,) if pinned else ())
    return _answers(result * g.n if pinned and opts.mode == "count"
                    else result, opts.mode)


def test_twin_ordered_search_matches_the_parent_on_the_atlas():
    nx = pytest.importorskip("networkx")
    cases = 0
    for h in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
        for group in enumerate_abelian_groups(g.n):
            for mode in ("first", "count", "all"):
                opts = SearchOptions(mode=mode)
                assert _answers(search_labelings(g, group, opts), mode) == \
                    _parent_answers(g, group, opts), (list(h.edges()), mode)
                cases += 1
    assert cases == 3789


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
            mode = opts.mode
            expected = _parent_answers(g, group, opts)
            assert _answers(search_labelings(g, group, opts), mode) \
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


RECIPE_GRAPH_10 = pathlib.Path(__file__).parent / "recipe-graph-10.edges"


def test_the_recipe_graphs_are_answered_at_once():
    """The 17 graphs of the recipe with no blocking finding, on which the
    search took up to 45 s per group before it read the magic system's
    Howell form (graph 10, kept as an edge list, over Z4xZ3 `first`). None
    has a labeling over either group; the reference search of the parent
    engine still answers graphs 7, 24, 25, 28 and 33 within 0.5 s."""
    assert construct_graph(f"file({RECIPE_GRAPH_10})") == _recipe_graph(10)
    graphs = {i: _recipe_graph(i) for i in range(36)}
    graphs = {i: g for i, g in graphs.items() if blocking_obstruction(g) is None}
    assert list(graphs) == [5, 7, 8, 9, 10, 17, 19, 20, 21, 23, 24, 25, 28,
                            29, 31, 33, 35]
    started = time.perf_counter()
    answers = {(i, str(group), mode): search_labelings(
                   g, group, SearchOptions(mode=mode))
               for i, g in graphs.items()
               for group in (P("Z4xZ3"), P("Z2xZ2xZ3"))
               for mode in ("first", "count")}
    assert time.perf_counter() - started < 2
    for (i, spec, mode), answer in answers.items():
        if mode == "first":
            for lab in answer:
                assert verify(graphs[i], lab) == lab.magic_constant
    assert set(map(len, (answers[key] for key in answers
                         if key[2] == "first"))) == {0}
    for i in (7, 24, 25, 28, 33):
        for spec in ("Z4xZ3", "Z2xZ2xZ3"):
            # no labeling, so first mode's answer follows from the count
            assert _parent_answers(graphs[i], P(spec), COUNT) == \
                answers[i, spec, "count"] == 0


def _refuse_fork():
    raise AssertionError("forked a process")


def test_closed_twins_start_no_pool_and_keep_the_exit_codes(monkeypatch):
    import os

    monkeypatch.setattr(os, "fork", _refuse_fork)
    graph = ["--graph", "lex(C(4),K(3))"]
    for argv in (["search", *graph, "--group", "Z12", "--mode", "count"],
                 ["classify", *graph]):
        answers = [_cli(argv + ["--jobs", jobs]) for jobs in ("1", "2")]
        assert answers[0] == answers[1]
        assert answers[0][0] == 1 and answers[0][1]
    # the request is checked before the rule: K(13) has closed twins
    over = (2, "", "error: pruned search supports at most 12 vertices, "
                   "got 13\n")
    assert _cli(["search", "--graph", "K(13)", "--group", "Z13"]) == over
    assert _cli(["classify", "--graph", "K(13)"]) == over
    assert _cli(["classify", "--graph", "lex(C(4),K(3))", "--jobs", "0"]) \
        == (2, "", "error: --jobs must be at least 1, got 0\n")


def test_all_mode_lists_at_most_the_cap(monkeypatch):
    from gdmagic import solver

    # C(4) has 16 labelings over Z4
    monkeypatch.setattr(solver, "ALL_MODE_CAP", 10)
    refusal = ("error: more than 10 labelings, over the cap of all mode "
               "(ALL_MODE_CAP); --mode count counts them\n")
    for jobs in ("1", "2"):
        assert _cli(["search", "--graph", "C(4)", "--group", "Z4",
                     "--mode", "all", "--jobs", jobs]) == (2, "", refusal)
    g, group = cycle(4), P("Z4")
    with pytest.raises(SearchSizeError) as refused:
        search_labelings(g, group, ALL)
    assert f"error: {refused.value}\n" == refusal
    monkeypatch.setattr(solver, "ALL_MODE_CAP", 16)
    assert len(search_labelings(g, group, ALL)) == 16
    assert search_labelings(g, group, COUNT) == 16


def test_jobs_is_checked_and_starts_no_process(monkeypatch):
    """--jobs is accepted and checked, and changes no byte of the output:
    every search runs in the one process."""
    import os

    monkeypatch.setattr(os, "fork", _refuse_fork)
    for argv in (["search", "--graph", "pow(C(12),2)", "--group", "Z12",
                  "--mode", "count"],
                 ["search", "--graph", "KmM(8)", "--group", "Z2xZ4",
                  "--mode", "all", "--json"],
                 ["search", "--graph", "Kb(3,3)", "--group", "Z6"],
                 ["search", "--graph", "C(9)", "--group", "Z3xZ3"],
                 ["classify", "--graph", "KmM(8)"],
                 ["classify", "--graph", "join(KmM(6),K(1))", "--json"]):
        one = _cli(argv + ["--jobs", "1"])
        assert one[0] in (0, 1) and one[1] and not one[2]
        assert _cli(argv + ["--jobs", "2"]) == one
    for argv in (["search", "--graph", "C(4)", "--group", "Z4"],
                 ["classify", "--graph", "C(4)"]):
        assert _cli(argv + ["--jobs", "0"]) == \
            (2, "", "error: --jobs must be at least 1, got 0\n")
