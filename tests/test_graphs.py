import collections
import functools
import hashlib
import heapq
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from gdmagic.abelian import GroupSpec, parse_group_spec
from gdmagic.constructors import ConstructionError, auto_label, label_star_graph
from gdmagic.graphs import (
    MAX_TREE_VERTICES,
    Graph,
    GraphError,
    GraphParseError,
    complete,
    complete_bipartite,
    complete_bipartite_parts,
    complete_minus_matching,
    complete_multipartite,
    construct_graph,
    cycle,
    enumerate_trees,
    find_twin_pairing,
    from_edge_list_text,
    graph_power,
    is_tree,
    join,
    matching_join_pairs,
    path,
    star,
)
from gdmagic.magic import all_obstructions


def _assert_simple(g):
    for v in range(g.n):
        assert v not in g.adj[v]
        for u in g.adj[v]:
            assert v in g.adj[u]


def test_named_constructions():
    c4 = cycle(4)
    assert c4.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert set(c4.degrees) == {2}

    s3 = star(3)
    assert s3.degree(0) == 3 and all(s3.degree(v) == 1 for v in (1, 2, 3))

    kb = complete_bipartite(2, 3)
    assert kb.degrees == (3, 3, 2, 2, 2)

    km = complete_multipartite((2, 2, 2))
    assert km.degrees == (4,) * 6

    kmm = complete_minus_matching(4)
    assert kmm.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]

    wheel = join(complete_minus_matching(4), complete(1))
    assert wheel.degrees == (3, 3, 3, 3, 4)

    for g in (c4, s3, kb, km, kmm, wheel):
        _assert_simple(g)


def test_construction_errors():
    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError):
        complete_minus_matching(5)
    with pytest.raises(GraphError):
        path(0)
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 2)])


def test_expression_parser():
    assert construct_graph("C(4)") == cycle(4)
    assert construct_graph(" join( KmM(4) , K(1) ) ") == join(
        complete_minus_matching(4), complete(1))
    assert construct_graph("pow(C(6),2)") == graph_power(cycle(6), 2)
    assert construct_graph("Km(2,2,2)") == complete_multipartite((2, 2, 2))
    assert construct_graph("Kb(2,3)") == complete_bipartite(2, 3)
    assert construct_graph("lex(K(2),K(2))") == complete(4)


@pytest.mark.parametrize("bad", [
    "C(4",
    "Q(3)",
    "C(4))",
    "C()",
    "join(C(4))",
    "pow(2,C(4))",
    "KmM(5)",
])
def test_expression_parser_rejects(bad):
    with pytest.raises(GraphError):
        construct_graph(bad)


def test_edge_list_round_trip(tmp_path):
    g = cycle(5)
    text = "5 5\n" + "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n"
    assert from_edge_list_text(text) == g
    p = tmp_path / "c5.edges"
    p.write_text(text)
    assert construct_graph(f"file({p})") == g
    assert construct_graph(f'file("{p}")') == g


@pytest.mark.parametrize("bad", [
    "",
    "2\n0 1",
    "2 2\n0 1",
    "2 1\n0 1\n1 0",
    "2 1\n0 2",
    "2 1\n0 0",
    "2 1\nx y",
    "--2 0",
    "2 1\n0 \u00b9",
    pytest.param("1 1\n0 " + "0" * 5000, id="5000-digit-vertex"),
])
def test_edge_list_rejects(bad):
    with pytest.raises(GraphError):
        from_edge_list_text(bad)


@pytest.mark.parametrize("text, message", [
    ("2 2\n0 1\n1 0\n", "duplicate edge 1 0"),
    ("-1 0\n", "vertex count must be >= 0, got -1"),
])
def test_edge_list_file_messages(tmp_path, text, message):
    p = tmp_path / "g.edges"
    p.write_text(text)
    with pytest.raises(GraphError) as info:
        construct_graph(f"file({p})")
    assert str(info.value) == message


def test_graph_power():
    # second power of a 6-cycle is K6 minus the antipodal matching
    expected = Graph.from_edges(6, [
        (u, v) for u, v in itertools.combinations(range(6), 2)
        if (v - u) % 6 not in (3,)])
    assert graph_power(cycle(6), 2) == expected
    assert graph_power(path(4), 1) == path(4)
    assert graph_power(path(4), 3) == complete(4)


def _all_pairs_power(g, k):
    """The k-th power from a full BFS out of every vertex."""
    edges = []
    for u in range(g.n):
        dist = [-1] * g.n
        dist[u] = 0
        queue = [u]
        for x in queue:
            for w in g.adj[x]:
                if dist[w] < 0:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        edges += [(u, v) for v in range(u + 1, g.n) if 1 <= dist[v] <= k]
    return Graph.from_edges(g.n, edges)


@st.composite
def graphs_and_powers(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    return g, draw(st.integers(1, 13))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_and_powers())
@example((cycle(600), 4))
@example((path(40), 39))
@example((Graph.from_edges(5, [(0, 1), (3, 4)]), 10**100))
def test_graph_power_matches_all_pairs_bfs(case):
    g, k = case
    assert graph_power(g, k).edges() == _all_pairs_power(g, k).edges()


def _join_from_edges(g, h):
    """join built from its edge list, as it was before it built its
    neighbourhoods directly."""
    edges = list(g.edges())
    edges += [(g.n + u, g.n + v) for u, v in h.edges()]
    edges += [(u, g.n + w) for u in range(g.n) for w in range(h.n)]
    return Graph.from_edges(g.n + h.n, edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs_and_powers(), graphs_and_powers())
def test_join_and_power_equal_their_edge_list_builds(first, second):
    (g, k), (h, _) = first, second
    # whole graphs, so that every neighbourhood is compared both ways
    assert graph_power(g, k) == _all_pairs_power(g, k)
    assert join(g, h) == _join_from_edges(g, h)


def test_graph_power_monotone_and_complete_at_diameter():
    for g, diam in ((path(5), 4), (cycle(6), 3), (complete_bipartite(2, 3), 2),
                    (star(4), 2)):
        prev_edges = set()
        for k in range(1, diam + 1):
            edges = set(graph_power(g, k).edges())
            assert prev_edges <= edges
            prev_edges = edges
        assert graph_power(g, diam) == complete(g.n)


def test_is_tree_agrees_with_metrics():
    triangle_and_point = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    graphs = (path(4), star(5), cycle(5), complete(1), Graph.from_edges(0, []),
              Graph.from_edges(4, [(0, 1)]), triangle_and_point)
    assert [is_tree(g) for g in graphs] == [True, True, False, True, False,
                                            False, False]
    for g in graphs:
        # a tree is connected (every pair within distance n) with n - 1 edges
        connected = _all_pairs_power(g, g.n).num_edges == g.n * (g.n - 1) // 2
        assert is_tree(g) == (g.n > 0 and connected
                              and g.num_edges == g.n - 1)


def test_twin_classes():
    assert cycle(4).twin_classes == ((frozenset({1, 3}), frozenset({0, 2})),
                                     (0, 1, 0, 1), ((0, 2), (1, 3)))
    neighbourhoods, index, classes = path(3).twin_classes
    assert neighbourhoods == (frozenset({1}), frozenset({0, 2}))
    assert index == (0, 1, 0)
    assert classes == ((0, 2), (1,))
    assert Graph.from_edges(0, []).twin_classes == ((), (), ())
    for g in (cycle(6), complete_bipartite(2, 3), complete_minus_matching(8),
              star(4)):
        neighbourhoods, index, classes = g.twin_classes
        assert len(set(neighbourhoods)) == len(neighbourhoods)
        assert [neighbourhoods[c] for c in index] == list(g.adj)
        assert index[0] == 0
        assert classes == tuple(tuple(v for v in range(g.n) if index[v] == k)
                                for k in range(len(neighbourhoods)))


def test_twin_pairing():
    pairing = find_twin_pairing(cycle(4))
    assert pairing == ((0, 2), (1, 3))

    assert find_twin_pairing(cycle(6)) is None

    kmm8 = complete_minus_matching(8)
    assert find_twin_pairing(kmm8) == ((0, 1), (2, 3), (4, 5), (6, 7))

    for a, b in find_twin_pairing(complete_bipartite(4, 4)):
        g = complete_bipartite(4, 4)
        assert g.adj[a] == g.adj[b]


def test_balanced_implies_even_degree_and_order():
    for g in (cycle(4), complete_bipartite(4, 4), complete_minus_matching(8),
              complete_minus_matching(6)):
        if find_twin_pairing(g) is not None:
            assert g.n % 2 == 0
            assert all(d % 2 == 0 for d in g.degrees)


def test_complete_bipartite_parts():
    parts = complete_bipartite_parts(complete_bipartite(2, 3))
    assert parts == ([0, 1], [2, 3, 4])
    assert complete_bipartite_parts(cycle(5)) is None
    assert complete_bipartite_parts(path(4)) is None  # bipartite, not complete
    assert complete_bipartite_parts(cycle(4)) == ([0, 2], [1, 3])


# the twin-class recognizers against the parent's own scans ---------------------

def _parent_find_twin_pairing(g):
    """find_twin_pairing before the twin-class record, kept as its oracle
    (it returned the pairs in a one-field wrapper)."""
    classes = {}
    for v in range(g.n):
        classes.setdefault(g.adj[v], []).append(v)
    pairs = []
    for members in classes.values():
        if len(members) % 2:
            return None
        for t in range(0, len(members), 2):
            pairs.append((members[t], members[t + 1]))
    pairs.sort()
    return tuple(pairs)


def _parent_complete_bipartite_parts(g):
    """complete_bipartite_parts before the twin-class record: a BFS
    2-colouring from vertex 0 and an edge count."""
    if g.n < 2:
        return None
    color = [-1] * g.n
    color[0] = 0
    queue = collections.deque([0])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if color[w] < 0:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return None
    if any(c < 0 for c in color):
        return None
    part0 = [v for v in range(g.n) if color[v] == 0]
    part1 = [v for v in range(g.n) if color[v] == 1]
    if not part1 or g.num_edges != len(part0) * len(part1):
        return None
    return part0, part1


def _parent_matching_join_pairs(g, hub):
    """matching_join_pairs before the twin-class record: each non-hub
    vertex's one non-neighbour, found by an all-pairs scan."""
    others = [v for v in range(g.n) if v != hub]
    partner = {}
    for u in others:
        non = [w for w in others if w != u and w not in g.adj[u]]
        if hub not in g.adj[u] or len(non) != 1:
            return None
        partner[u] = non[0]
    if any(partner[partner[u]] != u for u in others):
        return None
    return [(u, w) for u, w in partner.items() if u < w]


def _parent_star_center(g):
    """label_star_graph's centre scan before the twin-class record."""
    n = g.n
    return next(
        (v for v in range(n)
         if n >= 2 and g.degree(v) == n - 1
         and all(g.degree(u) == 1 for u in range(n) if u != v)),
        None)


def _star_center(g):
    """The centre label_star_graph labels as one, None when it refuses the
    graph as no star; a star over whose group no centre label exists gives
    no witness, and -1 stands for it."""
    group = GroupSpec((g.n,)) if g.n > 1 else GroupSpec()
    try:
        report = label_star_graph(g, group)
    except ConstructionError as exc:
        assert str(exc) == "graph is not a star"
        return None
    if report is None:
        return -1
    labels = report.labeling.assignment
    return labels.index(report.predicted_mu)


def check_recognizers_match_the_parent(g):
    assert find_twin_pairing(g) == _parent_find_twin_pairing(g)
    assert complete_bipartite_parts(g) == _parent_complete_bipartite_parts(g)
    for hub in range(g.n):
        assert matching_join_pairs(g, hub) == \
            _parent_matching_join_pairs(g, hub), hub
    center, parent = _star_center(g), _parent_star_center(g)
    assert center == parent or center == -1 and parent is not None


def _twin_paired(rnd, classes):
    """Classes of 1..4 open twins (2 most often), with random all-or-none
    edges between two classes."""
    sizes = [rnd.choice([1, 2, 2, 2, 3, 4]) for _ in range(classes)]
    starts = list(itertools.accumulate([0] + sizes))
    edges = []
    for i, j in itertools.combinations(range(classes), 2):
        if rnd.random() < 0.5:
            edges += itertools.product(range(starts[i], starts[i + 1]),
                                       range(starts[j], starts[j + 1]))
    return Graph.from_edges(starts[-1], edges)


@st.composite
def recognizer_graphs(draw):
    """A random graph, a planted K(m,n), a star, a hub joined to a KmM, or
    a twin-paired graph; under a random relabelling, and sometimes with one
    vertex pair's adjacency flipped."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["random", "kmn", "star", "hub", "twins"]))
    if kind == "random":
        n = rnd.randint(0, 9)
        p = rnd.choice([0.2, 0.5, 0.8])
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rnd.random() < p])
    elif kind == "kmn":
        g = complete_bipartite(rnd.randint(1, 5), rnd.randint(1, 5))
    elif kind == "star":
        g = star(rnd.randint(1, 9))
    elif kind == "hub":
        g = join(complete(1), complete_minus_matching(2 * rnd.randint(1, 4)))
    else:
        g = _twin_paired(rnd, rnd.randint(1, 5))
    order = list(range(g.n))
    rnd.shuffle(order)
    edges = {frozenset((order[u], order[v])) for u, v in g.edges()}
    if g.n > 1 and draw(st.booleans()):
        edges ^= {frozenset(rnd.sample(range(g.n), 2))}
    return Graph.from_edges(g.n, [tuple(e) for e in edges])


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(recognizer_graphs())
@example(complete(2))
@example(Graph.from_edges(3, [(0, 1), (0, 2)]))
@example(complete_bipartite(1, 5))
@example(join(complete(1), complete_minus_matching(6)))
@example(join(complete_minus_matching(4), complete(1)))
def test_twin_recognizers_match_the_parent(g):
    check_recognizers_match_the_parent(g)


def test_twin_recognizers_match_the_parent_on_the_atlas():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        check_recognizers_match_the_parent(
            Graph.from_edges(h.number_of_nodes(), list(h.edges())))


def test_twin_record_is_built_once_per_graph(monkeypatch):
    built = []
    build = Graph.twin_classes.func

    def counted(g):
        built.append(g)
        return build(g)
    wrapped = functools.cached_property(counted)
    wrapped.__set_name__(Graph, "twin_classes")
    monkeypatch.setattr(Graph, "twin_classes", wrapped)
    g, h = cycle(6), complete_minus_matching(8)
    assert g.twin_classes is g.twin_classes
    assert built == [g]
    group = parse_group_spec("Z8xZ6")
    for factor in (g, h):
        all_obstructions(factor)
    for product in ("lex", "dir"):
        auto_label(g, h, product, group)
    assert [id(x) for x in built] == [id(g), id(h)]


# isomorphism: a plain backtracking search, the tree-dedup oracle below

def find_isomorphism(g, h):
    """A g->h vertex map that preserves adjacency, or None. Desk scale
    only: the one pruning is by degree and adjacency consistency."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return None
    if sorted(g.degrees) != sorted(h.degrees):
        return None
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(pos):
        if pos == g.n:
            return True
        v = order[pos]
        for w in range(h.n):
            if used[w] or h.degree(w) != g.degree(v):
                continue
            if any((u in g.adj[v]) != (mapping[u] in h.adj[w])
                   for u in order[:pos]):
                continue
            mapping[v] = w
            used[w] = True
            if extend(pos + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return mapping if extend(0) else None


def is_isomorphic(g, h):
    return find_isomorphism(g, h) is not None


def test_find_isomorphism():
    from gdmagic.products import cartesian_product
    c4 = cycle(4)
    other = cartesian_product(complete(2), complete(2))
    mapping = find_isomorphism(c4, other)
    assert mapping is not None
    for u, v in c4.edges():
        assert mapping[v] in other.adj[mapping[u]]
    assert find_isomorphism(c4, path(4)) is None
    assert is_isomorphic(complete_minus_matching(4), c4)


def test_enumerate_trees_counts():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    for n, count in expected.items():
        trees = enumerate_trees(n)
        assert len(trees) == count
        for t in trees:
            assert is_tree(t) and t.n == n


def _tree_from_pruefer(seq, n):
    """Decode a Pruefer sequence: the brute-force oracle's tree builder."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def test_enumerate_trees_matches_brute_force_dedup():
    # independent oracle: pairwise isomorphism dedup without signatures
    for n in range(3, 8):
        reps = []
        for seq in itertools.product(range(n), repeat=n - 2):
            t = _tree_from_pruefer(seq, n)
            if not any(is_isomorphic(t, r) for r in reps):
                reps.append(t)
        assert len(reps) == len(enumerate_trees(n))
        trees = enumerate_trees(n)
        for r in reps:
            assert sum(is_isomorphic(r, t) for t in trees) == 1


def test_enumerate_trees_range():
    with pytest.raises(GraphError, match=rf"1\.\.{MAX_TREE_VERTICES} vertices"):
        enumerate_trees(0)
    with pytest.raises(GraphError, match=rf"1\.\.{MAX_TREE_VERTICES} vertices"):
        enumerate_trees(MAX_TREE_VERTICES + 1)


# OEIS A000055: the number of trees on n unlabeled vertices
A000055 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
           11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320}


def _centres(t):
    """The one or two centres of a tree, by stripping leaves layer by layer."""
    degree = list(t.degrees)
    layer = [v for v in range(t.n) if degree[v] <= 1]
    remaining = t.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in t.adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return layer


def _tree_code(t):
    """Canonical text of a tree: the smaller AHU code over its centres."""
    def code(v, parent):
        return "(" + "".join(sorted(code(w, v) for w in t.adj[v]
                                    if w != parent)) + ")"
    return min(code(c, -1) for c in _centres(t))


def test_tree_code_separates_and_identifies():
    assert _tree_code(path(4)) == _tree_code(Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]))
    assert _tree_code(path(4)) != _tree_code(star(3))
    # a bicentral tree, and a relabelled copy with the halves swapped
    fork = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    assert sorted(_centres(fork)) == [1, 2]
    assert _tree_code(fork) == _tree_code(
        Graph.from_edges(5, [(4, 3), (3, 2), (2, 1), (3, 0)]))
    assert _tree_code(fork) != _tree_code(path(5))


def test_enumerate_trees_counts_match_a000055():
    for n in range(1, MAX_TREE_VERTICES + 1):
        trees = enumerate_trees(n)
        assert len(trees) == A000055[n], n
        assert all(t.n == n and is_tree(t) for t in trees)


def test_enumerate_trees_are_pairwise_non_isomorphic():
    for n in range(1, MAX_TREE_VERTICES + 1):
        codes = {_tree_code(t) for t in enumerate_trees(n)}
        assert len(codes) == A000055[n], n


def test_enumerate_trees_is_deterministic_and_centre_rooted():
    for n in range(1, MAX_TREE_VERTICES + 1):
        trees = enumerate_trees(n)
        assert trees == enumerate_trees(n)
        assert all(0 in _centres(t) for t in trees)
    # generation order: from the path to the star
    assert enumerate_trees(5) == [
        Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)]),
        Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (0, 4)]),
        star(4)]


def test_enumerate_trees_match_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(1, 13):
        ours = sorted(_tree_code(t) for t in enumerate_trees(n))
        theirs = sorted(
            _tree_code(Graph.from_edges(n, [(int(u), int(v)) for u, v in t.edges()]))
            for t in nx.nonisomorphic_trees(n))
        assert ours == theirs, n


# the expression parser on generated text ----------------------------------------

# integers are single digits, so no text builds a large graph, or digit
# runs past int()'s 4300-digit conversion limit
_INTS = st.one_of(st.integers(0, 3).map(str),
                  st.integers(4301, 4400).map(lambda n: "9" * n))
_LEAVES = st.one_of(
    st.tuples(st.sampled_from(["K", "C", "P", "S", "KmM"]), _INTS).map(
        lambda t: f"{t[0]}({t[1]})"),
    st.tuples(_INTS, _INTS).map(lambda t: f"Kb({t[0]},{t[1]})"),
    st.lists(_INTS, min_size=1, max_size=3).map(
        lambda xs: f"Km({','.join(xs)})"))
_EXPRESSIONS = st.recursive(_LEAVES, lambda sub: st.one_of(
    st.tuples(st.sampled_from(["join", "lex", "dir", "cart"]), sub, sub).map(
        lambda t: f"{t[0]}({t[1]},{t[2]})"),
    st.tuples(sub, _INTS).map(lambda t: f"pow({t[0]},{t[1]})")),
    max_leaves=3)
# no "file": a missing file is an OSError, which the CLI reports on its own
_JUNK = list("(),xZ -.\"\x00\u00b2\u0663") + ["K(", "pow(", "lex(", "9" * 4301]


@st.composite
def mangled_expressions(draw):
    """A generated expression with up to three characters or pieces
    inserted or deleted."""
    text = draw(_EXPRESSIONS)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from(_JUNK)) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mangled_expressions())
@example("K(" + "9" * 5000 + ")")
@example("Kb(2," + "1" + "0" * 4300 + ")")
@example("pow(C(4)," + "9" * 4301 + ")")
@example("K(\u00b2)")
def test_parser_raises_only_graph_errors(text):
    # deletions may join digits; keep every integer a single digit
    if any(1 < len(run) <= 4300 for run in re.findall(r"\d+", text)):
        return
    try:
        g = construct_graph(text)
    except GraphError:
        return
    _assert_simple(g)


# The edge-list builders that complete, star, complete_bipartite,
# complete_minus_matching and complete_multipartite used before they all
# built their adjacency as complete_multipartite parts.
def _edge_list_complete(n):
    if n < 1:
        raise GraphError(f"K(n) needs n >= 1, got {n}")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def _edge_list_star(n):
    if n < 1:
        raise GraphError(f"S(n) needs n >= 1, got {n}")
    return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])


def _edge_list_complete_bipartite(m, n):
    if m < 1 or n < 1:
        raise GraphError(f"Kb(m,n) needs m,n >= 1, got ({m},{n})")
    return Graph.from_edges(m + n, [(i, m + j) for i in range(m)
                                    for j in range(n)])


def _edge_list_complete_multipartite(sizes):
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError(f"Km needs part sizes >= 1, got {tuple(sizes)}")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    n = starts[-1]
    part = [0] * n
    for p, (a, b) in enumerate(zip(starts, starts[1:])):
        for v in range(a, b):
            part[v] = p
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if part[u] != part[v]]
    return Graph.from_edges(n, edges)


def _edge_list_complete_minus_matching(n):
    if n < 2 or n % 2:
        raise GraphError(f"KmM(n) needs an even n >= 2, got {n}")
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if not (u // 2 == v // 2)]
    return Graph.from_edges(n, edges)


def _outcome(build, *args):
    """The graph build(*args) returns, or its exception type and message."""
    try:
        return build(*args)
    except (GraphError, OSError) as exc:
        return type(exc).__name__, str(exc)


def test_named_constructions_match_edge_list_builders():
    pairs = [(complete, _edge_list_complete), (star, _edge_list_star),
             (complete_minus_matching, _edge_list_complete_minus_matching)]
    for new, old in pairs:
        for n in range(-1, 13):
            assert _outcome(new, n) == _outcome(old, n), (new.__name__, n)
    for m in range(-1, 8):
        for n in range(-1, 8):
            assert (_outcome(complete_bipartite, m, n)
                    == _outcome(_edge_list_complete_bipartite, m, n))
    for t in range(5):
        for sizes in itertools.product(range(-1, 5), repeat=t):
            assert (_outcome(complete_multipartite, sizes)
                    == _outcome(_edge_list_complete_multipartite, sizes))
    assert (_outcome(complete_multipartite, [3, 1, 2])
            == _outcome(_edge_list_complete_multipartite, [3, 1, 2]))


# construct_graph over valid expressions, hand-written malformed ones and
# seeded random mutations of the valid ones: sha256 of every (expression,
# vertex count and sorted edges, or exception type and message), recorded
# before the parser read its atoms from one construction table
PARSE_VALID = (
    "K(1)", "K(5)", "C(3)", "C(7)", "P(1)", "P(6)", "S(1)", "S(4)",
    "Kb(1,1)", "Kb(2,3)", "Km(1)", "Km(3)", "Km(2,2,2)", "Km(1,3,2,1)",
    "KmM(2)", "KmM(8)", "join(KmM(4),K(1))", "join(P(2),C(4))",
    "pow(C(6),2)", "pow(P(5),3)", "lex(C(3),C(4))", "lex(K(2),KmM(4))",
    "dir(C(4),KmM(6))", "dir(Kb(2,2),K(3))", "cart(K(2),C(6))",
    "cart(P(3),S(2))", " lex( C(4) , Km( 1 , 2 ) ) ",
    "lex(join(K(1),K(2)),pow(C(5),1))", "dir(lex(K(2),K(2)),C(3))",
)
PARSE_MALFORMED = (
    "", " ", "K", "K(", "K()", "K(0)", "K(-1)", "K(1", "K(1))", "K(1)x",
    "C(2)", "P(0)", "S(0)", "Kb(1)", "Kb(0,2)", "Kb(1,2,3)", "Km()",
    "Km(1,0)", "Km(1,)", "KmM(5)", "KmM(0)", "join(K(1))",
    "join(K(1),2)", "pow(C(4))", "pow(2,C(4))", "pow(C(4),0)",
    "lex(K(2))", "lex(K(2),)", "dir(,K(2))", "cart(K(2)", "Q(3)",
    "k(3)", "K 3", "K(²)", "K(٣)", "K(3.0)", "file(\"x",
    "file()", "file(/nonexistent/gdmagic.edges)", "(K(1))", "K(1),K(2)",
    "lex(K(1),K(1),K(1))",
)
PARSE_DIGEST = (
    "587089c478dadc695cf1c83252a872535e59895ecc944a3e8c6476b71610a878")


def _parse_corpus():
    rng = random.Random(9)
    junk = list("(),xKCPSbmM \"") + ["join(", "lex(", "Km(", "0", "1", "2"]
    corpus = list(PARSE_VALID + PARSE_MALFORMED)
    while len(corpus) < len(PARSE_VALID + PARSE_MALFORMED) + 300:
        text = rng.choice(PARSE_VALID)
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(text) + 1), rng.randrange(3)
            if op == 0:  # insert a piece
                text = text[:i] + rng.choice(junk) + text[i:]
            elif op == 1:  # delete a character
                text = text[:i] + text[i + 1:]
            else:  # change a digit
                i = rng.choice([k for k, ch in enumerate(text) if ch.isdigit()]
                               or [i])
                text = text[:i] + rng.choice("123456789") + text[i + 1:]
        # small graphs only
        if all(int(run) <= 12 for run in re.findall(r"\d+", text)):
            corpus.append(text)
    return corpus


def _parse_outcome(text):
    got = _outcome(construct_graph, text)
    return (got.n, got.edges()) if isinstance(got, Graph) else got


def test_construct_graph_corpus_is_unchanged():
    sha = hashlib.sha256()
    for text in _parse_corpus():
        sha.update(repr((text, _parse_outcome(text))).encode())
    assert sha.hexdigest() == PARSE_DIGEST


def test_parse_error_quotes_a_bounded_window():
    from gdmagic.graphs import _ERROR_WINDOW

    text = "lex(K(1)," + "K(1)," * 1000 + ")"
    with pytest.raises(GraphParseError) as info:
        construct_graph(text)
    message = str(info.value)
    assert message == ("expected ')' (at position 13 in "
                       f"{text[:_ERROR_WINDOW]!r}...)")
    tail = "join(K(1)," * 30 + "Q(1)" + ")" * 30
    with pytest.raises(GraphParseError) as info:
        construct_graph(tail)
    start = len(tail) - _ERROR_WINDOW
    assert str(info.value) == (f"unknown construction 'Q' (at position 302 "
                               f"in ...{tail[start:]!r})")
    middle = "K(1)" + " " * 200 + "x" + " " * 200
    with pytest.raises(GraphParseError) as info:
        construct_graph(middle)
    start = 204 - _ERROR_WINDOW // 2
    assert str(info.value) == (
        "trailing input after expression (at position 204 in "
        f"...{middle[start:start + _ERROR_WINDOW]!r}...)")
    fits = "lex(K(1)," + "K(1)," * 14 + ")"
    assert len(fits) == _ERROR_WINDOW
    with pytest.raises(GraphParseError, match=re.escape(f"in {fits!r})")):
        construct_graph(fits)


def test_readme_atoms_are_the_construction_table():
    from pathlib import Path

    from gdmagic.graphs import CONSTRUCTIONS

    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("### Graph expressions")[1]
    table = [line for line in section.split("\n\n")[1].splitlines()
             if line.startswith("| `")]
    atoms = re.findall(r"`(\w+)\(", "\n".join(row.split(" | ")[0]
                                              for row in table))
    assert sorted(atoms) == sorted(CONSTRUCTIONS)
