import random

from hypothesis import example, given, settings, strategies as st

from gdmagic.graphs import (
    Graph,
    complete,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    path,
)
from gdmagic.products import cartesian_product, direct_product, lex_product


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


# The edge-list constructions the products were once built with, kept as the
# reference for the adjacency-built ones.

def _lex_oracle(g, h):
    hn = h.n
    edges = [(u * hn + j, v * hn + jp)
             for u, v in g.edges() for j in range(hn) for jp in range(hn)]
    edges += [(i * hn + j, i * hn + jp)
              for i in range(g.n) for j, jp in h.edges()]
    return Graph.from_edges(g.n * hn, edges)


def _direct_oracle(g, h):
    hn = h.n
    edges = []
    for u, v in g.edges():
        for j, jp in h.edges():
            edges.append((u * hn + j, v * hn + jp))
            edges.append((u * hn + jp, v * hn + j))
    return Graph.from_edges(g.n * hn, edges)


def _cartesian_oracle(g, h):
    hn = h.n
    edges = [(i * hn + j, i * hn + jp)
             for i in range(g.n) for j, jp in h.edges()]
    edges += [(u * hn + j, v * hn + j)
              for u, v in g.edges() for j in range(hn)]
    return Graph.from_edges(g.n * hn, edges)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_graphs(), small_graphs())
@example(complete(1), cycle(4))
@example(cycle(4), complete(1))
@example(Graph.from_edges(3, []), path(3))
@example(path(3), Graph.from_edges(4, []))
def test_products_match_edge_list_oracle(g, h):
    assert lex_product(g, h) == _lex_oracle(g, h)
    assert direct_product(g, h) == _direct_oracle(g, h)
    assert cartesian_product(g, h) == _cartesian_oracle(g, h)


@st.composite
def graphs_with_twins(draw):
    """KmM(n), Kb(m,n), or an edge-list graph in which every vertex of a
    small base graph is blown up into a class of 1..3 non-adjacent twins,
    numbered in a drawn order."""
    kind = draw(st.sampled_from(["KmM", "Kb", "edges"]))
    if kind == "KmM":
        return complete_minus_matching(2 * draw(st.integers(1, 4)))
    if kind == "Kb":
        return complete_bipartite(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    base = draw(small_graphs())
    owner = [b for b in range(base.n) for _ in range(draw(st.integers(1, 3)))]
    owner = draw(st.permutations(owner))
    return Graph.from_edges(len(owner), [
        (u, v) for u in range(len(owner)) for v in range(u + 1, len(owner))
        if owner[v] in base.adj[owner[u]]])


def _set_objects(g):
    return len({id(nbrs) for nbrs in g.adj})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_graphs(), graphs_with_twins())
@example(cycle(5), complete_minus_matching(8))
@example(complete_bipartite(2, 3), complete_bipartite(3, 3))
def test_products_share_one_set_per_twin_class(g, h):
    lex, direct = lex_product(g, h), direct_product(g, h)
    assert lex == _lex_oracle(g, h)
    assert direct == _direct_oracle(g, h)
    g_classes = len(set(g.adj))
    h_classes = len(set(h.adj))
    assert _set_objects(lex) == g.n * h_classes
    assert _set_objects(direct) == g_classes * h_classes


def test_lex_examples():
    assert lex_product(complete(2), complete(2)) == complete(4)
    g = lex_product(cycle(3), cycle(4))
    assert g.n == 12 and set(g.degrees) == {10}
    assert lex_product(complete(1), cycle(5)) == cycle(5)


def test_dir_examples():
    two_edges = direct_product(complete(2), complete(2))
    assert two_edges.edges() == [(0, 3), (1, 2)]
    g = direct_product(cycle(4), cycle(4))
    assert g.n == 16 and set(g.degrees) == {4}
    edgeless = direct_product(complete(1), cycle(5))
    assert edgeless.num_edges == 0 and edgeless.n == 5


def test_cart_examples():
    # the 4-cycle 0-1-3-2
    assert cartesian_product(complete(2), complete(2)) == Graph.from_edges(
        4, [(0, 1), (1, 3), (3, 2), (2, 0)])
    prism = cartesian_product(cycle(3), complete(2))
    assert prism.n == 6 and set(prism.degrees) == {3}
    g = cartesian_product(cycle(4), cycle(4))
    assert g.n == 16 and set(g.degrees) == {4}


def test_degree_formulas_on_random_pairs():
    rng = random.Random(0xC0FFEE)
    for _ in range(12):
        g = _random_graph(rng, rng.randint(2, 6), rng.choice((0.3, 0.6)))
        h = _random_graph(rng, rng.randint(2, 5), rng.choice((0.3, 0.6)))
        lex = lex_product(g, h)
        direct = direct_product(g, h)
        cart = cartesian_product(g, h)
        for i in range(g.n):
            for j in range(h.n):
                vid = i * h.n + j
                assert lex.degree(vid) == g.degree(i) * h.n + h.degree(j)
                assert direct.degree(vid) == g.degree(i) * h.degree(j)
                assert cart.degree(vid) == g.degree(i) + h.degree(j)


def test_coordinate_swap_is_isomorphism():
    rng = random.Random(7)
    for _ in range(6):
        g = _random_graph(rng, rng.randint(2, 5), 0.5)
        h = _random_graph(rng, rng.randint(2, 5), 0.5)
        for fn in (direct_product, cartesian_product):
            ab = fn(g, h)
            ba = fn(h, g)
            # explicit swap map (i,j) -> (j,i)
            for i in range(g.n):
                for j in range(h.n):
                    for ip in range(g.n):
                        for jp in range(h.n):
                            assert ((ip * h.n + jp in ab.adj[i * h.n + j])
                                    == (jp * g.n + ip in ba.adj[j * g.n + i]))


def test_lex_not_commutative():
    a = lex_product(path(3), complete(2))
    b = lex_product(complete(2), path(3))
    assert sorted(a.degrees) != sorted(b.degrees)


def test_lex_block_structure():
    g, h = path(3), cycle(4)
    lex = lex_product(g, h)
    for i in range(g.n):
        block = range(i * h.n, (i + 1) * h.n)
        induced = Graph.from_edges(h.n, [
            (u - i * h.n, v - i * h.n) for u in block for v in block
            if u < v and v in lex.adj[u]])
        assert induced == h
