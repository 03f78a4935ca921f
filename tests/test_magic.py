import pytest

from gdmagic.abelian import parse_group_spec, trivial_group
from gdmagic.graphs import (
    Graph,
    complete,
    complete_bipartite,
    complete_minus_matching,
    complete_multipartite,
    cycle,
    join,
    path,
    star,
)
from gdmagic.magic import (
    Certificate,
    CertificateError,
    FORCED_IDENTITY,
    Labeling,
    LabelingError,
    SHARED_NEIGHBORHOOD,
    TREE_SHAPE,
    TWO_UNIVERSAL,
    all_obstructions,
    detect_biregular_universal,
    format_certificate,
    kmn_group_magic,
    negate_labeling,
    obstruction_shared_neighborhood,
    obstruction_two_universal,
    parse_certificate,
    to_zn_labeling,
    tree_group_magic,
    verify,
    verify_certificate,
    weight,
    weight_mismatch,
)

Z4 = parse_group_spec("Z4")
Z5 = parse_group_spec("Z5")
Z22 = parse_group_spec("Z2xZ2")


def _lab(group, *coords):
    return Labeling(group, tuple(group.element((c,)) if isinstance(c, int)
                                 else group.element(c) for c in coords))


def test_labeling_validation():
    with pytest.raises(LabelingError):
        Labeling(Z4, ((0,), (1,), (2,)))  # wrong size
    with pytest.raises(LabelingError):
        Labeling(Z4, ((0,), (1,), (2,), (2,)))  # not injective


def test_weight_examples():
    lab = _lab(Z4, 1, 0, 2, 3)
    c4 = cycle(4)
    assert weight(c4, lab, 0) == (3,)
    # recompute with an explicit fold as the oracle
    for v in range(4):
        expected = Z4.zero()
        for u in c4.adj[v]:
            expected = Z4.add(expected, lab.assignment[u])
        assert weight(c4, lab, v) == expected

    isolated = Graph.from_edges(4, [(0, 1)])
    assert weight(isolated, lab, 3) == (0,)

    s3 = star(3)
    lab2 = _lab(Z4, 2, 0, 1, 3)
    for leaf in (1, 2, 3):
        assert weight(s3, lab2, leaf) == (2,)


def test_verify_examples():
    c4 = cycle(4)
    assert verify(c4, _lab(Z4, 1, 0, 2, 3)) == (3,)
    bad = _lab(Z4, 0, 1, 2, 3)
    assert verify(c4, bad) is None
    assert weight_mismatch(c4, bad) == (0, 1)

    wheel = join(complete_minus_matching(4), complete(1))
    lab = _lab(Z5, 1, 4, 2, 3, 0)
    assert verify(wheel, lab) == (0,)

    edgeless = Graph.from_edges(4, [])
    assert verify(edgeless, _lab(Z4, 0, 1, 2, 3)) == (0,)


def test_verify_size_mismatch():
    with pytest.raises(LabelingError):
        verify(cycle(5), _lab(Z4, 0, 1, 2, 3))


def test_negate_labeling():
    c4 = cycle(4)
    lab = _lab(Z4, 1, 0, 2, 3)
    negated = negate_labeling(c4, lab)
    assert negated.assignment == ((3,), (0,), (2,), (1,))
    assert verify(c4, negated) == (1,)
    assert negated.magic_constant == (1,)
    assert negated.assignment != lab.assignment

    # odd order: negation fixes only the identity
    wheel = join(complete_minus_matching(4), complete(1))
    lab5 = _lab(Z5, 1, 4, 2, 3, 0)
    negated5 = negate_labeling(wheel, lab5)
    fixed = [v for v in range(5)
             if negated5.assignment[v] == lab5.assignment[v]]
    assert fixed == [4]  # the vertex labeled 0

    with pytest.raises(LabelingError):
        negate_labeling(cycle(4), _lab(Z22, (0, 0), (0, 1), (1, 0), (1, 1)))
    with pytest.raises(LabelingError):
        negate_labeling(c4, _lab(Z4, 0, 1, 2, 3))  # not magic


def test_to_zn_labeling():
    c4 = cycle(4)
    lab = to_zn_labeling(c4, [1, 2, 4, 3], 5)
    assert lab.assignment == ((1,), (2,), (0,), (3,))
    assert verify(c4, lab) == (1,)
    assert lab.magic_constant == (1,)

    k1 = complete(1)
    lab1 = to_zn_labeling(k1, [1], 0)
    assert lab1.group == trivial_group()
    assert verify(k1, lab1) == ()

    with pytest.raises(LabelingError):
        to_zn_labeling(path(4), [1, 2, 3, 4], 3)
    with pytest.raises(LabelingError):
        to_zn_labeling(c4, [1, 2, 4, 4], 5)


def test_obstruction_two_universal():
    found = obstruction_two_universal(complete(4))
    assert found is not None and found.witness == (0, 1)
    assert obstruction_two_universal(join(cycle(4), complete(1))) is None
    assert obstruction_two_universal(complete_bipartite(2, 3)) is None
    assert obstruction_two_universal(complete(1)) is None


def test_obstruction_shared_neighborhood():
    found = obstruction_shared_neighborhood(path(4))
    assert found is not None and found.witness == (0, 3)
    assert obstruction_shared_neighborhood(cycle(4)) is None
    assert obstruction_shared_neighborhood(star(3)) is None


def test_tree_group_magic():
    assert tree_group_magic(star(4)) is True
    assert tree_group_magic(star(5)) is False
    assert tree_group_magic(path(4)) is False
    assert tree_group_magic(path(3)) is True  # P3 = K(1,2)
    assert tree_group_magic(path(2)) is False  # K(1,1): 1 mod 4 == 1
    with pytest.raises(LabelingError):
        tree_group_magic(cycle(4))
    with pytest.raises(LabelingError):
        tree_group_magic(complete(1))


def test_kmn_group_magic():
    assert kmn_group_magic(2, 3) is True
    assert kmn_group_magic(1, 5) is False
    assert kmn_group_magic(4, 4) is True
    with pytest.raises(LabelingError):
        kmn_group_magic(0, 3)


def test_detect_biregular_universal():
    assert detect_biregular_universal(star(4)) == (0, 1)
    wheel = join(cycle(4), complete(1))
    assert detect_biregular_universal(wheel) == (4, 3)  # rim degree = n-2
    assert detect_biregular_universal(cycle(5)) is None
    assert detect_biregular_universal(complete(4)) is None
    # even order is out of scope: the forced label can differ from identity
    assert detect_biregular_universal(star(3)) is None
    # Km(1,2,2) is the wheel again, with parts instead of a cycle
    km = complete_multipartite((1, 2, 2))
    assert detect_biregular_universal(km) == (0, 3)
    # hub over two disjoint edges: r2 = 2 = n-3
    friendship = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                                      (1, 2), (3, 4)])
    assert detect_biregular_universal(friendship) == (0, 2)


def test_all_obstructions():
    kinds = {o.kind for o in all_obstructions(path(4))}
    assert kinds == {SHARED_NEIGHBORHOOD, TREE_SHAPE}
    kinds = {o.kind for o in all_obstructions(complete(4))}
    assert TWO_UNIVERSAL in kinds
    kinds = {o.kind for o in all_obstructions(star(4))}
    assert kinds == {FORCED_IDENTITY}
    assert all_obstructions(cycle(4)) == []


@pytest.mark.parametrize("g", [path(60), cycle(60), star(9),
                               Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])])
def test_all_obstructions_runs_at_most_one_bfs(g, monkeypatch):
    import gdmagic.graphs as graphs
    calls = []
    real = graphs._bfs_dist
    monkeypatch.setattr(graphs, "_bfs_dist",
                        lambda h, src: calls.append(src) or real(h, src))
    all_obstructions(g)
    assert len(calls) <= 1


def test_certificate_round_trip():
    group = parse_group_spec("Z4xZ3")
    labels = tuple(group.elements())
    cert = Certificate("C(12)", group, (0, 0), labels, theorem="demo")
    text = format_certificate(cert)
    parsed = parse_certificate(text)
    assert parsed == cert
    assert "# theorem: demo" in text


def test_certificate_verification():
    wheel_expr = "join(KmM(4),K(1))"
    cert = Certificate(wheel_expr, Z5, (0,),
                       ((1,), (4,), (2,), (3,), (0,)), "matching-join")
    ok, detail, mu = verify_certificate(cert)
    assert ok and mu == (0,)

    wrong_mu = Certificate(wheel_expr, Z5, (1,),
                           ((1,), (4,), (2,), (3,), (0,)))
    ok, detail, _ = verify_certificate(wrong_mu)
    assert not ok and "claims" in detail

    not_magic = Certificate("P(4)", Z4, (0,), ((0,), (1,), (2,), (3,)))
    ok, detail, _ = verify_certificate(not_magic)
    assert not ok and "weights differ" in detail


@pytest.mark.parametrize("bad", [
    "graph: C(4)\nmu: (0)\nv 0 (0)\nv 1 (1)\nv 2 (2)\nv 3 (3)",  # no group
    "graph: C(4)\ngroup: Z4\nmu: (0)\nv 0 (0)\nv 1 (1)\nv 2 (2)",  # missing v
    "graph: C(4)\ngroup: Z4\nmu: (0)\nv 0 (0)\nv 0 (1)\nv 2 (2)\nv 3 (3)",
    "graph: C(4)\ngroup: Z4\nmu: (0)\nv 0 (0)\nv 1 (1)\nv 2 (2)\nvx",
])
def test_certificate_parse_rejects(bad):
    with pytest.raises(CertificateError):
        parse_certificate(bad)
