import itertools
import os
import random
import re
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gdmagic import magic
from gdmagic.abelian import (
    GroupError,
    GroupSpec,
    enumerate_abelian_groups,
    parse_group_spec,
)
from gdmagic.graphs import (
    Graph,
    complete,
    complete_bipartite,
    complete_minus_matching,
    complete_multipartite,
    construct_graph,
    cycle,
    join,
    path,
    star,
)
from gdmagic.products import FactoredProduct, direct_product, lex_product
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
    obstruction_shared_neighborhood,
    obstruction_two_universal,
    parse_certificate,
    tree_group_magic,
    verify,
    verify_certificate,
    weight,
)

Z4 = parse_group_spec("Z4")
Z5 = parse_group_spec("Z5")
Z8 = parse_group_spec("Z8")
Z22 = parse_group_spec("Z2xZ2")
Z24 = parse_group_spec("Z2xZ4")
Z42 = parse_group_spec("Z4xZ2")
Z222 = parse_group_spec("Z2xZ2xZ2")


def _lab(group, *coords):
    return Labeling(group, tuple(group.element((c,)) if isinstance(c, int)
                                 else group.element(c) for c in coords))


def weight_mismatch(g, labeling):
    """First vertex pair with differing weights, or None when all agree:
    vertex 0's weight is the reference, the offender the smallest id whose
    weight differs. This is the pair verify_certificate's rejection names,
    found here from the per-vertex reference ``weight``."""
    weights = [weight(g, labeling, v) for v in range(g.n)]
    return next(((0, v) for v, w in enumerate(weights) if w != weights[0]),
                None)


def _columns(labeling):
    return [[x[k] for x in labeling.assignment]
            for k in range(labeling.group.arity)]


def kernel_weights(g, labeling):
    """Every vertex's weight from the weight kernel, one neighbourhood per
    call."""
    columns = _columns(labeling)
    return [magic._common_weight((nbrs,), labeling.group.factors, columns)[0]
            for nbrs in g.adj]


def check_kernel_against_weight(g, labeling):
    """The kernel's weights and its verdict over the distinct
    neighbourhoods agree with per-vertex ``weight``, and so does verify."""
    expected = [weight(g, labeling, v) for v in range(g.n)]
    assert kernel_weights(g, labeling) == expected
    neighbourhoods = g.twin_classes[0]
    mu, stop = magic._common_weight(neighbourhoods, labeling.group.factors,
                                    _columns(labeling))
    mismatch = weight_mismatch(g, labeling)
    if mismatch is None:
        assert (mu, stop) == (expected[0], None)
    else:
        assert mu is None and stop in neighbourhoods
        assert expected[g.adj.index(stop)] != expected[0]
    assert verify(g, labeling) == mu


def test_labeling_validation():
    with pytest.raises(LabelingError):
        Labeling(Z4, ((0,), (1,), (2,)))  # wrong size
    with pytest.raises(LabelingError):
        Labeling(Z4, ((0,), (1,), (2,), (2,)))  # not injective


def _labeling_as_before(group, assignment):
    """What Labeling stored before it checked labels in place: every label
    coerced through group.element, then the size and injectivity checks."""
    elems = tuple(group.element(x) for x in assignment)
    if len(elems) != group.order:
        raise LabelingError(
            f"{len(elems)} labels for a group of order {group.order}")
    if len(set(elems)) != len(elems):
        raise LabelingError("assignment is not injective")
    return elems


@st.composite
def raw_assignments(draw):
    """A group and a permutation of its elements with some labels made
    awkward: coordinates shifted out of range (also below 0) by a multiple
    of their factor or written as bools, labels as lists or of the wrong
    arity, a duplicate label, one label too few or too many, and the whole
    assignment as a list."""
    group = draw(st.sampled_from([Z4, Z22, Z24, Z222]))
    labels = []
    for x in draw(st.permutations(list(group.elements()))):
        x = list(x)
        for k, f in enumerate(group.factors):
            how = draw(st.sampled_from(["int", "int", "shift", "bool"]))
            if how == "shift":
                x[k] += f * draw(st.integers(-2, 2))
            elif how == "bool" and x[k] in (0, 1):
                x[k] = bool(x[k])
        shape = draw(st.sampled_from(["tuple"] * 5 + ["list", "short", "long"]))
        if shape == "short":
            x = x[:-1]
        elif shape == "long":
            x.append(0)
        labels.append(x if shape == "list" else tuple(x))
    size = draw(st.sampled_from(["same"] * 4 + ["duplicate", "fewer", "more"]))
    if size == "duplicate":
        labels[-1] = labels[0]
    elif size == "fewer":
        labels.pop()
    elif size == "more":
        labels.append(labels[0])
    return group, draw(st.sampled_from([tuple, list]))(labels)


def _outcome(build):
    try:
        return "stored", build()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_assignments())
@example((Z4, ((0,), (1,), (2,), (3,))))
@example((Z4, ((0,), (1,), (2,), (7,))))
@example((Z22, [(0, 0), (0, 1), (1, 0), (True, True)]))
@example((Z222, tuple(Z222.elements())))
def test_labeling_coercion_is_unchanged(case):
    group, assignment = case
    new = _outcome(lambda: Labeling(group, assignment).assignment)
    assert new == _outcome(lambda: _labeling_as_before(group, assignment))
    if new[0] == "stored":
        assert type(new[1]) is tuple
        assert all(type(x) is tuple and all(type(c) is int for c in x)
                   for x in new[1])


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


@st.composite
def labeled_graphs(draw):
    """A graph on 0..9 vertices (isolated vertices included) and, for each
    group of its order, a random bijective labeling."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    groups = enumerate_abelian_groups(n) if n else []
    return g, [Labeling(grp, tuple(draw(st.permutations(list(grp.elements())))))
               for grp in groups]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(labeled_graphs())
@example((Graph.from_edges(0, []), []))
@example((Graph.from_edges(1, []), [Labeling(GroupSpec(()), ((),))]))
@example((Graph.from_edges(4, [(1, 2)]), [_lab(Z4, 3, 1, 0, 2),
                                          _lab(Z22, (1, 1), (0, 1), (0, 0),
                                               (1, 0))]))
# every weight agrees on the first factor (on the first two over Z2xZ2xZ2)
# and differs on the last
@example((cycle(8), [
    _lab(Z24, (0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
    _lab(Z42, (0, 0), (1, 0), (3, 0), (2, 0), (0, 1), (1, 1), (3, 1), (2, 1)),
    _lab(Z222, (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1),
         (0, 1, 1), (1, 0, 1), (1, 1, 1))]))
# K(2,2,2,2) built as a product, whose twins share one set object, and the
# same graph from an edge list, whose twins hold equal but distinct sets:
# magic over Z8 and Z2xZ2xZ2, and a Z8 labeling whose first mismatch is the
# first vertex of the second twin class
@example((lex_product(path(2), complete_minus_matching(4)), [
    _lab(Z8, 0, 1, 2, 7, 3, 6, 4, 5), _lab(Z8, 0, 1, 2, 3, 4, 5, 6, 7),
    _lab(Z222, *itertools.product(range(2), repeat=3))]))
@example((Graph.from_edges(8, lex_product(path(2),
                                          complete_minus_matching(4)).edges()),
          [_lab(Z8, 0, 1, 2, 7, 3, 6, 4, 5), _lab(Z8, 0, 1, 2, 3, 4, 5, 6, 7),
           _lab(Z222, *itertools.product(range(2), repeat=3))]))
def test_one_pass_weights_match_per_vertex_weight(case):
    g, labelings = case
    for lab in labelings:
        check_kernel_against_weight(g, lab)


@st.composite
def labeled_products(draw):
    """lex or direct product of a graph on 1..3 vertices and a K(m,n) or
    KmM(n) (twin classes share one set), up to 12 vertices, either as built
    or rebuilt from its edge list (twins hold equal but distinct sets),
    with a random bijective labeling over each group of its order."""
    g = draw(st.sampled_from([complete(1), complete(2), path(3), complete(3),
                              Graph.from_edges(2, [])]))
    h = draw(st.sampled_from([complete_minus_matching(2),
                              complete_minus_matching(4),
                              complete_bipartite(1, 2),
                              complete_bipartite(2, 2)]))
    product = draw(st.sampled_from([lex_product, direct_product]))(g, h)
    if draw(st.booleans()):
        product = Graph.from_edges(product.n, product.edges())
    return product, [
        Labeling(grp, tuple(draw(st.permutations(list(grp.elements())))))
        for grp in enumerate_abelian_groups(product.n)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(labeled_products())
def test_weights_over_twin_classes_match_per_vertex_weight(case):
    g, labelings = case
    for lab in labelings:
        check_kernel_against_weight(g, lab)


def reference_verdict(g, labeling, claimed):
    """verify_certificate's (ok, detail, mu), built from per-vertex
    ``weight``: vertex 0 against the first vertex whose weight differs."""
    fmt = labeling.group.format_element
    mismatch = weight_mismatch(g, labeling)
    if mismatch is not None:
        a, b = mismatch
        return False, (f"weights differ: vertex {a} has "
                       f"{fmt(weight(g, labeling, a))}, vertex {b} has "
                       f"{fmt(weight(g, labeling, b))}"), None
    mu = weight(g, labeling, 0)
    if mu != claimed:
        return False, (f"magic constant is {fmt(mu)} but certificate claims "
                       f"{fmt(claimed)}"), mu
    return True, "ok", mu


@st.composite
def twin_graphs(draw):
    """A graph of at most 9 vertices whose vertices come in classes of 1-3
    false twins (equal neighbourhoods): a random base graph on 1-6
    vertices, each blown up into a class. Built either with one set per
    class, shared by its twins, or from its edge list (twins hold equal but
    distinct sets)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6)
                 .filter(lambda sizes: sum(sizes) <= 9))
    classes, start = [], 0
    for size in sizes:
        classes.append(range(start, start + size))
        start += size
    base = {pair for pair in itertools.combinations(range(len(sizes)), 2)
            if draw(st.booleans())}
    shared = [frozenset(v for j, cls in enumerate(classes)
                        if (min(i, j), max(i, j)) in base for v in cls)
              for i in range(len(classes))]
    g = Graph(start, tuple(shared[i] for i, cls in enumerate(classes)
                           for _ in cls))
    if draw(st.booleans()):
        g = Graph.from_edges(g.n, g.edges())
    return g


@st.composite
def certified_twin_graphs(draw):
    """A twin graph and, for every group of its order, a random bijective
    labeling with a claimed mu: vertex 0's weight or a random element."""
    g = draw(twin_graphs())
    claims = []
    for grp in enumerate_abelian_groups(g.n):
        lab = Labeling(grp, tuple(draw(st.permutations(list(grp.elements())))))
        claimed = (weight(g, lab, 0) if draw(st.booleans())
                   else draw(st.sampled_from(list(grp.elements()))))
        claims.append((lab, claimed))
    return g, claims


# magic over Z2xZ2xZ2 and over Z8, each with its right claim, and the Z8
# one with a wrong claim
K2222_CLAIMS = [(_lab(Z222, *itertools.product(range(2), repeat=3)),
                 (0, 0, 1)),
                (_lab(Z8, 0, 1, 2, 7, 3, 6, 4, 5), (3,)),
                (_lab(Z8, 0, 1, 2, 7, 3, 6, 4, 5), (4,))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(certified_twin_graphs())
@example((lex_product(path(2), complete_minus_matching(4)), K2222_CLAIMS))
@example((Graph.from_edges(8, lex_product(path(2),
                                          complete_minus_matching(4)).edges()),
          K2222_CLAIMS))
# the first vertex whose weight differs on Z2 (vertex 4) is after one whose
# weight differs on Z4 only (vertex 1)
@example((cycle(8), [(_lab(Z24, (1, 0), (0, 2), (1, 1), (0, 3), (1, 3), (1, 2),
                           (0, 1), (0, 0)), (0, 2))]))
def test_verify_certificate_matches_per_vertex_weight(case):
    g, claims = case
    real, calls = magic._common_weight, []

    def counted(*args):
        calls.append(args)
        return real(*args)
    for lab, claimed in claims:
        cert = Certificate("G", lab.group, claimed, lab.assignment)
        calls.clear()
        with mock.patch.object(magic, "parse_expression", lambda expr: g), \
                mock.patch.object(magic, "_common_weight", counted):
            verdict = verify_certificate(cert)
        assert verdict == reference_verdict(g, lab, claimed)
        # one kernel call to accept, at most arity + 2 to name a mismatch
        if verdict[1].startswith("weights differ"):
            assert 3 <= len(calls) <= lab.group.arity + 2
        else:
            assert len(calls) == 1


# Factors of the products verified unbuilt below: with isolated vertices
# (K(1), P(1), and dir(K(2),K(1)) and Km(3), which are edgeless), with twins
# that a dir product merges across blocks (P(3), Kb(1,2)), twin-rich (KmM,
# Kb) and nested products. H = KmM(4) or Kb(2,2) gives auto_label magic
# labelings.
PRODUCT_FACTORS = ["K(1)", "P(1)", "K(2)", "P(3)", "C(3)", "Kb(1,2)",
                   "KmM(4)", "Kb(2,2)", "KmM(6)", "dir(K(2),K(1))",
                   "lex(K(2),K(1))", "dir(P(3),K(2))", "Km(3)"]


def _groups_of_order(n):
    """Every group of order n as enumerated, and each of three or more
    cyclic factors once more with its factors in reverse, an order the
    enumeration never gives."""
    groups = list(enumerate_abelian_groups(n))
    return groups + [GroupSpec(spec.factors[::-1]) for spec in groups
                     if spec.arity >= 3 and spec.factors[::-1] != spec.factors]


@st.composite
def product_certificates(draw):
    """lex(G,H) or dir(G,H) as an expression, its unbuilt and built forms,
    and for every group of its order a labeling with a claimed mu: random,
    or auto_label's magic one (where it labels the product), as it is or
    with two labels swapped; the claim is vertex 0's weight or a random
    element."""
    from gdmagic.constructors import ConstructionError, auto_label

    g, h = (draw(st.sampled_from(PRODUCT_FACTORS)) for _ in range(2))
    kind = draw(st.sampled_from(["lex", "dir"]))
    factored = FactoredProduct(kind, construct_graph(g), construct_graph(h))
    built = factored.build()
    claims = []
    for grp in _groups_of_order(built.n):
        labels = draw(st.permutations(list(grp.elements())))
        how = draw(st.sampled_from(["random", "magic", "swapped"]))
        if how != "random":
            try:
                labels = list(auto_label(factored.g, factored.h, kind,
                                         grp).labeling.assignment)
            except ConstructionError:
                how = "random"
        if how == "swapped" and built.n > 1:
            x, y = draw(st.lists(st.integers(0, built.n - 1), min_size=2,
                                 max_size=2, unique=True))
            labels[x], labels[y] = labels[y], labels[x]
        lab = Labeling(grp, tuple(labels))
        claimed = (weight(built, lab, 0) if draw(st.booleans())
                   else draw(st.sampled_from(list(grp.elements()))))
        claims.append((lab, claimed))
    return f"{kind}({g},{h})", factored, built, claims


@settings(max_examples=150, deadline=None, derandomize=True)
@given(product_certificates())
def test_unbuilt_product_verification_matches_the_built_product(case):
    expr, factored, built, claims = case
    for lab, claimed in claims:
        cert = Certificate(expr, lab.group, claimed, lab.assignment)
        assert verify_certificate(cert) == reference_verdict(built, lab,
                                                             claimed)
        assert verify(factored, lab) == verify(built, lab)


# edgeless factors (every neighbourhood of G, or of H, empty) and groups of
# three and four cyclic factors, in both factor orders
LEVEL_CASES = [("lex", "Km(3)", "KmM(4)", "Z2xZ2xZ3"),
               ("lex", "Km(3)", "KmM(4)", "Z3xZ2xZ2"),
               ("dir", "Km(3)", "Kb(2,2)", "Z2xZ2xZ3"),
               ("lex", "C(3)", "Km(3)", "Z3xZ3"),
               ("dir", "KmM(4)", "Km(3)", "Z2xZ3xZ2"),
               ("lex", "Kb(2,2)", "KmM(4)", "Z2xZ2xZ2xZ2"),
               ("dir", "C(3)", "Kb(2,2)", "Z2xZ3xZ2"),
               ("lex", "lex(K(2),Km(2))", "C(4)", "Z2xZ2xZ4")]


@pytest.mark.parametrize("product, g, h, spec", LEVEL_CASES)
def test_level_kernel_matches_the_built_product(product, g, h, spec):
    from gdmagic.constructors import ConstructionError, auto_label

    group = parse_group_spec(spec)
    factored = FactoredProduct(product, construct_graph(g), construct_graph(h))
    built = factored.build()
    rng = random.Random(spec + g + h)
    labelings = [list(group.elements()) for _ in range(40)]
    for labels in labelings:
        rng.shuffle(labels)
    try:
        magic_labels = list(auto_label(factored.g, factored.h, product,
                                       group).labeling.assignment)
    except ConstructionError:
        magic_labels = None
    if magic_labels is not None:
        labelings.append(magic_labels)
        for _ in range(20):
            x, y = rng.sample(range(built.n), 2)
            swapped = list(magic_labels)
            swapped[x], swapped[y] = swapped[y], swapped[x]
            labelings.append(swapped)
    expr = f"{product}({g},{h})"
    for labels in labelings:
        lab = Labeling(group, tuple(labels))
        claimed = weight(built, lab, 0)
        expected = reference_verdict(built, lab, claimed)
        rows = Certificate(expr, group, claimed, lab.assignment)
        columns = Certificate.from_columns(expr, group, claimed,
                                           zip(*lab.assignment))
        assert verify_certificate(rows) == expected
        assert verify_certificate(columns) == expected
        assert verify(factored, lab) == verify(built, lab)


def test_certificate_from_columns_builds_its_rows_on_first_read():
    labels = ((1, 0), (0, 2), (1, 1), (0, 3), (1, 3), (1, 2), (0, 1), (0, 0))
    cert = Certificate.from_columns("C(8)", Z24, (0, 2), zip(*labels), "t")
    assert "labels" not in vars(cert)
    assert cert == Certificate("C(8)", Z24, (0, 2), labels, "t")
    assert cert.labels == labels and "labels" in vars(cert)
    assert format_certificate(cert) == format_certificate(
        Certificate("C(8)", Z24, (0, 2), labels, "t"))
    with pytest.raises(AttributeError):
        cert.columns
    text = format_certificate(cert)
    assert "labels" not in vars(parse_certificate(text))
    assert parse_certificate(text) == cert


@pytest.mark.parametrize("columns", [
    [],  # no column for a group of one factor
    [[0, 1, 2, 3], [0, 0, 0, 0]],  # a column too many
    [[0, 1, 2, 4]],  # a coordinate equal to its factor
    [[0, 1, -1, 3]],
    [[0, 1, 2.0, 3]],  # not a plain int
    [[0, 1, True, 3]],
])
def test_certificate_from_columns_refuses_columns_that_are_not_labels(
        columns):
    with pytest.raises(LabelingError, match="label columns must be"):
        Certificate.from_columns("C(4)", Z4, (0,), columns)


def test_certificate_from_columns_refuses_columns_of_two_lengths():
    with pytest.raises(LabelingError, match="all of one length"):
        Certificate.from_columns("C(4)", Z22, (0, 0), [[0, 0, 1, 1], [0, 1]])
    with pytest.raises(LabelingError, match="label columns must be"):
        Certificate.from_columns("K(1)", GroupSpec(()), (), [])


def _lex_c3_c4_columns():
    """lex(C(3),C(4)) over Z4xZ3 (order 12), its label columns and mu."""
    from gdmagic.constructors import label_with_method

    group = parse_group_spec("Z4xZ3")
    report = label_with_method("auto", cycle(3), cycle(4), "lex", group, None)
    return group, report.columns, report.predicted_mu


def test_certificate_from_columns_refuses_a_mu_the_group_cannot_hold():
    group, columns, mu = _lex_c3_c4_columns()
    assert mu == (3, 0)
    cert = Certificate.from_columns("lex(C(3),C(4))", group, mu, columns)
    assert parse_certificate(format_certificate(cert)) == cert
    # (7,0) would be written as "mu: (7,0)", which the reader refuses
    for bad in ((7, 0), (3,), (3, 0, 0), (3, -3), (3.5, 0), "30", 3):
        with pytest.raises(LabelingError, match=r"^mu .* is not an element"):
            Certificate.from_columns("lex(C(3),C(4))", group, bad, columns)


@pytest.mark.parametrize("mu, n, theorem, message", [
    ((7,), 4, None, "mu (7,) is not an element of Z4"),
    ((0,), 4, "a\nb", "theorem tag 'a\\nb' contains a line break"),
    ((0,), 4, "two words", "theorem tag 'two words' is not one word"),
    ((0,), 5, None, "5 labels for a group of order 4"),
])
def test_format_certificate_refuses_what_would_read_back_otherwise(
        tmp_path, mu, n, theorem, message):
    """Each of these was written as a text that the reader refuses or
    reads as another certificate; none is written, and no file is left."""
    cert = Certificate("C(4)", Z4, mu, [(v % 4,) for v in range(n)], theorem)
    path = tmp_path / "c.txt"
    for write in (format_certificate,
                  lambda c: magic.save_certificate(c, str(path))):
        with pytest.raises(CertificateError) as info:
            write(cert)
        assert str(info.value) == message
    assert not path.exists()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([spec for n in range(1, 9)
                        for spec in enumerate_abelian_groups(n)]),
       st.data())
def test_a_certificate_is_refused_or_read_back_as_written(group, data):
    """format_certificate either refuses a certificate, and then
    save_certificate writes no file, or writes a text that
    parse_certificate reads back as the same certificate, with the same
    verdict; a graph expression is read without surrounding blanks, and an
    empty tag is no tag. Each part is one the text can carry three times
    in four."""
    draw = data.draw

    def either(fine, faulty):
        return draw(st.sampled_from(faulty if draw(st.integers(0, 3)) == 0
                                    else fine))

    labels = list(draw(st.permutations(list(group.elements()))))
    fault = either(["none", "repeat", "unreduced"],
                   ["arity", "not a number", "one more"])
    if fault == "repeat" and len(labels) > 1:
        labels[-1] = labels[0]
    elif fault == "unreduced" and group.factors:
        # a Certificate reduces such rows, and from_columns refuses them
        labels[-1] = (labels[-1][0] + group.factors[0], *labels[-1][1:])
    elif fault == "arity":
        labels[-1] = labels[-1] + (0,)
    elif fault == "not a number":
        labels[-1] = ("x",) * group.arity
    elif fault == "one more":
        labels.append(labels[0])
    mu = either([labels[0], (0,) * group.arity, (True,) * group.arity],
                [(9,) * group.arity, (-1,) * group.arity,
                 (0,) * (group.arity + 1)])
    # Km(n), n vertices and no edge, is magic with mu 0 under any labels
    graph = either([f"Km({group.order})", f" Km({group.order}) ", "C(4)",
                    "Kb(2,2)", "lex(C(4),K(2))", ""], ["a\nb", "C(\x0b8)"])
    tag = either([None, "", "demo", "x:1", "#", "\x00"],
                 ["two words", "a\nb", "tail\n", " lead", "tab\there",
                  "a\x85b", "\u2028"])
    try:
        cert = (Certificate(graph, group, mu, labels, tag)
                if draw(st.booleans()) else
                Certificate.from_columns(graph, group, mu, zip(*labels), tag))
    except (GroupError, LabelingError):
        return  # refused before there is a certificate to write
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "c.txt")
        try:
            text = format_certificate(cert)
        except (GroupError, LabelingError):
            with pytest.raises((GroupError, LabelingError)):
                magic.save_certificate(cert, path)
            assert not os.path.exists(path)
            return
    back = parse_certificate(text)
    assert (back.graph_expr, back.group, back.mu, back._columns,
            back.theorem) == (cert.graph_expr.strip(), cert.group, cert.mu,
                              cert._columns, cert.theorem or None)
    # the verdict and the weights' mu; a detail prints mu as it was given
    assert verify_certificate(back)[::2] == verify_certificate(cert)[::2]


def test_verify_certificate_rejects_a_mu_of_the_wrong_arity():
    group, columns, _ = _lex_c3_c4_columns()
    cert = Certificate("lex(C(3),C(4))", group, (3,), tuple(zip(*columns)))
    assert verify_certificate(cert) == (
        False, "mu (3,) is not an element of Z4xZ3", None)


def test_verify_certificate_rejects_rows_of_the_wrong_arity():
    group, columns, mu = _lex_c3_c4_columns()
    rows = list(zip(*columns))
    rows[5] = rows[5][:1]
    cert = Certificate("lex(C(3),C(4))", group, mu, rows)
    assert cert.labels == rows  # kept as given
    assert verify_certificate(cert) == (
        False, "element arity 1 does not match group Z4xZ3 (arity 2)", None)
    with pytest.raises(GroupError, match="element arity 1"):
        format_certificate(cert)
    for labels in ((0, 1, 2, 3), (("0",), ("1",), ("2",), ("x",))):
        ok, detail, _ = verify_certificate(Certificate("C(4)", Z4, (0,), labels))
        assert not ok and detail.startswith("labels must be sequences of "
                                            "integer coordinates")


def test_a_labeling_of_rows_that_are_not_sequences_names_them():
    with pytest.raises(LabelingError, match="labels must be sequences of "
                       "integer coordinates.*'int' object is not iterable"):
        Labeling(Z4, (0, 1, 2, 3))
    with pytest.raises(LabelingError, match="labels must be sequences"):
        Labeling(Z4, 5)


def test_a_canonical_certificate_with_a_repeated_label_is_not_injective():
    text = _CANONICAL.replace("v 5 (1,2)", "v 5 (1,1)")
    cert = parse_certificate(text)
    # read in one pass into columns, whose only check left is injectivity
    assert "labels" not in vars(cert)
    per_line = _parse_certificate_per_line(text)
    assert cert == per_line
    assert verify_certificate(cert) == verify_certificate(per_line) == (
        False, "assignment is not injective", None)


def test_verify_certificate_names_an_earlier_vertex_than_the_first_factor():
    labels = ((1, 0), (0, 2), (1, 1), (0, 3), (1, 3), (1, 2), (0, 1), (0, 0))
    assert verify_certificate(Certificate("C(8)", Z24, (0, 2), labels)) == (
        False, "weights differ: vertex 0 has (0,2), vertex 1 has (0,1)", None)


def _recording(columns, asked):
    """Hand out ``columns`` one at a time, appending (k, column) to
    ``asked`` as column k is asked for."""
    for k, column in enumerate(columns):
        asked.append((k, column))
        yield column


def test_kernel_asks_for_no_column_after_the_factor_that_differs():
    g = cycle(8)
    lab = _lab(Z222, *Z222.elements())
    assert len({weight(g, lab, v)[0] for v in range(g.n)}) > 1
    asked = []
    mu, stop = magic._common_weight(g.twin_classes[0], Z222.factors,
                                    _recording(_columns(lab), asked))
    assert mu is None and stop is not None
    assert [k for k, _ in asked] == [0]


def _counting_permutations(monkeypatch):
    """Patch ``itertools.permutations`` so that every permutation it hands
    out is appended to the returned list as it is read."""
    real, read = itertools.permutations, []

    def source(labels):
        for candidate in real(labels):
            read.append(candidate)
            yield candidate
    monkeypatch.setattr(itertools, "permutations", source)
    return read


# K(1,3) with two isolated vertices: the spanning tree's cheapest edge joins
# the isolated vertices' empty neighbourhood to the leaves' {0}, away from
# vertex 0's {3, 4, 5}
STAR_AND_TWO_ISOLATED = Graph.from_edges(6, [(0, 3), (0, 4), (0, 5)])


def test_naive_scan_reads_each_permutation_as_its_hit_is_asked_for(
        monkeypatch):
    cases = [(construct_graph("KmM(6)"),
              _lab(parse_group_spec("Z6"), 4, 1, 5, 0, 3, 2)),
             (STAR_AND_TWO_ISOLATED,
              _lab(parse_group_spec("Z2xZ3"), (1, 2), (0, 0), (1, 0), (0, 2),
                   (1, 1), (0, 1)))]
    hit_positions = [[k for k, rows in
                      enumerate(itertools.permutations(lab.assignment))
                      if verify(g, Labeling(lab.group, rows)) is not None]
                     for g, lab in cases]
    read = _counting_permutations(monkeypatch)
    for (g, lab), positions in zip(cases, hit_positions):
        assert 0 < len(positions) < 720
        read.clear()
        hits = magic.magic_permutations(g, lab)
        for position in positions:
            next(hits)
            assert len(read) == position + 1
        assert next(hits, None) is None
        assert len(read) == 720


@pytest.mark.parametrize("expr, group", [("KmM(6)", "Z6"), ("C(4)", "Z2xZ2"),
                                         ("S(3)", "Z4")])
def test_naive_scan_confirms_each_hit_with_the_per_factor_kernel(
        monkeypatch, expr, group):
    g, group = construct_graph(expr), parse_group_spec(group)
    real, calls = magic._common_weight, []

    def spy(neighbourhoods, factors, columns):
        columns = [list(column) for column in columns]
        calls.append((columns, real(neighbourhoods, factors, columns)))
        return calls[-1][1]
    monkeypatch.setattr(magic, "_common_weight", spy)
    hits = list(magic.magic_permutations(
        g, Labeling(group, tuple(group.elements()))))
    assert hits
    # one kernel call per hit, on the hit's own columns, whose verdict is
    # the hit's constant
    assert [(columns, verdict) for columns, verdict in calls] == \
        [(_columns(hit), (hit.magic_constant, None)) for hit in hits]


def test_a_wrong_lookup_raises_rather_than_yield_a_wrong_hit(monkeypatch):
    import functools

    # the scan's lookup is a functools.cache of the weight of a sum; here
    # every sum looks up as the identity's code, so every candidate is kept,
    # and the first, which is not magic, must not come out as a hit
    monkeypatch.setattr(functools, "cache", lambda weigh: lambda total: 0)
    lab = _lab(Z8, 3, 0, 5, 1, 7, 2, 6, 4)
    assert verify(cycle(8), lab) is None
    with pytest.raises(LabelingError, match="packed scan"):
        next(magic.magic_permutations(cycle(8), lab))


@pytest.mark.parametrize("expr, group", [("KmM(6)", "Z6"), ("C(4)", "Z2xZ2"),
                                         ("Kb(2,6)", "Z2xZ4")])
def test_naive_hits_are_labelings_whose_invariants_hold(expr, group):
    g, group = construct_graph(expr), parse_group_spec(group)
    lab = Labeling(group, tuple(reversed(list(group.elements()))))
    hits = list(magic.magic_permutations(g, lab))
    assert hits
    for hit in hits:
        assert type(hit) is Labeling
        # built again from its rows, which are checked and coerced
        again = Labeling(group, hit.assignment, hit.magic_constant)
        assert again == hit and hash(again) == hash(hit)
        # its labels are reduced elements, held as tuples of plain ints
        assert all(type(label) is tuple and group.element(label) == label
                   and {int}.issuperset(map(type, label))
                   for label in hit.assignment)
        assert hit.columns == tuple(zip(*hit.assignment))
        assert hit.magic_constant == verify(g, hit)


def test_naive_scan_lookup_grows_with_the_sums_it_meets():
    import time
    import tracemalloc

    # packed densely, the lookup of Kb(16,16) over Z2^5 would hold
    # 17^5 (about 1.4 million) entries before the first candidate
    group = parse_group_spec("Z2xZ2xZ2xZ2xZ2")
    g, lab = complete_bipartite(16, 16), Labeling(group,
                                                  tuple(group.elements()))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        hit = next(magic.magic_permutations(g, lab))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # both parts' labels sum to the identity: the first permutation is a hit
    assert (hit.assignment, hit.magic_constant) == (lab.assignment,
                                                    group.zero())
    assert elapsed < 1
    assert peak < 20 * 2**20


def oracle_permutations(g, labeling):
    """The naive scan as it was before candidates went through the kernel
    as one stream: every rearrangement of the rows, in
    ``itertools.permutations`` order, checked as a Labeling by ``verify``."""
    hits = []
    for rows in itertools.permutations(labeling.assignment):
        mu = verify(g, Labeling(labeling.group, rows))
        if mu is not None:
            hits.append((rows, mu))
    return hits


def _shuffled(group, seed):
    """A labeling with the group's elements in the order of a seeded
    shuffle."""
    rows = list(group.elements())
    random.Random(seed).shuffle(rows)
    return Labeling(group, tuple(rows))


@st.composite
def small_labelled_graphs(draw):
    """A random graph of 1-7 vertices (edgeless ones and ones with isolated
    vertices included) and, for each group of its order, a shuffled
    labeling in which no label column is 0, 1, ..., n - 1."""
    n = draw(st.integers(1, 7))
    p = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                             if rnd.random() < p])
    labelings = []
    for group in enumerate_abelian_groups(n):
        rows = list(group.elements())
        rnd.shuffle(rows)
        if n > 1 and rows == sorted(rows):
            rows = rows[1:] + rows[:1]
        labelings.append(Labeling(group, tuple(rows)))
    return g, labelings


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_labelled_graphs())
@example((Graph.from_edges(4, []), [_lab(Z4, 3, 1, 0, 2),
                                    _lab(Z22, (1, 1), (0, 0), (1, 0),
                                         (0, 1))]))
@example((Graph.from_edges(4, [(0, 1), (1, 2)]), [_lab(Z4, 2, 0, 3, 1)]))
@example((Graph.from_edges(1, []), [Labeling(GroupSpec(()), ((),))]))
# at the 8-vertex cap: the packed scan's largest lookup (S(7) and Kb(1,7),
# d = 7, base 8 per factor of Z2xZ2xZ2), neighbourhood sums that reach the
# top digit of both bases (C(8) over Z2xZ4: bases 3 and 7), a scan rich in
# hits (Kb(2,6) over Z8: 8640) and one whose hits have sums at the top digit
# of every base (Kb(4,4) over Z2xZ2xZ2, base 5: four labels with a 1 in
# one coordinate), which a base one too small loses
@example((construct_graph("S(7)"), [_shuffled(Z222, 7)]))
@example((construct_graph("Kb(1,7)"), [_shuffled(Z222, 17)]))
@example((construct_graph("C(8)"), [_shuffled(Z24, 8)]))
@example((construct_graph("Kb(2,6)"), [_shuffled(Z8, 26)]))
@example((construct_graph("Kb(4,4)"), [_shuffled(Z222, 44)]))
# the spanning tree's edge shapes: nested neighbourhoods, whose difference
# has one empty side (∅ ⊂ {3}, 2 hits); a cheapest edge away from vertex 0's
# neighbourhood (24 hits); and a tree of four edges over five distinct
# neighbourhoods whose sides hold none to three vertices (4 hits)
@example((Graph.from_edges(4, [(1, 3), (2, 3)]), [_shuffled(Z4, 13)]))
@example((STAR_AND_TWO_ISOLATED, [_shuffled(parse_group_spec("Z2xZ3"), 6)]))
@example((Graph.from_edges(6, [(0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5),
                               (3, 4), (3, 5), (4, 5)]),
          [_shuffled(parse_group_spec("Z2xZ3"), 9)]))
def test_naive_scan_matches_the_parent_oracle(case):
    g, labelings = case
    for lab in labelings:
        assert tuple(range(g.n)) not in zip(*lab.assignment)
        hits = list(magic.magic_permutations(g, lab))
        assert [(hit.assignment, hit.magic_constant) for hit in hits] == \
            oracle_permutations(g, lab)


def test_naive_scan_keeps_its_hits_on_the_atlas():
    import hashlib

    nx = pytest.importorskip("networkx")
    # every graph of 1-7 vertices, over every group of its order: the hits
    # and their constants, in order, whatever stages the scan is made of;
    # and none on a graph with a blocking obstruction, which the pruned
    # search answers without searching
    sha, cases, hits, blocked = hashlib.sha256(), 0, 0, 0
    for h in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(h.number_of_nodes(), h.edges())
        blocks = any(o.blocks for o in all_obstructions(g))
        blocked += blocks
        for group in enumerate_abelian_groups(g.n):
            cases += 1
            for hit in magic.magic_permutations(
                    g, Labeling(group, tuple(group.elements()))):
                assert not blocks, list(h.edges())
                hits += 1
                sha.update(repr((hit.assignment,
                                 hit.magic_constant)).encode())
    assert (cases, hits, sha.hexdigest()) == (
        1263, 10361,
        "87dec2defca07ae826b96386a213567d569d42695ef0f885e8a732797b84fb33")
    assert blocked == 1077


# the instances of at most 8 vertices that perfbench's search workload runs
SEARCH_WORKLOAD = [("KmM(6)", "Z6"), ("Kb(2,6)", "Z8"), ("S(7)", "Z2xZ2xZ2"),
                   ("join(KmM(6),K(1))", "Z7"), ("lex(C(4),K(2))", "Z8"),
                   ("C(8)", "Z8")]


@pytest.mark.parametrize("expr, spec", SEARCH_WORKLOAD)
def test_naive_search_matches_the_pruned_search(expr, spec):
    from gdmagic.solver import SearchOptions, search_labelings

    g, group = construct_graph(expr), parse_group_spec(spec)

    def answers(mode, **kwargs):
        found = search_labelings(g, group, SearchOptions(mode=mode, **kwargs))
        if mode == "count":
            return found
        return [(lab.assignment, lab.magic_constant) for lab in found]
    # the naive scan goes in permutation order, that is lexicographic
    # order of the labels along the input order
    naive_all = answers("all", use_pruning=False)
    assert naive_all == answers("all", vertex_order="input")
    assert answers("count", use_pruning=False) == answers("count") == \
        len(naive_all)
    assert answers("first", use_pruning=False) == \
        answers("first", vertex_order="input") == naive_all[:1]


def test_verify_size_mismatch():
    with pytest.raises(LabelingError):
        verify(cycle(5), _lab(Z4, 0, 1, 2, 3))


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


def _shared_neighborhood_all_pairs(g):
    """The all-pairs scan obstruction_shared_neighborhood replaced: the
    oracle for its first witness and detail."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            du, dv = g.degree(u), g.degree(v)
            if du == dv and len(g.adj[u] & g.adj[v]) == du - 1:
                return magic.Obstruction(
                    SHARED_NEIGHBORHOOD, (u, v),
                    f"deg({u}) = deg({v}) = {du} and the neighborhoods share "
                    f"{du - 1} vertices")
    return None


def _from_adjacency(adj):
    return Graph.from_edges(len(adj), [(u, v) for u, nbrs in enumerate(adj)
                                       for v in nbrs if u < v])


@st.composite
def graphs_with_near_twins(draw):
    """A random graph on 0..24 vertices of random density, plus copies of
    some vertices that keep all but at most one of the original's
    neighbours, so that witnesses turn up at varied positions."""
    n = draw(st.integers(0, 24))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        src = rnd.randrange(n)
        nbrs = sorted({b for a, b in edges if a == src} | {a for a, b in edges if b == src})
        if nbrs and rnd.random() < 0.7:
            nbrs.remove(rnd.choice(nbrs))
        edges += [(w, n) for w in nbrs]
        n += 1
    order = list(range(n))
    rnd.shuffle(order)
    return Graph.from_edges(n, [(order[u], order[v]) for u, v in edges])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(graphs_with_near_twins())
@example(path(4))
@example(Graph.from_edges(0, []))
@example(Graph.from_edges(3, []))
# degree-1 vertices: two with different neighbours, all with one neighbour,
# and a perfect matching
@example(path(5))
@example(star(6))
@example(Graph.from_edges(4, [(0, 1), (2, 3)]))
# the smallest witness (1, 2) is in a later bucket of vertex 1 than the
# larger witness (1, 7)
@example(_from_adjacency([{1, 2, 3, 4, 5, 6, 8}, {0, 3, 4, 5, 6, 8},
                          {0, 4, 5, 6, 7, 8}, {0, 1, 4, 5, 6, 7, 8},
                          {0, 1, 2, 3, 5, 6, 7, 8}, {0, 1, 2, 3, 4, 6, 7, 8},
                          {0, 1, 2, 3, 4, 5, 7, 8}, {2, 3, 4, 5, 6, 8},
                          {0, 1, 2, 3, 4, 5, 6, 7}]))
def test_shared_neighborhood_matches_all_pairs_scan(g):
    assert obstruction_shared_neighborhood(g) == _shared_neighborhood_all_pairs(g)


@st.composite
def graphs_with_twin_classes(draw):
    """A random graph on 1..8 classes, each of 1..4 vertices that are all
    open twins (no edges inside) or all closed twins (a clique), with
    random edges between classes; sometimes a lex or direct product of it
    with a small factor, whose twins come from both factors."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    sizes = [rnd.randint(1, 4) for _ in range(draw(st.integers(1, 8)))]
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
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
    g = Graph.from_edges(len(order), [(order[u], order[v]) for u, v in edges])
    product = draw(st.sampled_from([None, lex_product, direct_product]))
    if product is None:
        return g
    factor = draw(st.sampled_from([path(3), cycle(4), complete(3),
                                   complete_minus_matching(4), star(3)]))
    return product(g, factor) if rnd.random() < 0.5 else product(factor, g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_twin_classes())
@example(lex_product(cycle(5), complete(2)))
@example(direct_product(path(3), complete_minus_matching(4)))
def test_shared_neighborhood_matches_all_pairs_scan_with_twins(g):
    assert obstruction_shared_neighborhood(g) == _shared_neighborhood_all_pairs(g)


def test_shared_neighborhood_tests_each_pair_once_and_no_twins():
    class Counting(frozenset):
        """A neighbourhood that records which pairs of vertices it is
        intersected for."""

        def __and__(self, other):
            tested.append((self.vertex, other.vertex))
            return frozenset.__and__(self, other)

    tested = []
    g = lex_product(cycle(100), complete_minus_matching(8))
    adj = []
    for v, nbrs in enumerate(g.adj):
        adj.append(Counting(nbrs))
        adj[-1].vertex = v
    counted = Graph(g.n, tuple(adj))
    assert obstruction_shared_neighborhood(counted) is None
    assert tested
    assert len(set(tested)) == len(tested)
    assert not [(u, v) for u, v in tested if g.adj[u] == g.adj[v]]


@pytest.mark.parametrize("g, witness, tests_pairs", [
    (path(400), (0, 399), False),  # vertex 0 of degree 1: no pair before it
    (lex_product(cycle(10), complete_minus_matching(4)), None, True),
    # degree-one witness (1, 4), but (0, 2) of degree 2 comes first
    (Graph.from_edges(7, [(0, 3), (0, 4), (2, 3), (2, 6), (1, 3), (5, 6)]),
     (0, 2), True),
])
def test_shared_neighborhood_buckets_only_when_a_pair_may_come_first(
        g, witness, tests_pairs):
    class Counting(frozenset):
        def __and__(self, other):
            tested.append((self.vertex, other.vertex))
            return frozenset.__and__(self, other)

    tested = []
    adj = []
    for v, nbrs in enumerate(g.adj):
        adj.append(Counting(nbrs))
        adj[-1].vertex = v
    counted = Graph(g.n, tuple(adj))
    found = obstruction_shared_neighborhood(counted)
    assert found == _shared_neighborhood_all_pairs(g)
    assert (found and found.witness) == witness
    assert bool(tested) == tests_pairs
    assert len(set(tested)) == len(tested)
    assert ("twin_classes" in vars(counted)) == tests_pairs


def test_shared_neighborhood_on_a_large_twin_rich_product():
    # 3444 vertices, 608 distinct neighbourhoods, no witness
    g = construct_graph("dir(lex(KmM(4),dir(P(3),S(6))),"
                        "join(lex(Kb(2,7),P(4)),S(4)))")
    assert g.n == 3444
    assert obstruction_shared_neighborhood(g) is None


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


def test_verify_certificate_makes_one_weight_pass(monkeypatch):
    calls = []
    for name in ("_common_weight", "_level_weights"):
        def counted(*args, _real=getattr(magic, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(magic, name, counted)
    monkeypatch.setattr(magic, "weight", None)  # the reference is not used
    good = Certificate("C(4)", Z4, (3,), ((1,), (0,), (2,), (3,)))
    assert verify_certificate(good) == (True, "ok", (3,))
    assert len(calls) == 1
    wrong_mu = Certificate("C(4)", Z4, (1,), ((1,), (0,), (2,), (3,)))
    assert not verify_certificate(wrong_mu)[0]
    assert len(calls) == 2
    # a rejection scans again the prefix that agrees, then sums the one
    # neighbourhood found: arity + 2 calls at most
    not_magic = Certificate("C(4)", Z4, (0,), ((0,), (1,), (2,), (3,)))
    assert not verify_certificate(not_magic)[0]
    assert len(calls) == 5
    # a lex and a dir product are summed from their factors level by
    # level, in one pass to accept and one pass to name the vertex that
    # differs
    from gdmagic.constructors import auto_label

    for product, g, h, spec, x, y in [("lex", "C(3)", "C(4)", "Z4xZ3", 0, 4),
                                      ("dir", "C(3)", "KmM(6)", "Z6xZ3", 0, 7)]:
        group = parse_group_spec(spec)
        report = auto_label(construct_graph(g), construct_graph(h), product,
                            group)
        labels = list(report.labeling.assignment)
        expr = f"{product}({g},{h})"
        calls.clear()
        good = Certificate(expr, group, report.predicted_mu, tuple(labels))
        assert verify_certificate(good) == (True, "ok", report.predicted_mu)
        assert calls == ["_level_weights"]
        labels[x], labels[y] = labels[y], labels[x]
        calls.clear()
        swapped = Certificate(expr, group, report.predicted_mu, tuple(labels))
        assert verify_certificate(swapped)[1].startswith("weights differ")
        assert calls == ["_level_weights"]


def _count_calls(monkeypatch, cls, *names):
    """Record the arguments of every call of the named methods of cls."""
    calls = {}
    for name in names:
        real = getattr(cls, name)
        calls[name] = []

        def wrapper(self, *args, _real=real, _calls=calls[name]):
            _calls.append(args)
            return _real(self, *args)
        monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_labels_and_certificates_go_by_the_column(monkeypatch):
    from gdmagic.abelian import CyclicFactorSplit
    from gdmagic.constructors import auto_label, label_lex_kmn_mixed
    from gdmagic.graphs import construct_graph

    split_calls = _count_calls(monkeypatch, CyclicFactorSplit, "from_pair",
                               "from_pairs", "from_pair_columns")
    group = parse_group_spec("Z8xZ500")
    report = auto_label(construct_graph("C(500)"), construct_graph("KmM(8)"),
                        "lex", group)
    assert report.theorem == "even-degrees-lex"
    # from_pair only for constants, (pair sum, 0) and the magic constant
    assert [a for _, a in split_calls["from_pair"]] == [(0, 0), (0, 0)]
    # one column map for the one twin-pair fill, straight to columns; the
    # others are from_pair's
    bulk = [len(zs) for zs, _ in split_calls["from_pair_columns"]
            if len(zs) > 1]
    assert bulk == [500 * 4]
    assert all(len(zs) == 1 for zs, _ in split_calls["from_pairs"])
    split_calls["from_pair_columns"].clear()
    label_lex_kmn_mixed(complete_bipartite(2, 3), complete_minus_matching(4),
                        parse_group_spec("Z4xZ5"))
    assert [len(zs) for zs, _ in split_calls["from_pair_columns"]
            if len(zs) > 1] == [2 * 2, 3 * 2]  # two fills: even side, odd

    text = format_certificate(Certificate(
        "lex(C(500),KmM(8))", group, report.predicted_mu,
        report.labeling.assignment))
    parse_calls = _count_calls(monkeypatch, GroupSpec,
                               "parse_element", "parse_elements")
    cert = parse_certificate(text)
    assert cert.labels == report.labeling.assignment
    assert cert.mu == (5, 0)
    # mu and the labels are read in bulk: no element is read on its own
    assert parse_calls == {"parse_element": [], "parse_elements": []}


# (product, G, H, group, two swapped vertices, the rejection detail the
# verifier gave before weights were summed per coordinate)
SWAPPED = [
    ("lex", "C(50)", "KmM(6)", "Z6xZ50", 151, 160,
     "weights differ: vertex 0 has (4,0), vertex 144 has (1,26)"),
    ("dir", "C(128)", "KmM(16)", "Z16xZ128", 1000, 1017,
     "weights differ: vertex 0 has (0,114), vertex 976 has (2,1)"),
]


@pytest.mark.parametrize("product, g, h, spec, x, y, detail", SWAPPED)
def test_swapped_certificate_rejection_is_unchanged(product, g, h, spec,
                                                    x, y, detail):
    from gdmagic.constructors import auto_label
    from gdmagic.graphs import construct_graph

    group = parse_group_spec(spec)
    report = auto_label(construct_graph(g), construct_graph(h), product, group)
    labels = list(report.labeling.assignment)
    labels[x], labels[y] = labels[y], labels[x]
    cert = Certificate(f"{product}({g},{h})", group, report.predicted_mu,
                       tuple(labels))
    assert verify_certificate(cert) == (False, detail, None)


@pytest.mark.parametrize("bad", [
    "graph: C(4)\nmu: (0)\nv 0 (0)\nv 1 (1)\nv 2 (2)\nv 3 (3)",  # no group
    "graph: C(4)\ngroup: Z4\nmu: (0)\nv 0 (0)\nv 1 (1)\nv 2 (2)",  # missing v
    "graph: C(4)\ngroup: Z4\nmu: (0)\nv 0 (0)\nv 0 (1)\nv 2 (2)\nv 3 (3)",
    "graph: C(4)\ngroup: Z4\nmu: (0)\nv 0 (0)\nv 1 (1)\nv 2 (2)\nvx",
])
def test_certificate_parse_rejects(bad):
    with pytest.raises(CertificateError):
        parse_certificate(bad)


def test_certificate_parse_skips_blank_lines():
    text = "graph: C(4)\ngroup: Z4\nmu: (3)\nv 0 (1)\nv 1 (0)\nv 2 (2)\nv 3 (3)"
    spaced = "\n  \n" + text.replace("\n", "\n\n\t\n") + "\n\n"
    assert parse_certificate(spaced) == parse_certificate(text)


def test_certificate_parse_names_a_bad_vertex_line():
    with pytest.raises(CertificateError) as info:
        parse_certificate("graph: C(4)\ngroup: Z4\nmu: (0)\nv 3\n")
    assert str(info.value) == "bad vertex line 'v 3'"


@pytest.mark.parametrize("cert, detail", [
    (Certificate("C(2)", parse_group_spec("Z2"), (0,), ((0,), (1,))),
     "bad graph expression: C(n) needs n >= 3, got 2"),
    (Certificate("C(5)", Z4, (0,), ((0,), (1,), (2,), (3,))),
     "graph has 5 vertices but group Z4 has order 4"),
    (Certificate("C(4)", Z4, (0,), ((0,), (0,), (2,), (3,))),
     "assignment is not injective"),
])
def test_verify_certificate_early_rejections(cert, detail):
    assert verify_certificate(cert) == (False, detail, None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["K(2)", "C(3)", "P(3)", "Kb(2,3)", "C(4)", "K(4)"]),
       st.sampled_from(["C(4)", "KmM(6)", "KmM(8)", "Kb(4,4)"]),
       st.sampled_from(["lex", "dir"]), st.booleans())
def test_auto_label_certificates_survive_format_and_parse(g, h, product,
                                                          tagged):
    from gdmagic.constructors import ConstructionError, auto_label
    from gdmagic.graphs import construct_graph

    gg, hh = construct_graph(g), construct_graph(h)
    for group in enumerate_abelian_groups(gg.n * hh.n):
        try:
            rep = auto_label(gg, hh, product, group)
        except ConstructionError:
            continue
        cert = Certificate(f"{product}({g},{h})", group, rep.predicted_mu,
                           rep.labeling.assignment,
                           rep.theorem if tagged else None)
        assert parse_certificate(format_certificate(cert)) == cert
        assert verify_certificate(cert)[0]


# One-row readings of elements and certificates, kept as the oracles that
# parse_elements and parse_certificate (its canonical one-pass reader and
# its per-line reader alike) must agree with: same result on every text,
# same error for the first bad row.

def _parse_element_per_row(group, text):
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise GroupError(f"element must look like (r1,...,rk), got {text!r}")
    inner = t[1:-1].strip()
    if not inner:
        coords = ()
    else:
        try:
            coords = tuple(int(p) for p in inner.split(","))
        except ValueError:
            raise GroupError(f"bad element coordinates in {text!r}") from None
    if len(coords) == len(group.factors) and all(
            0 <= c < f for c, f in zip(coords, group.factors)):
        return coords
    group.element(coords)  # raises on a wrong arity
    raise GroupError(
        f"element {text.strip()} has a coordinate out of range for "
        f"{group} (each must satisfy 0 <= r < factor)")


def _parse_certificate_per_line(text):
    theorem = None
    fields = {}
    raw_labels = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#\s*theorem:\s*(\S+)", line)
            if m:
                theorem = m.group(1)
            continue
        if line.startswith("v "):
            parts = line.split(None, 2)
            if len(parts) != 3 or not parts[1].isdecimal():
                raise CertificateError(f"bad vertex line {line!r}")
            try:
                idx = int(parts[1])
            except ValueError:
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
        fields[key.strip()] = value.strip()
    for required in ("graph", "group", "mu"):
        if required not in fields:
            raise CertificateError(f"certificate missing {required!r} line")
    group = parse_group_spec(fields["group"])
    mu = _parse_element_per_row(group, fields["mu"])
    n = group.order
    if len(raw_labels) != n or sorted(raw_labels) != list(range(n)):
        raise CertificateError(
            f"certificate must label vertices 0..{n - 1} exactly once")
    labels = tuple(_parse_element_per_row(group, raw_labels[v])
                   for v in range(n))
    return Certificate(fields["graph"], group, mu, labels, theorem)


def _parse_outcome(parse, *args):
    """What a parser returns, or the type and message of what it raises."""
    try:
        return parse(*args)
    except (GroupError, CertificateError) as exc:
        return type(exc), str(exc)


_BLANKS = st.sampled_from(["", " ", "\t", "  ", "\u3000", "\u00a0"])


@st.composite
def _element_text(draw, group):
    """A text of an element of ``group``, in one of the forms int() reads."""
    coords = [draw(st.integers(0, f - 1)) for f in group.factors]
    forms = st.sampled_from(["{}", "+{}", "0_{}", "0{}"])
    parts = [draw(_BLANKS) + draw(forms).format(c) + draw(_BLANKS)
             for c in coords]
    return draw(_BLANKS) + "(" + ",".join(parts) + ")" + draw(_BLANKS)


def _plant(draw, group, text):
    """``text`` with one fault of the kinds a label line can hold."""
    kind = draw(st.sampled_from(["arity", "range", "paren", "integer"]))
    t = text.strip()
    if kind == "arity":
        return draw(st.sampled_from([t[:-1] + ",0)", "()",
                                     "(" + t[1:].partition(",")[2]]))
    if kind == "range":
        if not group.factors:
            return "(0)"
        k = draw(st.integers(0, group.arity - 1))
        coords = [0] * group.arity
        coords[k] = draw(st.sampled_from([group.factors[k], -1,
                                          10 * group.factors[k]]))
        return "(" + ",".join(map(str, coords)) + ")"
    if kind == "paren":
        return draw(st.sampled_from([t[1:], t[:-1], t[1:-1], "(" + t,
                                     t + ")", t.replace(")", "", 1) + ")"]))
    return draw(st.sampled_from([t.replace(",", ",x", 1), t[:-1] + ".5)",
                                 t.replace("(", "(1 ", 1),
                                 t.replace("(", "(;", 1)]))


_GROUPS = [spec for n in range(1, 41) for spec in enumerate_abelian_groups(n)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(_GROUPS), st.data())
def test_bulk_element_parse_agrees_with_the_per_row_reading(group, data):
    texts = data.draw(st.lists(_element_text(group), max_size=12))
    for _ in range(data.draw(st.integers(0, 2))):
        if texts:
            k = data.draw(st.integers(0, len(texts) - 1))
            texts[k] = _plant(data.draw, group, texts[k])

    def per_row(texts):
        return [_parse_element_per_row(group, t) for t in texts]

    assert _parse_outcome(group.parse_elements, texts) == \
        _parse_outcome(per_row, texts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([spec for spec in _GROUPS if spec.order <= 12]),
       st.data())
def test_bulk_certificate_parse_agrees_with_the_per_line_reading(group, data):
    draw = data.draw
    labels = draw(st.permutations(list(group.elements())))
    lines = [f"v {v} {group.format_element(g)}" for v, g in enumerate(labels)]
    lines += [f"graph: C({max(group.order, 3)})", f"group: {group}",
              f"mu: {group.format_element(labels[0])}",
              draw(st.sampled_from(["# theorem: demo", "#theorem:x y", "#"]))]
    lines = draw(st.permutations(lines))
    faults = draw(st.lists(st.sampled_from([
        "element", "element", "short", "index", "duplicate", "digits",
        "field", "missing", "blank", "none"]), max_size=2))
    for fault in faults:
        k = draw(st.integers(0, len(lines) - 1))
        head, _, rest = lines[k].partition(" ")
        if fault == "element" and lines[k].startswith("v "):
            index, _, element = rest.partition(" ")
            lines[k] = f"v {index} {_plant(draw, group, element)}"
        elif fault == "short":
            lines[k] = "v " + rest.partition(" ")[0]
        elif fault == "index":
            lines[k] = "v " + draw(st.sampled_from(
                ["x", "1_0", "-1", "\u0661", "\u00b2", "01"])) + " (0)"
        elif fault == "duplicate":
            lines.insert(k, lines[draw(st.integers(0, len(lines) - 1))])
        elif fault == "digits":
            lines[k] = "v " + "1" * 5000 + " " + rest
        elif fault == "field":
            lines[k] = draw(st.sampled_from(["graph C(4)", "vx", "v"]))
        elif fault == "missing":
            del lines[k]
        elif fault == "blank":
            lines.insert(k, draw(_BLANKS))
    sep = draw(st.sampled_from(["\n", "\r\n", "\n\n", "\x0b", "\n \t"]))
    text = sep.join(draw(_BLANKS) + line for line in lines)
    assert _parse_outcome(parse_certificate, text) == \
        _parse_outcome(_parse_certificate_per_line, text)


def _near_miss(draw, text, group):
    """``text``, a certificate as format_certificate writes it, with at most
    one change: of a kind a hand-edited or re-saved certificate may hold, or
    one character inserted, deleted or moved in one line."""
    lines = text.split("\n")[:-1]
    mu = next(k for k, line in enumerate(lines) if line.startswith("mu: "))
    # a header line, mu's, or a label line, the last one as often as others
    k = draw(st.sampled_from([0, 1, mu - 1, mu, mu + 1, len(lines) - 1,
                              draw(st.integers(0, len(lines) - 1))]))
    line = lines[k]
    at = draw(st.sampled_from([len(line), draw(st.integers(0, len(line)))]))
    kind = draw(st.sampled_from([
        "none", "zero index", "plus", "blank", "non-ASCII digit", "crlf",
        "no final newline", "comment", "order", "missing", "duplicate",
        "trailing", "insert", "delete", "swap", "move digit", "factor"]))
    if kind == "zero index":
        line = line.replace("v ", "v 0", 1)
    elif kind == "plus":
        line = line.replace("(", "(+", 1)
    elif kind == "blank":
        blank = draw(st.sampled_from([" ", "\t", "\u3000", "\xa0"]))
        line = line[:at] + blank + line[at:]
    elif kind == "non-ASCII digit":
        line = re.sub(r"\d", lambda m: chr(0x0660 + int(m[0])), line, count=1)
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "no final newline":
        return "\n".join(lines)
    elif kind == "comment":
        lines.insert(k, draw(st.sampled_from(["# note", "# theorem: later",
                                              "#theorem:"])))
    elif kind == "order" and k > 0:
        lines[k - 1], line = line, lines[k - 1]
    elif kind == "missing":
        del lines[k]
        return "\n".join(lines) + "\n"
    elif kind == "duplicate":
        lines.insert(k, line)
    elif kind == "trailing":
        line += draw(st.sampled_from(["x", " x", ")", ",", "0"]))
    elif kind == "insert":
        line = line[:at] + draw(st.sampled_from(
            ["0", "7", " ", ",", "(", ")", "v", ":", "\n", "\u0661",
             "\x85", "\r", "\x0b", "#"])) + line[at:]
    elif kind == "delete":
        line = line[:at] + line[at + 1:]
    elif kind == "swap" and at + 1 < len(line):
        line = line[:at] + line[at + 1] + line[at] + line[at + 2:]
    elif kind == "move digit":
        digits = [j for j, c in enumerate(line) if c.isdigit()]
        if digits:
            j = draw(st.sampled_from(digits))
            rest = line[:j] + line[j + 1:]
            to = draw(st.sampled_from([0, len(rest), at % (len(rest) + 1)]))
            line = rest[:to] + line[j] + rest[to:]
    elif kind == "factor" and "(" in line and group.factors:
        # a coordinate set to its factor, one past the last it may hold
        head, _, inner = line.partition("(")
        numbers = inner[:-1].split(",")
        j = at % len(numbers)
        numbers[j] = str(group.factors[j])
        line = head + "(" + ",".join(numbers) + ")"
    lines[k] = line
    return "\n".join(lines) + "\n"


@settings(max_examples=800, deadline=None, derandomize=True)
@given(st.sampled_from([GroupSpec(())] + [spec for spec in _GROUPS
                                          if 2 <= spec.order <= 12]),
       st.data())
def test_canonical_certificate_parse_agrees_with_the_per_line_reading(group,
                                                                      data):
    draw = data.draw
    labels = tuple(draw(st.permutations(list(group.elements()))))
    tag = draw(st.sampled_from([None, "demo", "a b"]))
    cert = Certificate(
        draw(st.sampled_from(["C(4)", "lex(C(3),K(2))", "file(a b.txt)"])),
        group, labels[-1], labels, tag and tag.split()[0])
    # format_certificate refuses to write a tag of two words, so that one
    # is put in the text by hand
    text = format_certificate(cert).replace("theorem: a\n",
                                            f"theorem: {tag}\n", 1)
    # read in one pass, but for the trivial group, whose "()" holds no
    # number ("a b" is a theorem tag of one word, "a", for both readers)
    assert magic._read_canonical(text) == (
        _parse_certificate_per_line(text) if group.factors else None)
    text = _near_miss(draw, text, group)
    assert _parse_outcome(parse_certificate, text) == \
        _parse_outcome(_parse_certificate_per_line, text)


_CANONICAL = ("# theorem: demo\ngraph: C(6)\ngroup: Z2xZ3\nmu: (1,2)\n"
              "v 0 (0,0)\nv 1 (0,1)\nv 2 (0,2)\nv 3 (1,0)\nv 4 (1,1)\n"
              "v 5 (1,2)\n")


# one near-miss per check of the canonical reader, each of which that
# reader alone would misread
@pytest.mark.parametrize("old, new", [
    ("v 5 (1,2)\n", "v 5 (1,)2\n"),  # a number after the last ")"
    ("v 5 (1,2)\n", "v 5 (1,)\n"),  # the last number empty
    ("mu: (1,2)", "m1u: (,2)"),  # a number inside "mu: ("
    ("v 3 (1,0)", "v  3(1,0)"),  # a number inside " ("
    ("v 2 (0,2)\nv 3", "v 2 (0,)\n2v 3"),  # a number inside ")\nv "
    ("v 1 (0,1)\nv 2 (0,2)", "v 2 (0,2)\nv 1 (0,1)"),  # out of order
    ("v 1 ", "v 01 "),  # an index as int() reads it
    ("v 4 (1,1)", "v 4 (2,1)"),  # a coordinate equal to its factor
    ("mu: (1,2)", "mu: (1,3)"),
    ("graph: C(6)", "graph: C(6) "),  # a blank the per-line reader strips
    ("graph: C(6)", "graph: C(\x0b6)"),  # a line break str.splitlines sees
    ("# theorem: demo", "# theorem: demo\x85x"),
    ("group: Z2xZ3\nmu: (1,2)\nv 0 (0,0)\nv 1 (0,1)\nv 2 (0,2)\n"
     "v 3 (1,0)\nv 4 (1,1)\nv 5 (1,2)", "group: trivial\nmu: ()\nv 0 ()"),
    ("\n", "\r\n"),
])
def test_canonical_reader_leaves_each_near_miss_to_the_per_line_reader(old,
                                                                       new):
    assert magic._read_canonical(_CANONICAL) == \
        _parse_certificate_per_line(_CANONICAL)
    text = _CANONICAL.replace(old, new)
    assert text != _CANONICAL
    assert magic._read_canonical(text) is None
    assert _parse_outcome(parse_certificate, text) == \
        _parse_outcome(_parse_certificate_per_line, text)


def test_theorem_tag_reads_as_the_theorem_pattern():
    # the pattern's \s is str.isspace, which str.split and str.lstrip use
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    blanks = [c for c in every if c.isspace()]
    words = ["", "theorem:", "theorem", "x", "a:b", "#"]
    for blank in blanks:
        for line in ("#" + blank + "theorem:" + blank + "x" + blank + "y",
                     "#theorem:" + blank, "#" + blank + "theorem:x",
                     "# theorem" + blank + ":x", "#theorem:" + blank + "x"):
            m = re.match(r"#\s*theorem:\s*(\S+)", line)
            assert magic._theorem_tag(line) == (m and m.group(1)), line
    for parts in itertools.product(["", " ", "　", "\x1c", "\x85"],
                                   words, ["", "\t", "\xa0"], words):
        line = "#" + "".join(parts)
        m = re.match(r"#\s*theorem:\s*(\S+)", line)
        assert magic._theorem_tag(line) == (m and m.group(1)), line
