"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact (discrete algebra, zero tolerance). Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
Criterion 8 negates labelings with ``negate_labeling``, defined and tested
here.
"""

import pytest

from gdmagic.abelian import (
    enumerate_abelian_groups,
    find_cyclic_factor,
    parse_group_spec,
    sum_of_elements,
    two_power_exponents,
)
from gdmagic.constructors import (
    ConstructionError,
    auto_label,
    label_dir_balanced_pow2,
    label_dir_c4k2,
    label_lex_balanced_pow2,
    label_lex_c4k2,
    label_lex_even_degrees,
    label_lex_kmn_mixed,
    label_matching_join_graph,
)
from gdmagic.graphs import (
    complete,
    complete_bipartite,
    complete_minus_matching,
    complete_multipartite,
    cycle,
    enumerate_trees,
    graph_power,
    join,
    path,
    star,
)
from gdmagic.magic import (
    Labeling,
    LabelingError,
    obstruction_shared_neighborhood,
    obstruction_two_universal,
    tree_group_magic,
    verify,
)
from gdmagic.solver import SearchOptions, classify_over_all_groups, search_labelings

P = parse_group_spec
COUNT = SearchOptions(mode="count")
COUNT_NAIVE = SearchOptions(mode="count", use_pruning=False)


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_sum_of_elements_sweep():
    checked = 0
    for order in range(1, 65):
        for spec in enumerate_abelian_groups(order):
            fold = spec.zero()
            for elem in spec.elements():
                fold = spec.add(fold, elem)
            assert sum_of_elements(spec) == fold, spec
            checked += 1
    assert checked > 64
    _passed(1, f"sum-of-elements equals the literal fold on {checked} groups "
               "of order <= 64")


def test_criterion_2_matching_join():
    constructions = 0
    for n in (5, 7, 9, 15):
        g = join(complete_minus_matching(n - 1), complete(1))
        for group in enumerate_abelian_groups(n):
            rep = label_matching_join_graph(g, group)
            assert rep.predicted_mu == group.zero()
            assert verify(rep.graph, rep.labeling) == group.zero()
            constructions += 1
    # exhaustive check: the lone-vertex label is always the identity
    for n in (5, 7):
        g = join(complete_minus_matching(n - 1), complete(1))
        hub = n - 1
        for group in enumerate_abelian_groups(n):
            found = search_labelings(g, group,
                                     SearchOptions(mode="all",
                                                   use_pruning=False))
            assert found, (n, str(group))
            assert all(lab.assignment[hub] == group.zero() for lab in found)
    _passed(2, f"{constructions} matching-join constructions verify with "
               "mu = identity; naive scans confirm the hub is forced to it")


def test_criterion_3_tree_characterization():
    trees_checked = 0
    for n in range(2, 11):
        for tree in enumerate_trees(n):
            expected = tree_group_magic(tree)
            results = classify_over_all_groups(tree)
            if expected:
                assert all(results.values()), (n, tree.edges())
            else:
                assert not any(results.values()), (n, tree.edges())
            trees_checked += 1
    assert trees_checked == 200
    _passed(3, "classification over all groups agrees with the star "
               f"characterization on all {trees_checked} trees with 2..10 "
               "vertices")


def test_criterion_4_c4k2_products():
    # (i) lexicographic: mu is (2k+2, a0) for even degrees, (1, a0) for odd
    lex_cases = 0
    for g in (complete(2), cycle(3), complete(4), cycle(5)):
        tested_here = 0
        even = all(d % 2 == 0 for d in g.degrees)
        for group in enumerate_abelian_groups(6 * g.n):
            split = find_cyclic_factor(group, 6)
            if split is None:
                continue
            rep = label_lex_c4k2(g, graph_power(cycle(6), 2), group)
            z = 4 if even else 1
            assert rep.predicted_mu == split.from_pair(z, split.complement.zero())
            assert verify(rep.graph, rep.labeling) == rep.predicted_mu
            tested_here += 1
        assert tested_here >= 1, g.degrees
        lex_cases += tested_here
    # (ii) direct: mu is (-2mk, a0)
    dir_cases = 0
    for g, specs, z in ((complete(4), ("Z6xZ4", "Z6xZ2xZ2"), 0),
                        (cycle(6), ("Z6xZ6", "Z6xZ2xZ3"), 2)):
        for text in specs:
            group = P(text)
            split = find_cyclic_factor(group, 6)
            rep = label_dir_c4k2(g, graph_power(cycle(6), 2), group)
            assert rep.predicted_mu == split.from_pair(z, split.complement.zero())
            assert verify(rep.graph, rep.labeling) == rep.predicted_mu
            dir_cases += 1
    _passed(4, f"{lex_cases} lexicographic and {dir_cases} direct "
               "constructions over K(4k+2)-M hosts verify with the "
               "predicted constants")


def _lex_sweep_expected(g, group, h, k, r, s):
    """Expected constant for the lex branch at exponent s, or None when the
    branch's preconditions fail."""
    split = find_cyclic_factor(group, 1 << s)
    assert split is not None
    if s <= k - 1:
        return split.from_pair((-r) % (1 << s), split.complement.zero())
    residues = {d % (1 << (s - 1)) for d in g.degrees}
    if len(residues) != 1 or g.n % (1 << (s - k)):
        return None
    m = residues.pop()
    return split.from_pair((-r - (1 << (k - 1)) * m) % (1 << s),
                           split.complement.zero())


def test_criterion_5_balanced_pow2_sweeps():
    hosts = [(cycle(4), 2, 1), (complete_minus_matching(8), 3, 3)]
    lex_graphs = [path(3), cycle(3), cycle(4), complete(4),
                  complete_multipartite((2, 2, 2))]
    dir_graphs = [cycle(4), complete(4), cycle(6)]
    emitted = 0
    for h, k, r in hosts:
        for g in lex_graphs:
            for group in enumerate_abelian_groups((1 << k) * g.n):
                for s in two_power_exponents(group):
                    expected = _lex_sweep_expected(g, group, h, k, r, s)
                    if expected is None:
                        try:
                            label_lex_balanced_pow2(g, h, group, s)
                            raise AssertionError(
                                f"branch s={s} should fail for {g.degrees} "
                                f"over {group}")
                        except ConstructionError:
                            continue
                    rep = label_lex_balanced_pow2(g, h, group, s)
                    assert rep.predicted_mu == expected, (str(group), s)
                    assert verify(rep.graph, rep.labeling) == expected
                    emitted += 1
                    if (s == k and all(d % 2 == 0 and d for d in g.degrees)):
                        split = find_cyclic_factor(group, 1 << k)
                        rep = label_lex_even_degrees(g, h, group)
                        assert rep.predicted_mu == split.from_pair(
                            (-r) % (1 << k), split.complement.zero())
                        assert verify(rep.graph, rep.labeling) == rep.predicted_mu
                        emitted += 1
        for g in dir_graphs:
            for group in enumerate_abelian_groups((1 << k) * g.n):
                for s in two_power_exponents(group):
                    residues = {d % (1 << s) for d in g.degrees}
                    divisible = s <= k or g.n % (1 << (s - k)) == 0
                    if len(residues) != 1 or not divisible:
                        try:
                            label_dir_balanced_pow2(g, h, group, s)
                            raise AssertionError("branch should fail")
                        except ConstructionError:
                            continue
                    m = residues.pop()
                    split = find_cyclic_factor(group, 1 << s)
                    expected = split.from_pair((-m * r) % (1 << s),
                                               split.complement.zero())
                    rep = label_dir_balanced_pow2(g, h, group, s)
                    assert rep.predicted_mu == expected
                    assert verify(rep.graph, rep.labeling) == expected
                    emitted += 1
    assert emitted > 100
    _passed(5, f"{emitted} constructions over balanced hosts on 4 and 8 "
               "vertices verify with the branch-predicted constants")


def test_criterion_6_kmn_mixed():
    group = P("Z4xZ5")
    rep = label_lex_kmn_mixed(complete_bipartite(2, 3), cycle(4), group)
    assert rep.predicted_mu == group.element((3, 0))
    assert verify(rep.graph, rep.labeling) == (3, 0)

    routed_group = P("Z2xZ2xZ5")
    rep = auto_label(complete_bipartite(2, 3), cycle(4), "lex", routed_group)
    split = find_cyclic_factor(routed_group, 2)
    assert rep.theorem == "balanced-lex-small-s"
    assert rep.predicted_mu == split.from_pair(1, split.complement.zero())
    assert verify(rep.graph, rep.labeling) == rep.predicted_mu

    try:
        label_lex_kmn_mixed(complete_bipartite(3, 3), cycle(4),
                            P("Z4xZ6"))
        raise AssertionError("odd m must be rejected")
    except ConstructionError as exc:
        assert "even" in str(exc)
    try:
        label_lex_kmn_mixed(complete_bipartite(2, 3),
                            complete_bipartite(4, 4), P("Z8xZ5"))
        raise AssertionError("even r must be rejected")
    except ConstructionError as exc:
        assert "odd" in str(exc)
    _passed(6, "mixed complete bipartite lex labelings verify, the missing "
               "Z4 factor routes to the small-s branch, and bad parities "
               "are rejected with diagnostics")


def test_criterion_7_obstruction_consistency():
    corpus = {
        "P4": path(4),
        "K2": complete(2),
        "K4": complete(4),
        "C4": cycle(4),
        "C5": cycle(5),
        "S3": star(3),
        "S4": star(4),
        "W4": join(cycle(4), complete(1)),
    }
    obstructed = 0
    for name, g in corpus.items():
        assert g.n <= 6
        found = (obstruction_two_universal(g) is not None
                 or obstruction_shared_neighborhood(g) is not None)
        obstructed += found
        for group in enumerate_abelian_groups(g.n):
            pruned = search_labelings(g, group, COUNT)
            naive = search_labelings(g, group, COUNT_NAIVE)
            assert pruned == naive, (name, str(group))
            if found:
                assert pruned == 0, (name, str(group))
    assert obstructed >= 3  # P4, K2, K4 at minimum
    _passed(7, f"{obstructed} obstructed corpus graphs have zero labelings "
               "over every group of matching order; pruned and naive counts "
               "agree on the whole corpus")


def _criteria_2_to_6_reports():
    kmm8 = complete_minus_matching(8)
    kmm6 = graph_power(cycle(6), 2)
    reports = [
        label_matching_join_graph(
            join(complete_minus_matching(n - 1), complete(1)), P(spec))
        for n, spec in ((5, "Z5"), (9, "Z9"), (9, "Z3xZ3"), (15, "Z3xZ5"))
    ]
    reports += [
        label_lex_c4k2(complete(2), kmm6, P("Z6xZ2")),
        label_lex_c4k2(cycle(3), kmm6, P("Z6xZ3")),
        label_dir_c4k2(complete(4), kmm6, P("Z6xZ4")),
        label_dir_c4k2(cycle(6), kmm6, P("Z6xZ6")),
        label_lex_balanced_pow2(path(3), cycle(4), P("Z2xZ6"), 1),
        label_lex_balanced_pow2(complete(4), cycle(4), P("Z4xZ4"), 2),
        label_lex_balanced_pow2(cycle(3), kmm8, P("Z8xZ3"), 3),
        label_dir_balanced_pow2(cycle(4), cycle(4), P("Z2xZ8"), 1),
        label_lex_even_degrees(cycle(3), cycle(4), P("Z4xZ3")),
        label_lex_kmn_mixed(complete_bipartite(2, 3), cycle(4), P("Z4xZ5")),
        auto_label(complete_bipartite(2, 3), cycle(4), "lex", P("Z2xZ2xZ5")),
    ]
    return reports


def negate_labeling(g, labeling):
    """Negate every label; the magic constant is negated too.

    Requires a group with at least one non-involution non-identity element,
    otherwise negation is the identity map and produces nothing new.
    """
    mu = verify(g, labeling)
    if mu is None:
        raise LabelingError("labeling is not magic; nothing to negate")
    grp = labeling.group
    if all(f == 2 for f in grp.canonical_factors()):
        raise LabelingError(
            f"every non-identity element of {grp} is an involution; "
            "negation is the identity map")
    negated = tuple(grp.neg(x) for x in labeling.assignment)
    return Labeling(grp, negated, grp.neg(mu))


def test_negate_labeling():
    z4, z5, z22 = P("Z4"), P("Z5"), P("Z2xZ2")
    c4 = cycle(4)
    lab = Labeling(z4, ((1,), (0,), (2,), (3,)))
    negated = negate_labeling(c4, lab)
    assert negated.assignment == ((3,), (0,), (2,), (1,))
    assert verify(c4, negated) == (1,)
    assert negated.magic_constant == (1,)
    assert negated.assignment != lab.assignment

    # odd order: negation fixes only the identity
    wheel = join(complete_minus_matching(4), complete(1))
    lab5 = Labeling(z5, ((1,), (4,), (2,), (3,), (0,)))
    negated5 = negate_labeling(wheel, lab5)
    fixed = [v for v in range(5)
             if negated5.assignment[v] == lab5.assignment[v]]
    assert fixed == [4]  # the vertex labeled 0

    with pytest.raises(LabelingError):
        negate_labeling(cycle(4), Labeling(z22, tuple(z22.elements())))
    with pytest.raises(LabelingError):
        negate_labeling(c4, Labeling(z4, ((0,), (1,), (2,), (3,))))  # not magic


def test_criterion_8_negation():
    negated = 0
    for rep in _criteria_2_to_6_reports():
        group = rep.labeling.group
        if all(f == 2 for f in group.canonical_factors()):
            continue
        flipped = negate_labeling(rep.graph, rep.labeling)
        assert flipped.magic_constant == group.neg(rep.predicted_mu)
        assert verify(rep.graph, flipped) == group.neg(rep.predicted_mu)
        negated += 1
    assert negated == len(_criteria_2_to_6_reports())

    # boundary: a labeling over an elementary abelian 2-group cannot negate
    rep = label_lex_balanced_pow2(cycle(4), cycle(4), P("Z2xZ2xZ2xZ2"), 1)
    try:
        negate_labeling(rep.graph, rep.labeling)
        raise AssertionError("expected the involution-only group to reject")
    except Exception as exc:
        assert "involution" in str(exc)
    _passed(8, f"negation flips the constant on all {negated} collected "
               "constructions and rejects involution-only groups")


def test_criterion_9_oracle_equivalence():
    wheel = join(complete_minus_matching(4), complete(1))
    cases = [
        (cycle(4), "Z4", 16),
        (cycle(4), "Z2xZ2", 24),
        (star(3), "Z4", 12),
        (star(3), "Z2xZ2", 24),
        (path(4), "Z4", 0),
        (star(5), "Z2xZ3", 0),
        (wheel, "Z5", 8),
    ]
    for g, spec, frozen in cases:
        group = P(spec)
        pruned = search_labelings(g, group, COUNT)
        naive = search_labelings(g, group, COUNT_NAIVE)
        assert pruned == naive == frozen, (spec, pruned, naive, frozen)
    _passed(9, "pruned and naive labeling counts agree (and match the "
               f"frozen values) on all {len(cases)} benchmark pairs")
