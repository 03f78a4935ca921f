import functools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from gdmagic.abelian import (
    GroupError,
    GroupSpec,
    enumerate_abelian_groups,
    find_cyclic_factor,
    involutions,
    parse_group_spec,
    sum_of_elements,
    two_power_exponents,
)


def test_parse_group_spec():
    assert parse_group_spec("Z4xZ3").factors == (4, 3)
    assert parse_group_spec("Z2xZ2xZ5").factors == (2, 2, 5)
    assert parse_group_spec("trivial").factors == ()
    assert parse_group_spec(" Z6 ").factors == (6,)


@pytest.mark.parametrize("bad", ["Z1", "", "Z", "4", "Z4x", "Z4xX3", "Z-3", "z4"])
def test_parse_group_spec_rejects(bad):
    with pytest.raises(GroupError):
        parse_group_spec(bad)


def test_spec_rejects_small_factor():
    with pytest.raises(GroupError):
        GroupSpec((1,))


def test_arithmetic():
    g = parse_group_spec("Z4xZ3")
    assert g.add((3, 2), (2, 2)) == (1, 1)
    assert g.neg((1, 2)) == (3, 1)
    assert g.zero() == (0, 0)
    assert g.sub((0, 0), (1, 2)) == (3, 1)
    for elem in g.elements():
        assert functools.reduce(g.add, [elem] * 12, g.zero()) == (0, 0)


def test_arity_mismatch():
    g = parse_group_spec("Z4xZ3")
    with pytest.raises(GroupError):
        g.add((1,), (2, 2))
    with pytest.raises(GroupError):
        g.element((1, 2, 3))


def test_element_order_and_indexing():
    g = parse_group_spec("Z2xZ3")
    elems = list(g.elements())
    assert elems[0] == g.zero()
    assert elems == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_element_text_round_trip():
    g = parse_group_spec("Z4xZ3")
    assert g.format_element((3, 0)) == "(3,0)"
    assert g.parse_element("(3,0)") == (3, 0)
    assert g.parse_element(" ( 3 , 0 ) ") == (3, 0)
    t = GroupSpec(())
    assert t.format_element(()) == "()"
    assert t.parse_element("()") == ()
    with pytest.raises(GroupError):
        g.parse_element("3,0")
    with pytest.raises(GroupError):
        g.parse_element("(3)")


@pytest.mark.parametrize("text", ["(4,0)", "(0,3)", "(-1,0)", "(3,-2)"])
def test_parse_element_rejects_unreduced_coordinates(text):
    with pytest.raises(GroupError, match=r"out of range"):
        parse_group_spec("Z4xZ3").parse_element(text)


def cayley_tables(spec: GroupSpec) -> tuple[list[list[int]], list[int], int]:
    """The group coded by element index, its position in ``elements()``:
    ``add[a][b]`` is the code of a + b, ``neg[a]`` the code of -a, and the
    third value the code of s(spec); the reference arithmetic of
    ``_parent_search`` in test_solver.

    Built one cyclic factor at a time on the codes alone: a code is a
    mixed-radix number, last factor least significant, so appending a
    factor f takes (code a, digit y) to a·f + y.
    """
    add, neg = [[0]], [0]
    for f in spec.factors:
        shifts = [[(y + z) % f for z in range(f)] for y in range(f)]
        add = [[c + w for c in scaled for w in shift]
               for scaled in ([a * f for a in row] for row in add)
               for shift in shifts]
        neg = [a * f + (-y) % f for a in neg for y in range(f)]
    s = 0
    for x, f in zip(sum_of_elements(spec), spec.factors):
        s = s * f + x
    return add, neg, s


@pytest.mark.parametrize("spec", list(dict.fromkeys(
    ["Z4xZ3", "Z2xZ6", "Z3xZ2xZ2", "Z2xZ4xZ2"]
    + [str(g) for n in range(1, 17) for g in enumerate_abelian_groups(n)])))
def test_cayley_tables_match_arithmetic(spec):
    """Every group of order at most 16, and some with their factors in
    other orders. The tables are the reference arithmetic of the parent
    search in test_solver, which checks the pruned search against it."""
    g = parse_group_spec(spec)
    elems = list(g.elements())
    add, neg, s = cayley_tables(g)
    for a, x in enumerate(elems):
        assert elems[neg[a]] == g.neg(x)
        assert [elems[c] for c in add[a]] == [g.add(x, y) for y in elems]
    assert elems[s] == sum_of_elements(g)


def test_involutions():
    assert involutions(parse_group_spec("Z5")) == set()
    assert involutions(parse_group_spec("Z4")) == {(2,)}
    assert involutions(parse_group_spec("Z2xZ4")) == {(0, 2), (1, 0), (1, 2)}


def test_involution_count_formula():
    for n in range(1, 33):
        for spec in enumerate_abelian_groups(n):
            t = sum(1 for f in spec.factors if f % 2 == 0)
            assert len(involutions(spec)) == 2 ** t - 1


def test_sum_of_elements_examples():
    assert sum_of_elements(parse_group_spec("Z6")) == (3,)
    assert sum_of_elements(parse_group_spec("Z2xZ2")) == (0, 0)
    assert sum_of_elements(parse_group_spec("Z7")) == (0,)


def test_sum_of_elements_matches_fold():
    for n in range(1, 25):
        for spec in enumerate_abelian_groups(n):
            total = spec.zero()
            for elem in spec.elements():
                total = spec.add(total, elem)
            assert sum_of_elements(spec) == total


def test_order_annihilates():
    for n in range(1, 65):
        for spec in enumerate_abelian_groups(n):
            for elem in spec.elements():
                multiple = functools.reduce(spec.add, [elem] * spec.order,
                                            spec.zero())
                assert multiple == spec.zero()


def _partition_count(n):
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def _prime_exponents(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_enumerate_abelian_groups_examples():
    assert [str(s) for s in enumerate_abelian_groups(8)] == [
        "Z8", "Z4xZ2", "Z2xZ2xZ2"]
    assert [str(s) for s in enumerate_abelian_groups(12)] == [
        "Z4xZ3", "Z2xZ2xZ3"]
    assert [str(s) for s in enumerate_abelian_groups(1)] == ["trivial"]
    with pytest.raises(GroupError):
        enumerate_abelian_groups(0)


def test_enumerate_abelian_groups_counts_and_distinctness():
    for n in range(1, 65):
        specs = enumerate_abelian_groups(n)
        expected = 1
        for exp in _prime_exponents(n).values():
            expected *= _partition_count(exp)
        assert len(specs) == expected
        canon = {s.canonical_factors() for s in specs}
        assert len(canon) == len(specs)
        assert all(s.order == n for s in specs)


def test_isomorphism_via_canonical_form():
    assert (parse_group_spec("Z6").canonical_factors()
            == parse_group_spec("Z2xZ3").canonical_factors())
    assert (parse_group_spec("Z4").canonical_factors()
            != parse_group_spec("Z2xZ2").canonical_factors())
    assert parse_group_spec("Z12").canonical_factors() == (4, 3)


def test_find_cyclic_two_factor_examples():
    assert find_cyclic_factor(parse_group_spec("Z8"), 1 << 1) is None
    split = find_cyclic_factor(parse_group_spec("Z2xZ4"), 1 << 2)
    assert split is not None and split.complement.factors == (2,)
    split = find_cyclic_factor(parse_group_spec("Z12"), 1 << 2)
    assert split is not None
    assert (split.complement.canonical_factors()
            == parse_group_spec("Z3").canonical_factors())


def test_find_cyclic_two_factor_iff_canonical_contains():
    for n in range(1, 33):
        for spec in enumerate_abelian_groups(n):
            for s in range(1, 7):
                split = find_cyclic_factor(spec, 1 << s)
                present = (1 << s) in spec.canonical_factors()
                assert (split is not None) == present


def _assert_split_is_isomorphism(spec, split):
    # bijective and additive onto Z_d x complement
    seen = set()
    pairs = {}
    for elem in spec.elements():
        z, a = split.to_pair(elem)
        assert 0 <= z < split.d
        assert split.from_pair(z, a) == elem
        seen.add((z, a))
        pairs[elem] = (z, a)
    assert len(seen) == spec.order
    comp = split.complement
    elems = list(spec.elements())
    for g1 in elems[: min(len(elems), 8)]:
        for g2 in elems[: min(len(elems), 8)]:
            z1, a1 = pairs[g1]
            z2, a2 = pairs[g2]
            zs, as_ = pairs[spec.add(g1, g2)]
            assert zs == (z1 + z2) % split.d
            assert as_ == comp.add(a1, a2)


def test_split_isomorphism_properties():
    for text, d in (("Z12", 4), ("Z2xZ4", 2), ("Z2xZ6", 2), ("Z6xZ2", 6),
                    ("Z4xZ4", 4), ("Z2xZ2xZ5", 2), ("Z6xZ4", 6)):
        spec = parse_group_spec(text)
        split = find_cyclic_factor(spec, d)
        assert split is not None, (text, d)
        assert split.complement.order * d == spec.order
        _assert_split_is_isomorphism(spec, split)


def _from_pair_by_crt(split, z, a):
    """from_pair by its definition: per user factor, the CRT of z modulo
    each selected prime power and of a's coordinates modulo the rest."""
    a = split.complement.element(a)
    per_factor = {}
    for idx, p, e in split.selected:
        per_factor.setdefault(idx, []).append((z % p ** e, p ** e))
    for (idx, p, e), r in zip(split.rest, a):
        per_factor.setdefault(idx, []).append((r % p ** e, p ** e))
    coords = []
    for idx, f in enumerate(split.group.factors):
        x, m = 0, 1
        for r, q in per_factor[idx]:
            x += m * ((r - x) * pow(m, -1, q) % q)
            m *= q
        coords.append(x % f)
    return tuple(coords)


def test_from_pair_matches_crt_definition():
    splits = 0
    for n in range(2, 65):
        for spec in enumerate_abelian_groups(n):
            for d in range(2, n + 1):
                split = find_cyclic_factor(spec, d)
                if split is None:
                    continue
                splits += 1
                comp = split.complement
                for a in comp.elements():
                    for z in range(-d - 1, 2 * d + 1):
                        assert split.from_pair(z, a) == \
                            _from_pair_by_crt(split, z, a), (spec, d, z, a)
                for bad in (comp.zero() + (0,), comp.zero()[1:]):
                    if len(bad) == comp.arity:
                        continue
                    with pytest.raises(GroupError) as got:
                        split.from_pair(0, bad)
                    with pytest.raises(GroupError) as want:
                        comp.element(bad)
                    assert str(got.value) == str(want.value)
    assert splits == 283  # every (group, d) pair the loops visit


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 30), min_size=1, max_size=3)
       .filter(lambda fs: math.prod(fs) <= 1500), st.data())
def test_from_pairs_is_from_pair_by_the_column(factors, data):
    spec = GroupSpec(tuple(factors))
    splits = [split for d in range(2, spec.order + 1)
              if (split := find_cyclic_factor(spec, d)) is not None]
    assert splits  # every prime-power factor splits off
    for split in splits:
        comp = split.complement
        rows = data.draw(st.lists(st.tuples(
            st.integers(-3 * split.d, 3 * split.d),
            st.tuples(*(st.integers(-2 * f, 3 * f) for f in comp.factors))),
            max_size=10))
        zs, as_ = [z for z, _ in rows], [a for _, a in rows]
        images = split.from_pairs(zs, as_)
        assert images == [split.from_pair(z, a) for z, a in rows]
        assert all(type(g) is tuple and {int}.issuperset(map(type, g))
                   for g in images)
        for (z, a), g in zip(rows, images):
            assert split.to_pair(g) == (z % split.d, comp.element(a))


def test_from_pairs_refuses_a_complement_element_of_the_wrong_arity():
    split = find_cyclic_factor(parse_group_spec("Z4xZ6"), 4)
    assert split.complement.factors == (2, 3)
    with pytest.raises(GroupError) as got:
        split.from_pairs([0, 1, 2], [(0, 0), (1, 2, 0), (1,)])
    with pytest.raises(GroupError) as want:
        split.complement.element((1, 2, 0))
    assert str(got.value) == str(want.value)
    assert split.from_pairs([], []) == []


# Coordinates are read by int(), so they may carry blanks around them, a
# sign, "_" between digits and decimal digits of any script; parse_element
# and parse_elements must accept exactly these, no more and no fewer.
@pytest.mark.parametrize("text, element", [
    ("( 1 , 2 )", (1, 2)),
    ("(+1,0)", (1, 0)),
    ("(1_0,0)", (10, 0)),
    ("(-0,+0)", (0, 0)),
    ("(\u0661,\u0662)", (1, 2)),  # Arabic-Indic digits
    ("(\uff11\uff11,2)", (11, 2)),  # fullwidth digits
    (" \t(3,\n1)\u3000", (3, 1)),
    ("(\u00a05\u2003,0)", (5, 0)),  # no-break and em spaces
])
def test_coordinate_forms_int_accepts_parse(text, element):
    group = parse_group_spec("Z12xZ3")
    assert group.parse_element(text) == element
    assert group.parse_elements(["(0,0)", text, "(11,2)"]) == [
        (0, 0), element, (11, 2)]


@pytest.mark.parametrize("text, message", [
    ("(1 0,0)", "bad element coordinates in '(1 0,0)'"),
    ("(1.0,0)", "bad element coordinates in '(1.0,0)'"),
    ("(0x1,0)", "bad element coordinates in '(0x1,0)'"),
    ("(1__0,0)", "bad element coordinates in '(1__0,0)'"),
    ("(_1,0)", "bad element coordinates in '(_1,0)'"),
    ("(++1,0)", "bad element coordinates in '(++1,0)'"),
    ("(,0)", "bad element coordinates in '(,0)'"),
    ("((1),0)", "bad element coordinates in '((1),0)'"),
    ("(1;0)", "bad element coordinates in '(1;0)'"),
    ("(\u00b2,0)", "bad element coordinates in '(\u00b2,0)'"),  # not decimal
    ("(1,0,)", "bad element coordinates in '(1,0,)'"),
    ("(1,0,2)", "element arity 3 does not match group Z12xZ3 (arity 2)"),
    ("()", "element arity 0 does not match group Z12xZ3 (arity 2)"),
    ("( 5 )", "element arity 1 does not match group Z12xZ3 (arity 2)"),
    ("(1_2,0)", "element (1_2,0) has a coordinate out of range for Z12xZ3 "
                "(each must satisfy 0 <= r < factor)"),
    ("1,0", "element must look like (r1,...,rk), got '1,0'"),
    ("(1,0", "element must look like (r1,...,rk), got '(1,0'"),
    ("", "element must look like (r1,...,rk), got ''"),
])
def test_coordinate_forms_int_refuses_are_refused(text, message):
    group = parse_group_spec("Z12xZ3")
    for parse in (group.parse_element,
                  lambda t: group.parse_elements(["(0,0)", t, "(9,x)"])):
        with pytest.raises(GroupError) as info:
            parse(text)
        assert str(info.value) == message


def test_element_text_of_the_trivial_group():
    t = GroupSpec(())
    assert t.parse_elements(["()", " ( \t) "]) == [(), ()]
    assert t.format_elements([(), ()]) == ["()", "()"]
    assert t.format_columns(()) == ["()"]
    assert t.format_columns((), "v %d ") == ["v 0 ()"]
    for bad, message in (("(0)", "element arity 1 does not match group "
                                 "trivial (arity 0)"),
                         ("(,)", "bad element coordinates in '(,)'")):
        with pytest.raises(GroupError) as info:
            t.parse_elements(["()", bad])
        assert str(info.value) == message


def test_format_elements_fills_one_template():
    group = parse_group_spec("Z4xZ3")
    assert group.format_elements([(3, 0), [1, 2]]) == ["(3,0)", "(1,2)"]
    assert group.format_columns([(3, 1), (0, 2)], "v %d ") == [
        "v 0 (3,0)", "v 1 (1,2)"]
    assert group.format_columns([(3, 1), (0, 2)]) == ["(3,0)", "(1,2)"]
    assert group.format_elements([]) == []
    with pytest.raises(GroupError, match="element arity 1 does not match"):
        group.format_elements([(3, 0), (1,)])


def test_bulk_helpers_read_an_iterator_once():
    group = parse_group_spec("Z2xZ3")
    texts = ["(0,1)", "(1,2)"]
    assert group.parse_elements(iter(texts)) == group.parse_elements(texts)
    with pytest.raises(GroupError, match=r"element \(5,2\) has a coordinate "
                                         "out of range"):
        group.parse_elements(iter(["(0,1)", "(5,2)"]))
    elements = list(group.elements())
    assert group.format_elements(group.elements()) == group.format_elements(
        elements)
    assert group.format_columns(list(zip(*group.elements())), "v %d ") == [
        f"v {i} {text}" for i, text in enumerate(
            group.format_elements(elements))]
    split = find_cyclic_factor(parse_group_spec("Z4xZ6"), 4)
    pairs = [(1, 2), (0, 1)]
    assert split.from_pairs(iter([1, 2]), iter(pairs)) == [
        split.from_pair(1, (1, 2)), split.from_pair(2, (0, 1))]


def test_find_cyclic_factor_composite():
    # Z6 x A splits need both a Z2 and a Z3 prime-power factor
    assert find_cyclic_factor(parse_group_spec("Z12"), 6) is None
    split = find_cyclic_factor(parse_group_spec("Z6xZ2"), 6)
    assert split is not None and split.complement.factors == (2,)
    split = find_cyclic_factor(parse_group_spec("Z2xZ9"), 6)
    assert split is None  # 9 is not the prime power 3


def test_two_power_exponents():
    assert two_power_exponents(parse_group_spec("Z12")) == [2]
    assert two_power_exponents(parse_group_spec("Z2xZ4")) == [1, 2]
    assert two_power_exponents(parse_group_spec("Z15")) == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.sampled_from(["Z", "x", "trivial", " ", "-", "z", "X", "\u00b2",
                     "\u0663", "Z4", "xZ"]),
    st.integers(0, 40).map(str),
    st.integers(4301, 4400).map(lambda n: "9" * n)), max_size=8).map("".join))
@example("Z" + "9" * 5000)
@example("Z4xZ" + "1" + "0" * 4300)
@example("Z\u00b2")
def test_parse_group_spec_raises_only_group_errors(text):
    try:
        spec = parse_group_spec(text)
    except GroupError:
        return
    assert parse_group_spec(str(spec)) == spec


def test_enumerate_abelian_groups_order_cap(monkeypatch):
    from gdmagic import abelian

    assert abelian.MAX_GROUP_ORDER == 10**12

    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(abelian, "_factorize", no_factoring)
    for n, shown in ((10**12 + 1, str(10**12 + 1)),
                     (10**18 + 3, str(10**18 + 3)),
                     (10**5000, "of more than 4300 digits")):
        with pytest.raises(GroupError) as info:
            enumerate_abelian_groups(n)
        assert str(info.value) == (
            f"order {shown} is over the cap of 10^12 (MAX_GROUP_ORDER)")
