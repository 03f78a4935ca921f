"""Finite abelian groups as direct products of cyclic groups.

A group spec lists the orders of its cyclic factors; an element is a tuple
of residues, one per factor. Elements iterate in mixed-radix lexicographic
order over the residues, so the identity is always element 0 and positional
indexing into the group is well defined. Isomorphism questions go through
the primary decomposition (prime-power factors sorted by prime, then
exponent), which is a complete invariant.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "GroupElement",
    "GroupError",
    "GroupSpec",
    "CyclicFactorSplit",
    "parse_group_spec",
    "involutions",
    "sum_of_elements",
    "cayley_tables",
    "MAX_GROUP_ORDER",
    "enumerate_abelian_groups",
    "find_cyclic_factor",
    "two_power_exponents",
]

GroupElement = tuple[int, ...]


class GroupError(ValueError):
    """Malformed group spec, foreign element, or impossible decomposition."""


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _crt(residues, moduli) -> int:
    """Combine residues modulo pairwise coprime moduli."""
    x, m = 0, 1
    for r, mod in zip(residues, moduli):
        t = ((r - x) * pow(m, -1, mod)) % mod
        x += m * t
        m *= mod
    return x


@dataclass(frozen=True)
class GroupSpec:
    """Additive abelian group Z_f1 x ... x Z_fr; the empty product is trivial."""

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        for f in factors:
            if f < 2:
                raise GroupError(f"cyclic factor must be >= 2, got {f}")
        object.__setattr__(self, "factors", factors)

    # structure ------------------------------------------------------------

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def order_text(self) -> str:
        """The order in decimal; past the int-to-str digit limit, a phrase
        that says so, since such an int cannot be printed."""
        try:
            return str(self.order)
        except ValueError:
            return f"of more than {sys.get_int_max_str_digits()} digits"

    @property
    def arity(self) -> int:
        return len(self.factors)

    def canonical_factors(self) -> tuple[int, ...]:
        """Prime-power factors sorted by (prime, exponent); two specs are
        isomorphic exactly when these tuples agree."""
        return tuple(p ** e for _, p, e in _slots(self))

    def __str__(self) -> str:
        if not self.factors:
            return "trivial"
        return "x".join(f"Z{f}" for f in self.factors)

    # elements -------------------------------------------------------------

    def element(self, coords) -> GroupElement:
        """Coerce a coordinate sequence to a reduced element of this group."""
        g = tuple(map(int, coords))
        if len(g) != len(self.factors):
            raise GroupError(
                f"element arity {len(g)} does not match group {self} "
                f"(arity {self.arity})")
        return tuple(map(int.__mod__, g, self.factors))

    def zero(self) -> GroupElement:
        return (0,) * len(self.factors)

    def _check_arity(self, g: GroupElement) -> None:
        if len(g) != len(self.factors):
            raise GroupError(f"element arity {len(g)} does not match group {self}")

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._check_arity(g)
        self._check_arity(h)
        return tuple((a + b) % f for a, b, f in zip(g, h, self.factors))

    def neg(self, g: GroupElement) -> GroupElement:
        self._check_arity(g)
        return tuple((-a) % f for a, f in zip(g, self.factors))

    def sub(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return self.add(g, self.neg(h))

    def elements(self) -> Iterator[GroupElement]:
        """All elements in mixed-radix lexicographic order (identity first)."""
        return itertools.product(*(range(f) for f in self.factors))

    # text forms -----------------------------------------------------------

    def format_element(self, g: GroupElement) -> str:
        return self.format_elements((g,))[0]

    def format_elements(self, elems, head: str = "") -> list[str]:
        """Each element as "(r1,...,rk)", filled into one %-template of the
        group's arity. A ``head`` such as a certificate's "v %d " goes
        before each, its %d filled with the element's position. ``elems``
        may be any iterable: it is read once."""
        elems = list(elems)
        arity = len(self.factors)
        if not {arity}.issuperset(map(len, elems)):
            for g in elems:
                self._check_arity(g)
        template = head + "(" + ",".join(["%s"] * arity) + ")"
        if not head:
            return list(map(template.__mod__, map(tuple, elems)))
        columns = [[g[k] for g in elems] for k in range(arity)]
        return list(map(template.__mod__, zip(range(len(elems)), *columns)))

    def format_columns(self, columns, head: str = "") -> list[str]:
        """``format_elements`` of the elements given as one sequence per
        coordinate, ``columns[k][i]`` coordinate k of element i; no element
        is built as a tuple. For the trivial group, no column gives its one
        element."""
        if len(columns) != self.arity:
            raise GroupError(f"{len(columns)} label columns for group {self}")
        if not columns:
            return self.format_elements([()], head)
        template = head + "(" + ",".join(["%s"] * self.arity) + ")"
        return list(map(template.__mod__, zip(itertools.count(), *columns)
                        if head else zip(*columns)))

    def parse_element(self, text: str) -> GroupElement:
        """Read "(r1,...,rk)"; each coordinate must already be reduced,
        0 <= ri < fi, so a text form names exactly one element. A
        coordinate is what int() reads, so inner blanks, a leading "+",
        "_" separators and non-ASCII decimal digits pass."""
        t = text.strip()
        if not (t.startswith("(") and t.endswith(")")):
            raise GroupError(f"element must look like (r1,...,rk), got {text!r}")
        inner = t[1:-1].strip()
        try:
            coords = tuple(int(p) for p in inner.split(",")) if inner else ()
        except ValueError:
            raise GroupError(f"bad element coordinates in {text!r}") from None
        self.element(coords)  # raises on a wrong arity
        if not all(0 <= c < f for c, f in zip(coords, self.factors)):
            raise GroupError(
                f"element {t} has a coordinate out of range for "
                f"{self} (each must satisfy 0 <= r < factor)")
        return coords

    def parse_elements(self, texts) -> list[GroupElement]:
        """parse_element over an iterable of texts, read once; raises
        parse_element's message for the first text it refuses."""
        return [self.parse_element(text) for text in texts]


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the grammar Z<int>("x"Z<int>)*, or the word "trivial"."""
    t = text.strip()
    if t == "trivial":
        return GroupSpec(())
    if not t:
        raise GroupError("empty group spec")
    factors = []
    for part in t.split("x"):
        part = part.strip()
        if len(part) < 2 or part[0] != "Z" or not part[1:].isdecimal():
            raise GroupError(
                f"bad group spec {text!r}: expected Z<int>(xZ<int>)* or 'trivial'")
        try:
            f = int(part[1:])
        except ValueError:  # more digits than int() converts
            raise GroupError(
                f"bad group spec: factor of {len(part) - 1} digits is over "
                f"the {sys.get_int_max_str_digits()}-digit limit") from None
        if f < 2:
            raise GroupError(f"bad group spec {text!r}: factor {f} < 2")
        factors.append(f)
    return GroupSpec(tuple(factors))


def involutions(spec: GroupSpec) -> set[GroupElement]:
    """All non-identity g with g = -g; there are 2^t - 1 of them, where t is
    the number of even factors."""
    per_coord = [(0, f // 2) if f % 2 == 0 else (0,) for f in spec.factors]
    out = set()
    for coords in itertools.product(*per_coord):
        if any(coords):
            out.add(coords)
    return out


def sum_of_elements(spec: GroupSpec) -> GroupElement:
    """Sum of all group elements: the involution if it is unique, else zero."""
    invs = involutions(spec)
    if len(invs) == 1:
        return next(iter(invs))
    return spec.zero()


def cayley_tables(spec: GroupSpec) -> tuple[list[list[int]], list[int], int]:
    """The group coded by element index, its position in ``elements()``:
    ``add[a][b]`` is the code of a + b, ``neg[a]`` the code of -a, and the
    third value the code of s(spec).

    Built one cyclic factor at a time on the codes alone: a code is a
    mixed-radix number, last factor least significant, so appending a
    factor f takes (code a, digit y) to a·f + y. The table has order**2
    entries; build it only for small groups.
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


def _partitions_desc(n: int):
    """Integer partitions of n, parts descending, in descending lex order."""
    def rec(m, cap):
        if m == 0:
            yield ()
            return
        for p in range(min(m, cap), 0, -1):
            for rest in rec(m - p, p):
                yield (p,) + rest
    yield from rec(n, n)


# Largest order enumerate_abelian_groups accepts. Factoring is trial
# division up to the square root, so a prime near 10^12 takes about 0.1 s;
# 2^39 (31,185 classes) about 0.5 s and 2^27 * 3^8, the most classes under
# the cap (66,220), about 0.3 s, on a 2-vCPU host.
MAX_GROUP_ORDER = 10**12


def enumerate_abelian_groups(n: int) -> list[GroupSpec]:
    """One spec per isomorphism class of abelian groups of order n, for
    1 <= n <= MAX_GROUP_ORDER.

    The class count is the product, over primes p with p^a || n, of the
    number of partitions of a.
    """
    if n < 1:
        raise GroupError(f"order must be >= 1, got {n}")
    if n > MAX_GROUP_ORDER:
        raise GroupError(f"order {GroupSpec((n,)).order_text()} is over the "
                         "cap of 10^12 (MAX_GROUP_ORDER)")
    if n == 1:
        return [GroupSpec(())]
    per_prime = []
    for p, e in _factorize(n):
        per_prime.append([tuple(p ** part for part in lam)
                          for lam in _partitions_desc(e)])
    specs = []
    for combo in itertools.product(*per_prime):
        factors = tuple(itertools.chain.from_iterable(combo))
        specs.append(GroupSpec(factors))
    return specs


def _slots(spec: GroupSpec) -> list[tuple[int, int, int]]:
    """Prime-power slots of the primary decomposition in canonical order.

    Each slot (user_index, prime, exponent) carries the residue of user
    coordinate `user_index` modulo prime**exponent.
    """
    slots = []
    for idx, f in enumerate(spec.factors):
        for p, e in _factorize(f):
            slots.append((idx, p, e))
    slots.sort(key=lambda s: (s[1], s[2], s[0]))
    return slots


@dataclass(frozen=True)
class CyclicFactorSplit:
    """Witness of an isomorphism group ~ Z_d x complement.

    `to_pair` maps a group element to its (z, a) image; `from_pair` inverts.
    Both directions are additive, so labelings may be built in split
    coordinates and shipped in the user's coordinates.
    """

    group: GroupSpec
    d: int
    complement: GroupSpec
    selected: tuple[tuple[int, int, int], ...]
    rest: tuple[tuple[int, int, int], ...]

    def to_pair(self, g: GroupElement) -> tuple[int, GroupElement]:
        g = self.group.element(g)
        residues = [g[idx] % (p ** e) for idx, p, e in self.selected]
        moduli = [p ** e for _, p, e in self.selected]
        z = _crt(residues, moduli)
        a = tuple(g[idx] % (p ** e) for idx, p, e in self.rest)
        return z, a

    @functools.cached_property
    def _images(self) -> tuple[list[int], list[tuple[int, int]]]:
        """The images from_pair's additive map is fixed by: that of (1, 0)
        as a coordinate list, and per complement unit e_k its one non-zero
        coordinate as (index, value). A slot's unit in Z_f is the residue
        that is 1 mod its prime power q and 0 mod f / q."""
        factors = self.group.factors

        def unit(idx: int, p: int, e: int) -> int:
            q = p ** e
            m = factors[idx] // q
            return m * pow(m, -1, q) % factors[idx]

        one = [0] * len(factors)
        for idx, p, e in self.selected:
            one[idx] = (one[idx] + unit(idx, p, e)) % factors[idx]
        return one, [(idx, unit(idx, p, e)) for idx, p, e in self.rest]

    def from_pair(self, z: int, a: GroupElement) -> GroupElement:
        return self.from_pairs((z,), (self.complement.element(a),))[0]

    def from_pairs(self, zs, as_) -> list[GroupElement]:
        """from_pair over columns: the image of (zs[i], as_[i]) for every i,
        the columns of ``from_pair_columns`` zipped into elements."""
        return list(zip(*self.from_pair_columns(zs, as_)))

    def from_pair_columns(self, zs, as_) -> list[list[int]]:
        """The images of ``from_pairs`` as one list per coordinate: list k
        holds coordinate k of every image, z * one[k] plus r * u for each
        complement coordinate r whose unit u lands on factor k, reduced mod
        the factor once. A complement coordinate need not be reduced: u is
        0 mod f / q, so r * u mod f depends only on r mod q. Each argument
        may be any iterable: it is read once."""
        zs, as_ = list(zs), list(as_)
        arity = self.complement.arity
        if not {arity}.issuperset(map(len, as_)):
            for a in as_:
                self.complement.element(a)  # raises on a wrong arity
        one, units = self._images
        a_columns = [[a[j] for a in as_] for j in range(arity)]
        columns = []
        for k, (c, f) in enumerate(zip(one, self.group.factors)):
            column = [z * c for z in zs]
            for r_column, (idx, u) in zip(a_columns, units):
                if idx == k:
                    column = [x + r * u for x, r in zip(column, r_column)]
            columns.append([x % f for x in column])
        return columns


def find_cyclic_factor(spec: GroupSpec, d: int) -> Optional[CyclicFactorSplit]:
    """Split off a cyclic direct factor of order d, if one exists.

    Succeeds exactly when the primary decomposition of the group contains
    every prime-power factor of d (with multiplicity); the complement is
    what remains.
    """
    if d < 2:
        raise GroupError(f"cyclic factor order must be >= 2, got {d}")
    if spec.order % d:
        return None
    slots = _slots(spec)
    used: set[int] = set()
    chosen = []
    for p, e in _factorize(d):
        for si, (idx, sp, se) in enumerate(slots):
            if si not in used and sp == p and se == e:
                used.add(si)
                chosen.append((idx, sp, se))
                break
        else:
            return None
    rest = tuple(s for si, s in enumerate(slots) if si not in used)
    complement = GroupSpec(tuple(p ** e for _, p, e in rest))
    return CyclicFactorSplit(spec, d, complement, tuple(chosen), rest)


def two_power_exponents(spec: GroupSpec) -> list[int]:
    """Ascending exponents e such that Z_{2^e} is a direct factor."""
    return sorted({e for _, p, e in _slots(spec) if p == 2})
