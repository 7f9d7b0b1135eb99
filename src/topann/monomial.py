"""Exact arithmetic on monomials and monomial ideals of a polynomial ring.

Variables are indexed 1..d; a monomial is its exponent vector.  Ideals are
kept in canonical form: the unique minimal generating set, sorted, so that
structural equality is ideal equality.

A squarefree support (a set of variables) is also an int bitmask, with bit
v - 1 set for variable v, a plain int in 1..d (no bool or float).  The layout
is defined here once: `Monomial.mask`, `mask_varset`, `_BYTE_BITS`, the
exponents of the eight variables of each byte value, from which `_squarefree`
builds a squarefree monomial a byte at a time, and `varset_mask(varset,
ambient)`, the one checked conversion of a set of variables, which every
public entry that takes such a set calls.  Here `_antichain` tests
divisibility on masks first, and `_prime_meet` meets monomial primes on masks
alone: it is the one kernel of intersections and of minimal transversals, of
`_prime_ideal`, which meets primes kept as masks inside the library, and of
the minimal primes, dimensions and meet check of `stanley_reisner`.

The public constructors check their input: `Monomial(...)` its exponents and
`MonomialIdeal(...)` that its generators are a sorted antichain.  Results that
are valid by construction skip those checks: `_trusted` builds a `Monomial`
from the exponents of a monomial operation, and `_canonical` builds a
`MonomialIdeal` from generators that are already canonical.  `_canonical` has
three callers, each of which states why its output is canonical: `minimalize`,
`_prime_ideal` and `variable_ideal`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, product
from typing import Iterable

from .errors import InvalidInputError, as_tuple

VarSet = frozenset[int]


@dataclass(frozen=True, order=True)
class Monomial:
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.exponents, tuple):
            object.__setattr__(self, "exponents", as_tuple(self.exponents, "exponents"))
        if not all(type(e) is int and e >= 0 for e in self.exponents):  # no bool or float
            raise InvalidInputError("monomial exponents must be nonnegative ints")

    @classmethod
    def identity(cls, ambient: int) -> Monomial:
        return cls((0,) * ambient)

    @property
    def ambient(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def is_identity(self) -> bool:
        return self.degree == 0

    @cached_property
    def mask(self) -> int:
        """The support as a variable bitmask: bit v - 1 set when exponent v is nonzero."""
        m = 0
        for i, e in enumerate(self.exponents):
            if e:
                m |= 1 << i
        return m

    def support(self) -> VarSet:
        return mask_varset(self.mask)

    def divides(self, other: Monomial) -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: Monomial) -> Monomial:
        return _trusted(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def lcm(self, other: Monomial) -> Monomial:
        return _trusted(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def gcd(self, other: Monomial) -> Monomial:
        return _trusted(tuple(min(a, b) for a, b in zip(self.exponents, other.exponents)))

    def power(self, n: int) -> Monomial:
        if type(n) is not int or n < 0:  # no bool or float
            raise InvalidInputError("monomial power requires an int n >= 0")
        return Monomial(tuple(n * e for e in self.exponents))

    def squarefree_part(self) -> Monomial:
        return _trusted(tuple(min(e, 1) for e in self.exponents))

    def is_squarefree(self) -> bool:
        """No exponent above 1: the degree is the number of variables in the support."""
        return sum(self.exponents) == self.mask.bit_count()

    def pretty(self, names: list[str] | None = None) -> str:
        if names is None:
            names = default_names(self.ambient)
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(names[i])
            elif e > 1:
                parts.append(f"{names[i]}^{e}")
        return "·".join(parts) if parts else "1"


def _trusted(exponents: tuple[int, ...]) -> Monomial:
    """A Monomial from a tuple of nonnegative ints, skipping the checks of
    `__post_init__`: for results of monomial operations on valid monomials."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "exponents", exponents)
    return m


# the exponents of variables 8k + 1 .. 8k + 8 when byte k of a mask is b;
# `product` counts in binary with the high bit first
_BYTE_BITS = [bits[::-1] for bits in product((0, 1), repeat=8)]


def _squarefree(mask: int, ambient: int) -> Monomial:
    """The squarefree monomial with support `mask`, its `mask` already set.

    The exponents are the `_BYTE_BITS` of each byte of the mask, cut to the
    ambient; `mask` must hold no bit past the ambient.
    """
    exponents: tuple[int, ...] = ()
    for shift in range(0, ambient, 8):
        exponents += _BYTE_BITS[mask >> shift & 255]
    m = _trusted(exponents[:ambient])
    m.__dict__["mask"] = mask
    return m


def varset_mask(varset: Iterable[int], ambient: int) -> int:
    """The variable bitmask of a set of variables (bit v - 1 for variable v), each
    a plain int in 1..ambient: a bool, a float or any other member is refused."""
    m = 0
    for v in varset:
        if type(v) is not int or not 1 <= v <= ambient:
            raise InvalidInputError(f"variable index {v!r} out of range 1..{ambient}")
        m |= 1 << (v - 1)
    return m


def mask_varset(mask: int) -> VarSet:
    """The set of variables of a variable bitmask; inverse of `varset_mask`."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def subset_unions(masks: list[int]) -> list[int]:
    """The union of masks[k] over the bits k of G, at index G, for every G."""
    unions = [0]
    for m in masks:
        unions += [u | m for u in unions]
    return unions


def default_names(ambient: int) -> list[str]:
    return [f"u{i}" for i in range(1, ambient + 1)]


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in canonical form: minimal generators, sorted.

    The zero ideal has no generators; the unit ideal has the identity
    monomial as its only generator.
    """

    ambient: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if type(self.ambient) is not int or self.ambient < 0:  # no bool or float
            raise InvalidInputError(f"ambient {self.ambient!r} is not a nonnegative int")
        if not isinstance(self.gens, tuple):
            object.__setattr__(self, "gens", as_tuple(self.gens, "generators"))
        for g in self.gens:
            if not isinstance(g, Monomial):
                raise InvalidInputError(f"generator {g!r} is not a Monomial")
            if g.ambient != self.ambient:
                raise InvalidInputError(
                    f"generator of ambient {g.ambient} in ideal of ambient {self.ambient}"
                )
        if len(_antichain(self.gens)) != len(self.gens):
            raise InvalidInputError("generators are not a divisibility antichain")
        if list(self.gens) != sorted(self.gens, reverse=True):
            raise InvalidInputError("generators are not in canonical order")

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_identity()

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def __contains__(self, m: Monomial) -> bool:
        if m.ambient != self.ambient:
            raise InvalidInputError("ambient dimension mismatch")
        return any(g.divides(m) for g in self.gens)

    def pretty(self, names: list[str] | None = None) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(g.pretty(names) for g in self.gens) + ")"


def _canonical(ambient: int, gens: tuple[Monomial, ...]) -> MonomialIdeal:
    """A MonomialIdeal skipping the checks of `__post_init__`: `gens` must be
    a divisibility antichain of monomials of the given ambient, sorted in
    descending order, as the caller's construction guarantees."""
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "ambient", ambient)
    object.__setattr__(ideal, "gens", gens)
    return ideal


def _antichain(gens: Iterable[Monomial]) -> list[Monomial]:
    """The divisibility-minimal elements of `gens`, each once.

    A proper divisor has a smaller degree, so walking by degree only the
    monomials already kept can divide the current one.  A kept monomial whose
    support is not inside the current support cannot divide it; a squarefree
    one whose support is inside does.
    """
    kept: list[tuple[int, tuple[int, ...] | None]] = []
    out = []
    for g in sorted(gens, key=lambda m: sum(m.exponents)):
        exps = g.exponents
        mask = g.mask
        for hm, hexps in kept:
            if hm & ~mask == 0 and (
                hexps is None or all(a <= b for a, b in zip(hexps, exps))
            ):
                break
        else:
            kept.append((mask, exps if max(exps, default=0) > 1 else None))
            out.append(g)
    return out


def minimalize(gens: Iterable[Monomial], ambient: int) -> MonomialIdeal:
    """Canonical ideal generated by `gens`: the divisibility antichain, sorted.

    Every generator is checked to have the given ambient; `_antichain` and the
    sort then make the result canonical, and the identity alone is the unit
    ideal.
    """
    pool = set()
    for g in gens:
        if g.ambient != ambient:
            raise InvalidInputError(
                f"generator of ambient {g.ambient}, expected {ambient}"
            )
        if g.is_identity():
            return _canonical(ambient, (g,))
        pool.add(g)
    return _canonical(ambient, tuple(sorted(_antichain(pool), reverse=True)))


def _check_same_ambient(*ideals: MonomialIdeal) -> int:
    d = ideals[0].ambient
    if any(i.ambient != d for i in ideals):
        raise InvalidInputError("ideals live in different ambient rings")
    return d


def ideal_sum(first: MonomialIdeal, *rest: MonomialIdeal) -> MonomialIdeal:
    d = _check_same_ambient(first, *rest)
    gens: list[Monomial] = list(first.gens)
    for ideal in rest:
        gens.extend(ideal.gens)
    return minimalize(gens, d)


def _prime_meet(pmasks: Iterable[int]) -> list[int]:
    """The generator supports of the intersection of monomial primes, as masks.

    Each prime is the mask of its variables.  Meeting the antichain with p
    keeps each support that meets p and grows every other support s by each
    variable v of p.  The grown s | v are an antichain and never lie under a
    kept support (s misses p), so the only redundant ones are those over a
    kept support, which must hold v.  The supports are thus an antichain at
    every step.  No prime gives [0], the unit ideal; the zero prime gives [],
    the zero ideal.
    """
    supports = [0]
    for pmask in pmasks:
        kept = [s for s in supports if s & pmask]
        grown = []
        for s in supports:
            if s & pmask:
                continue
            rest = pmask
            while rest:
                low = rest & -rest
                rest ^= low
                g = s | low
                if not any(t & ~g == 0 for t in kept if t & low):
                    grown.append(g)
        supports = kept + grown
    return supports


def prime_intersection(primes: Iterable[Iterable[int]], ambient: int) -> MonomialIdeal:
    """The intersection of the monomial primes (x_v : v in p) over `primes`,
    equal to that of their `variable_ideal`s: the `_prime_ideal` of their masks."""
    return _prime_ideal([varset_mask(p, ambient) for p in primes], ambient)


def _prime_ideal(pmasks: Iterable[int], ambient: int) -> MonomialIdeal:
    """The intersection of the monomial primes with variable bitmasks `pmasks`, no
    bit past the ambient: the supports `_prime_meet` gives are an antichain, so
    sorting their squarefree monomials makes the result canonical."""
    gens = [_squarefree(s, ambient) for s in _prime_meet(pmasks)]
    gens.sort(key=lambda m: m.exponents, reverse=True)
    return _canonical(ambient, tuple(gens))


def power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I^n as the minimalized set of n-fold products of generators."""
    if type(n) is not int or n < 1:  # no bool or float
        raise InvalidInputError("ideal power requires an int n >= 1")
    products = []
    for combo in combinations_with_replacement(ideal.gens, n):
        prod = combo[0]
        for g in combo[1:]:
            prod = prod * g
        products.append(prod)
    return minimalize(products, ideal.ambient)


def radical(ideal: MonomialIdeal) -> MonomialIdeal:
    """Radical of a monomial ideal: minimalized squarefree parts of generators.

    A squarefree ideal is its own radical and comes back unchanged.
    """
    if ideal.is_squarefree():
        return ideal
    return minimalize((g.squarefree_part() for g in ideal.gens), ideal.ambient)


def variable_ideal(varset: Iterable[int], ambient: int) -> MonomialIdeal:
    """The monomial prime generated by the given variables; empty set gives (0).

    Distinct variables are an antichain, and in ascending index order (the
    mask's bits from low to high) their monomials are in descending order, so
    the result is canonical.
    """
    rest = varset_mask(varset, ambient)
    gens = []
    while rest:
        low = rest & -rest
        rest ^= low
        gens.append(_squarefree(low, ambient))
    return _canonical(ambient, tuple(gens))
