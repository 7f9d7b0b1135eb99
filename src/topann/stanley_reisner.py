"""Stanley-Reisner dictionary: minimal primes, quotient rings, dimensions, heights.

Inside the library a monomial prime is its variable bitmask (`prime_masks`);
variable sets are built once, for the API.  The minimal primes of a monomial
ideal are the minimal vertex covers of the hypergraph of generator supports.
By Alexander duality these are the generator supports of the intersection of
the primes the edges span, so `monomial._prime_meet`, the one kernel of
intersections, finds them on bitmasks; the ring's check that its primes meet in
J runs it in the other direction.  The supports are those of the ideal's own
generators, with no radical taken: a prime holds a monomial exactly when it
meets the monomial's support, and an edge that contains another edge changes no
minimal transversal, so the radical's antichain of supports has the same
covers.  The faces of the Stanley-Reisner complex of J are the supports of
squarefree monomials outside J; `is_face` is the one test of a bitmask, made
wherever a complex is ranked.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import GuardExceededError, InvalidInputError
from .monomial import (
    MonomialIdeal,
    VarSet,
    _prime_meet,
    mask_varset,
    radical,
    varset_mask,
)

MINIMAL_PRIMES_GUARD = 20  # at most 24, the width `_size_members_key` orders


def _transversals(edges: list[int]) -> list[int]:
    """The inclusion-minimal transversals of the edges (variable bitmasks): their
    `_prime_meet` in order of (size, mask), so small edges cut the antichain first."""
    return _prime_meet(sorted(edges, key=lambda e: (e.bit_count(), e)))


def _min_cover_size(edges: list[int]) -> int:
    """The fewest vertices that meet every edge, 0 for no edges.  For the
    generator supports of an ideal it is the ideal's height."""
    return min(map(int.bit_count, _transversals(edges)))


def is_face(vmask: int, j_masks: list[int]) -> bool:
    """Is vmask a Stanley-Reisner face: does it hold none of the supports j_masks?"""
    return all(jm & ~vmask for jm in j_masks)


def guard_ambient(ambient: int) -> None:
    """Refuse an ambient dimension past `MINIMAL_PRIMES_GUARD`.

    Every ring needs its minimal primes, so a caller that learns the ambient
    dimension calls this before it builds anything of that length.
    """
    if ambient > MINIMAL_PRIMES_GUARD:
        raise GuardExceededError(
            f"minimal prime enumeration: ambient {ambient} exceeds the guard "
            f"{MINIMAL_PRIMES_GUARD}"
        )


# each byte value with its eight bits in reverse order
_BYTE_REVERSED = [int(f"{b:08b}"[::-1], 2) for b in range(256)]


def _size_members_key(t: int) -> tuple[int, int]:
    """A sort key of masks of at most 24 variables, in the order of (size,
    sorted members).  Of two sets of one size, the first by members holds the
    lowest variable of their symmetric difference, which is its highest bit
    once the bits are reversed, so the key negates the reversed mask."""
    rev = _BYTE_REVERSED
    return t.bit_count(), -(rev[t & 255] << 16 | rev[t >> 8 & 255] << 8 | rev[t >> 16])


def _sorted_primes(ideal: MonomialIdeal) -> tuple[tuple[VarSet, ...], tuple[int, ...]]:
    """The minimal primes over a proper ideal, sorted by (size, members), as
    variable sets and as masks; the unit ideal is refused, then the guard applies."""
    if ideal.is_unit():
        raise InvalidInputError("the unit ideal has no minimal primes")
    guard_ambient(ideal.ambient)
    masks = _transversals([g.mask for g in ideal.gens])
    masks.sort(key=_size_members_key)
    return tuple(map(mask_varset, masks)), tuple(masks)


def minimal_primes(ideal: MonomialIdeal) -> tuple[VarSet, ...]:
    """Minimal monomial primes over a proper ideal, sorted by (size, members).

    They are the minimal transversals of the generators' supports.  The
    radical would give the same covers: its supports are the inclusion-minimal
    ones among these, and an edge over another edge is met by every set that
    meets the smaller one.  The zero ideal returns the zero prime, written as
    the empty variable set.
    """
    return _sorted_primes(ideal)[0]


def krull_dim(ideal: MonomialIdeal) -> int:
    """dim S/I for proper I: ambient minus the smallest size of a minimal prime.

    That size is `_min_cover_size` of the generators' supports as bitmasks,
    with no sorted list of primes and no radical: as in `minimal_primes`, the
    supports that lie over others change no transversal.  Errors on the unit
    ideal, then past `MINIMAL_PRIMES_GUARD`.
    """
    if ideal.is_unit():
        raise InvalidInputError("the zero ring has no Krull dimension")
    guard_ambient(ideal.ambient)
    return ideal.ambient - _min_cover_size([g.mask for g in ideal.gens])


@dataclass(frozen=True)
class QuotientRing:
    """R = S/J for a squarefree proper monomial ideal J, with cached minimal primes.

    Since J is radical, the minimal primes are the associated primes and the
    primary decomposition of 0 in R is the intersection of those primes.
    """

    ambient: int
    relations: MonomialIdeal
    minimal_primes: tuple[VarSet, ...] = field(init=False)
    prime_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)  # same order

    def __post_init__(self) -> None:
        if self.relations.ambient != self.ambient:
            raise InvalidInputError("relations ideal has the wrong ambient dimension")
        if not self.relations.is_squarefree():
            raise InvalidInputError("quotient ring requires a squarefree ideal")
        if self.relations.is_unit():
            raise InvalidInputError("quotient by the unit ideal is the zero ring")
        primes, masks = _sorted_primes(self.relations)
        # J is squarefree, so it equals the intersection exactly when the two
        # antichains of supports are the same set
        if set(_prime_meet(masks)) != {g.mask for g in self.relations.gens}:
            raise InvalidInputError("minimal primes do not intersect to the ideal")
        object.__setattr__(self, "minimal_primes", primes)
        object.__setattr__(self, "prime_masks", masks)

    @cached_property
    def dim(self) -> int:
        return self.ambient - min(map(int.bit_count, self.prime_masks))

    def require_support(self, q: Iterable[int]) -> int:
        """The `varset_mask` of q, which must lie over a minimal prime of the ring."""
        qmask = varset_mask(q, self.ambient)
        if not any(not p & ~qmask for p in self.prime_masks):
            raise InvalidInputError("prime is not in the support of the quotient ring")
        return qmask


@dataclass(frozen=True)
class QuotientIdeal:
    """An ideal of R = S/J given by a lift to S; the ideal is (lift + J)/J."""

    ring: QuotientRing
    lift: MonomialIdeal

    def __post_init__(self) -> None:
        if self.lift.ambient != self.ring.ambient:
            raise InvalidInputError("lift has the wrong ambient dimension")
        if self.lift.is_unit():
            raise InvalidInputError("lift + relations must be a proper ideal")

    @cached_property
    def radical_lift(self) -> MonomialIdeal:
        """radical(lift), computed once per ideal."""
        return radical(self.lift)


def height_in_quotient(a: QuotientIdeal) -> int:
    """Height of (lift+J)/J in R: min over primes q minimal over lift+J of dim R_q.

    dim R_q is the largest |q| - |p| over minimal primes p of J inside q; the
    infimum over the whole support is attained at these monomial primes because
    every chain of monomial primes is realized in some polynomial quotient S/p.
    Neither lift nor J has the generator 1, so lift + J is proper and has a
    minimal prime q; q holds J, so it holds a minimal prime of J.  The q are the
    minimal transversals of the supports of both generator sets, as masks.
    """
    ring = a.ring
    return min(
        max(q.bit_count() - p.bit_count() for p in ring.prime_masks if not p & ~q)
        for q in _transversals([g.mask for g in (*a.lift.gens, *ring.relations.gens)])
    )
