"""Cohomological dimension via graded Betti numbers and projective dimension.

For a squarefree monomial ideal I in a polynomial ring over a field,
cd(I, S) = pd(S/I) (Lyubeznik).  The graded Betti numbers of S/I sit at the
degrees sigma of the lcm lattice, and each is a reduced homology rank of a
small simplicial complex: the restriction of the Stanley-Reisner complex to
sigma (Hochster), or the crosscut complex of the generators below sigma
(Gasharov-Peeva-Welker), whichever has fewer vertices.  Both are face
families of bitmasks, ranked by `linalg.homology_ranks_of_faces`.

pd needs only the largest i, so `top_betti_degree` searches for it instead of
building the whole table.  Let m be the number of generators below a degree
sigma of the lcm lattice; they join to sigma.  Call sigma Taylor-private when
each of them holds a variable of sigma that none of the others holds.

- A private sigma is settled with no homology: every proper subset of the m
  generators misses a private variable, so its join is not sigma, and the
  crosscut complex at sigma is all of the boundary of the (m-1)-simplex.
  Hence beta_{m, sigma} = 1 over every field, and beta_{i, sigma} = 0 for
  every other i.
- Any other sigma has beta_{i, sigma} = 0 for every i >= min(m, |sigma|).  If
  m <= |sigma|, some generator holds no private variable, so the others join
  to sigma and the crosscut complex misses that facet of the boundary of the
  (m-1)-simplex.  The only (m-2)-cycles on m vertices are the multiples of
  that boundary, which uses every facet, so H~_{m-2} = 0; the crosscut
  complex has no higher faces.  If m > |sigma|, Hochster's H~_{-1} of
  the restriction to sigma is nonzero only when every variable of sigma is a
  generator; those are then all the generators below sigma, so m = |sigma|,
  which contradicts m > |sigma|.

So each degree has a bound on its largest i: m when settled, else
min(m, |sigma|) - 1.  The degrees are taken in descending order of that bound,
settled ones first, and the search stops at the first bound no larger than
the best i found.  A settled degree gives its i = m unranked, and only the
others are ranked.  Every degree left untaken then has no nonzero Betti number
past that i, so the result is pd exactly, together with a degree that attains
it.  The whole table, every degree ranked by the same `_degree_betti`, is
built only in the test oracles (`tests/_oracles.py`), as the reference for the
search.

Most ideals met in practice need no lattice.  If each of the k generators
holds a variable that no other generator holds, the union of the supports is
a private degree with bound k, and every other degree has fewer generators
below it, so Taylor's resolution is minimal (Taylor 1966): pd = k over every
field, attained at sigma = the union.  `_top_betti` answers it in one pass
over the supports and builds the lcm lattice only for the other ideals.

Over a quotient R = S/J, cd is the maximum of cd on the associated prime
quotients, each of which is again a polynomial ring.  On R/p the image of a is
generated by the supports of radical(a) that miss p (`_image_masks`).  Betti
numbers do not see variables no generator holds, so `cd_on_prime` ranks those
masks as they are, with no reindexed ideal.  The grade of the image is its
height in that polynomial ring, the fewest variables that meet every one of
those masks, so `grade_on_prime` reads it from the same masks with the
transversal routine behind `krull_dim`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import GuardExceededError, InvalidInputError
from .linalg import FieldSpec, homology_ranks_of_faces
from .monomial import MonomialIdeal, VarSet, subset_unions
from .stanley_reisner import QuotientIdeal, _min_cover_size, is_face

HOCHSTER_GUARD = 14


def _lcm_support_closure(supports: list[int]) -> set[int]:
    # Betti degrees of a monomial ideal lie in the lcm lattice of the generators
    # (Taylor complex support), so only joins of generator supports matter.
    closure = {0}
    frontier = {0}
    while frontier:
        frontier = {s | sup for s in frontier for sup in supports} - closure
        closure |= frontier
    return closure


def _restricted_faces(sigma: int, below: list[int]) -> list[int]:
    """Faces of the Stanley-Reisner complex inside sigma, as submasks of sigma."""
    faces = []
    sub = sigma
    while True:
        if is_face(sub, below):
            faces.append(sub)
        if not sub:
            return faces
        sub = (sub - 1) & sigma


def _crosscut_faces(sigma: int, below: list[int]) -> list[int]:
    """Sets of generators whose join is not sigma, as generator-index bitmasks;
    the empty set joins to 0."""
    return [g for g, j in enumerate(subset_unions(below)) if j != sigma]


def _degree_betti(sigma: int, below: list[int], field: FieldSpec, crosscut: bool):
    """{i: beta_{i, sigma}(S/I)} from the generator supports `below` that lie in sigma.

    Hochster: beta_{i, sigma} is the reduced homology of the restriction of
    the Stanley-Reisner complex to sigma in dimension |sigma| - i - 1.
    Crosscut (sigma != 0): it is the reduced homology in dimension i - 2 of the
    complex of generator sets whose lcm strictly divides x^sigma, which is
    homotopy equivalent to the open interval below sigma in the lcm lattice.
    """
    if crosscut:
        hom = homology_ranks_of_faces(_crosscut_faces(sigma, below), field)
        return {dim + 2: h for dim, h in hom.items() if h}
    hom = homology_ranks_of_faces(_restricted_faces(sigma, below), field)
    return {sigma.bit_count() - dim - 1: h for dim, h in hom.items() if h}


def _guard_betti(ambient: int) -> None:
    if ambient > HOCHSTER_GUARD:
        raise GuardExceededError(
            f"Betti enumeration: ambient {ambient} exceeds the guard {HOCHSTER_GUARD}"
        )


def _betti_supports(ideal: MonomialIdeal) -> list[int]:
    """The generator supports of a squarefree proper I, after the input checks
    and the ambient guard."""
    if not ideal.is_squarefree():
        raise InvalidInputError("Betti numbers here need a squarefree ideal")
    if ideal.is_unit():
        raise InvalidInputError("Betti numbers of the zero ring are not defined here")
    _guard_betti(ideal.ambient)
    return [g.mask for g in ideal.gens]


def _below(sigma: int, supports: list[int]) -> list[int]:
    """The generator supports inside sigma."""
    return [s for s in supports if not s & ~sigma]


def top_betti_degree(ideal: MonomialIdeal, field: FieldSpec) -> tuple[int, int]:
    """(pd(S/I), sigma) for squarefree proper I, with beta_{pd, sigma} != 0."""
    return _top_betti(_betti_supports(ideal), field)


def _taylor_private(supports: list[int]) -> tuple[int, bool]:
    """(union, private) of the squarefree `supports`: private when each one
    holds a variable that no other one holds (vacuously, when there are none)."""
    once = seen = 0  # variables held by exactly one support, by at least one
    for s in supports:
        once = once & ~s | s & ~seen
        seen |= s
    for s in supports:
        if not s & once:
            return seen, False
    return seen, True


def _search_order(supports: list[int]) -> list[tuple[int, bool, int]]:
    """(-bound, unsettled, sigma) for each degree sigma of the lcm lattice, in
    the order `_top_betti` takes them.  With m supports below sigma, a
    Taylor-private sigma is settled with bound m: beta_{m, sigma} = 1 and no
    other i.  Any other sigma has beta_{i, sigma} = 0 for every
    i > min(m, |sigma|) - 1 (module docstring).  Privacy needs m <= |sigma|,
    and only then is it tested."""
    order = []
    for sigma in _lcm_support_closure(supports):
        below = _below(sigma, supports)
        m, size = len(below), sigma.bit_count()
        if m <= size and _taylor_private(below)[1]:
            order.append((-m, False, sigma))
        else:
            order.append((1 - min(m, size), True, sigma))
    order.sort()
    return order


def _top_betti(supports: list[int], field: FieldSpec) -> tuple[int, int]:
    """(pd, sigma) of the ideal generated by the squarefree `supports`, an antichain.

    When every support holds a variable no other one holds, Taylor's closed
    form answers (k, union) with no lattice (module docstring).  Otherwise the
    degrees of the lcm lattice are taken in `_search_order`: descending bound,
    settled degrees first, ties by sigma.  A Taylor-private degree has bound
    m, the number of supports below it, and gives i = m with no homology:
    every proper subset of those supports misses a private variable, so the
    crosscut complex is the whole boundary of the (m-1)-simplex.  Any other
    degree has bound min(m, |sigma|) - 1 and is ranked, on the supports below
    it listed again: if m <= |sigma|, the crosscut complex misses a facet of
    that boundary, so H~_{m-2} = 0; if m > |sigma|, Hochster's H~_{-1} != 0
    would make the supports below sigma its |sigma| variables.  The search
    stops at the first bound no larger than the best i found; sigma = 0
    (beta_{0, 0} = 1) is the start.
    """
    union, private = _taylor_private(supports)
    if private:
        return len(supports), union
    pd, top = 0, 0
    for neg_bound, unsettled, sigma in _search_order(supports):
        if -neg_bound <= pd:
            break
        if not unsettled:
            return -neg_bound, sigma  # every later bound is at most this one
        below = _below(sigma, supports)
        i = max(_degree_betti(sigma, below, field, len(below) < sigma.bit_count()), default=0)
        if i > pd:
            pd, top = i, sigma
    return pd, top


def _image_masks(a: QuotientIdeal, killed: int) -> list[int]:
    """The supports of radical(lift) that miss the prime's mask `killed` (one
    meeting it is zero in S/prime): the image of the ideal in R/prime, an
    antichain, empty when zero."""
    return [g.mask for g in a.radical_lift.gens if not g.mask & killed]


def _cd_on_mask(a: QuotientIdeal, killed: int, field: FieldSpec) -> int:
    """`cd_on_prime` on the prime's mask, which the caller has checked."""
    supports = _image_masks(a, killed)
    if not supports:
        return 0
    _guard_betti(a.ring.ambient - killed.bit_count())
    return _top_betti(supports, field)[0]


def cd_on_prime(a: QuotientIdeal, prime: Iterable[int], field: FieldSpec) -> int:
    """cd of the ideal acting on R/prime, a polynomial ring on the other variables.

    If the image of the ideal is zero there, the torsion functor fixes
    everything and cd is 0; otherwise cd equals the projective dimension of the
    image's quotient (Lyubeznik's equality for squarefree monomial ideals),
    ranked on `_image_masks`; the Betti guard applies to the d - |prime|
    surviving variables.
    """
    return _cd_on_mask(a, a.ring.require_support(prime), field)


def grade_on_prime(a: QuotientIdeal, prime: Iterable[int]) -> int | None:
    """Grade of the image ideal on R/prime, i.e. its height in that polynomial ring.

    The height is the fewest variables meeting every support of `_image_masks`.
    Returns None when the image is zero (grade undefined on torsion).
    """
    supports = _image_masks(a, a.ring.require_support(prime))
    return _min_cover_size(supports) if supports else None


@dataclass(frozen=True)
class CdReport:
    field: FieldSpec
    c: int
    per_prime: tuple[tuple[VarSet, int], ...]


def cohomological_dimension(a: QuotientIdeal, field: FieldSpec) -> CdReport:
    """cd(a, R) as the maximum of cd over the minimal primes of the relations,
    on the prime masks the ring checked when it found them."""
    ring = a.ring
    per_prime = tuple(
        (p, _cd_on_mask(a, mask, field)) for p, mask in zip(ring.minimal_primes, ring.prime_masks)
    )
    return CdReport(field=field, c=max(v for _, v in per_prime), per_prime=per_prime)
