"""Cohomological dimension via graded Betti numbers and projective dimension.

For a squarefree monomial ideal I in a polynomial ring over a field,
cd(I, S) = pd(S/I) (Lyubeznik).  The graded Betti numbers of S/I sit at the
degrees sigma of the lcm lattice, and each is a reduced homology rank of a
small simplicial complex: the restriction of the Stanley-Reisner complex to
sigma (Hochster), or the crosscut complex of the generators below sigma
(Gasharov-Peeva-Welker), whichever has fewer vertices.  Both are face
families of bitmasks, ranked by `linalg.homology_ranks_of_faces`.

pd needs only the largest i, so `top_betti_degree` searches for it instead of
building the whole table.  If beta_{i, sigma} != 0 then i <= min(m, |sigma|),
where m is the number of generators below sigma.  The crosscut faces omit at
least one of those m generators, since all of them join to sigma, so
H~_{i-2} != 0 needs i - 2 <= m - 2.  Hochster's H~_{|sigma|-i-1} != 0 needs
|sigma| - i - 1 >= -1.  The degrees are ranked in descending order of this
bound, and the search stops at the first bound no larger than the best i found.
Every degree left unranked then has no nonzero Betti number past that i, so the
result is pd exactly, together with a degree that attains it.  `betti_numbers`
still builds the whole table and is the reference for the search.

Over a quotient R = S/J, cd is the maximum of cd on the associated prime
quotients, each of which is again a polynomial ring.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceededError, InvalidInputError
from .linalg import FieldSpec, homology_ranks_of_faces
from .monomial import (
    MonomialIdeal,
    VarSet,
    _canonical,
    _trusted,
    subset_unions,
    varset_mask,
)
from .stanley_reisner import QuotientIdeal, is_face, krull_dim

HOCHSTER_GUARD = 14


@dataclass(frozen=True)
class BettiTable:
    """Nonzero Betti numbers beta_{i, sigma} of S/I, as sorted (i, sigma mask, beta) triples."""

    field: FieldSpec
    ambient: int
    entries: tuple[tuple[int, int, int], ...]

    def projective_dimension(self) -> int:
        return max(i for i, _, _ in self.entries)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, s): v for i, s, v in self.entries}


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


def _lcm_lattice(ideal: MonomialIdeal) -> tuple[list[int], set[int]]:
    """The generator supports of a squarefree proper I and the degrees of its
    lcm lattice, after the input checks and the ambient guard."""
    if not ideal.is_squarefree():
        raise InvalidInputError("Betti numbers here need a squarefree ideal")
    if ideal.is_unit():
        raise InvalidInputError("Betti numbers of the zero ring are not defined here")
    if ideal.ambient > HOCHSTER_GUARD:
        raise GuardExceededError(
            f"Betti enumeration: ambient {ideal.ambient} exceeds the guard {HOCHSTER_GUARD}"
        )
    supports = [g.mask for g in ideal.gens]
    return supports, _lcm_support_closure(supports)


def _below(sigma: int, supports: list[int]) -> list[int]:
    """The generator supports inside sigma."""
    return [s for s in supports if not s & ~sigma]


def betti_numbers(ideal: MonomialIdeal, field: FieldSpec) -> BettiTable:
    """Graded Betti numbers of S/I for squarefree proper I.

    Each degree sigma of the lcm lattice is ranked on the smaller of its two
    complexes (see `_degree_betti`): the crosscut complex on the m generators
    below sigma when m < |sigma|, else Hochster's restriction to the |sigma|
    vertices.  A degree costs 2^min(m, |sigma|) face tests, and min(m, |sigma|)
    bounds every i with beta_{i, sigma} != 0, which `top_betti_degree` uses to
    find pd without this whole table.  Supports and degrees are variable
    bitmasks (`Monomial.mask`).
    """
    supports, degrees = _lcm_lattice(ideal)
    entries = []
    for sigma in degrees:
        below = _below(sigma, supports)
        crosscut = len(below) < sigma.bit_count()
        for i, h in _degree_betti(sigma, below, field, crosscut).items():
            entries.append((i, sigma, h))
    entries.sort()
    return BettiTable(field, ideal.ambient, tuple(entries))


def top_betti_degree(ideal: MonomialIdeal, field: FieldSpec) -> tuple[int, int]:
    """(pd(S/I), sigma) for squarefree proper I, with beta_{pd, sigma} != 0.

    Degrees are ranked in descending order of the bound min(m, |sigma|), ties
    by sigma, and the search stops at the first bound no larger than the best
    i found; sigma = 0 (beta_{0, 0} = 1) is the start.  The module docstring
    says why this is exact.  Only (bound, sigma) is kept per degree, and the
    supports below sigma are listed again when sigma is ranked.
    """
    supports, degrees = _lcm_lattice(ideal)
    order = sorted(
        (-min(len(_below(sigma, supports)), sigma.bit_count()), sigma) for sigma in degrees
    )
    pd, top = 0, 0
    for neg_bound, sigma in order:
        if -neg_bound <= pd:
            break
        below = _below(sigma, supports)
        i = max(_degree_betti(sigma, below, field, len(below) < sigma.bit_count()), default=0)
        if i > pd:
            pd, top = i, sigma
    return pd, top


def _image_in_prime_quotient(a: QuotientIdeal, prime: VarSet) -> MonomialIdeal:
    """Image of radical(lift) in S/prime, reindexed onto the surviving variables.

    The generators missing the prime are an antichain in canonical order, and
    dropping coordinates on which all of them are 0 keeps divisibility and
    order, so the image is canonical."""
    a.ring.require_support(prime)
    survivors = [i for i in range(a.ring.ambient) if i + 1 not in prime]
    killed = varset_mask(prime)  # a generator meeting the prime is zero in S/prime
    gens = tuple(
        _trusted(tuple(g.exponents[i] for i in survivors))
        for g in a.radical_lift.gens
        if not g.mask & killed
    )
    return _canonical(len(survivors), gens)


def cd_on_prime(a: QuotientIdeal, prime: VarSet, field: FieldSpec) -> int:
    """cd of the ideal acting on R/prime, a polynomial ring on the other variables.

    If the image of the ideal is zero there, the torsion functor fixes
    everything and cd is 0; otherwise cd equals the projective dimension of the
    image's quotient (Lyubeznik's equality for squarefree monomial ideals).
    """
    image = _image_in_prime_quotient(a, prime)
    if image.is_zero():
        return 0
    return top_betti_degree(image, field)[0]


def grade_on_prime(a: QuotientIdeal, prime: VarSet) -> int | None:
    """Grade of the image ideal on R/prime, i.e. its height in that polynomial ring.

    Returns None when the image is zero (grade undefined on torsion).
    """
    image = _image_in_prime_quotient(a, prime)
    if image.is_zero():
        return None
    return image.ambient - krull_dim(image)


@dataclass(frozen=True)
class CdReport:
    field: FieldSpec
    c: int
    per_prime: tuple[tuple[VarSet, int], ...]


def cohomological_dimension(a: QuotientIdeal, field: FieldSpec) -> CdReport:
    """cd(a, R) as the maximum of cd over the minimal primes of the relations."""
    per_prime = tuple(
        (p, cd_on_prime(a, p, field)) for p in a.ring.minimal_primes
    )
    return CdReport(field=field, c=max(v for _, v in per_prime), per_prime=per_prime)
