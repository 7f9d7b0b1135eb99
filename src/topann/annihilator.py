"""Annihilator bounds for the top local cohomology module H^c_a(R).

Every ideal derived here from J is an intersection of some of J's minimal
primes, met by `monomial._prime_ideal` on the ring's `prime_masks`.  J is
radical, so J = p_1 cap ... cap p_r, and a saturation splits over the primes:
(p : A^infinity) is the unit ideal when A lies in p and p otherwise.  Thus the
torsion (J : a^infinity) keeps the primes not containing a, and the kernel of
R -> R_q, which saturates by the variables outside q, keeps the primes inside q.

The lower bound is the largest ideal T/J of R whose top local cohomology
vanishes (the intersection of the associated primes achieving cd = c); the
upper bound intersects the kernels of localization at witness primes q with
cd(a, R/q) = dim R/q = c.  Witnesses come from a closed form, not a search:
over the polynomial ring R/q, cd = pd of the radical image of a (Lyubeznik),
and that pd is the full dimension exactly when the image is the maximal ideal.
When every critical prime sits under a witness, the two bounds agree and the
annihilator is certified exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cohomdim import cohomological_dimension
from .errors import InvalidInputError
from .linalg import FieldSpec
from .monomial import (
    MonomialIdeal,
    VarSet,
    _prime_ideal,
    ideal_sum,
    mask_varset,
    power,
)
from .stanley_reisner import QuotientIdeal, QuotientRing, _min_cover_size

EXACTNESS_REASONS = (
    "all-witnesses-found",
    "cd-le-1",
    "dim-quotient-le-1",
    "none",
)


def torsion_ideal(a: QuotientIdeal) -> MonomialIdeal:
    """Lift of the a-torsion submodule of R, (J : lift^infinity).

    It is the intersection of the minimal primes of J that do not contain the
    lift, i.e. that miss the support of some generator: all of them give back
    J itself, as the ring checked.  Rejects ideals that are zero in the
    quotient (no such prime), whose torsion would be all of R.
    """
    ring = a.ring
    kept = [p for p in ring.prime_masks if any(not g.mask & p for g in a.lift.gens)]
    if not kept:
        raise InvalidInputError("ideal is zero in the quotient; torsion is everything")
    if len(kept) == len(ring.prime_masks):
        return ring.relations
    return _prime_ideal(kept, ring.ambient)


def localization_kernel(q: Iterable[int], ring: QuotientRing) -> MonomialIdeal:
    """Lift of ker(R -> R_q): the intersection of the minimal primes of J inside q."""
    return _primes_under(ring.require_support(q), ring)


def _primes_under(qmask: int, ring: QuotientRing) -> MonomialIdeal:
    """The intersection of the minimal primes of J inside the variable mask qmask."""
    return _prime_ideal([p for p in ring.prime_masks if not p & ~qmask], ring.ambient)


def symbolic_power(q: Iterable[int], n: int, ring: QuotientRing) -> MonomialIdeal:
    """Lift of the n-th symbolic power of qR: ((q)^n + J : w^infinity), w outside q.

    Saturating by a monomial acts generator-wise, so it splits over the sum, and
    it leaves (q)^n alone because w is coprime to its generators.
    """
    if type(n) is not int or n < 1:  # no bool or float
        raise InvalidInputError("symbolic power requires an int n >= 1")
    qmask = ring.require_support(q)  # q is read once, so it may be an iterator
    prime = _prime_ideal([qmask], ring.ambient)  # the variable ideal (q)
    return ideal_sum(power(prime, n), _primes_under(qmask, ring))


@dataclass(frozen=True)
class AnnBoundsReport:
    """`per_prime` is the (minimal prime, cd) table of `cohomological_dimension`;
    `delta`, the critical primes, reads from it the primes whose cd is c."""

    field: FieldSpec
    c: int
    per_prime: tuple[tuple[VarSet, int], ...]
    sigma_witnesses: tuple[tuple[VarSet, VarSet | None], ...]
    lower: MonomialIdeal
    upper: MonomialIdeal | None
    exact: bool
    exactness_reason: str

    def __post_init__(self) -> None:
        if self.exactness_reason not in EXACTNESS_REASONS:
            raise InvalidInputError(f"unknown exactness reason {self.exactness_reason!r}")

    @property
    def delta(self) -> tuple[VarSet, ...]:
        return tuple(p for p, v in self.per_prime if v == self.c)


def _witness_for(a: QuotientIdeal, p: int, c: int) -> int | None:
    """The monomial prime mask q >= p with |q| = d - c and cd(a, R/q) = c, or None.

    On the polynomial ring R/q of dimension c, cd is the projective dimension
    of the radical image of a, which is c exactly when that image is the
    maximal ideal (when c = 0, q holds every variable and both sides are 0).
    So q works exactly when it contains F = p + {v : u_v is not a generator of
    radical(lift)}.  Then q = F: the image of a in R/p contains the d - |F|
    variables u_v of radical(lift) with v outside p, so for the minimal prime p
    c >= cd(a, R/p) >= height of that image >= d - |F|, and |F| >= d - c.
    Only monomial primes are considered; a miss means "not certified", never
    "certified unequal".
    """
    d = a.ring.ambient
    linear = sum(g.mask for g in a.radical_lift.gens if g.degree == 1)  # distinct bits
    q = p | (((1 << d) - 1) & ~linear)
    return q if q.bit_count() == d - c else None


def annihilator_bounds(a: QuotientIdeal, field: FieldSpec) -> AnnBoundsReport:
    """Lower/upper annihilator bounds for H^c_a(R), with exactness certification.

    exact = True certifies ann(H^c) equals the lower bound.  The certificate is
    either a witness over every critical prime, or one of the small-dimension
    exactness criteria, evaluated on the essential variables: cd <= 1 or
    dim R/(a) <= 1.  With the free directions discounted, the certificate is
    stable under padding the ambient ring with unused variables.  dim R <= 2
    needs no criterion: a critical p misses the free variables, so past cd <= 1
    the image of a in R/p has pd c >= 2 on at most dim R - free <= 2 variables,
    so it is their maximal ideal (x, y), every other variable outside p is free,
    and V - {x, y} is the witness over p (its size is d - 2 = d - c).
    """
    ring = a.ring
    report = cohomological_dimension(a, field)
    c = report.c
    # per_prime follows the ring's prime order, so it pairs with prime_masks
    delta = [(p, pm) for (p, v), pm in zip(report.per_prime, ring.prime_masks) if v == c]
    lower = _prime_ideal([pm for _, pm in delta], ring.ambient)
    qs = [_witness_for(a, pm, c) for _, pm in delta]
    witnesses = tuple((p, q if q is None else mask_varset(q)) for (p, _), q in zip(delta, qs))
    # the kernels at the witnesses meet in the minimal primes under some witness
    # (a witness lies over its critical prime, so none found means none under)
    found = {q for q in qs if q is not None}
    under = [p for p in ring.prime_masks if any(not p & ~q for q in found)]
    upper = _prime_ideal(under, ring.ambient) if under else None
    # variables appearing in neither ideal are free polynomial directions: the
    # whole situation is extended flatly from the subring they are absent from,
    # so the small-dimension certificates apply with those directions discounted;
    # the supports of radical(lift) and J have the minimal transversals of lift + J
    edges = [g.mask for g in (*a.radical_lift.gens, *ring.relations.gens)]
    touched = 0
    for e in edges:
        touched |= e
    free = ring.ambient - touched.bit_count()
    if all(q is not None for _, q in witnesses):
        exact, reason = True, "all-witnesses-found"
    elif c <= 1:
        exact, reason = True, "cd-le-1"
    elif ring.ambient - _min_cover_size(edges) - free <= 1:
        exact, reason = True, "dim-quotient-le-1"
    else:
        exact, reason = False, "none"
    return AnnBoundsReport(
        field=field,
        c=c,
        per_prime=report.per_prime,
        sigma_witnesses=witnesses,
        lower=lower,
        upper=upper,
        exact=exact,
        exactness_reason=reason,
    )


@dataclass(frozen=True)
class HeightReport:
    ht_upper: int | None
    ht_ann: int | None
    corollary_checks: tuple[tuple[str, bool], ...]


def height_report(rep: AnnBoundsReport, ring: QuotientRing) -> HeightReport:
    """Heights of the reported bounds plus the height-zero consequence checks.

    Both bounds meet minimal primes of J, each of height 0, so ht_upper is 0 when
    there is an upper bound and ht_ann is 0 when the report is exact (unknown
    otherwise).  The checks: a found witness forces the upper bound to have height
    zero; an exact annihilator in the near-top case c = dim R - 1 has height zero;
    and a critical prime, of height 0, with dim R/p > c has height <= dim R - c - 1.
    """
    ht_upper = None if rep.upper is None else 0
    ht_ann = 0 if rep.exact else None
    checks: list[tuple[str, bool]] = []
    if ht_upper is not None:
        checks.append(("upper-bound-height-zero", ht_upper == 0))
    if rep.exact and rep.c == ring.dim - 1:
        checks.append(("near-top-annihilator-height-zero", ht_ann == 0))
    if any(ring.ambient - len(p) > rep.c for p in rep.delta):
        checks.append(("deficient-prime-height-bound", 0 <= ring.dim - rep.c - 1))
    return HeightReport(ht_upper=ht_upper, ht_ann=ht_ann, corollary_checks=tuple(checks))
