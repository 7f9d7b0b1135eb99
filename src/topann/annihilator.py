"""Annihilator bounds for the top local cohomology module H^c_a(R).

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

from .cohomdim import cohomological_dimension
from .errors import InvalidInputError
from .linalg import FieldSpec
from .monomial import (
    Monomial,
    MonomialIdeal,
    VarSet,
    ideal_sum,
    intersect,
    power,
    radical,
    saturate,
    saturate_by_ideal,
    variable_ideal,
)
from .stanley_reisner import QuotientIdeal, QuotientRing, height_in_quotient, krull_dim

EXACTNESS_REASONS = (
    "all-witnesses-found",
    "cd-le-1",
    "dim-quotient-le-1",
    "dim-le-2",
    "none",
)


def torsion_ideal(a: QuotientIdeal) -> MonomialIdeal:
    """Lift of the a-torsion submodule of R, computed as (J : lift^infinity).

    Rejects ideals that are zero in the quotient, whose torsion submodule
    would be all of R.
    """
    relations = a.ring.relations
    if all(g in relations for g in a.lift.gens):
        raise InvalidInputError("ideal is zero in the quotient; torsion is everything")
    return saturate_by_ideal(relations, a.lift)


def _complement_product(q: VarSet, ambient: int) -> Monomial:
    outside = frozenset(range(1, ambient + 1)) - q
    return Monomial.from_support(outside, ambient)


def localization_kernel(q: VarSet, ring: QuotientRing) -> MonomialIdeal:
    """Lift of ker(R -> R_q): the relations saturated by the variables outside q."""
    ring.require_support(q)
    return saturate(ring.relations, _complement_product(q, ring.ambient))


def symbolic_power(q: VarSet, n: int, ring: QuotientRing) -> MonomialIdeal:
    """Lift of the n-th symbolic power of qR: ((q)^n + J : w^infinity), w outside q."""
    if n < 1:
        raise InvalidInputError("symbolic power requires n >= 1")
    ring.require_support(q)
    qn = power(variable_ideal(q, ring.ambient), n)
    return saturate(ideal_sum(qn, ring.relations), _complement_product(q, ring.ambient))


def _delta_and_lower(report, ambient: int) -> tuple[MonomialIdeal, tuple[VarSet, ...]]:
    delta = tuple(p for p, v in report.per_prime if v == report.c)
    lift = variable_ideal(delta[0], ambient)
    for p in delta[1:]:
        lift = intersect(lift, variable_ideal(p, ambient))
    return lift, delta


def top_vanishing_ideal(
    a: QuotientIdeal, field: FieldSpec
) -> tuple[MonomialIdeal, tuple[VarSet, ...]]:
    """Lift of the largest ideal of R killed by H^c_a, with the critical primes.

    The critical primes are the associated primes p with cd(a, R/p) = c; the
    ideal is their intersection, and it equals the annihilator of R modulo it.
    """
    return _delta_and_lower(cohomological_dimension(a, field), a.ring.ambient)


@dataclass(frozen=True)
class AnnBoundsReport:
    field: FieldSpec
    c: int
    delta: tuple[VarSet, ...]
    sigma_witnesses: tuple[tuple[VarSet, VarSet | None], ...]
    lower: MonomialIdeal
    upper: MonomialIdeal | None
    exact: bool
    exactness_reason: str

    def __post_init__(self) -> None:
        if self.exactness_reason not in EXACTNESS_REASONS:
            raise InvalidInputError(f"unknown exactness reason {self.exactness_reason!r}")

    def witnesses_found(self) -> tuple[VarSet, ...]:
        found = {q for _, q in self.sigma_witnesses if q is not None}
        return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def _witness_for(a: QuotientIdeal, p: VarSet, c: int) -> VarSet | None:
    """The monomial prime q >= p with |q| = d - c and cd(a, R/q) = c, or None.

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
    linear = {min(g.support()) for g in radical(a.lift).gens if g.degree == 1}
    q = p | (frozenset(range(1, d + 1)) - linear)
    return q if len(q) == d - c else None


def annihilator_bounds(a: QuotientIdeal, field: FieldSpec) -> AnnBoundsReport:
    """Lower/upper annihilator bounds for H^c_a(R), with exactness certification.

    exact = True certifies ann(H^c) equals the lower bound.  The certificate is
    either a witness over every critical prime, or one of the small-dimension
    exactness criteria, evaluated on the essential variables: cd <= 1,
    dim R/(a) <= 1, or dim R <= 2.  With the free directions discounted, the
    certificate is stable under padding the ambient ring with unused variables.
    """
    ring = a.ring
    report = cohomological_dimension(a, field)
    lower, delta = _delta_and_lower(report, ring.ambient)
    c = report.c
    witnesses = tuple((p, _witness_for(a, p, c)) for p in delta)
    found = sorted(
        {q for _, q in witnesses if q is not None}, key=lambda s: (len(s), sorted(s))
    )
    upper: MonomialIdeal | None = None
    if found:
        upper = localization_kernel(found[0], ring)
        for q in found[1:]:
            upper = intersect(upper, localization_kernel(q, ring))
    # variables appearing in neither ideal are free polynomial directions: the
    # whole situation is extended flatly from the subring they are absent from,
    # so the small-dimension certificates apply with those directions discounted
    touched: set[int] = set()
    for g in (*radical(a.lift).gens, *ring.relations.gens):
        touched |= g.support()
    free = ring.ambient - len(touched)
    if all(q is not None for _, q in witnesses):
        exact, reason = True, "all-witnesses-found"
    elif c <= 1:
        exact, reason = True, "cd-le-1"
    elif krull_dim(a.full_lift()) - free <= 1:
        exact, reason = True, "dim-quotient-le-1"
    elif ring.dim - free <= 2:
        exact, reason = True, "dim-le-2"
    else:
        exact, reason = False, "none"
    return AnnBoundsReport(
        field=field,
        c=c,
        delta=delta,
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

    ht_ann is only known when the report certifies exactness.  The checks:
    a found witness forces the upper bound to have height zero; an exact
    annihilator in the near-top case c = dim R - 1 has height zero; and a
    critical prime with dim R/p > c has height at most dim R - c - 1.
    """
    ht_upper = (
        height_in_quotient(QuotientIdeal(ring, rep.upper)) if rep.upper is not None else None
    )
    ht_ann = height_in_quotient(QuotientIdeal(ring, rep.lower)) if rep.exact else None
    checks: list[tuple[str, bool]] = []
    if ht_upper is not None:
        checks.append(("upper-bound-height-zero", ht_upper == 0))
    if rep.exact and rep.c == ring.dim - 1:
        checks.append(("near-top-annihilator-height-zero", ht_ann == 0))
    deficient = [p for p in rep.delta if ring.prime_dim(p) > rep.c]
    if deficient:
        ok = all(
            height_in_quotient(QuotientIdeal(ring, variable_ideal(p, ring.ambient)))
            <= ring.dim - rep.c - 1
            for p in deficient
        )
        checks.append(("deficient-prime-height-bound", ok))
    return HeightReport(ht_upper=ht_upper, ht_ann=ht_ann, corollary_checks=tuple(checks))
