"""The three-prime counterexample family for Lynch's conjecture.

An instance is built from disjoint variable sets X, Y, Z with |X| <= |Y| <= |Z|
and nonempty subsets Xp of X, Yp of Y.  Over R = S/((X) cap (Y) cap (Z)) the
ideal generated by Xp and Yp has top local cohomology annihilated exactly by
(Z), so dim(R / torsion) - dim(R / annihilator) = |Z| - |X|: the conjecture
fails whenever |Z| > |X|.  The checklist computes what the ring and the acting
ideal decide, each value once: claim i reads the ring's checked minimal primes,
claim ii the cd table of `annihilator_bounds` (a prime missing there reads None
and fails the claim) and the grade as the smallest transversal of the masks cd
is ranked on, and claim iv the ring's dimension when the torsion lift is J.  It
reads in closed form what the family fixes: dim S/(p) = d - |p| for a monomial
prime p (claim iii on the primes the ring found, so a wrong ring fails it, and
claim v on q), and (Z) + J = (Z), since every generator of J lies in (Z) (claim
vi).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .annihilator import annihilator_bounds, torsion_ideal
from .cohomdim import cd_on_prime, grade_on_prime
from .errors import GuardExceededError, InvalidInputError
from .linalg import FieldSpec
from .monomial import (
    MonomialIdeal,
    VarSet,
    _prime_ideal,
    default_names,
    mask_varset,
    variable_ideal,
    varset_mask,
)
from .stanley_reisner import QuotientIdeal, QuotientRing, guard_ambient, krull_dim

SEARCH_GUARD_DEFAULT = 8


@dataclass(frozen=True)
class LynchInstance:
    d: int
    X: VarSet
    Y: VarSet
    Z: VarSet
    Xp: VarSet
    Yp: VarSet
    ring: QuotientRing
    ideal: QuotientIdeal

    @property
    def gap_formula(self) -> int:
        return len(self.Z) - len(self.X)


def build_instance(d, X, Y, Z, Xp, Yp) -> LynchInstance:
    """Validate the parameters, the ambient guard first; assemble J, R and the acting ideal."""
    guard_ambient(d)
    x, y, z, xp, yp = (varset_mask(s, d) for s in (X, Y, Z, Xp, Yp))
    for name, s in (("X", x), ("Y", y), ("Z", z)):
        if not s:
            raise InvalidInputError(f"{name} must be nonempty")
    if x & y or x & z or y & z:
        raise InvalidInputError("X, Y, Z must be pairwise disjoint")
    if not (x.bit_count() <= y.bit_count() <= z.bit_count()):
        raise InvalidInputError("sizes must satisfy |X| <= |Y| <= |Z|")
    if not xp or xp & ~x:
        raise InvalidInputError("Xp must be a nonempty subset of X")
    if not yp or yp & ~y:
        raise InvalidInputError("Yp must be a nonempty subset of Y")
    X, Y, Z, Xp, Yp = map(mask_varset, (x, y, z, xp, yp))
    ring = QuotientRing(d, _prime_ideal((x, y, z), d))
    acting = QuotientIdeal(ring, variable_ideal(Xp | Yp, d))
    return LynchInstance(d=d, X=X, Y=Y, Z=Z, Xp=Xp, Yp=Yp, ring=ring, ideal=acting)


@dataclass(frozen=True)
class ClaimCheck:
    claim: str
    expected: Any
    computed: Any

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass(frozen=True)
class LynchReport:
    instance: LynchInstance
    field: FieldSpec
    checklist: tuple[ClaimCheck, ...]
    c: int
    dim_modulo_torsion: int
    dim_modulo_annihilator: int
    annihilator_lift: MonomialIdeal
    gap: int
    conjecture_violated: bool

    def all_claims_pass(self) -> bool:
        return all(check.passed for check in self.checklist)


def verify_instance(inst: LynchInstance, field: FieldSpec) -> LynchReport:
    """Run the six-claim checklist; failures are recorded, never raised."""
    a = inst.ideal
    ring = inst.ring
    d = inst.d
    nx, ny, nz = len(inst.X), len(inst.Y), len(inst.Z)
    nxp, nyp = len(inst.Xp), len(inst.Yp)
    checks = []
    bounds = annihilator_bounds(a, field)
    cd = dict(bounds.per_prime)

    checks.append(
        ClaimCheck(
            "i",
            expected=sorted(map(sorted, (inst.X, inst.Y, inst.Z))),
            computed=sorted(map(sorted, ring.minimal_primes)),
        )
    )

    checks.append(
        ClaimCheck(
            "ii",
            expected=[
                [sorted(inst.X), nyp, nyp],
                [sorted(inst.Y), nxp, nxp],
                [sorted(inst.Z), nxp + nyp, nxp + nyp],
            ],
            computed=[
                [sorted(p), grade_on_prime(a, p), cd.get(p)]
                for p in (inst.X, inst.Y, inst.Z)
            ],
        )
    )

    checks.append(
        ClaimCheck(
            "iii",
            expected=[d - nx, d - ny, d - nz],
            computed=[d - len(p) for p in ring.minimal_primes],
        )
    )

    gamma = torsion_ideal(a)
    c = bounds.c
    torsion_is_zero = gamma == ring.relations
    dim_mod_torsion = ring.dim if torsion_is_zero else krull_dim(gamma)
    checks.append(
        ClaimCheck(
            "iv",
            expected={"torsion_is_zero": True, "dim": d - nx, "c": nxp + nyp},
            computed={
                "torsion_is_zero": torsion_is_zero,
                "dim": dim_mod_torsion,
                "c": c,
            },
        )
    )

    q = frozenset(range(1, d + 1)) - (inst.Xp | inst.Yp)
    checks.append(
        ClaimCheck(
            "v",
            expected={"contains_Z": True, "cd": c, "dim": c},
            computed={
                "contains_Z": inst.Z <= q,
                "cd": cd_on_prime(a, q, field),
                "dim": d - len(q),
            },
        )
    )

    dim_mod_ann = krull_dim(bounds.lower)
    gap = dim_mod_torsion - dim_mod_ann
    checks.append(
        ClaimCheck(
            "vi",
            expected={
                "exact": True,
                "ann": [list(g.exponents) for g in variable_ideal(inst.Z, d).gens],
                "dim_mod_ann": d - nz,
                "gap": nz - nx,
            },
            computed={
                "exact": bounds.exact,
                "ann": [list(g.exponents) for g in bounds.lower.gens],
                "dim_mod_ann": dim_mod_ann,
                "gap": gap,
            },
        )
    )

    return LynchReport(
        instance=inst,
        field=field,
        checklist=tuple(checks),
        c=c,
        dim_modulo_torsion=dim_mod_torsion,
        dim_modulo_annihilator=dim_mod_ann,
        annihilator_lift=bounds.lower,
        gap=gap,
        conjecture_violated=dim_mod_torsion != dim_mod_ann,
    )


def canonical_parameters(max_d: int):
    """All family parameter tuples up to variable relabeling, for d <= max_d.

    Sizes run over 1 <= |X| <= |Y| <= |Z| with the three sets packed into an
    initial segment of the variables; Xp and Yp are initial segments of X and Y.
    """
    out = []
    for d in range(3, max_d + 1):
        for nx in range(1, d + 1):
            for ny in range(nx, d + 1):
                for nz in range(ny, d + 1):
                    if nx + ny + nz > d:
                        continue
                    for nxp in range(1, nx + 1):
                        for nyp in range(1, ny + 1):
                            out.append((d, nx, ny, nz, nxp, nyp))
    return out


def instance_from_sizes(d, nx, ny, nz, nxp, nyp) -> LynchInstance:
    X = frozenset(range(1, nx + 1))
    Y = frozenset(range(nx + 1, nx + ny + 1))
    Z = frozenset(range(nx + ny + 1, nx + ny + nz + 1))
    return build_instance(d, X, Y, Z, frozenset(range(1, nxp + 1)),
                          frozenset(range(nx + 1, nx + nyp + 1)))


def search_family(
    max_d: int, field: FieldSpec, guard: int = SEARCH_GUARD_DEFAULT
) -> list[LynchReport]:
    """Verify every canonical instance with d <= max_d; reports in canonical order."""
    if max_d > guard:
        raise GuardExceededError(f"family sweep: max_d = {max_d} exceeds the guard {guard}")
    return [
        verify_instance(instance_from_sizes(*params), field)
        for params in canonical_parameters(max_d)
    ]


FIXTURE_NAMES = ("singh-walther", "bahmanpour")


def fixture(name: str, d: int | None = None, l: int | None = None):
    """Named instances: returns (instance, variable names).

    singh-walther is the dimension-4 example on x, y, z1, z2 and takes no
    parameters; bahmanpour takes 7 <= l <= d with X = {u1,u2}, Y = {u3,u4},
    Z = {u5..ul}.
    """
    if name == "singh-walther":
        if d is not None or l is not None:
            raise InvalidInputError("singh-walther takes no --d or --l")
        inst = build_instance(4, {1}, {2}, {3, 4}, {1}, {2})
        return inst, ["x", "y", "z1", "z2"]
    if name == "bahmanpour":
        if d is None or l is None:
            raise InvalidInputError("bahmanpour needs --d and --l")
        if not (7 <= l <= d):
            raise InvalidInputError("bahmanpour requires 7 <= l <= d")
        inst = build_instance(d, {1, 2}, {3, 4}, range(5, l + 1), {1}, {3})
        return inst, default_names(d)
    raise InvalidInputError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
