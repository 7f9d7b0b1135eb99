"""The counterexample family: fixtures, checklist verification, and the sweep."""
from __future__ import annotations

import random

import pytest

from topann.errors import GuardExceededError, InvalidInputError
from topann.linalg import FieldSpec
from topann.lynch import (
    LynchInstance,
    build_instance,
    canonical_parameters,
    fixture,
    instance_from_sizes,
    search_family,
    verify_instance,
)
from topann.monomial import Monomial, minimalize, prime_intersection, variable_ideal
from topann.stanley_reisner import QuotientIdeal, QuotientRing

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)


def test_build_singh_walther_parameters():
    inst = build_instance(4, {1}, {2}, {3, 4}, {1}, {2})
    assert inst.ring.relations == minimalize(
        [Monomial((1, 1, 1, 0)), Monomial((1, 1, 0, 1))], 4
    )
    assert inst.ideal.lift == minimalize([Monomial((1, 0, 0, 0)), Monomial((0, 1, 0, 0))], 4)


def test_build_rejects_overlap():
    with pytest.raises(InvalidInputError, match="disjoint"):
        build_instance(4, {1}, {1}, {3, 4}, {1}, {1})


def test_build_rejects_bad_sizes():
    with pytest.raises(InvalidInputError, match=r"\|X\| <= \|Y\| <= \|Z\|"):
        build_instance(5, {1, 2}, {3}, {4, 5}, {1}, {3})


def test_build_rejects_empty_or_loose_subsets():
    with pytest.raises(InvalidInputError, match="Xp"):
        build_instance(4, {1}, {2}, {3, 4}, set(), {2})
    with pytest.raises(InvalidInputError, match="Yp"):
        build_instance(4, {1}, {2}, {3, 4}, {1}, {3})
    with pytest.raises(InvalidInputError, match="nonempty"):
        build_instance(4, set(), {2}, {3, 4}, {1}, {2})


def test_singh_walther_full_checklist():
    inst, names = fixture("singh-walther")
    rep = verify_instance(inst, Q)
    assert rep.all_claims_pass()
    assert rep.c == 2
    assert rep.dim_modulo_torsion == 3
    assert rep.dim_modulo_annihilator == 2
    assert rep.gap == 1
    assert rep.conjecture_violated
    assert rep.annihilator_lift.pretty(names) == "(z1, z2)"


def test_bahmanpour_dimensions():
    inst, _ = fixture("bahmanpour", d=7, l=7)
    rep = verify_instance(inst, Q)
    assert rep.all_claims_pass()
    assert rep.c == 2
    assert rep.dim_modulo_torsion == 5  # d - 2
    assert rep.dim_modulo_annihilator == 4  # d - l + 4
    assert rep.conjecture_violated


@pytest.mark.parametrize("name, d, l", [("singh-walther", None, None), ("bahmanpour", 8, 8)])
def test_verify_computes_cd_once_per_prime(monkeypatch, name, d, l):
    # X, Y and Z for the bounds' per-prime table, and q for claim v, which
    # checks cd on its own prime even where q is Z (singh-walther); both reach
    # the kernel on the prime's mask
    import topann.cohomdim as cohomdim

    real = cohomdim._cd_on_mask
    primes = []

    def counted(a, killed, field):
        primes.append(killed)
        return real(a, killed, field)

    monkeypatch.setattr(cohomdim, "_cd_on_mask", counted)
    inst, _ = fixture(name, d=d, l=l)
    assert verify_instance(inst, Q).all_claims_pass()
    assert len(primes) == 4
    assert len(set(primes[:3])) == 3


def test_one_verify_finds_the_minimal_primes_of_j_once(monkeypatch, capsys):
    # the ring finds them at build time; the torsion lift is J itself, so
    # claim iv reads the ring's dimension instead of meeting J's edges again
    import topann.monomial as monomial
    import topann.stanley_reisner as sr
    from topann.cli import main

    inst = build_instance(11, {1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {1}, {4})
    j_masks = {g.mask for g in inst.ring.relations.gens}
    assert len(j_masks) == 48
    real = monomial._prime_meet
    runs_on_j = []

    def spy(pmasks):
        pmasks = list(pmasks)
        runs_on_j.append(set(pmasks) == j_masks)
        return real(pmasks)

    monkeypatch.setattr(monomial, "_prime_meet", spy)
    monkeypatch.setattr(sr, "_prime_meet", spy)
    argv = ["--quiet", "lynch", "verify", "--d", "11", "--X", "1,2,3", "--Y", "4,5,6,7",
            "--Z", "8,9,10,11", "--Xp", "1", "--Yp", "4"]
    assert main(argv) == 0
    assert sum(runs_on_j) == 1
    assert '"torsion_is_zero": true' in capsys.readouterr().out


def test_prime_missing_from_the_cd_table_fails_claim_ii(monkeypatch):
    import dataclasses

    import topann.lynch as lynch

    real = lynch.annihilator_bounds

    def short_table(a, field):
        rep = real(a, field)
        return dataclasses.replace(rep, per_prime=rep.per_prime[:-1])

    monkeypatch.setattr(lynch, "annihilator_bounds", short_table)
    inst, _ = fixture("singh-walther")
    checks = {c.claim: c for c in verify_instance(inst, Q).checklist}
    assert not checks["ii"].passed
    assert [cd for _, _, cd in checks["ii"].computed].count(None) == 1


def test_a_ring_whose_primes_are_not_x_y_z_fails_claims_i_and_iii():
    # the ring's third prime {5, 6} is a proper subset of Z = {5, 6, 7}
    d = 8
    ring = QuotientRing(d, prime_intersection(({1, 2}, {3, 4}, {5, 6}), d))
    inst = LynchInstance(
        d=d, X=frozenset({1, 2}), Y=frozenset({3, 4}), Z=frozenset({5, 6, 7}),
        Xp=frozenset({1}), Yp=frozenset({3}), ring=ring,
        ideal=QuotientIdeal(ring, variable_ideal({1, 3}, d)),
    )
    checks = {c.claim: c for c in verify_instance(inst, Q).checklist}
    assert not checks["i"].passed
    assert not checks["iii"].passed
    assert checks["iii"].expected == [6, 6, 5]
    assert checks["iii"].computed == [6, 6, 6]


def _shuffled_instances(count, seed):
    """Seeded family tuples on shuffled, non-contiguous X, Y and Z."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(3, 14)
        sizes = sorted(rng.randint(1, d - 2) for _ in range(3))
        if sum(sizes) > d:
            continue
        order = rng.sample(range(1, d + 1), d)
        nx, ny, nz = sizes
        X, Y, Z = order[:nx], order[nx:nx + ny], order[nx + ny:nx + ny + nz]
        Xp = rng.sample(X, rng.randint(1, nx))
        Yp = rng.sample(Y, rng.randint(1, ny))
        out.append(build_instance(d, X, Y, Z, Xp, Yp))
    return out


def test_closed_forms_equal_the_computations_they_replace():
    # claim vi expects (Z), claim iii reads d - |p| on the ring's primes and
    # claim v d - |q|; each must equal the value computed from the ideals
    from topann.monomial import ideal_sum
    from topann.stanley_reisner import krull_dim

    instances = [instance_from_sizes(*params) for params in canonical_parameters(10)]
    instances += [fixture("bahmanpour", d=d, l=l)[0]
                  for d in range(7, 13) for l in range(7, d + 1)]
    shuffled = _shuffled_instances(240, seed=30)
    assert any(len(i.X) == len(i.Y) or len(i.Y) == len(i.Z) for i in shuffled)
    assert any(max(i.Z) - min(i.Z) >= len(i.Z) for i in shuffled)
    for inst in instances + shuffled:
        d, J = inst.d, inst.ring.relations
        assert variable_ideal(inst.Z, d).gens == ideal_sum(variable_ideal(inst.Z, d), J).gens
        assert [d - len(p) for p in inst.ring.minimal_primes] == [
            krull_dim(variable_ideal(p, d)) for p in (inst.X, inst.Y, inst.Z)
        ]
        q = frozenset(range(1, d + 1)) - (inst.Xp | inst.Yp)
        assert d - len(q) == krull_dim(variable_ideal(q, d))


def test_one_verify_at_d_14_meets_primes_nine_times_and_minimalizes_nothing(count_calls):
    # build_instance checks its five sets once and the ring takes its prime
    # masks from the transversals, so no prime is turned back into a set and
    # checked again
    from topann.cli import main

    counts = count_calls("_prime_meet", "minimalize", "varset_mask")
    argv = ["--quiet", "lynch", "verify", "--d", "14", "--X", "1,2,3,4", "--Y", "5,6,7,8",
            "--Z", "9,10,11,12,13,14", "--Xp", "1,2,3,4", "--Yp", "5,6,7,8"]
    assert main(argv) == 0
    assert counts["_prime_meet"] == 9 and counts["minimalize"] == 0, counts
    assert counts["varset_mask"] <= 14, counts


def test_bahmanpour_parameter_validation():
    with pytest.raises(InvalidInputError):
        fixture("bahmanpour", d=6, l=6)
    with pytest.raises(InvalidInputError):
        fixture("bahmanpour", d=7, l=8)
    with pytest.raises(InvalidInputError):
        fixture("bahmanpour")
    with pytest.raises(InvalidInputError):
        fixture("unknown-name")


def test_gap_zero_instance_does_not_violate():
    inst = build_instance(6, {1}, {2}, {3}, {1}, {2})
    rep = verify_instance(inst, Q)
    assert rep.all_claims_pass()
    assert rep.gap == 0
    assert not rep.conjecture_violated


def test_canonical_parameters_small_counts():
    assert canonical_parameters(3) == [(3, 1, 1, 1, 1, 1)]
    # with four variables: (1,1,1) at d=3,4 and (1,1,2) at d=4
    assert canonical_parameters(4) == [
        (3, 1, 1, 1, 1, 1),
        (4, 1, 1, 1, 1, 1),
        (4, 1, 1, 2, 1, 1),
    ]


def test_search_family_guard():
    with pytest.raises(GuardExceededError, match="max_d = 9 exceeds the guard 8"):
        search_family(9, Q)


def test_search_family_d4_checklists_and_gaps():
    reports = search_family(4, Q)
    assert len(reports) == 3
    assert all(r.all_claims_pass() for r in reports)
    for rep in reports:
        assert rep.conjecture_violated == (rep.instance.gap_formula > 0)


def test_search_family_d5_field_independent():
    over_q = search_family(5, Q)
    over_f2 = search_family(5, F2)
    assert len(over_q) == len(over_f2)
    for a, b in zip(over_q, over_f2):
        assert a.all_claims_pass() and b.all_claims_pass()
        assert (a.c, a.gap, a.conjecture_violated) == (b.c, b.gap, b.conjecture_violated)
        assert a.annihilator_lift == b.annihilator_lift


def test_family_always_certifies_through_a_witness():
    from topann.annihilator import annihilator_bounds

    for rep in search_family(5, Q):
        bounds = annihilator_bounds(rep.instance.ideal, Q)
        assert bounds.exact
        assert bounds.exactness_reason == "all-witnesses-found"
        # the complement of the acting variables is always among the candidates
        inst = rep.instance
        complement = frozenset(range(1, inst.d + 1)) - (inst.Xp | inst.Yp)
        assert all(q is not None for _, q in bounds.sigma_witnesses)
        assert any(len(q) == len(complement) for _, q in bounds.sigma_witnesses)


def test_padding_changes_nothing_essential():
    base = verify_instance(instance_from_sizes(4, 1, 1, 2, 1, 1), Q)
    padded = verify_instance(instance_from_sizes(6, 1, 1, 2, 1, 1), Q)
    assert base.all_claims_pass() and padded.all_claims_pass()
    assert base.c == padded.c
    # same annihilator generators: padding only appends unused variables
    assert [g.support() for g in base.annihilator_lift.gens] == [
        g.support() for g in padded.annihilator_lift.gens
    ]
    assert padded.gap == base.gap
