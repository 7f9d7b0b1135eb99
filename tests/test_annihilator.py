"""Torsion, contractions, symbolic powers, and the annihilator bounds."""
from __future__ import annotations

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topann.annihilator import (
    _witness_for,
    annihilator_bounds,
    height_report,
    localization_kernel,
    symbolic_power,
    torsion_ideal,
)
from topann.cli import load_instance
from topann.cohomdim import cohomological_dimension
from topann.errors import InvalidInputError
from topann.linalg import FieldSpec
from topann.lynch import build_instance, fixture
from topann.monomial import (
    Monomial,
    ideal_sum,
    minimalize,
    power,
    prime_intersection,
    variable_ideal,
    varset_mask,
)
from topann.stanley_reisner import (
    QuotientIdeal,
    QuotientRing,
    _min_cover_size,
    height_in_quotient,
    krull_dim,
)

import _oracles as orc
from _oracles import intersect

Q = FieldSpec.rationals()


def ideal(d, *gens):
    return minimalize([Monomial(tuple(g)) for g in gens], d)


J_SW = ideal(4, (1, 1, 1, 0), (1, 1, 0, 1))


def sw():
    return fixture("singh-walther")[0]


# ------------------------------------------------------------------ torsion

def test_torsion_vanishes_on_the_three_prime_instance():
    inst = sw()
    assert torsion_ideal(inst.ideal) == inst.ring.relations


def test_torsion_is_the_relations_themselves_when_every_prime_is_kept():
    # the ring has checked that its minimal primes meet in J, so a lift that
    # no minimal prime contains gets J back as the same object
    rng = random.Random(263)
    kept_all = some_dropped = 0
    for _ in range(300):
        d = rng.randint(1, 6)
        J = orc.random_squarefree_ideal(rng, d)
        if J.is_unit():
            continue
        ring = QuotientRing(d, J)
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        if a.lift.is_unit() or all(g in J for g in a.lift.gens):
            continue
        lift_masks = [g.mask for g in a.lift.gens]
        if all(any(not m & p for m in lift_masks) for p in ring.prime_masks):
            kept_all += 1
            assert torsion_ideal(a) is ring.relations
            assert torsion_ideal(a) == prime_intersection(ring.minimal_primes, d) == J
        else:
            some_dropped += 1
            assert torsion_ideal(a) != J
    assert kept_all >= 50 and some_dropped >= 50


def test_torsion_after_saturating_one_variable():
    ring = QuotientRing(2, ideal(2, (1, 1)))
    a = QuotientIdeal(ring, ideal(2, (1, 0)))
    assert torsion_ideal(a) == ideal(2, (0, 1))


def test_torsion_rejects_ideal_that_is_zero_in_quotient():
    ring = QuotientRing(2, ideal(2, (1, 1)))
    a = QuotientIdeal(ring, ideal(2, (1, 1)))
    with pytest.raises(InvalidInputError):
        torsion_ideal(a)


def test_torsion_matches_membership_oracle():
    from itertools import combinations_with_replacement

    def torsion_member(f, J, a_gens, n):
        # a^n * f inside J, over every multiset of n generators
        for combo in combinations_with_replacement(a_gens, n):
            prod = f
            for g in combo:
                prod = prod * g
            if prod not in J:
                return False
        return True

    rng = random.Random(59)
    for _ in range(50):
        d = rng.randint(1, 4)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        if all(g in ring.relations for g in a.lift.gens):
            continue
        gamma = torsion_ideal(a)
        for f in orc.box_monomials(d, 2):
            for n in (3, 4):  # chain is stationary well before this for small data
                assert (f in gamma) == torsion_member(f, ring.relations, a.lift.gens, n)


# ----------------------------------------------------------- localization kernel

def test_localization_kernel_examples():
    ring = QuotientRing(4, J_SW)
    assert localization_kernel(frozenset({3, 4}), ring) == ideal(4, (0, 0, 1, 0), (0, 0, 0, 1))
    assert localization_kernel(frozenset({1, 2, 3, 4}), ring) == J_SW
    assert localization_kernel(frozenset({1}), ring) == ideal(4, (1, 0, 0, 0))


def test_localization_kernel_rejects_primes_outside_support():
    ring = QuotientRing(4, J_SW)
    with pytest.raises(InvalidInputError):
        localization_kernel(frozenset({3}), ring)


def test_localization_kernel_antitone():
    # bigger primes contract to smaller kernels
    rng = random.Random(61)
    for _ in range(100):
        d = rng.randint(1, 5)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        p = rng.choice(ring.minimal_primes)
        rest = sorted(set(range(1, d + 1)) - p)
        extra1 = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
        q1 = p | extra1
        rest2 = sorted(set(range(1, d + 1)) - q1)
        q2 = q1 | frozenset(rng.sample(rest2, rng.randint(0, len(rest2))))
        k1 = localization_kernel(q1, ring)
        k2 = localization_kernel(q2, ring)
        assert orc.contains_ideal(k1, k2)


def test_localization_kernel_height_zero():
    rng = random.Random(67)
    for _ in range(100):
        d = rng.randint(1, 5)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        p = rng.choice(ring.minimal_primes)
        rest = sorted(set(range(1, d + 1)) - p)
        q = p | frozenset(rng.sample(rest, rng.randint(0, len(rest))))
        kernel = localization_kernel(q, ring)
        assert height_in_quotient(QuotientIdeal(ring, kernel)) == 0


def test_contraction_of_annihilator_is_saturation():
    # two routes to the contraction of a cyclic quotient's annihilator:
    # saturate L + J directly, or test membership through the localization map
    rng = random.Random(71)
    for _ in range(100):
        d = rng.randint(1, 4)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        L = orc.random_monomial_ideal(rng, d)
        p = rng.choice(ring.minimal_primes)
        rest = sorted(set(range(1, d + 1)) - p)
        q = p | frozenset(rng.sample(rest, rng.randint(0, len(rest))))
        total = ideal_sum(L, ring.relations)
        if total.is_unit():
            continue
        w = orc.from_support(frozenset(range(1, d + 1)) - q, d)
        contracted = orc.saturate(total, w)
        for f in orc.box_monomials(d, 2):
            assert (f in contracted) == orc.brute_saturation_member(f, total, w, kmax=10)


# ------------------------------------------------------------- symbolic powers

def test_symbolic_power_of_variable_prime_in_polynomial_ring():
    ring = QuotientRing(2, ideal(2))
    assert symbolic_power(frozenset({1}), 2, ring) == ideal(2, (2, 0))


def test_symbolic_power_on_the_three_prime_ring():
    ring = QuotientRing(4, J_SW)
    assert symbolic_power(frozenset({3, 4}), 1, ring) == ideal(4, (0, 0, 1, 0), (0, 0, 0, 1))


def test_symbolic_power_checks_q_once(count_calls):
    # q is checked into a mask once, and the primes under it are met on that
    # mask: one varset_mask call per symbolic_power call; an invalid q is refused
    ring = QuotientRing(4, J_SW)
    primes = [*ring.minimal_primes, frozenset({1, 2, 3, 4})]
    expected = [
        orc.saturate(ideal_sum(power(variable_ideal(q, 4), 2), J_SW),
                     orc.from_support(frozenset(range(1, 5)) - q, 4))
        for q in primes
    ]
    counts = count_calls("varset_mask")
    for k, (q, ideal_) in enumerate(zip(primes, expected), 1):
        assert symbolic_power(iter(q), 2, ring) == ideal_
        assert counts["varset_mask"] == k
    for q in ({5}, {0}, {True}, {1.0}, {3}):  # out of range, not an int, over no prime
        with pytest.raises(InvalidInputError):
            symbolic_power(q, 1, ring)


@pytest.mark.parametrize("n", [True, 2.0])
def test_symbolic_power_refuses_an_exponent_that_is_not_an_int(n):
    # True was read as n = 1, and 2.0 ended in TypeError from the ideal power
    with pytest.raises(InvalidInputError, match="an int n"):
        symbolic_power(frozenset({3, 4}), n, QuotientRing(4, J_SW))


def test_symbolic_powers_stabilize_to_localization_kernel():
    # over a minimal prime the local ring is artinian, so the decreasing chain
    # of symbolic powers reaches the kernel of localization and stays there
    rng = random.Random(73)
    for _ in range(100):
        d = rng.randint(1, 5)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        q = rng.choice(ring.minimal_primes)
        kernel = localization_kernel(q, ring)
        partial = None
        stabilized = None
        for n in range(1, 12):
            s = symbolic_power(q, n, ring)
            assert orc.contains_ideal(s, kernel)
            partial = s if partial is None else intersect(partial, s)
            assert partial == s  # symbolic powers decrease, so partial meets collapse
            if stabilized is None and n > 1 and s == prev:
                stabilized = s
            prev = s
        assert stabilized is not None
        assert stabilized == kernel


# --------------------------------------------- closed forms against the loops

def _random_lynch_ideal(rng):
    """A Lynch family ideal under a random labelling, with unused variables."""
    nx, ny, nz = sorted(rng.randint(1, 3) for _ in range(3))
    d = nx + ny + nz + rng.randint(0, 2)
    labels = rng.sample(range(1, d + 1), nx + ny + nz)
    X, Y, Z = labels[:nx], labels[nx:nx + ny], labels[nx + ny:]
    Xp = rng.sample(X, rng.randint(1, len(X)))
    Yp = rng.sample(Y, rng.randint(1, len(Y)))
    return build_instance(d, X, Y, Z, Xp, Yp).ideal


def test_saturations_are_prime_intersections():
    # torsion, localization kernels, symbolic powers and the upper bound are
    # intersections of minimal primes of J; the iterated colon loops of the
    # oracle compute the same saturations from their definitions
    rng = random.Random(131)
    raised = widened = upper_seen = 0
    for k in range(300):
        if k % 5:
            d = rng.randint(1, 7)
            ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
            a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        else:
            a = _random_lynch_ideal(rng)
            ring, d = a.ring, a.ring.ambient
        J = ring.relations
        everything = frozenset(range(1, d + 1))

        reference = orc.saturate_by_ideal(J, a.lift)
        if reference.is_unit():
            with pytest.raises(InvalidInputError):
                torsion_ideal(a)
            raised += 1
        else:
            assert torsion_ideal(a) == reference, a

        primes = [everything]
        for p in rng.sample(ring.minimal_primes, min(3, len(ring.minimal_primes))):
            rest = sorted(everything - p)
            primes.append(p | frozenset(rng.sample(rest, rng.randint(0, len(rest)))))
        for q in primes:
            w = orc.from_support(everything - q, d)
            assert localization_kernel(q, ring) == orc.saturate(J, w), (J, q)
            for n in (1, 2, 3):
                qn = power(variable_ideal(q, d), n)
                assert symbolic_power(q, n, ring) == orc.saturate(ideal_sum(qn, J), w)
            widened += q not in ring.minimal_primes

        rep = annihilator_bounds(a, Q)
        found = {q for _, q in rep.sigma_witnesses if q is not None}
        if found:
            kernels = [
                orc.saturate(J, orc.from_support(everything - q, d)) for q in found
            ]
            assert rep.upper == intersect(*kernels), a
            upper_seen += 1
        else:
            assert rep.upper is None
    assert 0 < raised < 150 and widened > 600 and upper_seen > 150


# ------------------------------------------------------------------ bounds

def test_annihilator_bounds_lower_on_fixtures():
    inst = sw()
    rep = annihilator_bounds(inst.ideal, Q)
    assert rep.delta == (frozenset({3, 4}),)
    assert rep.lower == ideal(4, (0, 0, 1, 0), (0, 0, 0, 1))

    bah, _ = fixture("bahmanpour", d=7, l=7)
    rep = annihilator_bounds(bah.ideal, Q)
    assert rep.delta == (frozenset({5, 6, 7}),)
    assert rep.lower == variable_ideal({5, 6, 7}, 7)


def test_annihilator_bounds_lower_in_a_domain():
    ring = QuotientRing(2, ideal(2))
    a = QuotientIdeal(ring, ideal(2, (1, 0), (0, 1)))
    rep = annihilator_bounds(a, Q)
    assert rep.delta == (frozenset(),)
    assert rep.lower.is_zero()


def test_annihilator_bounds_on_singh_walther():
    rep = annihilator_bounds(sw().ideal, Q)
    assert rep.c == 2
    assert rep.delta == (frozenset({3, 4}),)
    assert rep.sigma_witnesses == ((frozenset({3, 4}), frozenset({3, 4})),)
    assert rep.lower == rep.upper == ideal(4, (0, 0, 1, 0), (0, 0, 0, 1))
    assert rep.exact and rep.exactness_reason == "all-witnesses-found"


def test_annihilator_bounds_on_bahmanpour():
    inst, _ = fixture("bahmanpour", d=7, l=7)
    rep = annihilator_bounds(inst.ideal, Q)
    assert rep.exact
    assert rep.lower == variable_ideal({5, 6, 7}, 7)
    witness = rep.sigma_witnesses[0][1]
    assert witness is not None and frozenset({5, 6, 7}) <= witness
    assert len(witness) == 7 - rep.c


def test_annihilator_bounds_faithful_regular_sequence():
    ring = QuotientRing(2, ideal(2))
    a = QuotientIdeal(ring, ideal(2, (1, 0), (0, 1)))
    rep = annihilator_bounds(a, Q)
    assert rep.c == 2 == ring.dim
    assert rep.exact and rep.lower.is_zero()
    assert rep.upper is not None and rep.upper.is_zero()


def test_sandwich_and_top_self_witnessing_on_random_instances():
    rng = random.Random(79)
    for _ in range(120):
        d = rng.randint(1, 5)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        rep = annihilator_bounds(a, Q)
        per_prime = cohomological_dimension(a, Q).per_prime
        assert rep.per_prime == per_prime
        assert set(rep.delta) == {p for p, v in per_prime if v == rep.c}
        assert orc.contains_ideal(rep.lower, ring.relations)
        if rep.upper is not None:
            assert orc.contains_ideal(rep.upper, rep.lower)
        if rep.c == ring.dim:
            # every critical prime is its own witness at the top
            assert rep.exact
            assert all(q == p for p, q in rep.sigma_witnesses)


def test_exactness_reason_matches_the_full_lift_reference():
    # dim R/(a) is read as d minus the smallest transversal of the masks of
    # radical(lift) and J; the reference takes the Krull dimension of lift + J
    rng = random.Random(101)
    reasons = {}
    for _ in range(400):
        d = rng.randint(1, 8)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        lift = orc.random_monomial_ideal(rng, d)
        if lift.is_unit():
            continue
        a = QuotientIdeal(ring, lift)
        rep = annihilator_bounds(a, Q)
        covers = orc.brute_minimal_covers([g.support() for g in orc.full_lift(a).gens], d)
        dim_quotient = d - min(map(len, covers))
        edges = [g.mask for g in (*a.radical_lift.gens, *ring.relations.gens)]
        assert d - _min_cover_size(edges) == dim_quotient == krull_dim(orc.full_lift(a)), a
        touched = set().union(*(g.support() for g in (*lift.gens, *ring.relations.gens)))
        free = d - len(touched)
        if all(q is not None for _, q in rep.sigma_witnesses):
            expected = "all-witnesses-found"
        elif rep.c <= 1:
            expected = "cd-le-1"
        elif dim_quotient - free <= 1:
            expected = "dim-quotient-le-1"
        else:
            # dim R - free <= 2 is no criterion of its own: it implies every witness
            assert ring.dim - free > 2, a
            expected = "none"
        assert rep.exactness_reason == expected, a
        reasons[expected] = reasons.get(expected, 0) + 1
    assert reasons.get("dim-quotient-le-1", 0) > 0, reasons


def test_closed_form_witness_matches_the_search_oracle():
    # every minimal prime, not only the critical ones, so that both answers
    # (a witness or None) are exercised at every cd the instance reaches
    rng = random.Random(83)
    pairs = found = 0
    for _ in range(3000):
        d = rng.randint(1, 7)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        for field in (Q, FieldSpec.prime_field(2)):
            c = cohomological_dimension(a, field).c
            for p, pmask in zip(ring.minimal_primes, ring.prime_masks):
                q = _witness_for(a, pmask, c)
                expected = orc.search_witness(a, p, c, field)
                assert q == (None if expected is None else varset_mask(expected, d)), (a, p, c)
                pairs += 1
                found += q is not None
    assert pairs > 3000 and 0 < found < pairs


def test_chain16_ann_bounds_sums_no_ideals(count_calls):
    # the heights of the bounds read the transversals of the lift's and J's
    # generator masks, so no lift + J is summed and minimalized; the two
    # minimalize calls are the instance's J and lift
    from golden.record import run_case

    counts = count_calls("minimalize", "ideal_sum")
    code, text = run_case(["--quiet", "ann-bounds", "instances/chain16.json"])
    assert code == 0 and text
    assert counts == {"minimalize": 2, "ideal_sum": 0}


def test_deficient_prime_height_is_read_in_closed_form(count_calls):
    # a critical prime p is a minimal prime of J, so ht(pR) = 0 and the
    # deficient-prime check reads 0 <= dim R - c - 1; against the height of
    # variable_ideal(p) from the transversal kernel, on seeded rings and on
    # chain16, whose ann-bounds then runs the prime-meet kernel 4 times: the
    # ring's primes, both bounds and the dim R/(a) transversals, with no height
    # searched
    from golden.record import run_case

    rng = random.Random(181)
    cases = []
    for _ in range(80):
        d = rng.randint(1, 6)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        cases.append(QuotientIdeal(ring, orc.random_monomial_ideal(rng, d)))
    cases.append(_chain16())
    seen = {"deficient": 0, "none": 0}
    for a in cases:
        ring = a.ring
        rep = annihilator_bounds(a, Q)
        deficient = [p for p in rep.delta if ring.ambient - len(p) > rep.c]
        heights = [
            height_in_quotient(QuotientIdeal(ring, variable_ideal(p, ring.ambient)))
            for p in deficient
        ]
        assert heights == [0] * len(deficient)
        checks = dict(height_report(rep, ring).corollary_checks)
        if deficient:
            ok = all(h <= ring.dim - rep.c - 1 for h in heights)
            assert checks["deficient-prime-height-bound"] is ok is True
        else:
            assert "deficient-prime-height-bound" not in checks
        seen["deficient" if deficient else "none"] += 1
    assert len(deficient) > 100, "chain16 has over a hundred deficient critical primes"
    assert min(seen.values()) >= 10, seen
    counts = count_calls("_prime_meet")
    code, text = run_case(["--quiet", "ann-bounds", "instances/chain16.json"])
    assert code == 0
    checks = {c["name"]: c["holds"] for c in json.loads(text)["heights"]["checks"]}
    assert checks["deficient-prime-height-bound"] is True
    assert counts == {"_prime_meet": 4}


def _chain16():
    path = os.path.join(os.path.dirname(__file__), "golden", "instances", "chain16.json")
    return load_instance(path, None, None).acting


def _canonical_and_seeded(max_d, count, seed):
    """Every canonical (J, a) pair with d <= 4 whose a is not zero, then `count`
    seeded rings with 1 <= d <= max_d."""
    for d in range(1, 5):
        for jkey, akey in orc.canonical_pairs(d):
            if akey:
                ring = QuotientRing(d, orc.ideal_from_key(jkey, d))
                yield QuotientIdeal(ring, orc.ideal_from_key(akey, d))
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, max_d)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        yield QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))


def test_heights_are_read_in_closed_form():
    # both bounds meet minimal primes of J, so the report reads ht_upper = 0
    # when there is an upper bound and ht_ann = 0 when it is exact, with no
    # search; the transversal search of height_in_quotient is the reference
    seen = {"upper": 0, "exact": 0, "not exact": 0}
    for a in [*_canonical_and_seeded(6, 200, 191), _chain16()]:
        ring = a.ring
        rep = annihilator_bounds(a, Q)
        hr = height_report(rep, ring)
        if rep.upper is None:
            assert hr.ht_upper is None
        else:
            assert hr.ht_upper == height_in_quotient(QuotientIdeal(ring, rep.upper)), a
            seen["upper"] += 1
        if rep.exact:
            assert hr.ht_ann == height_in_quotient(QuotientIdeal(ring, rep.lower)), a
        else:
            assert hr.ht_ann is None
        seen["exact" if rep.exact else "not exact"] += 1
    assert min(seen.values()) > 100, seen


def test_small_dimension_always_has_every_witness():
    # past cd <= 1, dim R - free <= 2 makes the image of a in R/p the maximal
    # ideal (x, y) on each critical prime p, whose witness is every variable
    # but x and y; so annihilator_bounds needs no dim R <= 2 criterion
    hits = 0
    for field in (Q, FieldSpec.prime_field(2)):
        for a in _canonical_and_seeded(7, 300, 193):
            supports = [g.support() for g in (*a.radical_lift.gens, *a.ring.relations.gens)]
            free = a.ring.ambient - len(frozenset().union(*supports))
            rep = annihilator_bounds(a, field)
            if rep.c >= 2 and a.ring.dim - free <= 2:
                assert all(q is not None for _, q in rep.sigma_witnesses), a
                assert rep.exactness_reason == "all-witnesses-found"
                hits += 1
    assert hits > 100, hits


def test_the_dim_le_2_reason_is_refused():
    import dataclasses

    rep = annihilator_bounds(sw().ideal, Q)
    with pytest.raises(InvalidInputError, match="unknown exactness reason 'dim-le-2'"):
        dataclasses.replace(rep, exactness_reason="dim-le-2")


def test_height_report_on_fixtures():
    inst = sw()
    rep = annihilator_bounds(inst.ideal, Q)
    hr = height_report(rep, inst.ring)
    assert hr.ht_upper == 0 and hr.ht_ann == 0
    assert all(holds for _, holds in hr.corollary_checks)

    bah, _ = fixture("bahmanpour", d=7, l=7)
    rep = annihilator_bounds(bah.ideal, Q)
    hr = height_report(rep, bah.ring)
    assert hr.ht_ann == 0
    assert all(holds for _, holds in hr.corollary_checks)


@st.composite
def quotient_instances(draw, max_d=4):
    d = draw(st.integers(1, max_d))
    supports = st.sets(st.integers(1, d), min_size=1)
    j_gens = draw(st.lists(supports, max_size=3))
    relations = minimalize([orc.from_support(s, d) for s in j_gens], d)
    exps = st.lists(st.integers(0, 2), min_size=d, max_size=d).map(tuple)
    a_gens = [g for g in draw(st.lists(exps, max_size=3)) if any(g)]
    return QuotientIdeal(QuotientRing(d, relations), minimalize(map(Monomial, a_gens), d))


@settings(max_examples=50, deadline=None)
@given(quotient_instances())
def test_bounds_sandwich_property(a):
    rep = annihilator_bounds(a, Q)
    assert orc.contains_ideal(rep.lower, a.ring.relations)
    if rep.upper is not None:
        assert orc.contains_ideal(rep.upper, rep.lower)
    assert 0 <= rep.c <= a.ring.dim
    assert rep.delta and set(rep.delta) <= set(a.ring.minimal_primes)
    if rep.exact:
        hr = height_report(rep, a.ring)
        assert all(holds for _, holds in hr.corollary_checks)


def test_padding_preserves_bounds_and_exactness():
    def pad(ideal_, extra):
        return minimalize(
            [Monomial(g.exponents + (0,) * extra) for g in ideal_.gens],
            ideal_.ambient + extra,
        )

    rng = random.Random(127)
    for _ in range(60):
        d = rng.randint(1, 4)
        relations = orc.random_squarefree_ideal(rng, d)
        lift = orc.random_monomial_ideal(rng, d)
        a = QuotientIdeal(QuotientRing(d, relations), lift)
        rep = annihilator_bounds(a, Q)
        extra = rng.randint(1, 2)
        padded = QuotientIdeal(
            QuotientRing(d + extra, pad(relations, extra)), pad(lift, extra)
        )
        rep2 = annihilator_bounds(padded, Q)
        assert rep2.c == rep.c
        assert rep2.delta == rep.delta
        assert rep2.lower == pad(rep.lower, extra)
        assert rep2.exact == rep.exact
        assert rep2.exactness_reason == rep.exactness_reason


def test_small_dimension_certificate_discounts_free_variables():
    # the triangle-edges ideal certifies because its quotient is a curve; an
    # unused fourth variable extends everything flatly and must not lose that
    tri3 = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    rep3 = annihilator_bounds(QuotientIdeal(QuotientRing(3, ideal(3)), tri3), Q)
    tri4 = ideal(4, (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0))
    rep4 = annihilator_bounds(QuotientIdeal(QuotientRing(4, ideal(4)), tri4), Q)
    for rep in (rep3, rep4):
        assert rep.c == 2
        assert rep.exact and rep.exactness_reason == "dim-quotient-le-1"
        assert rep.sigma_witnesses == ((frozenset(), None),)  # no monomial witness exists
        assert rep.upper is None
        assert rep.lower.is_zero()


def test_height_report_unknown_when_not_exact():
    import dataclasses

    rep = annihilator_bounds(sw().ideal, Q)
    hr = height_report(dataclasses.replace(rep, exact=False), sw().ring)
    assert hr.ht_ann is None
