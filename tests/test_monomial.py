"""Monomial ideal arithmetic against hand values and brute-force membership."""
from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topann.errors import InvalidInputError
from topann.monomial import (
    Monomial,
    MonomialIdeal,
    _prime_ideal,
    _squarefree,
    ideal_sum,
    mask_varset,
    minimalize,
    power,
    prime_intersection,
    radical,
    variable_ideal,
    varset_mask,
)

import _oracles as orc
from _oracles import intersect


def mono(*exps):
    return Monomial(tuple(exps))


def ideal(d, *gens):
    return minimalize([Monomial(tuple(g)) for g in gens], d)


# ------------------------------------------------------------------ minimalize

def test_minimalize_absorbs_multiples():
    assert ideal(2, (1, 0), (1, 1)) == ideal(2, (1, 0))


def test_minimalize_empty_is_zero_ideal():
    z = ideal(2)
    assert z.is_zero() and z.gens == ()


def test_minimalize_pairwise_antichain():
    # x·y·z1·z2 is absorbed by either of the other generators
    got = ideal(4, (1, 1, 1, 0), (1, 1, 1, 1), (1, 1, 0, 1))
    assert got == ideal(4, (1, 1, 1, 0), (1, 1, 0, 1))


def test_minimalize_unit_collapses():
    assert ideal(3, (0, 0, 0), (1, 0, 0)).is_unit()


def test_minimalize_rejects_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        minimalize([mono(1, 0), mono(1, 0, 0)], 2)


def test_membership_refuses_another_ambient():
    with pytest.raises(InvalidInputError, match="ambient dimension mismatch"):
        Monomial((1, 0)) in minimalize([Monomial((1, 0, 0))], 3)


def test_ideal_rejects_a_repeated_generator():
    g = mono(1, 0)
    with pytest.raises(InvalidInputError):
        MonomialIdeal(2, (g, g))
    with pytest.raises(InvalidInputError):
        MonomialIdeal(2, (g, Monomial((1, 0))))
    assert MonomialIdeal(2, (g,)) == minimalize([g, g], 2)


def test_ideal_rejects_a_divisible_generator_and_a_wrong_order():
    with pytest.raises(InvalidInputError, match="antichain"):
        MonomialIdeal(2, (mono(1, 1), mono(1, 0)))
    with pytest.raises(InvalidInputError, match="canonical order"):
        MonomialIdeal(2, (mono(0, 1), mono(1, 0)))
    with pytest.raises(InvalidInputError, match="canonical order"):
        MonomialIdeal(2, [mono(0, 1), mono(1, 0)])


def _random_generator_lists(rng):
    """Random generator lists: d <= 8, exponents 0..3, with repeats, the identity
    and the empty list, then lcm products as large as those of the Lynch
    relations (up to 48 generators times 4)."""
    yield 3, []
    for k in range(2000):
        d = rng.randint(1, 8)
        top = rng.choice((1, 1, 2, 3))
        pool = []
        for _ in range(rng.randint(1, 12)):
            exps = [rng.randint(0, top) for _ in range(d)]
            if not any(exps):
                exps[rng.randrange(d)] = top
            pool.append(Monomial(tuple(exps)))
        gens = [rng.choice(pool) for _ in range(rng.randint(0, 16))]
        if k % 50 == 0:
            gens.append(Monomial.identity(d))
        yield d, gens
    for _ in range(30):
        nx, ny, nz = rng.choice(((2, 4, 6), (3, 4, 4), (2, 3, 8), (1, 6, 7), (2, 2, 3)))
        d = nx + ny + nz + rng.randint(0, 2)
        labels = rng.sample(range(1, d + 1), d)
        X, Y = labels[:nx], labels[nx:nx + ny]
        Z = labels[nx + ny:nx + ny + nz]
        J = intersect(variable_ideal(X, d), variable_ideal(Y, d), variable_ideal(Z, d))
        others = [
            Monomial(tuple(rng.randint(0, 3) for _ in range(d))) for _ in range(4)
        ]
        yield d, [g.lcm(h) for g in J.gens for h in others]


def test_minimalize_matches_the_quadratic_definition():
    rng = random.Random(47)
    cases = 0
    for d, gens in _random_generator_lists(rng):
        expected = orc.brute_minimalize(gens)
        got = minimalize(gens, d)
        assert got.gens == expected
        # the antichain check in MonomialIdeal accepts exactly the antichains
        distinct = tuple(sorted(set(gens), reverse=True))
        if len(distinct) == len(expected):
            assert MonomialIdeal(d, distinct) == got
        else:
            with pytest.raises(InvalidInputError):
                MonomialIdeal(d, distinct)
        cases += 1
    assert cases == 2031


def test_radical_of_a_squarefree_ideal_is_itself():
    rng = random.Random(53)
    for d, gens in _random_generator_lists(rng):
        I = minimalize(gens, d)
        r = radical(I)
        if I.is_squarefree():
            assert r is I
        else:
            assert r.gens == orc.brute_minimalize(g.squarefree_part() for g in I.gens)


# ------------------------------------------------------------------- sum

def test_sum_of_principal_ideals():
    assert ideal_sum(ideal(2, (1, 0)), ideal(2, (0, 1))) == ideal(2, (1, 0), (0, 1))


def test_sum_with_zero_ideal():
    x = ideal(2, (1, 0))
    assert ideal_sum(x, ideal(2)) == x


def test_sum_absorption():
    got = ideal_sum(
        ideal(4, (1, 0, 0, 0)),
        ideal(4, (0, 1, 0, 0)),
        ideal(4, (1, 1, 1, 0), (1, 1, 0, 1)),
    )
    assert got == ideal(4, (1, 0, 0, 0), (0, 1, 0, 0))


def test_sum_ambient_mismatch():
    with pytest.raises(InvalidInputError):
        ideal_sum(ideal(2, (1, 0)), ideal(3, (1, 0, 0)))
    # the zero ideal has no generator whose ambient `minimalize` could check
    with pytest.raises(InvalidInputError, match="different ambient rings"):
        ideal_sum(ideal(2, (1, 0)), ideal(3))


# ------------------------------------------------------------------- intersect

def test_intersection_three_primes():
    got = intersect(
        variable_ideal({1}, 4), variable_ideal({2}, 4), variable_ideal({3, 4}, 4)
    )
    assert got == ideal(4, (1, 1, 1, 0), (1, 1, 0, 1))


def test_intersection_idempotent():
    x = ideal(2, (1, 0))
    assert intersect(x, x) == x


def test_variable_ideal_is_the_minimalized_variables():
    rng = random.Random(71)
    cases = [(3, [])] + [
        (d, [rng.randint(1, d) for _ in range(rng.randint(0, 2 * d))])
        for d in (rng.randint(1, 12) for _ in range(300))
    ]
    for d, indices in cases:
        expected = minimalize([orc.variable(i, d) for i in indices], d)
        assert variable_ideal(indices, d) == expected
        assert variable_ideal(frozenset(indices), d) == expected
    assert variable_ideal([2, 2, 1], 3).gens == (mono(1, 0, 0), mono(0, 1, 0))
    for bad in ([0], [4], [1, 5], [-1]):
        with pytest.raises(InvalidInputError, match="out of range"):
            variable_ideal(bad, 3)
    for d in (1, 3, 9):
        for v in (0, d + 1, True, 1.0, "1"):
            with pytest.raises(InvalidInputError) as err:
                variable_ideal([1, v], d)
            assert str(err.value) == f"variable index {v!r} out of range 1..{d}"


def test_intersection_two_primes():
    got = intersect(variable_ideal({1, 2}, 3), variable_ideal({2, 3}, 3))
    assert got == ideal(3, (0, 1, 0), (1, 0, 1))


def _random_primes(rng, d):
    """Prime lists with the zero prime and repeated or nested primes."""
    primes = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if primes and roll < 0.15:
            primes.append(rng.choice(primes))
        elif primes and roll < 0.3:
            base = rng.choice(primes)
            primes.append(base | {v for v in range(1, d + 1) if rng.random() < 0.3})
        elif roll < 0.35:
            primes.append(frozenset())
        else:
            density = rng.random()
            primes.append(frozenset(v for v in range(1, d + 1) if rng.random() < density))
    return primes


def test_prime_intersection_matches_intersect():
    rng = random.Random(83)
    for _ in range(3000):
        d = rng.randint(1, 12)
        primes = _random_primes(rng, d)
        expected = intersect(*(variable_ideal(p, d) for p in primes))
        masks = [varset_mask(p, d) for p in primes]  # what the library meets
        assert _prime_ideal(masks, d) == prime_intersection(primes, d) == expected, (d, primes)


def test_prime_intersection_edges():
    assert prime_intersection([], 3) == _prime_ideal([], 3) == ideal(3, (0, 0, 0))
    assert prime_intersection([frozenset()], 3).is_zero() and _prime_ideal([0], 3).is_zero()
    assert prime_intersection([{1, 2}, set(), {3}], 3).is_zero()
    assert prime_intersection(iter([{1}, {2}, {3, 4}]), 4) == ideal(
        4, (1, 1, 1, 0), (1, 1, 0, 1)
    )
    for bad in ([{0}], [{4}], [{1}, {2, 5}], [{-1}]):
        with pytest.raises(InvalidInputError, match="out of range"):
            prime_intersection(bad, 3)


# ------------------------------------------------------------------- colon
# The iterated colon and saturation loops live on as the oracle reference for
# the prime-intersection closed forms; these tests keep that reference honest.

def test_colon_splits_off_common_factor():
    J = ideal(4, (1, 1, 1, 0), (1, 1, 0, 1))
    assert orc.colon(J, mono(1, 1, 0, 0)) == ideal(4, (0, 0, 1, 0), (0, 0, 0, 1))


def test_colon_by_identity():
    x = ideal(2, (1, 0))
    assert orc.colon(x, mono(0, 0)) == x


def test_colon_exponent_subtraction():
    assert orc.colon(ideal(2, (2, 1)), mono(1, 0)) == ideal(2, (1, 1))


# ------------------------------------------------------------------- saturate

def test_saturation_reaches_fixpoint():
    J = ideal(4, (1, 1, 1, 0), (1, 1, 0, 1))
    got = orc.saturate(J, mono(1, 1, 0, 0))
    assert got == ideal(4, (0, 0, 1, 0), (0, 0, 0, 1))
    assert orc.colon(got, mono(1, 1, 0, 0)) == got


def test_saturation_by_coprime_variable():
    x = ideal(2, (1, 0))
    assert orc.saturate(x, mono(0, 1)) == x


def test_saturation_removes_factor():
    assert orc.saturate(ideal(2, (1, 1)), mono(0, 1)) == ideal(2, (1, 0))


# ------------------------------------------------------------------- power

def test_square_of_two_variables():
    assert power(ideal(2, (1, 0), (0, 1)), 2) == ideal(2, (2, 0), (1, 1), (0, 2))


def test_cube_of_principal():
    assert power(ideal(1, (1,)), 3) == ideal(1, (3,))


def test_square_with_mixed_generators():
    got = power(ideal(3, (1, 1, 0), (0, 0, 1)), 2)
    assert got == ideal(3, (2, 2, 0), (1, 1, 1), (0, 0, 2))


def test_power_requires_positive_exponent():
    with pytest.raises(InvalidInputError):
        power(ideal(1, (1,)), 0)
    # True was read as n = 1, and 2.0 ended in TypeError
    for n in (True, False, 2.0, 1.0):
        with pytest.raises(InvalidInputError, match="an int n"):
            power(ideal(2, (1, 0), (0, 1)), n)


# ---------------------------------------------------------- the constructor

def test_public_constructor_refuses_negative_exponents():
    with pytest.raises(InvalidInputError, match="nonnegative"):
        Monomial((1, -1))
    for exps in [(1.5, 0), (True, 0)]:
        with pytest.raises(InvalidInputError, match="nonnegative ints"):
            Monomial(exps)
    with pytest.raises(InvalidInputError, match="n >= 0"):
        mono(2, 0).power(-1)
    for n in (True, False, 2.0):  # True was read as n = 1
        with pytest.raises(InvalidInputError, match="an int n"):
            mono(2, 1).power(n)
    assert Monomial([1, 2]).exponents == (1, 2)


@pytest.mark.parametrize("build", [
    lambda: Monomial(5),
    lambda: MonomialIdeal(3, 5),
    lambda: MonomialIdeal(3, [5]),
    lambda: MonomialIdeal(True, ()),
    lambda: MonomialIdeal(-1, ()),
], ids=["Monomial-int", "MonomialIdeal-int-gens", "MonomialIdeal-int-generator",
        "MonomialIdeal-bool-ambient", "MonomialIdeal-negative-ambient"])
def test_public_constructors_refuse_what_is_not_a_monomial_or_ideal(build):
    with pytest.raises(InvalidInputError):
        build()


def test_operations_build_the_same_monomials_as_the_constructor():
    # the operations skip the constructor's checks; their results must still
    # be equal, hash alike and order alike with checked monomials
    rng = random.Random(61)
    for _ in range(200):
        a = mono(*(rng.randint(0, 3) for _ in range(4)))
        b = mono(*(rng.randint(0, 3) for _ in range(4)))
        pairs = [
            (a * b, [x + y for x, y in zip(a.exponents, b.exponents)]),
            (a.lcm(b), [max(x, y) for x, y in zip(a.exponents, b.exponents)]),
            (a.gcd(b), [min(x, y) for x, y in zip(a.exponents, b.exponents)]),
            (a.squarefree_part(), [min(x, 1) for x in a.exponents]),
        ]
        for got, exps in pairs:
            checked = Monomial(tuple(exps))
            assert type(got) is Monomial and type(got.exponents) is tuple
            assert got == checked and hash(got) == hash(checked)
            assert (got < a) == (checked < a)


def _checked_mask(m: Monomial) -> int:
    return sum(1 << i for i, e in enumerate(m.exponents) if e)


def _assert_canonical(r: MonomialIdeal) -> int:
    """`r` equals the checked construction of itself, and every preset mask is
    the one its exponents give; returns the number of preset masks."""
    assert type(r) is MonomialIdeal and type(r.gens) is tuple
    assert all(type(g.exponents) is tuple for g in r.gens)
    assert MonomialIdeal(r.ambient, r.gens) == r
    preset = [g for g in r.gens if "mask" in vars(g)]
    for g in preset:
        assert g.mask == _checked_mask(g), g
    return len(preset)


def test_trusted_constructions_equal_the_checked_ones():
    # minimalize, prime_intersection and variable_ideal build their ideals
    # without the constructor's checks
    rng = random.Random(89)
    cases = 0
    for r in (prime_intersection([], 4), prime_intersection([frozenset()], 4)):
        assert _assert_canonical(r) == len(r.gens)
    assert prime_intersection([], 4).is_unit()
    assert prime_intersection([frozenset()], 4).is_zero()
    for _ in range(800):
        d = rng.randint(1, 12)
        r = prime_intersection(_random_primes(rng, d), d)
        assert _assert_canonical(r) == len(r.gens)
        cases += 1
    for _ in range(500):
        d = rng.randint(1, 12)
        varset = [rng.randint(1, d) for _ in range(rng.randint(0, 2 * d))]
        r = variable_ideal(varset, d)
        assert _assert_canonical(r) == len(r.gens) == len(set(varset))
        cases += 1
    for d, gens in islice(_random_generator_lists(rng), 700):
        r = minimalize(gens, d)
        _assert_canonical(r)
        if Monomial.identity(d) in gens:
            assert r.gens == (Monomial.identity(d),)
        cases += 1
    assert cases >= 2000


# ----------------------------------------------------------- support bitmask

def test_mask_layout_is_one_bit_per_variable():
    # bit v - 1 for variable v, on checked monomials, the identity and the
    # results of operations built without the constructor's checks
    rng = random.Random(67)
    for _ in range(300):
        d = rng.randint(1, 20)
        a = Monomial(tuple(rng.choice((0, 0, 1, 2, 5)) for _ in range(d)))
        b = Monomial(tuple(rng.choice((0, 0, 1, 3)) for _ in range(d)))
        for m in (a, b, Monomial.identity(d), a.lcm(b), a.squarefree_part(), b * a):
            assert mask_varset(m.mask) == m.support()
            assert varset_mask(m.support(), d) == m.mask
            assert varset_mask(mask_varset(m.mask), d) == m.mask
            for v in range(1, d + 1):
                assert bool(m.mask >> (v - 1) & 1) == (m.exponents[v - 1] != 0)
            assert m.mask < 1 << d
    assert Monomial.identity(4).mask == 0 and mask_varset(0) == frozenset()
    assert Monomial((0, 2, 0, 1)).mask == 0b1010


def test_squarefree_builds_the_checked_monomial_a_byte_at_a_time():
    # every ambient 0..40 crosses the byte boundaries 8, 16 and 24 and goes past 24
    rng = random.Random(71)
    for d in range(41):
        masks = {0, (1 << d) - 1} | {1 << i for i in range(d)}
        masks |= {rng.getrandbits(d) for _ in range(40)} if d else set()
        for mask in masks:
            got = _squarefree(mask, d)
            checked = Monomial(tuple(mask >> i & 1 for i in range(d)))
            assert type(got) is Monomial and type(got.exponents) is tuple
            assert got == checked and hash(got) == hash(checked), (d, mask)
            assert vars(got)["mask"] == mask == _checked_mask(checked)


def test_is_squarefree_has_no_exponent_above_one():
    # the degree equals the support's bit count exactly when no exponent is 2 or more
    rng = random.Random(73)
    seen = set()
    for _ in range(600):
        d = rng.randint(0, 12)
        gens = [
            Monomial(tuple(rng.choice((0, 0, 1, 1, 1, 2, 3)) for _ in range(d)))
            for _ in range(rng.randint(0, 4))
        ]
        for m in gens + [Monomial.identity(d)]:
            expected = all(e <= 1 for e in m.exponents)
            assert m.is_squarefree() == expected, m
            seen.add(expected)
        I = minimalize(gens, d)
        expected = all(e <= 1 for g in I.gens for e in g.exponents)
        assert I.is_squarefree() == expected, I
        seen.add(("ideal", expected))
    assert seen == {True, False, ("ideal", True), ("ideal", False)}


# ------------------------------------------------------------------ membership

def test_membership_examples():
    zz = ideal(4, (0, 0, 1, 0), (0, 0, 0, 1))
    assert mono(1, 1, 1, 0) in zz
    assert mono(1, 0) not in ideal(2, (1, 1))
    J = ideal(4, (1, 1, 1, 0), (1, 1, 0, 1))
    assert mono(1, 1, 1, 0) in J


# ------------------------------------------------------------------- radical

def test_radical_examples():
    assert radical(ideal(2, (2, 1))) == ideal(2, (1, 1))
    assert radical(ideal(2, (1, 0), (0, 2))) == ideal(2, (1, 0), (0, 1))
    assert radical(ideal(3, (2, 1, 0), (0, 3, 1))) == ideal(3, (1, 1, 0), (0, 1, 1))


# ------------------------------------------------------- property based checks

def exponent_vectors(d, max_exp=3):
    return st.lists(st.integers(0, max_exp), min_size=d, max_size=d).map(tuple)


@st.composite
def ideal_pairs(draw, max_d=4):
    d = draw(st.integers(1, max_d))
    gens1 = draw(st.lists(exponent_vectors(d), max_size=4))
    gens2 = draw(st.lists(exponent_vectors(d), max_size=4))
    return (
        minimalize([Monomial(g) for g in gens1], d),
        minimalize([Monomial(g) for g in gens2], d),
    )


@settings(max_examples=80, deadline=None)
@given(ideal_pairs())
def test_minimalize_idempotent(pair):
    I, _ = pair
    assert minimalize(I.gens, I.ambient) == I


@settings(max_examples=80, deadline=None)
@given(ideal_pairs())
def test_sum_and_intersection_membership(pair):
    I, J = pair
    d = I.ambient
    s = ideal_sum(I, J)
    m = intersect(I, J)
    assert ideal_sum(J, I) == s and intersect(J, I) == m
    assert orc.contains_ideal(s, I) and orc.contains_ideal(s, J)
    assert orc.contains_ideal(I, m) and orc.contains_ideal(J, m)
    for f in orc.box_monomials(d, 2):
        assert (f in s) == orc.brute_sum_member(f, I, J)
        assert (f in m) == orc.brute_intersection_member(f, I, J)


@settings(max_examples=60, deadline=None)
@given(ideal_pairs(), st.data())
def test_colon_membership_duality(pair, data):
    I, _ = pair
    d = I.ambient
    m = Monomial(data.draw(exponent_vectors(d, 2)))
    q = orc.colon(I, m)
    for f in orc.box_monomials(d, 2):
        assert (f in q) == orc.brute_colon_member(f, I, m)


@settings(max_examples=60, deadline=None)
@given(ideal_pairs(), st.data())
def test_saturation_fixpoint_and_membership(pair, data):
    I, _ = pair
    d = I.ambient
    m = Monomial(data.draw(exponent_vectors(d, 2)))
    if m.is_identity():
        m = orc.variable(1, d)
    s = orc.saturate(I, m)
    assert orc.colon(s, m) == s
    for f in orc.box_monomials(d, 2):
        assert (f in s) == orc.brute_saturation_member(f, I, m)


@settings(max_examples=80, deadline=None)
@given(ideal_pairs())
def test_radical_properties(pair):
    I, _ = pair
    r = radical(I)
    assert radical(r) == r
    assert orc.contains_ideal(r, I)
    for f in orc.box_monomials(I.ambient, 2):
        assert (f in r) == orc.brute_radical_member(f, I)


@settings(max_examples=40, deadline=None)
@given(ideal_pairs(), st.integers(1, 3))
def test_power_membership(pair, n):
    I, J = pair
    if I.is_zero():
        I = ideal_sum(I, minimalize([orc.variable(1, I.ambient)], I.ambient))
    p = power(I, n)
    for f in orc.box_monomials(I.ambient, 3):
        assert (f in p) == orc.brute_power_member(f, I, n)
    combined = intersect(p, power(ideal_sum(I, J), n))
    for f in orc.box_monomials(I.ambient, 2):
        assert (f in combined) == (
            orc.brute_power_member(f, I, n)
            and orc.brute_power_member(f, ideal_sum(I, J), n)
        )


@settings(max_examples=80, deadline=None)
@given(ideal_pairs(), st.data())
def test_associativity_against_third(pair, data):
    I, J = pair
    d = I.ambient
    gens3 = data.draw(st.lists(exponent_vectors(d), max_size=3))
    K = minimalize([Monomial(g) for g in gens3], d)
    assert ideal_sum(ideal_sum(I, J), K) == ideal_sum(I, ideal_sum(J, K))
    assert intersect(intersect(I, J), K) == intersect(I, intersect(J, K))
