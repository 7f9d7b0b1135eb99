"""Minimal primes, dimensions, heights, and the Stanley-Reisner dictionary."""
from __future__ import annotations

import inspect
import itertools
import random
import sys

import pytest

import topann.monomial as monomial
import topann.stanley_reisner as sr
from topann.cohomdim import grade_on_prime
from topann.errors import GuardExceededError, InvalidInputError
from topann.monomial import (
    Monomial,
    mask_varset,
    minimalize,
    radical,
    variable_ideal,
    varset_mask,
)
from topann.stanley_reisner import (
    QuotientIdeal,
    QuotientRing,
    height_in_quotient,
    is_face,
    krull_dim,
    minimal_primes,
)

import _oracles as orc
from _oracles import intersect


def ideal(d, *gens):
    return minimalize([Monomial(tuple(g)) for g in gens], d)


J_SW = ideal(4, (1, 1, 1, 0), (1, 1, 0, 1))  # (x) cap (y) cap (z1, z2)


def test_minimal_primes_of_three_prime_intersection():
    assert minimal_primes(J_SW) == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3, 4}),
    )


def test_minimal_primes_of_principal_prime():
    assert minimal_primes(ideal(1, (1,))) == (frozenset({1}),)


def test_minimal_primes_of_triangle_edges():
    got = minimal_primes(ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert got == (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))
    edges = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
    assert list(got) == orc.brute_minimal_covers(edges, 3)


def test_minimal_primes_of_zero_ideal_is_zero_prime():
    assert minimal_primes(ideal(3)) == (frozenset(),)


def test_minimal_primes_rejects_unit():
    with pytest.raises(InvalidInputError):
        minimal_primes(ideal(2, (0, 0)))


def test_minimal_primes_ambient_guard():
    from topann.errors import GuardExceededError

    wide = ideal(21, tuple([1] + [0] * 20))
    with pytest.raises(GuardExceededError, match="ambient 21 exceeds the guard 20"):
        minimal_primes(wide)


def test_minimal_primes_against_brute_force_on_random_ideals():
    rng = random.Random(23)
    for _ in range(400):
        d = rng.randint(1, 8)
        I = orc.random_squarefree_ideal(rng, d)
        got = minimal_primes(I)
        edges = [g.support() for g in I.gens]
        assert list(got) == orc.brute_minimal_covers(edges, d)
        # every generator support meets every returned prime, and output is an antichain
        for p in got:
            assert all(p & e for e in edges)
        assert not any(p < q for p in got for q in got)


def test_minimal_primes_of_lynch_relations_are_the_three_primes():
    rng = random.Random(43)
    shapes = [(1, 1, 1), (1, 2, 2), (2, 2, 2), (1, 3, 5), (2, 4, 6), (3, 4, 4), (2, 3, 8)]
    for _ in range(60):
        nx, ny, nz = rng.choice(shapes)
        d = nx + ny + nz + rng.randint(0, 2)
        labels = rng.sample(range(1, d + 1), d)
        X = frozenset(labels[:nx])
        Y = frozenset(labels[nx:nx + ny])
        Z = frozenset(labels[nx + ny:nx + ny + nz])
        J = intersect(variable_ideal(X, d), variable_ideal(Y, d), variable_ideal(Z, d))
        assert len(J.gens) == nx * ny * nz
        assert set(minimal_primes(J)) == {X, Y, Z}


def test_intersection_of_minimal_primes_recovers_radical():
    rng = random.Random(29)
    for _ in range(60):
        d = rng.randint(1, 5)
        I = orc.random_monomial_ideal(rng, d)
        if I.is_unit():
            continue
        primes = minimal_primes(I)
        meet = variable_ideal(primes[0], d)
        for p in primes[1:]:
            meet = intersect(meet, variable_ideal(p, d))
        assert meet == radical(I)


def _repeated_and_nested_supports(rng, d):
    """Generators over a few supports of two or three variables: each support
    twice with exponents up to 3, and once grown by a variable, minimalized."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        s = rng.sample(range(1, d + 1), rng.randint(2, min(3, d - 1)))
        grown = s + [rng.choice([v for v in range(1, d + 1) if v not in s])]
        for support in (s, s, grown):
            exps = [0] * d
            for v in support:
                exps[v - 1] = rng.randint(1, 3)
            gens.append(Monomial(tuple(exps)))
    return minimalize(gens, d)


def test_covers_are_read_from_the_generators_without_the_radical():
    # ideals with exponents up to 3 and generator supports that repeat or nest,
    # which the radical merges or drops: the minimal transversals are the same
    rng = random.Random(241)
    ideals = [orc.random_monomial_ideal(rng, rng.randint(1, 9), 3, 6) for _ in range(300)]
    ideals += [_repeated_and_nested_supports(rng, rng.randint(3, 9)) for _ in range(300)]
    repeated = nested = 0
    for I in ideals:
        if I.is_unit():
            continue
        supports = [g.mask for g in I.gens]
        repeated += len(set(supports)) < len(supports)
        nested += any(s & t == s != t for s in supports for t in supports)
        brute = orc.brute_minimal_covers([g.support() for g in I.gens], I.ambient)
        assert list(minimal_primes(I)) == brute == list(minimal_primes(radical(I))), I
        assert krull_dim(I) == I.ambient - min(map(len, brute)) == krull_dim(radical(I)), I
    assert repeated >= 100 and nested >= 100


def test_minimal_primes_and_krull_dim_take_no_radical(monkeypatch):
    rng = random.Random(251)
    ideals = [_repeated_and_nested_supports(rng, rng.randint(3, 9)) for _ in range(50)]
    radicals = [radical(I) for I in ideals]
    calls = []

    def spy(ideal):
        calls.append(ideal)
        return radical(ideal)

    monkeypatch.setattr(sr, "radical", spy)
    monkeypatch.setattr(monomial, "radical", spy)
    for I, rad in zip(ideals, radicals):
        minimal_primes(I)
        krull_dim(I)
        QuotientRing(I.ambient, rad)  # its meet check too
    assert calls == []


def test_krull_dim_examples():
    assert krull_dim(J_SW) == 3
    assert krull_dim(ideal(4)) == 4
    assert krull_dim(ideal(4, (1, 0, 0, 0), (0, 1, 0, 0))) == 2
    with pytest.raises(InvalidInputError):
        krull_dim(ideal(2, (0, 0)))


def _smallest_cover(edges, d):
    return min(len(c) for c in orc.brute_minimal_covers(edges, d))


def test_krull_dim_is_a_minimum_transversal():
    # against every subset of the vertices, on seeded hypergraphs with d <= 12;
    # raw edge lists keep nested edges and repeats, which an ideal would drop
    rng = random.Random(239)
    cases = [(d, []) for d in (1, 5, 12)]  # the zero ideal
    cases.append((6, [{3}, {1, 3}, {1, 2, 3}, {5}, {4, 5, 6}]))
    while len(cases) < 400:
        d = rng.randint(1, 12)
        largest = rng.choice((1, 2, 3, d))
        edges = [
            set(rng.sample(range(1, d + 1), rng.randint(1, min(d, largest))))
            for _ in range(rng.randint(0, 10))
        ]
        cases.append((d, edges))
    nested = singles = 0
    for d, edges in cases:
        masks = [varset_mask(e, d) for e in edges]
        smallest = _smallest_cover(edges, d)
        assert sr._min_cover_size(masks) == smallest, (d, edges)
        if edges:
            I = minimalize([orc.from_support(e, d) for e in edges], d)
            assert krull_dim(I) == d - smallest, (d, edges)
            power = minimalize([g * g for g in I.gens], d)
            assert krull_dim(power) == d - smallest
        else:
            assert krull_dim(minimalize([], d)) == d
        nested += any(e < f for e in edges for f in edges)
        singles += any(len(e) == 1 for e in edges)
    assert nested >= 50 and singles >= 50


def _family_edges(d):
    """The path, cycle, triangle chain and perfect matching on d vertices."""
    path = [{i, i + 1} for i in range(1, d)]
    return {
        "path": path,
        "cycle": path + [{d, 1}] if d >= 3 else path,
        "chain": [{i, i + 1, i + 2} for i in range(1, d - 1)],
        "matching": [{i, i + 1} for i in range(1, d, 2)],
    }


def test_transversals_match_brute_force_on_families_and_hypergraphs():
    # minimal primes, Krull dimension and the grade on each minimal prime, all
    # read from `_prime_meet`, against every subset of the vertices: the four
    # families up to d = 12, then seeded hypergraphs whose edges repeat and
    # nest, as squared generators so that the radical would merge them
    rng = random.Random(257)
    cases = [(d, edges) for d in range(1, 13) for edges in _family_edges(d).values() if edges]
    while len(cases) < 200:
        d = rng.randint(2, 12)
        base = [rng.sample(range(1, d + 1), rng.randint(1, min(d, 4))) for _ in range(3)]
        edges = [set(e) for e in base for _ in range(rng.randint(1, 2))]
        edges += [set(e) | {rng.randint(1, d)} for e in base]
        cases.append((d, edges))
    for d, edges in cases:
        brute = orc.brute_minimal_covers(edges, d)
        gens = [orc.from_support(e, d) for e in edges]
        I = minimalize([g * g for g in gens], d)
        assert list(minimal_primes(I)) == brute, (d, edges)
        assert krull_dim(I) == d - len(brute[0]), (d, edges)
        ring = QuotientRing(d, minimalize([orc.from_support({1, d}, d)], d))
        a = QuotientIdeal(ring, I)
        for p in ring.minimal_primes:
            image = [e for e in edges if not e & p]
            want = len(orc.brute_minimal_covers(image, d)[0]) if image else None
            assert grade_on_prime(a, p) == want, (d, edges, p)


def test_krull_dim_work_is_bounded_on_dense_hypergraphs():
    # the kernel forms each candidate support s | v once per open support s
    # and variable v of the next edge: 3,420 on all squarefree cubics on 20
    # variables, 380 on the complete graph and 1,857 on the triangle chain,
    # with 190, 20 and 684 minimal covers.  A meet that kept the redundant
    # candidates forms 8,724, 686 and 128,286; one that took the edges in a
    # shuffled order formed 28,611, 2,692 and 4,056
    lines, first = inspect.getsourcelines(monomial._prime_meet)
    target = first + next(i for i, line in enumerate(lines) if "g = s | low" in line)
    code = monomial._prime_meet.__code__
    formed = limit = 0

    def count(frame, event, arg):
        nonlocal formed
        if event == "line" and frame.f_lineno == target:
            formed += 1
            if formed > limit:
                raise RuntimeError(f"more than {limit} candidate supports")
        return count

    def calls(frame, event, arg):
        return count if frame.f_code is code else None

    d = 20
    cubics = [set(s) for s in itertools.combinations(range(1, d + 1), 3)]
    complete = [set(s) for s in itertools.combinations(range(1, d + 1), 2)]
    chain = _family_edges(d)["chain"]
    for edges, dim, limit in ((cubics, 2, 5_000), (complete, 1, 570), (chain, 14, 2_750)):
        I = minimalize([orc.from_support(e, d) for e in edges], d)
        formed = 0
        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            assert krull_dim(I) == dim
        finally:
            sys.settrace(previous)
        assert 0 < formed <= limit


def test_krull_dim_errors_unchanged():
    for d in (2, 21):
        with pytest.raises(InvalidInputError, match="zero ring"):
            krull_dim(minimalize([Monomial((0,) * d)], d))
    with pytest.raises(GuardExceededError, match="ambient 21 exceeds the guard 20"):
        krull_dim(variable_ideal({1}, 21))
    assert krull_dim(variable_ideal({1}, 20)) == 19


def test_sr_faces_are_supports_outside_the_ideal():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randint(1, 5)
        J = orc.random_squarefree_ideal(rng, d)
        j_masks = [g.mask for g in J.gens]
        for mask in range(1 << d):
            outside = orc.from_support(mask_varset(mask), d) not in J
            assert is_face(mask, j_masks) == outside


def test_krull_dim_is_max_facet_size():
    rng = random.Random(37)
    for _ in range(40):
        d = rng.randint(1, 5)
        J = orc.random_squarefree_ideal(rng, d)
        if J.is_unit():
            continue
        # the largest face: the largest support of a squarefree monomial outside J
        supports = [mask_varset(mask) for mask in range(1 << d)]
        largest = max(len(s) for s in supports if orc.from_support(s, d) not in J)
        assert krull_dim(J) == largest


def test_quotient_ring_caches_and_checks_primes():
    ring = QuotientRing(4, J_SW)
    assert ring.minimal_primes == minimal_primes(J_SW)
    assert ring.dim == 3
    with pytest.raises(InvalidInputError):
        QuotientRing(4, ideal(4, (2, 0, 0, 0)))
    with pytest.raises(InvalidInputError):
        QuotientRing(4, ideal(4, (0, 0, 0, 0)))


def test_quotient_ring_rejects_primes_that_miss_the_ideal(monkeypatch):
    # the check intersects the primes it is given, not the covers behind them
    J = ideal(3, (1, 0, 1), (0, 1, 1))  # (x3) cap (x1, x2)
    assert QuotientRing(3, J).minimal_primes == (frozenset({3}), frozenset({1, 2}))
    wrong = [
        [{3}],  # the intersection (x3) lies strictly above J
        # one extra prime: the intersection (x1*x3) lies strictly inside J, so
        # a check of containment in one direction only passes one of these two
        [{1}, {3}, {1, 2}],
        # (x1*x2, x1*x3, x2*x3) lies strictly above J and holds J's generators
        [{1, 2}, {1, 3}, {2, 3}],
    ]
    for primes in wrong:
        monkeypatch.setattr(sr, "_sorted_primes", lambda ideal: (
            tuple(map(frozenset, primes)), tuple(varset_mask(p, 3) for p in primes)
        ))
        with pytest.raises(InvalidInputError, match="do not intersect"):
            QuotientRing(3, J)


def test_quotient_ideal_requires_proper_sum():
    ring = QuotientRing(4, J_SW)
    with pytest.raises(InvalidInputError):
        QuotientIdeal(ring, ideal(4, (0, 0, 0, 0)))


def test_quotient_ring_refuses_relations_of_another_ambient():
    with pytest.raises(InvalidInputError, match="relations ideal has the wrong ambient"):
        QuotientRing(3, ideal(2, (1, 1)))


def test_quotient_ideal_refuses_a_lift_of_another_ambient():
    with pytest.raises(InvalidInputError, match="lift has the wrong ambient"):
        QuotientIdeal(QuotientRing(4, J_SW), ideal(3, (1, 0, 0)))


def test_height_examples():
    ring = QuotientRing(4, J_SW)
    zz = QuotientIdeal(ring, ideal(4, (0, 0, 1, 0), (0, 0, 0, 1)))
    assert height_in_quotient(zz) == 0

    poly2 = QuotientRing(2, ideal(2))
    assert height_in_quotient(QuotientIdeal(poly2, ideal(2, (1, 0)))) == 1

    ring_xy = QuotientRing(2, ideal(2, (1, 1)))
    assert height_in_quotient(QuotientIdeal(ring_xy, ideal(2, (1, 1)))) == 0


def test_height_on_masks_matches_the_full_lift_reference():
    # the height reads the minimal transversals of the lift's and J's generator
    # masks; the reference finds the minimal primes of lift + J by brute force
    rng = random.Random(97)
    heights = set()
    for _ in range(400):
        d = rng.randint(1, 8)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        lift = orc.random_monomial_ideal(rng, d)
        if lift.is_unit():
            continue
        a = QuotientIdeal(ring, lift)
        height = height_in_quotient(a)
        assert height == orc.height_in_quotient(a), a
        heights.add(height)
    assert len(heights) >= 3


def test_height_plus_dim_in_polynomial_ring():
    rng = random.Random(41)
    for _ in range(60):
        d = rng.randint(1, 5)
        ring = QuotientRing(d, minimalize([], d))
        a = orc.random_monomial_ideal(rng, d)
        if a.is_unit() or a.is_zero():
            continue
        q = QuotientIdeal(ring, a)
        assert height_in_quotient(q) + krull_dim(a) == d

