"""Betti numbers, projective dimension, and cohomological dimension."""
from __future__ import annotations

import json
import os
import random
from itertools import combinations

import pytest

from topann import cohomdim

from topann.cli import load_instance, main
from topann.cohomdim import (
    cd_on_prime,
    cohomological_dimension,
    grade_on_prime,
    top_betti_degree,
)
from topann.errors import GuardExceededError, InvalidInputError
from topann.linalg import FieldSpec
from topann.monomial import Monomial, minimalize, radical, variable_ideal
from topann.stanley_reisner import QuotientIdeal, QuotientRing, krull_dim

import _oracles as orc

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)


def ideal(d, *gens):
    return minimalize([Monomial(tuple(g)) for g in gens], d)


J_SW = ideal(4, (1, 1, 1, 0), (1, 1, 0, 1))
F3 = FieldSpec.prime_field(3)


def rp2_ideal():
    """Stanley-Reisner ideal of the 6-vertex projective plane: the ten
    triangles missing from the triangulation."""
    facets = [
        {1, 2, 3}, {1, 2, 4}, {1, 3, 5}, {1, 4, 6}, {1, 5, 6},
        {2, 3, 6}, {2, 4, 5}, {2, 5, 6}, {3, 4, 5}, {3, 4, 6},
    ]
    nonfaces = [set(t) for t in combinations(range(1, 7), 3) if set(t) not in facets]
    return minimalize([orc.from_support(t, 6) for t in nonfaces], 6)


def edge_ideal_of_complete_graph(n):
    return minimalize([orc.from_support(e, n) for e in combinations(range(1, n + 1), 2)], n)


def sw_ideal():
    ring = QuotientRing(4, J_SW)
    return QuotientIdeal(ring, ideal(4, (1, 0, 0, 0), (0, 1, 0, 0)))


# ------------------------------------------------------------------ Betti

def test_betti_of_two_variables_is_koszul():
    table = orc.betti_dict(orc.betti_numbers(ideal(2, (1, 0), (0, 1)), Q))
    assert table == {(0, 0b00): 1, (1, 0b01): 1, (1, 0b10): 1, (2, 0b11): 1}


def test_betti_of_principal_ideal():
    table = orc.betti_dict(orc.betti_numbers(ideal(2, (1, 1)), Q))
    assert table == {(0, 0b00): 1, (1, 0b11): 1}


def test_pd_examples():
    for I, pd in (
        (ideal(2, (1, 0), (0, 1)), 2),
        (ideal(2, (1, 1)), 1),
        (J_SW, 2),
        (ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1)), 2),
    ):
        assert top_betti_degree(I, Q)[0] == pd
        assert max(i for i, _, _ in orc.betti_numbers(I, Q).entries) == pd


def test_betti_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        top_betti_degree(ideal(2, (2, 0)), Q)
    with pytest.raises(InvalidInputError):
        top_betti_degree(ideal(2, (0, 0)), Q)


def test_betti_ambient_guard():
    wide = ideal(15, tuple([1] + [0] * 14))
    with pytest.raises(GuardExceededError, match="ambient 15 exceeds the guard 14"):
        top_betti_degree(wide, Q)


def test_betti_equals_koszul_tor_on_random_ideals():
    rng = random.Random(43)
    for _ in range(30):
        d = rng.randint(1, 4)
        I = orc.random_squarefree_ideal(rng, d, allow_zero=False)
        if I.is_zero():
            continue
        for field in (Q, F2):
            table = orc.betti_numbers(I, field)
            assert table.entries == tuple(sorted(table.entries))
            assert orc.betti_dict(table) == orc.koszul_tor_table(I, field)


def test_betti_koszul_exhaustive_small():
    # every squarefree proper nonzero ideal in up to 4 variables, plus d=5 samples
    for d in (1, 2, 3, 4):
        subsets = [
            frozenset(i + 1 for i in range(d) if mask >> i & 1)
            for mask in range(1, 1 << d)
        ]
        n = len(subsets)
        for mask in range(1, 1 << n):
            chosen = [subsets[i] for i in range(n) if mask >> i & 1]
            if any(a < b for a in chosen for b in chosen):
                continue
            I = minimalize([orc.from_support(s, d) for s in chosen], d)
            for field in (Q, F2):
                table = orc.betti_dict(orc.betti_numbers(I, field))
                assert table == orc.koszul_tor_table(I, field)
    rng = random.Random(97)
    for _ in range(20):
        I = orc.random_squarefree_ideal(rng, 5, allow_zero=False)
        if I.is_zero():
            continue
        for field in (Q, F2):
            assert orc.betti_dict(orc.betti_numbers(I, field)) == orc.koszul_tor_table(I, field)


def _supports(I):
    return [g.mask for g in I.gens]


def _forced_table(I, field, crosscut):
    """The Betti table with every degree but 0 ranked on the chosen complex."""
    supports = _supports(I)
    table = {}
    for sigma in cohomdim._lcm_support_closure(supports):
        below = cohomdim._below(sigma, supports)
        for i, h in cohomdim._degree_betti(sigma, below, field, crosscut and sigma != 0).items():
            table[(i, sigma)] = h
    return table


def test_both_betti_complexes_match_the_dense_reference():
    rng = random.Random(71)
    ideals = [rp2_ideal(), edge_ideal_of_complete_graph(5)]
    while len(ideals) < 40:
        I = orc.random_squarefree_ideal(rng, rng.randint(2, 7), allow_zero=False)
        if not I.is_zero():
            ideals.append(I)
    for I in ideals:
        for field in (Q, F2, F3):
            reference = orc.dense_betti_table(I, field)
            assert _forced_table(I, field, crosscut=False) == reference
            assert _forced_table(I, field, crosscut=True) == reference
            assert orc.betti_dict(orc.betti_numbers(I, field)) == reference
    # more generators than variables: 21 edges on 7 vertices
    K7 = edge_ideal_of_complete_graph(7)
    for field in (Q, F2):
        assert orc.betti_dict(orc.betti_numbers(K7, field)) == orc.koszul_tor_table(K7, field)


def test_each_degree_is_ranked_on_the_smaller_complex(monkeypatch):
    calls = []
    for side in ("_crosscut_faces", "_restricted_faces"):
        original = getattr(cohomdim, side)

        def spy(sigma, below, _side=side, _original=original):
            calls.append((_side, sigma, len(below)))
            return _original(sigma, below)

        monkeypatch.setattr(cohomdim, side, spy)
    path = ideal(6, (1, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 1))
    for I in (rp2_ideal(), edge_ideal_of_complete_graph(7), J_SW, path):
        calls.clear()
        orc.betti_numbers(I, Q)
        supports = _supports(I)
        visited = sorted(sigma for _, sigma, _ in calls)
        assert visited == sorted(cohomdim._lcm_support_closure(supports))
        assert {side for side, _, _ in calls} == {"_crosscut_faces", "_restricted_faces"}
        top_betti_degree(I, Q)  # the search ranks its degrees the same way
        for side, sigma, m in calls:
            smaller = "_crosscut_faces" if m < sigma.bit_count() else "_restricted_faces"
            assert side == smaller


# ------------------------------------------------------- top Betti degree

def _seeded_ideals(rng, count):
    """Squarefree proper ideals in 1 to 12 variables with 1 to 8 generators,
    mostly of 1 to 4 variables each, so that pd spreads over its range."""
    ideals = []
    while len(ideals) < count:
        d = rng.randint(1, 12)
        largest = rng.choice((2, 3, 4, d))
        gens = [
            orc.from_support(rng.sample(range(1, d + 1), rng.randint(1, min(d, largest))), d)
            for _ in range(rng.randint(1, 8))
        ]
        ideals.append(minimalize(gens, d))
    return ideals


def test_top_betti_degree_matches_the_whole_table():
    # the bounded search against the whole table it replaces: pd, and a degree
    # sigma with beta_{pd, sigma} != 0, over Q, F_2 and F_3 on seeded ideals
    # and on rp2, whose pd is 4 over F_2 and 3 otherwise
    rng = random.Random(211)
    ideals = [rp2_ideal(), edge_ideal_of_complete_graph(7), J_SW] + _seeded_ideals(rng, 3_000)
    pds = set()
    for I in ideals:
        for field in (Q, F2, F3):
            table = orc.betti_numbers(I, field)
            pd, sigma = top_betti_degree(I, field)
            assert pd == table.projective_dimension(), (I, field)
            assert (pd, sigma) in orc.betti_dict(table), (I, field)
            pds.add(pd)
    assert pds >= set(range(1, 7)), pds


def test_top_betti_degree_ranks_few_degrees(monkeypatch):
    # rp2's lcm lattice has 33 degrees, and the search ranks 7 of them: sigma =
    # x1...x6 (bound 6) and the six degrees of 5 variables (bound 5); past them
    # every bound is at most 3
    ranked = []
    original = cohomdim._degree_betti

    def spy(sigma, below, field, crosscut):
        ranked.append(sigma)
        return original(sigma, below, field, crosscut)

    monkeypatch.setattr(cohomdim, "_degree_betti", spy)
    I = rp2_ideal()
    lattice = cohomdim._lcm_support_closure([g.mask for g in I.gens])
    for field, expected in ((Q, (3, 0b011111)), (F2, (4, 0b111111))):
        ranked.clear()
        assert top_betti_degree(I, field) == expected
        assert len(ranked) == 7 < len(lattice) == 33
        assert ranked[0] == 0b111111
        assert {s.bit_count() for s in ranked[1:]} == {5}


def _taylor_minimal_ideal(rng):
    """k generators, each holding a private variable and some shared ones."""
    k = rng.randint(1, 6)
    d = rng.randint(k, 12)
    shared = list(range(k + 1, d + 1))
    gens = [
        orc.from_support({g + 1, *rng.sample(shared, rng.randint(0, len(shared)))}, d)
        for g in range(k)
    ]
    return minimalize(gens, d)


# Near misses of the closed form, with pd below the generator count: in the
# path x3-x1-x2-x4 every generator after the first holds a variable no earlier
# one holds, and in the triangle and the 4-cycle no support lies in another
# one, but each is covered by the union of the others.
NEAR_MISSES = (
    (ideal(4, (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)), 2),
    (ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1)), 2),
    (ideal(4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)), 3),
)


def test_the_taylor_closed_form_matches_the_whole_table():
    rng = random.Random(223)
    for _ in range(300):
        I = _taylor_minimal_ideal(rng)
        union = 0
        for g in I.gens:
            union |= g.mask
        for field in (Q, F2, F3):
            table = orc.betti_numbers(I, field)
            pd, sigma = top_betti_degree(I, field)
            assert (pd, sigma) == (len(I.gens), union), (I, field)
            assert pd == table.projective_dimension(), (I, field)
            assert (pd, sigma) in orc.betti_dict(table), (I, field)
    for I, pd in NEAR_MISSES:
        for field in (Q, F2, F3):
            assert pd == orc.betti_numbers(I, field).projective_dimension() < len(I.gens)
            assert top_betti_degree(I, field)[0] == pd


def test_a_taylor_minimal_ideal_builds_no_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("lcm lattice or Betti degree built")

    rng = random.Random(227)
    ideals = [_taylor_minimal_ideal(rng) for _ in range(100)]
    searched = [I for I, _ in NEAR_MISSES]
    expected = [top_betti_degree(I, Q) for I in ideals]
    monkeypatch.setattr(cohomdim, "_degree_betti", refuse)
    monkeypatch.setattr(cohomdim, "_lcm_support_closure", refuse)
    for field in (Q, F2, F3):
        assert [top_betti_degree(I, field) for I in ideals] == expected
    for I, (pd, _) in zip(ideals, expected):
        ring = QuotientRing(I.ambient, minimalize([], I.ambient))
        assert cd_on_prime(QuotientIdeal(ring, I), frozenset(), F2) == pd
    for I in searched:
        with pytest.raises(AssertionError, match="lattice"):
            top_betti_degree(I, Q)


def test_cd_and_grade_on_prime_match_the_reindexed_image():
    # the mask route against the reindexed image it replaces, on every minimal
    # prime and on primes above one: cd as the image's pd, and the grade as
    # its height, ambient minus Krull dimension
    rng = random.Random(229)
    primes_seen = nonzero = 0
    for _ in range(150):
        d = rng.randint(1, 7)
        a = _random_quotient_instance(rng, d)
        primes = set(a.ring.minimal_primes)
        for p in a.ring.minimal_primes:
            extra = rng.sample(range(1, d + 1), rng.randint(0, d))
            primes.add(p | frozenset(extra))
        for p in primes:
            image = orc._image_in_prime_quotient(a, p)
            for field in (Q, F2, F3):
                old = 0 if image.is_zero() else top_betti_degree(image, field)[0]
                assert cd_on_prime(a, p, field) == old, (a, p, field)
            grade = None if image.is_zero() else image.ambient - krull_dim(image)
            assert grade_on_prime(a, p) == grade, (a, p)
            primes_seen += 1
            nonzero += not image.is_zero()
    assert primes_seen > 300 and nonzero > 100


def test_cd_table_reads_the_rings_checked_prime_masks(monkeypatch):
    # the table reads the masks the ring checked when it found its primes, so
    # it checks no prime again, and matches cd_on_prime prime by prime; a
    # prime over no minimal prime is still refused there
    path = os.path.join(os.path.dirname(__file__), "golden", "instances", "chain16.json")
    rng = random.Random(77)
    instances = [_random_quotient_instance(rng, rng.randint(1, 7)) for _ in range(60)]
    instances.append(load_instance(path, None, None).acting)
    real = QuotientRing.require_support
    calls = []

    def counted(ring, q):
        calls.append(q)
        return real(ring, q)

    monkeypatch.setattr(QuotientRing, "require_support", counted)
    refused = 0
    for a in instances:
        for field in (Q, F2):
            calls.clear()
            per_prime = cohomological_dimension(a, field).per_prime
            assert calls == []
            assert per_prime == tuple((p, cd_on_prime(a, p, field)) for p in a.ring.minimal_primes)
            assert len(calls) == len(per_prime)
        outside = frozenset(range(1, a.ring.ambient + 1)) - a.ring.minimal_primes[0]
        if not any(p <= outside for p in a.ring.minimal_primes):
            with pytest.raises(InvalidInputError, match="not in the support"):
                cd_on_prime(a, outside, Q)
            refused += 1
    assert len(instances[-1].ring.minimal_primes) == 177 and refused > 10


def test_cd_on_prime_guards_the_surviving_variables():
    # J = 0 in 15 variables and a = (x1): the guard counts the variables
    # outside the prime, and a zero image needs no Betti number
    ring = QuotientRing(15, minimalize([], 15))
    a = QuotientIdeal(ring, variable_ideal({1}, 15))
    assert cd_on_prime(a, frozenset({2}), Q) == 1
    assert cd_on_prime(a, frozenset({1}), Q) == 0
    with pytest.raises(GuardExceededError, match="ambient 15 exceeds the guard 14"):
        cd_on_prime(a, frozenset(), Q)
    with pytest.raises(InvalidInputError, match="variable index 16 out of range 1..15"):
        cd_on_prime(a, frozenset({16}), Q)


def test_cd_on_prime_does_not_build_the_betti_table():
    # the whole table is a test oracle, out of the program's reach; cd comes
    # from the bounded search and Taylor's closed form
    assert not hasattr(cohomdim, "betti_numbers") and not hasattr(cohomdim, "BettiTable")
    ring = QuotientRing(6, minimalize([], 6))
    assert cd_on_prime(QuotientIdeal(ring, rp2_ideal()), frozenset(), F2) == 4
    assert cohomological_dimension(sw_ideal(), Q).c == 2


def test_an_image_past_the_betti_guard_exits_3(tmp_path, capsys):
    # J = 0 in 15 variables: the image on the zero prime has ambient 15
    ring = QuotientRing(15, minimalize([], 15))
    a = QuotientIdeal(ring, variable_ideal({1}, 15))
    with pytest.raises(GuardExceededError, match="ambient 15 exceeds the guard 14"):
        cd_on_prime(a, frozenset(), Q)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "vars": [f"x{k}" for k in range(1, 16)], "J": [], "a": [{"x1": 1}],
    }))
    code = main(["--quiet", "cd", str(path)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "ambient 15 exceeds the guard 14" in err


# ------------------------------------------------------------------ cd

def test_cd_on_each_minimal_prime_of_the_three_prime_ring():
    a = sw_ideal()
    assert cd_on_prime(a, frozenset({1}), Q) == 1
    assert cd_on_prime(a, frozenset({2}), Q) == 1
    assert cd_on_prime(a, frozenset({3, 4}), Q) == 2


def test_cd_zero_when_ideal_dies_on_the_prime():
    ring = QuotientRing(2, ideal(2, (1, 0)))
    a = QuotientIdeal(ring, ideal(2, (1, 0)))
    assert cd_on_prime(a, frozenset({1}), Q) == 0


def test_cd_report_for_the_three_prime_ring():
    rep = cohomological_dimension(sw_ideal(), Q)
    assert rep.c == 2
    assert dict(rep.per_prime) == {
        frozenset({1}): 1,
        frozenset({2}): 1,
        frozenset({3, 4}): 2,
    }


def test_cd_principal_ideal_in_polynomial_ring():
    ring = QuotientRing(1, ideal(1))
    rep = cohomological_dimension(QuotientIdeal(ring, ideal(1, (1,))), Q)
    assert rep.c == 1


def test_cd_triangle_edges_over_f2():
    ring = QuotientRing(3, ideal(3))
    a = QuotientIdeal(ring, ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert cohomological_dimension(a, F2).c == 2


def test_cd_rejects_prime_outside_support():
    ring = QuotientRing(4, J_SW)
    a = QuotientIdeal(ring, ideal(4, (1, 0, 0, 0)))
    with pytest.raises(InvalidInputError):
        cd_on_prime(a, frozenset({4}), Q)
    with pytest.raises(InvalidInputError):
        grade_on_prime(a, frozenset({4}))


# ------------------------------------------------------------------ grade

def test_grade_on_minimal_primes():
    a = sw_ideal()
    assert grade_on_prime(a, frozenset({1})) == 1
    assert grade_on_prime(a, frozenset({2})) == 1
    assert grade_on_prime(a, frozenset({3, 4})) == 2


def test_grade_of_principal_ideal():
    ring = QuotientRing(2, ideal(2))
    a = QuotientIdeal(ring, ideal(2, (1, 1)))
    assert grade_on_prime(a, frozenset()) == 1


def test_grade_none_on_torsion():
    ring = QuotientRing(2, ideal(2, (1, 0)))
    a = QuotientIdeal(ring, ideal(2, (1, 0)))
    assert grade_on_prime(a, frozenset({1})) is None


# -------------------------------------------------------------- invariants

def _random_quotient_instance(rng, d):
    J = orc.random_squarefree_ideal(rng, d)
    ring = QuotientRing(d, J)
    a = orc.random_monomial_ideal(rng, d)
    if a.is_unit():
        a = variable_ideal({1}, d)
    return QuotientIdeal(ring, a)


def test_grade_cd_ara_sandwich():
    rng = random.Random(47)
    for _ in range(80):
        d = rng.randint(1, 5)
        a = _random_quotient_instance(rng, d)
        for p in a.ring.minimal_primes:
            g = grade_on_prime(a, p)
            c = cd_on_prime(a, p, Q)
            if g is None:
                assert c == 0
                continue
            image_gens = [
                x for x in radical(a.lift).gens if not x.support() & p
            ]
            assert g <= c <= len(minimalize(image_gens, d).gens)


def test_cd_bounded_by_dimension_and_radical_invariance():
    rng = random.Random(53)
    for _ in range(60):
        d = rng.randint(1, 5)
        a = _random_quotient_instance(rng, d)
        rep = cohomological_dimension(a, Q)
        assert 0 <= rep.c <= a.ring.dim
        for p, v in rep.per_prime:
            assert 0 <= v <= a.ring.ambient - len(p)
        rad = QuotientIdeal(a.ring, radical(a.lift))
        assert cohomological_dimension(rad, Q) == rep


def test_projective_plane_ideal_feels_the_characteristic():
    # Stanley-Reisner ideal of the 6-vertex projective plane: the ten triangles
    # missing from the triangulation.  Its resolution is one step longer in
    # characteristic 2, and both Betti routes must see that.
    I = rp2_ideal()
    for field, expected_pd in ((Q, 3), (F2, 4), (FieldSpec.prime_field(3), 3)):
        table = orc.betti_numbers(I, field)
        assert table.projective_dimension() == expected_pd
        assert orc.betti_dict(table) == orc.koszul_tor_table(I, field)
    # cd over a field follows pd, so the torsion functor support jumps too
    ring = QuotientRing(6, minimalize([], 6))
    a = QuotientIdeal(ring, I)
    assert cohomological_dimension(a, Q).c == 3
    assert cohomological_dimension(a, F2).c == 4


def test_reports_carry_their_field():
    rep_q = cohomological_dimension(sw_ideal(), Q)
    rep_2 = cohomological_dimension(sw_ideal(), F2)
    assert rep_q.field == Q and rep_2.field == F2
