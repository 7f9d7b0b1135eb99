"""The multigraded Cech oracle: pieces, slice ranks, annihilation action."""
from __future__ import annotations

import gc
import os
import random
from itertools import product

import pytest

from topann.cech import (
    CECH_GUARD_DEFAULT,
    DegreeBox,
    _coboundary,
    _induced_map_is_zero,
    _sign_pattern,
    _sign_ranges,
    _SliceEngine,
    annihilation_check,
    cech_ranks,
    localization_piece,
)
from topann.cohomdim import cohomological_dimension
from topann.errors import GuardExceededError, InvalidInputError
from topann.cli import load_instance
from topann.linalg import FieldSpec, VectorSpaceComplex
from topann.lynch import fixture
from topann.monomial import Monomial, minimalize, power, radical, varset_mask
from topann.stanley_reisner import QuotientIdeal, QuotientRing, is_face

import _oracles as orc

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F3 = FieldSpec.prime_field(3)


def ideal(d, *gens):
    return minimalize([Monomial(tuple(g)) for g in gens], d)


def test_degree_box_validation():
    with pytest.raises(InvalidInputError):
        DegreeBox((0, 0), (-1, 0))
    with pytest.raises(InvalidInputError):
        DegreeBox((0,), (0, 0))
    box = DegreeBox.uniform(2, -1, 1)
    assert (0, 0) in box and (-2, 0) not in box
    assert len(list(box.degrees())) == 9
    assert DegreeBox([-1, -1], [1, 1]) == box  # lists become tuples


@pytest.mark.parametrize("lower, upper", [(3, 4), ((0,), 4)])
def test_degree_box_refuses_bounds_that_are_not_sequences(lower, upper):
    with pytest.raises(InvalidInputError, match="sequence"):
        DegreeBox(lower, upper)


def _plane_pair():
    return QuotientIdeal(QuotientRing(2, ideal(2, (1, 1))), ideal(2, (1, 0), (0, 1)))


def test_cech_ranks_refuses_a_box_of_another_ambient():
    with pytest.raises(InvalidInputError, match="box dimension does not match"):
        cech_ranks(_plane_pair(), DegreeBox.uniform(3, -1, 1), Q)


def test_annihilation_check_refuses_a_monomial_of_another_ambient():
    with pytest.raises(InvalidInputError, match="monomial or box dimension mismatch"):
        annihilation_check(Monomial((1, 0, 0)), _plane_pair(), 1, DegreeBox.uniform(2, -1, 1), Q)


def test_localization_piece_examples():
    zero2 = ideal(2)
    assert localization_piece(zero2, varset_mask({1, 2}, 2), (-1, -1)) == 1
    xy = ideal(2, (1, 1))
    assert localization_piece(xy, varset_mask({1}, 2), (-2, 1)) == 0
    assert localization_piece(xy, varset_mask({1}, 2), (-2, 0)) == 1


def test_localization_piece_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        localization_piece(ideal(2, (2, 0)), 0, (0, 0))
    with pytest.raises(InvalidInputError):
        localization_piece(ideal(2), 0, (0, 0, 0))


def test_localization_piece_against_truncated_fractions_exhaustive():
    # required micro-oracle: check the combinatorial rule on every squarefree
    # proper ideal with at most 3 variables, every localization set, and a box
    for d in (1, 2, 3):
        subsets = [
            frozenset(i + 1 for i in range(d) if mask >> i & 1)
            for mask in range(1, 1 << d)
        ]
        ideals = []
        n = len(subsets)
        for mask in range(1 << n):
            chosen = [subsets[i] for i in range(n) if mask >> i & 1]
            if any(a <= b for i, a in enumerate(chosen) for j, b in enumerate(chosen) if i != j):
                continue
            ideals.append(minimalize([orc.from_support(s, d) for s in chosen], d))
        box = DegreeBox.uniform(d, -2, 2)
        for J in ideals:
            for wmask in range(1 << d):
                W = frozenset(i + 1 for i in range(d) if wmask >> i & 1)
                for deg in box.degrees():
                    assert localization_piece(
                        J, varset_mask(W, d), deg
                    ) == orc.truncated_localization_piece(J, W, deg)


def test_top_local_cohomology_of_the_plane():
    # H^2 of K[x,y] supported at (x,y) lives exactly in strictly negative degrees
    ring = QuotientRing(2, ideal(2))
    a = QuotientIdeal(ring, ideal(2, (1, 0), (0, 1)))
    rep = cech_ranks(a, DegreeBox.uniform(2, -2, 0), Q)
    for deg, ranks in rep.ranks.items():
        expected = 1 if deg[0] < 0 and deg[1] < 0 else 0
        assert ranks[2] == expected
        assert ranks[0] == 0 and ranks[1] == 0
    assert rep.top_nonvanishing == 2
    assert sum(r[2] for r in rep.ranks.values()) == 4


def test_everything_is_torsion_when_ideal_lies_in_relations_radical():
    ring = QuotientRing(2, ideal(2, (1, 0)))
    a = QuotientIdeal(ring, ideal(2, (1, 0)))
    rep = cech_ranks(a, DegreeBox.uniform(2, -2, 1), Q)
    assert rep.top_nonvanishing == 0
    # H^0 carries the whole quotient ring slice by slice
    for deg, ranks in rep.ranks.items():
        expected = 1 if deg[0] == 0 and deg[1] >= 0 else 0
        assert ranks[0] == expected


def test_singh_walther_top_nonvanishing():
    inst, _ = fixture("singh-walther")
    rep = cech_ranks(inst.ideal, DegreeBox.uniform(4, -2, 1), Q)
    assert rep.top_nonvanishing == 2


def test_guard_on_generator_count():
    ring = QuotientRing(6, ideal(6))
    gens = [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]
    a = QuotientIdeal(ring, ideal(6, *gens))
    with pytest.raises(GuardExceededError, match="on 6 generators exceeds guard 3"):
        cech_ranks(a, DegreeBox.uniform(6), Q, guard=3)


def test_oracle_matches_cd_on_random_instances():
    rng = random.Random(83)
    for _ in range(25):
        d = rng.randint(1, 4)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        for field in (Q, F2):
            c = cohomological_dimension(a, field).c
            top = cech_ranks(a, DegreeBox.uniform(d), field).top_nonvanishing
            assert top == c


def test_radical_equality_gives_equal_rank_maps():
    rng = random.Random(89)
    for _ in range(20):
        d = rng.randint(1, 4)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        lift = orc.random_monomial_ideal(rng, d)
        if lift.is_zero() or lift.is_unit():
            continue
        a = QuotientIdeal(ring, lift)
        b = QuotientIdeal(ring, power(lift, 2))
        assert radical(orc.full_lift(a)) == radical(orc.full_lift(b))
        box = DegreeBox.uniform(d, -2, 1)
        ra = cech_ranks(a, box, Q)
        rb = cech_ranks(b, box, Q)
        for deg in box.degrees():
            va, vb = ra.ranks[deg], rb.ranks[deg]
            width = max(len(va), len(vb))
            assert list(va) + [0] * (width - len(va)) == list(vb) + [0] * (width - len(vb))


def test_annihilation_of_certified_generator():
    inst, _ = fixture("singh-walther")
    box = DegreeBox.uniform(4, -3, 1)
    z1 = orc.variable(3, 4)
    verdict = annihilation_check(z1, inst.ideal, 2, box, Q)
    assert verdict.verdict == "annihilates-in-box"
    assert verdict.witness_degree is None
    assert verdict.coverage_gaps > 0  # translates leave the box near its edge


def test_action_of_nonmember_is_visible():
    inst, _ = fixture("singh-walther")
    box = DegreeBox.uniform(4, -3, 1)
    x = orc.variable(1, 4)
    verdict = annihilation_check(x, inst.ideal, 2, box, Q)
    assert verdict.verdict == "acts-nonzero"
    assert verdict.witness_degree is not None


def test_identity_acts_nonzero_where_cohomology_lives():
    inst, _ = fixture("singh-walther")
    box = DegreeBox.uniform(4, -2, 1)
    one = Monomial.identity(4)
    verdict = annihilation_check(one, inst.ideal, 2, box, Q)
    assert verdict.verdict == "acts-nonzero"
    assert verdict.coverage_gaps == 0


def test_projective_plane_slice_feels_the_characteristic():
    # Cech route to the characteristic dependence: for the 6-vertex projective
    # plane ideal the slice at (-1,..,-1) carries H^4 over F_2 and vanishes
    # over Q, matching the projective-dimension jump seen by the Betti engine.
    from itertools import combinations

    facets = [
        {1, 2, 3}, {1, 2, 4}, {1, 3, 5}, {1, 4, 6}, {1, 5, 6},
        {2, 3, 6}, {2, 4, 5}, {2, 5, 6}, {3, 4, 5}, {3, 4, 6},
    ]
    nonfaces = [set(t) for t in combinations(range(1, 7), 3) if set(t) not in facets]
    I = minimalize([orc.from_support(t, 6) for t in nonfaces], 6)
    ring = QuotientRing(6, minimalize([], 6))
    a = QuotientIdeal(ring, I)
    point = DegreeBox((-1,) * 6, (-1,) * 6)
    over_q = cech_ranks(a, point, Q).ranks[(-1,) * 6]
    over_f2 = cech_ranks(a, point, F2).ranks[(-1,) * 6]
    assert not any(over_q)
    assert over_f2[4] == 1


def test_annihilation_outside_complex_range_is_trivial():
    inst, _ = fixture("singh-walther")
    box = DegreeBox.uniform(4, -1, 1)
    one = Monomial.identity(4)
    assert annihilation_check(one, inst.ideal, 9, box, Q).verdict == "annihilates-in-box"


def test_in_box_action_characterizes_certified_annihilator():
    # on exact instances the in-box verdict matches membership in the certified
    # annihilator in both directions for all low-degree monomials
    from topann.annihilator import annihilator_bounds

    rng = random.Random(131)
    exact_seen = 0
    for _ in range(120):
        d = rng.randint(2, 3)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        rep = annihilator_bounds(a, Q)
        if not rep.exact:
            continue
        exact_seen += 1
        box = DegreeBox.uniform(d, -4, 2)
        for f in orc.box_monomials(d, 2):
            if f.degree > 2:
                continue
            verdict = annihilation_check(f, a, rep.c, box, Q).verdict
            expected = "annihilates-in-box" if f in rep.lower else "acts-nonzero"
            assert verdict == expected, (ring.relations.pretty(), a.lift.pretty(), f.pretty())
    assert exact_seen >= 50


def _random_box(rng, d):
    if rng.random() < 0.15:  # a single degree
        point = tuple(rng.randint(-3, 2) for _ in range(d))
        return DegreeBox(point, point)
    lower, upper = [], []
    for _ in range(d):
        lo = rng.randint(-4, 1)  # lo = 1 or hi < 0 leaves 0 out of the coordinate
        hi = lo + rng.randint(1, 5) if rng.random() < 0.8 else lo
        lower.append(lo)
        upper.append(hi)
    return DegreeBox(tuple(lower), tuple(upper))


def _random_shift(rng, d):
    if rng.random() < 0.15:
        return Monomial.identity(d)
    exps = [rng.choice((0, 0, 0, 0, 1, 1, 2)) for _ in range(d)]
    if rng.random() < 0.1:  # wider than any coordinate's range: nothing is checked
        exps[rng.randrange(d)] = 6
    return Monomial(tuple(exps))


def test_pattern_sweep_matches_the_degree_sweep():
    # the pattern sweep against the per-degree sweep it replaces: every rank,
    # the listed degrees and their count, and the full annihilation verdict
    rng = random.Random(97)
    seen = {"acts-nonzero": 0, "annihilates-in-box": 0, "gaps-before-witness": 0}
    for _ in range(800):
        d = rng.randint(1, 5)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        box = _random_box(rng, d)
        for field in (Q, F2):
            rep = cech_ranks(a, box, field)
            ranks, top = orc.sweep_cech_ranks(a, box, field)
            assert list(rep.ranks.items()) == list(ranks.items())
            assert len(rep.ranks) == len(ranks)
            nonzero = [(deg, r) for deg, r in sorted(ranks.items()) if any(r)]
            assert rep.ranks.nonzero() == nonzero
            assert rep.ranks.nonzero_count() == len(nonzero)
            assert rep.top_nonvanishing == top
            live = sorted({i for _, r in nonzero for i, x in enumerate(r) if x})
            for _ in range(3):
                m = _random_shift(rng, d)
                i = rng.choice(live) if live and rng.random() < 0.8 else rng.randint(-1, d + 1)
                v = annihilation_check(m, a, i, box, field)
                got = (v.verdict, v.witness_degree, v.degrees_checked, v.coverage_gaps)
                assert got == orc.sweep_annihilation(m, a, i, box, field), (
                    ring.relations.pretty(), a.lift.pretty(), box, m.exponents, i)
                seen[v.verdict] += 1
                seen["gaps-before-witness"] += bool(v.witness_degree and v.coverage_gaps)
    assert seen["acts-nonzero"] >= 200 and seen["annihilates-in-box"] >= 200
    assert seen["gaps-before-witness"] >= 50


def _span_box(rng, d):
    """A box each of whose coordinates spans one, two or three sign ranges, and
    the span counts."""
    lower, upper, spans = [], [], []
    for _ in range(d):
        signs = rng.choice(((-1,), (0,), (1,), (-1, 0), (0, 1), (-1, 0, 1)))
        lower.append(-rng.randint(1, 3) if signs[0] < 0 else signs[0])
        upper.append(rng.randint(1, 2) if signs[-1] > 0 else signs[-1])
        spans.append(len(signs))
    return DegreeBox(tuple(lower), tuple(upper)), spans


def test_cell_walk_sums_the_sign_pattern_of_each_cell(monkeypatch):
    # both walks sum per-coordinate shares of a cell's sign pattern: the
    # patterns cech_ranks asks the engine for against _sign_pattern of each
    # cell's first degree and of every degree, and annihilation_check against
    # the per-degree sweep
    real = _SliceEngine.ranks
    asked = []

    def spy(engine, pat):
        asked.append(pat)
        return real(engine, pat)

    monkeypatch.setattr(_SliceEngine, "ranks", spy)
    rng = random.Random(2207)
    spans = {1: 0, 2: 0, 3: 0}
    verdicts = {"acts-nonzero": 0, "annihilates-in-box": 0}
    for n in range(300):
        d = rng.randint(1, 4)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        box, box_spans = _span_box(rng, d)
        field = (Q, F2, F3)[n % 3]
        asked.clear()
        rep = cech_ranks(a, box, field)
        walk = asked[:]
        cells = product(*(_sign_ranges(lo, hi) for lo, hi in zip(box.lower, box.upper)))
        assert walk == [_sign_pattern(tuple(r[0] for r in cell)) for cell in cells]
        assert walk == list(dict.fromkeys(map(_sign_pattern, box.degrees())))
        live = sorted({i for r in rep.ranks.values() for i, x in enumerate(r) if x})
        for _ in range(3):
            m = _random_shift(rng, d)
            i = rng.choice(live) if live and rng.random() < 0.9 else rng.randint(0, d)
            v = annihilation_check(m, a, i, box, field)
            got = (v.verdict, v.witness_degree, v.degrees_checked, v.coverage_gaps)
            assert got == orc.sweep_annihilation(m, a, i, box, field), (box, m.exponents, i)
            verdicts[v.verdict] += 1
        for k in box_spans:
            spans[k] += 1
    assert min(spans.values()) >= 100 and min(verdicts.values()) >= 150, (spans, verdicts)


def test_sparse_slices_match_the_dense_reference():
    # the sparse kernel against the dense matrices it replaces: every slice's
    # bases and signed entries (the admissible part of the dense slice), its
    # cohomology ranks and the verdict on the map induced by a monomial shift
    # (both from the whole dense slice), and Hochster's Betti tables
    rng = random.Random(139)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        d = rng.randint(1, 5)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d, max_gens=6))
        for field in (Q, F2):
            engine = _SliceEngine(a, field, CECH_GUARD_DEFAULT)
            dense = orc.DenseSlices(engine)
            for _ in range(6):
                b = tuple(rng.randint(-2, 1) for _ in range(d))
                target = tuple(x + rng.randint(0, 2) for x in b)
                pat1, pat2 = _sign_pattern(b), _sign_pattern(target)
                members = engine.members(pat1)
                dense_bases, _, _, mats = dense.slice(pat1)
                cut_bases, cut_mats = orc.admissible_part(engine, dense_bases, mats)
                assert members == cut_bases
                assert [
                    orc.dense_rows(_coboundary(members, i), len(members[i + 1]))
                    for i in range(engine.t)
                ] == cut_mats
                assert engine.ranks(pat1) == dense.ranks(pat1)
                for i in range(-1, engine.t + 2):
                    zero = _induced_map_is_zero(engine, pat1, pat2, i)
                    assert zero == dense.induced_map_is_zero(pat1, pat2, i)
                    if 0 <= i <= engine.t and engine.ranks(pat1)[i] and engine.ranks(pat2)[i]:
                        verdicts[zero] += 1
        betti_ideal = orc.random_squarefree_ideal(rng, d, allow_zero=False)
        if not betti_ideal.is_zero():
            for field in (Q, F2):
                table = orc.betti_dict(orc.betti_numbers(betti_ideal, field))
                assert table == orc.dense_betti_table(betti_ideal, field)
    # maps between nonzero spaces: a zero one is rare, a nonzero one is not
    assert verdicts[True] >= 1 and verdicts[False] >= 100


def test_zero_induced_maps_between_nonzero_spaces_match_the_dense_reference():
    # the cone rank test against cycles from the dense kernel, on every pair of
    # nonzero sign patterns that a shift joins (neg2 inside neg1, pos1 inside
    # pos2), at every i where both H^i are nonzero; zero maps are asked for
    rng = random.Random(53)
    verdicts = {True: 0, False: 0}
    for _ in range(30):
        d = rng.randint(1, 6)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d, max_gens=6))
        for field in (Q, F2):
            engine = _SliceEngine(a, field, CECH_GUARD_DEFAULT)
            dense = orc.DenseSlices(engine)
            live = [
                (neg, pos)
                for neg in range(1 << d)
                for pos in range(1 << d)
                if not neg & pos and any(engine.ranks((neg, pos)))
            ]
            for pat1 in live:
                for pat2 in live:
                    if pat2[0] & ~pat1[0] or pat1[1] & ~pat2[1]:
                        continue
                    for i, (r1, r2) in enumerate(zip(engine.ranks(pat1), engine.ranks(pat2))):
                        if r1 and r2:
                            zero = _induced_map_is_zero(engine, pat1, pat2, i)
                            assert zero == dense.induced_map_is_zero(pat1, pat2, i)
                            verdicts[zero] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50


def test_cech_ranks_at_the_maximal_ideal_follow_hochsters_formula():
    # every (degree, i) of cech_ranks(m, box -2:1) against Hochster's formula,
    # which reads the links of the Stanley-Reisner complex and no slice rule:
    # seeded rings with d <= 6 over Q, F_2 and F_3, and the six-vertex RP^2 (the
    # generators of rp2.json taken as J) over all three
    rng = random.Random(199)
    cases = []
    for k in range(150):
        d = rng.randint(1, 6)
        cases.append((orc.random_squarefree_ideal(rng, d), (Q, F2, Q, F2, F3)[k % 5]))
    path = os.path.join(os.path.dirname(__file__), "golden", "instances", "rp2.json")
    rp2 = load_instance(path, None, None).acting.lift
    cases += [(rp2, field) for field in (Q, F2, F3)]
    degrees = 0
    nonzero = []  # nonzero (degree, i) entries per case
    for J, field in cases:
        d = J.ambient
        m = minimalize([orc.variable(v, d) for v in range(1, d + 1)], d)
        box = DegreeBox.uniform(d, -2, 1)
        rep = cech_ranks(QuotientIdeal(QuotientRing(d, J), m), box, field)
        expected = {}  # the formula reads a degree through its signs only
        nonzero.append(0)
        for deg in box.degrees():
            signs = tuple((e > 0) - (e < 0) for e in deg)
            if signs not in expected:
                expected[signs] = orc.hochster_ranks(J, deg, field)
            assert rep.ranks[deg] == expected[signs], (J.pretty(), field.label(), deg)
            degrees += 1
            nonzero[-1] += sum(map(bool, expected[signs]))
    # H^i_m of RP^2 differs over F_2, where H~_1 and H~_2 of RP^2 are not 0
    assert nonzero[-3:] == [152, 154, 152]
    assert degrees == 148_008 and sum(nonzero) == 7_098, (degrees, sum(nonzero))


def _ring_with_idle_variables(rng, d):
    """(ring, ideal) whose generators miss one or two variables and whose J,
    zero a quarter of the time, is supported on a random proper subset."""
    variables = list(range(1, d + 1))
    outside = set(rng.sample(variables, rng.randint(1, 2)))
    inside = [v for v in variables if v not in outside]
    gens = [
        orc.from_support(rng.sample(inside, rng.randint(1, min(3, len(inside)))), d)
        for _ in range(rng.randint(1, 5))
    ]
    j_vars = rng.sample(variables, rng.randint(1, d - 1))
    j_gens = [] if rng.random() < 0.25 else [
        orc.from_support(rng.sample(j_vars, rng.randint(1, min(3, len(j_vars)))), d)
        for _ in range(rng.randint(1, 3))
    ]
    ring = QuotientRing(d, minimalize(j_gens, d))
    return ring, QuotientIdeal(ring, minimalize(gens, d))


def _rule_keys(engine, d):
    """The key of every sign pattern on d variables by the rule, from the
    definitions alone: the face family of pos is the admissible subsets sigma
    (by the definition in _oracles) with pos | W[sigma] a face, its reach is the
    union of their W[sigma], and the key is "zero" when neg meets a variable
    outside the reach, else (neg, the family).  pos is not cut to supp J."""
    masks = [g.mask for g in engine.gens]
    unions = [0] * (1 << engine.t)
    for s in range(1, 1 << engine.t):
        low = s & -s
        unions[s] = unions[s ^ low] | masks[low.bit_length() - 1]
    admissible = [s for s in range(1 << engine.t) if orc.admissible(masks, s)]
    keys = {}
    for pos in range(1 << d):
        family = tuple(s for s in admissible if is_face(pos | unions[s], engine.j_masks))
        reach = 0
        for s in family:
            reach |= unions[s]
        for neg in range(1 << d):
            if not neg & pos:
                keys[neg, pos] = "zero" if neg & ~reach else (neg, family)
    return keys


def test_slices_are_keyed_by_the_variables_they_read():
    # the engine keys a slice by (neg, the index of the face family of pos), and
    # gives every neg that meets a variable outside the family's reach one zero
    # slice; each request is checked against the dense slice of its raw pattern,
    # together with a twin of the same key by the rule and the previous request
    # (members against its admissible part, ranks and verdicts against all of
    # it), and the engine builds exactly one slice per distinct key
    rng = random.Random(149)
    seen = {"j-zero": 0, "family-twins": 0, "zero-twins": 0, "reach-zero-twins": 0,
            "nonzero-slices": 0}
    nonzero_maps = 0
    for _ in range(40):
        d = rng.randint(3, 6)
        ring, a = _ring_with_idle_variables(rng, d)
        supp_j = covered = 0
        for g in ring.relations.gens:
            supp_j |= g.mask
        for g in a.radical_lift.gens:
            covered |= g.mask
        seen["j-zero"] += supp_j == 0
        for field in (Q, F2, F3):
            engine = _SliceEngine(a, field, CECH_GUARD_DEFAULT)
            keys = _rule_keys(engine, d)
            twins = {}
            for pat, key in keys.items():
                twins.setdefault(key, []).append(pat)
            dense = orc.DenseSlices(engine)
            requested = set()
            previous = (0, 0)
            for _ in range(12):
                pat1 = _sign_pattern(tuple(rng.randint(-1, 1) for _ in range(d)))
                pat2 = rng.choice(twins[keys[pat1]])
                assert _slice_key(engine, pat1) == _slice_key(engine, pat2)
                (neg1, pos1), (neg2, pos2) = pat1, pat2
                index, family, reach = engine._family(pos2)
                if keys[pat1] == "zero":
                    # a zero twin: its neg lies outside its family's reach
                    assert neg2 & ~reach
                    seen["zero-twins"] += pat1 != pat2
                    # ... though inside some generator's support
                    seen["reach-zero-twins"] += not neg2 & ~covered
                else:
                    # twins share a family, whatever pos & supp J they have
                    assert neg1 == neg2 and engine._family(pos1)[0] == index
                    assert family == keys[pat1][1]
                    seen["family-twins"] += pos1 & supp_j != pos2 & supp_j
                requested |= {keys[pat1], keys[previous]}
                for pat in (pat1, pat2):
                    members, ranks = engine.members(pat), engine.ranks(pat)
                    dense_bases, _, _, mats = dense.slice(pat)
                    assert members == orc.admissible_part(engine, dense_bases, mats)[0]
                    assert ranks == dense.ranks(pat)
                    seen["nonzero-slices"] += any(ranks)
                for p, q in ((pat1, pat2), (pat2, pat1), (previous, pat1)):
                    for i in range(-1, engine.t + 2):
                        zero = _induced_map_is_zero(engine, p, q, i)
                        assert zero == dense.induced_map_is_zero(p, q, i)
                        nonzero_maps += not zero
                previous = pat1
            assert len(engine._ranks) == len(requested)
    assert min(seen.values()) >= 5, seen
    assert nonzero_maps >= 50


def test_one_complex_per_family_key(monkeypatch):
    # a work count: a sweep builds exactly one complex per distinct key by the
    # rule, (neg, face family of pos) or the one zero slice, and no more; keying
    # by (neg, pos & supp J) built 37, 289 and 5,833 on readme, cycle and nested
    from topann import cech

    built = []

    def counting(field, dims, diffs):
        built.append(dims)
        return VectorSpaceComplex(field, dims, diffs)

    monkeypatch.setattr(cech, "VectorSpaceComplex", counting)
    expected = {"readme": ("-3:1", 12), "cycle": ("-1:1", 74), "nested": ("-3:1", 422),
                "rp2": ("-1:1", 64), "cubics8": ("-1:1", 256)}
    for name, (box, count) in expected.items():
        path = os.path.join(os.path.dirname(__file__), "golden", "instances", f"{name}.json")
        inst = load_instance(path, None, box)
        built.clear()
        cech_ranks(inst.acting, inst.box, inst.field)
        engine = _SliceEngine(inst.acting, inst.field, CECH_GUARD_DEFAULT)
        # every box -k:1 with k >= 1 has all 3^d sign patterns
        keys = set(_rule_keys(engine, inst.ring.ambient).values())
        assert len(built) == len(keys) == count, name


def _overlapping_ring(rng):
    """(ring, ideal) on 6 to 8 variables whose radical has 6 to 10 generators of
    2 or 3 variables each; their supports overlap, so most generator subsets are
    not admissible.  J is zero half the time."""
    d = rng.randint(6, 8)
    while True:
        gens = minimalize([
            orc.from_support(rng.sample(range(1, d + 1), rng.randint(2, 3)), d)
            for _ in range(rng.randint(6, 12))
        ], d)
        if 6 <= len(gens.gens) <= 10:
            break
    j_gens = [] if rng.random() < 0.5 else [
        orc.from_support(rng.sample(range(1, d + 1), rng.randint(3, 4)), d)
        for _ in range(rng.randint(1, 2))
    ]
    ring = QuotientRing(d, minimalize(j_gens, d))
    return ring, QuotientIdeal(ring, gens)


def test_admissible_slices_match_the_unfiltered_dense_reference():
    # each slice is ranked on its admissible members only; on rp2's generators
    # and on rings where most generator subsets are not admissible, the members
    # are the admissible part of the dense slice (by the definition in
    # _oracles), and the ranks over Q, F_2 and F_3 and every induced-map verdict
    # match the dense matrices of the whole slice
    seen = {"slices": 0, "dropped": 0, "both-nonzero": 0, "zero-both-nonzero": 0}

    def check(engine, pats, map_pairs):
        dense = orc.DenseSlices(engine)
        for pat in pats:
            members = engine.members(pat)
            dense_bases, _, dims, mats = dense.slice(pat)
            assert members == orc.admissible_part(engine, dense_bases, mats)[0]
            assert engine.ranks(pat) == dense.ranks(pat)
            seen["slices"] += 1
            seen["dropped"] += sum(dims) - sum(map(len, members))
        # a map with a zero end is zero on both sides once the ranks agree
        for pat1, pat2 in map_pairs:
            for i, (r1, r2) in enumerate(zip(engine.ranks(pat1), engine.ranks(pat2))):
                if r1 and r2:
                    zero = _induced_map_is_zero(engine, pat1, pat2, i)
                    assert zero == dense.induced_map_is_zero(pat1, pat2, i)
                    seen["both-nonzero"] += 1
                    seen["zero-both-nonzero"] += zero

    # rp2: 10 generators, 74 admissible subsets; its dense slices are large, so
    # only a few patterns and one map
    path = os.path.join(os.path.dirname(__file__), "golden", "instances", "rp2.json")
    a = load_instance(path, None, "-1:1").acting
    top, corner = _sign_pattern((-1,) * 6), _sign_pattern((-1,) * 5 + (0,))
    check(_SliceEngine(a, Q, CECH_GUARD_DEFAULT), [top], [])
    for field in (F2, F3):
        engine = _SliceEngine(a, field, CECH_GUARD_DEFAULT)
        pats = [top, corner, _sign_pattern((-1, -1, -1, 0, 0, 1))]
        check(engine, pats, [(top, corner)])
    assert _SliceEngine(a, F2, CECH_GUARD_DEFAULT).ranks(top)[3:5] == (1, 1)

    rng = random.Random(157)
    for _ in range(16):
        ring, a = _overlapping_ring(rng)
        d = ring.ambient
        for field in (Q, F2, F3):
            engine = _SliceEngine(a, field, CECH_GUARD_DEFAULT)
            pats = sorted({
                _sign_pattern(tuple(rng.choice((-1, -1, -1, 0, 1)) for _ in range(d)))
                for _ in range(20)
            })
            live = [pat for pat in pats if any(engine.ranks(pat))]
            # every pair of live patterns that a monomial shift joins
            pairs = [
                (p, q) for p in live for q in live
                if not q[0] & ~p[0] and not p[1] & ~q[1]
            ]
            check(engine, pats, pairs)
    assert seen["slices"] >= 900 and seen["dropped"] >= 20_000, seen
    assert seen["both-nonzero"] >= 200 and seen["zero-both-nonzero"] >= 1, seen


def test_engine_lists_only_the_admissible_subsets():
    # a work count no timing can give: the engine lists exactly the admissible
    # generator subsets (by the definition in _oracles) of rp2 and cubics8, 10
    # generators each, and the face family at pos = 0 holds only those
    expected = {"rp2": (74, 74), "cubics8": (232, 232), "cubics8-fullj": (232, 205)}
    for name, (admissible, family) in expected.items():
        path = os.path.join(os.path.dirname(__file__), "golden", "instances", f"{name}.json")
        inst = load_instance(path, None, "-1:1")
        engine = _SliceEngine(inst.acting, inst.field, CECH_GUARD_DEFAULT)
        masks = [g.mask for g in engine.gens]
        listed = [s for s in range(1 << engine.t) if orc.admissible(masks, s)]
        assert (engine.t, len(listed)) == (10, admissible)
        assert engine._admissible == listed
        assert len(engine._family(0)[1]) == family


def _slice_key(engine, pat):
    """The key under which the engine keeps the ranks of a sign pattern: None,
    the shared zero slice, when neg meets a variable outside the reach of the
    face family of pos, else (neg, the family's index)."""
    neg, pos = pat
    index, _, reach = engine._family(pos)
    return None if neg & ~reach else (neg, index)


def test_slices_are_ranked_on_their_nonzero_band():
    # the engine ranks each slice on the band of its nonempty components and
    # pads the ranks with zeros; against every differential on all t + 1
    # components, on every key of rp2 and cycle at --box=-1:1 and on seeded
    # rings over Q, F_2 and F_3, with slices whose band starts above 0, ends
    # below t + 1, or is empty
    seen = {"keys": 0, "lo > 0": 0, "hi < t + 1": 0, "empty": 0}

    def check(engine, pats):
        keys = set()
        for pat in sorted(pats):
            # the ranks kept under the pattern's key are its own
            ranks = engine.ranks(pat)
            assert len(ranks) == engine.t + 1
            assert ranks == orc.full_slice_ranks(engine, pat)
            key = _slice_key(engine, pat)
            if key in keys:
                continue
            keys.add(key)
            band = [i for i, component in enumerate(engine.members(pat)) if component]
            seen["keys"] += 1
            seen["empty"] += not band
            seen["lo > 0"] += bool(band) and band[0] > 0
            seen["hi < t + 1"] += bool(band) and band[-1] < engine.t

    for name in ("rp2", "cycle"):
        path = os.path.join(os.path.dirname(__file__), "golden", "instances", f"{name}.json")
        inst = load_instance(path, None, "-1:1")
        pats = {_sign_pattern(deg) for deg in inst.box.degrees()}
        for field in (Q, F2):
            check(_SliceEngine(inst.acting, field, CECH_GUARD_DEFAULT), pats)
    rng = random.Random(167)
    for k in range(24):
        ring, a = _overlapping_ring(rng) if k % 2 else _ring_with_idle_variables(
            rng, rng.randint(3, 6))
        d = ring.ambient
        pats = {_sign_pattern(tuple(rng.randint(-1, 1) for _ in range(d))) for _ in range(30)}
        for field in (Q, F2, F3):
            check(_SliceEngine(a, field, CECH_GUARD_DEFAULT), pats)
    assert seen["keys"] >= 1000 and min(seen.values()) >= 50, seen


def test_a_zero_source_leaves_the_target_slice_unranked():
    # a work count: when H^i of the source slice is 0 the map is zero, and the
    # target slice is not ranked for it; the verdict matches the dense map, and
    # a target whose source H^i is nonzero is ranked
    rng = random.Random(173)
    seen = {"skipped": 0, "ranked": 0}
    for _ in range(48):
        d = rng.randint(2, 5)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d, max_gens=6))
        for field in (Q, F2, F3):
            engine = _SliceEngine(a, field, CECH_GUARD_DEFAULT)
            dense = orc.DenseSlices(engine)
            for _ in range(10):
                b = tuple(rng.randint(-2, 1) for _ in range(d))
                pat1 = _sign_pattern(b)
                pat2 = _sign_pattern(tuple(x + rng.randint(0, 2) for x in b))
                i = rng.randint(0, engine.t)
                fresh = _slice_key(engine, pat2) not in engine._ranks
                zero = _induced_map_is_zero(engine, pat1, pat2, i)
                assert zero == dense.induced_map_is_zero(pat1, pat2, i)
                if not fresh:
                    continue
                ranked = _slice_key(engine, pat2) in engine._ranks
                if dense.ranks(pat1)[i] == 0:
                    assert not ranked or _slice_key(engine, pat1) == _slice_key(engine, pat2)
                    seen["skipped"] += not ranked
                else:
                    assert ranked
                    seen["ranked"] += 1
    assert seen["skipped"] >= 300 and seen["ranked"] >= 30, seen


def _live_complexes():
    gc.collect()
    return sum(isinstance(o, VectorSpaceComplex) for o in gc.get_objects())


def test_slice_engine_keeps_only_ranks():
    # a ranked slice keeps its cohomology ranks and nothing else: no complex,
    # member list or differential outlives the call that ranked it; nested has
    # 422 family keys (the sign patterns of --box=-1:1 are those of -3:1)
    path = os.path.join(os.path.dirname(__file__), "golden", "instances", "nested.json")
    inst = load_instance(path, None, "-1:1")
    before = _live_complexes()
    engine = _SliceEngine(inst.acting, inst.field, CECH_GUARD_DEFAULT)
    for deg in inst.box.degrees():
        engine.ranks(_sign_pattern(deg))
    assert _live_complexes() == before
    assert len(engine._ranks) > 100
    assert all(
        type(ranks) is tuple and all(type(r) is int for r in ranks)
        for ranks in engine._ranks.values()
    )


def test_reading_the_report_ranks_no_slice(monkeypatch):
    # the report reads the engine's table, which the walk filled with every
    # pattern of the box: a lookup builds no complex and adds no entry; nested
    # has 1,953,125 degrees at -3:1, so there the first and last degree of
    # each of its 19,683 sign cells are read, which covers every pattern
    from topann import cech

    built = []

    def counted(*args):
        built.append(args)
        return VectorSpaceComplex(*args)

    def read_all(rep, degrees):
        engine = rep.ranks._engine
        sizes = len(engine._ranks), len(engine._by_pos)
        with monkeypatch.context() as m:
            m.setattr(cech, "VectorSpaceComplex", counted)
            ranks = [rep.ranks[deg] for deg in degrees]
        assert built == [] and (len(engine._ranks), len(engine._by_pos)) == sizes
        return ranks

    rng = random.Random(331)
    for n in range(150):
        d = rng.randint(1, 4)
        ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
        a = QuotientIdeal(ring, orc.random_monomial_ideal(rng, d))
        box = _span_box(rng, d)[0]
        rep = cech_ranks(a, box, (Q, F2, F3)[n % 3])
        read_all(rep, rep.ranks)
    path = os.path.join(os.path.dirname(__file__), "golden", "instances", "nested.json")
    inst = load_instance(path, None, "-3:1")
    rep = cech_ranks(inst.acting, inst.box, inst.field)
    cells = list(product(*(_sign_ranges(lo, hi) for lo, hi in zip(inst.box.lower,
                                                                    inst.box.upper))))
    assert len(cells) == 19_683
    corners = [tuple(r[k] for r in cell) for cell in cells for k in (0, -1)]
    ranks = read_all(rep, corners)
    assert ranks[::2] == ranks[1::2]
    assert len(rep.ranks._engine._ranks) == 422


def test_degree_ranks_is_a_read_only_mapping():
    inst, _ = fixture("singh-walther")
    box = DegreeBox((-2, -1, 0, 1), (1, 1, 2, 3))
    ranks = cech_ranks(inst.ideal, box, Q).ranks
    assert len(ranks) == 4 * 3 * 3 * 3
    assert list(ranks) == list(box.degrees())
    assert (-2, -1, 0, 1) in ranks and (1, 1, 2, 3) in ranks
    for outside in [(2, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0), [0, 0, 0, 1], (0.0, 0, 0, 1)]:
        assert outside not in ranks
        with pytest.raises(KeyError):
            ranks[outside]
    with pytest.raises(TypeError):
        ranks[(0, 0, 0, 1)] = (0,)


def test_sweep_guard_counts_before_the_work():
    from topann import cech

    ring = QuotientRing(12, ideal(12))
    a = QuotientIdeal(ring, ideal(12, (1,) + (0,) * 11))
    with pytest.raises(GuardExceededError, match="531441 sign patterns exceed the guard"):
        cech_ranks(a, DegreeBox.uniform(12, -1, 1), Q)
    one = Monomial.identity(12)
    with pytest.raises(GuardExceededError, match="531441 interval tuples exceed the guard"):
        annihilation_check(one, a, 1, DegreeBox.uniform(12, -1, 1), Q)
    # H^6 of the polynomial ring at the maximal ideal lives in 10^12 box degrees
    ring = QuotientRing(6, ideal(6))
    gens = [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]
    rep = cech_ranks(QuotientIdeal(ring, ideal(6, *gens)), DegreeBox.uniform(6, -100, 100), Q)
    assert rep.ranks.nonzero_count() == 100 ** 6 > cech.CECH_SWEEP_GUARD
    with pytest.raises(GuardExceededError, match="10{12} nonzero degrees exceed the guard"):
        rep.ranks.nonzero()


def test_top_nonvanishing_is_the_highest_index_of_a_slice():
    # a slice with H^2 and H^3 both nonzero: the top index is 3, not 2
    ring = QuotientRing(5, ideal(5))
    a = QuotientIdeal(ring, ideal(5, (1, 1, 0, 1, 0), (0, 1, 1, 0, 1), (0, 0, 1, 1, 0),
                                  (0, 0, 0, 1, 1)))
    point = (0, -1, -1, -1, -1)
    rep = cech_ranks(a, DegreeBox(point, point), Q)
    assert rep.ranks[point] == (0, 0, 1, 1, 0)
    assert rep.top_nonvanishing == 3
