"""Exact rank computations and reduced simplicial homology on face bitmasks."""
from __future__ import annotations

import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topann.errors import InvalidInputError
from topann.linalg import (
    FieldSpec,
    VectorSpaceComplex,
    _is_prime,
    cohomology_ranks,
    eliminate,
    family_columns,
    homology_ranks_of_faces,
)
from topann.monomial import varset_mask

import _oracles as orc

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F3 = FieldSpec.prime_field(3)

log = logging.getLogger(__name__)


def test_field_spec_parsing():
    assert FieldSpec.parse("Q") == Q
    assert FieldSpec.parse("fp:101") == FieldSpec.prime_field(101)
    assert Q.label() == "Q" and F2.label() == "Fp:2"
    with pytest.raises(InvalidInputError):
        FieldSpec.parse("fp:6")
    with pytest.raises(InvalidInputError):
        FieldSpec.prime_field(1)
    with pytest.raises(InvalidInputError):
        FieldSpec.prime_field(0)


@pytest.mark.parametrize("characteristic", [2.0, False, True, 0.0, "2"])
def test_field_spec_refuses_a_characteristic_that_is_not_an_int(characteristic):
    # 2.0 was labelled Fp:2.0 and failed later in pow(); False was read as Q
    with pytest.raises(InvalidInputError, match="must be an int"):
        FieldSpec(characteristic)


def test_miller_rabin_matches_trial_division():
    def by_trial_division(n):
        return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == by_trial_division(n) for n in range(-2, 30000))


def columns(rows, ncols):
    """The sparse (row, value) columns of a dense matrix given by its rows."""
    return tuple(
        tuple((r, row[c]) for r, row in enumerate(rows) if row[c]) for c in range(ncols)
    )


def rank(rows, field):
    """Rank of a dense matrix given by its rows, through `eliminate`."""
    return len(eliminate(columns(rows, len(rows[0]) if rows else 0), field))


def test_rank_small_cases():
    assert rank([[1, 2], [2, 4]], Q) == 1
    assert rank([[1, 2], [2, 5]], Q) == 2
    assert rank([[2, 0], [0, 2]], F2) == 0
    assert rank([[2, 1], [0, 2]], F2) == 1
    assert rank([], Q) == 0


def test_rank_agrees_with_random_integer_matrices():
    rng = random.Random(7)
    from fractions import Fraction

    def rank_fraction(rows):
        m = [[Fraction(x) for x in row] for row in rows]
        r = 0
        for c in range(len(m[0])):
            piv = next((i for i in range(r, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            m[r] = [x / m[r][c] for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        return r

    for _ in range(40):
        rows = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 6))] for _ in range(rng.randint(1, 6))]
        rows = [r[: len(rows[0])] + [0] * (len(rows[0]) - len(r)) for r in rows]
        assert rank(rows, Q) == rank_fraction(rows)


def test_dense_adapters_match_the_dense_reference():
    # the sparse elimination on dense matrices; Bareiss of tests/_oracles.py is
    # the reference, on entries beyond +-1 so that the fraction-free steps and
    # content division are exercised
    rng = random.Random(19)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        span = rng.choice((1, 3, 20))
        rows = [[rng.randint(-span, span) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        for field in (Q, F2, FieldSpec.prime_field(3)):
            assert rank(rows, field) == orc.dense_rank(rows, field)


def complex_of(field, dims, diffs):
    """VectorSpaceComplex from dense differentials (dims[i+1] x dims[i] row lists)."""
    return VectorSpaceComplex(
        field, dims, tuple(columns(mat, dims[i]) for i, mat in enumerate(diffs))
    )


def test_complex_zero_map():
    c = complex_of(Q, (1, 1), (((0,),),))
    assert cohomology_ranks(c) == (1, 1)


def test_complex_isomorphism():
    c = complex_of(Q, (1, 1), (((1,),),))
    assert cohomology_ranks(c) == (0, 0)


def test_complex_concentrated_at_top():
    # a Koszul degree slice where only the top spot survives
    zero_10 = ()
    zero_01 = ((),)
    c = complex_of(Q, (0, 0, 1), (zero_10, zero_01))
    assert cohomology_ranks(c) == (0, 0, 1)


def test_complex_rejects_non_composable():
    with pytest.raises(InvalidInputError):
        complex_of(Q, (1, 1, 1), (((1,),), ((1,),)))


@pytest.mark.parametrize(
    "dims, diffs",
    [
        ((), ()),                                   # no component
        ((1, 1), ()),                               # a differential missing
        ((2, 1), (((0, 1),),)),                     # one column for two
        ((1, 1), ((((1, 1),),),)),                  # row past the target
        ((1, 1), ((((-1, 1),),),)),                 # negative row
        ((1, 2), ((((0, 1), (0, 1)),),)),           # a row listed twice
    ],
)
def test_complex_rejects_malformed_columns(dims, diffs):
    with pytest.raises(InvalidInputError):
        VectorSpaceComplex(Q, dims, diffs)


def test_complex_composable_mod_p_only():
    # maps composing to 2 are a complex over F_2 but not over Q
    complex_of(F2, (1, 1, 1), (((1,),), ((2,),)))
    with pytest.raises(InvalidInputError):
        complex_of(Q, (1, 1, 1), (((1,),), ((2,),)))


def faces_of(*facets):
    """The downward closure of these vertex sets, as sorted face bitmasks (with 0)."""
    faces = set()
    for facet in facets:
        top = varset_mask(facet, max(facet, default=0))
        sub = top
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & top
    return sorted(faces)


def _random_complex(rng, field):
    """A genuine complex, built as the simplicial chain complex of a random
    face set, reversed into cochain indexing."""
    verts = list(range(1, rng.randint(2, 5) + 1))
    facets = set()
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, len(verts))
        facets.add(frozenset(rng.sample(verts, k)))
    by_dim = {}
    for f in faces_of(*facets):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    dims = tuple(len(by_dim.get(top - i, [])) for i in range(top + 2))
    diffs = []
    for i in range(top + 1):
        j = top - i  # boundary from dimension j to j-1
        cols = by_dim.get(j, [])
        rows = by_dim.get(j - 1, [])
        pos = {f: k for k, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for cidx, f in enumerate(cols):
            bits = [b for b in range(f.bit_length()) if f >> b & 1]
            for k, b in enumerate(bits):
                mat[pos[f ^ 1 << b]][cidx] = -1 if k % 2 else 1
        diffs.append(tuple(tuple(r) for r in mat))
    return complex_of(field, dims, tuple(diffs))


def test_euler_characteristic_invariant():
    rng = random.Random(11)
    for _ in range(30):
        for field in (Q, F2):
            c = _random_complex(rng, field)
            ranks = cohomology_ranks(c)
            lhs = sum((-1) ** i * r for i, r in enumerate(ranks))
            rhs = sum((-1) ** i * d for i, d in enumerate(c.dims))
            assert lhs == rhs


def test_rank_decomposition_is_exact():
    rng = random.Random(13)
    for _ in range(20):
        c = _random_complex(rng, Q)
        ranks = cohomology_ranks(c)
        for i, dim in enumerate(c.dims):
            n = len(c.differentials)
            r_out = rank(orc.dense_rows(c.differentials[i], c.dims[i + 1]), Q) if i < n else 0
            r_in = rank(orc.dense_rows(c.differentials[i - 1], dim), Q) if i > 0 else 0
            assert r_in + ranks[i] + r_out == dim


# --------------------------------------------------------------- homology

def test_hollow_triangle_is_a_circle():
    hollow = faces_of({1, 2}, {2, 3}, {1, 3})
    ranks = homology_ranks_of_faces(hollow, Q)
    assert ranks == {-1: 0, 0: 0, 1: 1}


def test_full_simplex_is_contractible():
    assert homology_ranks_of_faces(faces_of({1, 2, 3}), Q) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_irrelevant_complex_has_empty_face_class():
    assert homology_ranks_of_faces(faces_of(frozenset()), Q) == {-1: 1}


def test_void_complex_rejected():
    # the void complex has no face at all, not even the empty one
    with pytest.raises(InvalidInputError, match="empty face"):
        homology_ranks_of_faces(faces_of(), Q)
    with pytest.raises(InvalidInputError, match="empty face"):
        homology_ranks_of_faces([0b1, 0b10, 0b11], Q)


def test_projective_plane_detects_characteristic():
    # minimal 6-vertex triangulation; H_1 has 2-torsion so F_2 and Q disagree
    rp2 = faces_of(
        {1, 2, 3}, {1, 2, 4}, {1, 3, 5}, {1, 4, 6}, {1, 5, 6},
        {2, 3, 6}, {2, 4, 5}, {2, 5, 6}, {3, 4, 5}, {3, 4, 6},
    )
    over_q = homology_ranks_of_faces(rp2, Q)
    over_f2 = homology_ranks_of_faces(rp2, F2)
    assert over_q == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert over_f2 == {-1: 0, 0: 0, 1: 1, 2: 1}


def test_field_agreement_with_torsion_logging():
    rng = random.Random(17)
    disagreements = 0
    for _ in range(40):
        c = _random_complex(rng, Q)
        ranks_q = cohomology_ranks(c)
        for p in (2, 101):
            ranks_p = cohomology_ranks(
                VectorSpaceComplex(FieldSpec.prime_field(p), c.dims, c.differentials)
            )
            if ranks_p != ranks_q:
                disagreements += 1
                log.info("torsion detected at p=%d: %s vs %s", p, ranks_q, ranks_p)
    # random small complexes rarely have torsion; mismatches are logged, not failed
    assert disagreements <= 4


# ------------------------------------------------------------ family complex

def _family_complex(field, family, n):
    """Components of the family by bit count 0..n, and the checked complex of
    `family_columns` on them."""
    comps = [sorted(m for m in family if bin(m).count("1") == i) for i in range(n + 1)]
    positions = [{m: k for k, m in enumerate(c)} for c in comps]
    diffs = tuple(
        tuple(map(tuple, family_columns(positions[i], comps[i + 1]))) for i in range(n)
    )
    return comps, VectorSpaceComplex(field, tuple(map(len, comps)), diffs)


def _incidence(lower, upper):
    """The signed incidence matrix, entry (-1)^{#bits of s below j} from s to s + {j}."""
    mat = [[0] * len(lower) for _ in upper]
    for r, u in enumerate(upper):
        for c, s in enumerate(lower):
            j = u ^ s
            if u & s == s and bin(j).count("1") == 1:
                mat[r][c] = -1 if bin(s & (j - 1)).count("1") % 2 else 1
    return mat


def _random_convex_family(rng, n):
    """A random down-set (below a few random masks) met with a random up-set
    (above a few random masks), as a set of masks on n bits."""
    tops = [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))]
    bottoms = [rng.randrange(1 << n) for _ in range(rng.randint(1, 3))]
    return {
        m for m in range(1 << n)
        if any(m & ~t == 0 for t in tops) and any(b & ~m == 0 for b in bottoms)
    }


def test_family_columns_are_the_signed_incidence_of_convex_families():
    rng = random.Random(151)
    sizes = set()
    for trial in range(200):
        n = rng.randint(0, 8)
        family = _random_convex_family(rng, n)
        if trial < 2 ** n and trial < 8:  # every one-member family on few bits
            family = {trial}
        sizes.add(min(len(family), 2))
        for field in (Q, F2, F3):
            comps, complex_ = _family_complex(field, family, n)
            mats = [_incidence(comps[i], comps[i + 1]) for i in range(n)]
            assert [
                orc.dense_rows(cols, complex_.dims[i + 1])
                for i, cols in enumerate(complex_.differentials)
            ] == mats
            assert cohomology_ranks(complex_) == orc.dense_cohomology_ranks(
                complex_.dims, mats, field)
    assert sizes == {0, 1, 2}  # empty, one-member and larger families all occur


def test_a_family_that_is_not_convex_is_refused():
    rng = random.Random(157)
    for _ in range(30):
        n = rng.randint(2, 8)
        j, k = rng.sample(range(n), 2)
        s = rng.randrange(1 << n) & ~(1 << j | 1 << k)
        family = {s, s | 1 << k, s | 1 << j | 1 << k}  # s + {j} is missing
        _family_complex(Q, family | {s | 1 << j}, n)  # convex again once it is back
        for field in (Q, F2, F3):
            with pytest.raises(InvalidInputError, match="do not compose to zero"):
                _family_complex(field, family, n)
