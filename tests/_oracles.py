"""Independent brute-force oracles used to freeze expected values.

Everything here derives answers from first principles (membership scans over
degree boxes, full subset enumeration, Koszul homology) and never calls the
code paths it is checking.  The Cech sweeps reuse the slice engine and visit
every degree of a box: they are the reference for the pattern sweep of
`topann.cech`, which they check.  The iterated colon and saturation loops are
the reference for the prime-intersection closed forms of `topann.annihilator`,
and `intersect`, by pairwise lcms, is the reference for `prime_intersection`;
`reference_prime_meet`, the prime-meet kernel that tests each grown support
against every kept one, is the reference for the indexed `_prime_meet`.
The dense matrices (Bareiss and reduced row echelon form, dense slices, tuple
faces) are the reference for the sparse elimination kernel of
`topann.linalg`, and Koszul homology is ranked with them.  `full_slice_ranks`,
a slice ranked on all of its components, is the reference for the band of
nonzero components that the slice engine ranks.  `admissible`,
Lyubeznik's condition tested from its definition, is the reference for the
admissible-subset table of the Cech slice engine.  `betti_numbers`, the whole
Betti table on every degree of the lcm lattice, is the reference for the
bounded search `cohomdim.top_betti_degree`; it ranks each degree with the
search's own `_degree_betti` kernel, which `koszul_tor_table` and
`dense_betti_table` check from first principles.  `_image_in_prime_quotient`,
the image of an ideal in R/p built as a reindexed ideal, is the reference for
the support masks from which `cd_on_prime` and `grade_on_prime` read it.
`full_lift`, the preimage lift + J of an ideal of R, and `height_in_quotient`
on variable sets are the references for the masks of `height_in_quotient` and
of the dim-quotient-le-1 certificate.  `hochster_ranks`, local cohomology at
the maximal ideal from the links of the Stanley-Reisner complex, is a second
reference for the Cech oracle that shares none of its slice rule.
`canonical_pairs` lists every (J, a) pair of squarefree ideals with d <= 4 up
to relabelling.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from topann.cech import (
    CECH_GUARD_DEFAULT,
    _coboundary,
    _induced_map_is_zero,
    _sign_pattern,
    _SliceEngine,
)
from topann.cohomdim import (
    _below,
    _betti_supports,
    _degree_betti,
    _lcm_support_closure,
    cd_on_prime,
)
from topann.errors import InvalidInputError
from topann.linalg import FieldSpec, VectorSpaceComplex, cohomology_ranks
from topann.monomial import Monomial, MonomialIdeal, VarSet, ideal_sum, minimalize
from topann.stanley_reisner import is_face


def box_monomials(d: int, max_exp: int):
    for exps in product(range(max_exp + 1), repeat=d):
        yield Monomial(exps)


def from_support(support, ambient: int) -> Monomial:
    """The squarefree monomial on the variables of `support`."""
    sup = set(support)
    if sup and not sup <= set(range(1, ambient + 1)):
        raise InvalidInputError(f"support {sorted(sup)} out of range 1..{ambient}")
    return Monomial(tuple(1 if i in sup else 0 for i in range(1, ambient + 1)))


def variable(index: int, ambient: int) -> Monomial:
    """The variable x_index of the ring in `ambient` variables."""
    return from_support({index}, ambient)


def contains_ideal(big: MonomialIdeal, small: MonomialIdeal) -> bool:
    """Does `big` hold every generator of `small`?"""
    return all(g in big for g in small.gens)


def member(m: Monomial, gens) -> bool:
    return any(g.divides(m) for g in gens)


def brute_sum_member(m, I, J) -> bool:
    return member(m, I.gens) or member(m, J.gens)


def brute_intersection_member(m, I, J) -> bool:
    return member(m, I.gens) and member(m, J.gens)


def brute_colon_member(f, I, m) -> bool:
    return member(f * m, I.gens)


def brute_saturation_member(f, I, m, kmax=12) -> bool:
    return any(member(f * m.power(k), I.gens) for k in range(kmax + 1))


def intersect(first: MonomialIdeal, *rest: MonomialIdeal) -> MonomialIdeal:
    """Intersection by pairwise lcms of generators, the reference for
    `topann.monomial.prime_intersection`."""
    acc = first
    for ideal in rest:
        if ideal.ambient != first.ambient:
            raise InvalidInputError("ideals live in different ambient rings")
        acc = minimalize((g.lcm(h) for g in acc.gens for h in ideal.gens), first.ambient)
    return acc


def quotient_clipped(m: Monomial, n: Monomial) -> Monomial:
    """m / gcd(m, n): exponentwise subtraction clipped at 0."""
    return Monomial(tuple(max(a - b, 0) for a, b in zip(m.exponents, n.exponents)))


def colon(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """(I : m), generated by g / gcd(g, m) over the generators g."""
    return minimalize((quotient_clipped(g, m) for g in ideal.gens), ideal.ambient)


def colon_by_ideal(ideal: MonomialIdeal, divisor: MonomialIdeal) -> MonomialIdeal:
    """(I : A) for an ideal A, as the intersection of the generator colons."""
    if divisor.is_zero():
        return minimalize([Monomial.identity(ideal.ambient)], ideal.ambient)
    return intersect(*(colon(ideal, g) for g in divisor.gens))


def saturate(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """(I : m^infinity), the stable value of iterated colon."""
    current = ideal
    while True:
        nxt = colon(current, m)
        if nxt == current:
            return current
        current = nxt


def saturate_by_ideal(ideal: MonomialIdeal, divisor: MonomialIdeal) -> MonomialIdeal:
    """(I : A^infinity), the stable value of iterated ideal colon."""
    current = ideal
    while True:
        nxt = colon_by_ideal(current, divisor)
        if nxt == current:
            return current
        current = nxt


def brute_radical_member(f, I) -> bool:
    kmax = max((max(g.exponents) for g in I.gens), default=1)
    return member(f.power(kmax), I.gens)


def brute_power_member(f, I, n) -> bool:
    """f in I^n iff some n-fold product of generators divides f, by recursion."""
    def descend(current: Monomial, k: int) -> bool:
        if k == 0:
            return True
        return any(
            g.divides(current) and descend(quotient_clipped(current, g), k - 1)
            for g in I.gens
        )
    return descend(f, n)


def brute_minimalize(gens) -> tuple[Monomial, ...]:
    """Canonical generators of the ideal of `gens` by the quadratic definition:
    the distinct monomials no other one divides, sorted, or the identity alone
    when it is present."""
    pool = set(gens)
    units = [g for g in pool if g.is_identity()]
    if units:
        return (units[0],)
    minimal = [g for g in pool if not any(h != g and h.divides(g) for h in pool)]
    return tuple(sorted(minimal, reverse=True))


def reference_prime_meet(pmasks) -> list[int]:
    """The prime-meet kernel as it was before its kept supports were indexed:
    every grown s | v is tested against each kept support that holds v.  It is
    the reference for `monomial._prime_meet`, which must return the same list
    in the same order and form the same candidates s | v."""
    supports = [0]
    for pmask in pmasks:
        kept = [s for s in supports if s & pmask]
        grown = []
        for s in supports:
            if s & pmask:
                continue
            rest = pmask
            while rest:
                low = rest & -rest
                rest ^= low
                g = s | low
                if not any(t & ~g == 0 for t in kept if t & low):
                    grown.append(g)
        supports = kept + grown
    return supports


def brute_minimal_covers(edges, d):
    """All minimal transversals by scanning every subset of the vertex set."""
    covers = []
    for mask in range(1 << d):
        s = frozenset(i + 1 for i in range(d) if mask >> i & 1)
        if all(s & e for e in edges):
            covers.append(s)
    return sorted(
        (c for c in covers if not any(o < c for o in covers)),
        key=lambda s: (len(s), sorted(s)),
    )


def full_lift(a) -> MonomialIdeal:
    """lift + J, the preimage in S of the ideal a of R = S/J."""
    return ideal_sum(a.lift, a.ring.relations)


def height_in_quotient(a) -> int:
    """The height of a in R on variable sets: the least, over the minimal primes
    q of `full_lift(a)` (by `brute_minimal_covers`), of the largest |q| - |p|
    over the ring's minimal primes p inside q.  The reference for
    `topann.stanley_reisner.height_in_quotient`, which reads masks."""
    ring = a.ring
    covers = brute_minimal_covers([g.support() for g in full_lift(a).gens], ring.ambient)
    return min(max(len(q) - len(p) for p in ring.minimal_primes if p <= q) for q in covers)


@dataclass(frozen=True)
class BettiTable:
    """Nonzero Betti numbers beta_{i, sigma} of S/I, as sorted (i, sigma mask, beta) triples."""

    field: FieldSpec
    ambient: int
    entries: tuple[tuple[int, int, int], ...]

    def projective_dimension(self) -> int:
        return max(i for i, _, _ in self.entries)


def betti_numbers(ideal: MonomialIdeal, field: FieldSpec) -> BettiTable:
    """Graded Betti numbers of S/I for squarefree proper I, on every degree.

    Each degree sigma of the lcm lattice is ranked on the smaller of its two
    complexes (see `cohomdim._degree_betti`): the crosscut complex on the m
    generators below sigma when m < |sigma|, else Hochster's restriction to
    the |sigma| vertices.  The input checks and the guard are those of
    `top_betti_degree`.  Supports and degrees are variable bitmasks.
    """
    supports = _betti_supports(ideal)
    entries = []
    for sigma in _lcm_support_closure(supports):
        below = _below(sigma, supports)
        crosscut = len(below) < sigma.bit_count()
        for i, h in _degree_betti(sigma, below, field, crosscut).items():
            entries.append((i, sigma, h))
    entries.sort()
    return BettiTable(field, ideal.ambient, tuple(entries))


def betti_dict(table) -> dict[tuple[int, int], int]:
    """A `BettiTable` as {(i, sigma mask): beta}, the form of the tables here."""
    return {(i, s): v for i, s, v in table.entries}


def koszul_tor_table(ideal: MonomialIdeal, field: FieldSpec):
    """Graded Betti numbers of S/I as Koszul homology, a route independent of
    Hochster's formula: tensor the Koszul complex on all variables with S/I and
    take ranks in each squarefree multidegree, keyed (i, sigma mask)."""
    d = ideal.ambient
    table = {}
    for smask in range(1 << d):
        sigma = frozenset(i + 1 for i in range(d) if smask >> i & 1)
        bases = []
        for i in range(len(sigma) + 1):
            basis = []
            for tau in combinations(sorted(sigma), i):
                rest = from_support(sigma - set(tau), d)
                if rest not in ideal:
                    basis.append(tau)
            bases.append(basis)
        boundary_rank = {}
        for i in range(1, len(sigma) + 1):
            rows, cols = bases[i - 1], bases[i]
            if not rows or not cols:
                boundary_rank[i] = 0
                continue
            pos = {t: k for k, t in enumerate(rows)}
            mat = [[0] * len(cols) for _ in rows]
            for cidx, tau in enumerate(cols):
                for k in range(len(tau)):
                    smaller = tau[:k] + tau[k + 1:]
                    ridx = pos.get(smaller)
                    if ridx is not None:
                        mat[ridx][cidx] = -1 if k % 2 else 1
            boundary_rank[i] = dense_rank(mat, field)
        for i in range(len(sigma) + 1):
            h = len(bases[i]) - boundary_rank.get(i, 0) - boundary_rank.get(i + 1, 0)
            if h:
                table[(i, smask)] = h
    return table


def _image_in_prime_quotient(a, prime: VarSet) -> MonomialIdeal:
    """Image of radical(lift) in S/prime, reindexed onto the surviving variables,
    through the checked constructors.

    The generators missing the prime are an antichain in canonical order, and
    dropping coordinates on which all of them are 0 keeps divisibility and
    order, so the checked `MonomialIdeal(...)` accepts them as they come."""
    a.ring.require_support(prime)
    survivors = [i for i in range(a.ring.ambient) if i + 1 not in prime]
    gens = tuple(
        Monomial(tuple(g.exponents[i] for i in survivors))
        for g in a.radical_lift.gens
        if not g.support() & prime
    )
    return MonomialIdeal(len(survivors), gens)


def truncated_localization_piece(J: MonomialIdeal, W, deg, extra_steps=6) -> int:
    """Degree piece of (S/J)[1/prod(W)] by following the directed system of
    multiplication maps far enough to stabilize (membership in a monomial ideal
    is monotone under multiplying by more variables)."""
    d = J.ambient
    wvec = tuple(1 if i + 1 in W else 0 for i in range(d))
    if any(deg[i] < 0 and not wvec[i] for i in range(d)):
        return 0
    k0 = max([0] + [-deg[i] for i in range(d) if wvec[i]])
    k = k0 + max(extra_steps, max((g.degree for g in J.gens), default=0))
    probe = Monomial(tuple(deg[i] + k * wvec[i] for i in range(d)))
    return 0 if probe in J else 1


def search_witness(a, p, c: int, field: FieldSpec):
    """First monomial prime q >= p with |q| = d - c and cd(a, R/q) = c, or None,
    by trying every candidate in lexicographic order of the added variables and
    computing cd on each one from its Hochster Betti table."""
    d = a.ring.ambient
    size = d - c
    if size < len(p):
        return None
    rest = sorted(set(range(1, d + 1)) - p)
    for extra in combinations(rest, size - len(p)):
        q = frozenset(p | set(extra))
        if cd_on_prime(a, q, field) == c:
            return q
    return None


def random_squarefree_ideal(rng, d: int, allow_zero=True) -> MonomialIdeal:
    n = rng.randint(0 if allow_zero else 1, max(1, d))
    gens = []
    for _ in range(n):
        size = rng.randint(1, d)
        gens.append(from_support(rng.sample(range(1, d + 1), size), d))
    ideal = minimalize(gens, d)
    if ideal.is_unit():  # cannot happen for nonempty supports, kept for clarity
        return minimalize([], d)
    return ideal


def random_monomial_ideal(rng, d: int, max_exp=2, max_gens=4) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        exps = [rng.randint(0, max_exp) for _ in range(d)]
        if not any(exps):
            exps[rng.randrange(d)] = 1
        gens.append(Monomial(tuple(exps)))
    return minimalize(gens, d)


def sweep_cech_ranks(a, box, field: FieldSpec):
    """Ranks at every degree of the box and the top nonvanishing index, by
    building the slice of each degree in turn (the per-degree sweep the
    pattern sweep of `cech.cech_ranks` replaces)."""
    engine = _SliceEngine(a, field, CECH_GUARD_DEFAULT)
    ranks = {}
    top = -1
    for deg in box.degrees():
        slice_ranks = engine.ranks(_sign_pattern(deg))
        ranks[deg] = slice_ranks
        for i, r in enumerate(slice_ranks):
            if r and i > top:
                top = i
    return ranks, top


def sweep_annihilation(m, a, i: int, box, field: FieldSpec):
    """(verdict, witness degree, degrees checked, coverage gaps) by visiting
    every degree of the box in lexicographic order up to the first one where
    multiplication by m is nonzero on H^i."""
    engine = _SliceEngine(a, field, CECH_GUARD_DEFAULT)
    checked = 0
    gaps = 0
    for deg in box.degrees():
        target = tuple(x + s for x, s in zip(deg, m.exponents))
        if target not in box:
            gaps += 1
            continue
        checked += 1
        if not _induced_map_is_zero(engine, _sign_pattern(deg), _sign_pattern(target), i):
            return "acts-nonzero", deg, checked, gaps
    return "annihilates-in-box", None, checked, gaps


# ------------------------------------------------------- dense linear algebra

def _integer_rows(rows):
    out = []
    for row in rows:
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def _rank_bareiss(m) -> int:
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        # fraction-free update keeps every intermediate entry integral
        for i in range(r + 1, nrows):
            mic = m[i][c]
            mrc = m[r][c]
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * mrc - mic * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def _rref(rows, field: FieldSpec):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    p = field.characteristic
    if p:
        m = [[x % p for x in row] for row in rows]
    else:
        m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if p:
            inv = pow(m[r][c], p - 2, p)
            m[r] = [(x * inv) % p for x in m[r]]
        else:
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                if p:
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
                else:
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def dense_rank(rows, field: FieldSpec) -> int:
    """Bareiss over Q (rows may hold fractions), the pivots of the reduced row
    echelon form over F_p."""
    if not rows or not rows[0]:
        return 0
    if field.characteristic == 0:
        return _rank_bareiss(_integer_rows(rows))
    return len(_rref(rows, field)[1])


def dense_kernel_basis(rows, field: FieldSpec, ncols: int):
    """Basis of the right kernel from the reduced row echelon form."""
    p = field.characteristic
    one = 1 if p else Fraction(1)
    if not rows:
        return [[one if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    m, pivots = _rref(rows, field)
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_of_col):
        vec = [0] * ncols
        vec[f] = one
        for c, r in pivot_of_col.items():
            vec[c] = (-m[r][f]) % p if p else -m[r][f]
        basis.append(vec)
    return basis


def dense_rows(cols, nrows):
    """The rows of the matrix with these sparse (row, value) columns."""
    rows = [[0] * len(cols) for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, v in col:
            rows[r][c] = v
    return rows


def admissible(gens_masks, sigma: int) -> bool:
    """Lyubeznik's condition on the generator subset sigma (a bitmask of
    generator indices), from the definition: for every tail {i_k, ..., i_p}
    of sigma = {i_1 < ... < i_p}, no generator g_q with q < i_k has its
    support inside the union of the tail's supports."""
    indices = [i for i in range(len(gens_masks)) if sigma >> i & 1]
    for k in range(len(indices)):
        tail = 0
        for i in indices[k:]:
            tail |= gens_masks[i]
        for q in range(indices[k]):
            if gens_masks[q] & ~tail == 0:
                return False
    return True


def admissible_part(engine: _SliceEngine, bases, mats):
    """The bases of a dense slice cut to their admissible members, and each
    dense differential cut to the rows and columns of those members."""
    masks = [g.mask for g in engine.gens]
    keep = [[k for k, m in enumerate(b) if admissible(masks, m)] for b in bases]
    cut_bases = [[b[k] for k in ks] for b, ks in zip(bases, keep)]
    cut_mats = [
        [[mat[r][c] for c in keep[i]] for r in keep[i + 1]] for i, mat in enumerate(mats)
    ]
    return cut_bases, cut_mats


def full_slice_ranks(engine: _SliceEngine, pat):
    """The cohomology ranks of a slice's members on all t + 1 components: every
    differential d_0, ..., d_{t-1} and the full dims, empty components
    included.  It is the reference for the nonzero band of `_SliceEngine.ranks`."""
    members = engine.members(pat)
    diffs = tuple(_coboundary(members, i) for i in range(engine.t))
    return cohomology_ranks(VectorSpaceComplex(engine.field, tuple(map(len, members)), diffs))


def dense_slice(engine: _SliceEngine, pat):
    """(bases, positions, dims, dense differentials) of a slice, built degree
    piece by degree piece with dims[i+1] x dims[i] matrices."""
    neg, pos = pat
    # every subset of the generators, by number of elements, then by integer value
    bases = [
        [m for m in range(1 << engine.t)
         if bin(m).count("1") == i and not neg & ~engine.W[m]
         and is_face(pos | engine.W[m], engine.j_masks)]
        for i in range(engine.t + 1)
    ]
    positions = [{m: k for k, m in enumerate(b)} for b in bases]
    dims = tuple(len(b) for b in bases)
    mats = []
    for i in range(engine.t):
        mat = [[0] * dims[i] for _ in range(dims[i + 1])]
        for col, sm in enumerate(bases[i]):
            for j in range(engine.t):
                bit = 1 << j
                row = positions[i + 1].get(sm | bit)
                if not sm & bit and row is not None:
                    mat[row][col] = -1 if bin(sm & (bit - 1)).count("1") % 2 else 1
        mats.append(mat)
    return bases, positions, dims, mats


def dense_cohomology_ranks(dims, mats, field: FieldSpec):
    diff_ranks = [dense_rank(mat, field) for mat in mats]
    return tuple(
        dim - (diff_ranks[i] if i < len(mats) else 0) - (diff_ranks[i - 1] if i else 0)
        for i, dim in enumerate(dims)
    )


class DenseSlices:
    """The dense slices of one engine, each built and ranked once per sign
    pattern: the map checks ask for the same slice at every index i and in
    many pairs.  It keeps at most MAX_PATTERNS slices and starts again when
    full, so a long sweep cannot grow it without bound."""

    MAX_PATTERNS = 1024

    def __init__(self, engine: _SliceEngine):
        self.engine = engine
        self._entries: dict = {}

    def _entry(self, pat):
        entry = self._entries.get(pat)
        if entry is None:
            if len(self._entries) >= self.MAX_PATTERNS:
                self._entries.clear()
            dense = dense_slice(self.engine, pat)
            _, _, dims, mats = dense
            ranks = dense_cohomology_ranks(dims, mats, self.engine.field)
            entry = self._entries[pat] = (dense, ranks)
        return entry

    def slice(self, pat):
        """`dense_slice(engine, pat)`; callers must not change it."""
        return self._entry(pat)[0]

    def ranks(self, pat):
        """The cohomology ranks of the dense slice."""
        return self._entry(pat)[1]

    def induced_map_is_zero(self, pat1, pat2, i: int) -> bool:
        """Is H^i(slice 1) -> H^i(slice 2) zero?  Cycles from the dense kernel,
        moved to slice 2 basis element by basis element, against the
        boundaries."""
        engine = self.engine
        if i < 0 or i > engine.t or self.ranks(pat1)[i] == 0 or self.ranks(pat2)[i] == 0:
            return True
        field = engine.field
        bases1, _, dims1, mats1 = self.slice(pat1)
        _, positions2, dims2, mats2 = self.slice(pat2)
        cycles = dense_kernel_basis(mats1[i] if i < engine.t else [], field, dims1[i])
        mapped = []
        for vec in cycles:
            out = [0] * dims2[i]
            for c1, sm in enumerate(bases1[i]):
                r2 = positions2[i].get(sm)
                if r2 is not None:
                    out[r2] = vec[c1]
            mapped.append(out)
        boundary = mats2[i - 1] if i > 0 else [[] for _ in range(dims2[i])]
        stacked = [list(boundary[r]) + [vec[r] for vec in mapped] for r in range(dims2[i])]
        return dense_rank(stacked, field) == dense_rank(boundary, field)


def dense_homology_ranks_of_faces(faces, field: FieldSpec) -> dict[int, int]:
    """Reduced homology ranks of a closed list of sorted vertex tuples."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(by_dim)
    index = {f: k for fs in by_dim.values() for k, f in enumerate(fs)}
    boundary_rank = {}
    for j in range(0, top + 1):
        cols, rows = by_dim.get(j, []), by_dim.get(j - 1, [])
        mat = [[0] * len(cols) for _ in rows]
        for cidx, f in enumerate(cols):
            for k in range(len(f)):
                mat[index[f[:k] + f[k + 1:]]][cidx] = -1 if k % 2 else 1
        boundary_rank[j] = dense_rank(mat, field)
    return {
        j: len(by_dim.get(j, [])) - boundary_rank.get(j, 0) - boundary_rank.get(j + 1, 0)
        for j in range(-1, top + 1)
    }


def hochster_ranks(relations: MonomialIdeal, deg, field: FieldSpec) -> tuple[int, ...]:
    """dim H^i_m(S/J)_deg for i = 0..d, m the maximal ideal, by Hochster's
    formula (Bruns-Herzog, Theorem 5.3.8; Miller-Sturmfels, Theorem 13.13):
    0 unless deg <= 0 and F = {v : deg_v < 0} is a face of the Stanley-Reisner
    complex Delta of J, and then dim H~_{i-|F|-1}(lk F; k).  It reads the links
    of Delta, with tuple faces ranked by `dense_homology_ranks_of_faces`, and
    no Cech complex or slice rule."""
    d = relations.ambient
    supports = [g.support() for g in relations.gens]

    def in_delta(vertices) -> bool:
        return not any(s <= vertices for s in supports)

    face = frozenset(v for v, e in enumerate(deg, 1) if e < 0)
    if any(e > 0 for e in deg) or not in_delta(face):
        return (0,) * (d + 1)
    rest = [v for v in range(1, d + 1) if v not in face]
    # lk F: the faces G of Delta that miss F and whose union with F is a face
    link = [g for k in range(len(rest) + 1) for g in combinations(rest, k)
            if in_delta(face | set(g))]
    homology = dense_homology_ranks_of_faces(link, field)
    return tuple(homology.get(i - len(face) - 1, 0) for i in range(d + 1))


def dense_betti_table(ideal: MonomialIdeal, field: FieldSpec):
    """Hochster's formula on every subset sigma of the variables, with tuple
    faces and dense boundary matrices: {(i, sigma mask): beta} for nonzero beta."""
    d = ideal.ambient
    supports = [g.support() for g in ideal.gens]
    table = {}
    for smask in range(1 << d):
        sigma = frozenset(i + 1 for i in range(d) if smask >> i & 1)
        verts = sorted(sigma)
        faces = [
            face
            for k in range(len(verts) + 1)
            for face in combinations(verts, k)
            if not any(s <= set(face) for s in supports)
        ]
        for dim, h in dense_homology_ranks_of_faces(faces, field).items():
            if h:
                table[(len(sigma) - dim - 1, smask)] = h
    return table


def all_squarefree_ideals(d):
    """Every squarefree ideal on d variables except the unit ideal, as support antichains."""
    subsets = [
        frozenset(i + 1 for i in range(d) if mask >> i & 1) for mask in range(1, 1 << d)
    ]
    n = len(subsets)
    out = []
    for mask in range(1 << n):
        chosen = [subsets[i] for i in range(n) if mask >> i & 1]
        if all(not a <= b for i, a in enumerate(chosen) for j, b in enumerate(chosen) if i != j):
            out.append(tuple(sorted(tuple(sorted(s)) for s in chosen)))
    return out


@functools.cache
def canonical_pairs(d):
    """(relations, ideal) support-antichain pairs up to simultaneous relabeling.

    Each pair is the least of its orbit, listed in order of first appearance.
    Supports are relabelled as bitmasks through one table per permutation.
    The least pair of an orbit takes J to the least relabeling of J, so only
    the permutations that do so (a coset of J's stabilizer) relabel A.
    """
    perms = list(permutations(range(1, d + 1)))
    # tables[k][mask] is the support `mask` under perms[k], as a sorted tuple
    tables = [
        [tuple(sorted(perm[i] for i in range(d) if mask >> i & 1)) for mask in range(1 << d)]
        for perm in perms
    ]
    ideals = [[sum(1 << (v - 1) for v in sup) for sup in key] for key in all_squarefree_ideals(d)]

    def relabel(table, key):
        return tuple(sorted(table[m] for m in key))

    least = []
    for key in ideals:
        images = [relabel(table, key) for table in tables]
        low = min(images)
        least.append((low, [t for t, image in zip(tables, images) if image == low]))
    seen = set()
    pairs = []
    for jkey, jtables in least:
        for akey in ideals:
            key = (jkey, min(relabel(t, akey) for t in jtables))
            if key not in seen:
                seen.add(key)
                pairs.append(key)
    return pairs


def ideal_from_key(key, d):
    return minimalize([from_support(s, d) for s in key], d)
