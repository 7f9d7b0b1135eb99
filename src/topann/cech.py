"""Independent multigraded verification: Cech cohomology of R degree by degree.

The Cech complex on the minimal generators of radical(lift) computes the local
cohomology of R = S/J with respect to the ideal.  Each Z^d-degree slice is a
finite complex of vector spaces whose components are 0- or 1-dimensional
localization pieces; the slice only depends on the sign pattern of the degree,
which keeps sweeping a whole degree box cheap.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import GuardExceededError, InvalidInputError
from .linalg import FieldSpec, VectorSpaceComplex, cohomology_ranks, kernel_basis, rank
from .monomial import Monomial, MonomialIdeal, VarSet, radical
from .stanley_reisner import QuotientIdeal

CECH_GUARD_DEFAULT = 10


@dataclass(frozen=True)
class DegreeBox:
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise InvalidInputError("box bounds have different lengths")
        if any(a > b for a, b in zip(self.lower, self.upper)):
            raise InvalidInputError("box lower bound exceeds upper bound")

    @classmethod
    def uniform(cls, d: int, lo: int = -3, hi: int = 1) -> DegreeBox:
        return cls((lo,) * d, (hi,) * d)

    def __contains__(self, deg: tuple[int, ...]) -> bool:
        return all(a <= x <= b for a, x, b in zip(self.lower, deg, self.upper))

    def degrees(self):
        ranges = [range(a, b + 1) for a, b in zip(self.lower, self.upper)]
        return product(*ranges)


def _mask(varset: VarSet) -> int:
    m = 0
    for v in varset:
        m |= 1 << (v - 1)
    return m


def _sign_pattern(deg: tuple[int, ...]) -> tuple[int, int]:
    """Bitmasks of the negative and the positive coordinates of a degree."""
    neg = 0
    pos = 0
    for i, e in enumerate(deg):
        if e < 0:
            neg |= 1 << i
        elif e > 0:
            pos |= 1 << i
    return neg, pos


def localization_piece(J: MonomialIdeal, W: VarSet, deg: tuple[int, ...]) -> int:
    """Dimension (0 or 1) of the degree-deg piece of (S/J) localized at prod(W).

    The piece is spanned by the Laurent monomial u^deg; it survives iff the
    negative support of deg sits inside W and the union of W with the positive
    support is a face of the Stanley-Reisner complex of J.
    """
    if not J.is_squarefree() or J.is_unit():
        raise InvalidInputError("localization pieces need a squarefree proper ideal")
    if len(deg) != J.ambient:
        raise InvalidInputError("degree vector has the wrong length")
    wmask = _mask(W)
    neg, pos = _sign_pattern(deg)
    if neg & ~wmask:
        return 0
    v = pos | wmask
    for g in J.gens:
        if _mask(g.support()) & ~v == 0:
            return 0
    return 1


class _SliceEngine:
    """Slice complexes of the Cech complex, cached by degree sign pattern."""

    def __init__(self, a: QuotientIdeal, field: FieldSpec, guard: int):
        ring = a.ring
        self.d = ring.ambient
        self.field = field
        gens = radical(a.lift).gens
        if len(gens) > guard:
            raise GuardExceededError(
                f"Cech complex on {len(gens)} generators exceeds guard {guard}"
            )
        self.gens = gens
        self.t = len(gens)
        gen_masks = [_mask(g.support()) for g in gens]
        self.j_masks = [_mask(g.support()) for g in ring.relations.gens]
        # union of generator supports for every subset of generator indices
        self.W = [0] * (1 << self.t)
        for s in range(1, 1 << self.t):
            low = (s & -s).bit_length() - 1
            self.W[s] = self.W[s & (s - 1)] | gen_masks[low]
        # subsets listed per cardinality, in lexicographic order of index tuples
        self.sigma_by_card = []
        for i in range(self.t + 1):
            masks = []
            for combo in combinations(range(self.t), i):
                m = 0
                for j in combo:
                    m |= 1 << j
                masks.append(m)
            self.sigma_by_card.append(masks)
        self._face_cache: dict[int, bool] = {}
        self._complex_cache: dict[tuple[int, int], tuple] = {}
        self._rank_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def _face(self, vmask: int) -> bool:
        hit = self._face_cache.get(vmask)
        if hit is None:
            hit = all(jm & ~vmask for jm in self.j_masks)
            self._face_cache[vmask] = hit
        return hit

    def _piece(self, smask: int, pat: tuple[int, int]) -> bool:
        neg, pos = pat
        w = self.W[smask]
        return not (neg & ~w) and self._face(pos | w)

    def slice_complex(self, pat: tuple[int, int]):
        """Bases (lists of subset masks per cohomological index) and the complex."""
        hit = self._complex_cache.get(pat)
        if hit is not None:
            return hit
        bases = [
            [m for m in self.sigma_by_card[i] if self._piece(m, pat)]
            for i in range(self.t + 1)
        ]
        positions = [{m: k for k, m in enumerate(b)} for b in bases]
        dims = tuple(len(b) for b in bases)
        diffs = []
        for i in range(self.t):
            mat = [[0] * dims[i] for _ in range(dims[i + 1])]
            for col, sm in enumerate(bases[i]):
                for j in range(self.t):
                    bit = 1 << j
                    if sm & bit:
                        continue
                    tm = sm | bit
                    row = positions[i + 1].get(tm)
                    if row is None:
                        continue
                    sign = -1 if bin(sm & (bit - 1)).count("1") % 2 else 1
                    mat[row][col] = sign
            diffs.append(tuple(tuple(r) for r in mat))
        complex_ = VectorSpaceComplex(self.field, dims, tuple(diffs))
        result = (bases, positions, complex_)
        self._complex_cache[pat] = result
        return result

    def ranks(self, pat: tuple[int, int]) -> tuple[int, ...]:
        hit = self._rank_cache.get(pat)
        if hit is None:
            _, _, complex_ = self.slice_complex(pat)
            hit = cohomology_ranks(complex_)
            self._rank_cache[pat] = hit
        return hit


@dataclass(frozen=True)
class CechReport:
    field: FieldSpec
    generators: tuple[Monomial, ...]
    box: DegreeBox
    ranks: dict[tuple[int, ...], tuple[int, ...]]
    top_nonvanishing: int


def cech_ranks(
    a: QuotientIdeal,
    box: DegreeBox,
    field: FieldSpec,
    guard: int = CECH_GUARD_DEFAULT,
) -> CechReport:
    """Cohomology ranks of every degree slice in the box.

    top_nonvanishing is the largest index with a nonzero rank anywhere in the
    box (-1 when everything vanishes); it is a lower-bound witness for cd.
    """
    if len(box.lower) != a.ring.ambient:
        raise InvalidInputError("box dimension does not match the ambient ring")
    engine = _SliceEngine(a, field, guard)
    ranks: dict[tuple[int, ...], tuple[int, ...]] = {}
    top = -1
    for deg in box.degrees():
        slice_ranks = engine.ranks(_sign_pattern(deg))
        ranks[deg] = slice_ranks
        for i, r in enumerate(slice_ranks):
            if r and i > top:
                top = i
    return CechReport(
        field=field,
        generators=engine.gens,
        box=box,
        ranks=ranks,
        top_nonvanishing=top,
    )


@dataclass(frozen=True)
class AnnihilationVerdict:
    verdict: str  # "annihilates-in-box" or "acts-nonzero"
    witness_degree: tuple[int, ...] | None
    degrees_checked: int
    coverage_gaps: int


def annihilation_check(
    m: Monomial,
    a: QuotientIdeal,
    i: int,
    box: DegreeBox,
    field: FieldSpec,
    guard: int = CECH_GUARD_DEFAULT,
) -> AnnihilationVerdict:
    """Does multiplication by m act as zero on H^i within the box?

    For each degree b with b + deg(m) still inside the box, the induced map
    H^i(b) -> H^i(b + deg m) is extracted by exact linear algebra; the first
    degree where it is nonzero is reported.  Degrees whose translate leaves the
    box are skipped and counted as coverage gaps.
    """
    if m.ambient != a.ring.ambient or len(box.lower) != a.ring.ambient:
        raise InvalidInputError("monomial or box dimension mismatch")
    engine = _SliceEngine(a, field, guard)
    shift = m.exponents
    zero_cache: dict[tuple, bool] = {}
    checked = 0
    gaps = 0
    witness = None
    for deg in box.degrees():
        target = tuple(x + s for x, s in zip(deg, shift))
        if target not in box:
            gaps += 1
            continue
        checked += 1
        key = (_sign_pattern(deg), _sign_pattern(target))
        is_zero = zero_cache.get(key)
        if is_zero is None:
            is_zero = _induced_map_is_zero(engine, key[0], key[1], i)
            zero_cache[key] = is_zero
        if not is_zero:
            witness = deg
            break
    if witness is not None:
        return AnnihilationVerdict("acts-nonzero", witness, checked, gaps)
    return AnnihilationVerdict("annihilates-in-box", None, checked, gaps)


def _induced_map_is_zero(engine: _SliceEngine, pat1, pat2, i: int) -> bool:
    if i < 0 or i > engine.t:
        return True
    ranks1 = engine.ranks(pat1)
    ranks2 = engine.ranks(pat2)
    if ranks1[i] == 0 or ranks2[i] == 0:
        return True
    bases1, _, complex1 = engine.slice_complex(pat1)
    bases2, positions2, complex2 = engine.slice_complex(pat2)
    field = engine.field
    d_out = complex1.differentials[i] if i < engine.t else ()
    cycles = kernel_basis(d_out, field, complex1.dims[i])
    # multiplication sends the basis slice at sigma to the same sigma when the
    # target piece survives, and to zero otherwise
    n2 = complex2.dims[i]
    mapped = []
    for vec in cycles:
        out = [0] * n2
        for c1, sm in enumerate(bases1[i]):
            r2 = positions2[i].get(sm)
            if r2 is not None:
                out[r2] = vec[c1]
        mapped.append(out)
    boundary = complex2.differentials[i - 1] if i > 0 else ()
    n_bound = complex2.dims[i - 1] if i > 0 else 0
    base_rank = rank(boundary, field) if n_bound else 0
    stacked = [
        [boundary[r][c] for c in range(n_bound)] + [vec[r] for vec in mapped]
        for r in range(n2)
    ]
    return rank(stacked, field) == base_rank
