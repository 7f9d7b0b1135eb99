"""Exact linear algebra over Q or F_p, plus reduced simplicial homology ranks.

Rank computations use fraction-free (Bareiss) elimination over the rationals
and ordinary elimination over prime fields; everything is integer arithmetic,
never floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InvalidInputError

if TYPE_CHECKING:  # pragma: no cover
    from .stanley_reisner import SimplicialComplex

Matrix = tuple[tuple[int, ...], ...]


# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, 2015); larger characteristics are refused.
PRIME_CHARACTERISTIC_CAP = 3_317_044_064_679_887_385_961_981
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _WITNESS_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESS_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: characteristic 0 means Q, p means F_p."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        if self.characteristic >= PRIME_CHARACTERISTIC_CAP:
            raise InvalidInputError(
                f"field characteristic must be below {PRIME_CHARACTERISTIC_CAP}"
            )
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise InvalidInputError(
                f"field characteristic must be 0 or prime, got {self.characteristic}"
            )

    @classmethod
    def rationals(cls) -> FieldSpec:
        return cls(0)

    @classmethod
    def prime_field(cls, p: int) -> FieldSpec:
        return cls(p)

    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def label(self) -> str:
        return "Q" if self.characteristic == 0 else f"Fp:{self.characteristic}"

    @classmethod
    def parse(cls, text: str) -> FieldSpec:
        if not isinstance(text, str):
            raise InvalidInputError(f"field spec must be a string, got {text!r}")
        norm = text.strip()
        if norm.upper() in ("Q", "QQ"):
            return cls.rationals()
        low = norm.lower()
        if low.startswith("fp:"):
            try:
                return cls.prime_field(int(low[3:]))
            except ValueError as exc:
                raise InvalidInputError(f"cannot parse field spec {text!r}") from exc
        raise InvalidInputError(f"cannot parse field spec {text!r} (use Q or Fp:<prime>)")


def _integer_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    out = []
    for row in rows:
        if any(isinstance(x, Fraction) for x in row):
            scale = math.lcm(*(x.denominator for x in row))
            out.append([int(x * scale) for x in row])
        else:  # most rows; scaling them by 1 costs time and peak memory
            out.append([int(x) for x in row])
    return out


def rank(rows: Sequence[Sequence[int]], field: FieldSpec) -> int:
    """Exact rank: Bareiss over Q, the pivots of Gaussian elimination over F_p."""
    if not rows or not rows[0]:
        return 0
    if field.is_rationals():
        return _rank_bareiss(_integer_rows(rows))
    return len(_rref(rows, field)[1])


def _rank_bareiss(m: list[list[int]]) -> int:
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


def _rref(rows: Sequence[Sequence[int]], field: FieldSpec):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    p = field.characteristic
    if p:
        m = [[x % p for x in row] for row in rows]
    else:
        m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
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


def kernel_basis(rows: Sequence[Sequence[int]], field: FieldSpec, ncols: int):
    """Basis of the right kernel, as column vectors of length ncols."""
    if ncols == 0:
        return []
    if not rows:
        unit = Fraction(1) if field.is_rationals() else 1
        return [[unit if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    m, pivots = _rref(rows, field)
    p = field.characteristic
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    free_cols = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for f in free_cols:
        vec = [Fraction(0) if not p else 0] * ncols
        vec[f] = Fraction(1) if not p else 1
        for c, r in pivot_of_col.items():
            val = m[r][f]
            vec[c] = (-val) % p if p else -val
        basis.append(vec)
    return basis


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]):
    return [
        [sum(ar[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for ar in a
    ]


@dataclass(frozen=True)
class VectorSpaceComplex:
    """A bounded cochain complex of finite dimensional vector spaces.

    differentials[i] maps component i to component i+1 and is stored as a
    dims[i+1] x dims[i] matrix; consecutive maps must compose to zero.
    """

    field: FieldSpec
    dims: tuple[int, ...]
    differentials: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise InvalidInputError("complex needs at least one component")
        if len(self.differentials) != len(self.dims) - 1:
            raise InvalidInputError("need exactly one differential per adjacent pair")
        for i, mat in enumerate(self.differentials):
            if len(mat) != self.dims[i + 1] or any(len(row) != self.dims[i] for row in mat):
                raise InvalidInputError(f"differential {i} has the wrong shape")
        p = self.field.characteristic
        for i in range(len(self.differentials) - 1):
            a, b = self.differentials[i + 1], self.differentials[i]
            if not a or not b or not b[0]:
                continue
            prod = _matmul(a, b)
            if any((x % p if p else x) for row in prod for x in row):
                raise InvalidInputError(f"differentials {i} and {i + 1} do not compose to zero")


def cohomology_ranks(complex_: VectorSpaceComplex) -> tuple[int, ...]:
    """rank H^i = dim_i - rank(d_i) - rank(d_{i-1}) for each component i."""
    diff_ranks = [rank(mat, complex_.field) for mat in complex_.differentials]
    out = []
    for i, dim in enumerate(complex_.dims):
        r_out = diff_ranks[i] if i < len(diff_ranks) else 0
        r_in = diff_ranks[i - 1] if i > 0 else 0
        out.append(dim - r_out - r_in)
    return tuple(out)


def homology_ranks_of_faces(
    faces: Iterable[tuple[int, ...]], field: FieldSpec
) -> dict[int, int]:
    """Reduced homology ranks of a closed face list (must include the empty face).

    Faces are sorted vertex tuples; the empty tuple sits in dimension -1, so the
    complex {()} has a single rank in dimension -1.
    """
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    if -1 not in by_dim:
        raise InvalidInputError("face list must contain the empty face")
    top = max(by_dim)
    for j in by_dim:
        by_dim[j].sort()
    index = {j: {f: k for k, f in enumerate(fs)} for j, fs in by_dim.items()}
    boundary_rank: dict[int, int] = {}
    for j in range(0, top + 1):
        cols = by_dim.get(j, [])
        rows = by_dim.get(j - 1, [])
        if not cols or not rows:
            boundary_rank[j] = 0
            continue
        mat = [[0] * len(cols) for _ in rows]
        for cidx, f in enumerate(cols):
            for k in range(len(f)):
                g = f[:k] + f[k + 1:]
                mat[index[j - 1][g]][cidx] = -1 if k % 2 else 1
        boundary_rank[j] = rank(mat, field)
    ranks = {}
    for j in range(-1, top + 1):
        n = len(by_dim.get(j, []))
        ranks[j] = n - boundary_rank.get(j, 0) - boundary_rank.get(j + 1, 0)
    return ranks


def reduced_homology_ranks(complex_: "SimplicialComplex", field: FieldSpec) -> dict[int, int]:
    """Reduced homology of a simplicial complex over the given field.

    Over a field these coincide with the reduced cohomology ranks.
    """
    if complex_.is_void():
        raise InvalidInputError("the void complex has no homology")
    return homology_ranks_of_faces(complex_.faces(), field)
