"""Exact linear algebra over Q or F_p: ranks and cohomology ranks.

One sparse elimination routine, `eliminate`, ranks every matrix.  Matrices
are lists of sparse columns of (row, value) pairs.  It reduces mod p over F_p
and is fraction-free over Q; everything is integer arithmetic, never floating
point.  One builder, `family_columns`, writes the signed +-1 columns of the
cochain complex on a convex family of bitmasks: every Cech slice, and every
face family of `homology_ranks_of_faces`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, KeysView, Mapping, Sequence

from .errors import InvalidInputError, parse_int

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
        if type(self.characteristic) is not int:  # no bool or float
            raise InvalidInputError(
                f"field characteristic must be an int, got {self.characteristic!r}"
            )
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
        if p == 0:  # FieldSpec(0) is Q
            raise InvalidInputError("a prime field needs a prime characteristic, got 0")
        return cls(p)

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
            return cls.prime_field(parse_int(low[3:], "a field characteristic"))
        raise InvalidInputError(f"cannot parse field spec {text!r} (use Q or Fp:<prime>)")


Column = Sequence[tuple[int, int]]


def _combine(a: dict[int, int], s: int, b: dict[int, int], t: int, p: int) -> None:
    """a <- s*a + t*b in place (mod p when p > 0), dropping zero entries."""
    if s != 1:
        for k in a:
            a[k] *= s
    for k, v in b.items():
        x = a.get(k, 0) + t * v
        if p:
            x %= p
        if x:
            a[k] = x
        else:
            del a[k]


def eliminate(columns: Sequence[Column], field: FieldSpec) -> KeysView[int]:
    """Pivot rows of the matrix with these sparse columns, as many as its rank.

    Each column is reduced against the pivot columns found so far, pivoting on
    its largest row.  Over F_p entries live mod p and every pivot column is
    scaled to pivot 1.  Over Q a step is the integer combination
    g*col - f*pivot, and each reduced column is divided by its content, so
    no fraction is ever formed.
    """
    p = field.characteristic
    pivots: dict[int, dict[int, int]] = {}
    for pairs in columns:
        col = {r: v % p for r, v in pairs if v % p} if p else {r: v for r, v in pairs if v}
        while col:
            low = max(col)
            pcol = pivots.get(low)
            if pcol is None:
                break
            _combine(col, pcol[low], pcol, -col[low], p)
        if not col:
            continue
        if p:
            inv = pow(col[low], -1, p)
            if inv != 1:
                for k in col:
                    col[k] = col[k] * inv % p
        else:
            content = math.gcd(*col.values())
            if content > 1:
                for k in col:
                    col[k] //= content
        pivots[low] = col
    return pivots.keys()


@dataclass(frozen=True)
class VectorSpaceComplex:
    """A bounded cochain complex of finite dimensional vector spaces.

    differentials[i] maps component i to component i+1 and is stored as
    dims[i] sparse columns, each a sequence of (row, value) pairs with distinct
    rows below dims[i+1]; consecutive maps must compose to zero.
    """

    field: FieldSpec
    dims: tuple[int, ...]
    differentials: tuple[Sequence[Column], ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise InvalidInputError("complex needs at least one component")
        if len(self.differentials) != len(self.dims) - 1:
            raise InvalidInputError("need exactly one differential per adjacent pair")
        for i, cols in enumerate(self.differentials):
            if len(cols) != self.dims[i]:
                raise InvalidInputError(f"differential {i} has the wrong shape")
            if any(cols):
                as_dicts = [dict(col) for col in cols]
                rows = set().union(*as_dicts)
                if (
                    list(map(len, as_dicts)) != list(map(len, cols))
                    or min(rows) < 0
                    or max(rows) >= self.dims[i + 1]
                ):
                    raise InvalidInputError(f"differential {i} has the wrong shape")
        p = self.field.characteristic
        for i in range(len(self.differentials) - 1):
            nxt = self.differentials[i + 1]
            if not any(nxt):
                continue
            for col in self.differentials[i]:
                image: dict[int, int] = {}
                for r, v in col:
                    for s, w in nxt[r]:
                        image[s] = image.get(s, 0) + v * w
                if any(image.values()) and (not p or any(x % p for x in image.values())):
                    raise InvalidInputError(
                        f"differentials {i} and {i + 1} do not compose to zero"
                    )


def cohomology_ranks(complex_: VectorSpaceComplex) -> tuple[int, ...]:
    """rank H^i = dim_i - rank(d_i) - rank(d_{i-1}) for each component i.

    A pivot row r of d_i is the last entry of a column of d_i's image, which
    d_{i+1} kills, so column r of d_{i+1} is a combination of the columns
    before it: those columns are left out of d_{i+1} without changing its
    rank (the clearing of persistent homology).
    """
    diff_ranks = []
    cleared: Iterable[int] = ()
    for cols in complex_.differentials:
        if cleared:
            cols = [c for j, c in enumerate(cols) if j not in cleared]
        cleared = eliminate(cols, complex_.field) if any(cols) else ()
        diff_ranks.append(len(cleared))
    ranks = [0, *diff_ranks, 0]  # ranks[i] is the rank of d_{i-1}
    return tuple(dim - ranks[i] - ranks[i + 1] for i, dim in enumerate(complex_.dims))


def family_columns(cols: Mapping[int, int], rows: Iterable[int]) -> list[list[tuple[int, int]]]:
    """Sparse columns of the coboundary d_i on a convex family of bitmasks.

    Component i of the family holds its members with i bits.  `cols` numbers
    from 0 the members of component i whose columns are built, and `rows`
    lists component i+1.  Member s maps to the sum of (-1)^{#bits of s below j}
    (s + {j}) over the members s + {j} of component i+1.  d∘d = 0 when the
    family is convex, i.e. holds every b with a ⊆ b ⊆ c for members a and c:
    the paths from s to s + {j, k} (j < k) through s + {j} and s + {k} carry
    opposite signs, and by convexity both are there if s and s + {j, k} are.
    A face family is a down-set, so convex; a Cech slice is an up-set
    (neg inside W[sigma]) meeting down-sets (faces, and admissible sigma).
    """
    columns: list[list[tuple[int, int]]] = [[] for _ in cols]
    for r, f in enumerate(rows):
        rest, sign = f, 1
        while rest:
            bit = rest & -rest
            rest ^= bit
            c = cols.get(f ^ bit)
            if c is not None:
                columns[c].append((r, sign))
            sign = -sign
    return columns


def homology_ranks_of_faces(faces: Iterable[int], field: FieldSpec) -> dict[int, int]:
    """Reduced homology ranks of a closed face family (must include the empty face).

    Faces are vertex bitmasks; the empty face 0 sits in dimension -1, so the
    family [0] has a single rank in dimension -1.  Over a field reduced
    homology and cohomology have the same ranks, and the coboundary of
    `family_columns` is the transpose of the simplicial boundary, so the
    family is ranked as a cochain complex from the empty face up.  Each d_i
    is built without the columns that the clearing of `cohomology_ranks`
    drops, the pivot rows of d_{i-1}.
    """
    components: list[list[int]] = [[]]
    for f in faces:
        n = f.bit_count()
        while len(components) <= n:
            components.append([])
        components[n].append(f)
    if not components[0]:
        raise InvalidInputError("face list must contain the empty face")
    ranks = [0]  # ranks[i] is the rank of d_{i-1}
    cleared: Iterable[int] = ()
    for i in range(len(components) - 1):
        kept = components[i]
        if cleared:
            kept = [m for k, m in enumerate(kept) if k not in cleared]
        cols = {m: c for c, m in enumerate(kept)}
        cleared = eliminate(family_columns(cols, components[i + 1]), field)
        ranks.append(len(cleared))
    ranks.append(0)
    return {i - 1: len(c) - ranks[i] - ranks[i + 1] for i, c in enumerate(components)}
