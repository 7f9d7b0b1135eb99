"""Independent multigraded verification: Cech cohomology of R in a degree box.

The Cech complex on the minimal generators of radical(lift) computes the local
cohomology of R = S/J with respect to the ideal.  Each Z^d-degree slice is a
finite complex of vector spaces whose components are 0- or 1-dimensional
localization pieces, and the slice depends only on the sign pattern (neg, pos)
of the degree (Takayama's degree-wise formula), and only on part of it.  The
slice is {sigma in F : neg inside W[sigma]}, where F, the face family of pos,
is the admissible sigma with pos | W[sigma] a face:

- pos is read only through F, so patterns whose F are equal give equal member
  lists and equal ranks; F is listed once per pos & supp J, since a J
  generator lies inside pos | W[sigma] iff it lies inside (pos & supp J) |
  W[sigma], and each distinct F is numbered once;
- a neg that meets a variable outside the reach of F, the union of its
  W[sigma], gives the zero slice, since no W[sigma] of F holds it.

So slices are ranked once per key (neg, index of F), with one shared zero
slice, only their ranks are kept, and no box is walked degree by degree:

- `cech_ranks` looks up each sign pattern the box allows once (at most 3^d), and
  `CechReport.ranks` reads a degree's ranks from the engine's table.  Degrees are
  listed only by `DegreeRanks._listing`, each nonzero pattern as the product of
  its per-coordinate ranges, as sorted (degree, cell index) pairs: `nonzero`
  pairs them with their ranks, and the CLI writes one text template per cell.
- `annihilation_check` cuts the degrees b with b + deg(m) in the box into
  their sign intervals (at most 3 per coordinate) and tests only the smallest
  b of each interval tuple, walking the tuples in lexicographic order.
  Checked degrees and coverage gaps are counted in closed form.  A map whose
  source H^i is 0 is zero, and its target slice is not ranked for it.

Both walks read the sign pattern of each cell from `_cell_patterns`, which
sums per-coordinate shares over the same product of ranges, so that no degree
is built per cell.

`CECH_SWEEP_GUARD` bounds the generator subsets tabulated (2^t for t
generators), the patterns ranked, the interval tuples walked and the degrees
listed, so cost follows those counts and never the box volume.

A slice is a complex on subsets sigma of the generators: the face family of
its positive support cut to the sigma whose union of supports W[sigma] holds
its negative support.
Its differentials are the signed columns of `linalg.family_columns`, ranked
by `linalg.eliminate`.  It is built, d∘d-checked and ranked only on the band
[lo, hi) from its lowest to its highest nonempty component (one zero
component when it has no member), and its ranks are padded with zeros to
length t + 1.

Only Lyubeznik-admissible sigma are listed (Lyubeznik 1988, "A new explicit
finite free resolution of ideals generated by monomials"): in generator order,
no g_q with q < i_k lies inside W[{i_k, ..., i_p}], for any k.  They are closed
under subsets, so the rest F - L of a slice F is a subcomplex with quotient
L & F, and F - L is acyclic: the Morse matching of Batzies and Welker 2002
("Discrete Morse theory for cellular resolutions") keeps W, has them as its
critical cells, and restricts to a slice, a union of W-fibres.  Multiplying by
a monomial sends sigma to sigma or 0, so induced maps commute with the cut.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import product, repeat
from math import prod

from .errors import GuardExceededError, InvalidInputError, as_tuple
from .linalg import FieldSpec, VectorSpaceComplex, cohomology_ranks, eliminate, family_columns
from .monomial import Monomial, MonomialIdeal, subset_unions
from .stanley_reisner import QuotientIdeal, is_face

CECH_GUARD_DEFAULT = 10
# bounds the generator subsets, the sign patterns ranked, the interval tuples
# walked and the degrees listed
CECH_SWEEP_GUARD = 200_000
# CPython's default limit on converting an int to text: a box volume (and so
# every count a report makes of its degrees) must stay below 10^BOX_VOLUME_DIGITS
BOX_VOLUME_DIGITS = 4300
_MAX_VOLUME = 10**BOX_VOLUME_DIGITS


@dataclass(frozen=True)
class DegreeBox:
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("lower", "upper"):
            if not isinstance(getattr(self, name), tuple):
                object.__setattr__(self, name, as_tuple(getattr(self, name), "box bounds"))
        if not all(type(b) is int for b in self.lower + self.upper):  # no bool or float
            raise InvalidInputError("box bounds must be ints")
        if len(self.lower) != len(self.upper):
            raise InvalidInputError("box bounds have different lengths")
        if any(a > b for a, b in zip(self.lower, self.upper)):
            raise InvalidInputError("box lower bound exceeds upper bound")
        if self.volume() >= _MAX_VOLUME:
            raise GuardExceededError(
                f"the box volume has more than {BOX_VOLUME_DIGITS} decimal digits"
            )

    @classmethod
    def uniform(cls, d: int, lo: int = -3, hi: int = 1) -> DegreeBox:
        return cls((lo,) * d, (hi,) * d)

    def __contains__(self, deg: tuple[int, ...]) -> bool:
        return all(a <= x <= b for a, x, b in zip(self.lower, deg, self.upper))

    def degrees(self):
        ranges = [range(a, b + 1) for a, b in zip(self.lower, self.upper)]
        return product(*ranges)

    def widths(self) -> list[int]:
        return [b - a + 1 for a, b in zip(self.lower, self.upper)]

    def volume(self) -> int:
        return prod(self.widths())


def _check_sweep(count: int, what: str) -> None:
    if count > CECH_SWEEP_GUARD:
        raise GuardExceededError(
            f"Cech sweep: {count} {what} exceed the guard {CECH_SWEEP_GUARD}"
        )


def _is_degree(deg, ambient: int) -> bool:
    """Is deg a tuple of `ambient` ints (no bool or float)?"""
    return type(deg) is tuple and len(deg) == ambient and all(type(x) is int for x in deg)


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


def localization_piece(J: MonomialIdeal, w: int, deg: tuple[int, ...]) -> int:
    """Dimension (0 or 1) of the degree-deg piece of (S/J) localized at u^w.

    The piece is spanned by the Laurent monomial u^deg; it survives iff the
    negative support of deg sits inside the variable bitmask w and w joined with
    the positive support is a face of the Stanley-Reisner complex of J.
    """
    if not J.is_squarefree() or J.is_unit():
        raise InvalidInputError("localization pieces need a squarefree proper ideal")
    if type(w) is not int or w < 0 or w >> J.ambient:
        raise InvalidInputError(f"w must be a bitmask of {J.ambient} variables, got {w!r}")
    if not _is_degree(deg, J.ambient):
        raise InvalidInputError(f"the degree must be a tuple of {J.ambient} ints, got {deg!r}")
    neg, pos = _sign_pattern(deg)
    return int(not neg & ~w and is_face(pos | w, [g.mask for g in J.gens]))


def _coboundary(members: list[list[int]], i: int) -> list[list[tuple[int, int]]]:
    """Sparse columns of d_i on a slice's members, grouped by bit count."""
    return family_columns({m: k for k, m in enumerate(members[i])}, members[i + 1])


class _SliceEngine:
    """Cech slices, built, checked and ranked once per key, which keeps only
    their ranks, the one table the report's `DegreeRanks` reads.  The key is
    the part of the sign pattern a slice reads: (neg, index of the face family
    of pos), since a slice is the sigma of that family whose W[sigma] holds
    neg, and one zero slice (key None) for every neg that meets a variable
    outside the family's reach, since no W[sigma] of the family holds such a
    neg.  Every complex built is d∘d-checked, empty ones included.  A slice
    keeps only its admissible members, of the same cohomology (Lyubeznik;
    Batzies-Welker).  Its complex spans only the band from its lowest to its
    highest nonempty component, padded with zero ranks outside it; the
    components outside are 0, so neither the ranks nor the d∘d check change."""

    def __init__(self, a: QuotientIdeal, field: FieldSpec, guard: int):
        ring = a.ring
        self.field = field
        gens = a.radical_lift.gens
        if len(gens) > guard:
            raise GuardExceededError(
                f"Cech complex on {len(gens)} generators exceeds guard {guard}"
            )
        self.gens = gens
        self.t = len(gens)
        self.j_masks = [g.mask for g in ring.relations.gens]
        _check_sweep(1 << self.t, "generator subsets")
        # W[sigma]: the union of the supports of the generators in sigma
        g_masks = [g.mask for g in gens]
        self.W = subset_unions(g_masks)
        # admissible sigma: the tails of sigma minus its lowest index are, and its own
        adm = [True] * (1 << self.t)
        for m in range(1, 1 << self.t):
            low = (m & -m).bit_length() - 1
            adm[m] = adm[m & (m - 1)] and all(g & ~self.W[m] for g in g_masks[:low])
        self._admissible = [m for m, ok in enumerate(adm) if ok]
        self._supp_j = 0
        for m in self.j_masks:
            self._supp_j |= m
        self._by_pos: dict[int, tuple[int, tuple[int, ...], int]] = {}
        self._families: dict[tuple[int, ...], tuple[int, tuple[int, ...], int]] = {}
        self._ranks: dict[tuple[int, int] | None, tuple[int, ...]] = {}

    def _family(self, pos: int) -> tuple[int, tuple[int, ...], int]:
        """(index, members, reach) of the face family of pos & supp J: its members
        are the admissible sigma with pos | W[sigma] a face, in increasing order,
        each distinct family is numbered once, and its reach is the union of its
        W[sigma]."""
        pos &= self._supp_j
        hit = self._by_pos.get(pos)
        if hit is None:
            W, j_masks = self.W, self.j_masks
            family = tuple(m for m in self._admissible if is_face(pos | W[m], j_masks))
            hit = self._families.get(family)
            if hit is None:
                reach = 0
                for m in family:
                    reach |= W[m]
                hit = self._families[family] = (len(self._families), family, reach)
            self._by_pos[pos] = hit
        return hit

    def members(self, pat: tuple[int, int]) -> list[list[int]]:
        """The slice's subset masks by bit count, cut from the cached face family by
        the rule of `localization_piece`: neg inside W[sigma], pos | W[sigma] a face."""
        neg, pos = pat
        members: list[list[int]] = [[] for _ in range(self.t + 1)]
        for m in self._family(pos)[1]:
            if not neg & ~self.W[m]:
                members[m.bit_count()].append(m)
        return members

    def ranks(self, pat: tuple[int, int]) -> tuple[int, ...]:
        neg, pos = pat
        index, _, reach = self._family(pos)
        key = None if neg & ~reach else (neg, index)  # None: the shared zero slice
        hit = self._ranks.get(key)
        if hit is None:
            members = self.members(pat)
            band = [i for i, component in enumerate(members) if component]
            lo, hi = (band[0], band[-1] + 1) if band else (0, 1)
            diffs = tuple(_coboundary(members, i) for i in range(lo, hi - 1))
            complex_ = VectorSpaceComplex(self.field, tuple(map(len, members[lo:hi])), diffs)
            hit = self._ranks[key] = (
                (0,) * lo + cohomology_ranks(complex_) + (0,) * (self.t + 1 - hi)
            )
        return hit


def _sign_ranges(lo: int, hi: int) -> list[range]:
    """[lo, hi] split into its negative, zero and positive values (nonempty parts)."""
    parts = (
        range(lo, min(hi, -1) + 1),
        range(max(lo, 0), min(hi, 0) + 1),
        range(max(lo, 1), hi + 1),
    )
    return [r for r in parts if r]


def _cell_patterns(
    per_coord: list[list[range]], shift: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """`_sign_pattern` of the smallest degree of each cell of product(*per_coord),
    plus shift, in that order.  Each coordinate's share of a pattern, packed as
    neg << d | pos, is summed over the same product and unpacked by divmod, so no
    degree is built per cell."""
    d = len(per_coord)
    shares = [[(r[0] + s < 0) << (i + d) | (r[0] + s > 0) << i for r in rs]
              for i, (rs, s) in enumerate(zip(per_coord, shift))]
    return map(divmod, map(sum, product(*shares)), repeat(1 << d))


def _lex_rank(deg: tuple[int, ...], lower: tuple[int, ...], widths) -> int:
    """Number of degrees before deg, in lexicographic order, in the box with
    these lower corners and widths (deg must lie in that box)."""
    n = 0
    for x, lo, w in zip(deg, lower, widths):
        n = n * w + (x - lo)
    return n


class DegreeRanks(Mapping):
    """Read-only map from every degree of a box to the cohomology ranks there.

    It reads a degree's ranks from the engine that ranked every sign pattern of
    the box, so a lookup ranks no slice; iteration follows `box.degrees()`.
    """

    def __init__(self, box: DegreeBox, engine: _SliceEngine, nonzero_cells: list):
        self.box = box
        self._engine = engine
        # (per-coordinate ranges of a pattern, its ranks) for nonzero patterns
        self._nonzero_cells = nonzero_cells

    def __getitem__(self, deg) -> tuple[int, ...]:
        if not _is_degree(deg, len(self.box.lower)) or deg not in self.box:
            raise KeyError(deg)
        return self._engine.ranks(_sign_pattern(deg))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self.box.degrees()

    def __len__(self) -> int:
        """The box volume.  Python's len() raises OverflowError past sys.maxsize;
        `box.volume()` and `nonzero_count()` have no such limit."""
        return self.box.volume()

    def nonzero_count(self) -> int:
        """Number of degrees with a nonzero rank, from the pattern multiplicities."""
        return sum(prod(r.stop - r.start for r in cell) for cell, _ in self._nonzero_cells)

    def _listing(self) -> tuple[list[tuple[tuple[int, ...], int]], list[tuple[int, ...]]]:
        """The degrees with a nonzero rank as sorted (degree, k) pairs, and the ranks
        of each nonzero cell k, which the degree has."""
        _check_sweep(self.nonzero_count(), "nonzero degrees")
        pairs: list[tuple[tuple[int, ...], int]] = []
        for k, (cell, _) in enumerate(self._nonzero_cells):
            pairs += zip(product(*cell), repeat(k))
        pairs.sort()
        return pairs, [ranks for _, ranks in self._nonzero_cells]

    def nonzero(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Sorted (degree, ranks) pairs of the degrees with a nonzero rank."""
        pairs, cell_ranks = self._listing()
        return [(deg, cell_ranks[k]) for deg, k in pairs]


@dataclass(frozen=True)
class CechReport:
    field: FieldSpec
    generators: tuple[Monomial, ...]
    box: DegreeBox
    ranks: DegreeRanks
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
    per_coord = [_sign_ranges(lo, hi) for lo, hi in zip(box.lower, box.upper)]
    _check_sweep(prod(map(len, per_coord)), "sign patterns")
    engine = _SliceEngine(a, field, guard)
    nonzero_cells = []
    top = -1
    for cell, pat in zip(product(*per_coord), _cell_patterns(per_coord, repeat(0))):
        slice_ranks = engine.ranks(pat)
        if any(slice_ranks):
            nonzero_cells.append((cell, slice_ranks))
            top = max(top, max(i for i, r in enumerate(slice_ranks) if r))
    return CechReport(
        field=field,
        generators=engine.gens,
        box=box,
        ranks=DegreeRanks(box, engine, nonzero_cells),
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
    H^i(b) -> H^i(b + deg m) is extracted by exact linear algebra; the
    lexicographically first degree where it is nonzero is reported.  Degrees
    whose translate leaves the box are counted as coverage gaps.

    The map depends only on the sign patterns of b and b + deg(m).  If b <= b'
    have the same sign pattern, the map at b' factors as H^i(b') -> H^i(c) ->
    H^i(b' + deg m), with c between b' and b' + deg(m) and of the sign pattern
    of b + deg(m), so it is zero when the map at b is.  Hence one test at the
    smallest degree of each tuple of sign intervals decides the whole tuple,
    and that degree is the witness.
    """
    if m.ambient != a.ring.ambient or len(box.lower) != a.ring.ambient:
        raise InvalidInputError("monomial or box dimension mismatch")
    shift = m.exponents
    per_coord = [_sign_ranges(lo, hi - s) for lo, hi, s in zip(box.lower, box.upper, shift)]
    _check_sweep(prod(map(len, per_coord)), "interval tuples")
    engine = _SliceEngine(a, field, guard)
    widths = box.widths()
    in_range = [max(0, w - s) for w, s in zip(widths, shift)]
    walk = zip(product(*per_coord), _cell_patterns(per_coord, repeat(0)),
               _cell_patterns(per_coord, shift))
    for cell, pat, target in walk:
        if not _induced_map_is_zero(engine, pat, target, i):
            b = tuple(r[0] for r in cell)
            before = _lex_rank(b, box.lower, widths)
            checked_before = _lex_rank(b, box.lower, in_range)
            return AnnihilationVerdict(
                "acts-nonzero", b, checked_before + 1, before - checked_before
            )
    checked = prod(in_range)
    return AnnihilationVerdict("annihilates-in-box", None, checked, box.volume() - checked)


def _induced_map_is_zero(engine: _SliceEngine, pat1, pat2, i: int) -> bool:
    """Is H^i(slice 1) -> H^i(slice 2) zero?  Decided from two ranks.

    The map is zero when H^i of slice 1 is 0, and then slice 2 is not ranked;
    otherwise it is zero when H^i of slice 2 is 0.

    Multiplication f sends the member sigma of slice 1 to the same sigma of
    slice 2 when slice 2 holds it, and to zero otherwise.  The cone matrix
    (z, w) -> (d_i z, f z + d' w), with d' = d'_{i-1} of slice 2, has a kernel
    that projects onto {z a cycle : f z a boundary}, with fibre ker d'.  That
    space has dimension dim ker d_i - rank H^i(f), so the cone's rank is
    rank d_i + rank d' + rank H^i(f).  `_coboundary` writes d_i on the
    `members` of slice 1 and d' on those of slice 2.  The rows of d_i come
    after the shift = len(members2[i]) rows of slice 2, and `eliminate` pivots
    on the largest row, so the pivots at or past the shift number rank d_i:
    the map is zero iff the pivots below the shift number rank d'.
    """
    if i < 0 or i > engine.t:
        return True
    if engine.ranks(pat1)[i] == 0 or engine.ranks(pat2)[i] == 0:
        return True
    members1, members2 = engine.members(pat1), engine.members(pat2)
    to2, shift = {m: k for k, m in enumerate(members2[i])}, len(members2[i])
    d_i = _coboundary(members1, i) if i < engine.t else [()] * len(members1[i])
    boundary = _coboundary(members2, i - 1) if i > 0 else []
    cone = boundary + [
        (((to2[s], 1),) if s in to2 else ()) + tuple((r + shift, v) for r, v in col)
        for s, col in zip(members1[i], d_i)
    ]
    below = sum(1 for r in eliminate(cone, engine.field) if r < shift)
    return below == len(eliminate(boundary, engine.field))
