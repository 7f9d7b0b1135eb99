"""Independent brute-force oracles used to freeze expected values.

Everything here derives answers from first principles (membership scans over
degree boxes, full subset enumeration, Koszul homology) and never calls the
code paths it is checking.  The Cech sweeps reuse the slice engine and visit
every degree of a box: they are the reference for the pattern sweep of
`topann.cech`, which they check.
"""
from __future__ import annotations

from itertools import combinations, product

from topann.cech import CECH_GUARD_DEFAULT, _induced_map_is_zero, _sign_pattern, _SliceEngine
from topann.cohomdim import cd_on_prime
from topann.linalg import FieldSpec, rank
from topann.monomial import Monomial, MonomialIdeal, minimalize


def box_monomials(d: int, max_exp: int):
    for exps in product(range(max_exp + 1), repeat=d):
        yield Monomial(exps)


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


def brute_radical_member(f, I) -> bool:
    kmax = max((max(g.exponents) for g in I.gens), default=1)
    return member(f.power(kmax), I.gens)


def brute_power_member(f, I, n) -> bool:
    """f in I^n iff some n-fold product of generators divides f, by recursion."""
    def descend(current: Monomial, k: int) -> bool:
        if k == 0:
            return True
        return any(
            g.divides(current) and descend(current.quotient_clipped(g), k - 1)
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


def koszul_tor_table(ideal: MonomialIdeal, field: FieldSpec):
    """Graded Betti numbers of S/I as Koszul homology, a route independent of
    Hochster's formula: tensor the Koszul complex on all variables with S/I and
    take ranks in each squarefree multidegree."""
    d = ideal.ambient
    table = {}
    for smask in range(1 << d):
        sigma = frozenset(i + 1 for i in range(d) if smask >> i & 1)
        bases = []
        for i in range(len(sigma) + 1):
            basis = []
            for tau in combinations(sorted(sigma), i):
                rest = Monomial.from_support(sigma - set(tau), d)
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
            boundary_rank[i] = rank(mat, field)
        for i in range(len(sigma) + 1):
            h = len(bases[i]) - boundary_rank.get(i, 0) - boundary_rank.get(i + 1, 0)
            if h:
                table[(i, sigma)] = h
    return table


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
        gens.append(Monomial.from_support(rng.sample(range(1, d + 1), size), d))
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
