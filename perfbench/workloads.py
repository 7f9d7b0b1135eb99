"""Seeded corpora for the four benchmark workloads.

Every workload is a flat list of `Command`s built only from the seed.  The
program under test sees nothing but the argv of each command and the instance
files written here.  Instances are stratified: the sizes that drive the cost
(ambient dimension, generator counts, field) follow a fixed round-robin
schedule, and only the choice of variables and exponents is random.  That keeps
the total work of one pass nearly the same from seed to seed.  A run repeats
the whole list, so every corpus is sized to take a few seconds at the commit
that added the benchmark.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

FIELDS = ("Q", "Fp:2")


@dataclass
class Command:
    """One CLI invocation plus what the correctness gate needs to judge it."""

    argv: list[str]
    kind: str
    instance: int
    meta: dict = field(default_factory=dict)


@dataclass
class Instance:
    """A generated instance file, in the format `topann.cli.load_instance` reads."""

    names: list[str]
    J: list[dict[str, int]]
    a: list[dict[str, int]]
    field: str

    def to_json(self) -> str:
        return json.dumps(
            {"vars": self.names, "J": self.J, "a": self.a, "field": self.field},
            sort_keys=True,
        )


def _names(d: int) -> list[str]:
    return [f"x{i}" for i in range(1, d + 1)]


def _squarefree_ideal(rng: random.Random, names, ngens: int, sizes: tuple[int, int]):
    return [
        {v: 1 for v in rng.sample(names, rng.randint(*sizes))} for _ in range(ngens)
    ]


def _divides(g: dict[str, int], m: dict[str, int]) -> bool:
    return all(m.get(v, 0) >= e for v, e in g.items())


def _minimal(gens: list[dict[str, int]]) -> list[dict[str, int]]:
    """The divisibility antichain of `gens`, without duplicates."""
    uniq = {tuple(sorted(g.items())): g for g in gens}
    pool = list(uniq.values())
    return [g for g in pool if not any(h is not g and _divides(h, g) for h in pool)]


# ------------------------------------------------------------------- theory
#
# cd, ann-bounds and gamma on random (J, a).  J is a random squarefree ideal,
# a a random monomial ideal with exponents <= 2.  Hochster Betti tables of the
# image of a in each prime quotient dominate; nothing of the Cech oracle runs.

THEORY_DIMS = (8, 9, 10, 11)
THEORY_J_GENS = (1, 2, 3, 4)
THEORY_A_GENS = (5, 6, 7)
THEORY_A_SUPPORT = (2, 3)
THEORY_INSTANCES = 288  # six whole cycles of the d, |J|, |a| and field schedules


def _theory_instance(rng: random.Random, d: int, nj: int, na: int, fld: str) -> Instance:
    names = _names(d)
    while True:
        J = _minimal(_squarefree_ideal(rng, names, nj, (2, 4)))
        a = _minimal([
            {v: rng.randint(1, 2) for v in rng.sample(names, rng.randint(*THEORY_A_SUPPORT))}
            for _ in range(na)
        ])
        # the torsion report rejects an ideal that is zero in R = S/J
        if any(not any(_divides(j, g) for j in J) for g in a):
            return Instance(names, J, a, fld)


def theory(rng: random.Random):
    instances, commands = [], []
    for k in range(THEORY_INSTANCES):
        d = THEORY_DIMS[k % len(THEORY_DIMS)]
        nj = THEORY_J_GENS[k // len(THEORY_DIMS) % len(THEORY_J_GENS)]
        na = THEORY_A_GENS[k % len(THEORY_A_GENS)]
        fld = FIELDS[k // 2 % 2]
        inst = _theory_instance(rng, d, nj, na, fld)
        instances.append(inst)
        for cmd in ("cd", "ann-bounds", "gamma"):
            commands.append(Command(["--quiet", cmd, None], cmd, k))
    return instances, commands


# -------------------------------------------------------------------- lynch
#
# `lynch verify` on family tuples 3 <= d <= 14 under a random relabelling of
# the variables, both fixtures and one `lynch search --max-d 8`.  Monomial
# arithmetic at scale (J has |X||Y||Z| generators); Betti tables stay tiny.
# The labels move the cost of one tuple by up to a third, so every tuple is
# verified twice, once over each field and under labels of its own: the twice
# as many heavy commands keep op_ms.p90 from turning on a few draws.

LYNCH_DIMS = tuple(range(3, 15))
# (|Xp|, |Yp|) per copy of a size triple; c = |Xp| + |Yp| sets the width of
# the witness search, so it follows the schedule and the seed picks labels
LYNCH_ACTING = (lambda nx, ny: ((nx + 1) // 2, (ny + 1) // 2),
                lambda nx, ny: (nx, 1),
                lambda nx, ny: (1, ny),
                lambda nx, ny: (nx, ny))
# J has |X||Y||Z| generators.  Triples with more than the largest at d = 11
# (3·4·4) are left out: each takes 0.3-2 s, and together they took longer
# than the rest of the corpus
LYNCH_MAX_GENS = 48
LYNCH_ALL_ACTING_D = 8  # triples with d > this get only the first two copies


def _partitions3(d: int) -> list[tuple[int, int, int]]:
    """All (|X|, |Y|, |Z|) with 1 <= |X| <= |Y| <= |Z|, |X| + |Y| + |Z| = d and
    at most LYNCH_MAX_GENS generators |X||Y||Z| of J.

    Ordered lightest, heaviest, second lightest, ... by |X||Y||Z|, so that
    light and heavy triples alternate.
    """
    parts = sorted(
        ((nx, ny, d - nx - ny)
         for nx in range(1, d)
         for ny in range(nx, d)
         if d - nx - ny >= ny and nx * ny * (d - nx - ny) <= LYNCH_MAX_GENS),
        key=lambda s: (s[0] * s[1] * s[2], s),
    )
    return [parts[j // 2] if j % 2 == 0 else parts[-1 - j // 2] for j in range(len(parts))]


def _csv(xs) -> str:
    return ",".join(str(x) for x in sorted(xs))


def _spread(groups: list[list]) -> list:
    """Interleave the groups so that every stretch of the list holds each in proportion."""
    keyed = [
        ((j + 0.5) / len(g), gi, item)
        for gi, g in enumerate(groups)
        for j, item in enumerate(g)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


def lynch(rng: random.Random):
    groups = []
    for d in LYNCH_DIMS:
        acting = LYNCH_ACTING if d <= LYNCH_ALL_ACTING_D else LYNCH_ACTING[:2]
        groups.append([
            (d, (nx, ny, nz), act(nx, ny), fld)
            for nx, ny, nz in _partitions3(d)
            for act in acting
            for fld in FIELDS
        ])
    commands = []
    for k, (d, (nx, ny, nz), (nxp, nyp), fld) in enumerate(_spread(groups)):
        labels = rng.sample(range(1, d + 1), d)
        X, Y, Z = labels[:nx], labels[nx:nx + ny], labels[nx + ny:]
        argv = ["--quiet", "--field", fld, "lynch", "verify", "--d", str(d),
                "--X", _csv(X), "--Y", _csv(Y), "--Z", _csv(Z),
                "--Xp", _csv(X[:nxp]), "--Yp", _csv(Y[:nyp])]
        commands.append(Command(argv, "lynch", k, {"nx": nx, "nz": nz}))
    # the sweep first: its report is the largest, so it sets the peak memory
    l = rng.randint(7, 10)
    commands[:0] = [
        Command(["--quiet", "lynch", "search", "--max-d", "8"], "lynch-search", -1),
        Command(["--quiet", "lynch", "fixture", "singh-walther"], "lynch", -2,
                {"nx": 1, "nz": 2}),
    ]
    commands.insert(len(commands) // 2, Command(
        ["--quiet", "lynch", "fixture", "bahmanpour", "--d", str(l + rng.randint(0, 2)),
         "--l", str(l)], "lynch", -3, {"nx": 2, "nz": l - 4}))
    return [], commands


# ------------------------------------------------------------------- oracle
#
# `oracle ranks` then `oracle ann` at the top index the ranks report found.
# oracle-box: few radical generators and a wide box, so nearly every degree
# reuses a cached slice and the sweep itself dominates.  oracle-slices: many
# generators of degree 2-3 and the box -1:0, where every degree is its own sign
# pattern, so slice construction and rank dominate.  The cost of a slice
# instance grows with the cube of its slice dimensions and varies a hundredfold
# between random draws of one shape, so slice instances are drawn until their
# slice mass (the multiplications of the d∘d = 0 check summed over the box)
# falls in a fixed band; otherwise a handful of draws would decide a run.

# Peak memory follows the largest report, the nonzero slices of one instance.
# Their number is heavy tailed, so oracle-box starts with the largest report
# met in 150 random d = 7 draws (11,777 of 78,125 degrees nonzero), relabelled
# by the seed; the other instances have d = 6 and far smaller reports, so the
# peak does not turn on which outliers a seed draws.  (J, a) with variables
# numbered 1..7:
BOX_ANCHOR = ([(2, 3, 5), (3, 5, 7)],
              [{2: 2, 3: 1, 4: 2}, {2: 2, 5: 1}, {4: 1, 6: 1, 7: 1}, {1: 1, 6: 1, 7: 2}])

ORACLE = {
    "oracle-box": dict(dims=(6,), radical_gens=(3, 4, 5), gen_sizes=(1, 3),
                       j_gens=(2, 4), j_sizes=(2, 4), box=(-3, 1), instances=50,
                       anchor=BOX_ANCHOR),
    "oracle-slices": dict(dims=(6, 7), radical_gens=(7, 8, 9), gen_sizes=(2, 3),
                          j_gens=(1, 2), j_sizes=(3, 5), box=(-1, 0), instances=150,
                          mass_band=(120_000, 360_000)),
}


def _mask(names, gen) -> int:
    return sum(1 << names.index(v) for v in gen)


def _minimal_primes(names, J) -> list[int]:
    """Minimal vertex covers of the supports of J as bitmasks, by brute force."""
    jm = [_mask(names, g) for g in J]
    covers = [m for m in range(1 << len(names)) if all(m & j for j in jm)]
    return [m for m in covers if not any(o != m and o & m == o for o in covers)]


def _slice_mass(names, J, a, cap: int) -> int:
    """Sum over the degrees of the box -1:0 of dims[i+2]·dims[i+1]·dims[i].

    In that box a degree is its negative support N and the slice basis in
    cohomological degree i is the i-subsets s of the radical generators whose
    support union W_s contains N and is a face of J.  dims are counted for all
    N at once with a superset-sum transform over the d variable bits.  Once
    the term of N = {} alone exceeds `cap`, that partial sum is returned.
    """
    d = len(names)
    gm = [_mask(names, g) for g in _minimal([{v: 1 for v in g} for g in a])]
    jm = [_mask(names, g) for g in J]
    t = len(gm)
    count = [[0] * (1 << d) for _ in range(t + 1)]
    W = [0] * (1 << t)
    for s in range(1 << t):
        if s:
            W[s] = w = W[s & (s - 1)] | gm[(s & -s).bit_length() - 1]
        else:
            w = 0
        if all(j & ~w for j in jm):
            count[bin(s).count("1")][w] += 1
    full = [sum(c) for c in count]  # the dims at N = {}
    partial = sum(full[i] * full[i + 1] * full[i + 2] for i in range(t - 1))
    if partial > cap:
        return partial
    for c in count:
        for b in range(d):
            bit = 1 << b
            c[:] = [x if m & bit else x + c[m | bit] for m, x in enumerate(c)]
    return sum(
        sum(x * y * z for x, y, z in zip(count[i], count[i + 1], count[i + 2]))
        for i in range(t - 1)
    )


def _antichain_supports(rng: random.Random, names, t: int, sizes) -> list[list[str]]:
    """t random variable sets of the given sizes, none inside another."""
    while True:
        chosen: list[set[str]] = []
        for _ in range(50 * t):
            s = set(rng.sample(names, rng.randint(*sizes)))
            if not any(s <= c or c <= s for c in chosen):
                chosen.append(s)
                if len(chosen) == t:
                    return [sorted(c) for c in chosen]


def _oracle_instance(rng: random.Random, d: int, t: int, spec: dict, fld: str) -> Instance:
    names = _names(d)
    while True:
        J = _minimal(_squarefree_ideal(rng, names, rng.randint(*spec["j_gens"]),
                                       spec["j_sizes"]))
        # supports form an antichain, so radical(a) has exactly t generators
        a = [{v: rng.randint(1, 2) for v in sup}
             for sup in _antichain_supports(rng, names, t, spec["gen_sizes"])]
        if all(any(_divides(j, g) for j in J) for g in a):
            continue
        band = spec.get("mass_band")
        if band is None or band[0] <= _slice_mass(names, J, a, band[1]) <= band[1]:
            return Instance(names, J, a, fld)


def oracle(rng: random.Random, spec: dict):
    instances, commands = [], []
    dims, gens = spec["dims"], spec["radical_gens"]
    box = "--box={}:{}".format(*spec["box"])
    for k in range(spec["instances"]):
        if k == 0 and "anchor" in spec:
            J, a = spec["anchor"]
            names = rng.sample(_names(7), 7)
            inst = Instance(sorted(names, key=lambda v: int(v[1:])),
                            [{names[i - 1]: 1 for i in g} for g in J],
                            [{names[i - 1]: e for i, e in g.items()} for g in a], FIELDS[0])
        else:
            if "mass_band" in spec:
                d, t = rng.choice(dims), rng.choice(gens)
            else:
                d, t = dims[k % len(dims)], gens[k // len(dims) % len(gens)]
            inst = _oracle_instance(rng, d, t, spec, FIELDS[k % 2])
        instances.append(inst)
        d = len(inst.names)
        # one variable from every minimal prime of J: the product lies in each
        # of them, hence in the certified lower bound of ann H^c, so it must
        # annihilate H^c wherever the box sees it
        hit = 0
        for p in _minimal_primes(inst.names, inst.J):
            hit |= 1 << rng.choice([i for i in range(d) if p >> i & 1])
        mono = "*".join(v for i, v in enumerate(inst.names) if hit >> i & 1)
        commands.append(Command(["--quiet", "oracle", "ranks", None, box], "ranks", k))
        commands.append(Command(
            ["--quiet", "oracle", "ann", None, "--monomial", mono, None, box], "ann", k))
    return instances, commands


WORKLOADS = ("theory", "lynch", "oracle-box", "oracle-slices")


def generate(workload: str, seed: int, workdir: str):
    """Build the corpus for one workload and write its instance files.

    Returns (instances, commands, paths): argv slots left as None are filled
    with the instance path here; the `oracle ann` index slot is filled at run
    time from the preceding `oracle ranks` report.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "theory":
        instances, commands = theory(rng)
    elif workload == "lynch":
        instances, commands = lynch(rng)
    else:
        instances, commands = oracle(rng, ORACLE[workload])
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for k, inst in enumerate(instances):
        path = os.path.join(workdir, f"{workload}-{k:03d}.json")
        with open(path, "w") as fh:
            fh.write(inst.to_json())
        paths.append(path)
    for cmd in commands:
        if paths:
            slot = cmd.argv.index(None)
            cmd.argv[slot] = paths[cmd.instance]
    return instances, commands, paths
