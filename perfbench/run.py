"""topann benchmark: four CLI workloads, end-to-end and per-layer metrics.

One client, one thread, closed loop: `topann.cli.main(argv)` is called in
process, and the next command is issued only after the previous one returns,
which is how topann is used (a one-shot CLI and a library).  Each invocation
runs one workload in its own process, so its peak resident memory is its own.

    python3 perfbench/run.py --workload theory --seed 1 --seconds 30 --trace 0

--trace 0 sets up the corpus several times (setup_s is the median), then
issues the whole corpus in order, and again, until --seconds have passed, and
prints the end-to-end metrics over the corpus's commands, each at its median
time over the passes.  Times are wall times scaled to a quiet machine by
`Speedometer`.  --trace 1 runs a fixed prefix of the corpus
twice, untraced and then traced, and prints the per-layer metrics and the
tracing overhead; the prefix is fixed so that every work count repeats exactly
at a given seed.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

    python3 perfbench/run.py --workload all [--seed 1] [--seconds 30] [--out F]

runs every workload in both modes, each in a child process, prints every
metric by name with its unit, and with --out writes them, with the Python
version, CPU count and CPU model, to F.  `--record-digests` rewrites
digests.json from one pass of every workload at the recorded seed.

The program is imported from `src/` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
REFERENCE_KERNEL_S = 0.0028  # `_kernel` on a quiet machine of the baseline's kind
# commands in the traced prefix, sized to run a few seconds untraced
TRACE_COMMANDS = {"theory": 240, "lynch": 40, "oracle-box": 24, "oracle-slices": 60}


_KERNEL_RNG = random.Random(2208)
_KERNEL_KEYS = [_KERNEL_RNG.getrandbits(40) for _ in range(12000)]
_KERNEL_TUPLES = [tuple(_KERNEL_RNG.randrange(5) for _ in range(6)) for _ in range(1200)]
_KERNEL_MATRIX = [[_KERNEL_RNG.randrange(-2, 3) for _ in range(22)] for _ in range(22)]


def _kernel() -> int:
    """Fixed work of the three kinds topann does most: hashing into a large
    dict, sorting small tuples, and elimination mod p.  It lives in the
    benchmark's own code, so that no change to topann changes its time.

    Timed alongside topann commands of every workload while the machine's
    speed swung by 2x, the commands slowed by this mix's slowdown to the power
    1.07-1.16.  A tight tuple loop alone slowed more than they did (power
    0.73-0.79), which overcorrected every time taken on a slow machine.
    """
    index = {k: i for i, k in enumerate(_KERNEL_KEYS)}
    total = sum(index[k] for k in _KERNEL_KEYS[::3]) + len(set(sorted(_KERNEL_TUPLES)))
    p = 32003
    rows = [[x % p for x in row] for row in _KERNEL_MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return total + rank


class Speedometer:
    """How fast the machine runs Python right now, from a kernel timed between commands.

    The shared machines this runs on change speed by up to a factor of two
    from one stretch of seconds to the next, which swamps the run-to-run
    signal.
    Every end-to-end time is scaled by REFERENCE_KERNEL_S over the median
    kernel time within WINDOW_S of it (one timing every EVERY_S), so it reads
    as on that machine when quiet.  A change to topann cannot change the kernel, so it still moves
    every time in full.  Per-layer span times are not scaled.
    """

    EVERY_S = 0.1
    WINDOW_S = 1.0

    def __init__(self):
        self.stamps: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.stamps or now - self.stamps[-1] >= self.EVERY_S:
            t0 = time.perf_counter()
            _kernel()
            self.stamps.append(now)
            self.kernel_s.append(time.perf_counter() - t0)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in quiet-machine seconds."""
        lo = bisect.bisect_left(self.stamps, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + self.WINDOW_S)
        if hi - lo < 5:
            mid = bisect.bisect_left(self.stamps, (t0 + t1) / 2)
            lo, hi = max(0, mid - 3), min(len(self.stamps), mid + 3)
        return (t1 - t0) * REFERENCE_KERNEL_S / statistics.median(self.kernel_s[lo:hi])


class SetupError(Exception):
    """The checkout holds no program to benchmark."""


def import_program():
    """Import topann from the checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "topann", "cli.py")):
        raise SetupError(f"no topann sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "topann" or m.startswith("topann.")]:
        del sys.modules[name]
    cli = importlib.import_module("topann.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"topann was imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: str, speed: Speedometer):
    """Import the program and write the seeded corpus, SETUP_REPEATS times.

    Returns the program, the corpus and setup_s, the median scaled time of a try.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        for _ in range(3):
            speed.sample(force=True)
        t0 = time.perf_counter()
        cli = import_program()
        corpus = workloads.generate(workload, seed, workdir)
        t1 = time.perf_counter()
        for _ in range(3):
            speed.sample(force=True)
        times.append((t0, t1))
    return cli, corpus, statistics.median(speed.scaled(t0, t1) for t0, t1 in times)


class Client:
    """The closed-loop client: one command at a time, each judged by the gate."""

    def __init__(self, cli, corpus, digests, speed: Speedometer,
                 tracer: Tracer | None = None):
        self.cli = cli
        instances, self.commands, paths = corpus
        self.gate = check.Gate(instances, paths, digests)
        self.speed = speed
        self.tracer = tracer
        self.spans: list[tuple[float, float]] = []
        self.failed = 0

    def run(self, position: int) -> str:
        """Issue one command and judge it; returns its standard output."""
        cmd = self.commands[position % len(self.commands)]
        argv = self.gate.index_argv(cmd)
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.begin_command()
        self.speed.sample()
        main = self.cli.main  # looked up per call, so a traced main is used
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            except Exception as exc:  # a traceback is a failed command, not a crash
                code = f"raised {exc!r}"
            t1 = time.perf_counter()
        self.spans.append((t0, t1))
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.count["cli.output_bytes"] += len(text.encode())
        if not self.gate.judge(position, cmd, code, text):
            self.failed += 1
            print(f"FAILED {' '.join(map(str, argv))}: exit {code} {err.getvalue().strip()}",
                  file=sys.stderr)
        return text

    def settle(self) -> None:
        self.failed += self.gate.settle(self.cli.main)

    @property
    def attempted(self) -> int:
        return len(self.spans)

    def latencies(self) -> list[float]:
        """Each command's wall time, scaled to a quiet machine."""
        self.speed.sample(force=True)
        return [self.speed.scaled(t0, t1) for t0, t1 in self.spans]

    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latencies())


def _percentile_ms(values: list[float], q: int) -> float:
    """q-th percentile in ms (Python's exclusive-method quantiles, 100 cuts)."""
    if len(values) < 2:
        return max(values) * 1000
    return statistics.quantiles(values, n=100)[q - 1] * 1000


def measure(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    speed = Speedometer()
    cli, corpus, setup_s = set_up(workload, seed, workdir, speed)
    client = Client(cli, corpus, check.load_digests(workload, seed), speed)
    n = len(client.commands)
    deadline = time.perf_counter() + seconds
    position = 0
    # a run always covers the whole corpus, so every run measures the same
    # commands however fast the machine is; the time left repeats it
    while position < n or time.perf_counter() < deadline:
        client.run(position)
        position += 1
    lat = client.latencies()
    client.settle()
    # each command at its median over the passes: scaling errs both ways, so
    # the best of the passes would pick the largest error
    typical = [statistics.median(lat[k::n]) for k in range(n)]
    raw = [t1 - t0 for t0, t1 in client.spans]
    print(f"{workload}: {client.attempted} commands, {position / n:.2f} passes over "
          f"the corpus of {n}; unscaled {len(raw) / sum(raw):.4g} ops/s, "
          f"p50 {statistics.median(raw) * 1000:.4g} ms; "
          f"kernel median {statistics.median(speed.kernel_s) * 1e3:.4g} ms",
          file=sys.stderr)
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(typical),
        "op_ms.p50": statistics.median(typical) * 1000,
        "op_ms.p90": _percentile_ms(typical, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (client.attempted - client.failed) / client.attempted,
    }
    return result(client.attempted, client.failed, values, "end_to_end")


def measure_traced(workload: str, seed: int, workdir: str) -> dict:
    speed = Speedometer()
    cli, corpus, _ = set_up(workload, seed, workdir, speed)
    digests = check.load_digests(workload, seed)
    count = min(TRACE_COMMANDS[workload], len(corpus[1]))
    plain = Client(cli, corpus, digests, speed)
    for position in range(count):
        plain.run(position)
    plain.settle()
    tracer = Tracer()
    traced = Client(cli, corpus, digests, speed, tracer)
    tracer.install()
    try:
        for position in range(count):
            traced.run(position)
    finally:
        tracer.uninstall()
    traced.settle()
    values = tracer.metrics()
    values["trace.commands"] = count
    values["trace.ops_per_s"] = traced.ops_per_s()
    values["trace.untraced_ops_per_s"] = plain.ops_per_s()
    values["trace.overhead_ratio"] = plain.ops_per_s() / traced.ops_per_s()
    return result(plain.attempted + traced.attempted, plain.failed + traced.failed,
                  values, "per_layer")


def result(attempted: int, failed: int, values: dict, section: str) -> dict:
    """The result line, with the units BENCHMARK.json declares for `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on "
                           f"{sorted(set(units) ^ set(values))}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def record_digests(workdir: str) -> None:
    """One full pass of every workload at DEFAULT_SEED, digests in corpus order."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        cli = import_program()
        corpus = workloads.generate(workload, DEFAULT_SEED, workdir)
        client = Client(cli, corpus, None, Speedometer())
        digests = [check.digest(client.run(position))
                   for position in range(len(client.commands))]
        client.settle()
        if client.failed:
            raise SystemExit(f"{workload}: {client.failed} commands failed; digests not written")
        out["workloads"][workload] = digests
        print(f"{workload}: {len(digests)} digests", file=sys.stderr)
    with open(check.DIGEST_FILE, "w") as fh:
        fh.write(json.dumps(out).replace('], "', '],\n "') + "\n")


def machine() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "platform": platform.platform()}


def run_all(seed: int, seconds: int, out_path: str | None) -> int:
    """Every workload in both modes, each in its own child process."""
    report = {"machine": machine(), "seed": seed, "seconds": seconds, "results": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            report["results"][f"{workload}/trace{trace}"] = res
            print(f"== {workload} (trace {trace}): attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}")
            for name, m in res["metrics"].items():
                print(f"   {name:42s} {m['value']:>16.6g} {m['unit']}")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the results here")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    try:
        if args.record_digests:
            record_digests(workdir)
            return 0
        if args.workload == "all":
            return run_all(args.seed, int(args.seconds), args.out)
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            res = measure_traced(args.workload, args.seed, workdir)
        else:
            res = measure(args.workload, args.seed, args.seconds, workdir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
