"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of the eight topann layers with
a timing wrapper, in every topann module namespace that binds it (so
`cohomdim.homology_ranks_of_faces` and `linalg.homology_ranks_of_faces` are the
same wrapper), and wraps `__post_init__` of the public dataclasses that check
their input, which is where `VectorSpaceComplex` runs its d∘d = 0 check.
Spans are kept in memory as parallel arrays with a parent link; self time is a
span's duration minus the durations of its direct children (calls are nested,
one thread).  A few probes record work counts at the same boundaries.
`uninstall` puts every original back.
"""
from __future__ import annotations

import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "lynch", "annihilator", "cech", "cohomdim", "stanley_reisner",
          "monomial", "linalg")
INIT_CLASSES = {"linalg": ("VectorSpaceComplex",), "stanley_reisner": ("QuotientRing",),
                "monomial": ("MonomialIdeal",)}
REPORT_DICTS = ("cli.cd_report_dict", "cli.ann_report_dict", "cli.lynch_report_dict",
                "cli.cech_report_dict", "cli.annihilation_dict")


def _nonzero(rows) -> int:
    return sum(1 for row in rows for x in row if x)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.count: dict[str, float] = defaultdict(float)
        self.peak: dict[str, int] = defaultdict(int)
        self._betti_seen: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _parent_name(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def begin_command(self) -> None:
        self._betti_seen = set()

    # ----------------------------------------------------------- probes
    def _before(self, name: str, args: tuple) -> tuple:
        """Record counts that need the arguments; may materialise an iterable."""
        if name == "monomial.minimalize":
            gens = list(args[0])
            self.count["minimalize.gens_in"] += len(gens)
            if self._parent_name() == "monomial.intersect":
                self.count["intersect.lcm_products"] += len(gens)
            return (gens, *args[1:])
        if name.startswith("linalg.rank"):
            rows = args[0]
            if rows and rows[0]:
                nr, nc = len(rows), len(rows[0])
                self.count["rank.cells"] += nr * nc
                self.count["rank.nonzero"] += _nonzero(rows)
                self.peak["rank.max_rows"] = max(self.peak["rank.max_rows"], nr)
                self.peak["rank.max_cols"] = max(self.peak["rank.max_cols"], nc)
        elif name == "cohomdim.betti_numbers":
            key = (args[0], args[1])
            if key in self._betti_seen:
                self.count["betti.repeats"] += 1
            self._betti_seen.add(key)
            self.peak["betti.max_ambient"] = max(self.peak["betti.max_ambient"],
                                                 args[0].ambient)
        return args

    def _after(self, name: str, args: tuple, result) -> None:
        if name == "monomial.minimalize":
            self.count["minimalize.gens_out"] += len(result.gens)
        elif name == "cohomdim.betti_numbers":
            self.count["betti.nonzero_degrees"] += len({s for _, s, _ in result.entries})
        elif name == "cech.cech_ranks":
            self.count["cech.degrees_swept"] += len(result.ranks)
            self.count["cech.slice_requests"] += len(result.ranks)
            self.peak["cech.generators"] = max(self.peak["cech.generators"],
                                               len(result.generators))
        elif name == "cech.annihilation_check":
            # gap degrees need no slice; a checked one needs b and b + deg m
            self.count["cech.degrees_swept"] += result.degrees_checked + result.coverage_gaps
            self.count["cech.slice_requests"] += 2 * result.degrees_checked
        elif name == "linalg.VectorSpaceComplex.init":
            dims = args[0].dims
            self.count["complex.mults"] += sum(
                dims[i + 2] * dims[i + 1] * dims[i] for i in range(len(dims) - 2)
            )
            if any(self.names[s].startswith("cech.") for s in self.stack):
                self.count["cech.slices_built"] += 1
                self.peak["cech.max_slice_dim"] = max(self.peak["cech.max_slice_dim"],
                                                      max(dims))

    # --------------------------------------------------------- wrapping
    def _wrap(self, fn, name: str):
        tracer = self
        if name == "linalg.rank":
            def span_name(args):
                return "linalg.rank.Q" if args[1].is_rationals() else "linalg.rank.Fp"
        else:
            def span_name(args):
                return name

        def traced(*args, **kwargs):
            label = span_name(args)
            args = tracer._before(label, args)
            idx = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._after(label, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module("topann")] + [
            importlib.import_module(f"topann.{m}") for m in (*LAYERS, "errors")
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"topann.{layer}")
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__):
                    continue
                wrappers[id(value)] = self._wrap(value, f"{layer}.{attr}")
            for cls_name in INIT_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                original = cls.__dict__["__post_init__"]
                self._undo.append((cls, "__post_init__", original))
                setattr(cls, "__post_init__", self._wrap(original, f"{layer}.{cls_name}.init"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---------------------------------------------------------- metrics
    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in range(n):
            dur = self.end[i] - self.start[i]
            s = stats[self.names[i]]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
        return stats

    def child_counts(self) -> dict[tuple[str, str], int]:
        """Number of spans per (parent name, child name)."""
        out: dict[tuple[str, str], int] = defaultdict(int)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[(self.names[p], self.names[i])] += 1
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, from spans and probes."""
        st = self.aggregate()
        kids = self.child_counts()
        c, pk = self.count, self.peak

        def get(name, key):
            return st[name][key] if name in st else 0

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "cli.load_instance.total_s": get("cli.load_instance", "total_s"),
            "cli.report_dict.total_s": sum(get(n, "total_s") for n in REPORT_DICTS),
            "cli.output_bytes": c["cli.output_bytes"],
            "lynch.verify_instance.self_s": get("lynch.verify_instance", "self_s"),
            "lynch.build_instance.total_s": get("lynch.build_instance", "total_s"),
            "annihilator.annihilator_bounds.self_s":
                get("annihilator.annihilator_bounds", "self_s"),
            "annihilator.witness_candidates":
                kids[("annihilator.annihilator_bounds", "cohomdim.cd_on_prime")],
            "annihilator.torsion_ideal.total_s": get("annihilator.torsion_ideal", "total_s"),
            "annihilator.height_report.total_s": get("annihilator.height_report", "total_s"),
            "cohomdim.cd_on_prime.calls": get("cohomdim.cd_on_prime", "calls"),
            "cohomdim.betti_numbers.calls": get("cohomdim.betti_numbers", "calls"),
            "cohomdim.betti_numbers.self_s": get("cohomdim.betti_numbers", "self_s"),
            "cohomdim.betti_numbers.repeat_ratio":
                ratio(c["betti.repeats"], get("cohomdim.betti_numbers", "calls")),
            "cohomdim.betti_degrees_visited":
                kids[("cohomdim.betti_numbers", "linalg.homology_ranks_of_faces")],
            "cohomdim.max_ambient": pk["betti.max_ambient"],
            "stanley_reisner.minimal_primes.calls":
                get("stanley_reisner.minimal_primes", "calls"),
            "stanley_reisner.minimal_primes.self_s":
                get("stanley_reisner.minimal_primes", "self_s"),
            "stanley_reisner.QuotientRing.init_s":
                get("stanley_reisner.QuotientRing.init", "total_s"),
            "stanley_reisner.height_in_quotient.total_s":
                get("stanley_reisner.height_in_quotient", "total_s"),
            "monomial.minimalize.calls": get("monomial.minimalize", "calls"),
            "monomial.minimalize.self_s": get("monomial.minimalize", "self_s"),
            "monomial.minimalize.gens_in": c["minimalize.gens_in"],
            "monomial.minimalize.kept_ratio":
                ratio(c["minimalize.gens_out"], c["minimalize.gens_in"]),
            "monomial.intersect.lcm_products": c["intersect.lcm_products"],
            "monomial.saturate_by_ideal.rounds":
                kids[("monomial.saturate_by_ideal", "monomial.colon_by_ideal")],
            "monomial.MonomialIdeal.init_s": get("monomial.MonomialIdeal.init", "total_s"),
            "linalg.rank.calls.Q": get("linalg.rank.Q", "calls"),
            "linalg.rank.calls.Fp": get("linalg.rank.Fp", "calls"),
            "linalg.rank.self_s.Q": get("linalg.rank.Q", "self_s"),
            "linalg.rank.self_s.Fp": get("linalg.rank.Fp", "self_s"),
            "linalg.rank.cells": c["rank.cells"],
            "linalg.rank.max_rows": pk["rank.max_rows"],
            "linalg.rank.max_cols": pk["rank.max_cols"],
            "linalg.rank.nonzero_share": ratio(c["rank.nonzero"], c["rank.cells"]),
            "linalg.homology_ranks_of_faces.self_s":
                get("linalg.homology_ranks_of_faces", "self_s"),
            "linalg.complex_check_s": get("linalg.VectorSpaceComplex.init", "total_s"),
            "linalg.complex_check_mults": c["complex.mults"],
            "linalg.kernel_basis.self_s": get("linalg.kernel_basis", "self_s"),
            "cech.cech_ranks.self_s": get("cech.cech_ranks", "self_s"),
            "cech.annihilation_check.self_s": get("cech.annihilation_check", "self_s"),
            "cech.degrees_swept": c["cech.degrees_swept"],
            "cech.slices_built": c["cech.slices_built"],
            "cech.slice_requests": c["cech.slice_requests"],
            "cech.slice_reuse_ratio":
                1 - ratio(c["cech.slices_built"], c["cech.slice_requests"])
                if c["cech.slice_requests"] else 0.0,
            "cech.max_slice_dim": pk["cech.max_slice_dim"],
            "cech.generators": pk["cech.generators"],
            "trace.spans": len(self.names),
        }
        m["cohomdim.betti_useful_ratio"] = ratio(c["betti.nonzero_degrees"],
                                                 m["cohomdim.betti_degrees_visited"])
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = sum(
                s["self_s"] for name, s in st.items() if name.split(".")[0] == layer
            )
        return m
