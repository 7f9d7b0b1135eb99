"""Correctness gate: every command's canonical JSON report is judged.

Two layers of checks:

* at the recorded seed, the report must match, byte for byte, the SHA-256
  digest recorded for that position of the corpus (`digests.json`);
* at any seed, invariants that hold by the mathematics:
  - theory: `cd` and `ann-bounds` agree on c; lower is inside upper whenever
    upper exists; the `gamma` torsion lift contains J;
  - lynch: every claim passes, and `violated` is exactly |Z| > |X|;
  - oracle: `top_nonvanishing` <= cd, with cd computed after the timed pass;
    the monomial `oracle ann` tests lies in the certified lower bound of the
    annihilator, so it must annihilate H^c in the box whenever the box sees
    H^c (top_nonvanishing == cd).

Any miss makes the command count as failed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests(workload: str, seed: int) -> list[str] | None:
    """Recorded digests for this workload, or None when `seed` is not the recorded one."""
    try:
        with open(DIGEST_FILE) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    if data.get("seed") != seed:
        return None
    return data["workloads"].get(workload)


def _divides(g: dict, m: dict) -> bool:
    return all(m.get(v, 0) >= e for v, e in g.items())


def _inside(small: list[dict], big: list[dict]) -> bool:
    """Is the monomial ideal generated by `small` contained in that of `big`?"""
    return all(any(_divides(g, m) for g in big) for m in small)


class Gate:
    """Judges one workload's commands; keeps the per-instance state checks need."""

    def __init__(self, instances, paths, digests: list[str] | None):
        self.instances = instances
        self.paths = paths
        self.digests = digests
        self.cd_seen: dict[int, int] = {}
        self.tops: dict[int, int] = {}
        self.oracle_pending: list[tuple[int, int, str | None]] = []

    def index_argv(self, cmd) -> list[str]:
        """argv with the `oracle ann` index slot filled from the last ranks report."""
        if None not in cmd.argv:
            return cmd.argv
        argv = list(cmd.argv)
        argv[argv.index(None)] = f"--i={self.tops.get(cmd.instance, 0)}"
        return argv

    def judge(self, position: int, cmd, code, out: str) -> bool:
        """True if the command exited 0 and its report passes every check."""
        if code != 0:
            return False
        if self.digests is not None and digest(out) != self.digests[position % len(self.digests)]:
            return False
        try:
            doc = json.loads(out)
            return getattr(self, "_" + cmd.kind.replace("-", "_"))(cmd, doc)
        except (ValueError, KeyError, TypeError):  # not JSON, or not the report's shape
            return False

    # theory ----------------------------------------------------------------
    def _cd(self, cmd, doc) -> bool:
        self.cd_seen[cmd.instance] = doc["c"]
        return doc["report"] == "cd"

    def _ann_bounds(self, cmd, doc) -> bool:
        c = self.cd_seen.get(cmd.instance)
        if c is not None and doc["c"] != c:
            return False
        return doc["upper"] is None or _inside(doc["lower"], doc["upper"])

    def _gamma(self, cmd, doc) -> bool:
        return _inside(self.instances[cmd.instance].J, doc["torsion_lift"])

    # lynch -----------------------------------------------------------------
    def _lynch(self, cmd, doc) -> bool:
        return doc["all_claims_pass"] is True and doc["violated"] == (
            cmd.meta["nz"] > cmd.meta["nx"]
        )

    def _lynch_search(self, cmd, doc) -> bool:
        return (
            doc["all_claims_pass"] is True
            and doc["instances"] == len(doc["reports"]) > 0
            and all(
                r["violated"] == (len(r["params"]["Z"]) > len(r["params"]["X"]))
                for r in doc["reports"]
            )
        )

    # oracle ----------------------------------------------------------------
    def _ranks(self, cmd, doc) -> bool:
        self.tops[cmd.instance] = doc["top_nonvanishing"]
        self.oracle_pending.append((cmd.instance, doc["top_nonvanishing"], None))
        return True

    def _ann(self, cmd, doc) -> bool:
        top = self.tops.get(cmd.instance)
        if top is None or doc["index"] != top:
            return False
        self.oracle_pending.append((cmd.instance, top, doc["verdict"]))
        return doc["verdict"] in ("annihilates-in-box", "acts-nonzero")

    def settle(self, main) -> int:
        """Checks deferred past the timed pass; returns how many commands fail them.

        cd comes from the `cd` command of the same program, run untimed.
        """
        cds: dict[int, int | None] = {}
        failed = 0
        for instance, top, verdict in self.oracle_pending:
            if instance not in cds:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(["--quiet", "cd", self.paths[instance]])
                cds[instance] = json.loads(buf.getvalue())["c"] if code == 0 else None
            cd = cds[instance]
            if cd is None or top > cd or (verdict is not None and top == cd
                                          and verdict != "annihilates-in-box"):
                failed += 1
        self.oracle_pending.clear()
        return failed
