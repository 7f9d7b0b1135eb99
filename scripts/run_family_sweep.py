#!/usr/bin/env python3
"""Sweep the counterexample family and tabulate gaps.

Usage:
    python scripts/run_family_sweep.py [--max-d 6] [--field Q] [--json out.json]
"""
from __future__ import annotations

import argparse
import json

from topann.cli import lynch_report_dict
from topann.linalg import FieldSpec
from topann.lynch import SEARCH_GUARD_DEFAULT, search_family


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=6)
    parser.add_argument("--field", default="Q")
    parser.add_argument("--guard", type=int, default=SEARCH_GUARD_DEFAULT)
    parser.add_argument("--json", default=None, help="also dump all reports to this file")
    args = parser.parse_args()

    field = FieldSpec.parse(args.field)
    reports = search_family(args.max_d, field, guard=args.guard)

    header = f"{'d':>2} {'|X|':>3} {'|Y|':>3} {'|Z|':>3} {'|Xp|':>4} {'|Yp|':>4} {'c':>2} " \
             f"{'dim R/G':>7} {'dim R/ann':>9} {'gap':>3} {'violated':>8} {'claims':>6}"
    print(header)
    print("-" * len(header))
    for rep in reports:
        inst = rep.instance
        print(
            f"{inst.d:>2} {len(inst.X):>3} {len(inst.Y):>3} {len(inst.Z):>3} "
            f"{len(inst.Xp):>4} {len(inst.Yp):>4} {rep.c:>2} "
            f"{rep.dim_modulo_torsion:>7} {rep.dim_modulo_annihilator:>9} {rep.gap:>3} "
            f"{str(rep.conjecture_violated):>8} "
            f"{'all ok' if rep.all_claims_pass() else 'FAIL':>6}"
        )
    violated = sum(1 for r in reports if r.conjecture_violated)
    print(f"\n{len(reports)} instances, {violated} violate the conjecture "
          f"(exactly the instances with |Z| > |X|).")

    if args.json:
        docs = []
        for rep in reports:
            names = [f"u{i}" for i in range(1, rep.instance.d + 1)]
            docs.append(lynch_report_dict(rep, names))
        with open(args.json, "w") as fh:
            json.dump(docs, fh, sort_keys=True, indent=2)
        print(f"wrote {args.json}")
    return 0 if all(r.all_claims_pass() for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
