#!/usr/bin/env python3
"""Cross-check the cd engine against the multigraded Cech oracle.

Enumerates all (relations, ideal) squarefree pairs up to relabeling for small
d, plus random larger instances, and asserts that the largest nonvanishing
Cech index in the box equals the computed cohomological dimension.

Usage:
    python scripts/run_cd_oracle_check.py [--max-d 4] [--random 200 --random-d 5]
                                          [--box -3:1] [--fields Q,Fp:2]
"""
from __future__ import annotations

import argparse
import random
import sys
import time

sys.path.insert(0, "tests")

from topann.cech import DegreeBox, cech_ranks
from topann.cli import natural, parse_box_text
from topann.cohomdim import cohomological_dimension
from topann.errors import GuardExceededError, InvalidInputError
from topann.linalg import FieldSpec
from topann.stanley_reisner import QuotientIdeal, QuotientRing

import _oracles as orc
from test_acceptance import canonical_pairs, ideal_from_key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=natural, default=4)
    parser.add_argument("--random", type=natural, default=200)
    parser.add_argument("--random-d", type=natural, default=5)
    parser.add_argument("--box", default="-3:1")
    parser.add_argument("--fields", default="Q,Fp:2")
    parser.add_argument("--seed", type=natural, default=101)
    args = parser.parse_args()
    try:
        return check(args)
    except InvalidInputError as exc:
        print(f"error (invalid input): {exc}", file=sys.stderr)
        return 2
    except GuardExceededError as exc:
        print(f"error (guard): {exc}", file=sys.stderr)
        return 3


def check(args) -> int:
    bounds = parse_box_text(args.box, 1)
    lo, hi = bounds.lower[0], bounds.upper[0]
    fields = [FieldSpec.parse(tok) for tok in args.fields.split(",")]
    mismatches = 0
    total = 0

    for field in fields:
        for d in range(1, args.max_d + 1):
            pairs = canonical_pairs(d)
            box = DegreeBox.uniform(d, lo, hi)
            t0 = time.time()
            for jkey, akey in pairs:
                ring = QuotientRing(d, ideal_from_key(jkey, d))
                a = QuotientIdeal(ring, ideal_from_key(akey, d))
                c = cohomological_dimension(a, field).c
                top = cech_ranks(a, box, field).top_nonvanishing
                total += 1
                if c != top:
                    mismatches += 1
                    print(f"MISMATCH {field.label()} J={jkey} a={akey}: cd={c} oracle={top}")
            print(f"{field.label()} d={d}: {len(pairs)} canonical pairs "
                  f"checked in {time.time() - t0:.1f}s")
        rng = random.Random(args.seed)
        d = args.random_d
        box = DegreeBox.uniform(d, lo, hi)
        t0 = time.time()
        for _ in range(args.random):
            ring = QuotientRing(d, orc.random_squarefree_ideal(rng, d))
            a = QuotientIdeal(ring, orc.random_squarefree_ideal(rng, d))
            c = cohomological_dimension(a, field).c
            top = cech_ranks(a, box, field).top_nonvanishing
            total += 1
            if c != top:
                mismatches += 1
                print(f"MISMATCH {field.label()} J={ring.relations.pretty()} "
                      f"a={a.lift.pretty()}: cd={c} oracle={top}")
        print(f"{field.label()} d={d}: {args.random} random pairs "
              f"checked in {time.time() - t0:.1f}s")

    print(f"\n{total} cases, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
