"""Every golden report is reproduced byte for byte.

The corpus under `tests/golden/` holds the README examples, both Lynch
fixtures, `lynch search --max-d 6`, `lynch verify` over Q and F_2 on a d = 14
tuple whose J has 96 generators and on a d = 20 tuple whose J has 288 (the
largest J the guards admit in the family), `cd`, `ann-bounds` and `gamma` over Q and F_2
on instances whose Betti degrees are ranked on either complex and on a d = 9
ring with twelve minimal primes and squared lift generators whose supports
repeat or nest (nested), `cd` and `ann-bounds` over Q and F_2 on ten cubic
generators with J = 0 and with J covering every variable (cubics8,
cubics8-fullj), where the top Betti degree search skips the most degrees,
`cd`, `ann-bounds` and `gamma` over Q and F_2 on the 14 consecutive triples of
16 variables (chain16), whose J has 177 minimal primes, `ann-bounds` over Q
and F_2 on a principal ideal whose certificate is cd <= 1 (principal),
and Cech oracle reports on ten generators with J = 0 (rp2), on a J whose
support misses some variables (cycle), and on nested, whose ring has 9 face
families over 128 positive supports: its ranks at -1:1, and the action of u9
on H^3 at -3:1 over Q and F_2, which checks 195,301 degrees.
"""
from __future__ import annotations

import os

import pytest

from golden.record import HERE, manifest, run_case

CASES = manifest()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_golden_bytes(case):
    code, text = run_case(case["argv"])
    assert code == 0
    with open(os.path.join(HERE, "out", case["name"] + ".txt"), encoding="utf-8",
              newline="") as fh:
        assert text == fh.read()
