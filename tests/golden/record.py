"""Record the golden reports that `tests/test_golden.py` compares byte for byte.

Each case in `manifest.json` is a `topann` command line, run from this
directory; its standard output is written to `out/<name>.txt`.  Rerun only when
a report changes on purpose:

    PYTHONPATH=src python3 tests/golden/record.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os

from topann.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one command, run from this directory."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def manifest() -> list[dict]:
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for case in manifest():
        code, text = run_case(case["argv"])
        if code != 0:
            raise SystemExit(f"{case['name']}: exit {code}")
        with open(os.path.join(HERE, "out", case["name"] + ".txt"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(text)
