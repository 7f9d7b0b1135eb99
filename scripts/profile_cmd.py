#!/usr/bin/env python3
"""Run one topann command under cProfile and show where its time went.

The command's standard output and exit code pass through unchanged; the
functions with the most own time (tottime) are listed on standard error.
`--repeat N` profiles N runs of the command in this process, so a command of
well under a millisecond shows more than noise; only the first run's output
and exit code pass through, and the other runs write nowhere.

Usage:
    python scripts/profile_cmd.py [--top 25] [--repeat 1] -- <topann arguments>
    python scripts/profile_cmd.py -- --quiet oracle ranks instance.json --box=-3:1
    python scripts/profile_cmd.py --repeat 200 -- --quiet gamma instance.json
"""
from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import os
import pstats
import sys

from topann.cli import main as topann_main, natural


def _run(argv: list[str]):
    """The exit code of one topann command."""
    try:
        return topann_main(argv)
    except SystemExit as exc:  # the topann parser refused its arguments
        return exc.code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=natural, default=25, help="functions to list")
    parser.add_argument("--repeat", type=natural, default=1,
                        help="runs of the command to profile (at least 1)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the topann arguments")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    profiler = cProfile.Profile()
    code = profiler.runcall(_run, argv)
    sys.stdout.flush()
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for _ in range(args.repeat - 1):
            profiler.runcall(_run, argv)
    listing = io.StringIO()
    pstats.Stats(profiler, stream=listing).sort_stats("tottime").print_stats(args.top)
    sys.stderr.write(listing.getvalue())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
