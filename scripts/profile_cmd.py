#!/usr/bin/env python3
"""Run one topann command under cProfile and show where its time went.

The command's standard output and exit code pass through unchanged; the
functions with the most own time (tottime) are listed on standard error.

Usage:
    python scripts/profile_cmd.py [--top 25] -- <topann arguments>
    python scripts/profile_cmd.py -- --quiet oracle ranks instance.json --box=-3:1
"""
from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys

from topann.cli import main as topann_main, natural


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=natural, default=25, help="functions to list")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the topann arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    profiler = cProfile.Profile()
    try:
        code = profiler.runcall(topann_main, argv)
    except SystemExit as exc:  # the topann parser refused its arguments
        code = exc.code
    sys.stdout.flush()
    listing = io.StringIO()
    pstats.Stats(profiler, stream=listing).sort_stats("tottime").print_stats(args.top)
    sys.stderr.write(listing.getvalue())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
