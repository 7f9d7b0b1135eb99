#!/usr/bin/env python3
"""Run one topann command under caps and pin its standard output.

The command runs as `python -m topann <arguments>` in a child process, with
its standard output written to --out.  One line gives its exit code, wall
time and peak RSS; it goes to standard output and, when GITHUB_STEP_SUMMARY
names a file, to that file too.  The run fails (exit 1, or the command's own
nonzero code) when the command fails or passes --timeout seconds, when its
peak RSS passes --max-rss-mb, or when the SHA-256 of its output is not
--sha256.

Usage:
    python scripts/capped_run.py --label NAME --out FILE --sha256 HEX \\
        [--timeout S] [--max-rss-mb MB] -- <topann arguments>
"""
from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import time

from topann.cli import natural


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the run in the summary line")
    parser.add_argument("--out", required=True, help="file for the command's standard output")
    parser.add_argument("--sha256", required=True, help="expected SHA-256 of the output")
    parser.add_argument("--timeout", type=natural, default=None, help="wall-time cap in s")
    parser.add_argument("--max-rss-mb", type=natural, default=None, help="peak RSS cap in MB")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the topann arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter()
    with open(args.out, "wb") as out:
        try:
            status = subprocess.run(
                [sys.executable, "-m", "topann", *argv], stdout=out, timeout=args.timeout
            ).returncode
        except subprocess.TimeoutExpired:  # the child is killed and reaped
            status = 124  # the exit code of coreutils timeout
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with open(args.out, "rb") as fh:
        pinned = hashlib.sha256(fh.read()).hexdigest() == args.sha256

    def limit(cap) -> str:
        return f" (limit {cap})" if cap is not None else ""

    line = (
        f"{args.label}: exit {status}, {wall:.1f} s{limit(args.timeout)}, "
        f"peak RSS {peak_mb:.1f} MB{limit(args.max_rss_mb)}, "
        f"SHA-256 {args.sha256[:8]}… {'reproduced' if pinned else 'DIFFERS'}"
    )
    print(line)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            print(line, file=fh)
    over = args.max_rss_mb is not None and peak_mb > args.max_rss_mb
    return status or int(over or not pinned)


if __name__ == "__main__":
    raise SystemExit(main())
