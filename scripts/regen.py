#!/usr/bin/env python3
"""Regenerate results/*.txt and byte-compare them with the committed files.

Builds the report binaries in release mode, then runs each one with
IVM_SMOKE removed from the environment (full size), and compares its
standard output byte for byte with the committed results/<bin>.txt. For every binary it prints the
verdict, the wall time and the peak RSS. The peak RSS comes from the
rusage os.wait4 returns for that one child: RUSAGE_CHILDREN would report
the largest child seen so far, not this binary's own. It has a floor:
at exec, Linux charges the resident size of the forking Python process
to the child, so binaries smaller than that all read about that size.
Stdlib only.

Usage:
    scripts/regen.py [--bin NAME ...]

Without --bin it checks every binary that has a committed
results/<bin>.txt: the 18 listed in results/README.md.

Exit status: 0 when every output is byte-identical, 1 on any difference
or failed binary, 2 on bad arguments or a failed build.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def first_difference(expected: bytes, got: bytes) -> str:
    """Describes the first line where `got` departs from `expected`."""
    exp_lines, got_lines = expected.splitlines(), got.splitlines()
    for n, (e, g) in enumerate(zip(exp_lines, got_lines), start=1):
        if e != g:
            return f"line {n}:\n    expected: {e!r}\n    got:      {g!r}"
    n = min(len(exp_lines), len(got_lines)) + 1
    if len(exp_lines) != len(got_lines):
        return f"line {n}: expected {len(exp_lines)} lines, got {len(got_lines)}"
    return "line endings differ"


def run(bin_name: str) -> bool:
    """Runs one binary and reports; returns whether it matched."""
    expected = (RESULTS / f"{bin_name}.txt").read_bytes()
    env = dict(os.environ)
    env.pop("IVM_SMOKE", None)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.monotonic()
        proc = subprocess.Popen([ROOT / "target" / "release" / bin_name],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - start
        out.seek(0)
        got = out.read()
        err.seek(0)
        stderr_tail = err.read().decode(errors="replace").splitlines()[-5:]
    # ru_maxrss is in kilobytes on Linux.
    cost = f"wall {wall:6.1f} s  peak RSS {usage.ru_maxrss / 1024:7.1f} MB"
    if proc.returncode != 0:
        print(f"{bin_name:16} FAILED (exit {proc.returncode})  {cost}")
        for line in stderr_tail:
            print(f"    {line}")
        return False
    if got != expected:
        print(f"{bin_name:16} DIFFERS  {cost}")
        print(f"    {first_difference(expected, got)}")
        return False
    print(f"{bin_name:16} identical  {cost}")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", action="append", dest="bins", metavar="NAME",
                        help="check only this binary (repeatable)")
    args = parser.parse_args()
    bins = args.bins or sorted(p.stem for p in RESULTS.glob("*.txt"))
    missing = [b for b in bins if not (RESULTS / f"{b}.txt").is_file()]
    if missing:
        print(f"regen: no committed results/{missing[0]}.txt", file=sys.stderr)
        return 2
    build = ["cargo", "build", "--release", "--quiet", "-p", "ivm-bench"]
    for b in bins:
        build += ["--bin", b]
    if subprocess.run(build, cwd=ROOT).returncode != 0:
        print("regen: release build failed", file=sys.stderr)
        return 2
    start = time.monotonic()
    failed = [b for b in bins if not run(b)]
    print(f"regen: {len(bins)} binaries in {time.monotonic() - start:.1f} s")
    if failed:
        print(f"regen: FAIL ({', '.join(failed)})", file=sys.stderr)
        return 1
    print("regen: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
