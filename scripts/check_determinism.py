#!/usr/bin/env python3
"""Byte-determinism check over two results/json directories.

The workspace guarantees that report output is independent of the worker
count: running a report binary with IVM_JOBS=1 and IVM_JOBS=N must produce
identical results. This script compares two directories of JSON reports
produced by such runs and fails on any difference. Stdlib only.

Three manifest sections are excluded from the comparison, because they
are *supposed* to differ between runs:

* manifest.env      — records the IVM_* environment (contains IVM_JOBS)
* manifest.executor — wall-clock timing of the parallel executor
* manifest.phases   — per-phase span wall times (wall-clock by nature)

No file is skipped. Everything else — every table value, metric and
attribution breakdown — must be identical. *.json files are compared
after dropping the excluded sections and re-serialising canonically
(sorted keys); any other file is compared byte for byte.

Usage:
    scripts/check_determinism.py <dir-a> <dir-b>

Exit status: 0 when identical, 1 on any difference (including a file
present in only one directory), 2 on unreadable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def strip_nondeterministic(doc):
    """Removes the manifest sections that legitimately differ between runs."""
    if isinstance(doc, dict):
        manifest = doc.get("manifest")
        if isinstance(manifest, dict):
            manifest.pop("env", None)
            manifest.pop("executor", None)
            manifest.pop("phases", None)
    return doc


def canonical_json(path: Path) -> str:
    doc = json.loads(path.read_text())
    return json.dumps(strip_nondeterministic(doc), sort_keys=True)


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    diffs = []
    for only, where in ((files_a - files_b, dir_b), (files_b - files_a, dir_a)):
        for rel in sorted(only):
            diffs.append(f"{rel}: missing from {where}")
    for rel in sorted(files_a & files_b):
        a, b = dir_a / rel, dir_b / rel
        problem = None
        if rel.suffix == ".json":
            try:
                if canonical_json(a) != canonical_json(b):
                    problem = "JSON differs outside manifest.{env,executor,phases}"
            except json.JSONDecodeError as e:
                problem = f"not valid JSON: {e}"
        elif a.read_bytes() != b.read_bytes():
            problem = "bytes differ"
        if problem:
            diffs.append(f"{rel}: {problem}")
        print(f"  {rel}: {'DIFFERS' if problem else 'ok'}")
    return diffs


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    dir_a, dir_b = Path(sys.argv[1]), Path(sys.argv[2])
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"check-determinism: not a directory: {d}", file=sys.stderr)
            return 2
    diffs = compare(dir_a, dir_b)
    if diffs:
        print("\ncheck-determinism: FAIL", file=sys.stderr)
        for d in diffs:
            print(f"  {d}", file=sys.stderr)
        return 1
    print("check-determinism: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
