#!/usr/bin/env python3
"""Byte-determinism check over two results/json directories.

The workspace guarantees that report output is independent of the worker
count: running a report binary with IVM_JOBS=1 and IVM_JOBS=N must produce
identical results. This script compares two output directories produced by
such runs and fails on any difference. Stdlib only.

Five manifest sections are excluded from the comparison, because they
are *supposed* to differ between runs:

* manifest.env      — records the IVM_* environment (contains IVM_JOBS)
* manifest.executor — wall-clock timing of the parallel executor
* manifest.trace    — dispatch-trace cache hit/miss counters (depend on
                      what an earlier run left in the cache, not on the
                      results themselves)
* manifest.phases   — per-phase span wall times (wall-clock by nature)
* manifest.sampling — per-plan entries are appended in executor cell
                      completion order, which depends on IVM_JOBS (every
                      entry's *contents* are still deterministic and are
                      covered by the sampling_sweep report section, which
                      IS compared)

Chrome trace-event exports (`*.trace.json`, written under
IVM_TRACE_JSON=1) are timelines of wall-clock spans and are skipped
entirely. Everything else — every table value, metric, attribution
breakdown and JSONL trace byte — must be identical. *.json files are
compared after dropping the excluded sections and re-serialising
canonically (sorted keys); all other files — including the binary
`.dtrace` dispatch traces captured under IVM_TRACE_DIR — are compared
byte for byte. `.dtrace` files are additionally required to start with
the `IVMT` format magic, so a comparison of two identically-torn files
cannot pass silently.

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
            manifest.pop("trace", None)
            manifest.pop("phases", None)
            manifest.pop("sampling", None)
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
        if rel.name.endswith(".trace.json"):
            print(f"  {rel}: skipped (wall-clock span timeline)")
            continue
        if rel.suffix == ".json":
            try:
                if canonical_json(a) != canonical_json(b):
                    problem = (
                        "JSON differs outside "
                        "manifest.{env,executor,trace,phases,sampling}"
                    )
            except json.JSONDecodeError as e:
                problem = f"not valid JSON: {e}"
        elif rel.suffix == ".dtrace":
            da, db = a.read_bytes(), b.read_bytes()
            if not (da.startswith(b"IVMT") and db.startswith(b"IVMT")):
                problem = "dispatch trace lacks the IVMT format magic"
            elif da != db:
                problem = "bytes differ"
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
