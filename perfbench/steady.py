#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs every workload N times at BENCHMARK.json's run_seconds, run i with
seed SEED_BASE + i, and prints the median and quartiles of each
end-to-end metric. A metric whose spread (interquartile distance over the
median, quartiles as statistics.quantiles(values, n=4) gives them)
exceeds its bound is flagged; one above a third of its bound is warned
about. With --compare, the medians of an earlier report are checked too:
a metric whose median got worse by more than its bound is flagged.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --out .perfbench/steady-a.json
    python3 perfbench/steady.py --runs 10 --compare .perfbench/steady-a.json

Exits 1 when any metric is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEED_BASE = 1000


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(args, stdout=subprocess.PIPE, check=True, text=True)
    print(f"  {workload} seed {seed}: {time.monotonic() - start:.1f} s", file=sys.stderr)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} cells differ from the reference")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(metric, before, after):
    """Relative change of `after` against `before`, positive when worse."""
    change = (after - before) / before if before else 0.0
    return change if metric["better"] == "lower" else -change


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", help="write the raw values and summary here")
    p.add_argument("--compare", help="an earlier --out file")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    earlier = None
    if a.compare:
        with open(a.compare) as f:
            earlier = json.load(f)

    report = {}
    flagged = 0
    for w in (w["name"] for w in bench["workloads"]):
        raw = [run_once(bench["command"], w, SEED_BASE + i, bench["run_seconds"])
               for i in range(a.runs)]
        report[w] = {"raw": raw, "summary": {}}
        print(f"{w} ({a.runs} runs, seeds {SEED_BASE}..{SEED_BASE + a.runs - 1})")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            s = summarize([r[m["name"]] for r in raw])
            report[w]["summary"][m["name"]] = s
            flag = ""
            if s["spread"] > m["bound"]:
                flag = "FLAG spread over bound"
            elif s["spread"] > m["bound"] / 3:
                flag = "warn spread over bound/3"
            if earlier and w in earlier:
                before = earlier[w]["summary"][m["name"]]["median"]
                worse = worse_by(m, before, s["median"])
                if worse > m["bound"]:
                    flag += f" FLAG median {worse:+.1%} vs earlier"
            flagged += flag.count("FLAG")
            print(f"  {m['name']:<18} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['spread']:>8.2%} {m['bound']:>6.2f} {flag}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
