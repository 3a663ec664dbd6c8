#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise the run-to-run spread.

    python3 benchmarks/spread.py --runs 10
    python3 benchmarks/spread.py --runs 10 --write benchmarks/baseline.json

For each workload of BENCHMARK.json it runs its command at run_seconds on
seeds 1..runs, one run at a time, and then does the same a second time.
For every end-to-end metric it prints, per set, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
against a third of the metric's bound, and the drift of the second median
from the first against the bound.  It also makes two traced runs on seed 1
and checks that the exact counts repeat.  --write stores everything, with
the environment of the first run, as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per-layer metrics that are exact counts and must repeat run to run
EXACT = ("count", "bits", "bytes")


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = elapsed
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def measure_set(command: list[str], wl: str, seeds: range, seconds: int,
                bounds: dict) -> tuple[dict, bool]:
    """Ten (or --runs) untraced runs; their summary and whether every
    spread but setup_s's is below a third of its bound."""
    results = [run_once(command, wl, s, seconds, 0) for s in seeds]
    entry = {"correct": all(r["correct"] for r in results),
             "attempted": [r["attempted"] for r in results],
             "failed": [r["failed"] for r in results],
             "run_s": [r["run_s"] for r in results],
             "end_to_end": {}}
    steady = True
    for name, bound in bounds.items():
        s = summarise([r["metrics"][name]["value"] for r in results])
        s["unit"] = results[0]["metrics"][name]["unit"]
        entry["end_to_end"][name] = s
        ok = name == "setup_s" or s["spread"] < bound / 3
        steady &= ok
        print(f"{wl:16s} {name:12s} median {s['median']:.6g} {s['unit']} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread "
              f"{s['spread']:.4f} (bound/3 {bound / 3:.4f})"
              f"{'' if ok else '  TOO WIDE'}")
    print(f"{wl:16s} correct {entry['correct']}, run time "
          f"{min(entry['run_s']):.1f}-{max(entry['run_s']):.1f} s")
    return entry, steady


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", help="write the summary to this file")
    args = parser.parse_args()
    command, seconds = bench["command"], bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    seeds = range(1, args.runs + 1)
    summary = {"command": command, "run_seconds": seconds,
               "runs": args.runs, "seeds": list(seeds), "workloads": {}}
    steady = True
    for wl in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(2):
            entry, ok = measure_set(command, wl, seeds, seconds, bounds)
            sets.append(entry)
            steady &= ok
        drift = {}
        for name, bound in bounds.items():
            first, second = (e["end_to_end"][name]["median"] for e in sets)
            worse = (second - first) if better[name] == "lower" \
                else (first - second)
            drift[name] = worse / first if first else 0.0
            ok = drift[name] <= bound
            steady &= ok
            print(f"{wl:16s} {name:12s} second median worse by "
                  f"{drift[name]:+.4f} (bound {bound:.4f})"
                  f"{'' if ok else '  TOO FAR'}")
        traced = [run_once(command, wl, 1, seconds, 1) for _ in range(2)]
        a, b = (t["metrics"] for t in traced)
        differ = [k for k in a if units[k] in EXACT
                  and a[k]["value"] != b[k]["value"]]
        summary["workloads"][wl] = {
            "sets": sets, "median_drift": drift,
            "traced": {
                "seed": 1,
                "correct": all(t["correct"] for t in traced),
                "per_layer": {k: [a[k]["value"], b[k]["value"]] for k in a},
                "units": {k: a[k]["unit"] for k in a},
                "exact_counts_repeat": not differ}}
        print(f"{wl:16s} traced correct "
              f"{all(t['correct'] for t in traced)}, exact counts repeat: "
              f"{not differ} {differ or ''}, overhead "
              f"{a['trace.overhead_s']['value']:.3f} / "
              f"{b['trace.overhead_s']['value']:.3f} s")
        summary.setdefault("environment", json.loads(
            (ROOT / "benchmarks" / "results" / f"{wl}-seed1-trace0.json")
            .read_text())["environment"])
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else
          "NOT steady: a spread is above bound/3 or a median drifted too far")
    return 0


if __name__ == "__main__":
    sys.exit(main())
