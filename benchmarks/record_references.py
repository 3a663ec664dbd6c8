#!/usr/bin/env python3
"""Record benchmarks/references.json: the reference output of every command
the scorecard workloads can draw, from the current sources.

    python3 benchmarks/record_references.py

Run it only when a change of output is intended, and review the diff: the
benchmark counts every command whose output differs from its reference as
failed and incorrect.  Stdout is stored with floats blanked in gate lines;
CSV files by row count and column sums.  A command that printed nothing
(it failed before any output) gets no reference.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import run


def all_steps(spec: dict) -> list[dict]:
    deep = spec["workloads"]["scorecard-deep"]
    sweep = spec["workloads"]["scorecard-sweep"]
    steps = [run.cli_step("verify", *run.point_args(pt, pt["q"]))
             for pt in deep["points"]]
    for pt in sweep["pool"]:
        for fmt, state in itertools.product(sweep["spectrum_formats"],
                                            sweep["export_states"]):
            steps += run.sweep_steps(pt, fmt, state, sweep)
    unique = {s["key"]: s for s in steps}
    return list(unique.values())


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    spec = run.load_json("workloads.json")
    references = {}
    for step in all_steps(spec):
        result = run.fork_step(step, False, spec["workloads"]["orbits"])
        if "error" in result:
            print(f"error in {step['key']}: {result['error']}", file=sys.stderr)
            return 1
        references[step["key"]] = (run.reference_of(result)
                                   if result["stdout"] else None)
        print(f"rc {result['rc']}  {result['s']:.2f} s  {step['key']}")
    with open(run.BENCH / "references.json", "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
