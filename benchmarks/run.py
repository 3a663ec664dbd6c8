#!/usr/bin/env python3
"""Benchmark of the xsuperint batch verifier.

    python3 benchmarks/run.py --workload scorecard-deep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all

Run from the root of a source checkout; the package is imported from
./src.  Workloads, known failures and the interaction map are in
benchmarks/workloads.json; reference outputs are in
benchmarks/references.json (regenerate with record_references.py).

Each command runs in a child forked from this single-threaded process, so
no cache outlives the command that filled it, as with separate CLI runs.
Import and the first-use set-up (the lazy scipy import) are done once in
the parent before any command and are measured on their own, in fresh
interpreters, as setup_s.

Every reported time is scaled to a reference host speed by the probes of
probe.py, taken around and during each timed command; raw seconds are kept
in the result file (benchmarks/results/).

--trace 0 measures the end-to-end metrics over whole passes of the
workload: round(--seconds / pass_s) of them (at least one), where pass_s
is the workload's nominal reference-host pass time in workloads.json, so
the number of samples depends on --seconds only, not on the host or the
program's speed.  --trace 1 runs one pass twice, each step untraced and
then at once traced with every public layer function wrapped (see
tracing.py); it reports the per-layer metrics, the tracing overhead, and
checks that both runs of every step printed and wrote byte-identical
outputs.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A command fails on a non-zero exit, a printed FAIL gate, or output that
differs from its reference (floats in gate lines are not compared).
`correct` is false when an output differs from its reference or a command
fails that is not listed in known_failures.
"""

from __future__ import annotations

import os

# one thread for BLAS, set before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = "benchmarks/work"          # --out of the CLI commands, relative to ROOT
RESULTS = BENCH / "results"
SETUP_REPS = 5
STEP_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_s.p50": "s",
                    "task_s.p90": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}

# import plus first use in a fresh interpreter; prints the two times (less
# the probes taken during them) and the host-speed factor
SETUP_CODE = """
import time
import probe
with probe.Sampler() as sampler:
    t0 = time.perf_counter()
    import xsuperint.cli
    t1 = time.perf_counter()
    spent = sampler.spent
    from fractions import Fraction
    xsuperint.cli.angular_gram(Fraction(2, 7), Fraction(9, 7), 1)
    t2 = time.perf_counter()
    spent = [spent, sampler.spent - spent]
import json
print(json.dumps([t1 - t0 - spent[0], t2 - t1 - spent[1], sampler.factor()]))
"""

FLOAT = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")


def load_json(name: str):
    with open(BENCH / name, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# workloads: a pass is a list of tasks, a task a list of steps
# ---------------------------------------------------------------------------

def cli_step(*argv: str) -> dict:
    return {"kind": "cli", "argv": list(argv), "key": " ".join(argv)}


def point_args(pt: dict, q: int) -> list[str]:
    return ["--alpha", pt["alpha"], "--beta", pt["beta"],
            "--p", str(pt["p"]), "--q", str(q)]


def sweep_steps(pt: dict, fmt: str, state: list[int], spec: dict) -> list[dict]:
    args = point_args(pt, 1)
    m, n = state
    return [
        cli_step("verify", *args, "--classical"),
        cli_step("spectrum", *args, "--emax", spec["spectrum_emax"],
                 "--format", fmt),
        cli_step("export-wavefunction", *args, "--m", str(m), "--n", str(n),
                 "--grid", spec["export_grid"], "--out", WORK),
        cli_step("orbit", *args, "--out", WORK),
    ]


def build_pass(workload: str, spec: dict, rng: random.Random) -> list[dict]:
    """One pass over the workload, drawn from rng."""
    if workload == "scorecard-deep":
        points = rng.sample(spec["points"], len(spec["points"]))
        return [{"name": f"verify k={pt['p']}/{pt['q']}",
                 "steps": [cli_step("verify", *point_args(pt, pt["q"]))]}
                for pt in points]
    if workload == "scorecard-sweep":
        tasks = []
        for pt in rng.sample(spec["pool"], len(spec["pool"])):
            fmt = rng.choice(spec["spectrum_formats"])
            state = rng.choice(spec["export_states"])
            tasks.append({"name": f"point {pt['alpha']},{pt['beta']},{pt['p']}",
                          "steps": sweep_steps(pt, fmt, state, spec)})
        return tasks
    if workload == "orbits":
        tasks = []
        for p, q in rng.sample(spec["ratios"], len(spec["ratios"])):
            jitter = spec["start_jitter"]
            start = [round(v * (1 + rng.uniform(-jitter, jitter)), 6)
                     for v in spec["start"]]
            step = {"kind": "orbit", "p": p, "q": q, "start": start,
                    "key": f"certify k={p}/{q} start={start}"}
            tasks.append({"name": step["key"], "steps": [step]})
        return tasks
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one step, in a forked child
# ---------------------------------------------------------------------------

def certify_orbit(step: dict, spec: dict) -> tuple[int, str]:
    """Acceptance-7 style certification of one classical orbit."""
    from xsuperint import classical
    p, q = step["p"], step["q"]
    model = classical.ClassicalModel(1.0, p / q, *spec["strengths"])
    r, pr, pphi = step["start"]
    start = classical.OrbitState(r, min(0.4, 0.5 * model.wedge_span), pr, pphi)
    period = model.radial_period
    # acceptance 7's resolution; every ratio drifts for the same step count
    steps_per_period = int(256 * max(1.0, model.k))
    drift = classical.conservation_drift(
        model, start, n_periods=spec["drift_steps"] / steps_per_period,
        steps_per_period=steps_per_period)
    closure = classical.closure_report(model, start, max_time=2.5 * q * period,
                                       exclude=0.4 * period)
    order = classical.convergence_order(model, start)
    gates = spec["gates"]
    worst = max(drift.energy_drift, drift.invariant_drift)
    checks = [
        (worst < gates["drift_below"], f"drift {worst!r} over "
         f"{drift.duration / period!r} periods ({drift.steps} steps)"),
        (closure.distance < gates["closure_below"],
         f"closure {closure.distance!r} at t = {closure.time!r}"),
        (order >= gates["order_at_least"], f"order {order!r}"),
    ]
    lines = [f"certify k = {p}/{q} from {step['start']}"]
    lines += [f"{'PASS' if ok else 'FAIL'} {text}" for ok, text in checks]
    return (0 if all(ok for ok, _ in checks) else 1), "\n".join(lines) + "\n"


def child_run(step: dict, traced: bool, orbit_spec: dict) -> dict:
    from xsuperint import cli
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    os.makedirs(WORK, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with probe.Sampler() as sampler, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if step["kind"] == "cli":
                rc = cli.main(step["argv"])
            else:
                rc, text = certify_orbit(step, orbit_spec)
                out.write(text)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start - sampler.spent
    files = {}
    for name in sorted(os.listdir(WORK)):
        path = os.path.join(WORK, name)
        with open(path, encoding="utf-8") as fh:
            files[name] = fh.read()
        os.remove(path)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files, "s": elapsed, "speed_factor": sampler.factor(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.summary() if tracer else None}


def fork_step(step: dict, traced: bool, orbit_spec: dict) -> dict:
    """Run one step in a forked child and return what it reported."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                payload = json.dumps(child_run(step, traced, orbit_spec))
            except BaseException:
                payload = json.dumps({"error": traceback.format_exc()})
            data = payload.encode()
            while data:
                data = data[os.write(wfd, data):]
        finally:
            os._exit(0)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + STEP_TIMEOUT_S
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([rfd], [], [], max(left, 0.0))
            if not ready:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(rfd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        os.waitpid(pid, 0)
    if timed_out:
        return {"error": f"step exceeded {STEP_TIMEOUT_S} s and was killed"}
    return json.loads(b"".join(chunks))


# ---------------------------------------------------------------------------
# checking outputs against references
# ---------------------------------------------------------------------------

def masked_lines(text: str) -> list[str]:
    """Stdout lines with floats blanked in gate lines and float reports, and
    the PASS/FAIL verdict of gates blanked (it is judged separately)."""
    out = []
    for line in text.splitlines():
        if line.startswith(("PASS ", "FAIL ")):
            line = "<gate> " + FLOAT.sub("<f>", line[5:])
        elif line.startswith("energy drift "):
            line = FLOAT.sub("<f>", line)
        out.append(line)
    return out


def file_summary(name: str, text: str):
    """JSON files exactly; CSV files by row count and per-column sums of
    absolute values (compared to a relative 1e-6)."""
    if not name.endswith(".csv"):
        return text
    rows = [line.split(",") for line in text.splitlines()[1:]]
    sums = [0.0] * len(rows[0]) if rows else []
    for row in rows:
        for i, v in enumerate(row):
            sums[i] += abs(float(v))
    return {"header": text.split("\n", 1)[0], "rows": len(rows),
            "abs_sums": sums}


def reference_of(result: dict) -> dict:
    return {"stdout": masked_lines(result["stdout"]),
            "files": {k: file_summary(k, v)
                      for k, v in result["files"].items()}}


def same_summary(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys() or a["header"] != b["header"] \
                or a["rows"] != b["rows"]:
            return False
        return all(abs(x - y) <= 1e-6 * max(abs(x), abs(y), 1e-300)
                   for x, y in zip(a["abs_sums"], b["abs_sums"]))
    return a == b


def check(step: dict, result: dict, references: dict) -> tuple[bool, str]:
    """(failed, mismatch); mismatch is '' when the output matches its
    reference, when the reference is null (the command printed nothing when
    recorded) or for orbit certifications, which have no references."""
    if "error" in result:
        return True, result["error"].strip().splitlines()[-1]
    failed = result["rc"] != 0 or any(
        line.startswith("FAIL ") for line in result["stdout"].splitlines())
    if step["kind"] != "cli":
        return failed, ""
    if step["key"] not in references:
        return failed, "no reference in references.json (record_references.py)"
    ref = references[step["key"]]
    if ref is None:
        return failed, ""
    got = reference_of(result)
    if got["stdout"] != ref["stdout"]:
        diff = next(((a, b) for a, b in zip(got["stdout"], ref["stdout"])
                     if a != b), (len(got["stdout"]), len(ref["stdout"])))
        return True, f"stdout differs from reference: {diff!r}"
    if got["files"].keys() != ref["files"].keys() or not all(
            same_summary(got["files"][k], ref["files"][k]) for k in ref["files"]):
        return True, "output files differ from reference"
    return failed, ""


def digest(result: dict) -> str:
    h = hashlib.sha256()
    h.update(repr(result.get("rc")).encode())
    h.update(result.get("stdout", result.get("error", "")).encode())
    for name, text in sorted(result.get("files", {}).items()):
        h.update(name.encode())
        h.update(text.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------

def scaled_trace(trace, factor: float):
    """The child's trace with its per-function seconds scaled by factor."""
    if trace:
        for key in ("total_s", "self_s"):
            trace[key] = {k: v * factor for k, v in trace[key].items()}
    return trace


def run_pass(tasks: list[dict], ctx: dict, modes=(False,)) -> list[dict]:
    """Run every step once per mode (False untraced, True traced), the runs
    of one step back to back, and return one pass per mode.  Times are
    scaled to the reference host speed by the probes taken around and
    during each step (raw seconds kept as raw_s)."""
    passes = [{"wall_s": 0.0, "task_s": [], "steps": []} for _ in modes]
    for task in tasks:
        totals = [0.0 for _ in modes]
        for step in task["steps"]:
            for i, traced in enumerate(modes):
                result = fork_step(step, traced, ctx["orbit_spec"])
                failed, mismatch = check(step, result, ctx["references"])
                factor = result.get("speed_factor", 1.0)
                seconds = result.get("s", 0.0) * factor
                totals[i] += seconds
                passes[i]["steps"].append({
                    "task": task["name"], "key": step["key"],
                    "kind": step["kind"],
                    "command": step["argv"][0] if step["kind"] == "cli"
                    else "certify",
                    "rc": result.get("rc"), "s": seconds,
                    "raw_s": result.get("s"),
                    "speed_factor": factor,
                    "maxrss_kb": result.get("maxrss_kb", 0),
                    "stdout_bytes": len(result.get("stdout", "").encode()),
                    "failed": failed, "mismatch": mismatch,
                    "known_failure": step["key"] in ctx["known"],
                    "stderr": result.get("stderr", "")[-300:],
                    "digest": digest(result),
                    "trace": scaled_trace(result.get("trace"), factor)})
        for p, total in zip(passes, totals):
            p["task_s"].append(total)
            p["wall_s"] += total
    return passes


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it, so it is always a time some task took."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def measure_setup(reps: int) -> list[list[float]]:
    """[import_s, first_use_s, speed factor] of `reps` fresh interpreters,
    with the two times scaled to the reference host speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # import from cached bytecode
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        import_s, first_use_s, factor = json.loads(
            proc.stdout.strip().splitlines()[-1])
        out.append([import_s * factor, first_use_s * factor, factor])
    return out


def correctness(steps: list[dict]) -> tuple[bool, int, int, list[str]]:
    problems = [f"{s['key']}: {s['mismatch']}" for s in steps if s["mismatch"]]
    problems += [f"{s['key']}: unexpected failure (rc {s['rc']}) "
                 f"{s['stderr'].strip()[-200:]}"
                 for s in steps if s["failed"] and not s["mismatch"]
                 and not s["known_failure"]]
    failed = sum(s["failed"] for s in steps)
    return not problems, len(steps), failed, problems


def end_to_end(setup: list[list[float]], passes: list[dict]) -> dict:
    steps = [s for p in passes for s in p["steps"]]
    task_s = [t for p in passes for t in p["task_s"]]
    _, attempted, failed, _ = correctness(steps)
    values = {
        "setup_s": statistics.median(a + b for a, b, _ in setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "task_s.p50": percentile(task_s, 50),
        "task_s.p90": percentile(task_s, 90),
        "peak_rss_mb": max(s["maxrss_kb"] for s in steps) / 1024.0,
        "pass_frac": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(setup: list[list[float]], plain: dict, traced: dict) -> dict:
    calls, total, self_s = Counter(), Counter(), Counter()
    extra = Counter()
    max_bits = 0
    for step in traced["steps"]:
        tr = step["trace"] or {}
        calls.update(tr.get("calls", {}))
        total.update(tr.get("total_s", {}))
        self_s.update(tr.get("self_s", {}))
        extra.update({k: tr.get(k, 0) for k in (
            "chain_builds", "chain_builds_distinct", "order_integrates",
            "order_wedge_exits")})
        max_bits = max(max_bits, tr.get("chain_max_bits", 0))
    m = {}
    for fn in ("polynomials.poly_gcd", "operators.DiffOp.compose"):
        m[f"{fn}.calls"] = (calls[fn], "count")
        m[f"{fn}.self_s"] = (self_s[fn] + 0.0, "s")
    m["operators.RatFunc.created"] = (calls["operators.RatFunc.created"], "count")
    m["ladders.parity_report.s"] = (total["ladders.parity_report"] + 0.0, "s")
    m["ladders.chain_builds"] = (extra["chain_builds"], "count")
    m["ladders.chain_builds.distinct"] = (extra["chain_builds_distinct"], "count")
    m["ladders.chain_max_bits"] = (max_bits, "bits")
    for fn in ("angular.solve_eigenpolynomial", "utils.fraction_nullspace"):
        m[f"{fn}.calls"] = (calls[fn], "count")
        m[f"{fn}.s"] = (total[fn] + 0.0, "s")
    for fn in ("verify.verification_report", "spectral.hamiltonian_residual",
               "spectral.angular_gram", "spectral.ladder_numeric_check",
               "spectral.wavefunction_on_grid", "spectral.degeneracy_table"):
        m[f"{fn}.s"] = (total[fn] + 0.0, "s")
    rk8_steps, rk8_s = calls["classical.rk8_step"], total["classical.rk8_step"]
    m["classical.rk8_steps"] = (rk8_steps, "count")
    m["classical.steps_per_s"] = (rk8_steps / rk8_s if rk8_s else 0.0, "1/s")
    for fn in ("conservation_drift", "closure_report", "convergence_order"):
        m[f"classical.{fn}.s"] = (total[f"classical.{fn}"] + 0.0, "s")
    # integrate calls under convergence_order that left the wedge, per call
    m["classical.integrate.wedge_exits"] = (
        extra["order_wedge_exits"] / extra["order_integrates"]
        if extra["order_integrates"] else 0.0, "ratio")
    for cmd in ("verify", "spectrum", "export-wavefunction", "orbit"):
        m[f"cli.main.{cmd}.s"] = (sum((s["s"] for s in traced["steps"]
                                       if s["command"] == cmd), 0.0), "s")
    m["cli.stdout_bytes"] = (sum(s["stdout_bytes"] for s in traced["steps"]
                                 if s["kind"] == "cli"), "bytes")
    m["setup.import_s"] = (statistics.median(a for a, _, _ in setup), "s")
    m["setup.first_use_s"] = (statistics.median(b for _, b, _ in setup), "s")
    # resolved only to the step-to-step noise of one pass (1-3% of wall_s)
    m["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"git_commit": git_commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed,
            "platform": platform.platform()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git, or
    'unknown' outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 ctx: dict) -> dict:
    spec = ctx["spec"]["workloads"][workload]
    setup = measure_setup(SETUP_REPS)
    rng = random.Random(f"{workload}/{seed}")
    record = {"workload": workload, "trace": trace,
              "environment": environment(seed),
              "setup": setup}
    if trace:
        plain, traced = run_pass(build_pass(workload, spec, rng), ctx,
                                 (False, True))
        steps = traced["steps"]
        ok, attempted, failed, problems = correctness(steps)
        differ = [a["key"] for a, b in zip(plain["steps"], steps)
                  if a["digest"] != b["digest"]]
        if differ:
            ok = False
            problems += [f"traced output differs from untraced: {k}"
                         for k in differ]
        metrics = per_layer(setup, plain, traced)
        record["passes"] = [plain, traced]
        spans = [{"task": s["task"], "step": s["key"],
                  "spans": (s["trace"] or {}).get("spans", [])}
                 for s in steps]
        for s in steps:
            if s["trace"]:
                s["trace"].pop("spans", None)
    else:
        passes = [run_pass(build_pass(workload, spec, rng), ctx)[0]
                  for _ in range(max(1, round(seconds / spec["pass_s"])))]
        steps = [s for p in passes for s in p["steps"]]
        ok, attempted, failed, problems = correctness(steps)
        metrics = end_to_end(setup, passes)
        record["passes"] = passes
        record["task_count"] = sum(len(p["task_s"]) for p in passes)
        spans = None
    record.update(correct=ok, attempted=attempted, failed=failed,
                  problems=problems, metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(RESULTS / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "steps": spans}, fh)
    return record


def report(record: dict) -> None:
    """Human-readable lines for one workload."""
    wl = record["workload"]
    print(f"== {wl} (seed {record['environment']['seed']}, "
          f"trace {int(record['trace'])})")
    if not record["trace"]:
        n = record["task_count"]
        print(f"{wl}: {len(record['passes'])} passes, {n} tasks; task_s.p90 "
              f"{'has' if n >= 100 else 'lacks'} 10 samples beyond it")
        print(f"{wl}: waiting time 0 s by construction (closed loop, one "
              f"client, no queue)")
    for name, m in record["metrics"].items():
        print(f"{wl}: {name} = {m['value']!r} {m['unit']}")
    print(f"{wl}: attempted {record['attempted']}, failed {record['failed']} "
          f"(known failures are listed in workloads.json)")
    for problem in record["problems"]:
        print(f"{wl}: PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xsuperint" / "__init__.py").is_file():
        print(f"error: no xsuperint sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import xsuperint.cli
    if Path(xsuperint.cli.__file__).resolve().parent != SRC / "xsuperint":
        print(f"error: imported xsuperint from {xsuperint.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from fractions import Fraction
    xsuperint.cli.angular_gram(Fraction(2, 7), Fraction(9, 7), 1)  # first use
    spec = load_json("workloads.json")
    ctx = {"spec": spec, "orbit_spec": spec["workloads"]["orbits"],
           "references": load_json("references.json"),
           "known": {k["command"] for k in spec["known_failures"]}}
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in spec["workloads"]]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(spec['workloads'])} or all")
    records = []
    for name in names:
        records.append(run_workload(name, args.seed, args.seconds,
                                    bool(args.trace), ctx))
        report(records[-1])
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
