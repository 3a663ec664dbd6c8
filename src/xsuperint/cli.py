"""Command-line front end: verification suites, spectra, wavefunction grids,
and classical orbits as reproducible batch runs.

Conventions enforced here rather than in the science modules:

  * alpha and beta cross the CLI boundary as exact rational strings ("3/2"),
    never floats — exactness is what makes the symbolic checks meaningful.
    Floats are accepted only for omega, tolerances, times, and grid extents.
  * a config file is flat ``key=value`` lines, each naming a flag of the
    subcommand; explicit flags override it.
  * CSV output is comma-separated with a header row, LF line endings, and
    floats printed to 17 significant digits.
  * identical configuration must produce byte-identical output files.

Exit codes: 0 all checks passed (reconciliation MISMATCH lines are findings,
not failures), 1 a tolerance check failed or the orbit left the wedge,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .classical import (
    ClassicalModel,
    OrbitState,
    angular_invariant,
    classical_energy,
    closure_report,
    conservation_drift,
    integrate,
)
from .errors import (
    OutOfFamilyError,
    ParameterDomainError,
    QuadratureError,
    VerificationError,
    WedgeExitError,
)
from .params import ModelParams, QuantumState, angular_eigenroot, energy
from .polynomials import as_fraction, exceptional_jacobi_closed_form
from .angular import angular_operator
from .ladders import action_report
from .spectral import (
    angular_gram,
    default_rmax,
    degeneracy_table,
    hamiltonian_residual,
    ladder_numeric_check,
    wavefunction_on_grid,
)
from .verify import verification_report


class UsageError(Exception):
    """Bad flags, bad config file, or a config that names no valid model."""


def fmt_float(x: float) -> str:
    """17 significant digits: enough to round-trip any float64 exactly."""
    return f"{x:.17g}"


def parse_rational(text: str) -> Fraction:
    try:
        return as_fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})")


def parse_state(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(
            f"initial state must be r,phi,p_r,p_phi (got {text!r})")
    try:
        r, phi, pr, pphi = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad initial state {text!r}: {exc}")
    return r, phi, pr, pphi


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class RunConfig:
    alpha: Fraction = Fraction(1)
    beta: Fraction = Fraction(3)
    omega: float = 1.0
    p: int = 1
    q: int = 1
    mmax: int = 6
    nmax: int = 6
    emax: Optional[float] = None
    grid: int = 40
    dt: Optional[float] = None
    t_end: Optional[float] = None
    tol: float = 1e-9
    fmt: str = "csv"
    out: Optional[str] = None
    m: int = 0
    n: int = 1
    state: Optional[tuple[float, float, float, float]] = None
    rmax: Optional[float] = None
    phi_max: Optional[float] = None
    classical: bool = False

    def model_params(self) -> ModelParams:
        return ModelParams(alpha=self.alpha, beta=self.beta, omega=self.omega,
                           p=self.p, q=self.q)


_CASTERS = {
    "alpha": parse_rational,
    "beta": parse_rational,
    "omega": float,
    "p": int,
    "q": int,
    "mmax": int,
    "nmax": int,
    "emax": float,
    "grid": int,
    "dt": float,
    "t_end": float,
    "tol": float,
    "fmt": str,
    "out": str,
    "m": int,
    "n": int,
    "state": parse_state,
    "rmax": float,
    "phi_max": float,
    "classical": parse_bool,
}

# config-file spelling -> RunConfig field
_KEY_ALIASES = {"format": "fmt", "t-end": "t_end", "phi-max": "phi_max"}


def load_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(
                    f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults <- config file <- explicit flags into one RunConfig.
    A config key must name a flag of the subcommand, i.e. a field its parser
    set on `args`."""
    cfg = RunConfig()
    if args.config:
        for key, value in load_config_file(args.config).items():
            field = _KEY_ALIASES.get(key, key.replace("-", "_"))
            if field not in _CASTERS or not hasattr(args, field):
                raise UsageError(f"{args.command} does not accept config "
                                 f"key {key!r}")
            try:
                cfg = replace(cfg, **{field: _CASTERS[field](value)})
            except (ValueError, TypeError) as exc:
                raise UsageError(f"bad value for {key!r}: {value!r} ({exc})")
    for field, caster in _CASTERS.items():
        value = getattr(args, field, None)
        if value is None:
            continue
        cfg = replace(cfg, **{field: caster(value)
                              if isinstance(value, str) else value})
    if cfg.fmt not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json (got {cfg.fmt!r})")
    if cfg.grid < 2:
        raise UsageError(f"--grid must be at least 2 (got {cfg.grid})")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand accepts only the flags it reads, spelled in full."""
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--alpha", help="rational shape parameter, e.g. 1/2")
    model.add_argument("--beta", help="rational shape parameter, beta > alpha")
    model.add_argument("--omega", help="oscillator frequency (float)")
    model.add_argument("--p", help="numerator of k = p/q")
    model.add_argument("--q", help="denominator of k = p/q")
    model.add_argument("--config", help="flat key=value config file")
    parser = argparse.ArgumentParser(
        prog="xsuperint",
        description="exactly verified deformed-oscillator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[model], help=help_text,
                              allow_abbrev=False)

    verify = command("verify", "run every check and print one verdict line each")
    verify.add_argument("--nmax", help="angular index range for sweeps")
    verify.add_argument("--mmax", help="radial index range for sweeps")
    verify.add_argument("--tol", help="residual tolerance for verify")
    verify.add_argument("--classical", action="store_const", const=True,
                        help="include classical drift/closure checks")
    spectrum = command("spectrum", "enumerate exact levels up to --emax")
    spectrum.add_argument("--emax", help="energy cutoff for the spectrum")
    spectrum.add_argument("--format", dest="fmt", choices=("csv", "json"),
                          help="table output format")
    export = command("export-wavefunction",
                     "write a wavefunction grid CSV + sidecar")
    export.add_argument("--m", help="radial index of the state")
    export.add_argument("--n", help="angular index of the state")
    export.add_argument("--rmax", help="radial grid extent")
    export.add_argument("--phi-max", dest="phi_max",
                        help="angular grid extent (must stay in the wedge)")
    orbit = command("orbit", "integrate a classical orbit, report closure")
    orbit.add_argument("--state", help="initial r,phi,p_r,p_phi")
    orbit.add_argument("--dt", help="integrator step")
    orbit.add_argument("--t-end", dest="t_end", help="integration horizon")
    for reader in (verify, export):
        reader.add_argument("--grid", help="grid points per axis")
    for writer in (spectrum, export, orbit):
        writer.add_argument("--out", help="output directory for files")
    return parser


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _eigen_identity_ok(alpha: Fraction, beta: Fraction, nmax: int) -> bool:
    op = angular_operator(alpha, beta)
    for n in range(1, nmax + 1):
        member = exceptional_jacobi_closed_form(n, alpha, beta)
        ev, _ = action_report(op, member, member)
        if ev != angular_eigenroot(n, alpha, beta) ** 2:
            return False
    return True


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.nmax < 2 or cfg.mmax < 1:
        raise UsageError(f"verify needs --nmax >= 2 (orthogonality compares "
                         f"two members) and --mmax >= 1 (got {cfg.nmax} and "
                         f"{cfg.mmax})")
    params = cfg.model_params()
    alpha, beta = params.alpha, params.beta
    print(f"verify: alpha = {alpha}, beta = {beta}, omega = {params.omega}, "
          f"k = {params.p}/{params.q}, tol = {fmt_float(cfg.tol)}")
    failed = False

    ok = _eigen_identity_ok(alpha, beta, cfg.nmax)
    failed |= not ok
    print(f"{'PASS' if ok else 'FAIL'} eigen-identity: operator reproduces "
          f"A_n^2 on every family member, n = 1..{cfg.nmax} (exact)")

    report = verification_report(alpha, beta, p=params.p, q=params.q,
                                 omega=params.omega, nmax=cfg.nmax,
                                 mmax=cfg.mmax)
    print(report.render())
    print(f"note: {len(report.mismatches())} reconciliation findings are "
          f"informational and do not affect the exit code")

    gram = angular_gram(alpha, beta, min(cfg.nmax, 6))
    off = float(max(abs(gram[i, j]) for i in range(gram.shape[0])
                    for j in range(gram.shape[1]) if i != j))
    ok = off < 1e-12
    failed |= not ok
    print(f"{'PASS' if ok else 'FAIL'} orthogonality: worst relative "
          f"off-diagonal Gram entry {fmt_float(off)} (limit 1e-12)")

    states = [QuantumState(m, n) for m in range(0, 2) for n in range(1, 3)]
    residuals = [hamiltonian_residual(s, params, nr=cfg.grid, nphi=cfg.grid)
                 for s in states]
    worst = max(residuals)
    ok = worst < cfg.tol
    failed |= not ok
    print(f"{'PASS' if ok else 'FAIL'} residual: worst relative Schrodinger "
          f"residual {fmt_float(worst)} over {len(states)} states "
          f"(limit {fmt_float(cfg.tol)})")

    up = ladder_numeric_check(QuantumState(params.p, 1), params, raising=True)
    down = ladder_numeric_check(QuantumState(0, 1 + params.q), params,
                                raising=False)
    ok = all(r.status == "OK" and r.deviation < 1e-8
             and r.ratio_error < 1e-10 for r in (up, down))
    failed |= not ok
    print(f"{'PASS' if ok else 'FAIL'} ladder closure: numeric images track "
          f"the exact coefficients (deviation "
          f"{fmt_float(max(up.deviation, down.deviation))}, ratio error "
          f"{fmt_float(max(up.ratio_error, down.ratio_error))})")

    if cfg.classical:
        model = ClassicalModel.from_model_params(params)
        seed = OrbitState(1.7, min(0.4, 0.5 * model.wedge_span), 0.3, 1.1)
        drift = conservation_drift(model, seed, 20)
        ok = max(drift.energy_drift, drift.invariant_drift) < 1e-8
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} classical conservation: drift "
              f"{fmt_float(max(drift.energy_drift, drift.invariant_drift))} "
              f"over 20 radial periods")
        closure = closure_report(model, seed,
                                 2.5 * params.q * model.radial_period)
        ok = closure.distance < 1e-6
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} classical closure: normalized "
              f"return distance {fmt_float(closure.distance)} at "
              f"t = {fmt_float(closure.time)}")

    return 1 if failed else 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _write_output(cfg: RunConfig, basename: str, text: str) -> None:
    if cfg.out is None:
        return
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, basename)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


#: Most states `spectrum` lists; a larger --emax is a usage error.
MAX_SPECTRUM_ROWS = 10 ** 6


def _spectrum_size(params: ModelParams, emax: float) -> float:
    """States with E <= emax in O(1), over by less than the number N of
    angular indices: sum over n <= N of (R - e_n)/2 + 1, R = emax/omega,
    e_n = k A_n + 1 = e_1 + 2k(n - 1); inf once N passes the cap."""
    k = params.k_float
    span = (emax / params.omega - 1
            - k * float(angular_eigenroot(1, params.alpha, params.beta)))
    if span / (2 * k) >= MAX_SPECTRUM_ROWS:
        return math.inf
    count = max(math.floor(span / (2 * k)) + 1, 0)
    return count * (span / 2 + 1) - k * count * (count - 1) / 2


def cmd_spectrum(cfg: RunConfig) -> int:
    if cfg.emax is None:
        raise UsageError("spectrum requires --emax")
    if not math.isfinite(cfg.emax):
        raise UsageError(f"--emax must be finite (got {cfg.emax})")
    params = cfg.model_params()
    if _spectrum_size(params, cfg.emax) > MAX_SPECTRUM_ROWS:
        raise UsageError(f"--emax {cfg.emax} admits more than "
                         f"{MAX_SPECTRUM_ROWS} states")
    levels = degeneracy_table(params, cfg.emax)
    rows = []
    for idx, level in enumerate(levels, 1):
        for state in sorted(level.states, key=lambda s: s.m):
            rows.append((state.m, state.n, str(level.ratio),
                         params.omega * float(level.ratio), idx))
    if cfg.fmt == "csv":
        lines = ["m,n,energy_ratio,energy,level"]
        lines += [f"{m},{n},{ratio},{fmt_float(e)},{lv}"
                  for m, n, ratio, e, lv in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "alpha": str(params.alpha), "beta": str(params.beta),
            "omega": params.omega, "p": params.p, "q": params.q,
            "emax": cfg.emax,
            "rows": [{"m": m, "n": n, "energy_ratio": ratio, "energy": e,
                      "level": lv} for m, n, ratio, e, lv in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    _write_output(cfg, f"spectrum.{cfg.fmt}", text)
    return 0


# ---------------------------------------------------------------------------
# export-wavefunction
# ---------------------------------------------------------------------------

def cmd_export_wavefunction(cfg: RunConfig) -> int:
    params = cfg.model_params()
    state = QuantumState(cfg.m, cfg.n)
    span = params.wedge_span
    phi_hi = cfg.phi_max if cfg.phi_max is not None else span
    if not 0 < phi_hi <= span:
        raise UsageError(
            f"angular grid extent {phi_hi} leaves the open wedge "
            f"(0, {span:.6g}) for k = {params.p}/{params.q}")
    rmax = cfg.rmax if cfg.rmax is not None else default_rmax(params)
    if rmax <= 0:
        raise UsageError(f"radial grid extent must be positive (got {rmax})")
    import numpy as np
    margin = 1e-3
    r = np.linspace(margin * rmax, rmax * (1 - margin), cfg.grid)
    phi = np.linspace(margin * phi_hi, phi_hi * (1 - margin), cfg.grid)
    psi = wavefunction_on_grid(state, params, r, phi)

    lines = ["r,phi,psi"]
    for i in range(cfg.grid):
        for j in range(cfg.grid):
            lines.append(f"{fmt_float(r[i])},{fmt_float(phi[j])},"
                         f"{fmt_float(psi[i, j])}")
    grid_text = "\n".join(lines) + "\n"
    sidecar = {
        "m": state.m, "n": state.n,
        "alpha": str(params.alpha), "beta": str(params.beta),
        "omega": params.omega, "p": params.p, "q": params.q,
        "energy": energy(state, params),
    }
    sidecar_text = json.dumps(sidecar, indent=2) + "\n"

    out_dir = cfg.out if cfg.out is not None else "."
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"wavefunction_m{state.m}_n{state.n}")
    with open(base + ".csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(grid_text)
    with open(base + ".json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sidecar_text)
    print(f"wrote {base}.csv")
    print(f"wrote {base}.json")
    return 0


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def cmd_orbit(cfg: RunConfig) -> int:
    params = cfg.model_params()
    model = ClassicalModel.from_model_params(params)
    if cfg.state is not None:
        start = OrbitState(*cfg.state)
    else:
        start = OrbitState(1.7, min(0.4, 0.5 * model.wedge_span), 0.3, 1.1)
    dt = cfg.dt if cfg.dt is not None else model.radial_period / 256
    t_end = (cfg.t_end if cfg.t_end is not None
             else 2.5 * params.q * model.radial_period)
    for flag, value in (("--dt", dt), ("--t-end", t_end)):
        if not (math.isfinite(value) and value > 0):
            raise UsageError(
                f"{flag} must be positive and finite (got {value})")
    if t_end < model.radial_period:
        raise UsageError(
            f"--t-end {t_end} is shorter than one radial period, pi/omega = "
            f"{fmt_float(model.radial_period)}: the orbit cannot return to "
            f"its start before then")

    e0 = classical_energy(model, start)
    l0 = angular_invariant(model, start)
    rows = [(0.0, start.r, start.phi, start.pr, start.pphi, e0, l0)]
    drift = [0.0, 0.0]

    def record(_step: int, t: float, st: tuple) -> None:
        obs = OrbitState(*st)
        e = classical_energy(model, obs)
        l1 = angular_invariant(model, obs)
        drift[0] = max(drift[0], abs(e - e0) / max(abs(e0), 1e-300))
        drift[1] = max(drift[1], abs(l1 - l0) / max(abs(l0), 1e-300))
        rows.append((t, obs.r, obs.phi, obs.pr, obs.pphi, e, l1))

    integrate(model, start, t_end, dt, callback=record)
    closure = closure_report(model, start, t_end)

    lines = ["t,r,phi,p_r,p_phi,H,L1"]
    lines += [",".join(fmt_float(v) for v in row) for row in rows]
    _write_output(cfg, "orbit.csv", "\n".join(lines) + "\n")
    print(f"orbit: {len(rows)} samples over t = {fmt_float(t_end)}, "
          f"dt = {fmt_float(dt)}")
    print(f"energy drift {fmt_float(drift[0])}, invariant drift "
          f"{fmt_float(drift[1])}, closure {fmt_float(closure.distance)} "
          f"at t = {fmt_float(closure.time)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:
            raise UsageError(f"{args.command} does not accept "
                             f"{' '.join(unknown)}")
        cfg = resolve_config(args)
        commands = {"verify": cmd_verify, "spectrum": cmd_spectrum,
                    "export-wavefunction": cmd_export_wavefunction,
                    "orbit": cmd_orbit}
        code = commands[args.command](cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): silence the final flush at
        # exit, as the SIGPIPE note in the Python `signal` docs suggests
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (UsageError, ParameterDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WedgeExitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, QuadratureError, OutOfFamilyError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
