"""Command-line front end: verification suites, spectra, wavefunction grids,
and classical orbits as reproducible batch runs.

Conventions enforced here rather than in the science modules:

  * alpha and beta cross the CLI boundary as exact rational strings ("3/2"),
    never floats — exactness is what makes the symbolic checks meaningful.
    Floats are accepted only for omega, tolerances, times, and grid extents.
  * each flag is declared once in FLAGS (caster, default, help); the
    subcommand parsers are built from it.
  * a config file is flat ``key=value`` lines, each naming a flag of the
    subcommand; explicit flags override it.  Config and flag values are cast
    by the same casters, so a malformed number or a non-finite float (NaN,
    inf) is a usage error either way and never reaches the science modules.
  * CSV output is comma-separated with a header row, LF line endings, and
    floats printed to 17 significant digits.
  * identical configuration must produce byte-identical output files.
  * `verify` makes no verdict here: it prints `verify.verification_report`'s
    rendering and exits with the report's code.

Exit codes: 0 all checks passed (reconciliation MISMATCH lines are findings,
not failures), 1 a gate failed or any other package error (the orbit left
the wedge, an evaluation would overflow, ...), printed as one ``error:``
line, 2 usage/config error or parameters outside the domain.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .classical import (
    STEPS_PER_PERIOD,
    ClassicalModel,
    angular_invariant,
    classical_energy,
    default_start,
    scan_closure,
    trajectory,
    worst_drift,
)
from .errors import ParameterDomainError, XSuperintError
from .params import ModelParams, QuantumState, angular_eigenroot, energy
from .polynomials import as_fraction
# angular_gram is not used here: `xsuperint.cli.angular_gram` is the first
# call of the benchmark's set-up (benchmarks/run.py), timed as first use
from .spectral import (
    angular_gram,
    default_rmax,
    degeneracy_table,
    interior_grid,
    wavefunction_on_grid,
)
from .utils import fmt_float
from .verify import verification_report


class UsageError(Exception):
    """Bad flags, bad config file, or a config that names no valid model."""


def parse_rational(text: str) -> Fraction:
    return as_fraction(text.strip())


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def positive(text: str) -> float:
    value = finite(text)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def at_least(low: int) -> Callable[[str], int]:
    def cast(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value
    return cast


#: Most rows one command may compute: `spectrum` states, `orbit` steps,
#: `verify` and `export-wavefunction` grid points; more is a usage error.
MAX_ROWS = 10 ** 6


#: Largest p and q `verify` accepts.  On a 2-core machine a fresh `verify`
#: at the default (alpha, beta) = (1, 3) takes 0.42 s at k = 6/1, 0.41 s at
#: 5/6, 0.44 s at 1/8 and 0.43 s at 7/8 (least of 7 runs).  The cap is set
#: by the float ladder-closure gate, which fails at k = 15/16, not by cost.
MAX_VERIFY_PQ = 8


def grid_size(text: str) -> int:
    value = at_least(2)(text)
    if value * value > MAX_ROWS:
        raise ValueError(f"grid^2 must be at most {MAX_ROWS}")
    return value


def table_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError("must be csv or json")
    return text


def parse_state(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("initial state must be r,phi,p_r,p_phi")
    return tuple(finite(part) for part in parts)


def out_dir(text: str) -> str:
    if os.path.exists(text) and not os.path.isdir(text):
        raise ValueError("exists and is not a directory")
    return text


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


class Flag(NamedTuple):
    cast: Callable[[str], Any]
    default: Any
    help: str


#: Every flag once, by its config key (the flag without "--", "_" for "-").
#: omega is a plain float: ModelParams rejects a non-positive or non-finite one.
FLAGS = {
    "alpha": Flag(parse_rational, Fraction(1),
                  "rational shape parameter, e.g. 1/2"),
    "beta": Flag(parse_rational, Fraction(3),
                 "rational shape parameter, beta > alpha"),
    "omega": Flag(float, 1.0, "oscillator frequency (float)"),
    "p": Flag(int, 1, "numerator of k = p/q"),
    "q": Flag(int, 1, "denominator of k = p/q"),
    "nmax": Flag(at_least(2), 6, "angular index range for sweeps"),
    "mmax": Flag(at_least(1), 6, "radial index range for sweeps"),
    "tol": Flag(positive, 1e-9, "residual tolerance for verify"),
    "classical": Flag(parse_bool, False,
                      "include classical drift/closure checks"),
    "emax": Flag(finite, None, "energy cutoff for the spectrum"),
    "format": Flag(table_format, "csv", "table output format: csv or json"),
    "m": Flag(int, 0, "radial index of the state"),
    "n": Flag(int, 1, "angular index of the state"),
    "rmax": Flag(positive, None, "radial grid extent"),
    "phi_max": Flag(finite, None,
                    "angular grid extent (must stay in the wedge)"),
    "state": Flag(parse_state, None, "initial r,phi,p_r,p_phi"),
    "dt": Flag(positive, None, "integrator step"),
    "t_end": Flag(positive, None, "integration horizon"),
    "grid": Flag(grid_size, 40, "grid points per axis"),
    "out": Flag(out_dir, None, "output directory for files"),
}

MODEL_FLAGS = ("alpha", "beta", "omega", "p", "q")
#: subcommand -> (help, the flags it reads besides the model flags)
COMMANDS = {
    "verify": ("run every check and print one verdict line each",
               ("nmax", "mmax", "tol", "classical", "grid")),
    "spectrum": ("enumerate exact levels up to --emax",
                 ("emax", "format", "out")),
    "export-wavefunction": ("write a wavefunction grid CSV + sidecar",
                            ("m", "n", "rmax", "phi_max", "grid", "out")),
    "orbit": ("integrate a classical orbit, report closure",
              ("state", "dt", "t_end", "out")),
}


def load_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(
                f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Layer defaults <- config file <- explicit flags, casting each value
    with its flag's caster.  A config key must name a flag of the
    subcommand, i.e. a field its parser set on `args`."""
    names = [name for name in vars(args) if name in FLAGS]
    given = []
    if args.config:
        for key, text in load_config_file(args.config).items():
            name = key.replace("-", "_")
            if name not in names:
                raise UsageError(f"{args.command} does not accept config "
                                 f"key {key!r}")
            given.append((name, text))
    given += [(name, getattr(args, name)) for name in names
              if getattr(args, name) is not None]
    cfg = argparse.Namespace(**{name: FLAGS[name].default for name in names})
    for name, text in given:
        try:
            setattr(cfg, name, FLAGS[name].cast(text))
        except (ValueError, ArithmeticError) as exc:
            raise UsageError(f"bad value for --{name.replace('_', '-')}: "
                             f"{text!r} ({exc})")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand accepts only the flags it reads, spelled in full.
    Values stay strings here; resolve_config casts them."""
    parser = argparse.ArgumentParser(
        prog="xsuperint",
        description="exactly verified deformed-oscillator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, own) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
        cmd.add_argument("--config", help="flat key=value config file")
        for name in MODEL_FLAGS + own:
            switch = ({"action": "store_const", "const": "true"}
                      if FLAGS[name].cast is parse_bool else {})
            cmd.add_argument("--" + name.replace("_", "-"),
                             help=FLAGS[name].help, **switch)
    return parser


def model_params(cfg: argparse.Namespace) -> ModelParams:
    return ModelParams(alpha=cfg.alpha, beta=cfg.beta, omega=cfg.omega,
                       p=cfg.p, q=cfg.q)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: argparse.Namespace) -> int:
    params = model_params(cfg)
    if max(params.p, params.q) > MAX_VERIFY_PQ:
        raise ParameterDomainError(
            f"verify builds exact p- and q-fold ladder chains: p and q must "
            f"each be at most {MAX_VERIFY_PQ} (got p = {params.p}, "
            f"q = {params.q})")
    report = verification_report(
        params.alpha, params.beta, params.p, params.q, cfg.nmax, cfg.mmax,
        omega=params.omega, tol=cfg.tol, grid=cfg.grid,
        classical=cfg.classical)
    print(report.render())
    if report.error is not None:
        raise report.error
    return report.exit_code


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _write_output(out: str, basename: str, text: str) -> str:
    """Write `text` to out/basename, creating the directory; returns the
    line that says so."""
    path = os.path.join(out, basename)
    try:
        os.makedirs(out, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise XSuperintError(f"cannot write {path}: {exc}")
    return f"wrote {path}"


def _spectrum_size(params: ModelParams, emax: float) -> float:
    """States with E <= emax in O(1), over by less than the number N of
    angular indices: sum over n <= N of (R - e_n)/2 + 1, R = emax/omega,
    e_n = k A_n + 1 = e_1 + 2k(n - 1); inf once N passes the cap.  Raises
    ParameterDomainError when R or e_1 is not a finite float."""
    k = params.k_float
    span = (emax / params.omega - 1
            - k * float(angular_eigenroot(1, params.alpha, params.beta)))
    if not math.isfinite(span):
        raise ParameterDomainError(
            f"--emax / omega and the lowest level k A_1 + 1 must be finite "
            f"floats (emax = {emax}, omega = {params.omega}, "
            f"k = {k:.6g})")
    if span / (2 * k) >= MAX_ROWS:
        return math.inf
    count = max(math.floor(span / (2 * k)) + 1, 0)
    return count * (span / 2 + 1) - k * count * (count - 1) / 2


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    if cfg.emax is None:
        raise UsageError("spectrum requires --emax")
    params = model_params(cfg)
    if _spectrum_size(params, cfg.emax) > MAX_ROWS:
        raise UsageError(f"--emax {cfg.emax} admits more than "
                         f"{MAX_ROWS} states")
    levels = degeneracy_table(params, cfg.emax)
    rows = []
    for idx, level in enumerate(levels, 1):
        for state in sorted(level.states, key=lambda s: s.m):
            rows.append((state.m, state.n, str(level.ratio), level.energy,
                         idx))
    if cfg.format == "csv":
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
    shown = text
    if cfg.out is not None:
        shown += _write_output(cfg.out, f"spectrum.{cfg.format}", text) + "\n"
    sys.stdout.write(shown)
    return 0


# ---------------------------------------------------------------------------
# export-wavefunction
# ---------------------------------------------------------------------------

def cmd_export_wavefunction(cfg: argparse.Namespace) -> int:
    params = model_params(cfg)
    state = QuantumState(cfg.m, cfg.n)
    span = params.wedge_span
    phi_hi = cfg.phi_max if cfg.phi_max is not None else span
    if not 0 < phi_hi <= span:
        raise UsageError(
            f"angular grid extent {phi_hi} leaves the open wedge "
            f"(0, {span:.6g}) for k = {params.p}/{params.q}")
    rmax = cfg.rmax if cfg.rmax is not None else default_rmax(params)
    r, phi = interior_grid(rmax, phi_hi, cfg.grid, 1e-3)
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

    out = cfg.out if cfg.out is not None else "."
    base = f"wavefunction_m{state.m}_n{state.n}"
    print(_write_output(out, base + ".csv", grid_text))
    print(_write_output(out, base + ".json", sidecar_text))
    return 0


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def cmd_orbit(cfg: argparse.Namespace) -> int:
    params = model_params(cfg)
    model = ClassicalModel.from_model_params(params)
    start = cfg.state if cfg.state is not None else default_start(model)
    dt = (cfg.dt if cfg.dt is not None
          else model.radial_period / STEPS_PER_PERIOD)
    t_end = (cfg.t_end if cfg.t_end is not None
             else 2.5 * params.q * model.radial_period)
    if t_end < model.radial_period:
        raise UsageError(
            f"--t-end {t_end} is shorter than one radial period, pi/omega = "
            f"{fmt_float(model.radial_period)}: the orbit cannot return to "
            f"its start before then")
    if not t_end / dt <= MAX_ROWS:
        raise UsageError(f"the orbit to t = {t_end} at dt = {dt} takes "
                         f"more than {MAX_ROWS} steps")

    samples = [(0.0, start)]
    samples += trajectory(model, start, t_end, dt)
    drift = worst_drift(model, start, (st for _, st in samples))
    closure = scan_closure(model, samples, dt)

    if cfg.out is not None:
        lines = ["t,r,phi,p_r,p_phi,H,L1"]
        for t, st in samples:
            row = (t, *st, classical_energy(model, st),
                   angular_invariant(model, st))
            lines.append(",".join(fmt_float(v) for v in row))
        print(_write_output(cfg.out, "orbit.csv", "\n".join(lines) + "\n"))
    print(f"orbit: {len(samples)} samples over t = {fmt_float(t_end)}, "
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
    except XSuperintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
