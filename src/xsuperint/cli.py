"""Command-line front end: verification suites, spectra, wavefunction grids,
and classical orbits as reproducible batch runs.

Conventions enforced here rather than in the science modules:

  * alpha and beta cross the CLI boundary as exact rational strings ("3/2"),
    never floats — exactness is what makes the symbolic checks meaningful.
    Floats are accepted only for omega, tolerances, times, and grid extents.
  * each flag is declared once in FLAGS (caster, default, help) and each
    subcommand once in COMMANDS (help, the flags it reads).  One scanner over
    those tables reads the command line: `--flag value` and `--flag=value`
    alike, `--classical` as a switch, `-h`/`--help` as the tables' help (exit
    0).  A flag's value is the next word whatever it starts with, unless that
    word starts with "--", so `--alpha -1/2` reaches the value check.
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

import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .classical import (
    STEPS_PER_PERIOD,
    ClassicalModel,
    angular_invariant,
    classical_energy,
    default_start,
    scan_closure,
    trajectory,
    worst_pair_drift,
)
from .errors import ParameterDomainError, XSuperintError
from .params import ModelParams, QuantumState, energy, laguerre_parameter
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


class HelpRequested(Exception):
    """-h or --help: carries the help text to print, exit 0."""


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


def int_range(low: Optional[int], high: Optional[int] = None
              ) -> Callable[[str], int]:
    """Caster of an int in [low, high]; a None bound is no bound."""
    def cast(text: str) -> int:
        value = int(text)
        if low is not None and value < low:
            raise ValueError(f"must be at least {low}")
        if high is not None and value > high:
            raise ValueError(f"must be at most {high}")
        return value
    return cast


#: Most rows one command may compute: `spectrum` states, `orbit` steps,
#: `verify` and `export-wavefunction` grid points; more is a usage error.
MAX_ROWS = 10 ** 6


#: Largest p and q `verify` accepts.  On a 2-core machine (nproc = 2) a
#: fresh `verify` at the default (alpha, beta) = (1, 3) takes 0.22 s at
#: k = 1, 0.20 s at 6/1 and at 5/6, 0.21 s at 1/8 and 0.22 s at 7/8 (least
#: of 21 fresh processes, in three rounds of 7).  The cap is set by the
#: float ladder-closure gate, which fails at k = 15/16, not by cost.
MAX_VERIFY_PQ = 8

#: Largest `verify --nmax` and `--mmax`.  A fresh `verify` at the default
#: point takes 0.52 s at nmax = 40, 0.46 s at mmax = 120 and 0.53 s at both
#: (least of 21 fresh processes, in three rounds of 7), and 1.25 s at both
#: with p = 8 (least of 14), with nproc = 2; nmax = 100 took 8.1 s and
#: mmax = 1000 92 s when last measured (least of 3).
MAX_VERIFY_NMAX = 40
MAX_VERIFY_MMAX = 120

#: Largest `export-wavefunction --m` and `--n`.  With --grid 4 the export
#: takes 0.49 s at m = 3000, and took 12.9 s at m = 10^4 when last measured,
#: where the float radial evaluation overflows; n = 300 takes 1.83 s at
#: --rmax 1 (the exact angular solve is cubic in n) and fails the
#: radial-gauge range check at the default rmax, as n = 250 already does
#: (least of 21 fresh processes, in three rounds of 7, nproc = 2).
MAX_EXPORT_M = 3000
MAX_EXPORT_N = 300


def grid_size(text: str) -> int:
    value = int_range(2)(text)
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
    "nmax": Flag(int_range(2, MAX_VERIFY_NMAX), 6,
                 "angular index range for sweeps"),
    "mmax": Flag(int_range(1, MAX_VERIFY_MMAX), 6,
                 "radial index range for sweeps"),
    "tol": Flag(positive, 1e-9, "residual tolerance for verify"),
    "classical": Flag(parse_bool, False,
                      "include classical drift/closure checks"),
    "emax": Flag(finite, None, "energy cutoff for the spectrum"),
    "format": Flag(table_format, "csv", "table output format: csv or json"),
    "m": Flag(int_range(None, MAX_EXPORT_M), 0, "radial index of the state"),
    "n": Flag(int_range(None, MAX_EXPORT_N), 1, "angular index of the state"),
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


def _spelled(name: str) -> str:
    """The flag of a config key: "phi_max" -> "--phi-max"."""
    return "--" + name.replace("_", "-")


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


def resolve_config(command: str, given: dict[str, str]) -> SimpleNamespace:
    """Layer defaults <- config file <- explicit flags, casting each value
    with its flag's caster.  `given` is the scanner's text per flag; a config
    key must name a flag of the subcommand."""
    names = MODEL_FLAGS + COMMANDS[command][1]
    texts = []
    if "config" in given:
        for key, text in load_config_file(given["config"]).items():
            name = key.replace("-", "_")
            if name not in names:
                raise UsageError(f"{command} does not accept config "
                                 f"key {key!r}")
            texts.append((name, text))
    texts += [(name, given[name]) for name in names if name in given]
    cfg = SimpleNamespace(**{name: FLAGS[name].default for name in names})
    for name, text in texts:
        try:
            setattr(cfg, name, FLAGS[name].cast(text))
        except (ValueError, ArithmeticError) as exc:
            raise UsageError(f"bad value for {_spelled(name)}: "
                             f"{text!r} ({exc})")
    return cfg


#: the flag names each subcommand reads, `config` included
_READS = {command: ("config",) + MODEL_FLAGS + own
          for command, (_, own) in COMMANDS.items()}
_NAMES = {_spelled(name): name for name in ("config", *FLAGS)}
_SWITCHES = {name for name, flag in FLAGS.items() if flag.cast is parse_bool}
_HELP = ("-h", "--help")


def help_text(command: Optional[str] = None) -> str:
    """The usage of one subcommand, or of all of them, from the tables."""
    lines = [f"usage: xsuperint {command or 'COMMAND'} "
             f"[--flag VALUE | --flag=VALUE ...]", ""]
    if command is None:
        lines += ["exactly verified deformed-oscillator toolkit", "",
                  "commands:"]
        for name, (text, own) in COMMANDS.items():
            lines += [f"  {name:<21}{text}",
                      f"  {'':<21}flags: " + " ".join(map(_spelled, own))]
        lines += ["", "model flags, read by every command: "
                  + " ".join(map(_spelled, ("config",) + MODEL_FLAGS)),
                  "xsuperint COMMAND --help lists a command's flags"]
    else:
        lines += [COMMANDS[command][0], "", "flags:"]
        for name in _READS[command]:
            text = ("flat key=value config file" if name == "config"
                    else FLAGS[name].help)
            lines.append(f"  {_spelled(name):<21}{text}")
    return "\n".join(lines) + "\n"


def scan(argv: Sequence[str]) -> tuple[str, dict[str, str]]:
    """(subcommand, {flag name: text given}) from the command line, over
    the COMMANDS and FLAGS tables; the last of a repeated flag wins.  Raises
    HelpRequested at -h or --help, and UsageError at a missing or unknown
    subcommand, a flag with no value, or any word the subcommand does not
    read."""
    if argv and argv[0] in _HELP:
        raise HelpRequested(help_text())
    choices = "choose one of " + ", ".join(COMMANDS)
    if not argv:
        raise UsageError(f"missing subcommand: {choices}")
    command, words = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        raise UsageError(f"unknown subcommand {command!r}: {choices}")
    given: dict[str, str] = {}
    unknown = []
    for word in words:
        if word in _HELP:
            raise HelpRequested(help_text(command))
        flag, eq, text = word.partition("=")
        name = _NAMES.get(flag)
        if name not in _READS[command]:
            unknown.append(word)
        elif name in _SWITCHES:
            if eq:
                raise UsageError(f"{flag} is a switch and takes no value")
            given[name] = "true"
        elif eq:
            given[name] = text
        else:
            text = next(words, None)
            if text is None or text.startswith("--"):
                raise UsageError(f"{flag} needs a value")
            given[name] = text
    if unknown:
        raise UsageError(f"{command} does not accept {' '.join(unknown)}")
    return command, given


def model_params(cfg: SimpleNamespace) -> ModelParams:
    return ModelParams(alpha=cfg.alpha, beta=cfg.beta, omega=cfg.omega,
                       p=cfg.p, q=cfg.q)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: SimpleNamespace) -> int:
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


def _spectrum_size(params: ModelParams, emax: float) -> Fraction | float:
    """States with E <= emax in O(1), over by less than the number N of
    angular indices: sum over n <= N of (R - e_n)/2 + 1, on the exact
    R = emax/omega that `degeneracy_table` reads, e_n = k A_n + 1
    = e_1 + 2k(n - 1); inf once N passes the cap."""
    k = params.k
    span = (Fraction(emax) / Fraction(params.omega)
            - laguerre_parameter(1, params) - 1)
    if span / (2 * k) >= MAX_ROWS:
        return math.inf
    count = max(math.floor(span / (2 * k)) + 1, 0)
    return count * (span / 2 + 1) - k * count * (count - 1) / 2


def cmd_spectrum(cfg: SimpleNamespace) -> int:
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

def cmd_export_wavefunction(cfg: SimpleNamespace) -> int:
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

def cmd_orbit(cfg: SimpleNamespace) -> int:
    params = model_params(cfg)
    model = ClassicalModel.from_model_params(params)
    start = cfg.state if cfg.state is not None else default_start(model)
    if not (start[0] > 0 and 0 < start[1] < model.wedge_span):
        raise UsageError(
            f"initial state (r, phi) = ({start[0]}, {start[1]}) leaves the "
            f"open wedge r > 0, 0 < phi < {model.wedge_span:.6g} for "
            f"k = {params.p}/{params.q}")
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
    pairs = [(classical_energy(model, st), angular_invariant(model, st))
             for _, st in samples]
    drift = worst_pair_drift(pairs)
    closure = scan_closure(model, samples, dt)

    if cfg.out is not None:
        lines = ["t,r,phi,p_r,p_phi,H,L1"]
        for (t, st), pair in zip(samples, pairs):
            lines.append(",".join(fmt_float(v) for v in (t, *st, *pair)))
        print(_write_output(cfg.out, "orbit.csv", "\n".join(lines) + "\n"))
    print(f"orbit: {len(samples)} samples over t = {fmt_float(t_end)}, "
          f"dt = {fmt_float(dt)}")
    print(f"energy drift {fmt_float(drift[0])}, invariant drift "
          f"{fmt_float(drift[1])}, closure {fmt_float(closure.distance)} "
          f"at t = {fmt_float(closure.time)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, given = scan(sys.argv[1:] if argv is None else argv)
        code = COMMAND_RUNNERS[command](resolve_config(command, given))
        sys.stdout.flush()
        return code
    except HelpRequested as exc:
        sys.stdout.write(str(exc))
        return 0
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


COMMAND_RUNNERS = {"verify": cmd_verify, "spectrum": cmd_spectrum,
                   "export-wavefunction": cmd_export_wavefunction,
                   "orbit": cmd_orbit}
