"""Command-line entry points, exercised in-process through cli.main."""

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xsuperint
from xsuperint import classical, cli, verify
from xsuperint.classical import (ClassicalModel, OrbitState, closure_report,
                                 scan_closure, trajectory)
from xsuperint.cli import COMMANDS, MODEL_FLAGS, fmt_float, main, scan
from xsuperint.errors import QuadratureError
from xsuperint.params import ModelParams, QuantumState, energy_ratio
from xsuperint.spectral import degeneracy_table
from xsuperint.verify import verification_report


def run_cli(*argv):
    """Invoke the CLI and capture (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_verify_passes_and_reports_mismatches():
    code, out, err = run_cli("verify", "--nmax", "4", "--mmax", "4")
    assert code == 0, err
    assert "PASS eigen-identity" in out
    assert "PASS orthogonality" in out
    assert "PASS residual" in out
    assert "PASS ladder closure" in out
    # the reconciliation findings are printed but informational
    assert "[MISMATCH]" in out
    assert "-1/2*x + 3/2" in out and "x + 2" in out
    assert "FAIL" not in out


def test_verify_impossible_tolerance_fails():
    code, out, _ = run_cli("verify", "--tol", "1e-16", "--nmax", "3",
                           "--mmax", "3")
    assert code == 1
    assert "FAIL residual" in out


@pytest.mark.parametrize("argv,options,code", [
    ((), {}, 0),
    (("--classical",), {"classical": True}, 0),
    (("--tol", "1e-16"), {"tol": 1e-16}, 1),
])
def test_verify_prints_the_report_and_exits_with_its_code(argv, options,
                                                          code):
    report = verification_report(1, 3, **options)
    assert report.exit_code == code
    assert run_cli("verify", *argv) == (code, report.render() + "\n", "")


def test_verify_check_that_raises_ends_the_report(monkeypatch):
    # the lines measured before the check are printed, then its error
    def unconverged(*args):
        raise QuadratureError("no convergence")
    monkeypatch.setattr(verify, "angular_gram", unconverged)
    report = verification_report(1, 3, nmax=3, mmax=2)
    assert isinstance(report.error, QuadratureError)
    assert report.exit_code == 1
    code, out, err = run_cli("verify", "--nmax", "3", "--mmax", "2")
    assert (code, out, err) == (1, report.render() + "\n",
                                "error: no convergence\n")
    assert out.splitlines()[-1].startswith("note: ")


def test_equal_parameters_rejected():
    code, _, err = run_cli("verify", "--alpha", "3", "--beta", "3")
    assert code == 2
    assert "error:" in err


def test_spectrum_requires_emax():
    code, _, err = run_cli("spectrum")
    assert code == 2
    assert "emax" in err


def test_spectrum_rows():
    code, out, _ = run_cli("spectrum", "--alpha", "1", "--beta", "2",
                           "--emax", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,energy_ratio,energy,level"
    first = lines[1].split(",")
    assert (first[0], first[1], first[2]) == ("0", "1", "5")
    levels = {}
    for ln in lines[1:]:
        m, n, ratio, _e, lv = ln.split(",")
        levels.setdefault(lv, []).append((int(m), int(n)))
    assert sorted(len(v) for v in levels.values()) == [1, 2, 3, 4]


def test_spectrum_empty_range():
    code, out, _ = run_cli("spectrum", "--emax", "1")
    assert code == 0
    assert out.strip() == "m,n,energy_ratio,energy,level"


def test_spectrum_json_keys():
    code, out, _ = run_cli("spectrum", "--emax", "10", "--format", "json",
                           "--alpha", "3/2", "--beta", "7/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "3/2" and payload["beta"] == "7/2"
    assert all(set(row) == {"m", "n", "energy_ratio", "energy", "level"}
               for row in payload["rows"])


def test_spectrum_rational_round_trip():
    code, out, _ = run_cli("spectrum", "--alpha", "1/2", "--beta", "5/2",
                           "--emax", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "1/2"
    # all energy ratios parse back exactly
    from fractions import Fraction
    for row in payload["rows"]:
        Fraction(row["energy_ratio"])


def test_export_wavefunction(tmp_path):
    out_dir = str(tmp_path / "wf")
    code, out, _ = run_cli("export-wavefunction", "--m", "0", "--n", "1",
                           "--grid", "12", "--out", out_dir)
    assert code == 0
    csv_path = os.path.join(out_dir, "wavefunction_m0_n1.csv")
    json_path = os.path.join(out_dir, "wavefunction_m0_n1.json")
    assert os.path.exists(csv_path) and os.path.exists(json_path)
    with open(csv_path) as fh:
        text = fh.read()
    lines = text.strip().splitlines()
    assert lines[0] == "r,phi,psi"
    assert len(lines) == 1 + 12 * 12
    vals = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(v > 0 for v in vals) or all(v < 0 for v in vals)
    with open(json_path) as fh:
        sidecar = json.load(fh)
    assert set(sidecar) == {"m", "n", "alpha", "beta", "omega", "p", "q",
                            "energy"}
    assert sidecar["alpha"] == "1"

    # byte-identical re-run
    code2, _, _ = run_cli("export-wavefunction", "--m", "0", "--n", "1",
                          "--grid", "12", "--out", out_dir)
    assert code2 == 0
    with open(csv_path) as fh:
        assert fh.read() == text


def test_export_rejects_bad_state(tmp_path):
    code, _, err = run_cli("export-wavefunction", "--m", "0", "--n", "0",
                           "--out", str(tmp_path))
    assert code == 2
    assert "error:" in err


def test_export_rejects_out_of_wedge(tmp_path):
    code, _, err = run_cli("export-wavefunction", "--m", "0", "--n", "1",
                           "--phi-max", "3.0", "--out", str(tmp_path))
    assert code == 2
    assert "wedge" in err


def test_orbit_summary(tmp_path):
    out_dir = str(tmp_path / "orb")
    code, out, _ = run_cli("orbit", "--out", out_dir)
    assert code == 0
    assert "energy drift" in out and "closure" in out
    with open(os.path.join(out_dir, "orbit.csv")) as fh:
        header = fh.readline().strip()
    assert header == "t,r,phi,p_r,p_phi,H,L1"


def test_orbit_wedge_exit_is_reported(tmp_path):
    code, _, err = run_cli("orbit", "--state", "1.0,0.001,0.0,-3.0",
                           "--out", str(tmp_path))
    assert code == 1
    assert "error:" in err


def test_orbit_integrates_once(monkeypatch, tmp_path):
    # the table, the drift and the closure scan read one integration; only
    # the closure's fine pass (two coarse steps at 64 sub-steps) steps again
    real = classical._rk8_stream
    calls = []

    def counting(*args):
        for out in real(*args):
            calls.append(args)
            yield out

    monkeypatch.setattr(classical, "_rk8_stream", counting)
    code, _, err = run_cli("orbit", "--out", str(tmp_path))
    assert code == 0, err
    with open(tmp_path / "orbit.csv") as fh:
        steps = len(fh.readlines()) - 2         # the header and the start
    assert steps == 640
    assert len(calls) == steps + 2 * 64


def test_orbit_evaluates_each_sample_once(monkeypatch, tmp_path):
    # the drift and the table's H and L1 columns read one evaluation of
    # each sample, the start among them, wherever the command calls them
    calls = {}
    for name in ("classical_energy", "angular_invariant"):
        def counting(model, state, real=getattr(classical, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(model, state)
        for module in (classical, cli):
            monkeypatch.setattr(module, name, counting, raising=False)
    code, _, err = run_cli("orbit", "--out", str(tmp_path))
    assert code == 0, err
    with open(tmp_path / "orbit.csv") as fh:
        samples = len(fh.readlines()) - 1           # the header
    assert samples == 641
    assert calls == {"classical_energy": samples,
                     "angular_invariant": samples}


def test_orbit_prints_the_same_without_out(tmp_path):
    # without --out no table is built, and the summary does not depend on it
    code, bare, err = run_cli("orbit", "--alpha", "1/2", "--beta", "5/2",
                              "--p", "2", "--q", "3")
    assert code == 0, err
    code, out, err = run_cli("orbit", "--alpha", "1/2", "--beta", "5/2",
                             "--p", "2", "--q", "3", "--out", str(tmp_path))
    assert code == 0, err
    assert out.splitlines()[1:] == bare.splitlines()
    assert "closure" in bare.splitlines()[-1]


def test_orbit_closure_scans_its_own_samples():
    # off the default step the closure line is the scan of the orbit the
    # command integrated, not of a re-integration at pi/(256 omega)
    code, out, err = run_cli("orbit", "--dt", "0.01")
    assert code == 0, err
    model = ClassicalModel.from_model_params(ModelParams(1, 3))
    start = OrbitState(1.7, 0.4, 0.3, 1.1)
    t_end = 2.5 * model.radial_period
    samples = [(0.0, start)]
    samples += trajectory(model, start, t_end, 0.01)
    own = scan_closure(model, samples, 0.01)
    assert own.time != closure_report(model, start, t_end).time
    assert out.splitlines()[-1].endswith(
        f"closure {fmt_float(own.distance)} at t = {fmt_float(own.time)}")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
def test_orbit_reports_no_closure_it_cannot_resolve():
    # one RK8 step covers the whole run and the energy drifts by 3.9e8, so
    # the run resolves no return to its start: a closure of 0 is not one
    _, out, _ = run_cli("orbit", "--dt", "10")
    last = out.splitlines()[-1]
    distance = float(last.split("closure ")[1].split(" at t = ")[0])
    assert distance > 1e-6


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1/2\nbeta = 5/2\nemax = 9\n# comment\n")
    code, out, _ = run_cli("spectrum", "--config", str(cfg))
    assert code == 0
    # at (1/2, 5/2) the ground ratio is 5; the default pair would give 6
    assert "0,1,5,5,1" in out
    code2, out2, _ = run_cli("spectrum", "--config", str(cfg),
                             "--emax", "1")
    assert code2 == 0
    assert out2.strip() == "m,n,energy_ratio,energy,level"


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alhpa = 1\n")
    code, _, err = run_cli("verify", "--config", str(cfg))
    assert code == 2
    assert "alhpa" in err


@pytest.mark.parametrize("argv,config,text", [
    (("orbit", "--state", "1,2,3"), None,
     "bad value for --state: '1,2,3' (initial state must be "
     "r,phi,p_r,p_phi)"),
    (("verify", "--config", "{cfg}"), "nmax 4",
     "{cfg}:1: expected key=value, got 'nmax 4'"),
    (("verify", "--config", "{cfg}"), "classical = maybe",
     "bad value for --classical: 'maybe' (not a boolean)"),
    # no file at the config path
    (("verify", "--config", "{cfg}"), None, "config file not found: {cfg}"),
], ids=["state", "config-line", "config-bool", "config-missing"])
def test_usage_error_is_one_line(argv, config, text, tmp_path):
    # exit 2, nothing on stdout and the one error line naming the input
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config + "\n")
    argv = [arg.format(cfg=cfg) for arg in argv]
    assert run_cli(*argv) == (2, "", f"error: {text.format(cfg=cfg)}\n")


def test_classical_off_in_a_config_file_runs_the_plain_scorecard(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classical = off\n")
    argv = ("verify", "--nmax", "3", "--mmax", "2")
    code, out, err = run_cli(*argv, "--config", str(cfg))
    assert (code, out, err) == run_cli(*argv)
    assert code == 0 and "classical" not in out


@st.composite
def spectrum_points(draw):
    """A model and an --emax: half of them a level's energy omega * E/omega
    as a float, or the float next to it on either side."""
    alpha = Fraction(draw(st.integers(1, 10)), draw(st.integers(1, 10)))
    beta = alpha + Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 10)))
    p, q = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 2), (2, 3),
                                 (5, 3), (3, 4)]))
    omega = draw(st.floats(0.1, 4.0))
    params = ModelParams(alpha, beta, omega=omega, p=p, q=q)
    if draw(st.booleans()):
        state = QuantumState(draw(st.integers(0, 4)), draw(st.integers(1, 3)))
        emax = omega * float(energy_ratio(state, params))
        emax = draw(st.sampled_from([emax, math.nextafter(emax, 0.0),
                                     math.nextafter(emax, math.inf)]))
    else:
        emax = draw(st.floats(-1.0, 40.0))
    return params, emax


@given(spectrum_points())
# emax / omega in floats lands just below the level at these two
@example((ModelParams(Fraction(3, 2), Fraction(69, 2), omega=0.5, p=5, q=3),
          33.0))
@example((ModelParams(Fraction(8, 5), Fraction(33, 10), omega=0.37, p=3,
                      q=4), 2.00725))
@settings(max_examples=100, deadline=None)
def test_spectrum_size_overcounts_by_less_than_the_angular_indices(point):
    # n <= estimate < n + N: n states in the table, N angular indices
    params, emax = point
    states = [s for level in degeneracy_table(params, emax)
              for s in level.states]
    angular = len({s.n for s in states})
    size = cli._spectrum_size(params, emax)
    assert len(states) <= size < len(states) + max(angular, 1)


def test_spectrum_with_a_lowest_level_past_float_range_is_empty():
    # k A_1 is past float range here, so no level lies below --emax
    code, out, err = run_cli("spectrum", "--p", "7" + "0" * 307, "--emax",
                             "5")
    assert (code, out, err) == (0, "m,n,energy_ratio,energy,level\n", "")


def test_bad_rational_flag():
    code, _, err = run_cli("spectrum", "--alpha", "1.5.2", "--emax", "5")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("orbit", "--dt", "0"),
    ("orbit", "--t-end", "-1"),
    ("spectrum", "--emax", "nan"),
    ("spectrum", "--emax", "inf"),
    ("verify", "--nmax", "0"),
    ("verify", "--mmax", "0"),
    ("verify", "--mmax", "-1"),
    ("spectrum", "--dt", "1"),
    ("verify", "--format", "json"),
    ("spectrum", "--emax", "1e308"),
    ("spectrum", "--emax", "5", "--config", "dt = 0.5"),
    ("verify", "--config", "format = json"),
    ("orbit", "--t-end", "1"),
    ("verify", "--p", "1.5"),
    ("verify", "--nmax", "x"),
    ("spectrum", "--emax", "abc"),
    ("export-wavefunction", "--grid", "1.5", "--out", "wf"),
    ("export-wavefunction", "--rmax", "nan", "--out", "wf"),
    ("export-wavefunction", "--rmax", "inf", "--out", "wf"),
    ("spectrum", "--format", "xml", "--emax", "3"),
    ("spectrum", "--omega", "inf", "--emax", "3"),
    ("orbit", "--state", "1,0.4,nan,1"),
    ("orbit", "--omega", "1e-300"),
    ("orbit", "--omega", "1e-320"),
    ("verify", "--omega", "1e200", "--classical"),
    ("orbit", "--dt", "1e-310"),
    ("orbit", "--t-end", "1e9"),
    ("export-wavefunction", "--grid", "1001", "--out", "wf"),
    ("verify", "--grid", "1001"),
    ("orbit", "--p", "1" + "0" * 400),
    ("spectrum", "--p", "1" + "0" * 400, "--emax", "5"),
    ("spectrum", "--q", "1" + "0" * 400, "--emax", "5"),
    ("export-wavefunction", "--q", "1" + "0" * 400, "--out", "wf"),
    ("verify", "--p", "1" + "0" * 300),
    ("spectrum", "--p", "1" + "0" * 308, "--emax", "5"),
    ("verify", "--q", "9"),
    ("orbit", "--p", "1" + "0" * 308),
    ("orbit", "--q", "17976931348623157" + "0" * 292),
    ("export-wavefunction", "--p", "1" + "0" * 308, "--out", "wf"),
    ("spectrum", "--emax", "5", "--config", "# \u00b5"),
    ("spectrum", "--emax", "5", "--config", None),
    ("spectrum", "--emax", "5", "--out", "file"),
    ("orbit", "--out", "file"),
    ("export-wavefunction", "--grid", "4", "--out", "file"),
    ("verify", "--tol", "0"),
    ("verify", "--tol", "-1"),
    ("verify", "--nmax", "100000"),
    ("verify", "--mmax", "100000"),
    ("verify", "--config", "nmax = 41"),
    ("export-wavefunction", "--m", "3001", "--grid", "4", "--out", "wf"),
    ("export-wavefunction", "--m", "1" + "0" * 31, "--grid", "4", "--out", "wf"),
    ("export-wavefunction", "--n", "1000", "--rmax", "1", "--grid", "4",
     "--out", "wf"),
    # the classical flow squares k and both strengths
    ("orbit", "--alpha", "1", "--beta", "1e155"),
    ("orbit", "--p", "1" + "0" * 200),
    ("verify", "--classical", "--alpha", "1", "--beta", "1e155"),
    # ... and reads both strengths as floats, which here are past float range
    ("orbit", "--alpha", "1", "--beta", "1e400"),
    ("verify", "--classical", "--alpha", "1", "--beta", "1e400"),
    # the scanner: no subcommand, an unknown one, a flag with no value (at
    # the end, or before another flag), a negative value, which reaches the
    # domain check, a switch given a value, and a stray word
    (),
    ("frobnicate",),
    ("spectrum", "--emax"),
    ("verify", "--alpha", "-1/2"),
    ("spectrum", "--emax", "--format", "json"),
    ("verify", "--classical=yes"),
    ("spectrum", "--emax", "5", "stray"),
    # an orbit start outside the open wedge r > 0, 0 < phi < pi/(2k), from
    # a flag or a config file
    ("orbit", "--state", "1,5,0,1"),
    ("orbit", "--state", "-1,0.4,0,1"),
    ("orbit", "--state", "0,0.4,0,1"),
    ("orbit", "--state", "1,0,0,1"),
    ("orbit", "--state", "1,1,0,1", "--p", "2"),
    ("orbit", "--config", "state = 1,5,0,1"),
    # model domain errors: p and q not coprime, q = 0, p = 0 and alpha = 0
    ("verify", "--p", "2", "--q", "4"),
    ("orbit", "--p", "2", "--q", "4"),
    ("spectrum", "--emax", "5", "--q", "0"),
    ("verify", "--p", "0"),
    ("spectrum", "--alpha", "0", "--beta", "1", "--emax", "5"),
])
def test_bad_input_exits_2_before_any_output(argv, tmp_path):
    # a --config value here is the file's text: write it out in Latin-1, so
    # that a non-ASCII character is not UTF-8, and pass its path (None
    # passes tmp_path, a directory); an --out value is a path under
    # tmp_path, where "file" is an existing plain file
    (tmp_path / "file").write_text("")
    argv = list(argv)
    if "--config" in argv:
        i = argv.index("--config") + 1
        path = tmp_path / "run.cfg"
        if argv[i] is not None:
            path.write_bytes((argv[i] + "\n").encode("latin-1"))
        argv[i] = str(path if argv[i] is not None else tmp_path)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command,flag,cap", [
    ("verify", "--nmax", cli.MAX_VERIFY_NMAX),
    ("verify", "--mmax", cli.MAX_VERIFY_MMAX),
    ("export-wavefunction", "--m", cli.MAX_EXPORT_M),
    ("export-wavefunction", "--n", cli.MAX_EXPORT_N),
])
def test_a_capped_flag_names_its_cap(command, flag, cap, tmp_path):
    extra = ("--out", str(tmp_path)) if command == "export-wavefunction" else ()
    code, out, err = run_cli(command, flag, str(cap + 1), *extra)
    assert (code, out) == (2, "")
    assert err == (f"error: bad value for {flag}: '{cap + 1}' "
                   f"(must be at most {cap})\n")


#: beta = (10^400 + 1)/10^400: with alpha = 1 the weight pole b is about
#: 2e400, past float range
TINY_GAP = "1" + "0" * 399 + "1/1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ("export-wavefunction", "--n", "300", "--grid", "4"),
    # psi overflows to inf or nan on part of the grid
    ("export-wavefunction", "--m", "400", "--rmax", "400", "--grid", "4"),
    ("export-wavefunction", "--m", "3000", "--rmax", "20", "--grid", "4"),
    # a Laguerre coefficient past float range
    ("export-wavefunction", "--m", "1000", "--n", "1", "--p", "500",
     "--grid", "2", "--rmax", "1"),
    ("export-wavefunction", "--m", "1000", "--n", "200", "--grid", "2",
     "--rmax", "1"),
    # k A_n, and the weight pole b, past float range
    ("export-wavefunction", "--alpha", "1", "--beta", "1e400", "--grid", "4"),
    ("export-wavefunction", "--alpha", "1", "--beta", TINY_GAP, "--grid", "4"),
    # the radial gauge exponent is about 5e300
    ("export-wavefunction", "--alpha", "1e300", "--beta", "2e300",
     "--grid", "4"),
    # a stage divides by an r^2 or sin^2(k phi) gone to 0
    ("orbit", "--state", "1e-200,0.4,0,1"),
    ("orbit", "--state", "1,1e-320,0,1"),
    ("orbit", "--state", "1e-100,0.4,0,1"),
])
def test_package_error_exits_1_with_one_error_line(argv, tmp_path, recwarn):
    code, out, err = run_cli(*argv, "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and len(err) < 200
    # nothing written, and no numpy warning on the way
    assert not list(tmp_path.iterdir())
    assert not [str(w.message) for w in recwarn]


@pytest.mark.parametrize("argv,printed", [
    (("spectrum", "--emax", "7"), ""),
    (("orbit",), ""),
    (("export-wavefunction", "--grid", "4"), ""),
])
def test_unwritable_out_exits_1_with_one_error_line(argv, printed, tmp_path):
    # --out under a plain file cannot be created: the writer reports it,
    # and every command writes before it prints
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(*argv, "--out", str(tmp_path / "file" / "sub"))
    assert code == 1
    assert out == printed
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


SHARED_FLAGS = {"--alpha", "--beta", "--omega", "--p", "--q", "--config"}
OWN_FLAGS = {
    "verify": {"--nmax", "--mmax", "--grid", "--tol", "--classical"},
    "spectrum": {"--emax", "--format", "--out"},
    "export-wavefunction": {"--m", "--n", "--grid", "--rmax", "--phi-max",
                            "--out"},
    "orbit": {"--state", "--dt", "--t-end", "--out"},
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    accepted = 0
    for command, own in OWN_FLAGS.items():
        for flag in sorted(SHARED_FLAGS.union(*OWN_FLAGS.values())):
            value = [] if flag == "--classical" else ["csv"]
            try:
                scan([command, flag, *value])
                ok = True
            except cli.UsageError as exc:
                assert str(exc) == (f"{command} does not accept "
                                    + " ".join([flag, *value]))
                ok = False
            assert ok == (flag in SHARED_FLAGS | own), (command, flag)
            accepted += ok
    assert accepted == 42


@pytest.mark.parametrize("argv", [
    ("verify", "--alpha", "1/2", "--beta", "5/2", "--p", "2"),
    ("spectrum", "--emax", "9", "--format", "json", "--alpha", "3/2"),
    ("export-wavefunction", "--phi-max", "0.5", "--grid", "4", "--m", "1"),
    ("orbit", "--state", "1.7,0.4,0.3,1.1", "--t-end", "12.0"),
])
def test_joined_flags_scan_as_separate_ones(argv):
    command, *words = argv
    joined = [command] + [f"{flag}={value}"
                          for flag, value in zip(words[::2], words[1::2])]
    assert scan(joined) == scan(argv)
    assert scan(argv)[1] == {flag[2:].replace("-", "_"): value
                             for flag, value in zip(words[::2], words[1::2])}


def test_joined_flags_print_the_same():
    assert (run_cli("spectrum", "--emax=9", "--alpha=1/2", "--beta=5/2")
            == run_cli("spectrum", "--emax", "9", "--alpha", "1/2",
                       "--beta", "5/2"))


def test_the_last_of_a_repeated_flag_wins():
    assert scan(["spectrum", "--emax", "1", "--emax=9"]) == (
        "spectrum", {"emax": "9"})


@pytest.mark.parametrize("argv", [("-h",), ("--help",)] + [
    (command, flag) for command in COMMANDS for flag in ("-h", "--help")])
def test_help_names_every_subcommand_and_flag(argv):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    names = COMMANDS if len(argv) == 1 else (argv[0],)
    for command in names:
        assert command in out
        for name in MODEL_FLAGS + COMMANDS[command][1]:
            assert "--" + name.replace("_", "-") in out
    assert "--config" in out


def test_the_installed_script_is_cli_main():
    # `python -m xsuperint` runs __main__.py; the script that pyproject.toml
    # installs is the other way in, and nothing runs cli.py as a script
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["xsuperint"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is main
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert entry(["--help"]) == 0
    assert "verify" in out.getvalue()


def test_the_cli_loads_neither_argparse_nor_locale():
    proc = run_module(code=(
        "import contextlib, io, sys; from xsuperint.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['spectrum', '--emax', '5'])\n"
        "print(code, 'argparse' in sys.modules, 'locale' in sys.modules)"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "0 False False\n", "")


def test_closed_pipe_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(xsuperint.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "xsuperint", "spectrum", "--emax", "20"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def run_module(*argv, code=None, cwd=None):
    """Run `python -m xsuperint *argv` in a fresh interpreter, or `python -c
    code *argv`, with the package on the path."""
    src = os.path.dirname(os.path.dirname(xsuperint.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    head = ["-m", "xsuperint"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=300)


def test_verify_far_from_the_walls_fails_without_traceback():
    # the Gram converges to a FAIL, then the radial gauge overflows
    proc = run_module("verify", "--alpha", "100", "--beta", "1000")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith(
        "FAIL orthogonality: worst relative off-diagonal Gram entry ")
    assert proc.stderr.startswith("error: radial gauge factor exceeds float "
                                  "range: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("alpha,beta,pole", [
    ("1", "1e400", "1.0"), ("1", TINY_GAP, "inf"), ("1e-300", "1", "1.0"),
    ("1/3", "1e300", "1.0")])
def test_verify_with_a_float_pole_on_the_wall_prints_the_scorecard(
        alpha, beta, pole):
    # the exact scorecard holds at any rational point; the Gram, the first
    # float gate, refuses a weight pole that is not a finite float above 1
    # before it builds a rule
    code, out, err = run_cli("verify", "--alpha", alpha, "--beta", beta)
    assert code == 1
    assert out.splitlines()[-1].startswith("note: ")
    assert err == (f"error: angular Gram quadrature needs the weight pole "
                   f"b = (beta + alpha)/(beta - alpha) as a finite float "
                   f"above 1, not {pole}\n")


@pytest.mark.parametrize("argv", [
    # the composite coefficients and the commutator gap
    ("--beta", "1e400", "--p", "8", "--q", "7"),
    # the candidate potential's value at x = 0
    ("--beta", "1e1500"),
])
def test_verify_with_a_number_past_the_digit_limit_prints_the_scorecard(argv):
    # these witnesses have more than the 4,300 digits str() of an int
    # allows: each is named by its length, and the run ends on the Gram's
    # refusal of the float pole
    code, out, err = run_cli("verify", "--alpha", "1", *argv)
    assert code == 1
    assert "digit integer)" in out
    assert out.splitlines()[-1].startswith("note: ")
    assert err.startswith("error: angular Gram quadrature needs the weight "
                          "pole") and err.count("\n") == 1


def test_export_with_a_float_pole_on_the_wall_is_finite(tmp_path):
    # psi reads the pole only through the gauge 1/(b - x), finite on the
    # open interval even where b rounds to 1
    code, out, err = run_cli("export-wavefunction", "--alpha", "1e-300",
                             "--beta", "1", "--grid", "4", "--out",
                             str(tmp_path))
    assert (code, err) == (0, "")
    rows = (tmp_path / "wavefunction_m0_n1.csv").read_text().splitlines()[1:]
    assert len(rows) == 16
    assert all(math.isfinite(float(row.split(",")[2])) for row in rows)


# runs the CLI with every import of scipy failing
NO_SCIPY = ("import runpy, sys; sys.modules['scipy'] = None; "
            "runpy.run_module('xsuperint', run_name='__main__', "
            "alter_sys=True)")


@pytest.mark.parametrize("argv", [
    ("verify", "--classical"),
    ("spectrum", "--emax", "20"),
    ("export-wavefunction", "--out", "out"),
    ("orbit", "--out", "out"),
])
def test_the_cli_runs_without_scipy(argv, tmp_path):
    plain = run_module(*argv, cwd=tmp_path)
    shimmed = run_module(*argv, code=NO_SCIPY, cwd=tmp_path)
    assert plain.returncode == 0, plain.stderr
    assert (shimmed.returncode, shimmed.stdout, shimmed.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)


def test_the_gram_does_not_load_scipy():
    proc = run_module(code=(
        "import sys; from fractions import Fraction; import xsuperint.cli; "
        "xsuperint.cli.angular_gram(Fraction(2, 7), Fraction(9, 7), 1); "
        "print('scipy' in sys.modules)"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
