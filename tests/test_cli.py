"""Command-line entry points, exercised in-process through cli.main."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import xsuperint
from xsuperint import classical, verify
from xsuperint.classical import (ClassicalModel, OrbitState, closure_report,
                                 scan_closure, trajectory)
from xsuperint.cli import build_parser, fmt_float, main
from xsuperint.errors import QuadratureError
from xsuperint.params import ModelParams
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
    real = classical.rk8_step
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(classical, "rk8_step", counting)
    code, _, err = run_cli("orbit", "--out", str(tmp_path))
    assert code == 0, err
    with open(tmp_path / "orbit.csv") as fh:
        steps = len(fh.readlines()) - 2         # the header and the start
    assert steps == 640
    assert len(calls) == steps + 2 * 64


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


@pytest.mark.parametrize("argv", [
    ("export-wavefunction", "--n", "300", "--grid", "4"),
])
def test_package_error_exits_1_with_one_error_line(argv, tmp_path):
    code, out, err = run_cli(*argv, "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


MODEL_FLAGS = {"--alpha", "--beta", "--omega", "--p", "--q", "--config"}
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
        for flag in sorted(MODEL_FLAGS.union(*OWN_FLAGS.values())):
            value = [] if flag == "--classical" else ["csv"]
            _, unknown = build_parser().parse_known_args(
                [command, flag, *value])
            assert (not unknown) == (flag in MODEL_FLAGS | own), (command,
                                                                  flag)
            accepted += not unknown
    assert accepted == 42


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
