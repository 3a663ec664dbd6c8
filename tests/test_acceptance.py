"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line (visible because -s is on) and
then asserts, so the terminal log doubles as the acceptance record.  Timed
criteria include their elapsed time in the line.
"""

import contextlib
import io
import json
import os
import time
from fractions import Fraction

import numpy as np

from xsuperint.angular import angular_operator, exceptional_jacobi
from xsuperint.classical import (ClassicalModel, OrbitState, closure_report,
                                 conservation_drift, convergence_order)
from xsuperint.cli import main as cli_main
from xsuperint.cli import parse_rational
from xsuperint.errors import OutOfFamilyError
from xsuperint.ladders import (
    action_coefficient,
    composite_action_report,
    composite_lowering,
    composite_raising,
    deformed_lowering,
    deformed_lowering_chain,
    deformed_raising,
    deformed_raising_chain,
    l1_commutator_report,
    lowering_intertwiner,
    parity_report,
    radial_eps,
    radial_family_image,
    radial_lowering,
    radial_lowering_candidate,
    radial_lowering_chain,
    radial_raising,
    radial_raising_chain,
    raising_intertwiner,
    shifted_jacobi,
)
from xsuperint.operators import RatFunc
from xsuperint.params import ModelParams, QuantumState, angular_eigenroot
from xsuperint.polynomials import (Poly, exceptional_jacobi_closed_form,
                                   laguerre_polynomial, weight_pole)
from xsuperint.spectral import (angular_gram, degeneracy_table,
                                hamiltonian_residual, ladder_numeric_check)
from xsuperint.verify import verification_report

F = Fraction
THREE_PAIRS = [(F(1), F(3)), (F(1, 2), F(5, 2)), (F(2), F(7, 2))]
FOUR_RATIOS = [(1, 1), (2, 1), (1, 2), (3, 2)]          # k = 1, 2, 1/2, 3/2
# the exact criteria 4 and 5 also run at k = 3/4, whose chains are 4-fold
EXACT_RATIOS = FOUR_RATIOS + [(3, 4)]


def report(idx: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {idx}: {detail}"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_acceptance_1_exact_eigen_identity():
    t0 = time.perf_counter()
    bad = []
    for alpha, beta in THREE_PAIRS:
        op = angular_operator(alpha, beta)
        clear = RatFunc.of(Poly((weight_pole(alpha, beta), -1)))
        for n in range(1, 9):
            member = exceptional_jacobi(n, alpha, beta)
            ev = (2 * n - 1 + alpha + beta) ** 2
            residual = clear * (op.apply_ratfunc(member) - RatFunc.of(member * ev))
            if not residual.num.is_zero():
                bad.append((alpha, beta, n))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    report(1, ok,
           f"pole-cleared eigen-identity is the zero polynomial for "
           f"n = 1..8 at three parameter pairs"
           + (f", failures {bad}" if bad else "")
           + f" ({elapsed:.2f}s, budget 10s)")


def test_acceptance_2_reconciliation_witnesses():
    problems = []
    # the transcribed operator's only degree-1 eigenpolynomial vs the family
    printed = Poly((2, 1))                               # x + 2
    closed = exceptional_jacobi_closed_form(1, F(1), F(3))
    from xsuperint.angular import exceptional_jacobi_candidate_solve
    if exceptional_jacobi_candidate_solve(1, F(1), F(3)) != printed:
        problems.append("degree-1 candidate solve changed")
    if closed != Poly((F(3, 2), F(-1, 2))):
        problems.append("closed-form degree-1 member changed")
    if closed.proportionality(printed) is not None:
        problems.append("witness polynomials became proportional")
    # the transcribed lowering ladder on the bottom radial state at the
    # quantized energy: -(1 + a) times the state instead of zero
    a = angular_eigenroot(1, F(1), F(3))                 # k = 1
    img = radial_family_image(radial_lowering_candidate(a, radial_eps(0, a)),
                              0, a, a)
    expect = RatFunc.of(laguerre_polynomial(0, a) * -(1 + a))
    if img != expect or img.num.is_zero():
        problems.append("bottom-state witness changed")
    # both findings must appear as MISMATCH lines in the verify command
    code, out, err = run_cli("verify", "--nmax", "4", "--mmax", "4")
    if code != 0:
        problems.append(f"verify exited {code}: {err.strip()}")
    witness1 = [ln for ln in out.splitlines()
                if "[MISMATCH]" in ln and "x + 2" in ln]
    witness2 = [ln for ln in out.splitlines()
                if "[MISMATCH]" in ln and "-(1 + a)" in ln]
    if not witness1:
        problems.append("family MISMATCH line missing from verify output")
    if not witness2:
        problems.append("bottom-state MISMATCH line missing from verify output")
    report(2, not problems,
           "non-proportional degree-1 solutions and the non-annihilated "
           "bottom state both surface as MISMATCH lines in the verify command"
           + (f"; problems: {problems}" if problems else ""))


def test_acceptance_3_ladders_map_basis_to_basis():
    problems = []
    pairs = THREE_PAIRS[:2]
    for alpha, beta in pairs:
        fwd = raising_intertwiner(alpha, beta)
        back = lowering_intertwiner(alpha, beta)
        try:
            for n in range(0, 7):
                action_coefficient(fwd, shifted_jacobi(n, alpha, beta),
                                   exceptional_jacobi_closed_form(
                                       n + 1, alpha, beta))
            for n in range(1, 8):
                action_coefficient(back,
                                   exceptional_jacobi_closed_form(
                                       n, alpha, beta),
                                   shifted_jacobi(n - 1, alpha, beta))
            for n in range(1, 7):
                action_coefficient(deformed_raising(n, alpha, beta),
                                   exceptional_jacobi_closed_form(
                                       n, alpha, beta),
                                   exceptional_jacobi_closed_form(
                                       n + 1, alpha, beta))
            for n in range(2, 8):
                action_coefficient(deformed_lowering(n, alpha, beta),
                                   exceptional_jacobi_closed_form(
                                       n, alpha, beta),
                                   exceptional_jacobi_closed_form(
                                       n - 1, alpha, beta))
        except Exception as exc:                        # noqa: BLE001
            problems.append(f"angular ladder remainder at ({alpha},{beta}): "
                            f"{exc}")
        a = angular_eigenroot(1, alpha, beta)           # k = 1 gauge
        for m in range(0, 7):
            eps = radial_eps(m, a)
            down = radial_family_image(radial_lowering(a, eps), m, a, a + 2)
            up = radial_family_image(radial_raising(a, eps), m, a, a - 2)
            if down.den.degree != 0 or up.den.degree != 0:
                problems.append(f"radial image leaves the family at m={m}")
    # composed coefficients are exactly the stepwise products
    alpha, beta = F(1), F(3)
    for n in (1, 2):
        chain = action_coefficient(
            deformed_raising_chain(n, 3, alpha, beta),
            exceptional_jacobi_closed_form(n, alpha, beta),
            exceptional_jacobi_closed_form(n + 3, alpha, beta))
        step = F(1)
        for i in range(3):
            step *= action_coefficient(
                deformed_raising(n + i, alpha, beta),
                exceptional_jacobi_closed_form(n + i, alpha, beta),
                exceptional_jacobi_closed_form(n + i + 1, alpha, beta))
        if chain != step:
            problems.append(f"raising chain != stepwise product at n={n}")
    chain4 = action_coefficient(
        deformed_lowering_chain(5, 2, alpha, beta),
        exceptional_jacobi_closed_form(5, alpha, beta),
        exceptional_jacobi_closed_form(3, alpha, beta))
    step4 = (action_coefficient(deformed_lowering(5, alpha, beta),
                                exceptional_jacobi_closed_form(5, alpha, beta),
                                exceptional_jacobi_closed_form(4, alpha, beta))
             * action_coefficient(deformed_lowering(4, alpha, beta),
                                  exceptional_jacobi_closed_form(
                                      4, alpha, beta),
                                  exceptional_jacobi_closed_form(
                                      3, alpha, beta)))
    if chain4 != step4:
        problems.append("lowering chain != stepwise product")
    a = angular_eigenroot(1, alpha, beta)
    m, p = 4, 2
    eps = radial_eps(m, a)
    whole = radial_family_image(radial_lowering_chain(a, eps, p), m, a,
                                a + 2 * p)
    first = radial_family_image(radial_lowering(a, eps), m, a, a + 2)
    second = radial_family_image(radial_lowering(a + 2, eps), m - 1, a + 2,
                                 a + 4)
    # whole = L_(m-2)^(a+4) (first / L_(m-1)^(a+2)) (second / L_(m-2)^(a+4)),
    # cross-multiplied by the nonzero L_(m-1)^(a+2)
    if whole * laguerre_polynomial(m - 1, a + 2) != first * second:
        problems.append("radial chain != stepwise composition")
    # every transcription-claim comparison ends in a definite verdict
    rep = verification_report(F(1), F(3), nmax=5, mmax=5)
    for ln in rep.lines:
        if "claim" not in ln.name:
            continue
        head = ln.verdict.split("(")[0]
        if head not in ("MATCH", "MISMATCH", "NORMALIZATION"):
            problems.append(f"indefinite verdict for {ln.name}: {ln.verdict}")
    report(3, not problems,
           "derived ladders map basis to basis with zero remainder "
           "(n <= 6, m <= 6, two parameter pairs), compositions factor "
           "exactly, and every claim table scores a definite verdict"
           + (f"; problems: {problems}" if problems else ""))


def test_acceptance_4_energy_fixing_and_degeneracy():
    problems, pair_counts = [], []
    for p, q in EXACT_RATIOS:
        params = ModelParams(F(1), F(3), p=p, q=q)
        # each level's states, in increasing n, must be linked by applying
        # the raising composite, with its tabulated coefficient measured
        pairs = [pair for lv in degeneracy_table(params, emax=40.0)
                 for pair in zip(lv.states, lv.states[1:])]
        if not pairs:
            problems.append(f"no degenerate level below cutoff at k={p}/{q}")
        for s, t in pairs:
            try:
                step = composite_raising(s, params)
            except OutOfFamilyError as exc:
                problems.append(f"{s} at k={p}/{q}: {exc}")
                continue
            measured, witness = composite_action_report(step)
            if step.target != t or measured != step.coefficient or not measured:
                problems.append(f"{s} -> {t} at k={p}/{q}: target "
                                f"{step.target}, measured {measured} "
                                f"({witness}), table {step.coefficient}")
        pair_counts.append(len(pairs))
    report(4, not problems,
           "composite targets carry exactly equal rational energy, and on "
           "every level below E/omega = 40 the raising composite carries each "
           "state onto the next with its tabulated nonzero coefficient "
           f"({', '.join(map(str, pair_counts))} pairs measured) for k in "
           "{1, 2, 1/2, 3/2, 3/4}" + (f"; problems: {problems}" if problems else ""))


def test_acceptance_5_index_reflection_and_noncommutation():
    problems = []
    for p, q in EXACT_RATIOS:
        failures = parity_report(F(1), F(3), p, q)
        if failures:
            problems.append(f"chain reflection fails at p={p}, q={q}: "
                            f"{failures}")
    failures = parity_report(F(1, 2), F(5, 2), 1, 1)
    if failures:
        problems.append(f"chain reflection fails at the half-integer pair: "
                        f"{failures}")
    for p, q in EXACT_RATIOS:
        params = ModelParams(F(1), F(3), p=p, q=q)
        for name, make, ms, ns in (
                ("raising", composite_raising, range(p, p + 3), range(1, 4)),
                ("lowering", composite_lowering, range(0, 3),
                 range(q + 1, q + 4))):
            for m in ms:
                for n in ns:
                    step = make(QuantumState(m, n), params)
                    gap, witness = l1_commutator_report(step)
                    if gap in (None, 0):
                        problems.append(f"{name} commutes at ({m},{n}), "
                                        f"k={p}/{q}: {witness}")
    report(5, not problems,
           "the one-step chains swap exactly under the eigenroot "
           "reflection (coefficients interpolated in A at n = 1..8 with "
           "held-out nodes, direct substitution at n = 2, 3, 7/2 and the "
           "radial ladders at three a, against a negative control) and the "
           "composites fail to commute with the angular invariant on every "
           "interior state, for k in {1, 2, 1/2, 3/2, 3/4}"
           + (f"; problems: {problems}" if problems else ""))


def test_acceptance_6_numerical_spectral_suite():
    t0 = time.perf_counter()
    problems = []
    worst_res = 0.0
    for p, q in FOUR_RATIOS:
        params = ModelParams(F(1), F(3), p=p, q=q)
        for m in range(5):
            for n in range(1, 5):
                res = hamiltonian_residual(QuantumState(m, n), params)
                worst_res = max(worst_res, res)
                if res >= 1e-9:
                    problems.append(f"residual {res:.2e} at ({m},{n}), "
                                    f"k={p}/{q}")
    for alpha, beta in THREE_PAIRS:
        g = angular_gram(alpha, beta, nmax=6)
        off = float(np.max(np.abs(g - np.diag(np.diag(g)))))
        if off >= 1e-12:
            problems.append(f"Gram off-diagonal {off:.2e} at ({alpha},{beta})")
    for p, q in FOUR_RATIOS:
        params = ModelParams(F(1), F(3), p=p, q=q)
        for step in (composite_raising(QuantumState(p, 1), params),
                     composite_lowering(QuantumState(0, q + 1), params)):
            deviation, ratio_error = ladder_numeric_check(step)
            if deviation >= 1e-8:
                problems.append(f"shape deviation {deviation:.2e} at "
                                f"k={p}/{q}")
            if ratio_error >= 1e-10:
                problems.append(f"coefficient ratio off at k={p}/{q}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"overran the 60s budget: {elapsed:.1f}s")
    report(6, not problems,
           f"residuals < 1e-9 (worst {worst_res:.1e}) for m,n <= 4 across "
           f"four frequency ratios, Gram off-diagonals < 1e-12, numeric "
           f"ladder images track the exact coefficients ({elapsed:.1f}s, "
           f"budget 60s)" + (f"; problems: {problems}" if problems else ""))


def test_acceptance_7_classical_suite():
    t0 = time.perf_counter()
    problems = []
    worst_drift = 0.0
    for p, q in FOUR_RATIOS:
        model = ClassicalModel(1.0, p / q, 1.0, 3.0)
        start = OrbitState(1.7, min(0.4, 0.5 * model.wedge_span), 0.3, 1.1)
        # resolve the fastest angular oscillation, which beats k times per
        # radial period
        spp = int(256 * max(1.0, model.k))
        drift = conservation_drift(model, start, n_periods=1000,
                                   steps_per_period=spp)
        worst_drift = max(worst_drift, drift.energy_drift,
                          drift.invariant_drift)
        if drift.energy_drift >= 1e-8 or drift.invariant_drift >= 1e-8:
            problems.append(f"drift at k={p}/{q}: E {drift.energy_drift:.2e}, "
                            f"L1 {drift.invariant_drift:.2e}")
        T = model.radial_period
        closure = closure_report(model, start, max_time=2.5 * q * T,
                                 exclude=0.4 * T)
        if closure.distance >= 1e-6:
            problems.append(f"closure {closure.distance:.2e} at k={p}/{q}")
        order = convergence_order(model, start)
        if order < 8.0:
            problems.append(f"convergence order {order:.2f} at k={p}/{q}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"overran the 120s budget: {elapsed:.1f}s")
    report(7, not problems,
           f"energy and invariant drift < 1e-8 (worst {worst_drift:.1e}) "
           f"over 1000 radial periods, orbits close to < 1e-6, integrator "
           f"order >= 8, for k in {{1, 2, 1/2, 3/2}} ({elapsed:.1f}s, "
           f"budget 120s)" + (f"; problems: {problems}" if problems else ""))


def test_acceptance_8_cli_contract(tmp_path):
    problems = []
    code, _, _ = run_cli("spectrum", "--emax", "12")
    if code != 0:
        problems.append(f"clean spectrum exited {code}")
    code, _, _ = run_cli("orbit", "--state", "1.0,0.001,0.0,-3.0")
    if code != 1:
        problems.append(f"wedge-exit orbit exited {code}, expected 1")
    code, _, _ = run_cli("verify", "--alpha", "2", "--beta", "2")
    if code != 2:
        problems.append(f"degenerate parameters exited {code}, expected 2")
    # byte-identical re-runs
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    for out in (out1, out2):
        code, _, _ = run_cli("export-wavefunction", "--m", "1", "--n", "2",
                             "--grid", "16", "--out", out)
        if code != 0:
            problems.append(f"export exited {code}")
    for name in ("wavefunction_m1_n2.csv", "wavefunction_m1_n2.json"):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            b1, b2 = f1.read(), f2.read()
        if b1 != b2:
            problems.append(f"{name} differs between identical runs")
    _, s1, _ = run_cli("spectrum", "--emax", "15", "--alpha", "1/2",
                       "--beta", "5/2")
    _, s2, _ = run_cli("spectrum", "--emax", "15", "--alpha", "1/2",
                       "--beta", "5/2")
    if s1 != s2:
        problems.append("spectrum output differs between identical runs")
    # rational parameter strings survive a full round trip
    for text in ("1/2", "3/2", "7/3", "2"):
        if str(parse_rational(text)) != text:
            problems.append(f"rational round-trip broke for {text!r}")
    code, out, _ = run_cli("spectrum", "--emax", "10", "--alpha", "3/2",
                           "--beta", "7/2", "--format", "json")
    payload = json.loads(out)
    if payload["alpha"] != "3/2" or payload["beta"] != "7/2":
        problems.append("JSON export does not round-trip the parameters")
    report(8, not problems,
           "exit codes 0/1/2 behave as documented, re-runs are "
           "byte-identical, and rational parameters round-trip as strings"
           + (f"; problems: {problems}" if problems else ""))
