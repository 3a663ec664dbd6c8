"""Reconciliation scorecard: the ratio classifier and the assembled report."""

import dataclasses
import os
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from xsuperint import ladders, spectral, verify
from xsuperint.angular import angular_operator
from xsuperint.errors import (ParameterDomainError, QuadratureError,
                              VerificationError)
from xsuperint.ladders import (LadderChain, composite_lowering,
                               composite_raising, deformed_lowering_chain,
                               deformed_raising,
                               jacobi_lowering, lowering_intertwiner,
                               lowering_intertwiner_candidate,
                               radial_lowering, radial_raising,
                               radial_raising_candidate, radial_raising_chain,
                               raising_intertwiner)
from xsuperint.operators import DiffOp
from xsuperint.params import ModelParams
from xsuperint.polynomials import Poly, secondary_root, weight_pole
from xsuperint.verify import (classify_claim, normalization,
                              verification_report)

F = Fraction


def measured(c):
    """A measuring primitive's (coefficient, witness) output for c."""
    return F(c), "proportional"


def test_classifier_match():
    verdict, _ = classify_claim([("n=1", F(3), measured(3)),
                                 ("n=2", F(-7), measured(-7))])
    assert verdict == "MATCH"


def test_classifier_normalization():
    verdict, detail = classify_claim([("n=1", F(-3), measured(3)),
                                      ("n=2", F(7), measured(-7))])
    assert verdict == normalization(F(-1)) == "NORMALIZATION(-1)"
    assert "-1" in detail


def test_classifier_mismatch_on_index_dependent_ratio():
    verdict, _ = classify_claim([("n=1", F(2), measured(2)),
                                 ("n=2", F(9), measured(3))])
    assert verdict == "MISMATCH"


def test_classifier_mismatch_on_zero():
    # claim says zero where the measurement is not (or vice versa)
    verdict, _ = classify_claim([("n=1", F(0), measured(3))])
    assert verdict == "MISMATCH"
    verdict, _ = classify_claim([("n=1", F(3), measured(0))])
    assert verdict == "MISMATCH"


def test_classifier_skips_rows_zero_on_both_sides():
    # a 0 = 0 row has no ratio: the other rows decide, and a table of such
    # rows alone has nothing that could disagree
    zero = ("n=1", F(0), measured(0))
    assert classify_claim([zero, ("n=2", F(3), measured(3))]) == (
        "MATCH", "claimed equals measured at all 2 probes")
    assert classify_claim([zero, zero]) == (
        "MATCH", "zero on both sides at every probe")


def test_report_counts_and_render():
    rep = verification_report(F(1), F(3), nmax=4, mmax=4)
    counts = rep.counts()
    assert counts["MATCH"] >= 20
    assert counts["MISMATCH"] >= 6
    assert counts["NO-SOLUTION"] >= 3
    assert counts["NORMALIZATION"] == 4
    assert counts["UNRESOLVABLE"] == 1
    text = rep.render()
    for token in ("MATCH", "MISMATCH", "NO-SOLUTION", "NORMALIZATION",
                  "UNRESOLVABLE"):
        assert token in text
    # criterion witnesses surface verbatim in the rendered report
    assert "-1/2*x + 3/2" in text
    assert "x + 2" in text
    assert "-(1 + a)" in text


def test_report_even_chain_count_flips():
    # with q = 2 the one-step sign errors cancel in the chain claims
    odd = verification_report(F(1), F(3), p=1, q=1, nmax=4, mmax=4)
    even = verification_report(F(1), F(3), p=1, q=2, nmax=4, mmax=4)
    def chain_verdicts(rep):
        return {ln.name: ln.verdict for ln in rep.lines
                if "chain" in ln.name and "claim" in ln.name}
    assert any(v.startswith("NORMALIZATION") or v == "MATCH"
               for v in chain_verdicts(odd).values())
    ev = chain_verdicts(even)
    assert ev, "expected chain-claim lines in the report"


def test_classifier_rejects_empty_table():
    with pytest.raises(ValueError):
        classify_claim([])


def test_classifier_scores_image_off_the_family_as_mismatch():
    verdict, detail = classify_claim([
        ("n = 1", F(2), measured(2)),
        ("n = 2", F(3), (None, "image x not proportional to 1"))])
    assert verdict == "MISMATCH"
    assert detail == ("image leaves the family — n = 2: image x not "
                      "proportional to 1")


# ---------------------------------------------------------------------------
# Broken ladders: every measured line must change verdict when the operator or
# coefficient behind it is wrong.
# ---------------------------------------------------------------------------

def _verdict(monkeypatch, name, replacement, section, line):
    """Verdict of the line `line` of `section` in a small report at (1, 3),
    k = 1, with the name `name` inside the scorecard module replaced."""
    monkeypatch.setattr(verify, name, replacement)
    rep = verification_report(F(1), F(3), nmax=3, mmax=2)
    return next(ln.verdict for ln in rep.lines
                if (ln.section, ln.name) == (section, line))


def test_wrong_deformed_raising_operator_is_mismatch(monkeypatch):
    # off-by-one index: the operator meant for degree n + 1
    wrong = lambda n, alpha, beta: deformed_raising(n + 1, alpha, beta)
    assert _verdict(monkeypatch, "deformed_raising", wrong, "deformed ladders",
                    "one-step raising action table") == "MISMATCH"


def test_wrong_radial_raising_operator_is_mismatch(monkeypatch):
    # the transcribed candidate in place of the derived ladder: its images
    # leave the family
    assert _verdict(monkeypatch, "radial_raising", radial_raising_candidate,
                    "radial ladders", "derived raising action table at a = 5"
                    ) == "MISMATCH"


def _corrupted(make):
    def build(state, params):
        step = make(state, params)
        return dataclasses.replace(step, coefficient=2 * step.coefficient)
    return build


def test_corrupted_composite_coefficients_are_mismatch(monkeypatch):
    monkeypatch.setattr(verify, "composite_raising",
                        _corrupted(composite_raising))
    monkeypatch.setattr(verify, "composite_lowering",
                        _corrupted(composite_lowering))
    rep = verification_report(F(1), F(3), nmax=3, mmax=2)
    composites = [ln for ln in rep.lines
                  if ln.name.startswith("energy-preserving")]
    assert [ln.verdict for ln in composites] == ["MISMATCH", "MISMATCH"]
    assert all("but the chains measure" in ln.detail for ln in composites)


def test_chain_commuting_with_the_invariant_is_mismatch(monkeypatch):
    def commuting(state, params):
        step = composite_raising(state, params)
        return dataclasses.replace(
            step, angular=angular_operator(params.alpha, params.beta))
    assert _verdict(monkeypatch, "composite_raising", commuting,
                    "composite structure",
                    "composites do not commute with the angular invariant"
                    ) == "MISMATCH"


def test_chain_image_with_a_pole_fails_the_run(monkeypatch):
    # the ladder-closure gate measures the step the scorecard built: an
    # image that keeps a pole ends the report with its error, not a crash
    def broken(state, params):
        return dataclasses.replace(
            composite_raising(state, params),
            angular=lowering_intertwiner_candidate(params.alpha, params.beta))
    monkeypatch.setattr(verify, "composite_raising", broken)
    rep = verification_report(F(1), F(3), nmax=3, mmax=2)
    assert isinstance(rep.error, VerificationError)
    assert rep.exit_code == 1


def test_report_builds_each_composite_step_once(monkeypatch):
    # the exact composite lines and the ladder-closure gate measure the
    # same two steps; in-process, so the gate's calls are counted too
    _usable_cpus(monkeypatch, 1)
    calls = Counter()

    def counting(name, real):
        def build(state, params):
            calls[name] += 1
            return real(state, params)
        return build

    for name in ("composite_raising", "composite_lowering"):
        wrapper = counting(name, getattr(ladders, name))
        for module in (ladders, spectral, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    verification_report(F(1), F(3), p=2, q=1, nmax=3, mmax=2)
    assert calls == {"composite_raising": 1, "composite_lowering": 1}


def test_report_computes_each_step_image_once(monkeypatch):
    # the composite action line, the commutator line and the ladder-closure
    # gate all read a step's exact images; in-process, so the gate counts
    _usable_cpus(monkeypatch, 1)
    steps, images = [], Counter()

    def capture(real):
        def build(state, params):
            steps.append(real(state, params))
            return steps[-1]
        return build

    for name in ("composite_raising", "composite_lowering"):
        monkeypatch.setattr(verify, name, capture(getattr(ladders, name)))
    real_image = ladders.radial_family_image

    def counting(op, *args):
        images.update(i for i, step in enumerate(steps) if op is step.radial)
        return real_image(op, *args)

    monkeypatch.setattr(ladders, "radial_family_image", counting)
    rep = verification_report(1, 3, 3, 2, classical=True)
    assert rep.error is None
    assert len(steps) == 2 and images == {0: 1, 1: 1}


@pytest.mark.parametrize("nmax,mmax", [(1, 6), (0, 6), (6, 0)])
def test_report_refuses_a_small_span_before_any_check(monkeypatch, nmax,
                                                      mmax):
    def no_check(*args):
        raise AssertionError("a check ran")
    monkeypatch.setattr(verify, "exceptional_jacobi_closed_form", no_check)
    with pytest.raises(ParameterDomainError,
                       match="needs nmax >= 2 and mmax >= 1"):
        verification_report(F(1), F(3), nmax=nmax, mmax=mmax)


def test_candidate_that_annihilates_the_bottom_state_is_match(monkeypatch):
    # the candidate line is a measurement: swap in the derived ladder and it
    # must pass
    assert _verdict(monkeypatch, "radial_lowering_candidate", radial_lowering,
                    "radial ladders", "candidate lowering ladder") == "MATCH"


@pytest.mark.parametrize("name,derived,section,line", [
    ("jacobi_lowering_candidate", jacobi_lowering, "plain-jacobi ladders",
     "candidate lowering ladder"),
    ("radial_raising_candidate", radial_raising, "radial ladders",
     "candidate raising ladder"),
    ("lowering_intertwiner_candidate", lowering_intertwiner, "intertwiners",
     "candidate backward intertwiner"),
])
def test_candidates_are_scored_against_the_derived_tables(
        monkeypatch, name, derived, section, line):
    # a candidate equal to twice the derived operator is off by a constant,
    # which only a comparison with the derived table can see
    doubled = lambda *args: _doubled(derived(*args))
    assert _verdict(monkeypatch, name, doubled, section, line
                    ) == "NORMALIZATION(1/2)"


def _scalar_intertwiner_line(alpha, beta):
    """The candidate forward intertwiner line at nmax = 3."""
    run = verify._Run(ModelParams(alpha, beta), nmax=3, mmax=2, tol=1e-9,
                      grid=40)
    return next(ln for ln in verify._intertwiner_lines(run)
                if ln.name == "candidate forward intertwiner with undefined "
                              "scalar")


def _kept_scalar(alpha, beta, free_scalar):
    """The candidate forward intertwiner with its (alpha - 1) factor dropped."""
    b, c = weight_pole(alpha, beta), secondary_root(alpha, beta)
    return DiffOp((Poly((-free_scalar * c, free_scalar)),
                   Poly((-1, 1)) * Poly((-b, 1))))


def test_alpha_one_intertwiner_line_reads_its_outcomes(monkeypatch):
    # without the (alpha - 1) factor the scalar no longer drops out at
    # alpha = 1, and the line must print what each degree then requires
    # instead of the text for a scalar that drops out
    real = _scalar_intertwiner_line(F(1), F(3)).detail
    assert "drops out entirely" in real
    monkeypatch.setattr(verify, "raising_intertwiner_candidate", _kept_scalar)
    mutant = _scalar_intertwiner_line(F(1), F(3)).detail
    assert mutant != real
    assert "n=0: any, n=1: unique t=" in mutant


@pytest.mark.parametrize("alpha,beta,t", [(F(1), F(3), F(1)),
                                          (F(1, 2), F(5, 2), F(1, 2))])
def test_intertwiner_witness_names_a_common_scalar(monkeypatch, alpha, beta,
                                                   t):
    # without the (alpha - 1) factor, t = alpha intertwines at every probed
    # degree; the witness must name that value, not deny that one exists
    monkeypatch.setattr(verify, "raising_intertwiner_candidate", _kept_scalar)
    line = _scalar_intertwiner_line(alpha, beta)
    assert line.verdict == "UNRESOLVABLE"
    assert line.detail.startswith(
        f"t = {t} makes the candidate intertwine at every probed degree")
    assert "no single value" not in line.detail


def _plus_identity(op):
    """op + 1, for an operator."""
    return DiffOp((op.coeffs[0] + 1, *op.coeffs[1:]))


def test_intertwiner_line_when_every_or_no_scalar_intertwines(monkeypatch):
    # a candidate that ignores its scalar and is the derived intertwiner
    # works for every value; the real candidate plus the identity for none
    real = verify.raising_intertwiner_candidate
    monkeypatch.setattr(verify, "raising_intertwiner_candidate",
                        lambda a, b, t: raising_intertwiner(a, b))
    assert _scalar_intertwiner_line(F(1, 2), F(5, 2)).detail == (
        "every value of the undefined scalar makes the candidate intertwine "
        "at every probed degree")
    monkeypatch.setattr(verify, "raising_intertwiner_candidate",
                        lambda a, b, t: _plus_identity(real(a, b, t)))
    assert _scalar_intertwiner_line(F(1, 2), F(5, 2)).detail == (
        "no single value of the undefined scalar makes the candidate "
        "intertwine: per-degree requirements n=0: none, n=1: none, "
        "n=2: none")


# ---------------------------------------------------------------------------
# Witness texts: each verdict branch of a section builder, reached by a
# mutant of a name the scorecard module imports.
# ---------------------------------------------------------------------------

def _lines(builder):
    """{name: (verdict, witness)} of one section builder at (1, 3), k = 1,
    nmax = 3 and mmax = 2."""
    run = verify._Run(ModelParams(F(1), F(3)), nmax=3, mmax=2, tol=1e-9,
                      grid=40)
    return {ln.name: (ln.verdict, ln.detail) for ln in builder(run)}


def test_closed_form_off_the_eigenfamily_is_a_mismatch(monkeypatch):
    # the derived eigenfamily with its degree-2 member swapped for degree 3
    real = verify.exceptional_jacobi
    monkeypatch.setattr(verify, "exceptional_jacobi",
                        lambda n, alpha, beta: real(3 if n == 2 else n,
                                                    alpha, beta))
    lines = _lines(verify._family_lines)
    assert lines["closed-form family vs derived-operator eigenfamily"] == (
        "MISMATCH", "not proportional at n = [2]")


def test_candidate_eigen_solve_that_finds_the_family_is_a_match(monkeypatch):
    monkeypatch.setattr(verify, "exceptional_jacobi_candidate_solve",
                        verify.exceptional_jacobi)
    lines = _lines(verify._family_lines)
    for n in range(1, 4):
        assert lines[f"candidate-operator eigen-solve at n = {n}"] == (
            "MATCH", "candidate eigen-solve proportional to closed form")


def test_potential_line_reads_the_candidates_eigenvalue(monkeypatch):
    # the derived operator in place of the candidate's reproduces A^2 = 25 on
    # the degree-1 member; one plus it gives 26
    derived = verify.angular_schrodinger_x
    name = "candidate deformation term of the wedge potential"
    monkeypatch.setattr(verify, "angular_schrodinger_x",
                        lambda alpha, beta, candidate_potential: derived(
                            alpha, beta))
    verdict, witness = _lines(verify._potential_lines)[name]
    assert verdict == "MATCH"
    assert witness.endswith(
        "; candidate reproduces the derived eigenvalue (unexpected)")
    monkeypatch.setattr(verify, "angular_schrodinger_x",
                        lambda alpha, beta, candidate_potential:
                        _plus_identity(derived(alpha, beta)))
    verdict, witness = _lines(verify._potential_lines)[name]
    assert verdict == "MISMATCH"
    assert witness.endswith(
        "; gauge-conjugated candidate gives eigenvalue 26 on the degree-1 "
        "member instead of A^2 = 25")


@pytest.mark.parametrize("builder,name,wrong,line", [
    ("_deformed_ladder_lines", "deformed_lowering", deformed_raising,
     "lowering annihilates the bottom (degree-1) member"),
    ("_radial_ladder_lines", "radial_lowering", radial_raising,
     "derived lowering annihilates the bottom state"),
])
def test_lowering_that_keeps_the_bottom_is_a_mismatch(monkeypatch, builder,
                                                      name, wrong, line):
    monkeypatch.setattr(verify, name, wrong)
    verdict, witness = _lines(getattr(verify, builder))[line]
    assert verdict == "MISMATCH"
    assert witness.startswith("image ") and witness.endswith(" is not zero")


def test_radial_candidate_off_the_family_is_a_mismatch(monkeypatch):
    # the raising ladder maps the bottom state off its own line
    monkeypatch.setattr(verify, "radial_lowering_candidate", radial_raising)
    verdict, witness = _lines(verify._radial_ladder_lines)[
        "candidate lowering ladder"]
    assert verdict == "MISMATCH"
    assert witness.startswith("bottom-state image is not even in the "
                              "family: image has a surviving pole")


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify._usable_cpus() == 1


def _doubled(op):
    """2 * op, for an operator or for a chain (its last factor doubled)."""
    if isinstance(op, LadderChain):
        return LadderChain(op.factors[:-1] + (_doubled(op.factors[-1]),))
    return DiffOp(tuple(2 * c for c in op.coeffs))


@pytest.fixture(scope="module")
def small_report():
    return {(ln.section, ln.name): ln
            for ln in verification_report(F(1), F(3), nmax=3, mmax=2).lines}


@pytest.mark.parametrize("name,real,section,line", [
    ("raising_intertwiner", raising_intertwiner, "intertwiners",
     "claimed forward intertwiner coefficient 2n-2+2*alpha"),
    ("deformed_raising", deformed_raising, "deformed ladders",
     "claimed one-step raising coefficient"),
    ("deformed_lowering_chain", deformed_lowering_chain, "deformed ladders",
     "claimed 1-fold lowering chain coefficient"),
    ("radial_raising_chain", radial_raising_chain, "radial ladders",
     "claimed 1-fold raising chain coefficient"),
])
def test_claim_tables_are_scored_against_the_measured_operator(
        monkeypatch, small_report, name, real, section, line):
    # a claim compared with a formula cannot see a doubled operator; one
    # compared with that operator's measured action must
    monkeypatch.setattr(verify, name, lambda *args: _doubled(real(*args)))
    rep = verification_report(F(1), F(3), nmax=3, mmax=2)
    doubled = next(ln for ln in rep.lines if (ln.section, ln.name)
                   == (section, line))
    before = small_report[(section, line)]
    assert (doubled.verdict, doubled.detail) != (before.verdict, before.detail)


PRODUCT_LINES = {
    "deformed_raising":
        ("deformed ladders",
         "1-fold raising chain equals the product of its steps"),
    "radial_lowering":
        ("radial ladders",
         "1-fold lowering chain equals the product of its steps"),
}


@pytest.mark.parametrize("name,real", [("deformed_raising", deformed_raising),
                                       ("radial_lowering", radial_lowering)])
def test_chain_products_multiply_measured_steps(monkeypatch, small_report,
                                                name, real):
    # the product side is the one-steps' measured action, so a doubled step
    # doubles it while the applied chain stays as it was
    line = PRODUCT_LINES[name]
    assert small_report[line].verdict == "MATCH"
    monkeypatch.setattr(verify, name, lambda *args: _doubled(real(*args)))
    rep = verification_report(F(1), F(3), nmax=3, mmax=2)
    doubled = next(ln for ln in rep.lines if (ln.section, ln.name) == line)
    assert doubled.verdict == "NORMALIZATION(2)"


def test_chain_product_with_a_step_off_the_family_is_a_mismatch(monkeypatch):
    # the one-step built for n + 1 sends member n off the family's line
    monkeypatch.setattr(verify, "deformed_raising",
                        lambda n, a, b: deformed_raising(n + 1, a, b))
    rep = verification_report(F(1), F(3), nmax=3, mmax=2)
    line = next(ln for ln in rep.lines
                if (ln.section, ln.name) == PRODUCT_LINES["deformed_raising"])
    assert line.verdict == "MISMATCH"
    assert line.detail.startswith("a step leaves the family — n = ")
    assert "not proportional to" in line.detail


def _record_builder_calls(monkeypatch):
    """List of (builder name, arguments) of every call of the one-step and
    chain deformed builders, wherever the scorecard looks them up."""
    calls = []

    def recording(name, real):
        def build(*args):
            calls.append((name, args))
            return real(*args)
        return build

    for name in ("deformed_raising", "deformed_lowering",
                 "deformed_raising_chain", "deformed_lowering_chain"):
        wrapper = recording(name, getattr(ladders, name))
        for module in (ladders, spectral, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_scorecard_composes_no_deformed_chain(monkeypatch, compositions):
    # chains are applied factor by factor and gauge conjugation works on
    # coefficient lists, so no run composes an operator, whatever the
    # angular chain length and whether or not the family's cache is warm;
    # in-process, so the worker's sections are counted too
    _usable_cpus(monkeypatch, 1)
    counts = []
    for q in (2, 8, 2, 8):
        compositions.clear()
        verification_report(F(1), F(3), p=1, q=q)
        counts.append(len(compositions))
    assert counts == [0, 0, 0, 0]


def test_one_step_ladders_reuse_the_q1_chains(monkeypatch):
    # every one-step ladder the scorecard asks for is the 1-fold chain at
    # the same index; in-process, so the ladder-closure gate's are seen too
    _usable_cpus(monkeypatch, 1)
    calls = _record_builder_calls(monkeypatch)
    verification_report(F(1), F(3), nmax=3, mmax=2)
    chains = {call for call in calls if call[0].endswith("_chain")}
    steps = [call for call in calls if not call[0].endswith("_chain")]
    assert steps
    for name, (n, alpha, beta) in steps:
        assert (f"{name}_chain", (n, 1, alpha, beta)) in chains


@pytest.mark.parametrize("p,q", [(1, 1), (3, 2)])
def test_skewed_raising_step_fails_the_reflection_line(skewed_raising, p, q):
    # the parity line's negative control: a classical raising step that is
    # not the reflected lowering one is printed as a mismatch, with the
    # report's witnesses
    rep = verification_report(F(1), F(3), p=p, q=q)
    assert ("  [MISMATCH] raising and lowering chains swap under eigenroot "
            "reflection A -> -A -- angular swap fails at entries "
            in rep.render())


# ---------------------------------------------------------------------------
# the worker: the same report forked or in-process, and no child left behind
# ---------------------------------------------------------------------------

# the 13 points of the benchmark's scorecard sweep, all at q = 1; (1/3, 50)
# fails the classical conservation gate, and (1/4, 30, 2) and
# (1/100, 1/50, 1) leave the wedge mid-integration
SWEEP = [("1", "3", 1), ("1", "2", 2), ("1/2", "5/2", 2), ("3/2", "7/2", 1),
         ("2", "9/4", 1), ("5/2", "11/4", 3), ("3", "4", 2), ("1/3", "50", 1),
         ("1/4", "30", 2), ("1/10", "3/5", 1), ("1/100", "1/50", 1),
         ("1/3", "7/4", 1), ("1/2", "3/4", 1)]

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the worker needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """A list with one entry per `os.fork` call the parent makes while the
    test runs."""
    calls = []
    real = os.fork

    def fork():
        calls.append(None)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)


def _outcome(report):
    error = report.error
    return (report.render(), type(error), str(error), report.exit_code)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _broken(action, real):
    """A stand-in for the section or gate helper `real`: raise `action` if
    it is an exception; else write it to stderr and defer to `real`."""
    def section(*args):
        if isinstance(action, Exception):
            raise action
        sys.stderr.write(action)
        return real(*args)
    return section


PARENT = VerificationError("parent section broke")
WORKER = VerificationError("worker section broke")
CLASSICAL = VerificationError("classical section broke")


@needs_fork
@pytest.mark.parametrize("point,broken,moved", [
    *((dict(alpha="1", beta="3", p=p, q=q), {}, {})
      for p, q in ((3, 2), (2, 3), (7, 8))),
    *((dict(alpha=a, beta=b, p=p), {}, {}) for a, b, p in SWEEP),
    (dict(alpha="1", beta="3"), {"_intertwiner_lines": PARENT}, {}),
    (dict(alpha="1", beta="3"), {"_radial_ladder_lines": WORKER}, {}),
    # a parent section before the worker's: its error wins, and the
    # worker's stderr is not printed
    (dict(alpha="1", beta="3"), {"_deformed_ladder_lines": PARENT,
                                 "_gate_lines": "worker stderr\n"}, {}),
    # a worker section before a parent one: its error wins
    (dict(alpha="1", beta="3"), {"_radial_ladder_lines": WORKER,
                                 "_composite_lines": PARENT}, {}),
    (dict(alpha="1", beta="3"), {"_radial_ladder_lines": "worker stderr\n"},
     {}),
    (dict(alpha="1", beta="3"),
     {"angular_gram": QuadratureError("no convergence")}, {}),
    # the section table is the only place the split lives: moving sections
    # between the processes is one entry and changes no byte, whether they
    # pass, write to stderr or raise
    *((point, broken, {False: ("_composite_lines", "_gate_lines")})
      for point in (dict(alpha="1", beta="3"), dict(alpha="1/3", beta="50"))
      for broken in ({}, {"_radial_ladder_lines": "parent stderr\n",
                          "_composite_lines": "worker stderr\n"},
                     {"_composite_lines": WORKER})),
    # with `classical`, each classical gate in either process: the worker's
    # conservation and the parent's closure, or the other way round
    *((dict(alpha=a, beta=b, p=p, classical=True), broken, moved)
      for a, b, p in (("1", "3", 1), ("1/3", "50", 1), ("1/4", "30", 2))
      for moved in ({}, {True: ("_gate_lines", "_closure_lines")})
      for broken in ({}, {"angular_gram": QuadratureError("no convergence")})),
    *((dict(alpha="1", beta="3", classical=True), broken, moved)
      for moved in ({}, {True: ("_gate_lines", "_closure_lines")})
      for broken in ({"_conservation_lines": CLASSICAL},
                     {"_closure_lines": CLASSICAL},
                     {"_conservation_lines": "conservation stderr\n",
                      "_closure_lines": "closure stderr\n"})),
], ids=repr)
def test_scorecard_worker_and_in_process_report_alike(monkeypatch, capsys,
                                                      forks, point, broken,
                                                      moved):
    for name, action in broken.items():
        monkeypatch.setattr(verify, name,
                            _broken(action, getattr(verify, name)))
    for classical, names in moved.items():
        monkeypatch.setitem(verify._IN_WORKER, classical, frozenset(names))
    outcomes = []
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        outcome = _outcome(verification_report(**point))
        outcomes.append((*outcome, capsys.readouterr().err))
        # the worker ran with two CPUs, and not with one
        assert len(forks) == 1
        _assert_no_child_left()
    assert outcomes[0] == outcomes[1]
    raised = [a for a in broken.values() if isinstance(a, Exception)]
    if raised:
        assert outcomes[0][1:3] == (type(raised[0]), str(raised[0]))
    written = [a for a in broken.values() if isinstance(a, str)]
    assert outcomes[0][4] == ("".join(written) if not raised else "")


@needs_fork
@pytest.mark.parametrize("point", [
    *(dict(alpha=a, beta=b, p=p) for a, b, p in SWEEP),
    dict(alpha="1", beta="3", p=1, q=3),
    dict(alpha="1", beta="3", p=1, q=6),
    # exits through r > 0
    dict(alpha="1", beta="3", omega=1e150),
    # the drift leaves the wedge at t = 12.05, past the closure's 2.5
    # periods: the closure's run stays inside, and the drift's exit ends the
    # report
    dict(alpha="1/50", beta="1", p=2),
], ids=repr)
def test_classical_worker_and_in_process_report_alike(monkeypatch, forks,
                                                      point):
    outcomes = []
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        outcomes.append(_outcome(verification_report(**point,
                                                     classical=True)))
    # the worker ran with two CPUs, and not with one
    assert len(forks) == 1
    assert outcomes[0] == outcomes[1]
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("point,classical", [
    (dict(alpha="1", beta="3"), "PASS classical closure"),
    (dict(alpha="1/3", beta="50"), "FAIL classical conservation"),
])
def test_classical_worker_is_reaped_after_its_lines(monkeypatch, forks,
                                                   point, classical):
    _usable_cpus(monkeypatch, 2)
    report = verification_report(**point, classical=True)
    assert len(forks) == 1 and report.error is None
    assert classical in report.render()
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("name,error", [
    ("_radial_ladder_lines", VerificationError("exact section broke")),
    ("angular_gram", QuadratureError("no convergence")),
])
def test_check_that_raises_kills_the_classical_worker(monkeypatch, forks,
                                                      name, error):
    # a scored section or a float gate that raises ends the report before
    # any classical line; the worker's result is discarded
    def broken(*args):
        raise error
    monkeypatch.setattr(verify, name, broken)
    _usable_cpus(monkeypatch, 2)
    report = verification_report(1, 3, classical=True)
    assert len(forks) == 1 and report.error is error
    assert "classical" not in report.render()
    _assert_no_child_left()


@needs_fork
def test_classical_worker_that_dies_is_an_error(monkeypatch, forks):
    monkeypatch.setattr(verify, "_conservation_lines",
                        lambda params: os._exit(3))
    _usable_cpus(monkeypatch, 2)
    report = verification_report(1, 3, classical=True)
    assert len(forks) == 1
    assert isinstance(report.error, VerificationError)
    assert "status 3" in str(report.error)
    assert report.exit_code == 1
    assert "classical" not in report.render()
    _assert_no_child_left()


@needs_fork
def test_classical_gates_run_in_process_while_another_thread_lives(
        monkeypatch, forks):
    _usable_cpus(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        report = verification_report(1, 3, nmax=3, mmax=2, classical=True)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert not forks
    assert "PASS classical closure" in report.render()


class _Interrupt(BaseException):
    """Not an Exception, so no section keeps it as its outcome."""


@pytest.mark.parametrize("cpus", [
    pytest.param(2, marks=needs_fork), 1])
def test_worker_reraises_what_ended_its_job(monkeypatch, forks, cpus):
    # what `_measure` does not keep ends the worker's job: the join sends it
    # back up from the forked worker and raises it in the parent
    def interrupted(run):
        raise _Interrupt("worker interrupted")
    monkeypatch.setattr(verify, "_radial_ladder_lines", interrupted)
    _usable_cpus(monkeypatch, cpus)
    with pytest.raises(_Interrupt, match="worker interrupted"):
        verification_report(1, 3, nmax=3, mmax=2)
    assert len(forks) == (1 if cpus == 2 else 0)
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [
    pytest.param(2, marks=needs_fork), 1])
def test_classical_worker_reraises_a_foreign_exception(monkeypatch, cpus):
    def broken(params):
        raise ZeroDivisionError("not a package error")
    monkeypatch.setattr(verify, "_conservation_lines", broken)
    _usable_cpus(monkeypatch, cpus)
    with pytest.raises(ZeroDivisionError, match="not a package error"):
        verification_report(1, 3, nmax=3, mmax=2, classical=True)
    _assert_no_child_left()
