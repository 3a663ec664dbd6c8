"""Formula scorecard: every transcribed closed form is re-measured against an
independently derived ground truth and given a definite verdict.

Verdict vocabulary:

    MATCH               claimed value equals the measured one at every probe
    NORMALIZATION(c)    claimed = c * measured with a single constant c != 1
                        (a convention difference, not an error)
    MISMATCH            the ratio varies with the index, the image leaves the
                        family, or the values plainly disagree
    NO-SOLUTION         the stated eigenproblem has no solution at all
    UNRESOLVABLE        the formula contains an undefined symbol and no
                        constant value of it makes the claim true

The scorecard never reconciles silently: a candidate that fails is reported
with a concrete witness (the offending polynomial, the surviving pole, the
index-dependent ratio), and a claim that is merely a sign convention away
from the measurement is labelled as such rather than rounded up to MATCH.

The gates of `verify` are PASS or FAIL: the exact eigen-identity, the float
orthogonality, residual and ladder closure, and on request the classical
conservation and closure.  Only a FAIL fails a run.

Each run builds one raising and one lowering `CompositeStep`, on first use;
the exact composite lines and the float ladder-closure gate measure the
exact images each of the two computes once.

When two CPUs are usable, a worker forked at the start of the run measures
the sections `_IN_WORKER` names and the parent the others, up to its first
error (with `classical`, the worker's conservation gate and the parent's
closure gate each integrate their own run).  Every section's lines, stderr
and error are then read in print order, so the first error in that order
ends the report, and the output is that of the worker's sections run
in-process at the join (one usable CPU, no `os.fork`, or another thread
alive).
"""

from __future__ import annotations

import io
import os
import pickle
import sys
import threading
from collections import Counter
from contextlib import contextmanager, redirect_stderr
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import groupby
from operator import attrgetter
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .angular import (
    angular_gauge_logderiv,
    angular_operator,
    angular_potential,
    angular_potential_candidate,
    angular_schrodinger_x,
    exceptional_jacobi,
    exceptional_jacobi_candidate_solve,
)
from .classical import (ClassicalModel, closure_report, conservation_drift,
                        default_start)
from .errors import (
    NoSolutionError,
    ParameterDomainError,
    VerificationError,
    XSuperintError,
)
from .ladders import (
    CompositeStep,
    Measurement,
    action_report,
    claimed_deformed_lowering_action,
    claimed_deformed_raising_action,
    claimed_lowering_chain_action,
    claimed_radial_lowering_action,
    claimed_radial_lowering_chain_action,
    claimed_radial_raising_action,
    claimed_radial_raising_chain_action,
    claimed_raising_chain_action,
    claimed_raising_intertwiner_action,
    composite_action_report,
    composite_lowering,
    composite_raising,
    deformed_lowering,
    deformed_lowering_action,
    deformed_lowering_chain,
    deformed_raising,
    deformed_raising_action,
    deformed_raising_chain,
    derive_lowering_intertwiner,
    derive_raising_intertwiner,
    jacobi_lowering,
    jacobi_lowering_action,
    jacobi_lowering_candidate,
    jacobi_raising,
    jacobi_raising_action,
    jacobi_raising_candidate,
    l1_commutator_report,
    lowering_intertwiner,
    lowering_intertwiner_action,
    lowering_intertwiner_candidate,
    parity_report,
    radial_action_report,
    radial_eps,
    radial_family_image,
    radial_lowering,
    radial_lowering_action,
    radial_lowering_candidate,
    radial_lowering_chain,
    radial_raising,
    radial_raising_action,
    radial_raising_candidate,
    radial_raising_chain,
    raising_intertwiner,
    raising_intertwiner_action,
    raising_intertwiner_candidate,
    shifted_jacobi,
)
from .params import (ModelParams, QuantumState, angular_eigenroot,
                     laguerre_parameter)
from .polynomials import (
    Poly,
    RationalLike,
    as_fraction,
    exact_text,
    exceptional_jacobi_closed_form,
    jacobi_polynomial,
)
from .operators import DiffOp
from .spectral import angular_gram, hamiltonian_residual, ladder_numeric_check
from .utils import fmt_float, fraction_nullspace

MATCH = "MATCH"
MISMATCH = "MISMATCH"
NO_SOLUTION = "NO-SOLUTION"
UNRESOLVABLE = "UNRESOLVABLE"
PASS = "PASS"
FAIL = "FAIL"


def normalization(c: Fraction) -> str:
    return f"NORMALIZATION({exact_text(c)})"


@dataclass(frozen=True)
class CheckLine:
    """One scored formula or gate: what was checked, the verdict, a witness
    for anything that is not a plain MATCH (a gate's is its measured value
    and limit), and the title of its section, which `_measure` stamps."""
    name: str
    verdict: str
    detail: str = ""
    section: str = ""

    @property
    def is_gate(self) -> bool:
        return self.verdict in (PASS, FAIL)

    def format(self) -> str:
        if self.is_gate:
            return f"{self.verdict} {self.name}: {self.detail}"
        text = f"[{self.verdict}] {self.name}"
        if self.detail:
            text += f" -- {self.detail}"
        return text


def classify_claim(rows: Sequence[tuple[str, Fraction, Measurement]]
                   ) -> tuple[str, str]:
    """Score a table of (label, claimed value, measurement) rows, each
    measurement a measuring primitive's (coefficient, witness) output.

    A None coefficient (the image left the family) scores MISMATCH with its
    witness.  All ratios 1 -> MATCH; one common ratio c != 1 ->
    NORMALIZATION(c); anything index-dependent -> MISMATCH with the varying
    ratios as witness.  An empty table has nothing to score and raises
    ValueError.
    """
    if not rows:
        raise ValueError("classify_claim needs at least one probe")
    ratios: list[tuple[str, Fraction]] = []
    for label, claimed, (measured, witness) in rows:
        if measured is None:
            return MISMATCH, f"image leaves the family — {label}: {witness}"
        if measured == 0:
            if claimed == 0:
                continue
            return MISMATCH, (f"claim is nonzero at {label} where the "
                              f"measurement gives exactly 0")
        if claimed == 0:
            return MISMATCH, (f"claim vanishes at {label} where the "
                              f"measurement gives {exact_text(measured)}")
        ratios.append((label, as_fraction(claimed) / as_fraction(measured)))
    if not ratios:
        return MATCH, "zero on both sides at every probe"
    distinct = {r for _, r in ratios}
    if distinct == {Fraction(1)}:
        return MATCH, f"claimed equals measured at all {len(rows)} probes"
    if len(distinct) == 1:
        c = next(iter(distinct))
        return normalization(c), (
            f"claimed = {exact_text(c)} * measured at all {len(rows)} "
            f"probes — a normalization convention, not an index-dependent "
            f"error")
    shown = ", ".join(f"{lab}: {exact_text(r)}" for lab, r in ratios[:4])
    return MISMATCH, f"claimed/measured ratio varies with the index ({shown})"


def _scored(name: str, label: str, formula, args: tuple,
            measured: dict[int, Measurement]) -> CheckLine:
    """Score formula(k, *args) against measured[k] at every measured index
    k, the row labelled `label` followed by k."""
    return CheckLine(name, *classify_claim(
        [(f"{label}{k}", formula(k, *args), c) for k, c in measured.items()]))


def _product_scored(name: str, label: str, chains: dict[int, Measurement],
                    steps: dict[int, list[Measurement]]) -> CheckLine:
    """Score the product of the measured one-steps steps[k] against the
    measured chain chains[k] at every index k; a one-step that leaves the
    family makes the line MISMATCH with its witness."""
    rows = []
    for k, chain in chains.items():
        product = Fraction(1)
        for c, witness in steps[k]:
            if c is None:
                return CheckLine(name, MISMATCH, (
                    f"a step leaves the family — {label}{k}: {witness}"))
            product *= c
        rows.append((f"{label}{k}", product, chain))
    return CheckLine(name, *classify_claim(rows))


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Run:
    """One run's inputs, which every section builder reads."""
    params: ModelParams
    nmax: int
    mmax: int
    tol: float
    grid: int

    @cached_property
    def steps(self) -> tuple[CompositeStep, CompositeStep]:
        """The raising and lowering `CompositeStep`, built on first use."""
        params = self.params
        return (composite_raising(QuantumState(params.p, 1), params),
                composite_lowering(QuantumState(0, 1 + params.q), params))


def _eigen_identity_lines(run: _Run) -> list[CheckLine]:
    """Gate: the derived operator maps each closed-form member to A_n^2
    times itself, exactly."""
    alpha, beta = run.params.alpha, run.params.beta
    closed = {n: exceptional_jacobi_closed_form(n, alpha, beta)
              for n in range(1, run.nmax + 1)}
    op = angular_operator(alpha, beta)
    ok = all(action_report(op, member, member)[0]
             == angular_eigenroot(n, alpha, beta) ** 2
             for n, member in closed.items())
    return [CheckLine("eigen-identity", PASS if ok else FAIL,
                      f"operator reproduces A_n^2 on every family member, "
                      f"n = 1..{run.nmax} (exact)")]


def _family_lines(run: _Run) -> list[CheckLine]:
    """The closed-form family against the derived-operator eigenfamily, and
    against the candidate operator's eigen-solve, degree by degree."""
    alpha, beta = run.params.alpha, run.params.beta
    closed = {n: exceptional_jacobi_closed_form(n, alpha, beta)
              for n in range(1, run.nmax + 1)}
    ratios = {n: member.proportionality(exceptional_jacobi(n, alpha, beta))
              for n, member in closed.items()}
    bad = [n for n, ratio in ratios.items() if ratio in (None, 0)]
    name = "closed-form family vs derived-operator eigenfamily"
    if bad:
        lines = [CheckLine(name, MISMATCH, f"not proportional at n = {bad}")]
    else:
        shown = ", ".join(f"n={n}: {exact_text(ratios[n])}"
                          for n in list(ratios)[:3])
        lines = [CheckLine(
            f"{name} (n = 1..{len(closed)})", MATCH,
            f"proportional at every degree; closed/monic leading ratios {shown}, ...")]
    for n, member in closed.items():
        name = f"candidate-operator eigen-solve at n = {n}"
        try:
            cand = exceptional_jacobi_candidate_solve(n, alpha, beta)
        except NoSolutionError as exc:
            lines.append(CheckLine(name, NO_SOLUTION,
                                   f"candidate operator: {exc}"))
            continue
        if member.proportionality(cand) not in (None, 0):
            lines.append(CheckLine(name, MATCH, "candidate eigen-solve "
                                   "proportional to closed form"))
        else:
            lines.append(CheckLine(
                name, MISMATCH,
                f"closed form {member.pretty()} vs candidate-operator eigen "
                f"{cand.pretty()} — not proportional"))
    return lines


def _potential_lines(run: _Run) -> list[CheckLine]:
    alpha, beta = run.params.alpha, run.params.beta
    good = angular_potential(alpha, beta)
    cand = angular_potential_candidate(alpha, beta)
    g = angular_gauge_logderiv(alpha, beta)
    phat1 = exceptional_jacobi_closed_form(1, alpha, beta)
    a1 = angular_eigenroot(1, alpha, beta)
    op_cand = angular_schrodinger_x(
        alpha, beta, candidate_potential=True).gauge_conjugate(-g)
    coeff, detail = action_report(op_cand, phat1, phat1)
    if coeff == a1 ** 2:
        witness = "candidate reproduces the derived eigenvalue (unexpected)"
    elif coeff is None:
        witness = (f"gauge-conjugated candidate maps the degree-1 family "
                   f"member off its own line ({detail})")
    else:
        witness = (f"gauge-conjugated candidate gives eigenvalue "
                   f"{exact_text(coeff)} on the degree-1 member instead of "
                   f"A^2 = {exact_text(a1 ** 2)}")
    x0 = Fraction(0)
    return [CheckLine(
        "candidate deformation term of the wedge potential",
        MATCH if coeff == a1 ** 2 else MISMATCH,
        f"candidate and derived potentials differ as rational functions "
        f"(value at x = 0: {exact_text(cand.evaluate(x0))} vs "
        f"{exact_text(good.evaluate(x0))}); {witness}")]


def _jacobi_ladder_lines(run: _Run) -> list[CheckLine]:
    """Score the one-step ladders for the plain Jacobi family at the shifted
    parameters (alpha+1, beta-1) where the deformed construction uses them.
    Derived and candidate operators alike are measured against the derived
    action tables."""
    sa, sb = run.params.alpha + 1, run.params.beta - 1
    shifted = f"({exact_text(sa)}, {exact_text(sb)})"
    ladders = [
        (f"derived lowering ladder at parameters {shifted}",
         jacobi_lowering, jacobi_lowering_action, -1),
        (f"derived raising ladder at parameters {shifted}",
         jacobi_raising, jacobi_raising_action, +1),
        ("candidate lowering ladder",
         jacobi_lowering_candidate, jacobi_lowering_action, -1),
        ("candidate raising ladder",
         jacobi_raising_candidate, jacobi_raising_action, +1),
    ]
    lines = []
    for name, make, table, dn in ladders:
        rows = [(f"n = {n}", table(n, sa, sb),
                 action_report(make(n, sa, sb), jacobi_polynomial(n, sa, sb),
                               jacobi_polynomial(n + dn, sa, sb)))
                for n in range(1, run.nmax + 1)]
        lines.append(CheckLine(name, *classify_claim(rows)))
    return lines


def _resolve_free_scalar(alpha: Fraction, beta: Fraction, n: int
                         ) -> tuple[str, Optional[Fraction]]:
    """Outcome of demanding the candidate forward intertwiner work at one
    degree: ('any' | 'unique' | 'none', the scalar's value if unique).

    The candidate's image is affine in its undefined scalar t, so proportion-
    ality to the target is a 2-unknown exact linear problem in (t, c).
    """
    src = shifted_jacobi(n, alpha, beta)
    tgt = exceptional_jacobi_closed_form(n + 1, alpha, beta)
    img0 = raising_intertwiner_candidate(alpha, beta, 0).apply_ratfunc(src).as_poly()
    img1 = raising_intertwiner_candidate(alpha, beta, 1).apply_ratfunc(src).as_poly()
    basis = fraction_nullspace([[img1 - img0, -tgt, img0]])
    if len(basis) >= 2:
        return "any", None
    for v in basis:
        if v[2] != 0:
            return "unique", v[0] / v[2]
    return "none", None


def _intertwiner_lines(run: _Run) -> list[CheckLine]:
    alpha, beta, nmax = run.params.alpha, run.params.beta, run.nmax
    lines = []
    fwd = raising_intertwiner(alpha, beta)
    bwd = lowering_intertwiner(alpha, beta)
    for name, frozen, rederived in (
            ("forward", fwd, derive_raising_intertwiner(alpha, beta)),
            ("backward", bwd, derive_lowering_intertwiner(alpha, beta))):
        lines.append(CheckLine(
            f"{name} intertwiner re-derived from the ansatz",
            MATCH if rederived == frozen else MISMATCH,
            "nullspace solve reproduces the frozen closed form"
            if rederived == frozen else
            f"ansatz result {rederived.pretty()} differs from "
            f"{frozen.pretty()}"))

    def backward_rows(op: DiffOp) -> list[tuple[str, Fraction, Measurement]]:
        return [(f"n = {n}", lowering_intertwiner_action(n, alpha, beta),
                 action_report(op,
                               exceptional_jacobi_closed_form(n, alpha, beta),
                               shifted_jacobi(n - 1, alpha, beta)))
                for n in range(1, nmax + 1)]

    forward = {n: action_report(fwd, shifted_jacobi(n, alpha, beta),
                                exceptional_jacobi_closed_form(n + 1, alpha,
                                                               beta))
               for n in range(0, nmax)}
    lines += [
        _scored("forward intertwiner action table", "n = ",
                raising_intertwiner_action, (alpha, beta), forward),
        CheckLine("backward intertwiner action table",
                  *classify_claim(backward_rows(bwd))),
        _scored("claimed forward intertwiner coefficient 2n-2+2*alpha", "n=",
                claimed_raising_intertwiner_action, (alpha, beta), forward)]

    outcomes = [(n, *_resolve_free_scalar(alpha, beta, n))
                for n in range(0, min(nmax, 4))]
    kinds = {kind for _, kind, _ in outcomes}
    ts = {t for _, kind, t in outcomes if kind == "unique"}
    derived_t = alpha / (alpha - 1) if alpha != 1 else None
    required = ", ".join(f"n={n}: {kind}"
                         + (f" t={exact_text(t)}" if t is not None else "")
                         for n, kind, t in outcomes)
    if "none" not in kinds and len(ts) == 1 and ts != {derived_t}:
        detail = (f"t = {exact_text(min(ts))} makes the candidate intertwine "
                  f"at every probed degree: per-degree requirements "
                  f"{required}")
    elif kinds == {"any"}:
        detail = ("every value of the undefined scalar makes the candidate "
                  "intertwine at every probed degree")
    elif alpha == 1 and "none" in kinds and "unique" not in kinds:
        detail = ("the undefined scalar multiplies the factor (alpha - 1) = 0 "
                  "and drops out entirely; the candidate then annihilates "
                  "degree-0 input instead of raising it, and no value of the "
                  "scalar can restore the intertwining")
    elif ts == {derived_t}:
        detail = (f"the only value that intertwines is the parameter-"
                  f"dependent alpha/(alpha-1) = {exact_text(derived_t)}, "
                  f"which rewrites the zeroth term as alpha*(x - c) — the "
                  f"derived intertwiner; no constant resolves the symbol, and "
                  f"at alpha = 1 no value exists at all")
    else:
        detail = ("no single value of the undefined scalar makes the "
                  f"candidate intertwine: per-degree requirements {required}")
    lines.append(CheckLine("candidate forward intertwiner with undefined "
                           "scalar", UNRESOLVABLE, detail))

    cand_rows = backward_rows(lowering_intertwiner_candidate(alpha, beta))
    verdict, detail = classify_claim(cand_rows)
    left = [witness for _, _, (c, witness) in cand_rows if c is None]
    if left:
        detail = (f"pole sits at x = -b, inside neither the family nor the "
                  f"weight: {left[0]}")
    lines.append(CheckLine("candidate backward intertwiner", verdict, detail))
    return lines


def _deformed_ladder_lines(run: _Run) -> list[CheckLine]:
    params, nmax = run.params, run.nmax
    alpha, beta, q = params.alpha, params.beta, params.q

    def member(n: int) -> Poly:
        return exceptional_jacobi_closed_form(n, alpha, beta)

    def measured(make, ns: range, shift: int, *steps: int
                 ) -> dict[int, Measurement]:
        """make(n, *steps, alpha, beta) from member n to member n + shift."""
        return {n: action_report(make(n, *steps, alpha, beta), member(n),
                                 member(n + shift)) for n in ns}

    up = measured(deformed_raising, range(1, nmax + 1), 1)
    steps = {**up, **measured(deformed_raising, range(nmax + 1, q + 3), 1)}
    down = measured(deformed_lowering, range(2, nmax + 2), -1)
    up_chain = measured(deformed_raising_chain, range(1, max(nmax, 3) + 1),
                        q, q)
    down_chain = measured(deformed_lowering_chain,
                          range(q + 1, nmax + q + 1), -q, q)
    bottom = deformed_lowering(1, alpha, beta).apply_ratfunc(member(1))
    ab, qab = (alpha, beta), (q, alpha, beta)
    return [
        _scored("one-step raising action table", "n = ",
                deformed_raising_action, ab, up),
        _scored("one-step lowering action table", "n = ",
                deformed_lowering_action, ab, down),
        CheckLine("lowering annihilates the bottom (degree-1) member",
                  MATCH if bottom.is_zero() else MISMATCH,
                  "image is identically zero" if bottom.is_zero() else
                  f"image {bottom.pretty()} is not zero"),
        _scored("claimed one-step raising coefficient", "n=",
                claimed_deformed_raising_action, ab, up),
        _scored("claimed one-step lowering coefficient", "n=",
                claimed_deformed_lowering_action, ab, down),
        _scored(f"claimed {q}-fold raising chain coefficient", "n=",
                claimed_raising_chain_action, qab,
                {n: up_chain[n] for n in range(1, nmax + 1)}),
        _scored(f"claimed {q}-fold lowering chain coefficient", "n=",
                claimed_lowering_chain_action, qab, down_chain),
        _product_scored(
            f"{q}-fold raising chain equals the product of its steps", "n = ",
            {n: up_chain[n] for n in range(1, 4)},
            {n: [steps[n + i] for i in range(q)] for n in range(1, 4)}),
    ]


def _radial_ladder_lines(run: _Run) -> list[CheckLine]:
    p, mmax = run.params.p, run.mmax
    a = laguerre_parameter(1, run.params)

    def measured(make, ms: range, shift: int, *steps: int
                 ) -> dict[int, Measurement]:
        """make(a, eps_m, *steps) from the radial state (m, a) to
        (m + shift, a - 2 shift)."""
        return {m: radial_action_report(make(a, radial_eps(m, a), *steps),
                                        m, a, m + shift, a - 2 * shift)
                for m in ms}

    down = measured(radial_lowering, range(1, mmax + 1), -1)
    up = measured(radial_raising, range(0, mmax + 1), 1)
    down_chain = measured(radial_lowering_chain,
                          range(p, max(mmax, 2) + p + 1), -p, p)
    up_chain = measured(radial_raising_chain, range(0, mmax + 1), p, p)
    bottom = radial_family_image(radial_lowering(a, radial_eps(0, a)), 0, a,
                                 a + 2)
    lines = [
        CheckLine("derived lowering annihilates the bottom state",
                  MATCH if bottom.is_zero() else MISMATCH,
                  "image is identically zero" if bottom.is_zero() else
                  f"image {bottom.pretty()} is not zero"),
        _scored(f"derived lowering action table at a = {exact_text(a)}",
                "m = ", radial_lowering_action, (a,), down),
        _scored(f"derived raising action table at a = {exact_text(a)}",
                "m = ", radial_raising_action, (a,), up),
        _scored("claimed one-step lowering coefficient", "m=",
                claimed_radial_lowering_action, (a,), down),
        _scored("claimed one-step raising coefficient", "m=",
                claimed_radial_raising_action, (a,), up),
        _scored(f"claimed {p}-fold lowering chain coefficient", "m=",
                claimed_radial_lowering_chain_action, (a, p),
                {m: down_chain[m] for m in range(p, mmax + p + 1)}),
        _scored(f"claimed {p}-fold raising chain coefficient", "m=",
                claimed_radial_raising_chain_action, (a, p), up_chain),
        _product_scored(
            f"{p}-fold lowering chain equals the product of its steps", "m = ",
            {m: down_chain[m] for m in range(p, p + 3)},
            {m: [radial_action_report(
                radial_lowering(a + 2 * i, radial_eps(m, a)),
                m - i, a + 2 * i, m - i - 1, a + 2 * i + 2) for i in range(p)]
             for m in range(p, p + 3)}),
    ]

    own, witness = radial_action_report(
        radial_lowering_candidate(a, radial_eps(0, a)), 0, a, 0, a)
    if own == 0:
        verdict, detail = MATCH, "annihilates the bottom state"
    elif own is None:
        verdict, detail = MISMATCH, (
            f"bottom-state image is not even in the family: {witness}")
    else:
        shown = exact_text(own)
        if own == -(1 + a):
            shown = f"-(1 + a) = {shown}"
        verdict, detail = MISMATCH, (
            f"fails to annihilate the bottom state: maps it to {shown} times "
            f"itself (a = {exact_text(a)})")
    lines.append(CheckLine("candidate lowering ladder", verdict, detail))

    cand = measured(radial_raising_candidate, range(0, 3), 1)
    verdict, detail = classify_claim(
        [(f"m = {m}", radial_raising_action(m, a), c) for m, c in cand.items()])
    left = [f"m = {m}" for m, (c, _) in cand.items() if c is None]
    if left:
        detail = ("image is not proportional to any family member at "
                  + ", ".join(left))
    lines.append(CheckLine("candidate raising ladder", verdict, detail))
    return lines


def _composite_lines(run: _Run) -> list[CheckLine]:
    params, (up, down) = run.params, run.steps
    p, q = params.p, params.q
    lines = []
    for name, step in (
            (f"energy-preserving raising composite (m, n) -> "
             f"(m-{p}, n+{q})", up),
            (f"energy-preserving lowering composite (m, n) -> "
             f"(m+{p}, n-{q})", down)):
        measured, witness = composite_action_report(step)
        ok = measured == step.coefficient
        detail = (f"(m, n) = ({step.source.m}, {step.source.n}) -> "
                  f"({step.target.m}, {step.target.n}) at exact E/omega = "
                  f"{exact_text(step.energy)}; coefficient "
                  f"{exact_text(step.coefficient)}")
        if not ok:
            detail += ", but the chains measure " + (
                witness if measured is None else exact_text(measured))
        lines.append(CheckLine(name, MATCH if ok else MISMATCH, detail))

    gap, witness = l1_commutator_report(up)
    if gap is None:
        detail = (f"commutator image on (m, n) = ({p}, 1) leaves the family: "
                  f"{witness}")
    elif gap == 0:
        detail = "commutator vanished on an interior state"
    else:
        detail = (f"commutator eigen-coefficient on (m, n) = ({p}, 1) is "
                  f"{exact_text(gap)} != 0")
    lines.append(CheckLine(
        "composites do not commute with the angular invariant",
        MATCH if gap else MISMATCH, detail))

    failures = parity_report(params.alpha, params.beta, p, q)
    lines.append(CheckLine(
        "raising and lowering chains swap under eigenroot reflection A -> -A",
        MISMATCH if failures else MATCH,
        "; ".join(failures) or "verified by exact coefficient interpolation "
        "in A (with held-out nodes), by direct index substitution, and "
        "against a negative control"))
    return lines


def _gate_lines(run: _Run) -> Iterator[CheckLine]:
    """The float gates, the last of them the ladder closure measuring the
    composite steps, each yielded as soon as it is measured."""
    params, tol = run.params, run.tol
    gram = angular_gram(params.alpha, params.beta, min(run.nmax, 6))
    off = float(max(abs(gram[i, j]) for i in range(gram.shape[0])
                    for j in range(gram.shape[1]) if i != j))
    yield CheckLine("orthogonality", PASS if off < 1e-12 else FAIL,
                    f"worst relative off-diagonal Gram entry "
                    f"{fmt_float(off)} (limit 1e-12)")

    states = [QuantumState(m, n) for m in range(0, 2) for n in range(1, 3)]
    worst = max(hamiltonian_residual(s, params, run.grid) for s in states)
    yield CheckLine("residual", PASS if worst < tol else FAIL,
                    f"worst relative Schrodinger residual {fmt_float(worst)} "
                    f"over {len(states)} states (limit {fmt_float(tol)})")

    checks = [ladder_numeric_check(step) for step in run.steps]
    ok = all(dev < 1e-8 and err < 1e-10 for dev, err in checks)
    deviation, ratio_error = (max(column) for column in zip(*checks))
    yield CheckLine(
        "ladder closure", PASS if ok else FAIL,
        f"numeric images track the exact coefficients (deviation "
        f"{fmt_float(deviation)}, ratio error {fmt_float(ratio_error)})")


def _conservation_lines(run: _Run) -> Iterator[CheckLine]:
    """The classical conservation gate: the drift over 20 radial periods."""
    model = ClassicalModel.from_model_params(run.params)
    drift = conservation_drift(model, default_start(model), 20)
    drifted = max(drift.energy_drift, drift.invariant_drift)
    yield CheckLine("classical conservation", PASS if drifted < 1e-8 else FAIL,
                    f"drift {fmt_float(drifted)} over 20 radial periods")


def _closure_lines(run: _Run) -> Iterator[CheckLine]:
    """The classical closure gate: the orbit's best return within 2.5 q
    radial periods."""
    model = ClassicalModel.from_model_params(run.params)
    closure = closure_report(model, default_start(model),
                             2.5 * run.params.q * model.radial_period)
    yield CheckLine(
        "classical closure", PASS if closure.distance < 1e-6 else FAIL,
        f"normalized return distance {fmt_float(closure.distance)} at "
        f"t = {fmt_float(closure.time)}")


class _Outcome(NamedTuple):
    """What one section measured: its lines up to the exception that ended
    it, that exception, and what it wrote to stderr meanwhile."""
    lines: list[CheckLine]
    error: Optional[Exception]
    stderr: str

    def keep(self, lines: list[CheckLine]) -> None:
        """Write the section's stderr, add its lines to `lines`, then raise
        what ended it, if anything did."""
        sys.stderr.write(self.stderr)
        lines += self.lines
        if self.error is not None:
            raise self.error


def _measure(run: _Run, names: Iterable[str]) -> dict[str, _Outcome]:
    """Run the builders named `names` on `run` in turn, each looked up in this
    module as it runs and its stderr held back, up to the first that raises.
    Each line is stamped with its builder's title in the section tables."""
    titles = {**_SECTIONS, **_CLASSICAL_SECTIONS}
    outcomes = {}
    for name in names:
        lines: list[CheckLine] = []
        with redirect_stderr(io.StringIO()) as err:
            try:
                for line in globals()[name](run):
                    lines.append(replace(line, section=titles[name]))
            except Exception as exc:
                outcomes[name] = _Outcome(lines, exc, err.getvalue())
                return outcomes
        outcomes[name] = _Outcome(lines, None, err.getvalue())
    return outcomes


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _worker(job: Callable[[], dict]) -> Iterator[Callable[[], dict]]:
    """Yield a callable that returns `job()` or raises what it raised.

    `verification_report` opens one per run, for the sections `_IN_WORKER`
    names.  With `os.fork`, two usable CPUs and no other thread alive, the
    job runs at once in a forked worker and the callable joins it: the
    worker pickles its result or exception down a pipe and ends with
    `os._exit`, so it never flushes the parent's stdio buffers.  Otherwise
    the job runs in-process when the callable is called.  On exit an
    unjoined worker is killed and every worker reaped; one that ends
    without sending its result raises VerificationError naming its status.
    """
    if not (hasattr(os, "fork") and _usable_cpus() >= 2
            and threading.active_count() == 1):
        yield job
        return
    import signal  # kept off package import: only a forking run needs it
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                reply = (True, job())
            except BaseException as exc:
                reply = (False, exc)
            with open(wfd, "wb") as pipe:
                pickle.dump(reply, pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(wfd)
    pipe = open(rfd, "rb")
    reaped = False

    def join() -> dict:
        nonlocal reaped
        with pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if status != 0 or not data:
            raise VerificationError(
                f"the verify worker exited with status {status} before "
                f"sending its result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    try:
        yield join
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

#: a run's sections in print order: each builder's name, and the title its
#: lines are listed under
_SECTIONS = {"_eigen_identity_lines": "eigenfamily",
             "_family_lines": "eigenfamily",
             "_potential_lines": "angular potential",
             "_jacobi_ladder_lines": "plain-jacobi ladders",
             "_intertwiner_lines": "intertwiners",
             "_deformed_ladder_lines": "deformed ladders",
             "_radial_ladder_lines": "radial ladders",
             "_composite_lines": "composite structure",
             "_gate_lines": "spectral"}
#: the sections `classical` adds after them, in print order
_CLASSICAL_SECTIONS = {"_conservation_lines": "classical",
                       "_closure_lines": "classical"}

#: the sections the worker takes: in plain `verify` the radial ladders and the
#: float gates, which cost about what the other sections do, and with
#: `classical` the conservation gate alone, whose 20-period drift run at
#: q = 1 costs about as much as the whole exact scorecard; the closure's run
#: of 2.5 q periods stays in the parent, after the float gates
_IN_WORKER = {False: frozenset({"_radial_ladder_lines", "_gate_lines"}),
              True: frozenset({"_conservation_lines"})}

@dataclass(frozen=True)
class VerificationReport:
    """Every line of one `verify` run in order: the eigen-identity gate, the
    scored formulas, then the other gates.  `error` is the package error
    that ended the run early, if any; the scored formulas are all or none."""
    params: ModelParams
    tol: float
    lines: tuple[CheckLine, ...]
    error: Optional[XSuperintError] = None

    def counts(self) -> Counter[str]:
        """Scored formulas per verdict, NORMALIZATION(c) counted as one."""
        return Counter(line.verdict.split("(")[0] for line in self.lines
                       if not line.is_gate)

    @property
    def exit_code(self) -> int:
        """1 when a gate failed or a check raised, else 0."""
        return int(self.error is not None
                   or any(line.verdict == FAIL for line in self.lines))

    def render(self) -> str:
        """`verify`'s stdout: a header, the gates measured before the scored
        formulas, the scored formulas by section with their summary, then
        the remaining gates."""
        params = self.params
        alpha, beta = exact_text(params.alpha), exact_text(params.beta)
        out = [f"verify: alpha = {alpha}, beta = {beta}, "
               f"omega = {params.omega}, k = {params.p}/{params.q}, "
               f"tol = {fmt_float(self.tol)}"]
        for gates, group in groupby(self.lines, attrgetter("is_gate")):
            if gates:
                out += [line.format() for line in group]
                continue
            out.append(f"formula scorecard at alpha = {alpha}, "
                       f"beta = {beta}, p = {params.p}, "
                       f"q = {params.q}")
            for section, lines in groupby(group, attrgetter("section")):
                out += [f"-- {section}", *("  " + ln.format() for ln in lines)]
            counts = self.counts()
            out.append("summary: " + ", ".join(
                f"{counts[k]} {k}" for k in sorted(counts)))
            findings = sum(counts[k] for k in (MISMATCH, NO_SOLUTION,
                                               UNRESOLVABLE))
            out.append(f"note: {findings} reconciliation findings are "
                       f"informational and do not affect the exit code")
        return "\n".join(out)


def verification_report(alpha: RationalLike, beta: RationalLike,
                        p: int = 1, q: int = 1,
                        nmax: int = 6, mmax: int = 6, *, omega: float = 1.0,
                        tol: float = 1e-9, grid: int = 40,
                        classical: bool = False) -> VerificationReport:
    """Run the whole `verify` scorecard at one parameter point.

    The eigen-identity gate and the scored formulas are exact rational
    arithmetic.  MISMATCH lines are informational — they document where the
    transcribed formulas disagree with what the operators actually do — so
    they never fail a run.  The other gates evaluate floats; `tol` bounds
    the residual on a grid x grid mesh.  Invalid parameters, nmax < 2,
    mmax < 1 and (with `classical`) a classical model the flow cannot
    carry included, raise before any check runs; a package error in a
    check ends the report there and is kept as its `error`.
    """
    if nmax < 2 or mmax < 1:
        raise ParameterDomainError(f"verify needs nmax >= 2 and mmax >= 1, "
                                   f"got nmax = {nmax}, mmax = {mmax}")
    params = ModelParams(alpha=alpha, beta=beta, omega=omega, p=p, q=q)
    if classical:
        ClassicalModel.from_model_params(params)    # valid, or raises now
    run = _Run(params, nmax, mmax, tol, grid)
    names = [*_SECTIONS, *(_CLASSICAL_SECTIONS if classical else ())]
    forked = [name for name in names if name in _IN_WORKER[classical]]
    lines: list[CheckLine] = []
    error = None
    with _worker(partial(_measure, run, forked)) as join:
        outcomes = _measure(run, [n for n in names if n not in forked])
        try:
            # in print order, so the first error in that order wins
            for name in names:
                if name not in outcomes:
                    outcomes.update(join())
                outcomes[name].keep(lines)
        except XSuperintError as exc:
            error = exc
            if names.index(name) < names.index("_gate_lines"):
                # the scored formulas are all or none
                lines = [line for line in lines if line.is_gate]
    return VerificationReport(params, tol, tuple(lines), error)
