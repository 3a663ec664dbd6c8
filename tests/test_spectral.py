"""Floating-point oracles: residuals on grids, Gram matrices under the true
weight, numeric ladder application, and the exact-rational degeneracy table."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from xsuperint import ladders, spectral
from xsuperint.angular import angular_potential, angular_potential_candidate
from xsuperint.errors import (NumericalOverflowError, QuadratureError,
                              VerificationError)
from xsuperint.ladders import (composite_action_report, composite_lowering,
                               composite_raising,
                               lowering_intertwiner_candidate, radial_eps,
                               radial_lowering)
from xsuperint.params import (ModelParams, QuantumState, angular_eigenroot,
                              energy, energy_ratio)
from xsuperint.spectral import (
    angular_gram,
    angular_values,
    default_rmax,
    degeneracy_table,
    hamiltonian_residual,
    ladder_numeric_check,
    radial_values,
    wavefunction_on_grid,
)

P13 = ModelParams(Fraction(1), Fraction(3))


def kparams(p, q, alpha=Fraction(1), beta=Fraction(3)):
    return ModelParams(alpha, beta, p=p, q=q)


def test_radial_values_overflow_guard():
    r = np.linspace(0.5, 3.0, 16)
    with pytest.raises(NumericalOverflowError):
        radial_values(0, Fraction(4000), 1.0, r)


def test_radial_values_at_origin():
    vals = radial_values(1, Fraction(5), 1.0, np.array([0.0, 1.0]))
    assert vals[0] == 0.0
    assert np.isfinite(vals[1]) and vals[1] != 0.0


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_hamiltonian_residual_small(p, q):
    params = kparams(p, q)
    for state in (QuantumState(0, 1), QuantumState(1, 2)):
        assert hamiltonian_residual(state, params) < 1e-9


#: (p, q) at which `verify`'s residual gate fails at (1, 3) on its default
#: 40 x 40 grid: six of the 43 coprime p, q <= 8 it admits (ROADMAP item 7).
#: The worst residuals are 3.3e-9, 8.7e-9, 1.5e-8, 2.2e-8, 2.7e-8, 1.6e-9.
RESIDUAL_GATE_FAILURES = [(1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 7)]


@pytest.mark.parametrize("p,q", [
    pytest.param(p, q, marks=pytest.mark.xfail(
        strict=True, reason="float residual above the 1e-9 gate at small k"))
    for p, q in RESIDUAL_GATE_FAILURES] + [(1, 3)])
def test_verify_residual_gate(p, q):
    # the four states and the grid that `xsuperint verify` checks; 1/3 is
    # the passing control, at 5.5e-10
    worst = max(hamiltonian_residual(QuantumState(m, n), kparams(p, q), 40)
                for m in range(2) for n in range(1, 3))
    assert worst < 1e-9


def test_candidate_potential_is_a_negative_control(monkeypatch):
    # the transcribed candidate deformation term in place of the derived one
    monkeypatch.setattr(spectral, "angular_potential",
                        angular_potential_candidate)
    res = hamiltonian_residual(QuantumState(0, 1), P13)
    assert res > 1e-2


def hamiltonian_residual_fd(state: QuantumState, params: ModelParams
                            ) -> float:
    """Second, fully independent residual oracle: the Laplacian by central
    finite differences (step h = 1e-5) on the factored wavefunction, over a
    12 x 12 interior grid.  Coarser accuracy (~h^2 * second-derivative scale)
    but shares no derivative algebra with the analytic path."""
    omega, kf = params.omega, params.k_float
    alpha, beta = params.alpha, params.beta
    a = params.k * angular_eigenroot(state.n, alpha, beta)
    e_val = energy(state, params)
    h = 1e-5
    rmax, span = default_rmax(params), params.wedge_span
    r = np.linspace(0.05 * rmax, rmax * 0.95, 12)
    phi = np.linspace(0.05 * span, span * 0.95, 12)

    def rad(rv: np.ndarray) -> np.ndarray:
        return radial_values(state.m, a, omega, rv)

    def ang(pv: np.ndarray) -> np.ndarray:
        return angular_values(state.n, params, pv)

    r0, rp, rm = rad(r), rad(r + h), rad(r - h)
    a0, ap, am = ang(phi), ang(phi + h), ang(phi - h)
    d1r = (rp - rm) / (2 * h)
    d2r = (rp - 2 * r0 + rm) / h ** 2
    d2a = (ap - 2 * a0 + am) / h ** 2
    pot = angular_potential(alpha, beta)
    x = np.cos(2 * kf * phi)
    v_ang = (np.polynomial.polynomial.polyval(x, pot.num.float_coeffs())
             / np.polynomial.polynomial.polyval(x, pot.den.float_coeffs()))
    rr = r[:, None]
    psi = np.outer(r0, a0)
    h_psi = (-0.5 * (np.outer(d2r, a0) + np.outer(d1r / r, a0)
                     + np.outer(r0, d2a) / rr ** 2)
             + (0.5 * omega ** 2 * rr ** 2
                + (kf ** 2 / (2 * rr ** 2)) * v_ang[None, :]) * psi)
    scale = abs(e_val) * float(np.max(np.abs(psi)))
    return float(np.max(np.abs(h_psi - e_val * psi))) / scale


def test_residual_fd_agrees():
    exact = hamiltonian_residual(QuantumState(0, 2), P13)
    fd = hamiltonian_residual_fd(QuantumState(0, 2), P13)
    assert exact < 1e-9
    # second-order stencil: small, but nowhere near the closed-form figure
    assert fd < 1e-3


@pytest.mark.parametrize("alpha,beta", [
    (Fraction(1), Fraction(3)),
    (Fraction(1, 2), Fraction(5, 2)),
])
def test_angular_gram_orthogonality(alpha, beta):
    g = angular_gram(alpha, beta, nmax=6)
    off = g - np.diag(np.diag(g))
    assert float(np.max(np.abs(off))) < 1e-12
    assert np.allclose(np.diag(g), 1.0)


def test_angular_gram_impossible_tolerance(monkeypatch):
    # doubling stops after the order passes GRAM_MAX_ORDER: 128 and 256 are
    # the two last orders computed past 64
    monkeypatch.setattr(spectral, "GRAM_TOL", 0.0)
    monkeypatch.setattr(spectral, "GRAM_MAX_ORDER", 128)
    with pytest.raises(QuadratureError, match=r"did not converge to 0\.0 by "
                       r"order 256$"):
        angular_gram(Fraction(1), Fraction(3), nmax=4)


# ---------------------------------------------------------------------------
# The numpy Gauss-Jacobi rule
# ---------------------------------------------------------------------------

RULE_PAIRS = [(Fraction(1), Fraction(3)), (Fraction(1, 3), Fraction(50)),
              (Fraction(1, 4), Fraction(30)),
              (Fraction(1, 10), Fraction(101, 10)),
              (Fraction(1, 100), Fraction(1, 50)),
              (Fraction(30), Fraction(50))]


@pytest.mark.parametrize("order,alpha,beta", [
    *((order, alpha, beta) for order in (64, 128, 256, 1024)
      for alpha, beta in RULE_PAIRS),
    (4096, Fraction(1), Fraction(3)),
])
def test_gauss_jacobi_matches_scipy(order, alpha, beta):
    a, b = float(alpha), float(beta)
    x, w = spectral._gauss_jacobi(order, a, b)
    x_ref, w_ref = roots_jacobi(order, a, b)
    assert float(np.max(np.abs(x - x_ref))) <= 1e-15
    # relative to the largest weight: pointwise, at the nodes next to
    # x = +-1 checked against mpmath, scipy's weights are off by up to 4e-9
    # at order 1024 and 3e-7 at 4096, and these by up to 2e-11 and 2e-10
    assert float(np.max(np.abs(w - w_ref))) <= 1e-9 * float(np.max(w_ref))


@pytest.mark.parametrize("order", [256, 1024, 4096])
@pytest.mark.parametrize("side", [1, -1])
def test_gauss_jacobi_is_accurate_next_to_the_pole(order, side):
    # at (1/10, 101/10) the weight pole b = 51/50 sits 0.02 past x = 1; the
    # integral of (1-x)^(1/10) (1+x)^(101/10) / (b-x)^2 over [-1, 1], by
    # mpmath quadrature at 30 digits, is 28319.303784570424155.  scipy's
    # rule is off by 3e-13 to 2.3e-12 at these orders.  side = -1 is the
    # mirror image, (101/10, 1/10) with the pole past x = -1
    a, b = (0.1, 10.1)[::side]
    x, w = spectral._gauss_jacobi(order, a, b)
    total = float(np.sum(w / (1.02 - side * x) ** 2))
    assert abs(total / 28319.303784570424155 - 1) < 1e-13


def jacobi_table(jmax, a, b, x):
    """P_0 .. P_jmax^(a, b) at x by the textbook three-term recurrence."""
    rows = [np.ones_like(x), (a + 1) + (a + b + 2) * (x - 1) / 2]
    for k in range(1, jmax):
        c = 2 * k + a + b
        rows.append(((c + 1) * ((c + 2) * c * x + a * a - b * b) * rows[k]
                     - 2 * (k + a) * (k + b) * (c + 2) * rows[k - 1])
                    / (2 * (k + 1) * (k + a + b + 1) * c))
    return np.array(rows[:jmax + 1])


@pytest.mark.parametrize("alpha,beta", [(1.0, 3.0), (1 / 3, 50.0)])
def test_gauss_jacobi_integrates_the_jacobi_gram(alpha, beta):
    # order 64 is exact through degree 127: sum_i w_i P_j P_k = delta_jk h_j
    x, w = spectral._gauss_jacobi(64, alpha, beta)
    vals = jacobi_table(20, alpha, beta, x)
    gram = vals @ (w[:, None] * vals.T)
    j = np.arange(21)
    log_h = ((alpha + beta + 1) * math.log(2)
             - np.log(2 * j + alpha + beta + 1)
             + np.array([math.lgamma(i + alpha + 1) + math.lgamma(i + beta + 1)
                         - math.lgamma(i + alpha + beta + 1)
                         - math.lgamma(i + 1) for i in j]))
    inv = np.exp(-log_h / 2)
    deviation = gram * np.outer(inv, inv) - np.eye(21)
    assert float(np.max(np.abs(deviation))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(50),
                    max_denominator=100),
       st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(500),
                    max_denominator=1000),
       st.integers(min_value=1, max_value=300))
def test_gauss_jacobi_rule_is_well_formed(alpha, gap, order):
    a, b = float(alpha), float(alpha + gap)
    x, w = spectral._gauss_jacobi(order, a, b)
    assert x.shape == w.shape == (order,)
    assert -1 < x[0] and x[-1] < 1 and np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    # the integral of (1-x)^a (1+x)^b over [-1, 1]
    mu0 = math.exp((a + b + 1) * math.log(2) + math.lgamma(a + 1)
                   + math.lgamma(b + 1) - math.lgamma(a + b + 2))
    assert math.isclose(float(np.sum(w)), mu0, rel_tol=1e-12)
    # and the first moment, exact at every order: E[x] = (b - a)/(a + b + 2)
    assert math.isclose(float(w @ x), mu0 * (b - a) / (a + b + 2),
                        rel_tol=1e-10, abs_tol=1e-12 * mu0)


def test_gauss_jacobi_raises_instead_of_a_collapsed_rule(monkeypatch):
    # every guess at one point: Halley takes them all to the same root
    monkeypatch.setattr(spectral, "_jacobi_guesses",
                        lambda n, a, b: np.full(n, 0.5))
    with pytest.raises(QuadratureError, match=r"order 64 at \(alpha, beta\) "
                       r"= \(1\.0, 3\.0\): nodes are not strictly increasing"):
        spectral._gauss_jacobi(64, 1.0, 3.0)


def test_gauss_jacobi_raises_on_weights_out_of_float_range():
    # the weights span more than the float range at this order
    with pytest.raises(QuadratureError, match=r"order 1024 at \(alpha, beta\) "
                       r"= \(1\.0, 1000\.0\): a weight is not finite and "
                       r"positive"):
        spectral._gauss_jacobi(1024, 1.0, 1000.0)


def test_angular_gram_never_doubles_a_nan_rule(monkeypatch):
    calls = []

    def nan_guesses(n, a, b):
        calls.append(n)
        return np.full(n, np.nan)

    monkeypatch.setattr(spectral, "_jacobi_guesses", nan_guesses)
    with pytest.raises(QuadratureError, match="order 64 "):
        angular_gram(Fraction(1), Fraction(3), nmax=4)
    assert calls == [64]


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_ladder_numeric_ok(p, q):
    params = kparams(p, q)
    deviation, ratio_error = ladder_numeric_check(
        composite_raising(QuantumState(p, 1), params), params)
    assert deviation < 1e-8
    assert ratio_error < 1e-10
    deviation, _ = ladder_numeric_check(
        composite_lowering(QuantumState(0, 1 + q), params), params)
    assert deviation < 1e-8


@pytest.mark.parametrize("alpha,beta,q", [
    (Fraction(100), Fraction(101), 1), (Fraction(1, 2), Fraction(1000), 8)])
def test_ladder_numeric_check_fit_does_not_overflow(alpha, beta, q):
    # the fit's dot products overflowed at these points, for a deviation
    # and ratio error of inf or nan, until both sides were scaled down
    params = ModelParams(alpha, beta, p=1, q=q)
    steps = (composite_raising(QuantumState(1, 1), params),
             composite_lowering(QuantumState(0, 1 + q), params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = [ladder_numeric_check(step, params) for step in steps]
    assert all(math.isfinite(value) for check in checks for value in check)
    if q == 1:
        assert all(dev < 1e-8 and err < 1e-10 for dev, err in checks)


def test_ladder_numeric_check_builds_the_angular_chain_once(monkeypatch):
    # the check measures the chain of the step it is handed and builds none
    builds = []
    real = ladders.deformed_raising_chain

    def build(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(ladders, "deformed_raising_chain", build)
    params = kparams(1, 2)
    ladder_numeric_check(composite_raising(QuantumState(1, 1), params), params)
    assert len(builds) == 1


def test_ladder_numeric_check_fails_an_image_that_keeps_a_pole():
    # the candidate backward intertwiner leaves its pole at x = -b in the
    # image of a deformed member: a VerificationError with that image
    step = dataclasses.replace(
        composite_raising(QuantumState(1, 1), P13),
        angular=lowering_intertwiner_candidate(P13.alpha, P13.beta))
    with pytest.raises(VerificationError,
                       match="angular chain image .* is not a nonzero"):
        ladder_numeric_check(step, P13)


def test_ladder_numeric_check_fails_an_image_that_vanishes():
    # a radial lowering ladder annihilates the bottom state m = 0, so this
    # step has no coefficient to fit
    a = angular_eigenroot(1, P13.alpha, P13.beta)
    step = dataclasses.replace(composite_raising(QuantumState(1, 1), P13),
                               source=QuantumState(0, 1),
                               radial=radial_lowering(a, radial_eps(0, a)))
    with pytest.raises(VerificationError,
                       match="radial chain image 0 is not a nonzero"):
        ladder_numeric_check(step, P13)


def test_degeneracy_table_structure():
    levels = degeneracy_table(P13, emax=14.0)
    ratios = [lv.ratio for lv in levels]
    assert ratios == sorted(ratios)
    assert all(lv.energy == float(lv.ratio) for lv in levels)
    # k = 1 at (1,3): E/omega = 2m + 2n + 4
    assert ratios[0] == 6
    mult = {lv.ratio: len(lv.states) for lv in levels}
    assert mult[Fraction(8)] == 2
    assert mult[Fraction(12)] == 4
    lv8 = next(lv for lv in levels if lv.ratio == 8)
    assert lv8.states == (QuantumState(1, 1), QuantumState(0, 2))


def test_degeneracy_chain_step():
    """The raising composite, applied, carries each state of a level onto
    the next one with its tabulated, nonzero coefficient."""
    params = kparams(3, 2)       # k = 3/2
    levels = degeneracy_table(params, emax=40.0)
    pairs = [pair for lv in levels for pair in zip(lv.states, lv.states[1:])]
    assert pairs, "expected at least one degenerate level below the cutoff"
    for s, t in pairs:
        step = composite_raising(s, params)
        assert step.target == t
        measured, witness = composite_action_report(step, params)
        assert measured == step.coefficient != 0, (s, witness)


def test_degeneracy_energies_are_exact():
    params = kparams(1, 2)       # k = 1/2
    levels = degeneracy_table(params, emax=20.0)
    for lv in levels:
        for st in lv.states:
            assert energy_ratio(st, params) == lv.ratio


def test_empty_degeneracy_table():
    assert degeneracy_table(P13, emax=0.0) == []
    assert degeneracy_table(P13, emax=5.9) == []


def test_wavefunction_grid_shape_and_sign():
    r = np.linspace(0.2, 2.5, 30)
    phi = np.linspace(0.05, float(P13.wedge_span) - 0.05, 25)
    psi = wavefunction_on_grid(QuantumState(0, 1), P13, r, phi)
    assert psi.shape == (30, 25)
    assert np.all(np.isfinite(psi))
    # nodeless ground state: a single sign on the open wedge
    assert np.all(psi > 0) or np.all(psi < 0)
