"""Floating-point oracles: residuals on grids, Gram matrices under the true
weight, numeric ladder application, and the exact-rational degeneracy table."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

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
#: 40 x 40 grid: six of the 43 coprime p, q <= 8 it admits (ROADMAP item 2).
#: The worst residuals are 3.3e-9, 8.7e-9, 1.5e-8, 2.2e-8, 2.7e-8, 1.6e-9.
RESIDUAL_GATE_FAILURES = [(1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 7)]


@pytest.mark.parametrize("p,q", [
    pytest.param(p, q, marks=pytest.mark.xfail(
        strict=True, reason="float residual above the 1e-9 gate at small k"))
    for p, q in RESIDUAL_GATE_FAILURES] + [(1, 3)])
def test_verify_residual_gate(p, q):
    # the four states and the grid that `xsuperint verify` checks; 1/3 is
    # the passing control, at 5.5e-10
    worst = max(hamiltonian_residual(QuantumState(m, n), kparams(p, q),
                                     nr=40, nphi=40)
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
