"""Classical wedge dynamics: integrator structure, conservation, closure,
and the analytic fixed point."""

import math

import pytest

from xsuperint import classical as cm
from xsuperint.classical import (
    ClassicalModel,
    OrbitState,
    angular_invariant,
    classical_energy,
    closure_report,
    conservation_drift,
    convergence_order,
    equilibrium_state,
    integrate,
    time_reversal_error,
    trajectory,
    wedge_minimum_exact,
    wedge_minimum_numeric,
)
from xsuperint.errors import (ParameterDomainError, StepSizeError,
                              WedgeExitError)

MODEL = ClassicalModel(1.0, 1.0, 1.0, 3.0)
START = OrbitState(1.7, 0.4, 0.3, 1.1)


def test_tableau_consistency():
    a, b = cm._cooper_verner_tableau()
    assert abs(sum(b) - 1.0) < 1e-15
    # row-sum condition c_i = sum_j a_ij for a consistent RK scheme
    for row in a:
        assert sum(row) <= 1.0 + 1e-12


def test_model_domain_checks():
    for args in [
            (0.0, 1.0, 1.0, 3.0),
            (1.0, 1.0, -1.0, 3.0),
            # omega follows the ModelParams rule: omega^2 a finite normal
            # float
            (math.nan, 1.0, 1.0, 3.0),
            (math.inf, 1.0, 1.0, 3.0),
            (1e-300, 1.0, 1.0, 3.0),
            (1e200, 1.0, 1.0, 3.0),
            # k and both strengths must lie in (0, inf)
            (1.0, math.nan, 1.0, 3.0),
            (1.0, math.inf, 1.0, 3.0),
            (1.0, 1.0, math.nan, 3.0),
            (1.0, 1.0, 1.0, math.inf)]:
        with pytest.raises(ParameterDomainError):
            ClassicalModel(*args)


def test_short_run_conserves():
    rep = conservation_drift(MODEL, START, n_periods=20)
    assert rep.energy_drift < 1e-12
    assert rep.invariant_drift < 1e-12


def test_time_reversal():
    err = time_reversal_error(MODEL, START, 3.0, MODEL.radial_period / 256)
    assert err < 1e-10


def test_equilibrium_is_stationary():
    eq = equilibrium_state(MODEL)
    end = integrate(MODEL, eq, 5.0, MODEL.radial_period / 128)
    assert abs(end.r - eq.r) < 1e-12
    assert abs(end.phi - eq.phi) < 1e-12
    assert abs(end.pr) < 1e-12 and abs(end.pphi) < 1e-12


def test_wedge_minimum_oracle_agreement():
    for model in (MODEL, ClassicalModel(2.0, 1.5, 0.5, 2.5)):
        phi_e, val_e = wedge_minimum_exact(model)
        phi_n, val_n = wedge_minimum_numeric(model)
        # the potential is flat to second order at the minimum, so the
        # golden-section angle is good to ~sqrt(machine eps), not eps
        assert abs(phi_e - phi_n) < 1e-7
        assert abs(val_e - val_n) < 1e-9 * val_e
        # the analytic value is the square of the summed strengths
        a, b = model.alpha_strength, model.beta_strength
        assert val_e == (a + b) ** 2


def test_closure_at_commensurate_k():
    T = MODEL.radial_period
    rep = closure_report(MODEL, START, max_time=2.6 * T, exclude=0.4 * T)
    assert rep.distance < 1e-6
    assert abs(rep.time - T) < 0.05 * T


def test_no_closure_at_irrational_k():
    model = ClassicalModel(1.0, 99 / 70, 1.0, 3.0)     # near sqrt(2): no
    start = OrbitState(1.4, 0.3, 0.2, 0.9)             # short-period closure
    rep = closure_report(model, start, max_time=2.6 * model.radial_period,
                         exclude=0.4 * model.radial_period)
    assert rep.distance > 0.01


def test_convergence_order():
    order = convergence_order(MODEL, START)
    assert order >= 8.0


def test_wedge_exit():
    # aimed at the wall with barely any barrier to turn it around
    model = ClassicalModel(1.0, 1.0, 1e-6, 1e-6)
    start = OrbitState(1.0, 0.05, 0.0, -2.0)
    with pytest.raises(WedgeExitError):
        integrate(model, start, 5.0, 0.01)


@pytest.mark.parametrize("model, start", [
    (MODEL, OrbitState(1.0, 0.4, math.nan, 1.0)),
])
def test_nan_state_is_a_wedge_exit(model, start):
    # NaN compares false with everything, so it must fail the wedge tests
    period = model.radial_period
    with pytest.raises(WedgeExitError):
        integrate(model, start, period, period / 256)


def test_step_size_validation():
    with pytest.raises(StepSizeError):
        integrate(MODEL, START, 1.0, 0.0)
    with pytest.raises(StepSizeError):
        integrate(MODEL, START, 1.0, -0.1)
    with pytest.raises(StepSizeError):
        integrate(MODEL, START, -1.0, 0.1)
    # the default window starts half a radial period in
    with pytest.raises(StepSizeError):
        closure_report(MODEL, START, max_time=0.4 * MODEL.radial_period)


def test_step_count_must_be_finite():
    # t_end / dt overflows to inf: a StepSizeError, not an OverflowError
    with pytest.raises(StepSizeError):
        integrate(MODEL, START, 1.0, 1e-310)


def test_trajectory_lands_on_t_end():
    steps = list(trajectory(MODEL, START, 1.0, 0.3))
    assert [t for t, _ in steps] == [0.3, 0.6, 3 * 0.3, 1.0]
    assert integrate(MODEL, START, 1.0, 0.3).as_tuple() == steps[-1][1]


def test_invariant_value_at_start():
    # L1 = (p_phi/k)^2 + W(phi): direct formula check at the seed state
    k = MODEL.k
    w = MODEL.alpha_strength ** 2 / math.sin(k * START.phi) ** 2 \
        + MODEL.beta_strength ** 2 / math.cos(k * START.phi) ** 2
    assert abs(angular_invariant(MODEL, START)
               - ((START.pphi / k) ** 2 + w)) < 1e-12


def test_energy_value_at_start():
    e = classical_energy(MODEL, START)
    l1 = angular_invariant(MODEL, START)
    expect = 0.5 * START.pr ** 2 + l1 / (2 * START.r ** 2) \
        + 0.5 * MODEL.omega ** 2 * START.r ** 2
    assert abs(e - expect) < 1e-12
