"""Classical wedge dynamics: integrator structure, conservation, closure,
and the analytic fixed point."""

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsuperint import classical as cm
from xsuperint.angular import angular_potential
from xsuperint.classical import (
    ClassicalModel,
    OrbitState,
    angular_invariant,
    classical_energy,
    closure_report,
    conservation_drift,
    convergence_order,
    default_start,
    scan_closure,
    trajectory,
    wedge_potential,
)
from xsuperint.errors import (ParameterDomainError, StepSizeError,
                              WedgeExitError)
from xsuperint.params import ModelParams

MODEL = ClassicalModel(1.0, 1.0, 1.0, 3.0)
START = OrbitState(1.7, 0.4, 0.3, 1.1)


def trajectory_end(model: ClassicalModel, start: OrbitState, t_end: float,
                   dt: float) -> OrbitState:
    """The state `trajectory` ends in."""
    state = start
    for _, state in trajectory(model, start, t_end, dt):
        pass
    return OrbitState(*state)


def test_tableau_consistency():
    a, b = cm._cooper_verner_tableau()
    assert abs(sum(b) - 1.0) < 1e-15
    # row-sum condition c_i = sum_j a_ij for a consistent RK scheme
    for row in a:
        assert sum(row) <= 1.0 + 1e-12


def reference_derivatives(model, state):
    """The Hamiltonian flow field, written out once per call."""
    r, phi, pr, pphi = state
    k = model.k
    s = math.sin(k * phi)
    c = math.cos(k * phi)
    a2 = model.alpha_strength ** 2
    b2 = model.beta_strength ** 2
    w = a2 / (s * s) + b2 / (c * c)
    wp = 2 * k * (b2 * s / (c * c * c) - a2 * c / (s * s * s))
    r2 = r * r
    r3 = r2 * r
    return (pr,
            pphi / r2,
            pphi * pphi / r3 - model.omega ** 2 * r + k * k * w / r3,
            -k * k * wp / (2 * r2))


_A, _B = cm._cooper_verner_tableau()
_A_SPARSE = [[(j, aij) for j, aij in enumerate(row) if aij != 0.0]
             for row in _A]
_B_SPARSE = [(j, bj) for j, bj in enumerate(_B) if bj != 0.0]


def reference_step(model, state, dt):
    """One Cooper-Verner step as an index loop over the sparse tableau: the
    oracle the generated straight-line `rk8_step` must equal bit for bit."""
    ks = [reference_derivatives(model, state)]
    n = len(state)
    for row in _A_SPARSE[1:]:
        stage = list(state)
        for j, aij in row:
            kj = ks[j]
            f = aij * dt
            for i in range(n):
                stage[i] += f * kj[i]
        ks.append(reference_derivatives(model, tuple(stage)))
    out = list(state)
    for j, bj in _B_SPARSE:
        kj = ks[j]
        f = bj * dt
        for i in range(n):
            out[i] += f * kj[i]
    return tuple(out)


@pytest.mark.parametrize("k", [1.0, 2.0, 0.5, 1.5, 2 / 3])
@pytest.mark.parametrize("steps_per_period", [256, 16384])
def test_step_matches_the_tableau_loop(k, steps_per_period):
    model = ClassicalModel(1.0, k, 1.0, 3.0)
    dt = model.radial_period / steps_per_period
    state = (1.7, min(0.4, 0.5 * model.wedge_span), 0.3, 1.1)
    for _ in range(500):
        expect = reference_step(model, state, dt)
        state = cm.rk8_step(model, state, dt)
        assert state == expect


def test_partial_step_matches_the_tableau_loop():
    # trajectory's last step is shortened to land on t_end
    steps = list(trajectory(MODEL, START, 1.0, 0.3))
    assert cm.rk8_step(MODEL, steps[-2][1], 1.0 - 3 * 0.3) == steps[-1][1]
    assert steps[-1][1] == reference_step(MODEL, steps[-2][1], 1.0 - 3 * 0.3)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10), st.floats(0.2, 5), st.floats(0.05, 5),
       st.floats(0.05, 5), st.floats(0.3, 3), st.floats(0.05, 0.95),
       st.floats(-2, 2), st.floats(-2, 2), st.floats(1e-4, 0.1))
def test_step_matches_the_tableau_loop_anywhere(omega, k, a, b, r, frac, pr,
                                                pphi, dt_frac):
    # any strengths, any start inside the wedge, any step: the same floats
    model = ClassicalModel(omega, k, a, b)
    state = (r, frac * model.wedge_span, pr, pphi)
    dt = dt_frac * model.radial_period
    assert cm.rk8_step(model, state, dt) == reference_step(model, state, dt)


@pytest.mark.parametrize("k", [1.0, 2.0, 0.5, 1.5, 2 / 3])
@pytest.mark.parametrize("steps_per_period", [256, 16384])
def test_stream_matches_successive_steps(k, steps_per_period):
    # the stream loads the model and every a_ij * dt once per run; each of
    # its states is still the float one more `rk8_step` call gives
    model = ClassicalModel(1.0, k, 1.0, 3.0)
    dt = model.radial_period / steps_per_period
    start = (1.7, min(0.4, 0.5 * model.wedge_span), 0.3, 1.1)
    for span in (model.wedge_span, None):
        state = start
        for out in islice(cm._rk8_stream(model, start, dt, span), 500):
            state = cm.rk8_step(model, state, dt)
            assert out == state


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10), st.floats(0.2, 5), st.floats(0.05, 5),
       st.floats(0.05, 5), st.floats(0.3, 3), st.floats(0.05, 0.95),
       st.floats(-2, 2), st.floats(-2, 2), st.floats(1e-4, 0.1))
def test_stream_matches_successive_steps_anywhere(omega, k, a, b, r, frac,
                                                  pr, pphi, dt_frac):
    # unchecked, so the run may leave the wedge: the same floats (NaN too,
    # hence repr) regardless
    model = ClassicalModel(omega, k, a, b)
    state = (r, frac * model.wedge_span, pr, pphi)
    dt = dt_frac * model.radial_period
    for out in islice(cm._rk8_stream(model, state, dt, None), 20):
        state = cm.rk8_step(model, state, dt)
        assert repr(out) == repr(state)


def reference_exit(model, start, t_end, dt):
    """The wedge exit of a run as a per-step loop reports it: `rk8_step`,
    then the two wedge tests with their messages at t = n dt (t = 0 for the
    start), and the landing onto t_end tested at t_end; None if the run
    stays inside."""
    span = model.wedge_span
    nsteps = int(t_end / dt)
    times = [n * dt for n in range(nsteps + 1)] + [t_end]
    state = start
    for n, t in enumerate(times):
        if n:
            state = cm.rk8_step(model, state,
                                dt if n <= nsteps else t_end - nsteps * dt)
        r, phi = state[0], state[1]
        if not r > 0.0:
            return f"orbit left r > 0 (r = {r:.6g}) at t = {t:.6g}"
        if not 0.0 < phi < span:
            return f"orbit left the wedge (phi = {phi:.6g}) at t = {t:.6g}"
    return None


LOW_BARRIER = ClassicalModel(1.0, 1.0, 1e-6, 1e-6)


@pytest.mark.parametrize("model, start", [
    # aimed at the wall: leaves through phi = 0 after three steps
    (LOW_BARRIER, OrbitState(1.0, 0.05, 0.0, -2.0)),
    # aimed at the origin: leaves through r = 0 mid-run
    (LOW_BARRIER, OrbitState(1.0, 0.4, -3.0, 0.0)),
    (LOW_BARRIER, OrbitState(0.3, 0.4, -2.0, 0.001)),
    # NaN compares false with everything: the first step is an exit
    (MODEL, OrbitState(1.0, 0.4, math.nan, 1.0)),
    # outside at the start: an exit at t = 0
    (MODEL, OrbitState(1.0, -0.1, 0.0, 1.0)),
])
def test_wedge_exit_message_and_time(model, start):
    # every reader of the stream reports the exit a per-step loop reports
    period = model.radial_period
    runs = [(lambda: trajectory_end(model, start, 5.0, 0.01), 5.0, 0.01),
            (lambda: conservation_drift(model, start, 5), 5 * period,
             period / 256),
            (lambda: list(cm.drift_and_closure(model, start, 5, 2.5 * period)),
             5 * period, period / 256)]
    for run, t_end, dt in runs:
        expect = reference_exit(model, start, t_end, dt)
        assert expect is not None
        with pytest.raises(WedgeExitError) as exc:
            run()
        assert str(exc.value) == expect


def test_drift_and_closure_read_one_integration(monkeypatch):
    # verify's drift and closure: the same reports as two separate runs, at
    # q = 3 and 6 with a shortened landing step onto 2.5 q T, and in windows
    # that end at the return (T) or just past it (1.0037 T), so the scan
    # turns on the run's last states; from one integration of 20 T plus the
    # closure's fine pass
    for q, periods in [(1, 2.5), (1, 1.0), (1, 1.0037), (3, 7.5), (6, 15)]:
        model = ClassicalModel(1.0, 1 / q, 1.0, 3.0)
        start = default_start(model)
        max_time = periods * model.radial_period
        separate = (conservation_drift(model, start, 20),
                    closure_report(model, start, max_time))
        assert tuple(cm.drift_and_closure(model, start, 20,
                                          max_time)) == separate
    real = cm._rk8_stream
    steps = []

    def counting(*args):
        for out in real(*args):
            steps.append(args[2])
            yield out

    monkeypatch.setattr(cm, "_rk8_stream", counting)
    list(cm.drift_and_closure(model, start, 20, max_time))
    dt = model.radial_period / 256
    assert steps.count(dt) == int(20 * model.radial_period / dt)
    assert len(steps) <= steps.count(dt) + 2 * 64 + 2


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


def test_drift_run_without_a_sample():
    # every 16th step is checked: fewer steps check nothing, which must not
    # read as zero drift
    start = default_start(MODEL)
    with pytest.raises(StepSizeError, match="12 steps"):
        conservation_drift(MODEL, start, n_periods=0.05)
    # 15 full steps and a shortened 16th: that 16th is checked
    period = MODEL.radial_period
    rep = conservation_drift(MODEL, start, n_periods=15.5 / 256)
    steps = list(trajectory(MODEL, start, 15.5 / 256 * period, period / 256))
    assert rep.steps == 15 and len(steps) == 16
    assert ((rep.energy_drift, rep.invariant_drift)
            == cm.worst_drift(MODEL, start, [steps[-1][1]]))


def time_reversal_error(model: ClassicalModel, start: OrbitState,
                        t_span: float, dt: float) -> float:
    """Integrate forward, flip the momenta, integrate forward again, flip
    back: the result must be the initial state up to integration error."""
    fwd = trajectory_end(model, start, t_span, dt)
    back = trajectory_end(model,
                          OrbitState(fwd.r, fwd.phi, -fwd.pr, -fwd.pphi),
                          t_span, dt)
    ref = start
    out = (back.r, back.phi, -back.pr, -back.pphi)
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(ref, out)))


def test_time_reversal():
    err = time_reversal_error(MODEL, START, 3.0, MODEL.radial_period / 256)
    assert err < 1e-10


def wedge_minimum_exact(model: ClassicalModel) -> tuple[float, float]:
    """Closed-form minimum of the angular barrier: located where
    tan^2(k phi) = A/B, with value (A + B)^2."""
    a, b = model.alpha_strength, model.beta_strength
    phi_star = math.atan(math.sqrt(a / b)) / model.k
    return phi_star, (a + b) ** 2


def wedge_minimum_numeric(model: ClassicalModel) -> tuple[float, float]:
    """Independent oracle for the barrier minimum: golden-section search over
    the open wedge to 1e-14 of its span, no derivative information used."""
    lo = 1e-9 * model.wedge_span
    hi = model.wedge_span * (1 - 1e-9)
    inv = (math.sqrt(5) - 1) / 2
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1 = wedge_potential(model, x1)
    f2 = wedge_potential(model, x2)
    while hi - lo > 1e-14 * model.wedge_span:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = wedge_potential(model, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = wedge_potential(model, x2)
    phi = 0.5 * (lo + hi)
    return phi, wedge_potential(model, phi)


def equilibrium_state(model: ClassicalModel) -> OrbitState:
    """The circular fixed point of the flow: both momenta zero, the angle at
    the barrier minimum, and r balancing the trap against the barrier:
    r^2 = k (A + B) / omega."""
    phi_star, wmin = wedge_minimum_exact(model)
    r_star = math.sqrt(model.k * math.sqrt(wmin) / model.omega)
    return OrbitState(r_star, phi_star, 0.0, 0.0)


def test_equilibrium_is_stationary():
    eq = equilibrium_state(MODEL)
    end = trajectory_end(MODEL, eq, 5.0, MODEL.radial_period / 128)
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


@pytest.mark.parametrize("alpha,beta", [
    (Fraction(1), Fraction(3)), (Fraction(1, 2), Fraction(5, 2)),
    (Fraction(1, 3), Fraction(50))])
@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (3, 2), (2, 3)])
def test_wedge_potential_is_the_classical_limit_of_the_quantum_one(
        alpha, beta, p, q):
    # restore hbar as alpha -> alpha/h, beta -> beta/h: the pole b does not
    # move, so f(h) = h^2 V(alpha/h, beta/h) is affine in h^2, and its h^0
    # part, per k^2 in x = cos(2 k phi), is the classical wedge potential
    f = {h: h * h * angular_potential(alpha / h, beta / h)
         for h in (Fraction(1), Fraction(1, 2), Fraction(1, 3))}
    slope = (f[1] - f[Fraction(1, 2)]) * Fraction(4, 3)
    assert (f[Fraction(1, 2)] - f[Fraction(1, 3)]) * Fraction(36, 5) == slope
    assert not slope.is_zero()
    limit = (4 * f[Fraction(1, 2)] - f[1]) * Fraction(1, 3)
    model = ClassicalModel.from_model_params(
        ModelParams(alpha, beta, p=p, q=q))
    for j in range(1, 24):
        phi = model.wedge_span * j / 24
        classical = wedge_potential(model, phi)
        quantum = float(limit.evaluate(Fraction(math.cos(2 * model.k * phi))))
        assert abs(quantum - classical) <= 1e-13 * classical


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


def test_closure_stays_in_its_window():
    # the fine pass keeps to (exclude, last sample]: it reports neither the
    # edge of the window nor, past a step longer than the window, the
    # trivial return at t = 0; a window shorter than one fine step leaves
    # the best coarse sample
    T = MODEL.radial_period
    rep = closure_report(MODEL, START, max_time=T / 2 + 0.01)
    assert T / 2 < rep.time <= T / 2 + 0.01
    rep = closure_report(MODEL, START, max_time=T / 2 + 1e-6)
    assert rep.time == T / 2 + 1e-6
    samples = [(0.0, START)] + list(trajectory(MODEL, START, 2.5 * T, 10.0))
    rep = scan_closure(MODEL, samples, 10.0)
    assert T / 2 < rep.time <= 2.5 * T


def test_convergence_order():
    order = convergence_order(MODEL, START)
    assert order >= 8.0


def reference_richardson_order(model: ClassicalModel, start: OrbitState,
                               t_span: float, dt: float):
    """log2 error ratio between runs at (dt, dt/2) and (dt/2, dt/4), each a
    fresh `trajectory_end` from t = 0, or None at the rounding floor."""
    outs = [trajectory_end(model, start, t_span, dt / f) for f in (1, 2, 4)]
    e1 = math.sqrt(sum((a - b) ** 2 for a, b in zip(outs[0], outs[1])))
    e2 = math.sqrt(sum((a - b) ** 2 for a, b in zip(outs[1], outs[2])))
    scale = math.sqrt(sum(v * v for v in outs[2]))
    if e2 <= 1e-13 * max(scale, 1.0):
        return None
    return math.log2(e1 / e2)


def reference_convergence_order(model: ClassicalModel,
                                start: OrbitState) -> float:
    """The convergence probe rung by rung: three fresh integrations from
    t = 0 for every rung of every span, with the same skips, floor breaks
    and maximum as `convergence_order`, which must equal it bit for bit."""
    best = None
    for span in (f * model.radial_period for f in (0.7, 1.7, 2.7)):
        for div in (16, 32, 64, 128, 256):
            try:
                order = reference_richardson_order(model, start, span,
                                                   model.radial_period / div)
            except WedgeExitError:
                continue
            if order is None:
                break
            if best is None or order > best:
                best = order
    if best is None:
        raise StepSizeError("no rung certified")
    return best


def probe_outcome(probe, model, start):
    """The probe's float, spelled exactly, or the type of what it raised."""
    try:
        return repr(probe(model, start))
    except Exception as exc:     # the exception type is the outcome compared
        return type(exc)


def assert_probe_matches_reference(model, start):
    assert (probe_outcome(convergence_order, model, start)
            == probe_outcome(reference_convergence_order, model, start))


@pytest.mark.parametrize("k", [1.0, 2.0, 0.5, 1.5])
def test_convergence_order_matches_the_reference_at_acceptance_ratios(k):
    model = ClassicalModel(1.0, k, 1.0, 3.0)
    assert_probe_matches_reference(model, default_start(model))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10), st.floats(0.2, 5), st.floats(0.05, 5),
       st.floats(0.05, 5), st.floats(0.3, 3), st.floats(0.05, 0.95),
       st.floats(-2, 2), st.floats(-2, 2))
def test_convergence_order_matches_the_reference_anywhere(omega, k, a, b, r,
                                                         frac, pr, pphi):
    model = ClassicalModel(omega, k, a, b)
    assert_probe_matches_reference(
        model, OrbitState(r, frac * model.wedge_span, pr, pphi))


def test_convergence_order_outside_the_wedge():
    # every rung leaves at t = 0, so none can be certified
    for start in (OrbitState(1.0, -0.1, 0.0, 1.0),
                  OrbitState(1.0, 0.4, math.nan, 1.0)):
        with pytest.raises(StepSizeError):
            convergence_order(MODEL, start)
        assert_probe_matches_reference(MODEL, start)


def wedge_exits_at_t16(model, start):
    """Which of the probe's three spans `trajectory` leaves the wedge on at
    its coarsest step T/16."""
    period = model.radial_period
    exits = []
    for f in (0.7, 1.7, 2.7):
        try:
            trajectory_end(model, start, f * period, period / 16)
            exits.append(False)
        except WedgeExitError:
            exits.append(True)
    return exits


K2 = ClassicalModel(1.0, 2.0, 1.0, 3.0)


@pytest.mark.parametrize("model, start, exits", [
    # acceptance 7's k = 2 orbit: a full step at T/16 leaves the wedge
    # after 0.7 T, so the two longer spans at that step are exits
    (K2, default_start(K2), [False, True, True]),
    # the k = 2 certification of the orbits benchmark's first seed-1 pass:
    # these two T/16 exits are the 2 in 140 probe integrations (0.014) that
    # its traced classical.integrate.wedge_exits read while each rung
    # integrated from t = 0
    (K2, default_start(K2)._replace(r=1.700795, pr=0.300862, pphi=1.098669),
     [False, True, True]),
    # only the shortened last step onto 0.7 T leaves: the run goes on, and
    # 1.7 T at the same step is no exit
    (ClassicalModel(1.0, 2.0, 0.25, 0.53), OrbitState(2.49, 0.3, 1.78, 1.85),
     [True, False, True]),
])
def test_convergence_order_wedge_exits_on_longer_spans(model, start, exits):
    assert wedge_exits_at_t16(model, start) == exits
    assert_probe_matches_reference(model, start)


@pytest.mark.parametrize("model, start", [
    (MODEL, default_start(MODEL)),
    # where a shortened step alone leaves the wedge (see above)
    (ClassicalModel(1.0, 2.0, 0.25, 0.53), OrbitState(2.49, 0.3, 1.78, 1.85)),
])
def test_convergence_order_takes_each_step_once(monkeypatch, model, start):
    # one forward run per step size T/div: at most int(2.7 T / dt) full
    # steps, plus one shortened step onto each span the run lands on
    real = cm._rk8_stream
    period = model.radial_period
    divs = {period / div: div for div in (16, 32, 64, 128, 256, 512, 1024)}
    level_of = {}           # a full step's result -> its div
    full, landings = {}, {}

    def counting(m, state, dt, span):
        for out in real(m, state, dt, span):
            if dt in divs:
                full[divs[dt]] = full.get(divs[dt], 0) + 1
                level_of[out] = divs[dt]
            else:
                landings.setdefault(level_of.get(state, "start"),
                                    []).append(state)
            yield out

    monkeypatch.setattr(cm, "_rk8_stream", counting)
    convergence_order(model, start)
    for div, count in full.items():
        assert count <= int(2.7 * period / (period / div))
    assert "start" not in landings
    for states in landings.values():
        assert len(states) == len(set(states)) <= 3
    if model == MODEL:
        # 7,924 steps when every rung integrated its spans from t = 0
        assert sum(full.values()) + sum(map(len, landings.values())) < 2800


def test_wedge_exit():
    # aimed at the wall with barely any barrier to turn it around
    model = ClassicalModel(1.0, 1.0, 1e-6, 1e-6)
    start = OrbitState(1.0, 0.05, 0.0, -2.0)
    with pytest.raises(WedgeExitError):
        trajectory_end(model, start, 5.0, 0.01)


@pytest.mark.parametrize("model, start", [
    (MODEL, OrbitState(1.0, 0.4, math.nan, 1.0)),
])
def test_nan_state_is_a_wedge_exit(model, start):
    # NaN compares false with everything, so it must fail the wedge tests
    period = model.radial_period
    with pytest.raises(WedgeExitError):
        trajectory_end(model, start, period, period / 256)


def test_step_size_validation():
    with pytest.raises(StepSizeError):
        trajectory_end(MODEL, START, 1.0, 0.0)
    with pytest.raises(StepSizeError):
        trajectory_end(MODEL, START, 1.0, -0.1)
    with pytest.raises(StepSizeError):
        trajectory_end(MODEL, START, -1.0, 0.1)
    # the default window starts half a radial period in
    with pytest.raises(StepSizeError):
        closure_report(MODEL, START, max_time=0.4 * MODEL.radial_period)


def test_step_count_must_be_finite():
    # t_end / dt overflows to inf: a StepSizeError, not an OverflowError
    with pytest.raises(StepSizeError):
        trajectory_end(MODEL, START, 1.0, 1e-310)


def test_trajectory_lands_on_t_end():
    steps = list(trajectory(MODEL, START, 1.0, 0.3))
    assert [t for t, _ in steps] == [0.3, 0.6, 3 * 0.3, 1.0]


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
