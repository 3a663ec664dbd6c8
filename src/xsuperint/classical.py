"""Classical mechanics of the wedge oscillator: a planar isotropic harmonic
trap plus an inverse-square angular barrier pair,

    H = (p_r^2 + p_phi^2 / r^2)/2 + omega^2 r^2 / 2
        + (k^2 / 2 r^2) [ A^2 / sin^2(k phi) + B^2 / cos^2(k phi) ],

confined to the wedge 0 < phi < pi/(2k).  Alongside the energy it conserves
the angular invariant

    L1 = p_phi^2 / k^2 + A^2 / sin^2(k phi) + B^2 / cos^2(k phi),

and for rational k = p/q every bounded orbit closes.  The module provides a
fixed-step 8th-order Runge-Kutta integrator (11-stage Cooper-Verner scheme)
as one stream of steps, `trajectory`, which the drift measurement, the
orbit-closure scan (with sub-step refinement) and the CLI's orbit table all
read; analytic and numeric equilibrium/minimum oracles; and a
convergence-order probe for the integrator itself.

The integrator is deterministic: fixed step, fixed arithmetic order, no
adaptivity, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ParameterDomainError, StepSizeError, WedgeExitError
from .params import ModelParams, omega_in_domain


@dataclass(frozen=True)
class ClassicalModel:
    """Classical parameter set: trap frequency, wedge ratio k, and the two
    angular barrier strengths (the coefficients, not their squares)."""
    omega: float
    k: float
    alpha_strength: float
    beta_strength: float

    def __post_init__(self):
        if not (omega_in_domain(self.omega) and 0 < self.k < math.inf):
            raise ParameterDomainError(
                f"need omega > 0 with omega^2 a finite normal float, and a "
                f"finite k > 0 (got omega = {self.omega}, k = {self.k})")
        if not all(0 < s < math.inf
                   for s in (self.alpha_strength, self.beta_strength)):
            raise ParameterDomainError("barrier strengths must be positive "
                                       "and finite for a confined wedge orbit")

    @classmethod
    def from_model_params(cls, params: ModelParams) -> "ClassicalModel":
        return cls(params.omega, params.k_float,
                   float(params.alpha), float(params.beta))

    @property
    def wedge_span(self) -> float:
        return math.pi / (2 * self.k)

    @property
    def radial_period(self) -> float:
        """Period of the radial oscillation, pi / omega — independent of the
        orbit (the radial motion is isochronous in r^2)."""
        return math.pi / self.omega


@dataclass(frozen=True)
class OrbitState:
    r: float
    phi: float
    pr: float
    pphi: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.r, self.phi, self.pr, self.pphi)


def wedge_potential(model: ClassicalModel, phi: float) -> float:
    """Angular barrier profile A^2/sin^2(k phi) + B^2/cos^2(k phi)."""
    s = math.sin(model.k * phi)
    c = math.cos(model.k * phi)
    return (model.alpha_strength ** 2 / (s * s)
            + model.beta_strength ** 2 / (c * c))


def classical_energy(model: ClassicalModel, st: OrbitState) -> float:
    return (0.5 * (st.pr ** 2 + (st.pphi / st.r) ** 2)
            + 0.5 * model.omega ** 2 * st.r ** 2
            + model.k ** 2 / (2 * st.r ** 2) * wedge_potential(model, st.phi))


def angular_invariant(model: ClassicalModel, st: OrbitState) -> float:
    """The conserved angular quantity L1 = p_phi^2/k^2 + wedge potential."""
    return (st.pphi / model.k) ** 2 + wedge_potential(model, st.phi)


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


def derivatives(model: ClassicalModel, state: tuple) -> tuple:
    """Hamiltonian flow field in (r, phi, p_r, p_phi)."""
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


def _cooper_verner_tableau() -> tuple[list[list[float]], list[float]]:
    s = math.sqrt(21.0)
    a = [
        [],
        [1 / 2],
        [1 / 4, 1 / 4],
        [1 / 7, (-7 - 3 * s) / 98, (21 + 5 * s) / 49],
        [(11 + s) / 84, 0.0, (18 + 4 * s) / 63, (21 - s) / 252],
        [(5 + s) / 48, 0.0, (9 + s) / 36, (-231 + 14 * s) / 360,
         (63 - 7 * s) / 80],
        [(10 - s) / 42, 0.0, (-432 + 92 * s) / 315, (633 - 145 * s) / 90,
         (-504 + 115 * s) / 70, (63 - 13 * s) / 35],
        [1 / 14, 0.0, 0.0, 0.0, (14 - 3 * s) / 126, (13 - 3 * s) / 63, 1 / 9],
        [1 / 32, 0.0, 0.0, 0.0, (91 - 21 * s) / 576, 11 / 72,
         (-385 - 75 * s) / 1152, (63 + 13 * s) / 128],
        [1 / 14, 0.0, 0.0, 0.0, 1 / 9, (-733 - 147 * s) / 2205,
         (515 + 111 * s) / 504, (-51 - 11 * s) / 56, (132 + 28 * s) / 245],
        [0.0, 0.0, 0.0, 0.0, (-42 + 7 * s) / 18, (-18 + 28 * s) / 45,
         (-273 - 53 * s) / 72, (301 + 53 * s) / 72, (28 - 28 * s) / 45,
         (49 - 7 * s) / 18],
    ]
    b = [1 / 20, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 49 / 180, 16 / 45, 49 / 180,
         1 / 20]
    return a, b


_TABLEAU_A, _TABLEAU_B = _cooper_verner_tableau()
# sparsified rows: per stage, the list of (index, coefficient) with coeff != 0
_TABLEAU_SPARSE = [[(j, aij) for j, aij in enumerate(row) if aij != 0.0]
                   for row in _TABLEAU_A]
_B_SPARSE = [(j, bj) for j, bj in enumerate(_TABLEAU_B) if bj != 0.0]


def rk8_step(model: ClassicalModel, state: tuple, dt: float) -> tuple:
    """One fixed step of the 11-stage 8th-order Cooper-Verner scheme."""
    ks = [derivatives(model, state)]
    n = len(state)
    for row in _TABLEAU_SPARSE[1:]:
        stage = list(state)
        for j, aij in row:
            kj = ks[j]
            f = aij * dt
            for i in range(n):
                stage[i] += f * kj[i]
        ks.append(derivatives(model, tuple(stage)))
    out = list(state)
    for j, bj in _B_SPARSE:
        kj = ks[j]
        f = bj * dt
        for i in range(n):
            out[i] += f * kj[i]
    return tuple(out)


def _check_inside(model: ClassicalModel, state: tuple, t: float) -> None:
    # written so that NaN fails both tests: a state gone NaN has left too
    r, phi = state[0], state[1]
    if not r > 0.0:
        raise WedgeExitError(f"orbit left r > 0 (r = {r:.6g}) at t = {t:.6g}")
    if not 0.0 < phi < model.wedge_span:
        raise WedgeExitError(
            f"orbit left the wedge (phi = {phi:.6g}) at t = {t:.6g}")


def trajectory(model: ClassicalModel, start: OrbitState, t_end: float,
               dt: float) -> Iterator[tuple[float, tuple]]:
    """Integrate the flow from `start` for time t_end with fixed step dt
    (the final partial step is shortened to land exactly on t_end), yielding
    (t, state) after every step.  Raises WedgeExitError if the orbit leaves
    the open wedge."""
    if dt <= 0 or not math.isfinite(dt):
        raise StepSizeError(f"step size must be positive and finite, got {dt}")
    if not 0 <= t_end / dt < math.inf:
        raise StepSizeError(f"integration time must be nonnegative and give "
                            f"a finite step count (got t_end = {t_end}, "
                            f"dt = {dt})")
    state = start.as_tuple()
    _check_inside(model, state, 0.0)
    nsteps = int(t_end / dt)
    for i in range(nsteps):
        state = rk8_step(model, state, dt)
        t = (i + 1) * dt
        _check_inside(model, state, t)
        yield t, state
    rest = t_end - nsteps * dt
    if rest > 1e-15 * max(1.0, t_end):
        state = rk8_step(model, state, rest)
        _check_inside(model, state, t_end)
        yield t_end, state


def integrate(model: ClassicalModel, start: OrbitState, t_end: float,
              dt: float) -> OrbitState:
    """The state `trajectory` ends in."""
    state = start.as_tuple()
    for _, state in trajectory(model, start, t_end, dt):
        pass
    return OrbitState(*state)


def worst_drift(model: ClassicalModel, start: OrbitState,
                states: Iterable[tuple]) -> tuple[float, float]:
    """Largest relative deviation of the energy and of the angular invariant
    over `states` from their (positive) values at `start`."""
    e0 = classical_energy(model, start)
    l0 = angular_invariant(model, start)
    de = dl = 0.0
    for state in states:
        st = OrbitState(*state)
        de = max(de, abs(classical_energy(model, st) - e0) / e0)
        dl = max(dl, abs(angular_invariant(model, st) - l0) / l0)
    return de, dl


@dataclass(frozen=True)
class DriftReport:
    """Worst relative drift of the two conserved quantities over a long run,
    sampled densely along the way (not just at the endpoint)."""
    energy_drift: float
    invariant_drift: float
    duration: float
    steps: int


def conservation_drift(model: ClassicalModel, start: OrbitState,
                       n_periods: float, steps_per_period: int = 256
                       ) -> DriftReport:
    """Integrate for n_periods radial periods and report `worst_drift` over
    every 16th step."""
    duration = n_periods * model.radial_period
    dt = model.radial_period / steps_per_period
    steps = trajectory(model, start, duration, dt)
    drift = worst_drift(model, start,
                        (state for _, state in islice(steps, 15, None, 16)))
    return DriftReport(*drift, duration, int(duration / dt))


@dataclass(frozen=True)
class ClosureReport:
    """Best recurrence of the initial phase-space point: normalized distance
    and the time it occurs."""
    distance: float
    time: float


def closure_report(model: ClassicalModel, start: OrbitState,
                   max_time: float,
                   exclude: Optional[float] = None) -> ClosureReport:
    """`scan_closure` of the orbit integrated to max_time at 256 steps per
    radial period."""
    dt = model.radial_period / 256
    samples = [(0.0, start.as_tuple())]
    samples += trajectory(model, start, max_time, dt)
    return scan_closure(model, samples, dt, exclude)


def scan_closure(model: ClassicalModel, samples: Sequence[tuple[float, tuple]],
                 dt: float, exclude: Optional[float] = None) -> ClosureReport:
    """Scan an orbit's (t, state) samples, taken at step dt from the start
    samples[0], for its closest return to that start.

    Coarse pass: every sample after an initial window (half a radial period
    by default, so the trivial t=0 match is not reported).  Fine pass:
    re-integration across the best coarse bracket at dt/64, followed by a
    parabolic fit of the squared distance around the best fine sample.  All
    arithmetic is fixed-step and deterministic.  Raises StepSizeError when no
    sample falls after the window.
    """
    if exclude is None:
        exclude = 0.5 * model.radial_period
    ref = samples[0][1]
    scales = tuple(max(max(col) - min(col), 1e-12)
                   for col in zip(*(st for _, st in samples)))

    def dist2(state: tuple) -> float:
        return sum(((state[i] - ref[i]) / scales[i]) ** 2 for i in range(4))

    best_i = min((i for i, (t, _) in enumerate(samples) if t > exclude),
                 key=lambda i: dist2(samples[i][1]), default=None)
    if best_i is None:
        raise StepSizeError(f"closure scan window ({exclude:.6g}, "
                            f"{samples[-1][0]:.6g}] holds no step")

    # fine pass across [t_{best-1}, t_{best+1}]
    lo = max(best_i - 1, 0)
    t_lo, st_lo = samples[lo]
    span_steps = (min(best_i + 1, len(samples) - 1) - lo) * 64
    micro = dt / 64
    fine: list[tuple[float, float]] = [(t_lo, dist2(st_lo))]
    state = st_lo
    for j in range(span_steps):
        state = rk8_step(model, state, micro)
        fine.append((t_lo + (j + 1) * micro, dist2(state)))
    fj = min(range(len(fine)), key=lambda j: fine[j][1])
    t_best, d_best = fine[fj]
    if 0 < fj < len(fine) - 1:
        d0, d1, d2 = fine[fj - 1][1], fine[fj][1], fine[fj + 1][1]
        denom = d0 - 2 * d1 + d2
        if denom > 0:
            shift = 0.5 * (d0 - d2) / denom
            d_best = max(d1 - 0.125 * (d0 - d2) ** 2 / denom, 0.0)
            t_best = fine[fj][0] + shift * micro
    return ClosureReport(math.sqrt(d_best), t_best)


def _richardson_order(model: ClassicalModel, start: OrbitState,
                      t_span: float, dt: float) -> Optional[float]:
    """log2 error ratio between runs at (dt, dt/2) and (dt/2, dt/4), or None
    once the finer pair is at the rounding floor and the ratio means
    nothing."""
    outs = []
    for f in (1, 2, 4):
        st = integrate(model, start, t_span, dt / f)
        outs.append(st.as_tuple())
    e1 = math.sqrt(sum((a - b) ** 2 for a, b in zip(outs[0], outs[1])))
    e2 = math.sqrt(sum((a - b) ** 2 for a, b in zip(outs[1], outs[2])))
    scale = math.sqrt(sum(v * v for v in outs[2]))
    if e2 <= 1e-13 * max(scale, 1.0):
        return None
    return math.log2(e1 / e2)


def convergence_order(model: ClassicalModel, start: OrbitState) -> float:
    """Measured convergence order of the integrator: Richardson comparison of
    runs at (dt, dt/2, dt/4), scanned down a ladder of base steps.

    The asymptotic window — steps small enough that the leading truncation
    term dominates, large enough that rounding does not — sits at different
    dt for different orbits (faster angular motion needs finer steps), so the
    probe walks the ladder and reports the best order it can certify.  It
    scans three spans that are deliberately incommensurate with the radial
    period: at a whole number of periods the orbit nearly recurs and
    the truncation terms partially cancel, which corrupts the measured ratio
    in either direction.  Coarse rungs whose numerical orbit blows through
    the wedge wall are skipped, as are rungs at the rounding floor.  Raises
    StepSizeError if no rung anywhere can be certified."""
    best: Optional[float] = None
    for span in (f * model.radial_period for f in (0.7, 1.7, 2.7)):
        for div in (16, 32, 64, 128, 256):
            try:
                order = _richardson_order(model, start, span,
                                          model.radial_period / div)
            except WedgeExitError:
                continue
            if order is None:
                break
            if best is None or order > best:
                best = order
    if best is None:
        raise StepSizeError(
            "convergence probe hit rounding floor on every step ladder rung")
    return best


def time_reversal_error(model: ClassicalModel, start: OrbitState,
                        t_span: float, dt: float) -> float:
    """Integrate forward, flip the momenta, integrate forward again, flip
    back: the result must be the initial state up to integration error."""
    fwd = integrate(model, start, t_span, dt)
    back = integrate(model, OrbitState(fwd.r, fwd.phi, -fwd.pr, -fwd.pphi),
                     t_span, dt)
    ref = start.as_tuple()
    out = (back.r, back.phi, -back.pr, -back.pphi)
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(ref, out)))
