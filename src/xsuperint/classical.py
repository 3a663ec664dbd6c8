"""Classical mechanics of the wedge oscillator: a planar isotropic harmonic
trap plus an inverse-square angular barrier pair,

    H = (p_r^2 + p_phi^2 / r^2)/2 + omega^2 r^2 / 2
        + (k^2 / 2 r^2) [ A^2 / sin^2(k phi) + B^2 / cos^2(k phi) ],

confined to the wedge 0 < phi < pi/(2k).  Alongside the energy it conserves
the angular invariant

    L1 = p_phi^2 / k^2 + A^2 / sin^2(k phi) + B^2 / cos^2(k phi),

and for rational k = p/q every bounded orbit closes.  The module provides a
fixed-step 8th-order Runge-Kutta integrator (11-stage Cooper-Verner scheme)
as one generator, `_rk8_stream`, generated at import from the tableau: it
loads the model and every a_ij * dt once per run, then yields the state
after each step, checking inline that it is still inside the wedge.  A
single step, `rk8_step`, is the first state of an unchecked stream.  Every
multi-step reader takes its states from a stream: `trajectory` (the CLI's
orbit table and the closure scan), the drift measurement (every 16th state),
the closure scan's sub-step refinement, and a convergence-order probe for
the integrator itself, which integrates each step size once across its three
spans.  Fixed step, fixed arithmetic order, no adaptivity: repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, count, islice, takewhile
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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
        # the flow squares k and both strengths, as it squares omega
        if not (omega_in_domain(self.omega) and 0 < self.k
                and self.k * self.k < math.inf):
            raise ParameterDomainError(
                f"need omega > 0 with omega^2 a finite normal float, and "
                f"k > 0 with k^2 a finite float (got omega = {self.omega}, "
                f"k = {self.k})")
        if not all(0 < s and s * s < math.inf
                   for s in (self.alpha_strength, self.beta_strength)):
            raise ParameterDomainError(
                f"barrier strengths must be positive with finite float "
                f"squares for a confined wedge orbit (got "
                f"{self.alpha_strength}, {self.beta_strength})")

    @classmethod
    def from_model_params(cls, params: ModelParams) -> "ClassicalModel":
        try:
            strengths = float(params.alpha), float(params.beta)
        except OverflowError:
            raise ParameterDomainError(
                "barrier strengths must be finite floats for the classical "
                "flow: alpha or beta is past float range") from None
        return cls(params.omega, params.k_float, *strengths)

    @property
    def wedge_span(self) -> float:
        return math.pi / (2 * self.k)

    @property
    def radial_period(self) -> float:
        """Period of the radial oscillation, pi / omega — independent of the
        orbit (the radial motion is isochronous in r^2)."""
        return math.pi / self.omega


class OrbitState(NamedTuple):
    """A phase-space point (r, phi, p_r, p_phi).  A tuple, so everything
    that reads one reads the plain 4-tuples `rk8_step` returns as well."""
    r: float
    phi: float
    pr: float
    pphi: float


#: Integrator steps per radial period wherever the step is not given.
STEPS_PER_PERIOD = 256


def default_start(model: ClassicalModel) -> OrbitState:
    """The orbit start `verify --classical` and `orbit` use when none is
    given: (r, phi, p_r, p_phi) = (1.7, 0.4, 0.3, 1.1), with phi at most
    half the wedge."""
    return OrbitState(1.7, min(0.4, 0.5 * model.wedge_span), 0.3, 1.1)


def wedge_potential(model: ClassicalModel, phi: float) -> float:
    """Angular barrier profile A^2/sin^2(k phi) + B^2/cos^2(k phi)."""
    s = math.sin(model.k * phi)
    c = math.cos(model.k * phi)
    return (model.alpha_strength ** 2 / (s * s)
            + model.beta_strength ** 2 / (c * c))


def classical_energy(model: ClassicalModel, state: tuple) -> float:
    r, phi, pr, pphi = state
    return (0.5 * (pr ** 2 + (pphi / r) ** 2)
            + 0.5 * model.omega ** 2 * r ** 2
            + model.k ** 2 / (2 * r ** 2) * wedge_potential(model, phi))


def angular_invariant(model: ClassicalModel, state: tuple) -> float:
    """The conserved angular quantity L1 = p_phi^2/k^2 + wedge potential."""
    _, phi, _, pphi = state
    return (pphi / model.k) ** 2 + wedge_potential(model, phi)


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


def _check_inside(span: float, state: tuple, t: float) -> None:
    # written so that NaN fails both tests: a state gone NaN has left too
    r, phi = state[0], state[1]
    if not r > 0.0:
        raise WedgeExitError(f"orbit left r > 0 (r = {r:.6g}) at t = {t:.6g}")
    if not 0.0 < phi < span:
        raise WedgeExitError(
            f"orbit left the wedge (phi = {phi:.6g}) at t = {t:.6g}")


_HEAD = """\
def _rk8_stream(model, state, dt, span):
    \"""The states after each of an unending run of fixed steps dt of the
    11-stage 8th-order Cooper-Verner scheme from `state`.  With a wedge
    `span` each state is checked as `_check_inside` checks it, at t = n dt
    after n steps; with None nothing is checked.  A step that fails in
    floats raises WedgeExitError either way.\"""
    k, nk, om2 = model.k, -model.k, model.omega ** 2
    ka2 = k * k * model.alpha_strength ** 2
    kb2 = k * k * model.beta_strength ** 2
    x0, x1, x2, x3 = state
    if span is not None:
        _check_inside(span, state, 0.0)"""
# the Hamiltonian flow field at stage point (r, phi, p_r, p_phi) = (y0, y1,
# k{j}_0, y3), the p_r sum being dr/dt itself; ia and ib are k^2 A^2 and
# k^2 B^2 over sin^2 and cos^2 of k phi, and tan(k phi) is t
_FLOW = """\
        u = k * y1
        s = sin(u)
        c = cos(u)
        ia = ka2 / (s * s)
        ib = kb2 / (c * c)
        t = s / c
        r2 = y0 * y0
        k{j}_1 = y3 / r2
        k{j}_2 = (y3 * y3 + ia + ib) / (r2 * y0) - om2 * y0
        k{j}_3 = nk * (ib * t - ia / t) / r2"""
# written so that NaN fails the test: a state gone NaN has left too
_YIELD = """\
        if span is not None and not (x0 > 0.0 and 0.0 < x1 < span):
            _check_inside(span, (x0, x1), n * dt)
        yield x0, x1, x2, x3"""
# a stage that divides by an r^2 or sin^2(k phi) gone to 0, or takes the sine
# of an infinite angle, has left the wedge in floats: one guard for the loop
_GUARD = """\
    except (ArithmeticError, ValueError) as exc:
        raise WedgeExitError(
            f"orbit left float range ({exc}) at t = {n * dt:.6g}") from None"""


def _generated_stream():
    """`_rk8_stream` compiled from the tableau's stages written out in full.
    Its prologue computes the model's constants and each nonzero a_ij * dt
    once per run; in its loop every stage sum is x_i + (a_ij dt) k_j[i]
    taken left to right over ascending j, so each step is the same float as
    an index loop over the tableau gives."""
    a, b = _cooper_verner_tableau()
    head, loop = [_HEAD], ["    for n in count(1):"]
    for j, row in enumerate(a + [b]):
        nonzero = [i for i, aij in enumerate(row) if aij != 0.0]
        head += [f"    h{j}_{i} = {row[i]!r} * dt" for i in nonzero]
        sums = [f"x{c}" + "".join(f" + h{j}_{i} * k{i}_{c}" for i in nonzero)
                for c in range(4)]
        if j == len(a):
            loop.append(f"        x0, x1, x2, x3 = {', '.join(sums)}")
        else:
            loop += [f"        {name} = {total}" for name, total
                     in zip(("y0", "y1", f"k{j}_0", "y3"), sums)]
            loop.append(_FLOW.format(j=j))
    namespace = {"__name__": __name__, "sin": math.sin, "cos": math.cos,
                 "count": count, "_check_inside": _check_inside,
                 "WedgeExitError": WedgeExitError}
    body = "\n".join(loop + [_YIELD]).replace("\n", "\n    ")
    exec(compile("\n".join(head + ["    try:", "    " + body, _GUARD]),
                 "<_rk8_stream>", "exec"), namespace)
    return namespace["_rk8_stream"]


_rk8_stream = _generated_stream()


def rk8_step(model: ClassicalModel, state: tuple, dt: float) -> tuple:
    """One fixed step of the 11-stage 8th-order Cooper-Verner scheme: the
    first state of an unchecked `_rk8_stream`."""
    return next(_rk8_stream(model, state, dt, None))


def _step_count(t_end: float, dt: float) -> int:
    """int(t_end / dt), the full steps of a run, once both are valid."""
    if dt <= 0 or not math.isfinite(dt):
        raise StepSizeError(f"step size must be positive and finite, got {dt}")
    if not 0 <= t_end / dt < math.inf:
        raise StepSizeError(f"integration time must be nonnegative and give "
                            f"a finite step count (got t_end = {t_end}, "
                            f"dt = {dt})")
    return int(t_end / dt)


def _states(model: ClassicalModel, start: OrbitState, t_end: float,
            dt: float) -> Iterator[tuple]:
    """The states `trajectory` yields, without their times: its full steps,
    then the shortened step onto t_end."""
    nsteps = int(t_end / dt)
    state = start
    for state in islice(_rk8_stream(model, start, dt, model.wedge_span),
                        nsteps):
        yield state
    last = _land(model, state, t_end, nsteps * dt)
    if last is not None:
        yield last


def trajectory(model: ClassicalModel, start: OrbitState, t_end: float,
               dt: float) -> Iterator[tuple[float, tuple]]:
    """Integrate the flow from `start` for time t_end with fixed step dt
    (the final partial step is shortened to land exactly on t_end), yielding
    (t, state) after every step.  Raises WedgeExitError if the orbit leaves
    the open wedge."""
    nsteps = _step_count(t_end, dt)
    times = chain((n * dt for n in range(1, nsteps + 1)), [t_end])
    return zip(times, _states(model, start, t_end, dt))


def _land(model: ClassicalModel, state: tuple, t_end: float, t: float):
    """The shortened step from `state` at t onto t_end, both ends checked
    (a run without a full step checks its start here); None if the rest is
    rounding."""
    span = model.wedge_span
    _check_inside(span, state, t)
    rest = t_end - t
    if rest > 1e-15 * max(1.0, t_end):
        state = rk8_step(model, state, rest)
        _check_inside(span, state, t_end)
        return state


def worst_pair_drift(pairs: Iterable[tuple]) -> tuple[float, float]:
    """Largest relative deviation of the energy and of the angular invariant
    over (energy, invariant) pairs from their (positive) values in the first
    pair, the start's."""
    (e0, l0), *rest = pairs
    de = dl = 0.0
    for e, l1 in rest:
        de = max(de, abs(e - e0) / e0)
        dl = max(dl, abs(l1 - l0) / l0)
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
                       n_periods: float,
                       steps_per_period: int = STEPS_PER_PERIOD) -> DriftReport:
    """Integrate for n_periods radial periods and report `worst_pair_drift`
    of the energy and angular invariant at the start and at every 16th step.
    Raises StepSizeError if the run has no 16th step."""
    duration = n_periods * model.radial_period
    dt = model.radial_period / steps_per_period
    nsteps = _step_count(duration, dt)
    samples = islice(_states(model, start, duration, dt), 15, None, 16)
    first = next(samples, None)
    if first is None:
        raise StepSizeError(f"a drift run of {nsteps} steps samples none: "
                            f"it checks every 16th step")
    drift = worst_pair_drift((classical_energy(model, state),
                              angular_invariant(model, state))
                             for state in chain([start, first], samples))
    return DriftReport(*drift, duration, nsteps)


@dataclass(frozen=True)
class ClosureReport:
    """Best recurrence of the initial phase-space point: normalized distance
    and the time it occurs."""
    distance: float
    time: float


def closure_report(model: ClassicalModel, start: OrbitState,
                   max_time: float,
                   exclude: Optional[float] = None) -> ClosureReport:
    """`scan_closure` of the orbit integrated to max_time at
    STEPS_PER_PERIOD steps per radial period."""
    dt = model.radial_period / STEPS_PER_PERIOD
    samples = [(0.0, start)]
    samples += trajectory(model, start, max_time, dt)
    return scan_closure(model, samples, dt, exclude)


def scan_closure(model: ClassicalModel, samples: Sequence[tuple[float, tuple]],
                 dt: float, exclude: Optional[float] = None) -> ClosureReport:
    """Scan an orbit's (t, state) samples, taken at step dt from the start
    samples[0], for its closest return to that start.

    Coarse pass: every sample after an initial window (half a radial period
    by default, so the trivial t=0 match is not reported).  Fine pass:
    re-integration across the best coarse bracket at dt/64, keeping only the
    fine samples in (exclude, time of the last sample], followed by a
    parabolic fit of the squared distance around the best of them.  All
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

    # fine pass across [t_{best-1}, t_{best+1}], kept inside the window
    lo = max(best_i - 1, 0)
    t_lo, state = samples[lo]
    t_last = samples[-1][0]
    micro = dt / 64
    fine: list[tuple[float, float]] = []
    if t_lo > exclude:
        fine.append((t_lo, dist2(state)))
    n_fine = (min(best_i + 1, len(samples) - 1) - lo) * 64
    # the fine steps stop at the last sample, after a shortened last step too
    times = takewhile(lambda t: t <= t_last,
                      (t_lo + j * micro for j in range(1, n_fine + 1)))
    for t, state in zip(times, _rk8_stream(model, state, micro, None)):
        if t > exclude:
            fine.append((t, dist2(state)))
    if not fine:                # the window holds less than one fine step
        fine.append((samples[best_i][0], dist2(samples[best_i][1])))
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


def _richardson_order(outs: Sequence[tuple]) -> Optional[float]:
    """log2 error ratio between the end states of runs at (dt, dt/2) and
    (dt/2, dt/4), or None once the finer pair is at the rounding floor and
    the ratio means nothing."""
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
    StepSizeError if no rung anywhere can be certified.  Each step size is
    one forward run across the spans, as far as the rungs read need, landing
    on each span as `trajectory` does, bit for bit; a full step out of the
    wedge fails every later span at it."""
    period = model.radial_period
    spans = [f * period for f in (0.7, 1.7, 2.7)]
    # per step T/div: [full steps taken, the state they reach, the run]
    runs = {div: [0, start, _rk8_stream(model, start, period / div,
                                        model.wedge_span)]
            for div in (16, 32, 64, 128, 256, 512, 1024)}
    ends: dict = {}     # (span, div) -> end state, None if it left the wedge

    def end_state(span: float, div: int) -> tuple:
        if (span, div) not in ends:
            ends[span, div] = None          # until it lands inside
            run, dt = runs[div], period / div
            nsteps = int(span / dt)
            reached = deque(islice(run[2], nsteps - run[0]), maxlen=1)
            if reached:
                run[0], run[1] = nsteps, reached[0]
            if run[0] == nsteps:            # else the run left the wedge
                ends[span, div] = _land(model, run[1], span, nsteps * dt)
        if ends[span, div] is None:
            raise WedgeExitError(f"orbit left the wedge by t = {span:.6g}")
        return ends[span, div]

    best: Optional[float] = None
    for span in spans:
        for div in (16, 32, 64, 128, 256):
            try:
                order = _richardson_order(
                    [end_state(span, div * f) for f in (1, 2, 4)])
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
