"""Numerical spectral layer: bound-state wavefunctions on the plane wedge
and the one interior grid they are sampled on, an independent
Hamiltonian-residual oracle, orthogonality quadrature on
Gauss-Jacobi rules built here in numpy (WKB first guesses refined by Halley
steps on the Jacobi recurrence, after Hale and Townsend, SIAM J. Sci.
Comput. 35 (2013) A652, each node evaluated from its nearer endpoint), a
numeric cross-check of a composite ladder step it is handed, and exact
degeneracy bookkeeping.

Everything structural (polynomials, operators, coefficients) is taken from
the exact layer; floating point enters only at evaluation time.  The bound
state with radial index m >= 0 and angular index n >= 1 is

    psi(r, phi) = [ y^(kA/2) e^(-y/2) L_m(y; kA) ]  *  [ g(x) P_n(x) ]

with y = omega r^2, x = cos(2 k phi), A the angular eigenroot, L_m the
Laguerre polynomial, P_n the monic deformed polynomial, and g the positive
angular gauge factor.  Its energy is omega (2m + kA + 1), exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .angular import angular_potential, exceptional_jacobi
from .errors import NumericalOverflowError, QuadratureError, VerificationError
from .ladders import CompositeStep
from .params import (ModelParams, QuantumState, energy, energy_ratio,
                     laguerre_parameter)
from .polynomials import (Poly, RationalLike, as_fraction, laguerre_polynomial,
                          weight_pole)

_EXP_LIMIT = 700.0  # exp overflow threshold for float64, with headroom


def _polyval(p: Poly, t: np.ndarray) -> np.ndarray:
    """p at t in floats, by numpy's Horner on the rounded coefficients
    n / den: the one place an exact polynomial becomes floats.  A coefficient
    past float range (a high Laguerre factor's, say) raises
    NumericalOverflowError."""
    if p.is_zero():
        return np.zeros_like(np.asarray(t, dtype=float))
    try:
        coeffs = [n / p.den for n in p.nums]
    except OverflowError:
        raise NumericalOverflowError(
            f"a coefficient of a degree-{p.degree} polynomial exceeds float "
            f"range; shrink the quantum numbers") from None
    return np.polynomial.polynomial.polyval(t, np.array(coeffs))


def default_rmax(params: ModelParams) -> float:
    """Radial extent 6 / sqrt(omega): y = omega r^2 reaches 36, far past the
    classical turning point of every state the acceptance ranges touch."""
    return 6.0 / math.sqrt(params.omega)


def _float(value: Fraction, name: str) -> float:
    """An exact parameter as a float; past float range raises
    NumericalOverflowError naming it."""
    try:
        return float(value)
    except OverflowError:
        raise NumericalOverflowError(
            f"{name} is past float range; shrink the parameters") from None


def _radial_gauge(a: Fraction, y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial gauge factor G = y^(a/2) e^(-y/2) at y = omega r^2 >= 0, with
    its log derivatives (log G)' = a/(2y) - 1/2 and (log G)'' = -a/(2y^2),
    which are infinite at y = 0.  G is assembled in log space, so a large
    gauge exponent raises NumericalOverflowError instead of overflowing
    silently."""
    c = _float(a, "the Laguerre parameter k A_n") / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.where(y > 0, c * np.log(np.where(y > 0, y, 1.0)) - y / 2,
                          -np.inf if c > 0 else 0.0)
        dlog, dlog2 = c / y - 0.5, -c / y ** 2
    finite = logmag[np.isfinite(logmag)]
    if finite.size and float(finite.max()) > _EXP_LIMIT:
        raise NumericalOverflowError(
            f"radial gauge factor exceeds float range: exponent "
            f"{float(finite.max()):.3g} > {_EXP_LIMIT}; shrink the grid or "
            f"the quantum numbers")
    return np.exp(logmag), dlog, dlog2


def radial_values(poly: Poly, a: Fraction, omega: float, r: np.ndarray
                  ) -> np.ndarray:
    """Gauged radial factor y^(a/2) e^(-y/2) poly(y) at y = omega r^2."""
    y = omega * np.asarray(r, dtype=float) ** 2
    return _radial_gauge(a, y)[0] * _polyval(poly, y)


def _angular_gauge(alpha: Fraction, beta: Fraction, x: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive angular gauge g(x) = (1-x)^e1 (1+x)^e2 / (b-x), with
    e1 = alpha/2 + 1/4 and e2 = beta/2 + 1/4, on the open interval, and its
    log derivatives (log g)' and (log g)''."""
    b = _float(weight_pole(alpha, beta), "the weight pole b")
    e1 = _float(alpha, "alpha") / 2 + 0.25
    e2 = _float(beta, "beta") / 2 + 0.25
    g = np.power(1 - x, e1) * np.power(1 + x, e2) / (b - x)
    dlog = -e1 / (1 - x) + e2 / (1 + x) + 1 / (b - x)
    dlog2 = -e1 / (1 - x) ** 2 - e2 / (1 + x) ** 2 + 1 / (b - x) ** 2
    return g, dlog, dlog2


def angular_values(poly: Poly, params: ModelParams, phi: np.ndarray
                   ) -> np.ndarray:
    """Angular factor g(x) poly(x) at x = cos(2 k phi)."""
    x = np.cos(2 * params.k_float * np.asarray(phi, dtype=float))
    return _angular_gauge(params.alpha, params.beta, x)[0] * _polyval(poly, x)


def _gauged(gauge: tuple[np.ndarray, np.ndarray, np.ndarray], poly: Poly,
            t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, f', f'') at t of the factor f = G Q, from the gauge's
    (G, L, L') with L = (log G)' and the exact polynomial Q:
    f' = G (Q' + L Q) and f'' = G (Q'' + 2 L Q' + (L^2 + L') Q)."""
    g, dlog, dlog2 = gauge
    q0 = _polyval(poly, t)
    q1 = _polyval(poly.derivative(), t)
    q2 = _polyval(poly.derivative().derivative(), t)
    return (g * q0, g * (q1 + dlog * q0),
            g * (q2 + 2 * dlog * q1 + (dlog ** 2 + dlog2) * q0))


def wavefunction_on_grid(state: QuantumState, params: ModelParams,
                         r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """psi on the tensor grid, shape (len(r), len(phi)).  A value that is
    not finite (a Laguerre factor past float range, say) raises
    NumericalOverflowError instead of being returned."""
    a = laguerre_parameter(state.n, params)
    lag = laguerre_polynomial(state.m, a)
    pol = exceptional_jacobi(state.n, params.alpha, params.beta)
    with np.errstate(all="ignore"):
        psi = np.outer(radial_values(lag, a, params.omega, r),
                       angular_values(pol, params, phi))
    if not np.isfinite(psi).all():
        raise NumericalOverflowError(
            f"psi of state (m, n) = ({state.m}, {state.n}) is not finite on "
            f"the grid: its float evaluation overflows; shrink the grid or "
            f"the quantum numbers")
    return psi


def interior_grid(rmax: float, span: float, size: int, margin: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """size x size grid over (0, rmax) x (0, span) in (r, phi), each axis
    inset by `margin` of its extent: the grid of the residual, of the
    numeric ladder check and of `export-wavefunction`."""
    r = np.linspace(margin * rmax, rmax * (1 - margin), size)
    phi = np.linspace(margin * span, span * (1 - margin), size)
    return r, phi


def hamiltonian_residual(state: QuantumState, params: ModelParams,
                         grid: int = 60) -> float:
    """Independent oracle: max |H psi - E psi| / (|E| max |psi|) on a
    grid x grid interior grid, with H = -Laplacian/2 + omega^2 r^2 / 2
    + (k^2 / 2 r^2) V(cos 2 k phi) applied through exact closed-form
    derivatives (no finite differences, no eigensolver).

    The derivative chain never reuses the eigenvalue identity being tested:
    radial and angular factors are differentiated symbol by symbol, so a wrong
    potential, gauge, eigenvalue, or polynomial shows up as an O(1) residual.
    """
    alpha, beta = params.alpha, params.beta
    omega, kf = params.omega, params.k_float
    a = laguerre_parameter(state.n, params)
    r, phi = interior_grid(default_rmax(params), params.wedge_span, grid,
                           1e-3)

    # radial factor and its first two r-derivatives via u(y), y = omega r^2
    y = omega * r ** 2
    u0, u1, u2 = _gauged(_radial_gauge(a, y), laguerre_polynomial(state.m, a),
                         y)
    rad1 = 2 * omega * r * u1
    rad2 = 2 * omega * u1 + 4 * omega ** 2 * r ** 2 * u2

    # angular factor and its second phi-derivative via W(x), x = cos(2k phi)
    x = np.cos(2 * kf * phi)
    w0, w1, w2 = _gauged(_angular_gauge(alpha, beta, x),
                         exceptional_jacobi(state.n, alpha, beta), x)
    ang2 = 4 * kf ** 2 * ((1 - x ** 2) * w2 - x * w1)

    e_val = energy(state, params)
    pot = angular_potential(alpha, beta)
    v_ang = _polyval(pot.num, x) / _polyval(pot.den, x)
    rr = r[:, None]
    psi = np.outer(u0, w0)
    h_psi = (-0.5 * (np.outer(rad2, w0) + np.outer(rad1 / r, w0)
                     + np.outer(u0, ang2) / rr ** 2)
             + (0.5 * omega ** 2 * rr ** 2
                + (kf ** 2 / (2 * rr ** 2)) * v_ang[None, :]) * psi)
    scale = abs(e_val) * float(np.max(np.abs(psi)))
    return float(np.max(np.abs(h_psi - e_val * psi))) / scale


# ---------------------------------------------------------------------------
# Orthogonality quadrature
# ---------------------------------------------------------------------------

#: Agreement of two successive Gram matrices that certifies convergence,
#: relative to the largest diagonal entry.
GRAM_TOL = 1e-13
#: The last order at which `angular_gram` still doubles the quadrature.
GRAM_MAX_ORDER = 4096
#: Degrees of the Jacobi recurrence whose rows are formed at once.
_RECURRENCE_BLOCK = 256
#: A Halley step below this fraction of the local node spacing (or within
#: four ulps of 1) ends the refinement; at most _HALLEY_STEPS are taken.
_NODE_TOL = 1e-12
_HALLEY_STEPS = 8


def _jacobi_guesses(n: int, a: float, b: float) -> np.ndarray:
    """Increasing first guesses at the n roots of P_n^(a, b), from the WKB
    phase of the Jacobi equation in normal form with Langer's correction:
    in x = cos(theta), Q = N^2 - a^2 / (4 sin^2(theta/2))
    - b^2 / (4 cos^2(theta/2)) with N = n + (a + b + 1)/2, the i-th root
    from x = 1 lies where the integral of sqrt(Q) from its turning point
    reaches (i - 1/4) pi.  The integral runs on a grid clustered at both
    turning points."""
    nn = n + (a + b + 1) / 2
    a2, b2 = a * a, b * b
    lin = 4 * nn * nn + a2 - b2
    # the turning points solve 4 N^2 s^2 - lin s + a^2 = 0, s = sin^2(theta/2)
    s_hi = (lin + math.sqrt(max(lin * lin - 16 * nn * nn * a * a, 0.0))) / (
        8 * nn * nn)
    s_lo = a2 / (4 * nn * nn * s_hi)
    lo = 2 * math.asin(math.sqrt(s_lo))
    hi = 2 * math.asin(math.sqrt(min(s_hi, 1.0)))
    t = np.linspace(0.0, math.pi, n + 32)
    theta = lo + (hi - lo) / 2 * (1 - np.cos(t))
    s = np.sin(theta / 2) ** 2
    # a square that underflowed to 0 adds no barrier, not 0/0 at s = 0 or 1
    f = np.sqrt(np.maximum(
        nn * nn - (a2 / (4 * s) if a2 else 0.0)
        - (b2 / (4 * (1 - s)) if b2 else 0.0), 0.0)) * np.sin(t)
    phase = np.zeros_like(t)
    np.cumsum(f[1:] + f[:-1], out=phase[1:])
    phase *= (hi - lo) / 4 * (t[1] - t[0])
    target = (np.arange(n, 0, -1) - 0.25) * math.pi
    return np.cos(np.interp(target, phase, theta))


def _edge_recurrence(n: int, a: float, b: float
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """The Jacobi recurrence in difference form at x = 1 - t: with
    p_k = P_k^(a, b)(1 - t) / binom(k + a, k) and d_k = p_k - p_{k-1},
    p_0 = 1, d_1 = e t and d_{k+1} = A_k t p_k + B_k d_k for k = 1 .. n-1.
    Returns (e, A, B).  Every term that depends on t carries the factor t,
    so values next to x = 1 keep their relative accuracy."""
    k = np.arange(1, n, dtype=float)
    tau = 2 * k + a + b
    den = 2 * (k + a + 1) * (k + a + b + 1) * tau
    return (-(a + b + 2) / (2 * (a + 1)), -tau * (tau + 1) * (tau + 2) / den,
            2 * k * (k + b) * (tau + 2) / den)


def _jacobi_pair(t: np.ndarray, low: np.ndarray,
                 rec_low: tuple[float, np.ndarray, np.ndarray],
                 rec_high: tuple[float, np.ndarray, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_n, p_{n-1}, log scale) of `_edge_recurrence` at t, with the
    recurrence `rec_low` where `low` holds and `rec_high` elsewhere; each
    node's true pair is exp(log scale) times its values.  The rows are
    formed a block of degrees at a time, four in-place ufuncs per degree,
    and rescaled node by node between blocks, so they never overflow."""
    (e_low, a_low, b_low), (e_high, a_high, b_high) = rec_low, rec_high
    d = np.where(low, e_low, e_high) * t
    p = 1 + d
    logscale = np.zeros_like(t)
    for lo in range(0, len(a_high), _RECURRENCE_BLOCK):
        if lo:
            scale = np.abs(p) + np.abs(d)
            p /= scale
            d /= scale
            logscale += np.log(scale)
        blk = slice(lo, lo + _RECURRENCE_BLOCK)
        rows_a = np.where(low, a_low[blk, None], a_high[blk, None])
        rows_a *= t
        rows_b = np.where(low, b_low[blk, None], b_high[blk, None])
        for row_a, row_b in zip(rows_a, rows_b):
            row_a *= p
            d *= row_b
            d += row_a
            p += d
    return p, p - d, logscale


def _gauss_jacobi(n: int, a: float, b: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule of order n for the weight (1-x)^a (1+x)^b on
    [-1, 1]: increasing nodes and their weights.

    The nodes are the WKB guesses of `_jacobi_guesses`, refined by Halley
    steps on P_n, with P_n' and P_n'' from the Jacobi equation, until each
    step is below _NODE_TOL of its node's local spacing.  Each node is
    evaluated from its nearer endpoint: x >= 0 in y = x with (a, b), x < 0
    in y = -x with (b, a), through `_edge_recurrence` at t = 1 - y, so every
    1 - y^2 is t (1 + y).  The weights are proportional to
    1 / ((1 - x^2) P_n'(x)^2) at the nodes, normalised in log space to sum
    to mu_0 = 2^(a+b+1) B(a+1, b+1).  At a float node next to an endpoint
    this form is off by about 1e-10 at order 4096, against mpmath, where
    1 / (P_{n-1} P_n'), equal at the exact roots, is off by 3e-7.  Raises
    QuadratureError when the nodes are not strictly increasing inside
    (-1, 1) or a weight is not finite and positive."""
    # a failed rule, guesses and recurrence included, shows as NaN, zero or
    # infinity, caught below
    with np.errstate(all="ignore"):
        x = _jacobi_guesses(n, a, b)
        low = x < 0
        sign = np.where(low, -1.0, 1.0)
        aa, bb = np.where(low, b, a), np.where(low, a, b)
        rec_low = _edge_recurrence(n, b, a)
        rec_high = _edge_recurrence(n, a, b)
        # pn and pm below are P_n and P_{n-1} over binom(n-1+aa, n-1), times
        # exp(logscale); side is the log of that binomial's ratio between
        # sides
        k = np.arange(1, n, dtype=float)
        side = np.where(
            low, float(np.sum(np.log1p(b / k) - np.log1p(a / k))), 0.0)
        c = 2 * n + a + b
        eps = float(np.finfo(float).eps)
        log_mu0 = ((a + b + 1) * math.log(2) + math.lgamma(a + 1)
                   + math.lgamma(b + 1) - math.lgamma(a + b + 2))
        for _ in range(_HALLEY_STEPS):
            y = sign * x
            t = 1 - y
            p, pm, logscale = _jacobi_pair(t, low, rec_low, rec_high)
            pn = p * (n + aa) / n
            one_minus_y2 = t * (1 + y)
            num = n * ((aa - bb) - c * y) * pn + 2 * (n + aa) * (n + bb) * pm
            dp = num / (c * one_minus_y2)
            d2p = ((aa - bb + (aa + bb + 2) * y) * dp
                   - n * (n + aa + bb + 1) * pn) / one_minus_y2
            newton = pn / dp
            step = newton / (1 - newton * d2p / (2 * dp))
            x = x - sign * step
            gap = np.diff(x, prepend=-1.0, append=1.0)
            gap = np.minimum(gap[1:], gap[:-1])
            if np.all(np.abs(step) <= np.maximum(_NODE_TOL * gap, 4 * eps)):
                break
        # w is proportional to 1 / ((1 - y^2) P_n'^2) = c^2 (1 - y^2) / num^2
        logw = np.log(one_minus_y2) - 2 * (np.log(np.abs(num)) + logscale
                                           + side)
        logw -= np.max(logw)
        w = np.exp(logw + log_mu0 - np.log(np.sum(np.exp(logw))))
    if not (x[0] > -1 and x[-1] < 1 and np.all(np.diff(x) > 0)):
        raise QuadratureError(
            f"Gauss-Jacobi rule of order {n} at (alpha, beta) = ({a!r}, "
            f"{b!r}): nodes are not strictly increasing inside (-1, 1)")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise QuadratureError(
            f"Gauss-Jacobi rule of order {n} at (alpha, beta) = ({a!r}, "
            f"{b!r}): a weight is not finite and positive")
    return x, w


def angular_gram(alpha: RationalLike, beta: RationalLike, nmax: int
                 ) -> np.ndarray:
    """Normalized Gram matrix of the deformed polynomials under their true
    weight (1-x)^alpha (1+x)^beta / (b-x)^2 on [-1, 1].

    A Gauss-Jacobi rule (`_gauss_jacobi`, numpy only) handles the classical
    part of the weight exactly; the (b-x)^-2 factor is analytic on the
    interval (the pole sits outside), so doubling the order until two
    successive Gram matrices agree to GRAM_TOL certifies convergence.
    Returns G with unit diagonal; off-diagonal entries measure any loss of
    orthogonality.  Raises QuadratureError, before any rule, when the
    weight pole b is not a finite float strictly above 1 (then the doubling
    could not converge), and when the doubling does not converge or a rule
    fails.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    try:
        b = float(weight_pole(alpha, beta))
    except OverflowError:
        b = math.inf
    if not 1 < b < math.inf:
        raise QuadratureError(
            f"angular Gram quadrature needs the weight pole b = (beta + alpha)"
            f"/(beta - alpha) as a finite float above 1, not {b}")
    exponents = _float(alpha, "alpha"), _float(beta, "beta")
    polys = [exceptional_jacobi(n, alpha, beta) for n in range(1, nmax + 1)]

    def gram(order: int) -> np.ndarray:
        xq, wq = _gauss_jacobi(order, *exponents)
        vals = np.array([_polyval(p, xq) for p in polys])
        wfull = wq / (b - xq) ** 2
        return vals @ (wfull[:, None] * vals.T)

    order = 64
    prev = gram(order)
    while order <= GRAM_MAX_ORDER:
        order *= 2
        cur = gram(order)
        scale = float(np.max(np.abs(np.diag(cur))))
        if float(np.max(np.abs(cur - prev))) < GRAM_TOL * scale:
            d = 1.0 / np.sqrt(np.diag(cur))
            return cur * np.outer(d, d)
        prev = cur
    raise QuadratureError(
        f"angular Gram quadrature did not converge to {GRAM_TOL} by order "
        f"{order}")


# ---------------------------------------------------------------------------
# Numeric cross-check of the composite ladders
# ---------------------------------------------------------------------------

def ladder_numeric_check(step: CompositeStep) -> tuple[float, float]:
    """(deviation, ratio_error) of the step's exact images
    (`CompositeStep.images`) against (exact coefficient) * (target state) on
    a 48 x 48 float grid: the max-norm shape mismatch after fitting the best
    constant, and that constant against `step.coefficient`.  The target
    state is `wavefunction_on_grid`'s.

    Only the final evaluation is floating point, so any deviation beyond
    rounding reveals an inconsistency between the ladder algebra and the
    wavefunctions themselves.  Raises VerificationError when an image is
    zero or keeps a pole, and NumericalOverflowError when the target is not
    finite on the grid.
    """
    params, target = step.params, step.target
    ang_img, rad_img = step.images
    for name, img in (("angular", ang_img), ("radial", rad_img)):
        if img.is_zero() or not img.is_polynomial():
            raise VerificationError(
                f"{name} chain image {img.pretty()} is not a nonzero "
                f"polynomial")
    r, phi = interior_grid(default_rmax(params), params.wedge_span, 48, 1e-2)
    img = np.outer(
        radial_values(rad_img.as_poly(), laguerre_parameter(target.n, params),
                      params.omega, r),
        angular_values(ang_img.as_poly(), params, phi))
    tgt = wavefunction_on_grid(target, params, r, phi)

    # an exact power-of-two scale, invisible to the fit, keeps its sums finite
    shift = -np.frexp(np.max(np.abs(tgt)))[1]
    img, tgt = np.ldexp(img, shift), np.ldexp(tgt, shift)
    flat_i, flat_t = img.ravel(), tgt.ravel()
    fit = float(flat_i @ flat_t) / float(flat_t @ flat_t)
    scale = float(np.max(np.abs(fit * tgt)))
    deviation = float(np.max(np.abs(img - fit * tgt))) / scale
    return deviation, abs(fit / float(step.coefficient) - 1.0)


# ---------------------------------------------------------------------------
# Spectrum enumeration and exact degeneracy bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralLevel:
    """One degenerate energy level: exact E/omega, the float energy, and the
    member states sorted by increasing angular index."""
    ratio: Fraction
    energy: float
    states: tuple[QuantumState, ...]


def degeneracy_table(params: ModelParams, emax: float) -> list[SpectralLevel]:
    """All bound levels with energy <= emax, grouped by the exact rational
    E/omega so equal energies are equal by construction, never by a float
    tolerance."""
    if emax <= 0:
        return []
    max_ratio = Fraction(emax) / Fraction(params.omega)
    buckets: dict[Fraction, list[QuantumState]] = {}
    n = 1
    while True:
        base = laguerre_parameter(n, params) + 1
        if base > max_ratio:
            break
        m = 0
        while base + 2 * m <= max_ratio:
            st = QuantumState(m, n)
            buckets.setdefault(energy_ratio(st, params), []).append(st)
            m += 1
        n += 1
    levels = []
    for ratio in sorted(buckets):
        states = tuple(sorted(buckets[ratio], key=lambda s: s.n))
        levels.append(SpectralLevel(ratio, params.omega * float(ratio), states))
    return levels

