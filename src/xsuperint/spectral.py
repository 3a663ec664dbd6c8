"""Numerical spectral layer: bound-state wavefunctions on the plane wedge,
an independent Hamiltonian-residual oracle, orthogonality quadrature, a numeric
cross-check of a composite ladder step it is handed, and exact degeneracy
bookkeeping.

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
from typing import Optional

import numpy as np

from .angular import angular_potential, exceptional_jacobi
from .errors import NumericalOverflowError, QuadratureError, VerificationError
from .ladders import CompositeStep, composite_images
from .operators import RatFunc
from .params import (ModelParams, QuantumState, angular_eigenroot, energy,
                     energy_ratio)
from .polynomials import (Poly, RationalLike, as_fraction, laguerre_polynomial,
                          weight_pole)

_EXP_LIMIT = 700.0  # exp overflow threshold for float64, with headroom


def _polyval(p: Poly, t: np.ndarray) -> np.ndarray:
    if p.is_zero():
        return np.zeros_like(np.asarray(t, dtype=float))
    return np.polynomial.polynomial.polyval(t, np.array(p.float_coeffs()))


def _ratval(f: RatFunc, t: np.ndarray) -> np.ndarray:
    return _polyval(f.num, t) / _polyval(f.den, t)


def default_rmax(params: ModelParams) -> float:
    """Radial extent 6 / sqrt(omega): y = omega r^2 reaches 36, far past the
    classical turning point of every state the acceptance ranges touch."""
    return 6.0 / math.sqrt(params.omega)


def _radial_gauge(a: Fraction, y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial gauge factor G = y^(a/2) e^(-y/2) at y = omega r^2 >= 0, with
    its log derivatives (log G)' = a/(2y) - 1/2 and (log G)'' = -a/(2y^2),
    which are infinite at y = 0.  G is assembled in log space, so a large
    gauge exponent raises NumericalOverflowError instead of overflowing
    silently."""
    c = float(a) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.where(y > 0, c * np.log(np.where(y > 0, y, 1.0)) - y / 2,
                          -np.inf if c > 0 else 0.0)
        dlog, dlog2 = c / y - 0.5, -c / y ** 2
    finite = logmag[np.isfinite(logmag)]
    if finite.size and float(finite.max()) > _EXP_LIMIT:
        raise NumericalOverflowError(
            f"radial gauge factor exceeds float range: exponent "
            f"{float(finite.max()):.1f} > {_EXP_LIMIT}; shrink the grid or "
            f"the quantum numbers")
    return np.exp(logmag), dlog, dlog2


def radial_values(m: int, a: Fraction, omega: float, r: np.ndarray,
                  poly: Optional[Poly] = None) -> np.ndarray:
    """Gauged radial factor y^(a/2) e^(-y/2) Q(y) at y = omega r^2.  Q
    defaults to the Laguerre polynomial L_m^(a)."""
    if poly is None:
        poly = laguerre_polynomial(m, a)
    y = omega * np.asarray(r, dtype=float) ** 2
    return _radial_gauge(a, y)[0] * _polyval(poly, y)


def _angular_gauge(alpha: Fraction, beta: Fraction, x: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive angular gauge g(x) = (1-x)^e1 (1+x)^e2 / (b-x), with
    e1 = alpha/2 + 1/4 and e2 = beta/2 + 1/4, on the open interval, and its
    log derivatives (log g)' and (log g)''."""
    b = float(weight_pole(alpha, beta))
    e1 = float(alpha) / 2 + 0.25
    e2 = float(beta) / 2 + 0.25
    g = np.power(1 - x, e1) * np.power(1 + x, e2) / (b - x)
    dlog = -e1 / (1 - x) + e2 / (1 + x) + 1 / (b - x)
    dlog2 = -e1 / (1 - x) ** 2 - e2 / (1 + x) ** 2 + 1 / (b - x) ** 2
    return g, dlog, dlog2


def angular_values(n: int, params: ModelParams, phi: np.ndarray,
                   poly: Optional[Poly] = None) -> np.ndarray:
    """Angular factor g(x) Q(x) at x = cos(2 k phi).  Q defaults to the monic
    deformed polynomial of degree n."""
    if poly is None:
        poly = exceptional_jacobi(n, params.alpha, params.beta)
    x = np.cos(2 * params.k_float * np.asarray(phi, dtype=float))
    return _angular_gauge(params.alpha, params.beta, x)[0] * _polyval(poly, x)


def wavefunction_on_grid(state: QuantumState, params: ModelParams,
                         r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """psi on the tensor grid, shape (len(r), len(phi))."""
    a = params.k * angular_eigenroot(state.n, params.alpha, params.beta)
    rad = radial_values(state.m, a, params.omega, r)
    ang = angular_values(state.n, params, phi)
    return np.outer(rad, ang)


def _interior_grid(params: ModelParams, nr: int, nphi: int, margin: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """nr x nphi grid over (0, default_rmax) x the wedge, each axis inset
    by `margin` of its extent."""
    rmax = default_rmax(params)
    span_phi = params.wedge_span
    r = np.linspace(margin * rmax, rmax * (1 - margin), nr)
    phi = np.linspace(margin * span_phi, span_phi * (1 - margin), nphi)
    return r, phi


def hamiltonian_residual(state: QuantumState, params: ModelParams,
                         nr: int = 60, nphi: int = 60) -> float:
    """Independent oracle: max |H psi - E psi| / (|E| max |psi|) on an
    interior grid, with H = -Laplacian/2 + omega^2 r^2 / 2
    + (k^2 / 2 r^2) V(cos 2 k phi) applied through exact closed-form
    derivatives (no finite differences, no eigensolver).

    The derivative chain never reuses the eigenvalue identity being tested:
    radial and angular factors are differentiated symbol by symbol, so a wrong
    potential, gauge, eigenvalue, or polynomial shows up as an O(1) residual.
    """
    alpha, beta = params.alpha, params.beta
    omega, kf = params.omega, params.k_float
    a = params.k * angular_eigenroot(state.n, alpha, beta)
    e_val = energy(state, params)
    r, phi = _interior_grid(params, nr, nphi, 1e-3)

    # radial factor and its first two r-derivatives via u(y), y = omega r^2
    y = omega * r ** 2
    lag = laguerre_polynomial(state.m, a)
    l0 = _polyval(lag, y)
    l1 = _polyval(lag.derivative(), y)
    l2 = _polyval(lag.derivative().derivative(), y)
    pref, gy, gy_p = _radial_gauge(a, y)
    u0 = pref * l0
    u1 = pref * (l1 + gy * l0)
    u2 = pref * (l2 + 2 * gy * l1 + (gy ** 2 + gy_p) * l0)
    rad0 = u0
    rad1 = 2 * omega * r * u1
    rad2 = 2 * omega * u1 + 4 * omega ** 2 * r ** 2 * u2

    # angular factor and its second phi-derivative via W(x), x = cos(2k phi)
    x = np.cos(2 * kf * phi)
    g, gamma, gamma_p = _angular_gauge(alpha, beta, x)
    pol = exceptional_jacobi(state.n, alpha, beta)
    p0 = _polyval(pol, x)
    p1 = _polyval(pol.derivative(), x)
    p2 = _polyval(pol.derivative().derivative(), x)
    w0 = g * p0
    w1 = g * (gamma * p0 + p1)
    w2 = g * ((gamma ** 2 + gamma_p) * p0 + 2 * gamma * p1 + p2)
    ang0 = w0
    ang2 = 4 * kf ** 2 * ((1 - x ** 2) * w2 - x * w1)

    v_ang = _ratval(angular_potential(alpha, beta), x)
    rr = r[:, None]
    psi = np.outer(rad0, ang0)
    h_psi = (-0.5 * (np.outer(rad2, ang0) + np.outer(rad1 / r, ang0)
                     + np.outer(rad0, ang2) / rr ** 2)
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


def angular_gram(alpha: RationalLike, beta: RationalLike, nmax: int
                 ) -> np.ndarray:
    """Normalized Gram matrix of the deformed polynomials under their true
    weight (1-x)^alpha (1+x)^beta / (b-x)^2 on [-1, 1].

    Gauss-Jacobi quadrature handles the classical part of the weight exactly;
    the (b-x)^-2 factor is analytic on the interval (the pole sits outside),
    so doubling the order until two successive Gram matrices agree to
    GRAM_TOL certifies convergence.  Returns G with unit diagonal;
    off-diagonal entries measure any loss of orthogonality.
    """
    from scipy.special import roots_jacobi

    alpha, beta = as_fraction(alpha), as_fraction(beta)
    b = float(weight_pole(alpha, beta))
    polys = [exceptional_jacobi(n, alpha, beta) for n in range(1, nmax + 1)]

    def gram(order: int) -> np.ndarray:
        xq, wq = roots_jacobi(order, float(alpha), float(beta))
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

def ladder_numeric_check(step: CompositeStep, params: ModelParams
                         ) -> tuple[float, float]:
    """(deviation, ratio_error) of the step's exact images
    (`composite_images`) against (exact coefficient) * (target state) on a
    48 x 48 float grid: the max-norm shape mismatch after fitting the best
    constant, and that constant against `step.coefficient`.

    Only the final evaluation is floating point, so any deviation beyond
    rounding reveals an inconsistency between the ladder algebra and the
    wavefunctions themselves.  Raises VerificationError when an image is
    zero or keeps a pole.
    """
    alpha, beta = params.alpha, params.beta
    ang_img, rad_img = composite_images(step, params)
    for name, img in (("angular", ang_img), ("radial", rad_img)):
        if img.is_zero() or not img.is_polynomial():
            raise VerificationError(
                f"{name} chain image {img.pretty()} is not a nonzero "
                f"polynomial")
    target = step.target
    target_a = params.k * angular_eigenroot(target.n, alpha, beta)
    r, phi = _interior_grid(params, 48, 48, 1e-2)
    img = np.outer(
        radial_values(target.m, target_a, params.omega, r,
                      poly=rad_img.as_poly()),
        angular_values(target.n, params, phi, poly=ang_img.as_poly()))
    tgt = np.outer(
        radial_values(target.m, target_a, params.omega, r),
        angular_values(target.n, params, phi))

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
    alpha, beta = params.alpha, params.beta
    max_ratio = Fraction(emax) / Fraction(params.omega)
    buckets: dict[Fraction, list[QuantumState]] = {}
    n = 1
    while True:
        base = params.k * angular_eigenroot(n, alpha, beta) + 1
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

