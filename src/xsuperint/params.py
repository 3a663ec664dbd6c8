"""Model parameters and quantum-state indexing.

The model lives on the open wedge 0 < phi < pi/(2k), k = p/q, with two exact
rational shape parameters alpha, beta and an oscillator frequency omega.  The
admissible domain is beta > alpha > 0: this puts the weight pole
b = (beta+alpha)/(beta-alpha) strictly outside [-1, 1] and keeps every bound
state normalizable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterDomainError
from .polynomials import RationalLike, as_fraction, weight_pole


def omega_in_domain(omega: float) -> bool:
    """omega > 0 with omega^2 (carried by the radial force and energy) a
    finite, normal float; NaN fails.  Shared by the quantum and classical
    models."""
    return omega > 0 and sys.float_info.min <= omega * omega < math.inf


@dataclass(frozen=True)
class ModelParams:
    alpha: Fraction
    beta: Fraction
    omega: float = 1.0
    p: int = 1
    q: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        if self.alpha == self.beta:
            # weight_pole raises the detailed equal-parameter message
            weight_pole(self.alpha, self.beta)
        if not (self.beta > self.alpha > 0):
            raise ParameterDomainError(
                f"need beta > alpha > 0 (got alpha={self.alpha}, beta={self.beta}); "
                "this keeps the weight pole b outside [-1, 1]")
        if not omega_in_domain(self.omega):
            raise ParameterDomainError(
                f"omega must be positive with omega^2 a finite normal float "
                f"(got omega = {self.omega})")
        if self.p < 1 or self.q < 1:
            raise ParameterDomainError("p and q must be positive integers")
        if math.gcd(self.p, self.q) != 1:
            raise ParameterDomainError(f"p={self.p}, q={self.q} must be coprime")
        if max(self.p, self.q) > sys.float_info.max:
            # then k = p/q is a float in [1/max, max], never 0 or inf
            raise ParameterDomainError(
                f"p and q must each be at most {sys.float_info.max:.6g}, so "
                f"that they and k = p/q are finite floats (got p = {self.p}, "
                f"q = {self.q})")
        if not sys.float_info.min <= self.wedge_span < math.inf:
            raise ParameterDomainError(
                f"the wedge span pi/(2k) must be a positive, normal, finite "
                f"float (got {self.wedge_span} at k = {self.p}/{self.q})")

    @property
    def k(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def k_float(self) -> float:
        return self.p / self.q

    @property
    def wedge_span(self) -> float:
        """Angular width pi/(2k) of the open wedge."""
        return math.pi / (2 * self.k_float)


@dataclass(frozen=True)
class QuantumState:
    """Index (m, n) of the bound state: m >= 0 radial, n >= 1 angular.

    The angular family has no degree-0 member, so n starts at 1.
    """
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0:
            raise ParameterDomainError(f"radial index m must be >= 0 (got {self.m})")
        if self.n < 1:
            raise ParameterDomainError(f"angular index n must be >= 1 (got {self.n})")


def angular_eigenroot(n: RationalLike, alpha: RationalLike, beta: RationalLike) -> Fraction:
    """A_n = 2n - 1 + alpha + beta, the positive square root of the angular
    eigenvalue.  k * A_n is the Laguerre parameter of the radial factor.
    Accepts rational n so formal index substitutions can reuse it.
    """
    return 2 * as_fraction(n) - 1 + as_fraction(alpha) + as_fraction(beta)


def energy_ratio(state: QuantumState, params: ModelParams) -> Fraction:
    """Exact E / omega = 2m + k A_n + 1."""
    a_n = angular_eigenroot(state.n, params.alpha, params.beta)
    return 2 * state.m + params.k * a_n + 1


def energy(state: QuantumState, params: ModelParams) -> float:
    return params.omega * float(energy_ratio(state, params))
