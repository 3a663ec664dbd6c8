"""Exact univariate polynomials over the rationals, plus the classical and
exceptional orthogonal families the rest of the package is built from.

Scalars are `fractions.Fraction` throughout; nothing in this module touches
floating point except the explicit `float_coeffs` helper.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import ParameterDomainError

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, "a/b" strings and Fractions to Fraction (exact)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def pochhammer(z: RationalLike, j: int) -> Fraction:
    """Rising factorial (z)_j = z (z+1) ... (z+j-1), with (z)_0 = 1."""
    if j < 0:
        raise ValueError("pochhammer needs j >= 0")
    z = as_fraction(z)
    out = Fraction(1)
    for i in range(j):
        out *= z + i
    return out


def binomial_rational(z: RationalLike, j: int) -> Fraction:
    """Generalized binomial C(z, j) = z (z-1) ... (z-j+1) / j! for rational z."""
    if j < 0:
        raise ValueError("binomial needs j >= 0")
    z = as_fraction(z)
    return pochhammer(z - j + 1, j) / math.factorial(j)


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    coeffs[i] is the coefficient of x**i; trailing zeros are trimmed so the
    representation is canonical and equality is structural.  The zero
    polynomial is the empty tuple and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: RationalLike) -> "Poly":
        return cls((as_fraction(c),))

    # -- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Poly(out)
        c = as_fraction(other)
        return Poly(tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- calculus / evaluation ------------------------------------------
    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def evaluate(self, x):
        """Horner evaluation; exact for Fraction input, float for float input."""
        acc = 0 if not isinstance(x, float) else 0.0
        if isinstance(x, float):
            for c in reversed(self.coeffs):
                acc = acc * x + float(c)
            return acc
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def float_coeffs(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    def reflect(self) -> "Poly":
        """p(x) -> p(-x)."""
        return Poly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading()
        return Poly(tuple(c / lead for c in self.coeffs))

    # -- comparison --------------------------------------------------------
    def proportionality(self, other: "Poly"):
        """Return c with self == c * other, or None if no such scalar exists.

        The zero polynomial is proportional to anything with c = 0; nothing
        nonzero is proportional to zero.
        """
        if self.is_zero():
            return Fraction(0)
        if other.is_zero() or self.degree != other.degree:
            return None
        c = self.leading() / other.leading()
        return c if self == c * other else None

    # -- formatting --------------------------------------------------------
    def pretty(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = f"{mag}"
            else:
                xs = var if i == 1 else f"{var}^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(f"-{body}" if sign == "-" else body)
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.pretty()})"


def divide_root(coeffs: Sequence[Fraction], r: Fraction
                ) -> tuple[Sequence[Fraction], Fraction]:
    """Synthetic division of sum_i coeffs[i] x^i (at least one coefficient)
    by (x - r): the quotient's coefficients and the remainder, which is the
    value at r."""
    if not r:
        return coeffs[1:], coeffs[0]
    quot = [Fraction(0)] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        quot[i] = acc
        acc = coeffs[i] + r * acc
    return quot, acc


def lagrange_basis(xs: Sequence[Fraction]) -> list[tuple[Poly, Fraction]]:
    """The Lagrange basis over distinct rational nodes: for each node x_i the
    pair (l_i, d_i) with l_i = prod_(j != i) (x - x_j) and d_i = l_i(x_i)."""
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    full = Poly.one()
    for xj in xs:
        full = full * Poly((-xj, 1))
    basis = []
    for xi in xs:
        li = Poly(divide_root(full.coeffs, xi)[0])
        basis.append((li, li.evaluate(xi)))
    return basis


def lagrange_fit(basis: Sequence[tuple[Poly, Fraction]],
                 ys: Sequence[Fraction]) -> Poly:
    """The interpolant sum_i (y_i / d_i) l_i of the values ys at the nodes of
    `basis` (from `lagrange_basis`)."""
    out = [Fraction(0)] * len(basis)
    for (li, di), yi in zip(basis, ys):
        if yi:
            w = yi / di
            for i, c in enumerate(li.coeffs):
                out[i] += w * c
    return Poly(out)


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Exact Lagrange interpolation through distinct rational nodes."""
    basis = lagrange_basis([as_fraction(x) for x, _ in points])
    return lagrange_fit(basis, [as_fraction(y) for _, y in points])


# ---------------------------------------------------------------------------
# Classical orthogonal families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def jacobi_polynomial(n: int, alpha: Fraction, beta: Fraction) -> Poly:
    """Jacobi polynomial P_n in the standard normalization P_n(1) = (alpha+1)_n / n!.

    Built from the three-term recurrence, so every coefficient is exact.
    """
    if n < 0:
        raise ValueError("jacobi_polynomial needs n >= 0")
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    if n == 0:
        return Poly.one()
    p_prev = Poly.one()
    # P_1 = (alpha - beta)/2 + (alpha + beta + 2) x / 2
    p_cur = Poly(((alpha - beta) / 2, (alpha + beta + 2) / 2))
    for j in range(2, n + 1):
        s = alpha + beta
        c0 = 2 * j * (j + s) * (2 * j + s - 2)
        lin = Poly((alpha * alpha - beta * beta, (2 * j + s) * (2 * j + s - 2)))
        p_next = (lin * p_cur * (2 * j + s - 1)
                  - p_prev * (2 * (j + alpha - 1) * (j + beta - 1) * (2 * j + s)))
        p_prev, p_cur = p_cur, Poly(tuple(c / c0 for c in p_next.coeffs))
    return p_cur


@lru_cache(maxsize=None)
def laguerre_polynomial(m: int, a: Fraction) -> Poly:
    """Laguerre polynomial L_m^(a) from the terminating series.

    The parameter may be any rational (it is generically non-integer here),
    including negative values, where the series still terminates.
    """
    if m < 0:
        raise ValueError("laguerre_polynomial needs m >= 0")
    a = as_fraction(a)
    coeffs = []
    for i in range(m + 1):
        c = binomial_rational(m + a, m - i) / math.factorial(i)
        coeffs.append(-c if i % 2 else c)
    return Poly(coeffs)


def weight_pole(alpha: RationalLike, beta: RationalLike) -> Fraction:
    """Location b = (beta + alpha) / (beta - alpha) of the algebraic pole of the
    deformed weight (1-x)^alpha (1+x)^beta / (x-b)^2.

    For beta > alpha > 0 this sits strictly to the right of the orthogonality
    interval [-1, 1].
    """
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    if alpha == beta:
        raise ParameterDomainError(
            "alpha == beta leaves the weight-pole location b = "
            "(beta+alpha)/(beta-alpha) undefined (zero denominator)")
    return (beta + alpha) / (beta - alpha)


def secondary_root(alpha: RationalLike, beta: RationalLike) -> Fraction:
    """The point c = b + 2/(beta - alpha) = (alpha + beta + 2)/(beta - alpha).

    This is the root of the degree-1 member of the deformed family, and the
    zero of the derived forward intertwiner's order-0 coefficient.
    """
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    return weight_pole(alpha, beta) + Fraction(2) / (beta - alpha)


@lru_cache(maxsize=None)
def exceptional_jacobi_closed_form(n: int, alpha: Fraction, beta: Fraction) -> Poly:
    """Closed-form combination defining the degree-n member of the deformed
    family from two classical Jacobi polynomials:

        -1/2 (x - b) P_{n-1} + [b P_{n-1} - P_{n-2}] / (2n - 2 + alpha + beta)

    with the convention P_{-1} = 0 for n = 1.  The family starts at degree 1;
    there is no degree-0 member.
    """
    if n < 1:
        raise ValueError("the deformed family starts at degree 1")
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    b = weight_pole(alpha, beta)
    p1 = jacobi_polynomial(n - 1, alpha, beta)
    p2 = jacobi_polynomial(n - 2, alpha, beta) if n >= 2 else Poly.zero()
    out = Poly((b, -1)) * p1 * Fraction(1, 2)
    out = out + (p1 * b - p2) * (Fraction(1) / (2 * n - 2 + alpha + beta))
    return out
