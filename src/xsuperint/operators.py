"""Exact differential-operator algebra with rational-function coefficients.

A `RatFunc` is a reduced quotient of two `Poly`s with a monic denominator, so
zero-testing and equality are structural.  A `DiffOp` is sum_j c_j(x) d^j with
RatFunc coefficients c_j, normal-ordered with derivatives on the right; it
supports composition, commutators, application to functions, and gauge
conjugation by a factor known only through its logarithmic derivative.

The gauge trick is what keeps everything rational: the weight factors that
dress the polynomial eigenfunctions involve irrational powers, but their log
derivatives are rational functions, and conjugation G A G^{-1} only ever needs
(log G)' (the substitution d -> d - (log G)').
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import VerificationError
from .polynomials import Poly, as_fraction, poly_gcd

Coefficientable = Union["RatFunc", Poly, Fraction, int]


class RatFunc:
    """Reduced rational function num/den, den monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Poly.constant(num)
        if den is None:
            den = Poly.one()
        elif isinstance(den, (int, Fraction)):
            den = Poly.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = Poly.zero(), Poly.one()
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.div_exact(g)
            den = den.div_exact(g)
        lead = den.leading()
        if lead != 1:
            num = num * (Fraction(1) / lead)
            den = den.monic()
        self.num, self.den = num, den

    # -- constructors ---------------------------------------------------
    @classmethod
    def of(cls, value: Coefficientable) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, Poly):
            return cls(value)
        return cls(Poly.constant(as_fraction(value)))

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(Poly.one())

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(Poly.x())

    # -- queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Poly.one()

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: denominator {self.den.pretty()}")
        return self.num

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: Coefficientable) -> "RatFunc":
        o = RatFunc.of(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: Coefficientable) -> "RatFunc":
        return self + (-RatFunc.of(other))

    def __rsub__(self, other: Coefficientable) -> "RatFunc":
        return RatFunc.of(other) + (-self)

    def __mul__(self, other: Coefficientable) -> "RatFunc":
        o = RatFunc.of(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Coefficientable) -> "RatFunc":
        o = RatFunc.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: Coefficientable) -> "RatFunc":
        return RatFunc.of(other) / self

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RatFunc, Poly, Fraction, int)):
            return NotImplemented
        o = RatFunc.of(other)
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- calculus / evaluation -----------------------------------------------
    def derivative(self) -> "RatFunc":
        return RatFunc(self.num.derivative() * self.den - self.num * self.den.derivative(),
                       self.den * self.den)

    def evaluate(self, x):
        return self.num.evaluate(x) / self.den.evaluate(x)

    def pretty(self, var: str = "x") -> str:
        if self.is_polynomial():
            return self.num.pretty(var)
        return f"({self.num.pretty(var)}) / ({self.den.pretty(var)})"

    def __repr__(self) -> str:
        return f"RatFunc({self.pretty()})"


class DiffOp:
    """Normal-ordered differential operator sum_j coeffs[j] * d^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coefficientable] = ()):
        cs = [RatFunc.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: tuple[RatFunc, ...] = tuple(cs)

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls) -> "DiffOp":
        return cls(())

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls((RatFunc.one(),))

    @classmethod
    def d(cls) -> "DiffOp":
        return cls((RatFunc.zero(), RatFunc.one()))

    # -- queries ------------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> RatFunc:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else RatFunc.zero()

    # -- linear structure ------------------------------------------------
    def __add__(self, other: "DiffOp") -> "DiffOp":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return DiffOp(out)

    def __neg__(self) -> "DiffOp":
        return DiffOp(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def premultiply(self, f: Coefficientable) -> "DiffOp":
        """Left multiplication by a function: f * A (coefficient-wise)."""
        g = RatFunc.of(f)
        return DiffOp(tuple(g * c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            return self.compose(other)
        if isinstance(other, (int, Fraction)):
            return self.premultiply(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.premultiply(other)
        return NotImplemented

    # -- multiplicative structure ----------------------------------------
    def compose(self, other: "DiffOp") -> "DiffOp":
        """(A o B) f = A(B f), expanded to normal order by the Leibniz rule:

            d^j o (c d^i) = sum_l C(j, l) c^(l) d^(j + i - l)
        """
        out: list[RatFunc] = [RatFunc.zero()] * (len(self.coeffs) + len(other.coeffs))
        for i, c in enumerate(other.coeffs):
            if c.is_zero():
                continue
            derivs = [c]
            for j, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                while len(derivs) <= j:
                    derivs.append(derivs[-1].derivative())
                for l in range(j + 1):
                    term = a * derivs[l] * math.comb(j, l)
                    out[j + i - l] = out[j + i - l] + term
        return DiffOp(out)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def __pow__(self, n: int) -> "DiffOp":
        if n < 0:
            raise ValueError("negative operator power")
        out = DiffOp.identity()
        for _ in range(n):
            out = out.compose(self)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffOp) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def cleared(self) -> tuple[Poly, list[Poly]]:
        """(D, [D c_j]): the monic least common denominator D of the
        coefficients and the polynomial coefficients of D * A."""
        den = Poly.one()
        for c in self.coeffs:
            den = (den * c.den).div_exact(poly_gcd(den, c.den))
        return den, [c.num * den.div_exact(c.den) for c in self.coeffs]

    # -- action ------------------------------------------------------------
    def apply_ratfunc(self, f: Coefficientable) -> RatFunc:
        g = RatFunc.of(f)
        out = RatFunc.zero()
        cur = g
        for j, c in enumerate(self.coeffs):
            if j > 0:
                cur = cur.derivative()
            if not c.is_zero():
                out = out + c * cur
        return out

    def apply_poly(self, p: Poly) -> RatFunc:
        return self.apply_ratfunc(RatFunc(p))

    def apply_expect_poly(self, p: Poly) -> Poly:
        """Apply to a polynomial and insist the image is again a polynomial.

        Raises VerificationError when a pole survives — callers use this as a
        hard check that an operator maps the family into itself."""
        image = self.apply_poly(p)
        if not image.is_polynomial():
            raise VerificationError(
                f"image is not a polynomial: denominator {image.den.pretty()}")
        return image.as_poly()

    # -- gauge conjugation -----------------------------------------------
    def gauge_conjugate(self, logderiv: RatFunc) -> "DiffOp":
        """Return G A G^{-1} where (log G)' = logderiv.

        Computed by the exact substitution d -> d - (log G)', which is an
        algebra homomorphism, so conjugating a composition equals composing
        the conjugates; conjugating back with -logderiv inverts exactly.
        """
        shifted = DiffOp((-logderiv, RatFunc.one()))  # d - (log G)'
        out = DiffOp.zero()
        power = DiffOp.identity()
        for j, c in enumerate(self.coeffs):
            if j > 0:
                power = shifted.compose(power)
            if not c.is_zero():
                out = out + power.premultiply(c)
        return out

    # -- formatting ----------------------------------------------------------
    def pretty(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j in range(self.order, -1, -1):
            c = self.coeff(j)
            if c.is_zero():
                continue
            dsym = "" if j == 0 else ("D" if j == 1 else f"D^{j}")
            body = c.pretty(var)
            if dsym:
                body = f"[{body}]*{dsym}"
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"DiffOp({self.pretty()})"
