"""Exact differential-operator algebra with rational-function coefficients.

A `RatFunc` is num / prod (x - r)^m in lowest terms: a numerator polynomial
and a pole map {rational root r: multiplicity m}.  Every operator the package
builds has its poles at the wedge walls x = +-1, the weight pole x = b and
y = 0, so a denominator never needs an irrational root.  The constructor
keys an integral root as an `int` (as all four are at (alpha, beta) =
(1, 3)), whose hash runs in C, and any other as a `Fraction`; arithmetic
only ever reuses keys it was given.  Sums take the larger
multiplicity at each root, products add them, and `_cancel` removes the
common factors by exact synthetic division at the poles; zero-testing and
equality are structural.  A `DiffOp` is sum_j c_j(x) d^j with RatFunc
coefficients c_j, normal-ordered with derivatives on the right; the package
applies and gauge-conjugates operators, and keeps their products as factor
sequences (`ladders.LadderChain`) that only the tests expand (`compose`).

The gauge trick is what keeps everything rational: the weight factors that
dress the polynomial eigenfunctions involve irrational powers, but their log
derivatives are rational functions, and conjugation G A G^{-1} only ever needs
(log G)' (the substitution d -> d - (log G)').
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .polynomials import (Poly, RationalLike, as_fraction, divide_root,
                          times_roots)

Coefficientable = Union["RatFunc", Poly, Fraction, int]
#: {root r: multiplicity m} standing for prod (x - r)^m, keyed by
#: `RatFunc._root_key`
Poles = dict[Union[int, Fraction], int]

_ONE = Poly.one()


def _cancel(num: Poly, poles: Poles) -> tuple[Poly, Poles]:
    """Divide the nonzero num by each (x - r) of poles as often as it
    divides exactly, at most the multiplicity; return what is left of both."""
    left: Poles = {}
    for r, m in poles.items():
        num, k = divide_root(num, r, m)
        if m > k:
            left[r] = m - k
    return num, left


def _excess(big: Poles, small: Poles) -> Poles:
    """The factors of prod (x - r)^big left after dividing out small."""
    return {r: m - small.get(r, 0) for r, m in big.items() if m > small.get(r, 0)}


class RatFunc:
    """Reduced rational function num / prod (x - r)^m.  `poles` maps each
    root r of the monic denominator to its multiplicity m >= 1, and num
    vanishes at none of them; `den` is the expanded product."""

    __slots__ = ("num", "poles")

    def __init__(self, num: Union[Poly, RationalLike],
                 poles: Mapping[RationalLike, int] = {}):
        if not isinstance(num, Poly):
            num = Poly.constant(num)
        self.num, self.poles = num, {}
        if poles and not num.is_zero():
            if min(poles.values()) < 0:
                raise ValueError(f"negative pole multiplicity in {dict(poles)}")
            self.num, self.poles = _cancel(
                num, {self._root_key(r): m for r, m in poles.items()})

    @staticmethod
    def _root_key(r: RationalLike) -> Union[int, Fraction]:
        """The pole-map key of the root r: an int when r is integral."""
        if isinstance(r, int):
            return r
        r = as_fraction(r)
        return r.numerator if r.denominator == 1 else r

    @classmethod
    def _of_parts(cls, num: Poly, poles: Poles) -> "RatFunc":
        """The RatFunc with already reduced parts, skipping the cancellation."""
        out = cls.__new__(cls)
        out.num, out.poles = num, (poles if not num.is_zero() else {})
        return out

    # -- constructors ---------------------------------------------------
    @classmethod
    def of(cls, value: Coefficientable) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        return cls(value)

    @classmethod
    def zero(cls) -> "RatFunc":
        return _RZERO

    @classmethod
    def one(cls) -> "RatFunc":
        return _RONE

    # -- queries ---------------------------------------------------------
    @property
    def den(self) -> Poly:
        return times_roots(_ONE, self.poles)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.poles

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: denominator {self.den.pretty()}")
        return self.num

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: Coefficientable) -> "RatFunc":
        o = RatFunc.of(other)
        if o.is_zero():
            return self
        if self.is_zero():
            return o
        poles = dict(self.poles)
        for r, m in o.poles.items():
            poles[r] = max(poles.get(r, 0), m)
        num = (times_roots(self.num, _excess(poles, self.poles))
               + times_roots(o.num, _excess(poles, o.poles)))
        if num.is_zero():
            return RatFunc.zero()
        return RatFunc._of_parts(*_cancel(num, poles))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._of_parts(-self.num, self.poles)

    def __sub__(self, other: Coefficientable) -> "RatFunc":
        return self + (-RatFunc.of(other))

    def __mul__(self, other: Coefficientable) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            return RatFunc._of_parts(self.num * other, self.poles)
        o = RatFunc.of(other)
        if self.is_zero() or o.is_zero():
            return RatFunc.zero()
        a, b_poles = _cancel(self.num, o.poles)
        b, poles = _cancel(o.num, self.poles)
        for r, m in b_poles.items():
            poles[r] = poles.get(r, 0) + m
        return RatFunc._of_parts(a * b, poles)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RatFunc, Poly, Fraction, int)):
            return NotImplemented
        o = RatFunc.of(other)
        return self.num == o.num and self.poles == o.poles

    def __hash__(self) -> int:
        return hash((self.num, frozenset(self.poles.items())))

    # -- calculus / evaluation -----------------------------------------------
    def derivative(self) -> "RatFunc":
        """(N / prod l_i^m_i)' = (N' L - N sum_i m_i L / l_i) / prod l_i^(m_i+1)
        with L = prod l_i.  The numerator is -m_i N(r_i) prod_(j != i)
        (r_i - r_j) != 0 at each root r_i, so the result is already reduced."""
        num = times_roots(self.num.derivative(), dict.fromkeys(self.poles, 1))
        for r, m in self.poles.items():
            others = {s: 1 for s in self.poles if s != r}
            num = num - times_roots(self.num, others) * m
        return RatFunc._of_parts(num, {r: m + 1 for r, m in self.poles.items()})

    def evaluate(self, x):
        return self.num.evaluate(x) / self.den.evaluate(x)

    def pretty(self) -> str:
        if self.is_polynomial():
            return self.num.pretty()
        return f"({self.num.pretty()}) / ({self.den.pretty()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.pretty()})"


#: the shared constants `RatFunc.zero()` and `one()`; a RatFunc, its pole
#: map included, is never mutated
_RZERO, _RONE = RatFunc._of_parts(Poly.zero(), {}), RatFunc._of_parts(_ONE, {})


class DiffOp:
    """Normal-ordered differential operator sum_j coeffs[j] * d^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coefficientable] = ()):
        cs = [RatFunc.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: tuple[RatFunc, ...] = tuple(cs)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffOp) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def cleared(self) -> tuple[Poly, list[Poly]]:
        """(D, [D c_j]): the monic least common denominator D of the
        coefficients and the polynomial coefficients of D * A.  Each root of
        D has the largest multiplicity any coefficient gives it."""
        poles: Poles = {}
        for c in self.coeffs:
            for r, m in c.poles.items():
                poles[r] = max(poles.get(r, 0), m)
        return (times_roots(_ONE, poles),
                [times_roots(c.num, _excess(poles, c.poles)) for c in self.coeffs])

    # -- action ------------------------------------------------------------
    def apply_ratfunc(self, f: Coefficientable) -> RatFunc:
        out, cur = RatFunc.zero(), RatFunc.of(f)
        for j, c in enumerate(self.coeffs):
            if j > 0:
                cur = cur.derivative()
            if not c.is_zero():
                out = out + c * cur
        return out

    # -- gauge conjugation -----------------------------------------------
    def gauge_conjugate(self, logderiv: RatFunc) -> "DiffOp":
        """Return G A G^{-1} where (log G)' = logderiv = L: the substitution
        d -> d - L, an algebra homomorphism that -L inverts exactly.  Each
        power (d - L)^j is taken from the last on its coefficient list:

            (d - L) sum_i p_i d^i = sum_i (p_i' - L p_i) d^i + p_i d^(i+1)
        """
        out = [RatFunc.zero()] * len(self.coeffs)
        power = [RatFunc.one()]                 # (d - L)^j, lowest order first
        for j, c in enumerate(self.coeffs):
            if j > 0:
                power = [p.derivative() - logderiv * p + lower for p, lower
                         in zip(power, [RatFunc.zero()] + power)] + [power[-1]]
            if not c.is_zero():
                for i, p in enumerate(power):
                    out[i] = out[i] + c * p
        return DiffOp(out)

    # -- formatting ----------------------------------------------------------
    def pretty(self) -> str:
        parts = []
        for j, c in reversed(list(enumerate(self.coeffs))):
            if c.is_zero():
                continue
            dsym = "" if j == 0 else ("D" if j == 1 else f"D^{j}")
            body = c.pretty()
            if dsym:
                body = f"[{body}]*{dsym}"
            parts.append(body)
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"DiffOp({self.pretty()})"
