"""Exact univariate polynomials over the rationals, plus the classical and
exceptional orthogonal families the rest of the package is built from.

A `Poly` keeps integer numerators over one common denominator, so products,
sums and exact division by x - r run on Python ints; coefficients and values
come back as `fractions.Fraction`.  Nothing here touches floating point.

Rationals are coerced (`as_fraction`, which refuses floats) only at the
package boundary: the `Poly` constructors, scalar product and `evaluate`,
and each exported family builder, whose cache is typed so that a float equal
to a cached rational is refused too.  Internal helpers such as `weight_pole`
and `pochhammer` take `Fraction` parameters.  `Poly.zero()`, `one()` and
`x()` return shared module constants; a `Poly` is never mutated.

The Laguerre and Jacobi families are summed on ints from their terminating
hypergeometric series (Koekoek, Lesky & Swarttouw 2010, 9.12 and 9.8), over
one common denominator and never divided by a parameter-dependent factor,
so both are defined at every rational parameter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

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


#: Most digits a printed numerator or denominator keeps.  str() of an int
#: past the interpreter's digit limit (4,300 by default) raises ValueError,
#: and a witness that long is unreadable anyway; the reference outputs print
#: at most 16 digits in a row.
WITNESS_DIGITS = 1000


def _part_text(n: int) -> str:
    """str(n) of an int n >= 0, or "(a N-digit integer)" past
    WITNESS_DIGITS digits."""
    if n.bit_length() <= 3 * WITNESS_DIGITS:    # n < 8^WITNESS_DIGITS
        return str(n)
    # 0.30102999566 < log10(2), so n >= 2^(bits - 1) >= 10^digits
    digits = (n.bit_length() - 1) * 30102999566 // 10**11
    while n >= 10 ** digits:
        digits += 1
    if digits <= WITNESS_DIGITS:
        return str(n)
    return f"(a {digits}-digit integer)"


def exact_text(value: Union[int, Fraction]) -> str:
    """An exact int or Fraction as str() prints it, with a numerator or
    denominator of more than WITNESS_DIGITS digits named by its length: the
    one rendering of an exact number in a witness."""
    text = ("-" if value < 0 else "") + _part_text(abs(value.numerator))
    if value.denominator != 1:
        text += "/" + _part_text(value.denominator)
    return text


def pochhammer(z: Fraction, j: int) -> Fraction:
    """Rising factorial (z)_j = z (z+1) ... (z+j-1), with (z)_0 = 1."""
    if j < 0:
        raise ValueError("pochhammer needs j >= 0")
    out = Fraction(1)
    for i in range(j):
        out *= z + i
    return out


class Poly:
    """Dense univariate polynomial with rational coefficients, stored as
    integer numerators over one common denominator.

    nums[i] / den is the coefficient of x**i.  den > 0, gcd(den, *nums) == 1
    and trailing zeros are trimmed, so the representation is canonical and
    equality and hashing are structural.  The zero polynomial has nums == ()
    and den == 1 and reports degree -1.  `coeffs` returns the coefficients as
    Fractions for callers off the hot path.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs)) if cs else 1
        self.nums, self.den = _reduced([c.numerator * (den // c.denominator)
                                        for c in cs], den)

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "Poly":
        """sum_i nums[i] / den x^i for integers with den != 0; consumes nums."""
        out = cls.__new__(cls)
        out.nums, out.den = _reduced(nums, den)
        return out

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def x(cls) -> "Poly":
        return _X

    @classmethod
    def constant(cls, c: RationalLike) -> "Poly":
        c = c if isinstance(c, int) else as_fraction(c)
        return cls._of([c.numerator], c.denominator)

    # -- basic queries -------------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b, den = self.nums, other.nums, self.den
        if not b:
            return self
        if not a:
            return other
        if den != other.den:
            g = math.gcd(den, other.den)
            fa, fb = other.den // g, den // g
            a, b, den = [n * fa for n in a], [n * fb for n in b], den * fa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, n in enumerate(b):
            out[i] += n
        return Poly._of(out, den)

    def __neg__(self) -> "Poly":
        return Poly._of([-n for n in self.nums], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.nums, other.nums
            if not a or not b:
                return Poly.zero()
            out = [0] * (len(a) + len(b) - 1)
            for i, u in enumerate(a):
                if u:
                    for j, v in enumerate(b, i):
                        out[j] += u * v
            return Poly._of(out, self.den * other.den)
        c = other if isinstance(other, int) else as_fraction(other)
        return Poly._of([c.numerator * n for n in self.nums],
                        c.denominator * self.den)

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
        return (isinstance(other, Poly) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    # -- calculus / evaluation ------------------------------------------
    def derivative(self) -> "Poly":
        return Poly._of([i * n for i, n in enumerate(self.nums)][1:], self.den)

    def evaluate(self, x: RationalLike) -> Fraction:
        """The Fraction p(x) at an int or Fraction x = a/b, by integer Horner
        on the numerators."""
        x = as_fraction(x)
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for n in reversed(self.nums):       # acc = b^deg p(a/b) at the end
            acc = acc * a + n * scale
            scale *= b
        return Fraction(acc, self.den * b ** max(self.degree, 0))

    def reflect(self) -> "Poly":
        """p(x) -> p(-x)."""
        return Poly._of([-n if i % 2 else n for i, n in enumerate(self.nums)],
                        self.den)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        return Poly._of(list(self.nums), self.nums[-1])

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
        s, o = self.nums[-1], other.nums[-1]
        if any(u * o != v * s for u, v in zip(self.nums, other.nums)):
            return None
        return Fraction(s * other.den, o * self.den)

    # -- formatting --------------------------------------------------------
    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = exact_text(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{exact_text(mag)}*{xs}"
            if not parts:
                parts.append(f"-{body}" if sign == "-" else body)
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.pretty()})"


def _reduced(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """The canonical (nums, den) of sum_i nums[i] / den x^i: trailing zeros
    trimmed, den > 0 and gcd(den, *nums) == 1.  Consumes nums."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        return tuple(n // g for n in nums), den // g
    return tuple(nums), den


#: the shared constants `Poly.zero()`, `one()` and `x()`
_ZERO, _ONE, _X = Poly._of([], 1), Poly._of([1], 1), Poly._of([0, 1], 1)


def _divide_linear(nums: Sequence[int], a: int, b: int) -> list[int] | None:
    """The integer Q with sum nums[i] x^i = (b x - a) Q, or None when b x - a
    does not divide.  For coprime a, b > 0 this factor is primitive, so by
    Gauss's lemma a rational quotient would be integral: the first inexact
    step settles it."""
    quot = [0] * (len(nums) - 1)
    acc = 0
    for i in range(len(nums) - 1, 0, -1):       # acc = Q[i-1]
        acc, rem = divmod(nums[i] + a * acc, b)
        if rem:
            return None
        quot[i - 1] = acc
    return quot if nums[0] + a * acc == 0 else None


def divide_root(p: Poly, r: Fraction, most: int = 1) -> tuple[Poly, int]:
    """(q, k) with p = (x - r)^k q and k <= most as large as exact division
    allows, for a nonzero p.  For r = a/b the integer numerators are divided
    by the primitive b x - a, and q = b^k Q / den."""
    a, b = r.numerator, r.denominator
    nums, k = p.nums, 0
    while k < most:
        quot = _divide_linear(nums, a, b)
        if quot is None:
            break
        nums, k = quot, k + 1
    if not k:
        return p, 0
    scale = b ** k
    return Poly._of([scale * n for n in nums], p.den), k


def times_roots(p: Poly, roots: Mapping[Fraction, int]) -> Poly:
    """p * prod (x - r)^m over the map {r: m}: the numerators are multiplied
    by b x - a for r = a/b, and the denominator by b, m times each."""
    if not roots:
        return p
    nums, den = list(p.nums), p.den
    for r, m in roots.items():
        a, b = r.numerator, r.denominator
        for _ in range(m):      # coefficient i of (b x - a) N is b N[i-1] - a N[i]
            nums = [b * u - a * v for u, v in zip([0] + nums, nums + [0])]
        den *= b ** m
    return Poly._of(nums, den)


def lagrange_basis(xs: Sequence[Fraction]) -> list[tuple[Poly, Fraction]]:
    """The Lagrange basis over distinct rational nodes: for each node x_i the
    pair (l_i, d_i) with l_i = prod_(j != i) (x - x_j) and d_i = l_i(x_i)."""
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    full = times_roots(Poly.one(), dict.fromkeys(xs, 1))
    basis = []
    for xi in xs:
        li = divide_root(full, xi)[0]
        basis.append((li, li.evaluate(xi)))
    return basis


def lagrange_fit(basis: Sequence[tuple[Poly, Fraction]],
                 ys: Sequence[Fraction]) -> Poly:
    """The interpolant sum_i (y_i / d_i) l_i of the values ys at the nodes of
    `basis` (from `lagrange_basis`)."""
    out = Poly.zero()
    for (li, di), yi in zip(basis, ys):
        if yi:
            out = out + li * (yi / di)
    return out


# ---------------------------------------------------------------------------
# Classical orthogonal families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def jacobi_polynomial(n: int, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Jacobi polynomial P_n in the standard normalization P_n(1) = (alpha+1)_n / n!.

    From the series in y = (x - 1)/2,

        P_n = sum_k (alpha+k+1)_(n-k) (n+alpha+beta+1)_k y^k / ((n-k)! k!),

    which for alpha = a/d, beta = (s - a)/d is sum_k C(n, k) N_k y^k / (d^n n!)
    with the integers

        N_k = prod_(k<j<=n) (a + j d) * prod_(0<=j<k) (s + (n+1+j) d),

    summed by Horner's rule in 2y = x - 1.
    """
    if n < 0:
        raise ValueError("jacobi_polynomial needs n >= 0")
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    d = math.lcm(alpha.denominator, beta.denominator)
    a = alpha.numerator * (d // alpha.denominator)
    s = a + beta.numerator * (d // beta.denominator)
    low = [1]                   # low[k] = prod_(0<=j<k) (s + (n+1+j) d)
    for j in range(n):
        low.append(low[-1] * (s + (n + 1 + j) * d))
    nums: list[int] = []
    high = 1                    # prod_(k<j<=n) (a + j d)
    for k in range(n, -1, -1):  # nums <- (x - 1) nums + 2^(n-k) C(n, k) N_k
        nums = [u - v for u, v in zip([0] + nums, nums + [0])]
        nums[0] += (math.comb(n, k) * high * low[k]) << (n - k)
        high *= a + k * d
    return Poly._of(nums, (d ** n * math.factorial(n)) << n)


@lru_cache(maxsize=None, typed=True)
def laguerre_polynomial(m: int, a: RationalLike) -> Poly:
    """Laguerre polynomial L_m^(a) from the terminating series

        L_m^(a) = sum_i (-1)^i (a + i + 1)_(m-i) x^i / ((m-i)! i!),

    which for a = u/v has the integer numerators (-1)^i C(m, i) v^i
    prod_(i<j<=m) (u + j v) over v^m m!.

    The parameter may be any rational (it is generically non-integer here),
    including negative values, where the series still terminates.
    """
    if m < 0:
        raise ValueError("laguerre_polynomial needs m >= 0")
    a = as_fraction(a)
    u, v = a.numerator, a.denominator
    nums = [0] * (m + 1)
    high, c = 1, (-v) ** m      # prod_(i<j<=m) (u + j v), (-1)^i C(m, i) v^i
    for i in range(m, -1, -1):
        nums[i] = c * high
        high *= u + i * v
        c = -c * i // ((m - i + 1) * v)
    return Poly._of(nums, v ** m * math.factorial(m))


def weight_pole(alpha: Fraction, beta: Fraction) -> Fraction:
    """Location b = (beta + alpha) / (beta - alpha) of the algebraic pole of the
    deformed weight (1-x)^alpha (1+x)^beta / (x-b)^2.

    For beta > alpha > 0 this sits strictly to the right of the orthogonality
    interval [-1, 1].
    """
    if alpha == beta:
        raise ParameterDomainError(
            "alpha == beta leaves the weight-pole location b = "
            "(beta+alpha)/(beta-alpha) undefined (zero denominator)")
    return (beta + alpha) / (beta - alpha)


def secondary_root(alpha: Fraction, beta: Fraction) -> Fraction:
    """The point c = b + 2/(beta - alpha) = (alpha + beta + 2)/(beta - alpha).

    This is the root of the degree-1 member of the deformed family, and the
    zero of the derived forward intertwiner's order-0 coefficient.
    """
    return weight_pole(alpha, beta) + Fraction(2) / (beta - alpha)


@lru_cache(maxsize=None, typed=True)
def exceptional_jacobi_closed_form(n: int, alpha: RationalLike,
                                   beta: RationalLike) -> Poly:
    """Closed-form combination defining the degree-n member of the deformed
    family from two classical Jacobi polynomials:

        -1/2 (x - b) P_{n-1} + [b P_{n-1} - P_{n-2}] / (2n - 2 + alpha + beta)

    with the convention P_{-1} = 0 for n = 1.  The family starts at degree 1;
    there is no degree-0 member.
    """
    if n < 1:
        raise ValueError("the deformed family starts at degree 1")
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    b = weight_pole(alpha, beta)
    p1 = jacobi_polynomial(n - 1, alpha, beta)
    p2 = jacobi_polynomial(n - 2, alpha, beta) if n >= 2 else Poly.zero()
    out = Poly((b, -1)) * p1 * Fraction(1, 2)
    out = out + (p1 * b - p2) * (Fraction(1) / (2 * n - 2 + alpha + beta))
    return out
