"""Exact polynomial layer: arithmetic, classical families, and the deformed
closed-form family.  The integer-numerator `Poly` is checked against
`ReferencePoly`, a plain Fraction-coefficient polynomial kept here as the
oracle, and the integer-built families against `reference_jacobi` (the
three-term recurrence) and `reference_laguerre` (the series in Fractions)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, eval_laguerre

from xsuperint.errors import ParameterDomainError
from xsuperint.params import ModelParams, QuantumState
from xsuperint.polynomials import (
    Poly,
    as_fraction,
    WITNESS_DIGITS,
    divide_root,
    exact_text,
    exceptional_jacobi_closed_form,
    jacobi_polynomial,
    lagrange_basis,
    lagrange_fit,
    laguerre_polynomial,
    pochhammer,
    secondary_root,
    times_roots,
    weight_pole,
)
from xsuperint.spectral import _polyval


def test_as_fraction_parsing():
    assert as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(-7, 3)) == Fraction(-7, 3)
    with pytest.raises(ValueError):
        as_fraction("not a number")


def binomial_rational(z: Fraction, j: int) -> Fraction:
    """Generalized binomial C(z, j) = z (z-1) ... (z-j+1) / j! for rational z."""
    if j < 0:
        raise ValueError("binomial needs j >= 0")
    return pochhammer(z - j + 1, j) / math.factorial(j)


def reference_jacobi(n, alpha, beta):
    """Jacobi P_n^(alpha, beta) from the three-term recurrence in Fractions;
    it divides by 2j (j + alpha + beta) (2j + alpha + beta - 2), so it raises
    ZeroDivisionError at some negative parameters."""
    alpha, beta = as_fraction(alpha), as_fraction(beta)
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
        p_prev, p_cur = p_cur, p_next * (1 / c0)
    return p_cur


def reference_laguerre(m, a):
    """Laguerre L_m^(a) from the terminating series, coefficient by
    coefficient in Fractions."""
    a = as_fraction(a)
    coeffs = []
    for i in range(m + 1):
        c = binomial_rational(m + a, m - i) / math.factorial(i)
        coeffs.append(-c if i % 2 else c)
    return Poly(coeffs)


def test_pochhammer_and_binomial():
    # (3)_4 = 3*4*5*6
    assert pochhammer(Fraction(3), 4) == 360
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(Fraction(2), 0) == 1
    assert binomial_rational(Fraction(7, 2), 2) == Fraction(7, 2) * Fraction(5, 2) / 2


def test_poly_arithmetic():
    x = Poly.x()
    square = (x + Poly.one()) * (x + Poly.one())
    assert square == Poly((1, 2, 1))
    assert square.derivative() == Poly((2, 2))
    cube = (x - Poly.constant(2)) ** 3
    assert cube.evaluate(Fraction(2)) == 0
    assert cube.degree == 3
    assert (cube - cube).degree == -1
    assert (cube - cube).is_zero()


def test_poly_reflect_and_monic():
    p = Poly((1, -2, 3))
    assert p.reflect() == Poly((1, 2, 3))
    m = Poly((4, 0, 2)).monic()
    assert m == Poly((2, 0, 1))


def test_proportionality():
    p = Poly((2, 4))
    assert p.proportionality(Poly((1, 2))) == 2
    assert p.proportionality(Poly((1, 3))) is None
    assert Poly.zero().proportionality(p) == 0
    # proportionality to the zero polynomial is only defined for zero itself
    assert p.proportionality(Poly.zero()) is None


def test_pretty_printing():
    assert Poly((Fraction(3, 2), Fraction(-1, 2))).pretty() == "-1/2*x + 3/2"
    assert Poly((0, 0, 1)).pretty() == "x^2"
    assert Poly.zero().pretty() == "0"
    assert repr(Poly((Fraction(-1, 2), 0, 1))) == "Poly(x^2 - 1/2)"


@pytest.mark.parametrize("call,text", [
    (lambda: pochhammer(Fraction(1, 2), -1), "j >= 0"),
    (lambda: Poly((1, 1)) ** -1, "negative power"),
    (lambda: Poly.zero().monic(), "cannot be made monic"),
    (lambda: lagrange_basis([Fraction(1), Fraction(2), Fraction(1)]),
     "must be distinct"),
    (lambda: jacobi_polynomial(-1, 1, 3), "n >= 0"),
    (lambda: laguerre_polynomial(-1, 1), "m >= 0"),
    (lambda: exceptional_jacobi_closed_form(0, 1, 3), "starts at degree 1"),
], ids=["pochhammer", "power", "monic", "lagrange", "jacobi", "laguerre",
        "closed-form"])
def test_argument_guards_raise(call, text):
    with pytest.raises(ValueError, match=text):
        call()


def test_jacobi_against_scipy():
    for n in range(6):
        p = jacobi_polynomial(n, Fraction(2), Fraction(2))
        for t in (-0.7, 0.0, 0.31, 0.95):
            exact = float(p.evaluate(Fraction(t)))     # t's binary value
            assert abs(exact - eval_jacobi(n, 2.0, 2.0, t)) < 1e-12


#: rational parameters, negatives and negative integers included
PARAMETERS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(-15, 3).map(Fraction),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                 max_denominator=10 ** 6))


# max_examples comes from the settings profile (see conftest.py)
@settings(deadline=None)
@given(st.integers(0, 12), PARAMETERS, PARAMETERS)
def test_jacobi_matches_the_reference(n, alpha, beta):
    p = jacobi_polynomial(n, alpha, beta)
    try:
        ref = reference_jacobi(n, alpha, beta)
    except ZeroDivisionError:       # the integer series has no such pole
        assert isinstance(p, Poly) and p.degree <= n
        return
    assert (p.nums, p.den) == (ref.nums, ref.den)


@settings(deadline=None)
@given(st.integers(0, 12), PARAMETERS)
def test_laguerre_matches_the_reference(m, a):
    p, ref = laguerre_polynomial(m, a), reference_laguerre(m, a)
    assert (p.nums, p.den) == (ref.nums, ref.den)


def test_jacobi_where_the_recurrence_divides_by_zero():
    # at alpha + beta = -2 the recurrence's 2j (j + s) (2j + s - 2) vanishes
    # at j = 2; the series still gives P_2, with P_2(1) = (alpha + 1)_2 / 2!
    with pytest.raises(ZeroDivisionError):
        reference_jacobi(2, Fraction(-3), Fraction(1))
    p = jacobi_polynomial(2, Fraction(-3), Fraction(1))
    assert p.evaluate(1) == pochhammer(Fraction(-2), 2) / 2


def test_constants_are_shared():
    assert Poly.zero() is Poly.zero() and Poly.zero() == Poly(())
    assert Poly.one() is Poly.one() and Poly.one() == Poly((1,))
    assert Poly.x() is Poly.x() and Poly.x() == Poly((0, 1))
    for c in (0, 3, -7, Fraction(-5, 6), "4/10"):
        assert Poly.constant(c) == Poly((c,))
    with pytest.raises(TypeError):
        Poly.constant(0.5)


def test_laguerre_against_scipy():
    # scipy's eval_laguerre is the a = 0 case; exact small-n identity besides
    for n in range(6):
        p = laguerre_polynomial(n, Fraction(0))
        for t in (0.1, 1.0, 4.5):
            exact = float(p.evaluate(Fraction(t)))
            assert abs(exact - eval_laguerre(n, t)) < 1e-12
    l2 = laguerre_polynomial(2, Fraction(5))
    # L_2^(5)(y) = y^2/2 - 7 y + 21
    assert l2 == Poly((21, -7, Fraction(1, 2)))


def test_weight_pole_and_secondary_root():
    assert weight_pole(Fraction(1), Fraction(3)) == 2
    assert secondary_root(Fraction(1), Fraction(3)) == 3
    with pytest.raises(ParameterDomainError):
        weight_pole(Fraction(2), Fraction(2))


def test_model_params_reject_non_finite_omega():
    with pytest.raises(ParameterDomainError):
        ModelParams(1, 3, omega=math.inf)
    # omega^2 must be a finite normal float: subnormal below, inf above
    for omega in (1e-160, 1e155):
        with pytest.raises(ParameterDomainError, match="omega"):
            ModelParams(1, 3, omega=omega)
    for omega in (1e-150, 1e150):
        assert ModelParams(1, 3, omega=omega).omega == omega


def test_quantum_state_rejects_a_negative_radial_index():
    with pytest.raises(ParameterDomainError,
                       match=r"radial index m must be >= 0 \(got -1\)"):
        QuantumState(-1, 1)


def test_closed_form_family_small_members():
    phat1 = exceptional_jacobi_closed_form(1, Fraction(1), Fraction(3))
    assert phat1 == Poly((Fraction(3, 2), Fraction(-1, 2)))
    phat2 = exceptional_jacobi_closed_form(2, Fraction(1), Fraction(3))
    assert phat2.degree == 2
    # recurrence consistency at n = 2, b = 2:
    #   1/2 (b - x) P_1 + [b P_1 - P_0] / (2n - 2 + alpha + beta)
    p0, p1 = Poly.one(), jacobi_polynomial(1, Fraction(1), Fraction(3))
    rebuilt = (Poly((2, -1)) * p1 * Fraction(1, 2)
               + (p1 * 2 - p0) * Fraction(1, 6))
    assert phat2 == rebuilt


@pytest.mark.parametrize("alpha,beta", [(Fraction(1), Fraction(3)),
                                        (Fraction(1, 2), Fraction(5, 2))])
def test_closed_form_leading_coefficient(alpha, beta):
    # leading coefficient is -(n+alpha+beta)_(n-1) / (2^n (n-1)!)
    import math
    for n in range(1, 7):
        p = exceptional_jacobi_closed_form(n, alpha, beta)
        expected = -pochhammer(n + alpha + beta, n - 1) / (
            Fraction(2) ** n * math.factorial(n - 1))
        assert p.coeff(n) == expected
        assert p.degree == n


def lagrange_interpolate(points):
    """Exact Lagrange interpolation through distinct rational nodes."""
    basis = lagrange_basis([as_fraction(x) for x, _ in points])
    return lagrange_fit(basis, [as_fraction(y) for _, y in points])


def test_lagrange_interpolation_roundtrip():
    pts = [(Fraction(i), Fraction(i) ** 3 - 2) for i in range(-2, 3)]
    p = lagrange_interpolate(pts)
    assert p == Poly((-2, 0, 0, 1))



class ReferencePoly:
    """Dense polynomial with Fraction coefficients, coeffs[i] of x**i and
    trailing zeros trimmed: the oracle for `Poly`."""

    def __init__(self, coeffs=()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ReferencePoly(out)

    def __neg__(self):
        return ReferencePoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ReferencePoly):
            if not self.coeffs or not other.coeffs:
                return ReferencePoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return ReferencePoly(out)
        return ReferencePoly(as_fraction(other) * a for a in self.coeffs)

    def __pow__(self, n):
        out = ReferencePoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def derivative(self):
        return ReferencePoly(i * c for i, c in enumerate(self.coeffs) if i)

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reflect(self):
        return ReferencePoly(c if i % 2 == 0 else -c
                             for i, c in enumerate(self.coeffs))

    def monic(self):
        return ReferencePoly(c / self.coeffs[-1] for c in self.coeffs)

    def proportionality(self, other):
        if not self.coeffs:
            return Fraction(0)
        if not other.coeffs or len(self.coeffs) != len(other.coeffs):
            return None
        c = self.coeffs[-1] / other.coeffs[-1]
        return c if self.coeffs == (other * c).coeffs else None

    def divide_root(self, r):
        """Synthetic division by (x - r): the quotient and the remainder."""
        quot = [Fraction(0)] * (len(self.coeffs) - 1)
        acc = self.coeffs[-1]
        for i in range(len(self.coeffs) - 2, -1, -1):
            quot[i] = acc
            acc = self.coeffs[i] + r * acc
        return ReferencePoly(quot), acc


RATIONALS = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(max_denominator=10 ** 12).filter(lambda c: abs(c) < 10 ** 12))
COEFFS = st.lists(RATIONALS, max_size=7)
ROOTS = st.fractions(min_value=-3, max_value=3, max_denominator=7)


def both(coeffs):
    return Poly(coeffs), ReferencePoly(coeffs)


def agree(p, ref):
    return p.coeffs == ref.coeffs


@settings(max_examples=100, deadline=None)
@given(COEFFS, COEFFS, RATIONALS, st.integers(-9, 9), st.integers(0, 4))
def test_arithmetic_matches_the_fraction_oracle(a, b, c, k, n):
    (p, rp), (q, rq) = both(a), both(b)
    assert agree(p + q, rp + rq)
    assert agree(p - q, rp - rq)
    assert agree(p * q, rp * rq)
    assert agree(p * c, rp * c) and agree(c * p, rp * c)
    assert agree(p * k, rp * k) and agree(k * p, rp * k)
    assert agree(p ** n, rp ** n)
    assert agree(p.derivative(), rp.derivative())
    assert agree(p.reflect(), rp.reflect())
    if rp.coeffs:
        assert agree(p.monic(), rp.monic())
    assert p.proportionality(q) == rp.proportionality(rq)
    assert (p * c).proportionality(p) == (rp * c).proportionality(rp)


@settings(max_examples=100, deadline=None)
@given(COEFFS, ROOTS, st.integers(0, 3), ROOTS)
def test_root_division_matches_the_fraction_oracle(a, r, m, s):
    base = ReferencePoly(a + [1]) * ReferencePoly((-s, 1))
    built = base * ReferencePoly((-r, 1)) ** m
    p = Poly(built.coeffs)
    assert agree(times_roots(Poly(base.coeffs), {r: m}), built)
    quot, k = divide_root(p, r, most=m + 2)
    expected, times = built, 0
    while times < m + 2:
        q, rem = expected.divide_root(r)
        if rem:
            break
        expected, times = q, times + 1
    assert k == times >= m and agree(quot, expected)
    q, k = divide_root(p, r, most=0)
    assert k == 0 and q == p
    for t in (s, r + 1, r - Fraction(1, 3)):       # one-step division anywhere
        q, rem = built.divide_root(t)
        quot, k = divide_root(p, t)
        assert (k == 1) == (rem == 0)
        assert agree(quot, q if k else built)


@settings(max_examples=100, deadline=None)
@given(COEFFS, RATIONALS, st.integers(-5, 5))
def test_evaluate_matches_the_fraction_oracle(a, x, k):
    p, rp = both(a)
    assert p.evaluate(x) == rp.evaluate(x)
    assert p.evaluate(k) == rp.evaluate(Fraction(k))
    assert isinstance(p.evaluate(x), Fraction)
    t = np.array([-2.5, -1.0, -0.25, 0.0, 0.5, 1.0, 3.0, float(x)])
    want = np.polynomial.polynomial.polyval(
        t, np.array([float(c) for c in rp.coeffs] or [0.0]))
    assert _polyval(p, t).tobytes() == want.tobytes()


def canonical(p):
    return (p.den > 0 and math.gcd(p.den, *p.nums) == 1
            and (not p.nums or p.nums[-1] != 0)
            and all(isinstance(n, int) for n in p.nums + (p.den,)))


@settings(max_examples=100, deadline=None)
@given(COEFFS, COEFFS, RATIONALS.filter(bool), ROOTS)
def test_canonical_form_makes_equality_structural(a, b, c, r):
    p, q = Poly(a), Poly(b)
    results = [p, q, p + q, p - q, p * q, p * c, p.derivative(), p.reflect(),
               times_roots(p, {r: 2}), Poly(p.coeffs)]
    if not p.is_zero():
        results += [p.monic(), divide_root(times_roots(p, {r: 1}), r)[0]]
    assert all(canonical(x) for x in results)
    # the same polynomial reached different ways is == and hashes alike
    for same in (Poly(p.coeffs), (p + q) - q, (p * c) * (1 / c),
                 p.reflect().reflect(), -(-p)):
        assert same == p and hash(same) == hash(p)
    if not p.is_zero():
        rebuilt = divide_root(times_roots(p, {r: 2}), r, most=2)[0]
        assert rebuilt == p and hash(rebuilt) == hash(p)


def test_canonical_form_examples():
    p = Poly((Fraction(1, 2), Fraction(-1, 3), 0, 0))
    assert (p.nums, p.den) == ((3, -2), 6)
    assert Poly((Fraction(-4, 6), "2/3")).monic() == Poly((-1, 1))
    assert (Poly((4, 6)).nums, Poly((4, 6)).den) == ((4, 6), 1)
    assert Poly.zero().nums == () and Poly.zero().den == 1
    assert Poly((0, 0)) == Poly.zero() and Poly.zero().degree == -1
    assert (Poly((1, 2)) * Fraction(-3, 4)).den == 4


@pytest.mark.parametrize("digits", [1, 2, WITNESS_DIGITS - 1, WITNESS_DIGITS,
                                    WITNESS_DIGITS + 1, 5000, 10 ** 5])
def test_exact_text_names_a_long_integer_by_its_digits(digits):
    # str() of an int past 4,300 digits raises; the witness names its length
    text = (str if digits <= WITNESS_DIGITS
            else lambda n: f"(a {digits}-digit integer)")
    for n in (10 ** (digits - 1), 10 ** digits - 1):
        assert exact_text(n) == text(n)
        assert exact_text(-n) == "-" + text(n)
    assert exact_text(Fraction(-2, 10 ** digits - 1)) == (
        "-2/" + text(10 ** digits - 1))
    assert exact_text(Fraction(10 ** 5000 + 1, 7)) == (
        "(a 5001-digit integer)/7")
    assert (Poly((10 ** 5000, 1)).pretty()
            == "x + (a 5001-digit integer)")
