"""Exact polynomial layer: arithmetic, classical families, and the deformed
closed-form family."""

import math
from fractions import Fraction

import pytest
from scipy.special import eval_jacobi, eval_laguerre

from xsuperint.errors import ParameterDomainError
from xsuperint.params import ModelParams
from xsuperint.polynomials import (
    Poly,
    as_fraction,
    binomial_rational,
    exceptional_jacobi_closed_form,
    jacobi_polynomial,
    lagrange_interpolate,
    laguerre_polynomial,
    pochhammer,
    secondary_root,
    weight_pole,
)


def test_as_fraction_parsing():
    assert as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(-7, 3)) == Fraction(-7, 3)
    with pytest.raises(ValueError):
        as_fraction("not a number")


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


def test_jacobi_against_scipy():
    for n in range(6):
        p = jacobi_polynomial(n, Fraction(2), Fraction(2))
        for t in (-0.7, 0.0, 0.31, 0.95):
            assert abs(p.evaluate(t) - eval_jacobi(n, 2.0, 2.0, t)) < 1e-12


def test_laguerre_against_scipy():
    # scipy's eval_laguerre is the a = 0 case; exact small-n identity besides
    for n in range(6):
        p = laguerre_polynomial(n, Fraction(0))
        for t in (0.1, 1.0, 4.5):
            assert abs(p.evaluate(t) - eval_laguerre(n, t)) < 1e-12
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


def test_lagrange_interpolation_roundtrip():
    pts = [(Fraction(i), Fraction(i) ** 3 - 2) for i in range(-2, 3)]
    p = lagrange_interpolate(pts)
    assert p == Poly((-2, 0, 0, 1))

