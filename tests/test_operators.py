"""Rational-function and differential-operator algebra."""

from fractions import Fraction

import pytest

from xsuperint.operators import DiffOp, RatFunc
from xsuperint.polynomials import Poly


def test_ratfunc_reduction_and_monic_denominator():
    f = RatFunc(Poly((0, 2)), Poly((0, 0, 4)))     # 2x / 4x^2
    assert f.num == Poly.constant(Fraction(1, 2))
    assert f.den == Poly((0, 1))
    g = RatFunc(Poly((1, 1)) * Poly((2, 1)), Poly((1, 1)))
    assert g.is_polynomial()
    assert g.as_poly() == Poly((2, 1))


def test_ratfunc_arithmetic():
    x = RatFunc.x()
    one = RatFunc.one()
    f = one / (x - one)
    g = one / (x + one)
    s = f + g
    # 1/(x-1) + 1/(x+1) = 2x / (x^2 - 1)
    assert s == RatFunc(Poly((0, 2)), Poly((-1, 0, 1)))
    assert (f * g).den == Poly((-1, 0, 1))
    assert (f - f).is_zero()


def test_ratfunc_derivative_quotient_rule():
    f = RatFunc(Poly((0, 0, 1)), Poly((1, 1)))     # x^2/(x+1)
    d = f.derivative()
    # (x^2 + 2x) / (x+1)^2
    assert d == RatFunc(Poly((0, 2, 1)), Poly((1, 2, 1)))


def test_ratfunc_evaluate():
    f = RatFunc(Poly((1, 1)), Poly((-2, 1)))
    assert f.evaluate(Fraction(3)) == 4
    with pytest.raises(ZeroDivisionError):
        f.evaluate(Fraction(2))


def test_diffop_apply_and_compose():
    d = DiffOp.d()
    x = DiffOp((RatFunc(Poly((0, 1))),))           # multiplication by x
    p = Poly((1, 0, 3))                             # 3x^2 + 1
    # (d . x) p = p + x p'
    composed = d * x
    expected = p + Poly((0, 1)) * p.derivative()
    assert composed.apply_poly(p).as_poly() == expected


def test_commutator_d_x_is_identity():
    d = DiffOp.d()
    x = DiffOp((RatFunc(Poly((0, 1))),))
    comm = d.commutator(x)
    for p in (Poly((1, 2, 3)), Poly((0, 0, 0, 5))):
        assert comm.apply_poly(p).as_poly() == p


def test_diffop_power_and_order():
    d2 = DiffOp.d() ** 2
    assert d2.order == 2
    assert d2.apply_poly(Poly((0, 0, 0, 1))).as_poly() == Poly((0, 6))


def test_gauge_conjugate_moves_gauge_factor():
    """A_g = G A G^{-1} so A_g (G p) = G (A p); with G = (x-1)^2 both sides
    stay rational and can be compared exactly."""
    op = DiffOp.d() * DiffOp.d() + DiffOp((RatFunc(Poly((5,))),))
    logderiv = RatFunc(Poly((2,)), Poly((-1, 1)))   # G'/G for G = (x-1)^2
    conj = op.gauge_conjugate(logderiv)
    gauge = RatFunc(Poly((1, -2, 1)))
    for p in (Poly((1, 1)), Poly((2, 0, 1)), Poly((0, 1, 0, 1))):
        lhs = conj.apply_ratfunc(gauge * RatFunc.of(p))
        rhs = gauge * op.apply_poly(p)
        assert lhs == rhs


def test_gauge_conjugate_round_trip():
    op = DiffOp.d() * DiffOp((RatFunc(Poly((0, 1))),)) + DiffOp.identity()
    ld = RatFunc(Poly((1,)), Poly((0, 1)))
    assert op.gauge_conjugate(ld).gauge_conjugate(-ld) == op


def test_apply_expect_poly_raises_on_pole():
    op = DiffOp((RatFunc(Poly.one(), Poly((0, 1))),))   # multiply by 1/x
    from xsuperint.errors import VerificationError
    with pytest.raises(VerificationError):
        op.apply_expect_poly(Poly((1, 1)))
    # but x * (1/x) is fine
    assert op.apply_expect_poly(Poly((0, 1))) == Poly.one()


def test_premultiply_and_scalar_multiplication():
    d = DiffOp.d()
    scaled = d * Fraction(3, 2)
    p = Poly((0, 0, 1))
    assert scaled.apply_poly(p).as_poly() == Poly((0, 3))
    pre = d.premultiply(RatFunc(Poly((0, 1))))
    assert pre.apply_poly(p).as_poly() == Poly((0, 0, 2))


def test_pretty_output():
    text = DiffOp((RatFunc(Poly((1,))), RatFunc(Poly((0, 1))))).pretty()
    assert "D" in text and "x" in text


def test_cleared_over_mixed_denominators():
    xm1, xp1 = Poly((-1, 1)), Poly((1, 1))
    op = DiffOp((RatFunc(Poly.one(), xm1),                 # 1/(x-1)
                 RatFunc(Poly((0, 2)), xp1 ** 2),          # 2x/(x+1)^2
                 RatFunc(Poly((3,)), xm1 * xp1)))          # 3/((x-1)(x+1))
    den, nums = op.cleared()
    assert den == xm1 * xp1 ** 2
    assert nums == [xp1 ** 2, Poly((0, 2)) * xm1, Poly((3,)) * xp1]
    assert DiffOp.identity().cleared() == (Poly.one(), [Poly.one()])
