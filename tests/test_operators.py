"""Rational-function and differential-operator algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsuperint.operators import DiffOp, RatFunc
from xsuperint.polynomials import Poly


def test_ratfunc_reduction_and_monic_denominator():
    f = RatFunc(Poly((0, Fraction(1, 2))), {0: 2})   # (x/2) / x^2
    assert f.num == Poly.constant(Fraction(1, 2))
    assert f.den == Poly((0, 1))
    g = RatFunc(Poly((1, 1)) * Poly((2, 1)), {-1: 1})
    assert g.is_polynomial()
    assert g.as_poly() == Poly((2, 1))


def test_ratfunc_arithmetic():
    f = RatFunc(1, {1: 1})
    g = RatFunc(1, {-1: 1})
    s = f + g
    # 1/(x-1) + 1/(x+1) = 2x / (x^2 - 1)
    assert s == RatFunc(Poly((0, 2)), {1: 1, -1: 1})
    assert (f * g).den == Poly((-1, 0, 1))
    assert (f - f).is_zero()


def test_ratfunc_derivative_quotient_rule():
    f = RatFunc(Poly((0, 0, 1)), {-1: 1})      # x^2/(x+1)
    d = f.derivative()
    # (x^2 + 2x) / (x+1)^2
    assert d == RatFunc(Poly((0, 2, 1)), {-1: 2})


def test_ratfunc_evaluate():
    f = RatFunc(Poly((1, 1)), {2: 1})
    assert f.evaluate(Fraction(3)) == 4
    with pytest.raises(ZeroDivisionError):
        f.evaluate(Fraction(2))


def test_ratfunc_cancellations_and_rests():
    xm1 = Poly((-1, 1))
    f = RatFunc(xm1 ** 2, {1: 3})                          # 1/(x-1)
    assert f == RatFunc(1, {1: 1}) and f.poles == {Fraction(1): 1}
    assert f * RatFunc(xm1) == RatFunc.one()
    assert RatFunc(Poly.x(), {1: 1}) - f == RatFunc.one()  # (x-1)/(x-1)
    vanishing = f + RatFunc(1, {-1: 1}) - RatFunc(Poly((0, 2)), {1: 1, -1: 1})
    assert vanishing.is_zero() and vanishing.is_polynomial()
    assert vanishing == RatFunc.zero() and hash(vanishing) == hash(RatFunc.zero())
    assert RatFunc(xm1, {1: 0, 2: 0}) == RatFunc(xm1) and RatFunc(0, {1: 2}).poles == {}
    with pytest.raises(ValueError):
        RatFunc(1, {1: -1})


# Denominators as the package builds them, prod (x - r)^m with m <= 3, over
# numerators that may share those factors.
ROOTS = st.fractions(min_value=-2, max_value=2, max_denominator=3)
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def fractions_of_polys(draw) -> tuple[Poly, dict]:
    """An unreduced (num, poles) pair."""
    poles = draw(st.dictionaries(ROOTS, st.integers(1, 3), max_size=3))
    num = Poly(draw(st.lists(SMALL, max_size=4)))
    for r, m in poles.items():
        num = num * Poly((-r, 1)) ** draw(st.integers(0, m + 1))
    return num, poles


def _den(poles: dict) -> Poly:
    """prod (x - r)^m, expanded independently of `RatFunc.den`."""
    out = Poly.one()
    for r, m in poles.items():
        out = out * Poly((-r, 1)) ** m
    return out


def _sum(a: dict, b: dict) -> dict:
    """The pole map of the product of two denominators."""
    return {r: a.get(r, 0) + b.get(r, 0) for r in a.keys() | b.keys()}


def _assert_reduced_form(f: RatFunc, num: Poly, poles: dict) -> None:
    """f is num / prod (x - r)^m in lowest terms, and equal, with the same
    hash, to the RatFunc built from the unreduced pair."""
    assert f.num * _den(poles) == num * _den(f.poles)
    assert all(f.num.evaluate(r) != 0 for r in f.poles)
    assert all(m >= 1 for m in f.poles.values())
    built = RatFunc(num, poles)
    assert f == built and hash(f) == hash(built)


@settings(max_examples=60, deadline=None)
@given(fractions_of_polys(), fractions_of_polys())
def test_ratfunc_arithmetic_matches_cross_multiplication(a, b):
    (n1, p1), (n2, p2) = a, b
    d1, d2 = _den(p1), _den(p2)
    f, g = RatFunc(n1, p1), RatFunc(n2, p2)
    _assert_reduced_form(f, n1, p1)
    _assert_reduced_form(f + g, n1 * d2 + n2 * d1, _sum(p1, p2))
    _assert_reduced_form(f - g, n1 * d2 - n2 * d1, _sum(p1, p2))
    _assert_reduced_form(f * g, n1 * n2, _sum(p1, p2))
    _assert_reduced_form(f.derivative(),
                         n1.derivative() * d1 - n1 * d1.derivative(), _sum(p1, p1))
    _assert_reduced_form(-f, -n1, p1)
    _assert_reduced_form((f + g) - g, n1, p1)       # g's poles cancel again


@settings(max_examples=60, deadline=None)
@given(fractions_of_polys(), st.lists(SMALL, min_size=1, max_size=5))
def test_ratfunc_evaluate_off_the_poles(a, points):
    num, poles = a
    f, den = RatFunc(num, poles), _den(poles)
    for t in points:
        if den.evaluate(t):
            assert f.evaluate(t) == num.evaluate(t) / den.evaluate(t)


def _vanishing_order(p: Poly, r: Fraction) -> int:
    """How many derivatives of the nonzero p vanish at r."""
    order = 0
    while p.evaluate(r) == 0:
        p, order = p.derivative(), order + 1
    return order


@settings(max_examples=60, deadline=None)
@given(st.lists(fractions_of_polys(), min_size=1, max_size=4))
def test_cleared_is_the_least_common_denominator(pairs):
    op = DiffOp(RatFunc(num, poles) for num, poles in pairs)
    pairs = pairs[:len(op.coeffs)]
    largest: dict = {}
    for num, poles in pairs:
        for r, m in poles.items():
            if not num.is_zero() and m > _vanishing_order(num, r):
                m -= _vanishing_order(num, r)
                largest[r] = max(largest.get(r, 0), m)
    den, nums = op.cleared()
    assert den == _den(largest)
    assert len(nums) == len(pairs)
    for cleared, (num, poles) in zip(nums, pairs):
        assert cleared * _den(poles) == num * den


D = DiffOp((0, 1))                                  # d/dx
X = DiffOp((Poly.x(),))                             # multiplication by x


def test_diffop_apply_and_compose():
    p = Poly((1, 0, 3))                             # 3x^2 + 1
    # (d . x) p = p + x p' (the Leibniz rule)
    composed = D.compose(X)
    expected = p + Poly((0, 1)) * p.derivative()
    assert composed.apply_poly(p).as_poly() == expected


def test_commutator_d_x_is_identity():
    comm = D.compose(X) - X.compose(D)
    assert comm == DiffOp.identity()
    for p in (Poly((1, 2, 3)), Poly((0, 0, 0, 5))):
        assert comm.apply_poly(p).as_poly() == p


def test_diffop_power_and_order():
    d2 = D.compose(D)
    assert len(d2.coeffs) - 1 == 2                  # the order
    assert d2.apply_poly(Poly((0, 0, 0, 1))).as_poly() == Poly((0, 6))


def test_gauge_conjugate_moves_gauge_factor():
    """A_g = G A G^{-1} so A_g (G p) = G (A p); with G = (x-1)^2 both sides
    stay rational and can be compared exactly."""
    op = D.compose(D) + DiffOp((RatFunc(Poly((5,))),))
    logderiv = RatFunc(2, {1: 1})                    # G'/G for G = (x-1)^2
    conj = op.gauge_conjugate(logderiv)
    gauge = RatFunc(Poly((1, -2, 1)))
    for p in (Poly((1, 1)), Poly((2, 0, 1)), Poly((0, 1, 0, 1))):
        lhs = conj.apply_ratfunc(gauge * RatFunc.of(p))
        rhs = gauge * op.apply_poly(p)
        assert lhs == rhs


def test_gauge_conjugate_round_trip():
    op = D.compose(X) + DiffOp.identity()
    ld = RatFunc(1, {0: 1})
    assert op.gauge_conjugate(ld).gauge_conjugate(-ld) == op


def test_premultiply_and_scalar_multiplication():
    scaled = D.premultiply(Fraction(3, 2))
    p = Poly((0, 0, 1))
    assert scaled.apply_poly(p).as_poly() == Poly((0, 3))
    pre = D.premultiply(RatFunc(Poly((0, 1))))
    assert pre.apply_poly(p).as_poly() == Poly((0, 0, 2))


def test_pretty_output():
    text = DiffOp((RatFunc(Poly((1,))), RatFunc(Poly((0, 1))))).pretty()
    assert "D" in text and "x" in text


def test_cleared_over_mixed_denominators():
    xm1, xp1 = Poly((-1, 1)), Poly((1, 1))
    op = DiffOp((RatFunc(1, {1: 1}),                       # 1/(x-1)
                 RatFunc(Poly((0, 2)), {-1: 2}),           # 2x/(x+1)^2
                 RatFunc(3, {1: 1, -1: 1})))               # 3/((x-1)(x+1))
    den, nums = op.cleared()
    assert den == xm1 * xp1 ** 2
    assert nums == [xp1 ** 2, Poly((0, 2)) * xm1, Poly((3,)) * xp1]
    assert DiffOp.identity().cleared() == (Poly.one(), [Poly.one()])
