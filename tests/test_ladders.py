"""Ladder layer: classical Jacobi shifts, the intertwiner pair, deformed and
radial one-step ladders, fixed-energy composites, and the index-reflection
pairing of the chains."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsuperint import ladders
from xsuperint.errors import OutOfFamilyError, VerificationError
from xsuperint.ladders import (
    action_coefficient,
    claimed_deformed_lowering_action,
    claimed_deformed_raising_action,
    claimed_lowering_chain_action,
    claimed_raising_chain_action,
    claimed_raising_intertwiner_action,
    composite_lowering,
    composite_raising,
    deformed_lowering,
    deformed_lowering_action,
    deformed_lowering_chain,
    deformed_raising,
    deformed_raising_action,
    deformed_raising_chain,
    derive_lowering_intertwiner,
    derive_raising_intertwiner,
    jacobi_lowering,
    jacobi_lowering_action,
    jacobi_lowering_candidate,
    jacobi_raising,
    jacobi_raising_action,
    jacobi_raising_candidate,
    l1_commutator_report,
    lowering_intertwiner,
    lowering_intertwiner_action,
    lowering_intertwiner_candidate,
    parity_report,
    radial_eps,
    radial_family_image,
    radial_lowering,
    radial_lowering_action,
    radial_lowering_candidate,
    radial_lowering_chain,
    radial_raising,
    radial_raising_action,
    radial_raising_chain,
    radial_raising_chain_action,
    raising_intertwiner,
    raising_intertwiner_action,
    raising_intertwiner_candidate,
    shifted_jacobi,
)
from xsuperint.ladders import (LadderChain, _chain_value_table,
                               _solve_intertwiner)
from xsuperint.operators import DiffOp, RatFunc
from xsuperint.params import ModelParams, QuantumState, angular_eigenroot
from xsuperint.polynomials import (Poly, as_fraction,
                                   exceptional_jacobi_closed_form,
                                   jacobi_polynomial, laguerre_polynomial)

A13 = (Fraction(1), Fraction(3))
PAIRS = [A13, (Fraction(1, 2), Fraction(5, 2))]


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_jacobi_ladders_map_basis_to_basis(alpha, beta):
    for n in range(1, 6):
        low = jacobi_lowering(n, alpha, beta)
        coeff = action_coefficient(low, jacobi_polynomial(n, alpha, beta),
                                   jacobi_polynomial(n - 1, alpha, beta))
        assert coeff == jacobi_lowering_action(n, alpha, beta)
    for n in range(0, 5):
        high = jacobi_raising(n, alpha, beta)
        coeff = action_coefficient(high, jacobi_polynomial(n, alpha, beta),
                                   jacobi_polynomial(n + 1, alpha, beta))
        assert coeff == jacobi_raising_action(n, alpha, beta)


def test_jacobi_candidates_leave_the_family():
    # at the shifted parameters the candidates move degree correctly but the
    # image is not on the target line
    alpha, beta = Fraction(2), Fraction(2)
    for n in (1, 2, 3):
        with pytest.raises(VerificationError):
            action_coefficient(jacobi_lowering_candidate(n, alpha, beta),
                               jacobi_polynomial(n, alpha, beta),
                               jacobi_polynomial(n - 1, alpha, beta))
        with pytest.raises(VerificationError):
            action_coefficient(jacobi_raising_candidate(n, alpha, beta),
                               jacobi_polynomial(n, alpha, beta),
                               jacobi_polynomial(n + 1, alpha, beta))


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_intertwiner_actions(alpha, beta):
    fwd = raising_intertwiner(alpha, beta)
    back = lowering_intertwiner(alpha, beta)
    for n in range(0, 5):
        coeff = action_coefficient(
            fwd, shifted_jacobi(n, alpha, beta),
            exceptional_jacobi_closed_form(n + 1, alpha, beta))
        assert coeff == raising_intertwiner_action(n, alpha, beta)
    for n in range(1, 6):
        coeff = action_coefficient(
            back, exceptional_jacobi_closed_form(n, alpha, beta),
            shifted_jacobi(n - 1, alpha, beta))
        assert coeff == lowering_intertwiner_action(n, alpha, beta)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_derived_intertwiners_match_frozen_forms(alpha, beta):
    assert derive_raising_intertwiner(alpha, beta) == \
        raising_intertwiner(alpha, beta)
    assert derive_lowering_intertwiner(alpha, beta) == \
        lowering_intertwiner(alpha, beta)


@pytest.mark.parametrize("direction,pair,first,pole", [
    ("forward", (shifted_jacobi(0, *A13),
                 exceptional_jacobi_closed_form(1, *A13)), 2, {}),
    ("backward", (exceptional_jacobi_closed_form(1, *A13),
                  shifted_jacobi(0, *A13)), 1, {Fraction(2): 1}),
])
def test_intertwiner_ansatz_needs_enough_pairs(direction, pair, first, pole):
    # one (source, target) pair leaves the ansatz underdetermined
    with pytest.raises(VerificationError,
                       match=f"{direction}-intertwiner ansatz has nullspace"):
        _solve_intertwiner(direction, [pair], [], first, 1, pole)


def test_claimed_forward_action_is_index_dependent():
    alpha, beta = A13
    ratios = [claimed_raising_intertwiner_action(n, alpha, beta)
              / raising_intertwiner_action(n, alpha, beta)
              for n in range(4)]
    assert ratios == [0, Fraction(-1, 2), Fraction(-2, 3), Fraction(-3, 4)]


def test_forward_candidate_free_scalar():
    # alpha != 1: exactly one scalar makes the candidate intertwine, and that
    # choice reproduces the derived operator
    alpha, beta = Fraction(2), Fraction(7, 2)
    fixed = raising_intertwiner_candidate(alpha, beta, Fraction(2))
    assert fixed == raising_intertwiner(alpha, beta)
    broken = raising_intertwiner_candidate(alpha, beta, Fraction(1))
    with pytest.raises(VerificationError):
        action_coefficient(broken, shifted_jacobi(1, alpha, beta),
                           exceptional_jacobi_closed_form(2, alpha, beta))


def test_forward_candidate_degenerates_at_alpha_one():
    # the scalar multiplies (alpha - 1): at alpha = 1 the zeroth-order term is
    # gone for every choice and constants are annihilated instead of raised
    for t in (Fraction(0), Fraction(1), Fraction(-17, 3)):
        cand = raising_intertwiner_candidate(*A13, t)
        assert cand.apply_ratfunc(Poly.constant(1)).is_zero()


def test_backward_candidate_keeps_a_pole():
    alpha, beta = A13
    cand = lowering_intertwiner_candidate(alpha, beta)
    img = cand.apply_ratfunc(
        RatFunc.of(exceptional_jacobi_closed_form(2, alpha, beta)))
    assert img.den.degree >= 1
    assert img.den.evaluate(Fraction(-2)) == 0     # pole at x = -b


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_deformed_one_step_actions(alpha, beta):
    for n in range(1, 5):
        coeff = action_coefficient(
            deformed_raising(n, alpha, beta),
            exceptional_jacobi_closed_form(n, alpha, beta),
            exceptional_jacobi_closed_form(n + 1, alpha, beta))
        assert coeff == deformed_raising_action(n, alpha, beta)
    for n in range(2, 6):
        coeff = action_coefficient(
            deformed_lowering(n, alpha, beta),
            exceptional_jacobi_closed_form(n, alpha, beta),
            exceptional_jacobi_closed_form(n - 1, alpha, beta))
        assert coeff == deformed_lowering_action(n, alpha, beta)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_one_step_ladders_are_the_q1_chains(alpha, beta):
    for n in range(1, 4):
        assert deformed_raising(n, alpha, beta) == \
            deformed_raising_chain(n, 1, alpha, beta)
        assert deformed_lowering(n, alpha, beta) == \
            deformed_lowering_chain(n, 1, alpha, beta)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_deformed_lowering_annihilates_bottom(alpha, beta):
    img = deformed_lowering(1, alpha, beta).apply_ratfunc(
        exceptional_jacobi_closed_form(1, alpha, beta))
    assert img.is_zero()
    assert deformed_lowering_action(1, alpha, beta) == 0


def test_deformed_claims_are_global_sign_flips():
    alpha, beta = A13
    for n in range(1, 5):
        assert claimed_deformed_raising_action(n, alpha, beta) == \
            -deformed_raising_action(n, alpha, beta)
    for n in range(2, 6):
        assert claimed_deformed_lowering_action(n, alpha, beta) == \
            -deformed_lowering_action(n, alpha, beta)


def _one_step_product(classical_steps, alpha, beta):
    """The one-step deformed ladders F o c o B composed, first step acting
    first: the chain without the factorisation."""
    f = raising_intertwiner(alpha, beta)
    b = lowering_intertwiner(alpha, beta)
    out = DiffOp((1,))
    for c in classical_steps:
        out = f.compose(c).compose(b).compose(out)
    return out


def _assert_chains_equal_one_step_products(n, q, alpha, beta):
    """Both q-fold chains at index n against their composed products.  An
    order-3q operator is fixed by its images of 1, x, ..., x^(3q), so the
    chain and the product must agree on every x^j, j <= 3q + 1."""
    a1, b1 = alpha + 1, beta - 1
    for chain, product in (
            (deformed_raising_chain(n, q, alpha, beta), _one_step_product(
                [jacobi_raising(n - 1 + i, a1, b1) for i in range(q)],
                alpha, beta)),
            (deformed_lowering_chain(n, q, alpha, beta), _one_step_product(
                [jacobi_lowering(n - 1 - i, a1, b1) for i in range(q)],
                alpha, beta))):
        for j in range(3 * q + 2):
            assert chain.apply_ratfunc(Poly.x() ** j) == \
                product.apply_ratfunc(Poly.x() ** j), j


@pytest.mark.parametrize("alpha,beta", PAIRS + [(Fraction(1, 3),
                                                 Fraction(7, 4))])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_factorised_chains_equal_one_step_products(alpha, beta, q):
    # the formal index n = 7/2 that the parity report substitutes
    _assert_chains_equal_one_step_products(Fraction(7, 2), q, alpha, beta)


@settings(max_examples=10, deadline=None)
@given(alpha=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(5),
                          max_denominator=20),
       gap=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(20),
                        max_denominator=20),
       q=st.integers(min_value=1, max_value=4))
def test_chains_equal_one_step_products_across_the_domain(alpha, gap, q):
    _assert_chains_equal_one_step_products(Fraction(7, 2), q, alpha,
                                           alpha + gap)


@pytest.mark.parametrize("alpha,beta", [
    A13,                                   # alpha = 1
    (Fraction(2), Fraction(9, 4)),         # beta - alpha = 1/4
    (Fraction(1, 3), Fraction(50)),        # beta >> alpha
])
def test_backward_after_forward_intertwiner_is_polynomial(alpha, beta):
    middle = lowering_intertwiner(alpha, beta).compose(
        raising_intertwiner(alpha, beta))
    assert all(c.is_polynomial() for c in middle.coeffs)
    assert middle.coeffs[2] == RatFunc(Poly((-1, 0, 1)))
    # the shifted Jacobi operator plus a constant: diagonal on that family
    for n in range(4):
        action_coefficient(middle, shifted_jacobi(n, alpha, beta),
                           shifted_jacobi(n, alpha, beta))


def test_chain_table_rejects_a_foreign_denominator():
    stray = DiffOp((RatFunc(1, {-1: 1}),))                 # 1/(x+1)
    with pytest.raises(VerificationError):
        _chain_value_table([LadderChain((stray,))], Fraction(2))


def deformed_raising_chain_action(n, q: int, alpha, beta) -> Fraction:
    """The q-fold raising coefficient as the product of its one-steps."""
    out = Fraction(1)
    for i in range(q):
        out *= deformed_raising_action(Fraction(n) + i, alpha, beta)
    return out


def test_deformed_chains_compose():
    alpha, beta = Fraction(1, 2), Fraction(5, 2)
    q = 2
    for n in (1, 2, 3):
        coeff = action_coefficient(
            deformed_raising_chain(n, q, alpha, beta),
            exceptional_jacobi_closed_form(n, alpha, beta),
            exceptional_jacobi_closed_form(n + q, alpha, beta))
        assert coeff == deformed_raising_chain_action(n, q, alpha, beta)
        assert coeff == (deformed_raising_action(n, alpha, beta)
                         * deformed_raising_action(n + 1, alpha, beta))
        _assert_chains_equal_one_step_products(Fraction(n), q, alpha, beta)
    coeff = action_coefficient(
        deformed_lowering_chain(4, q, alpha, beta),
        exceptional_jacobi_closed_form(4, alpha, beta),
        exceptional_jacobi_closed_form(2, alpha, beta))
    assert coeff == (deformed_lowering_action(4, alpha, beta)
                     * deformed_lowering_action(3, alpha, beta))


def test_chain_claims_at_even_q_match():
    alpha, beta = A13
    # the one-step sign error cancels in pairs
    assert claimed_raising_chain_action(2, 2, alpha, beta) == \
        deformed_raising_chain_action(2, 2, alpha, beta)
    assert claimed_raising_chain_action(2, 3, alpha, beta) == \
        -deformed_raising_chain_action(2, 3, alpha, beta)
    assert claimed_lowering_chain_action(5, 2, alpha, beta) == \
        (deformed_lowering_action(5, alpha, beta)
         * deformed_lowering_action(4, alpha, beta))


def test_radial_one_step_actions():
    a = Fraction(5)       # k * A_1 at (1, 3), k = 1
    for m in (1, 2, 3):
        eps = radial_eps(m, a)
        img = radial_family_image(radial_lowering(a, eps), m, a, a + 2)
        want = laguerre_polynomial(m - 1, a + 2) * radial_lowering_action(m, a)
        assert img == RatFunc.of(want)
    for m in (0, 1, 2):
        eps = radial_eps(m, a)
        img = radial_family_image(radial_raising(a, eps), m, a, a - 2)
        want = laguerre_polynomial(m + 1, a - 2) * radial_raising_action(m, a)
        assert img == RatFunc.of(want)


def test_radial_lowering_annihilates_bottom():
    a = Fraction(15, 2)
    img = radial_family_image(radial_lowering(a, radial_eps(0, a)), 0, a, a + 2)
    assert img == RatFunc.of(Poly.constant(0))


def test_radial_candidate_witnesses():
    a = Fraction(5)
    eps = radial_eps(0, a)
    cand = radial_lowering_candidate(a, eps)
    # bottom state: -(1+a) times itself instead of zero
    img = radial_family_image(cand, 0, a, a)
    assert img == RatFunc.of(Poly.constant(-(1 + a)))
    # above the bottom the image is not even polynomial over the target gauge
    img = radial_family_image(radial_lowering_candidate(a, radial_eps(1, a)),
                              1, a, a + 2)
    assert img.den.degree >= 1


def radial_lowering_chain_action(m: int, a, p: int) -> Fraction:
    """(-1)^p when the chain stays in the family (m >= p); 0 once it hits the
    bottom."""
    return Fraction(0) if m < p else Fraction((-1) ** p)


def test_radial_chains():
    a = Fraction(5)
    p = 2
    m = 3
    eps = radial_eps(m, a)
    img = radial_family_image(radial_lowering_chain(a, eps, p), m, a, a + 2 * p)
    want = laguerre_polynomial(m - p, a + 2 * p) \
        * radial_lowering_chain_action(m, a, p)
    assert img == RatFunc.of(want)
    assert radial_lowering_chain_action(m, a, p) == 1       # (-1)^2
    assert radial_lowering_chain_action(1, a, p) == 0       # hits the bottom
    img = radial_family_image(radial_raising_chain(a, eps, p), m, a, a - 2 * p)
    want = laguerre_polynomial(m + p, a - 2 * p) \
        * radial_raising_chain_action(m, a, p)
    assert img == RatFunc.of(want)


def deformed_lowering_action_monic(n, alpha, beta) -> Fraction:
    """One-step lowering coefficient on the *monic* deformed family, a
    closed formula of its own: the oracle for the composite coefficients,
    which the package takes from the closed-form table instead."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    if n == 1:
        return Fraction(0)
    a_root = angular_eigenroot(n, alpha, beta)
    return (deformed_lowering_action(n, alpha, beta)
            * 2 * (n - 1) * (n + alpha + beta - 1)
            / ((a_root - 2) * (a_root - 1)))


def deformed_raising_action_monic(n, alpha, beta) -> Fraction:
    """One-step raising coefficient on the monic deformed family."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    a_root = angular_eigenroot(n, alpha, beta)
    return (n + alpha) * (n + beta) * a_root * (a_root + 1) / 2


def test_composite_steps_preserve_energy():
    params = ModelParams(*A13)       # p = q = 1, k = 1
    step = composite_raising(QuantumState(2, 1), params)
    assert step.target == QuantumState(1, 2)
    assert step.coefficient == -deformed_raising_action_monic(1, *A13)
    back = composite_lowering(QuantumState(1, 2), params)
    assert back.target == QuantumState(2, 1)
    assert back.energy == step.energy


def test_composite_out_of_family():
    params = ModelParams(*A13)
    with pytest.raises(OutOfFamilyError):
        composite_raising(QuantumState(0, 1), params)
    with pytest.raises(OutOfFamilyError):
        composite_lowering(QuantumState(0, 1), params)


def test_composite_coefficient_is_stepwise_product():
    params = ModelParams(Fraction(1), Fraction(3), p=3, q=2)   # k = 3/2
    state = QuantumState(4, 2)
    step = composite_raising(state, params)
    assert step.target == QuantumState(1, 4)
    expect = Fraction(-1) * deformed_raising_action_monic(2, *A13) \
        * deformed_raising_action_monic(3, *A13)
    assert step.coefficient == expect
    # the lowering composite at k = 3/2 and 2/3: the radial p-fold raising
    # coefficient times the monic one-step lowering coefficients
    for p, q in ((3, 2), (2, 3)):
        params = ModelParams(*A13, p=p, q=q)
        state = QuantumState(1, 5)
        step = composite_lowering(state, params)
        assert step.target == QuantumState(1 + p, 5 - q)
        a = params.k * angular_eigenroot(5, *A13)
        expect = radial_raising_chain_action(1, a, p)
        for i in range(q):
            expect *= deformed_lowering_action_monic(5 - i, *A13)
        assert expect != 0
        assert step.coefficient == expect


def commutator_gap(make, state, params):
    """Measured commutator coefficient of the composite `make` builds on
    `state` (None when its image leaves the family)."""
    return l1_commutator_report(make(state, params), params)[0]


def test_l1_noncommutation_reference_value():
    params = ModelParams(*A13)
    assert commutator_gap(composite_raising, QuantumState(1, 1),
                          params) == -2880


def test_l1_noncommutation_interior_sweep():
    params = ModelParams(Fraction(1, 2), Fraction(5, 2), p=2, q=1)
    # interior: raising needs m >= p, lowering needs n > q
    for m in (2, 3, 4):
        for n in (1, 2, 3):
            assert commutator_gap(composite_raising, QuantumState(m, n),
                                  params) not in (None, 0)
    for m in (0, 1, 2):
        for n in (2, 3, 4):
            assert commutator_gap(composite_lowering, QuantumState(m, n),
                                  params) not in (None, 0)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_chains_annihilate_the_bottom_of_each_tower(p, q):
    # the composites refuse these states; their chains map them to zero
    alpha, beta = A13
    a = Fraction(p, q) * angular_eigenroot(1, alpha, beta)
    radial = radial_lowering_chain(a, radial_eps(0, a), p)
    assert radial_family_image(radial, 0, a, a + 2 * p).is_zero()
    angular = deformed_lowering_chain(1, q, alpha, beta)
    assert angular.apply_ratfunc(
        exceptional_jacobi_closed_form(1, alpha, beta)).is_zero()
    params = ModelParams(alpha, beta, p=p, q=q)
    with pytest.raises(OutOfFamilyError):
        composite_raising(QuantumState(0, 1), params)
    with pytest.raises(OutOfFamilyError):
        composite_lowering(QuantumState(0, q), params)


@pytest.mark.parametrize("alpha,beta", PAIRS)
@pytest.mark.parametrize("p,q", [(1, 1), (2, 1)])
def test_parity_report_ok(alpha, beta, p, q):
    rep = parity_report(alpha, beta, p, q)
    assert rep.ok
    assert rep.negative_control_ok


def test_parity_report_builds_each_deformed_chain_once(monkeypatch,
                                                     compositions):
    # 2 * 8 tabulated one-step chains, the lowering chain at n = 7/2 and
    # 3 reflected raising chains; the direct-substitution check reuses the
    # tabulated lowering chains at n = 2 and 3, and nothing is composed
    calls = []
    for name in ("deformed_raising_chain", "deformed_lowering_chain"):
        def build(*args, _real=getattr(ladders, name), _name=name):
            calls.append((_name, args))
            return _real(*args)
        monkeypatch.setattr(ladders, name, build)
    assert parity_report(*A13, 1, 2).ok
    assert len(calls) == len(set(calls)) == 20
    assert {args[1] for _, args in calls} == {1}
    assert compositions == []


@pytest.mark.parametrize("p,q", [(1, 1), (3, 2)])
def test_parity_report_fails_on_a_skewed_raising_step(skewed_raising, p, q):
    # negative control: the one-step check still sees a raising step that
    # is not the reflected lowering one
    rep = parity_report(*A13, p, q)
    assert not rep.direct_substitution_ok
    assert not rep.angular_swap_ok
    assert rep.radial_swap_ok
    assert not rep.ok


def test_action_coefficient_rejects_wrong_target():
    alpha, beta = A13
    with pytest.raises(VerificationError):
        action_coefficient(deformed_raising(1, alpha, beta),
                           exceptional_jacobi_closed_form(1, alpha, beta),
                           exceptional_jacobi_closed_form(3, alpha, beta))
