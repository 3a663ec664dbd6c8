"""Property sweeps of the exact identities over the admissible domain
beta > alpha > 0: random rationals, with alpha = 1, beta - alpha -> 0 and
beta >> alpha drawn on purpose.  Every assertion is an exact equality."""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from xsuperint.angular import angular_operator
from xsuperint.ladders import (action_report, composite_action_report,
                               composite_lowering, composite_raising,
                               deformed_lowering, deformed_lowering_action,
                               deformed_raising, deformed_raising_action,
                               derive_lowering_intertwiner,
                               derive_raising_intertwiner,
                               lowering_intertwiner, raising_intertwiner)
from xsuperint.params import ModelParams, QuantumState, angular_eigenroot
from xsuperint.polynomials import exceptional_jacobi_closed_form

ALPHA = st.one_of(
    st.just(F(1)),
    st.fractions(min_value=F(1, 100), max_value=F(10), max_denominator=100))
GAP = st.one_of(
    st.fractions(min_value=F(1, 1000), max_value=F(1, 10),
                 max_denominator=1000),
    st.fractions(min_value=F(1, 10), max_value=F(10), max_denominator=100),
    st.fractions(min_value=F(10), max_value=F(1000), max_denominator=10))
PAIRS = st.builds(lambda alpha, gap: (alpha, alpha + gap), ALPHA, GAP)
# beta - alpha -> 0 at alpha = 1, and beta >> alpha at a small alpha
EDGES = [(F(1), F(1001, 1000)), (F(1, 100), F(1000))]
COPRIME = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]


def with_edges(test):
    for pair in EDGES:
        test = example(pair)(test)
    return test


@settings(max_examples=30, deadline=None)
@with_edges
@given(PAIRS)
def test_eigen_identity_on_closed_form_members(pair):
    alpha, beta = pair
    op = angular_operator(alpha, beta)
    for n in range(1, 5):
        member = exceptional_jacobi_closed_form(n, alpha, beta)
        assert action_report(op, member, member)[0] == \
            angular_eigenroot(n, alpha, beta) ** 2


@settings(max_examples=30, deadline=None)
@with_edges
@given(PAIRS)
def test_rederived_intertwiners_equal_the_frozen_ones(pair):
    alpha, beta = pair
    assert derive_raising_intertwiner(alpha, beta) == \
        raising_intertwiner(alpha, beta)
    assert derive_lowering_intertwiner(alpha, beta) == \
        lowering_intertwiner(alpha, beta)


@settings(max_examples=30, deadline=None)
@with_edges
@given(PAIRS)
def test_one_step_deformed_action_tables(pair):
    alpha, beta = pair

    def member(n):
        return exceptional_jacobi_closed_form(n, alpha, beta)

    for n in range(1, 4):
        assert action_report(deformed_raising(n, alpha, beta), member(n),
                             member(n + 1))[0] == \
            deformed_raising_action(n, alpha, beta)
    assert deformed_lowering(1, alpha, beta).apply_ratfunc(member(1)).is_zero()
    assert deformed_lowering_action(1, alpha, beta) == 0
    for n in range(2, 4):
        assert action_report(deformed_lowering(n, alpha, beta), member(n),
                             member(n - 1))[0] == \
            deformed_lowering_action(n, alpha, beta)


@settings(max_examples=10, deadline=None)
@with_edges
@given(PAIRS)
def test_composite_actions_equal_their_coefficients(pair):
    alpha, beta = pair
    for p, q in COPRIME:
        params = ModelParams(alpha, beta, p=p, q=q)
        for step in (composite_raising(QuantumState(p, 1), params),
                     composite_lowering(QuantumState(0, q + 1), params)):
            assert composite_action_report(step, params)[0] == \
                step.coefficient
