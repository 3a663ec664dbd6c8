"""Angular sector: the wedge potential, the gauge pipeline, the eigen-solver,
and the family reconciliation."""

from fractions import Fraction

import pytest

from xsuperint.angular import (
    angular_gauge_logderiv,
    angular_operator,
    angular_operator_candidate,
    angular_potential,
    angular_potential_candidate,
    angular_schrodinger_x,
    exceptional_jacobi,
    exceptional_jacobi_candidate_solve,
    solve_eigenpolynomial,
)
from xsuperint.errors import NoSolutionError, NonUniqueSolutionError
from xsuperint.operators import DiffOp, RatFunc
from xsuperint.params import angular_eigenroot
from xsuperint.polynomials import Poly, exceptional_jacobi_closed_form
from xsuperint.verify import verification_report

A13 = (Fraction(1), Fraction(3))
PAIRS = [A13, (Fraction(1, 2), Fraction(5, 2)), (Fraction(2), Fraction(7, 2))]


def test_potential_values_at_origin():
    # at (1, 3): 2*(1-1/4)/(1-x) + 2*(9-1/4)/(1+x) + 8(1-2x)/(x-2)^2 at x=0
    v = angular_potential(*A13)
    assert v.evaluate(Fraction(0)) == Fraction(3, 2) + Fraction(35, 2) + 2
    cand = angular_potential_candidate(*A13)
    assert cand.evaluate(Fraction(0)) != v.evaluate(Fraction(0))


def test_potential_pole_structure():
    v = angular_potential(Fraction(2), Fraction(7, 2))
    # denominator vanishes exactly at x = 1, -1 and (double) at x = b
    b = Fraction(11, 3)
    assert v.den.evaluate(Fraction(1)) == 0
    assert v.den.evaluate(Fraction(-1)) == 0
    assert v.den.evaluate(b) == 0
    assert v.den.derivative().evaluate(b) == 0


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_eigen_identity_exact(alpha, beta):
    op = angular_operator(alpha, beta)
    for n in range(1, 6):
        member = exceptional_jacobi_closed_form(n, alpha, beta)
        ev = angular_eigenroot(n, alpha, beta) ** 2
        image = op.apply_ratfunc(member)
        assert image == RatFunc.of(member * ev)


def test_gauge_pipeline_consistency():
    """The working operator must literally be the gauge conjugate of the
    corrected Schrodinger form."""
    alpha, beta = A13
    h = angular_schrodinger_x(alpha, beta)
    g = angular_gauge_logderiv(alpha, beta)
    assert h.gauge_conjugate(-g) == angular_operator(alpha, beta)


def test_solve_eigenpolynomial_unique():
    alpha, beta = A13
    op = angular_operator(alpha, beta)
    for n in (1, 2, 3):
        ev = angular_eigenroot(n, alpha, beta) ** 2
        sol = solve_eigenpolynomial(op, n, ev)
        # solver returns the monic representative
        assert sol.coeff(n) == 1
        ratio = exceptional_jacobi_closed_form(n, alpha, beta).proportionality(sol)
        assert ratio not in (None, 0)


def test_solve_eigenpolynomial_no_solution():
    op = angular_operator_candidate(*A13)
    ev = angular_eigenroot(2, *A13) ** 2
    with pytest.raises(NoSolutionError):
        solve_eigenpolynomial(op, 2, ev)


def test_solve_eigenpolynomial_non_unique():
    # the zero operator at eigenvalue 0 admits every polynomial
    with pytest.raises(NonUniqueSolutionError):
        solve_eigenpolynomial(DiffOp(()), 1, Fraction(0))


def test_candidate_operator_degree_one_solution():
    sol = exceptional_jacobi_candidate_solve(1, *A13)
    assert sol == Poly((2, 1))      # x + 2: a different line entirely
    closed = exceptional_jacobi_closed_form(1, *A13)
    assert closed.proportionality(sol) is None


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_exceptional_jacobi_matches_closed_form(alpha, beta):
    for n in range(1, 7):
        eig = exceptional_jacobi(n, alpha, beta)
        closed = exceptional_jacobi_closed_form(n, alpha, beta)
        ratio = closed.proportionality(eig)
        assert ratio not in (None, 0)


def test_exceptional_jacobi_rejects_degree_zero():
    with pytest.raises(ValueError):
        exceptional_jacobi(0, *A13)


def test_reconcile_family_verdicts():
    gate, *lines = [line for line in verification_report(*A13, nmax=4).lines
                    if line.section == "eigenfamily"]
    assert (gate.name, gate.verdict) == ("eigen-identity", "PASS")
    assert lines[0].verdict == "MATCH"
    assert [line.verdict for line in lines[1:]] == \
        ["MISMATCH"] + ["NO-SOLUTION"] * 3
    assert "x + 2" in lines[1].detail
    assert "-1/2*x + 3/2" in lines[1].detail
    # measured closed/monic ratios for the first degrees
    assert "ratios n=1: -1/2, n=2: -3/2, n=3: -7/2, ..." in lines[0].detail
    assert exceptional_jacobi_closed_form(4, *A13).proportionality(
        exceptional_jacobi(4, *A13)) == Fraction(-15, 2)


def test_candidate_potential_breaks_the_identity():
    alpha, beta = A13
    g = angular_gauge_logderiv(alpha, beta)
    bad = angular_schrodinger_x(alpha, beta,
                                candidate_potential=True).gauge_conjugate(-g)
    member = exceptional_jacobi_closed_form(1, alpha, beta)
    ev = angular_eigenroot(1, alpha, beta) ** 2
    assert bad.apply_ratfunc(member) != RatFunc.of(member * ev)
