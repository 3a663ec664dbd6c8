"""The angular eigenproblem and the deformed (exceptional) polynomial family.

Pipeline, all exact:

  1. `angular_schrodinger_x` is the separated angular Hamiltonian pushed to the
     algebraic coordinate x = cos(2 k phi), in units of k^2.  Its potential
     carries an inverse-square deformation centered at the weight pole b.
  2. Conjugating by the bound-state gauge factor (known through its log
     derivative only) turns it into `angular_operator`, which maps polynomials
     to polynomials plus a controlled (x - b) pole.
  3. `exceptional_jacobi` solves the operator eigenproblem exactly, degree by
     degree, as a rational nullspace computation.  The family starts at degree
     1 — there is no degree-0 member.

`angular_operator_candidate` is a verbatim transcription of a circulating
closed form for the same operator.  It is kept, applied, and scored — never
silently corrected: `verify.verification_report` scores where the two
constructions disagree.  (The candidate admits a degree-1 eigenpolynomial
that differs from the closed-form family, and no eigenpolynomial at all for
degree >= 2; the derived operator reproduces the closed-form family at every
degree.)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NoSolutionError, NonUniqueSolutionError
from .operators import DiffOp, RatFunc
from .polynomials import Poly, RationalLike, as_fraction, weight_pole
from .params import angular_eigenroot
from .utils import fraction_nullspace


def angular_gauge_logderiv(alpha: Fraction, beta: Fraction) -> RatFunc:
    """(log G)' for the angular gauge factor
    G = (1-x)^(alpha/2 + 1/4) (1+x)^(beta/2 + 1/4) / (x - b).

    G itself involves irrational powers; its log derivative is rational, which
    is all the algebra ever needs.
    """
    b = weight_pole(alpha, beta)
    e1 = alpha / 2 + Fraction(1, 4)
    e2 = beta / 2 + Fraction(1, 4)
    return RatFunc(e1, {1: 1}) + RatFunc(e2, {-1: 1}) - RatFunc(1, {b: 1})


def angular_potential(alpha: RationalLike, beta: RationalLike) -> RatFunc:
    """Angular potential in x = cos(2 k phi), per k^2:

        2(alpha^2 - 1/4)/(1 - x) + 2(beta^2 - 1/4)/(1 + x) + 8(1 - b x)/(x - b)^2.

    The last term is the deformation; its strength is pinned by requiring the
    double pole at x = b to cancel after gauge conjugation, which is what makes
    a complete polynomial eigenfamily possible.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    b = weight_pole(alpha, beta)
    return (RatFunc(-2 * (alpha * alpha - Fraction(1, 4)), {1: 1})
            + RatFunc(2 * (beta * beta - Fraction(1, 4)), {-1: 1})
            + RatFunc(Poly((8, -8 * b)), {b: 2}))


def angular_potential_candidate(alpha: Fraction, beta: Fraction) -> RatFunc:
    """Verbatim candidate potential whose deformation term reads
    4(1 + b x)/(b + x)^2 instead.  Kept for reconciliation; with this term the
    gauge-conjugated operator has no polynomial eigenfamily past degree 1.
    """
    b = weight_pole(alpha, beta)
    return (RatFunc(-2 * (alpha * alpha - Fraction(1, 4)), {1: 1})
            + RatFunc(2 * (beta * beta - Fraction(1, 4)), {-1: 1})
            + RatFunc(Poly((4, 4 * b)), {-b: 2}))


def angular_schrodinger_x(alpha: RationalLike, beta: RationalLike,
                          candidate_potential: bool = False) -> DiffOp:
    """Separated angular Hamiltonian in x = cos(2 k phi), per k^2:

        4(x^2 - 1) d^2 + 4x d + V(x),

    i.e. -(1/k^2) d^2/dphi^2 + V(cos 2 k phi) after the change of variables.
    Its eigenvalues on the bound family are A_n^2.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    v = angular_potential_candidate(alpha, beta) if candidate_potential \
        else angular_potential(alpha, beta)
    return DiffOp((v, RatFunc(Poly((0, 4))), RatFunc(Poly((-4, 0, 4)))))


def angular_operator(alpha: RationalLike, beta: RationalLike) -> DiffOp:
    """The polynomial-picture angular operator: the gauge conjugate
    G^{-1} H G of `angular_schrodinger_x` by the bound-state factor G.

    Acts on the deformed polynomial family with eigenvalue A_n^2; images of
    polynomials are polynomials plus a simple (x-b) pole that cancels on the
    eigenfamily.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    h = angular_schrodinger_x(alpha, beta)
    g = angular_gauge_logderiv(alpha, beta)
    return h.gauge_conjugate(-g)


def angular_operator_candidate(alpha: Fraction, beta: Fraction) -> DiffOp:
    """Verbatim candidate closed form for the polynomial-picture operator:

        4(x^2-1) d^2 + [4(beta-alpha)(1-bx)/(b-x)] ((x+b) d - 1) + (alpha+beta+1)^2.

    Transcribed as printed and scored against the derived operator.
    """
    b = weight_pole(alpha, beta)
    rat = RatFunc(Poly((-4 * (beta - alpha), 4 * b * (beta - alpha))), {b: 1})
    first = rat * RatFunc(Poly((b, 1)))
    zeroth = -rat + Fraction((alpha + beta + 1) ** 2)
    return DiffOp((zeroth, first, RatFunc(Poly((-4, 0, 4)))))


# ---------------------------------------------------------------------------
# Exact eigenpolynomial solver
# ---------------------------------------------------------------------------

def solve_eigenpolynomial(op: DiffOp, degree: int, eigenvalue: RationalLike
                          ) -> Poly:
    """The unique-up-to-scale polynomial u of exactly the given degree with

        D(x) * (op u - eigenvalue * u) == 0   identically,

    where D is the common denominator of op's coefficients, and so of
    op - eigenvalue: shifting c_0 by a constant cancels no pole.  Returns the
    monic representative.  Raises NoSolutionError / NonUniqueSolutionError
    when the cleared linear system has no rank-deficiency of exactly one in
    the right place — the oracle that flags a wrong eigenvalue or a defective
    operator, rather than silently returning garbage.
    """
    den, cleared = op.cleared()
    shift = den * -as_fraction(eigenvalue)

    def image(i: int) -> Poly:          # D (op - eigenvalue) applied to x^i
        term = Poly.x() ** i
        out = shift * term
        for a in cleared:
            out, term = out + a * term, term.derivative()
        return out

    basis = fraction_nullspace([[image(i) for i in range(degree + 1)]])
    if not basis:
        raise NoSolutionError(
            f"no polynomial of degree <= {degree} satisfies the cleared "
            f"eigen-identity at eigenvalue {eigenvalue}")
    if len(basis) > 1:
        raise NonUniqueSolutionError(
            f"eigenpolynomial at eigenvalue {eigenvalue} is not unique "
            f"(nullspace dimension {len(basis)})")
    vec = basis[0]
    if vec[degree] == 0:
        raise NoSolutionError(
            f"the unique eigenpolynomial at eigenvalue {eigenvalue} has degree "
            f"< {degree} (no degree-{degree} member)")
    return Poly(vec).monic()


@lru_cache(maxsize=None)
def _exceptional_jacobi_cached(n: int, alpha: Fraction, beta: Fraction) -> Poly:
    op = angular_operator(alpha, beta)
    lam = angular_eigenroot(n, alpha, beta) ** 2
    return solve_eigenpolynomial(op, n, lam)


def exceptional_jacobi(n: int, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Monic degree-n member of the deformed family, obtained as the exact
    eigenpolynomial of `angular_operator` at eigenvalue A_n^2 = (2n-1+alpha+beta)^2.

    This is the authoritative construction; `exceptional_jacobi_closed_form`
    provides the independent two-term combination it is reconciled against.
    """
    if n < 1:
        raise ValueError("the deformed family starts at degree 1")
    return _exceptional_jacobi_cached(n, as_fraction(alpha), as_fraction(beta))


def exceptional_jacobi_candidate_solve(n: int, alpha: Fraction,
                                       beta: Fraction) -> Poly:
    """Eigen-solve of the *candidate* operator at the same eigenvalue.

    Succeeds only at n = 1 (yielding x + b, which is NOT proportional to the
    closed-form family member); raises NoSolutionError for n >= 2.  Exposed so
    the reconciliation report can state the defect rather than hide it.
    """
    op = angular_operator_candidate(alpha, beta)
    lam = angular_eigenroot(n, alpha, beta) ** 2
    return solve_eigenpolynomial(op, n, lam)
