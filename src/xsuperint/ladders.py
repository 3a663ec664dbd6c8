"""Ladder maps for the deformed polynomial family and the radial factor.

Layers, bottom to top:

  * one-step ladders inside the classical Jacobi family (shifted parameters
    alpha+1, beta-1), acting by first-order operators;
  * a forward/backward intertwiner pair connecting that shifted classical
    family to the deformed family, derived here from scratch by one exact
    linear-ansatz nullspace solve that both `derive_*` call (the backward
    map with an (x - b) pole) and also frozen in closed form;
  * deformed-family q-fold chains built as F o (classical steps joined by
    M = B o F) o B, where M is polynomial (the shifted Jacobi operator plus
    a constant); the one-step ladders F o (classical ladder) o B are the
    q = 1 chains;
  * radial (Laguerre-index) ladders in y = omega r^2 at fixed energy, and
    their p-fold chains;
  * energy-preserving composites that trade p radial quanta against q angular
    quanta, with exact rational coefficients;
  * an index-reflection report: the raising and lowering chains exchange under
    the sign flip of the angular eigenroot, verified three independent ways.

Functions named `*_candidate` or `claimed_*` are verbatim transcriptions of a
circulating closed form kept for reconciliation — they are scored against the
derived operators and measured actions, never silently corrected.  Index
arguments accept `Fraction`s so formal substitutions (such as the reflection
n -> 1 - n - alpha - beta) can reuse the same builders.  The four chain
builders are memoised for the life of the process, so a chain that several
checks apply, one-step ladders included, is composed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .angular import angular_operator, exceptional_jacobi
from .errors import (InsufficientSpanError, OutOfFamilyError,
                     VerificationError)
from .operators import DiffOp, Poles, RatFunc
from .params import ModelParams, QuantumState, angular_eigenroot, energy_ratio
from .polynomials import (Poly, RationalLike, as_fraction,
                          exceptional_jacobi_closed_form, jacobi_polynomial,
                          lagrange_basis, lagrange_fit, laguerre_polynomial,
                          pochhammer, secondary_root, weight_pole)
from .utils import fraction_nullspace


def shifted_jacobi(n: int, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Classical Jacobi polynomial at the shifted parameters (alpha+1, beta-1)
    that pair with the deformed family under the intertwiners."""
    return jacobi_polynomial(n, as_fraction(alpha) + 1, as_fraction(beta) - 1)


#: A measured action: (c, witness) with image == c * target, or (None, witness)
#: when the image leaves the target's line.
Measurement = tuple[Optional[Fraction], str]


def _line_report(image: RatFunc, target: Poly) -> Measurement:
    """Measure an image against the target's line: it leaves the line when
    it keeps a pole or is not proportional to the target."""
    if not image.is_polynomial():
        return None, (f"image has a surviving pole: denominator "
                      f"{image.den.pretty()}")
    c = image.as_poly().proportionality(target)
    if c is None:
        return None, (f"image {image.num.pretty()} not proportional to "
                      f"{target.pretty()}")
    return c, "proportional"


def action_report(op: DiffOp, source: Poly, target: Poly) -> Measurement:
    """Measure op on a polynomial family member: (c, witness) with
    op(source) == c * target, or (None, witness) when the image leaves the
    target's line.  Every polynomial-family action is measured here."""
    return _line_report(op.apply_poly(source), target)


def action_coefficient(op: DiffOp, source: Poly, target: Poly) -> Fraction:
    """`action_report` that raises VerificationError with the witness when
    the image leaves the target's line, so a wrong ladder can never be
    scored as a right one."""
    c, witness = action_report(op, source, target)
    if c is None:
        raise VerificationError(witness)
    return c


# ---------------------------------------------------------------------------
# Classical Jacobi one-step ladders (shifted or not: parameters are explicit)
# ---------------------------------------------------------------------------

def jacobi_lowering(n: RationalLike, alpha: RationalLike,
                    beta: RationalLike) -> DiffOp:
    """First-order operator sending the degree-n classical Jacobi polynomial
    (parameters alpha, beta) to a multiple of the degree n-1 one:

        (1/2) [ (2n+alpha+beta)(1-x^2) d  -  n((alpha-beta) - (2n+alpha+beta)x) ]

    Action coefficient: (n+alpha)(n+beta), see `jacobi_lowering_action`.
    """
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    s = 2 * n + alpha + beta
    zeroth = Poly((-n * (alpha - beta) / 2, n * s / 2))
    first = Poly((s / 2, 0, -s / 2))
    return DiffOp((zeroth, first))


def jacobi_raising(n: RationalLike, alpha: RationalLike,
                   beta: RationalLike) -> DiffOp:
    """First-order operator sending the degree-n classical Jacobi polynomial
    to a multiple of the degree n+1 one:

        (1/2) [ -(2n+alpha+beta+2)(1-x^2) d
                + (n+alpha+beta+1)((2n+alpha+beta+2)x + alpha - beta) ]

    Action coefficient: (n+1)(n+alpha+beta+1), see `jacobi_raising_action`.
    """
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    s2 = 2 * n + alpha + beta + 2
    zeroth = Poly(((n + alpha + beta + 1) * (alpha - beta) / 2,
                   (n + alpha + beta + 1) * s2 / 2))
    first = Poly((-s2 / 2, 0, s2 / 2))
    return DiffOp((zeroth, first))


def jacobi_lowering_action(n, alpha, beta) -> Fraction:
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return (n + alpha) * (n + beta)


def jacobi_raising_action(n, alpha, beta) -> Fraction:
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return (n + 1) * (n + alpha + beta + 1)


def jacobi_lowering_candidate(n, alpha, beta) -> DiffOp:
    """Verbatim candidate for the classical lowering operator:

        (1-x^2)(2n+alpha+beta)/2 d  -  n((2n+alpha+beta)x + alpha - beta + 2)/2

    Differs from the derived operator in the sign of the x-term and by a
    spurious +2; kept for scoring.
    """
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    s = 2 * n + alpha + beta
    zeroth = Poly((-n * (alpha - beta + 2) / 2, -n * s / 2))
    first = Poly((s / 2, 0, -s / 2))
    return DiffOp((zeroth, first))


def jacobi_raising_candidate(n, alpha, beta) -> DiffOp:
    """Verbatim candidate for the classical raising operator:

        -(1-x)(2n+alpha+beta+2)/2 d
            + (n+alpha+beta+1)((2n+alpha+beta)x + alpha - beta + 2)/2

    Note the first-order coefficient is linear (1-x), not (1-x^2), and the
    zeroth order uses 2n+alpha+beta where the derived operator needs +2 more.
    """
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    s = 2 * n + alpha + beta
    zeroth = Poly(((n + alpha + beta + 1) * (alpha - beta + 2) / 2,
                   (n + alpha + beta + 1) * s / 2))
    first = Poly((-(s + 2) / 2, (s + 2) / 2))
    return DiffOp((zeroth, first))


# ---------------------------------------------------------------------------
# Intertwiners between the shifted classical family and the deformed family
# ---------------------------------------------------------------------------

def raising_intertwiner(alpha: RationalLike, beta: RationalLike) -> DiffOp:
    """First-order map sending the degree-n shifted classical polynomial to a
    multiple of the degree n+1 deformed one:

        (x-1)(x-b) d + alpha (x - c),   c = (alpha+beta+2)/(beta-alpha).

    Derivable from scratch with `derive_raising_intertwiner`; the action
    coefficient is -2(n+alpha) in the closed-form normalization of the
    deformed family (`raising_intertwiner_action`).
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    b = weight_pole(alpha, beta)
    c = secondary_root(alpha, beta)
    first = Poly((-1, 1)) * Poly((-b, 1))
    zeroth = Poly((-alpha * c, alpha))
    return DiffOp((zeroth, first))


def lowering_intertwiner(alpha: RationalLike, beta: RationalLike) -> DiffOp:
    """First-order map sending the degree-n deformed polynomial to a multiple
    of the degree n-1 shifted classical one:

        [ (1+x) d + beta ] / (x - b).

    The (x-b) pole always cancels on the deformed family.  Action coefficient
    -(n+beta)/2, see `lowering_intertwiner_action`.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    poles = {weight_pole(alpha, beta): 1}
    return DiffOp((RatFunc(beta, poles), RatFunc(Poly((1, 1)), poles)))


def raising_intertwiner_action(n, alpha, beta) -> Fraction:
    """Coefficient of the forward intertwiner on the closed-form-normalized
    deformed family: image of the degree-n shifted classical polynomial is
    -2(n+alpha) times the degree n+1 deformed one."""
    n, alpha = as_fraction(n), as_fraction(alpha)
    return -2 * (n + alpha)


def lowering_intertwiner_action(n, alpha, beta) -> Fraction:
    """Image of the degree-n deformed polynomial (closed-form normalization)
    is -(n+beta)/2 times the degree n-1 shifted classical one."""
    n, beta = as_fraction(n), as_fraction(beta)
    return -(n + beta) / 2


def claimed_raising_intertwiner_action(n, alpha, beta) -> Fraction:
    """Transcribed claim for the forward intertwiner coefficient: 2n-2+2alpha.
    Scored against the measured -2(n+alpha); the ratio is n-dependent, so the
    claim is not a normalization convention."""
    n, alpha = as_fraction(n), as_fraction(alpha)
    return 2 * n - 2 + 2 * alpha


def raising_intertwiner_candidate(alpha, beta, free_scalar) -> DiffOp:
    """Verbatim candidate for the forward intertwiner:

        (x-1)(x-b) d + (alpha-1) * t * (x - c)

    where t is an untyped scalar the transcription never defines.  A value
    must be supplied.  Reconciliation shows the only value that intertwines
    is t = alpha/(alpha-1) — parameter-dependent, and undefined at alpha = 1
    where the zeroth-order term vanishes for every t and the operator
    annihilates degree-0 input instead of raising it.  That choice turns the
    zeroth term into alpha*(x-c), i.e. the derived intertwiner; the factor
    (alpha-1) in the candidate cannot be a normalization convention.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    t = as_fraction(free_scalar)
    b = weight_pole(alpha, beta)
    c = secondary_root(alpha, beta)
    first = Poly((-1, 1)) * Poly((-b, 1))
    zeroth = Poly((-(alpha - 1) * t * c, (alpha - 1) * t))
    return DiffOp((zeroth, first))


def lowering_intertwiner_candidate(alpha, beta) -> DiffOp:
    """Verbatim candidate for the backward intertwiner: [ (1+x) d + beta ]
    divided by (x + b) — pole on the wrong side of the interval.  With this
    denominator the image of a deformed polynomial keeps a pole at x = -b,
    so the candidate does not even map into polynomials."""
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    poles = {-weight_pole(alpha, beta): 1}
    return DiffOp((RatFunc(beta, poles), RatFunc(Poly((1, 1)), poles)))


def _solve_intertwiner(direction: str, fit: Sequence[tuple[Poly, Poly]],
                       holdout: Sequence[tuple[Poly, Poly]], first_degree: int,
                       zeroth_degree: int, poles: Poles) -> DiffOp:
    """Solve the ansatz [ a(x) d + c(x) ] / prod (x - r)^m over the pole map
    {r: m}, deg a <= first_degree and deg c <= zeroth_degree, for a map
    sending each source to a multiple of its target.  With the poles cleared,
    the fit pairs give a homogeneous system in the ansatz coefficients and
    one image scalar per pair; its nullspace must be a line, a is normalized
    monic, and the result is validated on the held-out pairs."""
    # unknowns: a_0..a_first, c_0..c_zeroth, then one scalar per fit pair
    width = first_degree + zeroth_degree + 2
    den, x = RatFunc(1, poles).den, Poly.x()
    basis = fraction_nullspace([
        [x ** j * src.derivative() for j in range(first_degree + 1)]
        + [x ** j * src for j in range(zeroth_degree + 1)]
        + [-(den * tgt) if i == idx else Poly.zero() for i in range(len(fit))]
        for idx, (src, tgt) in enumerate(fit)])
    if len(basis) != 1 or basis[0][first_degree] == 0:
        raise VerificationError(
            f"{direction}-intertwiner ansatz has nullspace dimension "
            f"{len(basis)}, expected a single line with a nonzero leading "
            "first-order coefficient")
    v = [u / basis[0][first_degree] for u in basis[0]]
    op = DiffOp((RatFunc(Poly(v[first_degree + 1:width]), poles),
                 RatFunc(Poly(v[:first_degree + 1]), poles)))
    for src, tgt in holdout:
        action_coefficient(op, src, tgt)
    return op


def derive_raising_intertwiner(alpha: RationalLike, beta: RationalLike
                               ) -> DiffOp:
    """Derive the forward intertwiner from scratch.

    Ansatz: a(x) d + c(x) with deg a <= 2, deg c <= 1 — forced by requiring
    the map to raise degree by exactly one on every input.  The intertwining
    conditions on degrees 0..2 give a homogeneous linear system in the ansatz
    coefficients and the three unknown image scalars; the nullspace must be a
    line, and the leading coefficient of a is normalized to 1.  The result is
    then validated on degrees 3..6 before being returned.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    pairs = [(shifted_jacobi(n, alpha, beta),
              exceptional_jacobi_closed_form(n + 1, alpha, beta))
             for n in range(7)]
    return _solve_intertwiner("forward", pairs[:3], pairs[3:], 2, 1, {})


def derive_lowering_intertwiner(alpha: RationalLike, beta: RationalLike
                                ) -> DiffOp:
    """Derive the backward intertwiner from scratch.

    Ansatz: [ e(x) d + f(x) ] / (x-b) with deg e, deg f <= 1.  Clearing the
    pole, the conditions on the degree-1..3 deformed members give a
    homogeneous system in (e, f) and the three image scalars; the nullspace
    must be a line, e is normalized monic, and the result is validated on
    degrees 4..7.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    pairs = [(exceptional_jacobi_closed_form(n, alpha, beta),
              shifted_jacobi(n - 1, alpha, beta))
             for n in range(1, 8)]
    return _solve_intertwiner("backward", pairs[:3], pairs[3:], 1, 1,
                              {weight_pole(alpha, beta): 1})


# ---------------------------------------------------------------------------
# Ladders inside the deformed family (third-order), and their chains
# ---------------------------------------------------------------------------

def _composed(factors: Sequence[DiffOp]) -> DiffOp:
    """factors[-1] o ... o factors[0]: the first factor acts first."""
    out = factors[0]
    for factor in factors[1:]:
        out = factor.compose(out)
    return out


def _deformed_chain(classical_steps: Sequence[DiffOp], alpha: Fraction,
                    beta: Fraction) -> DiffOp:
    """F o (c_q o M o ... o M o c_1) o B, M = B o F: the one-step ladders
    F o c_i o B over the classical steps c_1..c_q (shifted parameters, c_1
    acting first) regrouped so that the middle is polynomial and the (x - b)
    pole of B is met once, at the right end."""
    f = raising_intertwiner(alpha, beta)
    b = lowering_intertwiner(alpha, beta)
    middle = [classical_steps[0]]
    if len(classical_steps) > 1:
        m = b.compose(f)
        for step in classical_steps[1:]:
            middle += [m, step]
    return f.compose(_composed(middle)).compose(b)


def deformed_lowering(n: RationalLike, alpha: RationalLike,
                      beta: RationalLike) -> DiffOp:
    """Third-order ladder F o (classical lowering at shifted parameters,
    index n-1) o B sending the degree-n deformed polynomial to a multiple of
    the degree n-1 one.  Annihilates the degree-1 member.  It is the q = 1
    lowering chain, and the same cached object."""
    return deformed_lowering_chain(n, 1, alpha, beta)


def deformed_raising(n: RationalLike, alpha: RationalLike,
                     beta: RationalLike) -> DiffOp:
    """Third-order ladder F o (classical raising at shifted parameters,
    index n-1) o B sending the degree-n deformed polynomial to a multiple of
    the degree n+1 one.  It is the q = 1 raising chain, and the same cached
    object."""
    return deformed_raising_chain(n, 1, alpha, beta)


def deformed_lowering_action(n, alpha, beta) -> Fraction:
    """Measured one-step lowering coefficient in the closed-form
    normalization: (n+alpha)(n+alpha-2)(n+beta)(n+beta-2) for n >= 2.

    At n = 1 the image is identically zero — the family has no degree-0
    member to land on — so the coefficient is 0 there, not the formula's
    value."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    if n == 1:
        return Fraction(0)
    return ((n + alpha) * (n + alpha - 2) * (n + beta) * (n + beta - 2))


def deformed_raising_action(n, alpha, beta) -> Fraction:
    """Measured one-step raising coefficient in the closed-form
    normalization: n(n+alpha)(n+beta)(n+alpha+beta)."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return n * (n + alpha) * (n + beta) * (n + alpha + beta)


def claimed_deformed_lowering_action(n, alpha, beta) -> Fraction:
    """Transcribed claim: -(n+alpha)(n+alpha-2)(n+beta)(n+beta-2).  Off from
    the measured coefficient by a constant factor -1 at every n >= 2 (the
    generic formula is kept verbatim here, without the bottom-row guard the
    measured table carries)."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return -((n + alpha) * (n + alpha - 2) * (n + beta) * (n + beta - 2))


def claimed_deformed_raising_action(n, alpha, beta) -> Fraction:
    """Transcribed claim: -n(n+beta)(n+alpha)(n+alpha+beta); likewise a
    global -1 off the measured coefficient."""
    return -deformed_raising_action(n, alpha, beta)


@lru_cache(maxsize=None)
def deformed_raising_chain(n: RationalLike, q: int, alpha: RationalLike,
                           beta: RationalLike) -> DiffOp:
    """q-fold raising chain: the one-step ladders at indices n, n+1, ...,
    n+q-1 (rightmost acts first), built as F o (classical raising chain
    joined by B o F) o B."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return _deformed_chain(
        [jacobi_raising(n - 1 + i, alpha + 1, beta - 1) for i in range(q)],
        alpha, beta)


@lru_cache(maxsize=None)
def deformed_lowering_chain(n: RationalLike, q: int, alpha: RationalLike,
                            beta: RationalLike) -> DiffOp:
    """q-fold lowering chain: the one-step ladders at indices n, n-1, ...,
    n-q+1 (rightmost acts first), built as F o (classical lowering chain
    joined by B o F) o B."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return _deformed_chain(
        [jacobi_lowering(n - 1 - i, alpha + 1, beta - 1) for i in range(q)],
        alpha, beta)


def claimed_raising_chain_action(n, q: int, alpha, beta) -> Fraction:
    """Transcribed q-fold raising coefficient:
    (-1)^q (n)_q (n+beta)_q (n+alpha)_q (n+alpha+beta)_q."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return (Fraction((-1) ** q) * pochhammer(n, q) * pochhammer(n + beta, q)
            * pochhammer(n + alpha, q) * pochhammer(n + alpha + beta, q))


def claimed_lowering_chain_action(n, q: int, alpha, beta) -> Fraction:
    """Transcribed q-fold lowering coefficient:
    (-1)^q (-n-alpha)_q (-n-alpha+2)_q (-n-beta)_q (-n-beta+2)_q."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return (Fraction((-1) ** q)
            * pochhammer(-n - alpha, q) * pochhammer(-n - alpha + 2, q)
            * pochhammer(-n - beta, q) * pochhammer(-n - beta + 2, q))


# ---------------------------------------------------------------------------
# Radial (Laguerre-index) ladders in y = omega r^2 at fixed energy
# ---------------------------------------------------------------------------

def _radial_ladder(first: Fraction, energy: Fraction, pole: Fraction
                   ) -> DiffOp:
    """first * d_y + energy + pole / y: the one shape of every radial
    one-step ladder and candidate below."""
    return DiffOp((RatFunc(energy) + RatFunc(pole, {0: 1}), first))


def radial_lowering(a: RationalLike, eps: RationalLike) -> DiffOp:
    """First-order radial ladder at gauge parameter a and energy parameter
    eps (energy / (2 omega)):

        (1+a) d_y + eps - a(1+a)/(2y).

    Sends the gauged bound radial factor with Laguerre data (m, a) to -1 times
    the one with (m-1, a+2); annihilates m = 0.  Valid on states whose energy
    matches eps = (2m + a + 1)/2.
    """
    a, eps = as_fraction(a), as_fraction(eps)
    return _radial_ladder(1 + a, eps, -a * (1 + a) / 2)


def radial_raising(a: RationalLike, eps: RationalLike) -> DiffOp:
    """First-order radial ladder at gauge parameter a and energy parameter
    eps:

        (1-a) d_y + eps + a(1-a)/(2y).

    Sends Laguerre data (m, a) to -(m+1)(m+a) times (m+1, a-2) when
    eps = (2m + a + 1)/2.
    """
    a, eps = as_fraction(a), as_fraction(eps)
    return _radial_ladder(1 - a, eps, a * (1 - a) / 2)


def radial_lowering_candidate(a: RationalLike, eps: RationalLike) -> DiffOp:
    """Verbatim candidate for the radial lowering ladder:

        (1+a) d_y - eps - (a/2y)(1+a)

    — the energy term enters with the opposite sign.  On the bottom state
    m = 0 it returns -(1+a) times the state instead of annihilating it, which
    is the cleanest witness that the sign is wrong."""
    a, eps = as_fraction(a), as_fraction(eps)
    return _radial_ladder(1 + a, -eps, -a * (1 + a) / 2)


def radial_raising_candidate(a: RationalLike, eps: RationalLike) -> DiffOp:
    """Verbatim candidate for the radial raising ladder:

        (1-a) d_y - eps + (a/2y)(1+a)

    — opposite-sign energy term, and the pole strength says (1+a) where the
    derived ladder needs (1-a)."""
    a, eps = as_fraction(a), as_fraction(eps)
    return _radial_ladder(1 - a, -eps, a * (1 + a) / 2)


def radial_eps(m: int, a: RationalLike) -> Fraction:
    """Energy parameter eps = (2m + a + 1)/2 = E/(2 omega) of the bound state
    with Laguerre data (m, a); constant along any fixed-energy chain."""
    return (2 * m + as_fraction(a) + 1) / 2


def radial_gauge_logderiv(a: RationalLike) -> RatFunc:
    """(log G)' for the radial gauge factor G = y^(a/2) e^(-y/2):
    a/(2y) - 1/2."""
    a = as_fraction(a)
    return RatFunc(a / 2, {0: 1}) - Fraction(1, 2)


def radial_family_image(op: DiffOp, m: int, a: RationalLike,
                        target_a: RationalLike) -> RatFunc:
    """Image of the gauged bound radial factor with Laguerre data (m, a) under
    op, re-expressed over the gauge of target_a.

    Returns the rational function R with op(G_a L_m^(a)) = R * G_{target_a};
    R is a polynomial exactly when the image lies in the target family's span.
    Requires a - target_a to be an even integer (gauge shifts come in 2s).
    """
    a = as_fraction(a)
    target_a = as_fraction(target_a)
    shift = (a - target_a) / 2
    if shift.denominator != 1:
        raise ValueError("gauge parameters must differ by an even integer")
    stripped = op.gauge_conjugate(-radial_gauge_logderiv(a))
    img = stripped.apply_poly(laguerre_polynomial(m, a))
    s = int(shift)
    return img * (RatFunc(Poly.x() ** s) if s >= 0 else RatFunc(1, {0: -s}))


def radial_action_report(op: DiffOp, m: int, a: RationalLike, target_m: int,
                         target_a: RationalLike) -> Measurement:
    """Radial twin of `action_report`: (c, witness) with op sending the
    gauged radial factor (m, a) to c times the one with (target_m,
    target_a), or (None, witness) when the image leaves that line."""
    return _line_report(radial_family_image(op, m, a, target_a),
                        laguerre_polynomial(target_m, target_a))


def radial_lowering_action(m: int, a) -> Fraction:
    """Measured coefficient of the derived lowering ladder: -1 for every
    m >= 1 (0 at the bottom state)."""
    return Fraction(0) if m == 0 else Fraction(-1)


def radial_raising_action(m: int, a) -> Fraction:
    """Measured coefficient of the derived raising ladder: -(m+1)(m+a)."""
    a = as_fraction(a)
    return -(m + 1) * (m + a)


def claimed_radial_lowering_action(m: int, a) -> Fraction:
    """Transcribed one-step claim for the lowering coefficient: -1."""
    return Fraction(-1)


def claimed_radial_raising_action(m: int, a) -> Fraction:
    """Transcribed one-step claim for the raising coefficient: -(m+1)(m+a)."""
    a = as_fraction(a)
    return -(m + 1) * (m + a)


@lru_cache(maxsize=None)
def radial_lowering_chain(a: RationalLike, eps: RationalLike, p: int) -> DiffOp:
    """p-fold lowering chain at fixed eps: factors at gauges a, a+2, ...,
    a+2(p-1), rightmost first."""
    a = as_fraction(a)
    return _composed([radial_lowering(a + 2 * i, eps) for i in range(p)])


@lru_cache(maxsize=None)
def radial_raising_chain(a: RationalLike, eps: RationalLike, p: int) -> DiffOp:
    """p-fold raising chain at fixed eps: factors at gauges a, a-2, ...,
    a-2(p-1), rightmost first."""
    a = as_fraction(a)
    return _composed([radial_raising(a - 2 * i, eps) for i in range(p)])


def radial_raising_chain_action(m: int, a, p: int) -> Fraction:
    """(-1)^p (m+1)_p (m+a-p+1)_p."""
    a = as_fraction(a)
    return (Fraction((-1) ** p) * pochhammer(Fraction(m + 1), p)
            * pochhammer(m + a - p + 1, p))


def claimed_radial_lowering_chain_action(m: int, a, p: int) -> Fraction:
    """Transcribed p-fold lowering claim: (-1)^p."""
    return Fraction((-1) ** p)


def claimed_radial_raising_chain_action(m: int, a, p: int) -> Fraction:
    """Transcribed p-fold raising claim: (-1)^p (m+1)_p (a+m-p+1)_p."""
    a = as_fraction(a)
    return (Fraction((-1) ** p) * pochhammer(Fraction(m + 1), p)
            * pochhammer(a + m - p + 1, p))


# ---------------------------------------------------------------------------
# Energy-preserving composites on quantum states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositeStep:
    """One application of an energy-preserving composite ladder.

    The coefficient is exact and refers to the monic deformed family tensored
    with standard-normalization Laguerre polynomials.  `angular` acts in
    x = cos(2 k phi) on the deformed polynomials; `radial` acts in
    y = omega r^2 on the gauged bound radial factors.
    """
    source: QuantumState
    target: QuantumState
    coefficient: Fraction
    energy: Fraction           # E / omega, equal for source and target
    eps: Fraction              # E / (2 omega), the radial chain's parameter
    angular: DiffOp
    radial: DiffOp


def _monic_rescale(source: QuantumState, target: QuantumState,
                   alpha: Fraction, beta: Fraction) -> Fraction:
    """lambda_target / lambda_source, lambda_j the leading coefficient of the
    closed-form member of degree j: it turns a product of closed-form action
    table entries into the coefficient between the monic members."""
    def lead(n: int) -> Fraction:
        return exceptional_jacobi_closed_form(n, alpha, beta).coeffs[-1]
    return lead(target.n) / lead(source.n)


def composite_raising(state: QuantumState, params: ModelParams) -> CompositeStep:
    """Trade p radial quanta for q angular ones: (m, n) -> (m-p, n+q) at
    exactly the same energy.  Raises OutOfFamilyError when m < p."""
    p, q = params.p, params.q
    if state.m < p:
        raise OutOfFamilyError(
            f"raising composite lowers the radial index by {p} but the state "
            f"has m = {state.m}")
    alpha, beta = params.alpha, params.beta
    target = QuantumState(state.m - p, state.n + q)
    if energy_ratio(target, params) != energy_ratio(state, params):
        raise VerificationError("composite failed to preserve energy")
    a = params.k * angular_eigenroot(state.n, alpha, beta)
    eps = radial_eps(state.m, a)
    coeff = Fraction((-1) ** p) * _monic_rescale(state, target, alpha, beta)
    for i in range(q):
        coeff *= deformed_raising_action(state.n + i, alpha, beta)
    return CompositeStep(
        source=state, target=target, coefficient=coeff,
        energy=energy_ratio(state, params), eps=eps,
        angular=deformed_raising_chain(state.n, q, alpha, beta),
        radial=radial_lowering_chain(a, eps, p))


def composite_lowering(state: QuantumState, params: ModelParams) -> CompositeStep:
    """Trade q angular quanta for p radial ones: (m, n) -> (m+p, n-q) at
    exactly the same energy.  Raises OutOfFamilyError when n - q < 1 (the
    deformed family has no member below degree 1)."""
    p, q = params.p, params.q
    if state.n - q < 1:
        raise OutOfFamilyError(
            f"lowering composite lowers the angular index by {q} but the "
            f"state has n = {state.n}")
    alpha, beta = params.alpha, params.beta
    target = QuantumState(state.m + p, state.n - q)
    if energy_ratio(target, params) != energy_ratio(state, params):
        raise VerificationError("composite failed to preserve energy")
    a = params.k * angular_eigenroot(state.n, alpha, beta)
    eps = radial_eps(state.m, a)
    coeff = (radial_raising_chain_action(state.m, a, p)
             * _monic_rescale(state, target, alpha, beta))
    for i in range(q):
        coeff *= deformed_lowering_action(state.n - i, alpha, beta)
    return CompositeStep(
        source=state, target=target, coefficient=coeff,
        energy=energy_ratio(state, params), eps=eps,
        angular=deformed_lowering_chain(state.n, q, alpha, beta),
        radial=radial_raising_chain(a, eps, p))


def _composite_report(step: CompositeStep, params: ModelParams,
                      angular_image: RatFunc) -> Measurement:
    """Product of two measurements: `angular_image` against the target's
    monic deformed member, and the radial chain on the source's Laguerre
    factor against the target's."""
    alpha, beta, k = params.alpha, params.beta, params.k
    ang, witness = _line_report(
        angular_image, exceptional_jacobi(step.target.n, alpha, beta))
    if ang is None:
        return None, witness
    rad, witness = radial_action_report(
        step.radial,
        step.source.m, k * angular_eigenroot(step.source.n, alpha, beta),
        step.target.m, k * angular_eigenroot(step.target.n, alpha, beta))
    return (None if rad is None else ang * rad), witness


def composite_action_report(step: CompositeStep, params: ModelParams
                            ) -> Measurement:
    """Measured scalar the composite multiplies its source state by on the
    way to its target, to be compared with `step.coefficient`."""
    source = exceptional_jacobi(step.source.n, params.alpha, params.beta)
    return _composite_report(step, params, step.angular.apply_poly(source))


def l1_commutator_report(step: CompositeStep, params: ModelParams
                         ) -> Measurement:
    """Measured eigen-coefficient of [angular invariant, composite] on the
    step's source state: L(chain P_n) - chain(L P_n) with
    L = `angular_operator`, times the radial chain's coefficient.  The
    operators are applied, never composed into a commutator operator."""
    lop = angular_operator(params.alpha, params.beta)
    source = exceptional_jacobi(step.source.n, params.alpha, params.beta)
    image = (lop.apply_ratfunc(step.angular.apply_poly(source))
             - step.angular.apply_ratfunc(lop.apply_poly(source)))
    return _composite_report(step, params, image)


def l1_noncommutation(state: QuantumState, params: ModelParams,
                      raising: bool = True) -> Fraction:
    """`l1_commutator_report` of the raising (or lowering) composite on the
    given state, raising VerificationError when the image leaves the family.
    Equals (A_target^2 - A_source^2) * coefficient, and is nonzero on
    interior states: the composites move along degenerate levels rather
    than commuting with everything."""
    step = composite_raising(state, params) if raising \
        else composite_lowering(state, params)
    gap, witness = l1_commutator_report(step, params)
    if gap is None:
        raise VerificationError(witness)
    return gap


# ---------------------------------------------------------------------------
# Index-reflection (parity) report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityReport:
    """Result of checking that raising and lowering chains exchange under the
    reflection of the angular eigenroot A -> -A (equivalently the formal index
    substitution n -> 1 - n - alpha - beta), with the energy parameter held
    fixed as an independent symbol."""
    angular_swap_ok: bool
    radial_swap_ok: bool
    direct_substitution_ok: bool
    negative_control_ok: bool
    details: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (self.angular_swap_ok and self.radial_swap_ok
                and self.direct_substitution_ok and self.negative_control_ok)

    def lines(self) -> list[str]:
        out = [
            f"angular chain coefficients swap under A -> -A: "
            f"{'yes' if self.angular_swap_ok else 'NO'}",
            f"radial chain coefficients swap under A -> -A: "
            f"{'yes' if self.radial_swap_ok else 'NO'}",
            f"direct index substitution maps raising chain to lowering chain: "
            f"{'yes' if self.direct_substitution_ok else 'NO'}",
            f"negative control (raising chain alone is not reflection-even): "
            f"{'yes' if self.negative_control_ok else 'NO'}",
        ]
        out.extend(self.details)
        return out


def _chain_value_table(chains: Sequence[DiffOp], root: Fraction
                       ) -> list[dict[tuple[int, int], Fraction]]:
    """Clear all chains by a common power of the pole x - root and tabulate
    the x-coefficients of every cleared operator coefficient: one
    {(derivative order, x power): value} map per chain.  Raises
    VerificationError when a chain's denominator is not a power of the
    pole."""
    pole = Poly((-root, 1))
    for chain in chains:
        if any(c.poles.keys() - {root} for c in chain.coeffs):
            raise VerificationError(
                f"chain has unexpected denominator {chain.cleared()[0].pretty()}; "
                f"expected a power of {pole.pretty()}")
    common = max((c.poles.get(root, 0) for chain in chains for c in chain.coeffs),
                 default=0)
    return [{(j, i): coef
             for j, c in enumerate(chain.coeffs)
             for i, coef in enumerate(
                 (c.num * pole ** (common - c.poles.get(root, 0))).coeffs)
             if coef}
            for chain in chains]


def _interpolate_tables(nodes: Sequence[Fraction],
                        tables: Sequence[dict[tuple[int, int], Fraction]],
                        fit_count: int) -> dict[tuple[int, int], Poly]:
    """Entry-wise exact interpolation of the tabulated chain coefficients as
    polynomials in the node variable, fitted on the first fit_count nodes and
    validated on the rest."""
    keys = sorted({k for t in tables for k in t})
    basis = lagrange_basis(nodes[:fit_count])
    out: dict[tuple[int, int], Poly] = {}
    for key in keys:
        values = [t.get(key, Fraction(0)) for t in tables]
        poly = lagrange_fit(basis, values[:fit_count])
        for node, val in zip(nodes[fit_count:], values[fit_count:]):
            if poly.evaluate(node) != val:
                raise VerificationError(
                    f"chain coefficient {key} is not a degree-<{fit_count} "
                    f"polynomial in the eigenroot (holdout node {node} "
                    f"predicted {poly.evaluate(node)}, tabulated {val})")
        out[key] = poly
    return out


def _swap_mismatches(plus: dict[tuple[int, int], Poly],
                     minus: dict[tuple[int, int], Poly]
                     ) -> list[tuple[int, int]]:
    """Entries whose `plus` interpolant at -A differs from `minus` at A."""
    zero = Poly.zero()
    return [key for key in sorted(set(plus) | set(minus))
            if plus.get(key, zero).reflect() != minus.get(key, zero)]


def parity_report(alpha: RationalLike, beta: RationalLike, p: int, q: int,
                  nmax: int = 8) -> ParityReport:
    """Verify, three independent ways, that the raising and lowering chains
    are a single object read at opposite signs of the angular eigenroot.

    1. Tabulate both q-fold deformed chains at indices n = 1..nmax, clear the
       common pole power, interpolate every coefficient exactly as a
       polynomial in A (validating on held-out nodes), and check the raising
       interpolants at -A equal the lowering interpolants at A.
    2. Same for the p-fold radial chains in the gauge parameter a = k A,
       k = p/q, with the energy parameter held fixed at an arbitrary
       rational (7/2).
    3. Substitute n -> 1 - n - alpha - beta directly into the raising chain
       builder and compare operators structurally against the lowering chain.

    A negative control confirms the raising interpolants alone are not even
    in A, so the swap is a genuine pairing.  Raises InsufficientSpanError when
    nmax leaves no held-out validation node.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    k = Fraction(p, q)
    eps = Fraction(7, 2)
    fit_ang = 2 * q + 2
    fit_rad = 2 * p + 1
    if nmax < max(fit_ang, fit_rad) + 1:
        raise InsufficientSpanError(
            f"parity interpolation needs at least {max(fit_ang, fit_rad) + 1} "
            f"index nodes for p={p}, q={q}; got nmax={nmax}")
    details: list[str] = []
    ns = [Fraction(n) for n in range(1, nmax + 1)]
    roots = [angular_eigenroot(n, alpha, beta) for n in ns]

    raising_chains = [deformed_raising_chain(n, q, alpha, beta) for n in ns]
    lowering_chains = [deformed_lowering_chain(n, q, alpha, beta) for n in ns]
    tables = _chain_value_table(raising_chains + lowering_chains,
                                weight_pole(alpha, beta))
    plus = _interpolate_tables(roots, tables[:nmax], fit_ang)
    minus = _interpolate_tables(roots, tables[nmax:], fit_ang)
    bad = _swap_mismatches(plus, minus)
    if bad:
        details.append(f"angular swap fails at entries {bad[:4]}")

    negative_control_ok = any(
        plus[key].reflect() != plus[key] for key in plus)

    rlow = [radial_lowering_chain(k * r, eps, p) for r in roots]
    rraise = [radial_raising_chain(k * r, eps, p) for r in roots]
    rtables = _chain_value_table(rlow + rraise, Fraction(0))
    rplus = _interpolate_tables(roots, rtables[:nmax], fit_rad)
    rminus = _interpolate_tables(roots, rtables[nmax:], fit_rad)
    radial_ok = not _swap_mismatches(rplus, rminus)
    # the radial swap is also an exact operator identity factor by factor
    for r in roots[:3]:
        radial_ok = radial_ok and (
            radial_raising_chain(-k * r, eps, p)
            == radial_lowering_chain(k * r, eps, p))

    direct_ok = all(
        deformed_raising_chain(1 - n - alpha - beta, q, alpha, beta)
        == deformed_lowering_chain(n, q, alpha, beta)
        for n in (ns[1], ns[2], Fraction(7, 2)))
    if not direct_ok:
        details.append("direct substitution n -> 1-n-alpha-beta failed to "
                       "map the raising chain onto the lowering chain")

    return ParityReport(
        angular_swap_ok=not bad,
        radial_swap_ok=radial_ok,
        direct_substitution_ok=direct_ok,
        negative_control_ok=negative_control_ok,
        details=tuple(details))
