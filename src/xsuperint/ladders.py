"""Ladder maps for the deformed polynomial family and the radial factor.

Layers, bottom to top:

  * one-step ladders inside the classical Jacobi family (shifted parameters
    alpha+1, beta-1), acting by first-order operators;
  * a forward/backward intertwiner pair connecting that shifted classical
    family to the deformed family, derived here from scratch by one exact
    linear-ansatz nullspace solve that both `derive_*` call (the backward
    map with an (x - b) pole) and also frozen in closed form;
  * ladder chains as their factor sequences (`LadderChain`), applied factor
    by factor and never composed: a q-fold deformed chain is the one-step
    ladders F o c_i o B over the classical steps c_i, 3q first-order
    factors, and the one-step ladders are the q = 1 chains;
  * radial (Laguerre-index) ladders in y = omega r^2 at fixed energy, and
    their p-fold chains, one factor per step;
  * energy-preserving composites that trade p radial quanta against q angular
    quanta: a `CompositeStep` knows its model and exact coefficient, and
    computes once the two images (`images`) every composite check measures;
  * an index-reflection report: the raising and lowering chains exchange under
    the sign flip of the angular eigenroot.  It checks one step by exact
    interpolation in A, by direct index substitution and against a negative
    control, and returns its failure witnesses as one list.

Functions named `*_candidate` or `claimed_*` are verbatim transcriptions of a
circulating closed form kept for reconciliation — they are scored against the
derived operators and measured actions, never silently corrected.  Only
the exported builders (`raising_intertwiner`, `deformed_raising`,
`radial_lowering`, `parity_report` and their twins) coerce ints and "a/b"
strings; every other function here takes `Fraction` parameters and `int`
indices, or `Fraction` indices so formal substitutions (such as the
reflection n -> 1 - n - alpha - beta) can reuse the same builders.  Chains
are cheap to build and apply, so no builder is memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .angular import angular_operator, exceptional_jacobi
from .errors import OutOfFamilyError, VerificationError
from .operators import Coefficientable, DiffOp, Poles, RatFunc
from .params import (ModelParams, QuantumState, angular_eigenroot,
                     energy_ratio, laguerre_parameter)
from .polynomials import (Poly, RationalLike, as_fraction, exact_text,
                          exceptional_jacobi_closed_form, jacobi_polynomial,
                          lagrange_basis, lagrange_fit, laguerre_polynomial,
                          pochhammer, secondary_root, weight_pole)
from .utils import fraction_nullspace


def shifted_jacobi(n: int, alpha: Fraction, beta: Fraction) -> Poly:
    """Classical Jacobi polynomial at the shifted parameters (alpha+1, beta-1)
    that pair with the deformed family under the intertwiners."""
    return jacobi_polynomial(n, alpha + 1, beta - 1)


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


def action_report(op: DiffOp | LadderChain, source: Poly, target: Poly
                  ) -> Measurement:
    """Measure op on a polynomial family member: (c, witness) with
    op(source) == c * target, or (None, witness) when the image leaves the
    target's line.  Every polynomial-family action is measured here."""
    return _line_report(op.apply_ratfunc(source), target)


def action_coefficient(op: DiffOp | LadderChain, source: Poly, target: Poly
                       ) -> Fraction:
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

def jacobi_lowering(n: Fraction, alpha: Fraction, beta: Fraction) -> DiffOp:
    """First-order operator sending the degree-n classical Jacobi polynomial
    (parameters alpha, beta) to a multiple of the degree n-1 one:

        (1/2) [ (2n+alpha+beta)(1-x^2) d  -  n((alpha-beta) - (2n+alpha+beta)x) ]

    Action coefficient: (n+alpha)(n+beta), see `jacobi_lowering_action`.
    """
    s = 2 * n + alpha + beta
    zeroth = Poly((-n * (alpha - beta) / 2, n * s / 2))
    first = Poly((s / 2, 0, -s / 2))
    return DiffOp((zeroth, first))


def jacobi_raising(n: Fraction, alpha: Fraction, beta: Fraction) -> DiffOp:
    """First-order operator sending the degree-n classical Jacobi polynomial
    to a multiple of the degree n+1 one:

        (1/2) [ -(2n+alpha+beta+2)(1-x^2) d
                + (n+alpha+beta+1)((2n+alpha+beta+2)x + alpha - beta) ]

    Action coefficient: (n+1)(n+alpha+beta+1), see `jacobi_raising_action`.
    """
    s2 = 2 * n + alpha + beta + 2
    zeroth = Poly(((n + alpha + beta + 1) * (alpha - beta) / 2,
                   (n + alpha + beta + 1) * s2 / 2))
    first = Poly((-s2 / 2, 0, s2 / 2))
    return DiffOp((zeroth, first))


def jacobi_lowering_action(n, alpha, beta) -> Fraction:
    return (n + alpha) * (n + beta)


def jacobi_raising_action(n, alpha, beta) -> Fraction:
    return (n + 1) * (n + alpha + beta + 1)


def jacobi_lowering_candidate(n, alpha, beta) -> DiffOp:
    """Verbatim candidate for the classical lowering operator:

        (1-x^2)(2n+alpha+beta)/2 d  -  n((2n+alpha+beta)x + alpha - beta + 2)/2

    Differs from the derived operator in the sign of the x-term and by a
    spurious +2; kept for scoring.
    """
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
    return -2 * (n + alpha)


def lowering_intertwiner_action(n, alpha, beta) -> Fraction:
    """Image of the degree-n deformed polynomial (closed-form normalization)
    is -(n+beta)/2 times the degree n-1 shifted classical one."""
    return -(n + beta) / 2


def claimed_raising_intertwiner_action(n, alpha, beta) -> Fraction:
    """Transcribed claim for the forward intertwiner coefficient: 2n-2+2alpha.
    Scored against the measured -2(n+alpha); the ratio is n-dependent, so the
    claim is not a normalization convention."""
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
    b = weight_pole(alpha, beta)
    c = secondary_root(alpha, beta)
    first = Poly((-1, 1)) * Poly((-b, 1))
    lead = (alpha - 1) * free_scalar
    zeroth = Poly((-lead * c, lead))
    return DiffOp((zeroth, first))


def lowering_intertwiner_candidate(alpha, beta) -> DiffOp:
    """Verbatim candidate for the backward intertwiner: [ (1+x) d + beta ]
    divided by (x + b) — pole on the wrong side of the interval.  With this
    denominator the image of a deformed polynomial keeps a pole at x = -b,
    so the candidate does not even map into polynomials."""
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


def derive_raising_intertwiner(alpha: Fraction, beta: Fraction) -> DiffOp:
    """Derive the forward intertwiner from scratch.

    Ansatz: a(x) d + c(x) with deg a <= 2, deg c <= 1 — forced by requiring
    the map to raise degree by exactly one on every input.  The intertwining
    conditions on degrees 0..2 give a homogeneous linear system in the ansatz
    coefficients and the three unknown image scalars; the nullspace must be a
    line, and the leading coefficient of a is normalized to 1.  The result is
    then validated on degrees 3..6 before being returned.
    """
    pairs = [(shifted_jacobi(n, alpha, beta),
              exceptional_jacobi_closed_form(n + 1, alpha, beta))
             for n in range(7)]
    return _solve_intertwiner("forward", pairs[:3], pairs[3:], 2, 1, {})


def derive_lowering_intertwiner(alpha: Fraction, beta: Fraction) -> DiffOp:
    """Derive the backward intertwiner from scratch.

    Ansatz: [ e(x) d + f(x) ] / (x-b) with deg e, deg f <= 1.  Clearing the
    pole, the conditions on the degree-1..3 deformed members give a
    homogeneous system in (e, f) and the three image scalars; the nullspace
    must be a line, e is normalized monic, and the result is validated on
    degrees 4..7.
    """
    pairs = [(exceptional_jacobi_closed_form(n, alpha, beta),
              shifted_jacobi(n - 1, alpha, beta))
             for n in range(1, 8)]
    return _solve_intertwiner("backward", pairs[:3], pairs[3:], 1, 1,
                              {weight_pole(alpha, beta): 1})


# ---------------------------------------------------------------------------
# Ladders inside the deformed family (third-order), and their chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderChain:
    """A ladder chain as its first-order factors, the first acting first
    (B, c_1, F, B, c_2, F, ... over classical steps c_i, or one radial
    ladder per step), applied in turn and never composed."""
    factors: tuple[DiffOp, ...]

    def apply_ratfunc(self, f: Coefficientable) -> RatFunc:
        for factor in self.factors:
            f = factor.apply_ratfunc(f)
        return RatFunc.of(f)

    def gauge_conjugate(self, logderiv: RatFunc) -> "LadderChain":
        """`DiffOp.gauge_conjugate` factor by factor (a homomorphism)."""
        return LadderChain(tuple(f.gauge_conjugate(logderiv)
                                 for f in self.factors))


def _one_step_factors(classical_steps: Sequence[DiffOp], alpha: Fraction,
                      beta: Fraction) -> LadderChain:
    """The one-step ladders F o c_i o B over the classical steps c_1..c_q
    (shifted parameters, c_1 acting first), as one factor sequence."""
    f, b = raising_intertwiner(alpha, beta), lowering_intertwiner(alpha, beta)
    return LadderChain(tuple(op for c in classical_steps for op in (b, c, f)))


def deformed_lowering(n: RationalLike, alpha: RationalLike,
                      beta: RationalLike) -> LadderChain:
    """Third-order ladder F o (classical lowering at shifted parameters,
    index n-1) o B sending the degree-n deformed polynomial to a multiple of
    the degree n-1 one.  Annihilates the degree-1 member.  It is the q = 1
    lowering chain."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return deformed_lowering_chain(n, 1, alpha, beta)


def deformed_raising(n: RationalLike, alpha: RationalLike,
                     beta: RationalLike) -> LadderChain:
    """Third-order ladder F o (classical raising at shifted parameters,
    index n-1) o B sending the degree-n deformed polynomial to a multiple of
    the degree n+1 one.  It is the q = 1 raising chain."""
    n, alpha, beta = as_fraction(n), as_fraction(alpha), as_fraction(beta)
    return deformed_raising_chain(n, 1, alpha, beta)


def deformed_lowering_action(n, alpha, beta) -> Fraction:
    """Measured one-step lowering coefficient in the closed-form
    normalization: (n+alpha)(n+alpha-2)(n+beta)(n+beta-2) for n >= 2.

    At n = 1 the image is identically zero — the family has no degree-0
    member to land on — so the coefficient is 0 there, not the formula's
    value."""
    if n == 1:
        return Fraction(0)
    return ((n + alpha) * (n + alpha - 2) * (n + beta) * (n + beta - 2))


def deformed_raising_action(n, alpha, beta) -> Fraction:
    """Measured one-step raising coefficient in the closed-form
    normalization: n(n+alpha)(n+beta)(n+alpha+beta)."""
    return n * (n + alpha) * (n + beta) * (n + alpha + beta)


def claimed_deformed_lowering_action(n, alpha, beta) -> Fraction:
    """Transcribed claim: -(n+alpha)(n+alpha-2)(n+beta)(n+beta-2).  Off from
    the measured coefficient by a constant factor -1 at every n >= 2 (the
    generic formula is kept verbatim here, without the bottom-row guard the
    measured table carries)."""
    return -((n + alpha) * (n + alpha - 2) * (n + beta) * (n + beta - 2))


def claimed_deformed_raising_action(n, alpha, beta) -> Fraction:
    """Transcribed claim: -n(n+beta)(n+alpha)(n+alpha+beta); likewise a
    global -1 off the measured coefficient."""
    return -deformed_raising_action(n, alpha, beta)


def deformed_raising_chain(n: Fraction, q: int, alpha: Fraction,
                           beta: Fraction) -> LadderChain:
    """q-fold raising chain: the one-step ladders at indices n, n+1, ...,
    n+q-1, the one at n acting first."""
    return _one_step_factors(
        [jacobi_raising(n - 1 + i, alpha + 1, beta - 1) for i in range(q)],
        alpha, beta)


def deformed_lowering_chain(n: Fraction, q: int, alpha: Fraction,
                            beta: Fraction) -> LadderChain:
    """q-fold lowering chain: the one-step ladders at indices n, n-1, ...,
    n-q+1, the one at n acting first."""
    return _one_step_factors(
        [jacobi_lowering(n - 1 - i, alpha + 1, beta - 1) for i in range(q)],
        alpha, beta)


def claimed_raising_chain_action(n, q: int, alpha, beta) -> Fraction:
    """Transcribed q-fold raising coefficient:
    (-1)^q (n)_q (n+beta)_q (n+alpha)_q (n+alpha+beta)_q."""
    return (Fraction((-1) ** q) * pochhammer(n, q) * pochhammer(n + beta, q)
            * pochhammer(n + alpha, q) * pochhammer(n + alpha + beta, q))


def claimed_lowering_chain_action(n, q: int, alpha, beta) -> Fraction:
    """Transcribed q-fold lowering coefficient:
    (-1)^q (-n-alpha)_q (-n-alpha+2)_q (-n-beta)_q (-n-beta+2)_q."""
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


def radial_lowering_candidate(a: Fraction, eps: Fraction) -> DiffOp:
    """Verbatim candidate for the radial lowering ladder:

        (1+a) d_y - eps - (a/2y)(1+a)

    — the energy term enters with the opposite sign.  On the bottom state
    m = 0 it returns -(1+a) times the state instead of annihilating it, which
    is the cleanest witness that the sign is wrong."""
    return _radial_ladder(1 + a, -eps, -a * (1 + a) / 2)


def radial_raising_candidate(a: Fraction, eps: Fraction) -> DiffOp:
    """Verbatim candidate for the radial raising ladder:

        (1-a) d_y - eps + (a/2y)(1+a)

    — opposite-sign energy term, and the pole strength says (1+a) where the
    derived ladder needs (1-a)."""
    return _radial_ladder(1 - a, -eps, a * (1 + a) / 2)


def radial_eps(m: int, a: Fraction) -> Fraction:
    """Energy parameter eps = (2m + a + 1)/2 = E/(2 omega) of the bound state
    with Laguerre data (m, a); constant along any fixed-energy chain."""
    return (2 * m + a + 1) / 2


def radial_gauge_logderiv(a: Fraction) -> RatFunc:
    """(log G)' for the radial gauge factor G = y^(a/2) e^(-y/2):
    a/(2y) - 1/2."""
    return RatFunc(a / 2, {0: 1}) - Fraction(1, 2)


def radial_family_image(op: DiffOp | LadderChain, m: int, a: Fraction,
                        target_a: Fraction) -> RatFunc:
    """Image of the gauged bound radial factor with Laguerre data (m, a) under
    op, re-expressed over the gauge of target_a.

    Returns the rational function R with op(G_a L_m^(a)) = R * G_{target_a};
    R is a polynomial exactly when the image lies in the target family's span.
    Requires a - target_a to be an even integer (gauge shifts come in 2s).
    """
    shift = (a - target_a) / 2
    if shift.denominator != 1:
        raise ValueError("gauge parameters must differ by an even integer")
    stripped = op.gauge_conjugate(-radial_gauge_logderiv(a))
    img = stripped.apply_ratfunc(laguerre_polynomial(m, a))
    s = int(shift)
    return img * (RatFunc(Poly.x() ** s) if s >= 0 else RatFunc(1, {0: -s}))


def radial_action_report(op: DiffOp | LadderChain, m: int, a: Fraction,
                         target_m: int, target_a: Fraction) -> Measurement:
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
    return -(m + 1) * (m + a)


def claimed_radial_lowering_action(m: int, a) -> Fraction:
    """Transcribed one-step claim for the lowering coefficient: -1."""
    return Fraction(-1)


def claimed_radial_raising_action(m: int, a) -> Fraction:
    """Transcribed one-step claim for the raising coefficient: -(m+1)(m+a)."""
    return -(m + 1) * (m + a)


def radial_lowering_chain(a: Fraction, eps: Fraction, p: int) -> LadderChain:
    """p-fold lowering chain at fixed eps: factors at gauges a, a+2, ...,
    a+2(p-1), the one at a acting first."""
    return LadderChain(tuple(radial_lowering(a + 2 * i, eps)
                             for i in range(p)))


def radial_raising_chain(a: Fraction, eps: Fraction, p: int) -> LadderChain:
    """p-fold raising chain at fixed eps: factors at gauges a, a-2, ...,
    a-2(p-1), the one at a acting first."""
    return LadderChain(tuple(radial_raising(a - 2 * i, eps)
                             for i in range(p)))


def radial_raising_chain_action(m: int, a, p: int) -> Fraction:
    """(-1)^p (m+1)_p (m+a-p+1)_p."""
    return (Fraction((-1) ** p) * pochhammer(Fraction(m + 1), p)
            * pochhammer(m + a - p + 1, p))


def claimed_radial_lowering_chain_action(m: int, a, p: int) -> Fraction:
    """Transcribed p-fold lowering claim: (-1)^p."""
    return Fraction((-1) ** p)


def claimed_radial_raising_chain_action(m: int, a, p: int) -> Fraction:
    """Transcribed p-fold raising claim: (-1)^p (m+1)_p (a+m-p+1)_p."""
    return (Fraction((-1) ** p) * pochhammer(Fraction(m + 1), p)
            * pochhammer(a + m - p + 1, p))


# ---------------------------------------------------------------------------
# Energy-preserving composites on quantum states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositeStep:
    """One energy-preserving composite ladder step in the model `params`.

    The coefficient is exact and refers to the monic deformed family tensored
    with standard-normalization Laguerre polynomials.  `angular` acts in
    x = cos(2 k phi) on the deformed polynomials; `radial` acts in
    y = omega r^2 on the gauged bound radial factors.
    """
    source: QuantumState
    target: QuantumState
    coefficient: Fraction
    params: ModelParams
    angular: LadderChain
    radial: LadderChain

    @property
    def energy(self) -> Fraction:    # E / omega, equal for source and target
        return energy_ratio(self.source, self.params)

    @cached_property
    def images(self) -> tuple[RatFunc, RatFunc]:
        """The angular chain on the source's monic deformed member and the
        radial chain on its Laguerre factor over the target's gauge, computed
        on first use: the two exact images every composite check measures."""
        params, source = self.params, self.source
        return (self.angular.apply_ratfunc(
                    exceptional_jacobi(source.n, params.alpha, params.beta)),
                radial_family_image(self.radial, source.m,
                                    laguerre_parameter(source.n, params),
                                    laguerre_parameter(self.target.n, params)))


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
    a = laguerre_parameter(state.n, params)
    coeff = Fraction((-1) ** p) * _monic_rescale(state, target, alpha, beta)
    for i in range(q):
        coeff *= deformed_raising_action(state.n + i, alpha, beta)
    return CompositeStep(
        source=state, target=target, coefficient=coeff, params=params,
        angular=deformed_raising_chain(state.n, q, alpha, beta),
        radial=radial_lowering_chain(a, radial_eps(state.m, a), p))


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
    a = laguerre_parameter(state.n, params)
    coeff = (radial_raising_chain_action(state.m, a, p)
             * _monic_rescale(state, target, alpha, beta))
    for i in range(q):
        coeff *= deformed_lowering_action(state.n - i, alpha, beta)
    return CompositeStep(
        source=state, target=target, coefficient=coeff, params=params,
        angular=deformed_lowering_chain(state.n, q, alpha, beta),
        radial=radial_raising_chain(a, radial_eps(state.m, a), p))


def _composite_report(step: CompositeStep, angular_image: RatFunc,
                      radial_image: RatFunc) -> Measurement:
    """Product of two measurements: `angular_image` against the target's
    monic deformed member, and `radial_image` against the target's Laguerre
    factor."""
    params, target = step.params, step.target
    ang, witness = _line_report(angular_image, exceptional_jacobi(
        target.n, params.alpha, params.beta))
    if ang is None:
        return None, witness
    rad, witness = _line_report(radial_image, laguerre_polynomial(
        target.m, laguerre_parameter(target.n, params)))
    return (None if rad is None else ang * rad), witness


def composite_action_report(step: CompositeStep) -> Measurement:
    """Measured scalar the composite multiplies its source state by on the
    way to its target, to be compared with `step.coefficient`."""
    return _composite_report(step, *step.images)


def l1_commutator_report(step: CompositeStep) -> Measurement:
    """Measured eigen-coefficient of [angular invariant, composite] on the
    step's source state: L(chain P_n) - chain(L P_n) with
    L = `angular_operator`, times the radial chain's coefficient.  The
    operators are applied, never composed into a commutator operator.  It is
    (A_target^2 - A_source^2) * coefficient, nonzero on interior states."""
    alpha, beta = step.params.alpha, step.params.beta
    lop = angular_operator(alpha, beta)
    source = exceptional_jacobi(step.source.n, alpha, beta)
    angular_image, radial_image = step.images
    image = (lop.apply_ratfunc(angular_image)
             - step.angular.apply_ratfunc(lop.apply_ratfunc(source)))
    return _composite_report(step, image, radial_image)


# ---------------------------------------------------------------------------
# Index-reflection (parity) report
# ---------------------------------------------------------------------------

def _factor_entries(chain: LadderChain) -> dict[tuple, Fraction]:
    """Every nonzero coefficient of the reduced numerators of the chain's
    factors, keyed by (factor, derivative order, pole map, power of x)."""
    return {(f, j, tuple(sorted(c.poles.items())), i): coef
            for f, op in enumerate(chain.factors)
            for j, c in enumerate(op.coeffs)
            for i, coef in enumerate(c.num.coeffs) if coef}


def parity_report(alpha: RationalLike, beta: RationalLike, p: int, q: int
                  ) -> list[str]:
    """Check that the raising and lowering chains are a single object read
    at opposite signs of the angular eigenroot A (equivalently under the
    formal index substitution n -> 1 - n - alpha - beta); return the failure
    witnesses, none when the reflection holds.  One step proves every chain,
    as a reflected raising chain is its lowering twin factor by factor when
    its one-step factors are.  Three checks:

    1. Interpolation: every entry of both one-step deformed chains at
       n = 1..8 (`_factor_entries`) is fitted exactly in A on 4 nodes and
       checked on the other 4, and the raising interpolants at -A must equal
       the lowering ones at A.
    2. Direct substitution: the raising chain at 1 - n - alpha - beta must
       equal the lowering chain at n = 2, 3 and 7/2, and radial_raising(-kA)
       must equal radial_lowering(kA), k = p/q, at A_1, A_2, A_3 with the
       energy parameter held at an arbitrary rational (7/2).  Of the factors
       B, c, F only c depends on n, and a classical step's coefficients are
       of degree <= 2 in n, as the radial ladders' are in a.  A nonzero
       polynomial of degree <= 2 has at most 2 roots, so three nodes settle
       the identity at every n and a.
    3. Negative control: the raising interpolants alone must not be even in
       A, so the swap is a genuine pairing.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    k, eps, fit = Fraction(p, q), Fraction(7, 2), 4
    ns = [Fraction(n) for n in range(1, 2 * fit + 1)]
    roots = [angular_eigenroot(n, alpha, beta) for n in ns]
    lowering = [deformed_lowering_chain(n, 1, alpha, beta) for n in ns]
    tables = ([_factor_entries(deformed_raising_chain(n, 1, alpha, beta))
               for n in ns], [_factor_entries(chain) for chain in lowering])
    basis = lagrange_basis(roots[:fit])
    held_out, swapped, even = [], [], True
    for key in sorted(set().union(*tables[0], *tables[1])):
        fits = []
        for side in tables:
            values = [t.get(key, 0) for t in side]
            fits.append(lagrange_fit(basis, values[:fit]))
            if any(fits[-1].evaluate(root) != value
                   for root, value in zip(roots[fit:], values[fit:])):
                held_out.append(key)
        plus, minus = fits
        if plus.reflect() != minus:
            swapped.append(key)
        even = even and plus.reflect() == plus

    half = Fraction(7, 2)
    direct = [n for n, chain in ((ns[1], lowering[1]), (ns[2], lowering[2]),
                                 (half, deformed_lowering_chain(
                                     half, 1, alpha, beta)))
              if deformed_raising_chain(1 - n - alpha - beta, 1, alpha,
                                        beta) != chain]
    radial = [k * r for r in roots[:3]
              if radial_raising(-k * r, eps) != radial_lowering(k * r, eps)]
    return [text for bad, text in (
        (held_out, f"chain coefficients {held_out[:4]} are not polynomials "
                   f"of degree < {fit} in the eigenroot (held-out nodes)"),
        (swapped, f"angular swap fails at entries {swapped[:4]}"),
        (direct, "direct substitution n -> 1-n-alpha-beta fails to map the "
                 "raising chain onto the lowering chain at n = "
                 + ", ".join(map(exact_text, direct))),
        (radial, "radial_raising(-a) differs from radial_lowering(a) at "
                 "a = " + ", ".join(map(exact_text, radial))),
        (even, "negative control fails: the raising interpolants are all "
               "even in A")) if bad]
