"""The exact scorecard holds on the family, not at one point: at random
rational (alpha, beta) with 64-bit numerators and denominators, every exact
section of `verify` gives the verdicts it gives at the default point
(alpha, beta) = (1, 3), for the same k = p/q.

A MATCH line is an exact identity at the point that was run.  A claim that
is wrong only off that point, such as one with an added (alpha - 1)(beta - 3)
term, passes there and fails at almost every other point: an identity that
fails somewhere is a nonzero rational function of (alpha, beta), and a
random 64-bit point lands on one of its zeros only rarely (Schwartz, J. ACM
27 (1980) 701; Zippel, EUROSAM 1979, for uniform draws; hypothesis's draws
are not uniform, and the degree that bound needs is not measured here).
Only the exact sections run: the builders go through `verify._measure` on
a `verify._Run`, so no float gate is measured.

`pytest --hypothesis-profile=reference-deep` does not widen this property;
run it with a larger fixed-seed budget through the `VERDICTS_EXAMPLES`
environment variable, e.g. `VERDICTS_EXAMPLES=100`.
"""

import functools
import math
import os
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from xsuperint import verify
from xsuperint.params import ModelParams

#: the exact sections: every `_SECTIONS` entry before the float gates
EXACT_SECTIONS = list(verify._SECTIONS)[:list(verify._SECTIONS).index(
    "_gate_lines")]

#: the CLI's defaults for everything but the model
NMAX, MMAX, TOL, GRID = 6, 6, 1e-9, 40

#: a positive integer below 2^64, half the time a full 64-bit one
WORD = st.one_of(st.integers(1, 2 ** 64 - 1),
                 st.integers(2 ** 63, 2 ** 64 - 1))
RATIONAL = st.builds(Fraction, WORD, WORD)
#: beta > alpha > 0
POINT = st.lists(RATIONAL, min_size=2, max_size=2, unique=True).map(sorted)
RATIOS = st.sampled_from([(p, q) for p in range(1, 9) for q in range(1, 9)
                          if math.gcd(p, q) == 1])


def verdicts(alpha, beta, p, q):
    """(section, position, verdict) of every exact line, NORMALIZATION(c)
    counted as one verdict, and the class of the error that ended a section
    early, if one did."""
    run = verify._Run(ModelParams(alpha, beta, p=p, q=q), NMAX, MMAX, TOL,
                      GRID)
    outcomes = verify._measure(run, EXACT_SECTIONS)
    lines = [line for outcome in outcomes.values() for line in outcome.lines]
    errors = [type(outcome.error).__name__ for outcome in outcomes.values()
              if outcome.error is not None]
    return ([(line.section, i, line.verdict.split("(")[0])
             for i, line in enumerate(lines)], errors)


@functools.lru_cache(maxsize=None)
def default_verdicts(p, q):
    return verdicts(Fraction(1), Fraction(3), p, q)


@settings(max_examples=int(os.environ.get("VERDICTS_EXAMPLES", 30)),
          derandomize=True, deadline=None)
@given(POINT, RATIOS)
def test_exact_verdicts_at_a_random_point_equal_the_default_points(point,
                                                                    ratio):
    (alpha, beta), (p, q) = point, ratio
    assert verdicts(alpha, beta, p, q) == default_verdicts(p, q)
