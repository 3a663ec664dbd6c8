"""Helpers shared across modules: exact linear algebra for the solvers, and
the one format of every float the program prints.

Every exact solve in the package is a linear ansatz: unknown rational
scalars v_j, each with a known polynomial image, and one or more polynomial
identities sum_j v_j * image_j == 0.  `fraction_nullspace` takes the images
and does the rest on Python ints: the coefficient rows come from each
`Poly`'s integer numerators, and the elimination never forms a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polynomials import Poly


def fmt_float(x: float) -> str:
    """17 significant digits: enough to round-trip any float64 exactly."""
    return f"{x:.17g}"


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (a zero row as it is)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def fraction_nullspace(blocks: Sequence[Sequence[Poly]]
                       ) -> list[list[Fraction]]:
    """Basis of the rational v with sum_j v[j] * block[j] == 0 identically in
    x for every block: one identity per block, one `Poly` image per unknown
    (so every block has the same length, and there is at least one).

    The coefficient of x^s in a block is one equation, made an integer row
    over the common denominator of the block.  Gauss-Jordan elimination runs
    fraction-free, each row kept primitive.  The result is one vector per
    free unknown, with a 1 in its slot and 0 in the other free slots: the
    basis read off the reduced row echelon form, canonical and reproducible.
    """
    ncols = len(blocks[0])
    rows: list[list[int]] = []
    for block in blocks:
        den = math.lcm(*(p.den for p in block))
        scaled = [(p.nums, den // p.den) for p in block]
        for s in range(max(len(p.nums) for p in block)):
            row = [nums[s] * f if s < len(nums) else 0 for nums, f in scaled]
            if any(row):
                rows.append(_primitive(row))
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = _primitive([p * u - f * v for u, v in zip(row, prow)])
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(vec)
    return basis
