"""Exact linear algebra shared by the solvers."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def fraction_nullspace(rows: Sequence[Sequence[Fraction]], ncols: int
                       ) -> list[list[Fraction]]:
    """Basis of the right nullspace of an exact rational matrix (Gauss-Jordan).

    Rows may be ragged-free lists of Fractions; the result is one vector per
    free column, each with a 1 in its free slot, so the basis is canonical and
    reproducible.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -mat[ri][fc]
        basis.append(vec)
    return basis
