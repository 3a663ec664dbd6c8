"""The exact nullspace solver against the reference: Gauss-Jordan
elimination on rows of Fractions, built from the coefficients of the
polynomial images."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from xsuperint.polynomials import Poly
from xsuperint.utils import fraction_nullspace


def reference_nullspace(rows, ncols):
    """Basis of the right nullspace of a Fraction matrix by Gauss-Jordan
    elimination, one vector per free column with a 1 in its free slot."""
    mat = [list(row) for row in rows]
    pivots = []
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


def reference_rows(blocks):
    """One Fraction row per power of x in each block."""
    return [[p.coeff(s) for p in block]
            for block in blocks
            for s in range(max(p.degree for p in block) + 1)]


RATIONALS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-10 ** 9, max_value=10 ** 9,
                 max_denominator=10 ** 9))


@st.composite
def systems(draw):
    """Blocks of coefficient lists, the same number of unknowns in each.
    Some unknowns have a zero image in every block, and some images are one
    fixed combination of two others in every block, so that rank-deficient
    systems come up often."""
    ncols = draw(st.integers(1, 5))
    nblocks = draw(st.integers(1, 3))
    blocks = [[draw(st.lists(RATIONALS, max_size=4)) for _ in range(ncols)]
              for _ in range(nblocks)]
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for block in blocks:
            block[j] = []
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        a, b = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        u, v = draw(RATIONALS), draw(RATIONALS)
        for block in blocks:
            block[j] = (Poly(block[a]) * u + Poly(block[b]) * v).coeffs
    return blocks


@settings(max_examples=100, deadline=None)
@given(systems())
# no nonzero row, in one block and in two; then one block of rank one
@example([[[], [], []]])
@example([[[], [0, 0]], [[0], []]])
@example([[[1, 2], [2, 4], [3, 6]]])
def test_nullspace_matches_gauss_jordan(coeffs):
    blocks = [[Poly(c) for c in block] for block in coeffs]
    basis = fraction_nullspace(blocks)
    assert basis == reference_nullspace(reference_rows(blocks), len(blocks[0]))
    for vec in basis:
        for block in blocks:
            assert sum((p * v for p, v in zip(block, vec)),
                       Poly.zero()).is_zero()

