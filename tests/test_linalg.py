from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from artinforge.linalg import kernel_basis, rank


def gauss_rank(rows, ncols):
    """Independent oracle: plain Fraction Gaussian elimination."""
    m = [[Fraction(c) for c in row] for row in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 5))
    rows = [
        [draw(entries) for _ in range(ncols)] for _ in range(nrows)
    ]
    return rows, ncols


def sparse(rows):
    """Dense rows as ``{column: value}`` dicts, zero entries left out."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


@given(matrices())
def test_rank_matches_gauss(mat):
    rows, ncols = mat
    assert rank(sparse(rows)) == gauss_rank(rows, ncols)
    # explicit zeros and empty rows change nothing
    padded = [dict(enumerate(row)) for row in rows] + [{}]
    assert rank(padded) == gauss_rank(rows, ncols)


def test_rank_with_fractions_empty_rows_and_tuple_columns():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert rank([{0: half, 1: third}, {}, {0: 3, 1: 2}]) == 1
    assert rank([{(0, 1): half}, {(1, 0): third}, {(0, 1): 1, (1, 0): 1}]) == 2
    assert rank([{}, {}]) == 0


@given(matrices())
def test_kernel_vectors_annihilate_and_span(mat):
    rows, ncols = mat
    basis = kernel_basis(rows, ncols)
    for v in basis:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0
    assert len(basis) == ncols - gauss_rank(rows, ncols)
    # primitive integer vectors with positive leading entry
    for v in basis:
        assert all(isinstance(c, int) for c in v)
        lead = next(c for c in v if c)
        assert lead > 0


def test_identity_has_trivial_kernel():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert kernel_basis(eye, 4) == []
    assert rank(sparse(eye)) == 4


def test_zero_and_empty_matrices():
    assert kernel_basis([[0, 0], [0, 0]], 2) == [[1, 0], [0, 1]]
    assert kernel_basis([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank([]) == 0
