from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from artinforge import linalg, quotient
from artinforge.linalg import _primitive, kernel_basis, rank
from artinforge.paperlab import build_ideal


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


# The dense Bareiss kernel that the sparse elimination replaced, kept
# verbatim (only renamed) as the reference for ``kernel_basis``.
def _int_rows(rows):
    """Scale each row by the lcm of its denominators; kernels are unchanged."""
    out = []
    for row in rows:
        scale = lcm(*(c.denominator for c in row))
        out.append([int(c * scale) for c in row])
    return out


def _echelon(rows, ncols):
    """Bareiss row echelon form. Returns (echelon rows, pivot columns)."""
    m = _int_rows(rows)
    nrows = len(m)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pivot = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            mic = row_i[c]
            for k in range(c + 1, ncols):
                row_i[k] = (pivot * row_i[k] - mic * row_r[k]) // prev
            row_i[c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def reference_kernel_basis(rows, ncols: int) -> list[list[int]]:
    """A basis of the right kernel, one primitive integer vector per free
    column, in ascending column order (deterministic)."""
    ech, pivots = _echelon(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x: list = [0] * ncols
        x[f] = 1
        for r in range(len(pivots) - 1, -1, -1):
            p = pivots[r]
            row = ech[r]
            s = 0
            for c in range(p + 1, ncols):
                if row[c] and x[c]:
                    s += row[c] * x[c]
            if s:
                x[p] = Fraction(-s, row[p])
            else:
                x[p] = 0
        basis.append(_primitive(x))
    return basis


@st.composite
def kernel_matrices(draw):
    """Up to 12 x 8, mostly zero: each row lives on one of up to three
    column blocks (one block is a general matrix; the blocks interleave
    like exponent parities), with zero rows and rescaled duplicates."""
    ncols = draw(st.integers(1, 8))
    nblocks = draw(st.integers(1, 3))
    block_of = [draw(st.integers(0, nblocks - 1)) for _ in range(ncols)]
    sparse_entries = st.one_of(st.just(0), entries)
    rows: list[list] = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["block", "block", "zero", "duplicate"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "duplicate" and rows:
            scale = draw(entries.filter(bool))
            rows.append([scale * c for c in draw(st.sampled_from(rows))])
        else:
            b = draw(st.integers(0, nblocks - 1))
            rows.append([
                draw(sparse_entries) if block_of[c] == b else 0
                for c in range(ncols)
            ])
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(kernel_matrices(), st.randoms(use_true_random=False))
def test_kernel_basis_matches_reference(mat, rnd):
    rows, ncols = mat
    expected = reference_kernel_basis(rows, ncols)
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    for form in (rows, sparse(rows), shuffled, sparse(shuffled)):
        assert kernel_basis(form, ncols) == expected
    assert rank(sparse(shuffled)) == ncols - len(expected)


def test_kernel_basis_matches_reference_on_tall_block_diagonal_matrix():
    # 12 x 4 with two interleaved 2-column blocks of rank one and two
    rows = [[k, 0, -2 * k, 0] for k in range(1, 7)]
    rows += [[0, 1, 0, k] for k in range(6)]
    assert kernel_basis(rows, 4) == reference_kernel_basis(rows, 4) == [[2, 0, 1, 0]]


def test_every_catalecticant_of_g3_to_g6_matches_reference(monkeypatch):
    seen = []
    real = linalg.kernel_basis

    def recording(rows, ncols):
        basis = real(rows, ncols)
        seen.append((rows, ncols, basis))
        return basis

    monkeypatch.setattr(linalg, "kernel_basis", recording)
    for n in range(3, 7):
        quotient.annihilator(build_ideal("g_dual", n))
    assert len(seen) >= 4 * 3
    for rows, ncols, basis in seen:
        assert all(isinstance(row, dict) for row in rows)
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert basis == reference_kernel_basis(dense, ncols)
