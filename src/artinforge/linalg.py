"""Exact linear algebra over the rationals.

Kernels use dense Bareiss condensation: forward elimination is fraction-free
on integer rows, so every intermediate entry is a minor of the input
matrix, and only the final back-substitution touches Fractions.  These
matrices are plain lists of rows; an explicit column count allows empty
ones.  :func:`rank` works on sparse rows instead, for matrices with few
nonzeros per row, such as stacked multiplication matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def rank(rows) -> int:
    """Rank of a sparse matrix given as rows ``{column: value}``; columns
    may be any hashable keys.

    Fraction-free elimination: each row is scaled to integers first, and a
    pivot clears its column only from the rows that have an entry there.
    The pivot column of a row is the one fewest other rows touch, and every
    combined row is divided by its content, which keeps entries small.
    """
    live: dict = {}
    touching: dict = {}
    for k, row in enumerate(rows):
        scale = lcm(*(v.denominator for v in row.values()))
        live[k] = {c: int(v * scale) for c, v in row.items() if v}
        for c in live[k]:
            touching.setdefault(c, set()).add(k)
    found = 0
    while live:
        k, row = live.popitem()
        if not row:
            continue
        found += 1
        for c in row:
            touching[c].discard(k)
        col = min(row, key=lambda c: len(touching[c]))
        for j in sorted(touching[col]):
            other = live[j]
            new = {c: row[col] * v for c, v in other.items()}
            for c, v in row.items():
                new[c] = new.get(c, 0) - other[col] * v
            new = {c: v for c, v in new.items() if v}
            for c in other.keys() - new.keys():
                touching[c].discard(j)
            for c in new.keys() - other.keys():
                touching[c].add(j)
            content = gcd(*new.values())
            live[j] = {c: v // content for c, v in new.items()}
    return found


def _primitive(vec):
    """Clear denominators and divide by the content; first nonzero entry > 0."""
    scale = lcm(*(c.denominator for c in vec))
    ints = [int(c * scale) for c in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    lead = next((c for c in ints if c), 0)
    if lead < 0:
        ints = [-c for c in ints]
    return ints


def kernel_basis(rows, ncols: int) -> list[list[int]]:
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
