"""Exact linear algebra over the rationals.

One sparse fraction-free elimination serves both :func:`rank` and
:func:`kernel_basis`.  Rows are ``{column: value}`` dicts scaled to
integers; a column -> rows index lets each pivot clear only the rows that
touch its column, and every combined row is divided by its content, which
keeps entries small.  Pivot columns are taken in ascending order, so the
free columns are exactly those that depend on earlier ones, and only the
final back-substitution touches Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _eliminate(rows) -> dict:
    """Echelon rows ``{pivot column: row}`` of integer columns; each row
    has its pivot as its least column.  ``rows`` may be dicts or lists."""
    live: dict = {}
    touching: dict = {}
    for k, row in enumerate(rows):
        pairs = row.items() if isinstance(row, dict) else enumerate(row)
        entries = [(c, v) for c, v in pairs if v]
        if not entries:
            continue
        scale = lcm(*(v.denominator for _, v in entries))
        live[k] = {c: int(v * scale) for c, v in entries}
        for c, _ in entries:
            touching.setdefault(c, set()).add(k)
    pivots = {}
    for col in sorted(touching):
        hits = touching[col]
        if not hits:
            continue
        k = min(hits, key=lambda j: (len(live[j]), j))
        row = pivots[col] = live.pop(k)
        for c in row:
            touching[c].discard(k)
        for j in sorted(hits):
            other = live[j]
            p, q = row[col], other[col]
            new = {c: p * v for c, v in other.items()}
            for c, v in row.items():
                new[c] = new.get(c, 0) - q * v
            new = {c: v for c, v in new.items() if v}
            for c in other.keys() - new.keys():
                touching[c].discard(j)
            for c in new.keys() - other.keys():
                touching[c].add(j)
            if new:
                content = gcd(*new.values())
                live[j] = {c: v // content for c, v in new.items()}
            else:
                del live[j]
    return pivots


def rank(rows) -> int:
    """Rank of a sparse matrix given as rows ``{column: value}``; columns
    may be any hashable keys (numbered in first-seen order)."""
    position: dict = {}
    return len(_eliminate(
        {position.setdefault(c, len(position)): v for c, v in row.items()}
        for row in rows
    ))


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
    column, in ascending column order (deterministic).  Rows are lists of
    ``ncols`` entries or ``{column: value}`` dicts."""
    pivots = _eliminate(rows)
    descending = sorted(pivots, reverse=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = {f: 1}  # x_f = 1, the other free columns 0
        for p in descending:
            if p < f:
                row = pivots[p]
                s = sum(v * x[c] for c, v in row.items() if c in x)
                if s:
                    x[p] = Fraction(-s, row[p])
        basis.append(_primitive([x.get(c, 0) for c in range(ncols)]))
    return basis
