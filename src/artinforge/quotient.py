"""Artinian quotient toolkit.

Everything here works inside R/I presented by a reduced Groebner basis: the
staircase complement (standard monomials) is the vector-space basis, and one
lazily filled table of normal forms per :class:`QuotientAlgebra`, which
divides only leading monomials of the basis, gives the socle (by sparse
exact rank) and the equivariant traces, whose invariance check runs once per
generator of the group; a permutation moves monomials by
:func:`reptheory.act`.  The dual side (contraction action and annihilators
of dual polynomials) realises Macaulay's inverse systems.
"""

from __future__ import annotations

from . import linalg
from .errors import AmbientMismatchError, EquivarianceError
from .groebner import (
    GroebnerBasis,
    StandardBasis,
    _next_level,
    _shift,
    buchberger,
    ideal_member,  # noqa: F401  unused here; bench/tracing.py wraps this binding
    standard_monomials,
)
from .polyarith import (
    GREVLEX,
    Ideal,
    Monomial,
    Polynomial,
    _norm_coeff,
    _normal_form,
    _reducer_info,
    mono_div,
    mono_divides,
    xring,
)
from .reptheory import act


def hilbert_series(basis: StandardBasis) -> list[int]:
    """Coefficient k counts the standard monomials of degree k."""
    return [len(level) for level in basis.by_degree]


class QuotientAlgebra:
    """R/I with a fixed monomial basis and one table of normal forms.

    ``_table`` maps a monomial to its normal form as a sparse coordinate
    vector ``{basis index: coeff}`` and fills on demand.  A standard
    monomial is its own unit vector, and a leading monomial of the basis is
    divided once, through :meth:`normal_form`.  Any other monomial m off the
    staircase is x_i * (m/x_i) for the last variable x_i with m/x_i off the
    staircase too (a leading monomial divides m properly, so one exists):
    NF(m) = sum of c_b NF(x_i b) over the terms c_b b of NF(m/x_i).
    """

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self.basis = standard_monomials(gb)
        self._index = {m: i for i, m in enumerate(self.basis.monomials)}
        self._info = _reducer_info(gb.elements, gb.order)
        self._lms = set(gb.leading_monomials())
        self._table = {m: {i: 1} for m, i in self._index.items()}

    @property
    def ring(self):
        return self.gb.ring

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return Polynomial(f.nvars, _normal_form(f.terms, self._info, self.gb.order))

    def vector(self, m: Monomial) -> dict:
        """NF(m) as ``{basis index: coeff}``; shared, do not mutate."""
        table, index, basis = self._table, self._index, self.basis.monomials
        todo = [m]  # a stack, not recursion: each entry waits on those above it
        while todo:
            top = todo[-1]
            if top in table:
                todo.pop()
            elif top in self._lms:
                nf = self.normal_form(Polynomial.monomial(top))
                table[top] = {index[t]: c for t, c in nf.terms.items()}
            else:  # top = x_i * below for the last x_i with below off the staircase
                i = len(top) - 1
                while not top[i] or _shift(top, i, -1) in index:
                    i -= 1
                below = _shift(top, i, -1)
                if below not in table:
                    todo.append(below)
                    continue
                ups = [(_shift(basis[b], i, 1), c) for b, c in table[below].items()]
                missing = [u for u, _ in ups if u not in table]
                todo += missing
                if not missing:
                    table[top] = self.combine(ups)
        return table[m]

    def combine(self, terms) -> dict:
        """NF of the sum of c*m over (m, c) in ``terms``, as a vector."""
        out: dict = {}
        for m, c in terms:
            for r, v in self.vector(m).items():
                out[r] = out.get(r, 0) + c * v
        return {r: _norm_coeff(v) for r, v in out.items() if v}


def socle_dimension(q: QuotientAlgebra) -> tuple[int, bool]:
    """Dimension of the annihilator of (x_1, ..., x_n) in R/I, plus the
    Gorenstein verdict (socle dimension one).

    The socle is the kernel of the stacked multiplication matrices
    [M_1; ...; M_n], so its dimension is dim - rank of the vectors
    {(i, r): NF(x_i b)_r}, one per basis element b.
    """
    nv = q.ring.nvars
    rows = [
        {(i, r): c for i in range(nv) for r, c in q.vector(_shift(b, i, 1)).items()}
        for b in q.basis.monomials
    ]
    dim = q.dimension - linalg.rank(rows)
    return dim, dim == 1


def graded_traces(q: QuotientAlgebra, perms, group) -> list:
    """For each of ``perms`` (image tuples), the trace, degree by degree, of
    the linear map induced on R/I by the permutation x_i -> x_perm[i].

    The defining ideal must be invariant under every permutation of
    ``group``, given as generators of a group that contains ``perms``; it is
    checked once per generator by reducing the image of every Groebner basis
    element.  Permuting variables preserves degree, so each map is block
    diagonal over the degree levels.
    """
    nv = q.ring.nvars
    moves = [act(perm, nv) for perm in perms]
    for move in (act(p, nv) for p in group):
        for g in q.gb.elements:
            if q.combine((move(m), c) for m, c in g.terms.items()):
                raise EquivarianceError(
                    "defining ideal is not invariant under the permutation"
                )
    index, levels = q._index, q.basis.by_degree
    return [
        [sum(q.vector(move(m)).get(index[m], 0) for m in level) for level in levels]
        for move in moves
    ]


def equivariant_graded_trace(q: QuotientAlgebra, perm) -> list:
    """The graded trace of one permutation, given as its image tuple; see
    :func:`graded_traces`, with the ideal checked under ``perm`` itself."""
    return graded_traces(q, (perm,), (perm,))[0]


# ---------------------------------------------------------------------------
# Macaulay inverse systems

def contract(f: Polynomial, g: Polynomial) -> Polynomial:
    """Apolarity contraction: x^a acts on y^b giving y^(b-a) when b >= a
    componentwise and zero otherwise, extended bilinearly."""
    if f.nvars != g.nvars:
        raise AmbientMismatchError(
            "contraction needs matching primal and dual variable counts"
        )
    out: dict[Monomial, object] = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            if mono_divides(a, b):
                m = mono_div(b, a)
                out[m] = out.get(m, 0) + ca * cb
    return Polynomial(f.nvars, out)  # drops the terms that cancelled


def annihilator(g: Polynomial, pair_cap: "int | None" = None) -> GroebnerBasis:
    """The reduced GRevLex basis of the apolar ideal Ann(g) of a nonzero
    homogeneous dual polynomial.

    Degree by degree, Ann(g)_d = I_d + ker C_d, where I is generated by the
    lower degrees and the catalecticant C_d (f -> f contracted into g) acts
    on the degree-d standard monomials of I only.  These are independent
    modulo I, so every kernel vector is a new minimal generator, and one
    Groebner basis update per degree follows.  Past deg(g) the catalecticant
    vanishes and every standard monomial is a generator; deg(g)+1 suffices.
    Column a of C_d has the entry c at row b - a for each term c*y^b of g
    with a | b; those terms are the intersection, over the support of a, of
    an index (i, k) -> {terms with b_i >= k} built once.

    R/Ann(g) is Gorenstein, so its Hilbert function must be symmetric with
    h_deg(g) = 1; a staircase that breaks this raises AssertionError.
    """
    if not g:
        raise ValueError("annihilator of the zero polynomial")
    if not g.is_homogeneous():
        raise ValueError("annihilator requires a homogeneous dual polynomial")
    nv, deg = g.nvars, g.total_degree()
    ring = xring(nv)
    gens: list[Polynomial] = []
    gb = GroebnerBasis(ring, GREVLEX, ())  # of the generators found so far
    lms = gb.leading_monomials()
    terms = list(g.terms.items())
    index: dict = {}  # (i, k) -> positions of the terms b of g with b_i >= k
    for t, (b, _) in enumerate(terms):
        for i, e in enumerate(b):
            for k in range(1, e + 1):
                index.setdefault((i, k), set()).add(t)
    level = [(0,) * nv]
    hilbert = [1]
    for d in range(1, deg + 2):
        cols = _next_level(level, lms, GREVLEX.key)
        rows: dict[Monomial, dict] = {}  # row b - a of column a | b
        for j, a in enumerate(cols):
            sets = [index.get((i, e), set()) for i, e in enumerate(a) if e]
            for t in sorted(set.intersection(*sets)):
                b, c = terms[t]
                rows.setdefault(mono_div(b, a), {})[j] = c
        new = [
            Polynomial(nv, {m: c for m, c in zip(cols, vec) if c})
            for vec in linalg.kernel_basis(list(rows.values()), len(cols))
        ]
        if new:
            gens += new
            gb = buchberger(Ideal(ring, tuple(gens)), GREVLEX, pair_cap)
            lms = gb.leading_monomials()
        # lower degrees of the ideal are unchanged, so a degree-d standard
        # monomial of the old basis leaves the staircase only as a new lm
        lm_set = set(lms)
        level = [m for m in cols if m not in lm_set]
        hilbert.append(len(level))
        if d <= deg <= 2 * d and hilbert[d] != hilbert[deg - d]:
            raise AssertionError(
                f"Hilbert function {hilbert} of R/Ann(g) is not symmetric"
            )
    return gb
