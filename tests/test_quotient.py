import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinforge import linalg
from artinforge.errors import (
    AmbientMismatchError,
    EquivarianceError,
    NotArtinianError,
)
from artinforge.groebner import buchberger, ideal_equal, ideal_member
from artinforge.paperlab import Workbench, build_ideal, expected_codimension
from artinforge.polyarith import (
    GREVLEX,
    Ideal,
    Polynomial,
    monomials_of_degree,
    xring,
    yring,
)
from artinforge.quotient import (
    QuotientAlgebra,
    annihilator,
    contract,
    equivariant_graded_trace,
    hilbert_series,
    socle_dimension,
    standard_monomials,
)
from artinforge.reptheory import Permutation

R3 = xring(3)


def quotient_J(n):
    return Workbench(n).quotient_J


def quotient_K(n):
    return Workbench(n).quotient_K


# ---------------------------------------------------------------------------
# standard monomials and Hilbert series

def test_standard_monomials_J3():
    basis = standard_monomials(Workbench(3).gb_J)
    assert set(basis.monomials) == {
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (0, 0, 2),
    }
    assert [len(level) for level in basis.by_degree] == [1, 3, 1]


def test_standard_monomials_of_maximal_ideal():
    gb = buchberger(build_ideal("I", 2))
    assert list(standard_monomials(gb)) == [(0, 0)]


def test_standard_monomials_requires_artinian():
    gb = buchberger(Ideal(xring(2), (xring(2).poly("x1"),)))
    with pytest.raises(NotArtinianError):
        standard_monomials(gb)


def test_standard_monomials_past_four_times_nvars():
    ring = xring(2)
    gb = buchberger(Ideal(ring, (ring.poly("x1^9"), ring.poly("x2^2"))))
    assert hilbert_series(standard_monomials(gb)) == [1, 2, 2, 2, 2, 2, 2, 2, 2, 1]
    assert len(QuotientAlgebra(gb).basis) == 18


def test_hilbert_series_examples():
    assert hilbert_series(standard_monomials(Workbench(3).gb_J)) == [1, 3, 1]
    assert hilbert_series(standard_monomials(Workbench(6).gb_J)) == [
        1, 6, 16, 26, 31, 26, 16, 6, 1,
    ]
    for n in range(3, 6):
        wb = Workbench(n)
        assert hilbert_series(standard_monomials(wb.gb_K)) == hilbert_series(
            standard_monomials(wb.gb_J)
        )


def test_hilbert_palindromy_and_total_dimension():
    for n in range(2, 6):
        wb = Workbench(n)
        h = hilbert_series(standard_monomials(wb.gb_K))
        assert h == h[::-1]
        assert sum(h) == expected_codimension(n)
        assert sum(hilbert_series(standard_monomials(wb.gb_J))) == sum(h)


# ---------------------------------------------------------------------------
# coordinates and multiplication matrices

def test_coords_examples():
    qk = quotient_K(3)
    vec = qk.coords(R3.poly("x1^2"))
    x3sq = qk.basis.monomials.index((0, 0, 2))
    assert vec[x3sq] == 1 and sum(map(abs, vec)) == 1
    assert qk.coords(Polynomial.zero(3)) == [0] * 5
    qj = quotient_J(3)
    assert qj.coords(R3.poly("x3^3")) == [0] * 5


def test_mult_matrix_J3_by_x3():
    q = quotient_J(3)
    m = q.mult_matrix(2)
    idx = {mono: i for i, mono in enumerate(q.basis.monomials)}
    one, x3, x3sq = idx[(0, 0, 0)], idx[(0, 0, 1)], idx[(0, 0, 2)]
    x1, x2 = idx[(1, 0, 0)], idx[(0, 1, 0)]
    col = lambda j: [m[r][j] for r in range(len(m))]
    assert col(one)[x3] == 1 and sum(map(abs, col(one))) == 1
    assert col(x3)[x3sq] == 1 and sum(map(abs, col(x3))) == 1
    assert col(x3sq) == [0] * 5
    assert col(x1) == [0] * 5 and col(x2) == [0] * 5


def test_mult_matrices_commute():
    for q in (quotient_K(3), quotient_K(4), quotient_J(4)):
        n = q.ring.nvars
        d = q.dimension
        mats = [q.mult_matrix(i) for i in range(n)]

        def mul(a, b):
            return [
                [sum(a[r][k] * b[k][c] for k in range(d)) for c in range(d)]
                for r in range(d)
            ]

        for i in range(n):
            for j in range(i + 1, n):
                assert mul(mats[i], mats[j]) == mul(mats[j], mats[i])


def test_trivial_quotient_mult_matrix():
    q = QuotientAlgebra(buchberger(build_ideal("I", 2)))
    assert q.mult_matrix(0) == ((0,),)
    assert q.mult_matrix(1) == ((0,),)


# ---------------------------------------------------------------------------
# socle

def test_socle_examples():
    for n in range(2, 6):
        assert socle_dimension(quotient_K(n)) == (1, True)
    assert socle_dimension(quotient_J(3)) == (3, False)
    assert socle_dimension(QuotientAlgebra(buchberger(build_ideal("I", 2)))) == (
        1,
        True,
    )


def test_socle_generic_path_matches_graded_path(monkeypatch):
    fresh = quotient_K(4)
    graded = socle_dimension(QuotientAlgebra(fresh.gb))
    q = QuotientAlgebra(fresh.gb)
    monkeypatch.setattr(QuotientAlgebra, "is_graded", lambda self: False)
    assert socle_dimension(q) == graded


def test_socle_of_reduced_points_is_the_origin_line():
    # inhomogeneous case exercises the mult-matrix intersection path
    q = QuotientAlgebra(buchberger(build_ideal("I", 3)))
    assert not q.is_graded()
    assert socle_dimension(q) == (1, True)


def test_socle_invariant_under_variable_relabelling():
    base = build_ideal("K_expected", 4)
    ring = base.ring
    relabel = {0: 1, 1: 0, 2: 3, 3: 2}
    gens = tuple(
        Polynomial(
            4,
            {
                tuple(m[relabel[i]] for i in range(4)): c
                for m, c in g.terms.items()
            },
        )
        for g in base.gens
    )
    q = QuotientAlgebra(buchberger(Ideal(ring, gens)))
    assert socle_dimension(q) == socle_dimension(quotient_K(4))


# ---------------------------------------------------------------------------
# equivariant traces

def test_trace_at_identity_is_hilbert():
    q = quotient_K(3)
    assert equivariant_graded_trace(q, Permutation.identity(3)) == [1, 3, 1]


def test_trace_K3_three_cycle():
    q = quotient_K(3)
    rho = Permutation.from_cycles(3, [[0, 1, 2]])
    assert equivariant_graded_trace(q, rho) == [1, 0, 1]


def test_trace_J3_transposition_of_first_two():
    q = quotient_J(3)
    tau = Permutation.from_cycles(3, [[0, 1]])
    assert equivariant_graded_trace(q, tau) == [1, 1, 1]


def test_trace_rejects_non_invariant_permutation():
    q = quotient_J(3)
    with pytest.raises(EquivarianceError):
        equivariant_graded_trace(q, Permutation.from_cycles(3, [[0, 2]]))


def test_trace_depends_only_on_conjugacy_class():
    q = quotient_K(4)
    rng = random.Random(11)
    sigma = Permutation.from_cycles(4, [[0, 1], [2, 3]])
    base = equivariant_graded_trace(q, sigma)
    for _ in range(5):
        image = list(range(4))
        rng.shuffle(image)
        tau = Permutation(tuple(image))
        conj = tau * sigma * tau.inverse()
        assert equivariant_graded_trace(q, conj) == base


# ---------------------------------------------------------------------------
# contraction and annihilators

def test_contract_examples():
    y2 = yring(2)
    g = y2.poly("y1^2 + y2^2")
    assert contract(Polynomial.variable(2, 0), g) == y2.poly("y1")
    g3 = build_ideal("g_dual", 3)
    assert not contract(R3.poly("x1*x2"), g3)
    assert contract(Polynomial.constant(3, 1), g3) == g3


def test_contract_bilinear_and_dimension_error():
    y2 = yring(2)
    g = y2.poly("2*y1^2*y2 - y2^3")
    f = Polynomial(2, {(1, 1): 1, (0, 0): 3})
    lhs = contract(f, g)
    rhs = contract(Polynomial.monomial((1, 1)), g) + 3 * g
    assert lhs == rhs
    with pytest.raises(AmbientMismatchError):
        contract(Polynomial.variable(3, 0), g)


# The original per-generator construction: a full catalecticant in every
# degree, a membership test per kernel vector and a fresh basis per admitted
# one.  Kept verbatim as the reference for the staircase-restricted version.
def reference_annihilator(
    g: Polynomial,
    n: "int | None" = None,
    pair_cap: "int | None" = None,
    check_cutoff: bool = False,
) -> Ideal:
    """The apolar ideal Ann(g) of a nonzero homogeneous dual polynomial.

    For each degree d from 1 to deg(g)+1 the kernel of the catalecticant map
    (degree-d forms f -> f contracted into g) is computed by exact
    nullspace; degrees beyond deg(g) consist of all monomials, so deg(g)+1
    suffices to generate.  Kernel elements already in the ideal generated so
    far are dropped, which leaves a small generating set of the same ideal.
    With ``check_cutoff`` the run asserts that degree deg(g)+2 contributes
    nothing new.
    """
    if not g:
        raise ValueError("annihilator of the zero polynomial")
    if not g.is_homogeneous():
        raise ValueError("annihilator requires a homogeneous dual polynomial")
    nv = g.nvars if n is None else n
    if nv != g.nvars:
        raise ValueError("variable count does not match the dual polynomial")
    ring = xring(nv)
    deg = g.total_degree()
    gens: list[Polynomial] = []
    gb = None

    def admit(p: Polynomial):
        nonlocal gb
        if gb is not None and ideal_member(p, gb):
            return
        gens.append(p)
        gb = buchberger(Ideal(ring, tuple(gens)), GREVLEX, pair_cap)

    for d in range(1, deg + 2):
        cols = monomials_of_degree(nv, d)
        if d > deg:
            for m in cols:
                admit(Polynomial.monomial(m))
            continue
        targets = monomials_of_degree(nv, deg - d)
        rows = [
            [g.terms.get(tuple(t + a for t, a in zip(tm, cm)), 0) for cm in cols]
            for tm in targets
        ]
        for vec in linalg.kernel_basis(rows, len(cols)):
            admit(Polynomial(nv, {m: c for m, c in zip(cols, vec) if c}))
    if check_cutoff:
        for m in monomials_of_degree(nv, deg + 2):
            if not ideal_member(Polynomial.monomial(m), gb):
                raise AssertionError(
                    "annihilator generation degree bound deg(g)+1 failed"
                )
    return Ideal(ring, tuple(gens), homogeneous=True)


def test_annihilator_matches_K():
    for n in range(3, 8):
        ann = annihilator(build_ideal("g_dual", n))
        k = build_ideal("K_expected", n)
        assert ideal_equal(ann, k)


def test_annihilator_matches_reference():
    for n in (3, 4, 5):
        g = build_ideal("g_dual", n)
        assert ideal_equal(annihilator(g), reference_annihilator(g))


@st.composite
def homogeneous_duals(draw):
    nv = draw(st.integers(2, 3))
    monos = monomials_of_degree(nv, draw(st.integers(0, 4)))
    coeffs = draw(
        st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos))
    )
    if not any(coeffs):
        coeffs[draw(st.integers(0, len(monos) - 1))] = 1
    return Polynomial(nv, dict(zip(monos, coeffs)))


@settings(max_examples=40, deadline=None)
@given(homogeneous_duals())
def test_annihilator_matches_reference_on_random_duals(g):
    ann = annihilator(g, check_cutoff=True)
    assert ideal_equal(ann, reference_annihilator(g))
    assert socle_dimension(QuotientAlgebra(buchberger(ann))) == (1, True)


def test_annihilator_certificate_catches_a_dropped_kernel_vector(monkeypatch):
    real = linalg.kernel_basis
    dropped = []

    def lossy(rows, ncols):
        basis = real(rows, ncols)
        if basis and not dropped:
            dropped.append(basis.pop())
        return basis

    monkeypatch.setattr(linalg, "kernel_basis", lossy)
    # g_5 has degree 6; the vector goes missing in degree 2 and the count
    # of standard monomials no longer matches degree 4
    with pytest.raises(AssertionError, match="not symmetric"):
        annihilator(build_ideal("g_dual", 5))
    assert dropped


def test_annihilator_principal():
    ann = annihilator(Polynomial.monomial((2,)))
    assert ideal_equal(ann, Ideal(xring(1), (xring(1).poly("x1^3"),)))


def test_annihilator_validates_input():
    with pytest.raises(ValueError):
        annihilator(Polynomial.zero(2))
    with pytest.raises(ValueError):
        annihilator(Polynomial(2, {(1, 0): 1, (0, 0): 1}))


def test_annihilator_cutoff_stability_and_high_degrees():
    g = build_ideal("g_dual", 3)
    ann = annihilator(g, check_cutoff=True)
    gb = buchberger(ann)
    d = g.total_degree()
    from artinforge.polyarith import monomials_of_degree

    for m in monomials_of_degree(3, d + 1):
        assert ideal_member(Polynomial.monomial(m), gb)


def test_annihilator_quotient_is_gorenstein():
    y2 = yring(2)
    for text in ("y1^3 + y2^3", "y1^2*y2", "y1^4 + y1^2*y2^2"):
        ann = annihilator(y2.poly(text))
        q = QuotientAlgebra(buchberger(ann))
        assert socle_dimension(q) == (1, True)
