from math import comb

import pytest

from artinforge import groebner, paperlab, quotient
from artinforge.paperlab import (
    CLAIMS,
    CyclotomicElement,
    SymbolicPoint,
    Workbench,
    bernoulli,
    build_ideal,
    challenge_series,
    cyclotomic_poly,
    enumerate_points,
    expected_codimension,
    partial_binomial_sum,
    verify,
    verify_points_satisfy_ideal,
)
from artinforge.polyarith import GREVLEX, xring, yring
from artinforge.reptheory import partitions, xn_character


# ---------------------------------------------------------------------------
# builders

def test_build_I3_exact_generators():
    i3 = build_ideal("I", 3)
    ring = i3.ring
    assert list(i3.gens) == [
        ring.poly("x2*x3 - x1"),
        ring.poly("x1*x3 - x2"),
        ring.poly("x1*x2 - x3"),
    ]


def test_build_I2_degenerate():
    i2 = build_ideal("I", 2)
    assert list(i2.gens) == [i2.ring.poly("x1"), i2.ring.poly("x2")]


def test_build_J_expected_3():
    j3 = build_ideal("J_expected", 3)
    texts = {j3.ring.fmt(g) for g in j3.gens}
    assert texts == {"x1^2", "x2^2", "x1*x2", "x1*x3", "x2*x3", "x3^3"}


def test_build_K_expected_3():
    k3 = build_ideal("K_expected", 3)
    texts = {k3.ring.fmt(g) for g in k3.gens}
    assert texts == {"x1^2 - x3^2", "x2^2 - x3^2", "x2*x3", "x1*x3", "x1*x2"}


def test_build_g_dual_verbatim():
    y3 = yring(3)
    assert build_ideal("g_dual", 3) == y3.poly("y1^2 + y2^2 + y3^2")
    y4 = yring(4)
    expected = y4.poly(
        "y1^4 + y1^2*y2^2 + y2^4 + y1^2*y3^2 + y2^2*y3^2 + y3^4"
        " + y1^2*y4^2 + y2^2*y4^2 + y3^2*y4^2 + y4^4"
    )
    g4 = build_ideal("g_dual", 4)
    assert g4 == expected
    assert len(g4.terms) == 10


def test_build_L_and_Q_shapes():
    L = build_ideal("L", 4)  # three ambient variables
    assert L.ring == xring(3)
    assert {L.ring.fmt(g) for g in L.gens} == {
        "x1^2 - x3^2",
        "x2^2 - x3^2",
        "x1*x2*x3",
    }
    Q = build_ideal("Q", 4)
    assert Q.ring.names == ("x1", "x2", "x3", "x4", "z")
    assert {Q.ring.fmt(g) for g in Q.gens} == {
        "x1^2 - x3^2",
        "x2^2 - x3^2",
        "x1*x2*x3",
        "x2*x3*x4",
        "x1*x3*x4",
        "x1*x2*x4",
        "-x3^2 + x4*z",
    }


def test_build_ideal_range_errors():
    with pytest.raises(ValueError):
        build_ideal("I", 1)
    with pytest.raises(ValueError):
        build_ideal("K_expected", 2)
    with pytest.raises(ValueError):
        build_ideal("nonsense", 4)


# ---------------------------------------------------------------------------
# points

def test_points_n3_match_known_configuration():
    pts = enumerate_points(3)
    assert pts[0].is_origin
    signs = {p.eps for p in pts[1:]}
    assert signs == {(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)}
    assert all(p.k == 0 for p in pts[1:])


def test_point_counts():
    assert len(enumerate_points(4)) == 17
    assert len(enumerate_points(5)) == 49
    for n in range(3, 9):
        assert len(enumerate_points(n)) == expected_codimension(n)


def test_point_validation():
    with pytest.raises(ValueError):
        enumerate_points(2)
    with pytest.raises(ValueError):
        SymbolicPoint(4, 0, (1, 1, 1, -1))  # sign product must be +1
    with pytest.raises(ValueError):
        SymbolicPoint(4, 5, (1, 1, 1, 1))


def test_points_satisfy_ideal():
    for n in (3, 4, 5):
        assert verify_points_satisfy_ideal(n).status == "pass"


# ---------------------------------------------------------------------------
# cyclotomic arithmetic

def test_cyclotomic_polynomials():
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(1) == (-1, 1)


def test_roots_of_unity_are_primitive():
    for m in range(1, 17):
        xi = CyclotomicElement.root(m)
        assert xi**m == CyclotomicElement.integer(m, 1)
        for d in range(1, m):
            if m % d == 0:
                assert xi**d != CyclotomicElement.integer(m, 1)


def test_cyclotomic_ring_arithmetic():
    xi = CyclotomicElement.root(4)
    assert xi * xi == CyclotomicElement.integer(4, -1)
    assert (xi + 1) * (xi - 1) == CyclotomicElement.integer(4, -2)
    assert hash(xi) == hash(CyclotomicElement.root(4))


# ---------------------------------------------------------------------------
# the triangle

TRIANGLE_ROWS = {
    2: [1],
    3: [1, 3, 1],
    4: [1, 4, 7, 4, 1],
    5: [1, 5, 11, 15, 11, 5, 1],
    6: [1, 6, 16, 26, 31, 26, 16, 6, 1],
}


def test_triangle_rows():
    for n, row in TRIANGLE_ROWS.items():
        assert bernoulli(n) == row
    with pytest.raises(ValueError):
        bernoulli(1)


def test_triangle_recursion_symmetry_increase():
    b = partial_binomial_sum
    for n in range(2, 13):
        for k in range(1, n - 1):
            assert b(n - 1, k) == b(n - 2, k - 1) + b(n - 2, k)
        row = bernoulli(n)
        assert row == row[::-1]
        mid = n - 2
        assert all(row[k] < row[k + 1] for k in range(mid))
        assert row[mid] == 2 ** (n - 1) - 1


def test_row_sum_and_identity_checks():
    # c_n = 1 + (n-2)*2^(n-1) is the row sum and a weighted binomial sum
    for n in range(2, 13):
        assert sum(bernoulli(n)) == expected_codimension(n)
        lhs = sum((2 * j + 1) * comb(n - 1, n - 2 - j) for j in range(n - 1))
        assert lhs == expected_codimension(n)


def test_middle_term_example():
    assert bernoulli(5)[3] == 15


# ---------------------------------------------------------------------------
# verification registry

def test_claim_registry_is_complete():
    assert set(CLAIMS) == {
        "prop2_codim",
        "thm1",
        "prop3_generators",
        "prop3_basis",
        "thm2",
        "thm3",
        "prop4_generators",
        "thmG",
        "inverse_system",
        "not_gorenstein_J",
        "appendix_colon",
        "appendix_unprojection",
        "appendix_regularity",
        "appendix_krull",
        "challenge",
    }


def test_verify_input_validation():
    with pytest.raises(ValueError):
        verify("no_such_claim", 3)
    with pytest.raises(ValueError):
        verify("thm1", 1)
    with pytest.raises(ValueError):
        verify("thm1", 9)
    with pytest.raises(ValueError):
        verify("thm1", 3, Workbench(4))
    with pytest.raises(ValueError):
        Workbench(9)


def test_claims_on_one_workbench_share_one_basis_of_I(monkeypatch):
    wb = Workbench(5)
    inputs = []
    real = paperlab.buchberger

    def counting(ideal, *args, **kwargs):
        inputs.append(ideal)
        return real(ideal, *args, **kwargs)

    monkeypatch.setattr(paperlab, "buchberger", counting)
    for claim in ("prop2_codim", "prop3_basis", "prop3_generators", "thm2"):
        assert verify(claim, 5, wb).status == "pass"
    assert len(inputs) == 1 and inputs[0] is wb.ideal_I


def test_registry_on_one_workbench_completes_each_basis_once(monkeypatch):
    wb = Workbench(6)
    inputs = []
    in_colon = []
    real_buchberger, real_colon = groebner.buchberger, groebner.colon_ideal

    def counting(ideal, order=GREVLEX, pair_cap=None):
        if not in_colon:
            gens = tuple(tuple(sorted(g.terms.items())) for g in ideal.gens)
            inputs.append((ideal.ring, order, gens))
        return real_buchberger(ideal, order, pair_cap)

    def colon(*args):
        in_colon.append(True)
        try:
            return real_colon(*args)
        finally:
            in_colon.pop()

    for module in (groebner, paperlab, quotient):
        monkeypatch.setattr(module, "buchberger", counting)
    monkeypatch.setattr(paperlab, "colon_ideal", colon)
    for claim in CLAIMS:
        if claim != "inverse_system":
            assert verify(claim, 6, wb).status == "pass", claim
    # I, K, K_5, L, Q, the top forms of I, L + <x5^2>, Q at z -> x6, Q + <z - x6>
    assert len(inputs) == 9
    assert len(set(inputs)) == len(inputs)


def test_verify_skips_below_minimum():
    report = verify("prop3_generators", 2)
    assert report.status == "skipped"
    assert "n >= 3" in report.witness


def test_verify_thm2_n6():
    report = verify("thm2", 6)
    assert report.status == "pass"


def test_verify_unprojection_n4():
    assert verify("appendix_unprojection", 4).status == "pass"


def test_every_claim_passes_for_small_n():
    for claim in CLAIMS:
        for n in (2, 3, 4):
            report = verify(claim, n)
            assert report.status in ("pass", "skipped"), (claim, n, report.witness)
            if n >= 3:
                assert report.status == "pass", (claim, n, report.witness)


def test_challenge_series_n3_exact():
    series = challenge_series(Workbench(3))
    values = {
        d: [cf(lam) for lam in partitions(3)] for d, cf in series.terms
    }
    assert values == {0: [1, 1, 1], 1: [3, 1, 0], 2: [1, 1, 1]}
    assert series.at_t1() == xn_character(3)


def test_report_json_shape():
    report = verify("thm1", 3)
    data = report.to_json_dict()
    assert data == {"claim": "thm1", "n": 3, "status": "pass"}
    timed = report.to_json_dict(include_millis=True)
    assert set(timed) == {"claim", "n", "status", "millis"}
    assert isinstance(timed["millis"], int)


def test_thmG_records_embedding_dimension():
    report = verify("thmG", 4)
    assert report.status == "pass"
    assert "embedding dimension 4" in report.witness


def test_not_gorenstein_witness_n3():
    report = verify("not_gorenstein_J", 3)
    assert report.status == "pass"
    assert "x1" in report.witness and "x3^2" in report.witness
