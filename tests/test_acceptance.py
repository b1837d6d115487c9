"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything is exact arithmetic, so every comparison is plain equality; the
only tolerances anywhere are the two wall-clock budgets in criterion 1.
Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
"""

import json
import time
from math import comb

from artinforge import cli
from artinforge.groebner import (
    DEFAULT_PAIR_CAP,
    GroebnerBasis,
    buchberger,
    ideal_equal,
    substitute_ideal,
)
from artinforge.paperlab import (
    Workbench,
    _k_homogeneous,
    bernoulli,
    build_ideal,
    challenge_series,
    enumerate_points,
    expected_codimension,
    verify_points_satisfy_ideal,
)
from artinforge.polyarith import GREVLEX, Ideal, Polynomial, xring
from artinforge.quotient import (
    QuotientAlgebra,
    annihilator,
    equivariant_graded_trace,
    hilbert_series,
    socle_dimension,
    standard_monomials,
)
from artinforge.reptheory import (
    conjugacy_classes,
    half_powerset_character,
    partitions,
    powerset_character,
    subset_character,
    trivial_character,
    xn_character,
)
from test_groebner import is_regular_element, krull_dim_monomial, top_form_basis
from test_polyarith import yring

CAP = DEFAULT_PAIR_CAP


# The criteria complete I_n and build R/J_n themselves, as the claims no
# longer do: the registry certifies J_n = in(K_n) instead.
def gb_I(n):
    return buchberger(build_ideal("I", n), GREVLEX, CAP)


def quotient_J(n):
    lms = gb_I(n).leading_monomials()
    elems = tuple(Polynomial.monomial(m) for m in lms)
    return QuotientAlgebra(GroebnerBasis(xring(n), GREVLEX, elems))


def verdict(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {detail}"


def test_criterion_01_codimension():
    dims = {}
    t_small = time.perf_counter()
    for n in range(2, 7):
        dims[n] = len(standard_monomials(gb_I(n)))
    small_elapsed = time.perf_counter() - t_small
    t_large = time.perf_counter()
    dims[7] = len(standard_monomials(gb_I(7)))
    large_elapsed = time.perf_counter() - t_large

    expected = {n: expected_codimension(n) for n in range(2, 8)}
    ok = (
        dims == expected
        and list(expected.values()) == [1, 5, 17, 49, 129, 321]
        and small_elapsed < 10.0
        and large_elapsed < 300.0
    )
    verdict(
        1,
        "codimension",
        ok,
        f"dims {list(dims.values())}, n<=6 in {small_elapsed:.2f}s, "
        f"n=7 in {large_elapsed:.2f}s",
    )


def test_criterion_02_reducedness_certificate():
    ok = True
    detail = ""
    for n in range(3, 7):
        points = enumerate_points(n)
        count = len(points)
        wb = Workbench(n)
        dim = len(standard_monomials(gb_I(n)))
        witness = verify_points_satisfy_ideal(wb.ideal_I, points)
        if count != dim or witness is not None:
            ok = False
            detail = f"n={n}: count {count}, dim {dim}, points {witness}"
            break
    verdict(2, "reducedness certificate", ok, detail)


def test_criterion_03_point_set_character():
    ok = True
    detail = ""
    for n in range(3, 8):
        chi = xn_character(n)
        even_form = 2 * trivial_character(n) + (n - 2) * powerset_character(n)
        if 2 * chi != even_form:
            ok, detail = False, f"n={n} doubled identity fails"
            break
        if n % 2 == 1:
            odd_form = trivial_character(n) + (n - 2) * half_powerset_character(n)
            if chi != odd_form:
                ok, detail = False, f"n={n} odd identity fails"
                break
    spot = [xn_character(3)(lam) for lam in partitions(3)]
    if spot != [5, 3, 2]:
        ok, detail = False, f"spot values {spot}"
    verdict(3, "point-set character", ok, detail)


def test_criterion_04_initial_ideal_and_basis():
    ok = True
    detail = ""
    for n in range(3, 7):
        gb = gb_I(n)
        got = set(gb.leading_monomials())
        expected = {g.leading_monomial() for g in build_ideal("J_expected", n).gens}
        if got != expected:
            ok, detail = False, f"n={n} generator sets differ"
            break
        basis = set(standard_monomials(gb).monomials)
        expected_basis = set()
        for j in range(n - 1):
            from itertools import combinations

            for t_set in combinations(range(n - 1), n - 2 - j):
                for s in range(2 * j + 1):
                    exp = [0] * n
                    for i in t_set:
                        exp[i] = 1
                    exp[n - 1] = s
                    expected_basis.add(tuple(exp))
        if basis != expected_basis:
            ok, detail = False, f"n={n} standard monomials differ"
            break
    ring3 = xring(3)
    basis3 = {
        ring3.fmt(Polynomial.monomial(m))
        for m in standard_monomials(gb_I(3)).monomials
    }
    if basis3 != {"1", "x1", "x2", "x3", "x3^2"}:
        ok, detail = False, f"n=3 basis {sorted(basis3)}"
    verdict(4, "monomial generators and standard basis", ok, detail)


def test_criterion_05_hilbert_series_is_triangle_row():
    ok = True
    detail = ""
    for n in range(2, 8):
        series = hilbert_series(standard_monomials(gb_I(n)))
        if series != bernoulli(n):
            ok, detail = False, f"n={n}: {series} != {bernoulli(n)}"
            break
    if hilbert_series(standard_monomials(gb_I(6))) != [
        1, 6, 16, 26, 31, 26, 16, 6, 1,
    ]:
        ok, detail = False, "frozen n=6 row mismatch"
    verdict(5, "Hilbert series", ok, detail)


def test_criterion_06_graded_character_of_monomial_quotient():
    ok = True
    detail = ""
    for n in range(3, 7):
        q = quotient_J(n)
        chars = [subset_character(n - 1, l) for l in range(n)]
        for lam, _, rep in conjugacy_classes(n - 1):
            traces = equivariant_graded_trace(q, rep + (n - 1,))
            expected = [
                sum(chars[l](lam) for l in range(min(k, 2 * n - 4 - k) + 1))
                for k in range(2 * n - 3)
            ]
            if traces != expected:
                ok, detail = False, f"n={n} class {lam}"
                break
        if not ok:
            break
    verdict(6, "graded character over the smaller symmetric group", ok, detail)


def test_criterion_07_top_forms_and_flat_hilbert():
    ok = True
    detail = ""
    for n in range(3, 7):
        wb = Workbench(n)
        top = top_form_basis(gb_I(n))
        if top.elements != buchberger(wb.ideal_K, GREVLEX, CAP).elements:
            ok, detail = False, f"n={n} top-form generators differ"
            break
        if hilbert_series(wb.staircase_K) != hilbert_series(quotient_J(n).basis):
            ok, detail = False, f"n={n} Hilbert series differ"
            break
    verdict(7, "top-degree-form ideal and flatness", ok, detail)


def test_criterion_08_socle_dimensions():
    ok = True
    detail = ""
    for n in range(2, 7):
        if socle_dimension(QuotientAlgebra(Workbench(n).gb_K)) != (1, True):
            ok, detail = False, f"n={n} homogeneous quotient not Gorenstein"
            break
    witness = None
    for n in range(3, 7):
        dim, gorenstein = socle_dimension(quotient_J(n))
        if gorenstein or dim <= 1:
            ok, detail = False, f"n={n} monomial quotient has socle {dim}"
            break
        if n == 3:
            witness = dim
    if ok and witness != 3:
        ok, detail = False, f"n=3 socle dimension {witness} != 3"
    if ok:
        ring3 = xring(3)
        q3 = quotient_J(3)
        lms = q3.gb.leading_monomials()
        from artinforge.polyarith import mono_divides

        socle_monos = {
            ring3.fmt(Polynomial.monomial(m))
            for m in q3.basis.monomials
            if all(
                any(
                    mono_divides(lm, m[:i] + (m[i] + 1,) + m[i + 1 :])
                    for lm in lms
                )
                for i in range(3)
            )
        }
        if socle_monos != {"x1", "x2", "x3^2"}:
            ok, detail = False, f"witness {sorted(socle_monos)}"
    verdict(8, "Gorenstein and non-Gorenstein socles", ok, detail)


def test_criterion_09_inverse_systems():
    ok = True
    detail = ""
    for n in (3, 4, 5):
        ann = annihilator(build_ideal("g_dual", n), pair_cap=CAP)
        if ann.elements != buchberger(Workbench(n).ideal_K, GREVLEX, CAP).elements:
            ok, detail = False, f"n={n} annihilator differs"
            break
    y3, y4 = yring(3), yring(4)
    if build_ideal("g_dual", 3) != y3.poly("y1^2 + y2^2 + y3^2"):
        ok, detail = False, "g_3 not verbatim"
    g4_expected = y4.poly(
        "y1^4 + y1^2*y2^2 + y2^4 + y1^2*y3^2 + y2^2*y3^2 + y3^4"
        " + y1^2*y4^2 + y2^2*y4^2 + y3^2*y4^2 + y4^4"
    )
    if build_ideal("g_dual", 4) != g4_expected:
        ok, detail = False, "g_4 not verbatim"
    verdict(9, "inverse systems", ok, detail)


def test_criterion_10_appendix():
    ok = True
    detail = ""
    for n in range(4, 7):
        m = n - 1
        lid = build_ideal("L", n)
        kid = _k_homogeneous(m)
        from artinforge.groebner import colon_ideal

        colon = colon_ideal(buchberger(lid, GREVLEX, CAP), kid, CAP)
        target = Ideal(
            lid.ring,
            lid.gens
            + (Polynomial.monomial(tuple(2 if j == m - 1 else 0 for j in range(m))),),
        )
        if colon.elements != buchberger(target, GREVLEX, CAP).elements:
            ok, detail = False, f"n={n} colon mismatch"
            break
        # no degree-one form in the colon: its reduced basis starts in degree 2
        if min(g.total_degree() for g in colon.elements) < 2:
            ok, detail = False, f"n={n} degree-one element in the colon"
            break
        q_ideal, kid_n = build_ideal("Q", n), Workbench(n).ideal_K
        substituted = substitute_ideal(q_ideal, "z", q_ideal.ring.var(f"x{n}"))
        lifted = Ideal(
            q_ideal.ring,
            tuple(q_ideal.ring.lift(g, kid_n.ring) for g in kid_n.gens),
        )
        if not ideal_equal(substituted, lifted, GREVLEX, CAP):
            ok, detail = False, f"n={n} substitution mismatch"
            break
        z_minus_xn = q_ideal.ring.var("z") - q_ideal.ring.var(f"x{n}")
        if not is_regular_element(q_ideal, z_minus_xn, CAP):
            ok, detail = False, f"n={n} z - xn not regular"
            break
        dims = (
            krull_dim_monomial(buchberger(lid, GREVLEX, CAP)),
            krull_dim_monomial(buchberger(kid, GREVLEX, CAP)),
            krull_dim_monomial(buchberger(q_ideal, GREVLEX, CAP)),
        )
        if dims != (0, 0, 1):
            ok, detail = False, f"n={n} Krull dimensions {dims}"
            break
    verdict(10, "transfer of the Gorenstein property", ok, detail)


def test_criterion_11_triangle_identities():
    start = time.perf_counter()
    ok = True
    detail = ""

    def b(n: int, k: int) -> int:
        """The partial binomial sum C(n, 0) + C(n, 1) + ... + C(n, k)."""
        return sum(comb(n, j) for j in range(k + 1))

    for n in range(2, 13):
        for k in range(1, n - 1):
            if b(n - 1, k) != b(n - 2, k - 1) + b(n - 2, k):
                ok, detail = False, f"recursion fails at ({n},{k})"
        row = bernoulli(n)
        mid = n - 2
        if row != row[::-1] or not all(row[k] < row[k + 1] for k in range(mid)):
            ok, detail = False, f"row shape fails at n={n}"
        weighted = sum((2 * j + 1) * comb(n - 1, n - 2 - j) for j in range(n - 1))
        if not sum(row) == weighted == expected_codimension(n):
            ok, detail = False, f"row sum or identity fails at n={n}"
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        ok, detail = False, f"took {elapsed:.2f}s"
    verdict(11, "triangle identities", ok, detail or f"{elapsed * 1000:.0f}ms")


def test_criterion_12_challenge_series():
    ok = True
    detail = ""
    for n in (3, 4, 5):
        wb = Workbench(n)
        series = challenge_series(wb)
        if sum(series[1:], series[0]) != xn_character(n):
            ok, detail = False, f"n={n} t=1 gate fails"
            break
        identity = [cf((1,) * n) for cf in series]
        if identity != hilbert_series(wb.staircase_K):
            ok, detail = False, f"n={n} identity-class gate fails"
            break
    series3 = challenge_series(Workbench(3))
    expected3 = [
        [1, 1, 1],
        [3, 1, 0],
        [1, 1, 1],
    ]
    got3 = [[cf(lam) for lam in partitions(3)] for cf in series3]
    if got3 != expected3:
        ok, detail = False, f"n=3 series {got3}"
    verdict(12, "equivariant Hilbert series gates", ok, detail)


def test_criterion_13_determinism(capsys):
    argv = ["verify", "--n", "2..6", "--claims", "all", "--format", "json"]
    outputs = []
    codes = []
    for _ in range(3):
        codes.append(cli.run(argv))
        outputs.append(capsys.readouterr().out)
    ok = all(code == 0 for code in codes) and len(set(outputs)) == 1
    reports = [json.loads(line) for line in outputs[0].strip().splitlines()]
    statuses = {r["status"] for r in reports}
    ok = ok and statuses <= {"pass", "skipped"} and len(reports) == 15 * 5
    with capsys.disabled():
        verdict(
            13,
            "byte-identical reports across runs",
            ok,
            f"{len(reports)} reports",
        )
