import collections.abc
import copy
import functools
import operator
import pickle
import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from artinforge import groebner, linalg, paperlab, quotient
from artinforge.groebner import buchberger
from artinforge.paperlab import (
    CLAIMS,
    SymbolicPoint,
    Workbench,
    _divmod_monic,
    _expected_standard_monomials,
    _k_homogeneous,
    _outside_span,
    _value_at,
    bernoulli,
    build_ideal,
    challenge_series,
    cyclotomic_poly,
    enumerate_points,
    expected_codimension,
    graded_trace,
    verify,
    verify_points_satisfy_ideal,
)
from artinforge.polyarith import (
    GREVLEX,
    Ideal,
    Polynomial,
    PolyRing,
    TermOrder,
    Value,
    monomials_of_degree,
    xring,
)
from artinforge.quotient import QuotientAlgebra, contract, equivariant_graded_trace, graded_traces
from artinforge.errors import EquivarianceError, ResourceLimitError
from artinforge.groebner import standard_monomials
from artinforge.reptheory import (
    ClassFunction,
    act,
    conjugacy_classes,
    partitions,
    subset_character,
    symmetric_generators,
    xn_character,
)
from test_groebner import (
    is_regular_element,
    reference_is_regular_element,
    top_form_basis,
)
from test_polyarith import yring


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
    assert build_ideal("g_dual", 2) == Polynomial.constant(2, 1)
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


# The builders before they shared their closed-form pieces, kept verbatim as
# the reference for the generator lists and their order.

def reference_omitted_product(nv: int, omit: int, among: int) -> tuple[int, ...]:
    """Exponent tuple of prod x_j over j < among, j != omit."""
    return tuple(1 if (j < among and j != omit) else 0 for j in range(nv))


def reference_build_ideal(which: str, n: int):
    if which == "I":
        if n < 2:
            raise ValueError("I is defined for n >= 2")
        ring = xring(n)
        if n == 2:
            return Ideal(ring, (ring.var("x1"), ring.var("x2")))
        gens = []
        for i in range(n):
            prod_mono = reference_omitted_product(n, i, n)
            xi = tuple(1 if j == i else 0 for j in range(n))
            gens.append(
                Polynomial(n, {prod_mono: 1, xi: -1})
            )
        return Ideal(ring, tuple(gens))
    if which == "g_dual":
        if n < 2:
            raise ValueError("g_dual is defined for n >= 2")
        terms = {}
        for mono in monomials_of_degree(n, n - 2):
            terms[tuple(2 * e for e in mono)] = 1
        return Polynomial(n, terms)
    if n < 3:
        raise ValueError(f"{which} is defined for n >= 3")
    if which == "J_expected":
        ring = xring(n)
        gens = []
        for i in range(n - 1):
            gens.append(Polynomial.monomial(tuple(2 if j == i else 0 for j in range(n))))
        gens.append(Polynomial.monomial(tuple(1 if j < n - 1 else 0 for j in range(n))))
        for j in range(n - 1):
            for t_set in combinations(range(n - 1), n - 2 - j):
                exp = [0] * n
                for i in t_set:
                    exp[i] = 1
                exp[n - 1] = 2 * j + 1
                gens.append(Polynomial.monomial(tuple(exp)))
        return Ideal(ring, tuple(gens))
    if which == "K_expected":
        return reference_k_homogeneous(n)
    if which == "L":
        ring = xring(n - 1)
        gens = reference_complete_intersection_gens(n - 1)
        return Ideal(ring, tuple(gens))
    if which == "Q":
        m = n - 1
        ring = xring(n, "z")
        nv = ring.nvars
        gens = []
        for g in reference_complete_intersection_gens(m):
            gens.append(Polynomial(nv, {mono + (0, 0): c for mono, c in g.terms.items()}))
        for i in range(m):
            p_i = reference_omitted_product(nv, i, m)
            gens.append(Polynomial.monomial(tuple(e + (1 if j == n - 1 else 0) for j, e in enumerate(p_i))))
        xn_z = tuple((1 if j in (n - 1, nv - 1) else 0) for j in range(nv))
        xm_sq = tuple((2 if j == m - 1 else 0) for j in range(nv))
        gens.append(Polynomial(nv, {xn_z: 1, xm_sq: -1}))
        return Ideal(ring, tuple(gens))
    raise ValueError(f"unknown ideal name {which!r}")


def reference_complete_intersection_gens(m: int) -> list[Polynomial]:
    """h_1, ..., h_{m-1}, x1...xm over m variables, with h_i = x_i^2 - x_m^2."""
    gens = []
    for i in range(m - 1):
        sq_i = tuple(2 if j == i else 0 for j in range(m))
        sq_m = tuple(2 if j == m - 1 else 0 for j in range(m))
        gens.append(Polynomial(m, {sq_i: 1, sq_m: -1}))
    gens.append(Polynomial.monomial((1,) * m))
    return gens


def reference_k_homogeneous(n: int) -> Ideal:
    ring = xring(n)
    gens = []
    for i in range(n - 1):
        sq_i = tuple(2 if j == i else 0 for j in range(n))
        sq_n = tuple(2 if j == n - 1 else 0 for j in range(n))
        gens.append(Polynomial(n, {sq_i: 1, sq_n: -1}))
    for i in range(n):
        gens.append(Polynomial.monomial(reference_omitted_product(n, i, n)))
    return Ideal(ring, tuple(gens))


def reference_expected_standard_monomials(n: int) -> set:
    out = set()
    for j in range(n - 1):
        for t_set in combinations(range(n - 1), n - 2 - j):
            for s in range(2 * j + 1):
                exp = [0] * n
                for i in t_set:
                    exp[i] = 1
                exp[n - 1] = s
                out.add(tuple(exp))
    return out


def _term_lists(obj) -> list:
    """The generators (or a polynomial's terms) with their term order, so
    equal lists also mean equal insertion order."""
    if isinstance(obj, Polynomial):
        return list(obj.terms.items())
    return [obj.ring.names] + [list(g.terms.items()) for g in obj.gens]


BUILT_NAMES = ("I", "J_expected", "K_expected", "L", "Q", "g_dual")


@pytest.mark.parametrize("n", range(2, 10))
def test_builders_match_the_reference_in_order(n):
    for which in BUILT_NAMES:
        if n < 3 and which not in ("I", "g_dual"):
            continue
        got, ref = build_ideal(which, n), reference_build_ideal(which, n)
        assert got == ref
        assert _term_lists(got) == _term_lists(ref), which
    assert _term_lists(_k_homogeneous(n)) == _term_lists(reference_k_homogeneous(n))
    assert _expected_standard_monomials(n) == reference_expected_standard_monomials(n)


@pytest.mark.parametrize("n", range(-1, 3))
def test_builders_raise_the_reference_range_errors(n):
    for which in BUILT_NAMES + ("nonsense",):
        if n == 2 and which in ("I", "g_dual"):
            continue
        with pytest.raises(ValueError) as ref:
            reference_build_ideal(which, n)
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            build_ideal(which, n)


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
    # with m = 2(n - 2) = 0 there is no root of unity to evaluate at
    with pytest.raises(ValueError, match="point check needs n >= 3"):
        verify_points_satisfy_ideal(build_ideal("I", 2), [SymbolicPoint(2)])
    # x4 would be left out of every evaluation
    with pytest.raises(ValueError, match="a point of n=3 for 4 variables"):
        verify_points_satisfy_ideal(build_ideal("I", 4), enumerate_points(3))


# one instance of each immutable subclass of the value base, and its repr:
# field by field, or the one the class writes itself
VALUES = {
    TermOrder: (lambda: TermOrder("lex"), "TermOrder('lex')"),
    PolyRing: (lambda: xring(2, "z"), "PolyRing(x1, x2, z)"),
    Ideal: (
        lambda: Workbench(3).ideal_I,
        "Ideal(x2*x3 - x1, x1*x3 - x2, x1*x2 - x3)",
    ),
    groebner.GroebnerBasis: (
        lambda: Workbench(3).gb_K,
        "GroebnerBasis[TermOrder('grevlex')]"
        "(x2*x3, x1*x3, x2^2 - x3^2, x1*x2, x1^2 - x3^2, x3^3)",
    ),
    SymbolicPoint: (
        lambda: enumerate_points(4)[3],
        "SymbolicPoint(n=4, k=0, eps=(1, -1, 1, -1))",
    ),
    ClassFunction: (
        lambda: subset_character(3, 1),
        "ClassFunction(S3; (1, 1, 1): 3, (2, 1): 1, (3,): 0)",
    ),
    paperlab.VerificationReport: (
        lambda: paperlab.VerificationReport("thm3", 4, "fail", "a witness", 7),
        "VerificationReport(claim='thm3', n=4, status='fail', witness='a witness', "
        "millis=7)",
    ),
}


def test_every_immutable_value_class_is_checked():
    assert set(Value.__subclasses__()) == set(VALUES)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_classes_are_immutable_and_copy_by_their_fields(cls):
    make, text = VALUES[cls]
    value = make()
    assert type(value) is cls and repr(value) == text
    field = value.__slots__[0]
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(value, field)
    twin = copy.deepcopy(value)
    assert twin == value and twin is not value
    assert pickle.loads(pickle.dumps(value)) == value
    # a value that claims to be hashable hashes, and its copy hashes equal;
    # one whose fields hold polynomials or dicts claims no hash
    try:
        digest = hash(value)
    except TypeError:
        digest = None
    assert isinstance(value, collections.abc.Hashable) is (digest is not None)
    if digest is not None:
        assert hash(twin) == digest


def test_a_point_built_from_a_sign_list_equals_the_tuple_point():
    listed, tupled = SymbolicPoint(4, 0, [1, 1, 1, 1]), SymbolicPoint(4, 0, (1, 1, 1, 1))
    assert listed.eps == (1, 1, 1, 1) and repr(listed) == repr(tupled)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert hash(pickle.loads(pickle.dumps(listed))) == hash(tupled)


def test_verification_report_compares_and_prints_its_fields():
    r = verify("thm3", 4)
    assert r == paperlab.VerificationReport("thm3", 4, "pass", None, r.millis)
    assert r != paperlab.VerificationReport("thm3", 4, "fail", None, r.millis)
    assert repr(r) == (
        f"VerificationReport(claim='thm3', n=4, status='pass', witness=None, "
        f"millis={r.millis})"
    )
    twin = paperlab.VerificationReport("thm3", 4, "pass", None, r.millis)
    assert hash(twin) == hash(r)


def test_points_satisfy_ideal():
    for n in range(3, 9):
        ideal = build_ideal("I", n)
        assert verify_points_satisfy_ideal(ideal, enumerate_points(n)) is None


def test_points_check_returns_the_first_failure():
    pts = enumerate_points(4)
    i4 = build_ideal("I", 4)
    twice = pts + [pts[3]]
    assert verify_points_satisfy_ideal(i4, twice) == f"duplicate point {pts[3]}"
    x1 = i4.ring.var("x1")
    bigger = Ideal(i4.ring, i4.gens + (x1,))
    # x1 vanishes at the origin, the first point, and nowhere else
    assert verify_points_satisfy_ideal(bigger, pts) == f"generator x1 nonzero at {pts[1]}"


def test_prop2_codim_enumerates_the_points_once(monkeypatch):
    calls = []
    enumerate_once = paperlab.enumerate_points

    def counted(n):
        calls.append(n)
        return enumerate_once(n)

    def no_rebuild(which, n):
        raise AssertionError(f"rebuilt {which}_{n}")

    wb = Workbench(5)
    wb.ideal_I  # built before the claim: it reads I_5 from the workbench
    monkeypatch.setattr(paperlab, "enumerate_points", counted)
    monkeypatch.setattr(paperlab, "build_ideal", no_rebuild)
    report = verify("prop2_codim", 5, wb)
    assert (report.status, report.witness) == ("pass", None)
    assert calls == [5]


# ---------------------------------------------------------------------------
# cyclotomic arithmetic: the ring class that evaluated the points before
# exponent arithmetic, kept verbatim as the reference for _value_at

class CyclotomicElement:
    """An element of Z[xi]/Phi_m(xi), stored in canonical reduced form."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        phi = cyclotomic_poly(m)
        self.m = m
        self.coeffs = tuple(_divmod_monic(list(coeffs), phi)[1])

    @classmethod
    def zero(cls, m: int) -> "CyclotomicElement":
        return cls(m, [])

    @classmethod
    def integer(cls, m: int, a: int) -> "CyclotomicElement":
        return cls(m, [a])

    @classmethod
    def root(cls, m: int, power: int = 1) -> "CyclotomicElement":
        power %= m
        return cls(m, [0] * power + [1])

    def _check(self, other: "CyclotomicElement"):
        if self.m != other.m:
            raise ValueError("cyclotomic elements of different conductors")

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicElement.integer(self.m, other)
        self._check(other)
        return CyclotomicElement(
            self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return CyclotomicElement(self.m, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicElement.integer(self.m, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicElement(self.m, [a * other for a in self.coeffs])
        self._check(other)
        out = [0] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return CyclotomicElement(self.m, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = CyclotomicElement.integer(self.m, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CyclotomicElement)
            and self.m == other.m
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __repr__(self):
        return f"CyclotomicElement(m={self.m}, {self.coeffs})"


def evaluate_at(poly: Polynomial, coords: tuple) -> CyclotomicElement:
    """Evaluate an integer-coefficient polynomial at cyclotomic coordinates."""
    m = coords[0].m
    total = CyclotomicElement.zero(m)
    for mono, c in poly.terms.items():
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError("cyclotomic evaluation needs integer coefficients")
            c = int(c)
        term = CyclotomicElement.integer(m, c)
        for j, e in enumerate(mono):
            if e:
                term = term * coords[j] ** e
        total = total + term
    return total


def coordinates(self: SymbolicPoint, m: int) -> tuple[CyclotomicElement, ...]:
    if self.is_origin:
        return tuple(CyclotomicElement.zero(m) for _ in range(self.n))
    xi_k = CyclotomicElement.root(m, self.k)
    return tuple(e * xi_k for e in self.eps)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(1) == (-1, 1)


def test_divmod_monic_recombines_to_the_dividend():
    rng = random.Random(11)
    for _ in range(200):
        den = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4))) + (1,)
        num = [rng.randint(-5, 5) for _ in range(rng.randint(0, 9))]
        quot, rem = _divmod_monic(num, den)
        assert len(rem) == len(den) - 1
        back = rem + [0] * (len(quot) + len(den) - 1 - len(rem))
        for i, q in enumerate(quot):
            for j, d in enumerate(den):
                back[i + j] += q * d
        size = max(len(num), len(den) - 1)
        assert back == num + [0] * (size - len(num)), (num, den)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 41):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(m) == tuple(int(c) for c in expected), m


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


def test_exponent_evaluation_matches_reference():
    """_value_at equals the ring-class evaluation, coefficient for
    coefficient, at every point of X_n for g, g^2 + g, g - 1 over each
    generator g of I_n, and x1 + x2, which vanishes exactly where x1 and x2
    differ in sign, and only after reduction modulo Phi_m (xi^(m/2) = -1).
    Two bad points built from exponents, one sign flipped and one with
    root index k = n - 2 on a sign vector of the wrong parity, each leave
    some generator nonzero under both evaluations."""
    for n in range(3, 9):
        m = 2 * (n - 2)
        gens = build_ideal("I", n).gens
        polys = [p for g in gens for p in (g, g * g + g, g - 1)]
        polys.append(xring(n).poly("x1 + x2"))
        points = enumerate_points(n)
        for pt in points:
            exps, coords = pt.exponents(m), coordinates(pt, m)
            for p in polys:
                assert _value_at(p, exps, m) == evaluate_at(p, coords).coeffs, (n, pt, p)
        good = points[1].exponents(m)
        flipped = ((good[0] + m // 2) % m,) + good[1:]
        eps = ((-1) ** (n - 1),) + (1,) * (n - 1)
        wrong_k = tuple((n - 2 + (m // 2 if e < 0 else 0)) % m for e in eps)
        for bad in (flipped, wrong_k):
            coords = tuple(CyclotomicElement.root(m, e) for e in bad)
            assert any(any(_value_at(g, bad, m)) for g in gens), (n, bad)
            assert any(evaluate_at(g, coords) for g in gens), (n, bad)
            for p in polys:
                assert _value_at(p, bad, m) == evaluate_at(p, coords).coeffs, (n, bad, p)


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


def partial_binomial_sum(n: int, k: int) -> int:
    """b_{n,k} = C(n, 0) + C(n, 1) + ... + C(n, k)."""
    return sum(comb(n, j) for j in range(k + 1))


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


def test_an_unset_pair_cap_is_buchbergers_default(monkeypatch):
    assert Workbench(3).pair_cap is None
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_CAP", 1)
    with pytest.raises(ResourceLimitError, match="cap of 1 pairs"):
        verify("appendix_colon", 5, Workbench(5))
    assert verify("appendix_colon", 5, Workbench(5, 10**6)).status == "pass"


def test_prev_is_the_workbench_of_n_minus_one_built_once():
    wb = Workbench(5, 10**5)
    prev = wb.prev
    assert wb.prev is prev and type(prev) is Workbench
    assert (prev.n, prev.pair_cap) == (4, 10**5)
    assert prev.ideal_K == Workbench(4).ideal_K
    assert Workbench(5).prev.pair_cap is None
    # the basis of K_{n-1} is a closed form, built within any pair cap
    assert Workbench(4, 1).prev.gb_K.elements == buchberger(prev.prev.ideal_K).elements


def test_prev_of_the_least_n_is_out_of_range():
    with pytest.raises(ValueError, match="n=1 outside the supported range 2..8"):
        Workbench(2).prev
    # no claim at n = 2 reads K_1
    assert verify("appendix_colon", 2).status == "skipped"
    assert verify("appendix_krull", 2).status == "skipped"


def test_claims_on_one_workbench_share_one_basis_of_K(monkeypatch):
    wb = Workbench(5)
    built = []
    real = paperlab._closed_form
    monkeypatch.setattr(
        paperlab, "_closed_form", lambda ring, *rest: built.append(ring) or real(ring, *rest)
    )
    monkeypatch.setattr(paperlab, "buchberger", None)
    # the J claims read the staircase of in(K_5) = J_5 off the one closed
    # form of K_5; neither I_5 nor K_5 is completed
    for claim in ("prop2_codim", "prop3_basis", "prop3_generators", "thm2"):
        assert verify(claim, 5, wb).status == "pass"
    assert built == [wb.ideal_K.ring]


def test_registry_on_one_workbench_completes_only_the_colon_target(monkeypatch):
    wb = Workbench(6)
    inputs = []
    real_buchberger = groebner.buchberger

    def counting(ideal, order=GREVLEX, pair_cap=None):
        gens = tuple(tuple(sorted(g.terms.items())) for g in ideal.gens)
        inputs.append((ideal.ring, order, gens))
        return real_buchberger(ideal, order, pair_cap)

    for module in (groebner, paperlab, quotient):
        monkeypatch.setattr(module, "buchberger", counting)
    for claim in CLAIMS:
        assert verify(claim, 6, wb).status == "pass", claim
    # only the colon target L + <x5^2>: the bases of K_6, K_5, L and Q are
    # closed forms, and no claim completes I_6 or Q_6 moved by z -> z + x6
    lid = wb.ideal_L
    target = lid.gens + (lid.ring.poly("x5^2"),)
    assert inputs == [(lid.ring, GREVLEX, tuple(tuple(sorted(g.terms.items())) for g in target))]


def test_thmG_and_inverse_system_share_one_duality_computation(monkeypatch):
    wb = Workbench(5)
    calls = []
    real = Workbench.__dict__["duality_check"].func
    counted = functools.cached_property(lambda self: calls.append(self) or real(self))
    counted.__set_name__(Workbench, "duality_check")
    monkeypatch.setattr(Workbench, "duality_check", counted)
    _forbid_g(monkeypatch)
    for claim in ("thmG", "inverse_system", "thmG"):
        assert verify(claim, 5, wb).status == "pass"
    # one class-sum pass over the generators of K_5, and no g_5 built
    assert calls == [wb] and wb.duality_check is None


def test_a_duality_witness_fails_thmG_and_inverse_system():
    wb = Workbench(4)
    wb.duality_check = "x1^2 does not annihilate g_n"
    for claim in ("thmG", "inverse_system"):
        report = verify(claim, 4, wb)
        assert (report.status, report.witness) == ("fail", wb.duality_check)


def test_no_claim_computes_a_colon_or_an_annihilator(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a claim called a replaced computation")

    for module, name in [
        (groebner, "colon_ideal"),
        (paperlab, "colon_ideal"),
        (quotient, "annihilator"),
        (paperlab, "annihilator"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(paperlab.linalg, "kernel_basis", forbidden)
    wb = Workbench(5)
    for claim in CLAIMS:
        assert verify(claim, 5, wb).status == "pass", claim


def test_no_claim_computes_a_socle_rank(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a claim computed a socle rank")

    monkeypatch.setattr(quotient, "socle_dimension", forbidden)
    monkeypatch.setattr(paperlab, "socle_dimension", forbidden)
    for n in range(2, 9):
        wb = Workbench(n)
        for claim in CLAIMS:
            assert verify(claim, n, wb).status in ("pass", "skipped"), (claim, n)


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
    values = [[cf(lam) for lam in partitions(3)] for cf in series]
    assert values == [[1, 1, 1], [3, 1, 0], [1, 1, 1]]
    assert series[0] + series[1] + series[2] == xn_character(3)


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


# ---------------------------------------------------------------------------
# the certificates against the computations they replaced

def test_not_gorenstein_J_staircase_socle_matches_the_rank(monkeypatch):
    # the claim reads the socle of R/J_n off the staircase; the rank of the
    # stacked multiplication matrices is its reference
    monkeypatch.setattr(paperlab, "socle_dimension", None)
    for n in range(3, 9):
        wb = Workbench(n)
        dim, gorenstein = quotient.socle_dimension(QuotientAlgebra(wb.gb_J))
        report = verify("not_gorenstein_J", n, wb)
        assert report.status == "pass" and not gorenstein
        assert report.witness.startswith(f"socle dimension {dim}, spanned by ")
        assert report.witness.count(",") == dim


# The claim bodies before the certificates, kept as their references: each
# computes the whole object that the claim is about.
def reference_colon_target(wb: Workbench, f: Polynomial) -> bool:
    """(L : K) = L + <f>, by the colon and a completion of the target."""
    lid = wb.ideal_L
    colon = groebner.colon_ideal(wb.gb_L, wb.prev.ideal_K, wb.pair_cap)
    target = Ideal(lid.ring, lid.gens + (f,))
    return colon.elements == buchberger(target, GREVLEX, wb.pair_cap).elements


def reference_inverse_system(wb: Workbench, g: Polynomial) -> bool:
    return quotient.annihilator(g, wb.pair_cap).elements == wb.gb_K.elements


def reference_prop4_generators(wb: Workbench) -> bool:
    """The top forms of the basis of I completed, against the basis of K."""
    gb_i = buchberger(wb.ideal_I, GREVLEX, wb.pair_cap)
    tops = tuple(g.top_degree_part() for g in gb_i.elements)
    top = buchberger(Ideal(gb_i.ring, tops), GREVLEX, wb.pair_cap)
    return top.elements == wb.gb_K.elements


def reference_appendix_unprojection(wb: Workbench) -> bool:
    """Q at z -> xn completed, against the basis of K lifted to R_n[z]."""
    q, k = wb.ideal_Q, wb.gb_K
    substituted = groebner.substitute_ideal(q, "z", q.ring.var(f"x{wb.n}"))
    lifted = tuple(q.ring.lift(g, k.ring) for g in k.elements)
    return buchberger(substituted, GREVLEX, wb.pair_cap).elements == lifted


def _status(claim: str, wb: Workbench) -> bool:
    report = verify(claim, wb.n, wb)
    assert report.status in ("pass", "fail")
    return report.status == "pass"


@pytest.mark.parametrize("n", range(3, 8))
def test_colon_certificate_agrees_with_the_colon_reference(n):
    wb = Workbench(n)
    m, ring = n - 1, wb.ideal_L.ring
    report = verify("appendix_colon", n, wb)
    assert report.status == "pass" and report.witness is None
    # x1^2 - x_m^2 lies in L, so L + <x1^2> is the colon too; x_m^3 gives an
    # ideal inside the colon but too small, x1 and x1*x_m fall outside it
    targets = {f"x{m}^2": True, "x1^2": True, f"x{m}^3": False, "x1": False}
    targets[f"x1*x{m}"] = False
    for text, holds in targets.items():
        f = ring.poly(text)
        assert reference_colon_target(wb, f) is holds, text
        assert (paperlab._colon_certificate(wb, f) is None) is holds, text
    assert "differs from L + <" in paperlab._colon_certificate(wb, ring.poly(f"x{m}^3"))
    assert "is not inside L" in paperlab._colon_certificate(wb, ring.poly("x1"))


def test_appendix_colon_needs_every_colon_generator_in_degree_two(monkeypatch):
    # with the certificate passed, a term of degree < 2 in a generator of
    # L + <x_m^2> leaves a linear form possibly in the colon
    monkeypatch.setattr(paperlab, "_colon_certificate", lambda wb, f: None)
    for extra in ("x1", "x1^2 + x2"):
        wb = Workbench(4)
        ring = wb.ideal_L.ring
        wb.ideal_L = Ideal(ring, wb.ideal_L.gens + (ring.poly(extra),))
        wb.colength_check = None  # L is no longer a complete intersection
        report = verify("appendix_colon", 4, wb)
        assert report.status == "fail"
        assert report.witness == (
            f"the colon generator {ring.fmt(ring.poly(extra))} has a term of degree < 2"
        )


def test_colon_certificate_needs_L_inside_K():
    # without x1^2 - x3^2, K_3 no longer contains that generator of L
    wb = Workbench(4)
    k = wb.prev.ideal_K
    dropped = k.ring.poly("x1^2 - x3^2")
    wb.prev.ideal_K = Ideal(k.ring, tuple(g for g in k.gens if g != dropped))
    wb.prev.gb_K = buchberger(wb.prev.ideal_K)
    witness = paperlab._colon_certificate(wb, k.ring.poly("x3^2"))
    assert witness == "L is not inside K_3"


@pytest.mark.parametrize("n", range(3, 8))
def test_inverse_system_agrees_with_the_annihilator_reference(n):
    wb = Workbench(n)
    g = build_ideal("g_dual", n)
    assert _status("inverse_system", wb) is reference_inverse_system(wb, g) is True


@pytest.mark.parametrize("n", range(2, 9))
def test_thmG_agrees_with_the_socle_reference(n):
    wb = Workbench(n)
    q = QuotientAlgebra(wb.gb_K)
    assert _status("thmG", wb) and quotient.socle_dimension(q) == (1, True)


def reference_catalecticant_ranks(g: Polynomial) -> list[int]:
    """The rank of g's catalecticant in each degree d: entry (b, c), with
    deg b = d, is the coefficient of y^(b+c) in g."""
    rows = [{} for _ in range(g.total_degree() + 1)]
    for s, coeff in g.terms.items():
        for b in product(*(range(e + 1) for e in s)):
            c = tuple(x - y for x, y in zip(s, b))
            rows[sum(b)].setdefault(b, {})[c] = coeff
    return [linalg.rank(list(level.values())) for level in rows]


@pytest.mark.parametrize("n", range(2, 8))
def test_the_census_of_g_is_its_catalecticant_ranks(n):
    # the ranks duality_check reads off g_n's squares, against linalg.rank
    assert reference_catalecticant_ranks(build_ideal("g_dual", n)) == bernoulli(n)


def _forbid_g(monkeypatch) -> None:
    """Make building g_n or contracting into it raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a claim built g_n or contracted into it")

    real = paperlab.build_ideal
    monkeypatch.setattr(quotient, "contract", forbidden)
    monkeypatch.setattr(
        paperlab, "build_ideal", lambda w, k: forbidden() if w == "g_dual" else real(w, k)
    )


def class_sums_annihilate(n: int, f: Polynomial) -> bool:
    """The verdict of ``duality_check`` on the one form ``f``."""
    wb = Workbench(n)
    wb.ideal_K = Ideal(wb.ideal_K.ring, (f,))
    witness = wb.duality_check
    assert witness in (None, f"{wb.ideal_K.ring.fmt(f)} does not annihilate g_n")
    return witness is None


@pytest.mark.parametrize("n", range(2, 7))
def test_class_sums_agree_with_contraction_on_every_monomial(n):
    # contraction into the built g_n is the reference; a monomial x^b
    # annihilates g_n exactly when its parity class has more odd exponents
    # than 2n - 4 - |b|
    g, ring = build_ideal("g_dual", n), xring(n)
    for d in range(2 * n - 3):
        for b in monomials_of_degree(n, d):
            x_b = Polynomial.monomial(b)
            assert class_sums_annihilate(n, x_b) is not contract(x_b, g), ring.fmt(x_b)


def _random_forms(n: int, rng: random.Random, count: int) -> list:
    """Sparse forms of degree <= 2n - 4: half of them c*(x^a - x^b) with b
    in the parity class of a, which annihilate g_n; half three random terms."""
    def mono(d: int) -> tuple:
        m = [0] * n
        for _ in range(d):
            m[rng.randrange(n)] += 1
        return tuple(m)

    forms = []
    for i in range(count):
        d = rng.randrange(2 * n - 3)
        if i % 2:
            terms = {mono(d): rng.randint(-3, 3) for _ in range(3)}
        else:
            a, c = mono(d), rng.randint(1, 3)
            eps = tuple(e & 1 for e in a)
            b = tuple(e + 2 * h for e, h in zip(eps, mono((d - sum(eps)) // 2)))
            terms = {a: c}
            terms[b] = terms.get(b, 0) - c
        forms.append(Polynomial(n, terms))
    return [f for f in forms if f]


@pytest.mark.parametrize("n", range(7, 10))
def test_class_sums_agree_with_contraction_on_K_and_random_forms(n, monkeypatch):
    monkeypatch.setattr(paperlab, "SUPPORTED_RANGE", (2, 9))
    g = build_ideal("g_dual", n)
    forms = list(Workbench(n).ideal_K.gens) + _random_forms(n, random.Random(n), 60)
    verdicts = [class_sums_annihilate(n, f) for f in forms]
    assert verdicts == [not contract(f, g) for f in forms]
    assert verdicts[: 2 * n - 1] == [True] * (2 * n - 1)
    assert True in verdicts[2 * n - 1 :] and False in verdicts


@pytest.mark.parametrize("n", range(3, 6))
def test_inverse_system_fails_for_g_with_one_term_dropped(n):
    # the class sums describe g_n itself: with any one square dropped, the
    # reference finds a generator of K_n that no longer annihilates it
    wb = Workbench(n)
    g = build_ideal("g_dual", n)
    assert wb.duality_check is None and not any(contract(k, g) for k in wb.ideal_K.gens)
    for drop in sorted(g.terms)[:: max(1, len(g.terms) // 4)]:
        short = Polynomial(n, {m: c for m, c in g.terms.items() if m != drop})
        assert any(contract(k, short) for k in wb.ideal_K.gens)
        assert not reference_inverse_system(wb, short)


def test_the_duality_certificate_fails_each_check_with_its_witness():
    g = build_ideal("g_dual", 4)
    ring = xring(4)
    # y1^4 with coefficient 2, or swapped for a non-square or a lower square:
    # the reference sees that K_4 no longer annihilates the form
    for swap, coeff in (((4, 0, 0, 0), 2), ((3, 1, 0, 0), 1), ((2, 0, 0, 0), 1)):
        terms = {m: c for m, c in g.terms.items() if m != (4, 0, 0, 0)}
        wrong = Polynomial(4, {**terms, swap: coeff})
        assert any(contract(k, wrong) for k in Workbench(4).ideal_K.gens)
    # a generator added, or one of the class sums broken: x1^2 - 2*x4^2
    # fails its even class; x1^2 - x2^2 + x1*x2 cancels in the even class of
    # degree 2 but not in the class of x1*x2
    for old, new in (
        (None, "x1^2"),
        ("x1^2 - x4^2", "x1^2 - 2*x4^2"),
        ("x1^2 - x4^2", "x1^2 - x2^2 + x1*x2"),
    ):
        wb = Workbench(4)
        gens = [k for k in wb.ideal_K.gens if old is None or k != ring.poly(old)]
        wb.ideal_K = Ideal(ring, (*gens, ring.poly(new)))
        wb.sandwich_check = None  # the new form is no top form of I_4
        witness = f"{ring.fmt(ring.poly(new))} does not annihilate g_n"
        assert contract(ring.poly(new), g)
        for claim in ("thmG", "inverse_system"):
            assert verify(claim, 4, wb).witness == witness


def test_one_series_check_fails_every_claim_on_the_hilbert_series():
    # a staircase that ends one degree above deg g_4: thm2, prop3_basis,
    # thmG and inverse_system all read the one comparison with the row
    wb = Workbench(4)
    assert wb.sandwich_check is None
    wb.staircase_K.by_degree += ((),)
    witness = "Hilbert series [1, 4, 7, 4, 1, 0] != triangle row [1, 4, 7, 4, 1]"
    assert wb.series_check == witness
    assert claims_resting_on("series_check") == {
        "thm2", "prop3_basis", "thmG", "inverse_system"
    }
    for claim in claims_resting_on("series_check"):
        assert (verify(claim, 4, wb).status, verify(claim, 4, wb).witness) == ("fail", witness)


@pytest.mark.parametrize("n", range(3, 9))
def test_prop4_and_unprojection_agree_with_the_completion_references(n):
    wb = Workbench(n)
    assert _status("prop4_generators", wb) is reference_prop4_generators(wb) is True
    assert _status("appendix_unprojection", wb)
    assert reference_appendix_unprojection(wb)


@pytest.mark.parametrize("n", range(3, 7))
def test_unprojection_fails_for_Q_with_a_flipped_sign(n):
    wb = Workbench(n)
    q = wb.ideal_Q
    ring = q.ring
    original, flipped = (ring.poly(f"x{n}*z {s} x{n - 1}^2") for s in "-+")
    assert original in q.gens
    gens = tuple(flipped if g == original else g for g in q.gens)
    wb.ideal_Q = Ideal(ring, gens)
    report = verify("appendix_unprojection", n, wb)
    assert report.status == "fail"
    assert report.witness == "Q at z -> xn and K differ in degree 2"
    assert not reference_appendix_unprojection(wb)


@pytest.mark.parametrize("n", range(3, 7))
def test_prop4_fails_for_a_K_without_one_omitted_product(n):
    wb = Workbench(n)
    k = wb.ideal_K
    product = Polynomial.monomial(tuple(1 if j else 0 for j in range(n)))
    assert product in k.gens
    wb.gb_K = buchberger(Ideal(k.ring, tuple(g for g in k.gens if g != product)))
    report = verify("prop4_generators", n, wb)
    assert report.status == "fail"
    assert not reference_prop4_generators(wb)


# ---------------------------------------------------------------------------
# closed-form bases of K_n, L_{n-1} and Q_n, against the completions they
# replaced

@pytest.mark.parametrize("n", range(2, 10))
def test_closed_forms_equal_the_completions(n, monkeypatch):
    monkeypatch.setattr(paperlab, "SUPPORTED_RANGE", (2, 9))
    wb = Workbench(n)
    assert wb.gb_K.elements == buchberger(wb.ideal_K).elements
    assert wb.sandwich_check is None
    if n >= 3:
        assert wb.gb_L.elements == buchberger(wb.ideal_L).elements
        assert wb.gb_Q.elements == buchberger(wb.ideal_Q).elements
        assert wb.colength_check is None and wb.criterion_check is None


def _edited(gb: groebner.GroebnerBasis, old: str, new: "str | None"):
    """``gb`` with the element ``old`` replaced by ``new``, or dropped."""
    ring = gb.ring
    elems = [g for g in gb.elements if g != ring.poly(old)]
    assert len(elems) == len(gb.elements) - 1
    return groebner.GroebnerBasis(
        ring, GREVLEX, tuple(elems + ([ring.poly(new)] if new else []))
    )


def _fails_with(wb: Workbench, certificate: str, witness: str):
    got = getattr(wb, certificate)
    assert got is not None and got.startswith(witness), got
    for claim in claims_resting_on(certificate):
        report = verify(claim, wb.n, wb)
        assert (report.status, report.witness) == ("fail", got), claim


def test_outside_span_is_the_first_form_outside_by_degree():
    ring = xring(2)
    spanning = [ring.poly("x1^2 - x2^2"), ring.poly("x1*x2")]
    inside = ring.poly("x1^2 - x2^2 + 3*x1*x2")
    assert _outside_span([inside], spanning) is None
    forms = [ring.poly("x1^3"), inside, ring.poly("x1^2"), ring.poly("x2^2")]
    assert _outside_span(forms, spanning) == ring.poly("x1^2")


def test_unprojection_names_the_least_degree_in_which_the_spans_differ():
    # without x1^2 - x3^2, K_4's x1^2 - x4^2 leaves the span of Q at z -> x4
    # in degree 2; with x1^3 added, Q's image leaves K's span in degree 3
    wb = Workbench(4)
    ring = wb.ideal_Q.ring
    gens = [g for g in wb.ideal_Q.gens if g != ring.poly("x1^2 - x3^2")]
    assert len(gens) == len(wb.ideal_Q.gens) - 1
    wb.ideal_Q = Ideal(ring, (*gens, ring.poly("x1^3")))
    assert wb.unprojection_check == "Q at z -> xn and K differ in degree 2"
    assert not reference_appendix_unprojection(wb)


# The fixed-point count that challenge and thm3 ran before graded_trace,
# kept as its reference: fold each image of a standard monomial modulo the
# x_i^2 - x_n^2 and compare.
def _fold(gb: groebner.GroebnerBasis):
    """The normal form modulo ``gb`` of a monomial m, when the binomials of
    ``gb`` are x_i^2 - x_l^2, one for each variable x_i but the last, x_l:
    m with each x_i^(2k) folded into x_l^(2k), standard or else in the ideal
    (the normal form is then 0).  With no binomial, m itself.  Any other
    binomial raises ``ValueError``: its normal forms are not monomials."""
    nv = gb.ring.nvars
    folds = paperlab._square_differences(nv, nv)
    binomials = [g for g in gb.elements if len(g.terms) > 1]
    for g in binomials:
        if g not in folds:
            raise ValueError(f"normal forms modulo {gb.ring.fmt(g)} are not monomials")
    if not binomials:
        return lambda m: m
    if len(binomials) != nv - 1:
        raise ValueError(f"not every x_i^2 - x{nv}^2 is an element of the basis")

    def fold(m):
        head = m[:-1]
        if max(head, default=0) < 2:  # nothing to fold
            return m
        odd = tuple(e & 1 for e in head)
        return odd + (m[-1] + sum(head) - sum(odd),)

    return fold


def _fixed_counts(levels, move, fold=tuple) -> list:  # tuple(m) is m: no fold
    """How many monomials of each staircase level ``move``, then ``fold``, fix."""
    return [sum(map(operator.eq, map(fold, map(move, level)), level)) for level in levels]


@pytest.mark.parametrize("n", range(2, 10))
def test_graded_trace_is_the_count_of_fixed_standard_monomials(n, monkeypatch):
    monkeypatch.setattr(paperlab, "SUPPORTED_RANGE", (2, 9))
    wb = Workbench(n)
    assert wb.sandwich_check is None and wb.staircase_check is None
    fold, levels = _fold(wb.gb_K), wb.staircase_K.by_degree
    for lam, _, rep in conjugacy_classes(n):
        assert _fixed_counts(levels, act(rep, n), fold) == graded_trace(n, lam), lam


@pytest.mark.parametrize("n", range(2, 13))
def test_graded_trace_does_not_depend_on_which_part_holds_xn(n):
    for lam in partitions(n):
        traces = {
            tuple(graded_trace(n, lam[:i] + lam[i + 1 :] + (part,)))
            for i, part in enumerate(lam)
        }
        assert len(traces) == 1, lam
        assert sum(next(iter(traces))) <= expected_codimension(n)
    assert graded_trace(n, (1,) * n) == bernoulli(n)


def test_fold_refuses_any_other_binomial():
    wb = Workbench(4)
    ring = wb.ideal_K.ring
    wrong = _edited(wb.gb_K, "x1^2 - x4^2", "x1^2 - 2*x4^2")
    with pytest.raises(ValueError, match=r"modulo x1\^2 - 2\*x4\^2 are not monomials"):
        _fold(wrong)
    with pytest.raises(ValueError, match="not every"):
        _fold(_edited(wb.gb_K, "x1^2 - x4^2", None))
    assert _fold(Workbench(2).gb_K)((1, 0)) == (1, 0)
    assert _fold(wb.gb_K)(ring.poly("x1^3*x2^2*x4").leading_monomial()) == (1, 0, 0, 5)


def test_fixed_counts_fold_each_image_before_comparing():
    levels = (((0, 0),), ((1, 0), (0, 1)))
    swap = act((1, 0), 2)
    assert _fixed_counts(levels, swap) == [1, 0]
    assert _fixed_counts(levels, swap, lambda m: (0, 1)) == [0, 1]


def test_a_chain_steps_only_through_quadratic_forms():
    # x1^2 - x2 and x2^2 - x1 would take x2 to x1 and back forever; a step
    # must lower the degree, so only forms x_k^2 - u with deg u = 2 are taken
    ring = xring(2)
    ideal = Ideal(ring, (ring.poly("x1^2 - x2"), ring.poly("x2^2 - x1")))
    gb = groebner.GroebnerBasis(ring, GREVLEX, ideal.gens + (ring.poly("x2"),))
    assert paperlab._membership_witness(gb, ideal, "I") == "no chain puts x2 in I"


@pytest.mark.parametrize(
    "old, new, witness",
    [
        ("x1*x4^3", None, "quotient dimension 19 != 17"),
        ("x4^5", None, "R/in(K_4) read off the closed form is not Artinian"),
        ("x1*x4^3", "x1*x4", "no chain puts x1*x4 in K_4"),
        ("x1*x4^3", "x1*x4^5", "quotient dimension 19 != 17"),
        ("x1^2 - x4^2", "x1^2 + x4^2", "x1^2 + x4^2 is not in the span"),
    ],
)
def test_the_sandwich_refuses_a_wrong_closed_form_of_K(old, new, witness):
    wb = Workbench(4)
    wb.gb_K = _edited(wb.gb_K, old, new)
    _fails_with(wb, "sandwich_check", witness)


@pytest.mark.parametrize(
    "old, new, witness",
    [
        ("x1*x2*x4^3", None, "staircase of L has 34 monomials, not the product 32"),
        ("x4^7", None, "R/in(L) read off the closed form is not Artinian"),
        ("x1*x2*x4^3", "x1*x2*x4", "no chain puts x1*x2*x4 in L"),
        ("x1*x2*x4^3", "x1*x2*x4^5", "staircase of L has 34 monomials"),
        ("x1^2 - x4^2", "x1^2 + x4^2", "x1^2 + x4^2 is not in the span"),
    ],
)
def test_the_colength_refuses_a_wrong_closed_form_of_L(old, new, witness):
    wb = Workbench(5)
    wb.gb_L = _edited(wb.gb_L, old, new)
    _fails_with(wb, "colength_check", witness)


def test_the_colength_needs_L_to_be_a_complete_intersection():
    wb = Workbench(5)
    ring = wb.ideal_L.ring
    wb.ideal_L = Ideal(ring, wb.ideal_L.gens + (ring.poly("x1^2*x2"),))
    _fails_with(wb, "colength_check", "L is not 4 forms in 4 variables")


@pytest.mark.parametrize(
    "old, new, witness",
    [
        ("x1*x4^2*z", None, "the S-polynomial of "),
        ("x1*x4^2*z", "x1*x4*z", "no chain puts x1*x4*z in Q_4"),
        ("x1^2 - x4*z", "x1^2 + x4*z", "x1^2 + x4*z is not in the span"),
        ("x1*x2*x3", None, "x1*x2*x3 does not reduce to 0 modulo the basis of Q_4"),
    ],
)
def test_the_criterion_refuses_a_wrong_closed_form_of_Q(old, new, witness):
    wb = Workbench(4)
    wb.gb_Q = _edited(wb.gb_Q, old, new)
    _fails_with(wb, "criterion_check", witness)


@pytest.mark.parametrize("n", range(3, 8))
def test_the_criterion_alone_accepts_Q_without_its_product(n):
    # without x1*...*x_{n-1} the closed form still passes Buchberger's
    # criterion, as a basis of a smaller ideal; the generators of Q_n do not
    # all reduce to 0 modulo it
    wb = Workbench(n)
    product = xring(n - 1).fmt(Polynomial.monomial((1,) * (n - 1)))
    wb.gb_Q = _edited(wb.gb_Q, product, None)
    assert groebner.unreduced_pair(wb.gb_Q) is None
    assert wb.criterion_check == f"{product} does not reduce to 0 modulo the basis of Q_{n}"


# ---------------------------------------------------------------------------
# J_n = in(K_n) by the sandwich, against the completion of I_n it replaced

@pytest.mark.parametrize("n", range(2, 9))
def test_sandwich_agrees_with_the_completion_of_I(n):
    wb = Workbench(n)
    assert wb.sandwich_check is None
    gb_i = buchberger(wb.ideal_I, GREVLEX, wb.pair_cap)
    assert gb_i.leading_monomials() == wb.gb_J.leading_monomials()
    assert top_form_basis(gb_i) == wb.gb_K
    assert len(standard_monomials(gb_i)) == expected_codimension(n)


def claims_resting_on(certificate: str) -> set:
    return {c for c, (_, certs, _) in CLAIMS.items() if certificate in certs}


J_CLAIMS = sorted(claims_resting_on("sandwich_check"))


@pytest.mark.parametrize(
    "certificate, claims",
    [
        (
            "sandwich_check",
            {
                "prop2_codim",
                "prop3_generators",
                "prop3_basis",
                "thm2",
                "thm3",
                "prop4_generators",
                "thmG",
                "inverse_system",
                "not_gorenstein_J",
                "appendix_regularity",
                "challenge",
            },
        ),
        ("series_check", {"prop3_basis", "thm2", "thmG", "inverse_system"}),
        ("duality_check", {"thmG", "inverse_system"}),
        ("unprojection_check", {"appendix_unprojection", "appendix_regularity"}),
        ("colength_check", {"appendix_colon", "appendix_krull"}),
        ("criterion_check", {"appendix_regularity", "appendix_krull"}),
        ("prev.sandwich_check", {"appendix_colon", "appendix_krull"}),
        ("staircase_check", {"prop3_basis", "thm3", "challenge"}),
    ],
)
def test_a_failed_certificate_fails_exactly_the_claims_resting_on_it(certificate, claims):
    assert claims_resting_on(certificate) == claims
    wb = Workbench(5)
    owner, name = (wb.prev, certificate[5:]) if "." in certificate else (wb, certificate)
    setattr(owner, name, "sentinel witness")
    reports = {claim: verify(claim, 5, wb) for claim in CLAIMS}
    failed = {c for c, r in reports.items() if r.status == "fail"}
    assert failed == claims
    assert all(reports[c].witness == "sentinel witness" for c in claims)
    assert all(r.status == "pass" for c, r in reports.items() if c not in claims)


def assert_J_claims_fail_with(wb: Workbench, witness: str):
    for claim in J_CLAIMS:
        report = verify(claim, wb.n, wb)
        assert (report.status, report.witness) == ("fail", witness), claim


@pytest.mark.parametrize("n", range(3, 7))
def test_sandwich_fails_for_K_without_one_generator(n):
    ring = xring(n)
    k = build_ideal("K_expected", n)
    square = ring.poly(f"x1^2 - x{n}^2")
    product = Polynomial.monomial((1,) * (n - 1) + (0,))
    # the closed form then holds an element outside the smaller ideal: no
    # other quadric gives x1^2 - xn^2, and no chain ends at x1*...*x_{n-1}
    for dropped, witness in [
        (square, f"x1^2 - x{n}^2 is not in the span of the generators of K_{n}"),
        (product, f"no chain puts {ring.fmt(product)} in K_{n}"),
    ]:
        wb = Workbench(n)
        wb.ideal_K = Ideal(ring, tuple(g for g in k.gens if g != dropped))
        assert wb.sandwich_check == witness
        assert_J_claims_fail_with(wb, wb.sandwich_check)


def test_sandwich_needs_every_generator_of_K_as_a_top_form():
    wb = Workbench(4)
    ring = wb.ideal_K.ring
    wb.ideal_K = Ideal(ring, wb.ideal_K.gens + (ring.poly("x1*x4"),))
    assert wb.sandwich_check == "x1*x4 is not the top form of a listed element of I_4"
    assert_J_claims_fail_with(wb, wb.sandwich_check)


@pytest.mark.parametrize("n", range(3, 7))
def test_sandwich_fails_for_a_point_missing_or_doubled(n, monkeypatch):
    pts = enumerate_points(n)
    c = expected_codimension(n)
    # a short list passes the point check: the count is the sandwich's
    assert verify_points_satisfy_ideal(build_ideal("I", n), pts[:-1]) is None
    for bad, witness in [
        (pts[:-1], f"point count {c - 1} != {c}"),
        (pts + [pts[1]], f"point count {c + 1} != {c}"),
        (pts[:-1] + [pts[1]], f"duplicate point {pts[1]}"),
    ]:
        monkeypatch.setattr(paperlab, "enumerate_points", lambda k: bad)
        assert Workbench(n).sandwich_check == witness
        assert_J_claims_fail_with(Workbench(n), witness)
        monkeypatch.undo()


def evaluated_points(monkeypatch, check, ideal, points) -> list:
    """Run ``check(ideal, points)`` and return the points it evaluates the
    generators at, each of them at every generator once."""
    calls = []
    real = paperlab._value_at
    with monkeypatch.context() as patch:
        patch.setattr(
            paperlab, "_value_at", lambda g, exps, m: calls.append(exps) or real(g, exps, m)
        )
        assert check(ideal, points) is None
    distinct = list(dict.fromkeys(calls))
    assert len(calls) == len(distinct) * len(ideal.gens)
    by_exps = {p.exponents(2 * (p.n - 2)): p for p in points}
    return [by_exps[exps] for exps in distinct]


@pytest.mark.parametrize("n", range(3, 7))
def test_point_check_evaluates_every_point_of_an_unstable_ideal(n, monkeypatch):
    # x1*f2 lies in I_n and vanishes on X_n, but (1 2) sends it to x2*f1;
    # dropping f1 leaves the transposition nothing to swap f2 with
    i = build_ideal("I", n)
    x1 = i.ring.var("x1")
    pts, check = enumerate_points(n), verify_points_satisfy_ideal
    for unstable in (Ideal(i.ring, i.gens + (x1 * i.gens[1],)), Ideal(i.ring, i.gens[1:])):
        assert evaluated_points(monkeypatch, check, unstable, pts) == pts
    # the order of the generators does not matter, only their set
    rotated = Ideal(i.ring, i.gens[2:] + i.gens[:2])
    assert len(evaluated_points(monkeypatch, check, rotated, pts)) < len(pts)


@pytest.mark.parametrize("n", range(3, 8))
def test_an_unstable_ideal_is_refused_off_the_class_representatives(n):
    # (x1 - x2)(x_{n-1} - xn) is not S_n-stable and vanishes at the first
    # point of every (k, number of -1 signs) class, but not at every point
    i = build_ideal("I", n)
    ring = i.ring
    x = [ring.var(name) for name in ring.names]
    extra = (x[0] - x[1]) * (x[-2] - x[-1])
    bigger = Ideal(ring, i.gens + (extra,))
    pts = enumerate_points(n)
    firsts = {}
    for p in pts:
        firsts.setdefault((p.k, p.eps and p.eps.count(-1)), p)
    assert verify_points_satisfy_ideal(bigger, list(firsts.values())) is None
    witness = verify_points_satisfy_ideal(bigger, pts)
    assert witness.startswith(f"generator {ring.fmt(extra)} nonzero at ")


def test_points_are_evaluated_once_per_orbit(monkeypatch):
    evaluated = [
        evaluated_points(
            monkeypatch,
            verify_points_satisfy_ideal,
            build_ideal("I", n),
            enumerate_points(n),
        )
        for n in range(3, 9)
    ]
    # the origin, and per root index k one orbit per count of -1 signs of
    # the right parity: 21 of the 321 points at n = 7
    assert [len(pts) for pts in evaluated] == [
        1 + sum(len(range(k % 2, n + 1, 2)) for k in range(n - 2)) for n in range(3, 9)
    ]
    assert len(evaluated[4]) == 21
    for pts in evaluated:
        keys = {(p.k, p.eps and p.eps.count(-1)) for p in pts}
        assert len(keys) == len(pts)


def test_point_check_rejects_a_point_of_another_n():
    with pytest.raises(ValueError, match="point check needs n >= 3"):
        verify_points_satisfy_ideal(build_ideal("I", 2), [SymbolicPoint(2)])
    pts = enumerate_points(4)
    pts[5] = SymbolicPoint(3, 0, (1, 1, 1))
    with pytest.raises(ValueError, match="a point of n=3 for 4 variables"):
        verify_points_satisfy_ideal(build_ideal("I", 4), pts)


# ---------------------------------------------------------------------------
# traces by fixed points and once-per-group invariance

@pytest.mark.parametrize("n", range(2, 8))
def test_thm3_fixed_point_traces_equal_the_table_traces(n):
    wb = Workbench(n)
    assert verify("thm3", n, wb).status == "pass"
    q = QuotientAlgebra(wb.gb_J)
    for _, _, rep in conjugacy_classes(n - 1):
        image = rep + (n - 1,)
        move = act(image, n)
        levels = wb.staircase_K.by_degree
        fixed = [sum(move(m) == m for m in level) for level in levels]
        assert fixed == equivariant_graded_trace(q, image)


def test_thm3_needs_J_stable_under_the_smaller_symmetric_group():
    wb = Workbench(4)
    wb.sandwich_check = None
    ring = wb.ideal_K.ring
    bigger = buchberger(Ideal(ring, wb.gb_J.elements + (ring.poly("x1*x4"),)))
    wb.gb_J, wb.staircase_K = bigger, standard_monomials(bigger)
    wb.staircase_check = None  # the staircase lost x1*x4
    report = verify("thm3", 4, wb)
    assert (report.status, report.witness) == (
        "fail",
        "(1 2) does not permute the generators of J_4",
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_challenge_fixed_points_equal_the_table_traces(n):
    # graded_traces on the normal-form table of the completed basis is the
    # reference of the count of fixed standard monomials
    wb = Workbench(n)
    q = QuotientAlgebra(buchberger(wb.ideal_K))
    lams, _, reps = zip(*conjugacy_classes(n))
    traces = graded_traces(q, reps, symmetric_generators(n, n).values())
    series = challenge_series(wb)
    assert type(series) is tuple and len(series) == len(q.basis.by_degree)
    for d, cf in enumerate(series):
        assert cf == ClassFunction(n, {lam: t[d] for lam, t in zip(lams, traces)}), d


def test_challenge_rejects_a_K_that_S_n_does_not_fix():
    wb = Workbench(4)
    ring = wb.ideal_K.ring
    wb.ideal_K = Ideal(ring, wb.ideal_K.gens + (ring.poly("x1"),))
    with pytest.raises(EquivarianceError):
        challenge_series(wb)


def test_challenge_refuses_a_basis_whose_normal_forms_are_not_monomials():
    # graded_trace reads the binomials x_i^2 - x4^2: with another binomial,
    # or with one of them missing, staircase_check fails prop3_basis, thm3
    # and challenge
    for new, witness in [
        ("x1^2 - 2*x4^2", "normal forms modulo x1^2 - 2*x4^2 are not monomials"),
        (None, "not every x_i^2 - x4^2 is an element of the basis"),
    ]:
        wb = Workbench(4)
        wb.gb_K = _edited(wb.gb_K, "x1^2 - x4^2", new)
        wb.sandwich_check = None  # the sandwich refuses both first
        _fails_with(wb, "staircase_check", witness)


def test_staircase_check_refuses_a_dropped_standard_monomial():
    wb = Workbench(4)
    levels = wb.staircase_K.by_degree
    wb.staircase_K = groebner.StandardBasis((*levels[:2], levels[2][1:], *levels[3:]))
    wb.sandwich_check = None  # the sandwich counts 16 of 17 first
    _fails_with(wb, "staircase_check", "0 unexpected and 1 missing standard monomials")
    assert claims_resting_on("staircase_check") == {"prop3_basis", "thm3", "challenge"}


@pytest.mark.parametrize("n", (9, 10))
def test_every_claim_passes_at_n_9_and_10_without_g_or_a_contraction(n, monkeypatch):
    monkeypatch.setattr(paperlab, "SUPPORTED_RANGE", (2, 10))
    _forbid_g(monkeypatch)
    wb = Workbench(n)
    for claim in CLAIMS:
        assert verify(claim, n, wb).status == "pass", claim


# ---------------------------------------------------------------------------
# z - xn regular by a multiplicity count, against the completions it replaced

@pytest.mark.parametrize("n", range(3, 8))
def test_regularity_certificate_agrees_with_the_completion_references(n):
    wb = Workbench(n)
    assert verify("appendix_regularity", n, wb).status == "pass"
    ring = wb.ideal_Q.ring
    f = ring.var("z") - ring.var(f"x{n}")
    assert is_regular_element(wb.ideal_Q, f)
    if n <= 5:
        assert reference_is_regular_element(wb.ideal_Q, f)


@pytest.mark.parametrize("n", range(3, 6))
def test_regularity_fails_when_z_minus_xn_kills_x1(n):
    # Q + <x1*(z - xn)> has the same image under z -> xn, so A/fA is still
    # R/K_n, but f*x1 = 0 with x1 != 0: the multiplicity drops below dim R/K
    wb = Workbench(n)
    ring = wb.ideal_Q.ring
    f = ring.var("z") - ring.var(f"x{n}")
    wb.ideal_Q = Ideal(ring, wb.ideal_Q.gens + (ring.var("x1") * f,))
    wb.gb_Q, wb.criterion_check = buchberger(wb.ideal_Q), None  # a completion
    assert wb.unprojection_check is None
    report = verify("appendix_regularity", n, wb)
    assert report.status == "fail"
    assert report.witness == "z - xn is a zero divisor on R[z]/Q"
    assert groebner.multiplicity(wb.gb_Q) < len(wb.staircase_K)
    assert not is_regular_element(wb.ideal_Q, f)
    assert not reference_is_regular_element(wb.ideal_Q, f)


def test_regularity_checks_every_step_of_its_certificate():
    # in(Q_4) has two one-dimensional components, along x4 and z; a basis
    # with pure powers of both in place of gb_Q has dimension 0
    wb = Workbench(4)
    ring = wb.ideal_Q.ring
    powers = (ring.poly("x4^6"), ring.poly("z^6"))
    wb.gb_Q = buchberger(Ideal(ring, wb.ideal_Q.gens + powers))
    wb.criterion_check = None
    assert wb.unprojection_check is None
    report = verify("appendix_regularity", 4, wb)
    assert (report.status, report.witness) == ("fail", "R/in(I) has dimension 0, not 1")
    # a flipped sign breaks the unprojection, which both claims share
    wb = Workbench(4)
    original, flipped = ring.poly("x4*z - x3^2"), ring.poly("x4*z + x3^2")
    gens = tuple(flipped if g == original else g for g in wb.ideal_Q.gens)
    wb.ideal_Q = Ideal(ring, gens)
    for claim in ("appendix_unprojection", "appendix_regularity"):
        report = verify(claim, 4, wb)
        assert (report.status, report.witness) == (
            "fail",
            "Q at z -> xn and K differ in degree 2",
        )
    wb = Workbench(4)
    wb.ideal_Q = Ideal(ring, wb.ideal_Q.gens + (ring.poly("z^3 - x4*z"),))
    wb.unprojection_check = wb.criterion_check = None
    report = verify("appendix_regularity", 4, wb)
    assert report.status == "fail"
    assert report.witness == "Q has a generator that is not a form"
