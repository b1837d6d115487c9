from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinforge.errors import AmbientMismatchError
from artinforge.polyarith import (
    DEGLEX,
    GREVLEX,
    LEX,
    Polynomial,
    PolyRing,
    TermOrder,
    _guards,
    _normal_form,
    _pack,
    _packed_divides,
    _packed_lcm,
    _reducer_info,
    _s_terms,
    coeff_div,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    reduce,
    xring,
)

R3 = xring(3)


def p(text, ring=R3):
    return ring.poly(text)


# Helpers moved here from ``polyarith``, where nothing called them: the dual
# ring, a three-way monomial comparison and the S-polynomial as one term dict
# (``_s_terms``, which the completion builds from its stored tails).
def yring(n: int) -> PolyRing:
    """The dual ring F[y1..yn]."""
    return PolyRing(f"y{i}" for i in range(1, n + 1))


def cmp_monomials(a, b, order: TermOrder = GREVLEX) -> int:
    """Compare two monomials, returning -1, 0 or 1."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def s_polynomial(f, g, order: TermOrder = GREVLEX) -> Polynomial:
    """The S-polynomial: both leading terms are scaled onto their lcm and
    cancelled, so S(f, f) == 0.  A zero argument raises ``ValueError``."""
    (f_info, g_info), _, _ = _reducer_info((f, g), order)
    lcm = mono_lcm(f_info[0], g_info[0])
    return Polynomial(f.nvars, _s_terms(lcm, f_info, g_info))


# ---------------------------------------------------------------------------
# strategies

monomials3 = st.tuples(*(st.integers(0, 4),) * 3)
coeffs = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


@st.composite
def polys3(draw, max_terms=4, exponents=st.integers(0, 4)):
    monomials = st.tuples(*(exponents,) * 3)
    terms = draw(
        st.dictionaries(monomials, coeffs, min_size=0, max_size=max_terms)
    )
    return Polynomial(3, terms)


# ---------------------------------------------------------------------------
# term orders

def grevlex_by_definition(a, b):
    """Independent oracle: total degree first, then the last nonzero entry
    of the exponent difference must be negative for the larger monomial."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    diff = [x - y for x, y in zip(a, b)]
    last = next((d for d in reversed(diff) if d), 0)
    if last == 0:
        return 0
    return 1 if last < 0 else -1


def test_grevlex_example_equal_degree():
    # x1*x2 vs x3^2: difference (1, 1, -2) has last nonzero entry -2 < 0
    assert cmp_monomials((1, 1, 0), (0, 0, 2), GREVLEX) == 1
    assert grevlex_by_definition((1, 1, 0), (0, 0, 2)) == 1


def test_one_is_minimal():
    assert cmp_monomials((0, 0, 0), (1, 0, 0), GREVLEX) == -1
    for order in (GREVLEX, LEX, DEGLEX):
        for m in [(1, 0, 0), (0, 0, 1), (2, 1, 3)]:
            assert cmp_monomials((0, 0, 0), m, order) == -1


def test_lex_first_coordinate():
    assert cmp_monomials((2, 0, 0), (1, 1, 0), LEX) == 1


@given(monomials3, monomials3)
def test_grevlex_matches_definition(a, b):
    assert cmp_monomials(a, b, GREVLEX) == grevlex_by_definition(a, b)


@given(monomials3, monomials3, monomials3)
def test_orders_are_multiplicative(a, b, c):
    for order in (GREVLEX, LEX, DEGLEX):
        s = cmp_monomials(a, b, order)
        assert cmp_monomials(mono_mul(a, c), mono_mul(b, c), order) == s


def test_order_totality():
    monos = monomials_of_degree(3, 2)
    for order in (GREVLEX, LEX, DEGLEX):
        keys = [order.key(m) for m in monos]
        assert len(set(keys)) == len(keys)


@given(monomials3)
def test_neg_key_is_the_order_key_negated(m):
    for order in (GREVLEX, LEX, DEGLEX):
        assert order.neg_key(m) == tuple(-v for v in order.key(m))


# ---------------------------------------------------------------------------
# arithmetic

def test_add_telescopes():
    assert p("x1 - x2") + p("x2 - x3") == p("x1 - x3")


def test_add_identity_and_inverse():
    q = p("x1*x2 - 2*x3")
    assert q + Polynomial.zero(3) == q
    assert p("x1") + p("-x1") == Polynomial.zero(3)


def test_mul_difference_of_squares():
    assert p("x1 - x2") * p("x1 + x2") == p("x1^2 - x2^2")


def test_mul_identity_and_monomial():
    q = p("x2*x3 - x1")
    assert q * Polynomial.constant(3, 1) == q
    assert q * p("x1") == p("x1*x2*x3 - x1^2")


def test_dimension_errors():
    with pytest.raises(AmbientMismatchError):
        p("x1") + xring(2).poly("x1")
    with pytest.raises(AmbientMismatchError):
        p("x1") * xring(2).poly("x1")


@given(polys3(), polys3(), polys3())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# leading terms

def test_leading_terms_grevlex():
    assert p("x2*x3 - x1").leading_term(GREVLEX) == ((0, 1, 1), 1)
    assert p("x3^3 - x3").leading_term(GREVLEX) == ((0, 0, 3), 1)
    assert Polynomial.constant(3, 5).leading_term(GREVLEX) == ((0, 0, 0), 5)


def test_leading_term_of_zero_is_undefined():
    with pytest.raises(ValueError):
        Polynomial.zero(3).leading_term(GREVLEX)


# ---------------------------------------------------------------------------
# division

J3_GENS = [p(t) for t in ("x1^2", "x2^2", "x1*x2", "x1*x3", "x2*x3", "x3^3")]


def test_reduce_single_step():
    assert reduce(p("x1^2"), [p("x1^2 - x3^2")]) == p("x3^2")
    assert reference_reduce(p("x1^2"), [p("x1^2 - x3^2")])[1] == [Polynomial.constant(3, 1)]


def test_reduce_already_standard():
    assert reduce(p("x3^2"), J3_GENS) == p("x3^2")


def test_reduce_zero():
    assert not reduce(Polynomial.zero(3), J3_GENS)


def test_reduce_rejects_a_zero_reducer():
    with pytest.raises(ValueError):
        reduce(p("x1"), [p("x2"), Polynomial.zero(3)])


def test_reduce_rejects_a_reducer_over_other_variables():
    with pytest.raises(AmbientMismatchError):
        reduce(p("x1"), [p("x2"), xring(2).poly("x1")])


@given(polys3())
def test_reduce_contract_and_idempotence(f):
    reducers = [p("x1^2 - x3^2"), p("x2^2 - x3"), p("x1*x2*x3 - 1")]
    nf = reduce(f, reducers)
    assert_division_identity(f, reducers)
    # no term of the remainder is reducible
    lms = [g.leading_monomial(GREVLEX) for g in reducers]
    for m in nf.terms:
        assert not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)
    # reducing again changes nothing
    assert reduce(nf, reducers) == nf


def test_s_polynomial_cancellation():
    s = s_polynomial(p("x1*x2 - x3"), p("x1*x3 - x2"))
    assert s == p("x2^2 - x3^2")


def test_s_polynomial_self_is_zero():
    f = p("x1*x2 - x3")
    assert not s_polynomial(f, f)


def test_s_polynomial_coprime_reduces_to_zero():
    f, g = p("x1^2"), p("x2^2")
    s = s_polynomial(f, g)
    assert not reduce(s, [f, g])


# The S-polynomial before it was built as one term dict, kept verbatim as the
# reference: two ``mul_term``s onto the lcm and their difference.
def reference_s_polynomial(f, g, order=GREVLEX):
    if not f or not g:
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    lmf, lcf = f.leading_term(order)
    lmg, lcg = g.leading_term(order)
    lcm = mono_lcm(lmf, lmg)
    return f.mul_term(mono_div(lcm, lmf), coeff_div(1, lcf)) - g.mul_term(
        mono_div(lcm, lmg), coeff_div(1, lcg)
    )


@settings(max_examples=200)
@given(
    polys3().filter(bool),
    polys3().filter(bool),
    st.sampled_from((GREVLEX, LEX, DEGLEX)),
    st.booleans(),
)
def test_s_polynomial_matches_the_reference(f, g, order, monic):
    if monic:  # as the completion stores them
        f, g = f.monic(order), g.monic(order)
    got = s_polynomial(f, g, order)
    assert got == reference_s_polynomial(f, g, order)
    assert s_polynomial(g, f, order) == -got


def test_s_polynomial_of_zero_is_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        s_polynomial(p("x1"), p("0"))


def test_mono_lcm():
    assert mono_lcm((1, 0, 2), (0, 3, 1)) == (1, 3, 2)


def mono_coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


# exponents on both sides of a field boundary: 2**k - 1 fills k bits, 2**k
# and 2**k + 1 need k + 1
boundary_exponents = st.sampled_from(
    sorted({0} | {2**k + d for k in range(6) for d in (-1, 0, 1)})
)


@st.composite
def packed_cases(draw):
    """Two monomials with exponents at field boundaries, and a field of
    ``bits`` exponent bits: the width they need, sometimes more."""
    nv = draw(st.integers(1, 4))
    a = draw(st.tuples(*[boundary_exponents] * nv))
    b = draw(st.tuples(*[boundary_exponents] * nv))
    bits = max(a + b).bit_length() + draw(st.sampled_from([0, 0, 0, 1, 3]))
    return a, b, bits


@settings(max_examples=300)
@given(packed_cases())
def test_packed_divides_lcm_and_coprime_match_the_tuples(case):
    a, b, bits = case
    guards = _guards(len(a), bits)
    pa, pb = _pack(a, bits), _pack(b, bits)
    assert pa & guards == 0 and pb & guards == 0
    assert _packed_divides(pa, pb, guards) == mono_divides(a, b)
    assert _packed_divides(pb, pa, guards) == mono_divides(b, a)
    lcm = _packed_lcm(pa, pb, guards, bits)
    assert lcm == _pack(mono_lcm(a, b), bits)
    assert lcm == _packed_lcm(pb, pa, guards, bits)
    assert (lcm == pa + pb) == mono_coprime(a, b)
    # a proper divisor packs smaller, so sorting packed lcms scans divisors first
    if mono_divides(a, b) and a != b:
        assert pa < pb
    # at the width ``a`` needs, larger exponents of ``b`` saturate: the guard
    # bits stay clear and divisibility by ``a`` is unchanged
    fit = max(a).bit_length()
    guards = _guards(len(a), fit)
    assert _pack(b, fit) & guards == 0
    assert _packed_divides(_pack(a, fit), _pack(b, fit), guards) == mono_divides(a, b)


def test_pack_saturates_exponents_above_the_field():
    # two exponent bits hold 0..3; 5 and 1000 saturate at 3, fields of 3 bits
    assert _pack((0, 5, 1), 2) == 0b001_011_000
    assert [_pack((e,), 2) for e in (2, 3, 4, 1000)] == [2, 3, 3, 3]
    guards = _guards(3, 2)
    assert _packed_divides(_pack((0, 3, 1), 2), _pack((0, 5, 1), 2), guards)
    assert not _packed_divides(_pack((1, 3, 0), 2), _pack((0, 5, 1), 2), guards)


# The division loop before the divisibility mask, kept verbatim as the
# reference: it tests every reducer exponent by exponent, and it keeps the
# per-reducer quotients that the package no longer builds, so the division
# identity p == sum(q_i * g_i) + r is checked against it.
def reference_reducer_info(reducers, order):
    """Precompute (leading monomial, leading coeff, tail items) per reducer."""
    info = []
    for g in reducers:
        if not g:
            raise ValueError("reducers must be nonzero")
        lm, lc = g.leading_term(order)
        tail = [(m, c) for m, c in g.terms.items() if m != lm]
        info.append((lm, lc, tail))
    return info


def reference_normal_form(terms: dict, info, order):
    """Core division loop on raw term dicts.

    Monomials are processed in strictly descending order via a heap of
    negated order keys, which is equivalent to always rewriting the current
    leading term.  Returns (normal form dict, per-reducer quotient dicts).
    """
    key = order.key
    work = dict(terms)
    heap = [((*[-v for v in key(m)],), m) for m in work]
    heap.sort()
    nf: dict = {}
    quots: list[dict] = [{} for _ in info]
    while heap:
        _, m = heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for idx, (lm, lc, tail) in enumerate(info):
            if mono_divides(lm, m):
                q = mono_div(m, lm)
                s = coeff_div(c, lc)
                qd = quots[idx]
                qd[q] = qd.get(q, 0) + s
                for tm, tc in tail:
                    t = mono_mul(q, tm)
                    old = work.get(t, 0)
                    new = old - s * tc
                    if new:
                        if not old:
                            heappush(heap, ((*[-v for v in key(t)],), t))
                        work[t] = new
                    else:
                        work.pop(t, None)
                break
        else:
            nf[m] = c
    return nf, quots


def reference_reduce(p, reducers, order=GREVLEX):
    """(remainder, quotients) of ``p`` under the reference division, as
    polynomials."""
    info = reference_reducer_info(reducers, order)
    nf, quots = reference_normal_form(p.terms, info, order)
    return Polynomial(p.nvars, nf), [Polynomial(p.nvars, q) for q in quots]


def assert_division_identity(f, reducers, order=GREVLEX):
    """``reduce`` returns the reference remainder r, and the reference
    quotients recombine: f == sum(q_i * g_i) + r."""
    nf, quots = reference_reduce(f, reducers, order)
    assert reduce(f, reducers, order) == nf
    total = nf
    for q, g in zip(quots, reducers):
        total = total + q * g
    assert total == f


@st.composite
def division_cases(draw):
    """A polynomial and one to four reducers over three variables with int
    and Fraction coefficients under a random order: the first reducer is
    non-monic, and a constant reducer sometimes joins the list.  Sometimes
    the reducers have exponents <= 1 and the polynomial exponents up to 9
    under Lex, so its monomials saturate the reducers' packed field."""
    if draw(st.booleans()):
        order, f_exps, g_exps = LEX, st.integers(0, 9), st.integers(0, 1)
    else:
        order = draw(st.sampled_from((GREVLEX, LEX, DEGLEX)))
        f_exps = g_exps = st.integers(0, 4)
    f = draw(polys3(max_terms=6, exponents=f_exps))
    reducers = draw(
        st.lists(polys3(exponents=g_exps).filter(bool), min_size=1, max_size=4)
    )
    if reducers[0].leading_term(order)[1] == 1:
        reducers[0] = reducers[0] * draw(st.sampled_from((3, -2, Fraction(2, 3))))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(reducers)))
        reducers.insert(at, Polynomial.constant(3, draw(coeffs)))
    return f, reducers, order


def test_reducer_info_carries_the_packed_leading_monomial():
    entries, bits, guards = _reducer_info([p("2*x1*x3^2 - x2"), p("5")], GREVLEX)
    (lm, lc, tail, packed), (_, _, _, one) = entries
    assert (lm, lc, tail) == ((1, 0, 2), 2, [((0, 1, 0), -1)])
    # the largest leading exponent, 2, needs two bits: three-bit fields
    assert (bits, guards) == (2, 0b100_100_100)
    assert (packed, one) == (0b010_000_001, 0)
    assert _reducer_info([], GREVLEX) == ([], 0, 0)


@settings(max_examples=200)
@given(division_cases())
def test_normal_form_matches_the_mask_free_reference(case):
    f, reducers, order = case
    got = _normal_form(f.terms, _reducer_info(reducers, order), order)
    want, _ = reference_normal_form(
        f.terms, reference_reducer_info(reducers, order), order
    )
    assert got == want
    assert_division_identity(f, reducers, order)


# ---------------------------------------------------------------------------
# the text format

def test_parse_examples():
    q = R3.poly("x2*x3 - x1")
    assert q.terms == {(0, 1, 1): 1, (1, 0, 0): -1}
    q = R3.poly("-2*x1^2*x3 + 1/3*x2")
    assert q.terms == {(2, 0, 1): -2, (0, 1, 0): Fraction(1, 3)}


def test_parse_whitespace_insignificant():
    assert R3.poly(" x2 * x3-x1 ") == p("x2*x3 - x1")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        R3.poly("x1 + q7")
    with pytest.raises(ValueError):
        R3.poly("")
    with pytest.raises(ValueError, match=r"zero denominator in '1/0\*x1'"):
        xring(2).poly("1/0*x1")
    with pytest.raises(ValueError, match="zero denominator"):
        R3.poly("x1 - 3/00")


def test_format_zero_and_descending_order():
    assert R3.fmt(Polynomial.zero(3)) == "0"
    assert R3.fmt(p("x1 - x2*x3")) == "-x2*x3 + x1"


def test_dual_and_extended_variables():
    y = yring(2)
    assert y.poly("y1^2 + y2^2").terms == {(2, 0): 1, (0, 2): 1}
    rz = xring(2, "z", "t")
    assert rz.poly("x1*z - t").terms == {(1, 0, 1, 0): 1, (0, 0, 0, 1): -1}
    with pytest.raises(ValueError, match=r"no variable 'z' in PolyRing\(x1, x2\)"):
        xring(2).var("z")


@given(polys3())
def test_roundtrip(f):
    assert R3.poly(R3.fmt(f)) == f


def test_ideal_drops_zero_generators():
    from artinforge.polyarith import Ideal

    assert Ideal(R3, (Polynomial.zero(3), p("x1"))).gens == (p("x1"),)


def test_monomials_of_degree_count():
    from math import comb

    for nv in (2, 3, 4):
        for d in range(5):
            assert len(monomials_of_degree(nv, d)) == comb(nv + d - 1, d)
