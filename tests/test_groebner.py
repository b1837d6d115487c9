import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, zip_longest

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from artinforge import groebner
from artinforge.errors import (
    AmbientMismatchError,
    NotArtinianError,
    ResourceLimitError,
)
from artinforge.groebner import (
    DEFAULT_PAIR_CAP,
    GroebnerBasis,
    buchberger,
    colon_ideal,
    first_nonmember,
    ideal_equal,
    ideal_member,
    multiplicity,
    standard_monomials,
    substitute,
    substitute_ideal,
    unreduced_pair,
)
from artinforge.paperlab import _k_homogeneous, build_ideal
from artinforge.polyarith import (
    GREVLEX,
    LEX,
    Ideal,
    Monomial,
    Polynomial,
    PolyRing,
    TermOrder,
    _guards,
    _normal_form,
    _pack,
    _packed_divides,
    _reducer_info,
    coeff_div,
    mono_div,
    mono_divides,
    mono_lcm,
    monomials_of_degree,
    reduce,
    xring,
)
from test_polyarith import (
    boundary_exponents,
    mono_coprime,
    reference_reduce,
    s_polynomial,
)

R3 = xring(3)
J3_MONOMIALS = {
    (2, 0, 0),
    (0, 2, 0),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (0, 0, 3),
}


def ideal3(*texts, ring=R3):
    return Ideal(ring, tuple(ring.poly(t) for t in texts))


class EliminationOrder:
    """A term order with a leading block of variable indices: any monomial
    involving a block variable beats every monomial that avoids the block.
    Within the block, and on the remaining variables, ties are broken by
    GRevLex.  It serves the elimination colon kept below as a reference."""

    def __init__(self, block):
        self.block = tuple(sorted(block))

    def key(self, m):
        head = [m[i] for i in self.block]
        tail = [e for i, e in enumerate(m) if i not in self.block]
        return (
            sum(head),
            *[-e for e in reversed(head)],
            sum(tail),
            *[-e for e in reversed(tail)],
        )

    def neg_key(self, m):
        return (*[-v for v in self.key(m)],)

    def __repr__(self):
        return f"EliminationOrder({self.block})"


def test_elimination_order_block_dominates():
    order = EliminationOrder((2,))
    # any monomial containing x3 beats any monomial without it
    assert order.key((0, 0, 1)) > order.key((5, 5, 0))


# ---------------------------------------------------------------------------
# buchberger

def test_gb_of_I3_leads_generate_J3():
    gb = buchberger(build_ideal("I", 3))
    assert set(gb.leading_monomials()) == J3_MONOMIALS


def test_gb_of_I2_is_the_variables():
    gb = buchberger(build_ideal("I", 2))
    R2 = xring(2)
    assert list(gb.elements) == [R2.poly("x2"), R2.poly("x1")]


def test_gb_principal_ideal_lex():
    gb = buchberger(ideal3("x1 - x2"), LEX)
    assert list(gb.elements) == [R3.poly("x1 - x2")]


def test_gb_zero_ideal():
    gb = buchberger(Ideal(R3, ()))
    assert gb.elements == ()


def test_gb_postcondition_every_spair_reduces():
    for n in (3, 4):
        assert is_groebner_basis(buchberger(build_ideal("I", n)).elements)
    assert is_groebner_basis(buchberger(build_ideal("K_expected", 4)).elements)


def test_gb_canonical_under_generator_permutation():
    base = build_ideal("I", 4)
    reference = buchberger(base)
    rng = random.Random(7)
    gens = list(base.gens)
    for _ in range(4):
        rng.shuffle(gens)
        assert buchberger(Ideal(base.ring, tuple(gens))) == reference


def test_gb_is_reduced():
    gb = buchberger(build_ideal("I", 4))
    lms = gb.leading_monomials()
    for i, g in enumerate(gb.elements):
        assert g.leading_term(GREVLEX)[1] == 1
        for m in g.terms:
            assert not any(
                j != i and all(a <= b for a, b in zip(lms[j], m))
                for j in range(len(lms))
            )


def test_pair_cap_raises():
    with pytest.raises(ResourceLimitError):
        buchberger(build_ideal("I", 5), GREVLEX, pair_cap=3)


# ---------------------------------------------------------------------------
# the completion against the earlier engine

def test_a_wider_leading_monomial_repacks(monkeypatch):
    # the generators have exponents <= 1; S(x1*x2 - 1, x1 - x2) = x2^2 - 1
    # needs a two-bit field, so x1*x2 is packed again at the wider width
    R2 = xring(2)
    ideal = Ideal(R2, (R2.poly("x1*x2 - 1"), R2.poly("x2 - x1")))
    packs = []
    pack = groebner._pack

    def record(m, bits):
        packs.append((m, bits))
        return pack(m, bits)

    monkeypatch.setattr(groebner, "_pack", record)
    gb = buchberger(ideal)
    monkeypatch.undo()
    assert ((1, 1), 1) in packs and ((1, 1), 2) in packs
    assert gb == reference_buchberger(ideal)
    assert list(gb.elements) == [R2.poly("x1 - x2"), R2.poly("x2^2 - 1")]
    assert_same_completion(ideal)
    # here the fields widen while pairs are live: their stored lcms are
    # repacked too, or the chain criterion reads them at the old width
    wide = Ideal(R2, (R2.poly("x2 - x1^5*x2^2"), R2.poly("-x1^4*x2^5 - x2^3")))
    assert_same_completion(wide)


# Direct Buchberger criterion, moved from ``groebner``: nothing in the package
# calls it, and it checks the completions here.  ``reduce`` now returns the
# remainder alone.
def is_groebner_basis(polys, order: TermOrder = GREVLEX) -> bool:
    """Direct Buchberger criterion: every S-polynomial reduces to zero.

    Quadratic and slow; meant for verifying outputs, not producing them.
    """
    polys = list(polys)
    for f, g in combinations(polys, 2):
        s = s_polynomial(f, g, order)
        if s and reduce(s, polys, order):
            return False
    return True


# The earlier completion, kept verbatim as the reference for the Gebauer-Moeller
# update on stored lcms and the one-call interreduction: it rescans every
# candidate pair per install, recomputes each live pair's lcm for the chain
# criterion, builds its S-polynomials inline and interreduces through
# ``reduce``.  It passes ``_normal_form`` the reducer info of its basis as
# ``_reducer_info`` now builds it (entries with packed leading monomials, and
# their width), and it takes the remainders of ``_normal_form`` and
# ``reduce`` as they now return them, with no quotients.
def reference_buchberger(
    ideal: Ideal, order: TermOrder = GREVLEX, pair_cap: "int | None" = None
) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` with respect to ``order``.

    Raises :class:`ResourceLimitError` once more than ``pair_cap`` S-pairs
    (default ``DEFAULT_PAIR_CAP``) have been enqueued, turning runaway
    computations into clean failures.
    """
    cap = DEFAULT_PAIR_CAP if pair_cap is None else pair_cap
    key = order.key

    basis: list[Polynomial] = []
    lms: list[Monomial] = []
    alive: set[tuple[int, int]] = set()
    heap: list = []
    enqueued = 0

    def nf(p: Polynomial) -> Polynomial:
        info = _reducer_info(basis, order)
        return Polynomial(p.nvars, _normal_form(p.terms, info, order))

    def update(h: Polynomial):
        """Gebauer-Moeller installation of a new basis element."""
        nonlocal enqueued
        t = len(basis)
        lt, lc = h.leading_term(order)
        lcm_with = [mono_lcm(lm, lt) for lm in lms]
        # new pairs, pruned by the lcm-divisibility and coprimality criteria
        candidates = list(range(t))
        kept: list[int] = []
        while candidates:
            i = candidates.pop(0)
            li = lcm_with[i]
            if mono_coprime(lms[i], lt) or (
                all(not mono_divides(lcm_with[j], li) for j in candidates)
                and all(not mono_divides(lcm_with[j], li) for j in kept)
            ):
                kept.append(i)
        new_pairs = [i for i in kept if not mono_coprime(lms[i], lt)]
        # chain criterion against surviving old pairs
        for i, j in list(alive):
            lij = mono_lcm(lms[i], lms[j])
            if (
                mono_divides(lt, lij)
                and lcm_with[i] != lij
                and lcm_with[j] != lij
            ):
                alive.discard((i, j))
        basis.append(h)
        lms.append(lt)
        for i in new_pairs:
            li = lcm_with[i]
            heappush(heap, (sum(li), key(li), i, t))
            alive.add((i, t))
            enqueued += 1
            if enqueued > cap:
                raise ResourceLimitError(
                    f"pair queue exceeded the cap of {cap} pairs"
                )

    for g in ideal.gens:
        h = nf(g)
        if h:
            update(h.monic(order))

    while heap:
        _, _, i, j = heappop(heap)
        if (i, j) not in alive:
            continue
        alive.discard((i, j))
        f, g = basis[i], basis[j]
        lcm = mono_lcm(lms[i], lms[j])
        s = f.mul_term(
            mono_div(lcm, lms[i]), coeff_div(1, f.terms[lms[i]])
        ) - g.mul_term(mono_div(lcm, lms[j]), coeff_div(1, g.terms[lms[j]]))
        h = nf(s)
        if h:
            update(h.monic(order))

    # minimalise: keep only elements whose leading monomial is undivided
    order_idx = sorted(range(len(basis)), key=lambda i: key(lms[i]))
    minimal: list[int] = []
    for i in order_idx:
        if not any(mono_divides(lms[j], lms[i]) for j in minimal):
            minimal.append(i)
    # interreduce tails; normal forms against a Groebner basis are canonical,
    # so a single pass in any order yields the reduced basis
    final = {i: basis[i] for i in minimal}
    for i in minimal:
        others = [final[j] for j in minimal if j != i]
        final[i] = reduce(final[i], others, order).monic(order)
    return GroebnerBasis(ideal.ring, order, tuple(final[i] for i in minimal))


def completion_trace(module, engine, ideal, order, pair_cap=None):
    """Run ``engine`` with the ``heappush`` and ``_normal_form`` of its
    module recorded: the pairs it enqueues, the term lists it reduces, and
    its basis (None when the pair cap stops it)."""
    pushed, reduced = [], []
    push, nf = module.heappush, module._normal_form

    def record_push(heap, item):
        pushed.append(item)
        push(heap, item)

    def record_nf(terms, info, order):
        reduced.append(sorted(terms.items()))
        return nf(terms, info, order)

    module.heappush, module._normal_form = record_push, record_nf
    try:
        gb = engine(ideal, order, pair_cap)
    except ResourceLimitError:
        gb = None
    finally:
        module.heappush, module._normal_form = push, nf
    return pushed, reduced, gb


def assert_same_completion(ideal, order=GREVLEX, pair_cap=None):
    """Both engines enqueue the same pairs in the same order, reduce the same
    polynomials in the same order and return the same basis."""
    here = sys.modules[__name__]
    ref = completion_trace(here, reference_buchberger, ideal, order, pair_cap)
    pushed, reduced, gb = completion_trace(groebner, buchberger, ideal, order, pair_cap)
    ref_pushed, ref_reduced, ref_gb = ref
    assert pushed == ref_pushed
    assert gb == ref_gb
    # the reference interreduces through ``reduce``, whose division loop is not
    # the recorded binding; the new engine reduces each tail once
    tails = len(gb.elements) if gb is not None else 0
    assert reduced[: len(reduced) - tails] == ref_reduced
    assert len(reduced) == len(ref_reduced) + tails
    if gb is not None:
        # the minimal generators of the initial ideal, ascending: a strict
        # chain of keys and a divisibility antichain
        lms = gb.leading_monomials()
        keys = [order.key(m) for m in lms]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert not any(mono_divides(a, b) for a, b in combinations(lms, 2))
    return pushed, gb


@st.composite
def completion_cases(draw, exponents=st.integers(0, 2)):
    """Up to four polynomials of up to three terms in two to four variables,
    with exponents drawn from ``exponents``, under GRevLex or an elimination
    order of a random block."""
    nv = draw(st.integers(2, 4))
    mono = st.tuples(*[exponents] * nv)
    coeff = st.integers(-3, 3).filter(bool)
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3)
    gens = draw(st.lists(poly, min_size=1, max_size=4))
    if draw(st.booleans()):
        order = GREVLEX
    else:
        variables = st.integers(0, nv - 1)
        block = draw(st.lists(variables, min_size=1, max_size=nv - 1, unique=True))
        order = EliminationOrder(block)
    return Ideal(xring(nv), tuple(Polynomial(nv, g) for g in gens)), order


@settings(max_examples=150)
@given(completion_cases())
def test_buchberger_replays_the_reference_on_random_ideals(case):
    ideal, order = case
    assert_same_completion(ideal, order, pair_cap=150)


@settings(max_examples=60, deadline=None)
@given(completion_cases(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9])))
def test_buchberger_replays_the_reference_at_field_boundaries(case):
    # leading monomials whose exponents cross 2**k widen the packed fields
    # during the completion
    ideal, order = case
    assert_same_completion(ideal, order, pair_cap=40)


@pytest.mark.parametrize(
    "which, ns",
    [("I", range(2, 7)), ("K_expected", range(3, 7)), ("Q", range(3, 7))],
)
def test_buchberger_replays_the_reference_on_the_family(which, ns):
    for n in ns:
        _, gb = assert_same_completion(build_ideal(which, n))
        assert gb is not None


@pytest.mark.parametrize("cap", [1, 6, 40])
def test_pair_cap_stops_both_engines_at_the_same_pair(cap):
    pushed, gb = assert_same_completion(build_ideal("I", 5), GREVLEX, cap)
    assert gb is None and len(pushed) == cap + 1


# ---------------------------------------------------------------------------
# initial ideals and top forms

def test_initial_ideal_matches_expected_generators():
    for n in (4, 5):
        got = set(buchberger(build_ideal("I", n)).leading_monomials())
        expected = {
            g.leading_monomial() for g in build_ideal("J_expected", n).gens
        }
        assert got == expected


def test_initial_ideal_principal():
    gb = buchberger(ideal3("x1"))
    assert gb.leading_monomials() == ((1, 0, 0),)


# ``top_form_basis`` read the reduced basis of K_n off that of I_n before the
# family claims certified K_n = top(I_n) without completing I_n; kept as
# their reference, with the completion of the top forms it replaced.
def top_form_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """The reduced basis of the ideal of top-degree forms of the ideal I
    with reduced GRevLex basis ``gb``, with no completion.

    GRevLex refines the degree, so lm(top f) = lm(f) for every f: the top
    forms of ``gb`` have its leading monomials, which generate in(I) =
    in(top I), so they are a Groebner basis of top(I) (Kreuzer and Robbiano,
    *Computational Commutative Algebra 2*, 4.2).  They are monic, their
    leading monomials are minimal and every other term is a term of the
    reduced ``gb``, divisible by no leading monomial: the basis is reduced.
    """
    if gb.order != GREVLEX:
        raise ValueError("top_form_basis needs a GRevLex basis")
    tops = tuple(g.top_degree_part() for g in gb.elements)
    return GroebnerBasis(gb.ring, GREVLEX, tops)


# The top-form ideal before ``top_form_basis``, kept as its reference: the top
# forms of a GRevLex basis as generators, which a completion then reduces.
def reference_top_form_ideal(gb: GroebnerBasis) -> Ideal:
    return Ideal(gb.ring, tuple(g.top_degree_part() for g in gb.elements))


def test_top_form_basis_of_I3():
    expected = ideal3(
        "x1^2 - x3^2", "x2^2 - x3^2", "x2*x3", "x1*x3", "x1*x2"
    )
    assert top_form_basis(buchberger(build_ideal("I", 3))) == buchberger(expected)


def test_top_form_basis_fixes_homogeneous_ideals():
    gb = buchberger(ideal3("x1^2 - x2*x3", "x3^3"))
    assert top_form_basis(gb) == gb


def test_top_form_basis_needs_a_grevlex_basis():
    assert top_form_basis(buchberger(Ideal(R3, ()))).elements == ()
    with pytest.raises(ValueError):
        top_form_basis(buchberger(build_ideal("I", 3), LEX))


@settings(max_examples=100, deadline=None)
@given(completion_cases())
def test_top_form_basis_matches_the_completion_on_random_ideals(case):
    # the generators are mostly inhomogeneous; the drawn order is ignored
    ideal, _ = case
    try:
        gb = buchberger(ideal, GREVLEX, pair_cap=150)
    except ResourceLimitError:
        return
    event(f"homogeneous: {all(g.is_homogeneous() for g in ideal.gens)}")
    top = top_form_basis(gb)
    assert top == buchberger(reference_top_form_ideal(gb))


# ---------------------------------------------------------------------------
# membership and equality

def test_membership_examples():
    gb = buchberger(build_ideal("I", 3))
    assert ideal_member(R3.poly("x3^3 - x3"), gb)
    assert not ideal_member(R3.poly("x1"), gb)
    assert ideal_member(Polynomial.zero(3), gb)


def test_first_nonmember_is_the_first_element_outside():
    gb = buchberger(build_ideal("I", 3))
    inside, outside = R3.poly("x3^3 - x3"), R3.poly("x1")
    assert first_nonmember([inside, Polynomial.zero(3)], gb) is None
    assert first_nonmember([inside, outside, R3.poly("x2")], gb) == outside
    assert first_nonmember([], gb) is None


@settings(max_examples=60, deadline=None)
@given(completion_cases(), st.data())
def test_unreduced_pair_agrees_with_the_direct_criterion(case, data):
    # the product criterion and the skipped monomial pairs are sound: a set
    # passes exactly when every S-polynomial reduces to 0
    ideal, order = case
    elems = [g for g in ideal.gens if g]
    try:
        done = list(buchberger(ideal, order, pair_cap=40).elements)
    except ResourceLimitError:
        done = []
    for polys in (elems, done, done[:-1], data.draw(st.permutations(done))):
        if not polys:
            continue
        pair = unreduced_pair(GroebnerBasis(ideal.ring, order, tuple(polys)))
        assert (pair is None) is is_groebner_basis(polys, order)
        if pair is not None:
            f, g = (polys[i] for i in pair)
            assert pair[0] < pair[1]
            assert reduce(s_polynomial(f, g, order), polys, order)


def test_ideal_equal_two_presentations():
    # the same homogeneous ideal written against x4^2 and against x3^2
    R4 = xring(4)
    a = build_ideal("K_expected", 4)
    b = Ideal(
        R4,
        tuple(
            R4.poly(t)
            for t in (
                "x1^2 - x3^2",
                "x2^2 - x3^2",
                "x4^2 - x3^2",
                "x2*x3*x4",
                "x1*x3*x4",
                "x1*x2*x4",
                "x1*x2*x3",
            )
        ),
    )
    assert ideal_equal(a, b)


def test_ideal_equal_distinguishes_I3_J3():
    i3 = build_ideal("I", 3)
    j3 = build_ideal("J_expected", 3)
    assert not ideal_equal(i3, j3)
    assert ideal_equal(i3, i3)


def test_ideal_equal_ring_mismatch():
    with pytest.raises(AmbientMismatchError):
        ideal_equal(build_ideal("I", 3), build_ideal("I", 4))


# ---------------------------------------------------------------------------
# colon ideals, with a degreewise linear-algebra oracle

def fraction_echelon(rows, ncols):
    """Reduced row echelon form over the rationals, zero rows dropped."""
    m = [[Fraction(c) for c in row] for row in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m[:r]


def member_by_linear_algebra(f, ideal, row_spaces):
    """f (homogeneous) lies in the homogeneous ideal iff it is a combination
    of same-degree multiples of the generators.  ``row_spaces`` memoises the
    echelon form of those multiples by degree, for this one ideal."""
    d = f.total_degree()
    cols = monomials_of_degree(f.nvars, d)
    if d not in row_spaces:
        rows = []
        for g in ideal.gens:
            dg = g.total_degree()
            if dg > d:
                continue
            for m in monomials_of_degree(f.nvars, d - dg):
                prod = g.mul_term(m)
                rows.append([prod.coefficient(mono) for mono in cols])
        row_spaces[d] = fraction_echelon(rows, len(cols))
    ech = row_spaces[d]
    fvec = [f.coefficient(mono) for mono in cols]
    return len(fraction_echelon(ech + [fvec], len(cols))) == len(ech)


def random_monomial_ideal(rng, nvars=3, ngens=3, max_deg=3):
    gens = []
    for _ in range(ngens):
        d = rng.randint(1, max_deg)
        exp = [0] * nvars
        for _ in range(d):
            exp[rng.randrange(nvars)] += 1
        gens.append(Polynomial.monomial(tuple(exp)))
    return Ideal(xring(nvars), tuple(gens))


def test_colon_agrees_with_brute_force_up_to_degree_6():
    rng = random.Random(2024)
    # the staircase colon needs an Artinian quotient: add a pure power of
    # every variable above the random generators' degrees
    powers = tuple(Polynomial.monomial(m) for m in ((4, 0, 0), (0, 4, 0), (0, 0, 4)))
    for _ in range(6):
        a = random_monomial_ideal(rng)
        a = Ideal(a.ring, a.gens + powers)
        b = random_monomial_ideal(rng, ngens=2)
        gb_colon = colon_ideal(buchberger(a), b)
        assert gb_colon.elements == reference_colon_ideal(a, b).gens
        row_spaces = {}
        for d in range(7):
            for m in monomials_of_degree(3, d):
                w = Polynomial.monomial(m)
                in_colon = ideal_member(w, gb_colon)
                oracle = all(
                    member_by_linear_algebra(w * g, a, row_spaces) for g in b.gens
                )
                assert in_colon == oracle, (a, b, m)


def test_colon_by_unit_ideal():
    gb = buchberger(build_ideal("I", 4))
    assert colon_ideal(gb, Ideal(gb.ring, (Polynomial.constant(gb.ring.nvars, 1),))) == gb


def test_colon_monomial_example():
    colon = colon_ideal(buchberger(ideal3("x1*x2", "x1^3", "x2^2", "x3")), ideal3("x1"))
    assert colon.elements == buchberger(ideal3("x2", "x1^2", "x3")).elements


def test_colon_needs_an_artinian_quotient():
    with pytest.raises(NotArtinianError):
        colon_ideal(buchberger(ideal3("x1*x2")), ideal3("x1"))
    assert ideal_equal(reference_colon_ideal(ideal3("x1*x2"), ideal3("x1")), ideal3("x2"))


def test_colon_by_zero_ideal_rejected():
    with pytest.raises(ValueError):
        colon_ideal(buchberger(ideal3("x1")), Ideal(R3, ()))
    with pytest.raises(ValueError):
        reference_colon_ideal(ideal3("x1"), Ideal(R3, ()))


def test_colon_L3_K3_both_way_membership():
    # (L : K) = L + <x3^2>, certified by memberships in both directions
    L = build_ideal("L", 4)  # lives in three variables
    K = build_ideal("K_expected", 3)
    colon = colon_ideal(buchberger(L), K)
    target = buchberger(Ideal(L.ring, L.gens + (L.ring.poly("x3^2"),)))
    assert all(ideal_member(g, target) for g in colon.elements)
    assert all(ideal_member(g, colon) for g in target.elements)
    assert colon == target


def test_colon_matches_the_elimination_reference_on_the_family():
    for n in range(3, 8):
        L, K = build_ideal("L", n), _k_homogeneous(n - 1)
        assert colon_ideal(buchberger(L), K).elements == reference_colon_ideal(L, K).gens


@st.composite
def artinian_colon_cases(draw):
    """A pure power of every variable plus up to two binomials in two or
    three variables, and an ideal b of one or two polynomials of up to two
    terms."""
    nv = draw(st.integers(2, 3))
    mono = st.tuples(*[st.integers(0, 2)] * nv)
    coeff = st.integers(-2, 2).filter(bool)
    gens = [
        Polynomial.monomial(tuple(draw(st.integers(2, 3)) if j == i else 0 for j in range(nv)))
        for i in range(nv)
    ]
    binomial = st.dictionaries(mono, coeff, min_size=2, max_size=2)
    gens += [Polynomial(nv, t) for t in draw(st.lists(binomial, max_size=2))]
    small = st.dictionaries(mono, coeff, min_size=1, max_size=2)
    b = [Polynomial(nv, t) for t in draw(st.lists(small, min_size=1, max_size=2))]
    return Ideal(xring(nv), tuple(gens)), Ideal(xring(nv), tuple(b))


@settings(max_examples=100, deadline=None)
@given(artinian_colon_cases())
def test_colon_matches_the_elimination_reference_on_random_ideals(case):
    a, b = case
    assert colon_ideal(buchberger(a), b).elements == reference_colon_ideal(a, b).gens


# The colon through elimination that the staircase colon replaced, kept
# verbatim as its reference; it needs no Artinian quotient.
def _fresh_name(ring: PolyRing, base: str = "t") -> str:
    if base not in ring.index:
        return base
    k = 0
    while f"{base}{k}" in ring.index:
        k += 1
    return f"{base}{k}"


def reference_eliminate(
    ideal: Ideal, names, pair_cap: "int | None" = None
) -> Ideal:
    """Generators of the elimination ideal ``I meet F[remaining variables]``.

    Computed from a Groebner basis for an elimination order whose leading
    block is ``names``; the result lives in the contracted ring.
    """
    names = tuple(names)
    if not names:
        return ideal
    for nm in names:
        if nm not in ideal.ring.index:
            raise AmbientMismatchError(f"no variable {nm!r} to eliminate")
    block = tuple(ideal.ring.index[nm] for nm in names)
    order = EliminationOrder(block)
    gb = buchberger(ideal, order, pair_cap)
    blockset = set(block)
    small = PolyRing(nm for nm in ideal.ring.names if nm not in names)
    kept = [
        small.lift(g, ideal.ring)
        for g in gb.elements
        if all(all(m[i] == 0 for i in blockset) for m in g.terms)
    ]
    return Ideal(small, tuple(kept))


def reference_intersect(a: Ideal, b: Ideal, pair_cap: "int | None" = None) -> Ideal:
    """Ideal intersection via the auxiliary variable trick
    ``I meet J = (t*I + (1-t)*J) meet F[x]``."""
    if a.ring != b.ring:
        raise AmbientMismatchError("ideals live in different rings")
    ring = a.ring
    if a.is_zero or b.is_zero:
        return Ideal(ring, ())
    tname = _fresh_name(ring)
    big = PolyRing(ring.names + (tname,))
    t = big.var(tname)
    gens = [t * big.lift(g, ring) for g in a.gens]
    gens += [(1 - t) * big.lift(g, ring) for g in b.gens]
    out = reference_eliminate(Ideal(big, tuple(gens)), (tname,), pair_cap)
    return Ideal(ring, out.gens)


def reference_exact_divide(
    g: Polynomial, f: Polynomial, order: TermOrder = GREVLEX
) -> Polynomial:
    """Quotient g/f for a known multiple; remainder must vanish."""
    nf, quots = reference_reduce(g, [f], order)
    if nf:
        raise ValueError("exact_divide called on a non-multiple")
    return quots[0]


def reference_colon_ideal(a: Ideal, b: Ideal, pair_cap: "int | None" = None) -> Ideal:
    """The colon ideal (a : b) = all f with f*b inside a.

    For each generator f of b, (a : f) is obtained as (a meet <f>)/f through
    one elimination; the results are intersected over the generators.  The
    returned generators are the canonical reduced basis.
    """
    if b.is_zero:
        raise ValueError("colon by the zero ideal")
    if a.ring != b.ring:
        raise AmbientMismatchError("ideals live in different rings")
    ring = a.ring
    result: "Ideal | None" = None
    for f in b.gens:
        meet = reference_intersect(a, Ideal(ring, (f,)), pair_cap)
        part = Ideal(ring, tuple(reference_exact_divide(g, f) for g in meet.gens))
        result = part if result is None else reference_intersect(result, part, pair_cap)
    gb = buchberger(result, GREVLEX, pair_cap)
    return Ideal(ring, gb.elements)


def test_intersect_example():
    a, b = ideal3("x1"), ideal3("x2")
    assert ideal_equal(reference_intersect(a, b), ideal3("x1*x2"))


def test_eliminate_product_trick():
    ring = xring(2, "t")
    ideal = Ideal(
        ring, (ring.poly("t*x1"), ring.poly("x2 - t*x2"))
    )
    out = reference_eliminate(ideal, ("t",))
    assert out.ring == xring(2)
    assert ideal_equal(out, Ideal(xring(2), (xring(2).poly("x1*x2"),)))


def test_eliminate_nothing_is_identity():
    ideal = ideal3("x1 - x2")
    assert reference_eliminate(ideal, ()) is ideal


def test_eliminate_graph():
    ring = xring(1, "t")
    out = reference_eliminate(Ideal(ring, (ring.poly("t - x1"),)), ("t",))
    assert out.gens == ()


def test_exact_divide():
    q = reference_exact_divide(R3.poly("x1^2*x2 - x1*x2^2"), R3.poly("x1 - x2"))
    assert q == R3.poly("x1*x2")
    with pytest.raises(ValueError):
        reference_exact_divide(R3.poly("x1 + 1"), R3.poly("x2"))


# ---------------------------------------------------------------------------
# substitution

def test_substitute_examples():
    ring = xring(4, "z")
    z = ring.var("z")
    x4 = ring.var("x4")
    assert substitute(z, 4, x4) == x4
    assert substitute(ring.poly("x1^2"), 4, x4) == ring.poly("x1^2")
    q4 = build_ideal("Q", 4)
    substituted = substitute_ideal(q4, "z", q4.ring.var("x4"))
    k4 = build_ideal("K_expected", 4)
    lifted = Ideal(
        q4.ring, tuple(q4.ring.lift(g, k4.ring) for g in k4.gens)
    )
    assert ideal_equal(substituted, lifted)
    k = build_ideal("K_expected", 3)
    with pytest.raises(ValueError, match=r"no variable 'z' in PolyRing\(x1, x2, x3\)"):
        substitute_ideal(k, "z", k.ring.var("x3"))


# ---------------------------------------------------------------------------
# regularity and Krull dimension

# The Krull dimension by a scan of variable subsets, which ``appendix_krull``
# ran before it read the certified staircases and ``multiplicity``; kept as
# that claim's reference.
def krull_dim_monomial(gb: GroebnerBasis) -> int:
    """Krull dimension of R/in(I) for ``gb`` a reduced basis of I: the
    largest number of variables supporting no leading monomial entirely."""
    nv = gb.ring.nvars
    lms = gb.leading_monomials()
    if (0,) * nv in lms:
        raise ValueError("the ideal contains 1; the quotient is zero")
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
    for size in range(nv, 0, -1):
        for subset in combinations(range(nv), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    return 0


# The reverse-lex regularity test, one completion of the moved ideal, which
# ``appendix_regularity`` ran before its multiplicity certificate; kept as
# that claim's reference.
def is_regular_element(
    ideal: Ideal, f: Polynomial, pair_cap: "int | None" = None
) -> bool:
    """True when the linear form f = c*x_last + l (c != 0, l free of the last
    variable) is a non zero-divisor on S/I, for I generated by the
    homogeneous ``ideal.gens``; any other f raises ``ValueError``.

    The automorphism x_last -> (x_last - l)/c sends f to x_last and I to a
    homogeneous J, so f is regular on S/I exactly when x_last is regular on
    S/J.  x_last is the cheapest variable under GRevLex, so
    in(J : x_last) = in(J) : x_last (Bayer-Stillman; Eisenbud, Prop. 15.12),
    and that holds exactly when no minimal generator of in(J), i.e. no
    leading monomial of the reduced basis of J, contains x_last.
    """
    last = ideal.ring.nvars - 1
    x = Polynomial.variable(ideal.ring.nvars, last)
    c = f.coefficient(x.leading_monomial())
    if not c or f.total_degree() != 1 or not f.is_homogeneous():
        raise ValueError("the regularity criterion needs a linear form in x_last")
    if not all(g.is_homogeneous() for g in ideal.gens):
        raise ValueError("the regularity criterion needs a homogeneous ideal")
    value = (x - (f - c * x)) * Fraction(1, c)
    image = Ideal(ideal.ring, tuple(substitute(g, last, value) for g in ideal.gens))
    lms = buchberger(image, GREVLEX, pair_cap).leading_monomials()
    return not any(m[last] for m in lms)


def reference_is_regular_element(
    ideal: Ideal, f: Polynomial, pair_cap: "int | None" = None
) -> bool:
    """True when f is a non zero-divisor on R/I, i.e. (I : f) = I."""
    if not f:
        raise ValueError("regularity of the zero element is undefined")
    quotient = reference_colon_ideal(ideal, Ideal(ideal.ring, (f,)), pair_cap)
    return ideal_equal(quotient, ideal, GREVLEX, pair_cap)


# The Hilbert-series regularity test that the reverse-lex criterion replaced,
# kept verbatim as a second reference, with the monomial ideals and the
# Bayer-Stillman numerator it reads.

@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal kept as its minimal generators (a divisibility
    antichain); redundant generators passed in are dropped."""

    ring: PolyRing
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        # a proper divisor has lower degree, so it sorts first
        gens = sorted(set(self.gens), key=GREVLEX.key)
        bits = max((e for m in gens for e in m), default=0).bit_length()
        guards, minimal = _guards(self.ring.nvars, bits), {}  # packed -> gen
        for m in gens:
            pm = _pack(m, bits)
            if not any(_packed_divides(po, pm, guards) for po in minimal):
                minimal[pm] = m
        object.__setattr__(self, "gens", tuple(minimal.values()))


def initial_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """Leading-monomial ideal of a reduced basis (minimal generators)."""
    return MonomialIdeal(gb.ring, gb.leading_monomials())


def _add(a: list[int], b: list[int]) -> list[int]:
    """a + b for ascending coefficient lists, without trailing zeros."""
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def hilbert_numerator(m_ideal: MonomialIdeal) -> list[int]:
    """The K(t) with HS(S/M) = K(t)/(1-t)^nvars, as ascending integer
    coefficients without trailing zeros ([] for the unit ideal).  Following
    Bayer-Stillman, if x_i divides two generators and e is its least exponent
    there, N(M) = N(M + <x_i^e>) + t^e N(M : x_i^e); pairwise coprime
    generators give prod (1 - t^deg g)."""
    ring, gens = m_ideal.ring, m_ideal.gens
    counts = [sum(1 for g in gens if g[i]) for i in range(ring.nvars)]
    if max(counts, default=0) < 2:
        num = [1]
        for g in gens:
            num = _add(num, [0] * sum(g) + [-c for c in num])
        return num
    i = counts.index(max(counts))
    e = min(g[i] for g in gens if g[i])
    plus = gens + (tuple(e if j == i else 0 for j in range(ring.nvars)),)
    colon = tuple(g[:i] + (max(g[i] - e, 0),) + g[i + 1 :] for g in gens)
    rest = [0] * e + hilbert_numerator(MonomialIdeal(ring, colon))
    return _add(hilbert_numerator(MonomialIdeal(ring, plus)), rest)


def reference_hilbert_is_regular_element(
    gb: GroebnerBasis, f: Polynomial, pair_cap: "int | None" = None
) -> bool:
    """True when the form f of degree d is a non zero-divisor on S/I, for
    ``gb`` a reduced basis of the homogeneous ideal I.  By the exact sequence
    0 -> ((I:f)/I)(-d) -> (S/I)(-d) -> S/I -> S/(I+f) -> 0 that holds exactly
    when HS(S/(I+f)) = (1 - t^d) HS(S/I), read off the initial ideals.  f goes
    first into the completion of I + f, so the basis enters reduced by it.
    """
    if not f:
        raise ValueError("regularity of the zero element is undefined")
    if not all(g.is_homogeneous() for g in gb.elements + (f,)):
        raise ValueError("the Hilbert-series regularity test needs homogeneous input")
    joint = buchberger(Ideal(gb.ring, (f,) + gb.elements), gb.order, pair_cap)
    num = hilbert_numerator(initial_ideal(gb))
    shifted = [0] * f.total_degree() + [-c for c in num]
    return hilbert_numerator(initial_ideal(joint)) == _add(num, shifted)


def test_regularity_examples():
    q4 = build_ideal("Q", 4)
    f = q4.ring.var("z") - q4.ring.var("x4")
    assert is_regular_element(q4, f)
    assert not is_regular_element(ideal3("x3^2"), R3.poly("x3"))
    # x1*(2*x3 - x1) lies in I and x1 does not
    assert not is_regular_element(ideal3("2*x1*x3 - x1^2"), R3.poly("2*x3 - x1"))
    assert is_regular_element(ideal3("x1^2"), R3.poly("2*x3 - x1"))
    assert is_regular_element(Ideal(R3, ()), R3.poly("x3"))
    assert is_regular_element(ideal3("1"), R3.poly("x1 + x3"))


def test_regularity_rejects_inhomogeneous_input():
    with pytest.raises(ValueError):
        is_regular_element(ideal3("x1^2"), R3.poly("x3 + 1"))
    with pytest.raises(ValueError):
        is_regular_element(build_ideal("I", 3), R3.poly("x3"))


@pytest.mark.parametrize("f", ["0", "x3^2", "x1*x3 + x3^2", "x1", "x1 - 2*x2"])
def test_regularity_needs_a_linear_form_with_a_last_variable_term(f):
    with pytest.raises(ValueError):
        is_regular_element(ideal3("x1^2"), R3.poly(f))


@pytest.mark.parametrize("n", range(3, 7))
def test_regularity_on_the_family_matches_the_colon_reference(n):
    # z - xn is regular on R_n[z]/Q_n; z and z - x_{n-1} are zero-divisors
    q = build_ideal("Q", n)
    z, xn, xp = q.ring.var("z"), q.ring.var(f"x{n}"), q.ring.var(f"x{n - 1}")
    for f, regular in ((z - xn, True), (z, False), (z - xp, False)):
        assert is_regular_element(q, f) is regular
        assert reference_is_regular_element(q, f) is regular
        assert reference_hilbert_is_regular_element(buchberger(q), f) is regular


@st.composite
def regularity_cases(draw):
    """A homogeneous ideal of monomials and binomials of degree <= 3 in two
    or three variables, and a linear form f with a term in the last
    variable.  A third of the time one generator is f times a monomial m, which
    makes f a zero-divisor unless m lies in the ideal."""
    nv = draw(st.integers(2, 3))
    last, *others = monomials_of_degree(nv, 1)  # ascending: x_last first
    terms = {m: draw(st.integers(-2, 2)) for m in others}
    terms[last] = draw(st.sampled_from([-2, -1, 1, 3]))
    f = Polynomial(nv, terms)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials_of_degree(nv, draw(st.integers(1, 3)))
        a, b = draw(st.sampled_from(monos)), draw(st.sampled_from(monos))
        c = draw(st.sampled_from([0, 0, -1, 1, 2]))
        gens.append(Polynomial(nv, {a: 1} if a == b else {a: 1, b: c}))
    if draw(st.integers(0, 2)) == 0:
        m = draw(st.sampled_from(monomials_of_degree(nv, draw(st.integers(1, 2)))))
        gens.insert(draw(st.integers(0, len(gens))), f.mul_term(m))
    return Ideal(xring(nv), tuple(gens)), f


@settings(max_examples=200)
@given(regularity_cases())
def test_regularity_matches_colon_reference(case):
    ideal, f = case
    regular = is_regular_element(ideal, f)
    event("regular" if regular else "zero-divisor")
    assert regular == reference_is_regular_element(ideal, f)
    assert regular == reference_hilbert_is_regular_element(buchberger(ideal), f)


# ---------------------------------------------------------------------------
# multiplicity of a one-dimensional initial ideal

def quotient_length(ideal: Ideal, f: Polynomial) -> int:
    """dim R/(I + <f>), by a completion."""
    gb = buchberger(Ideal(ideal.ring, ideal.gens + (f,)))
    return len(standard_monomials(gb))


def test_multiplicity_examples():
    ring = PolyRing(("x", "z"))
    # A = k[x, z]/(xz, x^2): e(A) = 1 but A/zA = k[x]/(x^2) has length 2,
    # as x*z = 0 with x != 0
    ideal = Ideal(ring, (ring.poly("x*z"), ring.poly("x^2")))
    z = ring.poly("z")
    assert multiplicity(buchberger(ideal)) == 1
    assert quotient_length(ideal, z) == 2
    assert not is_regular_element(ideal, z)
    assert multiplicity(buchberger(Ideal(ring, (ring.poly("x^3"),)))) == 3
    assert multiplicity(buchberger(Ideal(xring(1), ()))) == 1
    # two one-dimensional components: x1 = x2 = 0 of length 2 (x3 = 1 leaves
    # x1^2, x2) and x1 = x3 = 0 of length 4 (x2 = 1 leaves x1^2, x3^2)
    assert multiplicity(buchberger(ideal3("x1^2", "x2*x3^2"))) == 2 + 4
    with pytest.raises(ValueError, match="dimension 0"):
        multiplicity(buchberger(ideal3("x1", "x2", "x3^2")))
    with pytest.raises(ValueError, match="dimension > 1"):
        multiplicity(buchberger(ideal3("x1*x2")))


@pytest.mark.parametrize("n", range(3, 6))
def test_multiplicity_sees_the_zero_divisor_of_a_truncated_Q(n):
    # Q_n meets (x1, ..., xn, z)^3 in its forms of degree >= 3, an ideal of
    # depth 0: the socle of R[z]/Q_n ∩ m^3 holds the nonzero degree-2 classes
    # of Q_n, and z - xn kills them.  The multiplicity is unchanged, so it now
    # differs from the length of A/fA.
    q = build_ideal("Q", n)
    nv, f = q.ring.nvars, q.ring.var("z") - q.ring.var(f"x{n}")
    gens = tuple(
        g.mul_term(m)
        for g in q.gens
        for m in monomials_of_degree(nv, max(0, 3 - g.total_degree()))
    )
    truncated = Ideal(q.ring, gens)
    e = multiplicity(buchberger(q))
    assert e == multiplicity(buchberger(truncated)) == quotient_length(q, f)
    assert quotient_length(truncated, f) > e
    assert not is_regular_element(truncated, f)
    assert not reference_is_regular_element(truncated, f)


@settings(max_examples=200)
@given(regularity_cases())
def test_multiplicity_decides_regularity_in_dimension_one(case):
    # for a homogeneous I of dimension one and a linear f with R/(I + f) of
    # finite length, f is regular exactly when e(R/I) = l(R/(I + f))
    ideal, f = case
    gb = buchberger(ideal)
    try:
        e = multiplicity(gb)
        length = quotient_length(ideal, f)
    except (ValueError, NotArtinianError):
        event("dimension is not one, or R/(I + f) is not Artinian")
        return
    regular = e == length
    event("regular" if regular else "zero-divisor")
    assert regular == is_regular_element(ideal, f)
    assert regular == reference_is_regular_element(ideal, f)


def times_one_minus_t(p, power):
    for _ in range(power):
        p = [c - (p[k - 1] if k else 0) for k, c in enumerate(p + [0])]
    return p


def contains_monomial(m_ideal, m):
    return any(mono_divides(g, m) for g in m_ideal.gens)


def brute_force_numerator(m_ideal, top):
    """(1-t)^nvars times the count of monomials outside M, degrees 0..top."""
    nv = m_ideal.ring.nvars
    series = [
        sum(not contains_monomial(m_ideal, m) for m in monomials_of_degree(nv, d))
        for d in range(top + 1)
    ]
    return times_one_minus_t(series, nv)[: top + 1]


@st.composite
def monomial_ideals(draw):
    nv = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nv)
    gens = draw(st.lists(exps, max_size=4))
    if draw(st.booleans()):  # Artinian: a pure power of every variable
        gens += [
            tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(nv))
            for i in range(nv)
        ]
    return MonomialIdeal(xring(nv), tuple(gens))


@given(monomial_ideals())
def test_hilbert_numerator_matches_brute_force(m_ideal):
    from artinforge.quotient import hilbert_series, standard_monomials

    nv = m_ideal.ring.nvars
    num = hilbert_numerator(m_ideal)
    top = max(len(num) - 1, 0) + nv + 2
    assert num + [0] * (top + 1 - len(num)) == brute_force_numerator(m_ideal, top)
    if all(any(sum(g) == g[i] for g in m_ideal.gens) for i in range(nv)):
        gens = tuple(Polynomial.monomial(g) for g in m_ideal.gens)
        basis = standard_monomials(buchberger(Ideal(m_ideal.ring, gens)))
        series = times_one_minus_t(hilbert_series(basis), nv) if len(basis) else []
        assert series == num


def test_hilbert_numerator_of_zero_and_unit_ideals():
    assert hilbert_numerator(MonomialIdeal(R3, ())) == [1]
    assert hilbert_numerator(MonomialIdeal(R3, ((0, 0, 0),))) == []
    assert hilbert_numerator(MonomialIdeal(R3, ((1, 1, 0), (0, 1, 1)))) == [1, 0, -2, 1]


def test_krull_examples():
    assert krull_dim_monomial(buchberger(build_ideal("K_expected", 3))) == 0
    assert krull_dim_monomial(buchberger(build_ideal("Q", 4))) == 1
    assert krull_dim_monomial(buchberger(ideal3("x1", ring=xring(2)))) == 1


def test_krull_zero_ideal_and_improper():
    assert krull_dim_monomial(buchberger(Ideal(R3, ()))) == 3
    with pytest.raises(ValueError):
        krull_dim_monomial(buchberger(ideal3("1", ring=xring(2))))


def test_monomial_ideal_minimalises():
    m = MonomialIdeal(xring(2), ((1, 0), (1, 1), (2, 0)))
    assert m.gens == ((1, 0),)


def reference_minimal_generators(gens):
    """The minimalisation before the divisibility mask, kept verbatim."""
    # a proper divisor has lower degree, so it sorts first
    minimal: list[Monomial] = []
    for m in sorted(set(gens), key=GREVLEX.key):
        if not any(mono_divides(o, m) for o in minimal):
            minimal.append(m)
    return tuple(minimal)


@st.composite
def monomial_lists(draw):
    """Up to eight monomials in one to four variables, with repeats, their
    exponents at packed field boundaries."""
    nv = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[boundary_exponents] * nv), max_size=8))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=3))
    return nv, draw(st.permutations(gens))


@settings(max_examples=200)
@given(monomial_lists())
def test_monomial_ideal_matches_the_mask_free_minimalisation(case):
    nv, gens = case
    minimal = MonomialIdeal(xring(nv), tuple(gens)).gens
    assert minimal == reference_minimal_generators(gens)
    # an antichain that every input generator is a multiple of
    for m in gens:
        assert any(mono_divides(o, m) for o in minimal)
    for a in minimal:
        assert not any(b != a and mono_divides(b, a) for b in minimal)


def test_krull_dimension_zero_iff_finite_staircase():
    # independent cross-check of dimension zero: the staircase is finite
    from artinforge.quotient import standard_monomials

    gb = buchberger(build_ideal("K_expected", 3))
    assert krull_dim_monomial(gb) == 0
    assert len(standard_monomials(gb)) < 10**6


# ---------------------------------------------------------------------------
# cross-engine oracle

def to_sympy(poly, syms, sympy):
    expr = sympy.Integer(0)
    for mono, c in poly.terms.items():
        term = sympy.Rational(c)
        for s, e in zip(syms, mono):
            if e:
                term *= s**e
        expr += term
    return expr


def from_sympy(expr, syms, sympy):
    from fractions import Fraction

    poly = sympy.Poly(expr, *syms)
    terms = {
        tuple(int(e) for e in mono): Fraction(int(c.p), int(c.q))
        for mono, c in poly.terms()
    }
    return Polynomial(len(syms), terms)


def test_buchberger_matches_independent_engine():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    syms = sympy.symbols("x1 x2 x3")

    def random_poly():
        nterms = rng.randint(1, 3)
        terms = {}
        for _ in range(nterms):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            terms[mono] = rng.choice([-2, -1, 1, 2, 3])
        return Polynomial(3, terms)

    cases = [build_ideal("I", 3), build_ideal("I", 4), build_ideal("K_expected", 4)]
    for _ in range(8):
        gens = tuple(p for p in (random_poly() for _ in range(rng.randint(2, 3))) if p)
        if gens:
            cases.append(Ideal(xring(3), gens))

    for ideal in cases:
        n = ideal.ring.nvars
        case_syms = sympy.symbols(" ".join(ideal.ring.names))
        ours = buchberger(ideal)
        exprs = [to_sympy(g, case_syms, sympy) for g in ideal.gens]
        theirs_gb = sympy.groebner(exprs, *case_syms, order="grevlex")
        theirs = [
            from_sympy(e, case_syms, sympy).monic(GREVLEX) for e in theirs_gb.exprs
        ]
        theirs.sort(key=lambda q: GREVLEX.key(q.leading_monomial(GREVLEX)))
        assert list(ours.elements) == theirs, ideal


def test_buchberger_lex_matches_independent_engine():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("x1 x2 x3")
    for ideal in (build_ideal("I", 3), build_ideal("K_expected", 3)):
        ours = buchberger(ideal, LEX)
        exprs = [to_sympy(g, syms, sympy) for g in ideal.gens]
        theirs = [
            from_sympy(e, syms, sympy).monic(LEX)
            for e in sympy.groebner(exprs, *syms, order="lex").exprs
        ]
        theirs.sort(key=lambda q: LEX.key(q.leading_monomial(LEX)))
        assert list(ours.elements) == theirs
