"""Buchberger engine and ideal-theoretic operators.

The completion loop uses the normal selection strategy (pairs of smallest
lcm degree first) together with the Gebauer-Moeller UPDATE: one pair per
lcm, divisibility-minimal lcms only, and the chain criterion read from the
lcm stored with each live pair.  That bookkeeping runs on the packed
leading monomials of one list of reducer entries (the packing of
``polyarith``): divisibility and lcm are a few int operations, and two
monomials are coprime exactly when their lcm is their sum.  The fields are
as wide as the largest exponent seen needs; a wider leading monomial
repacks everything stored.  Monomial ideals minimalise on packed ints too.
New elements are fully reduced and monic, and an S-polynomial is one term
dict built from two stored monic tails; the final basis is minimalised,
each tail is reduced once against the minimal elements, and it is sorted
by leading monomial.  The result is the
canonical reduced Groebner basis: unique for a given ideal and order, which
is what ideal equality, colon ideals and the regression tests lean on.
Every basis built here is reduced.  A colon ideal of an Artinian quotient is
one exact kernel on its staircase; regular-element tests compare Hilbert
series numerators of initial ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, zip_longest

from . import linalg
from .errors import AmbientMismatchError, NotArtinianError, ResourceLimitError
from .polyarith import (
    GREVLEX,
    Ideal,
    Monomial,
    PolyRing,
    Polynomial,
    TermOrder,
    _guards,
    _normal_form,
    _pack,
    _packed_divides,
    _packed_lcm,
    _reducer_info,
    _s_terms,
    mono_lcm,
    reduce,
)

DEFAULT_PAIR_CAP = 10**6


@dataclass(frozen=True)
class GroebnerBasis:
    """An order-tagged reduced Groebner basis."""

    ring: PolyRing
    order: TermOrder
    elements: tuple[Polynomial, ...]

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.elements)

    def __repr__(self):
        body = ", ".join(self.ring.fmt(g, self.order) for g in self.elements)
        return f"GroebnerBasis[{self.order!r}]({body})"


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


# ---------------------------------------------------------------------------
# Buchberger completion

def buchberger(
    ideal: Ideal, order: TermOrder = GREVLEX, pair_cap: "int | None" = None
) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` with respect to ``order``.

    Installing h with leading monomial t follows Gebauer-Moeller's UPDATE:
    of the new pairs (i, h) with one lcm(lm_i, t) only one representative
    stays, a coprime one if there is one (the product criterion then drops
    it), else the last index; of the representatives, only those whose lcm
    is divisibility-minimal; and an old pair (i, j) goes when t divides its
    stored lcm and both lcm(lm_i, t) and lcm(lm_j, t) differ from it.

    That bookkeeping runs on the packed leading monomials (``_pack``) of
    the basis's one list of reducer entries: divisibility and lcm are a few
    int operations, lm_i and t are coprime exactly when their lcm is their
    sum, and a proper divisor packs to a smaller int, so ``sorted`` scans the
    lcms divisors first.  The field is as wide as the largest exponent of a
    leading monomial so far needs; a leading monomial that does not fit
    widens it and repacks every entry and live lcm.  The pair queue still
    orders by degree and order key of the tuple lcm.  An S-polynomial is one
    term dict built from the two stored monic tails.

    Raises :class:`ResourceLimitError` once more than ``pair_cap`` S-pairs
    (default ``DEFAULT_PAIR_CAP``) have been enqueued, turning runaway
    computations into clean failures.
    """
    cap = DEFAULT_PAIR_CAP if pair_cap is None else pair_cap
    key = order.key
    nvars = ideal.ring.nvars

    info: list = []  # reducer info entries of the basis elements, all monic
    alive: dict[tuple[int, int], int] = {}  # live pair -> its packed lcm
    heap: list = []
    enqueued = 0
    bits, guards = 0, 0  # exponents below 2**bits fit a field

    def update(h: Polynomial):
        """Gebauer-Moeller installation of a new basis element."""
        nonlocal enqueued, bits, guards
        t = len(info)
        [(lt, lc, tail, _)], h_bits, h_guards = _reducer_info((h,), order)
        if h_bits > bits:  # widen the fields and repack
            bits, guards = h_bits, h_guards
            info[:] = [(lm, c, tl, _pack(lm, bits)) for lm, c, tl, _ in info]
            for i, j in alive:
                alive[i, j] = _packed_lcm(info[i][3], info[j][3], guards, bits)
        pt = _pack(lt, bits)
        lcm_with = [_packed_lcm(e[3], pt, guards, bits) for e in info]
        rep: dict[int, tuple[int, bool]] = {}  # lcm -> (index, coprime)
        for i, li in enumerate(lcm_with):
            if li not in rep or not rep[li][1]:
                rep[li] = (i, li == info[i][3] + pt)
        # a proper divisor packs smaller, so it is scanned first
        minimal: list[int] = []
        for li in sorted(rep):
            if not any(_packed_divides(m, li, guards) for m in minimal):
                minimal.append(li)
        new_pairs = sorted(rep[li][0] for li in minimal if not rep[li][1])
        # chain criterion against the surviving old pairs
        for (i, j), lij in list(alive.items()):
            if _packed_divides(pt, lij, guards):
                if lcm_with[i] != lij and lcm_with[j] != lij:
                    del alive[i, j]
        info.append((lt, lc, tail, pt))
        for i in new_pairs:
            li = mono_lcm(info[i][0], lt)
            heappush(heap, (sum(li), key(li), i, t))
            alive[i, t] = lcm_with[i]
            enqueued += 1
            if enqueued > cap:
                raise ResourceLimitError(
                    f"pair queue exceeded the cap of {cap} pairs"
                )

    def install(terms: dict):
        h = Polynomial(nvars, _normal_form(terms, (info, bits, guards), order))
        if h:
            update(h.monic(order))

    for g in ideal.gens:
        install(g.terms)
    while heap:
        _, _, i, j = heappop(heap)
        if alive.pop((i, j), None) is not None:
            install(_s_terms(mono_lcm(info[i][0], info[j][0]), info[i], info[j]))

    # minimalise: keep only elements whose leading monomial is undivided
    minimal: list[int] = []
    for i in sorted(range(len(info)), key=lambda i: key(info[i][0])):
        if not any(_packed_divides(info[j][3], info[i][3], guards) for j in minimal):
            minimal.append(i)
    # interreduce: a tail term lies below its own leading monomial, so the
    # minimal elements reduce it to its canonical normal form in one call
    reducers = ([info[i] for i in minimal], bits, guards)
    final = []
    for i in minimal:
        lt, lc, tail, _ = info[i]
        out = _normal_form(dict(tail), reducers, order)
        final.append(Polynomial(nvars, {lt: lc, **out}))
    return GroebnerBasis(ideal.ring, order, tuple(final))


# ---------------------------------------------------------------------------
# derived operators

class StandardBasis:
    """The monomials outside a leading-term ideal, grouped by total degree."""

    __slots__ = ("by_degree", "monomials")

    def __init__(self, by_degree):
        self.by_degree = tuple(tuple(level) for level in by_degree)
        self.monomials = tuple(m for level in self.by_degree for m in level)

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)


def _shift(m: Monomial, i: int, step: int) -> Monomial:
    return m[:i] + (m[i] + step,) + m[i + 1 :]


def _next_level(level, lms, key) -> list:
    """The standard monomials one degree above ``level``, sorted by ``key``.

    ``level`` is a whole degree of a staircase closed under division, so
    x_i*m is standard exactly when it is not a leading monomial and every
    x_i*m/x_j lies in ``level``: a leading monomial properly dividing x_i*m
    divides one of them."""
    lm_set, below = set(lms), set(level)
    nxt = set()
    for m in level:
        for i in range(len(m)):
            up = _shift(m, i, 1)
            if up not in nxt and up not in lm_set and all(
                _shift(up, j, -1) in below for j, e in enumerate(up) if e
            ):
                nxt.add(up)
    return sorted(nxt, key=key)


def standard_monomials(gb: GroebnerBasis) -> StandardBasis:
    """Enumerate the staircase complement of a reduced basis by degree.

    The quotient is Artinian exactly when every variable has a pure power
    among the leading monomials; otherwise :class:`NotArtinianError` is
    raised.  The complement is closed under divisibility, so the first
    empty degree level ends the enumeration.
    """
    nv = gb.ring.nvars
    lms = gb.leading_monomials()
    for i in range(nv):
        if not any(sum(lm) == lm[i] for lm in lms):
            raise NotArtinianError(
                f"no leading monomial is a pure power of variable {i + 1}"
            )
    level = [] if (0,) * nv in lms else [(0,) * nv]
    levels = []
    while level:
        levels.append(level)
        level = _next_level(level, lms, gb.order.key)
    return StandardBasis(levels)


def initial_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """Leading-monomial ideal of a reduced basis (minimal generators)."""
    return MonomialIdeal(gb.ring, gb.leading_monomials())


def top_form_ideal(gb: GroebnerBasis) -> Ideal:
    """The top-degree forms of the ideal with GRevLex basis ``gb``: GRevLex
    refines the degree filtration, so the top forms of the basis generate it."""
    if gb.order != GREVLEX:
        raise ValueError("top_form_ideal needs a GRevLex basis")
    tops = tuple(g.top_degree_part() for g in gb.elements)
    return Ideal(gb.ring, tops)


def ideal_member(f: Polynomial, gb: GroebnerBasis) -> bool:
    return not reduce(f, list(gb.elements), gb.order)


def ideal_equal(
    a: Ideal, b: Ideal, order: TermOrder = GREVLEX, pair_cap: "int | None" = None
) -> bool:
    """Equality through canonical reduced bases."""
    if a.ring != b.ring:
        raise AmbientMismatchError("ideals live in different rings")
    ga = buchberger(a, order, pair_cap)
    gb = buchberger(b, order, pair_cap)
    return ga.elements == gb.elements


def colon_ideal(
    gb: GroebnerBasis, b: Ideal, pair_cap: "int | None" = None
) -> GroebnerBasis:
    """The reduced basis of (I : b), all f with f*b inside I, for ``gb`` the
    reduced basis of an ideal I with Artinian quotient.

    f = i + u with i in I and u = NF(f) a combination of standard monomials,
    so f lies in the colon exactly when NF(u*f_k) = 0 for every generator
    f_k of b.  NF is linear, so those u form the kernel V of the rows
    {(k, monomial): NF(m*f_k)} over the standard monomials m, and
    (I : b) = I + V.  :func:`standard_monomials` raises
    :class:`NotArtinianError` when the quotient is not Artinian.
    """
    if b.is_zero:
        raise ValueError("colon by the zero ideal")
    if gb.ring != b.ring:
        raise AmbientMismatchError("ideals live in different rings")
    staircase = standard_monomials(gb).monomials
    info = _reducer_info(gb.elements, gb.order)
    rows: dict = {}  # (k, monomial) -> {column of m: coefficient in NF(m*f_k)}
    for j, m in enumerate(staircase):
        for k, f in enumerate(b.gens):
            for t, c in _normal_form(f.mul_term(m).terms, info, gb.order).items():
                rows.setdefault((k, t), {})[j] = c
    kernel = tuple(
        Polynomial(gb.ring.nvars, dict(zip(staircase, vec)))
        for vec in linalg.kernel_basis(list(rows.values()), len(staircase))
    )
    return buchberger(Ideal(gb.ring, gb.elements + kernel), gb.order, pair_cap)


def substitute(f: Polynomial, var: int, value: Polynomial) -> Polynomial:
    """Evaluate the homomorphism sending variable ``var`` to ``value``."""
    if value.nvars != f.nvars:
        raise AmbientMismatchError("substitution value in a different ring")
    powers = {0: Polynomial.constant(f.nvars, 1)}
    out = Polynomial.zero(f.nvars)
    for m, c in f.terms.items():
        e = m[var]
        if e not in powers:
            powers[e] = value**e
        rest = list(m)
        rest[var] = 0
        out = out + powers[e].mul_term(tuple(rest), c)
    return out


def substitute_ideal(ideal: Ideal, name: str, value: Polynomial) -> Ideal:
    """Generatorwise substitution; the ambient ring is unchanged."""
    i = ideal.ring.index[name]
    return Ideal(ideal.ring, tuple(substitute(g, i, value) for g in ideal.gens))


def is_regular_element(
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


def krull_dim_monomial(m_ideal: MonomialIdeal) -> int:
    """Krull dimension of R/M for a monomial ideal M: the largest number of
    variables supporting none of the generators entirely."""
    nv = m_ideal.ring.nvars
    zero = (0,) * nv
    if any(g == zero for g in m_ideal.gens):
        raise ValueError("monomial ideal contains 1; the quotient is zero")
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in m_ideal.gens]
    for size in range(nv, 0, -1):
        for subset in combinations(range(nv), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    return 0


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
