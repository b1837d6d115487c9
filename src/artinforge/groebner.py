"""Buchberger engine and ideal-theoretic operators.

The completion loop uses the normal selection strategy (pairs of smallest
lcm degree first) together with the Gebauer-Moeller UPDATE: one pair per
lcm, divisibility-minimal lcms only, and the chain criterion read from the
lcm stored with each live pair.  That bookkeeping runs on the packed
leading monomials of one list of reducer entries (the packing of
``polyarith``): divisibility and lcm are a few int operations, and two
monomials are coprime exactly when their lcm is their sum.  The fields are
as wide as the largest exponent seen needs; a wider leading monomial
repacks everything stored.  New elements are fully reduced and monic, and
an S-polynomial is one term dict built from two stored monic tails; the
final basis is minimalised, each tail is reduced once against the minimal
elements, and it is sorted by leading monomial.  The result is the
canonical reduced Groebner basis: unique for a given ideal and order, which
is what ideal equality, colon ideals and the regression tests lean on.
Every basis built here is reduced, and its leading monomials, in the order
the basis lists them, are the minimal generators of the initial ideal; the
staircase, the Krull dimension and, in dimension one, the multiplicity of
R/in(I) are read off them.  A colon ideal of an Artinian quotient is one
exact kernel on its staircase.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations

from . import linalg
from .errors import AmbientMismatchError, NotArtinianError, ResourceLimitError
from .polyarith import (
    GREVLEX,
    Ideal,
    Monomial,
    PolyRing,
    Polynomial,
    TermOrder,
    Value,
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


class GroebnerBasis(Value):
    """An order-tagged reduced Groebner basis."""

    __slots__ = ("ring", "order", "elements")
    __hash__ = None  # the elements are polynomials

    def __init__(self, ring: PolyRing, order: TermOrder, elements: tuple):
        self._set(ring, order, elements)

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.elements)

    def __repr__(self):
        body = ", ".join(self.ring.fmt(g, self.order) for g in self.elements)
        return f"GroebnerBasis[{self.order!r}]({body})"


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
    lms = gb.leading_monomials()
    return StandardBasis(_staircase(lms, gb.ring.nvars, gb.order.key))


def _staircase(lms, nv: int, key) -> list:
    """The degree levels of the monomials in ``nv`` variables that no member
    of ``lms`` divides; ``lms`` generates the monomial ideal, minimally or
    not."""
    for i in range(nv):
        if not any(sum(lm) == lm[i] for lm in lms):
            raise NotArtinianError(
                f"no leading monomial is a pure power of variable {i + 1}"
            )
    level = [] if (0,) * nv in lms else [(0,) * nv]
    levels = []
    while level:
        levels.append(level)
        level = _next_level(level, lms, key)
    return levels


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
    i = ideal.ring.var(name).leading_monomial().index(1)
    return Ideal(ideal.ring, tuple(substitute(g, i, value) for g in ideal.gens))


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


def multiplicity(gb: GroebnerBasis) -> int:
    """The multiplicity e(R/in(I)) for ``gb`` a reduced basis of I with
    R/in(I) of Krull dimension one; for a homogeneous I it is e(R/I), as I
    and in(I) share their Hilbert function.  Any other dimension raises
    ``ValueError``.

    The minimal primes of dimension one of M = in(I) are P_j = (x_i : i != j)
    for the variables x_j with no pure power among the leading monomials,
    and the length of R/M localised at P_j counts the standard monomials of
    M with x_j set to 1, in the other variables.  The associativity formula
    sums those lengths (Bruns and Herzog, *Cohen-Macaulay Rings*, Cor. 4.7.8;
    Eisenbud, *Commutative Algebra*, 12.1).  Were some pair {x_i, x_j} free
    of M, dimension two or more, M with x_j set to 1 would have no pure
    power of x_i.
    """
    nv = gb.ring.nvars
    lms = gb.leading_monomials()
    free = [j for j in range(nv) if not any(sum(m) == m[j] for m in lms)]
    if not free:
        raise ValueError("R/in(I) has dimension 0, not 1")
    total = 0
    for j in free:
        cut = [m[:j] + m[j + 1 :] for m in lms]
        try:
            total += sum(map(len, _staircase(cut, nv - 1, gb.order.key)))
        except NotArtinianError:
            raise ValueError("R/in(I) has dimension > 1") from None
    return total
