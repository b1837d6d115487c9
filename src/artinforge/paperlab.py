"""Construction of the ideal family and the registry of verified claims.

The workbench studies, at desk scale (n = 2..8), the binomial ideal

    I_n = < x2*x3...xn - x1, ..., x1*x2...x_{n-1} - xn >,

its GRevLex initial ideal J_n, its top-degree-form ideal K_n, the complete
intersection L_{n-1} and the one-variable-up ideal Q_n used to transfer the
Gorenstein property, together with the dual socle generator g_n.  Every
registered claim composes operations from the other modules into a single
machine-checked verdict:

    prop2_codim        dim R_n/I_n = 1 + (n-2)*2^(n-1), certified reduced
    thm1               S_n-character of R_n/I_n vs subset characters
    prop3_generators   minimal generators of J_n match the closed-form list
    prop3_basis        standard monomials of J_n match {m(T, s)}
    thm2               Hilbert series of R_n/J_n is a symmetrised
                       partial-binomial-sum (Bernoulli) triangle row
    thm3               graded S_{n-1}-character of R_n/J_n
    prop4_generators   closed-form generators of K_n; J_n and K_n share the
                       Hilbert series
    thmG               R_n/K_n is Gorenstein, as K_n = Ann(g_n)
    inverse_system     Ann(g_n) = K_n under apolarity contraction
    not_gorenstein_J   R_n/J_n has socle dimension > 1
    appendix_colon     (L : K) = L + <x^2 of the last variable>, and no
                       degree-one form lies in the colon
    appendix_unprojection   Q_n at z -> xn equals K_n
    appendix_regularity     z - xn is regular on R_n[z]/Q_n
    appendix_krull     in(L), in(K) have Krull dimension 0, in(Q_n) has 1
    challenge          graded S_n-character of R_n/K_n, gated by thm1/thm2

Checks either pass, fail with a finite witness, or are skipped below the
claim's minimum n.  A claim is a function of one :class:`Workbench`, which
builds the ideals, bases, staircases and certificates that the claims at its
n share, each at most once; K_{n-1} is read from ``prev``, the workbench of
n - 1.  Each entry of ``CLAIMS`` names the certificates the claim rests on;
``verify`` reads them in order and fails the claim with the first witness,
so no claim function reads a certificate.  The reduced bases of K_n,
L_{n-1} and Q_n are closed forms, each with its certificate: a point-count
sandwich, which also certifies J_n = in(K_n); the colength of a complete
intersection; and Buchberger's criterion.  So no claim completes I_n, K_n,
L_{n-1} or Q_n (the one completion left is the colon target of
appendix_colon).  No claim builds g_n either: K_n annihilates it when each
generator's coefficients sum to 0 on each parity class (duality_check).
challenge and thm3 read each class's graded trace off its cycle type
(graded_trace), once staircase_check certifies the staircase and the
binomials that the formula rests on.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, prod
from operator import attrgetter
from time import perf_counter

from . import linalg
from .errors import EquivarianceError, NotArtinianError
from .groebner import (
    GroebnerBasis,
    StandardBasis,
    _shift,
    buchberger,
    colon_ideal,  # noqa: F401  unused here; bench/tracing.py wraps this binding
    first_nonmember,
    krull_dim_monomial,
    multiplicity,
    standard_monomials,
    substitute_ideal,
    unreduced_pair,
)
from .polyarith import (
    GREVLEX,
    Ideal,
    Monomial,
    Polynomial,
    Value,
    mono_div,
    mono_divides,
    monomials_of_degree,
    xring,
)
from .quotient import (
    annihilator,  # noqa: F401  unused here; bench/tracing.py wraps this binding
    equivariant_graded_trace,  # noqa: F401  bench/tracing.py wraps this binding
    hilbert_series,
    socle_dimension,  # noqa: F401  unused here; bench/tracing.py wraps this binding
)
from .reptheory import (
    ClassFunction,
    act,
    half_powerset_character,
    partitions,
    permutes,
    powerset_character,
    subset_character,
    symmetric_generators,
    trivial_character,
    xn_character,
)

SUPPORTED_RANGE = (2, 8)


def expected_codimension(n: int) -> int:
    """The point count 1 + (n-2)*2^(n-1): 1, 5, 17, 49, 129, 321, ..."""
    return 1 + (n - 2) * 2 ** (n - 1)


# ---------------------------------------------------------------------------
# the symmetrised triangle of partial binomial sums

def _mirrored_sums(terms, n: int) -> list[int]:
    """Entry k, 0 <= k <= 2n-4, is terms[0] + ... + terms[min(k, 2n-4-k)]:
    the partial sums up to the middle, then mirrored."""
    return [sum(terms[: min(k, 2 * n - 4 - k) + 1]) for k in range(2 * n - 3)]


def bernoulli(n: int) -> list[int]:
    """The symmetrised triangle row a_{n,k} = b_{n-1, min(k, 2n-4-k)} for
    0 <= k <= 2n-4: the first half copies b_{n-1,k} and the second half
    mirrors it, so the row is palindromic and strictly increasing up to its
    middle entry 2^(n-1) - 1."""
    if n < 2:
        raise ValueError("triangle rows start at n = 2")
    return _mirrored_sums([comb(n - 1, j) for j in range(n - 1)], n)


# ---------------------------------------------------------------------------
# cyclotomic polynomials

def _divmod_monic(
    num: list[int], den: tuple[int, ...]
) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending coefficients)
    by a monic divisor; the remainder has exactly deg(den) coefficients."""
    dd = len(den) - 1
    rem = list(num) + [0] * (dd - len(num))
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        quot[i - dd] = c
        for j, d in enumerate(den):
            rem[i - dd + j] -= c * d
    return quot, rem[:dd]


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial, computed
    as (x^m - 1) divided by the product of the lower ones."""
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _divmod_monic(num, cyclotomic_poly(d))
            if any(rem):
                raise ValueError("polynomial division left a remainder")
    return tuple(num)


# ---------------------------------------------------------------------------
# the point configuration

class SymbolicPoint(Value):
    """A point of the vanishing locus X_n: either the origin, or a root
    index k in 0..n-3 with a sign vector whose product is (-1)^k, kept as a
    tuple."""

    __slots__ = ("n", "k", "eps")

    def __init__(
        self, n: int, k: "int | None" = None, eps: "tuple[int, ...] | None" = None
    ):
        if (k is None) != (eps is None):
            raise ValueError("root index and sign vector come together")
        if k is not None:
            eps = tuple(eps)
            if not 0 <= k <= n - 3:
                raise ValueError(f"root index {k} out of range for n={n}")
            if len(eps) != n or any(e not in (1, -1) for e in eps):
                raise ValueError("sign vector must be a +-1 tuple of length n")
            if eps.count(-1) % 2 != k % 2:
                raise ValueError("sign product must equal (-1)^k")
        self._set(n, k, eps)

    @property
    def is_origin(self) -> bool:
        return self.k is None

    def exponents(self, m: int) -> "tuple[int, ...] | None":
        """Each coordinate eps_j*xi^k as the power xi^e_j of a primitive m-th
        root xi, with e_j = k + (m/2)*[eps_j = -1] mod m since xi^(m/2) = -1;
        None at the origin."""
        if self.is_origin:
            return None
        return tuple((self.k + (m // 2 if e < 0 else 0)) % m for e in self.eps)


def enumerate_points(n: int) -> list[SymbolicPoint]:
    """The origin plus every (k, eps) point; 1 + (n-2)*2^(n-1) in total."""
    if n < 3:
        raise ValueError("point enumeration needs n >= 3")
    points = [SymbolicPoint(n)]
    for k in range(n - 2):
        for eps in product((1, -1), repeat=n):
            if eps.count(-1) % 2 == k % 2:  # the sign product is (-1)^k
                points.append(SymbolicPoint(n, k, eps))
    return points


def _value_at(poly: Polynomial, exps: "tuple[int, ...] | None", m: int) -> tuple[int, ...]:
    """poly at the point with exponent tuple exps (None: the origin), as its
    coefficients on 1, xi, xi^2, ... modulo Phi_m.  x^a is xi^(a.e), so each
    coefficient adds into the residue class a.e mod m; at the origin only
    the constant term survives."""
    sums = [0] * m
    if exps is None:
        sums[0] = poly.terms.get((0,) * poly.nvars, 0)
    else:
        for mono, c in poly.terms.items():
            sums[sum(a * e for a, e in zip(mono, exps)) % m] += c
    return tuple(_divmod_monic(sums, cyclotomic_poly(m))[1])


def verify_points_satisfy_ideal(
    ideal: Ideal, points: "list[SymbolicPoint]"
) -> "str | None":
    """Exact check that ``points`` (of ``enumerate_points(n)``, n >= 3) are
    pairwise distinct and kill every generator of ``ideal``; None when both
    hold, else a witness of the first failure.  With m = 2(n-2), xi has
    order exactly m, so two points are equal exactly when their exponent
    tuples are.

    Points with one root index k and one number of -1 signs differ by a
    permutation of the coordinates.  If (1 2) and (1 2 ... n) permute the
    generators, V(ideal) is S_n-stable, so only the first point of each such
    class is evaluated; otherwise every point is."""
    n = ideal.ring.nvars
    if n < 3:
        raise ValueError("point check needs n >= 3")
    m = 2 * (n - 2)
    stable = all(permutes(p, ideal.gens) for p in symmetric_generators(n, n).values())
    seen, orbits = set(), set()
    for pt in points:
        if pt.n != n:
            raise ValueError(f"a point of n={pt.n} for {n} variables")
        exps = pt.exponents(m)
        if exps in seen:
            return f"duplicate point {pt}"
        seen.add(exps)
        orbit = (pt.k, pt.eps and pt.eps.count(-1))
        if stable and orbit in orbits:
            continue
        orbits.add(orbit)
        for g in ideal.gens:
            if any(_value_at(g, exps, m)):
                return f"generator {ideal.ring.fmt(g)} nonzero at {pt}"
    return None


# ---------------------------------------------------------------------------
# ideal builders

def _power(nv: int, i: int, e: int) -> Monomial:
    """x_{i+1}^e as an exponent tuple over nv variables."""
    return tuple(e if j == i else 0 for j in range(nv))


def _square_differences(
    m: int, nv: int, u: "Monomial | None" = None
) -> list[Polynomial]:
    """x_i^2 - u for i = 1..m-1, over nv >= m variables; u is x_m^2 unless
    given as an exponent tuple."""
    u = _power(nv, m - 1, 2) if u is None else u
    return [Polynomial(nv, {_power(nv, i, 2): 1, u: -1}) for i in range(m - 1)]


def _omitted_products(m: int) -> list[Monomial]:
    """The exponent tuples of prod_{j != i} x_j over x1..xm, for i = 1..m."""
    return [tuple(0 if j == i else 1 for j in range(m)) for i in range(m)]


def _t_sets(nv: int, top: int):
    """The pairs (T, j) with 0 <= j <= top and T a subset of {x1..x_nv} of
    size top - j, T given as the exponent tuple of x_T over x1..x_nv.  With
    nv = n-1 and top = n-2, the x_T*x_n^(2j+1) are the generators of J_n
    beyond the squares and x1...x_{n-1}, and the x_T*x_n^s with s <= 2j are
    its standard monomials."""
    for j in range(top + 1):
        for t_set in combinations(range(nv), top - j):
            yield tuple(1 if i in t_set else 0 for i in range(nv)), j


def _beyond_squares(n: int) -> list[Monomial]:
    """The generators of J_n other than the squares, n >= 3: x1...x_{n-1}
    and the x_T*x_n^(2j+1)."""
    monos = [_omitted_products(n)[-1]]
    return monos + [t + (2 * j + 1,) for t, j in _t_sets(n - 1, n - 2)]


def _expected_standard_monomials(n: int) -> set:
    """The set {m(T, s)}: x_n^s times a squarefree monomial x_T in
    x1..x_{n-1} with |T| = n-2-j and 0 <= s <= 2j."""
    return {t + (s,) for t, j in _t_sets(n - 1, n - 2) for s in range(2 * j + 1)}


def build_ideal(which: str, n: int):
    """Construct one of the named objects of the family from the closed-form
    pieces above, each generator list in a fixed order.

    ``I`` and ``g_dual`` need n >= 2, the rest n >= 3; ``L`` lives in n-1
    variables, ``Q`` in n+1 (x1..xn, z), and ``g_dual`` is a dual polynomial.
    """
    least = 2 if which in ("I", "g_dual") else 3
    if n < least:
        raise ValueError(f"{which} is defined for n >= {least}")
    if which == "I":
        ring = xring(n)
        if n == 2:
            return Ideal(ring, (ring.var("x1"), ring.var("x2")))
        gens = [
            Polynomial(n, {p: 1, _power(n, i, 1): -1})
            for i, p in enumerate(_omitted_products(n))
        ]
        return Ideal(ring, tuple(gens))
    if which == "J_expected":
        monos = [_power(n, i, 2) for i in range(n - 1)] + _beyond_squares(n)
        return Ideal(xring(n), tuple(Polynomial.monomial(m) for m in monos))
    if which == "K_expected":
        return _k_homogeneous(n)
    if which == "L":
        gens = _square_differences(n - 1, n - 1)
        gens.append(Polynomial.monomial((1,) * (n - 1)))
        return Ideal(xring(n - 1), tuple(gens))
    if which == "Q":
        # L_{n-1} and x_n times each omitted product of x1..x_{n-1}, in
        # x1..xn, z; then x_n*z - x_{n-1}^2
        m, nv = n - 1, n + 1
        gens = _square_differences(m, nv)
        gens.append(Polynomial.monomial((1,) * m + (0, 0)))
        gens += [Polynomial.monomial(p + (1, 0)) for p in _omitted_products(m)]
        gens.append(Polynomial(nv, {(0,) * m + (1, 1): 1, _power(nv, m - 1, 2): -1}))
        return Ideal(xring(n, "z"), tuple(gens))
    if which == "g_dual":
        terms = {}
        for mono in monomials_of_degree(n, n - 2):
            terms[tuple(2 * e for e in mono)] = 1
        return Polynomial(n, terms)
    raise ValueError(f"unknown ideal name {which!r}")


def _k_homogeneous(n: int) -> Ideal:
    """The closed-form homogeneous ideal: the square differences plus all n
    products that omit one variable.  Valid for n >= 2; at n = 2 it
    degenerates to (x1^2 - x2^2, x2, x1), the presentation the inductive
    colon argument uses."""
    gens = _square_differences(n, n)
    gens += [Polynomial.monomial(p) for p in _omitted_products(n)]
    return Ideal(xring(n), tuple(gens))


# ---------------------------------------------------------------------------
# closed-form reduced bases

def _closed_form(ring, binomials: list, monos: list) -> GroebnerBasis:
    """The binomials and the monomials ``monos`` as a GRevLex basis, sorted
    by leading monomial as ``buchberger`` sorts a reduced basis.  Nothing
    here checks it; each basis of the workbench has its certificate."""
    elems = binomials + [Polynomial.monomial(m) for m in monos]
    elems.sort(key=lambda g: GREVLEX.key(g.leading_monomial()))
    return GroebnerBasis(ring, GREVLEX, tuple(elems))


def _outside_span(forms, spanning) -> "Polynomial | None":
    """The first of ``forms``, by degree, not spanned by ``spanning`` in its degree."""
    spanned = [h.terms for h in spanning]  # a degree of only these needs no rank
    for d in sorted({g.total_degree() for g in forms if g.terms not in spanned}):
        rows = [h.terms for h in spanning if h.total_degree() == d]
        new, rank = [g for g in forms if g.total_degree() == d], linalg.rank(rows)
        if linalg.rank(rows + [g.terms for g in new]) != rank:
            return next(g for g in new if linalg.rank(rows + [g.terms]) != rank)
    return None


def _membership_witness(gb: GroebnerBasis, ideal: Ideal, name: str) -> "str | None":
    """None when every element of ``gb`` is shown to lie in ``ideal``
    (called ``name`` in the witness), else a witness naming the first that
    is not.

    An element of two or more terms is a generator or lies in the span of
    the generators of its degree (exact rank).  A monomial m lies in the
    ideal when a monomial generator divides it or it was shown in before;
    else, for a form x_k^2 - u of ``gb`` with u | m and x_k not dividing m,
    it does once m*x_k/u does, which is one degree lower:

        m = x_k*(m*x_k/u) + (m/u)*(u - x_k^2).

    For K_n, u = x_n^2 and one step takes x_T*x_n^(2j+1) to the element
    x_{T+k}*x_n^(2j-1); the chain ends at an omitted product.  For Q_n,
    u = x_n*z, and for L_{n-1}, u = x_m^2.
    """
    ring, gens = ideal.ring, ideal.gens
    multi = [g for g in gb.elements if len(g.terms) > 1]
    bad = _outside_span(multi, gens)
    if bad is not None:
        return f"{ring.fmt(bad)} is not in the span of the generators of {name}"
    steps = []  # (k, u) for each form x_k^2 - u of gb
    for g in multi:
        lm = g.leading_monomial()
        u = next(t for t in g.terms if t != lm)
        if sum(lm) == max(lm) == 2 == sum(u) and g.terms == {lm: 1, u: -1}:
            steps.append((lm.index(2), u))
    generators = [g.leading_monomial() for g in gens if len(g.terms) == 1]
    shown = set()
    for g in gb.elements:
        if len(g.terms) > 1:
            continue
        m = g.leading_monomial()
        while m not in shown and not any(mono_divides(d, m) for d in generators):
            step = next(((k, u) for k, u in steps if not m[k] and mono_divides(u, m)), None)
            if step is None:
                return f"no chain puts {ring.fmt(g)} in {name}"
            k, u = step
            m = _shift(mono_div(m, u), k, 1)
        shown.add(g.leading_monomial())
    return None


# ---------------------------------------------------------------------------
# the per-n workbench

class Workbench:
    """The artefacts that the claims at one n share, each built at most once.

    Every attribute below is computed on first read and kept for the life of
    the workbench.  The reduced bases of K_n, L_{n-1} and Q_n are closed
    forms, each with its certificate; only ``appendix_colon`` completes an
    ideal, and that Groebner run obeys ``pair_cap``, which ``None`` leaves
    to ``buchberger``'s default.  ``verify`` hands each workbench on as the
    ``prev`` of the next n.
    """

    def __init__(self, n: int, pair_cap: "int | None" = None):
        lo, hi = SUPPORTED_RANGE
        if not lo <= n <= hi:
            raise ValueError(f"n={n} outside the supported range {lo}..{hi}")
        self.n = n
        self.pair_cap = pair_cap

    @cached_property
    def prev(self) -> "Workbench":
        """The workbench of n - 1 (n >= 3) with the same pair cap."""
        return Workbench(self.n - 1, self.pair_cap)

    @cached_property
    def ideal_I(self) -> Ideal:
        return build_ideal("I", self.n)

    @cached_property
    def ideal_K(self) -> Ideal:
        return _k_homogeneous(self.n)

    @cached_property
    def ideal_L(self) -> Ideal:
        return build_ideal("L", self.n)

    @cached_property
    def ideal_Q(self) -> Ideal:
        return build_ideal("Q", self.n)

    @cached_property
    def gb_J(self) -> GroebnerBasis:
        """J_n = in(I_n) = in(K_n) once ``sandwich_check`` passes: the
        leading monomials of the reduced basis of K_n, its minimal monomial
        generators, are a reduced basis."""
        lms = self.gb_K.leading_monomials()
        elems = tuple(Polynomial.monomial(m) for m in lms)
        return GroebnerBasis(self.gb_K.ring, GREVLEX, elems)

    @cached_property
    def gb_K(self) -> GroebnerBasis:
        """The reduced basis of K_n, certified by ``sandwich_check``: the
        x_i^2 - x_n^2, then J_n's generators beyond the squares; at n = 2,
        where x1^2 - x2^2 reduces to 0, x1 and x2."""
        ring, n = self.ideal_K.ring, self.n
        if n == 2:
            return _closed_form(ring, [], _omitted_products(2))
        return _closed_form(ring, _square_differences(n, n), _beyond_squares(n))

    @cached_property
    def gb_L(self) -> GroebnerBasis:
        """The reduced basis of L_{n-1} over m = n - 1 variables, certified
        by ``colength_check``: the x_i^2 - x_m^2 and the x_T*x_m^(2j+1) with
        T a subset of {x1..x_{m-1}} of size m-1-j, 0 <= j <= m-1."""
        m = self.n - 1
        monos = [t + (2 * j + 1,) for t, j in _t_sets(m - 1, m - 1)]
        return _closed_form(self.ideal_L.ring, _square_differences(m, m), monos)

    @cached_property
    def gb_Q(self) -> GroebnerBasis:
        """The reduced basis of Q_n over x1..xn, z, certified by
        ``criterion_check``: the x_i^2 - x_n*z (i < n), the n products of
        x1..xn that omit one variable, and the x_T*x_n^(j+1)*z^j with T a
        subset of {x1..x_{n-1}} of size n-2-j, 1 <= j <= n-2."""
        n = self.n
        binomials = _square_differences(n, n + 1, (0,) * (n - 1) + (1, 1))
        monos = [p + (0,) for p in _omitted_products(n)]
        monos += [t + (j + 1, j) for t, j in _t_sets(n - 1, n - 2) if j]
        return _closed_form(self.ideal_Q.ring, binomials, monos)

    @cached_property
    def staircase_K(self) -> StandardBasis:
        """The standard monomials of ``gb_K`` by degree: a basis of R_n/K_n
        and, through the sandwich, of R_n/J_n."""
        return standard_monomials(self.gb_K)

    @cached_property
    def staircase_L(self) -> StandardBasis:
        return standard_monomials(self.gb_L)

    @cached_property
    def duality_check(self) -> "str | None":
        """None when K_n lies in Ann(g_n), g_n the sum of the squares y^(2a)
        with |a| = n-2, else a witness; with ``series_check``, K_n = Ann(g_n)
        and R_n/K_n is Gorenstein (Macaulay duality; Iarrobino and Kanev, LNM
        1721).  g_n is not built: x^b contracts it to the sum of all y^c with
        c = b (mod 2) and |c| = 2n-4-|b| (c = 2a - b), which depends only on
        the class of b (e = b mod 2, d = |b|) and is nonzero exactly when
        |e| <= 2n-4-d.  Distinct classes share no term, so a form annihilates
        g_n when its coefficients sum to 0 on each such class.  The same
        classes are the all-ones blocks of g_n's catalecticant, whose ranks
        are ``bernoulli(n)``."""
        top, kid = 2 * self.n - 4, self.ideal_K
        for k in kid.gens:
            sums: dict = {}
            for m, c in k.terms.items():
                key = (tuple(e & 1 for e in m), sum(m))
                sums[key] = sums.get(key, 0) + c
            if any(c and sum(eps) <= top - d for (eps, d), c in sums.items()):
                return f"{kid.ring.fmt(k)} does not annihilate g_n"
        return None

    @cached_property
    def socle_J(self) -> tuple[Monomial, ...]:
        """The standard monomials that span the socle of R_n/J_n, read off
        the one staircase of in(K_n) = J_n.  J_n is a monomial ideal, so
        x_i sends a standard monomial to a standard one or to 0: the socle is
        spanned by the standard m with every x_i*m off the staircase."""
        staircase = set(self.staircase_K.monomials)
        return tuple(
            m
            for m in self.staircase_K.monomials
            if all(_shift(m, i, 1) not in staircase for i in range(self.n))
        )

    @cached_property
    def sandwich_check(self) -> "str | None":
        """None when ``gb_K`` is certified the reduced basis of K_n and
        in(I_n) = in(K_n), top(I_n) = K_n and dim R_n/I_n = c_n, else a
        witness.

        Each closed-form generator of K_n is the top-degree form of an
        element of I_n: with f_i = P_i - x_i, P_i = top(f_i) and
        x_i^2 - x_n^2 = x_n*f_n - x_i*f_i (x_1^2 - x_2^2 = x_1*x_1 - x_2*x_2
        for I_2 = (x_1, x_2)).  GRevLex refines the degree, so
        in(top I) = in(I) (Kreuzer and Robbiano, *Computational Commutative
        Algebra 2*, 4.2), and in(K) lies in in(I).  Every element of
        ``gb_K`` lies in K (``_membership_witness``), so its leading
        monomials generate an ideal M inside in(K), with c_n standard
        monomials (counted here): dim R/I <= dim R/K <= c_n.  c_n distinct
        points of V(I_n) (``enumerate_points``, counted and checked here;
        for n = 2 the origin) give dim R/I >= c_n.  So M = in(K) = in(I):
        ``gb_K`` is a Groebner basis of K, and K and top(I), which share
        the initial ideal, are equal.
        """
        n, ring, gens = self.n, self.ideal_I.ring, self.ideal_I.gens
        x = [ring.var(name) for name in ring.names]
        if n == 2:
            moves = [x[0] * gens[0] - x[1] * gens[1]]
        else:
            moves = [x[-1] * gens[-1] - x[i] * gens[i] for i in range(n - 1)]
        tops = [g.top_degree_part() for g in gens + tuple(moves)]
        for k in self.ideal_K.gens:
            if k not in tops:
                return f"{ring.fmt(k)} is not the top form of a listed element of I_{n}"
        witness = _membership_witness(self.gb_K, self.ideal_K, f"K_{n}")
        if witness:
            return witness
        try:
            dim = len(self.staircase_K)
        except NotArtinianError:
            return f"R/in(K_{n}) read off the closed form is not Artinian"
        c = expected_codimension(n)
        if dim != c:
            return f"quotient dimension {dim} != {c}"
        if n == 2:  # the one point is the origin
            if any((0, 0) in g.terms for g in gens):
                return "a generator of I_2 is nonzero at the origin"
            return None
        points = enumerate_points(n)
        if len(points) != c:
            return f"point count {len(points)} != {c}"
        return verify_points_satisfy_ideal(self.ideal_I, points)

    @cached_property
    def series_check(self) -> "str | None":
        """None when the Hilbert series of R_n/K_n, read off ``staircase_K``
        once ``sandwich_check`` passes, is the triangle row ``bernoulli(n)``,
        else a witness."""
        series, row = hilbert_series(self.staircase_K), bernoulli(self.n)
        if series != row:
            return f"Hilbert series {series} != triangle row {row}"
        return None

    @cached_property
    def staircase_check(self) -> "str | None":
        """None when the binomials of ``gb_K`` are the x_i^2 - x_n^2 (none
        at n = 2), so that normal forms of monomials are monomials or 0, and
        ``staircase_K`` is {m(T, s)}, else a witness: the two facts that
        ``graded_trace`` reads.  Read once ``sandwich_check`` passes."""
        n, ring = self.n, self.ideal_K.ring
        squares = _square_differences(n, n) if n > 2 else []
        binomials = [g for g in self.gb_K.elements if len(g.terms) > 1]
        for g in binomials:
            if g not in squares:
                return f"normal forms modulo {ring.fmt(g)} are not monomials"
        if len(binomials) != len(squares):
            return f"not every x_i^2 - x{n}^2 is an element of the basis"
        got, expected = set(self.staircase_K.monomials), _expected_standard_monomials(n)
        if got != expected:
            return (
                f"{len(got - expected)} unexpected and "
                f"{len(expected - got)} missing standard monomials"
            )
        return None

    @cached_property
    def colength_check(self) -> "str | None":
        """None when ``gb_L`` is certified the reduced basis of L_{n-1},
        else a witness.

        Its elements lie in L (``_membership_witness``), so its leading
        monomials generate an ideal inside in(L), and dim R/L is at most
        their staircase count, which makes R/L Artinian.  L is m forms in m
        variables, so they are a regular sequence and dim R/L is the product
        of their degrees, m*2^(m-1) (Bruns and Herzog, *Cohen-Macaulay
        Rings*, the Hilbert series of a complete intersection).  A staircase
        of that count leaves no room: the leading monomials generate in(L).
        """
        lid, m = self.ideal_L, self.ideal_L.ring.nvars
        if len(lid.gens) != m or not all(g.is_homogeneous() for g in lid.gens):
            return f"L is not {m} forms in {m} variables"
        witness = _membership_witness(self.gb_L, lid, "L")
        if witness:
            return witness
        try:
            count = len(self.staircase_L)
        except NotArtinianError:
            return "R/in(L) read off the closed form is not Artinian"
        degrees = prod(g.total_degree() for g in lid.gens)
        if count != degrees:
            return (
                f"staircase of L has {count} monomials, not the product {degrees} "
                "of the degrees"
            )
        return None

    @cached_property
    def criterion_check(self) -> "str | None":
        """None when ``gb_Q`` is certified the reduced basis of Q_n, else a
        witness.  Its elements lie in Q_n (``_membership_witness``, through
        x_n*z - x_k^2) and every generator of Q_n reduces to 0 modulo them,
        so they generate Q_n; Buchberger's criterion (``unreduced_pair``)
        makes them a Groebner basis.  The criterion alone would not do: a
        basis of a smaller ideal can pass it."""
        n, gb, q = self.n, self.gb_Q, self.ideal_Q
        witness = _membership_witness(gb, q, f"Q_{n}")
        if witness:
            return witness
        outside = first_nonmember(q.gens, gb)
        if outside is not None:
            return f"{q.ring.fmt(outside)} does not reduce to 0 modulo the basis of Q_{n}"
        pair = unreduced_pair(gb)
        if pair is not None:
            f, g = (q.ring.fmt(gb.elements[i]) for i in pair)
            return f"the S-polynomial of {f} and {g} does not reduce to 0"
        return None

    @cached_property
    def unprojection_check(self) -> "str | None":
        """None when Q_n at z -> x_n equals K_n, else a witness.  Both are
        generated by forms, so if the two generator sets span the same forms
        in each degree, the ideals are equal."""
        q, kid = self.ideal_Q, self.ideal_K
        subst = substitute_ideal(q, "z", q.ring.var(f"x{self.n}")).gens
        lifted = tuple(q.ring.lift(g, kid.ring) for g in kid.gens)
        if not all(g.is_homogeneous() for g in subst + lifted):
            return "Q at z -> xn or K has a generator that is not a form"
        gaps = (_outside_span(subst, lifted), _outside_span(lifted, subst))
        degrees = [g.total_degree() for g in gaps if g is not None]
        return f"Q at z -> xn and K differ in degree {min(degrees)}" if degrees else None


def graded_trace(n: int, lam) -> list[int]:
    """The traces on R_n/K_n by degree of a permutation sigma of cycle type
    ``lam`` (parts in any order), x_n in a cycle of length lam[-1]; exact
    once ``staircase_check`` passes, in O(n^2) operations.

    Modulo x_i^2 - x_n^2, sigma sends each standard monomial x_T*x_n^s
    (|T| <= n-2, s <= 2(n-2-|T|)) to a monomial or 0, so a trace counts the
    ones it fixes.  If sigma fixes x_n they are the stable T with any s.
    Else x_n^s goes to x_k^s, which folds back for even s, and T is stable;
    for odd s one x_k is left over, and T is x_n's cycle minus x_n plus a
    stable set.  P(q), the product of 1 + q^len over the other parts,
    counts the stable sets off x_n's cycle by size (Polya counting on the
    power set; Stanley, *Enumerative Combinatorics 2*, ch. 7)."""
    *rest, ell = lam
    counts = [1] + [0] * (n - ell)  # the coefficients of P
    for length in rest:
        for j in range(n - ell, length - 1, -1):
            counts[j] += counts[j - length]
    trace = [0] * (2 * n - 3)
    for t, count in enumerate(counts):
        for s in range(0, 2 * (n - 2 - t) + 1, 1 if ell == 1 else 2):
            trace[t + s] += count
        if ell > 1:  # T = x_n's cycle minus x_n, plus the stable set; s odd
            size = t + ell - 1
            for s in range(1, 2 * (n - 2 - size) + 1, 2):
                trace[size + s] += count
    return trace


def challenge_series(wb: Workbench) -> tuple[ClassFunction, ...]:
    """The graded S_n-character of R_n/K_n, entry d the class function of
    degree d, from ``graded_trace``.  K_n's invariance is checked under
    (1 2) and (1 2 ... n): its generators' images lie in their span."""
    n, gens = wb.n, wb.ideal_K.gens
    for image in symmetric_generators(n, n).values():
        move = act(image, n)
        images = [Polynomial(n, {move(m): c for m, c in g.terms.items()}) for g in gens]
        if _outside_span(images, gens) is not None:
            raise EquivarianceError("defining ideal is not invariant under the permutation")
    lams = partitions(n)
    traces = [graded_trace(n, lam) for lam in lams]
    return tuple(ClassFunction(n, zip(lams, level)) for level in zip(*traces))


# ---------------------------------------------------------------------------
# claims

class VerificationReport(Value):
    """One claim's verdict at one n."""

    __slots__ = ("claim", "n", "status", "witness", "millis")

    def __init__(
        self,
        claim: str,
        n: int,
        status: str,  # pass | fail | skipped
        witness: "str | None" = None,
        millis: int = 0,
    ):
        self._set(claim, n, status, witness, millis)

    def to_json_dict(self, include_millis: bool = False) -> dict:
        out = {"claim": self.claim, "n": self.n, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if include_millis:
            out["millis"] = self.millis
        return out


def _certified(wb: Workbench):
    # the body of a claim that is exactly its certificate, which verify reads
    return True, None


def _claim_thm1(wb: Workbench):
    n = wb.n
    chi = xn_character(n)
    lhs = 2 * chi
    rhs = 2 * trivial_character(n) + (n - 2) * powerset_character(n)
    if lhs != rhs:
        lam = next(l for l in partitions(n) if lhs(l) != rhs(l))
        return False, f"2*chi({lam}) = {lhs(lam)} but expected {rhs(lam)}"
    if n % 2 == 1:
        direct = trivial_character(n) + (n - 2) * half_powerset_character(n)
        if chi != direct:
            return False, "odd-n half powerset identity failed"
    return True, None


def _claim_prop3_generators(wb: Workbench):
    # J_n = in(K_n) is generated by the leading monomials of gb_K, minimally
    # when each of them, divided by any of its variables, is standard
    n, ring = wb.n, xring(wb.n)
    lms = wb.gb_J.leading_monomials()
    got = set(lms)
    expected = {g.leading_monomial() for g in build_ideal("J_expected", n).gens}
    if got != expected:
        extra = sorted(got - expected, key=GREVLEX.key)
        missing = sorted(expected - got, key=GREVLEX.key)
        return False, (
            f"extra {[ring.fmt(Polynomial.monomial(m)) for m in extra]}, "
            f"missing {[ring.fmt(Polynomial.monomial(m)) for m in missing]}"
        )
    staircase = set(wb.staircase_K.monomials)
    for m in lms:
        if any(e and _shift(m, i, -1) not in staircase for i, e in enumerate(m)):
            return False, f"{ring.fmt(Polynomial.monomial(m))} is not a minimal generator"
    return True, None


def _claim_thm3(wb: Workbench):
    # J_n is monomial; once S_{n-1} permutes its minimal generators it
    # permutes the staircase, and the trace of sigma in degree k counts the
    # standard monomials of degree k that sigma fixes: graded_trace with x_n
    # in a cycle of its own
    n = wb.n
    for name, image in symmetric_generators(n - 1, n).items():
        if not permutes(image, wb.gb_J.elements):
            return False, f"{name} does not permute the generators of J_{n}"
    chars = [subset_character(n - 1, l) for l in range(n)]
    for lam in partitions(n - 1):
        traces = graded_trace(n, lam + (1,))
        expected = _mirrored_sums([char(lam) for char in chars], n)
        if traces != expected:
            return False, f"class {lam}: traces {traces} != {expected}"
    return True, None


def _claim_thmG(wb: Workbench):
    return True, f"socle dimension 1; embedding dimension {wb.n}"


def _claim_not_gorenstein_J(wb: Workbench):
    socle_monos = wb.socle_J
    dim = len(socle_monos)
    if dim <= 1:
        return False, f"socle dimension {dim} is not > 1"
    ring = wb.ideal_K.ring
    witness = ", ".join(ring.fmt(Polynomial.monomial(m)) for m in socle_monos)
    return True, f"socle dimension {dim}, spanned by {witness}"


def _colon_certificate(wb: Workbench, f: Polynomial) -> "str | None":
    """None when (L : K) = L + <f> is certified for L = L_{n-1} and
    K = K_{n-1}, else a witness; read once ``colength_check`` and the
    ``sandwich_check`` of ``prev`` pass.

    R/L is a complete intersection (``colength_check``), hence Gorenstein,
    and for L inside K linkage gives dim R/(L : K) = dim R/L - dim R/K
    (Peskine and Szpiro, 1974).  If f*K lies in L, then L + <f> lies in
    (L : K), and equal dimensions make the two equal.  L + <f> is the one
    ideal completed here, within ``pair_cap``.
    """
    lid, kid, gb_k = wb.ideal_L, wb.prev.ideal_K, wb.prev.gb_K
    if first_nonmember([f * k for k in kid.gens], wb.gb_L) is not None:
        return f"{lid.ring.fmt(f)} * K_{wb.n - 1} is not inside L"
    if first_nonmember(lid.gens, gb_k) is not None:
        return f"L is not inside K_{wb.n - 1}"
    target = buchberger(Ideal(lid.ring, lid.gens + (f,)), GREVLEX, wb.pair_cap)
    dim = len(wb.staircase_L) - len(wb.prev.staircase_K)
    if len(standard_monomials(target)) != dim:
        return f"(L : K) differs from L + <{lid.ring.fmt(f)}>"
    return None


def _claim_appendix_colon(wb: Workbench):
    m = wb.n - 1
    last_sq = Polynomial.monomial(_power(m, m - 1, 2))
    witness = _colon_certificate(wb, last_sq)
    if witness:
        return False, witness
    # a colon inside (x_1, ..., x_m)^2 holds no nonzero linear form
    ring = wb.ideal_L.ring
    for g in wb.ideal_L.gens + (last_sq,):
        if min(map(sum, g.terms)) < 2:
            return False, f"the colon generator {ring.fmt(g)} has a term of degree < 2"
    return True, None


def _claim_appendix_regularity(wb: Workbench):
    # A = R[z]/Q_n is graded and f = z - xn is linear.  A/fA = R/K_n (the
    # unprojection) has finite length, so 0 :_A f, an A/fA-module, has too,
    # and the exact sequence 0 -> (0:f)(-1) -> A(-1) -> A -> A/fA -> 0 read
    # on Hilbert series at t = 1 gives l(A/fA) = e(A) + l(0:f) when dim A = 1.
    # So f is regular exactly when e(A) = e(R[z]/in Q_n) equals dim R/K_n.
    if not all(g.is_homogeneous() for g in wb.ideal_Q.gens):
        return False, "Q has a generator that is not a form"
    try:
        e = multiplicity(wb.gb_Q)
    except ValueError as exc:
        return False, str(exc)
    if e != len(wb.staircase_K):
        return False, "z - xn is a zero divisor on R[z]/Q"
    return True, None


def _claim_appendix_krull(wb: Workbench):
    gbs = (wb.gb_L, wb.prev.gb_K, wb.gb_Q)
    dims = tuple(krull_dim_monomial(gb) for gb in gbs)
    if dims != (0, 0, 1):
        return False, f"Krull dimensions of in(L), in(K), in(Q) are {dims}"
    return True, None


def _claim_challenge(wb: Workbench):
    series = challenge_series(wb)
    if sum(series[1:], series[0]) != xn_character(wb.n):
        return False, "t = 1 does not recover the point-set character"
    identity = (1,) * wb.n
    if [cf(identity) for cf in series] != hilbert_series(wb.staircase_K):
        return False, "identity class does not recover the Hilbert series"
    return True, None


# claim id -> (the least n it is defined for, the Workbench certificates it
# rests on, read in order, the claim function).  A certificate of the
# workbench of n - 1 is named through ``prev``.  prop2_codim
# (dim R/I_n = c_n, with c_n distinct points of V(I_n): I_n is reduced),
# prop3_basis (the staircase of in(K_n) = J_n is {m(T, s)}),
# prop4_generators (top(I_n) = K_n and in(I_n) = in(K_n), so R/K_n and
# R/J_n share the Hilbert series), thm2, inverse_system and
# appendix_unprojection are their certificates.
_SANDWICH = ("sandwich_check",)
_SERIES = (*_SANDWICH, "series_check")
_STAIRCASE = (*_SANDWICH, "staircase_check")
_LINKED = ("colength_check", "prev.sandwich_check")  # L_{n-1} inside K_{n-1}
CLAIMS: dict[str, tuple] = {
    "prop2_codim": (2, _SANDWICH, _certified),
    "thm1": (2, (), _claim_thm1),
    "prop3_generators": (3, _SANDWICH, _claim_prop3_generators),
    "prop3_basis": (3, (*_STAIRCASE, "series_check"), _certified),
    "thm2": (2, _SERIES, _certified),
    "thm3": (2, _STAIRCASE, _claim_thm3),
    "prop4_generators": (3, _SANDWICH, _certified),
    "thmG": (2, (*_SERIES, "duality_check"), _claim_thmG),
    "inverse_system": (3, (*_SERIES, "duality_check"), _certified),
    "not_gorenstein_J": (3, _SANDWICH, _claim_not_gorenstein_J),
    "appendix_colon": (3, _LINKED, _claim_appendix_colon),
    "appendix_unprojection": (3, ("unprojection_check",), _certified),
    "appendix_regularity": (
        3,
        ("sandwich_check", "unprojection_check", "criterion_check"),
        _claim_appendix_regularity,
    ),
    "appendix_krull": (3, (*_LINKED, "criterion_check"), _claim_appendix_krull),
    "challenge": (2, _STAIRCASE, _claim_challenge),
}


def first_witness(wb: Workbench, certificates) -> "str | None":
    """The first witness of ``wb``'s ``certificates``, read in order, else None."""
    witnesses = (attrgetter(c)(wb) for c in certificates)
    return next((w for w in witnesses if w is not None), None)


def verify(
    claim: str, n: int, workbench: "Workbench | None" = None
) -> VerificationReport:
    """Run one registered claim at one n on ``workbench`` (default: a fresh
    ``Workbench(n)``); resource errors propagate.  A claim fails with the
    witness of the first of its certificates that returns one, and then its
    function is not called."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    wb = Workbench(n) if workbench is None else workbench
    if wb.n != n:
        raise ValueError(f"workbench for n={wb.n} used to verify n={n}")
    min_n, certificates, fn = CLAIMS[claim]
    if n < min_n:
        return VerificationReport(claim, n, "skipped", f"defined for n >= {min_n}")
    start = perf_counter()
    witness = first_witness(wb, certificates)
    ok, witness = (False, witness) if witness is not None else fn(wb)
    millis = int((perf_counter() - start) * 1000)
    return VerificationReport(claim, n, "pass" if ok else "fail", witness, millis)
