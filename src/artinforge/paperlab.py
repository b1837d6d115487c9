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
    thmG               R_n/K_n is Gorenstein (socle dimension one)
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
builds the ideals, bases, quotients and certificates that the claims at its
n share, each at most once; K_{n-1} is read from ``prev``, the workbench of
n - 1.  Each entry of ``CLAIMS`` names the certificate the claim rests on,
if any; ``verify`` reads it first and fails the claim with its witness, so
no claim function reads a certificate.  No claim completes I_n: the J claims
rest on a point-count sandwich that certifies J_n = in(K_n) and then read
the staircase of K_n, and appendix_regularity compares a multiplicity with
dim R_n/K_n instead of completing Q_n again.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb
from time import perf_counter

from . import linalg
from .errors import NotArtinianError
from .groebner import (
    GroebnerBasis,
    _shift,
    buchberger,
    colon_ideal,  # noqa: F401  unused here; bench/tracing.py wraps this binding
    ideal_member,
    krull_dim_monomial,
    multiplicity,
    standard_monomials,
    substitute_ideal,
)
from .polyarith import (
    GREVLEX,
    Ideal,
    Monomial,
    Polynomial,
    Value,
    monomials_of_degree,
    xring,
)
from .quotient import (
    QuotientAlgebra,
    annihilator,  # noqa: F401  unused here; bench/tracing.py wraps this binding
    contract,
    equivariant_graded_trace,  # noqa: F401  bench/tracing.py wraps this binding
    graded_traces,
    hilbert_series,
    socle_dimension,
)
from .reptheory import (
    ClassFunction,
    act,
    conjugacy_classes,
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


def _square_differences(m: int, nv: int) -> list[Polynomial]:
    """x_i^2 - x_m^2 for i = 1..m-1, over nv >= m variables."""
    last = _power(nv, m - 1, 2)
    return [Polynomial(nv, {_power(nv, i, 2): 1, last: -1}) for i in range(m - 1)]


def _omitted_products(m: int) -> list[Monomial]:
    """The exponent tuples of prod_{j != i} x_j over x1..xm, for i = 1..m."""
    return [tuple(0 if j == i else 1 for j in range(m)) for i in range(m)]


def _t_sets(n: int):
    """The pairs (T, j) with 0 <= j <= n-2 and T a subset of {x1..x_{n-1}}
    of size n-2-j, T given as the exponent tuple of x_T over x1..x_{n-1}.
    x_T*x_n^(2j+1) are the generators of J_n beyond the squares and
    x1...x_{n-1}; the x_T*x_n^s with s <= 2j are its standard monomials."""
    for j in range(n - 1):
        for t_set in combinations(range(n - 1), n - 2 - j):
            yield tuple(1 if i in t_set else 0 for i in range(n - 1)), j


def build_ideal(which: str, n: int):
    """Construct one of the named objects of the family from the closed-form
    pieces above, each generator list in a fixed order.

    ``I`` needs n >= 2, the rest need n >= 3.  ``L`` lives in n-1 variables
    and ``Q`` in n+1 (x1..xn plus z), matching their definitions; ``g_dual``
    returns a dual polynomial rather than an ideal.
    """
    if which == "I":
        if n < 2:
            raise ValueError("I is defined for n >= 2")
        ring = xring(n)
        if n == 2:
            return Ideal(ring, (ring.var("x1"), ring.var("x2")))
        gens = [
            Polynomial(n, {p: 1, _power(n, i, 1): -1})
            for i, p in enumerate(_omitted_products(n))
        ]
        return Ideal(ring, tuple(gens))
    if n < 3:
        raise ValueError(f"{which} is defined for n >= 3")
    if which == "J_expected":
        monos = [_power(n, i, 2) for i in range(n - 1)]
        monos.append(_omitted_products(n)[-1])
        monos += [t + (2 * j + 1,) for t, j in _t_sets(n)]
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
# the per-n workbench

class Workbench:
    """The artefacts that the claims at one n share, each built at most once.

    Every attribute below is computed on first read and kept for the life of
    the workbench; the Groebner runs obey ``pair_cap``, which ``None`` leaves
    to ``buchberger``'s default.  Make one workbench per n and drop it when
    that n is done, so nothing outlives its n.
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
        return buchberger(self.ideal_K, GREVLEX, self.pair_cap)

    @cached_property
    def gb_L(self) -> GroebnerBasis:
        return buchberger(self.ideal_L, GREVLEX, self.pair_cap)

    @cached_property
    def gb_Q(self) -> GroebnerBasis:
        return buchberger(self.ideal_Q, GREVLEX, self.pair_cap)

    @cached_property
    def quotient_K(self) -> QuotientAlgebra:
        return QuotientAlgebra(self.gb_K)

    @cached_property
    def socle_check(self) -> "str | None":
        """None when R_n/K_n has a one-dimensional socle (is Gorenstein),
        else the witness ``socle dimension d``."""
        dim, gorenstein = socle_dimension(self.quotient_K)
        return None if gorenstein else f"socle dimension {dim}"

    @cached_property
    def socle_J(self) -> tuple[Monomial, ...]:
        """The standard monomials that span the socle of R_n/J_n, read off
        the one staircase of in(K_n) = J_n.  J_n is a monomial ideal, so
        x_i sends a standard monomial to a standard one or to 0: the socle is
        spanned by the standard m with every x_i*m off the staircase."""
        staircase = set(self.quotient_K.basis.monomials)
        return tuple(
            m
            for m in self.quotient_K.basis.monomials
            if all(_shift(m, i, 1) not in staircase for i in range(self.n))
        )

    @cached_property
    def sandwich_check(self) -> "str | None":
        """None when in(I_n) = in(K_n), top(I_n) = K_n and dim R_n/I_n = c_n
        are certified, else a witness.

        Each closed-form generator of K_n is the top-degree form of an
        element of I_n: with f_i = P_i - x_i, P_i = top(f_i) and
        x_i^2 - x_n^2 = x_n*f_n - x_i*f_i (x_1^2 - x_2^2 = x_1*x_1 - x_2*x_2
        for I_2 = (x_1, x_2)).  GRevLex refines the degree, so
        in(top I) = in(I) (Kreuzer and Robbiano, *Computational Commutative
        Algebra 2*, 4.2), and in(K) lies in in(I): dim R/I <= dim R/K = c_n.
        c_n distinct points of V(I_n) (``enumerate_points``, counted and
        checked here; for n = 2 the origin) give dim R/I >= c_n.  So the two
        initial ideals are equal, and so are K_n and top(I_n), which share it.
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
        try:
            dim = self.quotient_K.dimension
        except NotArtinianError:
            return f"R/K_{n} is not Artinian"
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
    def unprojection_check(self) -> "str | None":
        """None when Q_n at z -> x_n equals K_n, else a witness.  Both are
        generated by forms, so if the two generator sets span the same forms
        in each degree, the ideals are equal."""
        q, kid = self.ideal_Q, self.ideal_K
        subst = substitute_ideal(q, "z", q.ring.var(f"x{self.n}")).gens
        lifted = tuple(q.ring.lift(g, kid.ring) for g in kid.gens)
        if not all(g.is_homogeneous() for g in subst + lifted):
            return "Q at z -> xn or K has a generator that is not a form"
        for d in sorted({g.total_degree() for g in subst + lifted}):
            a = [g.terms for g in subst if g.total_degree() == d]
            b = [g.terms for g in lifted if g.total_degree() == d]
            if not linalg.rank(a) == linalg.rank(b) == linalg.rank(a + b):
                return f"Q at z -> xn and K differ in degree {d}"
        return None


def challenge_series(wb: Workbench) -> tuple[ClassFunction, ...]:
    """The graded S_n-character of R_n/K_n: entry d is the class function
    of degree d.  K_n's invariance is checked once, under (1 2) and
    (1 2 ... n)."""
    lams, _, reps = zip(*conjugacy_classes(wb.n))
    group = symmetric_generators(wb.n, wb.n).values()
    traces = graded_traces(wb.quotient_K, reps, group)
    return tuple(ClassFunction(wb.n, zip(lams, level)) for level in zip(*traces))


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
    n = wb.n
    got = set(wb.gb_J.leading_monomials())
    expected = {g.leading_monomial() for g in build_ideal("J_expected", n).gens}
    if got != expected:
        ring = xring(n)
        extra = sorted(got - expected, key=GREVLEX.key)
        missing = sorted(expected - got, key=GREVLEX.key)
        return False, (
            f"extra {[ring.fmt(Polynomial.monomial(m)) for m in extra]}, "
            f"missing {[ring.fmt(Polynomial.monomial(m)) for m in missing]}"
        )
    return True, None


def _expected_standard_monomials(n: int) -> set:
    """The set {m(T, s)}: x_n^s times a squarefree monomial x_T in
    x1..x_{n-1} with |T| = n-2-j and 0 <= s <= 2j."""
    return {t + (s,) for t, j in _t_sets(n) for s in range(2 * j + 1)}


def _claim_prop3_basis(wb: Workbench):
    basis = wb.quotient_K.basis  # the staircase of in(K_n) = J_n
    got = set(basis.monomials)
    expected = _expected_standard_monomials(wb.n)
    if got != expected:
        return False, (
            f"{len(got - expected)} unexpected and "
            f"{len(expected - got)} missing standard monomials"
        )
    for k, (count, predicted) in enumerate(zip(hilbert_series(basis), bernoulli(wb.n))):
        if count != predicted:
            return False, f"degree {k} census {count} != {predicted}"
    return True, None


def _claim_thm2(wb: Workbench):
    series = hilbert_series(wb.quotient_K.basis)
    row = bernoulli(wb.n)
    if series != row:
        return False, f"Hilbert series {series} != triangle row {row}"
    return True, None


def _claim_thm3(wb: Workbench):
    # J_n is monomial; once S_{n-1} permutes its minimal generators it
    # permutes the staircase, and the trace of sigma in degree k counts the
    # standard monomials of degree k that sigma fixes
    n = wb.n
    for name, image in symmetric_generators(n - 1, n).items():
        if not permutes(image, wb.gb_J.elements):
            return False, f"{name} does not permute the generators of J_{n}"
    levels = wb.quotient_K.basis.by_degree
    chars = [subset_character(n - 1, l) for l in range(n)]
    for lam, _, rep in conjugacy_classes(n - 1):
        move = act(rep + (n - 1,), n)
        traces = [sum(move(m) == m for m in level) for level in levels]
        expected = _mirrored_sums([char(lam) for char in chars], n)
        if traces != expected:
            return False, f"class {lam}: traces {traces} != {expected}"
    return True, None


def _claim_thmG(wb: Workbench):
    return True, f"socle dimension 1; embedding dimension {wb.n}"


def _claim_inverse_system(wb: Workbench):
    # Macaulay duality: let K lie in Ann(g), R/K have a one-dimensional socle
    # (socle_check) and its Hilbert series end in degree deg g.  A form f in
    # Ann(g) but not in K generates a nonzero ideal of R/K, which contains the
    # socle, i.e. all of degree deg g; so R_{deg g} annihilates g, and as the
    # contraction pairing in one degree is perfect, g = 0.  Hence Ann(g) = K.
    g, top, kid = build_ideal("g_dual", wb.n), 2 * wb.n - 4, wb.ideal_K
    if not g or not g.is_homogeneous() or g.total_degree() != top:
        return False, f"g_n is not a nonzero form of degree {top}"
    for k in kid.gens:
        if contract(k, g):
            return False, f"{kid.ring.fmt(k)} does not annihilate g_n"
    last = len(wb.quotient_K.basis.by_degree) - 1
    if last != top:
        return False, f"the Hilbert series of R/K_n ends in degree {last}"
    return True, None


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
    K = K_{n-1}, else a witness.

    L has n - 1 generators in n - 1 variables and R/L is Artinian, so R/L is
    a complete intersection, hence Gorenstein, and for L inside K linkage
    gives dim R/(L : K) = dim R/L - dim R/K (Peskine and Szpiro, 1974).  If
    f*K lies in L, then L + <f> lies in (L : K), and equal dimensions make
    the two equal.
    """
    lid, kid, gb_k = wb.ideal_L, wb.prev.ideal_K, wb.prev.gb_K
    if not all(ideal_member(f * k, wb.gb_L) for k in kid.gens):
        return f"{lid.ring.fmt(f)} * K_{wb.n - 1} is not inside L"
    if not all(ideal_member(g, gb_k) for g in lid.gens):
        return f"L is not inside K_{wb.n - 1}"
    if len(lid.gens) != lid.ring.nvars:
        return f"L has {len(lid.gens)} generators in {lid.ring.nvars} variables"
    try:
        dim_l = len(standard_monomials(wb.gb_L))
    except NotArtinianError:
        return "R/L is not Artinian"
    target = buchberger(Ideal(lid.ring, lid.gens + (f,)), GREVLEX, wb.pair_cap)
    dim_k = len(standard_monomials(gb_k))
    if len(standard_monomials(target)) != dim_l - dim_k:
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
    if e != wb.quotient_K.dimension:
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
    if [cf(identity) for cf in series] != hilbert_series(wb.quotient_K.basis):
        return False, "identity class does not recover the Hilbert series"
    return True, None


# claim id -> (the least n it is defined for, the Workbench certificate it
# rests on or None, the claim function).  prop2_codim (dim R/I_n = c_n, with
# c_n distinct points of V(I_n): I_n is reduced), prop4_generators
# (top(I_n) = K_n and in(I_n) = in(K_n), so R/K_n and R/J_n share the Hilbert
# series) and appendix_unprojection are exactly their certificates.
CLAIMS: dict[str, tuple] = {
    "prop2_codim": (2, "sandwich_check", _certified),
    "thm1": (2, None, _claim_thm1),
    "prop3_generators": (3, "sandwich_check", _claim_prop3_generators),
    "prop3_basis": (3, "sandwich_check", _claim_prop3_basis),
    "thm2": (2, "sandwich_check", _claim_thm2),
    "thm3": (2, "sandwich_check", _claim_thm3),
    "prop4_generators": (3, "sandwich_check", _certified),
    "thmG": (2, "socle_check", _claim_thmG),
    "inverse_system": (3, "socle_check", _claim_inverse_system),
    "not_gorenstein_J": (3, "sandwich_check", _claim_not_gorenstein_J),
    "appendix_colon": (3, None, _claim_appendix_colon),
    "appendix_unprojection": (3, "unprojection_check", _certified),
    "appendix_regularity": (3, "unprojection_check", _claim_appendix_regularity),
    "appendix_krull": (3, None, _claim_appendix_krull),
    "challenge": (2, None, _claim_challenge),
}


def verify(
    claim: str, n: int, workbench: "Workbench | None" = None
) -> VerificationReport:
    """Run one registered claim at one n on ``workbench`` (default: a fresh
    ``Workbench(n)``); resource errors propagate.  A claim whose certificate
    returns a witness fails with it, and its function is not called."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    wb = Workbench(n) if workbench is None else workbench
    if wb.n != n:
        raise ValueError(f"workbench for n={wb.n} used to verify n={n}")
    min_n, certificate, fn = CLAIMS[claim]
    if n < min_n:
        return VerificationReport(claim, n, "skipped", f"defined for n >= {min_n}")
    start = perf_counter()
    witness = getattr(wb, certificate) if certificate else None
    ok, witness = (False, witness) if witness is not None else fn(wb)
    millis = int((perf_counter() - start) * 1000)
    return VerificationReport(claim, n, "pass" if ok else "fail", witness, millis)
