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
builds the ideals, bases and quotients that the claims at its n share, each
at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb
from time import perf_counter

from . import linalg
from .errors import NotArtinianError
from .groebner import (
    DEFAULT_PAIR_CAP,
    GroebnerBasis,
    _shift,
    buchberger,
    colon_ideal,  # noqa: F401  unused here; bench/tracing.py wraps this binding
    is_regular_element,
    krull_dim_monomial,
    standard_monomials,
    substitute_ideal,
    top_form_basis,
)
from .polyarith import (
    GREVLEX,
    Ideal,
    Polynomial,
    _normal_form,
    _reducer_info,
    monomials_of_degree,
    xring,
)
from .quotient import (
    QuotientAlgebra,
    annihilator,  # noqa: F401  unused here; bench/tracing.py wraps this binding
    contract,
    equivariant_graded_trace,
    hilbert_series,
    socle_dimension,
)
from .reptheory import (
    ClassFunction,
    GradedClassFunction,
    conjugacy_classes,
    half_powerset_character,
    partitions,
    powerset_character,
    subset_character,
    trivial_character,
    xn_character,
)

SUPPORTED_RANGE = (2, 8)


def expected_codimension(n: int) -> int:
    """The point count 1 + (n-2)*2^(n-1): 1, 5, 17, 49, 129, 321, ..."""
    return 1 + (n - 2) * 2 ** (n - 1)


# ---------------------------------------------------------------------------
# the symmetrised triangle of partial binomial sums

def partial_binomial_sum(n: int, k: int) -> int:
    """b_{n,k} = C(n, 0) + C(n, 1) + ... + C(n, k)."""
    return sum(comb(n, j) for j in range(k + 1))


def bernoulli(n: int) -> list[int]:
    """The symmetrised triangle row a_{n,k} = b_{n-1, min(k, 2n-4-k)} for
    0 <= k <= 2n-4: the first half copies b_{n-1,k} and the second half
    mirrors it, so the row is palindromic and strictly increasing up to its
    middle entry 2^(n-1) - 1."""
    if n < 2:
        raise ValueError("triangle rows start at n = 2")
    return [
        partial_binomial_sum(n - 1, min(k, 2 * n - 4 - k)) for k in range(2 * n - 3)
    ]


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

@dataclass(frozen=True)
class SymbolicPoint:
    """A point of the vanishing locus X_n: either the origin, or a root
    index k in 0..n-3 with a sign vector whose product is (-1)^k."""

    n: int
    k: "int | None" = None
    eps: "tuple[int, ...] | None" = None

    def __post_init__(self):
        if (self.k is None) != (self.eps is None):
            raise ValueError("root index and sign vector come together")
        if self.k is not None:
            if not 0 <= self.k <= self.n - 3:
                raise ValueError(f"root index {self.k} out of range for n={self.n}")
            if len(self.eps) != self.n or any(e not in (1, -1) for e in self.eps):
                raise ValueError("sign vector must be a +-1 tuple of length n")
            parity = 1 if self.k % 2 == 0 else -1
            prod = 1
            for e in self.eps:
                prod *= e
            if prod != parity:
                raise ValueError("sign product must equal (-1)^k")

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
        parity = 1 if k % 2 == 0 else -1
        for eps in product((1, -1), repeat=n):
            prod = 1
            for e in eps:
                prod *= e
            if prod == parity:
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
    """Exact check that each of ``points`` (those of ``enumerate_points(n)``)
    kills every generator of ``ideal`` (I_n), and that the points are
    pairwise distinct: with m = 2(n-2), xi has order exactly m, so two points
    are equal exactly when their exponent tuples are.  Returns None when both
    hold, else a witness of the first failure."""
    if ideal.ring.nvars < 3:
        raise ValueError("point check needs n >= 3")
    m = 2 * (ideal.ring.nvars - 2)
    seen = set()
    for pt in points:
        exps = pt.exponents(m)
        if exps in seen:
            return f"duplicate point {pt}"
        seen.add(exps)
        for g in ideal.gens:
            if any(_value_at(g, exps, m)):
                return f"generator {ideal.ring.fmt(g)} nonzero at {pt}"
    return None


# ---------------------------------------------------------------------------
# ideal builders

def _omitted_product(nv: int, omit: int, among: int) -> tuple[int, ...]:
    """Exponent tuple of prod x_j over j < among, j != omit."""
    return tuple(1 if (j < among and j != omit) else 0 for j in range(nv))


def build_ideal(which: str, n: int):
    """Construct one of the named objects of the family.

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
        gens = []
        for i in range(n):
            prod_mono = _omitted_product(n, i, n)
            xi = tuple(1 if j == i else 0 for j in range(n))
            gens.append(
                Polynomial(n, {prod_mono: 1, xi: -1})
            )
        return Ideal(ring, tuple(gens))
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
        return _k_homogeneous(n)
    if which == "L":
        ring = xring(n - 1)
        gens = _complete_intersection_gens(n - 1)
        return Ideal(ring, tuple(gens))
    if which == "Q":
        m = n - 1
        ring = xring(n, "z")
        nv = ring.nvars
        gens = []
        for g in _complete_intersection_gens(m):
            gens.append(Polynomial(nv, {mono + (0, 0): c for mono, c in g.terms.items()}))
        for i in range(m):
            p_i = _omitted_product(nv, i, m)
            gens.append(Polynomial.monomial(tuple(e + (1 if j == n - 1 else 0) for j, e in enumerate(p_i))))
        xn_z = tuple((1 if j in (n - 1, nv - 1) else 0) for j in range(nv))
        xm_sq = tuple((2 if j == m - 1 else 0) for j in range(nv))
        gens.append(Polynomial(nv, {xn_z: 1, xm_sq: -1}))
        return Ideal(ring, tuple(gens))
    if which == "g_dual":
        terms = {}
        for mono in monomials_of_degree(n, n - 2):
            terms[tuple(2 * e for e in mono)] = 1
        return Polynomial(n, terms)
    raise ValueError(f"unknown ideal name {which!r}")


def _complete_intersection_gens(m: int) -> list[Polynomial]:
    """h_1, ..., h_{m-1}, x1...xm over m variables, with h_i = x_i^2 - x_m^2."""
    gens = []
    for i in range(m - 1):
        sq_i = tuple(2 if j == i else 0 for j in range(m))
        sq_m = tuple(2 if j == m - 1 else 0 for j in range(m))
        gens.append(Polynomial(m, {sq_i: 1, sq_m: -1}))
    gens.append(Polynomial.monomial((1,) * m))
    return gens


def _k_homogeneous(n: int) -> Ideal:
    """The closed-form homogeneous ideal: the square differences plus all n
    products that omit one variable.  Valid for n >= 2; at n = 2 it
    degenerates to (x1^2 - x2^2, x2, x1), the presentation the inductive
    colon argument uses."""
    ring = xring(n)
    gens = []
    for i in range(n - 1):
        sq_i = tuple(2 if j == i else 0 for j in range(n))
        sq_n = tuple(2 if j == n - 1 else 0 for j in range(n))
        gens.append(Polynomial(n, {sq_i: 1, sq_n: -1}))
    for i in range(n):
        gens.append(Polynomial.monomial(_omitted_product(n, i, n)))
    return Ideal(ring, tuple(gens))


# ---------------------------------------------------------------------------
# the per-n workbench

class Workbench:
    """The artefacts that the claims at one n share, each built at most once.

    Every attribute below is computed on first read and kept for the life of
    the workbench; the Groebner runs obey ``pair_cap`` (default
    ``DEFAULT_PAIR_CAP``).  Make one workbench per n and drop it when that n
    is done, so nothing outlives its n.
    """

    def __init__(self, n: int, pair_cap: "int | None" = None):
        lo, hi = SUPPORTED_RANGE
        if not lo <= n <= hi:
            raise ValueError(f"n={n} outside the supported range {lo}..{hi}")
        self.n = n
        self.pair_cap = DEFAULT_PAIR_CAP if pair_cap is None else pair_cap

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
    def ideal_K_prev(self) -> Ideal:
        return _k_homogeneous(self.n - 1)

    @cached_property
    def gb_I(self) -> GroebnerBasis:
        return buchberger(self.ideal_I, GREVLEX, self.pair_cap)

    @cached_property
    def gb_J(self) -> GroebnerBasis:
        """J_n = in(I_n); its minimal monomial generators, the leading
        monomials of the reduced basis of I_n, are a reduced basis."""
        lms = self.gb_I.leading_monomials()
        elems = tuple(Polynomial.monomial(m) for m in lms)
        return GroebnerBasis(self.gb_I.ring, GREVLEX, elems)

    @cached_property
    def gb_K(self) -> GroebnerBasis:
        return buchberger(self.ideal_K, GREVLEX, self.pair_cap)

    @cached_property
    def gb_K_prev(self) -> GroebnerBasis:
        return buchberger(self.ideal_K_prev, GREVLEX, self.pair_cap)

    @cached_property
    def gb_L(self) -> GroebnerBasis:
        return buchberger(self.ideal_L, GREVLEX, self.pair_cap)

    @cached_property
    def gb_Q(self) -> GroebnerBasis:
        return buchberger(self.ideal_Q, GREVLEX, self.pair_cap)

    @cached_property
    def quotient_J(self) -> QuotientAlgebra:
        return QuotientAlgebra(self.gb_J)

    @cached_property
    def quotient_K(self) -> QuotientAlgebra:
        return QuotientAlgebra(self.gb_K)

    @cached_property
    def socle_K(self) -> tuple[int, bool]:
        """``socle_dimension(quotient_K)``: the socle dimension of R_n/K_n
        and whether it is one."""
        return socle_dimension(self.quotient_K)


def challenge_series(wb: Workbench) -> GradedClassFunction:
    """The graded S_n-character of R_n/K_n as a class-function polynomial."""
    n, q = wb.n, wb.quotient_K
    traces = {}
    for lam, _, rep in conjugacy_classes(n):
        traces[lam] = equivariant_graded_trace(q, rep)
    ndegrees = len(q.basis.by_degree)
    terms = []
    for d in range(ndegrees):
        terms.append((d, ClassFunction(n, {lam: traces[lam][d] for lam in traces})))
    return GradedClassFunction(n, tuple(terms))


# ---------------------------------------------------------------------------
# claims

@dataclass
class VerificationReport:
    claim: str
    n: int
    status: str  # pass | fail | skipped
    witness: "str | None" = None
    millis: int = 0

    def to_json_dict(self, include_millis: bool = False) -> dict:
        out = {"claim": self.claim, "n": self.n, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if include_millis:
            out["millis"] = self.millis
        return out


def _claim_prop2_codim(wb: Workbench):
    n = wb.n
    dim = wb.quotient_J.dimension
    c = expected_codimension(n)
    if dim != c:
        return False, f"quotient dimension {dim} != {c}"
    if n >= 3:
        pts = enumerate_points(n)
        if len(pts) != c:
            return False, f"point count {len(pts)} != {c}"
        witness = verify_points_satisfy_ideal(wb.ideal_I, pts)
        if witness:
            return False, witness
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
    got = set(wb.gb_I.leading_monomials())
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
    """The set {m(T, s)}: x_n^s times a squarefree monomial in x1..x_{n-1}
    with |T| = n-2-j and 0 <= s <= 2j."""
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


def _claim_prop3_basis(wb: Workbench):
    n = wb.n
    basis = wb.quotient_J.basis
    got = set(basis.monomials)
    expected = _expected_standard_monomials(n)
    if got != expected:
        return False, (
            f"{len(got - expected)} unexpected and "
            f"{len(expected - got)} missing standard monomials"
        )
    for k, count in enumerate(hilbert_series(basis)):
        predicted = partial_binomial_sum(n - 1, min(k, 2 * n - 4 - k))
        if count != predicted:
            return False, f"degree {k} census {count} != {predicted}"
    return True, None


def _claim_thm2(wb: Workbench):
    series = hilbert_series(wb.quotient_J.basis)
    row = bernoulli(wb.n)
    if series != row:
        return False, f"Hilbert series {series} != triangle row {row}"
    return True, None


def _claim_thm3(wb: Workbench):
    n, q = wb.n, wb.quotient_J
    chars = [subset_character(n - 1, l) for l in range(n)]
    for lam, _, rep in conjugacy_classes(n - 1):
        traces = equivariant_graded_trace(q, rep + (n - 1,))
        expected = [
            sum(chars[l](lam) for l in range(min(k, 2 * n - 4 - k) + 1))
            for k in range(2 * n - 3)
        ]
        if traces != expected:
            return False, f"class {lam}: traces {traces} != {expected}"
    return True, None


def _claim_prop4_generators(wb: Workbench):
    if top_form_basis(wb.gb_I).elements != wb.gb_K.elements:
        return False, "top-form ideal differs from the closed-form generators"
    hj = hilbert_series(wb.quotient_J.basis)
    hk = hilbert_series(wb.quotient_K.basis)
    if hj != hk:
        return False, f"Hilbert series differ: {hj} vs {hk}"
    return True, None


def _claim_thmG(wb: Workbench):
    dim, gorenstein = wb.socle_K
    if not gorenstein:
        return False, f"socle dimension {dim}"
    return True, f"socle dimension 1; embedding dimension {wb.n}"


def _claim_inverse_system(wb: Workbench):
    # Macaulay duality: let K lie in Ann(g), R/K have a one-dimensional socle
    # and its Hilbert series end in degree deg g.  A form f in Ann(g) but not
    # in K generates a nonzero ideal of R/K, which contains the socle, i.e.
    # all of degree deg g; so R_{deg g} annihilates g, and as the contraction
    # pairing in one degree is perfect, g = 0.  Hence Ann(g) = K.
    g, top, kid = build_ideal("g_dual", wb.n), 2 * wb.n - 4, wb.ideal_K
    if not g or not g.is_homogeneous() or g.total_degree() != top:
        return False, f"g_n is not a nonzero form of degree {top}"
    for k in kid.gens:
        if contract(k, g):
            return False, f"{kid.ring.fmt(k)} does not annihilate g_n"
    if wb.socle_K[0] != 1:
        return False, f"R/K_n has socle dimension {wb.socle_K[0]}"
    last = len(wb.quotient_K.basis.by_degree) - 1
    if last != top:
        return False, f"the Hilbert series of R/K_n ends in degree {last}"
    return True, None


def _claim_not_gorenstein_J(wb: Workbench):
    # J is a monomial ideal and the staircase its complement, so x_i sends a
    # standard monomial to a standard one or to 0: the socle of R/J is
    # spanned by the standard m with every x_i*m off the staircase
    n, q = wb.n, wb.quotient_J
    staircase = set(q.basis.monomials)
    socle_monos = [
        m
        for m in q.basis.monomials
        if all(_shift(m, i, 1) not in staircase for i in range(n))
    ]
    dim = len(socle_monos)
    if dim <= 1:
        return False, f"socle dimension {dim} is not > 1"
    ring = q.ring
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
    lid, kid = wb.ideal_L, wb.ideal_K_prev
    info_l = _reducer_info(wb.gb_L.elements, GREVLEX)
    info_k = _reducer_info(wb.gb_K_prev.elements, GREVLEX)
    if any(_normal_form((f * k).terms, info_l, GREVLEX) for k in kid.gens):
        return f"{lid.ring.fmt(f)} * K_{wb.n - 1} is not inside L"
    if any(_normal_form(g.terms, info_k, GREVLEX) for g in lid.gens):
        return f"L is not inside K_{wb.n - 1}"
    if len(lid.gens) != lid.ring.nvars:
        return f"L has {len(lid.gens)} generators in {lid.ring.nvars} variables"
    try:
        dim_l = len(standard_monomials(wb.gb_L))
    except NotArtinianError:
        return "R/L is not Artinian"
    target = buchberger(Ideal(lid.ring, lid.gens + (f,)), GREVLEX, wb.pair_cap)
    dim_k = len(standard_monomials(wb.gb_K_prev))
    if len(standard_monomials(target)) != dim_l - dim_k:
        return f"(L : K) differs from L + <{lid.ring.fmt(f)}>"
    return None


def _claim_appendix_colon(wb: Workbench):
    m = wb.n - 1
    last_sq = Polynomial.monomial(tuple(2 if j == m - 1 else 0 for j in range(m)))
    witness = _colon_certificate(wb, last_sq)
    if witness:
        return False, witness
    # degree-one minimality: the only linear form u with u*K inside L is 0.
    # u = sum a_i x_i lies in the colon iff every normal form of x_i * k
    # against GB(L), weighted by a_i, cancels; that is a linear system with
    # one row per (generator, monomial) and one column per variable.
    info = _reducer_info(wb.gb_L.elements, GREVLEX)
    rows: dict = {}  # (generator, monomial) -> {i: coefficient in NF(x_i*k)}
    for i in range(m):
        xi = tuple(1 if j == i else 0 for j in range(m))
        for gi, g in enumerate(wb.ideal_K_prev.gens):
            nf = _normal_form(g.mul_term(xi).terms, info, GREVLEX)
            for mono, c in nf.items():
                rows.setdefault((gi, mono), {})[i] = c
    kernel = linalg.kernel_basis(list(rows.values()), m)
    if kernel:
        return False, f"a degree-one form lies in the colon: {kernel[0]}"
    return True, None


def _claim_appendix_unprojection(wb: Workbench):
    # both ideals are generated by forms, so if the two generator sets span
    # the same forms in each degree, the ideals are equal
    q, kid = wb.ideal_Q, wb.ideal_K
    subst = substitute_ideal(q, "z", q.ring.var(f"x{wb.n}")).gens
    lifted = tuple(q.ring.lift(g, kid.ring) for g in kid.gens)
    if not all(g.is_homogeneous() for g in subst + lifted):
        return False, "Q at z -> xn or K has a generator that is not a form"
    for d in sorted({g.total_degree() for g in subst + lifted}):
        a = [g.terms for g in subst if g.total_degree() == d]
        b = [g.terms for g in lifted if g.total_degree() == d]
        if not linalg.rank(a) == linalg.rank(b) == linalg.rank(a + b):
            return False, f"Q at z -> xn and K differ in degree {d}"
    return True, None


def _claim_appendix_regularity(wb: Workbench):
    ring = wb.ideal_Q.ring
    f = ring.var("z") - ring.var(f"x{wb.n}")
    if not is_regular_element(wb.ideal_Q, f, wb.pair_cap):
        return False, "z - xn is a zero divisor on R[z]/Q"
    return True, None


def _claim_appendix_krull(wb: Workbench):
    gbs = (wb.gb_L, wb.gb_K_prev, wb.gb_Q)
    dims = tuple(krull_dim_monomial(gb) for gb in gbs)
    if dims != (0, 0, 1):
        return False, f"Krull dimensions of in(L), in(K), in(Q) are {dims}"
    return True, None


def _claim_challenge(wb: Workbench):
    series = challenge_series(wb)
    if series.at_t1() != xn_character(wb.n):
        return False, "t = 1 does not recover the point-set character"
    if series.identity_vector() != hilbert_series(wb.quotient_K.basis):
        return False, "identity class does not recover the Hilbert series"
    return True, None


@dataclass(frozen=True)
class Claim:
    min_n: int
    fn: object


CLAIMS: dict[str, Claim] = {
    "prop2_codim": Claim(2, _claim_prop2_codim),
    "thm1": Claim(2, _claim_thm1),
    "prop3_generators": Claim(3, _claim_prop3_generators),
    "prop3_basis": Claim(3, _claim_prop3_basis),
    "thm2": Claim(2, _claim_thm2),
    "thm3": Claim(2, _claim_thm3),
    "prop4_generators": Claim(3, _claim_prop4_generators),
    "thmG": Claim(2, _claim_thmG),
    "inverse_system": Claim(3, _claim_inverse_system),
    "not_gorenstein_J": Claim(3, _claim_not_gorenstein_J),
    "appendix_colon": Claim(3, _claim_appendix_colon),
    "appendix_unprojection": Claim(3, _claim_appendix_unprojection),
    "appendix_regularity": Claim(3, _claim_appendix_regularity),
    "appendix_krull": Claim(3, _claim_appendix_krull),
    "challenge": Claim(2, _claim_challenge),
}


def verify(
    claim: str, n: int, workbench: "Workbench | None" = None
) -> VerificationReport:
    """Run one registered claim at one n on ``workbench`` (default: a fresh
    ``Workbench(n)``); resource errors propagate."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    wb = Workbench(n) if workbench is None else workbench
    if wb.n != n:
        raise ValueError(f"workbench for n={wb.n} used to verify n={n}")
    entry = CLAIMS[claim]
    if n < entry.min_n:
        return VerificationReport(
            claim, n, "skipped", f"defined for n >= {entry.min_n}"
        )
    start = perf_counter()
    ok, witness = entry.fn(wb)
    millis = int((perf_counter() - start) * 1000)
    return VerificationReport(claim, n, "pass" if ok else "fail", witness, millis)
