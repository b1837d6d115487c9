"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are dense exponent tuples over a fixed, ordered ambient variable
list; coefficients are Python ints or :class:`fractions.Fraction` values and
every operation is exact.  Term orders are realised as tuple-valued sort
keys, so ``max``, ``sorted`` and heaps consume them directly.  Divisibility
is tested one way throughout the package: on monomials packed into one int,
a guard bit per exponent field (Bachmann and Schoenemann, ISSAC 1998).

The precedence convention is fixed throughout the package: earlier variables
are larger, i.e. ``x1 > x2 > ... > xn`` (``> z`` when it is present).
Under GRevLex this makes the last variable the cheapest one, which is what
the staircases computed here rely on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations_with_replacement
from operator import le, sub
from typing import Iterable, Sequence

from .errors import AmbientMismatchError

Monomial = tuple[int, ...]


# ---------------------------------------------------------------------------
# coefficients

def _norm_coeff(c):
    """Normalise a rational coefficient, preferring plain ints."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def coeff_div(a, b):
    """Exact division of rational coefficients (never floats)."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return _norm_coeff(Fraction(a) / Fraction(b))


# ---------------------------------------------------------------------------
# monomials

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when ``a`` divides ``b`` exponentwise."""
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a/b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _pack(m: Monomial, bits: int) -> int:
    """``m`` as one int: exponent i fills the field of ``bits + 1`` bits at
    i*(bits + 1), whose top bit is a guard kept clear.  An exponent above
    2**bits - 1 saturates at that value, which leaves divisibility by a
    monomial whose exponents fit unchanged."""
    top, packed = (1 << bits) - 1, 0
    for e in reversed(m):
        packed = packed << (bits + 1) | (e if e < top else top)
    return packed


def _guards(nvars: int, bits: int) -> int:
    """The guard bit of every field of a ``_pack(m, bits)`` over ``nvars``."""
    return sum(1 << (i * (bits + 1) + bits) for i in range(nvars))


def _packed_divides(a: int, b: int, guards: int) -> bool:
    """True when the packed ``a`` divides the packed ``b``: no field borrows
    across its guard bit, which stays set exactly where b_i >= a_i."""
    return ((b | guards) - a) & guards == guards


def _packed_lcm(a: int, b: int, guards: int, bits: int) -> int:
    """The packed lcm: the guard bits where a_i >= b_i, spread over their
    fields, select a_i there and b_i elsewhere.  ``a`` and ``b`` are coprime
    exactly when the lcm equals ``a + b``."""
    ge = ((a | guards) - b) & guards
    return b ^ ((a ^ b) & (ge - (ge >> bits)))


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, ascending in GRevLex."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    out.sort(key=GREVLEX.key)
    return out


# ---------------------------------------------------------------------------
# immutable values; term orders

class Value:
    """The base of the immutable value classes (``TermOrder``, ``PolyRing``,
    ``Ideal``, ``GroebnerBasis``, ``ClassFunction``, ``SymbolicPoint``,
    ``VerificationReport``).

    A subclass lists its fields as ``__slots__`` and its ``__init__`` sets
    them once, in that order, through ``_set``; after that no field can be
    set or deleted.  Two values of one class are equal when their fields
    are, hashable ones hash by their fields, copy and pickle rebuild a value
    by passing its fields to ``__init__``, and the repr names each field.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot change {name!r}"
        )

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({body})"


def _grevlex_key(m: Monomial):
    return (sum(m), *[-e for e in reversed(m)])


def _lex_key(m: Monomial):
    return m


def _deglex_key(m: Monomial):
    return (sum(m), *m)


# kind -> (key, neg_key) of a TermOrder
_ORDER_KEYS = {
    "grevlex": (_grevlex_key, lambda m: (-sum(m), *reversed(m))),
    "lex": (_lex_key, lambda m: (*[-e for e in m],)),
    "deglex": (_deglex_key, lambda m: (-sum(m), *[-e for e in m])),
}


class TermOrder(Value):
    """A multiplicative total well-order on monomials.

    ``kind`` is one of ``grevlex``, ``lex`` or ``deglex``; ``key`` maps a
    monomial to its tuple-valued sort key and ``neg_key`` to that key with
    every entry negated, so a min-heap pops the largest monomial first.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in _ORDER_KEYS:
            raise ValueError(f"unknown term order kind {kind!r}")
        self._set(kind)

    @property
    def key(self):
        return _ORDER_KEYS[self.kind][0]

    @property
    def neg_key(self):
        return _ORDER_KEYS[self.kind][1]

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")
DEGLEX = TermOrder("deglex")


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """An exact polynomial: a map from exponent tuples to rational coefficients.

    Instances are immutable values; all arithmetic returns new objects.  The
    stored term map is unordered, canonical descending order is produced on
    demand by :meth:`sorted_terms` / :meth:`PolyRing.fmt`.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, object]):
        clean: dict[Monomial, object] = {}
        for m, c in terms.items():
            c = _norm_coeff(c)
            if c:
                clean[m] = c
        self.nvars = nvars
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, mono: Monomial, coeff=1) -> "Polynomial":
        return cls(len(mono), {mono: coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- basic protocol ----------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable-looking value type; never used as a dict key

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise AmbientMismatchError(
                f"polynomials over {self.nvars} and {other.nvars} variables"
            )

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return other

    # -- arithmetic --------------------------------------------------------
    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        res = Polynomial.__new__(Polynomial)
        res.nvars, res.terms = self.nvars, out
        return res

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial(
                self.nvars, {m: c * other for m, c in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, object] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        res = Polynomial.__new__(Polynomial)
        res.nvars, res.terms = self.nvars, out
        return res

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def mul_term(self, mono: Monomial, coeff=1) -> "Polynomial":
        """Multiply by a single term (fast path used by the division loop)."""
        if not coeff:
            return Polynomial.zero(self.nvars)
        return Polynomial(
            self.nvars, {mono_mul(m, mono): c * coeff for m, c in self.terms.items()}
        )

    # -- inspection --------------------------------------------------------
    def coefficient(self, mono: Monomial):
        return self.terms.get(mono, 0)

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def top_degree_part(self) -> "Polynomial":
        """The homogeneous component of highest total degree."""
        d = self.total_degree()
        return Polynomial(
            self.nvars, {m: c for m, c in self.terms.items() if sum(m) == d}
        )

    def sorted_terms(self, order: TermOrder = GREVLEX) -> list:
        key = order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading_term(self, order: TermOrder = GREVLEX) -> tuple[Monomial, object]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def leading_monomial(self, order: TermOrder = GREVLEX) -> Monomial:
        return self.leading_term(order)[0]

    def monic(self, order: TermOrder = GREVLEX) -> "Polynomial":
        _, c = self.leading_term(order)
        if c == 1:
            return self
        return Polynomial(
            self.nvars, {m: coeff_div(a, c) for m, a in self.terms.items()}
        )

    def __repr__(self):
        return f"Polynomial({self.nvars}, {xring(self.nvars).fmt(self)})"


# ---------------------------------------------------------------------------
# division algorithm

def _reducer_info(reducers: Sequence[Polynomial], order: TermOrder):
    """The entries (leading monomial, leading coeff, tail items, packed
    leading monomial) per reducer, with the ``bits`` of the packing (the bit
    length of the largest leading exponent) and its ``guards``."""
    heads = []
    for g in reducers:
        if not g:
            raise ValueError("reducers must be nonzero")
        lm, lc = g.leading_term(order)
        heads.append((lm, lc, [(m, c) for m, c in g.terms.items() if m != lm]))
    bits = max((e for lm, _, _ in heads for e in lm), default=0).bit_length()
    guards = _guards(len(heads[0][0]) if heads else 0, bits)
    return [(lm, lc, tail, _pack(lm, bits)) for lm, lc, tail in heads], bits, guards


def _normal_form(terms: dict, info, order: TermOrder) -> dict:
    """Core division loop on raw term dicts; returns the normal form dict.

    ``info`` is what :func:`_reducer_info` returns.  Monomials are processed
    in strictly descending order via a heap of negated order keys, which is
    equivalent to always rewriting the current leading term.  Each popped
    monomial is packed once (saturating, so the test stays exact) and the
    first reducer whose packed leading monomial divides it is used.
    """
    entries, bits, guards = info
    neg_key = order.neg_key
    work = dict(terms)
    heap = [(neg_key(m), m) for m in work]
    heap.sort()
    nf: dict = {}
    while heap:
        _, m = heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        pg = _pack(m, bits) | guards  # _packed_divides, hoisted per monomial
        for lm, lc, tail, plm in entries:
            if (pg - plm) & guards == guards:
                q = mono_div(m, lm)
                s = coeff_div(c, lc)
                for tm, tc in tail:
                    t = mono_mul(q, tm)
                    old = work.get(t, 0)
                    new = old - s * tc
                    if new:
                        if not old:
                            heappush(heap, (neg_key(t), t))
                        work[t] = new
                    else:
                        work.pop(t, None)
                break
        else:
            nf[m] = c
    return nf


def reduce(
    p: Polynomial, reducers: Sequence[Polynomial], order: TermOrder = GREVLEX
) -> Polynomial:
    """The remainder of ``p`` under multivariate division by ``reducers``.

    No term of the remainder is divisible by a leading monomial of the
    reducers, and ``p`` minus the remainder lies in the ideal they generate.
    Reducers are tried leftmost first, so the result is deterministic for a
    fixed list order.
    """
    for g in reducers:
        if g.nvars != p.nvars:
            raise AmbientMismatchError("reducer over a different ambient ring")
    info = _reducer_info(reducers, order)
    return Polynomial(p.nvars, _normal_form(p.terms, info, order))


def _s_terms(lcm: Monomial, f_info, g_info) -> dict:
    """The terms of the S-polynomial of two reducers given by their
    ``_reducer_info`` entries: (lcm/lm_f)*tail_f/lc_f - (lcm/lm_g)*tail_g/lc_g,
    built in one dict.  The leading terms would cancel, so they never enter."""
    out: dict = {}
    for (lm, lc, tail, _), sign in ((f_info, 1), (g_info, -1)):
        q, s = mono_div(lcm, lm), coeff_div(sign, lc)
        for m, c in tail:
            t = mono_mul(q, m)
            v = out.get(t, 0) + s * c
            if v:
                out[t] = v
            else:
                del out[t]
    return out


# ---------------------------------------------------------------------------
# ambient rings, parsing and printing

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_TERM_RE = re.compile(r"[+-]?[^+-]+")
_RATIONAL_RE = re.compile(r"\d+(?:/\d+)?\Z")
_FACTOR_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:\^(\d+))?\Z")


class PolyRing(Value):
    """An ordered tuple of variable names; earlier names take precedence.
    :meth:`poly` parses and :meth:`fmt` prints the package text format."""

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for nm in names:
            if not _NAME_RE.match(nm):
                raise ValueError(f"bad variable name {nm!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self._set(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def index(self) -> dict[str, int]:
        return {nm: i for i, nm in enumerate(self.names)}

    def var(self, name: str) -> Polynomial:
        if name not in self.names:
            raise ValueError(f"no variable {name!r} in {self!r}")
        return Polynomial.variable(self.nvars, self.names.index(name))

    def lift(self, p: Polynomial, source: "PolyRing") -> Polynomial:
        """Re-express ``p`` (over ``source``) in this ring, matching by name.

        Source variables that actually occur in ``p`` must exist here.
        """
        if p.nvars != source.nvars:
            raise AmbientMismatchError("polynomial does not match source ring")
        index = self.index
        pos = [index.get(nm, -1) for nm in source.names]
        out = {}
        for m, c in p.terms.items():
            exp = [0] * self.nvars
            for i, e in enumerate(m):
                if not e:
                    continue
                j = pos[i]
                if j < 0:
                    raise AmbientMismatchError(
                        f"variable {source.names[i]!r} is absent from target ring"
                    )
                exp[j] = e
            out[tuple(exp)] = c
        return Polynomial(self.nvars, out)

    def poly(self, text: str) -> Polynomial:
        """Parse the text format: terms joined by + or -, factors joined by *.

        A term is an optional integer-or-rational coefficient followed by
        ``name^exp`` factors; whitespace is insignificant.
        """
        s = "".join(text.split())
        if not s:
            raise ValueError("empty polynomial text")
        chunks = _TERM_RE.findall(s)
        if "".join(chunks) != s:
            raise ValueError(f"cannot tokenise {text!r}")
        index = self.index
        terms: dict[Monomial, object] = {}
        for chunk in chunks:
            sign = 1
            if chunk[0] in "+-":
                sign = -1 if chunk[0] == "-" else 1
                chunk = chunk[1:]
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
            coeff = sign
            exp = [0] * self.nvars
            for factor in chunk.split("*"):
                if _RATIONAL_RE.match(factor):
                    try:
                        coeff *= Fraction(factor)
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in {text!r}") from None
                    continue
                m = _FACTOR_RE.match(factor)
                if not m or m.group(1) not in index:
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                exp[index[m.group(1)]] += int(m.group(2) or 1)
            mono = tuple(exp)
            c = terms.get(mono, 0) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return Polynomial(self.nvars, terms)

    def fmt(self, p: Polynomial, order: TermOrder = GREVLEX) -> str:
        """Render a polynomial in the text format, e.g. ``x2*x3 - x1``."""
        if p.nvars != self.nvars:
            raise AmbientMismatchError("polynomial does not live in this ring")
        if not p:
            return "0"
        names = self.names
        parts = []
        for m, c in p.sorted_terms(order):
            factors = [
                f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e
            ]
            neg = c < 0
            a = -c if neg else c
            if not factors:
                body = str(a)
            elif a == 1:
                body = "*".join(factors)
            else:
                body = str(a) + "*" + "*".join(factors)
            parts.append((neg, body))
        first_neg, first = parts[0]
        out = ("-" if first_neg else "") + first
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)})"


def xring(n: int, *extra: str) -> PolyRing:
    """The ring F[x1..xn], optionally extended by further variables."""
    return PolyRing(tuple(f"x{i}" for i in range(1, n + 1)) + extra)


# ---------------------------------------------------------------------------
# ideals

class Ideal(Value):
    """A finitely generated ideal, tagged with its ambient ring.

    Zero generators are dropped at construction.
    """

    __slots__ = ("ring", "gens")
    __hash__ = None  # the generators are polynomials

    def __init__(self, ring: PolyRing, gens: tuple[Polynomial, ...]):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.nvars != ring.nvars:
                raise AmbientMismatchError("generator outside the ambient ring")
        self._set(ring, gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def __repr__(self):
        body = ", ".join(self.ring.fmt(g) for g in self.gens) or "0"
        return f"Ideal({body})"
