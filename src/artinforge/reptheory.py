"""Symmetric-group machinery: partitions, conjugacy classes, the action of
S_n on exponent tuples, class functions and the permutation characters used
by the verification claims.

Characters are compared as class functions (rational-valued functions on
cycle types), which in characteristic zero is the same as equality of
virtual representations; no decomposition into irreducibles happens here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import itemgetter
from types import MappingProxyType

from .polyarith import Value, _norm_coeff

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n as weakly decreasing tuples, sorted ascending."""
    if n < 0:
        raise ValueError("partitions of a negative integer")
    out: list[Partition] = []

    def rec(remaining: int, biggest: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(remaining, biggest), 0, -1):
            rec(remaining - part, part, acc + (part,))

    rec(n, n, ())
    return tuple(sorted(out))


def class_size(lam: Partition) -> int:
    """n!/z_lambda with z = prod(l^m_l * m_l!) over cycle lengths l."""
    n = sum(lam)
    z = 1
    for length in set(lam):
        m = lam.count(length)
        z *= length**m * factorial(m)
    return factorial(n) // z


def representative(lam: Partition) -> tuple[int, ...]:
    """Canonical representative as its image tuple (i -> image[i]): cycles
    laid out on consecutive blocks."""
    n = sum(lam)
    image = list(range(n))
    pos = 0
    for length in lam:
        for i in range(length):
            image[pos + i] = pos + (i + 1) % length
        pos += length
    return tuple(image)


def conjugacy_classes(n: int) -> list[tuple[Partition, int, tuple[int, ...]]]:
    """(cycle type, class size, canonical representative) for each class."""
    if n < 1:
        raise ValueError("conjugacy classes need n >= 1")
    return [(lam, class_size(lam), representative(lam)) for lam in partitions(n)]


# ---------------------------------------------------------------------------
# the action on monomials

def act(image, nvars: int):
    """The map on monomials induced by x_i -> x_image[i], for ``image`` a
    permutation of ``nvars`` letters given as its image tuple: exponent i
    moves to place image[i], so place j reads exponent inverse[j], one
    ``itemgetter`` built once per permutation."""
    image = tuple(image)
    if sorted(image) != list(range(nvars)):
        raise ValueError(f"not a permutation of {nvars} letters: {image}")
    inverse = [0] * nvars
    for i, j in enumerate(image):
        inverse[j] = i
    return itemgetter(*inverse) if nvars > 1 else tuple


def symmetric_generators(k: int, n: int) -> dict:
    """(1 2) and (1 2 ... k), which generate S_k, as image tuples on n >= k
    letters fixing the last n - k, keyed by their cycle notation; none for
    k < 2 and one for k = 2."""
    gens = {}
    if k >= 2:
        gens["(1 2)"] = (1, 0) + tuple(range(2, n))
    if k >= 3:
        gens[f"(1 2 ... {k})"] = tuple(range(1, k)) + (0,) + tuple(range(k, n))
    return gens


def permutes(image: tuple[int, ...], polys) -> bool:
    """Whether x_i -> x_image[i] permutes the set ``polys``."""
    move = act(image, len(image))
    before = {frozenset(g.terms.items()) for g in polys}
    after = {frozenset((move(m), c) for m, c in g.terms.items()) for g in polys}
    return after == before


# ---------------------------------------------------------------------------
# class functions

class ClassFunction(Value):
    """A rational-valued function on the partitions of n, read-only."""

    __slots__ = ("n", "values")
    __hash__ = None  # the values are a mapping

    def __init__(self, n: int, values):
        expected = partitions(n)
        vals = dict(values)
        if set(vals) != set(expected):
            raise ValueError("class function must be defined on all cycle types")
        self._set(n, MappingProxyType({p: _norm_coeff(vals[p]) for p in expected}))

    def __reduce__(self):  # a mappingproxy neither pickles nor copies
        return ClassFunction, (self.n, dict(self.values))

    @classmethod
    def from_function(cls, n: int, fn) -> "ClassFunction":
        return cls(n, {lam: fn(lam) for lam in partitions(n)})

    def __call__(self, lam: Partition):
        return self.values[lam]

    def _check(self, other: "ClassFunction"):
        if self.n != other.n:
            raise ValueError("class functions on different symmetric groups")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(
            self.n, {lam: v + other.values[lam] for lam, v in self.values.items()}
        )

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(
            self.n, {lam: v - other.values[lam] for lam, v in self.values.items()}
        )

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return ClassFunction(
            self.n, {lam: v * scalar for lam, v in self.values.items()}
        )

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "values": [
                {"cycle_type": list(lam), "value": str(self.values[lam])}
                for lam in partitions(self.n)
            ],
        }

    def __repr__(self):
        body = ", ".join(f"{lam}: {v}" for lam, v in self.values.items())
        return f"ClassFunction(S{self.n}; {body})"


# ---------------------------------------------------------------------------
# permutation characters

def trivial_character(n: int) -> ClassFunction:
    return ClassFunction.from_function(n, lambda lam: 1)


def subset_character(n: int, k: int) -> ClassFunction:
    """Character of S_n acting on k-element subsets: the value on a cycle
    type counts the unions of cycles of total size k."""
    if not 0 <= k <= n:
        raise ValueError(f"subset size {k} out of range 0..{n}")

    def value(lam: Partition) -> int:
        # coefficient of x^k in prod(1 + x^l) over the cycle lengths
        coeffs = [0] * (k + 1)
        coeffs[0] = 1
        for length in lam:
            if length <= k:
                for j in range(k, length - 1, -1):
                    coeffs[j] += coeffs[j - length]
        return coeffs[k]

    return ClassFunction.from_function(n, value)


def powerset_character(n: int) -> ClassFunction:
    """Character of S_n on all subsets: 2 ** (number of cycles)."""
    return ClassFunction.from_function(n, lambda lam: 2 ** len(lam))


def half_powerset_character(n: int) -> ClassFunction:
    """Character of S_n on the even-size subsets, defined for odd n only.

    Every permutation of an odd-size set has an odd cycle; toggling it swaps
    even- and odd-size invariant subsets, so the count is 2**(cycles - 1).
    """
    if n % 2 == 0:
        raise ValueError("half powerset character requires odd n")
    return ClassFunction.from_function(n, lambda lam: 2 ** (len(lam) - 1))


def xn_character(n: int) -> ClassFunction:
    """Permutation character of S_n on the point configuration X_n.

    A point away from the origin is a root index k in 0..n-3 plus a sign
    vector with sign product (-1)^k; a permutation fixes it exactly when the
    signs are constant on its cycles.  Signs constant on cycles are sign
    choices per cycle, and only odd cycles affect the product, so the count
    is combinatorial; the origin contributes 1.
    """
    if n < 2:
        raise ValueError("the point configuration is defined for n >= 2")

    def value(lam: Partition) -> int:
        c = len(lam)
        odd = sum(1 for length in lam if length % 2)
        total = 1
        for k in range(n - 2):
            target = 1 if k % 2 == 0 else -1
            if odd:
                total += 2 ** (c - 1)
            elif target == 1:
                total += 2**c
        return total

    return ClassFunction.from_function(n, value)
