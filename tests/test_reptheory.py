import copy
import json
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest

from artinforge.paperlab import build_ideal
from artinforge.polyarith import _norm_coeff, monomials_of_degree, xring
from artinforge.reptheory import (
    ClassFunction,
    act,
    class_size,
    conjugacy_classes,
    half_powerset_character,
    partitions,
    powerset_character,
    representative,
    subset_character,
    symmetric_generators,
    trivial_character,
    xn_character,
)
from test_quotient import _sample_perms


# ---------------------------------------------------------------------------
# permutations and conjugacy classes

# Permutations are image tuples, i -> image[i]; these oracles read them.
def cycles(image: tuple) -> list[list[int]]:
    seen = [False] * len(image)
    out = []
    for start in range(len(image)):
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = image[i]
        if cycle:
            out.append(cycle)
    return out


def cycle_type(image: tuple) -> tuple:
    return tuple(sorted((len(c) for c in cycles(image)), reverse=True))


def test_cycle_type_examples():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type((2, 3, 0, 1, 4)) == (2, 2, 1)
    # the canonical representative of each class has that class's cycle type
    for n in range(1, 8):
        for lam in partitions(n):
            assert cycle_type(representative(lam)) == lam


def test_conjugacy_classes_n3():
    classes = conjugacy_classes(3)
    assert [(lam, size) for lam, size, _ in classes] == [
        ((1, 1, 1), 1),
        ((2, 1), 3),
        ((3,), 2),
    ]
    assert [rep for _, _, rep in classes] == [(0, 1, 2), (1, 0, 2), (1, 2, 0)]
    for lam, _, rep in classes:
        assert cycle_type(rep) == lam


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(size for _, size, _ in conjugacy_classes(n)) == factorial(n)
    assert len(conjugacy_classes(4)) == 5
    assert len(conjugacy_classes(1)) == 1


def test_class_sizes_against_enumeration():
    for n in range(1, 6):
        counts = {lam: 0 for lam in partitions(n)}
        for image in permutations(range(n)):
            counts[cycle_type(image)] += 1
        for lam, size, _ in conjugacy_classes(n):
            assert counts[lam] == size


# ---------------------------------------------------------------------------
# the action on monomials

def test_act_moves_exponent_i_to_place_image_i():
    rng = random.Random(3)
    for nv in (1, 2, 5):
        for image in _sample_perms(nv, rng):
            move = act(image, nv)
            for m in monomials_of_degree(nv, 3):
                moved = [0] * nv
                for i, e in enumerate(m):
                    moved[image[i]] = e
                assert move(m) == tuple(moved)


def test_act_rejects_what_is_not_a_permutation_of_its_letters():
    with pytest.raises(ValueError, match=r"not a permutation of 3 letters: \(0, 0, 1\)"):
        act((0, 0, 1), 3)
    with pytest.raises(ValueError, match=r"not a permutation of 3 letters: \(1, 0\)"):
        act([1, 0], 3)
    with pytest.raises(ValueError, match=r"not a permutation of 2 letters: \(0, 1, 2\)"):
        act((0, 1, 2), 2)


# The generator-set test that the point check and thm3 ran before one span
# test (paperlab._unstable) decided S_n-invariance and thm3 read its
# S_{n-1}-stability off staircase_check; kept as their reference.
def permutes(image: tuple[int, ...], polys) -> bool:
    """Whether x_i -> x_image[i] permutes the set ``polys``."""
    move = act(image, len(image))
    before = {frozenset(g.terms.items()) for g in polys}
    after = {frozenset((move(m), c) for m, c in g.terms.items()) for g in polys}
    return after == before


def padded(image: tuple, n: int) -> tuple:
    """A permutation of the first letters as one of n letters fixing the rest."""
    return tuple(image) + tuple(range(len(image), n))


def test_symmetric_generators_generate_S_k_and_fix_the_rest():
    for n in range(1, 7):
        for k in range(n + 1):
            gens = {name: padded(g, n) for name, g in symmetric_generators(k).items()}
            assert len(gens) == (0 if k < 2 else 1 if k == 2 else 2)
            if k >= 2:
                assert cycles(gens["(1 2)"])[0] == [0, 1]
            if k >= 3:
                assert cycles(gens[f"(1 2 ... {k})"])[0] == list(range(k))
            for image in gens.values():
                assert len(image) == n and image[k:] == tuple(range(k, n))
    # the two generate S_k: their products reach all k! permutations
    for k in range(2, 6):
        group = {tuple(range(k))}
        frontier = list(group)
        while frontier:
            sigma = frontier.pop()
            for g in symmetric_generators(k).values():
                tau = tuple(g[i] for i in sigma)
                if tau not in group:
                    group.add(tau)
                    frontier.append(tau)
        assert len(group) == factorial(k)


def test_permutes_accepts_a_stable_set_and_refuses_an_unstable_one():
    for n in range(3, 7):
        gens = build_ideal("J_expected", n).gens
        small, full = symmetric_generators(n - 1), symmetric_generators(n)
        assert all(permutes(padded(image, n), gens) for image in small.values())
        assert permutes(full["(1 2)"], gens)
        assert not permutes(full[f"(1 2 ... {n})"], gens)
    r = xring(3)
    swap = padded(symmetric_generators(2)["(1 2)"], 3)
    assert permutes(swap, [r.poly("x1^2 - x3"), r.poly("x2^2 - x3")])
    assert not permutes(swap, [r.poly("x1^2"), r.poly("x2*x3")])
    assert not permutes(swap, [r.poly("x1 - 2*x2")])


# ---------------------------------------------------------------------------
# subset characters, with enumeration oracles

def count_fixed_subsets(sigma: tuple, k: int) -> int:
    return sum(
        1
        for subset in combinations(range(len(sigma)), k)
        if {sigma[i] for i in subset} == set(subset)
    )


def test_subset_character_n3_k1():
    cf = subset_character(3, 1)
    assert [cf(lam) for lam in partitions(3)] == [3, 1, 0]


def test_subset_character_matches_enumeration():
    for n in range(1, 6):
        for k in range(n + 1):
            cf = subset_character(n, k)
            for lam, _, rep in conjugacy_classes(n):
                assert cf(lam) == count_fixed_subsets(rep, k)


def test_subset_character_trivial_and_range():
    assert subset_character(4, 0) == trivial_character(4)
    with pytest.raises(ValueError):
        subset_character(3, 4)


def test_subset_characters_sum_to_powerset():
    for n in range(2, 7):
        total = subset_character(n, 0)
        for k in range(1, n + 1):
            total = total + subset_character(n, k)
        assert total == powerset_character(n)


def test_subset_complementation():
    for n in range(2, 7):
        for k in range(n + 1):
            assert subset_character(n, k) == subset_character(n, n - k)


def test_powerset_and_half_values_n3():
    assert [powerset_character(3)(lam) for lam in partitions(3)] == [8, 4, 2]
    assert [half_powerset_character(3)(lam) for lam in partitions(3)] == [4, 2, 1]
    # dimension at the identity class
    assert half_powerset_character(3)((1, 1, 1)) == 2 ** (3 - 1)


def test_half_powerset_matches_enumeration():
    for n in (3, 5):
        cf = half_powerset_character(n)
        for lam, _, rep in conjugacy_classes(n):
            cyc = cycles(rep)
            count = sum(
                1
                for pick in product((0, 1), repeat=len(cyc))
                if sum(len(c) for c, p in zip(cyc, pick) if p) % 2 == 0
            )
            assert cf(lam) == count


def test_half_powerset_rejects_even_n():
    with pytest.raises(ValueError):
        half_powerset_character(4)


# The earlier construction, kept verbatim as the enumeration oracle for the
# closed form: per cycle type, count the picks of cycles whose lengths add
# up to an even size.
def reference_half_powerset_character(n: int) -> ClassFunction:
    if n % 2 == 0:
        raise ValueError("half powerset character requires odd n")

    def value(lam) -> int:
        total = 0
        for pick in product((0, 1), repeat=len(lam)):
            if sum(l for l, p in zip(lam, pick) if p) % 2 == 0:
                total += 1
        return total

    return ClassFunction.from_function(n, value)


def test_half_powerset_matches_the_enumeration_and_the_even_subsets():
    for n in range(1, 12, 2):
        cf = half_powerset_character(n)
        assert cf == reference_half_powerset_character(n)
        evens = (subset_character(n, k) for k in range(2, n + 1, 2))
        assert cf == sum(evens, subset_character(n, 0))


def test_class_function_values_are_read_only():
    cf = subset_character(3, 1)
    with pytest.raises(TypeError):
        cf.values[(3,)] = 5
    with pytest.raises(TypeError):
        del cf.values[(3,)]
    assert cf((3,)) == 0
    # copy and pickle rebuild the value from a plain dict
    for twin in (copy.copy(cf), copy.deepcopy(cf), pickle.loads(pickle.dumps(cf))):
        assert twin == cf
        with pytest.raises(TypeError):
            twin.values[(3,)] = 5


# ---------------------------------------------------------------------------
# the point-set character

def count_fixed_points(sigma: tuple, n: int) -> int:
    """Enumeration oracle on the (k, eps) point model."""
    total = 1  # the origin
    for k in range(n - 2):
        parity = 1 if k % 2 == 0 else -1
        for eps in product((1, -1), repeat=n):
            prod = 1
            for e in eps:
                prod *= e
            if prod != parity:
                continue
            if all(eps[sigma[i]] == eps[i] for i in range(n)):
                total += 1
    return total


def test_xn_character_n3_values():
    assert [xn_character(3)(lam) for lam in partitions(3)] == [5, 3, 2]


def test_xn_character_spot_values():
    assert xn_character(4)((2, 2)) == 5
    for n in range(2, 8):
        assert xn_character(n)((1,) * n) == 1 + (n - 2) * 2 ** (n - 1)


def test_xn_character_closed_form_and_enumeration():
    for n in range(2, 8):
        cf = xn_character(n)
        for lam, _, rep in conjugacy_classes(n):
            assert cf(lam) == 1 + (n - 2) * 2 ** (len(lam) - 1)
            if n <= 6:
                assert cf(lam) == count_fixed_points(rep, n)


def test_point_character_identities():
    # odd n: chi = [1] + (n-2) * half powerset; all n: 2 chi = 2[1] + (n-2) P
    for n in range(2, 8):
        chi = xn_character(n)
        assert 2 * chi == 2 * trivial_character(n) + (n - 2) * powerset_character(n)
        if n % 2 == 1:
            assert chi == trivial_character(n) + (n - 2) * half_powerset_character(n)
    assert xn_character(3) == trivial_character(3) + half_powerset_character(3)


# ---------------------------------------------------------------------------
# class function arithmetic and serialisation

# Moved here from ``ClassFunction``, where nothing called them.
def inner_product(f: ClassFunction, g: ClassFunction):
    """(1/n!) * sum over classes of size * f * g."""
    assert f.n == g.n
    total = sum(class_size(lam) * f(lam) * g(lam) for lam in partitions(f.n))
    return _norm_coeff(Fraction(total, factorial(f.n)))


def class_function_from_dict(data: dict) -> ClassFunction:
    """The inverse of ``ClassFunction.to_dict``."""
    return ClassFunction(
        data["n"],
        {
            tuple(entry["cycle_type"]): _norm_coeff(Fraction(entry["value"]))
            for entry in data["values"]
        },
    )

def test_inner_product_orthonormality():
    assert inner_product(trivial_character(4), trivial_character(4)) == 1


def orbit_count_on_subsets(n: int) -> int:
    points = [frozenset(s) for k in range(n + 1) for s in combinations(range(n), k)]
    seen = set()
    orbits = 0
    group = list(permutations(range(n)))
    for pt in points:
        if pt in seen:
            continue
        orbits += 1
        for g in group:
            seen.add(frozenset(g[i] for i in pt))
    return orbits


def test_inner_product_with_trivial_counts_orbits():
    # Burnside: <powerset character, trivial> equals the orbit count (4 when
    # n = 3: one orbit per subset size)
    for n in range(2, 6):
        got = inner_product(powerset_character(n), trivial_character(n))
        assert got == orbit_count_on_subsets(n)
    assert inner_product(powerset_character(3), trivial_character(3)) == 4


def test_self_inner_product_positive_integer():
    for n in (3, 4, 5):
        for cf in (powerset_character(n), subset_character(n, 1), xn_character(n)):
            ip = inner_product(cf, cf)
            assert isinstance(ip, int) and ip > 0


def test_classfunction_validation_and_arithmetic():
    with pytest.raises(ValueError):
        ClassFunction(3, {(3,): 1})
    with pytest.raises(ValueError):
        trivial_character(3) + trivial_character(4)
    cf = subset_character(3, 1)
    assert (cf - cf) == 0 * cf
    half = Fraction(1, 2) * powerset_character(4)
    assert half((1, 1, 1, 1)) == 8


def test_classfunction_json_roundtrip():
    cf = Fraction(1, 3) * subset_character(4, 2)
    data = json.loads(json.dumps(cf.to_dict()))
    assert class_function_from_dict(data) == cf
