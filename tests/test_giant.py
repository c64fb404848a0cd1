"""Giant groups: Alt(n) and Sym(n) certified by Jordan's theorem.

``GenGroup.order`` and ``contains`` answer a group that the giant test
certifies with no stabilizer chain, and every other group from the chain.
Both paths are cross-checked against sympy's Schreier-Sims where sympy is
installed.
"""

import json
import math
import random
import time

import pytest

from wreathact import EnumerationOverflow, GenGroup, Permutation, random_permutation, symmetric_gens
from wreathact import perm as perm_module
from wreathact.perm import (
    _block_of_0_and_1_is_everything,
    _jordan_primes,
    _walk_finds_jordan_element,
)
from helpers import (
    CHAIN_LEVELS,
    _sym_wr_sym_on_points,
    _three_cycles,
    chain_state,
    invertible_coordinate_perms,
    pinned_chain_cases,
)

QUERIES = 20  # members, and as many non-members, per group


def sympy_group(gens):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup([combinatorics.Permutation(list(g.images)) for g in gens])


def sympy_contains(reference, p: Permutation) -> bool:
    from sympy.combinatorics import Permutation as SympyPerm

    return reference.contains(SympyPerm(list(p.images)))


def word(rng: random.Random, gens, length: int = 20) -> Permutation:
    w = Permutation.identity(gens[0].degree)
    for _ in range(length):
        w = w * rng.choice(gens)
    return w


def relabelled(rng: random.Random, gens) -> list[Permutation]:
    r = random_permutation(rng, gens[0].degree)
    return [g.conjugate(r) for g in gens]


def is_odd(p: Permutation) -> bool:
    """Parity by counting inversions, apart from the library's cycle count."""
    images = p.images
    return sum(a > b for i, a in enumerate(images) for b in images[i + 1:]) % 2 == 1


# ----- generator sets of the giants -----


def adjacent_transpositions(n: int) -> list[Permutation]:
    gens = []
    for i in range(n - 1):
        images = list(range(n))
        images[i], images[i + 1] = i + 1, i
        gens.append(Permutation(images))
    return gens


def with_random_element(rng: random.Random, gens, even: bool) -> list[Permutation]:
    """``gens`` and a seeded random permutation, made even when asked, in
    shuffled order: the same group, from a different start."""
    n = gens[0].degree
    x = random_permutation(rng, n)
    if even and is_odd(x):
        x = x * Permutation([1, 0] + list(range(2, n)))
    out = [*gens, x]
    rng.shuffle(out)
    return out


def alternating_pair(n: int) -> list[Permutation]:
    """(0 1 2) with the n-cycle for odd n, or with (1 2 ... n-1) for even n."""
    three = Permutation([1, 2, 0] + list(range(3, n)))
    if n % 2:
        return [three, Permutation(list(range(1, n)) + [0])]
    return [three, Permutation([0] + list(range(2, n)) + [1])]


def giant_cases(degrees=range(8, 41)):
    """(degree, generators, index in Sym(n)) for Sym(n) and Alt(n) from
    three generator sets each, relabelled by permutations seeded by n."""
    cases = []
    for n in degrees:
        rng = random.Random(n)
        sym_sets = [list(symmetric_gens(n)), adjacent_transpositions(n)]
        sym_sets.append(with_random_element(rng, sym_sets[0], False))
        alt_sets = [alternating_pair(n), _three_cycles(n)]
        alt_sets.append(with_random_element(rng, alt_sets[0], True))
        for kind, sets, index in (("sym", sym_sets, 1), ("alt", alt_sets, 2)):
            for k, gens in enumerate(sets):
                cases.append(pytest.param(n, relabelled(rng, gens), index, id=f"{kind}{n}-set{k}"))
    return cases


def queries(n: int, gens, index: int) -> tuple[list[Permutation], list[Permutation]]:
    """Seeded words in the generators, and as many random permutations:
    odd ones, so non-members, for Alt(n); any for Sym(n)."""
    rng = random.Random(n)
    members = [word(rng, gens) for _ in range(QUERIES)]
    others = []
    while len(others) < QUERIES:
        x = random_permutation(rng, n)
        if index == 1 or is_odd(x):
            others.append(x)
    return members, others


@pytest.mark.parametrize("n, gens, index", giant_cases())
def test_giants_take_the_giant_path(n, gens, index):
    g = GenGroup(n, gens)
    assert g.order() == math.factorial(n) // index
    members, others = queries(n, gens, index)
    assert all(map(g.contains, members))
    assert [g.contains(x) for x in others] == [index == 1] * QUERIES
    assert g._giant == index and g._chain is None


# sympy's Schreier-Sims takes 0.5-1.8 s per group from degree 32 on, so
# the cross-check takes every degree to 24 and two beyond, with one
# generator set per degree in turn
SYMPY_GIANTS = [c for c in giant_cases([*range(8, 25), 32, 39]) if c.id.endswith(f"set{c.values[0] % 3}")]


@pytest.mark.parametrize("n, gens, index", SYMPY_GIANTS)
def test_giants_agree_with_sympy(n, gens, index):
    reference = sympy_group(gens)
    g = GenGroup(n, gens)
    assert g.order() == reference.order()
    members, others = queries(n, gens, index)
    for x in members + others:
        assert g.contains(x) == sympy_contains(reference, x)
    assert g._chain is None


# ----- groups the giant test must not certify -----


def mobius_gens(points: int, add, mul, inverse, scalars) -> list[Permutation]:
    """x -> (a x + b) / (c x + d) for each (a, b, c, d) in ``scalars`` on the
    projective line: the field's elements 0..points-2 and infinity as the
    last point."""
    inf = points - 1

    def image(x, a, b, c, d):
        if x == inf:
            return inf if c == 0 else mul(a, inverse(c))
        numerator, denominator = add(mul(a, x), b), add(mul(c, x), d)
        return inf if denominator == 0 else mul(numerator, inverse(denominator))

    return [Permutation([image(x, *s) for x in range(points)]) for s in scalars]


def prime_field(q: int):
    return (lambda x, y: (x + y) % q, lambda x, y: x * y % q, lambda x: pow(x, q - 2, q))


def gf8_mul(a: int, b: int) -> int:
    """Product in GF(8) = GF(2)[x] / (x^3 + x + 1), elements as bit vectors."""
    r = 0
    for i in range(3):
        if b >> i & 1:
            r ^= a << i
    for i in (4, 3):
        if r >> i & 1:
            r ^= 0b1011 << (i - 3)
    return r


def gf8_inverse(a: int) -> int:
    return next(b for b in range(1, 8) if gf8_mul(a, b) == 1)


def pgl2(q: int, root: int) -> list[Permutation]:
    """PGL(2, q) on q + 1 points: x + 1, root * x and 1 / x."""
    return mobius_gens(q + 1, *prime_field(q), [(1, 1, 0, 1), (root, 0, 0, 1), (0, 1, 1, 0)])


def agl1(q: int, root: int) -> list[Permutation]:
    """AGL(1, q) on q points: x + 1 and root * x."""
    add, mul, _ = prime_field(q)
    return [Permutation([add(x, 1) for x in range(q)]), Permutation([mul(root, x) for x in range(q)])]


def psl2_8() -> list[Permutation]:
    """PSL(2, 8) = PGL(2, 8) on the 9 points of the projective line over GF(8)."""
    return mobius_gens(9, int.__xor__, gf8_mul, gf8_inverse, [(1, 1, 0, 1), (2, 0, 0, 1), (0, 1, 1, 0)])


def sym_fixing_last_point(n: int) -> list[Permutation]:
    return [Permutation(list(g.images) + [n - 1]) for g in symmetric_gens(n - 1)]


# id -> (generators, order, a prime cycle length the group has, or None)
NON_GIANTS = {
    "agl-1-11": (agl1(11, 2), 110, 11),  # p = n
    "agl-1-13": (agl1(13, 2), 156, 13),
    "pgl-2-7": (pgl2(7, 3), 336, 7),  # p = n - 1
    "pgl-2-11": (pgl2(11, 2), 1320, 11),
    "pgl-2-13": (pgl2(13, 2), 2184, 13),
    "psl-2-8": (psl2_8(), 504, 7),  # p = n - 2
    "sym3-wr-sym4": (_sym_wr_sym_on_points(3, 4), 6**4 * 24, None),
    "sym11-fixing-a-point": (sym_fixing_last_point(12), math.factorial(11), None),
    "alt7": (alternating_pair(7), math.factorial(7) // 2, None),  # no prime fits
    "gl-3-2": (invertible_coordinate_perms(), 168, None),
}


@pytest.mark.parametrize("name", NON_GIANTS)
def test_non_giants_fall_back_to_the_chain_and_agree_with_sympy(name):
    gens, order, _ = NON_GIANTS[name]
    n = gens[0].degree
    reference = sympy_group(gens)
    g = GenGroup(n, gens)
    assert g.order() == order == reference.order()
    assert g._giant == 0 and g._chain is not None
    rng = random.Random(n)
    members = [word(rng, gens) for _ in range(QUERIES)]
    outsiders = []
    while len(outsiders) < QUERIES:
        x = random_permutation(rng, n)
        if not sympy_contains(reference, x):
            outsiders.append(x)
    assert all(map(g.contains, members))
    assert all(map(sympy_contains, [reference] * QUERIES, members))
    assert not any(map(g.contains, outsiders))


@pytest.mark.parametrize("name", [k for k, v in NON_GIANTS.items() if v[2] is not None])
def test_the_walk_reaches_the_prime_cycle_that_the_bound_keeps_out(name):
    """Each group with a cycle of prime length p > n - 3 passes the block
    test, and the walk finds that cycle, so only p <= n - 3 keeps the
    group from a false certificate."""
    gens, _, p = NON_GIANTS[name]
    images = [g.images for g in gens]
    n = len(images[0])
    assert p > n - 3 and p not in _jordan_primes(n)
    assert _block_of_0_and_1_is_everything(n, images)
    assert _walk_finds_jordan_element(images, frozenset({p}))


def test_a_proper_block_skips_the_walk(monkeypatch):
    walks = []
    walk = perm_module._walk_finds_jordan_element

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(perm_module, "_walk_finds_jordan_element", counted)
    for a, b in ((3, 4), (3, 6), (2, 5), (4, 3)):
        g = GenGroup(a * b, _sym_wr_sym_on_points(a, b))
        assert g.order() == math.factorial(a) ** b * math.factorial(b)
    assert walks == []
    assert GenGroup(12, symmetric_gens(12)).order() == math.factorial(12)
    assert len(walks) == 1


def test_block_of_0_and_1_agrees_with_sympy():
    """Against sympy's ``minimal_block``, on transitive groups relabelled
    so that 0 and 1 may or may not share a block."""
    pytest.importorskip("sympy.combinatorics")
    rng = random.Random(4)
    groups = [_sym_wr_sym_on_points(a, b) for a, b in ((3, 4), (2, 6), (4, 4), (3, 5))]
    groups += [pgl2(7, 3), psl2_8(), agl1(13, 2), list(symmetric_gens(10))]
    seen = set()
    for gens in groups:
        for _ in range(4):
            images = [g.images for g in relabelled(rng, gens)]
            n = len(images[0])
            reference = sympy_group([Permutation(g) for g in images])
            everything = len(set(reference.minimal_block([0, 1]))) == 1
            assert _block_of_0_and_1_is_everything(n, images) is everything
            seen.add(everything)
    assert seen == {False, True}


def test_jordan_primes():
    def is_prime(p):
        return p > 1 and all(p % d for d in range(2, p))

    for n in range(1, 120):
        expected = {p for p in range(1, n + 1) if is_prime(p) and n / 2 < p <= n - 3}
        assert _jordan_primes(n) == expected
        assert bool(expected) is (n >= 8)


def test_small_degrees_do_no_giant_work(monkeypatch):
    """Below degree 8 no prime fits, so the test stops before the orbit."""
    monkeypatch.setattr(GenGroup, "is_transitive", lambda self: pytest.fail("orbit searched"))
    for n in range(1, 8):
        g = GenGroup(n, symmetric_gens(n))
        assert g.order() == math.factorial(n)
        assert g._giant == 0


# ----- at scale, and the chain pins -----


def test_sym100_order_membership_and_refusal_build_no_chain():
    n = 100
    g = GenGroup(n, symmetric_gens(n))
    start = time.perf_counter()
    assert g.order() == math.factorial(n)
    rng = random.Random(100)
    assert all(g.contains(random_permutation(rng, n)) for _ in range(QUERIES))
    with pytest.raises(EnumerationOverflow, match=rf"^group order {math.factorial(n)} exceeds cap 1000000$"):
        g.enumerate_elements()
    assert time.perf_counter() - start < 0.1
    assert g._chain is None and g._giant == 1

    fresh = GenGroup(n, symmetric_gens(n))
    start = time.perf_counter()
    with pytest.raises(EnumerationOverflow, match=r"exceeds cap 1000000$"):
        fresh.enumerate_elements()
    assert time.perf_counter() - start < 0.1
    assert fresh._chain is None


def test_alt100_membership_is_parity():
    n = 100
    g = GenGroup(n, _three_cycles(n))
    assert g.order() == math.factorial(n) // 2
    rng = random.Random(101)
    for _ in range(QUERIES):
        x = random_permutation(rng, n)
        assert g.contains(x) is not is_odd(x)
    assert g._chain is None and g._giant == 2


@pytest.mark.parametrize("name", ["alt10", "alt12"])
def test_chain_pins_hold_after_the_giant_path(name):
    degree, gens = pinned_chain_cases()[name]
    g = GenGroup(degree, gens)
    assert g.order() == math.factorial(degree) // 2
    assert g._giant == 2 and g._chain is None
    recorded = json.loads(CHAIN_LEVELS.read_text())[name]
    assert {"degree": degree, **chain_state(g._get_chain())} == recorded
    assert g._get_chain().order() == g.order()
