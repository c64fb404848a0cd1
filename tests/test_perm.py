import itertools
import json
import math
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from wreathact import (
    DegreeMismatchError,
    EnumerationOverflow,
    GenGroup,
    INTRANSITIVE,
    InvalidPermutationError,
    Permutation,
    TRANSITIVE,
    TWO_TRANSITIVE,
    random_permutation,
    same_group,
    symmetric_gens,
)
import wreathact.perm as perm_module
from wreathact.perm import (
    StabilizerChain,
    _IDENTITY_BOUND,
    _compose,
    _cycle_lengths,
    _invert,
    _is_odd,
    orbit_with_witnesses,
    schreier_generators,
)
from helpers import (
    CHAIN_LEVELS,
    chain_state,
    conjugated_full_wreath_product,
    invertible_coordinate_perms,
    p,
    perm_closure,
    pinned_chain_cases,
    sym_perms,
    tuple_closure,
)


@st.composite
def permutations(draw, max_degree=8):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(list(range(degree))))
    return Permutation(images)


@st.composite
def permutation_triples(draw, max_degree=8):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    return tuple(
        Permutation(draw(st.permutations(list(range(degree))))) for _ in range(3)
    )


class TestPermutation:
    def test_identity_law(self):
        assert Permutation.identity(3) * p(1, 0, 2) == p(1, 0, 2)
        assert p(1, 0, 2) * Permutation.identity(3) == p(1, 0, 2)

    def test_compose_pointwise(self):
        # 0 -> 1 -> 2, 1 -> 0 -> 0, 2 -> 2 -> 1
        assert p(1, 0, 2) * p(0, 2, 1) == p(2, 0, 1)

    def test_compose_inverse_pair(self):
        assert p(1, 2, 0) * p(2, 0, 1) == Permutation.identity(3)
        assert p(1, 2, 0).inverse() == p(2, 0, 1)

    def test_degree_one(self):
        one = Permutation([0])
        assert (one * one).images == (0,)
        assert one.inverse().images == (0,)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatchError):
            p(1, 0) * p(1, 0, 2)

    def test_non_bijection_rejected(self):
        with pytest.raises(InvalidPermutationError):
            Permutation([0, 0, 1])
        with pytest.raises(InvalidPermutationError):
            Permutation([0, 3, 1])
        with pytest.raises(InvalidPermutationError):
            Permutation([])

    @pytest.mark.parametrize("images, bad", [
        ([1.0, 0.0], "1.0"),
        ([0, 2, 1.0], "1.0"),
        ([1, "0"], "'0'"),
        (["b", "a"], "'b'"),
    ])
    def test_non_integer_image_rejected_naming_it(self, images, bad):
        # a float equal to an index passes the bijection check, so the type
        # is checked first, before a product can index with it
        with pytest.raises(InvalidPermutationError, match=f"image {bad} is not an integer"):
            Permutation(images)

    def test_bool_images_accepted(self):
        assert Permutation([True, False]) == p(1, 0)

    @given(permutation_triples())
    def test_products_and_inverses_are_valid(self, triple):
        # the product path skips validation; its results must still pass it
        a, b, _ = triple
        for result in (a * b, a.inverse()):
            assert Permutation(result.images) == result
            assert hash(Permutation(result.images)) == hash(result)

    @given(permutation_triples())
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @given(permutations())
    def test_inverse_law(self, perm):
        assert perm * perm.inverse() == Permutation.identity(perm.degree)
        assert perm.inverse() * perm == Permutation.identity(perm.degree)

    @given(permutations())
    def test_serialization_round_trip(self, perm):
        assert Permutation.parse(str(perm)) == perm

    def test_parse_rejects_garbage(self):
        for text in ("1,0,2", "[]", "[a,b]", "[0,0]"):
            with pytest.raises(ValueError):
                Permutation.parse(text)


class TestOrbits:
    def test_empty_generating_set(self):
        g = GenGroup(3, ())
        orbit, witness = g.orbit_with_transversal(0)
        assert orbit == [0]
        assert witness[0] == Permutation.identity(3)

    def test_transposition_orbit(self):
        g = GenGroup(3, (p(1, 0, 2),))
        assert set(g.orbit(0)) == {0, 1}
        assert set(g.orbit(2)) == {2}

    def test_cycle_orbit(self):
        g = GenGroup(3, (p(1, 2, 0),))
        assert set(g.orbit(1)) == {0, 1, 2}

    def test_witnesses_map_base_point(self):
        rng = random.Random(7)
        for _ in range(25):
            degree = rng.randint(2, 7)
            gens = tuple(random_permutation(rng, degree) for _ in range(rng.randint(1, 3)))
            g = GenGroup(degree, gens)
            point = rng.randrange(degree)
            orbit, witness = g.orbit_with_transversal(point)
            for beta in orbit:
                assert witness[beta][point] == beta

    def test_witness_is_the_transversal_entry(self):
        rng = random.Random(13)
        groups = [GenGroup(1, ()), GenGroup(1, (p(0),)), GenGroup(4, ())]
        for _ in range(20):
            degree = rng.randint(1, 7)
            gens = (random_permutation(rng, degree) for _ in range(rng.randint(0, 3)))
            groups.append(GenGroup(degree, gens))
        for g in groups:
            for start in range(g.degree):
                witness = g.orbit_with_transversal(start)[1]
                for target in range(g.degree):
                    if target in witness:
                        assert g.witness(start, target) == witness[target]
                    else:
                        with pytest.raises(RuntimeError, match=f"{target} is not in the orbit of {start}"):
                            g.witness(start, target)

    def test_orbits_partition_the_points(self):
        rng = random.Random(11)
        for _ in range(25):
            degree = rng.randint(1, 8)
            gens = tuple(random_permutation(rng, degree) for _ in range(rng.randint(0, 3)))
            g = GenGroup(degree, gens)
            orbits = g.orbits()
            flat = [point for orbit in orbits for point in orbit]
            assert sorted(flat) == list(range(degree))

    def test_orbit_is_the_transversal_orbit_in_bfs_order(self):
        """Both orbits run ``orbit_with_witnesses``, so up to degree 6 each
        is also checked, as a set, against the images of the point under
        the raw-tuple closure of the generators."""
        rng = random.Random(17)
        groups = [GenGroup(1, ()), GenGroup(4, ())]
        for _ in range(25):
            degree = rng.randint(1, 8)
            gens = (random_permutation(rng, degree) for _ in range(rng.randint(0, 3)))
            groups.append(GenGroup(degree, gens))
        closures = 0
        for g in groups:
            for point in range(g.degree):
                assert g.orbit(point) == g.orbit_with_transversal(point)[0]
            if g.degree <= 6:
                closure = tuple_closure([s.images for s in g.generators], g.degree)
                for point in range(g.degree):
                    assert set(g.orbit(point)) == {e[point] for e in closure}
                closures += 1
            for point in (-1, g.degree):
                with pytest.raises(ValueError, match=f"point {point} out of range"):
                    g.orbit(point)
            orbits = g.orbits()
            assert orbits == [sorted(g.orbit(orbit[0])) for orbit in orbits]
            assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
        assert closures >= 15

    def test_search_without_identity_forms_no_product(self, monkeypatch):
        rng = random.Random(19)
        cases = [(1, (), 0), (4, (), 2)]
        for _ in range(25):
            degree = rng.randint(1, 8)
            gens = tuple(random_permutation(rng, degree) for _ in range(rng.randint(1, 3)))
            cases.append((degree, gens, rng.randrange(degree)))
        expected = [
            orbit_with_witnesses(start, gens, Permutation.__getitem__, Permutation.identity(degree))[0]
            for degree, gens, start in cases
        ]
        products = []
        multiply = Permutation.__mul__
        monkeypatch.setattr(Permutation, "__mul__", lambda a, b: products.append(None) or multiply(a, b))
        for (_, gens, start), orbit in zip(cases, expected):
            plain, witness = orbit_with_witnesses(start, gens, Permutation.__getitem__)
            assert plain == orbit == list(witness)
            assert set(witness.values()) == {None}
        assert products == []


class TestSchreierGenerators:
    def test_cyclic_group_has_trivial_stabilizer(self):
        g = GenGroup(3, (p(1, 2, 0),))
        assert g.schreier_generators(0) == []

    def test_symmetric_group_point_stabilizer(self):
        g = GenGroup(3, (p(1, 0, 2), p(1, 2, 0)))
        # brute-force oracle: elements of the closure that fix 0
        stabilizer = {e for e in perm_closure(list(g.generators)) if e[0] == 0}
        assert stabilizer == {Permutation.identity(3), p(0, 2, 1)}
        assert perm_closure(g.schreier_generators(0)) == stabilizer

    def test_trivial_group(self):
        assert GenGroup(4, ()).schreier_generators(2) == []

    def test_equal_the_shared_routine_on_a_fresh_search(self):
        rng = random.Random(29)
        groups = [GenGroup(1, ()), GenGroup(3, ()), GenGroup(5, symmetric_gens(5))]
        for _ in range(25):
            degree = rng.randint(2, 8)
            gens = (random_permutation(rng, degree) for _ in range(rng.randint(1, 3)))
            groups.append(GenGroup(degree, gens))
        for g in groups:
            for point in range(g.degree):
                orbit, witness = g.orbit_with_transversal(point)
                fresh = schreier_generators(orbit, witness, g.generators, Permutation.__getitem__)
                assert g.schreier_generators(point) == fresh
            with pytest.raises(ValueError, match=f"point {g.degree} out of range"):
                g.schreier_generators(g.degree)

    def test_read_the_search_that_witness_kept(self, monkeypatch):
        searches = []
        search = GenGroup.orbit_with_transversal
        monkeypatch.setattr(
            GenGroup, "orbit_with_transversal", lambda g, point: searches.append(point) or search(g, point)
        )
        g = GenGroup(6, symmetric_gens(6))
        g.witness(2, 5)
        first = g.schreier_generators(2)
        assert g.schreier_generators(2) == first
        assert searches == [2]

    def test_schreier_soundness(self):
        rng = random.Random(3)
        for _ in range(25):
            degree = rng.randint(2, 6)
            gens = tuple(random_permutation(rng, degree) for _ in range(rng.randint(1, 3)))
            g = GenGroup(degree, gens)
            point = rng.randrange(degree)
            schreier = g.schreier_generators(point)
            for sg in schreier:
                assert sg[point] == point
            closure = perm_closure(list(gens)) if gens else {Permutation.identity(degree)}
            stab_closure = (
                perm_closure(schreier) if schreier else {Permutation.identity(degree)}
            )
            assert len(stab_closure) == len(closure) // len(g.orbit(point))


class TestMembership:
    def test_identity_always_member(self):
        for gens in ((), (p(1, 0, 2),), (p(1, 2, 0), p(1, 0, 2))):
            g = GenGroup(3, gens)
            assert g.contains(Permutation.identity(3))

    def test_cyclic_group_excludes_transposition(self):
        g = GenGroup(3, (p(1, 2, 0),))
        assert perm_closure(list(g.generators)) == {
            Permutation.identity(3), p(1, 2, 0), p(2, 0, 1),
        }
        assert not g.contains(p(1, 0, 2))

    def test_symmetric_group_contains_all(self):
        g = GenGroup(3, (p(1, 0, 2), p(1, 2, 0)))
        assert g.contains(p(0, 2, 1))
        for e in sym_perms(3):
            assert g.contains(e)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            GenGroup(3, ()).contains(p(1, 0))

    def test_sift_agrees_with_closure(self):
        rng = random.Random(19)
        for _ in range(40):
            degree = rng.randint(2, 6)
            gens = tuple(random_permutation(rng, degree) for _ in range(rng.randint(0, 3)))
            g = GenGroup(degree, gens)
            elements = g.enumerate_elements(5000)
            for candidate in sym_perms(degree):
                assert g.contains(candidate) == (candidate in elements)

    def test_order_matches_closure(self):
        rng = random.Random(23)
        for _ in range(20):
            degree = rng.randint(1, 6)
            gens = tuple(random_permutation(rng, degree) for _ in range(rng.randint(0, 3)))
            g = GenGroup(degree, gens)
            assert g.order() == len(g.enumerate_elements(5000))

    def test_symmetric_group_orders(self):
        for degree in range(1, 8):
            assert GenGroup(degree, symmetric_gens(degree)).order() == math.factorial(degree)

    def test_chain_handles_order_168_group_on_seven_points(self):
        from helpers import invertible_coordinate_perms

        gens = invertible_coordinate_perms()
        g = GenGroup(7, tuple(gens))
        elements = g.enumerate_elements()
        assert g.order() == len(elements) == 168
        for candidate in elements:
            assert g.contains(candidate)
        rng = random.Random(29)
        misses = 0
        while misses < 20:
            candidate = random_permutation(rng, 7)
            if candidate not in elements:
                assert not g.contains(candidate)
                misses += 1



class TestRawKernels:
    @pytest.mark.parametrize("degree", [1, 2, 3, 12, 257, 1000])
    def test_compose_is_the_map_gather(self, degree):
        rng = random.Random(degree)
        for _ in range(5):
            a = random_permutation(rng, degree).images
            b = random_permutation(rng, degree).images
            assert _compose(a, b) == tuple(map(b.__getitem__, a))
            assert _compose(a, _invert(a)) == tuple(range(degree))

    @pytest.mark.parametrize("indices", [(), (0,), (3,)])
    def test_compose_on_zero_and_one_index(self, indices):
        b = (4, 2, 0, 1, 3)
        got = _compose(indices, b)
        assert type(got) is tuple
        assert got == tuple(map(b.__getitem__, indices))

    def test_parity_is_the_cycle_count_parity(self):
        def reference(images):
            return (len(images) - len(_cycle_lengths(images))) % 2 == 1

        for degree in range(1, 8):
            for images in itertools.permutations(range(degree)):
                assert _is_odd(images) is reference(images)
        rng = random.Random(35)
        for degree in [*range(8, 40), 255, 256, 257, 300]:
            for _ in range(5):
                images = random_permutation(rng, degree).images
                assert _is_odd(images) is reference(images)


def _reference_check(images) -> str | tuple:
    """The reference for the constructor's check, with a fresh ``range`` per
    call: the message ``Permutation`` must raise, or the images it keeps."""
    imgs = tuple(images)
    if not imgs:
        return "degree must be at least 1"
    for i in imgs:
        if not isinstance(i, int):
            return f"image {i!r} is not an integer: {list(imgs)}"
    if sorted(imgs) != list(range(len(imgs))):
        return f"not a permutation of 0..{len(imgs) - 1}: {list(imgs)}"
    return imgs


def _built(images) -> str | tuple:
    try:
        return Permutation(images).images
    except InvalidPermutationError as error:
        return str(error)


def _constructor_cases(rng: random.Random, degree: int) -> list[list]:
    """A valid image list of ``degree`` and its spoiled copies: a float, a
    string, None, a negative, a duplicate and an out-of-range entry, and
    with bools for 0 and 1."""
    valid = random_permutation(rng, degree).images
    cases = [list(valid)]
    k = rng.randrange(degree)
    for bad in (1.0, float(valid[k]), "a", None, -1, valid[k - 1], degree, degree + 7):
        spoiled = list(valid)
        spoiled[k] = bad
        cases.append(spoiled)
    cases.append([bool(x) if x < 2 else x for x in valid])
    return cases


class TestKeptIdentities:
    DEGREES = [1, 2, 3, 12, _IDENTITY_BOUND - 1, _IDENTITY_BOUND, _IDENTITY_BOUND + 1, 300]

    @pytest.mark.parametrize("degree", DEGREES)
    def test_constructor_accepts_and_rejects_as_before(self, degree):
        rng = random.Random(degree)
        for images in _constructor_cases(rng, degree):
            assert _built(images) == _reference_check(images)
            assert _built(iter(images)) == _reference_check(images)
        for images in ([], (), [True], [False], [True, False], [1.0], ["a"], [None], [-1], [1]):
            assert _built(images) == _reference_check(images)

    def test_identity_and_is_identity(self):
        for degree in self.DEGREES:
            one = Permutation.identity(degree)
            assert one.images == tuple(range(degree)) and type(one.images) is tuple
            assert one.is_identity() and Permutation(range(degree)).is_identity()
            if degree > 1:
                assert not Permutation([1, 0] + list(range(2, degree))).is_identity()
        for degree in (0, -1):
            with pytest.raises(InvalidPermutationError, match="degree must be at least 1"):
                Permutation.identity(degree)
        # a float degree is refused as range refuses it, kept degree or not
        for degree in (2.0, 300.0):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                Permutation.identity(degree)

    def test_only_degrees_below_the_bound_are_kept(self):
        for degree in range(1, 1001):
            perm = Permutation(range(degree))
            assert perm.is_identity() and perm == Permutation.identity(degree)
        kept = perm_module._IDENTITIES
        assert set(kept) == set(range(1, _IDENTITY_BOUND))
        for degree, (images, as_list) in kept.items():
            assert images == tuple(range(degree)) and as_list == list(range(degree))

    def test_threads_filling_the_keep_get_the_single_threaded_answers(self, monkeypatch):
        def answers(seed: int) -> list:
            rng = random.Random(seed)
            out = []
            for _ in range(60):
                degree = rng.randint(1, 2 * _IDENTITY_BOUND)
                out += [_built(images) for images in _constructor_cases(rng, degree)]
                out.append(Permutation.identity(degree).is_identity())
            return out

        seeds = range(8)
        monkeypatch.setattr(perm_module, "_IDENTITIES", {})
        expected = [answers(seed) for seed in seeds]
        monkeypatch.setattr(perm_module, "_IDENTITIES", {})
        got: dict[int, list] = {}
        threads = [threading.Thread(target=lambda s=seed: got.update({s: answers(s)})) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [got[seed] for seed in seeds] == expected
        assert max(perm_module._IDENTITIES) < _IDENTITY_BOUND


@pytest.mark.parametrize("name", list(pinned_chain_cases()))
def test_chain_levels_match_the_recorded_chains(name):
    """Same products in the same order give the same base, orbits and
    strong generators at every level as the recorded chains."""
    degree, gens = pinned_chain_cases()[name]
    recorded = json.loads(CHAIN_LEVELS.read_text())[name]
    assert {"degree": degree, **chain_state(StabilizerChain(degree, gens))} == recorded


@pytest.mark.parametrize("name, most", [("sym3-wr-sym6", 30), ("sym25-on-pairs", 100)])
def test_chain_build_strips_each_schreier_generator_once_per_level(monkeypatch, name, most):
    """Most Schreier generators of these chains repeat one already sifted
    from the same level, or a strong generator of it: stripping every one
    took 341 and 4284 strips. The recorded chains above show that skipping
    them leaves every level as it was."""
    strips = []
    strip = StabilizerChain._strip

    def counted(self, g, start):
        strips.append(start)
        return strip(self, g, start)

    monkeypatch.setattr(StabilizerChain, "_strip", counted)
    degree, gens = pinned_chain_cases()[name]
    StabilizerChain(degree, gens)
    assert 0 < len(strips) <= most


def test_finished_chain_keeps_no_known_sets():
    """The per-level sets of known members serve the build alone: no level
    and no attribute of a finished chain holds a set, with or without a
    base prefix (X's chain on m + q*m points has one)."""
    degree, gens = pinned_chain_cases()["sym3-wr-sym6"]
    X = conjugated_full_wreath_product(random.Random(43), 3, 5)
    for chain in (StabilizerChain(degree, gens), X._get_chain()):
        assert len(chain.levels) > 1
        values = list(vars(chain).values())
        for lvl in chain.levels:
            assert lvl.known is None
            values += [getattr(lvl, slot) for slot in type(lvl).__slots__]
        assert not any(isinstance(v, (set, frozenset)) for v in values)


def _on_disjoint_points(rng: random.Random, a: int, b: int) -> list[Permutation]:
    """Two generators on {0..a-1} and two on {a..a+b-1}: an intransitive group."""
    gens = []
    for size, shift in ((a, 0), (b, a)):
        for _ in range(2):
            images = list(range(a + b))
            for i, j in enumerate(random_permutation(rng, size).images):
                images[shift + i] = shift + j
            gens.append(Permutation(images))
    return gens


def _block_preserving(rng: random.Random, blocks: int, size: int) -> list[Permutation]:
    """Sym(size) wr Sym(blocks) on blocks*size points, points relabelled."""
    n = blocks * size
    swap = [1, 0] + list(range(2, n))
    turn = [(i + 1) % size for i in range(size)] + list(range(size, n))
    shift = [((i // size + 1) % blocks) * size + i % size for i in range(n)]
    relabel = random_permutation(rng, n)
    return [relabel.inverse() * Permutation(g) * relabel for g in (swap, turn, shift)]


def test_chain_agrees_with_sympy():
    """Order and membership against sympy's Schreier-Sims, beyond the
    reach of the closure oracles: random 2-generated groups of degree
    10-40, intransitive groups, and block-preserving groups, whose chains
    have many non-trivial levels (at least 20 for Sym(4) wr Sym(8) and
    Sym(3) wr Sym(10))."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    SympyPerm, SympyGroup = combinatorics.Permutation, combinatorics.PermutationGroup
    rng = random.Random(20261018)
    cases = [[random_permutation(rng, n) for _ in range(2)] for n in (10, 12, 14, 16, 20, 30, 40)]
    cases += [_on_disjoint_points(rng, a, b) for a, b in ((5, 6), (4, 9), (7, 7))]
    cases += [_block_preserving(rng, k, s) for k, s in ((3, 4), (4, 3), (2, 6), (5, 3))]
    deep = [_block_preserving(rng, k, s) for k, s in ((8, 4), (10, 3))]
    for gens in cases + deep:
        n = gens[0].degree
        g = GenGroup(n, gens)
        if gens in deep:
            assert len(g._get_chain().levels) >= 20
        reference = SympyGroup([SympyPerm(list(x.images)) for x in gens])
        # most random pairs generate a giant, which GenGroup answers with no
        # chain, so the chain is asked as well
        chain = StabilizerChain(n, gens)
        assert g.order() == chain.order() == reference.order()
        queries = [random_permutation(rng, n) for _ in range(10)]
        for _ in range(10):
            word = Permutation.identity(n)
            for _ in range(8):
                word = word * rng.choice(gens)
            queries.append(word)
        for w in queries:
            assert g.contains(w) == chain.contains(w) == reference.contains(SympyPerm(list(w.images)))


def _alternating_gens(n: int) -> tuple[Permutation, Permutation]:
    """(0 1 2) with the n-cycle for odd n, or with (1 2 ... n-1) for even n:
    generators of Alt(n), n >= 3."""
    three = Permutation([1, 2, 0] + list(range(3, n)))
    if n % 2:
        return three, Permutation(list(range(1, n)) + [0])
    return three, Permutation([0] + list(range(2, n)) + [1])


@pytest.mark.parametrize("alternating", [False, True], ids=["sym30", "alt30"])
def test_chain_at_degree_30(alternating):
    """Orders and membership at degree 30, far beyond the closure oracles,
    from the giant path and from the chain."""
    n = 30
    gens = _alternating_gens(n) if alternating else symmetric_gens(n)
    g = GenGroup(n, gens)
    chain = StabilizerChain(n, gens)
    order = math.factorial(n) // 2 if alternating else math.factorial(n)
    assert g.order() == chain.order() == order
    rng = random.Random(30)
    for _ in range(10):
        word = Permutation.identity(n)
        for _ in range(20):
            word = word * rng.choice(gens)
        assert g.contains(word) and chain.contains(word)
    odd = Permutation([1, 0] + list(range(2, n)))
    assert g.contains(odd) is chain.contains(odd) is not alternating


def test_giant_membership_agrees_with_sympy():
    """Alt(n) and Sym(n), n = 8..30, answer membership from the giant
    certificate with no chain: one parity pass per query, checked against
    sympy on seeded random permutations and words in the generators."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    SympyPerm, SympyGroup = combinatorics.Permutation, combinatorics.PermutationGroup
    rng = random.Random(20261020)
    for n in range(8, 31):
        for gens, index in ((symmetric_gens(n), 1), (_alternating_gens(n), 2)):
            g = GenGroup(n, gens)
            reference = SympyGroup([SympyPerm(list(x.images)) for x in gens])
            queries = [random_permutation(rng, n) for _ in range(8)]
            for _ in range(4):
                word = Permutation.identity(n)
                for _ in range(n):
                    word = word * rng.choice(gens)
                queries.append(word)
            for w in queries:
                assert g.contains(w) == reference.contains(SympyPerm(list(w.images)))
            assert g._giant == index and g._chain is None
            for degree in (n - 1, n + 1):
                with pytest.raises(DegreeMismatchError, match=f"element degree {degree} != group degree {n}"):
                    g.contains(Permutation.identity(degree))


def _disjoint_transpositions(count: int) -> list[Permutation]:
    gens = []
    for k in range(count):
        images = list(range(2 * count))
        images[2 * k], images[2 * k + 1] = 2 * k + 1, 2 * k
        gens.append(Permutation(images))
    return gens


@pytest.mark.parametrize(
    "degree, gens, order",
    [(41, symmetric_gens(41), math.factorial(41)), (80, _disjoint_transpositions(40), 2**40)],
    ids=["sym41", "elementary-abelian-2^40"],
)
def test_chain_build_does_not_recurse(degree, gens, order):
    """A 40-level chain builds with the stack only 30 frames deeper than here."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        g = GenGroup(degree, gens)
        found = g.order()
    finally:
        sys.setrecursionlimit(limit)
    assert found == order
    assert len(g._get_chain().levels) == 40


def test_chain_is_deterministic():
    """Two builds from the same generators give the same base and orbits;
    a base prefix leads the base, and every later base point is the
    smallest point its level's first generator moves."""
    gens = _block_preserving(random.Random(41), 4, 4)
    for prefix in ((), (5, 0, 12), (15, 14, 13, 12)):
        chains = [StabilizerChain(16, gens, base=prefix) for _ in range(2)]
        assert [(lvl.point, lvl.orbit) for lvl in chains[0].levels] == [
            (lvl.point, lvl.orbit) for lvl in chains[1].levels
        ]
        levels = chains[0].levels
        assert tuple(lvl.point for lvl in levels[: len(prefix)]) == prefix
        for lvl in levels[len(prefix):]:
            assert lvl.point == min(i for i, j in enumerate(lvl.gens[0]) if i != j)
        assert chains[0].order() == GenGroup(16, gens).order() == 24**4 * 4
    assert [lvl.point for lvl in GenGroup(16, gens)._get_chain().levels] == [
        lvl.point for lvl in StabilizerChain(16, gens).levels
    ]


def test_base_prefix_with_a_generator_fixing_it():
    """A first generator that fixes the prefix point cannot put another
    point at level 0: the prefix level stays trivial until a generator
    moves its point."""
    fixes_0 = p(0, 2, 1, 3)
    chain = StabilizerChain(4, [fixes_0, p(1, 0, 2, 3)], base=(0,))
    assert chain.levels[0].point == 0
    assert chain.order() == 6
    assert [lvl.point for lvl in StabilizerChain(4, [fixes_0]).levels] == [1]
    trivial = StabilizerChain(4, [fixes_0], base=(0, 3))
    assert [(lvl.point, lvl.orbit) for lvl in trivial.levels] == [(0, [0]), (3, [3]), (1, [1, 2])]
    assert trivial.order() == 2


class TestSameGroup:
    def test_equal_groups_from_different_generators(self):
        a = GenGroup(4, (p(1, 0, 2, 3), p(1, 2, 3, 0)))
        b = GenGroup(4, (p(0, 1, 3, 2), p(3, 0, 1, 2), p(2, 1, 0, 3)))
        assert same_group(a, b)
        assert same_group(b, a)

    def test_same_order_different_groups(self):
        a = GenGroup(3, (p(1, 0, 2),))
        b = GenGroup(3, (p(0, 2, 1),))
        assert a.order() == b.order() == 2
        assert not same_group(a, b)
        assert not same_group(b, a)

    def test_proper_subgroup(self):
        whole = GenGroup(4, symmetric_gens(4))
        alternating = GenGroup(4, (p(1, 2, 0, 3), p(0, 2, 3, 1)))
        assert alternating.order() == 12
        assert not same_group(whole, alternating)
        assert not same_group(alternating, whole)

    def test_degree_mismatch_is_not_equal(self):
        assert not same_group(GenGroup(2, ()), GenGroup(3, ()))

    def test_agrees_with_closures(self):
        rng = random.Random(67)
        for _ in range(40):
            degree = rng.randint(1, 5)
            a = GenGroup(degree, tuple(random_permutation(rng, degree) for _ in range(rng.randint(0, 2))))
            b = GenGroup(degree, tuple(random_permutation(rng, degree) for _ in range(rng.randint(0, 2))))
            closures = [tuple_closure([g.images for g in x.generators], degree) for x in (a, b)]
            assert same_group(a, b) == (closures[0] == closures[1])


class TestEnumeration:
    def test_trivial_group(self):
        assert GenGroup(3, ()).enumerate_elements() == {Permutation.identity(3)}

    def test_transposition_group(self):
        assert len(GenGroup(2, (p(1, 0),)).enumerate_elements()) == 2

    def test_symmetric_group(self):
        g = GenGroup(3, (p(1, 0, 2), p(1, 2, 0)))
        assert g.enumerate_elements() == set(sym_perms(3))

    def test_refused_by_order_before_enumerating(self):
        g = GenGroup(10, symmetric_gens(10))
        with pytest.raises(EnumerationOverflow, match="group order 3628800 exceeds cap 1000000"):
            g.enumerate_elements()

    def test_overflow_is_loud(self):
        g = GenGroup(5, symmetric_gens(5))
        with pytest.raises(EnumerationOverflow):
            g.enumerate_elements(cap=10)


class TestTransitivity:
    def test_cycle_is_transitive_not_two_transitive(self):
        assert GenGroup(3, (p(1, 2, 0),)).transitivity_degree() == TRANSITIVE

    def test_trivial_group_is_intransitive(self):
        assert GenGroup(2, ()).transitivity_degree() == INTRANSITIVE
        assert GenGroup(3, ()).transitivity_degree() == INTRANSITIVE

    def test_symmetric_group_is_two_transitive(self):
        g = GenGroup(3, (p(1, 0, 2), p(1, 2, 0)))
        assert g.transitivity_degree() == TWO_TRANSITIVE

    def test_degree_two_transposition_counts_as_two_transitive(self):
        assert GenGroup(2, (p(1, 0),)).transitivity_degree() == TWO_TRANSITIVE

    def test_degree_one(self):
        assert GenGroup(1, ()).transitivity_degree() == TRANSITIVE

    def test_agrees_with_sympy(self):
        """The ordered-pair orbit against sympy's ``transitivity_degree``
        (0 intransitive, 1 transitive, at least 2 for 2-transitive), on
        2-transitive groups that are not giants, on dihedral, cyclic and
        intransitive groups, and on seeded random and relabelled ones."""
        combinatorics = pytest.importorskip("sympy.combinatorics")
        SympyPerm, SympyGroup = combinatorics.Permutation, combinatorics.PermutationGroup
        rng = random.Random(20261019)
        agl = [Permutation((x + 1) % 7 for x in range(7)), Permutation(3 * x % 7 for x in range(7))]
        # PGL(2, 7) on the projective line: 0..6 and infinity as 7
        pgl = [Permutation(list(g.images) + [7]) for g in agl]
        pgl.append(Permutation([7] + [-pow(x, 5, 7) % 7 for x in range(1, 7)] + [0]))  # -1/x
        gl32 = invertible_coordinate_perms()
        named = [(agl, 42), (pgl, 336), (gl32, 168)]
        for gens, order in named:
            g = GenGroup(gens[0].degree, gens)
            assert g.order() == order and g.transitivity_degree() == TWO_TRANSITIVE
        cases = [gens for gens, _ in named]
        for n in (4, 5, 6, 8):
            rotation = Permutation((x + 1) % n for x in range(n))
            cases.append([rotation, Permutation(-x % n for x in range(n))])
            cases.append([rotation])
            cases.append([rotation * rotation])
        cases += [_on_disjoint_points(rng, a, b) for a, b in ((1, 4), (3, 4), (2, 5))]
        cases.append([p(1, 0), p(1, 0)])
        for _ in range(15):
            degree = rng.randint(3, 9)
            cases.append([random_permutation(rng, degree) for _ in range(rng.randint(1, 2))])
        for gens, _ in named:
            relabel = random_permutation(rng, gens[0].degree)
            cases.append([relabel.inverse() * g * relabel for g in gens])
        seen = set()
        for gens in cases:
            g = GenGroup(gens[0].degree, gens)
            reference = SympyGroup([SympyPerm(list(x.images)) for x in gens]).transitivity_degree
            expected = {0: INTRANSITIVE, 1: TRANSITIVE}.get(reference, TWO_TRANSITIVE)
            assert g.transitivity_degree() == expected, gens
            seen.add(expected)
        assert seen == {INTRANSITIVE, TRANSITIVE, TWO_TRANSITIVE}
