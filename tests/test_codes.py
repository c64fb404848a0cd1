import io
import itertools
import os
import random
import time
from collections import Counter

import pytest

from wreathact import (
    Code,
    GenGroup,
    HypothesisViolation,
    ParseError,
    Permutation,
    WreathContext,
    WreathElement,
    WreathSubgroup,
    canonicalize,
    conjugate_subgroup,
    embed_in_wreath,
    format_code,
    format_point,
    hamming_distance,
    is_automorphism,
    parse_code,
    random_permutation,
    symmetric_gens,
)
import wreathact.codes as codes_module
import wreathact.normalize as normalize_module
from wreathact.perm import StabilizerChain
from wreathact.cli import load_group, main
from helpers import (
    base_entries_outside_closure,
    chain_sift_embedding,
    conjugated_repetition_code,
    cycle,
    hamming_code_with_automorphisms,
    p,
    parity_code_with_automorphisms,
    raw_apply,
    raw_closure,
    raw_component,
    raw_wreath,
    record_component_builds,
    reed_solomon_code,
    reference_parse_code,
    sym_perms,
    tuple_closure,
    we,
)
from test_acceptance import GOLDEN, GOLDEN_COMMANDS

DATA = os.path.join(os.path.dirname(__file__), "data")

S = p(1, 0)
ID2 = Permutation.identity(2)
ID3 = Permutation.identity(3)


def record_deletions(monkeypatch) -> list[tuple[tuple, tuple[int, ...]]]:
    """Record the ``columns`` and the deleted coordinates of every deletion
    test of the distance search."""
    tests = []
    collides = codes_module._collides

    def recorded(columns, deleted, n):
        tests.append((columns, deleted))
        return collides(columns, deleted, n)

    monkeypatch.setattr(codes_module, "_collides", recorded)
    return tests


def deletions_of(tests, code: Code) -> list[tuple[int, ...]]:
    return [deleted for columns, deleted in tests if columns is code.columns]


def even_weight_code() -> tuple[Code, WreathSubgroup]:
    ctx = WreathContext(2, 3)
    code = Code(ctx, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    gens = (
        WreathElement((ID2, S, S), ID3),        # translation by 011
        WreathElement((S, ID2, S), ID3),        # translation by 101
        WreathElement((ID2, ID2, ID2), p(1, 2, 0)),
        WreathElement((ID2, ID2, ID2), p(1, 0, 2)),
    )
    return code, WreathSubgroup(ctx, gens)


def repetition_code() -> tuple[Code, WreathSubgroup]:
    ctx = WreathContext(2, 3)
    code = Code(ctx, [(0, 0, 0), (1, 1, 1)])
    gens = (
        WreathElement((S, S, S), ID3),
        WreathElement((ID2, ID2, ID2), p(1, 2, 0)),
        WreathElement((ID2, ID2, ID2), p(1, 0, 2)),
    )
    return code, WreathSubgroup(ctx, gens)


class TestMinDistance:
    def test_repetition_pair(self):
        code = Code(WreathContext(2, 3), [(0, 0, 0), (1, 1, 1)])
        assert code.min_distance() == 3

    def test_adjacent_words(self):
        code = Code(WreathContext(2, 2), [(0, 0), (0, 1)])
        assert code.min_distance() == 1

    def test_hamming_code(self):
        code, _ = hamming_code_with_automorphisms()
        assert len(code) == 16
        assert code.min_distance() == 3
        # independent recount over all pairs
        words = code.sorted_words()
        assert 3 == min(
            sum(1 for x, y in zip(a, b) if x != y)
            for a, b in itertools.combinations(words, 2)
        )

    def test_singleton_has_no_distance(self):
        with pytest.raises(ValueError):
            Code(WreathContext(2, 2), [(0, 0)]).min_distance()

    @staticmethod
    def pair_scan(words) -> int:
        return min(
            sum(1 for x, y in zip(a, b) if x != y)
            for a, b in itertools.combinations(words, 2)
        )

    @staticmethod
    def counting_distance(monkeypatch) -> list[int]:
        """Count the pairwise-scan distance calls inside ``Code.min_distance``."""
        calls = [0]

        def counted(a, b):
            calls[0] += 1
            return hamming_distance(a, b)

        monkeypatch.setattr(codes_module, "hamming_distance", counted)
        return calls

    def test_agrees_with_pair_scan_on_random_codes(self):
        # greedy random codes with a drawn distance floor, so that the
        # sphere search also has to pass radii without a hit
        rng = random.Random(71)
        distances = set()
        for _ in range(120):
            q = rng.randint(2, 5)
            m = rng.randint(2, 7)
            floor = rng.randint(1, 3)
            words = [tuple(rng.randrange(q) for _ in range(m))]
            for _ in range(rng.randint(1, 200)):
                w = tuple(rng.randrange(q) for _ in range(m))
                if all(hamming_distance(w, c) >= floor for c in words):
                    words.append(w)
            if len(words) < 2:
                continue
            code = Code(WreathContext(q, m), words)
            d = self.pair_scan(words)
            assert code.min_distance() == d
            distances.add(d)
        assert {1, 2, 3} <= distances

    def test_agrees_with_pair_scan_on_dense_parity_subcodes(self):
        # dense enough that the radius-2 sphere search runs and hits
        rng = random.Random(73)
        for q, m in ((2, 5), (2, 6), (2, 7), (3, 6), (3, 7)):
            parity = [w for w in itertools.product(range(q), repeat=m) if sum(w) % q == 0]
            for _ in range(3):
                size = rng.randint(min(len(parity), 300) * 3 // 4, min(len(parity), 300))
                words = rng.sample(parity, size)
                code = Code(WreathContext(q, m), words)
                assert code.min_distance() == self.pair_scan(words) == 2

    def test_sphere_search_skips_the_pair_scan(self, monkeypatch):
        calls = self.counting_distance(monkeypatch)
        words = [w for w in itertools.product(range(5), repeat=5) if sum(w) % 5 == 0]
        code = Code(WreathContext(5, 5), words)
        assert code.min_distance() == 2
        assert calls[0] == 0

    def test_small_codes_fall_back_to_the_pair_scan(self, monkeypatch):
        calls = self.counting_distance(monkeypatch)
        code = Code(WreathContext(3, 4), [(0, 0, 0, 0), (1, 1, 2, 0), (2, 2, 2, 2)])
        assert code.min_distance() == 3
        assert calls[0] == 3

    def test_repetition_codes_reach_full_length(self, monkeypatch):
        calls = self.counting_distance(monkeypatch)
        for q in range(2, 6):
            for m in range(2, 8):
                words = [(a,) * m for a in range(q)]
                assert Code(WreathContext(q, m), words).min_distance() == m
        # the even-weight code over Z_2 of length 6 has d = 2 and needs no pairs
        even = [w for w in itertools.product(range(2), repeat=6) if sum(w) % 2 == 0]
        before = calls[0]
        assert Code(WreathContext(2, 6), even).min_distance() == 2
        assert calls[0] == before

    def test_pigeonhole_ends_the_search_without_a_test(self, monkeypatch):
        # parity over Z_5, m = 5: 625 = 5^4 words, so deleting one
        # coordinate is injective (5 tests) and deleting two must collide,
        # which pigeonhole says before any test
        tests = record_deletions(monkeypatch)
        code, _ = parity_code_with_automorphisms(5, 5)
        assert code.min_distance() == 2
        assert deletions_of(tests, code) == [(0,), (1,), (2,), (3,), (4,)]


class TestIsAutomorphism:
    def test_identity(self):
        code = Code(WreathContext(2, 3), [(0, 0, 0), (1, 1, 1)])
        assert is_automorphism(code.ctx.identity_element(), code)

    def test_full_flip_preserves_repetition_code(self):
        code = Code(WreathContext(2, 3), [(0, 0, 0), (1, 1, 1)])
        assert is_automorphism(WreathElement((S, S, S), ID3), code)

    def test_partial_flip_breaks_repetition_code(self):
        code = Code(WreathContext(2, 3), [(0, 0, 0), (1, 1, 1)])
        assert not is_automorphism(WreathElement((S, ID2, ID2), ID3), code)

    def test_agrees_with_set_oracle(self):
        # random codes and random elements, plus codes closed under the
        # element (unions of its orbits), so that both answers occur;
        # Code.transform gives the same images as single-point apply
        rng = random.Random(71)
        answers = set()
        for _ in range(150):
            ctx = WreathContext(rng.randint(2, 4), rng.randint(1, 4))
            points = list(ctx.all_points())
            w = ctx.random_element(rng)
            words = set(rng.sample(points, rng.randint(1, len(points))))
            closed = set(words)
            for word in words:
                while (word := w.apply(word)) not in closed:
                    closed.add(word)
            for code in (Code(ctx, words), Code(ctx, closed)):
                images = {w.apply(c) for c in code.words}
                assert code.transform(w).words == images
                assert is_automorphism(w, code) == (images == code.words)
                answers.add(images == code.words)
        assert answers == {True, False}


class TestCanonicalize:
    def test_repetition_code_is_already_pinned(self):
        code, X = repetition_code()
        result = canonicalize(code, X, 0, 1)
        assert result.pinned_constant == (0, 0, 0)
        assert result.pinned_mixed == (1, 1, 1)
        assert code.min_distance() == 3
        assert result.code.words == code.words
        assert result.certificate.passed

    def test_two_word_code(self):
        ctx = WreathContext(2, 2)
        code = Code(ctx, [(0, 1), (1, 0)])
        X = WreathSubgroup(
            ctx, (WreathElement((S, S), ID2), WreathElement((ID2, ID2), S))
        )
        result = canonicalize(code, X, 0, 1)
        assert result.x1 == WreathElement((ID2, S), ID2)
        assert result.code.words == frozenset({(0, 0), (1, 1)})
        assert result.certificate.passed

    def test_even_weight_code(self):
        code, X = even_weight_code()
        result = canonicalize(code, X, 0, 1)
        assert result.pinned_constant == (0, 0, 0)
        assert result.pinned_mixed == (1, 1, 0)
        assert (0, 0, 0) in result.code and (1, 1, 0) in result.code
        assert len(result.code) == 4
        assert result.code.min_distance() == 2

    def test_equivalence_and_group_transport(self):
        code, X = even_weight_code()
        result = canonicalize(code, X, 0, 1)
        # the transformed code is the pointwise image of the original
        assert result.code.words == {result.x.apply(w) for w in code.words}
        # conjugated generators are automorphisms of the transformed code
        for g in result.conjugated.generators:
            assert is_automorphism(g, result.code)
        # the two pinned words sit at distance exactly d
        assert hamming_distance(result.pinned_constant, result.pinned_mixed) == 2

    def test_second_stage_fixes_the_constant_word(self):
        code, X = even_weight_code()
        result = canonicalize(code, X, 0, 1)
        constant = code.ctx.constant_point(0)
        assert result.x2.apply(constant) == constant

    def test_fourth_stage_supports_only_the_front(self):
        code, X = even_weight_code()
        result = canonicalize(code, X, 0, 1)
        d = code.min_distance()
        for i, entry in enumerate(result.x4.base):
            if i >= d:
                assert entry.is_identity()
            assert entry[0] == 0  # every entry fixes gamma

    def test_hypothesis_gates(self):
        code, X = even_weight_code()
        with pytest.raises(HypothesisViolation):
            canonicalize(code, X, 1, 1)  # equal letters
        singleton = Code(code.ctx, [(0, 0, 0)])
        with pytest.raises(HypothesisViolation):
            canonicalize(singleton, X, 0, 1)
        # a generator that is not an automorphism
        bad = WreathSubgroup(code.ctx, (WreathElement((S, ID2, ID2), ID3),))
        with pytest.raises(HypothesisViolation):
            canonicalize(code, bad, 0, 1)
        # coordinate-intransitive automorphism group
        small = WreathSubgroup(code.ctx, (WreathElement((S, S, S), ID3),))
        with pytest.raises(HypothesisViolation):
            canonicalize(Code(code.ctx, [(0, 0, 0), (1, 1, 1)]), small, 0, 1)

    def test_component_must_be_two_transitive(self):
        # top-only coordinate symmetries of the repetition code over q = 3:
        # components are trivial, hence not 2-transitive
        ctx = WreathContext(3, 2)
        code = Code(ctx, [(0, 0), (1, 1), (2, 2)])
        X = WreathSubgroup(ctx, (WreathElement((ID3, ID3), S),))
        with pytest.raises(HypothesisViolation) as err:
            canonicalize(code, X, 0, 1)
        assert err.value.delta == 0


def parity_z3_fixture() -> tuple[Code, WreathSubgroup]:
    """The conjugated parity code over Z_3 behind the ``code_canon_z3.txt`` golden."""
    with open(os.path.join(DATA, "parity_z3_m4.code"), encoding="ascii") as handle:
        code = parse_code(handle.read())
    return code, load_group(os.path.join(DATA, "parity_z3_m4_aut.group"))


class TestStageOne:
    """Stage 1 conjugates witnesses in the component at coordinate 0 along
    the entry transversal. Checked on raw tuples against the closure of X:
    every entry of x1 lies in the component at its coordinate, and x1 maps
    the first word of the first minimum-distance pair to the constant word."""

    @pytest.mark.parametrize("gamma, nu", [(0, 1), (2, 0), (1, 2)])
    @pytest.mark.parametrize("build", [
        parity_z3_fixture,
        lambda: conjugated_repetition_code(random.Random(5), 3, 3),
        lambda: conjugated_repetition_code(random.Random(6), 3, 4),
    ])
    def test_x1_entries_lie_in_the_components(self, build, gamma, nu):
        code, X = build()
        q, m = X.ctx.gamma_size, X.ctx.delta_size
        elements = raw_closure([raw_wreath(g) for g in X.generators], q, m)
        words = sorted(code.words)
        d = min(hamming_distance(a, b) for a, b in itertools.combinations(words, 2))
        word_a = next(a for a, b in itertools.combinations(words, 2) if hamming_distance(a, b) == d)
        result = canonicalize(code, X, gamma, nu)
        x1 = raw_wreath(result.x1)
        assert x1[1] == tuple(range(m))
        assert all(x1[0][delta] in raw_component(elements, delta) for delta in range(m))
        assert raw_apply(x1, word_a) == (gamma,) * m

    def test_fixture_has_more_than_one_witness(self):
        # the golden pins a choice: some coordinate's component holds two
        # entries sending the letter of word_a there to gamma = 0
        code, X = parity_z3_fixture()
        elements = raw_closure([raw_wreath(g) for g in X.generators], 3, 4)
        word_a = (0, 0, 0, 1)  # first pair at distance 2: 0,0,0,1 and 0,0,1,0
        assert sorted(code.words)[:2] == [word_a, (0, 0, 1, 0)]
        choices = [
            sum(entry[word_a[delta]] == 0 for entry in raw_component(elements, delta))
            for delta in range(4)
        ]
        assert choices == [2, 2, 2, 2]


def code_fixture(code_file: str, group_file: str) -> tuple[Code, WreathSubgroup]:
    with open(os.path.join(DATA, code_file), encoding="ascii") as handle:
        code = parse_code(handle.read())
    return code, load_group(os.path.join(DATA, group_file))


STAGE_TWO_INSTANCES = {
    "even-weight": lambda: code_fixture("even_weight.code", "even_weight_aut.group"),
    "parity-z3": parity_z3_fixture,
    "repetition-q3-m3": lambda: conjugated_repetition_code(random.Random(5), 3, 3),
    "repetition-q3-m4": lambda: conjugated_repetition_code(random.Random(6), 3, 4),
    "repetition-q5-m7": lambda: conjugated_repetition_code(random.Random(7), 5, 7),
    "hamming-q2-m7": hamming_code_with_automorphisms,
    "repetition-q12-m4": lambda: code_fixture("repetition_q12_m4.code", "repetition_q12_m4_aut.group"),
}


class TestStageTwo:
    """Stage 2 is the normal form of X^x1 fixing the constant word, with
    G its component at 0: what ``embed_in_wreath`` computes, read off X's
    BFS at 0 with X^x1 never built. ``test_equals_the_embedding`` builds
    X^x1 and embeds it, an independent path to the same x2 and G."""

    @pytest.mark.parametrize("name", STAGE_TWO_INSTANCES)
    def test_equals_the_embedding(self, name):
        code, X = STAGE_TWO_INSTANCES[name]()
        result = canonicalize(code, X, 0, 1)
        embedding = embed_in_wreath(
            conjugate_subgroup(X, result.x1), 0, code.ctx.constant_point(0)
        )
        assert embedding.ok
        assert result.x2 == embedding.x
        assert result.component_group.generators == embedding.G.generators

    # chains built on the way: the certificate is read off the BFS of X^x,
    # so none, even where base entries of the conjugate are neither the
    # identity nor a generator of G (five of them on parity-z3)
    CHAINS = dict.fromkeys(STAGE_TWO_INSTANCES, 0)

    @pytest.mark.parametrize("name", STAGE_TWO_INSTANCES)
    def test_one_sift_and_one_chain(self, name, monkeypatch):
        """No ``sift_embedding`` call, and exactly ``CHAINS[name]`` chains."""
        code, X = STAGE_TWO_INSTANCES[name]()
        calls: Counter = Counter()

        def counted(key, f):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)
            return wrapper

        for module in (normalize_module, codes_module):
            for key in ("embed_in_wreath", "sift_embedding"):
                if hasattr(module, key):
                    monkeypatch.setattr(module, key, counted(key, getattr(module, key)))
        monkeypatch.setattr(StabilizerChain, "__init__", counted("chain", StabilizerChain.__init__))
        result = canonicalize(code, X, 0, 1)
        assert result.certificate.passed
        assert calls == Counter(sift_embedding=0, chain=self.CHAINS[name])
        assert (result.component_group._chain is not None) is (self.CHAINS[name] == 1)

    @pytest.mark.parametrize("name", ["even-weight", "parity-z3", "repetition-q5-m7"])
    def test_two_conjugates_and_no_normalization_certificate(self, name, monkeypatch):
        # only X^x is built; X^x1, X1^x2 and a component certificate are not
        code, X = STAGE_TWO_INSTANCES[name]()
        calls: Counter = Counter()

        def counted(key, f):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)
            return wrapper

        for module in (normalize_module, codes_module):
            for key in ("conjugate_subgroup", "normalizing_element"):
                if hasattr(module, key):
                    monkeypatch.setattr(module, key, counted(key, getattr(module, key)))
        result = canonicalize(code, X, 0, 1)
        assert result.certificate.passed
        assert calls == {"conjugate_subgroup": 1}


def conjugated_code(code: Code, X: WreathSubgroup, rng: random.Random) -> tuple[Code, WreathSubgroup]:
    """``code`` and ``X`` moved by one random base element, so that stage 2's
    corrections are not all the identity."""
    q, m = code.ctx.gamma_size, code.ctx.delta_size
    y = WreathElement(tuple(random_permutation(rng, q) for _ in range(m)), Permutation.identity(m))
    return code.transform(y), conjugate_subgroup(X, y)


class TestCertificateReading:
    """``canonicalize`` reads its G wr K certificate off the BFS of X^x
    (``_embedding_certificate``). Each test below tampers with the reading's
    inputs: the reading refuses them, and ``sift_embedding`` decides, as
    the chain does."""

    @staticmethod
    def read(monkeypatch, result, conjugated, x4, gamma=0, nu=1):
        """The reading on ``conjugated`` and ``x4`` with the rest of
        ``result``, and the ``sift_embedding`` calls it made."""
        sifts = []
        sift = codes_module.sift_embedding

        def recorded(generators, *args):
            sifts.append(generators)
            return sift(generators, *args)

        monkeypatch.setattr(codes_module, "sift_embedding", recorded)
        G = result.component_group
        stabilizer = GenGroup(G.degree, G.schreier_generators(gamma))
        certificate = codes_module._embedding_certificate(
            conjugated, G, stabilizer, result.x3, x4, result.pinned_constant, nu
        )
        assert certificate == chain_sift_embedding(
            conjugated.generators, G, conjugated.induced_group
        )
        return certificate, sifts

    def test_untampered_input_is_read_with_no_sift(self, monkeypatch):
        code, X = conjugated_code(*parity_code_with_automorphisms(5, 4), random.Random(1))
        result = canonicalize(code, X, 0, 1)
        certificate, sifts = self.read(monkeypatch, result, result.conjugated, result.x4)
        assert certificate == (True, ()) and sifts == []

    def test_entry_outside_G_gives_one_base_failure(self, monkeypatch):
        # G is AGL(1, 5), 20 of the 120 permutations of Z_5
        code, X = conjugated_code(*parity_code_with_automorphisms(5, 4), random.Random(1))
        result = canonicalize(code, X, 0, 1)
        G = result.component_group
        closure = tuple_closure([g.images for g in G.generators], 5)
        assert len(closure) == 20
        outside = next(b for b in sym_perms(5) if b.images not in closure)
        gens = result.conjugated.generators
        k, d = 2, 3
        base = list(gens[k].base)
        base[d] = outside
        tampered = gens[:k] + (WreathElement(base, gens[k].top),) + gens[k + 1:]
        certificate, sifts = self.read(
            monkeypatch, result, WreathSubgroup(code.ctx, tampered), result.x4
        )
        assert len(sifts) == 1
        assert certificate.failures == ((k, "base", d),)

    def test_coordinates_the_bfs_misses_are_sifted(self, monkeypatch):
        # a generator with the identity top, the identity at j0 and an
        # entry outside G elsewhere: alone, it leaves the BFS at j0 with no
        # other coordinate and no component generator to check
        code, X = conjugated_code(*parity_code_with_automorphisms(5, 4), random.Random(1))
        result = canonicalize(code, X, 0, 1)
        closure = tuple_closure([g.images for g in result.component_group.generators], 5)
        outside = next(b for b in sym_perms(5) if b.images not in closure)
        j0 = result.x3.top[0]
        d = (j0 + 1) % 4
        base = [Permutation.identity(5)] * 4
        base[d] = outside
        lone = WreathSubgroup(code.ctx, (WreathElement(base, Permutation.identity(4)),))
        certificate, sifts = self.read(monkeypatch, result, lone, result.x4)
        assert len(sifts) == 1
        assert certificate.failures == ((0, "base", d),)

    @pytest.mark.parametrize("inside", [True, False])
    def test_transversal_entries_off_the_witnesses_are_sifted(self, inside, monkeypatch):
        # X^(x*z) read as X^x, z a base element that is the identity at j0:
        # the component at j0 keeps its generators, and the transversal
        # entry at j1 = j0 + 1 is no longer the identity or a witness
        # inverse of G
        code, X = conjugated_code(*parity_code_with_automorphisms(5, 4), random.Random(1))
        result = canonicalize(code, X, 0, 1)
        closure = tuple_closure([g.images for g in result.component_group.generators], 5)
        j0 = result.x3.top[0]
        z = [Permutation.identity(5)] * 4
        z[(j0 + 1) % 4] = next(
            b for b in sym_perms(5) if not b.is_identity() and (b.images in closure) is inside
        )
        tampered = conjugate_subgroup(X, result.x * WreathElement(z, Permutation.identity(4)))
        assert tampered.component(j0).generators == result.conjugated.component(j0).generators
        certificate, sifts = self.read(monkeypatch, result, tampered, result.x4)
        assert len(sifts) == 1
        assert certificate.passed is inside

    @pytest.mark.parametrize("p, seed, passes", [(5, 1, False), (3, 3, True)])
    def test_swapped_corrections_are_sifted(self, p, seed, passes, monkeypatch):
        # x2's entries at coordinates 0 and 1 traded: both still fix gamma,
        # but the transversal of X^x no longer holds G's witnesses
        code, X = conjugated_code(*parity_code_with_automorphisms(p, 4), random.Random(seed))
        result = canonicalize(code, X, 0, 1)
        base = list(result.x2.base)
        assert base[0] != base[1]
        base[0], base[1] = base[1], base[0]
        x = result.x1 * WreathElement(base, result.x2.top) * result.x3 * result.x4
        certificate, sifts = self.read(monkeypatch, result, conjugate_subgroup(X, x), result.x4)
        assert len(sifts) == 1
        assert certificate.passed is passes

    def test_x4_entry_that_is_no_witness_is_sifted_and_passes(self, monkeypatch):
        # G is Sym(5), so the stabilizer of gamma holds 6 entries sending a
        # letter to nu, only one of them its BFS witness
        code, X = conjugated_repetition_code(random.Random(7), 5, 7)
        gamma, nu = 0, 2
        result = canonicalize(code, X, gamma, nu)
        G = result.component_group
        stabilizer = GenGroup(5, G.schreier_generators(gamma))
        i = next(i for i, e in enumerate(result.x4.base) if not e.is_identity())
        entry = result.x4.base[i]
        start = entry.inverse()[nu]
        members = tuple_closure([s.images for s in stabilizer.generators], 5)
        other = next(
            Permutation(e) for e in sorted(members) if e[start] == nu and e != entry.images
        )
        assert not stabilizer.is_witness(start, other)
        x4_base = list(result.x4.base)
        x4_base[i] = other
        x4 = WreathElement(x4_base, result.x4.top)
        x = result.x1 * result.x2 * result.x3 * x4
        # still a canonicalization: word_a and word_b land on the pinned words
        word_a, word_b = sorted(code.words)[:2]
        assert (x.apply(word_a), x.apply(word_b)) == (result.pinned_constant, result.pinned_mixed)
        certificate, sifts = self.read(
            monkeypatch, result, conjugate_subgroup(X, x), x4, gamma, nu
        )
        assert len(sifts) == 1 and certificate == (True, ())

    @pytest.mark.parametrize("gamma, nu", [(0, 1), (1, 0)])
    def test_every_base_entry_lies_in_G(self, gamma, nu):
        # the raw closure of G's generators holds every base entry of X^x
        rng = random.Random(97)
        cases = [orbit_union_code(rng) for _ in range(12)]
        cases += [parity_code_with_automorphisms(3, 4), hamming_code_with_automorphisms()]
        cases += [conjugated_code(*parity_code_with_automorphisms(5, 3), rng)]
        cases += [conjugated_repetition_code(rng, q, m) for q, m in ((3, 4), (4, 3), (6, 3))]
        for code, X in cases:
            result = canonicalize(code, X, gamma, nu)
            assert result.certificate == (True, ())
            assert base_entries_outside_closure(result.conjugated, result.component_group) == []


class TestCanonicalizeAtScale:
    def test_conjugated_repetition_code_builds_no_chain_of_degree_m(self, monkeypatch):
        q, m = 5, 60
        code, X = conjugated_repetition_code(random.Random(157), q, m)
        assert not any(len(set(w)) == 1 for w in code.words)
        degrees = []
        init = StabilizerChain.__init__

        def counting_init(self, degree, *args):
            degrees.append(degree)
            init(self, degree, *args)

        monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
        start = time.perf_counter()
        result = canonicalize(code, X, 0, 1)
        elapsed = time.perf_counter() - start
        assert result.certificate.passed and result.certificate.failures == ()
        assert result.pinned_constant in result.code
        assert result.pinned_mixed == (1,) * m
        # every base entry of the conjugate is the identity or a generator
        # of G, so not even G's chain is built
        assert degrees == [] and result.component_group._chain is None
        assert result.induced_group._chain is None
        assert elapsed < 1.0

    def test_conjugated_repetition_code_runs_one_witness_bfs_per_start(self, monkeypatch):
        # stage 1 asks the component at 0 for a witness at each of the 60
        # coordinates, from at most q = 5 start letters; with one BFS per
        # start the run makes 1310 products; a BFS per call made 1849
        code, X = conjugated_repetition_code(random.Random(157), 5, 60)
        products = 0
        mul = Permutation.__mul__

        def counting(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(Permutation, "__mul__", counting)
        assert canonicalize(code, X, 0, 1).certificate.passed
        assert products <= 1400

    def test_conjugated_repetition_code_builds_one_component_of_x(self, monkeypatch):
        code, X = conjugated_repetition_code(random.Random(157), 5, 60)
        builds = record_component_builds(monkeypatch)
        result = canonicalize(code, X, 0, 1)
        assert result.certificate.passed
        assert [delta for Y, delta in builds if Y is X] == [0]


def orbit_union_code(rng: random.Random) -> tuple[Code, WreathSubgroup]:
    """A union of orbits of random words under X: the diagonal Sym(q) on the
    letters and the cyclic or dihedral group on the coordinates, so X is
    transitive on the coordinates and its component at 0 is Sym(q)."""
    q = rng.randint(2, 4)
    m = rng.randint(3, 7 if q == 2 else 5)
    ctx = WreathContext(q, m)
    id_q, id_m = Permutation.identity(q), Permutation.identity(m)
    tops = [cycle(m)]
    if rng.random() < 0.5:
        tops.append(Permutation([-d % m for d in range(m)]))
    gens = [WreathElement((s,) * m, id_m) for s in symmetric_gens(q)]
    gens += [WreathElement((id_q,) * m, top) for top in tops]
    words = {tuple(rng.randrange(q) for _ in range(m)) for _ in range(rng.randint(1, 2))}
    frontier = list(words)
    while frontier:
        word = frontier.pop()
        for g in gens:
            image = g.apply(word)
            if image not in words:
                words.add(image)
                frontier.append(image)
    return Code(ctx, words), WreathSubgroup(ctx, tuple(gens))


class TestDistanceThroughOneCoordinate:
    """``canonicalize`` searches the input code's distance deleting only
    coordinate subsets through coordinate 0, after X is checked."""

    def test_agrees_with_pair_scan_on_codes_closed_under_x(self, monkeypatch):
        rng = random.Random(83)
        cases = [orbit_union_code(rng) for _ in range(60)]
        cases += [parity_code_with_automorphisms(3, m) for m in (3, 4, 5)]
        cases += [parity_code_with_automorphisms(5, m) for m in (3, 4)]
        cases += [parity_code_with_automorphisms(2, m) for m in (3, 4, 5, 6)]
        cases += [hamming_code_with_automorphisms()]
        cases += [conjugated_repetition_code(rng, q, m) for q, m in ((2, 3), (3, 5), (4, 6))]
        cases += [reed_solomon_code(5, k) for k in (1, 2, 3, 4)] + [reed_solomon_code(7, 3)]
        tests = record_deletions(monkeypatch)
        distances, through = set(), []
        for code, X in cases:
            d = TestMinDistance.pair_scan(code.words)
            result = canonicalize(code, X, 0, 1)
            assert code._min_distance == d
            assert hamming_distance(result.pinned_constant, result.pinned_mixed) == d
            assert result.code.min_distance() == d
            # the library keeps d for the transformed code by isometry; the
            # pair scan checks it without the library's search
            assert TestMinDistance.pair_scan(result.code.words) == d
            distances.add(d)
            through += deletions_of(tests, code)
        assert {1, 2, 3, 4, 5} <= distances
        assert all(deleted[0] == 0 for deleted in through)
        # rounds r >= 2 through coordinate 0 ran (the Reed-Solomon codes)
        assert max(map(len, through)) == 4

    def test_parity_z5_takes_one_input_test(self, monkeypatch):
        code, X = parity_code_with_automorphisms(5, 5)
        tests = record_deletions(monkeypatch)
        result = canonicalize(code, X, 0, 1)
        assert code.min_distance() == 2 and result.certificate.passed
        assert deletions_of(tests, code) == [(0,)]
        # x is a Hamming isometry, so the transformed code keeps d unsearched
        assert len(deletions_of(tests, result.code)) == 0

    def test_mds_code_over_z7_needs_no_pair_scan(self, monkeypatch):
        # the [7,5,3] Reed-Solomon code: 16807 words, 141M pairs; through
        # coordinate 0 the search tests {0} and the 6 pairs {0, i}, then
        # 16807 > 7^4 ends it at r = 3
        code, X = reed_solomon_code(7, 5)
        assert len(code) == 7 ** 5
        tests = record_deletions(monkeypatch)
        scanned = TestMinDistance.counting_distance(monkeypatch)
        result = canonicalize(code, X, 0, 1)
        assert result.certificate.passed
        assert code._min_distance == 3 and result.pinned_mixed == (1, 1, 1, 0, 0, 0, 0)
        assert deletions_of(tests, code) == [(0,)] + [(0, i) for i in range(1, 7)]
        assert len(deletions_of(tests, result.code)) == 0
        # only the search for the first pair at distance 3 compares words
        assert scanned[0] < len(code)
        # a fresh code of the same words, searched with no group
        assert Code(code.ctx, result.code.words).min_distance() == 3

    def test_hamming_code_deletes_through_0_before_the_pair_scan(self, monkeypatch):
        # the [7,4,3] code: 16 words, 120 pairs. Through coordinate 0 round
        # 2 deletes 6 subsets, 96 word tests, so the search runs it; at
        # r = 3 it scans the pairs and stops at the first at distance 3
        code, X = hamming_code_with_automorphisms()
        tests = record_deletions(monkeypatch)
        scanned = TestMinDistance.counting_distance(monkeypatch)
        result = canonicalize(code, X, 0, 1)
        assert code._min_distance == 3 and result.certificate.passed
        assert deletions_of(tests, code) == [(0,)] + [(0, i) for i in range(1, 7)]
        assert len(deletions_of(tests, result.code)) == 0
        # the search and _first_pair_at_distance together, against the
        # 120 pairs of a scan from r = 2
        assert scanned[0] < 10
        assert result.pinned_constant == (0,) * 7
        assert result.pinned_mixed == (1, 1, 1, 0, 0, 0, 0)
        assert str(result.x) == "base=[[0,1];[0,1];[0,1];[0,1];[0,1];[0,1];[0,1]] top=[3,4,0,5,1,2,6]"
        assert Code(code.ctx, result.code.words).min_distance() == 3

    @pytest.mark.parametrize("q, m, tests, through", [(12, 2, 2, 1), (20, 3, 6, 3)])
    def test_repetition_code_runs_every_round_to_full_length(
        self, q, m, tests, through, monkeypatch
    ):
        # q words of distance m: every round r < m stays under both the
        # pigeonhole bound and the pair-scan switch and finds no collision,
        # so the search ends after its last round with d = m
        recorded = record_deletions(monkeypatch)
        code = Code(WreathContext(q, m), [(a,) * m for a in range(q)])
        assert code.min_distance() == TestMinDistance.pair_scan(code.words) == m
        assert len(deletions_of(recorded, code)) == tests
        code, X = conjugated_repetition_code(random.Random(89), q, m)
        result = canonicalize(code, X, 0, 1)
        assert code._min_distance == TestMinDistance.pair_scan(code.words) == m
        assert result.code.min_distance() == m and result.certificate.passed
        assert len(deletions_of(recorded, code)) == through
        assert len(deletions_of(recorded, result.code)) == 0

    def test_unchecked_group_leaves_the_distance_unsearched(self, tmp_path):
        code, _ = parity_z3_fixture()
        with open(os.path.join(DATA, "parity_z3_m4_aut.group"), encoding="ascii") as handle:
            text = handle.read()
        path = tmp_path / "bad.group"
        path.write_text(text + "base=[[1,0,2];[0,1,2];[0,1,2];[0,1,2]] top=[0,1,2,3]\n")
        X = load_group(str(path))
        assert not is_automorphism(X.generators[-1], code)
        with pytest.raises(HypothesisViolation, match="generator 4 is not an automorphism"):
            canonicalize(code, X, 0, 1)
        assert code._min_distance is None
        # automorphisms, but not transitive on the coordinates
        repetition = Code(WreathContext(2, 3), [(0, 0, 0), (1, 1, 1)])
        flip = WreathSubgroup(repetition.ctx, (WreathElement((S, S, S), ID3),))
        with pytest.raises(HypothesisViolation, match="not transitive"):
            canonicalize(repetition, flip, 0, 1)
        assert repetition._min_distance is None

    def test_cached_distance_is_not_searched_again(self, monkeypatch):
        code, X = parity_z3_fixture()
        d = code.min_distance()
        searched = []
        search = Code._search_min_distance

        def recorded(self, *args, **kwargs):
            searched.append(self)
            return search(self, *args, **kwargs)

        monkeypatch.setattr(Code, "_search_min_distance", recorded)
        result = canonicalize(code, X, 0, 1)
        assert result.pinned_mixed[:d] == (1,) * d
        assert searched == []


class TestCodeValidation:
    """``Code`` validates every word with ``check_point``, so every rejected
    set gives its message and every accepted one is accepted."""

    CTX = WreathContext(3, 4)

    def check_point_message(self, word) -> str:
        with pytest.raises(ValueError) as info:
            self.CTX.check_point(word)
        return str(info.value)

    @pytest.mark.parametrize(
        "words, bad",
        [
            # zip would truncate the long word to the short one's length
            ([(0, 1, 2), (0, 1, 2, 0)], (0, 1, 2)),
            ([(0, 1, 2, 0), (1, 1, 1, 1, 1)], (1, 1, 1, 1, 1)),
            ([(0, 1, 2, 0), (1, 3, 1, 1)], (1, 3, 1, 1)),
            ([(0, 1, 2, 0), (1, -1, 1, 1)], (1, -1, 1, 1)),
            # a float passes the range check; the type check names it
            ([(0, 1, 2, 0), (0.5, 1, 2, 0)], (0.5, 1, 2, 0)),
            ([(0, 1, 2, 0), (1.0, 1, 2, 0)], (1.0, 1, 2, 0)),
        ],
    )
    def test_rejects_with_the_check_point_message(self, words, bad):
        with pytest.raises(ValueError) as info:
            Code(self.CTX, words)
        assert str(info.value) == self.check_point_message(bad)

    def test_accepts_what_check_point_accepts(self):
        words = [(True, 0, 2, 1), (0, 1, 2, 0)]
        for w in words:
            self.CTX.check_point(w)
        assert Code(self.CTX, words).words == frozenset(map(tuple, words))

    @staticmethod
    def assert_every_word_once(code: Code) -> None:
        """``columns`` lists every word exactly once, in some order, and a
        re-read returns the same object."""
        columns = code.columns
        assert isinstance(columns, tuple) and len(columns) == 4
        rows = list(zip(*columns))
        assert len(rows) == len(code.words) and set(rows) == code.words
        assert code.columns is columns

    @pytest.mark.parametrize("seed", range(5))
    def test_columns_are_the_transpose_of_the_words(self, seed):
        rng = random.Random(seed)
        words = {tuple(rng.randrange(3) for _ in range(4)) for _ in range(rng.randint(1, 30))}
        code = Code(self.CTX, words)
        self.assert_every_word_once(code)
        # the transformed code keeps the image columns it was made from
        x = self.CTX.random_element(rng)
        transformed = code.transform(x)
        assert transformed.words == {x.apply(w) for w in words}
        assert transformed.columns == tuple(x.apply_columns(code.columns))
        self.assert_every_word_once(transformed)
        # parsed codes, from a file in sort order and from a shuffled one
        lines = [format_point(w) for w in sorted(words)]
        for order in (lines, rng.sample(lines, len(lines))):
            parsed = parse_code("3 4\n" + "\n".join(order) + "\n")
            assert parsed == code
            self.assert_every_word_once(parsed)


class TestCodeFiles:
    def test_round_trip(self):
        code, _ = even_weight_code()
        assert parse_code(format_code(code)) == code

    # q from 1 to 12 covers two-digit letters, where numeric and string
    # order differ; one word and m = 1 give the columns and words of length
    # 1 that _compose gathers on its own path
    @pytest.mark.parametrize("seed", range(36))
    def test_format_matches_the_per_word_writer(self, seed):
        rng = random.Random(seed)
        q, m = seed % 12 + 1, [1, rng.randint(2, 6)][seed % 2]
        size = [1, rng.randint(2, 60)][seed // 12 % 2]
        code = Code(WreathContext(q, m), [[rng.randrange(q) for _ in range(m)] for _ in range(size)])
        text = format_code(code)
        assert text == f"{q} {m}\n" + "".join(format_point(w) + "\n" for w in sorted(code.words))
        assert parse_code(text) == code

    # q <= 10 sorts the lines joined from the columns, larger q the words:
    # both must give numeric order, whatever order the columns hold
    @pytest.mark.parametrize("q", range(1, 13))
    def test_format_words_in_numeric_order(self, q):
        rng = random.Random(q)
        for m in range(1, 6):
            ctx = WreathContext(q, m)
            size = rng.randint(1, min(q**m, 40))
            code = Code(ctx, [[rng.randrange(q) for _ in range(m)] for _ in range(size)])
            lines = [format_point(w) for w in sorted(code.words)]
            repeated = lines + rng.choices(lines, k=rng.randint(1, 5))
            variants = {
                "built": code,
                "transformed": code.transform(ctx.random_element(rng)),
            }
            for name, order in (
                ("sorted", lines),
                ("shuffled", rng.sample(lines, len(lines))),
                ("repeated", rng.sample(repeated, len(repeated))),
            ):
                variants[name] = parse_code(f"{q} {m}\n" + "\n".join(order) + "\n")
            for name, variant in variants.items():
                expected = [format_point(w) for w in sorted(variant.words)]
                assert list(codes_module.format_words(variant)) == expected, (q, m, name)

    def test_format_past_the_string_table(self):
        # q over the kept str table of perm._strings: each word is written
        # by format_point
        code = Code(WreathContext(10**9 + 7, 3), [(0, 1, 2), (10**9 + 6, 5, 7), (3, 3, 3)])
        text = format_code(code)
        assert text == "1000000007 3\n0,1,2\n3,3,3\n1000000006,5,7\n"
        assert parse_code(text) == code

    def test_parse_reports_line_numbers(self):
        with pytest.raises(ValueError) as err:
            parse_code("2 3\n0,0,0\n0,7,0\n")
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 3\n0,0,0\n0,1\n", "line 3: point has length 2, expected 3"),
            ("2 3\n0,0,0\n\n0,1,0,1\n", "line 4: point has length 4, expected 3"),
            ("2 3\n0,0,0\n0,2,0\n", "line 3: point entry 2 out of range 0..1"),
        ],
    )
    def test_parse_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_code(text)
        assert str(err.value) == message

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_code("0,0,0\n")


def line_orders(text: str, rng: random.Random) -> dict[str, str]:
    """A code file's word lines sorted, reversed, shuffled, and with some
    lines repeated, sorted or shuffled; the comments and the header stay in
    front."""

    def numeric(line: str) -> tuple[int, ...]:
        return tuple(map(int, line.split(",")))

    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line and line[0] != "#") + 1
    head, words = lines[:k], lines[k:]
    repeated = words + rng.choices(words, k=max(1, len(words) // 3))
    orders = {
        "sorted": sorted(words, key=numeric),
        "reversed": words[::-1],
        "shuffled": rng.sample(words, len(words)),
        "repeated-sorted": sorted(repeated, key=numeric),
        "repeated-shuffled": rng.sample(repeated, len(repeated)),
    }
    return {name: "\n".join(head + order) + "\n" for name, order in orders.items()}


class TestLineOrder:
    """A code file's words may come in any order and repeat: every order
    reads as the same code, with the same sort and distance, and gives the
    same ``code-canon`` report. A file in sort order is taken as sorted; any
    other is sorted once."""

    GOLDEN_FILES = {
        "code_canon.txt", "code_canon_z3.txt", "code_canon_q10.txt", "code_canon_q12.txt",
    }

    @staticmethod
    def report(code_path: str, group_path: str, gamma: str, nu: str) -> str:
        out = io.StringIO()
        assert main(["code-canon", code_path, group_path, "--gamma", gamma, "--nu", nu], out=out) == 0
        return out.getvalue()

    def check_orders(self, text, seed, tmp_path, monkeypatch, group_path, gamma, nu):
        reference = parse_code(text)
        sorts = []

        def counted(items):
            items = list(items)
            sorts.append((len(items), type(items[0])))
            return sorted(items)

        monkeypatch.setattr(codes_module, "sorted", counted, raising=False)
        # one-digit letters: the output lines are sorted as strings
        output = (len(reference), str if reference.ctx.gamma_size <= 10 else tuple)
        reports = set()
        for name, variant in line_orders(text, random.Random(seed)).items():
            code = parse_code(variant)
            assert code == reference, name
            assert code.sorted_words() == sorted(code.words), name
            assert code.min_distance() == reference.min_distance(), name
            path = tmp_path / f"{name}.code"
            path.write_text(variant, encoding="ascii")
            sorts.clear()
            reports.add(self.report(str(path), group_path, gamma, nu))
            # the input words are sorted once, unless the file is in sort
            # order; the transformed code once to be written: its lines for
            # q <= 10, else its words
            assert sorts == ([] if name == "sorted" else [(len(code), tuple)]) + [output], name
        assert len(reports) == 1
        return reports.pop()

    @pytest.mark.parametrize("golden", sorted(GOLDEN_FILES))
    def test_golden_code_files_in_any_order(self, golden, tmp_path, monkeypatch):
        argv = GOLDEN_COMMANDS[golden]
        code_file, group_file, gamma, nu = argv[1], argv[2], argv[4], argv[6]
        with open(os.path.join(DATA, code_file), encoding="ascii") as handle:
            text = handle.read()
        group_path = os.path.join(DATA, group_file)
        report = self.check_orders(text, len(text), tmp_path, monkeypatch, group_path, gamma, nu)
        with open(os.path.join(GOLDEN, golden), encoding="ascii") as handle:
            assert report == handle.read()

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_parity_code_in_any_order(self, seed, tmp_path, monkeypatch):
        rng = random.Random(seed)
        code, X = conjugated_code(*parity_code_with_automorphisms(3, 4), rng)
        group_path = tmp_path / "aut.group"
        group_path.write_text("3 4\n" + "".join(f"{g}\n" for g in X.generators), encoding="ascii")
        report = self.check_orders(
            format_code(code), seed, tmp_path, monkeypatch, str(group_path), "0", "1"
        )
        assert "transformed-min-distance: 2\n" in report

    def test_two_digit_letters_written_in_numeric_order(self, tmp_path):
        # q = 11: the pinned words (10,10,10) and (2,2,2) hold 10 and 2 at
        # every coordinate, and as strings "10,10,10" sorts first
        code, X = conjugated_repetition_code(random.Random(11), 11, 3)
        code_path, group_path = tmp_path / "q11.code", tmp_path / "q11.group"
        code_path.write_text(format_code(code), encoding="ascii")
        group_path.write_text("11 3\n" + "".join(f"{g}\n" for g in X.generators), encoding="ascii")
        report = self.report(str(code_path), str(group_path), "10", "2")
        words = [
            tuple(map(int, line.split(": ")[1].split(",")))
            for line in report.splitlines()
            if line.startswith("transformed-word ")
        ]
        assert words == sorted(canonicalize(code, X, 10, 2).code.words)
        assert words.index((2, 2, 2)) < words.index((10, 10, 10))

    def test_sorted_words_returns_a_new_list(self):
        for code in (parse_code("2 2\n0,0\n1,1\n"), parse_code("2 2\n1,1\n0,0\n1,1\n")):
            first = code.sorted_words()
            first.append((1, 0))
            first[0] = (0, 1)
            assert code.sorted_words() == [(0, 0), (1, 1)]
            assert code.sorted_words() is not code.sorted_words()


class TestParseParity:
    """``parse_code`` converts each line to ints and validates once, in
    ``Code``; on failure it parses again line by line. It must return the
    same ``Code`` as the per-line reference parse, or the same error."""

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text)
        except ValueError as exc:
            return type(exc), str(exc)

    def assert_parity(self, text):
        expected = self.outcome(reference_parse_code, text)
        assert self.outcome(parse_code, text) == expected
        return expected

    BAD_WORDS = {
        "short": lambda rng, q, m, word: word[:-1],
        "long": lambda rng, q, m, word: word + [str(rng.randrange(q))],
        "out-of-range": lambda rng, q, m, word: _replace(rng, word, str(rng.choice([q, q + 7, -1]))),
        "non-integer": lambda rng, q, m, word: _replace(rng, word, rng.choice(["x", "1.5", "0x1", "1e0"])),
        "empty-entry": lambda rng, q, m, word: _replace(rng, word, rng.choice(["", " "])),
    }

    @pytest.mark.parametrize("kind", sorted(BAD_WORDS))
    def test_bad_word_after_600_good_lines(self, kind):
        rng = random.Random(kind)
        q, m = 5, 5
        lines = [f"{q} {m}"] + [",".join(str(rng.randrange(q)) for _ in range(m)) for _ in range(600)]
        bad = self.BAD_WORDS[kind](rng, q, m, lines[1].split(","))
        lines.append(",".join(bad))
        lines += lines[1:20]
        expected = self.assert_parity("\n".join(lines) + "\n")
        assert expected[0] is ParseError and expected[1].startswith("line 602: ")

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzzed_code_files(self, seed):
        rng = random.Random(seed)
        q, m = rng.randint(1, 5), rng.randint(1, 5)
        lines = [f"{q} {m}"]
        if rng.random() < 0.2:
            lines.insert(0, rng.choice(["# a comment", "", "   "]))
        for _ in range(rng.randint(0, 40)):
            roll = rng.random()
            if roll < 0.1:
                lines.append(rng.choice(["", "  ", "# comment", "  # indented comment"]))
            elif roll < 0.25 and len(lines) > 1:
                lines.append(rng.choice(lines[1:]))  # duplicate of an earlier line
            else:
                word = [str(rng.randrange(q)) for _ in range(m)]
                if rng.random() < 0.08:
                    word = self.BAD_WORDS[rng.choice(sorted(self.BAD_WORDS))](rng, q, m, word)
                spaced = rng.random() < 0.1
                lines.append((", " if spaced else ",").join(word))
        self.assert_parity("\n".join(lines) + rng.choice(["", "\n"]))

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "2 3\n", "2 3\n\n# none\n", "2\n0,0\n", "2 x\n0,0\n",
        "0 3\n0,0,0\n", "2 3\n0,0,0\n0,0,0\n", "1 1\n0\n", "2 3\n0,0,\n", "2 3\n,0,0\n",
    ])
    def test_edge_files(self, text):
        self.assert_parity(text)

    # spellings int() accepts that are not canonical, Arabic-Indic and
    # Devanagari digits among them: the table is keyed by the entry as
    # written, so "01" and "1" convert to one letter
    @pytest.mark.parametrize("text", [
        "12 3\n01,1,2\n1,1,2\n",
        "12 3\n+1,1,2\n-0,0,0\n",
        "12 3\n 1, 1 ,2\n1,\t2,0\n",
        "12 3\n1_0,1,2\n10,1,2\n",
        "12 3\n\u0661,\u0968,2\n1,2,0\n",
        "12 3\n1__0,1,2\n",
        "9 3\n1_0,1,2\n",
        "12 3\n\u0661\u0660,+0_2,011\n",
    ])
    def test_spellings_int_accepts(self, text):
        self.assert_parity(text)

    def test_huge_alphabet_builds_no_table_by_q(self):
        text = "1000000007 3\n0,1,2\n1000000006,5,7\n3,3,3\n"
        start = time.perf_counter()
        code = parse_code(text)
        assert time.perf_counter() - start < 1.0
        assert code == self.assert_parity(text)
        assert (1000000006, 5, 7) in code and len(code) == 3


def _replace(rng: random.Random, word: list[str], entry: str) -> list[str]:
    word = list(word)
    word[rng.randrange(len(word))] = entry
    return word
