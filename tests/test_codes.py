import itertools
import random

import pytest

from wreathact import (
    Code,
    HypothesisViolation,
    Permutation,
    WreathContext,
    WreathElement,
    WreathSubgroup,
    canonicalize,
    format_code,
    hamming_distance,
    is_automorphism,
    parse_code,
)
import wreathact.codes as codes_module
from helpers import hamming_code_with_automorphisms, p, we

S = p(1, 0)
ID2 = Permutation.identity(2)
ID3 = Permutation.identity(3)


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


class TestCodeFiles:
    def test_round_trip(self):
        code, _ = even_weight_code()
        assert parse_code(format_code(code)) == code

    def test_parse_reports_line_numbers(self):
        with pytest.raises(ValueError) as err:
            parse_code("2 3\n0,0,0\n0,7,0\n")
        assert "line 3" in str(err.value)

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_code("0,0,0\n")
