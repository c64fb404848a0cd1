import io
import math
import os
import random
import time
from collections import Counter

import pytest

import wreathact.normalize as normalize_module
from wreathact import (
    GenGroup,
    HypothesisViolation,
    Permutation,
    Transversal,
    WreathContext,
    WreathElement,
    WreathSubgroup,
    adjust_transversal,
    build_transversal,
    conjugate_subgroup,
    embed_in_wreath,
    normalizing_element,
    same_group,
    sift_embedding,
)
from wreathact.cli import load_group, main
from wreathact.perm import StabilizerChain, random_permutation, symmetric_gens
from helpers import (
    block_intransitive_subgroup,
    chain_component_flags,
    chain_sift_embedding,
    conjugated_full_wreath_product,
    delta_orbit_with_witnesses,
    cycle,
    diagonal_instance,
    full_wreath_product,
    p,
    random_wreath_subgroup,
    raw_closure,
    raw_component,
    raw_wreath,
    sym_perms,
    tuple_closure,
    we,
)

S = p(1, 0)
ID2 = Permutation.identity(2)


def diagonal_w22() -> WreathSubgroup:
    ctx = WreathContext(2, 2)
    return WreathSubgroup(
        ctx, (WreathElement((S, S), ID2), WreathElement((ID2, ID2), S))
    )


class TestBuildTransversal:
    def test_base_subgroup_gets_identity_everywhere(self):
        ctx = WreathContext(2, 3)
        X = WreathSubgroup(
            ctx, (we([[1, 0], [0, 1], [1, 0]], [0, 1, 2]),)
        )
        t = build_transversal(X)
        assert t.reps == (0, 1, 2)
        for d in range(3):
            assert t.entries[d] == ID2

    def test_swap_generator_is_its_own_witness(self):
        ctx = WreathContext(2, 2)
        g = WreathElement((S, ID2), S)
        X = WreathSubgroup(ctx, (g,))
        t = build_transversal(X)
        assert t.orbits == ((0, 1),)
        assert t.reps == (0,)
        assert t.entries[0] == ID2
        assert t.entries[1] == g.base[0] == S

    def test_tops_carry_rep_to_coordinate(self):
        # entries[d] is the entry at the representative of an element of X
        # whose top carries the representative to d
        rng = random.Random(61)
        for _ in range(25):
            q = rng.choice([2, 3])
            m = rng.choice([2, 3, 4])
            ctx = WreathContext(q, m)
            gens = tuple(ctx.random_element(rng) for _ in range(2))
            X = WreathSubgroup(ctx, gens)
            t = build_transversal(X)
            for d in range(m):
                rep = t.rep_of[d]
                w = delta_orbit_with_witnesses(X, rep)[1][d]
                assert w.top[rep] == d
                assert t.entries[d] == w.base[rep]
                assert t.entries[rep] == Permutation.identity(q)

    def test_preferred_representative(self):
        ctx = WreathContext(2, 2)
        g = WreathElement((S, ID2), S)
        X = WreathSubgroup(ctx, (g,))
        t = build_transversal(X, preferred_reps=(1,))
        assert t.reps == (1,)
        assert t.rep_of == {0: 1, 1: 1}
        assert t.entries[1] == ID2
        assert t.entries[0] == g.base[1] == ID2

    def test_conflicting_representatives_rejected(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((ID2, ID2), S),))
        with pytest.raises(ValueError):
            build_transversal(X, preferred_reps=(0, 1))
        with pytest.raises(ValueError):
            build_transversal(X, preferred_reps=(5,))


class TestAdjustTransversal:
    def test_already_fixing_transversal_unchanged(self):
        X = diagonal_w22()
        t = build_transversal(X)
        adjusted = adjust_transversal(X, t, (0, 0))
        # the swap generator's entry at the representative is the identity,
        # which already fixes 0
        assert adjusted.entries == t.entries

    def test_moving_entry_gets_corrected(self):
        # t_1 = ((s,id); (0 1)) has entry s at the representative, moving 0
        ctx = WreathContext(2, 2)
        g1 = WreathElement((S, ID2), S)
        g2 = WreathElement((S, S), ID2)
        X = WreathSubgroup(ctx, (g1, g2))
        t = build_transversal(X)
        assert t.entries[1] == g1.base[0]
        assert t.entries[1][0] != 0
        adjusted = adjust_transversal(X, t, (0, 0))
        assert adjusted.entries[1][0] == 0
        assert X.component(0).contains(adjusted.entries[1] * t.entries[1].inverse())

    def test_adjusted_entries_fix_the_point(self):
        # each corrected entry fixes phi[d] and stays in the coset of the
        # component at the representative, so it is still the entry of an
        # element of X carrying the representative to d
        rng = random.Random(67)
        for _ in range(20):
            q = rng.choice([2, 3])
            m = rng.choice([2, 3])
            _, X, _, _ = diagonal_instance(rng, q, m, transitive_component=True)
            phi = tuple(rng.randrange(q) for _ in range(m))
            t = build_transversal(X)
            adjusted = adjust_transversal(X, t, phi)
            for d in range(m):
                rep = t.rep_of[d]
                assert adjusted.entries[d][phi[d]] == phi[d]
                coset = adjusted.entries[d] * t.entries[d].inverse()
                assert X.component(rep).contains(coset)
                assert adjusted.entries[rep] == Permutation.identity(q)

    def test_no_wreath_products_at_scale(self, monkeypatch):
        # the transversal and its corrections are computed on Gamma alone
        X = conjugated_full_wreath_product(random.Random(89), 8, 12)
        rng = random.Random(97)
        phi = tuple(rng.randrange(8) for _ in range(12))
        calls = []
        multiply = WreathElement.__mul__

        def counting(a, b):
            calls.append(None)
            return multiply(a, b)

        monkeypatch.setattr(WreathElement, "__mul__", counting)
        t = build_transversal(X)
        adjusted = adjust_transversal(X, t, phi)
        assert len(calls) == 0
        corrected = [d for d in range(12) if adjusted.entries[d] != t.entries[d]]
        assert corrected
        for d in range(12):
            assert adjusted.entries[d][phi[d]] == phi[d]

    def test_intransitive_component_is_rejected_by_name(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((ID2, ID2), S),))
        with pytest.raises(HypothesisViolation) as err:
            adjust_transversal(X, build_transversal(X), (0, 0))
        assert err.value.delta == 0
        assert "coordinate 0" in str(err.value)


class TestNormalizingElement:
    def test_constant_components_give_identity(self):
        X = diagonal_w22()
        result = normalizing_element(X)
        assert result.x == X.ctx.identity_element()
        assert result.ok

    def test_conjugated_instance_is_normalized(self):
        rng = random.Random(71)
        X0 = diagonal_w22()
        y = WreathElement((ID2, S), ID2)
        X = conjugate_subgroup(X0, y)
        result = normalizing_element(X)
        assert result.ok
        assert result.x.top.is_identity()
        comp0 = result.conjugated.component(0).enumerate_elements()
        comp1 = result.conjugated.component(1).enumerate_elements()
        assert comp0 == comp1
        assert len(X.enumerate_elements()) == len(
            result.conjugated.enumerate_elements()
        )

    def test_fixed_point_variant(self):
        X0 = diagonal_w22()
        y = WreathElement((ID2, S), ID2)
        X = conjugate_subgroup(X0, y)
        result = normalizing_element(X, phi=(0, 0))
        assert result.ok
        assert result.x.apply((0, 0)) == (0, 0)

    def test_fixed_point_requires_transitive_components(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((ID2, ID2), S),))
        with pytest.raises(HypothesisViolation) as err:
            normalizing_element(X, phi=(0, 0))
        assert err.value.delta == 0

    def test_delta_orbits_are_preserved(self):
        rng = random.Random(73)
        for _ in range(10):
            _, X, _, _ = diagonal_instance(rng, 3, 3)
            result = normalizing_element(X)
            assert result.conjugated.delta_orbits == X.delta_orbits

    def test_components_conjugate_along_orbits(self):
        # along each coordinate orbit, the component at d is the component at
        # the representative conjugated by the transversal entry
        rng = random.Random(79)
        for _ in range(15):
            q = rng.choice([2, 3])
            m = rng.choice([2, 3])
            _, X, _, _ = diagonal_instance(rng, q, m)
            t = build_transversal(X)
            for d in range(m):
                rep = t.rep_of[d]
                entry = t.entries[d]
                reference = X.component(rep).enumerate_elements()
                conjugated = {perm.conjugate(entry) for perm in reference}
                assert X.component(d).enumerate_elements() == conjugated

    def test_idempotence(self):
        rng = random.Random(83)
        for _ in range(10):
            _, X, _, _ = diagonal_instance(rng, 3, 3)
            first = normalizing_element(X)
            second = normalizing_element(first.conjugated)
            assert second.ok
            for d in range(3):
                assert (
                    second.conjugated.component(d).enumerate_elements()
                    == first.conjugated.component(d).enumerate_elements()
                )


TRANSVERSAL_INSTANCES = {
    "diagonal": lambda rng: diagonal_instance(rng, 3, 4, transitive_component=True)[1],
    "block-intransitive": lambda rng: block_intransitive_subgroup(rng, 3, 4),
    "conjugated-full": lambda rng: conjugated_full_wreath_product(rng, 3, 3),
}


class TestTransversalX:
    """``Transversal.x`` is the one definition of the normal-form element."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", TRANSVERSAL_INSTANCES)
    def test_inverse_entries_and_identity_top(self, name, seed):
        X = TRANSVERSAL_INSTANCES[name](random.Random(seed))
        t = build_transversal(X)
        m = X.ctx.delta_size
        assert t.x.top == Permutation.identity(m)
        assert t.x.base == tuple(t.entries[d].inverse() for d in range(m))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", TRANSVERSAL_INSTANCES)
    def test_is_the_normalizing_element(self, name, seed):
        rng = random.Random(seed)
        X = TRANSVERSAL_INSTANCES[name](rng)
        q, m = X.ctx.gamma_size, X.ctx.delta_size
        phi = tuple(rng.randrange(q) for _ in range(m))
        for reps in ((), (X.delta_orbits[0][-1],)):
            t = build_transversal(X, reps)
            assert normalizing_element(X, None, reps).x == t.x
            # every component of these instances is transitive
            adjusted = adjust_transversal(X, t, phi)
            assert normalizing_element(X, phi, reps).x == adjusted.x
            assert adjusted.x.apply(phi) == phi


def raw_components(X: WreathSubgroup) -> list[set[tuple[int, ...]]]:
    """Every component of X by raw-tuple closure, sharing no library path."""
    q, m = X.ctx.gamma_size, X.ctx.delta_size
    elements = raw_closure([raw_wreath(g) for g in X.generators], q, m)
    return [raw_component(elements, d) for d in range(m)]


def spoiled_transversal(monkeypatch, coordinate: int, spoiler: Permutation) -> None:
    """Make ``build_transversal`` premultiply the entry at ``coordinate`` by
    ``spoiler``."""
    build = normalize_module.build_transversal

    def spoiled(X, preferred_reps=()):
        t = build(X, preferred_reps)
        entries = dict(t.entries)
        entries[coordinate] = spoiler * entries[coordinate]
        return Transversal(t.orbits, t.reps, entries, t.rep_of)

    monkeypatch.setattr(normalize_module, "build_transversal", spoiled)


def transposition_w32() -> WreathSubgroup:
    """Component <(0 1)> at both coordinates of Sym(3) wr Sym(2)."""
    return WreathSubgroup(
        WreathContext(3, 2),
        (we([[1, 0, 2], [1, 0, 2]], [0, 1]), we([[0, 1, 2], [0, 1, 2]], [1, 0])),
    )


class TestOrbitCertificate:
    """``component_flags`` from the conjugate's entry transversal at each
    representative, against the per-coordinate ``same_group`` it replaces
    and the raw-tuple component oracle."""

    @staticmethod
    def instances():
        rng = random.Random(107)
        for _ in range(6):
            q, m = rng.choice([2, 3]), rng.choice([2, 3])
            yield diagonal_instance(rng, q, m, transitive_component=True)[1]
            yield diagonal_instance(rng, q, m)[1]
            yield block_intransitive_subgroup(rng, q, m)
        for q, m in ((2, 3), (3, 2)):
            yield conjugated_full_wreath_product(rng, q, m)

    def test_flags_agree_with_per_coordinate_comparison_and_oracle(self):
        rng = random.Random(109)
        with_phi = sifted = 0
        for X in self.instances():
            q, m = X.ctx.gamma_size, X.ctx.delta_size
            oracle = raw_components(X)
            phis = [None]
            if all(X.component(d).is_transitive() for d in range(m)):
                phis.append(tuple(rng.randrange(q) for _ in range(m)))
            for phi in phis:
                result = normalizing_element(X, phi)
                conjugated_oracle = raw_components(result.conjugated)
                for d in range(m):
                    rep = result.transversal.rep_of[d]
                    flag = result.component_flags[d]
                    assert flag is same_group(
                        result.conjugated.component(d), X.component(rep)
                    )
                    assert flag is (conjugated_oracle[d] == oracle[rep])
                    assert flag
                    entry = result.conjugated.entry_transversal(rep)[d]
                    sifted += not entry.is_identity()
                with_phi += phi is not None
        assert with_phi >= 6
        assert sifted > 0  # some entries are corrections, not the identity

    def test_fallback_keeps_a_component_that_the_entry_normalizes(self, monkeypatch):
        # component A3 at both coordinates; a transposition normalizes A3
        # but lies outside it, so only the fallback can say yes
        id3 = Permutation.identity(3)
        c = p(1, 2, 0)
        X = WreathSubgroup(
            WreathContext(3, 2),
            (WreathElement((c, c), ID2), WreathElement((id3, id3), S)),
        )
        outside = p(1, 0, 2)
        assert not X.component(0).contains(outside)
        spoiled_transversal(monkeypatch, 1, outside)
        calls = []
        comparing = []
        direct_sifts = []
        compare = normalize_module.same_group
        contains = GenGroup.contains

        def counting(a, b):
            calls.append(None)
            comparing.append(None)
            try:
                return compare(a, b)
            finally:
                comparing.pop()

        def sifting(self, g):
            if not comparing:
                direct_sifts.append(g)
            return contains(self, g)

        monkeypatch.setattr(normalize_module, "same_group", counting)
        monkeypatch.setattr(GenGroup, "contains", sifting)
        result = normalizing_element(X)
        assert len(calls) == 2  # the representative, then the fallback at 1
        # normalizing_element sifts nothing itself: only same_group does
        assert direct_sifts == []
        assert not result.x.base[1].is_identity()
        assert result.component_flags == {0: True, 1: True}
        assert raw_components(result.conjugated)[1] == raw_components(X)[0]
        assert result.ok

    def test_fallback_says_no_outside_the_normalizer(self, monkeypatch, tmp_path):
        # the 3-cycle carries <(0 1)> to another transposition group, so
        # the flag must be no
        X = transposition_w32()
        group = tmp_path / "transposition.group"
        group.write_text("3 2\n" + "".join(f"{g}\n" for g in X.generators), encoding="ascii")
        spoiled_transversal(monkeypatch, 1, p(1, 2, 0))
        result = normalizing_element(X)
        oracle = raw_components(result.conjugated)
        assert result.component_flags == {0: True, 1: False}
        assert (oracle[1] == raw_components(X)[0]) is False
        assert not result.ok
        out = io.StringIO()
        assert main(["normalize", str(group)], out=out) == 2
        text = out.getvalue()
        assert "components-constant: no\n" in text
        assert text.endswith("certificate: FAIL\n")


    def test_spoiled_representative_is_compared_coordinate_by_coordinate(
        self, monkeypatch
    ):
        # x moves the component at the representative itself, so the
        # entry transversal proves nothing and every flag is the exact one
        X = transposition_w32()
        spoiled_transversal(monkeypatch, 0, p(1, 2, 0))
        result = normalizing_element(X)
        oracle = raw_components(result.conjugated)
        reference = raw_components(X)[0]
        assert result.component_flags == {0: False, 1: True}
        assert [oracle[d] == reference for d in range(2)] == [False, True]


class TestCertificateCost:
    """The certificate builds no stabilizer chain per coordinate, and the
    conjugate's components only at the representatives."""

    @staticmethod
    def count_builds(monkeypatch):
        chains = []
        components = []
        init = StabilizerChain.__init__
        build = WreathSubgroup._component_data

        def counting_init(self, *args):
            chains.append(None)
            init(self, *args)

        def counting_build(self, delta):
            if delta not in self._components:
                components.append((self, delta))
            return build(self, delta)

        monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
        monkeypatch.setattr(WreathSubgroup, "_component_data", counting_build)
        return chains, components

    def test_normalizing_builds_no_chain_without_phi(self, monkeypatch):
        X = conjugated_full_wreath_product(random.Random(113), 12, 24)
        chains, components = self.count_builds(monkeypatch)
        result = normalizing_element(X)
        assert result.ok
        assert chains == []
        built = [d for owner, d in components if owner is result.conjugated]
        assert built == list(result.transversal.reps) == [0]

    def test_embedding_builds_no_chain(self, monkeypatch):
        X = conjugated_full_wreath_product(random.Random(127), 12, 24)
        rng = random.Random(131)
        phi = tuple(rng.randrange(12) for _ in range(24))
        chains, components = self.count_builds(monkeypatch)
        result = embed_in_wreath(X, 0, phi)
        assert result.ok and result.normalization.fixes_point
        assert chains == []
        assert result.G._chain is None and result.H._chain is None
        built = [d for owner, d in components if owner is result.conjugated]
        assert built == [0]

    def test_embedding_at_scale_builds_no_chain_of_degree_m(self):
        X = conjugated_full_wreath_product(random.Random(139), 6, 60)
        rng = random.Random(149)
        phi = tuple(rng.randrange(6) for _ in range(60))
        start = time.perf_counter()
        result = embed_in_wreath(X, 0, phi)
        elapsed = time.perf_counter() - start
        assert result.ok and result.normalization.fixes_point
        assert result.H._chain is None
        assert elapsed < 0.05

    @pytest.mark.parametrize("run", ["embed", "normalize"])
    def test_sym100_wr_sym10_with_phi_builds_no_chain(self, run, monkeypatch):
        # each correction is read off G's witness table: no chain of
        # Sym(100), which took about 1 s to build
        X = conjugated_full_wreath_product(random.Random(151), 100, 10)
        rng = random.Random(157)
        phi = tuple(rng.randrange(100) for _ in range(10))
        chains, _ = self.count_builds(monkeypatch)
        start = time.perf_counter()
        if run == "embed":
            result = embed_in_wreath(X, 0, phi)
            normalization = result.normalization
        else:
            result = normalization = normalizing_element(X, phi)
        elapsed = time.perf_counter() - start
        assert result.ok and normalization.fixes_point
        assert chains == []
        assert elapsed < 0.3

    def test_several_orbits_build_the_conjugate_at_each_representative(
        self, monkeypatch
    ):
        X = block_intransitive_subgroup(random.Random(137), 3, 6)
        assert len(X.delta_orbits) == 3
        chains, components = self.count_builds(monkeypatch)
        result = normalizing_element(X)
        assert result.ok
        built = [d for owner, d in components if owner is result.conjugated]
        assert built == list(result.transversal.reps)


class TestTopsByConstruction:
    """``sift_embedding`` takes a top that is a generator of H, or the
    identity, as a member; any other top is sifted into H, so it passes
    exactly when it lies in H."""

    G = GenGroup(3, (p(1, 0, 2), p(1, 2, 0)))
    ROTATION = p(1, 2, 3, 4, 0)
    SWAP = p(1, 0, 2, 3, 4)

    def cyclic_top_group(self) -> GenGroup:
        return GenGroup(5, (self.ROTATION,))

    def element(self, top: Permutation, k: int = 0) -> WreathElement:
        base = [Permutation.identity(3)] * 5
        base[k % 5] = self.G.generators[k % 2]
        return WreathElement(base, top)

    def test_generator_and_identity_tops_build_no_chain_of_H(self):
        H = self.cyclic_top_group()
        gens = (self.element(self.ROTATION, 0), self.element(Permutation.identity(5), 1))
        assert sift_embedding(gens, self.G, H).passed
        assert H._chain is None

    def test_a_top_in_H_but_not_a_generator_is_sifted(self):
        H = self.cyclic_top_group()
        square = self.ROTATION * self.ROTATION
        assert square not in H.generators and not square.is_identity()
        certificate = sift_embedding(
            (self.element(self.ROTATION, 0), self.element(square, 1)), self.G, H
        )
        assert certificate.passed and certificate.failures == ()
        assert H._chain is not None

    def test_each_tampered_top_gives_one_top_failure(self):
        H = self.cyclic_top_group()
        assert not H.contains(self.SWAP)
        tampered = {1, 3}
        tops = [self.ROTATION, self.ROTATION * self.ROTATION]
        gens = tuple(
            self.element(self.SWAP if k in tampered else tops[k % 2], k) for k in range(5)
        )
        certificate = sift_embedding(gens, self.G, H)
        assert not certificate.passed
        assert certificate.failures == ((1, "top", None), (3, "top", None))

    def test_tampered_top_of_the_conjugate_is_sifted(self, monkeypatch):
        # identity entries along the tampered top leave the conjugate's
        # transversal and component as they were, so only its induced
        # group shows the top outside H
        ctx = WreathContext(3, 5)
        id3, id5 = Permutation.identity(3), Permutation.identity(5)
        X = WreathSubgroup(
            ctx,
            tuple(WreathElement((g,) + (id3,) * 4, id5) for g in self.G.generators)
            + (WreathElement((id3,) * 5, self.ROTATION),),
        )
        other = p(1, 3, 4, 2, 0)
        assert not self.cyclic_top_group().contains(other)
        tamper_conjugate(monkeypatch, lambda gens: gens[:2] + (WreathElement(gens[2].base, other),))
        sifts = count_sifts(monkeypatch)
        result = embed_in_wreath(X)
        assert len(sifts) == 1
        assert result.certificate.failures == ((2, "top", None),)

    def test_tampered_top_of_an_embedding_fails_exactly(self):
        ctx = WreathContext(3, 5)
        id3, id5 = Permutation.identity(3), Permutation.identity(5)
        X = conjugate_subgroup(
            WreathSubgroup(
                ctx,
                tuple(WreathElement((g,) + (id3,) * 4, id5) for g in self.G.generators)
                + (WreathElement((id3,) * 5, self.ROTATION),),
            ),
            WreathElement((p(2, 0, 1), id3, p(0, 2, 1), p(1, 0, 2), id3), id5),
        )
        result = embed_in_wreath(X)
        assert result.ok and result.H._chain is None
        gens = list(result.conjugated.generators)
        gens[2] = WreathElement(gens[2].base, self.SWAP)
        certificate = sift_embedding(tuple(gens), result.G, result.H)
        assert certificate.failures == ((2, "top", None),)


def dihedral_wreath(rng: random.Random, q: int, m: int) -> WreathSubgroup:
    """The diagonal dihedral group of order 2q times the coordinate
    Sym(m), conjugated by a random base element: G is a proper, transitive
    subgroup of Sym(q), so most of Sym(q) lies outside it."""
    ctx = WreathContext(q, m)
    id_q, id_m = Permutation.identity(q), Permutation.identity(m)
    reflection = Permutation([(-i) % q for i in range(q)])
    gens = [WreathElement((g,) * m, id_m) for g in (cycle(q), reflection)]
    gens += [WreathElement((id_q,) * m, h) for h in symmetric_gens(m)]
    y = WreathElement(tuple(random_permutation(rng, q) for _ in range(m)), id_m)
    return conjugate_subgroup(WreathSubgroup(ctx, tuple(gens)), y)


def corrections_of(normalization, rep: int) -> dict[int, Permutation]:
    """The corrections read off the conjugate: the inverses of its entry
    transversal at ``rep``."""
    return {d: e.inverse() for d, e in normalization.conjugated.entry_transversal(rep).items()}


def count_sifts(monkeypatch) -> list[tuple[WreathElement, ...]]:
    """Record the generators of every ``sift_embedding`` call that
    ``embed_in_wreath`` makes."""
    sifts = []
    sift = normalize_module.sift_embedding

    def recorded(generators, *args):
        sifts.append(generators)
        return sift(generators, *args)

    monkeypatch.setattr(normalize_module, "sift_embedding", recorded)
    return sifts


def tamper_conjugate(monkeypatch, change) -> None:
    """Make the normal form's conjugate carry the generators ``change``
    makes of its own."""
    conjugate = normalize_module.conjugate_subgroup

    def tampered(X, x):
        Y = conjugate(X, x)
        return WreathSubgroup(Y.ctx, change(Y.generators))

    monkeypatch.setattr(normalize_module, "conjugate_subgroup", tampered)


def repetition_q12() -> WreathSubgroup:
    """G = Sym(12), where ``--fix`` makes base entries that are neither the
    identity nor a generator (the ``embed_fix.txt`` golden)."""
    data = os.path.join(os.path.dirname(__file__), "data")
    return load_group(os.path.join(data, "repetition_q12_m4_aut.group"))


class TestCertificateByConstruction:
    """The conjugate's BFS at delta1 carries every base entry into G: its
    transversal entries are the identity or inverses of G's BFS witnesses,
    and its Schreier entries are G's generators. Only when that reading
    fails is anything sifted, and ``sift_embedding`` is exact."""

    INSTANCES = {
        "full-sym7-m4": lambda: conjugated_full_wreath_product(random.Random(211), 7, 4),
        "dihedral7-m5": lambda: dihedral_wreath(random.Random(223), 7, 5),
        "diagonal-q5-m4": lambda: diagonal_instance(
            random.Random(227), 5, 4, transitive_component=True, delta_transitive=True
        )[1],
        "repetition-q12-m4": repetition_q12,
    }
    PHI = (3, 7, 1, 10)

    def phi(self, X: WreathSubgroup) -> tuple[int, ...]:
        q, m = X.ctx.gamma_size, X.ctx.delta_size
        return tuple(self.PHI[d % 4] % q for d in range(m))

    @staticmethod
    def known(G: GenGroup) -> set[tuple[int, ...]]:
        return {g.images for g in G.generators} | {tuple(range(G.degree))}

    @pytest.mark.parametrize("with_phi", [False, True])
    @pytest.mark.parametrize("name", INSTANCES)
    def test_embed_and_normalize_build_no_chain(self, name, with_phi, monkeypatch):
        chains, _ = TestCertificateCost.count_builds(monkeypatch)
        X = self.INSTANCES[name]()
        phi = self.phi(X) if with_phi else None
        normalization = normalizing_element(X, phi)
        embedding = embed_in_wreath(self.INSTANCES[name](), 0, phi)
        assert normalization.ok and embedding.ok
        assert chains == []
        if with_phi:
            assert normalization.fixes_point and embedding.normalization.fixes_point

    @pytest.mark.parametrize("with_phi", [False, True])
    @pytest.mark.parametrize("name", INSTANCES)
    def test_untampered_embedding_is_read_with_no_sift(self, name, with_phi, monkeypatch):
        # the conjugate's BFS at delta1 carries every entry into G, so
        # sift_embedding is not called and no chain is built
        X = self.INSTANCES[name]()
        phi = self.phi(X) if with_phi else None
        chains, _ = TestCertificateCost.count_builds(monkeypatch)
        sifts = count_sifts(monkeypatch)
        result = embed_in_wreath(X, 0, phi)
        assert result.ok and result.certificate == (True, ())
        assert sifts == [] and chains == []
        assert result.certificate == chain_sift_embedding(
            result.conjugated.generators, result.G, result.H
        )

    def test_corrected_entries_are_read_off_the_corrections(self):
        # the golden's instance: entries outside G's generators, which the
        # corrections carry back to generators
        result = embed_in_wreath(repetition_q12(), 0, self.PHI)
        known = self.known(result.G)
        outside = [
            b for g in result.conjugated.generators for b in g.base if b.images not in known
        ]
        assert len(outside) == 10
        corrections = corrections_of(result.normalization, 0)
        assert set(corrections) == set(range(4))
        assert any(not c.is_identity() for c in corrections.values())
        assert result.ok and result.G._chain is None

    def test_each_tampered_entry_outside_G_gives_one_base_failure(self):
        X = dihedral_wreath(random.Random(229), 7, 5)
        result = embed_in_wreath(X, 0, self.phi(X))
        G, H = result.G, result.H
        closure = tuple_closure([g.images for g in G.generators], 7)
        assert len(closure) == 14
        outside = [b for b in sym_perms(7) if b.images not in closure]
        gens = [list(g.base) for g in result.conjugated.generators]
        tampered_at = [(0, 1), (2, 0), (2, 4), (3, 3)]
        for i, (k, d) in enumerate(tampered_at):
            gens[k][d] = outside[31 * i]
        tampered = tuple(
            WreathElement(base, g.top) for base, g in zip(gens, result.conjugated.generators)
        )
        certificate = sift_embedding(tampered, G, H)
        assert certificate.failures == tuple((k, "base", d) for k, d in tampered_at)
        assert certificate == chain_sift_embedding(tampered, G, H)

    def test_tampered_entry_inside_G_is_sifted_and_passes(self):
        X = dihedral_wreath(random.Random(233), 7, 5)
        result = embed_in_wreath(X, 0, self.phi(X))
        G, H = result.G, result.H
        known = self.known(G)
        closure = tuple_closure([g.images for g in G.generators], 7)
        gens = result.conjugated.generators
        b = next(Permutation(e) for e in sorted(closure) if e not in known)
        base = list(gens[0].base)
        base[1] = b
        tampered = (WreathElement(base, gens[0].top),) + gens[1:]
        assert G._chain is None
        certificate = sift_embedding(tampered, G, H)
        assert certificate.passed and certificate.failures == ()
        assert G._chain is not None

    @pytest.mark.parametrize(
        "name, kind",
        [("dihedral7-m5", "member"), ("dihedral7-m5", "outside"), ("full-sym7-m4", "member")],
    )
    def test_swapped_correction_gives_the_chain_verdict(self, name, kind, monkeypatch):
        """A correction that is not G's BFS witness is not certified, so
        the flags and the certificate fall back to the chain."""
        X = self.INSTANCES[name]()
        phi = self.phi(X)
        adjust = normalize_module.adjust_transversal
        swapped = []

        def swapping(X, transversal, phi):
            t = adjust(X, transversal, phi)
            R = X.component(t.rep_of[1])
            c = t.entries[1] * transversal.entries[1].inverse()
            if kind == "member":
                words = R.generators + tuple(g * h for g in R.generators for h in R.generators)
                new = next(c * w for w in words if not R.is_witness(phi[1], c * w))
            else:
                closure = tuple_closure([g.images for g in R.generators], R.degree)
                new = next(b for b in sym_perms(R.degree) if b.images not in closure)
            swapped.append(new)
            entries = dict(t.entries)
            entries[1] = new * transversal.entries[1]
            return Transversal(t.orbits, t.reps, entries, t.rep_of)

        monkeypatch.setattr(normalize_module, "adjust_transversal", swapping)
        sifts = count_sifts(monkeypatch)
        result = embed_in_wreath(X, 0, phi)
        assert sifts == [result.conjugated.generators]
        normalization = result.normalization
        # the correction read off the conjugate is the swapped one, no witness
        rep = normalization.transversal.rep_of[1]
        swapped_in = corrections_of(normalization, rep)[1]
        assert swapped == [swapped_in] and not X.component(rep).is_witness(phi[1], swapped_in)
        flags = chain_component_flags(X, normalization)
        oracle = chain_sift_embedding(result.conjugated.generators, result.G, result.H)
        assert normalization.component_flags == flags
        assert result.certificate == oracle
        assert result.certificate.passed is (kind == "member")
        assert all(flags.values()) is (kind == "member")

    def test_tampered_schreier_entry_of_the_conjugate_is_sifted(self, monkeypatch):
        # a non-member at a pair that is no edge of the BFS tree keeps every
        # transversal entry, so only the component's generators show it
        X = dihedral_wreath(random.Random(229), 7, 5)
        phi = self.phi(X)
        result = embed_in_wreath(X, 0, phi)
        closure = tuple_closure([g.images for g in result.G.generators], 7)
        b = next(b for b in sym_perms(7) if b.images not in closure)
        gens = result.conjugated.generators
        u = dict(result.conjugated.entry_transversal(0))

        def replaced(generators, k, d):
            base = list(generators[k].base)
            base[d] = b
            return generators[:k] + (WreathElement(base, generators[k].top),) + generators[k + 1:]

        k, d = next(
            (k, d) for k in range(len(gens)) for d in range(5)
            if dict(WreathSubgroup(X.ctx, replaced(gens, k, d)).entry_transversal(0)) == u
        )
        tamper_conjugate(monkeypatch, lambda generators: replaced(generators, k, d))
        sifts = count_sifts(monkeypatch)
        tampered = embed_in_wreath(X, 0, phi)
        assert dict(tampered.conjugated.entry_transversal(0)) == u
        assert len(sifts) == 1
        assert tampered.certificate.failures == ((k, "base", d),)

    @pytest.mark.parametrize("phi", [(0, 0), (0, 3)])
    def test_spoiled_entry_under_certified_corrections_gives_the_chain_verdict(
        self, phi, monkeypatch
    ):
        # the correction is G's witness, but the entry it corrects is not
        # one of X's: u'[d] is not c[d]^-1, so the flag is the chain's, no
        id4 = Permutation.identity(4)
        c4 = cycle(4)
        X = WreathSubgroup(
            WreathContext(4, 2), (WreathElement((c4, c4), ID2), WreathElement((id4, id4), S))
        )
        spoiled_transversal(monkeypatch, 1, p(1, 2, 0, 3))
        result = normalizing_element(X, phi)
        spoiled = normalize_module.build_transversal(X)  # the patched build
        c = result.transversal.entries[1] * spoiled.entries[1].inverse()
        u = result.conjugated.entry_transversal(0)
        assert X.component(0).is_witness(phi[1], c) and u[1] != c.inverse()
        assert result.fixes_point
        assert result.component_flags == chain_component_flags(X, result) == {0: True, 1: False}
        assert raw_components(result.conjugated)[1] != raw_components(X)[0]


class TestCertificateAgainstChainOracle:
    """``component_flags`` and the embedding certificate by construction
    against the chain that sifts every entry, on seeded families with and
    without ``phi``, untampered and with one entry replaced."""

    @staticmethod
    def instances():
        rng = random.Random(1013)
        for i in range(320):
            q, m = rng.choice([2, 3, 4]), rng.choice([2, 3, 4])
            kind = i % 4
            if kind == 0:
                yield rng, random_wreath_subgroup(rng, q, m)
            elif kind == 1:
                yield rng, conjugated_full_wreath_product(rng, q, m)
            elif kind == 2:
                yield rng, block_intransitive_subgroup(rng, q, m)
            else:
                yield rng, diagonal_instance(
                    rng, q, m,
                    transitive_component=rng.random() < 0.5,
                    delta_transitive=rng.random() < 0.5,
                )[1]

    def test_flags_and_certificates_equal_the_chain_verdict(self, monkeypatch):
        sifts = count_sifts(monkeypatch)
        counts: Counter = Counter()
        for rng, X in self.instances():
            q, m = X.ctx.gamma_size, X.ctx.delta_size
            counts["instances"] += 1
            phis = [None]
            if all(X.component(orbit[0]).is_transitive() for orbit in X.delta_orbits):
                phis.append(tuple(rng.randrange(q) for _ in range(m)))
            for phi in phis:
                result = normalizing_element(X, phi)
                flags = chain_component_flags(X, result)
                assert result.component_flags == flags
                assert result.ok is (all(flags.values()) and result.fixes_point is not False)
                counts["normalized"] += 1
                counts["with_phi"] += phi is not None
                if not X.is_delta_transitive:
                    continue
                embedding = embed_in_wreath(X, 0, phi)
                G, H = embedding.G, embedding.H
                gens = embedding.conjugated.generators
                oracle = chain_sift_embedding(gens, G, H)
                assert embedding.certificate == oracle
                # every untampered embedding is read by construction
                assert sifts == []
                assert embedding.normalization.component_flags == chain_component_flags(
                    X, embedding.normalization
                )
                counts["embedded"] += 1
                known = {g.images for g in G.generators} | {tuple(range(q))}
                counts["corrected"] += sum(b.images not in known for g in gens for b in g.base)
                k, d = rng.randrange(len(gens)), rng.randrange(m)
                base = list(gens[k].base)
                base[d] = random_permutation(rng, q)
                tampered = gens[:k] + (WreathElement(base, gens[k].top),) + gens[k + 1:]
                certificate = sift_embedding(tampered, G, H)
                assert certificate == chain_sift_embedding(tampered, G, H)
                counts["tampered_fail"] += not certificate.passed
        assert counts["instances"] >= 300
        assert counts["with_phi"] >= 100 and counts["embedded"] >= 150
        assert counts["corrected"] > 0 and counts["tampered_fail"] > 0

    def test_corrections_are_the_conjugates_inverse_entries(self, monkeypatch):
        """At every coordinate d of an orbit with representative r, the
        inverse of the conjugate's ``entry_transversal(r)[d]`` is the
        correction c_d that ``adjust_transversal`` premultiplied into the
        entry, and R's BFS witness from ``phi[d]``: so the certificate reads
        every flag by construction and calls ``same_group`` only at the
        representatives."""
        compared = []

        def recording(a, b):
            compared.append(a)
            return same_group(a, b)

        monkeypatch.setattr(normalize_module, "same_group", recording)
        counts: Counter = Counter()
        for rng, X in self.instances():
            q, m = X.ctx.gamma_size, X.ctx.delta_size
            if not all(X.component(orbit[0]).is_transitive() for orbit in X.delta_orbits):
                continue
            phi = tuple(rng.randrange(q) for _ in range(m))
            built = build_transversal(X)
            adjusted = adjust_transversal(X, built, phi)
            compared.clear()
            result = normalizing_element(X, phi)
            assert result.transversal == adjusted and result.ok
            conjugated = result.conjugated
            for orbit, rep in zip(adjusted.orbits, adjusted.reps):
                R = X.component(rep)
                u = conjugated.entry_transversal(rep)
                for d in orbit:
                    c = u[d].inverse()
                    assert c == adjusted.entries[d] * built.entries[d].inverse()
                    assert R.is_witness(phi[d], c)
                    counts["coordinates"] += 1
                    counts["corrected"] += not c.is_identity()
            assert len(compared) == len(adjusted.reps)
            assert all(a is conjugated.component(rep) for a, rep in zip(compared, adjusted.reps))
            counts["instances"] += 1
        assert counts["instances"] >= 200
        assert counts["coordinates"] >= 600 and counts["corrected"] >= 200

    def test_witnesses_lie_in_the_closure_of_the_generators(self):
        checked = 0
        for _, X in self.instances():
            q = X.ctx.gamma_size
            for orbit in X.delta_orbits:
                R = X.component(orbit[0])
                closure = tuple_closure([g.images for g in R.generators], q)
                for start in range(q):
                    for target in R.orbit(start):
                        w = R.witness(start, target)
                        assert w.images in closure and w[start] == target
                        assert R.is_witness(start, w)
                        checked += 1
        assert checked > 1000


class TestBeyondEnumeration:
    """Full wreath products whose components the default cap of 10**6 could
    not enumerate (10! = 3628800) or only slowly (9! = 362880)."""

    @pytest.mark.parametrize("q, m", [(10, 2), (10, 4), (9, 6)])
    def test_normalize_and_embed_under_the_default_cap(self, q, m):
        phi = (0,) * m
        X = full_wreath_product(q, m)
        start = time.perf_counter()
        normalization = normalizing_element(X, phi)
        normalize_s = time.perf_counter() - start
        start = time.perf_counter()
        embedding = embed_in_wreath(X, 0, phi)
        embed_s = time.perf_counter() - start
        for result in (normalization, embedding.normalization):
            assert result.ok
            assert result.fixes_point
            assert all(result.component_flags.values())
            assert [c.order() for c in result.common_components.values()] == [
                math.factorial(q)
            ]
        assert embedding.ok and embedding.certificate.passed
        assert normalize_s < 1.0
        assert embed_s < 1.0


class TestEmbedInWreath:
    def test_diagonal_plus_swap(self):
        X = diagonal_w22()
        result = embed_in_wreath(X, 0)
        assert result.ok
        assert result.G.enumerate_elements() == set(sym_perms(2))
        assert result.H.enumerate_elements() == set(sym_perms(2))

    def test_conjugated_instance(self):
        X0 = diagonal_w22()
        y = WreathElement((ID2, S), ID2)
        X = conjugate_subgroup(X0, y)
        result = embed_in_wreath(X, 0)
        assert result.ok
        assert len(result.conjugated.enumerate_elements()) == len(
            X.enumerate_elements()
        )

    def test_already_embedded_group_accepts_identity(self):
        X = diagonal_w22()
        result = embed_in_wreath(X, 0)
        assert result.x == X.ctx.identity_element()

    def test_certificate_fails_on_corruption(self):
        # q = 3 with component <(0 1)>: the 3-cycle lies outside it
        rng = random.Random(89)
        ctx = WreathContext(3, 2)
        id3 = Permutation.identity(3)
        X = WreathSubgroup(
            ctx,
            (
                WreathElement((p(1, 0, 2), p(1, 0, 2)), ID2),
                WreathElement((id3, id3), S),
            ),
        )
        result = embed_in_wreath(X, 0)
        assert result.ok
        outside = next(
            perm
            for perm in sym_perms(3)
            if perm not in result.G.enumerate_elements()
        )
        bad = WreathElement((outside, id3), ID2)
        tampered = (result.conjugated.generators[0] * bad,) + result.conjugated.generators[1:]
        certificate = sift_embedding(tampered, result.G, result.H)
        assert not certificate.passed
        assert any(kind == "base" for _, kind, _ in certificate.failures)

    def test_delta_intransitive_is_rejected(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((S, S), ID2),))
        with pytest.raises(HypothesisViolation):
            embed_in_wreath(X, 0)

    def test_fixed_point_with_intransitive_component_is_rejected(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((ID2, ID2), S),))
        with pytest.raises(HypothesisViolation) as err:
            embed_in_wreath(X, 0, phi=(0, 0))
        assert err.value.delta == 0

    def test_nondefault_coordinate(self):
        X0 = diagonal_w22()
        y = WreathElement((S, ID2), ID2)
        X = conjugate_subgroup(X0, y)
        result = embed_in_wreath(X, 1)
        assert result.ok
        assert result.delta1 == 1

    def test_single_coordinate_needs_no_special_case(self):
        # m = 1: the orbit is a singleton, x is the identity, and the
        # embedding is into G wr 1
        ctx = WreathContext(3, 1)
        id1 = Permutation.identity(1)
        X = WreathSubgroup(
            ctx,
            (WreathElement((p(1, 0, 2),), id1), WreathElement((p(1, 2, 0),), id1)),
        )
        result = embed_in_wreath(X, 0, phi=(0,))
        assert result.ok
        assert result.x == ctx.identity_element()
        assert result.G.enumerate_elements() == set(sym_perms(3))
        assert result.H.order() == 1

    def test_whole_group_lands_in_the_wreath_product(self):
        # beyond the generator certificate: enumerate the conjugate and
        # check every element entrywise
        rng = random.Random(103)
        checked = 0
        while checked < 15:
            q = rng.choice([2, 3])
            m = rng.choice([2, 3])
            _, X, _, _ = diagonal_instance(rng, q, m, delta_transitive=True)
            if not X.is_delta_transitive:
                continue
            result = embed_in_wreath(X, 0)
            assert result.certificate.passed
            g_set = result.G.enumerate_elements()
            h_set = result.H.enumerate_elements()
            for w in result.conjugated.enumerate_elements(100000):
                assert all(entry in g_set for entry in w.base)
                assert w.top in h_set
            checked += 1

    def test_certificate_failure_names_an_outside_entry(self):
        # every reported base failure pinpoints an entry outside G
        ctx = WreathContext(3, 2)
        id3 = Permutation.identity(3)
        X = WreathSubgroup(
            ctx,
            (
                WreathElement((p(1, 0, 2), p(1, 0, 2)), ID2),
                WreathElement((id3, id3), S),
            ),
        )
        result = embed_in_wreath(X, 0)
        outside = next(
            perm for perm in sym_perms(3)
            if perm not in result.G.enumerate_elements()
        )
        bad = WreathElement((outside, id3), ID2)
        tampered = tuple(g * bad for g in result.conjugated.generators)
        certificate = sift_embedding(tampered, result.G, result.H)
        assert not certificate.passed
        closure = result.G.enumerate_elements()
        for index, kind, d in certificate.failures:
            assert kind == "base"
            assert tampered[index].base[d] not in closure


class TestConjugateSubgroup:
    def test_identity_conjugation(self):
        X = diagonal_w22()
        assert conjugate_subgroup(X, X.ctx.identity_element()).generators == X.generators

    def test_round_trip(self):
        rng = random.Random(97)
        ctx = WreathContext(3, 2)
        X = WreathSubgroup(ctx, tuple(ctx.random_element(rng) for _ in range(2)))
        x = ctx.random_element(rng)
        back = conjugate_subgroup(conjugate_subgroup(X, x), x.inverse())
        assert back.generators == X.generators

    def test_orbit_structure_transported(self):
        rng = random.Random(101)
        for _ in range(10):
            ctx = WreathContext(2, 3)
            X = WreathSubgroup(ctx, tuple(ctx.random_element(rng) for _ in range(2)))
            x = ctx.random_element(rng)
            Xc = conjugate_subgroup(X, x)
            for phi in ctx.all_points():
                orbit = {tuple(pt) for pt in X.orbit_of_point(phi)}
                transported = {x.apply(pt) for pt in orbit}
                conjugate_orbit = {
                    tuple(pt) for pt in Xc.orbit_of_point(x.apply(phi))
                }
                assert transported == conjugate_orbit

    @pytest.mark.parametrize("base_element", [True, False])
    @pytest.mark.parametrize("q, m", [(1, 3), (2, 1), (3, 4), (7, 5)])
    def test_gathers_equal_the_products(self, q, m, base_element):
        # conjugation gathers on image tuples, for any x, top or none
        rng = random.Random(163 + q * m)
        ctx = WreathContext(q, m)
        X = WreathSubgroup(ctx, tuple(ctx.random_element(rng) for _ in range(3)))
        x = ctx.random_element(rng)
        if base_element:
            x = WreathElement(x.base, Permutation.identity(m))
        else:
            assert x.top.is_identity() is (m == 1)
        gathered = conjugate_subgroup(X, x).generators
        assert gathered == tuple(x.inverse() * g * x for g in X.generators)
