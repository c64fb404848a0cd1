import math
import random
import time

import pytest

import wreathact.components as components_module
from wreathact import (
    EnumerationOverflow,
    Permutation,
    WreathContext,
    WreathElement,
    WreathSubgroup,
    conjugate_subgroup,
    embed_in_wreath,
    random_permutation,
)
from wreathact.perm import StabilizerChain, orbit_with_witnesses
from helpers import (
    block_intransitive_subgroup,
    conjugated_full_wreath_product,
    delta_orbit_with_witnesses,
    full_wreath_product,
    p,
    pruned_entries,
    random_wreath_subgroup,
    raw_apply,
    raw_closure,
    raw_wreath,
    record_component_builds,
    split_oracle_agrees,
    sym_perms,
    tuple_closure,
    two_block_wreath_product,
    we,
    wreath_closure,
)

S = p(1, 0)
ID2 = Permutation.identity(2)


def full_w22() -> WreathSubgroup:
    ctx = WreathContext(2, 2)
    return WreathSubgroup(
        ctx, (WreathElement((S, ID2), ID2), WreathElement((ID2, ID2), S))
    )


def diagonal_w22() -> WreathSubgroup:
    ctx = WreathContext(2, 2)
    return WreathSubgroup(
        ctx, (WreathElement((S, S), ID2), WreathElement((ID2, ID2), S))
    )


class TestEmptySubgroup:
    def test_trivial_subgroup_has_trivial_structure(self):
        ctx = WreathContext(3, 2)
        X = WreathSubgroup(ctx, ())
        assert X.delta_orbits == ((0,), (1,))
        assert not X.is_delta_transitive
        for d in range(2):
            assert X.partition_stabilizer_gens(d) == ()
            assert X.component(d).enumerate_elements() == {Permutation.identity(3)}
        assert X.enumerate_elements() == {ctx.identity_element()}


class TestPartitionStabilizer:
    def test_base_subgroup_stabilizes_everything(self):
        ctx = WreathContext(2, 2)
        gens = (WreathElement((S, ID2), ID2), WreathElement((S, S), ID2))
        X = WreathSubgroup(ctx, gens)
        for d in (0, 1):
            assert X.partition_stabilizer_gens(d) == gens

    def test_swap_only_group_has_trivial_stabilizer(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((ID2, ID2), S),))
        stab = X.partition_stabilizer_gens(0)
        closure = wreath_closure(list(stab) + [X.identity()])
        assert closure == {X.identity()}

    def test_full_wreath_product_stabilizer_order(self):
        X = full_w22()
        assert len(X.enumerate_elements()) == 8
        stab = X.partition_stabilizer_gens(0)
        assert len(wreath_closure(list(stab) + [X.identity()])) == 4

    def test_stabilizer_closure_matches_enumeration_filter(self):
        rng = random.Random(31)
        for _ in range(30):
            q = rng.choice([2, 3])
            m = rng.choice([2, 3])
            X = random_wreath_subgroup(rng, q, m)
            elements = X.enumerate_elements(5000)
            for d in range(m):
                stab = X.partition_stabilizer_gens(d)
                closure = wreath_closure(list(stab) + [X.identity()])
                filtered = {w for w in elements if w.top[d] == d}
                assert closure == filtered

    def test_stabilizer_tops_fix_the_coordinate(self):
        rng = random.Random(37)
        for _ in range(20):
            X = random_wreath_subgroup(rng, 3, 3)
            for d in range(3):
                for w in X.partition_stabilizer_gens(d):
                    assert w.top[d] == d


class TestComponent:
    def test_full_wreath_product_has_symmetric_components(self):
        X = full_w22()
        for d in (0, 1):
            assert X.component(d).enumerate_elements() == set(sym_perms(2))

    def test_top_only_group_has_trivial_components(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((ID2, ID2), S),))
        for d in (0, 1):
            assert X.component(d).enumerate_elements() == {ID2}

    def test_diagonal_group_components(self):
        X = diagonal_w22()
        for d in (0, 1):
            assert X.component(d).enumerate_elements() == {ID2, S}

    def test_component_matches_enumeration_projection(self):
        rng = random.Random(41)
        for _ in range(30):
            q = rng.choice([2, 3])
            m = rng.choice([2, 3])
            X = random_wreath_subgroup(rng, q, m)
            elements = X.enumerate_elements(5000)
            for d in range(m):
                projected = {w.base[d] for w in elements if w.top[d] == d}
                assert X.component(d).enumerate_elements() == projected

    def test_component_block_equivariance(self):
        # moving a block of points with the stabilizer matches moving the
        # corresponding entry with the projected component permutation
        rng = random.Random(43)
        for _ in range(10):
            q = rng.choice([2, 3])
            m = 2
            X = random_wreath_subgroup(rng, q, m)
            points = list(X.ctx.all_points())
            elements = X.enumerate_elements(5000)
            for d in range(m):
                stabilizer = [w for w in elements if w.top[d] == d]
                for w in stabilizer:
                    for gamma in range(q):
                        block = [phi for phi in points if phi[d] == gamma]
                        image = {w.apply(phi) for phi in block}
                        target = w.base[d][gamma]
                        assert image == {phi for phi in points if phi[d] == target}


class TestComponentWitnessOrbit:
    """Orbits of a component on Gamma with their entry witnesses."""

    def test_trivial_component(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((ID2, ID2), S),))
        orbit, witness = X.component(0).orbit_with_transversal(1)
        assert orbit == [1]
        assert witness[1] == ID2

    def test_full_wreath_product_q3(self):
        ctx = WreathContext(3, 2)
        id3 = Permutation.identity(3)
        X = WreathSubgroup(
            ctx,
            (
                WreathElement((p(1, 0, 2), id3), ID2),
                WreathElement((p(1, 2, 0), id3), ID2),
                WreathElement((id3, id3), S),
            ),
        )
        orbit, witness = X.component(0).orbit_with_transversal(0)
        assert set(orbit) == {0, 1, 2}
        for gamma, entry in witness.items():
            assert entry[0] == gamma

    def test_witness_soundness(self):
        # every witness is the entry at d of an element of the coordinate
        # stabilizer, and the orbit is that of the enumerated stabilizer
        rng = random.Random(47)
        for _ in range(20):
            q = rng.choice([2, 3])
            m = rng.choice([2, 3])
            X = random_wreath_subgroup(rng, q, m)
            d = rng.randrange(m)
            gamma0 = rng.randrange(q)
            orbit, witness = X.component(d).orbit_with_transversal(gamma0)
            stab = X.partition_stabilizer_gens(d)
            stab_closure = wreath_closure(list(stab) + [X.identity()])
            stab_entries = {w.base[d] for w in stab_closure}
            assert set(orbit) == {entry[gamma0] for entry in stab_entries}
            for gamma, entry in witness.items():
                assert entry in stab_entries
                assert entry[gamma0] == gamma


def lifted_witness_orbit(X: WreathSubgroup, delta: int, gamma0: int):
    """The component BFS on the wreath Schreier generators; returns the
    orbit and the witnesses' entries at ``delta``."""
    orbit, witness = orbit_with_witnesses(
        gamma0,
        X.partition_stabilizer_gens(delta),
        lambda s, gamma: s.base[delta][gamma],
        X.identity(),
    )
    return orbit, {gamma: w.base[delta] for gamma, w in witness.items()}


def lifted_entry_transversal(X: WreathSubgroup, delta: int) -> list:
    """The entries at ``delta`` of the wreath coordinate witnesses, in BFS order."""
    _, witness = delta_orbit_with_witnesses(X, delta)
    return [(beta, w.base[delta]) for beta, w in witness.items()]


class TestComponentFromEntries:
    """Components and entry transversals are built from base entries; the
    wreath Schreier generators of ``partition_stabilizer_gens`` and the
    witnesses of ``helpers.delta_orbit_with_witnesses`` are the oracles."""

    def test_generators_equal_the_lifted_oracle_on_random_subgroups(self):
        rng = random.Random(61)
        for _ in range(200):
            q = rng.randint(2, 5)
            m = rng.randint(1, 5)
            X = random_wreath_subgroup(rng, q, m, n_gens=rng.randint(1, 3))
            for d in range(m):
                oracle = pruned_entries(X.partition_stabilizer_gens(d), d)
                assert X.component(d).generators == oracle
                assert list(X.entry_transversal(d).items()) == lifted_entry_transversal(X, d)

    @pytest.mark.parametrize("q, m", [(8, 12), (12, 24), (6, 30)])
    def test_generators_equal_the_lifted_oracle_at_scale(self, q, m):
        X = conjugated_full_wreath_product(random.Random(q * 100 + m), q, m)
        for d in range(m):
            oracle = pruned_entries(X.partition_stabilizer_gens(d), d)
            assert X.component(d).generators == oracle
            assert list(X.entry_transversal(d).items()) == lifted_entry_transversal(X, d)

    def test_witnesses_equal_the_lifted_oracle(self):
        rng = random.Random(67)
        for _ in range(60):
            q = rng.randint(2, 4)
            m = rng.randint(1, 4)
            X = random_wreath_subgroup(rng, q, m, n_gens=rng.randint(1, 3))
            for d in range(m):
                for gamma0 in range(q):
                    orbit, witness = X.component(d).orbit_with_transversal(gamma0)
                    assert (orbit, witness) == lifted_witness_orbit(X, d, gamma0)

    def test_witnesses_equal_the_lifted_oracle_at_scale(self):
        X = conjugated_full_wreath_product(random.Random(71), 8, 12)
        for d in (0, 5, 11):
            orbit, witness = X.component(d).orbit_with_transversal(3)
            assert len(orbit) == 8
            assert (orbit, witness) == lifted_witness_orbit(X, d, 3)

    def test_all_components_at_scale_are_fast(self):
        # three degree-12 products per Schreier generator; lifting each one
        # to a degree-12*24 wreath element instead takes over 0.5 s
        X = conjugated_full_wreath_product(random.Random(73), 12, 24)
        start = time.perf_counter()
        components = [X.component(d) for d in range(24)]
        elapsed = time.perf_counter() - start
        assert all(c.order() == 479001600 for c in components)
        assert elapsed < 0.05

    def test_embed_at_scale(self):
        X = conjugated_full_wreath_product(random.Random(79), 6, 30)
        start = time.perf_counter()
        result = embed_in_wreath(X, 0)
        elapsed = time.perf_counter() - start
        assert result.ok
        assert elapsed < 1.0


class TestSplit:
    def test_base_subgroup_projection(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((S, ID2), ID2),))
        result = X.split([0])
        assert result.ok
        assert split_oracle_agrees(X, result)
        assert result.first.generators == (WreathElement((S,), Permutation.identity(1)),)
        assert result.second.generators == (
            WreathElement((ID2,), Permutation.identity(1)),
        )

    def test_two_orbit_example(self):
        ctx = WreathContext(2, 3)
        X = WreathSubgroup(ctx, (we([[1, 0], [1, 0], [0, 1]], [1, 0, 2]),))
        assert len(X.enumerate_elements()) == 2
        result = X.split([0, 1])
        assert result.ok
        assert split_oracle_agrees(X, result)
        assert len(result.first.enumerate_elements()) == 2
        assert len(result.second.enumerate_elements()) == 1
        assert result.position1 == {2: 0}

    def test_oracle_disagrees_with_a_wrong_verdict(self):
        X = WreathSubgroup(
            WreathContext(2, 3), (we([[1, 0], [1, 0], [0, 1]], [1, 0, 2]),)
        )
        result = X.split([0, 1])
        assert split_oracle_agrees(X, result)
        for field in ("theta_bijective", "chi_injective", "equivariant"):
            assert not split_oracle_agrees(X, result._replace(**{field: False}))
        broken = {**result.component_preserved, 2: False}
        assert not split_oracle_agrees(
            X, result._replace(component_preserved=broken)
        )

    def test_builds_no_component_and_no_chain(self, monkeypatch):
        # reassembly decides every flag, so no component of X or of either
        # half and no stabilizer chain is built
        rng = random.Random(71)
        cases = [two_block_wreath_product(rng, 2, 2), two_block_wreath_product(rng, 2, 3)]
        while len(cases) < 10:
            X = block_intransitive_subgroup(rng, rng.choice([2, 3]), rng.choice([2, 3]))
            if len(X.delta_orbits) >= 2:
                cases.append(X)
        builds = record_component_builds(monkeypatch)
        chains = []
        chain_init = StabilizerChain.__init__

        def recording(self, *args, **kwargs):
            chains.append(self)
            chain_init(self, *args, **kwargs)

        monkeypatch.setattr(StabilizerChain, "__init__", recording)
        results = []
        for X in cases:
            orbits = X.delta_orbits
            results.append((X, X.split(orbits[rng.randrange(len(orbits))])))
        assert builds == []
        assert chains == []
        for X, result in results:
            assert result.ok
            assert split_oracle_agrees(X, result)

    def test_broken_restriction_fails_every_reassembly_flag(self, monkeypatch):
        # the first restricted top is reversed, so that half generator is
        # not a restriction of X's: every flag but the partition test drops
        X = two_block_wreath_product(random.Random(73), 2, 2)
        from_parts = components_module._from_parts
        tops = []

        def reversing_first(base, top):
            tops.append(top)
            if len(tops) == 1:
                top = Permutation(reversed(top.images))
            return from_parts(base, top)

        monkeypatch.setattr(components_module, "_from_parts", reversing_first)
        result = X.split([0, 1])
        assert result.theta_bijective
        assert not result.chi_injective
        assert not result.equivariant
        assert result.component_preserved == {0: False, 1: False, 2: False, 3: False}
        assert not result.ok

    def test_invalid_subsets_rejected(self):
        X = WreathSubgroup(
            WreathContext(2, 3), (we([[1, 0], [1, 0], [0, 1]], [1, 0, 2]),)
        )
        with pytest.raises(ValueError):
            X.split([])
        with pytest.raises(ValueError):
            X.split([0, 1, 2])
        with pytest.raises(ValueError):
            X.split([0])  # cuts the orbit {0,1}
        with pytest.raises(ValueError):
            X.split([3])

    def test_applies_no_point(self, monkeypatch):
        # equivariance is read off reassembly, so no point of Pi, probe
        # word or column goes through a generator or a restriction
        X = WreathSubgroup(
            WreathContext(2, 3), (we([[1, 0], [1, 0], [0, 1]], [1, 0, 2]),)
        )
        calls = []

        def counted(name):
            method = getattr(WreathElement, name)

            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)
            return wrapper

        for name in ("apply", "apply_columns"):
            monkeypatch.setattr(WreathElement, name, counted(name))
        assert X.split([0, 1]).ok
        # no cap: the 2^20 points, more than the default cap of 10^6, are
        # never listed
        X = two_block_wreath_product(random.Random(61), 2, 10)
        assert X.split(range(10)).ok
        assert calls == []

    def test_probe_words_determine_an_element(self):
        # distinct elements of the full Sym(q) wr Sym(m) differ on a probe
        # word; raw tuples only, no library code
        for q, m in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
            id_q, id_m = tuple(range(q)), tuple(range(m))
            swap_q = (1, 0) + id_q[2:]
            cycle_q = id_q[1:] + (0,)
            swap_m = (1, 0) + id_m[2:]
            cycle_m = id_m[1:] + (0,)
            gens = [((s,) + (id_q,) * (m - 1), id_m) for s in (swap_q, cycle_q)]
            gens += [((id_q,) * m, h) for h in (swap_m, cycle_m)]
            elements = raw_closure(gens, q, m)
            assert len(elements) == math.factorial(q) ** m * math.factorial(m)
            zero = (0,) * m
            probes = [zero] + [
                zero[:d] + (a,) + zero[d + 1:] for d in range(m) for a in range(1, q)
            ]
            assert len(probes) == (q - 1) * m + 1
            signatures = {tuple(raw_apply(w, phi) for phi in probes) for w in elements}
            assert len(signatures) == len(elements)

    def test_components_preserved_on_random_splits(self):
        rng = random.Random(53)
        done = 0
        while done < 15:
            q = rng.choice([2, 3])
            m = rng.choice([2, 3])
            X = block_intransitive_subgroup(rng, q, m)
            orbits = X.delta_orbits
            if len(orbits) < 2:
                continue
            take = rng.randint(1, len(orbits) - 1)
            delta0 = sorted(d for orbit in orbits[:take] for d in orbit)
            result = X.split(delta0)
            assert result.theta_bijective
            assert result.chi_injective
            assert result.equivariant
            assert all(result.component_preserved.values())
            assert split_oracle_agrees(X, result)
            for d in delta0:
                half = result.first.component(result.position0[d])
                assert tuple_closure(
                    [g.images for g in X.component(d).generators], q
                ) == tuple_closure([g.images for g in half.generators], q)
            done += 1

    def test_scattered_invariant_sets(self):
        # conjugating by an element with a top scatters the blocks, so the
        # invariant subsets and their complements are not intervals
        rng = random.Random(57)
        done = 0
        while done < 12:
            q = rng.choice([2, 3])
            m = rng.choice([3, 4])
            X0 = block_intransitive_subgroup(rng, q, m)
            X = conjugate_subgroup(X0, X0.ctx.random_element(rng))
            orbits = X.delta_orbits
            if len(orbits) < 2:
                continue
            delta0 = sorted(orbits[rng.randrange(len(orbits))])
            result = X.split(delta0)
            assert result.ok
            assert split_oracle_agrees(X, result)
            done += 1
        # q = 1: Pi is the single word 0^m, so equivariance holds trivially
        # and must still agree with reassembly
        rng = random.Random(61)
        done = 0
        while done < 15:
            X0 = block_intransitive_subgroup(rng, 1, rng.choice([2, 3, 4]))
            X = conjugate_subgroup(X0, X0.ctx.random_element(rng))
            orbits = X.delta_orbits
            if len(orbits) < 2:
                continue
            result = X.split(orbits[rng.randrange(len(orbits))])
            assert result.ok
            assert split_oracle_agrees(X, result)
            done += 1

    def test_oracle_agrees_up_to_q4_m4(self):
        # every (q, m) with q in {2, 3, 4} and m in {3, 4}, twice each; the
        # oracle walks all of X x Pi, so instances with |X| * |Pi| over
        # 10^5 are passed over
        rng = random.Random(59)
        done = {(q, m): 0 for q in (2, 3, 4) for m in (3, 4)}
        while min(done.values()) < 2:
            q, m = rng.choice(sorted(done))
            X = block_intransitive_subgroup(rng, q, m)
            orbits = X.delta_orbits
            if done[q, m] == 2 or len(orbits) < 2:
                continue
            try:
                raw_closure([raw_wreath(g) for g in X.generators], q, m, cap=10**5 // q**m)
            except RuntimeError:
                continue
            take = rng.randint(1, len(orbits) - 1)
            result = X.split(sorted(d for orbit in orbits[:take] for d in orbit))
            assert result.ok
            assert split_oracle_agrees(X, result)
            done[q, m] += 1

    def test_two_blocks_at_scale_are_fast(self):
        # a walk over the 3^12 points of Pi would take about 30 s on 2 vCPUs
        X = two_block_wreath_product(random.Random(67), 3, 6)
        start = time.perf_counter()
        result = X.split(range(6))
        elapsed = time.perf_counter() - start
        assert result.ok
        assert elapsed < 0.5

    def test_two_blocks_at_m400_are_linear(self):
        # reassembly is linear in m per generator; applying the (q-1)*m + 1
        # probe words through every generator instead is quadratic and
        # takes about 0.2 s on 2 vCPUs with Python 3.11
        X = two_block_wreath_product(random.Random(73), 4, 200)
        start = time.perf_counter()
        result = X.split(range(200))
        elapsed = time.perf_counter() - start
        assert result.ok
        assert elapsed < 0.05

    def test_two_blocks_at_q6_m30(self):
        X = two_block_wreath_product(random.Random(71), 6, 15)
        result = X.split(range(15))
        assert result.ok
        assert result.first.component(0).order() == 720


class TestOrbitOnPi:
    def test_equals_a_raw_search_in_bfs_order(self):
        rng = random.Random(67)
        for _ in range(40):
            q, m = rng.choice([2, 3, 4]), rng.choice([1, 2, 3])
            X = random_wreath_subgroup(rng, q, m, n_gens=rng.randint(0, 3))
            start = tuple(rng.randrange(q) for _ in range(m))
            gens = [raw_wreath(g) for g in X.generators]
            orbit = [start]
            for phi in orbit:
                for g in gens:
                    image = raw_apply(g, phi)
                    if image not in orbit:
                        orbit.append(image)
            assert X.orbit_of_point(start) == orbit

    def test_refused_by_the_size_of_pi(self):
        X = full_wreath_product(3, 3)
        assert len(X.orbit_of_point((0, 1, 2), cap=27)) == 27
        with pytest.raises(EnumerationOverflow, match=r"\|Pi\| = 27 exceeds cap 26"):
            X.orbit_of_point((0, 1, 2), cap=26)


class TestTransitivityReport:
    def test_full_wreath_product(self):
        report = full_w22().transitivity_report()
        assert report.transitive_on_points
        assert report.component_transitive == (True, True)
        assert report.delta_transitive
        assert report.base_component_transitive == (True, True)
        assert not report.violation

    def test_top_only_group_is_intransitive(self):
        ctx = WreathContext(2, 2)
        X = WreathSubgroup(ctx, (WreathElement((ID2, ID2), S),))
        report = X.transitivity_report()
        assert not report.transitive_on_points
        assert not report.violation

    def test_diagonal_group_is_intransitive(self):
        X = diagonal_w22()
        assert X.orbit_of_point((0, 0)) == [(0, 0), (1, 1)]
        report = X.transitivity_report()
        assert not report.transitive_on_points
        assert not report.violation

    def test_three_generator_scan_has_no_violations(self):
        rng = random.Random(59)
        transitive = 0
        for _ in range(120):
            q = rng.choice([2, 3])
            m = rng.choice([1, 2])
            X = random_wreath_subgroup(rng, q, m, n_gens=rng.randint(1, 3))
            report = X.transitivity_report()
            transitive += report.transitive_on_points
            assert not report.violation
        assert transitive > 0

    def test_full_sym4_wr_sym4_without_a_closure(self):
        # enumerating X would need 7962624 elements, over the default cap
        X = full_wreath_product(4, 4)
        start = time.perf_counter()
        report = X.transitivity_report()
        elapsed = time.perf_counter() - start
        assert report.transitive_on_points and report.delta_transitive
        assert report.component_transitive == (True,) * 4
        assert report.base_component_transitive == (True,) * 4
        assert not report.violation
        assert X._closure is None
        assert elapsed < 1.0

    def test_one_component_build_per_coordinate_orbit(self, monkeypatch):
        rng = random.Random(61)
        cases = sym3_wr_sym3_instances(rng) + [
            block_intransitive_subgroup(rng, 3, 4),
            two_block_wreath_product(rng, 2, 3),
            conjugated_full_wreath_product(rng, 3, 4),
        ]
        builds = record_component_builds(monkeypatch)
        several_orbits = intransitive_components = 0
        for X in cases:
            m = X.ctx.delta_size
            builds.clear()
            report = X.transitivity_report()
            assert [delta for Y, delta in builds if Y is X] == [orbit[0] for orbit in X.delta_orbits]
            fresh = WreathSubgroup(X.ctx, X.generators)
            flags = tuple(fresh.component(d).is_transitive() for d in range(m))
            assert report.component_transitive == flags
            several_orbits += len(X.delta_orbits) > 1
            intransitive_components += not all(flags)
        assert several_orbits >= 5 and intransitive_components >= 5


# ----- X as a permutation group on m + q*m points -----


def faithful_images(w: WreathElement) -> list[int]:
    """Block point d to top[d], point m + d*q + a to m + top[d]*q + base[d][a]."""
    base, top = raw_wreath(w)
    q, m = len(base[0]), len(top)
    return list(top) + [m + top[d] * q + base[d][a] for d in range(m) for a in range(q)]


def sym3_wr_sym3_instances(rng: random.Random) -> list[WreathSubgroup]:
    """Subgroups of Sym(3) wr Sym(3) from five families, eight of each:
    random generators; a base-only first generator; even base entries
    (kernel inside Alt(3)^3); diagonal base entries (kernel inside the
    diagonal Sym(3)); and Alt(3)^3 with a diagonal transposition on a
    3-cycle top and a random diagonal element, transitive on Pi with a
    kernel of order 54."""
    ctx = WreathContext(3, 3)
    id3 = Permutation.identity(3)
    even = [Permutation(images) for images in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    c3, t = p(1, 2, 0), p(1, 0, 2)
    families = [
        lambda: [ctx.random_element(rng) for _ in range(rng.randint(1, 3))],
        lambda: [WreathElement([random_permutation(rng, 3) for _ in range(3)], id3)]
        + [ctx.random_element(rng) for _ in range(rng.randint(1, 2))],
        lambda: [WreathElement([rng.choice(even) for _ in range(3)], random_permutation(rng, 3))
                 for _ in range(rng.randint(1, 3))],
        lambda: [WreathElement([g] * 3, random_permutation(rng, 3))
                 for g in (random_permutation(rng, 3) for _ in range(rng.randint(1, 3)))],
        lambda: [WreathElement([c3, id3, id3], id3), WreathElement([t] * 3, c3),
                 WreathElement([random_permutation(rng, 3)] * 3, random_permutation(rng, 3))],
    ]
    return [WreathSubgroup(ctx, family()) for family in families for _ in range(8)]


class TestChainOfX:
    """Order, X meet B and its components from the stabilizer chain of X on
    m + q*m points, against raw-tuple closures and sympy."""

    def test_order_kernel_and_flags_match_raw_closure(self, monkeypatch):
        q = m = 3
        identity_top = tuple(range(m))
        non_full_kernels = transitive_non_full = intransitive_flags = 0
        instances = sym3_wr_sym3_instances(random.Random(73))
        assert len(instances) >= 40
        for X in instances:
            elements = raw_closure([raw_wreath(g) for g in X.generators], q, m)
            kernel = [base for base, top in elements if top == identity_top]
            assert X.order() == len(elements)
            levels = X._get_chain().levels
            assert [lvl.point for lvl in levels[:m]] == list(range(m))
            assert math.prod(len(lvl.orbit) for lvl in levels[m:]) == len(kernel)
            kernel_gens = levels[m].gens if len(levels) > m else []
            kernel_components = [{base[d] for base in kernel} for d in range(m)]
            for d in range(m):
                entries = [tuple(g[m + d * q + a] - m - d * q for a in range(q)) for g in kernel_gens]
                assert tuple_closure(entries, q) == kernel_components[d]
            flags = tuple({k[0] for k in kernel_components[d]} == set(range(q)) for d in range(m))
            report = X.transitivity_report()
            if report.transitive_on_points and report.delta_transitive:
                assert report.base_component_transitive == flags
                transitive_non_full += 1 < len(kernel) < 6**m
            else:
                assert report.base_component_transitive is None
            if report.delta_transitive and not report.transitive_on_points:
                # the theorem makes every flag True on transitive groups;
                # forcing the branch shows the flags follow X meet B
                monkeypatch.setattr(X, "is_transitive_on_points", lambda cap: True)
                assert X.transitivity_report().base_component_transitive == flags
                intransitive_flags += not all(flags)
            non_full_kernels += 1 < len(kernel) < 6**m
            assert X._closure is None
        assert non_full_kernels >= 10 and transitive_non_full >= 5 and intransitive_flags >= 3

    def test_order_agrees_with_sympy_on_the_faithful_images(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        SympyPerm, SympyGroup = combinatorics.Permutation, combinatorics.PermutationGroup
        rng = random.Random(79)
        cases = [conjugated_full_wreath_product(rng, 3, 4), full_wreath_product(4, 4)]
        cases += [random_wreath_subgroup(rng, q, m, n_gens=2) for q, m in ((2, 5), (3, 4), (4, 3), (5, 2))]
        cases += [block_intransitive_subgroup(rng, 3, 4), two_block_wreath_product(rng, 2, 3)]
        for X in cases:
            q, m = X.ctx.gamma_size, X.ctx.delta_size
            group = SympyGroup([SympyPerm(faithful_images(g)) for g in X.generators])
            assert X.order() == group.order()
            kernel_order = math.prod(len(lvl.orbit) for lvl in X._get_chain().levels[m:])
            assert kernel_order == group.pointwise_stabilizer(list(range(m))).order()
        assert cases[0].order() == 6**4 * 24

    def test_order_of_a_conjugated_sym4_wr_sym30(self):
        """X's chain on 150 points, with 30 block points leading the base,
        gives the order of Sym(4) wr Sym(30) with no oracle to run."""
        X = conjugated_full_wreath_product(random.Random(30), 4, 30)
        assert X.order() == 24**30 * math.factorial(30)

    def test_prefix_on_relabelled_points_agrees_with_sympy(self):
        """The prefix need not be the smallest points: on the faithful
        images of Sym(3) wr Sym(4) with every point relabelled, the
        relabelled block points lead the base and the levels after them
        have the order of their pointwise stabilizer."""
        combinatorics = pytest.importorskip("sympy.combinatorics")
        SympyPerm, SympyGroup = combinatorics.Permutation, combinatorics.PermutationGroup
        rng = random.Random(83)
        q, m = 3, 4
        n = m + q * m
        relabel = random_permutation(rng, n)
        gens = [
            relabel.inverse() * Permutation(faithful_images(g)) * relabel
            for g in conjugated_full_wreath_product(rng, q, m).generators
        ]
        prefix = tuple(relabel[d] for d in range(m))
        chain = StabilizerChain(n, gens, base=prefix)
        assert tuple(lvl.point for lvl in chain.levels[:m]) == prefix
        group = SympyGroup([SympyPerm(list(g.images)) for g in gens])
        assert chain.order() == group.order() == 6**4 * 24
        kernel_order = math.prod(len(lvl.orbit) for lvl in chain.levels[m:])
        assert kernel_order == group.pointwise_stabilizer(list(prefix)).order() == 6**4


class TestOrderRefusal:
    def test_full_sym4_wr_sym4_is_refused_by_order(self):
        X = full_wreath_product(4, 4)
        start = time.perf_counter()
        with pytest.raises(EnumerationOverflow, match="subgroup order 7962624 exceeds cap 1000000"):
            X.enumerate_elements()
        assert time.perf_counter() - start < 1.0
        assert X._closure is None
        assert X.order() == 7962624

    def test_cap_is_checked_against_the_order_after_a_closure(self):
        X = full_w22()
        assert len(X.enumerate_elements()) == X.order() == 8
        with pytest.raises(EnumerationOverflow, match="subgroup order 8 exceeds cap 7"):
            X.enumerate_elements(cap=7)
