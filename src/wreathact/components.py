"""Subgroups of a wreath product and their coordinate components.

For X <= Sym(Gamma) wr Sym(Delta), the stabilizer of coordinate d (the
subgroup whose tops fix d) projects onto a permutation group on Gamma via
``fh -> f[d]``, the d-component of X. Components are computed from lifted
Schreier generators, never by enumerating X.

The module also provides the permutational embedding that splits X along
an invariant subset of the coordinates, certified on generators and
stabilizer chains, and the transitivity scan report used to confirm that
a group transitive on Pi has transitive components. Only that scan and
the brute-force oracles enumerate X, under a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegreeMismatchError, EnumerationOverflow
from .perm import DEFAULT_CAP, GenGroup, Permutation, same_group
from .wreath import Point, WreathContext, WreathElement


def element_sort_key(w: WreathElement) -> tuple:
    """Deterministic ordering key for wreath elements (used in reports)."""
    return (tuple(p.images for p in w.base), w.top.images)


@dataclass
class ComponentWitnessOrbit:
    """Orbit of a Gamma-point under a component, with realizing witnesses.

    ``witness[gamma]`` lies in the coordinate stabilizer of ``delta`` and
    its base entry at ``delta`` maps ``base_point`` to ``gamma``; witnesses
    are products of lifted Schreier generators in BFS discovery order.
    """

    delta: int
    base_point: int
    orbit: tuple[int, ...]
    witness: dict[int, WreathElement]


class WreathSubgroup:
    """A finitely generated subgroup of Sym(Gamma) wr Sym(Delta).

    The induced coordinate action, its orbit partition, and the stabilizer
    generators and component of every coordinate are built eagerly at
    construction; afterwards all reads are pure, so instances are safe to
    share read-only across threads. (The brute-force element closure is the
    one lazy cache; build it before sharing if a thread will need it.)
    """

    def __init__(self, ctx: WreathContext, generators: Iterable[WreathElement]):
        gens = tuple(generators)
        for g in gens:
            if g.ctx != ctx:
                raise DegreeMismatchError(
                    f"generator context {g.ctx!r} != subgroup context {ctx!r}"
                )
        self.ctx = ctx
        self.generators = gens
        self.induced_group = GenGroup(
            ctx.delta_size, tuple(g.top for g in gens)
        )
        self.delta_orbits: tuple[tuple[int, ...], ...] = tuple(
            tuple(orbit) for orbit in self.induced_group.orbits()
        )
        self._stab_gens: dict[int, tuple[WreathElement, ...]] = {}
        self._components: dict[int, GenGroup] = {}
        self._closure: frozenset[WreathElement] | None = None
        for d in range(ctx.delta_size):
            self.component(d)

    def __repr__(self) -> str:
        return f"WreathSubgroup({self.ctx!r}, generators={len(self.generators)})"

    @property
    def is_delta_transitive(self) -> bool:
        return len(self.delta_orbits) == 1

    def identity(self) -> WreathElement:
        return self.ctx.identity_element()

    # ----- coordinate orbits with wreath witnesses -----

    def delta_orbit_with_witnesses(
        self, start: int
    ) -> tuple[list[int], dict[int, WreathElement]]:
        """BFS orbit of a coordinate under the induced action, witnesses lifted.

        ``witness[d]`` is a product of the subgroup's generators whose top
        maps ``start`` to ``d``; ``witness[start]`` is the identity.
        """
        if not 0 <= start < self.ctx.delta_size:
            raise ValueError(f"coordinate {start} out of range")
        orbit = [start]
        witness = {start: self.identity()}
        i = 0
        while i < len(orbit):
            beta = orbit[i]
            i += 1
            for s in self.generators:
                gamma = s.top[beta]
                if gamma not in witness:
                    witness[gamma] = witness[beta] * s
                    orbit.append(gamma)
        return orbit, witness

    # ----- coordinate stabilizers and components -----

    def partition_stabilizer_gens(self, delta: int) -> tuple[WreathElement, ...]:
        """Generators of the stabilizer {fh in X : d h = d} of coordinate ``delta``.

        Schreier generators of the point stabilizer in the induced action,
        lifted through the same generator words to wreath elements.
        Identities and duplicates are pruned.
        """
        if delta in self._stab_gens:
            return self._stab_gens[delta]
        orbit, witness = self.delta_orbit_with_witnesses(delta)
        out: list[WreathElement] = []
        seen: set[WreathElement] = set()
        for beta in orbit:
            u = witness[beta]
            for s in self.generators:
                schreier = u * s * witness[s.top[beta]].inverse()
                if schreier.is_identity() or schreier in seen:
                    continue
                seen.add(schreier)
                out.append(schreier)
        result = tuple(out)
        self._stab_gens[delta] = result
        return result

    def component(self, delta: int) -> GenGroup:
        """The group on Gamma induced by the coordinate stabilizer at ``delta``.

        Generated by the base entries at ``delta`` of the lifted Schreier
        generators; sound because homomorphic images of generating sets
        generate the image.
        """
        if delta in self._components:
            return self._components[delta]
        entries: list[Permutation] = []
        seen: set[Permutation] = set()
        for g in self.partition_stabilizer_gens(delta):
            p = g.base[delta]
            if p.is_identity() or p in seen:
                continue
            seen.add(p)
            entries.append(p)
        group = GenGroup(self.ctx.gamma_size, tuple(entries))
        self._components[delta] = group
        return group

    def component_witness_orbit(self, delta: int, gamma0: int) -> ComponentWitnessOrbit:
        """Orbit of ``gamma0`` under the component at ``delta``, with witnesses."""
        if not 0 <= gamma0 < self.ctx.gamma_size:
            raise ValueError(f"point {gamma0} out of range")
        stab = self.partition_stabilizer_gens(delta)
        orbit = [gamma0]
        witness = {gamma0: self.identity()}
        i = 0
        while i < len(orbit):
            gamma = orbit[i]
            i += 1
            for s in stab:
                image = s.base[delta][gamma]
                if image not in witness:
                    witness[image] = witness[gamma] * s
                    orbit.append(image)
        return ComponentWitnessOrbit(delta, gamma0, tuple(orbit), witness)

    # ----- brute-force oracles -----

    def enumerate_elements(self, cap: int = DEFAULT_CAP) -> frozenset[WreathElement]:
        """The full element set by BFS closure, or a loud overflow past ``cap``."""
        if self._closure is not None:
            if len(self._closure) > cap:
                raise EnumerationOverflow(
                    f"subgroup order {len(self._closure)} exceeds cap {cap}"
                )
            return self._closure
        identity = self.identity()
        elements = {identity}
        frontier = [identity]
        while frontier:
            new: list[WreathElement] = []
            for e in frontier:
                for s in self.generators:
                    c = e * s
                    if c not in elements:
                        if len(elements) >= cap:
                            raise EnumerationOverflow(f"closure exceeds cap {cap}")
                        elements.add(c)
                        new.append(c)
            frontier = new
        self._closure = frozenset(elements)
        return self._closure

    def orbit_of_point(self, start: Point, cap: int = DEFAULT_CAP) -> list[Point]:
        """BFS orbit of a point of Pi under the generators."""
        start = self.ctx.check_point(start)
        if self.ctx.point_count() > cap:
            raise EnumerationOverflow(
                f"|Pi| = {self.ctx.point_count()} exceeds cap {cap}"
            )
        orbit = [start]
        seen = {start}
        i = 0
        while i < len(orbit):
            phi = orbit[i]
            i += 1
            for s in self.generators:
                image = s.apply(phi)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        return orbit

    def is_transitive_on_points(self, cap: int = DEFAULT_CAP) -> bool:
        start = self.ctx.constant_point(0)
        return len(self.orbit_of_point(start, cap)) == self.ctx.point_count()

    def intersection_with_base(self, cap: int = DEFAULT_CAP) -> tuple[WreathElement, ...]:
        """Elements with identity top, by enumeration under the cap, sorted."""
        kernel = [w for w in self.enumerate_elements(cap) if w.top.is_identity()]
        kernel.sort(key=element_sort_key)
        return tuple(kernel)

    # ----- transitivity scan -----

    def transitivity_report(self, cap: int = DEFAULT_CAP) -> "TransitivityReport":
        """Check that transitivity on Pi forces transitive components.

        Also checks, when the subgroup is additionally transitive on the
        coordinates, that every component of the intersection with the base
        group is transitive. ``violation`` must never be True; it flags a
        counterexample to either implication.
        """
        transitive_on_points = self.is_transitive_on_points(cap)
        component_transitive = tuple(
            self.component(d).is_transitive() for d in range(self.ctx.delta_size)
        )
        delta_transitive = self.is_delta_transitive
        base_component_transitive: tuple[bool, ...] | None = None
        if transitive_on_points and delta_transitive:
            kernel = self.intersection_with_base(cap)
            flags = []
            for d in range(self.ctx.delta_size):
                entries = _pruned_entries(kernel, d)
                flags.append(GenGroup(self.ctx.gamma_size, entries).is_transitive())
            base_component_transitive = tuple(flags)
        violation = transitive_on_points and (
            not all(component_transitive)
            or (
                base_component_transitive is not None
                and not all(base_component_transitive)
            )
        )
        return TransitivityReport(
            transitive_on_points=transitive_on_points,
            component_transitive=component_transitive,
            delta_transitive=delta_transitive,
            base_component_transitive=base_component_transitive,
            violation=violation,
        )

    # ----- splitting along an invariant coordinate set -----

    def split(self, delta0: Iterable[int], cap: int = DEFAULT_CAP) -> "SplitResult":
        """Split along an invariant, nonempty, proper coordinate subset.

        Restricting every generator to ``delta0`` and to its complement
        (coordinates renumbered in natural order) yields two subgroups
        whose product action reproduces the original one. The result
        certifies this without enumerating X: the point map is a bijection
        (checked over Pi, so |Pi| must stay below ``cap``); restriction to
        an invariant subset is a homomorphism, so the element map is
        injective once every generator reassembles from its two
        restrictions, and equivariant once every generator is; every
        component is preserved (``same_group``).
        """
        part0 = sorted(set(delta0))
        m = self.ctx.delta_size
        if not part0 or len(part0) == m:
            raise ValueError("coordinate subset must be nonempty and proper")
        if part0[0] < 0 or part0[-1] >= m:
            raise ValueError("coordinate subset out of range")
        chosen = set(part0)
        for orbit in self.delta_orbits:
            hit = chosen.intersection(orbit)
            if hit and len(hit) != len(orbit):
                raise ValueError(
                    f"coordinate subset is not invariant: orbit {orbit} is cut"
                )
        part1 = [d for d in range(m) if d not in chosen]
        halves = []
        for part in (part0, part1):
            position = {d: i for i, d in enumerate(part)}
            sub_ctx = WreathContext(self.ctx.gamma_size, len(part))
            restricted = tuple(
                WreathElement(
                    tuple(g.base[d] for d in part),
                    Permutation(position[g.top[d]] for d in part),
                )
                for g in self.generators
            )
            halves.append((WreathSubgroup(sub_ctx, restricted), position))
        (x0, pos0), (x1, pos1) = halves
        gens0, gens1 = x0.generators, x1.generators

        def restrict_point(phi: Point, part: list[int]) -> Point:
            return tuple(phi[d] for d in part)

        # (a) the restriction pair is a bijection Pi -> Omega0 x Omega1;
        # (d) equivariance of the point map, generator by generator
        images = set()
        total = 0
        equivariant = True
        for phi in self.ctx.all_points():
            total += 1
            if total > cap:
                raise EnumerationOverflow(f"|Pi| exceeds cap {cap}")
            phi0, phi1 = restrict_point(phi, part0), restrict_point(phi, part1)
            images.add((phi0, phi1))
            for g, g0, g1 in zip(self.generators, gens0, gens1):
                image = g.apply(phi)
                if (
                    restrict_point(image, part0) != g0.apply(phi0)
                    or restrict_point(image, part1) != g1.apply(phi1)
                ):
                    equivariant = False
        theta_bijective = len(images) == self.ctx.point_count()

        # (b) injectivity: every generator reassembles from its restrictions
        chi_injective = all(
            _reassemble((part0, part1), (g0, g1)) == g
            for g, g0, g1 in zip(self.generators, gens0, gens1)
        )

        # (c) components are preserved coordinate by coordinate
        component_preserved: dict[int, bool] = {}
        for part, pos, half in ((part0, pos0, x0), (part1, pos1, x1)):
            for d in part:
                component_preserved[d] = same_group(
                    self.component(d), half.component(pos[d])
                )

        return SplitResult(
            parent=self,
            delta0=tuple(part0),
            delta1=tuple(part1),
            first=x0,
            second=x1,
            position0={d: pos0[d] for d in part0},
            position1={d: pos1[d] for d in part1},
            theta_bijective=theta_bijective,
            chi_injective=chi_injective,
            equivariant=equivariant,
            component_preserved=component_preserved,
        )


def _reassemble(
    parts: tuple[list[int], list[int]], halves: tuple[WreathElement, WreathElement]
) -> WreathElement:
    """The element of the full wreath product acting as ``halves[i]`` on
    the coordinates ``parts[i]`` (renumbered in natural order)."""
    base: dict[int, Permutation] = {}
    top: dict[int, int] = {}
    for part, half in zip(parts, halves):
        for i, d in enumerate(part):
            base[d] = half.base[i]
            top[d] = part[half.top[i]]
    coordinates = range(len(base))
    return WreathElement([base[d] for d in coordinates], Permutation(top[d] for d in coordinates))


def _pruned_entries(elements: Sequence[WreathElement], delta: int) -> tuple[Permutation, ...]:
    entries: list[Permutation] = []
    seen: set[Permutation] = set()
    for w in elements:
        p = w.base[delta]
        if p.is_identity() or p in seen:
            continue
        seen.add(p)
        entries.append(p)
    return tuple(entries)


@dataclass
class TransitivityReport:
    """Outcome of the transitive-components scan for one subgroup."""

    transitive_on_points: bool
    component_transitive: tuple[bool, ...]
    delta_transitive: bool
    base_component_transitive: tuple[bool, ...] | None
    violation: bool

    def report_lines(self) -> list[str]:
        lines = [
            f"transitive-on-points: {_yn(self.transitive_on_points)}",
            f"delta-transitive: {_yn(self.delta_transitive)}",
        ]
        for d, flag in enumerate(self.component_transitive):
            lines.append(f"component {d} transitive: {_yn(flag)}")
        if self.base_component_transitive is not None:
            for d, flag in enumerate(self.base_component_transitive):
                lines.append(f"base-intersection component {d} transitive: {_yn(flag)}")
        lines.append(f"violation: {_yn(self.violation)}")
        return lines


@dataclass
class SplitResult:
    """The two restricted subgroups plus the embedding certificate."""

    parent: WreathSubgroup
    delta0: tuple[int, ...]
    delta1: tuple[int, ...]
    first: WreathSubgroup
    second: WreathSubgroup
    position0: dict[int, int]
    position1: dict[int, int]
    theta_bijective: bool
    chi_injective: bool
    equivariant: bool
    component_preserved: dict[int, bool]

    @property
    def ok(self) -> bool:
        return (
            self.theta_bijective
            and self.chi_injective
            and self.equivariant
            and all(self.component_preserved.values())
        )

    def report_lines(self) -> list[str]:
        lines = [
            f"delta0: {','.join(str(d) for d in self.delta0)}",
            f"delta1: {','.join(str(d) for d in self.delta1)}",
            "delta0-renumbering: "
            + " ".join(f"{d}->{self.position0[d]}" for d in self.delta0),
            "delta1-renumbering: "
            + " ".join(f"{d}->{self.position1[d]}" for d in self.delta1),
            f"check-point-map-bijective: {_yn(self.theta_bijective)}",
            f"check-element-map-injective: {_yn(self.chi_injective)}",
            f"check-equivariant: {_yn(self.equivariant)}",
            "check-components-preserved: "
            + _yn(all(self.component_preserved.values())),
        ]
        return lines


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"
