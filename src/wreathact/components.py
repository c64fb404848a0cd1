"""Subgroups of a wreath product and their coordinate components.

For X <= Sym(Gamma) wr Sym(Delta), the stabilizer of coordinate d (the
subgroup whose tops fix d) projects onto a permutation group on Gamma via
``fh -> f[d]``, the d-component of X. Components and their entry
transversals are computed from base entries alone, never from wreath
Schreier generators or by enumerating X.

The module also provides the permutational embedding that splits X along
an invariant subset of the coordinates, certified on generator data alone,
and the transitivity scan report used to confirm that a group transitive
on Pi has transitive components. Only that scan and the brute-force
oracles enumerate X or Pi, under a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DegreeMismatchError, EnumerationOverflow
from .perm import (
    DEFAULT_CAP,
    GenGroup,
    Permutation,
    closure,
    orbit_with_witnesses,
    same_group,
    schreier_generators,
)
from .wreath import Point, WreathContext, WreathElement


def element_sort_key(w: WreathElement) -> tuple:
    """Deterministic ordering key for wreath elements (used in reports)."""
    return (tuple(p.images for p in w.base), w.top.images)


class WreathSubgroup:
    """A finitely generated subgroup of Sym(Gamma) wr Sym(Delta).

    The induced coordinate action and its orbit partition are built at
    construction. The component of each coordinate, with its entry
    transversal, and the brute-force element closure are lazy caches built
    on first use; build the ones a thread will need before sharing an
    instance across threads, after which all reads are pure.
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
        self._components: dict[int, tuple[GenGroup, Mapping[int, Permutation]]] = {}
        self._closure: frozenset[WreathElement] | None = None

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
        """BFS orbit of a coordinate under the induced action, with witnesses in X.

        ``witness[d]`` is a product of the subgroup's generators whose top
        maps ``start`` to ``d``; ``witness[start]`` is the identity.
        """
        if not 0 <= start < self.ctx.delta_size:
            raise ValueError(f"coordinate {start} out of range")
        return orbit_with_witnesses(start, self.generators, _top_image, self.identity())

    # ----- coordinate stabilizers and components -----

    def partition_stabilizer_gens(self, delta: int) -> tuple[WreathElement, ...]:
        """Generators of the stabilizer {fh in X : d h = d} of coordinate ``delta``.

        Schreier generators of the point stabilizer in the induced action,
        as wreath elements over the same generator words. Identities and
        duplicates are pruned. This is the oracle that ``component`` and
        ``entry_transversal`` are checked against; the library itself never
        builds a wreath Schreier generator.
        """
        orbit, witness = self.delta_orbit_with_witnesses(delta)
        return tuple(schreier_generators(orbit, witness, self.generators, _top_image))

    def component(self, delta: int) -> GenGroup:
        """The group on Gamma induced by the coordinate stabilizer at ``delta``.

        Generated by the entries at ``delta`` of the Schreier generators,
        built from base entries alone: a BFS over the induced action keeps
        ``u[beta]``, the entry at ``delta`` of the witness carrying ``delta``
        to ``beta``, and the entry for (beta, s) is
        ``u[beta] * s.base[beta] * u[beta^s]^-1``. Identities and duplicates
        are pruned in first-seen order, so the generators equal the pruned
        entries of ``partition_stabilizer_gens``. Sound because homomorphic
        images of generating sets generate the image.
        """
        return self._component_data(delta)[0]

    def entry_transversal(self, delta: int) -> Mapping[int, Permutation]:
        """Entries at ``delta`` of a transversal of its coordinate orbit.

        ``u[beta]`` is the entry at ``delta`` of an element of X whose top
        carries ``delta`` to ``beta``, keyed in BFS order; ``u[delta]`` is
        the identity. These are the entries at ``delta`` of the witnesses
        of ``delta_orbit_with_witnesses``, computed without them. A
        read-only view of the cache built with the component.
        """
        return self._component_data(delta)[1]

    def _component_data(self, delta: int) -> tuple[GenGroup, Mapping[int, Permutation]]:
        """The component and the entry transversal at ``delta``."""
        if delta in self._components:
            return self._components[delta]
        if not 0 <= delta < self.ctx.delta_size:
            raise ValueError(f"coordinate {delta} out of range")
        orbit = [delta]
        u = {delta: Permutation.identity(self.ctx.gamma_size)}
        for beta in orbit:
            for s in self.generators:
                if s.top[beta] not in u:
                    u[s.top[beta]] = u[beta] * s.base[beta]
                    orbit.append(s.top[beta])
        u_inverse = {beta: entry.inverse() for beta, entry in u.items()}
        entries = dict.fromkeys(
            u[beta] * s.base[beta] * u_inverse[s.top[beta]]
            for beta in orbit
            for s in self.generators
        )
        generators = (entry for entry in entries if not entry.is_identity())
        data = (GenGroup(self.ctx.gamma_size, generators), MappingProxyType(u))
        self._components[delta] = data
        return data

    # ----- brute-force oracles -----

    def enumerate_elements(self, cap: int = DEFAULT_CAP) -> frozenset[WreathElement]:
        """The full element set by BFS closure, or a loud overflow past ``cap``."""
        if self._closure is not None:
            if len(self._closure) > cap:
                raise EnumerationOverflow(
                    f"subgroup order {len(self._closure)} exceeds cap {cap}"
                )
            return self._closure
        self._closure = closure(self.identity(), self.generators, cap)
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
        for phi in orbit:
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

    def split(self, delta0: Iterable[int]) -> "SplitResult":
        """Split along an invariant, nonempty, proper coordinate subset.

        Restricting every generator to ``delta0`` and to its complement
        (coordinates renumbered in natural order) yields two subgroups
        whose product action reproduces the original one. The result
        certifies this from generator data alone, with no cap: the point
        map is a bijection because the two parts partition the
        coordinates; restriction to an invariant subset is a homomorphism,
        so the element map is injective once every generator reassembles
        from its two restrictions, and equivariant once every generator is
        on the (q-1)*m + 1 probe words, which determine an element of the
        wreath product; every component is preserved (``same_group``). The
        probe words are applied as columns (``apply_columns``), so their
        restriction to a part is a selection of columns.
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

        # (a) the restriction pair is a bijection Pi -> Omega0 x Omega1
        # exactly when the two parts partition the coordinates
        theta_bijective = sorted(part0 + part1) == list(range(m))

        # (d) equivariance of the point map, generator by generator, on the
        # probe words 0^m and its one-coordinate changes: an element of the
        # wreath product sends the word with a at d to its image of 0^m with
        # base[d][a] at top[d], so for q >= 2 these determine the element;
        # for q = 1, Pi is the one word 0^m. As columns: column d is 0 except
        # on the q-1 probes that change coordinate d, where it runs 1..q-1
        letters = list(range(1, self.ctx.gamma_size))
        step = len(letters)
        probes = [
            [0] * (1 + step * d) + letters + [0] * (step * (m - 1 - d)) for d in range(m)
        ]
        probes0, probes1 = ([probes[d] for d in part] for part in (part0, part1))
        equivariant = all(
            [image[d] for d in part0] == g0.apply_columns(probes0)
            and [image[d] for d in part1] == g1.apply_columns(probes1)
            for g, g0, g1 in zip(self.generators, gens0, gens1)
            for image in (g.apply_columns(probes),)
        )

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


def _top_image(w: WreathElement, d: int) -> int:
    return w.top[d]


def _pruned_entries(elements: Sequence[WreathElement], delta: int) -> tuple[Permutation, ...]:
    """Distinct non-identity base entries at ``delta``, in first-seen order."""
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
    """The two restricted subgroups plus the embedding certificate, checked
    on generator data with no cap: bijection by the partition of the
    coordinates, equivariance on the probe words (see ``split``)."""

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
