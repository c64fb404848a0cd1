"""Subgroups of a wreath product and their coordinate components.

For X <= Sym(Gamma) wr Sym(Delta), the stabilizer of coordinate d (the
subgroup whose tops fix d) projects onto a permutation group on Gamma via
``fh -> f[d]``, the d-component of X. Components and their entry
transversals are computed from base entries alone, never from wreath
Schreier generators or by enumerating X.

The module also provides the permutational embedding that splits X along
an invariant subset of the coordinates, certified on generator data alone
by reassembling each generator from its restrictions, and the transitivity
scan report used to confirm that a group transitive on Pi has transitive
components. The order of X and its intersection with the base group come
from a stabilizer chain. Only the scan's orbit on Pi and the brute-force
oracles list points or elements, under a cap.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DegreeMismatchError, EnumerationOverflow
from .perm import (
    DEFAULT_CAP,
    GenGroup,
    Images,
    Permutation,
    StabilizerChain,
    _compose,
    _from_images,
    _invert,
    _times,
    orbit_with_witnesses,
    schreier_generators,
)
from .wreath import Point, WreathContext, WreathElement, _from_parts


class WreathSubgroup:
    """A finitely generated subgroup of Sym(Gamma) wr Sym(Delta).

    The induced coordinate action and its orbit partition are built at
    construction. The component of each coordinate, with its entry
    transversal, and the stabilizer chain are lazy caches built on first
    use; build the ones a thread will need before sharing an instance
    across threads, after which all reads are pure. The oracle
    ``enumerate_elements`` lists the elements afresh on each call.
    """

    def __init__(self, ctx: WreathContext, generators: Iterable[WreathElement]):
        gens = tuple(generators)
        q, m = ctx.gamma_size, ctx.delta_size
        for g in gens:
            if g.base[0].degree != q or g.top.degree != m:
                raise DegreeMismatchError(
                    f"generator context {g.ctx!r} != subgroup context {ctx!r}"
                )
        self.ctx = ctx
        self.generators = gens
        self.induced_group = GenGroup(
            ctx.delta_size, tuple(g.top for g in gens)
        )
        self.delta_orbits: tuple[tuple[int, ...], ...] = tuple(
            map(tuple, self.induced_group.orbits())
        )
        self._components: dict[int, tuple[GenGroup, Mapping[int, Permutation]]] = {}
        self._chain: StabilizerChain | None = None

    def __repr__(self) -> str:
        return f"WreathSubgroup({self.ctx!r}, generators={len(self.generators)})"

    @property
    def is_delta_transitive(self) -> bool:
        return len(self.delta_orbits) == 1

    def identity(self) -> WreathElement:
        return self.ctx.identity_element()

    # ----- coordinate stabilizers and components -----

    def partition_stabilizer_gens(self, delta: int) -> tuple[WreathElement, ...]:
        """Generators of the stabilizer {fh in X : d h = d} of coordinate ``delta``.

        Schreier generators of the point stabilizer in the induced action,
        as wreath elements over the same generator words. Identities and
        duplicates are pruned. This is the oracle that ``component`` and
        ``entry_transversal`` are checked against; the library itself never
        builds a wreath Schreier generator.
        """
        if not 0 <= delta < self.ctx.delta_size:
            raise ValueError(f"coordinate {delta} out of range")
        orbit, witness = orbit_with_witnesses(delta, self.generators, _top_image, self.identity())
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
        the identity. These are the entries at ``delta`` of the BFS
        witnesses in X of the coordinate orbit, computed without them. A
        read-only view of the cache built with the component.
        """
        return self._component_data(delta)[1]

    def _component_data(self, delta: int) -> tuple[GenGroup, Mapping[int, Permutation]]:
        """The component and the entry transversal at ``delta``.

        One BFS on raw image tuples does both: the pair (beta, s) that
        first reaches ``beta^s`` makes its transversal entry, and every
        other pair gives the Schreier entry ``u[beta] * s.base[beta] *
        u[beta^s]^-1``, which is the identity exactly when the product
        before the inverse equals ``u[beta^s]``. Entries are deduplicated
        as tuples, in the order of the two nested loops, and only the
        survivors become ``Permutation`` objects.
        """
        if delta in self._components:
            return self._components[delta]
        if not 0 <= delta < self.ctx.delta_size:
            raise ValueError(f"coordinate {delta} out of range")
        q = self.ctx.gamma_size
        pairs = [(s.top.images, s.base) for s in self.generators]
        orbit = [delta]
        u = {delta: tuple(range(q))}
        u_inverse = {delta: u[delta]}
        entries: dict[Images, None] = {}
        for beta in orbit:
            u_beta = u[beta]
            for top, base in pairs:
                gamma = top[beta]
                v = _compose(u_beta, base[beta].images)
                if gamma not in u:
                    u[gamma] = v
                    u_inverse[gamma] = _invert(v)
                    orbit.append(gamma)
                elif v != u[gamma]:
                    entries[_compose(v, u_inverse[gamma])] = None
        data = (
            GenGroup(q, map(_from_images, entries)),
            MappingProxyType({beta: _from_images(entry) for beta, entry in u.items()}),
        )
        self._components[delta] = data
        return data

    def _get_chain(self) -> StabilizerChain:
        """X on m + q*m points: block point d goes to ``top[d]``, point
        ``m + d*q + a`` to ``m + top[d]*q + base[d][a]``. The block points
        lead the base, so the strong generators at the levels after them
        generate X meet B, the elements with identity top."""
        if self._chain is None:
            q, m = self.ctx.gamma_size, self.ctx.delta_size
            images = (
                g.top.images
                + tuple(m + g.top[d] * q + g.base[d][a] for d in range(m) for a in range(q))
                for g in self.generators
            )
            self._chain = StabilizerChain(m + q * m, map(Permutation, images), base=range(m))
        return self._chain

    def order(self) -> int:
        return self._get_chain().order()

    # ----- brute-force oracles -----

    def enumerate_elements(self, cap: int = DEFAULT_CAP) -> frozenset[WreathElement]:
        """The full element set, the orbit of the identity under right
        multiplication, refused by order over ``cap``."""
        order = self.order()
        if order > cap:
            raise EnumerationOverflow(f"subgroup order {order} exceeds cap {cap}")
        return frozenset(orbit_with_witnesses(self.identity(), self.generators, _times)[0])

    def orbit_of_point(self, start: Point, cap: int = DEFAULT_CAP) -> list[Point]:
        """BFS orbit of a point of Pi under the generators."""
        start = self.ctx.check_point(start)
        if self.ctx.point_count() > cap:
            raise EnumerationOverflow(
                f"|Pi| = {self.ctx.point_count()} exceeds cap {cap}"
            )
        return orbit_with_witnesses(start, self.generators, WreathElement.apply)[0]

    def is_transitive_on_points(self, cap: int = DEFAULT_CAP) -> bool:
        start = self.ctx.constant_point(0)
        return len(self.orbit_of_point(start, cap)) == self.ctx.point_count()

    # ----- transitivity scan -----

    def transitivity_report(self, cap: int = DEFAULT_CAP) -> "TransitivityReport":
        """Check that transitivity on Pi forces transitive components.

        Also checks, when the subgroup is additionally transitive on the
        coordinates, that every component of the intersection with the base
        group is transitive. ``violation`` must never be True; it flags a
        counterexample to either implication. ``cap`` bounds only |Pi|: X
        meet B, which fixes every block point, comes from ``_get_chain``.
        Components along a coordinate orbit are conjugate (by the entry
        transversal), so one component per orbit decides the flag for all
        of its coordinates.
        """
        transitive_on_points = self.is_transitive_on_points(cap)
        flags = [False] * self.ctx.delta_size
        for orbit in self.delta_orbits:
            transitive = self.component(orbit[0]).is_transitive()
            for d in orbit:
                flags[d] = transitive
        component_transitive = tuple(flags)
        delta_transitive = self.is_delta_transitive
        base_component_transitive: tuple[bool, ...] | None = None
        if transitive_on_points and delta_transitive:
            q, m = self.ctx.gamma_size, self.ctx.delta_size
            levels = self._get_chain().levels
            kernel = GenGroup(m + q * m, map(Permutation, levels[m].gens if len(levels) > m else ()))
            base_component_transitive = tuple(len(kernel.orbit(m + d * q)) == q for d in range(m))
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
        certifies this from generator data alone, with no cap, no point
        applied and no component or chain built, in time linear in m per
        generator: the point map is a bijection because the two parts
        partition the coordinates, and one reassembly check decides every
        other flag. Once every generator reassembles from its two
        restrictions, the halves are generated by the restrictions of X's
        generators. Restriction to an invariant part is a homomorphism
        that selects the part's columns and keeps every base entry, so the
        element map is injective and equivariant, and it carries the
        stabilizer of each coordinate onto that of its new position with
        the same entries, so every component is preserved.
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
            # the part is invariant, so each renumbered top permutes it
            position = {d: i for i, d in enumerate(part)}
            sub_ctx = WreathContext(self.ctx.gamma_size, len(part))
            restricted = tuple(
                _from_parts(
                    _compose(part, g.base),
                    _from_images(tuple(position[g.top.images[d]] for d in part)),
                )
                for g in self.generators
            )
            halves.append((WreathSubgroup(sub_ctx, restricted), position))
        (x0, pos0), (x1, pos1) = halves

        # the restriction pair is a bijection Pi -> Omega0 x Omega1 exactly
        # when the two parts partition the coordinates
        theta_bijective = sorted(part0 + part1) == list(range(m))

        # every other flag is read off reassembly: each half generator's
        # entry at i is g's entry at part[i], and its top, renumbered back,
        # is g's top on the part. For q >= 2 the action on Pi determines the
        # element, so a generator that does not reassemble does break
        # equivariance; for q = 1, Pi is a single point
        reassembles = all(
            h.base[i] == g.base[d] and part[h.top[i]] == g.top[d]
            for part, half in ((part0, x0), (part1, x1))
            for g, h in zip(self.generators, half.generators)
            for i, d in enumerate(part)
        )

        return SplitResult(
            delta0=tuple(part0),
            delta1=tuple(part1),
            first=x0,
            second=x1,
            position0=pos0,
            position1=pos1,
            theta_bijective=theta_bijective,
            chi_injective=reassembles,
            equivariant=reassembles,
            component_preserved=dict.fromkeys(range(m), reassembles),
        )


def _top_image(w: WreathElement, d: int) -> int:
    return w.top[d]


class TransitivityReport(namedtuple(
    "TransitivityReport",
    "transitive_on_points component_transitive delta_transitive"
    " base_component_transitive violation",
)):
    """Outcome of the transitive-components scan for one subgroup.

    Fields: ``transitive_on_points`` (bool), ``component_transitive``
    (tuple[bool, ...]), ``delta_transitive`` (bool),
    ``base_component_transitive`` (tuple[bool, ...] | None) and
    ``violation`` (bool).
    """

    __slots__ = ()


class SplitResult(namedtuple(
    "SplitResult",
    "delta0 delta1 first second position0 position1 theta_bijective"
    " chi_injective equivariant component_preserved",
)):
    """The two restricted subgroups plus the embedding certificate, checked
    on generator data with no cap: bijection by the partition of the
    coordinates, injectivity, equivariance and every preserved component
    by reassembling every generator from its restrictions (see ``split``).

    Fields: ``delta0`` and ``delta1`` (tuple[int, ...]), ``first`` and
    ``second`` (WreathSubgroup), ``position0`` and ``position1``
    (dict[int, int]), ``theta_bijective``, ``chi_injective`` and
    ``equivariant`` (bool), and ``component_preserved`` (dict[int, bool]).
    """

    __slots__ = ()

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
