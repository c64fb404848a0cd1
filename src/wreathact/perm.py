"""Exact permutations of {0..n-1} and finitely generated permutation groups.

Conventions fixed across the whole package:

* points are 0-based indices;
* permutations act on the right, the image of ``i`` under ``p`` is ``p[i]``;
* products compose left to right: ``(p * q)[i] == q[p[i]]``.

Orbit searches visit generators in declaration order, so every orbit,
witness, transversal and Schreier generator list is deterministic.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Callable, Iterable, Literal, Sequence, TypeVar

from .errors import (
    DegreeMismatchError,
    EnumerationOverflow,
    InvalidPermutationError,
    ParseError,
)

# Ceiling for brute-force closures; exceeding it raises, never truncates.
DEFAULT_CAP = 10**6

Transitivity = Literal["intransitive", "transitive", "2-transitive-or-more"]
INTRANSITIVE: Transitivity = "intransitive"
TRANSITIVE: Transitivity = "transitive"
TWO_TRANSITIVE: Transitivity = "2-transitive-or-more"

# Element type of the shared orbit and Schreier routines:
# Permutation or WreathElement (hashable, ``*``, ``inverse``, ``is_identity``).
E = TypeVar("E")
T = TypeVar("T")


class Permutation:
    """A bijection of {0..n-1}, stored as its image tuple.

    Immutable and hashable; safe to share between threads and to use as a
    set element or dict key.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if not imgs:
            raise InvalidPermutationError("degree must be at least 1")
        for i in imgs:
            if not isinstance(i, int):
                raise InvalidPermutationError(f"image {i!r} is not an integer: {list(imgs)}")
        if sorted(imgs) != list(range(len(imgs))):
            raise InvalidPermutationError(
                f"not a permutation of 0..{len(imgs) - 1}: {list(imgs)}"
            )
        self.images = imgs

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __getitem__(self, point: int) -> int:
        """Image of ``point`` under the permutation (right action)."""
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Compose left to right: apply ``self`` first, then ``other``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        images = self.images
        if len(other.images) != len(images):
            raise DegreeMismatchError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return _from_images(_compose(images, other.images))

    def inverse(self) -> "Permutation":
        return _from_images(_invert(self.images))

    def conjugate(self, g: "Permutation") -> "Permutation":
        """Return ``g^-1 * self * g``."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        """Serialize as a bracketed image list, e.g. ``[1,0,2]``."""
        return "[" + ",".join(map(str, self.images)) + "]"

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse the ``[1,0,2]`` serialization."""
        t = text.strip()
        if not (t.startswith("[") and t.endswith("]")):
            raise ParseError(f"expected a bracketed image list, got {text!r}")
        inner = t[1:-1].strip()
        if not inner:
            raise ParseError("empty image list")
        try:
            images = tuple(map(int, inner.split(",")))
        except ValueError:
            raise ParseError(f"non-integer entry in image list {text!r}") from None
        # text yields ints only, so one sorted check is all of __init__'s;
        # a list that fails it goes through __init__ for its error
        if sorted(images) == list(range(len(images))):
            return _from_images(images)
        return cls(images)


def _from_images(images: tuple[int, ...]) -> Permutation:
    """A ``Permutation`` on an image tuple known to be valid, unchecked.

    Only for images built from valid permutations (products, inverses,
    restrictions to an invariant part) or that passed ``Permutation``'s
    check (``Permutation.parse``, after its sorted check); other lists go
    through ``Permutation(...)``.
    """
    p = object.__new__(Permutation)
    p.images = images
    return p


def orbit_with_witnesses(
    start, generators: Sequence[E], image: Callable, identity: E | None = None
) -> tuple[list, dict]:
    """BFS orbit of ``start`` with witness elements.

    ``image(s, point)`` is the action of generator ``s``. ``witness[beta]``
    is a product of generators mapping ``start`` to ``beta``, and
    ``witness[start]`` is ``identity``; without ``identity`` no product is
    formed and every witness is None. The orbit list and the witness keys
    are in BFS discovery order with generators applied in declaration order.
    """
    orbit = [start]
    witness = {start: identity}
    for beta in orbit:
        for s in generators:
            gamma = image(s, beta)
            if gamma not in witness:
                witness[gamma] = None if identity is None else witness[beta] * s
                orbit.append(gamma)
    return orbit, witness


def schreier_generators(
    orbit: Sequence, witness: dict, generators: Sequence[E], image: Callable
) -> list[E]:
    """Generators of the stabilizer of ``orbit[0]``, via Schreier's lemma.

    Takes the output of ``orbit_with_witnesses``. Identity elements and
    duplicates are pruned; the remaining order follows the orbit order,
    then the generator order.
    """
    out: list[E] = []
    seen: set[E] = set()
    for beta in orbit:
        u = witness[beta]
        for s in generators:
            schreier = u * s * witness[image(s, beta)].inverse()
            if schreier.is_identity() or schreier in seen:
                continue
            seen.add(schreier)
            out.append(schreier)
    return out


def _times(s: E, e: E) -> E:
    """Right multiplication by ``s``: the orbit of the identity is the group."""
    return e * s


def random_permutation(rng: random.Random, degree: int) -> Permutation:
    imgs = list(range(degree))
    rng.shuffle(imgs)
    return Permutation(imgs)


Images = tuple[int, ...]


def _compose(a: Sequence[int], b: Sequence[T]) -> tuple[T, ...]:
    """Raw image tuples composed left to right: ``a`` first, then ``b``.

    This is the gather ``(b[a[0]], b[a[1]], ...)``, so it also picks the
    entries of any sequence ``b`` at the indices ``a``. Every product in
    the package is this gather (the chain's sift loops spell it inline),
    so it runs as ``itemgetter(*a)(b)``: the gather happens in C, 3-5x
    faster than ``tuple(map(b.__getitem__, a))`` from degree 12 to 1000.
    ``itemgetter`` of one index returns the bare item, and of no index
    raises ``TypeError``, so tuples of length 0 and 1 take the plain loop.
    """
    if len(a) > 1:
        return itemgetter(*a)(b)
    return tuple(b[i] for i in a)


def _invert(images: Images) -> Images:
    """The inverse of a raw image tuple."""
    inverse = [0] * len(images)
    for i, j in enumerate(images):
        inverse[j] = i
    return tuple(inverse)


class _ChainLevel:
    """One level of a stabilizer chain, on raw image tuples.

    ``gens`` (with ``gen_inverses``) generate the level's group and
    ``orbit`` is the basic orbit of ``point`` in discovery order.
    ``transversal[beta]`` maps ``point`` to ``beta``, ``inverse[beta]`` is
    its inverse, and both are None off the orbit. Entries never change once
    made, so a Schreier generator, once sifted, never needs sifting again:
    ``done[a]`` counts the generators whose Schreier generator at
    ``orbit[a]`` has been sifted, and no pair before ``cursor`` is pending.
    """

    __slots__ = ("point", "gens", "gen_inverses", "orbit", "transversal",
                 "inverse", "done", "cursor")

    def __init__(self, point: int, identity: Images):
        self.point = point
        self.gens: list[Images] = []
        self.gen_inverses: list[Images] = []
        self.orbit = [point]
        self.transversal: list[Images | None] = [None] * len(identity)
        self.inverse: list[Images | None] = [None] * len(identity)
        self.transversal[point] = self.inverse[point] = identity
        self.done = [0]
        self.cursor = 0

    def add_gen(self, g: Images, g_inverse: Images) -> None:
        """Take ``g`` as a generator and extend the orbit in place: old
        points under ``g`` alone, newly reached points under every
        generator."""
        self.gens.append(g)
        self.gen_inverses.append(g_inverse)
        self.cursor = 0
        orbit, transversal, inverse = self.orbit, self.transversal, self.inverse
        pairs = list(zip(self.gens, self.gen_inverses))
        steps = [(beta, g, g_inverse) for beta in orbit]
        for beta, s, s_inverse in steps:  # grows while it is read
            gamma = s[beta]
            if transversal[gamma] is None:
                transversal[gamma] = _compose(transversal[beta], s)
                inverse[gamma] = _compose(s_inverse, inverse[beta])
                orbit.append(gamma)
                self.done.append(0)
                steps.extend((gamma, t, t_inverse) for t, t_inverse in pairs)


class StabilizerChain:
    """Exact stabilizer chain by deterministic, incremental Schreier-Sims.

    Everything inside works on raw image tuples: generators enter as
    ``images``, and each level stores its transversal together with the
    inverses, so sifting multiplies and never inverts. A residue that does
    not sift to the identity becomes a strong generator of the levels from
    the one below its Schreier generator's level down to the level where it
    dropped out; those orbits grow in place, and only the new (orbit point,
    generator) pairs make Schreier generators. A work list, deepest level
    first, replaces recursion, so the build needs no stack depth per level.
    The base starts with the distinct points ``base``; after them, a new
    level's base point is the smallest point its first generator moves, so
    the same generators always give the same base and orbits.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation], base: Iterable[int] = ()):
        self.degree = degree
        self.identity: Images = tuple(range(degree))
        self.levels = [_ChainLevel(point, self.identity) for point in base]
        for g in generators:
            self._insert(g.images, 0)
        level = len(self.levels) - 1
        while level >= 0:
            drop = self._sift_pending(level)
            level = level - 1 if drop is None else drop

    def _strip(self, g: Images, start: int) -> tuple[Images, int]:
        """Divide ``g`` by transversal elements from level ``start`` on;
        return the residue and the level it dropped out at (the chain
        length when it passed every level)."""
        levels = self.levels
        for k in range(start, len(levels)):
            lvl = levels[k]
            beta = g[lvl.point]
            if beta != lvl.point:
                inverse = lvl.inverse[beta]
                if inverse is None:
                    return g, k
                # g moves a point, so its degree is at least 2: no length guard
                g = itemgetter(*g)(inverse)
        return g, len(levels)

    def _insert(self, g: Images, start: int) -> int | None:
        """Sift ``g`` from level ``start``; a non-identity residue joins
        levels ``start`` to its drop level, which is returned."""
        residue, drop = self._strip(g, start)
        if residue == self.identity:
            return None
        if drop == len(self.levels):
            base = next(i for i, j in enumerate(residue) if i != j)
            self.levels.append(_ChainLevel(base, self.identity))
        residue_inverse = _invert(residue)
        for lvl in self.levels[start:drop + 1]:
            lvl.add_gen(residue, residue_inverse)
        return drop

    def _sift_pending(self, level: int) -> int | None:
        """Sift the level's pending Schreier generators into the levels
        below; stop at the first that adds a strong generator and return
        its drop level, or None once nothing at this level is pending."""
        lvl = self.levels[level]
        orbit, done, gens = lvl.orbit, lvl.done, lvl.gens
        transversal, inverse = lvl.transversal, lvl.inverse
        while lvl.cursor < len(orbit):
            a = lvl.cursor
            beta = orbit[a]
            # called only at a level with generators, which moves a point,
            # so on degree >= 2: no length guard
            times_u_beta = itemgetter(*transversal[beta])
            while done[a] < len(gens):
                s = gens[done[a]]
                done[a] += 1
                gamma = s[beta]
                u = times_u_beta(s)
                if u == transversal[gamma]:  # the pair that made gamma's entry
                    continue
                drop = self._insert(itemgetter(*u)(inverse[gamma]), level + 1)
                if drop is not None:
                    return drop
            lvl.cursor += 1
        return None

    def contains(self, p: Permutation) -> bool:
        return self._strip(p.images, 0)[0] == self.identity

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n


class GenGroup:
    """A permutation group given by a list of generators.

    Membership and order come from a stabilizer chain built on first use;
    ``enumerate_elements`` lists the elements, as the orbit of the identity,
    for the oracle tests, refused by the chain order when over its cap;
    ``witness`` and ``schreier_generators`` share one kept BFS per start
    point. The caches are built lazily, so construct a group on one thread
    before sharing it; afterwards all reads are pure.
    """

    __slots__ = ("degree", "generators", "_chain", "_closure", "_witnesses")

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}"
                )
        self.degree = degree
        self.generators = gens
        self._chain: StabilizerChain | None = None
        self._closure: frozenset[Permutation] | None = None
        self._witnesses: dict[int, dict[int, Permutation]] | None = None

    def __repr__(self) -> str:
        return f"GenGroup(degree={self.degree}, generators={len(self.generators)})"

    # ----- orbits and transversals -----

    def orbit_with_transversal(
        self, point: int
    ) -> tuple[list[int], dict[int, Permutation]]:
        """BFS orbit of ``point`` with witnesses (see ``orbit_with_witnesses``)."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range for degree {self.degree}")
        return orbit_with_witnesses(
            point, self.generators, Permutation.__getitem__, Permutation.identity(self.degree)
        )

    def _witness_table(self, start: int) -> dict[int, Permutation]:
        """The witnesses of ``orbit_with_transversal(start)``; the BFS from
        each start point runs once and is kept."""
        if self._witnesses is None:
            self._witnesses = {}
        witnesses = self._witnesses.get(start)
        if witnesses is None:
            witnesses = self._witnesses[start] = self.orbit_with_transversal(start)[1]
        return witnesses

    def witness(self, start: int, target: int) -> Permutation:
        """The BFS witness mapping ``start`` to ``target`` (see
        ``orbit_with_transversal``); ``RuntimeError`` off the orbit."""
        found = self._witness_table(start).get(target)
        if found is None:
            raise RuntimeError(f"internal invariant: {target} is not in the orbit of {start}")
        return found

    def is_witness(self, start: int, p: Permutation) -> bool:
        """Whether ``p`` is the BFS witness mapping ``start`` to
        ``p[start]``. A witness is a product of the generators, so this
        proves ``p`` a member from the kept witness table, with no chain."""
        return p.degree == self.degree and self._witness_table(start).get(p[start]) == p

    def orbit(self, point: int) -> list[int]:
        """The orbit of ``point`` in the BFS order of
        ``orbit_with_transversal``, found on the image tuples alone.

        Every ``WreathSubgroup`` build runs this for its coordinate orbits,
        so it keeps its own loop: through ``orbit_with_witnesses`` and its
        image callback, ``orbits`` of two random generators took 2.3 -> 3.3
        us at m = 6 and 55 -> 71 us at m = 200 (CPython 3.11, Xeon).
        """
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range for degree {self.degree}")
        images = [g.images for g in self.generators]
        orbit = [point]
        seen = {point}
        for beta in orbit:
            for s in images:
                gamma = s[beta]
                if gamma not in seen:
                    seen.add(gamma)
                    orbit.append(gamma)
        return orbit

    def orbits(self) -> list[list[int]]:
        """The orbit partition of {0..degree-1}, each orbit sorted, ordered by minimum."""
        seen: set[int] = set()
        out = []
        for point in range(self.degree):
            if point not in seen:
                orb = sorted(self.orbit(point))
                seen.update(orb)
                out.append(orb)
        return out

    def schreier_generators(self, point: int) -> list[Permutation]:
        """Pruned Schreier generators of the stabilizer of ``point``, from
        the kept witness table, whose keys are the orbit in BFS order."""
        witness = self._witness_table(point)
        return schreier_generators(list(witness), witness, self.generators, Permutation.__getitem__)

    # ----- membership and enumeration -----

    def _get_chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    def contains(self, p: Permutation) -> bool:
        """Whether ``p`` is a product of the generators (stabilizer-chain sift)."""
        if p.degree != self.degree:
            raise DegreeMismatchError(
                f"element degree {p.degree} != group degree {self.degree}"
            )
        return self._get_chain().contains(p)

    def order(self) -> int:
        return self._get_chain().order()

    def enumerate_elements(self, cap: int = DEFAULT_CAP) -> frozenset[Permutation]:
        """The full element set, the orbit of the identity under right
        multiplication. A group whose chain order is over ``cap`` is
        refused before any enumeration."""
        order = self.order()
        if order > cap:
            raise EnumerationOverflow(f"group order {order} exceeds cap {cap}")
        if self._closure is None:
            identity = Permutation.identity(self.degree)
            self._closure = frozenset(orbit_with_witnesses(identity, self.generators, _times)[0])
        return self._closure

    # ----- transitivity -----

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def transitivity_degree(self) -> Transitivity:
        """Classify by orbit counts on points and on ordered distinct pairs.

        Degree-1 groups are reported transitive; 2-transitivity requires at
        least two points.
        """
        if not self.is_transitive():
            return INTRANSITIVE
        if self.degree < 2:
            return TRANSITIVE
        images = [g.images for g in self.generators]
        pair_orbit = orbit_with_witnesses((0, 1), images, lambda s, ab: (s[ab[0]], s[ab[1]]))[0]
        if len(pair_orbit) == self.degree * (self.degree - 1):
            return TWO_TRANSITIVE
        return TRANSITIVE


def same_group(a: GenGroup, b: GenGroup) -> bool:
    """Exact equality of two generated groups, with no enumeration.

    Equal generator tuples give A = B with no chain. Otherwise every
    generator of ``b`` lying in ``a`` gives B <= A, and then equal orders
    give A = B; both come from the stabilizer chains.
    """
    if a.degree != b.degree:
        return False
    if a.generators == b.generators:
        return True
    return a.order() == b.order() and all(a.contains(g) for g in b.generators)


def symmetric_gens(degree: int) -> tuple[Permutation, ...]:
    """Standard generators of the full symmetric group on ``degree`` points."""
    if degree == 1:
        return ()
    transposition = Permutation([1, 0] + list(range(2, degree)))
    if degree == 2:
        return (transposition,)
    cycle = Permutation(list(range(1, degree)) + [0])
    return (transposition, cycle)
