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

# Element type of the shared orbit, Schreier and closure routines:
# Permutation or WreathElement (hashable, ``*``, ``inverse``, ``is_identity``).
E = TypeVar("E")


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
        if other.degree != self.degree:
            raise DegreeMismatchError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation(other.images[i] for i in self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """Return ``g^-1 * self * g``."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        """Serialize as a bracketed image list, e.g. ``[1,0,2]``."""
        return "[" + ",".join(str(i) for i in self.images) + "]"

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
            images = [int(part) for part in inner.split(",")]
        except ValueError:
            raise ParseError(f"non-integer entry in image list {text!r}") from None
        return cls(images)


def orbit_with_witnesses(
    start, generators: Sequence[E], image: Callable, identity: E
) -> tuple[list, dict]:
    """BFS orbit of ``start`` with witness elements.

    ``image(s, point)`` is the action of generator ``s``. ``witness[beta]``
    is a product of generators mapping ``start`` to ``beta``, and
    ``witness[start]`` is ``identity``. The orbit list is in BFS discovery
    order with generators applied in declaration order.
    """
    orbit = [start]
    witness = {start: identity}
    for beta in orbit:
        for s in generators:
            gamma = image(s, beta)
            if gamma not in witness:
                witness[gamma] = witness[beta] * s
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


def closure(
    identity: E, generators: Sequence[E], cap: int, detail: str = ""
) -> frozenset[E]:
    """Every product of ``generators``, by BFS from ``identity``.

    Raises ``EnumerationOverflow`` once more than ``cap`` elements would be
    needed; ``detail`` is appended to its message.
    """
    elements = {identity}
    frontier = [identity]
    while frontier:
        new: list[E] = []
        for e in frontier:
            for s in generators:
                c = e * s
                if c not in elements:
                    if len(elements) >= cap:
                        raise EnumerationOverflow(f"closure exceeds cap {cap}{detail}")
                    elements.add(c)
                    new.append(c)
        frontier = new
    return frozenset(elements)


def random_permutation(rng: random.Random, degree: int) -> Permutation:
    imgs = list(range(degree))
    rng.shuffle(imgs)
    return Permutation(imgs)


class _ChainLevel:
    """One level of a stabilizer chain: a base point with its basic orbit."""

    __slots__ = ("point", "gens", "orbit", "transversal")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.orbit: list[int] = [point]
        self.transversal: dict[int, Permutation] = {point: Permutation.identity(degree)}


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain for membership tests.

    Base points are chosen greedily as the smallest point moved by the
    generator being inserted. The construction is exact (no randomization)
    and is meant for the small degrees this package works at.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        self.degree = degree
        self.levels: list[_ChainLevel] = []
        for g in generators:
            self._add(0, g)

    def _group_gens(self, level: int) -> list[Permutation]:
        # Generators of the level-th group: everything added at this level
        # or deeper (deeper generators fix all earlier base points).
        return [g for lvl in self.levels[level:] for g in lvl.gens]

    def _sift(self, level: int, p: Permutation) -> Permutation | None:
        """Divide off transversal elements; None means p fell out of an orbit."""
        residue = p
        for lvl in self.levels[level:]:
            image = residue[lvl.point]
            if image not in lvl.transversal:
                return None
            residue = residue * lvl.transversal[image].inverse()
        return residue

    def _member_from(self, level: int, p: Permutation) -> bool:
        residue = self._sift(level, p)
        return residue is not None and residue.is_identity()

    def _add(self, level: int, g: Permutation) -> None:
        if g.is_identity() or self._member_from(level, g):
            return
        if level == len(self.levels):
            base = min(i for i in range(self.degree) if g[i] != i)
            self.levels.append(_ChainLevel(base, self.degree))
        lvl = self.levels[level]
        if any(g == existing for existing in lvl.gens):
            return
        lvl.gens.append(g)
        self._close_level(level)

    def _close_level(self, level: int) -> None:
        """Recompute the basic orbit, then push every Schreier generator down."""
        lvl = self.levels[level]
        gens = self._group_gens(level)
        image = Permutation.__getitem__
        lvl.orbit, lvl.transversal = orbit_with_witnesses(
            lvl.point, gens, image, Permutation.identity(self.degree)
        )
        # identities and repeats are members already; only distinct ones sift
        for schreier in schreier_generators(lvl.orbit, lvl.transversal, gens, image):
            self._add(level + 1, schreier)

    def contains(self, p: Permutation) -> bool:
        return self._member_from(0, p)

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n


class GenGroup:
    """A permutation group given by a list of generators.

    Membership is answered by a stabilizer-chain sift built on first use;
    ``enumerate_elements`` is the brute-force closure backing the oracle
    tests. Both caches are built lazily, so construct a group on one thread
    before sharing it; afterwards all reads are pure.
    """

    __slots__ = ("degree", "generators", "_chain", "_closure")

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

    def orbit(self, point: int) -> list[int]:
        return self.orbit_with_transversal(point)[0]

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
        """Pruned Schreier generators of the stabilizer of ``point``."""
        orbit, witness = self.orbit_with_transversal(point)
        return schreier_generators(orbit, witness, self.generators, Permutation.__getitem__)

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
        """The full element set by BFS closure, or a loud overflow past ``cap``."""
        if self._closure is not None:
            if len(self._closure) > cap:
                raise EnumerationOverflow(
                    f"group order {len(self._closure)} exceeds cap {cap}"
                )
            return self._closure
        self._closure = closure(
            Permutation.identity(self.degree),
            self.generators,
            cap,
            f" (degree {self.degree})",
        )
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
        pair_orbit = {(0, 1)}
        queue = [(0, 1)]
        while queue:
            a, b = queue.pop()
            for s in self.generators:
                image = (s[a], s[b])
                if image not in pair_orbit:
                    pair_orbit.add(image)
                    queue.append(image)
        if len(pair_orbit) == self.degree * (self.degree - 1):
            return TWO_TRANSITIVE
        return TRANSITIVE


def same_group(a: GenGroup, b: GenGroup) -> bool:
    """Exact equality of two generated groups, with no enumeration.

    Every generator of ``b`` lying in ``a`` gives B <= A, and then equal
    orders give A = B; both come from the stabilizer chains.
    """
    if a.degree != b.degree:
        return False
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
