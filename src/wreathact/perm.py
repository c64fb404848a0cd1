"""Exact permutations of {0..n-1} and finitely generated permutation groups.

Conventions fixed across the whole package:

* points are 0-based indices;
* permutations act on the right, the image of ``i`` under ``p`` is ``p[i]``;
* products compose left to right: ``(p * q)[i] == q[p[i]]``.

Orbit searches visit generators in declaration order, so every orbit,
witness, transversal and Schreier generator list is deterministic.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from itertools import islice
from operator import getitem, itemgetter
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


_IDENTITY_BOUND = 256  # degrees kept by ``_identity``: about 1 MB at most
_IDENTITIES: dict[int, tuple[tuple[int, ...], list[int]]] = {}


def _identity(n: int) -> tuple[tuple[int, ...], list[int]]:
    """``range(n)`` as a tuple and as a list, kept below ``_IDENTITY_BOUND``.
    Neither is mutated and only the tuple is handed out, so threads that
    fill one degree at once store equal values: no lock is needed."""
    kept = _IDENTITIES.get(n)
    if kept is None:
        kept = (tuple(range(n)), list(range(n)))
        if n < _IDENTITY_BOUND:
            _IDENTITIES[n] = kept
    return kept


class Permutation:
    """A bijection of {0..n-1}, stored as its image tuple.

    Immutable and hashable; safe to share between threads and to use as a
    set element or dict key. The constructor checks for at least one image,
    then ``int`` images, then sorted images equal to the kept ``range(n)``.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if not imgs:
            raise InvalidPermutationError("degree must be at least 1")
        for i in imgs:
            if not isinstance(i, int):
                raise InvalidPermutationError(f"image {i!r} is not an integer: {list(imgs)}")
        if sorted(imgs) != _identity(len(imgs))[1]:
            raise InvalidPermutationError(
                f"not a permutation of 0..{len(imgs) - 1}: {list(imgs)}"
            )
        self.images = imgs

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        """The identity on the kept ``range(degree)`` tuple, unchecked; the
        degree is refused as ``Permutation(range(degree))`` would refuse it."""
        if operator.index(degree) < 1:
            raise InvalidPermutationError("degree must be at least 1")
        return _from_images(_identity(degree)[0])

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
        """Whether the images equal the kept ``range(n)`` tuple."""
        return self.images == _identity(len(self.images))[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        """Serialize as a bracketed image list, e.g. ``[1,0,2]``."""
        return "[" + _format_images(self.images) + "]"

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
        return cls(images)


def _from_images(images: tuple[int, ...]) -> Permutation:
    """A ``Permutation`` on an image tuple known to be valid, unchecked.

    Only for images built from valid permutations (products, inverses,
    restrictions to an invariant part) or that passed ``Permutation``'s
    check (the group-file reader, after its bijection check); other lists
    go through ``Permutation(...)``.
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
    entries of any sequence or mapping ``b`` at the indices or keys ``a``
    (the file readers' ``_entry_tuples`` gathers from a dict). Every
    product in the package is this gather (the chain's sift loops spell it
    inline), so it runs as ``itemgetter(*a)(b)``: the gather happens in C,
    3-5x faster than ``tuple(map(b.__getitem__, a))`` from degree 12 to
    1000.
    ``itemgetter`` of one index returns the bare item, and of no index
    raises ``TypeError``, so tuples of length 0 and 1 take the plain loop.
    """
    if len(a) > 1:
        return itemgetter(*a)(b)
    return tuple(b[i] for i in a)


_STRINGS: tuple[str, ...] = ()
_STRINGS_CAP = 4096


def _strings(n: int) -> tuple[str, ...] | None:
    """The kept table of ``str(0..k-1)``, k >= n, for writers that gather
    the strings of entries in 0..n-1 in one call (``_format_images``,
    ``codes.format_words``, which sorts lines of one-digit strings), or
    ``None`` for n over the cap. Built on first use, rebuilt at twice the
    size when a longer one is asked for."""
    global _STRINGS
    if len(_STRINGS) < n <= _STRINGS_CAP:
        _STRINGS = tuple(map(str, range(min(max(n, 2 * len(_STRINGS)), _STRINGS_CAP))))
    return _STRINGS if n <= len(_STRINGS) else None


def _format_images(images: Images) -> str:
    """A raw image tuple as the bare comma list ``1,0,2``.

    Its entries lie in 0..len(images)-1, so their strings are gathered from
    the kept table (``_strings``) in one call; a tuple longer than the cap
    converts its own entries.
    """
    strings = _strings(len(images))
    if strings is None:
        return ",".join(map(str, images))
    return ",".join(_compose(images, strings))


def _invert(images: Images) -> Images:
    """The inverse of a raw image tuple."""
    inverse = [0] * len(images)
    for i, j in enumerate(images):
        inverse[j] = i
    return tuple(inverse)


def _cycle_lengths(images: Images) -> list[int]:
    """The lengths of the cycles of a raw image tuple, fixed points included."""
    seen = [False] * len(images)
    lengths = []
    for i, j in enumerate(images):
        if not seen[i]:
            seen[i] = True
            length = 1
            while j != i:
                seen[j] = True
                j = images[j]
                length += 1
            lengths.append(length)
    return lengths


def _is_odd(images: Images) -> bool:
    """Whether a raw image tuple is an odd permutation. A k-cycle is k - 1
    transpositions, so one pass walks each cycle from its smallest point and
    flips the parity at every step back to it, with no list of lengths."""
    seen = [False] * len(images)
    odd = False
    for i, j in enumerate(images):
        if not seen[i]:
            while j != i:
                seen[j] = True
                j = images[j]
                odd = not odd
    return odd


# ----- giant groups: Alt(n) and Sym(n) certified by Jordan's theorem -----

# The walk that looks for a Jordan element is seeded and has a fixed
# budget, so every answer is deterministic. A walk that finds none proves
# nothing either way: the group only goes to the stabilizer chain.
_GIANT_SEED = 20261019
_GIANT_SLOTS = 10
_GIANT_TRIES = 100


@functools.cache
def _jordan_primes(n: int) -> frozenset[int]:
    """The primes p with n/2 < p <= n - 3; empty below degree 8."""
    return frozenset(
        p for p in range(n // 2 + 1, n - 2) if all(p % d for d in range(2, math.isqrt(p) + 1))
    )


def _block_of_0_and_1_is_everything(n: int, images: Sequence[Images]) -> bool:
    """Whether the smallest block of imprimitivity holding 0 and 1 is all
    ``n >= 3`` points (Atkinson's algorithm).

    Each class of points is named by one of its points and lists its
    members; merging relabels the smaller class. Every merged pair's images
    under each generator are merged in turn, so the classes, once every
    pair is processed, form the smallest invariant partition in which 0
    and 1 share a class. A class smaller than ``n`` is a proper block, so
    the group is imprimitive.
    """
    block = list(range(n))
    members = [[x] for x in range(n)]
    block[1] = 0
    members[0].append(1)
    pairs = [(0, 1)]
    for a, b in pairs:  # grows while it is read
        for s in images:
            u, v = block[s[a]], block[s[b]]
            if u != v:
                if len(members[u]) < len(members[v]):
                    u, v = v, u
                for x in members[v]:
                    block[x] = u
                members[u] += members[v]
                if len(members[u]) == n:
                    return True
                pairs.append((u, v))
    return False


def _walk_finds_jordan_element(images: Sequence[Images], primes: frozenset[int]) -> bool:
    """Whether a seeded product-replacement walk on the generators finds,
    within ``_GIANT_TRIES`` steps, an element with a cycle whose length is
    in ``primes``.

    Up to ``_GIANT_SLOTS`` generators fill the slots, repeated to at
    least that count; more generators are replaced by ``_GIANT_SLOTS``
    random subproducts of them, since a walk on many sparse generators,
    such as the adjacent transpositions, mixes slowly. Each step replaces
    a random slot by its product with another, on a random side, and
    multiplies it into an accumulator, whose cycle lengths are then read
    (Celler et al. 1995, with Leedham-Green's accumulator). Every element
    made is a product of the generators.
    """
    rng = random.Random(_GIANT_SEED)
    if len(images) <= _GIANT_SLOTS:
        slots = list(images) * -(-_GIANT_SLOTS // len(images))
    else:
        slots = []
        for _ in range(_GIANT_SLOTS):
            subproduct = _identity(len(images[0]))[0]
            for g in images:
                if rng.random() < 0.5:
                    subproduct = _compose(subproduct, g)
            slots.append(subproduct)
    size = len(slots)
    accumulator = slots[0]
    for _ in range(_GIANT_TRIES):
        i = rng.randrange(size)
        j = rng.randrange(size - 1)
        other = slots[j + (j >= i)]
        slots[i] = _compose(slots[i], other) if rng.random() < 0.5 else _compose(other, slots[i])
        accumulator = _compose(accumulator, slots[i])
        if not primes.isdisjoint(_cycle_lengths(accumulator)):
            return True
    return False


class _ChainLevel:
    """One level of a stabilizer chain, on raw image tuples.

    ``gens`` (with ``gen_inverses``) generate the level's group and
    ``orbit`` is the basic orbit of ``point`` in discovery order.
    ``transversal[beta]`` maps ``point`` to ``beta``, ``inverse[beta]`` is
    its inverse, and both are None off the orbit. Entries never change once
    made, so a Schreier generator, once sifted, never needs sifting again:
    ``done[a]`` counts the generators whose Schreier generator at
    ``orbit[a]`` has been sifted, and no pair before ``cursor`` is pending.
    While the chain is built, ``known`` is the set of image tuples already
    known to strip to the identity from this level; the finished chain sets
    it to None.
    """

    __slots__ = ("point", "gens", "gen_inverses", "orbit", "transversal",
                 "inverse", "done", "cursor", "known")

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
        self.known: set[Images] | None = set()

    def add_gen(self, g: Images, g_inverse: Images) -> None:
        """Take ``g`` as a generator and extend the orbit in place: old
        points under ``g`` alone, newly reached points under every
        generator. ``g`` joins ``known``: see ``StabilizerChain``."""
        self.known.add(g)
        self.gens.append(g)
        self.gen_inverses.append(g_inverse)
        self.cursor = 0
        orbit, transversal, inverse = self.orbit, self.transversal, self.inverse
        old = len(orbit)
        for beta in orbit[:old]:
            gamma = g[beta]
            if transversal[gamma] is None:
                transversal[gamma] = _compose(transversal[beta], g)
                inverse[gamma] = _compose(g_inverse, inverse[beta])
                orbit.append(gamma)
        pairs = tuple(zip(self.gens, self.gen_inverses))
        for beta in islice(orbit, old, None):  # grows while it is read
            for s, s_inverse in pairs:
                gamma = s[beta]
                if transversal[gamma] is None:
                    transversal[gamma] = _compose(transversal[beta], s)
                    inverse[gamma] = _compose(s_inverse, inverse[beta])
                    orbit.append(gamma)
        self.done.extend([0] * (len(orbit) - old))


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

    In wreath-like groups most Schreier generators repeat one already
    sifted from the same level (270 of the 341 sifts of ``Sym(3) wr
    Sym(6)``), so while the chain is built each level keeps ``known``, the
    image tuples known to strip to the identity from it. ``_insert``
    returns None at once for a member of its start level's set; otherwise
    the tuple joins that set and is stripped. ``add_gen`` adds every new
    strong generator to its level's set. Three facts make the skip exact:

    * transversal entries never change once made, so a strip that ended at
      the identity takes the same path to it every later time;
    * a strip that left a residue ``r`` adds ``r`` to the levels from its
      start to its drop level, and at the drop level ``add_gen`` reaches
      ``r[point]`` first, from ``point`` through ``r``, so ``r`` becomes
      that point's transversal entry and the same tuple now strips to the
      identity;
    * a strong generator ``r`` of level ``k`` fixes the base points from
      ``k`` to its drop level, where it is a transversal entry, so it
      strips to the identity from ``k``.

    A skipped tuple is one ``_insert`` would have returned None for with no
    side effect, so the base, orbits and strong generators are the same as
    without the sets. They serve only the build: the finished chain sets
    every level's ``known`` to None, and ``contains`` does not use them.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation], base: Iterable[int] = ()):
        self.degree = degree
        self.identity: Images = _identity(degree)[0]
        self.levels = [_ChainLevel(point, self.identity) for point in base]
        for g in generators:
            self._insert(g.images, 0)
        level = len(self.levels) - 1
        while level >= 0:
            drop = self._sift_pending(level)
            level = level - 1 if drop is None else drop
        for lvl in self.levels:
            lvl.known = None

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
        levels ``start`` to its drop level, which is returned. A member
        of the start level's ``known`` set returns None unstripped."""
        if start < len(self.levels):
            known = self.levels[start].known
            size = len(known)
            known.add(g)  # one hash: tuples do not cache theirs
            if len(known) == size:
                return None
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

    Order and membership have two paths. A group on n points that the giant
    test certifies as Alt(n) or Sym(n) is answered from that alone: the
    order is n!/2 or n!, and membership is a parity test or always true.
    Every other group is answered by a stabilizer chain built on first use.
    The giant test needs three facts:

    * a prime p with n/2 < p <= n - 3 (there is one from n = 8 on);
    * the group is transitive;
    * a seeded product-replacement walk, with a fixed budget, finds an
      element g with a cycle of length p.

    The other cycles of g cover fewer than p points, so their lengths are
    prime to p, and g raised to the lcm of those lengths is a p-cycle c.
    The group is then primitive. Take any block system: each orbit of <c>
    on the blocks has 1 or p blocks. An orbit of p > n/2 blocks leaves
    room only for blocks of one point. Otherwise c fixes every block, so
    its support, one orbit of <c> with p > n/2 points, lies in one block,
    whose size divides n and so is n. A primitive group holding a p-cycle
    with p <= n - 3 contains Alt(n) (Jordan's theorem, Dixon and Mortimer,
    Permutation Groups, Thm 3.3E), and it is Sym(n) when a generator is
    odd. Before the walk, a proper block holding 0 and 1 proves the group
    imprimitive, so it goes to the chain at once. A walk that finds no
    such element proves nothing: that group goes to the chain too.

    ``enumerate_elements`` lists the elements afresh on each call, as the
    orbit of the identity, for the oracle tests, refused by the exact order
    when over its cap. ``witness`` and ``schreier_generators`` share one
    kept BFS per start point. That table, the chain and the giant test are
    caches built lazily, so construct a group on one thread before sharing
    it; afterwards all reads are pure.
    """

    __slots__ = ("degree", "generators", "_chain", "_witnesses", "_giant")

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
        self._witnesses: dict[int, dict[int, Permutation]] | None = None
        self._giant: int | None = None

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
        ``orbit_with_transversal``, found on the image tuples alone."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range for degree {self.degree}")
        return orbit_with_witnesses(point, [g.images for g in self.generators], getitem)[0]

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

    def _giant_index(self) -> int:
        """The index of the group in Sym(n) when the giant test (see the
        class docstring) certifies it: 1 for Sym(n), 2 for Alt(n); 0 when
        it does not. Run once and kept."""
        if self._giant is None:
            n = self.degree
            primes = _jordan_primes(n)
            images = [g.images for g in self.generators]
            self._giant = 0
            if (
                primes
                and self.is_transitive()
                and _block_of_0_and_1_is_everything(n, images)
                and _walk_finds_jordan_element(images, primes)
            ):
                self._giant = 1 if any(map(_is_odd, images)) else 2
        return self._giant

    def contains(self, p: Permutation) -> bool:
        """Whether ``p`` is a product of the generators: true in Sym(n), one
        parity pass in Alt(n) (the giant test runs once and is kept), a
        stabilizer-chain sift otherwise."""
        if len(p.images) != self.degree:
            raise DegreeMismatchError(
                f"element degree {len(p.images)} != group degree {self.degree}"
            )
        index = self._giant or self._giant_index()
        if index:
            return index == 1 or not _is_odd(p.images)
        return self._get_chain().contains(p)

    def order(self) -> int:
        """The exact order: n! or n!/2 for a certified giant, the product of
        the chain's basic orbit lengths otherwise."""
        index = self._giant_index()
        if index:
            return math.factorial(self.degree) // index
        return self._get_chain().order()

    def enumerate_elements(self, cap: int = DEFAULT_CAP) -> frozenset[Permutation]:
        """The full element set, the orbit of the identity under right
        multiplication. A group whose exact order is over ``cap`` is
        refused before any enumeration."""
        order = self.order()
        if order > cap:
            raise EnumerationOverflow(f"group order {order} exceeds cap {cap}")
        identity = Permutation.identity(self.degree)
        return frozenset(orbit_with_witnesses(identity, self.generators, _times)[0])

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
    give A = B. Both come from ``GenGroup.order`` and ``contains``: from
    the giant certificate when a group is Alt(n) or Sym(n), so two giants
    are compared with no chain, and from the stabilizer chains otherwise.
    """
    if a.degree != b.degree:
        return False
    if a.generators == b.generators:
        return True
    return a.order() == b.order() and all(a.contains(g) for g in b.generators)


def symmetric_gens(degree: int) -> tuple[Permutation, ...]:
    """Standard generators of the full symmetric group on ``degree`` points."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree == 1:
        return ()
    transposition = Permutation([1, 0] + list(range(2, degree)))
    if degree == 2:
        return (transposition,)
    cycle = Permutation(list(range(1, degree)) + [0])
    return (transposition, cycle)
