"""Wreath products Sym(Gamma) wr Sym(Delta) in product action.

A wreath element is a pair ``(f, h)`` where ``f`` assigns a permutation of
Gamma = {0..q-1} to every coordinate in Delta = {0..m-1} and ``h``
permutes the coordinates. The group acts on the right on the set Pi of
functions Delta -> Gamma, represented as plain tuples of length m:

    (phi * fh)[d] = f[d * h^-1][ phi[d * h^-1] ]

i.e. entry d of the image is the old entry at ``d h^-1`` moved by the base
permutation sitting at ``d h^-1``. Multiplication is stated in evaluated
form and is exactly the rule that makes ``apply`` a right action; the test
suite enforces the action-homomorphism property exhaustively at small
scale.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import random
import re
import sys
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DegreeMismatchError, EnumerationOverflow, ParseError
from .perm import DEFAULT_CAP, Permutation, _compose, _format_images, random_permutation

Point = tuple[int, ...]
T = TypeVar("T")


class WreathContext:
    """The pair of sizes (q, m) of Gamma = {0..q-1} and Delta = {0..m-1}."""

    __slots__ = ("gamma_size", "delta_size")

    def __init__(self, gamma_size: int, delta_size: int):
        if gamma_size < 1 or delta_size < 1:
            raise ValueError("gamma_size and delta_size must be at least 1")
        if gamma_size > sys.maxsize or delta_size > sys.maxsize:
            raise ValueError(f"gamma_size and delta_size must be at most {sys.maxsize}")
        self.gamma_size = gamma_size
        self.delta_size = delta_size

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WreathContext)
            and self.gamma_size == other.gamma_size
            and self.delta_size == other.delta_size
        )

    def __hash__(self) -> int:
        return hash((self.gamma_size, self.delta_size))

    def __repr__(self) -> str:
        return f"WreathContext(q={self.gamma_size}, m={self.delta_size})"

    def point_count(self) -> int:
        """|Pi| = q^m."""
        return self.gamma_size**self.delta_size

    def identity_element(self) -> "WreathElement":
        base = (Permutation.identity(self.gamma_size),) * self.delta_size
        return WreathElement(base, Permutation.identity(self.delta_size))

    def constant_point(self, gamma: int) -> Point:
        """The function sending every coordinate to ``gamma``."""
        if not 0 <= gamma < self.gamma_size:
            raise ValueError(f"gamma {gamma} out of range")
        return (gamma,) * self.delta_size

    def all_points(self) -> Iterator[Point]:
        """All of Pi in lexicographic order."""
        return itertools.product(range(self.gamma_size), repeat=self.delta_size)

    def check_cap(self, cap: int = DEFAULT_CAP) -> None:
        """Raise ``EnumerationOverflow`` as soon as the order (q!)^m * m! of
        the full wreath product, built up factor by factor, passes the cap.
        Takes O(log cap) steps however large q and m are."""
        q, m = self.gamma_size, self.delta_size
        # m! first: once it is within the cap, m is small enough to walk the m copies of q!
        copies = itertools.chain.from_iterable(itertools.repeat(range(2, q + 1), m))
        factors = itertools.chain(range(1, m + 1), copies)
        if any(order > cap for order in itertools.accumulate(factors, operator.mul)):
            raise EnumerationOverflow(
                f"full wreath product at q={q}, m={m} has order over the cap, cap is {cap}"
            )

    def all_elements(self, cap: int = DEFAULT_CAP) -> Iterator["WreathElement"]:
        """Every element of the full wreath product, or a loud overflow
        (``check_cap``) when its order is over the cap."""
        self.check_cap(cap)
        q, m = self.gamma_size, self.delta_size
        gamma_perms = [Permutation(p) for p in itertools.permutations(range(q))]
        delta_perms = [Permutation(p) for p in itertools.permutations(range(m))]
        for base in itertools.product(gamma_perms, repeat=m):
            for top in delta_perms:
                yield WreathElement(base, top)

    def random_element(self, rng: random.Random) -> "WreathElement":
        base = tuple(
            random_permutation(rng, self.gamma_size) for _ in range(self.delta_size)
        )
        return WreathElement(base, random_permutation(rng, self.delta_size))

    def check_point(self, point: Point) -> Point:
        point = tuple(point)
        if len(point) != self.delta_size:
            raise ValueError(
                f"point has length {len(point)}, expected {self.delta_size}"
            )
        for entry in point:
            if not isinstance(entry, int):
                raise ValueError(f"point entry {entry!r} is not an integer")
            if not 0 <= entry < self.gamma_size:
                raise ValueError(f"point entry {entry} out of range 0..{self.gamma_size - 1}")
        return point


class WreathElement:
    """An element ``(f, h)`` of Sym(Gamma) wr Sym(Delta).

    ``base[d]`` is the Gamma-permutation at coordinate d and ``top`` is the
    coordinate permutation. Immutable and hashable.
    """

    __slots__ = ("base", "top")

    def __init__(self, base: Iterable[Permutation], top: Permutation):
        base = tuple(base)
        if not base:
            raise ValueError("base must have at least one coordinate")
        q = base[0].degree
        for p in base:
            if p.degree != q:
                raise DegreeMismatchError("base entries have mixed degrees")
        if top.degree != len(base):
            raise DegreeMismatchError(
                f"top degree {top.degree} != number of coordinates {len(base)}"
            )
        self.base = base
        self.top = top

    @property
    def ctx(self) -> WreathContext:
        return WreathContext(self.base[0].degree, self.top.degree)

    def _check_ctx(self, other: "WreathElement") -> None:
        if (
            self.base[0].degree != other.base[0].degree
            or self.top.degree != other.top.degree
        ):
            raise DegreeMismatchError("wreath elements live in different contexts")

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        """Apply ``self`` first, then ``other`` (right-action convention)."""
        if not isinstance(other, WreathElement):
            return NotImplemented
        self._check_ctx(other)
        other_base = other.base
        base = tuple(
            p * other_base[d] for p, d in zip(self.base, self.top.images)
        )
        return _from_parts(base, self.top * other.top)

    def inverse(self) -> "WreathElement":
        tinv = self.top.inverse()
        base = tuple(self.base[d].inverse() for d in tinv.images)
        return _from_parts(base, tinv)

    def apply(self, point: Point) -> Point:
        """Image of a point of Pi under the product action. A point that
        fails ``min`` and ``max``, or makes them or the lookup raise
        ``TypeError``, gets the ``ValueError`` of ``check_point``; a valid
        point is not passed to it."""
        if len(point) != len(self.base):
            raise ValueError(
                f"point has length {len(point)}, expected {len(self.base)}"
            )
        q = self.base[0].degree
        try:
            if min(point) < 0 or max(point) >= q:
                self.ctx.check_point(point)
            image = [0] * len(point)
            for p, d, entry in zip(self.base, self.top.images, point):
                image[d] = p.images[entry]
        except TypeError:
            self.ctx.check_point(point)
            raise
        return tuple(image)

    def apply_columns(self, columns: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        """Images of many points at once, given and returned as columns.

        ``columns[d]`` holds entry d of every point, in one fixed order;
        mapped by ``base[d]`` it becomes column ``top[d]`` of the images,
        the rule of ``apply`` with one gather per coordinate. Point k of
        the result is the image of point k of the input. Unlike ``apply``,
        it does not check the entries: callers pass the columns of a
        validated code or of all of Pi, and a check would cost a pass over
        every word.
        """
        if len(columns) != len(self.base):
            raise ValueError(f"got {len(columns)} columns, expected {len(self.base)}")
        image: list[tuple[int, ...]] = [()] * len(columns)
        for p, d, column in zip(self.base, self.top.images, columns):
            image[d] = _compose(column, p.images)
        return image

    def is_identity(self) -> bool:
        return self.top.is_identity() and all(p.is_identity() for p in self.base)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WreathElement)
            and self.base == other.base
            and self.top == other.top
        )

    def __hash__(self) -> int:
        return hash((self.base, self.top))

    def __repr__(self) -> str:
        return f"WreathElement(base={[list(p.images) for p in self.base]}, top={list(self.top.images)})"

    def __str__(self) -> str:
        """Serialize as ``base=[p0;p1;...] top=p`` with bracketed image lists."""
        base = "];[".join([_format_images(p.images) for p in self.base])
        return f"base=[[{base}]] top=[{_format_images(self.top.images)}]"

    @staticmethod
    @functools.cache
    def _parse_re() -> re.Pattern:
        """The line pattern of ``parse``, compiled on first use: group files
        in the plain serialization never reach it."""
        return re.compile(r"base=\[(.*)\]\s+top=(\[[^\[\]]*\])\s*$")

    @classmethod
    def parse(cls, text: str) -> "WreathElement":
        match = cls._parse_re().match(text.strip())
        if match is None:
            raise ParseError(f"expected 'base=[...;...] top=[...]', got {text!r}")
        base_blob, top_text = match.groups()
        base = tuple(map(Permutation.parse, base_blob.split(";")))
        return cls(base, Permutation.parse(top_text))


def _from_parts(base: tuple[Permutation, ...], top: Permutation) -> WreathElement:
    """A ``WreathElement`` on parts known to agree in degrees, unchecked.

    Only for products, inverses and restrictions of elements that passed
    the checks, or for parts cut to the header's degrees (the group-file
    reader).
    """
    w = object.__new__(WreathElement)
    w.base = base
    w.top = top
    return w


def format_point(point: Point) -> str:
    """Serialize a point of Pi as a bare comma list, e.g. ``0,1,1``."""
    return ",".join(map(str, point))


def parse_point(text: str, ctx: WreathContext | None = None) -> Point:
    try:
        point = tuple(map(int, text.strip().split(",")))
    except ValueError:
        raise ParseError(f"non-integer entry in point {text!r}") from None
    if ctx is not None:
        try:
            ctx.check_point(point)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return point


def parse_with_header(
    text: str,
    read_line: Callable[[str, WreathContext], T],
    read_body: Callable[[list[str], WreathContext], list[T]],
) -> tuple[WreathContext, list[T]]:
    """Parse the file format shared by group and code files.

    The first line that is neither blank nor a ``#`` comment is the header
    ``q m``; every later such line, stripped, is a body line. ``read_body``
    reads all body lines in one pass with the context. Only if it raises
    ``ValueError`` is each body line passed to ``read_line`` instead, so
    that the first bad line is found. A ``ValueError`` from the header or
    from ``read_line`` becomes a ``ParseError`` prefixed with the line
    number, which is counted only then.
    """
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if not lines:
        raise ParseError("missing header line 'q m'")
    k = 0
    try:
        if len(parts := lines[0].split()) != 2:
            raise ParseError("expected header 'q m'")
        ctx = WreathContext(int(parts[0]), int(parts[1]))
        with contextlib.suppress(ValueError):
            return ctx, read_body(lines[1:], ctx)
        items = []
        for k in range(1, len(lines)):
            items.append(read_line(lines[k], ctx))
    except ValueError as exc:
        raw = map(str.strip, text.splitlines())
        numbers = [number for number, line in enumerate(raw, start=1) if line and line[0] != "#"]
        raise ParseError(f"line {numbers[k]}: {exc}") from None
    return ctx, items


def _entry_tuples(lists: Sequence[str], n: int, bound: int) -> list[tuple[int, ...]]:
    """The comma lists ``lists`` as tuples of n integers in 0..bound-1, for
    the one-pass readers. Every list must hold n - 1 commas; the lists are
    joined and split once, and each distinct entry is converted with
    ``int`` once and range-checked. Raises ``ValueError`` on an empty
    ``lists``, on a list of another length, on an entry that is not an
    integer and on a value out of range."""
    if set(map(str.count, lists, itertools.repeat(","))) != {n - 1}:
        raise ValueError("wrong list lengths")
    texts = ",".join(lists).split(",")
    table = {text: int(text) for text in set(texts)}
    if min(table.values()) < 0 or max(table.values()) >= bound:
        raise ValueError("entry out of range")
    return list(zip(*[iter(_compose(texts, table))] * n))


def stabilizer_order_oracle(
    ctx: WreathContext, point: Point, cap: int = DEFAULT_CAP
) -> int:
    """Exact order of the stabilizer of ``point`` in the full wreath product.

    Brute force over all (q!)^m * m! elements; for a constant point the
    answer is ((q-1)!)^m * m!.
    """
    ctx.check_point(point)
    return sum(1 for w in ctx.all_elements(cap) if w.apply(point) == point)
