"""Canonical forms for codes in Hamming graphs.

A code is a finite set of words over Gamma = {0..q-1}, indexed by the
coordinates Delta = {0..m-1}; the wreath product acts on words by its
product action, and images of a code under that action are the codes
equivalent to it. Given a code whose automorphism subgroup is transitive
on the coordinates with a 2-transitive component, ``canonicalize``
produces an equivalence x = x1*x2*x3*x4 after which the code contains the
constant word (gamma,...,gamma) and the word with nu in its first d
entries and gamma elsewhere, d the minimum distance, while the conjugated
group sits inside G wr K with K conjugate to the original induced group.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

from .errors import DegreeMismatchError, HypothesisViolation, ParseError
from .perm import GenGroup, Permutation, TWO_TRANSITIVE
from .components import WreathSubgroup
from .normalize import (
    EmbedCertificate,
    EmbedResult,
    conjugate_subgroup,
    embed_in_wreath,
    sift_embedding,
)
from .wreath import Point, WreathContext, WreathElement, format_point, parse_point, parse_with_header


def hamming_distance(a: Point, b: Point) -> int:
    if len(a) != len(b):
        raise ValueError("words of different lengths")
    return sum(1 for x, y in zip(a, b) if x != y)


class Code:
    """A nonempty set of words of length m over {0..q-1}."""

    __slots__ = ("ctx", "words", "_min_distance")

    def __init__(self, ctx: WreathContext, words: Iterable[Point]):
        ws = frozenset(tuple(w) for w in words)
        if not ws:
            raise ValueError("a code must contain at least one word")
        for w in ws:
            ctx.check_point(w)
        self.ctx = ctx
        self.words = ws
        self._min_distance: int | None = None

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: Point) -> bool:
        return tuple(word) in self.words

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Code)
            and self.ctx == other.ctx
            and self.words == other.words
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.words))

    def __repr__(self) -> str:
        return f"Code({self.ctx!r}, {len(self.words)} words)"

    def sorted_words(self) -> list[Point]:
        return sorted(self.words)

    def min_distance(self) -> int:
        """Exact minimum Hamming distance; undefined for singletons.

        Two distinct words lie within distance r exactly when they agree
        once some r coordinates are deleted, so for r = 1, 2, ... every
        r-subset of coordinates is deleted in turn; the first r at which two
        words coincide is the distance. Once that would cost at least as
        many word tests as the |C|(|C|-1)/2 pairs, or r reaches m, it scans
        the pairs instead.
        """
        if len(self.words) < 2:
            raise ValueError("minimum distance is undefined for a singleton code")
        if self._min_distance is None:
            self._min_distance = self._search_min_distance()
        return self._min_distance

    def _search_min_distance(self) -> int:
        m = self.ctx.delta_size
        words = self.words
        n = len(words)
        pairs = n * (n - 1) // 2
        for r in range(1, m + 1):
            if r == m or n * math.comb(m, r) >= pairs:
                ws = self.sorted_words()
                return min(
                    hamming_distance(ws[i], ws[j])
                    for i in range(n)
                    for j in range(i + 1, n)
                )
            for deleted in itertools.combinations(range(m), r):
                kept = operator.itemgetter(*(i for i in range(m) if i not in deleted))
                if len(set(map(kept, words))) < n:
                    return r
        raise RuntimeError("internal invariant: distinct words at no distance")

    def transform(self, x: WreathElement) -> "Code":
        """The equivalent code: the images of all words under ``x``, computed
        as columns and validated again by ``Code``."""
        if x.ctx != self.ctx:
            raise DegreeMismatchError("element lives in a different context")
        return Code(self.ctx, zip(*x.apply_columns(list(zip(*self.words)))))


def is_automorphism(w: WreathElement, code: Code) -> bool:
    """Whether ``w`` maps the word set onto itself.

    Every image, computed column-wise by ``w.apply_columns``, must be a
    codeword. The action is a bijection of Pi, so the |C| images are
    distinct, and this is set equality.
    """
    if w.ctx != code.ctx:
        raise DegreeMismatchError("element lives in a different context")
    images = w.apply_columns(list(zip(*code.words)))
    return all(map(code.words.__contains__, zip(*images)))


def parse_code(text: str) -> Code:
    """Parse the code file format: header ``q m``, then one word per line.

    Words are bare comma lists; blank lines and ``#`` comments are skipped.
    """
    ctx, words = parse_with_header(text, parse_point)
    if not words:
        raise ParseError("code file contains no words")
    return Code(ctx, words)


def format_code(code: Code) -> str:
    lines = [f"{code.ctx.gamma_size} {code.ctx.delta_size}"]
    lines.extend(format_point(w) for w in code.sorted_words())
    return "\n".join(lines) + "\n"


@dataclass
class CanonicalizationResult:
    """The four factors, their product, and the transformed code and group."""

    x1: WreathElement
    x2: WreathElement
    x3: WreathElement
    x4: WreathElement
    x: WreathElement
    code: Code
    conjugated: WreathSubgroup
    component_group: GenGroup
    induced_group: GenGroup
    pinned_constant: Point
    pinned_mixed: Point
    certificate: EmbedCertificate
    embedding: EmbedResult


def canonicalize(
    code: Code,
    X: WreathSubgroup,
    gamma: int,
    nu: int,
) -> CanonicalizationResult:
    """Pin (gamma^m) and (nu^d, gamma^(m-d)) into an equivalent code.

    The four stages:

    1. a base element ``x1`` with entries drawn from the components, moving
       a codeword of a minimum-distance pair to the constant word;
    2. the embedding element ``x2`` fixing the constant word, after which
       the group lies in G wr H;
    3. a coordinate permutation ``x3`` moving the d mismatched positions of
       the second codeword to the front, preserving relative order;
    4. a base element ``x4`` with entries in the stabilizer of gamma inside
       G, sending each of the first d entries to nu.

    The supplied generators must be automorphisms of the code, the induced
    coordinate action must be transitive, and the component at coordinate 0
    must be 2-transitive. The containment of the conjugated group in
    G wr K is re-certified after the full product.
    """
    ctx = code.ctx
    if X.ctx != ctx:
        raise DegreeMismatchError("code and group live in different contexts")
    q, m = ctx.gamma_size, ctx.delta_size
    if not 0 <= gamma < q or not 0 <= nu < q:
        raise ValueError("pinned letters out of range")
    if gamma == nu:
        raise HypothesisViolation("the two pinned letters must be distinct")
    if len(code) < 2:
        raise HypothesisViolation("the code must contain more than one word")
    for k, g in enumerate(X.generators):
        if not is_automorphism(g, code):
            raise HypothesisViolation(f"generator {k} is not an automorphism of the code")
    if not X.is_delta_transitive:
        raise HypothesisViolation("induced action on the coordinates is not transitive")
    if X.component(0).transitivity_degree() != TWO_TRANSITIVE:
        raise HypothesisViolation(
            "component at coordinate 0 is not 2-transitive", delta=0
        )

    d = code.min_distance()
    word_a, word_b = _first_pair_at_distance(code, d)

    # stage 1: move word_a to the constant word, one component entry per coordinate
    x1_base: list[Permutation] = []
    for delta in range(m):
        _, witness = X.component(delta).orbit_with_transversal(word_a[delta])
        if gamma not in witness:
            raise RuntimeError(
                "internal invariant: transitive component misses the pinned letter"
            )
        x1_base.append(witness[gamma])
    x1 = WreathElement(x1_base, Permutation.identity(m))
    constant = ctx.constant_point(gamma)
    if x1.apply(word_a) != constant:
        raise RuntimeError("internal invariant: stage 1 missed the constant word")

    # stage 2: embed, fixing the constant word
    X1 = conjugate_subgroup(X, x1)
    embedding = embed_in_wreath(X1, delta1=0, phi=constant)
    x2 = embedding.x
    G = embedding.G

    # stage 3: move the mismatched coordinates to the front
    x12 = x1 * x2
    b2 = x12.apply(word_b)
    mismatched = [delta for delta in range(m) if b2[delta] != gamma]
    if len(mismatched) != d:
        raise RuntimeError("internal invariant: distance not preserved")
    rest = [delta for delta in range(m) if delta not in set(mismatched)]
    top_images = [0] * m
    for i, delta in enumerate(mismatched):
        top_images[delta] = i
    for i, delta in enumerate(rest):
        top_images[delta] = d + i
    x3 = WreathElement(
        (Permutation.identity(q),) * m, Permutation(top_images)
    )

    # stage 4: send the first d entries to nu, inside the stabilizer of gamma
    b3 = x3.apply(b2)
    stabilizer = GenGroup(q, tuple(G.schreier_generators(gamma)))
    x4_base = [Permutation.identity(q)] * m
    for i in range(d):
        _, witness = stabilizer.orbit_with_transversal(b3[i])
        if nu not in witness:
            raise RuntimeError(
                "internal invariant: point stabilizer misses the second letter"
            )
        x4_base[i] = witness[nu]
    x4 = WreathElement(x4_base, Permutation.identity(m))

    x = x12 * x3 * x4
    transformed = code.transform(x)
    mixed = (nu,) * d + (gamma,) * (m - d)
    if constant not in transformed or mixed not in transformed:
        raise RuntimeError("internal invariant: pinned words missing")
    if len(transformed) != len(code) or transformed.min_distance() != d:
        raise RuntimeError("internal invariant: equivalence broke the code")

    conjugated = conjugate_subgroup(X, x)
    K = conjugated.induced_group
    certificate = sift_embedding(conjugated.generators, G, K)
    return CanonicalizationResult(
        x1=x1,
        x2=x2,
        x3=x3,
        x4=x4,
        x=x,
        code=transformed,
        conjugated=conjugated,
        component_group=G,
        induced_group=K,
        pinned_constant=constant,
        pinned_mixed=mixed,
        certificate=certificate,
        embedding=embedding,
    )


def _first_pair_at_distance(code: Code, d: int) -> tuple[Point, Point]:
    """Lexicographically first pair of words attaining the minimum distance."""
    words = code.sorted_words()
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if hamming_distance(words[i], words[j]) == d:
                return words[i], words[j]
    raise RuntimeError("internal invariant: no pair attains the minimum distance")
