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
from typing import Iterable, Iterator, NamedTuple

from .errors import DegreeMismatchError, HypothesisViolation, ParseError
from .perm import GenGroup, Permutation, TWO_TRANSITIVE, _compose
from .components import WreathSubgroup
from .normalize import (
    EmbedCertificate,
    _carried,
    _corrected,
    conjugate_subgroup,
    sift_embedding,
)
from .wreath import Point, WreathContext, WreathElement, parse_point, parse_with_header
from .wreath import _entry_tuples


def hamming_distance(a: Point, b: Point) -> int:
    if len(a) != len(b):
        raise ValueError("words of different lengths")
    return sum(map(operator.ne, a, b))


class Code:
    """A nonempty set of words of length m over {0..q-1}.

    ``columns`` is the word set transposed once: ``columns[d]`` holds entry
    d of every word, in the iteration order of ``words``. Every word is
    validated with ``check_point``. Words already known to be valid (a
    checked code file, the images of a code) skip the check through
    ``_code_from_words``.
    """

    __slots__ = ("ctx", "words", "columns", "_min_distance")

    def __init__(self, ctx: WreathContext, words: Iterable[Point]):
        ws = frozenset(map(tuple, words))
        if not ws:
            raise ValueError("a code must contain at least one word")
        for w in ws:
            ctx.check_point(w)
        self.ctx = ctx
        self.words = ws
        self.columns = tuple(zip(*ws))
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
        r-subset of coordinates is deleted in turn, zipping the kept
        ``columns`` back into shortened words; the first r at which two
        words coincide is the distance. By pigeonhole, once |C| > q^(m-r)
        two words must coincide, so the answer is r with no test (at r = m
        always). Once the deletions would cost at least as many word tests
        as the |C|(|C|-1)/2 pairs, it scans the pairs instead. The result is
        cached; ``canonicalize`` may fill the cache from a search that uses
        the code's checked automorphism group, and fills the transformed
        code's with the same distance, since its x is an isometry.
        """
        if len(self.words) < 2:
            raise ValueError("minimum distance is undefined for a singleton code")
        if self._min_distance is None:
            self._min_distance = self._search_min_distance()
        return self._min_distance

    def _search_min_distance(self, through: int | None = None) -> int:
        """The search of ``min_distance``. With ``through`` set, only the
        subsets containing that coordinate are deleted: exact when an
        automorphism group of the code is transitive on the coordinates,
        since deleting S collides exactly when deleting its image under any
        automorphism's top does."""
        q, m = self.ctx.gamma_size, self.ctx.delta_size
        columns = self.columns
        n = len(self.words)
        pairs = n * (n - 1) // 2
        others = [i for i in range(m) if i != through]
        for r in range(1, m):
            if n > q ** (m - r):
                return r
            if n * math.comb(m, r) >= pairs:
                ws = self.sorted_words()
                return min(
                    hamming_distance(ws[i], ws[j])
                    for i in range(n)
                    for j in range(i + 1, n)
                )
            if through is None:
                subsets = itertools.combinations(others, r)
            else:
                subsets = ((through, *rest) for rest in itertools.combinations(others, r - 1))
            if any(_collides(columns, deleted, n) for deleted in subsets):
                return r
        return m

    def transform(self, x: WreathElement) -> "Code":
        """The equivalent code: the images of all words under ``x``, computed
        from ``columns``. Images of valid words under an element of the
        same context are valid words, so they are not checked again."""
        if x.ctx != self.ctx:
            raise DegreeMismatchError("element lives in a different context")
        return _code_from_words(self.ctx, zip(*x.apply_columns(self.columns)))


def _collides(columns: tuple[Point, ...], deleted: tuple[int, ...], n: int) -> bool:
    """Whether two of the n words agree once the coordinates ``deleted`` are removed."""
    return len(set(zip(*[column for i, column in enumerate(columns) if i not in deleted]))) < n


def _code_from_words(ctx: WreathContext, words: Iterable[Point]) -> Code:
    """A ``Code`` on a nonempty run of tuples of length m over ``range(q)``,
    unchecked.

    Only for words known to be valid: a code file that passed the checks of
    ``parse_code``, or the images of a code's words (``Code.transform``).
    Other words go through ``Code(...)``.
    """
    code = object.__new__(Code)
    code.ctx = ctx
    code.words = frozenset(words)
    code.columns = tuple(zip(*code.words))
    code._min_distance = None
    return code


def is_automorphism(w: WreathElement, code: Code) -> bool:
    """Whether ``w`` maps the word set onto itself.

    Every image, computed by ``w.apply_columns`` on the code's ``columns``,
    must be a codeword. The action is a bijection of Pi, so the |C| images
    are distinct, and this is set equality.
    """
    if w.ctx != code.ctx:
        raise DegreeMismatchError("element lives in a different context")
    images = w.apply_columns(code.columns)
    return all(map(code.words.__contains__, zip(*images)))


def parse_code(text: str) -> Code:
    """Parse the code file format: header ``q m``, then one word per line.

    Words are bare comma lists; ``parse_with_header`` frames the file and
    hands the word lines to ``_entry_tuples`` for one pass: every line must
    hold m - 1 commas, and each distinct entry is converted with ``int``
    once and range-checked, so the checks are those of ``parse_point``.
    Only if that fails are the lines parsed one by one with
    ``parse_point``, so the error names the first bad line. Either way
    every word is checked once, and the code is built without a second
    check.
    """
    ctx, words = parse_with_header(
        text, parse_point, lambda body, ctx: _entry_tuples(body, ctx.delta_size, ctx.gamma_size)
    )
    if not words:
        raise ParseError("code file contains no words")
    return _code_from_words(ctx, words)


def format_words(code: Code) -> Iterator[str]:
    """The words of ``code`` as bare comma lists (``format_point``), in
    numeric sort order.

    The sorted words are transposed once, each distinct entry is converted
    with ``str`` once, and every column gathers its strings in one call.
    """
    columns = tuple(zip(*code.sorted_words()))
    strings = {e: str(e) for e in set().union(*columns)}
    return map(",".join, zip(*(_compose(column, strings) for column in columns)))


def format_code(code: Code) -> str:
    """The code file of ``code``: the header ``q m``, then its words in
    numeric sort order, one per line."""
    header = f"{code.ctx.gamma_size} {code.ctx.delta_size}"
    return "\n".join([header, *format_words(code)]) + "\n"


class CanonicalizationResult(NamedTuple):
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


def canonicalize(
    code: Code,
    X: WreathSubgroup,
    gamma: int,
    nu: int,
) -> CanonicalizationResult:
    """Pin (gamma^m) and (nu^d, gamma^(m-d)) into an equivalent code.

    The four stages:

    1. a base element ``x1`` moving a codeword ``a`` of a minimum-distance
       pair to the constant word, with its entry at each coordinate in the
       component there. The components along the (single) coordinate
       orbit are conjugate: with ``t = X.entry_transversal(0)[delta]``, the
       component at delta is ``t^-1 * C0 * t`` for C0 the component at 0.
       So the entry at delta is ``t^-1 * w * t``, w the BFS witness in C0
       from ``t^-1[a[delta]]`` to ``t^-1[gamma]``, and only the component
       at 0 is built;
    2. the normal form of X1 = X^x1 fixing the constant word, read off X's
       BFS at 0 with X1 never built. x1 is a base element with entries
       a_d, so X1 has X's tops and X's BFS order: its component at 0, G,
       is C0 with each generator conjugated by a_0, and its entry
       transversal at 0 is ``a_0^-1 * u[d] * a_d``. ``x2`` has at d the
       inverse of that entry, corrected by a BFS witness of G to fix
       gamma as ``adjust_transversal`` corrects it, so X1^x2 <= G wr H;
    3. a coordinate permutation ``x3`` moving the d mismatched positions of
       the second codeword to the front, preserving relative order;
    4. a base element ``x4`` with entries in the stabilizer of gamma inside
       G, sending each of the first d entries to nu.

    The supplied generators must be automorphisms of the code, the induced
    coordinate action must be transitive, and the component at coordinate 0
    must be 2-transitive. Once they are checked, the code's minimum
    distance d (unless already cached) is searched through coordinate 0
    only: the tops of X carry every deleted coordinate subset onto one
    containing 0 and keep its collisions.

    x permutes Gamma at each coordinate and permutes the coordinates, so it
    is an isometry of the Hamming graph: once ``Code.transform`` is seen to
    have applied x (as many words, and ``x.apply``, a separate path from
    ``apply_columns``, sends the pair to the pinned words), the transformed
    code keeps d. X^x, the one conjugate built, is certified inside G wr K,
    K its induced group, by ``_embedding_certificate``, with no stabilizer
    chain unless the reading fails.
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

    if code._min_distance is None:
        # X passed the checks above: its tops map the code's collisions onto
        # each other and move every coordinate to 0
        code._min_distance = code._search_min_distance(through=0)
    d = code._min_distance
    word_a, word_b = _first_pair_at_distance(code, d)

    # stage 1: move word_a to the constant word, one entry per coordinate,
    # each conjugated from a witness in the component at coordinate 0
    component = X.component(0)
    transversal = X.entry_transversal(0)
    x1_base: list[Permutation] = []
    for delta in range(m):
        t = transversal[delta]
        t_inverse = t.inverse()
        w = component.witness(t_inverse[word_a[delta]], t_inverse[gamma])
        x1_base.append(t_inverse * w * t)
    x1 = WreathElement(x1_base, Permutation.identity(m))
    constant = ctx.constant_point(gamma)
    if x1.apply(word_a) != constant:
        raise RuntimeError("internal invariant: stage 1 missed the constant word")

    # stage 2: the normal form of X^x1 fixing the constant word, from X's
    # component and entry transversal at 0
    a0 = x1_base[0]
    a0_inverse = a0.inverse()
    G = GenGroup(q, [a0_inverse * c * a0 for c in component.generators])
    x2_base = [
        _corrected(G, a0_inverse * transversal[delta] * a, gamma).inverse()
        for delta, a in enumerate(x1_base)
    ]
    x2 = WreathElement(x2_base, Permutation.identity(m))

    # stage 3: move the mismatched coordinates to the front
    x12 = x1 * x2
    b2 = x12.apply(word_b)
    mismatched = [delta for delta in range(m) if b2[delta] != gamma]
    if len(mismatched) != d:
        raise RuntimeError("internal invariant: distance not preserved")
    rest = [delta for delta in range(m) if b2[delta] == gamma]
    x3 = WreathElement((Permutation.identity(q),) * m, Permutation(mismatched + rest).inverse())

    # stage 4: send the first d entries to nu, inside the stabilizer of gamma
    b3 = x3.apply(b2)
    stabilizer = GenGroup(q, tuple(G.schreier_generators(gamma)))
    x4_base = [Permutation.identity(q)] * m
    for i in range(d):
        x4_base[i] = stabilizer.witness(b3[i], nu)
    x4 = WreathElement(x4_base, Permutation.identity(m))

    x = x12 * x3 * x4
    transformed = code.transform(x)
    mixed = (nu,) * d + (gamma,) * (m - d)
    if constant not in transformed or mixed not in transformed:
        raise RuntimeError("internal invariant: pinned words missing")
    if len(transformed) != len(code) or x.apply(word_a) != constant or x.apply(word_b) != mixed:
        raise RuntimeError("internal invariant: equivalence broke the code")
    # x is a Hamming isometry, so the transformed code's distance is d
    transformed._min_distance = d

    conjugated = conjugate_subgroup(X, x)
    return CanonicalizationResult(
        x1=x1,
        x2=x2,
        x3=x3,
        x4=x4,
        x=x,
        code=transformed,
        conjugated=conjugated,
        component_group=G,
        induced_group=conjugated.induced_group,
        pinned_constant=constant,
        pinned_mixed=mixed,
        certificate=_embedding_certificate(conjugated, G, stabilizer, x3, x4, constant, nu),
    )


def _embedding_certificate(
    conjugated: WreathSubgroup,
    G: GenGroup,
    stabilizer: GenGroup,
    x3: WreathElement,
    x4: WreathElement,
    constant: Point,
    nu: int,
) -> EmbedCertificate:
    """The certificate of ``conjugated`` = X^x <= G wr K, K its induced
    group, read off its BFS at ``j0 = x3.top[0]``, where x3 moves X^(x1*x2)'s
    coordinate 0.

    With ``y = x4[j0]`` it passes with no failures when the BFS reaches
    every coordinate and three checks hold: each generator of the
    component at j0 is ``y^-1 * g * y`` for a generator g of G; each entry
    ``v[j]`` of the entry transversal at j0 makes ``y * v[j] * x4[j]^-1``
    carried into G (``_carried``, with the constant word); and each entry
    of x4 is the identity or a BFS witness of ``stabilizer``, whose
    generators are G's Schreier generators at gamma. The BFS writes each
    base entry as ``v[j]^-1 * s * v[j^h]`` with s in ``y^-1 * G * y``, so
    it lies in ``x4[j]^-1 * G * x4[j^h]``, which is G; each top is one of
    K's generators. Otherwise ``sift_embedding`` decides, exactly.
    """
    j0 = x3.top[0]
    y = x4.base[j0]
    y_inverse = y.inverse()
    conjugates = {(y_inverse * g * y).images for g in G.generators}
    v = conjugated.entry_transversal(j0)
    if (
        len(v) == len(constant)
        and all(c.images in conjugates for c in conjugated.component(j0).generators)
        and all(_carried(G, y * e * x4.base[j].inverse(), constant, j) for j, e in v.items())
        and all(e.is_identity() or stabilizer.is_witness(e.inverse()[nu], e) for e in x4.base)
    ):
        return EmbedCertificate(passed=True, failures=())
    return sift_embedding(conjugated.generators, G, conjugated.induced_group)


def _first_pair_at_distance(code: Code, d: int) -> tuple[Point, Point]:
    """Lexicographically first pair of words attaining the minimum distance."""
    words = code.sorted_words()
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if hamming_distance(words[i], words[j]) == d:
                return words[i], words[j]
    raise RuntimeError("internal invariant: no pair attains the minimum distance")
