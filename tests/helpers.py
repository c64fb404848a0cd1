"""Shared builders and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library code paths they are used
to check: permutation closures run on raw image tuples, and the Hamming
code is built straight from its parity checks.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from types import SimpleNamespace

from wreathact import (
    Code,
    EmbedCertificate,
    GenGroup,
    ParseError,
    Permutation,
    WreathContext,
    WreathElement,
    WreathSubgroup,
    conjugate_subgroup,
    parse_point,
    random_permutation,
    same_group,
    symmetric_gens,
)
from wreathact.perm import StabilizerChain, orbit_with_witnesses


def p(*images: int) -> Permutation:
    return Permutation(images)


def we(base_images, top_images) -> WreathElement:
    return WreathElement(
        tuple(Permutation(b) for b in base_images), Permutation(top_images)
    )


def swap2() -> Permutation:
    return Permutation([1, 0])


def cycle(n: int) -> Permutation:
    """The n-cycle (0 1 ... n-1); the identity for n = 1."""
    return Permutation(list(range(1, n)) + [0])


def transposition(n: int, i: int, j: int) -> Permutation:
    images = list(range(n))
    images[i], images[j] = images[j], images[i]
    return Permutation(images)


def sym_perms(n: int) -> list[Permutation]:
    """All of Sym(n), straight from itertools."""
    return [Permutation(images) for images in itertools.permutations(range(n))]


# ----- independent closure oracles -----


def tuple_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b[i] for i in a)


def tuple_closure(gens: list[tuple[int, ...]], degree: int) -> set[tuple[int, ...]]:
    """Closure of raw image tuples under composition; independent of GenGroup."""
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for s in gens:
                c = tuple_compose(e, s)
                if c not in elements:
                    elements.add(c)
                    new.append(c)
        frontier = new
    return elements


def perm_closure(gens) -> set[Permutation]:
    degree = gens[0].degree if gens else 1
    raw = tuple_closure([g.images for g in gens], degree)
    return {Permutation(images) for images in raw}


def wreath_closure(gens, cap: int = 100000) -> set[WreathElement]:
    """Plain BFS closure of wreath elements (multiplication only)."""
    if not gens:
        raise ValueError("need at least one generator to infer the context")
    identity = gens[0].ctx.identity_element()
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for s in gens:
                c = e * s
                if c not in elements:
                    if len(elements) >= cap:
                        raise RuntimeError("oracle closure exceeded cap")
                    elements.add(c)
                    new.append(c)
        frontier = new
    return elements


# ----- raw-tuple split oracle -----
#
# A wreath element is the pair (base, top) of image tuples. The action is
# written in its forward form, image[top[d]] = base[d][phi[d]], and the
# product is read off from it, so neither goes through WreathElement.


def raw_wreath(w: WreathElement) -> tuple:
    return tuple(p.images for p in w.base), w.top.images


def raw_apply(w: tuple, phi: tuple[int, ...]) -> tuple[int, ...]:
    base, top = w
    image = [0] * len(phi)
    for d, entry in enumerate(phi):
        image[top[d]] = base[d][entry]
    return tuple(image)


def raw_multiply(a: tuple, b: tuple) -> tuple:
    """Apply ``a`` first, then ``b``: the entry at d moves to a_top[d]."""
    (fa, ha), (fb, hb) = a, b
    base = tuple(tuple_compose(fa[d], fb[ha[d]]) for d in range(len(ha)))
    return base, tuple_compose(ha, hb)


def raw_closure(gens: list[tuple], q: int, m: int, cap: int | None = None) -> set[tuple]:
    identity = ((tuple(range(q)),) * m, tuple(range(m)))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for s in gens:
                c = raw_multiply(e, s)
                if c not in elements:
                    if cap is not None and len(elements) >= cap:
                        raise RuntimeError("oracle closure exceeded cap")
                    elements.add(c)
                    new.append(c)
        frontier = new
    return elements


def delta_orbit_with_witnesses(
    X: WreathSubgroup, start: int
) -> tuple[list[int], dict[int, WreathElement]]:
    """BFS orbit of a coordinate under the induced action, with witnesses in X.

    ``witness[d]`` is a product of X's generators whose top maps ``start``
    to ``d``; ``witness[start]`` is the identity.
    """
    return orbit_with_witnesses(start, X.generators, lambda w, d: w.top[d], X.identity())


def pruned_entries(elements, delta: int) -> tuple[Permutation, ...]:
    """Distinct non-identity base entries at ``delta`` of wreath elements,
    in first-seen order."""
    entries: list[Permutation] = []
    seen: set[Permutation] = set()
    for w in elements:
        entry = w.base[delta]
        if entry.is_identity() or entry in seen:
            continue
        seen.add(entry)
        entries.append(entry)
    return tuple(entries)


def raw_restrict(w: tuple, part: list[int]) -> tuple:
    base, top = w
    return tuple(base[d] for d in part), tuple(part.index(top[d]) for d in part)


def raw_component(elements: set[tuple], d: int) -> set[tuple[int, ...]]:
    return {base[d] for base, top in elements if top[d] == d}


def split_oracle(X: WreathSubgroup, delta0) -> SimpleNamespace:
    """Brute-force split certificate over all of X x Pi, on raw tuples.

    Checks that restriction to ``delta0`` and its complement is a
    bijection on points, injective on the elements of X and equivariant
    for every (element, point) pair, and that the component of X at d
    equals the component of the restricted half at d's new position. The
    components of X are also returned as closures (``tuple_closure``) of
    the library's component generators, which must equal the projections.
    """
    q, m = X.ctx.gamma_size, X.ctx.delta_size
    part0 = sorted(delta0)
    part1 = [d for d in range(m) if d not in part0]
    parts = (part0, part1)
    gens = [raw_wreath(g) for g in X.generators]
    elements = raw_closure(gens, q, m)
    points = list(itertools.product(range(q), repeat=m))

    restricted_points = {
        tuple(tuple(phi[d] for d in part) for part in parts) for phi in points
    }
    restricted_elements = {
        tuple(raw_restrict(w, part) for part in parts) for w in elements
    }
    equivariant = all(
        tuple(image[d] for d in part) == raw_apply(raw_restrict(w, part), tuple(phi[d] for d in part))
        for w in elements
        for phi in points
        for image in (raw_apply(w, phi),)
        for part in parts
    )
    component_preserved = {}
    for part in parts:
        half = raw_closure([raw_restrict(g, part) for g in gens], q, len(part))
        for i, d in enumerate(part):
            component_preserved[d] = raw_component(elements, d) == raw_component(half, i)
    library_components = {
        d: tuple_closure([g.images for g in X.component(d).generators], q)
        for d in range(m)
    }
    return SimpleNamespace(
        theta_bijective=len(restricted_points) == len(points),
        chi_injective=len(restricted_elements) == len(elements),
        equivariant=equivariant,
        component_preserved=component_preserved,
        components_match_library=all(
            library_components[d] == raw_component(elements, d) for d in range(m)
        ),
    )


def split_oracle_agrees(X: WreathSubgroup, result) -> bool:
    """Whether the oracle's verdicts equal those of a ``SplitResult``."""
    oracle = split_oracle(X, result.delta0)
    return oracle.components_match_library and (
        oracle.theta_bijective,
        oracle.chi_injective,
        oracle.equivariant,
        oracle.component_preserved,
    ) == (
        result.theta_bijective,
        result.chi_injective,
        result.equivariant,
        result.component_preserved,
    )


# ----- reference parse and build counts -----


# ----- the normal-form certificates by stabilizer chain -----


def chain_sift_embedding(
    generators: tuple[WreathElement, ...], G: GenGroup, H: GenGroup
) -> EmbedCertificate:
    """``sift_embedding`` with every base entry sifted into G's chain; a
    top that is the identity or a generator of H is taken as a member,
    any other is sifted into H's chain."""
    tops = frozenset(H.generators)
    failures: list[tuple[int, str, int | None]] = []
    for k, w in enumerate(generators):
        for d, p in enumerate(w.base):
            if not G.contains(p):
                failures.append((k, "base", d))
        top = w.top
        if not (top in tops or top.is_identity() or H.contains(top)):
            failures.append((k, "top", None))
    return EmbedCertificate(passed=not failures, failures=tuple(failures))


def chain_component_flags(X: WreathSubgroup, result) -> dict[int, bool]:
    """``component_flags`` of a ``NormalizationResult`` with every entry
    of the conjugate's transversal that is not the identity sifted into
    the reference component's chain, then ``same_group`` at d."""
    flags: dict[int, bool] = {}
    conjugated, transversal = result.conjugated, result.transversal
    for orbit, rep in zip(transversal.orbits, transversal.reps):
        reference = X.component(rep)
        rep_equal = same_group(conjugated.component(rep), reference)
        u = conjugated.entry_transversal(rep)
        for d in orbit:
            carried = rep_equal and (u[d].is_identity() or reference.contains(u[d]))
            flags[d] = carried or same_group(conjugated.component(d), reference)
    return flags


def reference_parse_lines(text: str, read_line) -> tuple[WreathContext, list]:
    """The per-line framing of group and code files, kept apart from the
    library's reader: the first line that is neither blank nor a ``#``
    comment is the header ``q m``, every later one goes to ``read_line``,
    and a ``ValueError`` on any line becomes a ``ParseError`` naming it."""
    ctx, items = None, []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if ctx is not None:
                items.append(read_line(line, ctx))
            elif len(parts := line.split()) != 2:
                raise ParseError("expected header 'q m'")
            else:
                ctx = WreathContext(int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ParseError(f"line {number}: {exc}") from None
    if ctx is None:
        raise ParseError("missing header line 'q m'")
    return ctx, items


def reference_parse_code(text: str) -> Code:
    """The per-line code parse: ``parse_point`` checks every word as it is
    read, so the first bad line raises, and ``Code`` gets a valid set."""
    ctx, words = reference_parse_lines(text, parse_point)
    if not words:
        raise ParseError("code file contains no words")
    return Code(ctx, words)


def reference_parse_permutation(text: str) -> Permutation:
    """The checked parse of one ``[1,0,2]`` image list: every list goes
    through ``Permutation(...)``, valid or not."""
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
    return Permutation(images)


def reference_parse_group_text(text: str) -> WreathSubgroup:
    """The checked group-file parse: every image list goes through
    ``Permutation(...)``, every element through ``WreathElement(...)`` and
    is compared with the header as a context, so the first bad line raises."""

    def read_line(line: str, ctx: WreathContext) -> WreathElement:
        match = WreathElement._parse_re().match(line.strip())
        if match is None:
            raise ParseError(f"expected 'base=[...;...] top=[...]', got {line!r}")
        base_blob, top_text = match.groups()
        element = WreathElement(
            [reference_parse_permutation(part) for part in base_blob.split(";")],
            reference_parse_permutation(top_text),
        )
        if element.ctx != ctx:
            raise ParseError(f"element context {element.ctx!r} does not match header {ctx!r}")
        return element

    return WreathSubgroup(*reference_parse_lines(text, read_line))


def record_component_builds(monkeypatch) -> list[tuple[WreathSubgroup, int]]:
    """Patch ``WreathSubgroup._component_data`` to log (subgroup,
    coordinate) for every build; cached reads are not logged."""
    builds: list[tuple[WreathSubgroup, int]] = []
    component_data = WreathSubgroup._component_data

    def recording(self, delta):
        if delta not in self._components:
            builds.append((self, delta))
        return component_data(self, delta)

    monkeypatch.setattr(WreathSubgroup, "_component_data", recording)
    return builds


# ----- random instance families -----


def random_wreath_subgroup(rng: random.Random, q: int, m: int, n_gens: int = 2) -> WreathSubgroup:
    ctx = WreathContext(q, m)
    return WreathSubgroup(ctx, tuple(ctx.random_element(rng) for _ in range(n_gens)))


def full_wreath_product(q: int, m: int) -> WreathSubgroup:
    """Sym(q) wr Sym(m) from the standard generators of both factors."""
    ctx = WreathContext(q, m)
    id_q, id_m = Permutation.identity(q), Permutation.identity(m)
    gens = [WreathElement((s,) + (id_q,) * (m - 1), id_m) for s in symmetric_gens(q)]
    gens += [WreathElement((id_q,) * m, h) for h in symmetric_gens(m)]
    return WreathSubgroup(ctx, tuple(gens))


def conjugated_full_wreath_product(rng: random.Random, q: int, m: int) -> WreathSubgroup:
    """Sym(q) wr Sym(m) conjugated by a random base element, so that its
    components differ from coordinate to coordinate."""
    X = full_wreath_product(q, m)
    y = WreathElement(
        tuple(random_permutation(rng, q) for _ in range(m)), Permutation.identity(m)
    )
    return conjugate_subgroup(X, y)


def conjugated_repetition_code(
    rng: random.Random, q: int, m: int
) -> tuple[Code, WreathSubgroup]:
    """The q-word repetition code of length m with its automorphisms, the
    diagonal Sym(q) times the coordinate Sym(m), both conjugated by one
    random base element, so that no word is constant."""
    ctx = WreathContext(q, m)
    id_q, id_m = Permutation.identity(q), Permutation.identity(m)
    gens = [WreathElement((s,) * m, id_m) for s in symmetric_gens(q)]
    gens += [WreathElement((id_q,) * m, h) for h in symmetric_gens(m)]
    y = WreathElement(
        tuple(random_permutation(rng, q) for _ in range(m)), id_m
    )
    code = Code(ctx, [(a,) * m for a in range(q)]).transform(y)
    return code, conjugate_subgroup(WreathSubgroup(ctx, tuple(gens)), y)


def two_block_wreath_product(rng: random.Random, q: int, k: int) -> WreathSubgroup:
    """Sym(q) wr Sym(k) on each of the blocks {0..k-1} and {k..2k-1} of
    2k coordinates, conjugated by a random base element."""
    m = 2 * k
    ctx = WreathContext(q, m)
    id_q, id_m = Permutation.identity(q), Permutation.identity(m)
    gens = []
    for start in (0, k):
        for s in symmetric_gens(q):
            base = [id_q] * m
            base[start] = s
            gens.append(WreathElement(base, id_m))
        for h in symmetric_gens(k):
            top = list(range(m))
            top[start:start + k] = [start + i for i in h.images]
            gens.append(WreathElement((id_q,) * m, Permutation(top)))
    y = WreathElement(
        tuple(random_permutation(rng, q) for _ in range(m)), id_m
    )
    return conjugate_subgroup(WreathSubgroup(ctx, tuple(gens)), y)


def diagonal_instance(
    rng: random.Random,
    q: int,
    m: int,
    transitive_component: bool = False,
    delta_transitive: bool = False,
):
    """A conjugate X = y^-1 X0 y of a subgroup X0 with constant components.

    X0 is generated by diagonal base elements (the same Gamma-permutation
    at every coordinate) plus top-only elements, so its component at every
    coordinate is the diagonal group D. Conjugating by a random base
    element y scatters the components into per-coordinate conjugates of D.

    Returns (X0, X, y, D).
    """
    ctx = WreathContext(q, m)
    id_q = Permutation.identity(q)
    id_m = Permutation.identity(m)

    diag_perms = []
    if transitive_component:
        diag_perms.append(cycle(q))
    for _ in range(rng.randint(1, 2)):
        diag_perms.append(random_permutation(rng, q))
    tops = []
    if delta_transitive:
        tops.append(cycle(m))
    for _ in range(rng.randint(1, 2)):
        tops.append(random_permutation(rng, m))

    gens = [WreathElement((g,) * m, id_m) for g in diag_perms]
    gens += [WreathElement((id_q,) * m, h) for h in tops]
    X0 = WreathSubgroup(ctx, tuple(gens))
    y = WreathElement(tuple(random_permutation(rng, q) for _ in range(m)), id_m)
    X = conjugate_subgroup(X0, y)
    D = GenGroup(q, tuple(diag_perms))
    return X0, X, y, D


def block_intransitive_subgroup(rng: random.Random, q: int, m: int) -> WreathSubgroup:
    """A subgroup whose induced coordinate action preserves a proper block."""
    assert m >= 2
    ctx = WreathContext(q, m)
    k = rng.randint(1, m - 1)

    def block_top() -> Permutation:
        left = list(range(k))
        rng.shuffle(left)
        right = list(range(k, m))
        rng.shuffle(right)
        return Permutation(left + right)

    gens = tuple(
        WreathElement(
            tuple(random_permutation(rng, q) for _ in range(m)), block_top()
        )
        for _ in range(2)
    )
    return WreathSubgroup(ctx, gens)


# ----- the binary Hamming [7,4,3] code and its automorphisms -----


def _coordinate_vector(d: int) -> tuple[int, int, int]:
    return ((d + 1) & 1, (d + 1) >> 1 & 1, (d + 1) >> 2 & 1)


def _vector_coordinate(v) -> int:
    return (v[0] | v[1] << 1 | v[2] << 2) - 1


def hamming_words() -> list[tuple[int, ...]]:
    """All 16 words with zero syndrome, coordinate d matching the vector d+1."""
    words = []
    for w in itertools.product(range(2), repeat=7):
        syndrome = [0, 0, 0]
        for d in range(7):
            if w[d]:
                v = _coordinate_vector(d)
                syndrome = [(syndrome[j] + v[j]) % 2 for j in range(3)]
        if syndrome == [0, 0, 0]:
            words.append(w)
    return words


def _matrix_coordinate_perm(matrix) -> Permutation:
    images = [0] * 7
    for d in range(7):
        v = _coordinate_vector(d)
        image = tuple(
            sum(matrix[i][j] * v[j] for j in range(3)) % 2 for i in range(3)
        )
        images[d] = _vector_coordinate(image)
    return Permutation(images)


def invertible_coordinate_perms() -> list[Permutation]:
    """Transvection generators of the linear coordinate permutations.

    The three elementary matrices E(0,1), E(1,2), E(2,0) generate the full
    group of invertible 3x3 matrices over the field with two elements; the
    tests confirm the order 168 by closure.
    """
    def elementary(i, j):
        matrix = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        matrix[i][j] = 1
        return matrix

    return [
        _matrix_coordinate_perm(elementary(0, 1)),
        _matrix_coordinate_perm(elementary(1, 2)),
        _matrix_coordinate_perm(elementary(2, 0)),
    ]


def hamming_code_with_automorphisms() -> tuple[Code, WreathSubgroup]:
    words = hamming_words()
    ctx = WreathContext(2, 7)
    code = Code(ctx, words)

    s = Permutation([1, 0])
    id2 = Permutation.identity(2)
    id7 = Permutation.identity(7)
    gens = [
        WreathElement((id2,) * 7, top) for top in invertible_coordinate_perms()
    ]
    # translations by a basis of the code (greedy independent words)
    basis = []
    span = {0}
    for w in sorted(words):
        mask = sum(bit << i for i, bit in enumerate(w))
        if mask not in span:
            basis.append(w)
            span = span | {x ^ mask for x in span}
        if len(basis) == 4:
            break
    gens += [
        WreathElement(tuple(s if w[d] else id2 for d in range(7)), id7)
        for w in basis
    ]
    return code, WreathSubgroup(ctx, tuple(gens))


def linear_code_with_automorphisms(
    p: int, basis: list[tuple[int, ...]], tops: list[Permutation]
) -> tuple[Code, WreathSubgroup]:
    """The span over Z_p (p prime) of ``basis`` with the automorphisms:
    translations by the basis words, scaling by every unit, and the
    coordinate permutations ``tops``, which must preserve the span."""
    m = len(basis[0])
    ctx = WreathContext(p, m)
    words = {
        tuple(sum(c * b[d] for c, b in zip(coefficients, basis)) % p for d in range(m))
        for coefficients in itertools.product(range(p), repeat=len(basis))
    }
    id_p, id_m = Permutation.identity(p), Permutation.identity(m)
    gens = [
        WreathElement(tuple(Permutation([(a + b[d]) % p for a in range(p)]) for d in range(m)), id_m)
        for b in basis
    ]
    gens += [WreathElement((Permutation([u * a % p for a in range(p)]),) * m, id_m) for u in range(2, p)]
    gens += [WreathElement((id_p,) * m, top) for top in tops]
    return Code(ctx, words), WreathSubgroup(ctx, tuple(gens))


def reed_solomon_code(p: int, k: int) -> tuple[Code, WreathSubgroup]:
    """The [p, k, p-k+1] code over Z_p of the polynomials of degree < k,
    evaluated at the coordinates 0..p-1, with AGL(1, p) on the coordinates
    (x -> x+1 and x -> u*x for every unit u)."""
    basis = [tuple(pow(x, j, p) for x in range(p)) for j in range(k)]
    tops = [cycle(p)] + [Permutation([u * x % p for x in range(p)]) for u in range(2, p)]
    return linear_code_with_automorphisms(p, basis, tops)


def parity_code_with_automorphisms(p: int, m: int) -> tuple[Code, WreathSubgroup]:
    """The words over Z_p (p prime) of length m summing to 0, with Sym(m)
    on the coordinates."""
    basis = [tuple(1 if d == 0 else p - 1 if d == i else 0 for d in range(m)) for i in range(1, m)]
    return linear_code_with_automorphisms(p, basis, list(symmetric_gens(m)))


# ----- stabilizer chains pinned level by level -----

CHAIN_LEVELS = Path(__file__).parent / "data" / "chain_levels.json"


def _three_cycles(n: int) -> list[Permutation]:
    """The 3-cycles (0 1 i) for i >= 2, which generate Alt(n)."""
    gens = []
    for i in range(2, n):
        images = list(range(n))
        images[0], images[1], images[i] = 1, i, 0
        gens.append(Permutation(images))
    return gens


def _sym_wr_sym_on_points(a: int, b: int) -> list[Permutation]:
    """Sym(a) wr Sym(b) on a*b points in blocks of a: Sym(a) on the first
    block, and Sym(b) moving whole blocks."""
    n = a * b
    gens = [Permutation(list(g.images) + list(range(a, n))) for g in symmetric_gens(a)]
    gens += [Permutation([t[i // a] * a + i % a for i in range(n)]) for t in symmetric_gens(b)]
    return gens


def _sym_on_pairs(n: int) -> tuple[int, list[Permutation]]:
    """Sym(n) acting on its n(n-1)/2 unordered pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    gens = [
        Permutation([index[tuple(sorted((g[a], g[b])))] for a, b in pairs])
        for g in symmetric_gens(n)
    ]
    return len(pairs), gens


def pinned_chain_cases() -> dict[str, tuple[int, list[Permutation]]]:
    """Name -> (degree, generators) of the groups whose stabilizer chains
    ``CHAIN_LEVELS`` records: the chain-order benchmark's larger classes,
    two seeded random 2-generated groups, and one group on 300 points."""
    rng = random.Random(20261018)
    sym8 = [Permutation(list(g.images) + [8]) for g in symmetric_gens(8)]
    return {
        "alt10": (10, _three_cycles(10)),
        "alt12": (12, _three_cycles(12)),
        "sym3-wr-sym6": (18, _sym_wr_sym_on_points(3, 6)),
        "sym8-on-9": (9, sym8),
        "random-30": (30, [random_permutation(rng, 30) for _ in range(2)]),
        "random-40": (40, [random_permutation(rng, 40) for _ in range(2)]),
        "sym25-on-pairs": _sym_on_pairs(25),
    }


def chain_state(chain: StabilizerChain) -> dict:
    """Every level's base point, orbit and strong generators. Strong
    generators are listed once, in order of first appearance, and each
    level names its own by index into that list."""
    strong: dict[tuple[int, ...], int] = {}
    levels = []
    for lvl in chain.levels:
        indices = [strong.setdefault(g, len(strong)) for g in lvl.gens]
        levels.append({"point": lvl.point, "orbit": lvl.orbit, "gens": indices})
    return {"strong": [list(g) for g in strong], "levels": levels}
