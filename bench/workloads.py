"""The four workloads: fixed instance lists, their operations and their checks.

Every workload is a list of size classes. A class is one template; its
instances differ only by a seeded conjugation (or, for ``chain-order``,
by seeded membership queries), so instances of one class cost the same
and a class median is a steady figure. The run seed changes the
conjugating elements and queries, never the templates.

Each instance carries

* ``files``: input files the operation reads, written at set-up;
* ``run(api)``: the timed operation, returning its raw output;
* ``check(output)``: the independent checks, a list of problems, each
  prefixed by the name of the check that found it.

Checks parse the program's reports with ``algebra``'s own parser and
recompute everything from the raw tuples the instance was built from.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import algebra as A

WORKLOADS = ("normal-form", "split-oracle", "code-canon", "chain-order")

# Instances drawn per class per run; a round runs every instance once.
PER_CLASS = 3


@dataclass
class Instance:
    cls: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list[str]]
    files: dict[str, str] = field(default_factory=dict)
    facts: Any = None  # what the construction makes known, for the checks


def cli_op(argv: list[str]) -> Callable[[Any], tuple[int, str]]:
    """One in-process call of ``wreathact.cli.main`` into a string buffer."""

    def run(api) -> tuple[int, str]:
        buf = io.StringIO()
        code = api.cli.main(argv, out=buf)
        return code, buf.getvalue()

    return run


def cli_check(body: Callable[[dict[str, str], list[str]], None]) -> Callable[[tuple[int, str]], list[str]]:
    """Wrap a report check: exit code 0 and a well-formed report come first."""

    def check(output: tuple[int, str]) -> list[str]:
        code, text = output
        if code != 0:
            last = text.strip().splitlines()[-1:] or [""]
            return [f"exit: code {code}: {last[0][:200]}"]
        try:
            report = A.parse_report(text)
        except ValueError as exc:
            return [f"format: {exc}"]
        problems: list[str] = []
        try:
            body(report, problems)
        except (KeyError, ValueError) as exc:
            problems.append(f"format: {type(exc).__name__}: {exc}")
        return problems

    return check


def expect(problems: list[str], ok: bool, tag: str, detail: str = "") -> None:
    if not ok:
        problems.append(f"{tag}: {detail}" if detail else tag)


def numbered(report: dict[str, str], prefix: str) -> list[str]:
    """Values of ``prefix 0``, ``prefix 1``, ... in order; no gaps allowed."""
    out = []
    while f"{prefix} {len(out)}" in report:
        out.append(report[f"{prefix} {len(out)}"])
    extra = [k for k in report if k.startswith(prefix + " ") and k[len(prefix) + 1:].isdigit()]
    if len(extra) != len(out):
        raise ValueError(f"{prefix} lines are not numbered 0..{len(out) - 1}")
    return out


def orbits(gens, n: int) -> list[list[int]]:
    """Orbits of the group generated by ``gens`` on {0..n-1}, sorted, by minimum."""
    seen: set[int] = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            point = frontier.pop()
            for g in gens:
                if g[point] not in orbit:
                    orbit.add(g[point])
                    frontier.append(g[point])
        seen |= orbit
        out.append(sorted(orbit))
    return out


# ----- normal-form -----

# (class, Gamma family, q, m, top group, subcommand). The top group is
# "sym" or "cycle" (coordinate-transitive) or "two-orbits" (Sym on {0,1},
# a cycle on the rest). "full" is the whole Sym(q) wr Sym(m), not a
# diagonal group.
NORMAL_FORM = [
    ("dihedral5-m4-normalize", "dihedral", 5, 4, "two-orbits", "normalize"),
    ("cyclic7-m4-embed", "cyclic", 7, 4, "cycle", "embed"),
    ("agl5-m6-normalize", "agl1", 5, 6, "two-orbits", "normalize"),
    ("agl7-m6-embed", "agl1", 7, 6, "sym", "embed"),
    ("sym6-m4-normalize", "sym", 6, 4, "two-orbits", "normalize"),
    ("full-sym6-m5-embed", "full", 6, 5, "sym", "embed"),
    ("full-sym7-m4-embed", "full", 7, 4, "sym", "embed"),
]


def top_gens(kind: str, m: int) -> list[A.Perm]:
    if kind == "sym":
        return A.symmetric_gens(m)
    if kind == "cycle":
        return A.cyclic_gens(m)
    return A.on_blocks([[0, 1], list(range(2, m))], m, [A.symmetric_gens(2), A.cyclic_gens(m - 2)])


def normal_form_instance(template, rng: random.Random, stem: str) -> Instance:
    cls, family, q, m, tops, command = template
    T = top_gens(tops, m)
    if family == "full":
        D, d_order = A.symmetric_gens(q), math.factorial(q)
        gens0 = [A.at_coordinate(s, 0, m) for s in D]
    else:
        family_gens, family_order = A.GAMMA_FAMILIES[family]
        D, d_order = family_gens(q), family_order(q)
        gens0 = [A.diagonal(s, m) for s in D]
    gens0 += [A.top_only(t, q) for t in T]
    y = A.wrandom(rng, q, m, with_top=False)
    gens = [A.wconj(g, y) for g in gens0]
    path = f"{stem}.group"
    argv = [command, path]
    phi = None
    if command == "embed":
        phi = tuple(rng.randrange(q) for _ in range(m))
        argv += ["--fix", A.fmt_point(phi)]
    facts = NormalFormFacts(q, m, D, d_order, T, y, gens, phi, command)
    return Instance(cls, cli_op(argv), cli_check(facts.check), {path: A.group_file(q, m, gens)}, facts)


@dataclass
class NormalFormFacts:
    """What the construction of one normal-form instance makes known."""

    q: int
    m: int
    D: list  # generators of the common component of X0 (Sym(q) for "full")
    d_order: int  # |D| by formula
    T: list  # generators of the top group
    y: A.Elem  # X = y^-1 X0 y
    gens: list  # input generators of X
    phi: A.Point | None
    command: str

    def check(self, report: dict[str, str], problems: list[str]) -> None:
        q, m = self.q, self.m
        x = A.parse_elem(report["x"])
        expect(problems, x[1] == A.identity(m), "x-top", "x has a non-identity top")
        conjugated = [A.parse_elem(v) for v in numbered(report, "conjugated-generator")]
        mine = [A.wconj(g, x) for g in self.gens]
        expect(problems, conjugated == mine, "conjugated", "conjugated generators differ from x^-1 g x")
        if self.phi is not None:
            expect(problems, A.wapply(x, self.phi) == self.phi, "fix", "x moves the fixed point")
            expect(problems, report["fixed-point"] == A.fmt_point(self.phi), "fix", "wrong fixed-point line")
            expect(problems, report["fixed-point-preserved"] == "yes", "fix", "fixed point reported moved")

        # The main theorem, from D and y alone: the component of X^x at d is
        # D conjugated by the entry of y*x at d; it must not depend on d
        # within an orbit of the top group.
        d_elements = A.closure(self.D, q)
        expect(problems, len(d_elements) == self.d_order, "theorem", "D does not have its formula order")
        yx = A.wmul(self.y, x)
        component = [{A.conjugate(e, yx[0][d]) for e in d_elements} for d in range(m)]
        coordinate_orbits = orbits(self.T, m)
        reps = [orbit[0] for orbit in coordinate_orbits]
        if self.command == "normalize":
            parsed = []
            for value in numbered(report, "delta-orbit"):
                points, rep = value.split(" rep=")
                parsed.append((sorted(A.parse_point(points[len("points="):])), int(rep)))
            expect(problems, [p for p, _ in parsed] == coordinate_orbits, "orbits", "wrong coordinate orbits")
            reps = [rep for _, rep in parsed]
        for orbit, rep in zip(coordinate_orbits, reps):
            for d in orbit:
                expect(problems, component[d] == component[rep], "theorem",
                       f"component at {d} differs from the one at {rep}")
        order = self.d_order
        if self.command == "normalize":
            for rep in reps:
                given = A.parse_perm_list(report[f"common-component rep={rep}"].removeprefix("generators="))
                expect(problems, all(g in component[rep] for g in given), "common-component",
                       f"generator outside the component at {rep}")
                expect(problems, len(A.closure(given, q)) == order, "common-component",
                       f"order at {rep} is not {order}")
        else:
            # embed: X^x <= G wr H with G the component of X at delta1 = 0
            G = {A.conjugate(e, self.y[0][0]) for e in d_elements}
            H = A.closure(self.T, m)
            given_g = A.parse_perm_list(report["G-generators"])
            expect(problems, all(g in G for g in given_g) and len(A.closure(given_g, q)) == order,
                   "embed-G", "G is not the component at coordinate 0")
            given_h = A.parse_perm_list(report["H-generators"])
            expect(problems, A.closure(given_h, m) == H, "embed-H", "H is not the top group")
            expect(problems, all(e in G for g in conjugated for e in g[0]), "embed-base", "base entry outside G")
            expect(problems, all(g[1] in H for g in conjugated), "embed-top", "top outside H")
        expect(problems, report["components-constant"] == "yes", "verdict", "components-constant is not yes")
        expect(problems, report["certificate"] == "PASS", "verdict", "certificate is not PASS")


# ----- split-oracle -----


def block_group(q: int, k: int, spec: tuple) -> tuple[list[A.Elem], int]:
    """Generators on k coordinates and the order, by formula.

    ``("full",)`` is Sym(q) wr Sym(k), order (q!)^k k!;
    ``("diag", family)`` is the diagonal family group times Sym(k) on
    the tops, order |D| k!.
    """
    if spec[0] == "full":
        gens = [A.at_coordinate(s, 0, k) for s in A.symmetric_gens(q)]
        order = math.factorial(q) ** k * math.factorial(k)
    else:
        family_gens, family_order = A.GAMMA_FAMILIES[spec[1]]
        gens = [A.diagonal(s, k) for s in family_gens(q)]
        order = family_order(q) * math.factorial(k)
    gens += [A.top_only(t, q) for t in A.symmetric_gens(k)]
    return gens, order


def place(g: A.Elem, block: list[int], m: int) -> A.Elem:
    """A wreath element on ``len(block)`` coordinates, moved onto ``block``."""
    q = len(g[0][0])
    base = [A.identity(q)] * m
    top = list(range(m))
    for i, d in enumerate(block):
        base[d] = g[0][i]
        top[d] = block[g[1][i]]
    return tuple(base), tuple(top)


def restrict(g: A.Elem, part: list[int]) -> A.Elem:
    """Restriction to an invariant coordinate set, renumbered in natural order."""
    position = {d: i for i, d in enumerate(part)}
    return tuple(g[0][d] for d in part), tuple(position[g[1][d]] for d in part)


# (class, q, m, k, block A on coordinates 0..k-1, block B on the rest);
# classes are by |X| * |Pi|, the work of the split certificate.
SPLIT = [
    ("q2-m4-full2xfull2", 2, 4, 2, ("full",), ("full",)),
    ("q2-m5-full2xsym3", 2, 5, 2, ("full",), ("diag", "sym")),
    ("q3-m3-full2xcyclic1", 3, 3, 2, ("full",), ("diag", "cyclic")),
    ("q3-m3-full2xfull1", 3, 3, 2, ("full",), ("full",)),
    ("q3-m4-full2xcyclic2", 3, 4, 2, ("full",), ("diag", "cyclic")),
]

EQUIVARIANCE_SAMPLES = 40


def split_instance(template, rng: random.Random, stem: str) -> Instance:
    cls, q, m, k, spec_a, spec_b = template
    block_a, block_b = list(range(k)), list(range(k, m))
    gens_a, _ = block_group(q, k, spec_a)
    gens_b, _ = block_group(q, m - k, spec_b)
    gens0 = [place(g, block_a, m) for g in gens_a] + [place(g, block_b, m) for g in gens_b]
    z = A.wrandom(rng, q, m)
    gens = [A.wconj(g, z) for g in gens0]
    invariant = sorted(z[1][d] for d in block_a)
    path = f"{stem}.group"
    argv = ["split", path, "--delta0", A.fmt_point(invariant)]
    facts = SplitFacts(q, m, gens, invariant, rng.randrange(2**32))
    return Instance(cls, cli_op(argv), cli_check(facts.check), {path: A.group_file(q, m, gens)}, facts)


@dataclass
class SplitFacts:
    q: int
    m: int
    gens: list
    delta0: list[int]
    sample_seed: int

    def check(self, report: dict[str, str], problems: list[str]) -> None:
        q, m = self.q, self.m
        delta1 = [d for d in range(m) if d not in self.delta0]
        expect(problems, report["delta0"] == A.fmt_point(self.delta0), "delta", "delta0 is not the invariant set")
        expect(problems, report["delta1"] == A.fmt_point(delta1), "delta", "delta1 is not the complement")
        parts = []
        for name, part in (("part0", self.delta0), ("part1", delta1)):
            expect(problems, report[f"{name}-context"] == f"q={q} m={len(part)}", "parts", f"{name} context")
            given = [A.parse_elem(v) for v in numbered(report, f"{name}-generator")]
            expect(problems, given == [restrict(g, part) for g in self.gens], "parts",
                   f"{name} generators are not the restrictions")
            parts.append((part, given))
        # equivariance on sampled (element, point) pairs, the element a
        # seeded word and its restrictions the same word in the reported parts
        rng = random.Random(self.sample_seed)
        for _ in range(EQUIVARIANCE_SAMPLES):
            letters = [rng.randrange(len(self.gens)) for _ in range(rng.randint(1, 8))]
            phi = tuple(rng.randrange(q) for _ in range(m))
            w = A.top_only(A.identity(m), q)
            for i in letters:
                w = A.wmul(w, self.gens[i])
            image = A.wapply(w, phi)
            for part, given in parts:
                if len(given) != len(self.gens):
                    continue
                w_part = A.top_only(A.identity(len(part)), q)
                for i in letters:
                    w_part = A.wmul(w_part, given[i])
                ok = tuple(image[d] for d in part) == A.wapply(w_part, tuple(phi[d] for d in part))
                expect(problems, ok, "equivariance", f"word {letters} at {phi}")
        for key in ("check-point-map-bijective", "check-element-map-injective",
                    "check-equivariant", "check-components-preserved"):
            expect(problems, report[key] == "yes", "verdict", f"{key} is not yes")
        expect(problems, report["result"] == "PASS", "verdict", "result is not PASS")


# ----- code-canon -----


def hamming_code() -> tuple[int, int, list, list, int]:
    """Binary Hamming [7,4,3]: coordinate d is the nonzero vector d+1 of F_2^3."""
    vec = [((d + 1) & 1, (d + 1) >> 1 & 1, (d + 1) >> 2 & 1) for d in range(7)]
    words = [
        w for w in itertools.product(range(2), repeat=7)
        if all(sum(vec[d][j] for d in range(7) if w[d]) % 2 == 0 for j in range(3))
    ]
    gens = []
    # GL(3,2) acting on the coordinates: a transvection and a cyclic shift
    for M in (((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0))):
        top = tuple(
            vec.index(tuple(sum(M[i][j] * vec[d][j] for j in range(3)) % 2 for i in range(3)))
            for d in range(7)
        )
        gens.append(A.top_only(top, 2))
    # translations by a basis of the code
    basis = [w for w in words if sum(w) == 3][:4]
    for w in basis:
        gens.append((tuple((1, 0) if b else (0, 1) for b in w), A.identity(7)))
    return 2, 7, words, gens, 3


def repetition_code(q: int, m: int):
    words = [(a,) * m for a in range(q)]
    gens = [A.diagonal(s, m) for s in A.symmetric_gens(q)]
    gens += [A.top_only(t, q) for t in A.symmetric_gens(m)]
    return q, m, words, gens, m


def parity_code(p: int, m: int):
    """Words over Z_p summing to 0: translations, unit scaling, Sym(m)."""
    words = [w for w in itertools.product(range(p), repeat=m) if sum(w) % p == 0]
    shift = A.cyclic_gens(p)[0]
    base = [A.identity(p)] * m
    base[0], base[1] = shift, A.inverse(shift)
    gens = [(tuple(base), A.identity(m))]
    if p > 2:
        gens.append(A.diagonal(A.agl1_gens(p)[1], m))
    gens += [A.top_only(t, p) for t in A.symmetric_gens(m)]
    return p, m, words, gens, 2


# (class, family builder); the classes are by |C| and by the group's size
CODE_CANON = [
    ("parity-z3-m5", lambda: parity_code(3, 5)),
    ("even-weight-q2-m6", lambda: parity_code(2, 6)),
    ("hamming-q2-m7", hamming_code),
    ("repetition-q6-m5", lambda: repetition_code(6, 5)),
    ("parity-z5-m5", lambda: parity_code(5, 5)),
]

GAMMA, NU = 0, 1


def code_canon_instance(template, rng: random.Random, stem: str) -> Instance:
    cls, build = template
    q, m, words, gens0, distance = build()
    z = A.wrandom(rng, q, m)
    words = [A.wapply(z, w) for w in words]
    gens = [A.wconj(g, z) for g in gens0]
    code_path, group_path = f"{stem}.code", f"{stem}.group"
    argv = ["code-canon", code_path, group_path, "--gamma", str(GAMMA), "--nu", str(NU)]
    facts = CodeFacts(q, m, frozenset(words), gens, distance)
    files = {code_path: A.code_file(q, m, words), group_path: A.group_file(q, m, gens)}
    return Instance(cls, cli_op(argv), cli_check(facts.check), files, facts)


@dataclass
class CodeFacts:
    q: int
    m: int
    words: frozenset
    gens: list
    distance: int

    def check(self, report: dict[str, str], problems: list[str]) -> None:
        m, d = self.m, self.distance
        expect(problems, report["code-size"] == str(len(self.words)), "size", "code-size")
        expect(problems, report["min-distance"] == str(d), "distance", "min-distance is not the family's")
        x = A.parse_elem(report["x"])
        factors = [A.parse_elem(report[f"x{i}"]) for i in range(1, 5)]
        product = factors[0]
        for f in factors[1:]:
            product = A.wmul(product, f)
        expect(problems, product == x, "factors", "x is not x1*x2*x3*x4")
        listed = [A.parse_point(v) for v in numbered(report, "transformed-word")]
        expect(problems, sorted(listed) == sorted(A.wapply(x, w) for w in self.words), "transformed",
               "transformed words are not the input words mapped by x")
        expect(problems, report["transformed-size"] == str(len(self.words)), "size", "transformed-size")
        given = set(listed)
        constant = (GAMMA,) * m
        mixed = (NU,) * d + (GAMMA,) * (m - d)
        expect(problems, constant in given and mixed in given, "pinned", "pinned words missing")
        expect(problems, report["pinned-constant"] == A.fmt_point(constant), "pinned", "pinned-constant line")
        expect(problems, report["pinned-mixed"] == A.fmt_point(mixed), "pinned", "pinned-mixed line")
        expect(problems, report["transformed-min-distance"] == str(d), "distance", "transformed-min-distance")
        for k, g in enumerate(self.gens):
            h = A.wconj(g, x)
            expect(problems, {A.wapply(h, w) for w in given} == given, "automorphism",
                   f"x^-1 g{k} x does not preserve the transformed code")
        expect(problems, report["certificate"] == "PASS", "verdict", "certificate is not PASS")


# ----- chain-order -----


def wreath_points(a: int, b: int) -> tuple[int, list]:
    """Sym(a) wr Sym(b) on a*b points in blocks of a; order (a!)^b b!."""
    n = a * b
    gens = A.on_blocks([list(range(a))], n, [A.symmetric_gens(a)])
    gens += [tuple(t[i // a] * a + i % a for i in range(n)) for t in A.symmetric_gens(b)]
    return n, gens


def random_wreath_pair(a: int, b: int, seed: int) -> tuple[int, list]:
    """Two seeded random elements of Sym(a) wr Sym(b) on a*b points."""
    rng = random.Random(seed)
    n = a * b
    gens = []
    for _ in range(2):
        blocks = A.random_perm(rng, b)
        base = [A.random_perm(rng, a) for _ in range(b)]
        gens.append(tuple(blocks[i // a] * a + base[i // a][i % a] for i in range(n)))
    return n, gens


def preserves_blocks(p: A.Perm, a: int) -> bool:
    return all(len({p[i] // a for i in range(s, s + a)}) == 1 for s in range(0, len(p), a))


# (class, degree, generators, order by formula or None for sympy's, and a
# test that a permutation is outside the group, by a property every member has)
CHAIN = [
    ("sym8-on-9", 9, A.on_blocks([list(range(8))], 9, [A.symmetric_gens(8)]), math.factorial(8),
     lambda p: p[8] != 8),
    ("sym5xsym6", 11, A.on_blocks([list(range(5)), list(range(5, 11))], 11,
                                  [A.symmetric_gens(5), A.symmetric_gens(6)]),
     math.factorial(5) * math.factorial(6), lambda p: any(p[i] >= 5 for i in range(5))),
    ("sym3-wr-sym4", *wreath_points(3, 4), math.factorial(3) ** 4 * math.factorial(4),
     lambda p: not preserves_blocks(p, 3)),
    ("random-in-sym3-wr-sym5", *random_wreath_pair(3, 5, seed=0), None,
     lambda p: not preserves_blocks(p, 3)),
    ("alt10", 10, A.alternating_gens(10), math.factorial(10) // 2, A.parity),
    ("sym3-wr-sym6", *wreath_points(3, 6), math.factorial(3) ** 6 * math.factorial(6),
     lambda p: not preserves_blocks(p, 3)),
    ("alt12", 12, A.alternating_gens(12), math.factorial(12) // 2, A.parity),
]

QUERIES = 20  # members, and as many non-members, per operation
WORD_LENGTH = 30


def chain_instance(template, rng: random.Random, stem: str) -> Instance:
    cls, n, gens, order, outside = template
    members = [A.word(rng, gens, n, WORD_LENGTH) for _ in range(QUERIES)]
    outsiders: list[A.Perm] = []
    while len(outsiders) < QUERIES:
        p = A.random_perm(rng, n)
        if outside(p):
            outsiders.append(p)
    queries = members + outsiders

    def run(api):
        group = api.GenGroup(n, [api.Permutation(g) for g in gens])
        found = group.order()
        return found, tuple(group.contains(api.Permutation(p)) for p in queries)

    facts = ChainFacts(gens, order, outsiders)
    return Instance(cls, run, facts.check, facts=facts)


@dataclass
class ChainFacts:
    gens: list
    order: int | None
    outsiders: list
    _oracle: tuple | None = None

    def oracle(self) -> tuple[int, list[bool]]:
        """Order and non-membership from sympy, computed once."""
        if self._oracle is None:
            from sympy.combinatorics import Permutation, PermutationGroup

            group = PermutationGroup([Permutation(list(g)) for g in self.gens])
            self._oracle = (
                group.order(),
                [group.contains(Permutation(list(p))) for p in self.outsiders],
            )
        return self._oracle

    def check(self, output) -> list[str]:
        problems: list[str] = []
        found, answers = output
        sympy_order, sympy_member = self.oracle()
        expected = self.order if self.order is not None else sympy_order
        expect(problems, found == expected, "order", f"{found} != {expected}")
        expect(problems, self.order is None or self.order == sympy_order, "order",
               "formula and sympy disagree")
        expect(problems, list(answers[:QUERIES]) == [True] * QUERIES, "members", "a word was answered False")
        expect(problems, not any(sympy_member), "non-members", "sympy places a non-member in the group")
        expect(problems, list(answers[QUERIES:]) == [False] * QUERIES, "non-members",
               "a non-member was answered True")
        return problems


# ----- assembly -----

BUILDERS = {
    "normal-form": (NORMAL_FORM, normal_form_instance),
    "split-oracle": (SPLIT, split_instance),
    "code-canon": (CODE_CANON, code_canon_instance),
    "chain-order": (CHAIN, chain_instance),
}


def build(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[Instance]:
    """The run's instance list: PER_CLASS seeded instances of every class,
    or, in smoke mode, one instance of each of the two cheapest classes.
    Input files are named under ``workdir``; the caller writes them."""
    table, make = BUILDERS[workload]
    if smoke:
        table, per_class = table[:2], 1
    else:
        per_class = PER_CLASS
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for template in table:
        for i in range(per_class):
            out.append(make(template, rng, os.path.join(workdir, f"{template[0]}-{i}")))
    return out

