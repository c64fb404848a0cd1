"""Raw-tuple arithmetic shared by instance generation and output checks.

Nothing here imports ``wreathact``: the benchmark builds its inputs and
checks the program's outputs with this code alone, so a fault in the
program cannot hide behind the same fault in its checker.

Conventions are the program's own, restated:

* a permutation of {0..n-1} is the tuple of its images;
* products compose left to right, ``compose(a, b)[i] == b[a[i]]``;
* a wreath element is a pair ``(base, top)``, ``base[d]`` a permutation of
  Gamma at coordinate ``d`` and ``top`` a permutation of the coordinates;
* the product action sends entry ``d`` of a point to position ``top[d]``,
  moved by ``base[d]``.
"""

from __future__ import annotations

import math
import random

Perm = tuple[int, ...]
Elem = tuple[tuple[Perm, ...], Perm]
Point = tuple[int, ...]


# ----- permutations -----


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    return tuple(b[i] for i in a)


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def conjugate(a: Perm, c: Perm) -> Perm:
    """``c^-1 a c``."""
    return compose(compose(inverse(c), a), c)


def random_perm(rng: random.Random, n: int) -> Perm:
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def parity(a: Perm) -> int:
    """0 for even permutations, 1 for odd ones."""
    seen = [False] * len(a)
    transpositions = 0
    for start in range(len(a)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = a[i]
            length += 1
        if length:
            transpositions += length - 1
    return transpositions % 2


def closure(gens, degree: int) -> set[Perm]:
    """All products of ``gens`` by breadth-first search."""
    one = identity(degree)
    elements = {one}
    frontier = [one]
    while frontier:
        new = []
        for e in frontier:
            for s in gens:
                c = compose(e, s)
                if c not in elements:
                    elements.add(c)
                    new.append(c)
        frontier = new
    return elements


def word(rng: random.Random, gens, degree: int, length: int) -> Perm:
    """A seeded product of ``length`` generators."""
    out = identity(degree)
    for _ in range(length):
        out = compose(out, rng.choice(gens))
    return out


# ----- groups on Gamma, by generators, with their orders -----


def cyclic_gens(n: int) -> list[Perm]:
    return [tuple((i + 1) % n for i in range(n))]


def dihedral_gens(n: int) -> list[Perm]:
    return cyclic_gens(n) + [tuple((-i) % n for i in range(n))]


def primitive_root(p: int) -> int:
    for g in range(2, p):
        if len({pow(g, k, p) for k in range(1, p)}) == p - 1:
            return g
    return 1


def agl1_gens(p: int) -> list[Perm]:
    """Translation and multiplication by a primitive root mod the prime ``p``."""
    g = primitive_root(p)
    return cyclic_gens(p) + [tuple((g * i) % p for i in range(p))]


def symmetric_gens(n: int) -> list[Perm]:
    if n == 1:
        return []
    swap = (1, 0) + tuple(range(2, n))
    if n == 2:
        return [swap]
    return [swap, tuple(range(1, n)) + (0,)]


def alternating_gens(n: int) -> list[Perm]:
    """3-cycles (0 1 i) for i >= 2 generate Alt(n)."""
    gens = []
    for i in range(2, n):
        images = list(range(n))
        images[0], images[1], images[i] = 1, i, 0
        gens.append(tuple(images))
    return gens


GAMMA_FAMILIES = {
    "cyclic": (cyclic_gens, lambda n: n),
    "dihedral": (dihedral_gens, lambda n: 2 * n),
    "agl1": (agl1_gens, lambda p: p * (p - 1)),
    "sym": (symmetric_gens, math.factorial),
}


def on_blocks(blocks: list[list[int]], degree: int, block_gens) -> list[Perm]:
    """Embed permutations of each block (given as gens per block) in ``degree``."""
    out = []
    for block, gens in zip(blocks, block_gens):
        for g in gens:
            images = list(range(degree))
            for i, point in enumerate(block):
                images[point] = block[g[i]]
            out.append(tuple(images))
    return out


# ----- wreath elements -----


def wmul(x: Elem, y: Elem) -> Elem:
    base_x, top_x = x
    base_y, top_y = y
    base = tuple(compose(base_x[d], base_y[top_x[d]]) for d in range(len(base_x)))
    return base, compose(top_x, top_y)


def winv(x: Elem) -> Elem:
    base, top = x
    tinv = inverse(top)
    return tuple(inverse(base[tinv[d]]) for d in range(len(base))), tinv


def wconj(g: Elem, x: Elem) -> Elem:
    """``x^-1 g x``."""
    return wmul(wmul(winv(x), g), x)


def wapply(x: Elem, point: Point) -> Point:
    base, top = x
    out = [0] * len(base)
    for d in range(len(base)):
        out[top[d]] = base[d][point[d]]
    return tuple(out)


def wrandom(rng: random.Random, q: int, m: int, with_top: bool = True) -> Elem:
    base = tuple(random_perm(rng, q) for _ in range(m))
    top = random_perm(rng, m) if with_top else identity(m)
    return base, top


def diagonal(g: Perm, m: int) -> Elem:
    return (g,) * m, identity(m)


def top_only(h: Perm, q: int) -> Elem:
    return (identity(q),) * len(h), h


def at_coordinate(g: Perm, d: int, m: int) -> Elem:
    q = len(g)
    return tuple(g if i == d else identity(q) for i in range(m)), identity(m)


# ----- text formats of the program's files and reports -----


def fmt_perm(p: Perm) -> str:
    return "[" + ",".join(str(i) for i in p) + "]"


def fmt_elem(x: Elem) -> str:
    return "base=[" + ";".join(fmt_perm(p) for p in x[0]) + "] top=" + fmt_perm(x[1])


def fmt_point(point: Point) -> str:
    return ",".join(str(v) for v in point)


def group_file(q: int, m: int, gens) -> str:
    return f"{q} {m}\n" + "".join(fmt_elem(g) + "\n" for g in gens)


def code_file(q: int, m: int, words) -> str:
    return f"{q} {m}\n" + "".join(fmt_point(w) + "\n" for w in sorted(words))


def parse_perm(text: str) -> Perm:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a bracketed image list: {text!r}")
    images = tuple(int(part) for part in text[1:-1].split(","))
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"not a permutation: {text!r}")
    return images


def parse_perm_list(text: str) -> list[Perm]:
    """``[[..];[..]]`` as printed for generator lists; ``[]`` is empty."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a bracketed list: {text!r}")
    inner = text[1:-1]
    return [parse_perm(part) for part in inner.split(";")] if inner else []


def parse_elem(text: str) -> Elem:
    base_part, top_part = text.strip().split(" top=")
    if not base_part.startswith("base="):
        raise ValueError(f"not a wreath element: {text!r}")
    return tuple(parse_perm_list(base_part[len("base="):])), parse_perm(top_part)


def parse_point(text: str) -> Point:
    return tuple(int(part) for part in text.strip().split(","))


def parse_report(text: str) -> dict[str, str]:
    """``key: value`` lines into a dict; a repeated key is an error."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep or key in out:
            raise ValueError(f"malformed report line {line!r}")
        out[key] = value
    return out
