"""Batch front-end over text files.

Subcommands cover every pipeline: ``components``, ``normalize``, ``embed``,
``split``, ``code-canon`` and the oracle suite ``verify``. All input and
output is plain ASCII text with newline endings; reports are ``key: value``
lines with every iteration order fixed, so identical inputs produce
byte-identical reports.

Group files: a header line ``q m`` followed by one wreath element per
line, serialized as ``base=[[...];...] top=[...]``. Code files: the same
header followed by one word per line as a bare comma list. Blank lines and
``#`` comments are allowed in both. ``parse_with_header`` frames both
formats: it reads the header once and the later lines in one pass. When
that pass refuses the file (a spaced generator line or a malformed line
of either format), every body line is read again one at a time, up to
the first bad one, so a spaced generator parses and an error names its
line.

Exit status: 0 on success, 1 when a hypothesis of the requested
construction fails (reported, expected), 2 on parse or internal errors.
The enumeration cap (``--cap`` on ``verify`` only, default from the
environment variable ``WREATHACT_CAP``) bounds its brute-force work, the
stabilizer count over the full wreath product, which is refused before any
other work when over the cap, and the scan's orbits on Pi; the scan
enumerates no subgroup. The other subcommands, ``split`` included, certify
from generator data without enumerating and take no cap.

An internal error prints ``internal error: <message>`` and exits 2; with the
environment variable ``WREATHACT_DEBUG=1`` its traceback also goes to
standard error.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import os
import random
import sys
from typing import Sequence

from .errors import EnumerationOverflow, HypothesisViolation, ParseError
from .perm import DEFAULT_CAP, _from_images
from .wreath import (
    WreathContext,
    WreathElement,
    _entry_tuples,
    _from_parts,
    format_point,
    parse_point,
    parse_with_header,
    stabilizer_order_oracle,
)
from .components import WreathSubgroup, _yn
from .normalize import embed_in_wreath, normalizing_element
from .codes import canonicalize, format_words, parse_code

ENV_CAP = "WREATHACT_CAP"
ENV_DEBUG = "WREATHACT_DEBUG"


def checked_cap(cap: int, source: str) -> int:
    """``cap`` itself, or a ParseError naming ``source`` when it is not positive."""
    if cap < 1:
        raise ParseError(f"{source} must be positive, got {cap}")
    return cap


def default_cap() -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"{ENV_CAP} must be an integer, got {raw!r}") from None
    return checked_cap(cap, ENV_CAP)


def _read_generator(line: str, ctx: WreathContext) -> WreathElement:
    element = WreathElement.parse(line)
    if element.base[0].degree != ctx.gamma_size or element.top.degree != ctx.delta_size:
        raise ParseError(f"element context {element.ctx!r} does not match header {ctx!r}")
    return element


def _read_group(body: list[str], ctx: WreathContext) -> list[WreathElement]:
    """The generators on the body lines of a group file in the plain
    serialization, in one pass.

    Every generator line must be ``base=[[...];...;[...]] top=[...]``
    spelled as ``str`` writes it: m - 1 ``];[`` separators, q - 1 commas
    in each base list and m - 1 in the top. Any other ``;`` or bracket
    ends up inside an entry, which ``int`` refuses. The base lists of all
    lines are converted at once, the tops likewise (``_entry_tuples``),
    and every image tuple must be a bijection. Text in any other spelling,
    or that fails a check, raises ``ValueError``.
    """
    q, m = ctx.gamma_size, ctx.delta_size
    bases, tops = [], []
    for line in body:
        head, sep, top = line.partition("]] top=[")
        base = head[7:]
        if not (sep and head.startswith("base=[[") and top.endswith("]")
                and base.count("];[") == m - 1):
            raise ValueError("not in the plain serialization")
        bases.append(base)
        tops.append(top[:-1])
    base_images = _entry_tuples("];[".join(bases).split("];["), q, q)
    top_images = _entry_tuples(tops, m, m)
    if set(map(len, map(set, base_images))) != {q} or set(map(len, map(set, top_images))) != {m}:
        raise ValueError("not a permutation")
    base_perms = map(_from_images, base_images)
    return list(map(_from_parts, zip(*[base_perms] * m), map(_from_images, top_images)))


def parse_group_text(text: str) -> WreathSubgroup:
    """Parse a group file: header ``q m`` then one wreath element per line.

    ``parse_with_header`` frames the file and hands the generator lines to
    ``_read_group`` for one pass; only if that fails are they parsed one
    by one with ``WreathElement.parse``, which reads spaced lines too and
    names the first bad line.
    """
    return WreathSubgroup(*parse_with_header(text, _read_generator, _read_group))


def load_group(path: str) -> WreathSubgroup:
    with open(path, "r", encoding="ascii") as handle:
        return parse_group_text(handle.read())


def load_code(path: str):
    with open(path, "r", encoding="ascii") as handle:
        return parse_code(handle.read())


def _emit(out, key: str, value) -> None:
    out.write(f"{key}: {value}\n")


def _fmt_ctx(ctx: WreathContext) -> str:
    return f"q={ctx.gamma_size} m={ctx.delta_size}"


def _fmt_perm_list(perms) -> str:
    return "[" + ";".join(str(p) for p in perms) + "]"


def _emit_certificate(out, certificate, ok: bool) -> None:
    """One line per sifting failure (none when it passed), then the verdict."""
    for k, (generator, kind, coordinate) in enumerate(certificate.failures):
        where = "" if coordinate is None else f" coordinate={coordinate}"
        _emit(out, f"certificate-failure {k}", f"generator={generator} kind={kind}{where}")
    _emit(out, "certificate", "PASS" if ok else "FAIL")


def _parse_fix(arg: str | None, ctx: WreathContext):
    if arg is None:
        return None
    return parse_point(arg, ctx)


# ----- subcommand handlers -----


def cmd_components(args, out) -> int:
    X = load_group(args.group)
    _emit(out, "context", _fmt_ctx(X.ctx))
    _emit(out, "generator-count", len(X.generators))
    for k, g in enumerate(X.generators):
        _emit(out, f"generator {k}", g)
    _emit(out, "delta-orbit-count", len(X.delta_orbits))
    for k, orbit in enumerate(X.delta_orbits):
        _emit(out, f"delta-orbit {k}", ",".join(str(d) for d in orbit))
    for d in range(X.ctx.delta_size):
        comp = X.component(d)
        _emit(
            out,
            f"component {d}",
            f"generators={_fmt_perm_list(comp.generators)}"
            f" transitivity={comp.transitivity_degree()}",
        )
    return 0


def cmd_normalize(args, out) -> int:
    X = load_group(args.group)
    phi = _parse_fix(args.fix, X.ctx)
    result = normalizing_element(X, phi)
    _emit(out, "context", _fmt_ctx(X.ctx))
    transversal = result.transversal
    for k, (orbit, rep) in enumerate(zip(transversal.orbits, transversal.reps)):
        _emit(
            out,
            f"delta-orbit {k}",
            f"points={','.join(str(d) for d in orbit)} rep={rep}",
        )
    _emit(out, "x", result.x)
    for k, g in enumerate(result.conjugated.generators):
        _emit(out, f"conjugated-generator {k}", g)
    for rep in transversal.reps:
        comp = result.common_components[rep]
        _emit(
            out,
            f"common-component rep={rep}",
            f"generators={_fmt_perm_list(comp.generators)}",
        )
    _emit(out, "components-constant", _yn(all(result.component_flags.values())))
    if phi is not None:
        _emit(out, "fixed-point", format_point(phi))
        _emit(out, "fixed-point-preserved", _yn(bool(result.fixes_point)))
    _emit(out, "certificate", "PASS" if result.ok else "FAIL")
    return 0 if result.ok else 2


def cmd_embed(args, out) -> int:
    X = load_group(args.group)
    phi = _parse_fix(args.fix, X.ctx)
    result = embed_in_wreath(X, delta1=args.delta1, phi=phi)
    _emit(out, "context", _fmt_ctx(X.ctx))
    _emit(out, "delta1", result.delta1)
    _emit(out, "G-generators", _fmt_perm_list(result.G.generators))
    _emit(out, "G-transitivity", result.G.transitivity_degree())
    _emit(out, "H-generators", _fmt_perm_list(result.H.generators))
    _emit(out, "x", result.x)
    for k, g in enumerate(result.conjugated.generators):
        _emit(out, f"conjugated-generator {k}", g)
    _emit(
        out,
        "components-constant",
        _yn(all(result.normalization.component_flags.values())),
    )
    if phi is not None:
        _emit(out, "fixed-point", format_point(phi))
        _emit(out, "fixed-point-preserved", _yn(bool(result.normalization.fixes_point)))
    _emit_certificate(out, result.certificate, result.ok)
    return 0 if result.ok else 2


def cmd_split(args, out) -> int:
    X = load_group(args.group)
    try:
        delta0 = [int(part) for part in args.delta0.split(",")]
    except ValueError:
        raise ParseError(f"--delta0 expects a comma list of coordinates, got {args.delta0!r}") from None
    result = X.split(delta0)
    _emit(out, "context", _fmt_ctx(X.ctx))
    for line in result.report_lines():
        out.write(line + "\n")
    for name, half in (("part0", result.first), ("part1", result.second)):
        _emit(out, f"{name}-context", _fmt_ctx(half.ctx))
        for k, g in enumerate(half.generators):
            _emit(out, f"{name}-generator {k}", g)
    _emit(out, "result", "PASS" if result.ok else "FAIL")
    return 0 if result.ok else 2


def cmd_code_canon(args, out) -> int:
    code = load_code(args.code)
    X = load_group(args.group)
    result = canonicalize(code, X, args.gamma, args.nu)
    _emit(out, "context", _fmt_ctx(code.ctx))
    _emit(out, "code-size", len(code))
    _emit(out, "min-distance", code.min_distance())
    for name, factor in (
        ("x1", result.x1),
        ("x2", result.x2),
        ("x3", result.x3),
        ("x4", result.x4),
        ("x", result.x),
    ):
        _emit(out, name, factor)
    _emit(out, "pinned-constant", format_point(result.pinned_constant))
    _emit(out, "pinned-mixed", format_point(result.pinned_mixed))
    _emit(out, "transformed-size", len(result.code))
    _emit(out, "transformed-min-distance", result.code.min_distance())
    words = format_words(result.code)
    out.write("".join([f"transformed-word {i}: {word}\n" for i, word in enumerate(words)]))
    _emit(out, "G-generators", _fmt_perm_list(result.component_group.generators))
    _emit(out, "K-generators", _fmt_perm_list(result.induced_group.generators))
    _emit_certificate(out, result.certificate, result.certificate.passed)
    return 0 if result.certificate.passed else 2


def cmd_verify(args, out) -> int:
    cap = default_cap() if args.cap is None else checked_cap(args.cap, "--cap")
    for flag, count in (("--pairs", args.pairs), ("--samples", args.samples)):
        if count < 0:
            raise ParseError(f"{flag} must be non-negative, got {count}")
    ctx = WreathContext(args.q, args.m)
    # the stabilizer count runs over the whole wreath product: count first,
    # so that an over-cap context is refused before Pi is listed, and refuse
    # on q and m alone before the constant point of length m is built
    try:
        ctx.check_cap(cap)
        constant = ctx.constant_point(0)
        count = stabilizer_order_oracle(ctx, constant, cap=cap)
    except EnumerationOverflow as exc:
        raise EnumerationOverflow(f"verify: stabilizer count: {exc}") from None
    rng = random.Random(args.seed)
    _emit(out, "context", _fmt_ctx(ctx))
    _emit(out, "seed", args.seed)

    # right-action axiom: applying a product equals applying the factors in
    # turn, on all of Pi as columns; a failure is a point whose images differ
    failures = 0
    columns = list(zip(*ctx.all_points()))
    for _ in range(args.pairs):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        ab = a * b
        direct = ab.apply_columns(columns)
        in_turn = b.apply_columns(a.apply_columns(columns))
        failures += sum(map(operator.ne, zip(*direct), zip(*in_turn)))
    _emit(out, "action-pairs", args.pairs)
    _emit(out, "action-failures", failures)

    # stabilizer of the constant word, counted above
    expected = math.factorial(ctx.gamma_size - 1) ** ctx.delta_size * math.factorial(
        ctx.delta_size
    )
    _emit(out, "stabilizer-point", format_point(constant))
    _emit(out, "stabilizer-count", count)
    _emit(out, "stabilizer-expected", expected)

    # random 2-generated subgroups: transitivity forces transitive components
    violations = 0
    transitive = 0
    for _ in range(args.samples):
        gens = [ctx.random_element(rng) for _ in range(2)]
        report = WreathSubgroup(ctx, gens).transitivity_report(cap=cap)
        if report.transitive_on_points:
            transitive += 1
        if report.violation:
            violations += 1
    _emit(out, "scan-samples", args.samples)
    _emit(out, "scan-transitive-count", transitive)
    _emit(out, "scan-violations", violations)

    ok = failures == 0 and count == expected and violations == 0
    _emit(out, "result", "PASS" if ok else "FAIL")
    return 0 if ok else 2


# ----- argument parsing -----


def build_parser() -> argparse.ArgumentParser:
    """A new parser; each subcommand names its handler, looked up at call time."""
    parser = argparse.ArgumentParser(
        prog="wreathact",
        description="Exact computations with subgroups of wreath products in product action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("components", help="coordinate components and orbits")
    p.add_argument("group", help="group file")
    p.set_defaults(handler="cmd_components")

    p = sub.add_parser("normalize", help="conjugate so components are constant per orbit")
    p.add_argument("group", help="group file")
    p.add_argument("--fix", help="point of Pi the conjugating element must fix")
    p.set_defaults(handler="cmd_normalize")

    p = sub.add_parser("embed", help="certified embedding into G wr H")
    p.add_argument("group", help="group file")
    p.add_argument("--delta1", type=int, default=0, help="coordinate whose component is G")
    p.add_argument("--fix", help="point of Pi the conjugating element must fix")
    p.set_defaults(handler="cmd_embed")

    p = sub.add_parser("split", help="split along an invariant coordinate subset")
    p.add_argument("group", help="group file")
    p.add_argument("--delta0", required=True, help="comma list of coordinates")
    p.set_defaults(handler="cmd_split")

    p = sub.add_parser("code-canon", help="pin two words of an equivalent code")
    p.add_argument("code", help="code file")
    p.add_argument("group", help="group file of code automorphisms")
    p.add_argument("--gamma", type=int, required=True, help="letter of the constant word")
    p.add_argument("--nu", type=int, required=True, help="letter of the first d entries")
    p.set_defaults(handler="cmd_code_canon")

    p = sub.add_parser("verify", help="oracle suite at a given context size")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pairs", type=int, default=200, help="random pairs for the action axiom")
    p.add_argument("--samples", type=int, default=500, help="random subgroups for the scan")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--cap",
        type=int,
        default=None,
        help="enumeration cap for brute-force checks (default from "
        f"{ENV_CAP} or {DEFAULT_CAP})",
    )
    p.set_defaults(handler="cmd_verify")

    return parser


# built on the first ``main`` call, not at import, and reused for the rest of
# the process (a one-shot ``python -m wreathact`` builds it once either way)
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    try:
        # argparse before 3.13 reads --name=-- as an empty list, not as "--"
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise ParseError(f"--{name} needs a value")
        return globals()[args.handler](args, out)
    except HypothesisViolation as exc:
        out.write(f"error: {exc}\n")
        return 1
    except (ParseError, EnumerationOverflow, ValueError, OSError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # internal errors still exit 2
        out.write(f"internal error: {exc}\n")
        if os.environ.get(ENV_DEBUG) == "1":
            import traceback  # only here: importing it costs every run about 3 ms

            traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
