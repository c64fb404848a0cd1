"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every expected value is either frozen from an independent derivation
(exhaustive enumeration, pairwise recounts) or checked exactly; tolerances
are exact equality throughout, and the random families are seeded so the
suite is reproducible.
"""

import io
import itertools
import math
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from wreathact import (
    Code,
    GenGroup,
    Permutation,
    WreathContext,
    WreathElement,
    WreathSubgroup,
    build_transversal,
    canonicalize,
    embed_in_wreath,
    normalizing_element,
    sift_embedding,
    stabilizer_order_oracle,
)
from wreathact.cli import main
from helpers import (
    block_intransitive_subgroup,
    diagonal_instance,
    hamming_code_with_automorphisms,
    p,
    perm_closure,
    split_oracle_agrees,
    sym_perms,
    we,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden")


def _report(label: str, ok: bool) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


@pytest.fixture(scope="module")
def normal_form_instances():
    """108 conjugates of subgroups with constant components, q <= 3, m <= 4.

    Half the instances carry a transitive diagonal component and a point to
    fix; every other instance gets a coordinate-transitive top group.
    """
    rng = random.Random(20260810)
    records = []
    for q in (2, 3):
        for m in (2, 3, 4):
            for i in range(9):
                for with_phi in (False, True):
                    X0, X, y, D = diagonal_instance(
                        rng,
                        q,
                        m,
                        transitive_component=with_phi,
                        delta_transitive=(i % 2 == 0),
                    )
                    phi = (
                        tuple(rng.randrange(q) for _ in range(m))
                        if with_phi
                        else None
                    )
                    nr = normalizing_element(X, phi)
                    records.append(
                        SimpleNamespace(q=q, m=m, X0=X0, X=X, y=y, D=D, phi=phi, nr=nr)
                    )
    assert len(records) >= 100
    return records


def test_criterion_1_product_action_homomorphism():
    rng = random.Random(101)
    pairs = 0
    failures = 0
    for q in (2, 3):
        for m in (1, 2, 3):
            ctx = WreathContext(q, m)
            points = list(ctx.all_points())
            for _ in range(40):
                a = ctx.random_element(rng)
                b = ctx.random_element(rng)
                ab = a * b
                pairs += 1
                for phi in points:
                    if ab.apply(phi) != b.apply(a.apply(phi)):
                        failures += 1
    assert pairs >= 200
    _report(
        "1 product action is a right action (exhaustive over points)",
        failures == 0,
    )


def test_criterion_2_constant_point_stabilizer_counts():
    # frozen values from full enumeration of the wreath products of orders
    # 8, 72 and 48
    expected = {(2, 2): 2, (3, 2): 8, (2, 3): 6}
    ok = True
    for (q, m), value in expected.items():
        ctx = WreathContext(q, m)
        count = stabilizer_order_oracle(ctx, ctx.constant_point(0))
        formula = math.factorial(q - 1) ** m * math.factorial(m)
        ok = ok and count == value == formula
    _report("2 constant-point stabilizer counts (2, 8, 6)", ok)


def test_criterion_3_components_constant_after_conjugation(normal_form_instances):
    ok = True
    for record in normal_form_instances:
        nr = record.nr
        if not nr.x.top.is_identity():
            ok = False
        if not all(nr.component_flags.values()):
            ok = False
        transversal = nr.transversal
        for orbit, rep in zip(transversal.orbits, transversal.reps):
            reference = nr.conjugated.component(rep).enumerate_elements()
            for d in orbit:
                if nr.conjugated.component(d).enumerate_elements() != reference:
                    ok = False
        if record.phi is not None:
            if nr.fixes_point is not True:
                ok = False
            if nr.x.apply(record.phi) != record.phi:
                ok = False
    _report(
        "3 conjugation makes components constant per orbit"
        f" ({len(normal_form_instances)} instances)",
        ok,
    )


def test_criterion_4_embedding_certificates(normal_form_instances):
    ok = True
    embedded = 0
    corrupted = 0
    for record in normal_form_instances:
        if not record.X.is_delta_transitive:
            continue
        result = embed_in_wreath(record.X, 0, phi=record.phi)
        embedded += 1
        if not result.certificate.passed:
            ok = False
        outside = sorted(
            set(sym_perms(record.q)) - result.G.enumerate_elements(),
            key=lambda perm: perm.images,
        )
        if outside:
            bad = WreathElement(
                (outside[0],)
                + (Permutation.identity(record.q),) * (record.m - 1),
                Permutation.identity(record.m),
            )
            gens = result.conjugated.generators
            tampered = (gens[0] * bad,) + gens[1:]
            corrupted += 1
            if sift_embedding(tampered, result.G, result.H).passed:
                ok = False
    assert embedded >= 30
    assert corrupted >= 10
    _report(
        f"4 embedding certificate passes ({embedded} instances)"
        f" and catches corruption ({corrupted} corrupted)",
        ok,
    )


def test_criterion_5_components_conjugate_along_orbits(normal_form_instances):
    ok = True
    for record in normal_form_instances:
        X = record.X
        transversal = record.nr.transversal
        for orbit, rep in zip(transversal.orbits, transversal.reps):
            reference = X.component(rep).enumerate_elements(5000)
            for d in orbit:
                entry = transversal.entries[d]
                conjugated = {perm.conjugate(entry) for perm in reference}
                if X.component(d).enumerate_elements(5000) != conjugated:
                    ok = False
    _report(
        "5 component at d = component at rep conjugated by the transversal entry",
        ok,
    )


def test_criterion_6_transitive_groups_have_transitive_components():
    rng = random.Random(606)
    samples = []
    for q, m, count in ((2, 2, 200), (3, 2, 250), (2, 1, 25), (3, 1, 25)):
        samples.extend((q, m) for _ in range(count))
    assert len(samples) >= 500
    violations = 0
    transitive_cases = 0
    for q, m in samples:
        ctx = WreathContext(q, m)
        gens = tuple(ctx.random_element(rng) for _ in range(2))
        report = WreathSubgroup(ctx, gens).transitivity_report()
        if report.transitive_on_points:
            transitive_cases += 1
        if report.violation:
            violations += 1
    assert transitive_cases > 0
    _report(
        f"6 transitivity scan over {len(samples)} random subgroups"
        f" ({transitive_cases} transitive)",
        violations == 0,
    )


def test_criterion_7_invariant_splits_certify():
    rng = random.Random(707)
    checked = 0
    ok = True
    while checked < 52:
        q = rng.choice([2, 3])
        m = rng.choice([2, 3])
        X = block_intransitive_subgroup(rng, q, m)
        orbits = X.delta_orbits
        if len(orbits) < 2:
            continue
        take = rng.randint(1, len(orbits) - 1)
        delta0 = sorted(d for orbit in orbits[:take] for d in orbit)
        result = X.split(delta0)
        if not (
            result.theta_bijective
            and result.chi_injective
            and result.equivariant
            and all(result.component_preserved.values())
        ):
            ok = False
        # the brute-force oracle over all of X x Pi reaches the same verdicts
        if not split_oracle_agrees(X, result):
            ok = False
        checked += 1
    _report(
        f"7 splitting along invariant coordinate sets ({checked} instances,"
        " confirmed by the brute-force oracle)",
        ok,
    )


def test_criterion_8_code_canonicalization_end_to_end():
    ok = True
    s = p(1, 0)
    id2 = Permutation.identity(2)
    id3 = Permutation.identity(3)

    # (i) repetition code with its full automorphism group
    ctx = WreathContext(2, 3)
    rep_code = Code(ctx, [(0, 0, 0), (1, 1, 1)])
    rep_group = WreathSubgroup(
        ctx,
        (
            WreathElement((s, s, s), id3),
            WreathElement((id2, id2, id2), p(1, 2, 0)),
            WreathElement((id2, id2, id2), p(1, 0, 2)),
        ),
    )
    result = canonicalize(rep_code, rep_group, 0, 1)
    ok = ok and result.pinned_constant == (0, 0, 0)
    ok = ok and result.pinned_mixed == (1, 1, 1)
    ok = ok and rep_code.min_distance() == 3

    # (ii) even-weight code of length 3
    even_code = Code(ctx, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    even_group = WreathSubgroup(
        ctx,
        (
            WreathElement((id2, s, s), id3),
            WreathElement((s, id2, s), id3),
            WreathElement((id2, id2, id2), p(1, 2, 0)),
            WreathElement((id2, id2, id2), p(1, 0, 2)),
        ),
    )
    result = canonicalize(even_code, even_group, 0, 1)
    ok = ok and result.pinned_constant == (0, 0, 0)
    ok = ok and result.pinned_mixed == (1, 1, 0)
    ok = ok and even_code.min_distance() == 2
    ok = ok and (0, 0, 0) in result.code and (1, 1, 0) in result.code

    # (iii) binary Hamming [7,4,3] code
    code, X = hamming_code_with_automorphisms()
    coordinate_perms = [g.top for g in X.generators if not g.top.is_identity()]
    ok = ok and len(perm_closure(coordinate_perms)) == 168
    result = canonicalize(code, X, 0, 1)
    # independent re-checks: transform the original words directly and
    # recount size, containment and pairwise distance
    transformed = {result.x.apply(w) for w in code.words}
    ok = ok and transformed == result.code.words
    ok = ok and len(transformed) == 16
    ok = ok and (0,) * 7 in transformed
    ok = ok and (1, 1, 1, 0, 0, 0, 0) in transformed
    recounted = min(
        sum(1 for x, y in zip(a, b) if x != y)
        for a, b in itertools.combinations(sorted(transformed), 2)
    )
    ok = ok and recounted == 3
    ok = ok and result.certificate.passed
    _report("8 code canonicalization pins both words on all three codes", ok)


GOLDEN_COMMANDS = {
    "components.txt": ["components", "diag_swap_q2m2.group"],
    "normalize.txt": ["normalize", "two_orbit_q3m3.group"],
    "normalize_fix.txt": ["normalize", "scattered_q4m2.group", "--fix", "0,0"],
    "embed.txt": ["embed", "diag_swap_q2m2.group"],
    # G = Sym(12) with --fix: the corrections make base entries of the
    # conjugate that are neither the identity nor a generator of G
    "embed_fix.txt": ["embed", "repetition_q12_m4_aut.group", "--fix", "3,7,1,10"],
    "split.txt": ["split", "two_orbit_q2m3.group", "--delta0", "0,1"],
    "code_canon.txt": [
        "code-canon", "even_weight.code", "even_weight_aut.group",
        "--gamma", "0", "--nu", "1",
    ],
    # q = 3: the stage-1 witnesses in Sym(3) are not unique, so this pins
    # the choice that conjugates witnesses from the component at 0
    "code_canon_z3.txt": [
        "code-canon", "parity_z3_m4.code", "parity_z3_m4_aut.group",
        "--gamma", "0", "--nu", "1",
    ],
    # q = 10: the largest q whose transformed words are written by sorting
    # their lines as strings; the code file's lines are not in order
    "code_canon_q10.txt": [
        "code-canon", "repetition_q10_m4.code", "repetition_q10_m4_aut.group",
        "--gamma", "9", "--nu", "3",
    ],
    # q = 12: two-digit entries, so numeric and string order of the
    # transformed words differ
    "code_canon_q12.txt": [
        "code-canon", "repetition_q12_m4.code", "repetition_q12_m4_aut.group",
        "--gamma", "10", "--nu", "3",
    ],
    "verify.txt": ["verify", "--q", "3", "--m", "2", "--pairs", "60", "--samples", "120"],
    "verify_q3m4.txt": ["verify", "--q", "3", "--m", "4", "--pairs", "0", "--samples", "50"],
}


def _data_argv(argv: list[str]) -> list[str]:
    return [os.path.join(DATA, arg) if arg.endswith((".group", ".code")) else arg for arg in argv]


def _run_cli(argv: list[str], hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "wreathact", *_data_argv(argv)],
        capture_output=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_criterion_9_cli_reports_are_byte_stable():
    ok = True
    for name, argv in GOLDEN_COMMANDS.items():
        runs = [_run_cli(argv, hash_seed) for hash_seed in ("0", "1", "2")]
        if not (runs[0] == runs[1] == runs[2]):
            ok = False
        with open(os.path.join(GOLDEN, name), "rb") as handle:
            if runs[0] != handle.read():
                ok = False
    _report("9 CLI reports byte-stable across 3 runs and match golden files", ok)


def test_no_subcommand_enumerates_a_group(monkeypatch):
    """Every golden report comes out unchanged, in process, with both
    brute-force ``enumerate_elements`` oracles patched to raise: no
    subcommand lists the elements of a group."""

    def refuse(self, cap=None):
        raise AssertionError(f"enumerate_elements called on {self!r}")

    monkeypatch.setattr(GenGroup, "enumerate_elements", refuse)
    monkeypatch.setattr(WreathSubgroup, "enumerate_elements", refuse)
    for name, argv in GOLDEN_COMMANDS.items():
        out = io.StringIO()
        assert main(_data_argv(argv), out=out) == 0, out.getvalue()
        with open(os.path.join(GOLDEN, name), "rb") as handle:
            assert out.getvalue().encode() == handle.read(), name
