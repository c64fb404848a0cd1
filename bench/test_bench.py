"""Tests of the benchmark itself: smoke runs, the result contract, and that
every output check fails on a report corrupted where that check looks.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import algebra as A  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import wreathact  # noqa: E402
import wreathact.cli  # noqa: E402

API = types.SimpleNamespace(
    cli=wreathact.cli, GenGroup=wreathact.GenGroup, Permutation=wreathact.Permutation
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ----- contract -----


def test_benchmark_json_names_the_metrics_the_runner_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"] <= 0.25
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert per_layer == [*tracing.PER_LAYER, *tracing.MICRO]
    assert all(m["unit"] == tracing.unit(m["name"]) for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    done = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2, done.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    done = run_bench("--workload", "code-canon", "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    metrics = last_json(done.stdout)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in ("codes.distance_calls", "codes.min_distance_s", "cli.parse_s", "wreath.parse_s",
                 "components.builds", "normalize.certificate_s", "perm.closure_elements"):
        assert metrics[name]["value"] > 0, name
    assert metrics["components.split_s"]["value"] == 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    done = run_bench("--workload", "normal-form", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_same_seed_gives_the_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 3, str(tmp_path))
        second = workloads.build(workload, 3, str(tmp_path))
        assert [i.files for i in first] == [i.files for i in second]
        assert [i.cls for i in first] == [i.cls for i in second]


# ----- the instances are what their formulas say -----


def test_block_groups_have_their_formula_orders():
    for spec, q, k in ((("full",), 2, 2), (("full",), 3, 1), (("diag", "cyclic"), 3, 2), (("diag", "sym"), 2, 3)):
        gens, order = workloads.block_group(q, k, spec)
        assert len(wreathact.WreathSubgroup(
            wreathact.WreathContext(q, k),
            [wreathact.WreathElement([wreathact.Permutation(p) for p in g[0]], wreathact.Permutation(g[1]))
             for g in gens],
        ).enumerate_elements()) == order


def test_code_families_are_invariant_with_their_distance():
    for build in (workloads.hamming_code, lambda: workloads.parity_code(3, 4),
                  lambda: workloads.repetition_code(4, 3)):
        q, m, words, gens, distance = build()
        words = set(words)
        assert all({A.wapply(g, w) for w in words} == words for g in gens)
        assert min(sum(a != b for a, b in zip(u, v)) for u in words for v in words if u != v) == distance
    q, m, words, gens, _ = workloads.hamming_code()
    assert len(words) == 16
    assert len(A.closure([g[1] for g in gens if g[1] != A.identity(7)], 7)) == 168


def test_gamma_families_have_their_orders():
    for family, (gens, order) in A.GAMMA_FAMILIES.items():
        for n in (5, 7):
            assert len(A.closure(gens(n), n)) == order(n), (family, n)


# ----- every check fails on a report corrupted where it looks -----


def genuine(workload: str, cls: str, tmp_path):
    inst = next(i for i in workloads.build(workload, 7, str(tmp_path)) if i.cls == cls)
    for path, text in inst.files.items():
        Path(path).write_text(text)
    output = inst.run(API)
    assert inst.check(output) == []
    return inst, output


def tags(inst, code: int, text: str) -> set[str]:
    return {problem.split(":")[0] for problem in inst.check((code, text))}


def edit(text: str, key: str, change) -> str:
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith(key + ": "))
    lines[i] = f"{key}: {change(lines[i][len(key) + 2:])}"
    return "\n".join(lines) + "\n"


def swapped(p: A.Perm) -> A.Perm:
    return (p[1], p[0], *p[2:])


def alter_entry(value: str, d: int = 0) -> str:
    """A wreath element's text with the first two images of base entry d swapped."""
    base, top = A.parse_elem(value)
    return A.fmt_elem((tuple(swapped(p) if i == d else p for i, p in enumerate(base)), top))


def with_x(inst, text: str, x: A.Elem) -> str:
    """The report with x replaced and its conjugated generators made consistent."""
    text = edit(text, "x", lambda _: A.fmt_elem(x))
    for k, g in enumerate(inst.facts.gens):
        text = edit(text, f"conjugated-generator {k}", lambda _, g=g: A.fmt_elem(A.wconj(g, x)))
    return text


def test_normal_form_embed_checks(tmp_path):
    inst, (code, text) = genuine("normal-form", "cyclic7-m4-embed", tmp_path)
    x = A.parse_elem(A.parse_report(text)["x"])
    m = len(x[0])
    assert "conjugated" in tags(inst, code, edit(text, "x", lambda v: alter_entry(v, 1)))
    # x altered at one coordinate with consistent conjugates: components no longer agree
    moved = (x[0][0], swapped(x[0][1]), *x[0][2:])
    found = tags(inst, code, with_x(inst, text, (moved, x[1])))
    assert {"theorem", "embed-base"} <= found and "conjugated" not in found
    # x with a top outside the cyclic top group
    found = tags(inst, code, with_x(inst, text, (x[0], (1, 0, *range(2, m)))))
    assert {"x-top", "embed-top"} <= found
    assert "conjugated" in tags(inst, code, edit(text, "conjugated-generator 0", alter_entry))
    assert "fix" in tags(inst, code, edit(text, "fixed-point-preserved", lambda v: "no"))
    assert "embed-G" in tags(inst, code, edit(text, "G-generators", lambda v: "[[1,0,2,3,4,5,6]]"))
    assert "embed-H" in tags(inst, code, edit(text, "H-generators", lambda v: "[[0,1,2,3]]"))
    assert "verdict" in tags(inst, code, edit(text, "certificate", lambda v: "FAIL"))
    assert tags(inst, 2, "error: something\n") == {"exit"}


def test_normal_form_normalize_checks(tmp_path):
    inst, (code, text) = genuine("normal-form", "dihedral5-m4-normalize", tmp_path)
    report = A.parse_report(text)
    key = next(k for k in report if k.startswith("common-component"))
    one = lambda v: "generators=[" + A.fmt_perm(A.parse_perm_list(v.removeprefix("generators="))[0]) + "]"
    assert "common-component" in tags(inst, code, edit(text, key, one))
    assert "orbits" in tags(inst, code, edit(text, "delta-orbit 0", lambda v: v.replace("points=0,1", "points=0,1,2")))
    assert "verdict" in tags(inst, code, edit(text, "components-constant", lambda v: "no"))


def test_split_checks(tmp_path):
    inst, (code, text) = genuine("split-oracle", "q2-m4-full2xfull2", tmp_path)
    assert "delta" in tags(inst, code, edit(text, "delta0", lambda v: "0,1" if v != "0,1" else "2,3"))
    assert "parts" in tags(inst, code, edit(text, "part1-context", lambda v: "q=2 m=3"))
    altered = edit(text, "part0-generator 0", alter_entry)
    assert {"parts", "equivariance"} <= tags(inst, code, altered)
    assert "verdict" in tags(inst, code, edit(text, "check-equivariant", lambda v: "no"))
    assert "verdict" in tags(inst, code, edit(text, "result", lambda v: "FAIL"))


def drop_word(text: str, word: str) -> str:
    """Remove one transformed word and renumber the rest."""
    kept, k = [], 0
    for line in text.splitlines():
        if line.startswith("transformed-word "):
            if line.endswith(": " + word):
                continue
            line = f"transformed-word {k}: {line.split(': ', 1)[1]}"
            k += 1
        kept.append(line)
    return "\n".join(kept) + "\n"


def test_code_canon_checks(tmp_path):
    inst, (code, text) = genuine("code-canon", "parity-z3-m5", tmp_path)
    report = A.parse_report(text)
    assert {"transformed", "pinned"} <= tags(inst, code, drop_word(text, report["pinned-constant"]))
    other = next(v for k, v in report.items() if k.startswith("transformed-word ")
                 and v not in (report["pinned-constant"], report["pinned-mixed"]))
    assert {"transformed", "automorphism"} <= tags(inst, code, drop_word(text, other))
    assert "factors" in tags(inst, code, edit(text, "x1", alter_entry))
    assert "distance" in tags(inst, code, edit(text, "min-distance", lambda v: "3"))
    assert "pinned" in tags(inst, code, edit(text, "pinned-mixed", lambda v: "1,0,0,0,0"))
    assert "size" in tags(inst, code, edit(text, "code-size", lambda v: str(int(v) + 1)))
    assert "verdict" in tags(inst, code, edit(text, "certificate", lambda v: "FAIL"))


def test_chain_checks(tmp_path):
    inst, (order, answers) = genuine("chain-order", "random-in-sym3-wr-sym5", tmp_path)
    problems = lambda output: {p.split(":")[0] for p in inst.check(output)}
    assert problems((order + 1, answers)) == {"order"}
    flipped = list(answers)
    flipped[0] = False
    assert problems((order, tuple(flipped))) == {"members"}
    flipped = list(answers)
    flipped[-1] = True
    assert problems((order, tuple(flipped))) == {"non-members"}
