"""Benchmark of wreathact, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds the workload's fixed instance list from the seed, writes its input
files under ``bench/work/``, then runs whole rounds of the list (every
instance once per round, each operation timed alone) until ``--seconds``
of wall time have passed. Outputs are checked after the timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The traced run
also writes its spans to ``bench/results/``. ``--smoke`` runs one round
of a tiny instance list. Exits 2 without a result when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "large_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# fresh interpreters timed for setup_s, after one that fills the bytecode
# cache; -I keeps the caller's PYTHON* variables (PYTHONDONTWRITEBYTECODE
# among them) from changing what is measured
SETUP_RUNS = 21
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibration import reference_seconds, scaled\n"
    "reference_seconds()\n"
    "before = reference_seconds()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import wreathact, wreathact.cli\n"
    "seconds = time.perf_counter() - start\n"
    "print(scaled(seconds, (before + reference_seconds()) / 2))\n"
    "print(wreathact.__file__)\n"
)


class MissingProgram(Exception):
    pass


def import_program():
    """The package from this checkout's ``src``, and nothing else."""
    if not (SRC / "wreathact" / "__init__.py").is_file():
        raise MissingProgram(f"no wreathact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wreathact
    import wreathact.cli

    if Path(wreathact.__file__).resolve().parent != SRC / "wreathact":
        raise MissingProgram(f"imported wreathact from {wreathact.__file__}, not {SRC}")
    return types.SimpleNamespace(
        package=wreathact,
        cli=wreathact.cli,
        GenGroup=wreathact.GenGroup,
        Permutation=wreathact.Permutation,
        WreathElement=wreathact.WreathElement,
    )


def import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    seconds, where = done.stdout.split("\n")[:2]
    if Path(where).resolve().parent != SRC / "wreathact":
        raise MissingProgram(f"probe imported wreathact from {where}")
    return float(seconds)


def measure_setup() -> float:
    """Median time to import ``wreathact`` and ``wreathact.cli`` in a fresh
    interpreter, scaled by the calibration loop timed in that interpreter."""
    import_seconds()
    return statistics.median(import_seconds() for _ in range(SETUP_RUNS))


def run_rounds(instances, api, seconds: float, tracer=None):
    """Whole rounds of the instance list until ``seconds`` have passed
    (at least one round). Returns per-operation (class, seconds),
    the seconds scaled by the calibration loop timed before and after the
    operation; the distinct outputs of each instance with their counts; and
    the exceptions raised."""
    timings: list[tuple[str, float]] = []
    outputs: list[Counter] = [Counter() for _ in instances]
    raised: list[str] = []
    gc.collect()
    gc.freeze()
    clock = time.perf_counter
    start = clock()
    while True:
        for i, inst in enumerate(instances):
            gc.collect()
            if tracer is not None:
                tracer.op = len(timings)
            before = calibration.reference_seconds()
            t0 = clock()
            try:
                output = inst.run(api)
            except Exception as exc:  # a failed operation, reported below
                t1 = clock()
                raised.append(f"{inst.cls}: {type(exc).__name__}: {exc}")
            else:
                t1 = clock()
                outputs[i][output] += 1
            reference = (before + calibration.reference_seconds()) / 2
            timings.append((inst.cls, calibration.scaled(t1 - t0, reference)))
            if tracer is not None:
                tracer.scales.append(calibration.scaled(1.0, reference))
        if clock() - start >= seconds:
            break
    gc.unfreeze()
    return timings, outputs, raised


def check_outputs(instances, outputs) -> tuple[int, bool, list[str]]:
    """Failed operations, whether every completed one was right, and problems.

    An operation that exits nonzero is failed but not wrong; one that
    completes with an output failing a check is both."""
    failed, correct, problems = 0, True, []
    for inst, seen in zip(instances, outputs):
        for output, count in seen.items():
            found = inst.check(output)
            if found:
                failed += count
                if any(not p.startswith("exit:") for p in found):
                    correct = False
                problems.extend(f"{inst.cls}: {p}" for p in found)
    return failed, correct, problems


def by_class(timings) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for cls, seconds in timings:
        out.setdefault(cls, []).append(seconds)
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of a tiny instance list")
    args = parser.parse_args(argv)

    try:
        api = import_program()
        setup_s = None if args.trace else measure_setup()
    except (MissingProgram, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        instances = workloads.build(args.workload, args.seed, str(workdir), smoke=args.smoke)
        for inst in instances:
            for path, text in inst.files.items():
                Path(path).write_text(text, encoding="ascii")
        tracer = None
        micro = {}
        if args.trace:
            micro = tracing.micro(api, args.seed)
            tracer = tracing.Tracer()
            tracer.install(api.package)
        try:
            timings, outputs, raised = run_rounds(instances, api, 0 if args.smoke else args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, correct, problems = check_outputs(instances, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(timings)
    failed += len(raised)
    classes = by_class(timings)
    # operations over their time at each class's median latency: a
    # throughput that a few mis-scaled operations cannot move
    round_seconds = sum(len(v) * statistics.median(v) for v in classes.values())
    ops_per_s = attempted / round_seconds
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops in "
          f"{attempted // len(instances)} rounds, {ops_per_s:.3f} ops/s", file=sys.stderr)
    for cls, v in classes.items():
        print(f"  {cls}: n={len(v)} p50={statistics.median(v) * 1000:.2f} ms", file=sys.stderr)
    for line in (raised + problems)[:20]:
        print(f"  FAILED {line}", file=sys.stderr)

    if args.trace:
        values = tracer.per_layer(attempted)
        values.update(micro)
        metrics = {name: metric(values[name], tracing.unit(name)) for name in (*tracing.PER_LAYER, *tracing.MICRO)}
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        tracer.dump(str(results / f"trace-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed, "ops": attempted,
                     "op_classes": [cls for cls, _ in timings], "ops_per_s": ops_per_s,
                     "per_layer": values})
    else:
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(s for _, s in timings) * 1000,
            # the list ends with the workload's largest class
            "large_p50_ms": statistics.median(classes[instances[-1].cls]) * 1000,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
