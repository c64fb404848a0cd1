"""Per-layer tracing, installed from the benchmark's files around the program's
public functions, for the separate traced run.

Hot element operations get counters; every other traced function records
a span ``[name, start, end, parent, op]`` in memory. A span's self time is
its duration minus the time its direct child spans cover. Functions that
other modules import by name are replaced in every module namespace that
holds them, so the wrapper is what each call site looks up.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import Counter

import algebra as A
import calibration

# metric -> (kind, source): "count" sums a counter, "spans" counts spans,
# "self" sums span self times; all are divided by the operation count.
PER_LAYER = {
    "perm.new_calls": ("count", "perm.new"),
    "perm.mul_calls": ("count", "perm.mul"),
    "perm.inverse_calls": ("count", "perm.inverse"),
    "perm.closure_s": ("self", "perm.closure"),
    "perm.closure_elements": ("count", "perm.closure_elements"),
    "perm.chain_s": ("self", "perm.chain"),
    "perm.sift_calls": ("spans", "perm.sift"),
    "perm.sift_s": ("self", "perm.sift"),
    "wreath.mul_calls": ("count", "wreath.mul"),
    "wreath.apply_calls": ("count", "wreath.apply"),
    "wreath.parse_s": ("self", "wreath.parse"),
    "components.builds": ("spans", "components.build"),
    "components.build_s": ("self", "components.build"),
    "components.stab_gens": ("count", "components.stab_gens"),
    "components.enumerate_s": ("self", "components.enumerate"),
    "components.enumerate_elements": ("count", "components.enumerate_elements"),
    "components.split_s": ("self", "components.split"),
    "normalize.transversal_s": ("self", "normalize.transversal"),
    "normalize.conjugate_s": ("self", "normalize.conjugate"),
    "normalize.certificate_s": ("self", "normalize.certificate"),
    "normalize.sift_embedding_s": ("self", "normalize.sift_embedding"),
    "codes.min_distance_s": ("self", "codes.min_distance"),
    "codes.distance_calls": ("count", "codes.distance"),
    "codes.automorphism_s": ("self", "codes.automorphism"),
    "codes.transform_s": ("self", "codes.transform"),
    "codes.canonicalize_s": ("self", "codes.canonicalize"),
    "cli.parse_s": ("self", "cli.parse"),
    "cli.report_s": ("self", "cli.report"),
}

# tight loops, measured before the wrappers go in
MICRO = ("perm.mul_us", "wreath.mul_us", "wreath.apply_us")

UNITS = {"count": "count", "spans": "count", "self": "s"}


def unit(metric: str) -> str:
    return "us" if metric in MICRO else UNITS[PER_LAYER[metric][0]]


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.op = -1
        self.scales: list[float] = []  # per operation, from the calibration loop
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ----- wrappers -----

    def counter(self, name: str, fn, size: bool = False):
        """Count calls, or with ``size`` the lengths of the results."""
        counts = self.counts
        if size:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def span(self, name: str, fn, size_key: str | None = None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size_key is not None:
                counts[size_key] += len(result)
            return result

        return wrapper

    # ----- installation -----

    def patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def patch_function(self, modules, name: str, make) -> None:
        """Replace a module-level function in every module that holds it."""
        original = None
        for module in modules:
            if hasattr(module, name):
                original = getattr(module, name)
                break
        wrapper = make(original)
        for module in modules:
            if getattr(module, name, None) is original:
                self._undo.append((module, name, original))
                setattr(module, name, wrapper)

    def install(self, wa) -> None:
        """Wrap the layers of the imported package ``wa``."""
        from wreathact import cli, codes, components, normalize, perm, wreath

        modules = (wa, perm, wreath, components, normalize, codes, cli)
        c, s = self.counter, self.span
        P, G = perm.Permutation, perm.GenGroup
        self.patch_method(P, "__init__", lambda f: c("perm.new", f))
        self.patch_method(P, "__mul__", lambda f: c("perm.mul", f))
        self.patch_method(P, "inverse", lambda f: c("perm.inverse", f))
        self.patch_method(G, "enumerate_elements", lambda f: s("perm.closure", f, "perm.closure_elements"))
        self.patch_method(G, "contains", lambda f: s("perm.sift", f))
        self.patch_method(perm.StabilizerChain, "__init__", lambda f: s("perm.chain", f))
        W = wreath.WreathElement
        self.patch_method(W, "__mul__", lambda f: c("wreath.mul", f))
        self.patch_method(W, "apply", lambda f: c("wreath.apply", f))
        self.patch_method(W, "parse", lambda f: s("wreath.parse", f))
        X = components.WreathSubgroup
        self.patch_method(X, "__init__", lambda f: s("components.build", f))
        self.patch_method(X, "partition_stabilizer_gens", lambda f: c("components.stab_gens", f, size=True))
        self.patch_method(X, "enumerate_elements",
                          lambda f: s("components.enumerate", f, "components.enumerate_elements"))
        self.patch_method(X, "split", lambda f: s("components.split", f))
        for name in ("build_transversal", "adjust_transversal"):
            self.patch_function(modules, name, lambda f: s("normalize.transversal", f))
        self.patch_function(modules, "conjugate_subgroup", lambda f: s("normalize.conjugate", f))
        self.patch_function(modules, "normalizing_element", lambda f: s("normalize.certificate", f))
        self.patch_function(modules, "sift_embedding", lambda f: s("normalize.sift_embedding", f))
        # not reported; keeps embed_in_wreath's own time out of cli.report
        self.patch_function(modules, "embed_in_wreath", lambda f: s("normalize.embed", f))
        self.patch_method(codes.Code, "min_distance", lambda f: s("codes.min_distance", f))
        self.patch_method(codes.Code, "transform", lambda f: s("codes.transform", f))
        self.patch_function(modules, "hamming_distance", lambda f: c("codes.distance", f))
        self.patch_function(modules, "is_automorphism", lambda f: s("codes.automorphism", f))
        self.patch_function(modules, "canonicalize", lambda f: s("codes.canonicalize", f))
        for name in ("parse_group_text", "parse_code"):
            self.patch_function(modules, name, lambda f: s("cli.parse", f))
        for name in ("cmd_components", "cmd_normalize", "cmd_embed", "cmd_split",
                     "cmd_code_canon", "cmd_verify"):
            self.patch_function(modules, name, lambda f: s("cli.report", f))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----- results -----

    def self_times(self) -> Counter:
        """Self time per span name, summed over all spans and scaled like
        the operation the span belongs to."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * self.scales[op]
        return out

    def per_layer(self, ops: int) -> dict[str, float]:
        self_time = self.self_times()
        span_count = Counter(span[0] for span in self.spans)
        values = {}
        for metric, (kind, source) in PER_LAYER.items():
            table = {"count": self.counts, "spans": span_count, "self": self_time}[kind]
            values[metric] = table[source] / ops
        return values

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump({**extra, "counts": dict(self.counts),
                       "spans_fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


def micro(wa, seed: int) -> dict[str, float]:
    """Tight-loop costs in microseconds, scaled by the calibration loop
    around each of five repeats; the median."""
    rng = random.Random(f"micro/{seed}")
    P, W = wa.Permutation, wa.WreathElement
    a, b = P(A.random_perm(rng, 50)), P(A.random_perm(rng, 50))

    def wreath_element():
        base, top = A.wrandom(rng, 4, 6)
        return W(tuple(P(p) for p in base), P(top))

    x, y = wreath_element(), wreath_element()
    point = tuple(rng.randrange(4) for _ in range(6))
    loops = {
        "perm.mul_us": (lambda: a * b, 20000),
        "wreath.mul_us": (lambda: x * y, 4000),
        "wreath.apply_us": (lambda: x.apply(point), 20000),
    }
    out = {}
    for metric, (fn, n) in loops.items():
        runs = []
        for _ in range(5):
            before = calibration.reference_seconds()
            start = time.perf_counter()
            for _ in range(n):
                fn()
            seconds = time.perf_counter() - start
            reference = (before + calibration.reference_seconds()) / 2
            runs.append(calibration.scaled(seconds, reference) / n * 1e6)
        out[metric] = statistics.median(runs)
    return out
