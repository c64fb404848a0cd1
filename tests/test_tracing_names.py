"""The benchmark's tracer patches library methods and functions by name.

``Tracer.patch_method`` raises ``KeyError`` on a missing method, but
``Tracer.patch_function`` wraps ``None`` when no module holds the name and
installs that wrapper silently, so a renamed function would read 0 in its
per-layer metric instead of failing. This checks every name the tracer
patches against the package.
"""

import importlib
import sys
from pathlib import Path

import pytest

import wreathact

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def patched_names(monkeypatch):
    """Every (class, method) and (modules, function) the tracer installs."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    for name in ("tracing", "algebra", "calibration"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracing = importlib.import_module("tracing")
    methods, functions = [], []

    class Recorder(tracing.Tracer):
        def patch_method(self, cls, attr, make):
            methods.append((cls, attr))

        def patch_function(self, modules, name, make):
            functions.append((modules, name))

    Recorder().install(wreathact)
    return methods, functions


def test_every_patched_method_exists(patched_names):
    methods, _ = patched_names
    assert methods
    missing = [f"{cls.__name__}.{attr}" for cls, attr in methods if attr not in cls.__dict__]
    assert missing == []


def test_every_patched_function_exists(patched_names):
    _, functions = patched_names
    assert functions
    missing = [
        name for modules, name in functions
        if not any(callable(getattr(module, name, None)) for module in modules)
    ]
    assert missing == []


def test_the_normal_form_layers_are_patched(patched_names):
    methods, functions = patched_names
    names = {f"{cls.__name__}.{attr}" for cls, attr in methods} | {name for _, name in functions}
    assert {
        "conjugate_subgroup", "sift_embedding", "normalizing_element",
        "build_transversal", "adjust_transversal",
        "GenGroup.contains", "StabilizerChain.__init__",
    } <= names
