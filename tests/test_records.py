"""The result records are immutable named tuples built on
``collections.namedtuple``, and importing the package loads neither
``dataclasses`` nor its import chain and creates no ``typing.ForwardRef``.

Each record is built through the public path, then checked for the
contract callers rely on: equality with a copy built from the same fields
(the ``certificate == chain_sift_embedding(...)`` tests compare records),
no assignment to a field, ``_replace`` returning a changed copy, and what
``typing.NamedTuple`` used to give them: ``__match_args__``, no instance
``__dict__`` and a pickle round trip.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from wreathact import (
    CanonicalizationResult,
    EmbedCertificate,
    EmbedResult,
    NormalizationResult,
    SplitResult,
    TransitivityReport,
    Transversal,
    build_transversal,
    canonicalize,
    embed_in_wreath,
    normalizing_element,
    parse_code,
)
from wreathact.cli import load_group

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def group(name: str):
    return load_group(str(DATA / name))


def build_records() -> dict[type, object]:
    scattered = group("scattered_q4m2.group")
    embedded = embed_in_wreath(scattered, phi=(0, 0))
    with open(DATA / "even_weight.code", encoding="ascii") as handle:
        code = parse_code(handle.read())
    records = [
        build_transversal(scattered),
        normalizing_element(scattered, (0, 0)),
        embedded.certificate,
        embedded,
        scattered.transitivity_report(),
        group("two_orbit_q2m3.group").split([0, 1]),
        canonicalize(code, group("even_weight_aut.group"), 0, 1),
    ]
    return {type(record): record for record in records}


RECORDS = build_records()

FIELDS = {
    Transversal: ("orbits", "reps", "entries", "rep_of"),
    NormalizationResult: (
        "x", "conjugated", "transversal", "component_flags", "common_components",
        "fixes_point",
    ),
    EmbedCertificate: ("passed", "failures"),
    EmbedResult: (
        "G", "H", "x", "conjugated", "delta1", "normalization", "certificate",
    ),
    TransitivityReport: (
        "transitive_on_points", "component_transitive", "delta_transitive",
        "base_component_transitive", "violation",
    ),
    SplitResult: (
        "delta0", "delta1", "first", "second", "position0", "position1",
        "theta_bijective", "chi_injective", "equivariant", "component_preserved",
    ),
    CanonicalizationResult: (
        "x1", "x2", "x3", "x4", "x", "code", "conjugated", "component_group",
        "induced_group", "pinned_constant", "pinned_mixed", "certificate",
    ),
}


def test_every_record_is_built():
    assert set(RECORDS) == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_keep_their_names_and_order(self, cls):
        assert cls._fields == FIELDS[cls]

    def test_equals_a_copy_built_from_its_fields(self, cls):
        record = RECORDS[cls]
        copy = cls(**{name: getattr(record, name) for name in FIELDS[cls]})
        assert copy == record
        assert copy is not record

    def test_fields_cannot_be_assigned(self, cls):
        record = RECORDS[cls]
        name = FIELDS[cls][0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)

    def test_replace_returns_a_changed_copy(self, cls):
        record = RECORDS[cls]
        name = FIELDS[cls][-1]
        before = getattr(record, name)
        changed = record._replace(**{name: "changed"})
        assert getattr(changed, name) == "changed"
        assert getattr(record, name) is before
        assert changed != record

    def test_match_args_are_the_fields(self, cls):
        assert cls.__match_args__ == cls._fields

    def test_instances_have_no_dict(self, cls):
        assert not hasattr(RECORDS[cls], "__dict__")


# SplitResult is left out: its halves are WreathSubgroups, which compare by
# identity, so a round trip never equals the original.
@pytest.mark.parametrize(
    "cls", [Transversal, EmbedCertificate, TransitivityReport], ids=lambda cls: cls.__name__
)
def test_pickle_round_trip_compares_equal(cls):
    record = RECORDS[cls]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert copy == record


def test_records_keep_their_properties():
    assert RECORDS[NormalizationResult].ok
    assert RECORDS[EmbedResult].ok
    assert RECORDS[SplitResult].ok
    assert RECORDS[SplitResult].report_lines()[0] == "delta0: 0,1"
    normalization = RECORDS[NormalizationResult]
    assert normalization.transversal.x == normalization.x


def fresh_output(statements: str) -> str:
    """What a fresh isolated interpreter prints running ``statements``.

    pytest itself imports ``inspect``, and this process has imported the
    package already, so only a new process shows what the import pulls in
    and builds.
    """
    probe = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {statements}"
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def loaded_after(statement: str) -> set[str]:
    """The modules a fresh isolated interpreter holds after ``statement``."""
    return set(fresh_output(f"{statement}; print('\\n'.join(sys.modules))").split())


def test_importing_the_package_and_cli_loads_no_dataclasses_chain():
    loaded = loaded_after("import wreathact, wreathact.cli")
    assert "wreathact.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_importing_the_package_alone_loads_no_argparse():
    for statement in ("import wreathact", "import wreathact.cli"):
        loaded = loaded_after(statement)
        assert "wreathact" in loaded
        assert loaded & {"argparse", "gettext"} == set(), statement


# records every typing.ForwardRef built after it runs, by its string
COUNT_FORWARD_REFS = (
    "import typing; made = []; init = typing.ForwardRef.__init__; "
    "typing.ForwardRef.__init__ = lambda self, arg, *rest, **kwargs: "
    "made.append(arg) or init(self, arg, *rest, **kwargs)"
)


def test_importing_the_package_and_cli_creates_no_forward_refs():
    """``typing.NamedTuple`` under ``from __future__ import annotations``
    compiles a ``ForwardRef`` for every field annotation, about 1 ms of a
    cold start for the 46 fields of the seven records."""
    made = fresh_output(f"{COUNT_FORWARD_REFS}; import wreathact, wreathact.cli; print(made)")
    assert made.strip() == "[]"
