"""Each demo's stdout, byte for byte, against its golden under
``tests/data/golden/demos/``. The demos print closures, orbits and
certificates, so any change in what the library computes shows here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "data" / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert DEMOS
    assert sorted(path.stem for path in DEMOS) == sorted(path.stem for path in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_matches_its_golden(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=60
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
