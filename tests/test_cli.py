import io
import os
import random
import subprocess
import sys
import time

import pytest

import wreathact
from wreathact import ParseError, WreathContext, WreathElement, parse_code, parse_point
from wreathact import cli
from wreathact.cli import main, parse_group_text
from test_acceptance import GOLDEN, GOLDEN_COMMANDS

DATA = os.path.join(os.path.dirname(__file__), "data")


def fixture(name: str) -> str:
    return os.path.join(DATA, name)


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestComponentsCommand:
    def test_diagonal_plus_swap(self):
        status, text = run("components", fixture("diag_swap_q2m2.group"))
        assert status == 0
        assert "context: q=2 m=2" in text
        assert "delta-orbit 0: 0,1" in text
        assert "component 0: generators=[[1,0]] transitivity=2-transitive-or-more" in text

    def test_two_orbit_group(self):
        status, text = run("components", fixture("two_orbit_q2m3.group"))
        assert status == 0
        assert "delta-orbit-count: 2" in text
        assert "delta-orbit 1: 2" in text


class TestNormalizeCommand:
    def test_scattered_components_get_normalized(self):
        status, text = run("normalize", fixture("scattered_q3m2.group"))
        assert status == 0
        assert "components-constant: yes" in text
        assert "certificate: PASS" in text

    def test_fix_requires_transitive_components(self):
        status, text = run(
            "normalize", fixture("swap_only_q2m2.group"), "--fix", "0,0"
        )
        assert status == 1
        assert "error:" in text
        assert "coordinate 0" in text

    def test_fix_point_reported(self):
        # at q = 4 the conjugated components are transitive yet differ
        status, text = run(
            "normalize", fixture("scattered_q4m2.group"), "--fix", "0,0"
        )
        assert status == 0
        assert "components-constant: yes" in text
        assert "fixed-point: 0,0" in text
        assert "fixed-point-preserved: yes" in text


class TestEmbedCommand:
    def test_diagonal_plus_swap_certificate(self):
        status, text = run("embed", fixture("diag_swap_q2m2.group"))
        assert status == 0
        assert "certificate: PASS" in text
        assert "G-generators: [[1,0]]" in text

    def test_intransitive_coordinates_exit_one(self):
        status, text = run("embed", fixture("two_orbit_q2m3.group"))
        assert status == 1
        assert "not transitive" in text


class TestSplitCommand:
    def test_two_orbit_split(self):
        status, text = run("split", fixture("two_orbit_q2m3.group"), "--delta0", "0,1")
        assert status == 0
        assert "check-point-map-bijective: yes" in text
        assert "check-components-preserved: yes" in text
        assert "result: PASS" in text

    def test_cut_orbit_is_an_input_error(self):
        status, text = run("split", fixture("two_orbit_q2m3.group"), "--delta0", "0")
        assert status == 2
        assert "not invariant" in text

    def test_cap_is_not_an_option(self, capsys):
        # split certifies from generator data, so it takes no cap
        with pytest.raises(SystemExit) as exit_info:
            run("split", fixture("two_orbit_q2m3.group"), "--delta0", "0,1", "--cap", "8")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cap 8" in capsys.readouterr().err


class TestCodeCanonCommand:
    def test_even_weight_code(self):
        status, text = run(
            "code-canon",
            fixture("even_weight.code"),
            fixture("even_weight_aut.group"),
            "--gamma", "0",
            "--nu", "1",
        )
        assert status == 0
        assert "pinned-constant: 0,0,0" in text
        assert "pinned-mixed: 1,1,0" in text
        assert "transformed-min-distance: 2" in text
        assert "certificate: PASS" in text

    def test_equal_letters_exit_one(self):
        status, text = run(
            "code-canon",
            fixture("even_weight.code"),
            fixture("even_weight_aut.group"),
            "--gamma", "0",
            "--nu", "0",
        )
        assert status == 1


class TestVerifyCommand:
    def test_reports_stabilizer_count(self):
        status, text = run(
            "verify", "--q", "3", "--m", "2", "--pairs", "10", "--samples", "20"
        )
        assert status == 0
        assert "stabilizer-count: 8" in text
        assert "stabilizer-expected: 8" in text
        assert "action-failures: 0" in text
        assert "scan-violations: 0" in text
        assert "result: PASS" in text

    def test_seeded_runs_are_identical(self):
        args = ("verify", "--q", "2", "--m", "2", "--pairs", "15", "--samples", "25")
        assert run(*args) == run(*args)

    def test_refuses_over_cap_before_any_work(self):
        # (6!)^7 * 7! is over the default cap: refused before listing the
        # 6^7 points or running the action pair
        start = time.perf_counter()
        status, text = run("verify", "--q", "6", "--m", "7", "--pairs", "1", "--samples", "0")
        elapsed = time.perf_counter() - start
        assert status == 2
        assert "verify: stabilizer count" in text
        assert "cap" in text
        assert elapsed < 1.0

    def test_cap_must_be_positive(self):
        for cap in ("0", "-3"):
            status, text = run("verify", "--q", "2", "--m", "2", "--cap", cap)
            assert status == 2
            assert text == f"error: --cap must be positive, got {cap}\n"

    def test_negative_counts_are_input_errors(self):
        cases = (
            (("--pairs", "-4", "--samples", "-1"), "--pairs must be non-negative, got -4"),
            (("--pairs", "1", "--samples", "-1"), "--samples must be non-negative, got -1"),
        )
        for flags, message in cases:
            status, text = run("verify", "--q", "2", "--m", "2", *flags)
            assert status == 2
            assert text == f"error: {message}\n"


class TestVerifyActionCount:
    def test_counts_points_whose_images_differ(self, monkeypatch):
        # with a product that is just its first factor, the action check
        # must count exactly the points where a and a*b disagree
        args = ("verify", "--q", "2", "--m", "3", "--pairs", "4", "--samples", "0", "--seed", "7")
        ctx = WreathContext(2, 3)
        rng = random.Random(7)
        expected = 0
        for _ in range(4):
            a, b = ctx.random_element(rng), ctx.random_element(rng)
            expected += sum(a.apply(phi) != b.apply(a.apply(phi)) for phi in ctx.all_points())
        assert expected > 0
        monkeypatch.setattr(WreathElement, "__mul__", lambda self, other: self)
        status, text = run(*args)
        assert status == 2
        assert f"action-failures: {expected}\n" in text


class TestCachedParser:
    def test_golden_commands_repeat_in_one_process(self):
        names = list(GOLDEN_COMMANDS)
        mixed = names[:]
        random.Random(3).shuffle(mixed)
        for name in names + names + mixed + names[::-1]:
            argv = [fixture(arg) if arg.endswith((".group", ".code")) else arg
                    for arg in GOLDEN_COMMANDS[name]]
            status, text = run(*argv)
            with open(os.path.join(GOLDEN, name), "rb") as handle:
                assert (status, text.encode("ascii")) == (0, handle.read()), name

    def test_cap_environment_read_on_every_call(self, monkeypatch):
        args = ("verify", "--q", "2", "--m", "2", "--pairs", "1", "--samples", "0")
        monkeypatch.delenv("WREATHACT_CAP", raising=False)
        assert run(*args)[0] == 0
        monkeypatch.setenv("WREATHACT_CAP", "3")
        status, text = run(*args)
        assert status == 2
        assert "cap is 3" in text
        monkeypatch.delenv("WREATHACT_CAP")
        assert run(*args)[0] == 0

    def test_handler_looked_up_at_call_time(self, monkeypatch):
        assert run("components", fixture("diag_swap_q2m2.group"))[0] == 0

        def stub(args, out):
            out.write(f"stub {os.path.basename(args.group)}\n")
            return 0

        monkeypatch.setattr(cli, "cmd_components", stub)
        assert run("components", fixture("diag_swap_q2m2.group")) == (0, "stub diag_swap_q2m2.group\n")

    def test_import_builds_no_parser_and_main_builds_one(self):
        script = (
            "import argparse, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import wreathact.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(2):\n"
            "    wreathact.cli.main(['verify', '--q', '2', '--m', '2', '--pairs', '1',"
            " '--samples', '0'], out=io.StringIO())\n"
            "    counts.append(len(built))\n"
            "print(*counts)\n"
        )
        src = os.path.dirname(os.path.dirname(wreathact.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        at_import, first, second = map(int, proc.stdout.split())
        assert at_import == 0
        assert first > 0
        assert second == first


class TestParsing:
    def test_malformed_file_reports_line(self):
        status, text = run("components", fixture("malformed.group"))
        assert status == 2
        assert "line 3" in text

    def test_missing_file(self):
        status, text = run("components", fixture("no_such_file.group"))
        assert status == 2

    def test_round_trip_of_serialized_generators(self):
        with open(fixture("scattered_q3m2.group"), encoding="ascii") as handle:
            X = parse_group_text(handle.read())
        for g in X.generators:
            assert WreathElement.parse(str(g)) == g

    def test_reported_elements_parse_back(self):
        status, text = run("normalize", fixture("scattered_q3m2.group"))
        assert status == 0
        for line in text.splitlines():
            key, _, value = line.partition(": ")
            if key == "x" or key.startswith("conjugated-generator"):
                assert WreathElement.parse(value) is not None
            if key == "fixed-point":
                assert parse_point(value) is not None

    def test_header_mismatch(self):
        bad = "2 2\nbase=[[1,0];[1,0];[1,0]] top=[1,2,0]\n"
        with pytest.raises(ValueError):
            parse_group_text(bad)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("WREATHACT_CAP", "3")
        status, text = run("verify", "--q", "2", "--m", "2", "--pairs", "1", "--samples", "1")
        assert status == 2
        assert "cap" in text

    def test_bad_cap_env(self, monkeypatch):
        monkeypatch.setenv("WREATHACT_CAP", "many")
        status, text = run("components", fixture("diag_swap_q2m2.group"))
        assert status == 2


# every malformed header, with the message both file parsers must give
HEADER_ERRORS = (
    ("", "missing header line 'q m'"),
    ("2\n", "line 1: expected header 'q m'"),
    ("2 x\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ("0 2\n", "line 1: gamma_size and delta_size must be at least 1"),
    ("# c\n\n2 2 2\n", "line 3: expected header 'q m'"),
)


@pytest.mark.parametrize("text,message", HEADER_ERRORS)
def test_group_and_code_parsers_agree_on_header_errors(text, message):
    for parse in (parse_group_text, parse_code):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message
