import io
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import wreathact
from wreathact import (
    GenGroup,
    ParseError,
    WreathContext,
    WreathElement,
    parse_code,
    parse_point,
)
from wreathact import cli
from wreathact.cli import main, parse_group_text
from helpers import reference_parse_group_text
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


def tamper_certificates(monkeypatch, module) -> None:
    """Make ``module`` sift into trivial groups, so that every non-identity
    base entry and top is reported as a failure. No transversal entry
    counts as carried into G either, so neither ``embed`` nor
    ``code-canon`` can read its certificate off the conjugate, and both
    sift; the component flags fall back to ``same_group``, which is
    exact."""
    sift = wreathact.normalize.sift_embedding

    def into_trivial_groups(generators, G, H):
        return sift(generators, GenGroup(G.degree), GenGroup(H.degree))

    monkeypatch.setattr(module, "sift_embedding", into_trivial_groups)
    for holder in (wreathact.normalize, module):
        monkeypatch.setattr(holder, "_carried", lambda *args: False)


class TestEmbedCommand:
    def test_diagonal_plus_swap_certificate(self):
        status, text = run("embed", fixture("diag_swap_q2m2.group"))
        assert status == 0
        assert "certificate: PASS" in text
        assert "G-generators: [[1,0]]" in text

    def test_failed_certificate_prints_each_failure(self, monkeypatch):
        tamper_certificates(monkeypatch, wreathact.normalize)
        status, text = run("embed", fixture("diag_swap_q2m2.group"))
        assert status == 2
        assert text.endswith(
            "components-constant: yes\n"
            "certificate-failure 0: generator=0 kind=base coordinate=0\n"
            "certificate-failure 1: generator=0 kind=base coordinate=1\n"
            "certificate-failure 2: generator=1 kind=top\n"
            "certificate: FAIL\n"
        )

    def test_passed_certificate_prints_no_failure(self):
        status, text = run("embed", fixture("diag_swap_q2m2.group"))
        assert status == 0
        assert "certificate-failure" not in text

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

    def test_failed_certificate_prints_each_failure(self, monkeypatch):
        argv = (
            "code-canon", fixture("even_weight.code"), fixture("even_weight_aut.group"),
            "--gamma", "0", "--nu", "1",
        )
        status, passed = run(*argv)
        assert status == 0 and "certificate-failure" not in passed
        tamper_certificates(monkeypatch, wreathact.codes)
        status, text = run(*argv)
        assert status == 2
        failures = [line for line in text.splitlines() if line.startswith("certificate-failure")]
        assert failures
        for k, line in enumerate(failures):
            assert line.startswith(f"certificate-failure {k}: generator=")
        # the failure lines sit between the unchanged report and the verdict
        report = passed.splitlines()[:-1]
        assert text.splitlines() == report + failures + ["certificate: FAIL"]

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


class TestUnrepresentableSizes:
    @pytest.mark.parametrize("q", ["2000", "1000000000000000000"])
    def test_over_cap_alphabet_refused_without_the_order(self, q, monkeypatch):
        # (q!)^m * m! is multiplied up only until it passes the cap: at the
        # first size a printed order would exceed Python's int-to-string
        # limit, at the second computing it would not finish
        monkeypatch.delenv("WREATHACT_CAP", raising=False)
        start = time.perf_counter()
        status, text = run("verify", "--q", q, "--m", "1")
        elapsed = time.perf_counter() - start
        assert status == 2
        assert text.startswith("error: verify: stabilizer count:")
        assert "cap is 1000000" in text
        assert set(re.findall(r"\d+", text)) <= {q, "1", "1000000"}
        assert elapsed < 1.0

    @pytest.mark.parametrize("q, m", [("1", "9223372036854775807"), ("2", "10000000")])
    def test_verify_refuses_on_q_and_m_before_building_a_point(self, q, m, monkeypatch):
        # the constant point has length m: at the first size it cannot be
        # allocated, at the second building it costs more than the refusal
        monkeypatch.delenv("WREATHACT_CAP", raising=False)
        start = time.perf_counter()
        status, text = run("verify", "--q", q, "--m", m)
        elapsed = time.perf_counter() - start
        assert status == 2
        assert text == (
            f"error: verify: stabilizer count: full wreath product at q={q}, m={m}"
            " has order over the cap, cap is 1000000\n"
        )
        assert elapsed < 0.2

    def test_verify_rejects_a_size_no_sequence_can_have(self):
        status, text = run("verify", "--q", str(sys.maxsize + 1), "--m", "1")
        assert status == 2
        assert text == f"error: gamma_size and delta_size must be at most {sys.maxsize}\n"

    @pytest.mark.parametrize("command, header", [
        (["components"], "99999999999999999992 2"),
        (["normalize"], "99999999999999999992 2"),
        (["split", "--delta0", "0"], "99999999999999999992 2"),
        (["embed"], "99999999999999999991 1"),
        (["components"], f"2 {sys.maxsize + 1}"),
    ])
    def test_group_header_beyond_the_bound_is_a_line_error(self, command, header, tmp_path):
        path = tmp_path / "huge.group"
        path.write_text(header + "\n", encoding="ascii")
        status, text = run(command[0], str(path), *command[1:])
        assert status == 2
        assert text == f"error: line 1: gamma_size and delta_size must be at most {sys.maxsize}\n"


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


class TestInternalErrors:
    ARGV = ("components", fixture("diag_swap_q2m2.group"))

    @pytest.fixture
    def broken(self, monkeypatch):
        def cmd_components(args, out):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_components", cmd_components)

    def test_message_only_by_default(self, broken, monkeypatch, capsys):
        monkeypatch.delenv("WREATHACT_DEBUG", raising=False)
        assert run(*self.ARGV) == (2, "internal error: boom\n")
        assert capsys.readouterr().err == ""

    def test_debug_prints_the_traceback_on_stderr(self, broken, monkeypatch, capsys):
        monkeypatch.setenv("WREATHACT_DEBUG", "1")
        assert run(*self.ARGV) == (2, "internal error: boom\n")
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert "in cmd_components" in err
        assert err.endswith("RuntimeError: boom\n")


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
        # only verify takes a cap, so only verify reads the variable
        monkeypatch.setenv("WREATHACT_CAP", "many")
        status, text = run("verify", "--q", "2", "--m", "2", "--pairs", "1", "--samples", "1")
        assert (status, text) == (2, "error: WREATHACT_CAP must be an integer, got 'many'\n")
        status, text = run("components", fixture("diag_swap_q2m2.group"))
        with open(os.path.join(GOLDEN, "components.txt"), encoding="ascii") as handle:
            assert (status, text) == (0, handle.read())

    CODE_CANON = ("code-canon", fixture("even_weight.code"), fixture("even_weight_aut.group"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("split", fixture("two_orbit_q2m3.group"), "--delta0", "a,b"),
                "--delta0 expects a comma list of coordinates, got 'a,b'",
            ),
            (("embed", fixture("diag_swap_q2m2.group"), "--delta1", "5"), "coordinate 5 out of range"),
            (("embed", fixture("diag_swap_q2m2.group"), "--delta1", "-1"), "coordinate -1 out of range"),
            (CODE_CANON + ("--gamma", "0", "--nu", "9"), "pinned letters out of range"),
            (CODE_CANON + ("--gamma", "-1", "--nu", "1"), "pinned letters out of range"),
        ],
    )
    def test_input_error_is_one_line(self, argv, message):
        assert run(*argv) == (2, f"error: {message}\n")


# characters that one-character mutations of a group file insert or write
MUTATION_ALPHABET = "0123456789,;[] \t\r-+_"


@st.composite
def mutated_group_files(draw):
    """A group file of up to three elements as ``str`` writes them, over q
    in 1..12 and m in 1..5, with one mutation: a character deleted,
    inserted or replaced, or one base list moved to the next line."""
    q, m = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    ctx = WreathContext(q, m)
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["delete", "insert", "replace", "move"]))
    lines = [str(ctx.random_element(rng)) for _ in range(draw(st.integers(1 + (kind == "move"), 3)))]
    if kind == "move":
        k = draw(st.integers(0, len(lines) - 2))
        parts = [line[len("base=["):].split("] top=") for line in lines[k:k + 2]]
        (source, _), (target, _) = pair = [(base.split(";"), top) for base, top in parts]
        moved = source.pop(draw(st.integers(0, len(source) - 1)))
        target.insert(draw(st.integers(0, len(target))), moved)
        lines[k:k + 2] = [f"base=[{';'.join(base)}] top={top}" for base, top in pair]
    text = "\n".join([f"{q} {m}", *lines]) + "\n"
    if kind != "move":
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from(MUTATION_ALPHABET))
        kept = {"delete": "", "insert": char + text[at], "replace": char}[kind]
        text = text[:at] + kept + text[at + 1:]
    return text


class TestParseGroupParity:
    """``parse_group_text`` reads a file in the plain serialization in one
    pass, checking each image tuple once and building unchecked, and any
    other text line by line with ``WreathElement.parse``. It must give the
    generators of the checked reference parse, or the same error."""

    @staticmethod
    def outcome(parse, text):
        try:
            X = parse(text)
        except ValueError as exc:
            return type(exc), str(exc)
        return X.ctx, X.generators

    def assert_parity(self, text):
        expected = self.outcome(reference_parse_group_text, text)
        assert self.outcome(parse_group_text, text) == expected
        return expected

    @pytest.mark.parametrize("name", sorted(
        name for name in os.listdir(DATA) if name.endswith((".group", ".code"))
    ))
    def test_fixtures(self, name):
        with open(fixture(name), encoding="ascii") as handle:
            expected = self.assert_parity(handle.read())
        parsed = isinstance(expected[0], WreathContext)
        assert parsed == (name.endswith(".group") and name != "malformed.group")

    @pytest.mark.parametrize("seed", range(30))
    def test_benchmark_style_files(self, seed):
        rng = random.Random(seed)
        q, m = rng.randint(1, 7), rng.randint(1, 7)
        ctx = WreathContext(q, m)
        lines = [f"{q} {m}"]
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.15:
                lines.append(rng.choice(["", "  ", "# comment", "  # indented comment"]))
            lines.append(str(ctx.random_element(rng)))
        assert self.assert_parity("\n".join(lines) + rng.choice(["", "\n"]))[0] == ctx

    # spacing that the plain serialization never writes
    SPACED_LINES = [
        "base=[[0,1] ; [1,0]] top=[1,0]",
        "base=[[0,1];\t[1,0]] top=[1,0]",
        "base=[ [0,1];[1,0] ] top=[1,0]",
        "base=[[0,1];[1,0] ] top=[1,0]",
        "base=[[ 0 , 1 ];[1,0]] top=[ 1,0 ]",
    ]

    @pytest.mark.parametrize("line", SPACED_LINES)
    def test_spaced_lines_parse_as_before(self, line):
        good = "base=[[1,0];[0,1]] top=[0,1]"
        ctx, generators = self.assert_parity(f"2 2\n{good}\n{line}\n{good}\n")
        assert generators[1] == WreathElement.parse("base=[[0,1];[1,0]] top=[1,0]")

    BAD_LINES = {
        "short-entry": "base=[[1,0,2];[0,1];[2,0,1]] top=[1,2,0]",
        "non-permutation": "base=[[1,0,2];[0,0,1];[2,0,1]] top=[1,2,0]",
        "wrong-top-degree": "base=[[1,0,2];[0,2,1];[2,0,1]] top=[1,0]",
        "wrong-base-count": "base=[[1,0,2];[0,2,1]] top=[1,2,0]",
        "trailing-comment": "base=[[1,0,2];[0,2,1];[2,0,1]] top=[1,2,0] # note",
        "non-integer": "base=[[1,0,2];[0,x,1];[2,0,1]] top=[1,2,0]",
        "empty-entry": "base=[[1,0,2];[];[2,0,1]] top=[1,2,0]",
        "unbracketed-entry": "base=[[1,0,2];0,2,1;[2,0,1]] top=[1,2,0]",
        "non-permutation-top": "base=[[1,0,2];[0,2,1];[2,0,1]] top=[1,1,0]",
        "non-integer-base-and-top": "base=[[1,0,2];[0,x,1];[2,0,1]] top=[1,y,0]",
    }

    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_bad_line_after_300_good_lines(self, kind):
        rng = random.Random(kind)
        ctx = WreathContext(3, 3)
        good = [str(ctx.random_element(rng)) for _ in range(300)]
        text = "\n".join(["3 3", *good, self.BAD_LINES[kind], *good[:20]]) + "\n"
        expected = self.assert_parity(text)
        assert expected[0] is ParseError and expected[1].startswith("line 302: ")

    @staticmethod
    def count_parse_calls(monkeypatch):
        calls = []
        parse = WreathElement.parse

        def counting(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(WreathElement, "parse", counting)
        return calls

    def test_a_fallback_reads_the_header_once(self, monkeypatch):
        # the line-by-line route reuses the context of the one header parse
        built = []
        init = WreathContext.__init__

        def counting(self, gamma_size, delta_size):
            built.append((gamma_size, delta_size))
            init(self, gamma_size, delta_size)

        monkeypatch.setattr(WreathContext, "__init__", counting)
        good = "base=[[1,0];[0,1]] top=[0,1]"
        X = parse_group_text(f"2 2\n{good}\n{self.SPACED_LINES[0]}\n")
        assert len(X.generators) == 2 and built == [(2, 2)]
        built.clear()
        with pytest.raises(ParseError, match="^line 3: point entry 2 out of range 0..1$"):
            parse_code("2 3\n0,0,0\n0,2,0\n")
        assert built == [(2, 3)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_plain_files_are_read_in_one_pass(self, monkeypatch, newline):
        # q = 12: two-digit entries; the comment and blank line are skipped
        rng = random.Random(12)
        ctx = WreathContext(12, 4)
        lines = ["# two-digit entries", "12 4", "", *(str(ctx.random_element(rng)) for _ in range(6))]
        text = newline.join(lines) + newline
        calls = self.count_parse_calls(monkeypatch)
        assert self.assert_parity(text)[0] == ctx
        assert calls == []

    def test_a_spaced_line_falls_back_to_parsing_line_by_line(self, monkeypatch):
        good = "base=[[1,0];[0,1]] top=[0,1]"
        text = f"2 2\n{good}\n{self.SPACED_LINES[0]}\n"
        calls = self.count_parse_calls(monkeypatch)
        ctx, generators = self.assert_parity(text)
        assert calls == [good, self.SPACED_LINES[0]]
        assert generators[1] == WreathElement.parse("base=[[0,1];[1,0]] top=[1,0]")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text=mutated_group_files())
    # a bare ";" inside a base list
    @example(text="2 2\nbase=[[1,0;0,1];[0,1]] top=[1,0]\n")
    # three base lists on one line and one on the next: the totals balance
    @example(text="2 2\nbase=[[1,0];[0,1];[1,0]] top=[0,1]\nbase=[[0,1]] top=[1,0]\n")
    # three entries in one base list and one in the next: the line's total is right
    @example(text="2 2\nbase=[[1,0,0];[1]] top=[0,1]\n")
    def test_mutated_files_parse_as_the_reference(self, text):
        self.assert_parity(text)

    def test_header_without_generators_is_linear_in_m(self, tmp_path):
        start = time.perf_counter()
        X = parse_group_text("2 200000\n")
        elapsed = time.perf_counter() - start
        assert X.delta_orbits == tuple((d,) for d in range(200000))
        assert elapsed < 1.0
        # end to end: at O(m^2) this header took about 40 s
        path = tmp_path / "wide.group"
        path.write_text("2 20000\n")
        start = time.perf_counter()
        status, text = run("components", str(path))
        elapsed = time.perf_counter() - start
        assert status == 0
        assert text.endswith("component 19999: generators=[] transitivity=intransitive\n")
        assert elapsed < 2.0


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


# code-file text: arbitrary text, or a header, binary words of length 3
# (random ones, or the even-weight code the group preserves) and at most
# one stray line, so that many inputs parse and reach code-canon
WORD = st.lists(st.integers(0, 1), min_size=3, max_size=3).map(
    lambda word: ",".join(map(str, word))
)
STRAY_LINE = st.one_of(
    st.lists(st.integers(-1, 2), min_size=1, max_size=4).map(
        lambda word: ",".join(map(str, word))
    ),
    st.text(alphabet="0123,- #x\t", max_size=12),
)
CODE_TEXT = st.one_of(
    st.text(max_size=60),
    st.builds(
        lambda header, words, stray, at: "\n".join(
            [header, *words[:at], *stray, *words[at:]]
        ) + "\n",
        st.sampled_from(["2 3", "2 3", "2 3", "3 3", "2 2", "2 x", ""]),
        st.one_of(
            st.lists(WORD, max_size=6),
            st.permutations(["0,0,0", "0,1,1", "1,0,1", "1,1,0"]),
        ),
        st.lists(STRAY_LINE, max_size=1),
        st.integers(0, 6),
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=CODE_TEXT)
def test_code_canon_exit_codes_on_arbitrary_code_files(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.code"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    status, report = run(
        "code-canon", str(path), fixture("even_weight_aut.group"), "--gamma", "0", "--nu", "1"
    )
    assert status in (0, 1, 2)
    assert "internal error:" not in report


# group-file text: a free header or one from a fixed list, then generator
# lines of Sym(2) wr Sym(2) and at most one stray line
PERM2 = st.permutations(["0", "1"]).map(lambda images: f"[{','.join(images)}]")
GENERATOR_LINE = st.builds(
    lambda base, top: f"base=[{';'.join(base)}] top={top}",
    st.lists(PERM2, min_size=2, max_size=2),
    PERM2,
)
GROUP_TEXT = st.builds(
    lambda header, lines, stray, at: "\n".join([header, *lines[:at], *stray, *lines[at:]]) + "\n",
    st.one_of(
        st.builds("{} {}".format, st.integers(0, 6), st.integers(0, 300)),
        st.sampled_from([
            "2 2", "2 2", "2 2", "2 3", "3 2", "1 1", "0 2", "2 x", "2", "",
            "99999999999999999992 2",
        ]),
    ),
    st.lists(GENERATOR_LINE, max_size=4),
    st.lists(st.text(alphabet="base=[];top01,2 #x-", max_size=24), max_size=1),
    st.integers(0, 4),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=GROUP_TEXT)
@example(text="99999999999999999992 2\n")
def test_group_commands_exit_codes_on_arbitrary_group_files(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.group"
    path.write_text(text, encoding="ascii")
    for command in (["components"], ["normalize"], ["split", "--delta0", "0"]):
        status, report = run(command[0], str(path), *command[1:])
        assert status in (0, 1, 2)
        assert "internal error:" not in report


# --fix text: comma lists of small integers, with stray characters
FIX_TEXT = st.one_of(
    st.lists(st.integers(-2, 4), max_size=4).map(lambda entries: ",".join(map(str, entries))),
    st.text(alphabet="0123-, x", max_size=8),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fix=FIX_TEXT, group=st.sampled_from(["scattered_q3m2.group", "diag_swap_q2m2.group"]))
def test_fix_text_exit_codes_on_normalize_and_embed(fix, group):
    for command in ("normalize", "embed"):
        status, report = run(command, fixture(group), f"--fix={fix}")
        assert status in (0, 1, 2)
        assert "internal error:" not in report


@pytest.mark.parametrize("argv, option", [
    (["normalize", fixture("scattered_q3m2.group"), "--fix=--"], "fix"),
    (["embed", fixture("diag_swap_q2m2.group"), "--delta1=--"], "delta1"),
    (["split", fixture("two_orbit_q2m3.group"), "--delta0=--"], "delta0"),
    (["code-canon", fixture("even_weight.code"), fixture("even_weight_aut.group"),
      "--gamma=--", "--nu", "1"], "gamma"),
    (["verify", "--q", "2", "--m", "2", "--cap=--"], "cap"),
])
def test_double_dash_as_an_option_value_is_an_input_error(argv, option):
    # argparse before 3.13 reads --name=-- as an empty list; from 3.13 an
    # option's own type check or the handler rejects the text "--"
    try:
        status, report = run(*argv)
    except SystemExit as exc:  # an int option's usage error, from 3.13
        status, report = exc.code, ""
    assert status == 2
    assert "internal error:" not in report
    if sys.version_info < (3, 13):
        assert report == f"error: --{option} needs a value\n"
