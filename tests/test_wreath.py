import io
import math
import random
import sys

import pytest

from wreathact import (
    Code,
    DegreeMismatchError,
    EnumerationOverflow,
    ParseError,
    Permutation,
    WreathContext,
    WreathElement,
    WreathSubgroup,
    format_point,
    is_automorphism,
    parse_point,
    stabilizer_order_oracle,
)
from wreathact import cli
from wreathact.wreath import parse_with_header
from helpers import p, we

S = p(1, 0)
ID2 = Permutation.identity(2)

SMALL_CONTEXTS = [WreathContext(2, 2), WreathContext(3, 2), WreathContext(2, 3)]


class TestMultiplication:
    def test_identity_law(self):
        ctx = WreathContext(2, 2)
        w = we([[1, 0], [0, 1]], [1, 0])
        assert ctx.identity_element() * w == w
        assert w * ctx.identity_element() == w

    def test_evaluated_product(self):
        # ((s,id); (0 1)) * ((id,s); id) = ((id,id); (0 1))
        a = WreathElement((S, ID2), S)
        b = WreathElement((ID2, S), ID2)
        assert a * b == WreathElement((ID2, ID2), S)

    def test_inverse_law(self):
        rng = random.Random(5)
        for ctx in SMALL_CONTEXTS:
            for _ in range(20):
                w = ctx.random_element(rng)
                assert w * w.inverse() == ctx.identity_element()
                assert w.inverse() * w == ctx.identity_element()

    def test_products_and_inverses_are_valid(self):
        # products and inverses skip validation; rebuilding them through the
        # public constructors must give the same elements
        rng = random.Random(6)
        for ctx in SMALL_CONTEXTS + [WreathContext(4, 5)]:
            for _ in range(20):
                a, b = ctx.random_element(rng), ctx.random_element(rng)
                for w in (a * b, a.inverse()):
                    rebuilt = WreathElement(
                        [Permutation(p.images) for p in w.base], Permutation(w.top.images)
                    )
                    assert rebuilt == w
                    assert w.ctx == ctx

    def test_public_constructor_still_validates(self):
        with pytest.raises(DegreeMismatchError):
            WreathElement((S, Permutation.identity(3)), ID2)
        with pytest.raises(DegreeMismatchError):
            WreathElement((S, S), Permutation.identity(3))

    def test_context_mismatch(self):
        a = WreathElement((S, ID2), S)
        b = WreathElement((S, S, S), Permutation.identity(3))
        with pytest.raises(DegreeMismatchError):
            a * b

    def test_associativity(self):
        rng = random.Random(12)
        for ctx in SMALL_CONTEXTS:
            for _ in range(25):
                a = ctx.random_element(rng)
                b = ctx.random_element(rng)
                c = ctx.random_element(rng)
                assert (a * b) * c == a * (b * c)

    def test_action_homomorphism_exhaustive(self):
        rng = random.Random(6)
        for ctx in SMALL_CONTEXTS:
            points = list(ctx.all_points())
            for _ in range(30):
                a = ctx.random_element(rng)
                b = ctx.random_element(rng)
                ab = a * b
                for phi in points:
                    assert ab.apply(phi) == b.apply(a.apply(phi))

    def test_action_is_faithful(self):
        for ctx in SMALL_CONTEXTS:
            points = list(ctx.all_points())
            for w in ctx.all_elements():
                if all(w.apply(phi) == phi for phi in points):
                    assert w.is_identity()


class TestApply:
    def test_identity_fixes_everything(self):
        ctx = WreathContext(3, 2)
        for phi in ctx.all_points():
            assert ctx.identity_element().apply(phi) == phi

    def test_top_moves_coordinates_base_moves_entries(self):
        w = WreathElement((S, ID2), S)
        assert w.apply((0, 1)) == (1, 1)

    def test_base_only(self):
        w = WreathElement((S, S), ID2)
        assert w.apply((0, 1)) == (1, 0)

    def test_matches_the_defining_formula(self):
        # (phi * fh)[d] = f[d h^-1][phi[d h^-1]]
        rng = random.Random(10)
        for ctx in SMALL_CONTEXTS + [WreathContext(4, 5)]:
            for _ in range(10):
                w = ctx.random_element(rng)
                tinv = w.top.inverse()
                for phi in list(ctx.all_points())[:50]:
                    expected = tuple(
                        w.base[tinv[d]][phi[tinv[d]]] for d in range(ctx.delta_size)
                    )
                    assert w.apply(phi) == expected

    def test_point_length_checked(self):
        w = WreathElement((S, ID2), S)
        with pytest.raises(ValueError):
            w.apply((0, 1, 0))

    def test_block_equivariance(self):
        # the block of points with entry gamma at coordinate d maps onto the
        # block with entry gamma^(f[d]) at coordinate d^h
        rng = random.Random(8)
        for ctx in SMALL_CONTEXTS:
            points = list(ctx.all_points())
            for _ in range(10):
                w = ctx.random_element(rng)
                for d in range(ctx.delta_size):
                    for gamma in range(ctx.gamma_size):
                        block = [phi for phi in points if phi[d] == gamma]
                        image = {w.apply(phi) for phi in block}
                        target_d = w.top[d]
                        target_gamma = w.base[d][gamma]
                        expected = {
                            phi for phi in points if phi[target_d] == target_gamma
                        }
                        assert image == expected

    def test_induced_top_is_a_homomorphism(self):
        rng = random.Random(9)
        ctx = WreathContext(3, 3)
        base_only = WreathElement(
            (p(1, 2, 0), p(0, 2, 1), Permutation.identity(3)), Permutation.identity(3)
        )
        assert base_only.top.is_identity()
        for _ in range(20):
            a = ctx.random_element(rng)
            b = ctx.random_element(rng)
            assert (a * b).top == a.top * b.top


class TestApplyColumns:
    def test_equals_apply_on_all_of_pi(self):
        rng = random.Random(14)
        for q in range(1, 5):
            for m in range(1, 6):
                ctx = WreathContext(q, m)
                points = list(ctx.all_points())
                columns = list(zip(*points))
                for _ in range(3):
                    w = ctx.random_element(rng)
                    images = w.apply_columns(columns)
                    assert len(images) == m
                    assert list(zip(*images)) == [w.apply(phi) for phi in points]

    @staticmethod
    def elements_with_identity_entries(ctx: WreathContext, rng: random.Random) -> list[WreathElement]:
        """Seeded elements with some base entries forced to the identity:
        none of them, about 30% and 70%, and all of them (a top-only
        element); and the identity element."""
        q, m = ctx.gamma_size, ctx.delta_size
        identity = Permutation.identity(q)
        elements = [ctx.identity_element()]
        for share in (0.0, 0.3, 0.7, 1.0):
            w = ctx.random_element(rng)
            base = [identity if rng.random() < share else entry for entry in w.base]
            elements.append(WreathElement(base, w.top))
        return elements

    def test_identity_entries_on_all_of_pi(self):
        rng = random.Random(15)
        for q in range(1, 5):
            for m in range(1, 5):
                ctx = WreathContext(q, m)
                points = list(ctx.all_points())
                columns = list(zip(*points))
                for w in self.elements_with_identity_entries(ctx, rng):
                    images = w.apply_columns(columns)
                    assert list(zip(*images)) == [w.apply(phi) for phi in points]

    def test_identity_entries_on_a_code(self):
        rng = random.Random(16)
        ctx = WreathContext(5, 5)
        code = Code(ctx, [w for w in ctx.all_points() if sum(w) % 5 == 0])
        for w in self.elements_with_identity_entries(ctx, rng):
            images = w.apply_columns(code.columns)
            assert list(zip(*images)) == [w.apply(phi) for phi in code.words]
            assert is_automorphism(w, code) is (code.transform(w) == code)

    @pytest.mark.parametrize("points", [[(1, 0, 2)], []], ids=["one-point", "zero-points"])
    def test_one_and_zero_point_columns(self, points):
        ctx = WreathContext(3, 3)
        w = ctx.random_element(random.Random(8))
        columns = [tuple(phi[d] for phi in points) for d in range(3)]
        images = w.apply_columns(columns)
        assert all(type(column) is tuple and len(column) == len(points) for column in images)
        assert [tuple(column[k] for column in images) for k in range(len(points))] == [
            w.apply(phi) for phi in points
        ]

    @staticmethod
    def assert_bytes_path_matches(w: WreathElement, points: list) -> None:
        """``bytes`` columns map to ``bytes`` columns that hold the images
        the tuple columns of the same points map to; a column whose base
        entry is the identity comes back as the given object (with no
        points, every column is the one empty ``bytes``)."""
        tuples = [tuple(phi[d] for phi in points) for d in range(len(w.base))]
        columns = [bytes(column) for column in tuples]
        images = w.apply_columns(columns)
        assert all(type(column) is bytes for column in images)
        assert [tuple(column) for column in images] == w.apply_columns(tuples)
        for p, d, column in zip(w.base, w.top.images, columns):
            assert (images[d] is column) is (p.is_identity() or not points)

    def test_bytes_columns_equal_tuple_columns_on_all_of_pi(self):
        rng = random.Random(17)
        for q in range(1, 6):
            for m in range(1, 6):
                ctx = WreathContext(q, m)
                points = list(ctx.all_points())
                elements = self.elements_with_identity_entries(ctx, rng)
                for w in elements + [ctx.random_element(rng) for _ in range(2)]:
                    self.assert_bytes_path_matches(w, points)

    @pytest.mark.parametrize("points", [[(1, 0, 2)], []], ids=["one-point", "zero-points"])
    def test_bytes_columns_of_one_and_zero_points(self, points):
        ctx = WreathContext(3, 3)
        for w in self.elements_with_identity_entries(ctx, random.Random(18)):
            self.assert_bytes_path_matches(w, points)

    def test_bytes_columns_at_q_256(self):
        # the largest q whose letters fit a byte: entry 255 maps through
        # the last slot of the 256-byte table
        rng = random.Random(19)
        ctx = WreathContext(256, 3)
        points = [tuple(rng.randrange(256) for _ in range(3)) for _ in range(40)]
        points += [(255, 255, 255), (0, 255, 0)]
        for w in self.elements_with_identity_entries(ctx, rng):
            self.assert_bytes_path_matches(w, points)
            images = w.apply_columns([bytes(column) for column in zip(*points)])
            assert list(zip(*images)) == [w.apply(phi) for phi in points]

    def test_column_count_checked(self):
        w = WreathElement((S, ID2), S)
        assert w.apply_columns([(0, 1), (1, 1)]) == [(1, 1), (1, 0)]
        with pytest.raises(ValueError):
            w.apply_columns([(0, 1), (1, 1), (0, 0)])
        with pytest.raises(ValueError):
            w.apply_columns([(0, 1)])

    def test_point_loops_never_apply_one_point(self, monkeypatch):
        # is_automorphism, Code.transform, split and verify's action check
        # run on columns; the constant-point oracle of verify is stubbed
        # with its true count because it applies single points by design
        ctx = WreathContext(3, 2)
        code = Code(ctx, [(0, 0), (1, 1), (2, 2)])
        flip = WreathElement((p(1, 2, 0), p(1, 2, 0)), Permutation.identity(2))
        X = WreathSubgroup(WreathContext(2, 3), (we([[1, 0], [1, 0], [0, 1]], [1, 0, 2]),))
        count = stabilizer_order_oracle(ctx, (0, 0))

        def refuse(self, point):
            raise AssertionError("apply called on a single point")

        monkeypatch.setattr(WreathElement, "apply", refuse)
        monkeypatch.setattr(cli, "stabilizer_order_oracle", lambda ctx, point, cap: count)
        assert is_automorphism(flip, code)
        assert code.transform(flip) == code
        assert X.split([0, 1]).ok
        out = io.StringIO()
        assert cli.main(["verify", "--q", "3", "--m", "2", "--pairs", "5", "--samples", "0"], out=out) == 0
        assert "action-failures: 0\n" in out.getvalue()


class TestConstantPoint:
    def test_values(self):
        assert WreathContext(3, 2).constant_point(1) == (1, 1)
        assert WreathContext(2, 4).constant_point(0) == (0, 0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            WreathContext(2, 2).constant_point(2)


class TestCheckPoint:
    @pytest.mark.parametrize("point, bad", [((0.5, 1), "0.5"), ((0, 1.0), "1.0"), (("0", 1), "'0'")])
    def test_non_integer_entry_rejected_naming_it(self, point, bad):
        with pytest.raises(ValueError, match=f"point entry {bad} is not an integer"):
            WreathContext(2, 2).check_point(point)


class TestStabilizerOracle:
    def test_known_counts(self):
        assert stabilizer_order_oracle(WreathContext(3, 2), (0, 0)) == 8
        assert stabilizer_order_oracle(WreathContext(2, 2), (0, 0)) == 2
        assert stabilizer_order_oracle(WreathContext(2, 1), (0,)) == 1
        assert stabilizer_order_oracle(WreathContext(2, 1), (1,)) == 1

    def test_constant_point_formula(self):
        for q in (2, 3):
            for m in (1, 2):
                ctx = WreathContext(q, m)
                expected = math.factorial(q - 1) ** m * math.factorial(m)
                for gamma in range(q):
                    count = stabilizer_order_oracle(ctx, ctx.constant_point(gamma))
                    assert count == expected

    def test_overflow_is_loud(self):
        with pytest.raises(EnumerationOverflow):
            stabilizer_order_oracle(WreathContext(3, 2), (0, 0), cap=10)

    @pytest.mark.parametrize("q, m", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 2), (4, 1)])
    def test_cap_refuses_exactly_above_the_order(self, q, m):
        ctx = WreathContext(q, m)
        order = math.factorial(q) ** m * math.factorial(m)
        assert sum(1 for _ in ctx.all_elements(cap=order)) == order
        with pytest.raises(EnumerationOverflow) as info:
            next(ctx.all_elements(cap=order - 1))
        assert str(info.value) == (
            f"full wreath product at q={q}, m={m} has order over the cap, cap is {order - 1}"
        )


class TestContextBounds:
    @pytest.mark.parametrize("q, m", [(sys.maxsize + 1, 1), (1, sys.maxsize + 1)])
    def test_sizes_above_the_longest_sequence_are_rejected(self, q, m):
        with pytest.raises(ValueError, match=f"must be at most {sys.maxsize}$"):
            WreathContext(q, m)

    def test_largest_sizes_are_accepted(self):
        ctx = WreathContext(sys.maxsize, sys.maxsize)
        assert (ctx.gamma_size, ctx.delta_size) == (sys.maxsize, sys.maxsize)


class TestSerialization:
    def test_element_round_trip(self):
        rng = random.Random(10)
        for ctx in SMALL_CONTEXTS:
            for _ in range(20):
                w = ctx.random_element(rng)
                assert WreathElement.parse(str(w)) == w

    def test_element_format(self):
        w = WreathElement((S, ID2), S)
        assert str(w) == "base=[[1,0];[0,1]] top=[1,0]"

    # degree 5000 is past the cap of the kept string table, so its
    # entries are converted one by one
    @pytest.mark.parametrize("q,m", [(1, 1), (1, 4), (4, 1), (300, 3), (2, 300), (1000, 2), (5000, 1)])
    def test_round_trips_match_the_plain_join(self, q, m):
        def plain(perm):
            return "[" + ",".join(map(str, perm.images)) + "]"

        w = WreathContext(q, m).random_element(random.Random(q * m))
        assert str(w) == f"base=[{';'.join(map(plain, w.base))}] top={plain(w.top)}"
        assert WreathElement.parse(str(w)) == w
        for perm in (*w.base, w.top):
            assert str(perm) == plain(perm)
            assert Permutation.parse(str(perm)) == perm

    def test_point_round_trip(self):
        ctx = WreathContext(3, 4)
        for phi in [(0, 1, 2, 0), (2, 2, 2, 2)]:
            assert parse_point(format_point(phi), ctx) == phi

    def test_parse_errors(self):
        for text in ("base=[[1,0]]", "top=[1,0]", "base=[[1,0];[0,1]] top=[2,0]"):
            with pytest.raises((ParseError, ValueError)):
                WreathElement.parse(text)
        with pytest.raises(ParseError):
            parse_point("0,5", WreathContext(2, 2))
        with pytest.raises(ParseError):
            parse_point("0,1,0", WreathContext(2, 2))


class TestFileFraming:
    """``parse_with_header`` drops blank lines first, and ``#`` lines only
    when the text holds a ``#``. The lines it keeps, and the line number of
    every error, are those of one strip-and-filter pass over every line
    (``reference``)."""

    # line breaks of str.splitlines and whitespace of str.strip, ASCII and not
    BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    SPACES = [" ", "\t", "\x1f", "\xa0", "\u2003", "\u3000"]

    @staticmethod
    def reference(text: str) -> list[tuple[int, str]]:
        raw = map(str.strip, text.splitlines())
        return [(number, line) for number, line in enumerate(raw, start=1) if line and line[0] != "#"]

    def fuzzed_text(self, rng: random.Random) -> str:
        comments = rng.random() < 0.5

        def line(word: float) -> str:
            roll = rng.random()
            pad = "".join(rng.choices(self.SPACES, k=rng.randint(0, 2)))
            if roll < 0.5 and comments:
                return pad + rng.choice(["#", "# a comment", "#0,1,1", "0,1#"])
            if roll < word:
                return pad + ",".join(rng.choice("01") for _ in range(3)) + pad[::-1]
            return pad

        lines = [line(0.05) for _ in range(rng.randint(0, 4))]
        lines.append(rng.choice(["2 3", " 2\t3 ", "2 3", "2 3 4"]))
        lines += [line(0.8) for _ in range(rng.randint(0, 30))]
        breaks = rng.choices(self.BREAKS, k=len(lines))
        return "".join(map(str.__add__, lines, breaks))[: None if rng.random() < 0.5 else -1]

    @pytest.mark.parametrize("seed", range(60))
    def test_lines_and_error_numbers_match_the_comprehension(self, seed):
        self.check(self.fuzzed_text(random.Random(seed)))

    # a "#" only at the start of the text, only inside a word line, or none
    @pytest.mark.parametrize("text", [
        "#\n2 3\n0,1,1\n", "# q m\r\n2 3\r\n\x0b0,1,1\x1c1,1,0", "2 3\n0,1#\n 1,0,1\n",
        "\xa02 3\xa0\n\u2028\n\t0,1,1\u3000\n\n", "2 3", "\n\x0c\n", "#",
    ])
    def test_edge_texts_match_the_comprehension(self, text):
        self.check(text)

    def check(self, text: str) -> None:
        expected = self.reference(text)

        def failing_body(lines, ctx):
            raise ValueError("body")

        try:
            ctx, lines = parse_with_header(text, None, lambda lines, ctx: lines)
        except ParseError as exc:
            # the header is the first kept line, or there is none
            message = f"line {expected[0][0]}: " if expected else "missing header"
            assert str(exc).startswith(message)
            return
        assert lines == [line for _, line in expected[1:]]
        assert (ctx.gamma_size, ctx.delta_size) == (2, 3)
        for k, (number, _) in enumerate(expected[1:]):
            calls = iter(range(len(expected)))

            def read_line(line, ctx):
                if next(calls) == k:
                    raise ValueError("bad")
                return line

            with pytest.raises(ParseError) as info:
                parse_with_header(text, read_line, failing_body)
            assert str(info.value) == f"line {number}: bad"
