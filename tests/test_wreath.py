import io
import math
import random

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
