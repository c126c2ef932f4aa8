"""Value groups: arithmetic, ordering, scalar division and strict decoding.

Elements are raw ints (Z), Fractions (Q) and int tuples (lex Z^n); the
ValueGroup object supplies the arithmetic, and INF tops every element.
"""
from fractions import Fraction

import pytest

from valcert.errors import InputError, VariantMismatchError
from valcert.fields import QQ
from valcert.group import (INF, INTEGERS as ZZ, RATIONALS, Lex,
                           element_from_json, group_of)
from valcert.series import ValuedSeries

L2, L3 = Lex(2), Lex(3)


class TestAdd:
    def test_int_add(self):
        # [TRIVIAL] (2) + (3) = (5)
        assert ZZ.add(2, 3) == 5

    def test_lex_componentwise(self):
        # [TRIVIAL] (1,0) + (0,5) = (1,5)
        assert L2.add((1, 0), (0, 5)) == (1, 5)
        assert L2.sub((1, 5), (0, 5)) == (1, 0) and L2.neg((1, -2)) == (-1, 2)

    def test_infinity_absorbs(self):
        # [TRIVIAL] INF is the value of exact zero: a product with an
        # exact zero factor is exact zero, whatever the other's window
        x = ValuedSeries(QQ, ZZ, [(7, QQ.one())], 9)
        assert (ValuedSeries.zero(QQ, ZZ) * x).val() is INF
        assert (x * ValuedSeries.zero(QQ, ZZ)).val() is INF

    def test_variant_mismatch(self):
        with pytest.raises(VariantMismatchError):
            ZZ.check((1, 0))
        with pytest.raises(VariantMismatchError):
            L2.check((1, 0, 0))
        with pytest.raises(VariantMismatchError):
            RATIONALS.check(1)  # an int is not a rational exponent
        with pytest.raises(VariantMismatchError):
            ZZ.check_same(L2)
        L3.check_same(Lex(3))


class TestCmp:
    def test_lex_order(self):
        # [TRIVIAL] (1,9) < (2,0) lexicographically
        assert (1, 9) < (2, 0)
        assert sorted([(2, 0), (1, 9), (1, -3)]) == [(1, -3), (1, 9), (2, 0)]

    def test_equal(self):
        assert RATIONALS.from_json("6/2") == Fraction(3)
        assert len({(3, 1), L2.add((1, 1), (2, 0))}) == 1

    def test_finite_below_infinity(self):
        for x in (5, Fraction(-7, 2), (9, 9)):
            assert x < INF and not INF < x
            assert min(x, INF) == x and max(INF, x) is INF

    def test_total_order_ops(self):
        assert 1 < 2 <= 2 < INF
        assert Fraction(1, 2) < Fraction(2, 3)
        assert INF <= INF and INF >= INF and not INF < INF


class TestSolveScalar:
    def test_exact_division(self):
        # [TRIVIAL] 2x = 6 -> x = 3
        assert ZZ.solve_scalar(2, 6) == 3

    def test_indivisible_in_Z(self):
        # [TRIVIAL] 2x = 5 has no solution in Z
        assert ZZ.solve_scalar(2, 5) is None

    def test_lex_componentwise(self):
        # [TRIVIAL] 3x = (3,6) -> (1,2)
        assert L2.solve_scalar(3, (3, 6)) == (1, 2)
        assert L2.solve_scalar(3, (3, 5)) is None

    def test_rationals_always_solvable(self):
        assert RATIONALS.solve_scalar(2, Fraction(5)) == Fraction(5, 2)

    def test_zero_scalar_rejected(self):
        with pytest.raises(InputError):
            ZZ.solve_scalar(0, 1)


class TestJson:
    @pytest.mark.parametrize("x", [(ZZ, -3), (RATIONALS, Fraction(7, 2)),
                                   (L3, (1, -2, 3)), (None, INF)])
    def test_roundtrip(self, x):
        group, value = x
        if value is INF:
            # INF is no group element: it travels as the truncation of an
            # exact series
            exact = ValuedSeries.one(QQ, ZZ)
            assert ValuedSeries.from_json(exact.to_json(), QQ, ZZ).trunc is INF
            return
        assert group.from_json(group.to_json(value)) == value
        assert element_from_json(group.to_json(value)) == value
        assert group_of(value) is group

    def test_scale(self):
        assert ZZ.scale(3, 2) == 6
        assert L2.scale((1, 2), 3) == (3, 6)
        assert type(RATIONALS.scale(Fraction(1, 2), 4)) is Fraction

    def test_inference_by_form(self):
        assert element_from_json(4) == 4
        assert element_from_json("1/3") == Fraction(1, 3)
        assert element_from_json([1, 0]) == (1, 0)
        assert group_of(Fraction(1, 3)) is RATIONALS and group_of((1, 0)) is Lex(2)

    @pytest.mark.parametrize("obj", [True, [], [1, True], [1, "0"], 1.5, None, "inf", "x/2"])
    def test_bad_elements_rejected(self, obj):
        # booleans, empty or non-integer lex tuples and non-numbers
        with pytest.raises(InputError):
            element_from_json(obj)

    def test_decoding_is_strict(self):
        with pytest.raises(InputError):
            RATIONALS.from_json(1)  # an int in a "n/d" context
        with pytest.raises(InputError):
            ZZ.from_json("1/2")
        with pytest.raises(InputError):
            L2.from_json([1, 0, 0])  # ragged width
        with pytest.raises(InputError):
            ZZ.from_json(False)
        with pytest.raises(InputError):
            group_of(True)

    @pytest.mark.parametrize("group, objs", [
        (ZZ, [1, True]), (ZZ, [1, "2/1"]), (RATIONALS, ["1/2", 1]),
        (L2, [[1, 0], [1, 0, 0]]), (L2, [[1, 0], [0, False]]), (L2, [[1, 0], (1, 1)])])
    def test_stream_decoding_is_strict(self, group, objs):
        with pytest.raises(InputError):
            group.stream_from_json(objs)

    def test_stream_decoding(self):
        assert ZZ.stream_from_json([3, -1]) == [3, -1]
        assert RATIONALS.stream_from_json(["1/2", "4/2"]) == [Fraction(1, 2), Fraction(2)]
        assert L2.stream_from_json([[1, 0], [0, -2]]) == [(1, 0), (0, -2)]
        assert ZZ.stream_from_json([]) == L2.stream_from_json([]) == []


class TestShifts:
    """shifts(betas, ts, g) is beta_i + t_i*g, as add and scale give it."""

    @pytest.mark.parametrize("group, betas, g", [
        (ZZ, [0, -3, 7, 2], 5),
        (RATIONALS, [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 4)], Fraction(2, 3)),
        (L2, [(0, 1), (-1, 4), (2, -2), (0, 0)], (3, -1)),
    ])
    def test_matches_add_and_scale(self, group, betas, g):
        ts = [2, -3, 0, 1]
        got = group.shifts(betas, ts, g)
        assert got == [group.add(b, group.scale(g, t)) for b, t in zip(betas, ts)]
        group.check(*got)
