"""Truncated valued series: valuation, arithmetic, division, units."""
import pytest

from valcert.errors import IndeterminateValError, InputError
from valcert.fields import GF, QQ
from fractions import Fraction

from valcert.errors import VariantMismatchError
from valcert.group import INF, INTEGERS as ZZ, RATIONALS, Lex
from valcert.series import ValuedSeries


def S(*pairs, trunc=INF, field=QQ):
    return ValuedSeries(field, ZZ, [(e, field.from_int(c)) for e, c in pairs], trunc)


class TestVal:
    def test_least_exponent(self):
        # [TRIVIAL] val(t^2 + t^5) = 2
        assert S((2, 1), (5, 1)).val() == 2

    def test_exact_zero_is_infinity(self):
        assert ValuedSeries.zero(QQ, ZZ).val() is INF

    def test_inexact_zero_indeterminate(self):
        # [TRIVIAL] zero-so-far below delta=10, inexact
        with pytest.raises(IndeterminateValError):
            S(trunc=10).val()


class TestArith:
    def test_mul(self):
        # [TRIVIAL] t * t = t^2
        assert (S((1, 1)) * S((1, 1))).same_known(S((2, 1)))

    def test_sub(self):
        # [TRIVIAL] (1 + t) - 1 = t
        assert (S((0, 1), (1, 1)) - S((0, 1))).same_known(S((1, 1)))

    def test_unit_multiplier_keeps_window(self):
        # [TRIVIAL] (t + t^3, trunc 4) * 1 keeps terms and window
        x = S((1, 1), (3, 1), trunc=4)
        out = x * ValuedSeries.one(QQ, ZZ)
        assert out.same_known(x)

    def test_ultrametric_strict_case(self):
        x, y = S((1, 1)), S((2, 1))
        assert (x + y).val() == 1


class TestDiv:
    def test_exact_division(self):
        # [TRIVIAL] (t + t^2)/t = 1 + t
        assert S((1, 1), (2, 1)).div(S((1, 1))).same_known(S((0, 1), (1, 1)))

    def test_negative_val_allowed(self):
        # [TRIVIAL] t^2 / t^3 = t^(-1)
        q = S((2, 1)).div(S((3, 1)))
        assert q.same_known(S((-1, 1)))
        assert q.val() == -1

    def test_truncated_geometric(self):
        # [DERIVED] (t + t^2 + t^3 + ..., window 4)/t = 1 + t + t^2, window 3
        x = S((1, 1), (2, 1), (3, 1), trunc=4)
        q = x.div(S((1, 1)))
        assert q.same_known(S((0, 1), (1, 1), (2, 1), trunc=3))

    def test_infinite_support_guard(self):
        # exact quotient with unbounded support must not loop forever
        with pytest.raises(InputError):
            ValuedSeries.one(QQ, ZZ).div(S((0, 1), (1, -1)))

    def test_div_to_bounds_quotient(self):
        q = ValuedSeries.one(QQ, ZZ).div_to(S((0, 1), (1, -1)), 4)
        # 1/(1 - t) = 1 + t + t^2 + t^3 below 4
        assert q.same_known(S((0, 1), (1, 1), (2, 1), (3, 1), trunc=4))

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            S((1, 1)).div(ValuedSeries.zero(QQ, ZZ))


class TestUnit:
    def test_unit(self):
        # [TRIVIAL] 1 + t is a unit; t is not; 3 + t^5 is
        assert S((0, 1), (1, 1)).is_unit()
        assert not S((1, 1)).is_unit()
        assert S((0, 3), (5, 1)).is_unit()


class TestWindows:
    def test_is_small(self):
        assert S((5, 1)).is_small(4)
        assert not S((3, 1)).is_small(4)
        with pytest.raises(IndeterminateValError):
            S(trunc=3).is_small(4)

    def test_char_p_coefficients(self):
        f5 = GF(5)
        x = ValuedSeries(f5, ZZ, [(0, f5.from_int(3))])
        assert (x + x + x).coeff_at(0) == f5.from_int(4)
        assert (x + x).coeff_at(0) == f5.from_int(1)

    def test_json_roundtrip(self):
        x = S((1, 2), (3, -1), trunc=7)
        assert ValuedSeries.from_json(x.to_json(), QQ, ZZ).same_known(x)


class TestOtherGroups:
    """Constants, powers and inverses take their zero exponent from the
    series' own group, so Q- and lex-exponent series support them too."""

    @pytest.mark.parametrize("group, e", [(RATIONALS, Fraction(1, 2)), (Lex(2), (0, 1))])
    def test_one_pow_inverse(self, group, e):
        one = ValuedSeries.one(QQ, group)
        assert one.val() == group.zero() and one.is_unit()
        x = ValuedSeries(QQ, group, [(group.zero(), QQ.one()), (e, QQ.one())])
        cube = x ** 3
        assert cube.val() == group.zero()
        assert cube.coeff_at(group.scale(e, 2)) == 3
        inv = one.div_to(x, group.scale(e, 3))
        assert (inv * x - one).is_small(group.scale(e, 2))
        assert ValuedSeries.t_power(QQ, group, e).inverse().val() == group.neg(e)

    def test_shift_and_truncation(self):
        x = ValuedSeries(QQ, RATIONALS, [(Fraction(1, 3), QQ.one())], Fraction(2))
        y = x.shift(Fraction(1, 2))
        assert y.val() == Fraction(5, 6) and y.trunc == Fraction(5, 2)
        assert ValuedSeries.from_json(y.to_json(), QQ, RATIONALS).same_known(y)

    def test_mixed_groups_rejected(self):
        with pytest.raises(VariantMismatchError):
            ValuedSeries.one(QQ, ZZ) + ValuedSeries.one(QQ, RATIONALS)
        with pytest.raises(VariantMismatchError):
            ValuedSeries.one(QQ, Lex(2)) * ValuedSeries.one(QQ, Lex(3))

    def test_decode_is_strict(self):
        # an int exponent does not decode in Q, nor a string in Z
        with pytest.raises(InputError):
            ValuedSeries.from_json({"terms": [[0, "1/1"]]}, QQ, RATIONALS)
        with pytest.raises(InputError):
            ValuedSeries.from_json({"terms": [["1/2", "1/1"]]}, QQ, ZZ)
