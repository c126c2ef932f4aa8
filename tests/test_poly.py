"""Sparse multivariate polynomials, Hasse derivatives, resultants."""
import pickle

import pytest

from valcert.errors import InputError
from valcert.fields import GF, QQ
from valcert.group import INTEGERS as ZZ
from valcert.poly import Poly, VarTag, det, sylvester_resultant
from valcert.series import ValuedSeries

from oracles import derivative, from_int, subs_poly

Y0, Y1, Y2 = VarTag.orig(0), VarTag.orig(1), VarTag.orig(2)


def one(field=QQ):
    return ValuedSeries.one(field, ZZ)


class TestHasse:
    def test_second_of_square_char2(self):
        # [TRIVIAL] D^(2)(Y^2) = binom(2,2) = 1, valid over F2
        f2 = GF(2)
        g = Poly.var(f2, ZZ, Y0) ** 2
        d = g.hasse_derivative({Y0: 2})
        assert d.same_known(Poly.const(ValuedSeries.one(f2, ZZ)))

    def test_first_of_cube(self):
        # [TRIVIAL] D^(1)(Y^3) = 3 Y^2
        g = Poly.var(QQ, ZZ, Y0) ** 3
        d = g.hasse_derivative({Y0: 1})
        assert d.same_known((Poly.var(QQ, ZZ, Y0) ** 2).scale(
            ValuedSeries.scalar(QQ, ZZ, from_int(QQ, 3))))

    def test_mixed_bilinear(self):
        # [TRIVIAL] D^(1,1)(Y1*Y2) = 1
        g = Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, Y1)
        d = g.hasse_derivative({Y0: 1, Y1: 1})
        assert d.same_known(Poly.const(one()))

    def test_factorial_relation_over_Q(self):
        # n! * D^(n) equals the n-fold ordinary derivative over Q
        g = Poly.var(QQ, ZZ, Y0) ** 5 + (Poly.var(QQ, ZZ, Y0) ** 2).scale(
            ValuedSeries.t_power(QQ, ZZ, 1))
        it = g
        for _ in range(3):
            it = derivative(it, Y0)
        hd = g.hasse_derivative({Y0: 3}).scale(
            ValuedSeries.scalar(QQ, ZZ, from_int(QQ, 6)))
        assert hd.same_known(it)


class TestAlgebra:
    def test_subs_poly(self):
        g = Poly.var(QQ, ZZ, Y0) ** 2
        sub = Poly.var(QQ, ZZ, Y1) + Poly.const(one())
        out = subs_poly(g, Y0, sub)
        expect = (Poly.var(QQ, ZZ, Y1) ** 2
                  + Poly.var(QQ, ZZ, Y1).scale(ValuedSeries.scalar(QQ, ZZ, from_int(QQ, 2)))
                  + Poly.const(one()))
        assert out.same_known(expect)

    def test_rename_merges(self):
        g = Poly.var(QQ, ZZ, Y0) + Poly.var(QQ, ZZ, Y1)
        out = g.rename({Y1: Y0})
        assert out.same_known(Poly.var(QQ, ZZ, Y0).scale(
            ValuedSeries.scalar(QQ, ZZ, from_int(QQ, 2))))

    def test_eval_series(self):
        g = Poly.var(QQ, ZZ, Y0) ** 2 + Poly.const(one())
        t = ValuedSeries.t_power(QQ, ZZ, 1)
        assert g.eval_series({Y0: t}).same_known(
            ValuedSeries(QQ, ZZ, [(0, QQ.one()), (2, QQ.one())]))

    def test_json_roundtrip(self):
        g = (Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, Y1)
             + Poly.var(QQ, ZZ, Y0).scale(ValuedSeries.t_power(QQ, ZZ, 2)))
        assert Poly.from_json(g.to_json(), QQ, ZZ).same_known(g)

    def test_json_zero_coefficients_dropped(self):
        zero = {"terms": [], "trunc": "inf"}
        unknown = {"terms": [], "trunc": 2}
        one_json = {"terms": [[0, "1/1"]], "trunc": "inf"}
        obj = [[[[Y1.to_json(), 1], [Y0.to_json(), 2]], one_json],
               [[[Y0.to_json(), 1]], zero], [[[Y1.to_json(), 0]], unknown]]
        p = Poly.from_json(obj, QQ, ZZ)
        # the exact zero goes, an inexact zero stays; Y1^0 is the constant monomial
        assert list(p.monos) == [((Y0, 2), (Y1, 1)), ()]
        assert p.same_known(Poly(QQ, ZZ, [(((Y1, 1), (Y0, 2)), one()),
                                          ((), ValuedSeries(QQ, ZZ, [], 2))]))

    @pytest.mark.parametrize("first", [{"terms": [], "trunc": "inf"},
                                       {"terms": [[0, "1/1"]], "trunc": "inf"}],
                             ids=["after-zero", "after-nonzero"])
    def test_json_repeated_monomial(self, first):
        # the repeat is found also when the first copy is an exact zero that
        # the polynomial drops; the order of the variables does not matter
        one_json = {"terms": [[0, "1/1"]], "trunc": "inf"}
        obj = [[[[Y0.to_json(), 1], [Y1.to_json(), 1]], first],
               [[[Y1.to_json(), 1], [Y0.to_json(), 1]], one_json]]
        with pytest.raises(InputError, match="repeated monomial"):
            Poly.from_json(obj, QQ, ZZ)

    @pytest.mark.parametrize("mono", [[[Y0, 1], [Y0, 1]], [[Y0, 2], [Y1, 1], [Y0, 1]]],
                             ids=["adjacent", "apart"])
    def test_json_repeated_variable(self, mono):
        # Y0 twice would read as one power of Y0 in one place and another
        # elsewhere; a zero exponent is no listing, so [[Y0, 0], [Y0, 1]] is Y0
        one_json = {"terms": [[0, "1/1"]], "trunc": "inf"}
        obj = [[[[v.to_json(), k] for v, k in mono], one_json]]
        with pytest.raises(InputError, match="a monomial lists one variable twice"):
            Poly.from_json(obj, QQ, ZZ)
        obj = [[[[Y0.to_json(), 0], [Y0.to_json(), 1]], one_json]]
        assert list(Poly.from_json(obj, QQ, ZZ).monos) == [((Y0, 1),)]

    def test_vartag_sorting_and_json(self):
        tags = [VarTag.stage(1, 3), VarTag.orig(0), VarTag.dup(2, "z")]
        for t in tags:
            assert VarTag.from_json(t.to_json()) == t


class TestResultant:
    def test_eliminates_shared_root(self):
        # [DERIVED] Res_Y(Y^2 - A, Y^3 - B) vanishes iff A^3 = B^2:
        # check it equals +/-(B^2 - A^3) coefficientwise.
        A, B, Y = VarTag.orig(0), VarTag.orig(1), VarTag.orig(2)
        p = Poly.var(QQ, ZZ, Y) ** 2 - Poly.var(QQ, ZZ, A)
        q = Poly.var(QQ, ZZ, Y) ** 3 - Poly.var(QQ, ZZ, B)
        r = sylvester_resultant(p, q, Y)
        target = Poly.var(QQ, ZZ, B) ** 2 - Poly.var(QQ, ZZ, A) ** 3
        assert r.same_known(target) or r.same_known(-target)

    def test_linear_pair(self):
        # Res_Y(Y - A, Y - B) = +/-(A - B)
        Y = VarTag.orig(2)
        p = Poly.var(QQ, ZZ, Y) - Poly.var(QQ, ZZ, Y0)
        q = Poly.var(QQ, ZZ, Y) - Poly.var(QQ, ZZ, Y1)
        r = sylvester_resultant(p, q, Y)
        t = Poly.var(QQ, ZZ, Y0) - Poly.var(QQ, ZZ, Y1)
        assert r.same_known(t) or r.same_known(-t)


class TestDeterminant:
    def test_two_by_two(self):
        # [TRIVIAL] det [[A, 1], [2, B]] = AB - 2
        A, B = Poly.var(QQ, ZZ, Y0), Poly.var(QQ, ZZ, Y1)
        c = Poly.const(ValuedSeries.scalar(QQ, ZZ, from_int(QQ, 2)))
        unit = Poly.const(one())
        assert det([[A, unit], [c, B]], unit).same_known(A * B - c)

    @pytest.mark.parametrize("n, reversed_, sign", [(1100, False, 1), (1099, True, -1)],
                             ids=["identity", "reversal"])
    def test_more_rows_than_the_recursion_limit(self, n, reversed_, sign):
        # one expansion level per row, past Python's recursion limit; the
        # reversal of 1099 columns has sign (-1)^(1099*1098/2) = -1
        unit, zero = Poly.const(one()), Poly.zero(QQ, ZZ)
        rows = [[unit if j == (n - 1 - i if reversed_ else i) else zero for j in range(n)]
                for i in range(n)]
        assert det(rows, unit).same_known(unit if sign == 1 else -unit)


class TestVarTag:
    TAGS = [VarTag.orig(0), VarTag.stage(1, 3), VarTag.dup(0, "z"), VarTag.dup(2, ("z", 1))]

    def test_fields_and_repr(self):
        tag = VarTag.stage(1, 3)
        assert (tag.kind, tag.e, tag.extra) == ("stage", 1, 3)
        assert repr(VarTag.orig(0)) == "VarTag(kind='orig', e=0, extra=None)"
        assert f"{VarTag.dup(2, ('z', 1))}" == "VarTag(kind='dup', e=2, extra=('z', 1))"

    def test_value_semantics(self):
        assert VarTag.stage(1, 3) == VarTag("stage", 1, 3)
        assert hash(VarTag.stage(1, 3)) == hash(VarTag("stage", 1, 3))
        assert VarTag.stage(1, 3) != VarTag.stage(1, 4)
        with pytest.raises(AttributeError):
            VarTag.orig(0).e = 1

    def test_sort_key(self):
        # equal tags whose extras print differently keep their own keys
        for tag in self.TAGS:
            assert tag.sort_key() == (("orig", "stage", "dup").index(tag.kind), tag.e,
                                      repr(tag.extra))
        assert VarTag.dup(5, 1).sort_key() == (2, 5, "1")
        assert VarTag.dup(5, True).sort_key() == (2, 5, "True")
        assert VarTag.dup(5, 1.0).sort_key() == (2, 5, "1.0")
        assert VarTag.dup(5, (1,)).sort_key() == (2, 5, "(1,)")
        assert VarTag.dup(5, (True,)).sort_key() == (2, 5, "(True,)")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            VarTag("mystery", 0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for tag in self.TAGS:
            back = pickle.loads(pickle.dumps(tag, protocol))
            assert back == tag and type(back) is VarTag and back.extra == tag.extra

    def test_json_round_trip(self):
        for tag in self.TAGS:
            assert VarTag.from_json(tag.to_json()) == tag
