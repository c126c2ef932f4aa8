"""Sparse multivariate polynomials, Hasse derivatives, resultants."""
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcert.errors import InputError
from valcert.fields import GF, QQ
from valcert.group import INF, INTEGERS as ZZ
from valcert.poly import Poly, VarTag, det, sylvester_resultant
from valcert.series import ValuedSeries

from oracles import derivative, from_int, laplace_det, subs_poly, sylvester_reference

Y0, Y1, Y2 = VarTag.orig(0), VarTag.orig(1), VarTag.orig(2)


def one(field=QQ):
    return ValuedSeries.one(field, ZZ)


@st.composite
def entry(draw, field, exact):
    """Zero half the time, else up to two monomials of degree <= 1 in Y0
    and Y1 whose coefficients have up to two terms; unless exact, each
    coefficient is truncated half the time."""
    monos = {}
    if draw(st.booleans()):
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            mono = tuple((v, 1) for v in (Y0, Y1) if draw(st.booleans()))
            terms = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                            st.integers(min_value=1, max_value=4)),
                                  min_size=1, max_size=2))
            trunc = INF if exact else draw(st.just(INF) | st.integers(min_value=1, max_value=5))
            monos[mono] = ValuedSeries(field, ZZ, [(e, from_int(field, c)) for e, c in terms],
                                       trunc)
    return Poly(field, ZZ, monos)


@st.composite
def in_y2(draw, field, exact):
    """A polynomial in Y2 of degree 1-6 whose coefficients are entries:
    the leading one nonzero, at most three others nonzero."""
    d = draw(st.integers(min_value=1, max_value=6))
    lead = draw(entry(field, exact).filter(lambda c: not c.is_zero()))
    out = lead * Poly.var(field, ZZ, Y2) ** d
    for k in draw(st.sets(st.integers(min_value=0, max_value=d - 1), max_size=3)):
        out = out + draw(entry(field, exact)) * Poly.var(field, ZZ, Y2) ** k
    return out


def resultant_pairs(exact):
    return st.sampled_from([GF(2), GF(5), QQ]).flatmap(
        lambda field: st.tuples(in_y2(field, exact), in_y2(field, exact)))


def json_bytes(p):
    return json.dumps(p.to_json()).encode()


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


class TestListingOrder:
    """Monomials are listed in tuple order, stage indices by value."""

    def poly(self):
        # Y_{0,10} + 2*Y_{0,2}: the coefficient shows which comes first
        two = ValuedSeries.scalar(QQ, ZZ, from_int(QQ, 2))
        return (Poly.var(QQ, ZZ, VarTag.stage(0, 10))
                + Poly.var(QQ, ZZ, VarTag.stage(0, 2)).scale(two))

    def test_to_json(self):
        assert [mono[0][0]["j"] for mono, _ in self.poly().to_json()] == [2, 10]

    def test_repr(self):
        p = self.poly()
        two, one_ = repr(p.monos[((VarTag.stage(0, 2), 1),)]), repr(one())
        assert repr(p) == f"Poly(({two})*stage0 + ({one_})*stage0)"

    def test_variables(self):
        assert self.poly().variables() == [VarTag.stage(0, 2), VarTag.stage(0, 10)]


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

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lead", ["exact", "truncated"])
    def test_chain_pair_leads_with_a_power_of_d(self, m, n, lead):
        # the chain relation of smooth's family construction never
        # vanishes: with p1 = F(Y) - d*A and p2 = G(Y) - e*B, the A^n
        # coefficient is +/-d^n * lc(G)^m, exact and nonzero, or truncated
        # when lc(G) is, so never an exact zero that Poly drops
        f5 = GF(5)
        A, B, Y = Y0, Y1, Y2
        t = ValuedSeries.t_power(f5, ZZ, 1)
        lc = t if lead == "exact" else ValuedSeries(f5, ZZ, [], trunc=3)
        F = Poly.var(f5, ZZ, Y) ** m + Poly.var(f5, ZZ, Y) + Poly.const(t)
        G = Poly.const(lc) * Poly.var(f5, ZZ, Y) ** n + Poly.const(one(f5))
        d, e = t * t, t
        p1 = F - Poly.var(f5, ZZ, A).scale(d)
        p2 = G - Poly.var(f5, ZZ, B).scale(e)
        coeff = sylvester_resultant(p1, p2, Y).monos[((A, n),)]
        want = (Poly.const(d) ** n * Poly.const(lc) ** m).monos[()]
        assert coeff.same_known(want) or coeff.same_known(-want)
        assert coeff.exact == (lead == "exact")


    @settings(max_examples=60, deadline=None)
    @given(resultant_pairs(exact=True))
    def test_exact_matches_standard_rows_oracle(self, pair):
        # the band order times its sign is the standard Sylvester
        # determinant: with exact coefficients, the same bytes
        p, q = pair
        assert json_bytes(sylvester_resultant(p, q, Y2)) == json_bytes(
            sylvester_reference(p, q, Y2))

    @settings(max_examples=50, deadline=None)
    @given(resultant_pairs(exact=False))
    def test_truncated_agrees_with_standard_rows_oracle(self, pair):
        # With truncated coefficients, the band order sums other products,
        # and a coefficient can be known less far than on the standard
        # rows (2 of about 40 random pairs): the two agree on every term
        # both know.
        p, q = pair
        got, want = sylvester_resultant(p, q, Y2), sylvester_reference(p, q, Y2)
        zero = ValuedSeries.zero(p.field, ZZ)
        for mono in set(got.monos) | set(want.monos):
            a, b = got.monos.get(mono, zero), want.monos.get(mono, zero)
            cap = min(a.trunc, b.trunc)
            assert a.truncate(cap).same_known(b.truncate(cap))


class TestDeterminant:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([GF(5), QQ]).flatmap(lambda field: st.tuples(
        st.integers(min_value=0, max_value=7), st.booleans()).flatmap(
        lambda nx: st.lists(st.lists(entry(field, nx[1]), min_size=nx[0], max_size=nx[0]),
                            min_size=nx[0], max_size=nx[0]))))
    def test_matches_laplace_oracle(self, rows):
        # each minor expanded once sums the terms Laplace expansion sums,
        # in its order, so the bytes agree, truncated entries included
        field = rows[0][0].field if rows else QQ
        unit = Poly.const(one(field))
        assert json_bytes(det(rows, unit)) == json_bytes(laplace_det(rows, unit))

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
    TAGS = [VarTag.orig(0), VarTag.stage(1, 3), VarTag.dup(0, "z"), VarTag.dup(2, "w")]

    def test_fields_and_repr(self):
        tag = VarTag.stage(1, 3)
        assert (tag.kind, tag.e, tag.extra) == ("stage", 1, 3)
        # no repr of its own: a message names a tag by its JSON
        assert repr(VarTag.dup(2, "z")) == "(2, 2, 'z')"

    def test_value_semantics(self):
        assert VarTag.stage(1, 3) == VarTag("stage", 1, 3)
        assert hash(VarTag.stage(1, 3)) == hash(VarTag("stage", 1, 3))
        assert VarTag.stage(1, 3) != VarTag.stage(1, 4)
        with pytest.raises(AttributeError):
            VarTag.orig(0).e = 1

    def test_tuple_order(self):
        # kind first (orig, stage, dup), then e, then the index or key by
        # value: Y_{0,2} before Y_{0,10}; equal tags sort equal
        assert sorted(self.TAGS[::-1]) == [VarTag.orig(0), VarTag.stage(1, 3),
                                           VarTag.dup(0, "z"), VarTag.dup(2, "w")]
        assert VarTag.orig(9) < VarTag.stage(0, 0) < VarTag.dup(0, "a")
        assert VarTag.stage(0, 2) < VarTag.stage(0, 10) < VarTag.stage(1, 0)
        for a in self.TAGS:
            for b in self.TAGS:
                assert (a < b) + (a == b) + (a > b) == 1

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
        assert VarTag.dup(2, "w").to_json() == {"tag": "dup", "e": 2, "key": "w"}

    @pytest.mark.parametrize("key", [["z"], True, 1, None])
    def test_dup_key_must_be_a_string(self, key):
        with pytest.raises(InputError) as exc:
            VarTag.from_json({"tag": "dup", "e": 0, "key": key})
        assert str(exc.value) == f"dup key {json.dumps(key)} is not a string"
