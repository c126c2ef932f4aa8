"""Truncated valued series: valuation, arithmetic, division, units, JSON."""
import json
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valcert.errors import IndeterminateValError, InputError, VariantMismatchError
from valcert.fields import GF, QQ
from valcert.group import INF, INTEGERS as ZZ, RATIONALS, Lex
from valcert.poly import Poly, Powers, VarTag
from valcert.series import ValuedSeries

import oracles


def S(*pairs, trunc=INF, field=QQ):
    return ValuedSeries(field, ZZ, [(e, oracles.from_int(field, c)) for e, c in pairs], trunc)


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

    def test_zero_scalar_gives_exact_zero(self):
        # 0 * (1 + O(t^3)) is exactly 0, as the product by an exact zero is
        x = S((0, 1), trunc=3, field=GF(2))
        assert x.scalar_mul(0).is_zero_exact()
        assert x.scalar_mul(0).same_known(x * ValuedSeries.zero(GF(2), ZZ))

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

    def test_lead_numerator_not_one(self):
        # (1 + t)/(3/2 - (2/5)t) = (2/3)(1 + t) * sum (4/15)^k t^k, below t^4
        # over the one denominator 3^4 * 5^3
        x = S((0, 1), (1, 1))
        y = ValuedSeries(QQ, ZZ, [(0, Fraction(3, 2)), (1, Fraction(-2, 5))])
        q = x.div_to(y, 4)
        assert q.terms == ((0, Fraction(2, 3)), (1, Fraction(38, 45)),
                           (2, Fraction(152, 675)), (3, Fraction(608, 10125)))
        assert q.nums == ((0, 6750), (1, 8550), (2, 2280), (3, 608)) and q.den == 10125
        assert (q.terms, q.trunc) == oracles.long_division_to(x, y, 4)

    def test_exact_quotient_with_lead_numerator_not_one(self):
        y = ValuedSeries(QQ, ZZ, [(0, Fraction(-2, 5)), (1, Fraction(3, 2))])
        q = ValuedSeries(QQ, ZZ, [(0, Fraction(3, 2)), (2, QQ.one()), (3, Fraction(-1, 7))])
        assert (q * y).div(y).same_known(q)

    @pytest.mark.parametrize("num, den", [
        # (1 + t^(1,0)) * sum t^(0,k): every (0, k) lies below the top (1, -1)
        ([((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), -1)]),
        # sum t^(k,-k): the first coordinate passes 0 - 1 at once
        ([((0, 0), 1)], [((0, 0), 1), ((1, -1), -1)]),
    ])
    def test_lex_unbounded_support_rejected_at_once(self, num, den):
        x = ValuedSeries(QQ, Lex(2), [(e, Fraction(c)) for e, c in num])
        y = ValuedSeries(QQ, Lex(2), [(e, Fraction(c)) for e, c in den])
        with pytest.raises(InputError, match="unbounded support"):
            x.div(y)
        with pytest.raises(InputError, match="unbounded support"):
            oracles.long_division(x, y, max_steps=200)

    def test_lex_window_with_unbounded_support(self):
        # (1 + O(t^(2,0))) / (1 - t^(0,1)) needs every t^(0,k) below (2, 0)
        x = ValuedSeries(QQ, Lex(2), [((0, 0), QQ.one())], (2, 0))
        y = ValuedSeries(QQ, Lex(2), [((0, 0), QQ.one()), ((0, 1), -QQ.one())])
        with pytest.raises(InputError, match=r"unbounded support below its window \[2, 0\]"):
            x.div(y)
        # with (1 - t^(0,2)) on top each block's quotient is finite
        x = x - ValuedSeries(QQ, Lex(2), [((0, 2), QQ.one())])
        q = ValuedSeries(QQ, Lex(2), [((0, 0), QQ.one()), ((0, 1), QQ.one())], (2, 0))
        assert x.div(y).same_known(q)

    def test_lex_exact_quotient(self):
        # (1 - t^(0,2)) / (1 - t^(0,1)) = 1 + t^(0,1)
        x = ValuedSeries(QQ, Lex(2), [((0, 0), QQ.one()), ((0, 2), -QQ.one())])
        y = ValuedSeries(QQ, Lex(2), [((0, 0), QQ.one()), ((0, 1), -QQ.one())])
        q = ValuedSeries(QQ, Lex(2), [((0, 0), QQ.one()), ((0, 1), QQ.one())])
        assert x.div(y).same_known(q)


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
        x = ValuedSeries(f5, ZZ, [(0, oracles.from_int(f5, 3))])
        assert dict((x + x + x).terms)[0] == oracles.from_int(f5, 4)
        assert dict((x + x).terms)[0] == oracles.from_int(f5, 1)

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
        cube = oracles.series_pow(x, 3)
        assert cube.val() == group.zero()
        assert dict(cube.terms)[group.scale(e, 2)] == 3
        inv = one.div_to(x, group.scale(e, 3))
        assert (inv * x - one).is_small(group.scale(e, 2))
        assert one.div(ValuedSeries.t_power(QQ, group, e)).val() == group.neg(e)

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


def all_pairs_product(x, y):
    """The product term by term: every pair of terms multiplied as field
    scalars, then merged, zeros dropped and cut at the truncation by
    __init__."""
    add = x.group.add
    bounds = [add(a.trunc, b.val_lower()) for a, b in ((x, y), (y, x))
              if not a.exact and b.val_lower() is not INF]
    trunc = min(bounds) if bounds else INF
    mul = oracles.Scalars(x.field).mul
    return ValuedSeries(x.field, x.group, [(add(e1, e2), mul(c1, c2))
                                           for e1, c1 in x.terms for e2, c2 in y.terms], trunc)


EXPONENTS = {
    ZZ: st.integers(min_value=-3, max_value=8),
    RATIONALS: st.builds(Fraction, st.integers(min_value=-6, max_value=16),
                         st.sampled_from((1, 2, 3))),
    Lex(2): st.tuples(st.integers(min_value=-2, max_value=3),
                      st.integers(min_value=-2, max_value=3)),
}


def scalars(field):
    if field is QQ:
        # pairwise-coprime denominators, so a common denominator is a real lcm
        return st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                         st.sampled_from((1, 2, 3, 5, 7)))
    return st.integers(min_value=0, max_value=field.p - 1)


@st.composite
def factor_lists(draw, count, min_terms=0):
    """count series over one field and group; few exponents and small
    coefficients, so merges and cancellations are common.  An empty term
    list gives an exact zero (no truncation) or an inexact one.  The last
    series has at least min_terms terms before they merge."""
    field = draw(st.sampled_from([QQ, GF(2), GF(5)]))
    group = draw(st.sampled_from(list(EXPONENTS)))
    exps = EXPONENTS[group]

    def factor(least=0):
        terms = draw(st.lists(st.tuples(exps, scalars(field)), min_size=least, max_size=6))
        return ValuedSeries(field, group, terms, draw(st.one_of(st.just(INF), exps)))

    return tuple(factor() for _ in range(count - 1)) + (factor(min_terms),)


def factor_pairs():
    return factor_lists(2)


class TestProductKernel:
    """The capped, integer-accumulating product gives the term-by-term
    product's terms and window, and the same JSON."""

    @settings(max_examples=400, deadline=None)
    @given(factor_pairs())
    def test_against_all_pairs(self, xy):
        x, y = xy
        new, old = x * y, all_pairs_product(x, y)
        assert new.terms == old.terms and new.trunc == old.trunc
        assert new.to_json() == old.to_json()

    @pytest.mark.parametrize("field, x, y, known", [
        (GF(2), [(0, 1), (1, 1)], [(0, 1), (1, 1)], [(0, 1), (2, 1)]),
        (QQ, [(0, 1), (1, 1)], [(0, 1), (1, -1)], [(0, 1), (2, -1)]),
        (GF(5), [(0, 2), (1, 1)], [(0, 3), (1, 1)], [(0, 1), (2, 1)]),
    ])
    def test_cancelling_terms(self, field, x, y, known):
        # (1+t)^2 over F2, (1+t)(1-t) over Q, (2+t)(3+t) over F5: the t term cancels
        x, y = S(*x, field=field), S(*y, field=field)
        assert (x * y).same_known(S(*known, field=field))
        assert (x * y).same_known(all_pairs_product(x, y))

    def test_zero_factors(self):
        x = S((0, 1), (1, 1), trunc=5)
        assert (x * ValuedSeries.zero(QQ, ZZ)).same_known(ValuedSeries.zero(QQ, ZZ))
        # an inexact zero: no known term survives, the window is its own
        assert (x * S(trunc=3)).same_known(S(trunc=3))


class TestSum:
    """The one-pass merge gives what merging both term lists through the
    constructor's dict gives: same terms, window and JSON."""

    @settings(max_examples=400, deadline=None)
    @given(factor_pairs())
    def test_against_dict_merge(self, xy):
        x, y = xy
        new = x + y
        old = ValuedSeries(x.field, x.group, x.terms + y.terms, min(x.trunc, y.trunc))
        assert new.terms == old.terms and new.trunc == old.trunc
        assert new.to_json() == old.to_json()

    def test_cancellation_and_window(self):
        # (1 + t + t^4, O(t^6)) + (-t + t^2, O(t^3)) = 1 + t^2 + O(t^3)
        x = S((0, 1), (1, 1), (4, 1), trunc=6)
        y = S((1, -1), (2, 1), trunc=3)
        assert (x + y).same_known(S((0, 1), (2, 1), trunc=3))


class TestEvalSeries:
    @pytest.mark.parametrize("field", [QQ, GF(5)])
    def test_against_per_monomial_powers(self, field):
        Y0, Y1 = VarTag.orig(0), VarTag.orig(1)
        x = ValuedSeries(field, ZZ, [(1, oracles.from_int(field, 2)), (2, oracles.from_int(field, -1))], 9)
        y = ValuedSeries(field, ZZ, [(0, oracles.from_int(field, 3)), (3, oracles.from_int(field, 1))])
        if field is QQ:
            y = y.scalar_mul(Fraction(1, 7))
        V0, V1 = Poly.var(field, ZZ, Y0), Poly.var(field, ZZ, Y1)
        t = Poly.const(ValuedSeries.t_power(field, ZZ, 1))
        # Y0^2 and Y1^3 each occur in several monomials
        p = V0 ** 2 * V1 + V0 ** 2 + V0 * V1 ** 3 + t * V1 ** 3 + t + V0 ** 3
        values = {Y0: x, Y1: y}
        expected = ValuedSeries.zero(field, ZZ)
        for mono, coeff in p.monos.items():
            term = coeff
            for v, k in mono:
                term = term * oracles.series_pow(values[v], k)
            expected = expected + term
        assert p.eval_series(values).same_known(expected)

    def test_shared_power_table(self):
        # two polynomials evaluated through one table give what each gives
        # alone, and the table holds every power either one read
        Y0 = VarTag.orig(0)
        x = ValuedSeries(GF(3), ZZ, [(1, 1), (2, 2)], 7)
        V = Poly.var(GF(3), ZZ, Y0)
        table = Powers({Y0: x})
        for p in (V ** 3 + V, V ** 2):
            assert p.eval_series(table).same_known(p.eval_series({Y0: x}))
        assert sorted(table) == [(Y0, 1), (Y0, 2), (Y0, 3)]
        assert table[Y0, 3].same_known(oracles.series_pow(x, 3))


def assert_normal(s):
    """The integer-normal form: sorted distinct exponents below the window,
    nonzero numerators, den > 0 and gcd(den, numerators) = 1; over F_p,
    residues over den = 1."""
    nums = s.nums
    assert all(a[0] < b[0] for a, b in zip(nums, nums[1:]))
    assert all(n and e < s.trunc for e, n in nums)
    assert s.den > 0 and math.gcd(s.den, *[n for _, n in nums]) == 1
    if s.field is not QQ:
        assert s.den == 1 and all(0 < n < s.field.p for _, n in nums)


def outcome(fn, *args):
    """("ok", terms, trunc) of fn's result, a series in normal form or an
    oracle's (terms, trunc); or the type and message of the error raised."""
    try:
        got = fn(*args)
    except (IndeterminateValError, InputError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, ValuedSeries):
        assert_normal(got)
        got = got.terms, got.trunc
    return ("ok",) + tuple(got)


def lex(*pairs, trunc=INF):
    return ValuedSeries(QQ, Lex(2), [(e, Fraction(c)) for e, c in pairs], trunc)


# An exact quotient of finite support of the drawn operands lies in an
# exponent box of under 400 points, so an oracle division still growing
# after 1000 terms has unbounded support.
DIV_STEPS = 1000


@st.composite
def division_cases(draw):
    """Dividend, divisor and a delta; half the time the dividend is a
    product by the divisor, so exact quotients of finite support occur."""
    x, y = draw(factor_lists(2, min_terms=2))
    if draw(st.booleans()):
        x = x * y
    return x, y, draw(EXPONENTS[x.group])


class TestAgainstScalarOracles:
    """Each operation on integer numerators gives the terms, window or
    error that the same operation on field scalars, term by term, gives,
    and a result in normal form.  Over Q, divisor leads such as 3/2 and
    -2/5 exercise the powers of the leading numerator."""

    @settings(max_examples=300, deadline=None)
    @given(factor_pairs())
    def test_add_neg_sub(self, xy):
        x, y = xy
        assert outcome(operator.add, x, y) == outcome(oracles.series_add, x, y)
        assert outcome(operator.neg, x) == outcome(oracles.series_neg, x)
        assert outcome(operator.sub, x, y) == outcome(oracles.series_sub, x, y)

    @settings(max_examples=300, deadline=None)
    @given(factor_pairs(), st.data())
    def test_scalar_mul_and_truncate(self, xy, data):
        x, _ = xy
        c = data.draw(scalars(x.field))
        delta = data.draw(EXPONENTS[x.group])
        assert outcome(x.scalar_mul, c) == outcome(oracles.series_scalar_mul, x, c)
        assert outcome(x.truncate, delta) == outcome(oracles.series_truncate, x, delta)

    @settings(max_examples=300, deadline=None)
    @given(division_cases())
    # lex Z^2: below the window (2, 0) lie all (0, k) and (1, k); the first
    # quotient, 1 + t^(0,1) + t^(0,2) + ..., has unbounded support there
    @example((lex(((0, 0), 1), trunc=(2, 0)), lex(((0, 0), 1), ((0, 1), -1)), (1, 0)))
    @example((lex(((0, 0), 1), ((0, 2), -1), trunc=(2, 0)),
              lex(((0, 0), 1), ((0, 1), -1)), (1, 0)))
    @example((lex(((0, 0), 1), ((1, 0), 1), trunc=(2, 0)),
              lex(((0, 0), Fraction(3, 2)), ((1, 0), 1), ((1, 2), Fraction(-2, 5))), (1, 0)))
    def test_div_and_div_to(self, case):
        x, y, delta = case
        assert outcome(x.div, y) == outcome(oracles.long_division, x, y, DIV_STEPS)
        assert outcome(x.div_to, y, delta) == outcome(
            oracles.long_division_to, x, y, delta, DIV_STEPS)


def same_form(a, b):
    return (a.nums, a.den, a.trunc) == (b.nums, b.den, b.trunc)


class TestNormalForm:
    """The form is canonical: two routes to one value give one (nums, den)."""

    @settings(max_examples=300, deadline=None)
    @given(factor_lists(3))
    def test_routes_to_one_value(self, xyz):
        x, y, z = xyz
        for s in xyz:
            assert_normal(s)
        assert same_form((x + y) + z, x + (y + z))
        assert (x - x).nums == () and (x - x).den == 1
        x, y, z = (ValuedSeries(s.field, s.group, s.terms) for s in xyz)
        assert same_form((x * y) * z, x * (y * z))
        assert same_form(x * (y + z), x * y + x * z)
        if y.nums:
            assert same_form((x * y).div(y), x)

    def test_lowest_terms_after_cancellation_and_cut(self):
        # 1/2 + 1/2 t, plus 1/2 t, is 1/2 + t: over 2; cut below t, 1/2 alone
        x = ValuedSeries(QQ, ZZ, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
        y = x + ValuedSeries(QQ, ZZ, [(1, Fraction(1, 2))])
        assert y.nums == ((0, 1), (1, 2)) and y.den == 2
        assert (y - ValuedSeries(QQ, ZZ, [(0, Fraction(1, 2))])).nums == ((1, 1),)
        assert y.truncate(1).nums == ((0, 1),) and y.truncate(1).den == 2
        assert y.scalar_mul(Fraction(4, 3)).nums == ((0, 2), (1, 4))
        assert y.scalar_mul(Fraction(4, 3)).den == 3


def decoded(decode, obj, field, group=ZZ):
    """(nums, den, trunc) of a decoded series, or the class and message of
    the exception the decoder raises."""
    try:
        x = decode(obj, field, group)
    except Exception as exc:
        return type(exc), str(exc)
    return x.nums, x.den, x.trunc


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestJsonBoundary:
    """Series JSON is read and written in integer-normal form; it gives what
    reading and writing one Fraction (or residue) per coefficient gives:
    the same bytes out, and the same series, or the same error, in."""

    @settings(max_examples=400, deadline=None)
    @given(factor_lists(1))
    def test_against_scalar_json(self, xs):
        (x,) = xs
        out = x.to_json()
        assert canonical(out) == canonical(oracles.series_to_json(x))
        back = ValuedSeries.from_json(out, x.field, x.group)
        assert back.same_known(x)
        assert back.same_known(oracles.series_from_json(out, x.field, x.group))

    TERMS = [[0, 2], [2, 3], [4, 1]]

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("obj, trunc", [
        ({"terms": TERMS, "trunc": "inf", "exact": True}, INF),
        ({"terms": TERMS, "trunc": 3, "exact": False}, 3),
        ({"terms": TERMS}, INF),
        ({"terms": TERMS, "exact": True, "trunc": 3}, 3),  # trunc wins, as it always has
    ], ids=["old-exact", "old-truncated", "terms-alone", "exact-key-contradicted"])
    def test_both_spellings_read_the_same(self, field, obj, trunc):
        # an "exact" key is ignored: the series is that of the object without it
        plain = {k: v for k, v in obj.items() if k != "exact"}
        assert (decoded(ValuedSeries.from_json, obj, field)
                == decoded(ValuedSeries.from_json, plain, field)
                == decoded(oracles.series_from_json, obj, field))
        x = ValuedSeries.from_json(obj, field, ZZ)
        assert x.trunc == trunc
        assert set(x.to_json()) == ({"terms"} if trunc is INF else {"terms", "trunc"})

    SPELLINGS = ["2/4", "+1/2", " 1/2 ", "1/2\n", "1.5", "1e3", "1_0/3", "\u0663/\u0664",
                 "\u00b2/3", "-0/5", "0/7", "-6/4", "1/0", "0/0", "-1/-2", "1/", "/2", "", "-",
                 "abc", "1" * 5000 + "/3", "1/" + "7" * 5000,
                 0, 3, -7, 10 ** 30, True, False, 1.0, 0.5, None, [1, 2], {"n": 1}]

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("spelling", SPELLINGS, ids=repr)
    def test_spelling(self, field, spelling):
        # alone, and beside terms whose denominators it must share
        for terms in ([[0, spelling]], [[0, "1/3"], [1, spelling], [2, 4]]):
            obj = {"terms": terms, "trunc": "inf"}
            assert (decoded(ValuedSeries.from_json, obj, field)
                    == decoded(oracles.series_from_json, obj, field))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([QQ, GF(5)]),
           st.lists(st.one_of(st.text(alphabet="0123456789-+/ ._e\u0663", max_size=7),
                              st.integers(min_value=-30, max_value=30)),
                    min_size=1, max_size=4),
           st.one_of(st.just("inf"), st.integers(min_value=0, max_value=4)))
    def test_spellings_generated(self, field, scalars, trunc):
        # repeated exponents too, so merging and cancellation are exercised
        obj = {"terms": [[k % 3, c] for k, c in enumerate(scalars)], "trunc": trunc}
        assert (decoded(ValuedSeries.from_json, obj, field)
                == decoded(oracles.series_from_json, obj, field))
