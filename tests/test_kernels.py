"""Differential tests of the rewrite kernels against the reference oracles.

The stabilization walk (rewrite._stable_betas) must give the per-derivative
scan's (beta, start) dict, or fail with the same exit code, while it
evaluates a derivative only where the Taylor bound cannot decide; Taylor
recentring in Hasse form must give what the Hasse-derivative sum and
one-variable-at-a-time substitution give, truncation windows included.
"""
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcert.errors import HorizonError, IndeterminateValError, InputError
from valcert.fields import GF, QQ
from valcert.group import INF, INTEGERS as ZZ, RATIONALS, Lex
from valcert.pcs import RuleSequence, lacunary_sequence
from valcert.poly import Poly, VarTag
from valcert.rewrite import _stable_betas, taylor_recenter
from valcert.series import ValuedSeries

from oracles import stable_betas, taylor_via_hasse, taylor_via_subs

FIELDS = [QQ, GF(2), GF(3), GF(5)]
Y0, Y1 = VarTag.orig(0), VarTag.orig(1)
TAGS = [Y0, Y1]


def _q(lo, hi):
    return st.builds(Fraction, st.integers(min_value=lo, max_value=hi),
                     st.sampled_from((1, 2, 3)))


# For each group: coefficient exponents (negatives too), nonnegative
# sequence starts, and positive steps.
GROUPS = {
    ZZ: (st.integers(min_value=-2, max_value=6), st.integers(min_value=0, max_value=3),
         st.integers(min_value=1, max_value=3)),
    RATIONALS: (_q(-4, 12), _q(0, 6), _q(1, 6)),
    Lex(2): (st.tuples(st.integers(min_value=-1, max_value=3),
                       st.integers(min_value=-2, max_value=2)),
             st.tuples(st.integers(min_value=1, max_value=2),
                       st.integers(min_value=-2, max_value=2)) | st.just((0, 0)),
             st.tuples(st.integers(min_value=0, max_value=1),
                       st.integers(min_value=1, max_value=2))),
}


def units(field):
    if field is QQ:
        return st.builds(Fraction, st.sampled_from((-2, -1, 1, 3)), st.sampled_from((1, 2)))
    return st.integers(min_value=1, max_value=field.p - 1)


def scalars(field):
    return st.just(field.from_int(0)) | units(field)


@st.composite
def coefficient(draw, field, group, exact=False):
    """A series with up to three terms; unless exact, inexact half the time."""
    exps = GROUPS[group][0]
    terms = draw(st.lists(st.tuples(exps, scalars(field)), max_size=3))
    trunc = INF if exact else draw(st.just(INF) | exps)
    return ValuedSeries(field, group, terms, trunc)


@st.composite
def polynomial(draw, field, group, tags, max_deg=3, exact=False):
    monos = {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        mono = tuple((t, k) for t in tags
                     if (k := draw(st.integers(min_value=0, max_value=max_deg))))
        monos[mono] = draw(coefficient(field, group, exact))
    return Poly(field, group, monos)


@st.composite
def sequence(draw, field, group, horizon):
    _, start, step = GROUPS[group]
    kind = draw(st.sampled_from(("arith", "geom")))
    if kind == "arith":
        rule = {"kind": "arith", "a": draw(start), "b": draw(step)}
    else:
        rule = {"kind": "geom", "a": draw(step)}
    coeffs = draw(st.lists(units(field), min_size=1, max_size=3))
    return RuleSequence(field, rule, {"kind": "cycle", "values": coeffs}, horizon)


@st.composite
def walk_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    group = draw(st.sampled_from(list(GROUPS)))
    nvars = draw(st.integers(min_value=1, max_value=2))
    # short horizons reach NotStabilizedError
    horizon = draw(st.integers(min_value=2, max_value=16))
    seqs = [draw(sequence(field, group, horizon)) for _ in range(nvars)]
    h = draw(polynomial(field, group, TAGS[:nvars]))
    # A root at a partial sum v_{e,k} makes values rise up to index k.
    for e in draw(st.lists(st.integers(min_value=0, max_value=nvars - 1), max_size=2)):
        k = draw(st.integers(min_value=1, max_value=horizon - 1))
        root = Poly.var(field, group, TAGS[e]) - Poly.const(seqs[e].term(k))
        h = h * root
    return h, seqs, draw(st.integers(min_value=1, max_value=8))


def outcome(fn, *args):
    """("ok", value), or ("exit", code) with the CLI's exit code."""
    try:
        return "ok", fn(*args)
    except (HorizonError, IndeterminateValError):
        return "exit", 2
    except InputError:
        return "exit", 1


class TestWalk:
    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_against_per_derivative_scan(self, case):
        h, seqs, W = case
        got, want = outcome(_stable_betas, h, seqs, W), outcome(stable_betas, h, seqs, W)
        assert got == want
        if got[0] == "ok":
            assert list(got[1]) == list(want[1])

    @pytest.mark.parametrize("group, a", [(ZZ, 1), (RATIONALS, Fraction(1, 2)),
                                          (Lex(2), (0, 1))])
    @pytest.mark.parametrize("field", FIELDS)
    def test_fixed_cases(self, field, group, a):
        seq = RuleSequence(field, {"kind": "geom", "a": a}, {"kind": "const", "c": field.one()})
        t = ValuedSeries.t_power(field, group, a)
        V = Poly.var(field, group, Y0)
        # a root at v_3 keeps h(v_j) rising for three steps
        root = Poly.const(seq.term(3))
        for h in (V ** 3 + V.scale(t), (V - root) * (V - root) * V, V ** 2):
            for W in (1, 4, 8):
                assert outcome(_stable_betas, h, [seq], W) == outcome(stable_betas, h, [seq], W)

    def test_evaluates_only_where_the_bound_cannot_decide(self):
        # Y^3 + tY along t + t^2 + t^4 + ...: past j = 0 the bound decides
        # every value but that of D^(2) = 3Y at j = 1, which was an exact
        # zero at v_0, and an exact zero is never carried.
        V = Poly.var(QQ, ZZ, Y0)
        h = V ** 3 + V.scale(ValuedSeries.t_power(QQ, ZZ, 1))
        seq = lacunary_sequence(QQ)
        evaluate = Poly.eval_series
        with mock.patch.object(Poly, "eval_series", autospec=True,
                               side_effect=evaluate) as spy:
            betas = _stable_betas(h, [seq], 8)
        assert betas == stable_betas(h, [seq], 8) == {(1,): (1, 0), (2,): (1, 1), (3,): (0, 0)}
        assert spy.call_count == 1

    def test_closed_window_stays_in_the_bound(self):
        # gamma_j = 2^j.  D^(2)h is (Y - A)(Y - B), A, B = v_3, v_2 + t^20:
        # its value climbs to 24 at j = 2, its W = 2 window closes at j = 3,
        # and it falls to 12 at j = 4.  D^(1)h is t^30 at v_4; only a bound
        # on D^(2)h that takes the fall (its min with the Taylor bound)
        # lets the walk see D^(1)h fall to 28 at j = 5.  A bound frozen at
        # 24 carries 30 and gives (30, 4).
        seq = RuleSequence(QQ, {"kind": "geom", "a": 1}, {"kind": "const", "c": QQ.one()})
        V = Poly.var(QQ, ZZ, Y0)
        t20 = ValuedSeries.t_power(QQ, ZZ, 20)
        A, B = seq.term(3) + t20, seq.term(2) + t20

        def c(x):
            return Poly.const(x if isinstance(x, ValuedSeries)
                              else ValuedSeries.scalar(QQ, ZZ, Fraction(x)))

        core = c("1/6") * V ** 4 - c("1/3") * c(A + B) * V ** 3 + c(A * B) * V ** 2
        d1 = core.hasse_derivative({Y0: 1}).eval_series({Y0: seq.term(4)})
        h = core + V.scale(ValuedSeries.t_power(QQ, ZZ, 30) - d1)
        betas = _stable_betas(h, [seq], 2)
        assert betas == stable_betas(h, [seq], 2)
        assert betas[(1,)] == (28, 5) and betas[(2,)] == (24, 2)


@st.composite
def recentre_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    group = draw(st.sampled_from(list(GROUPS)))
    nvars = draw(st.integers(min_value=1, max_value=2))
    tags = TAGS[:nvars]
    newtags = {t: VarTag.stage(t.e, draw(st.integers(min_value=0, max_value=5)))
               for t in tags}
    g = draw(polynomial(field, group, tags, max_deg=4))
    # g may already hold a new variable: its exponents add up
    for new in draw(st.lists(st.sampled_from(list(newtags.values())), max_size=2)):
        g = g * Poly.var(field, group, new)
    centers = {t: draw(coefficient(field, group, exact=True)) for t in tags}
    scales = {}
    for t in tags:
        s = draw(coefficient(field, group, exact=True))
        scales[t] = s if s.terms else ValuedSeries.one(field, group)
    return g, centers, scales, newtags


class TestRecentre:
    @settings(max_examples=300, deadline=None)
    @given(recentre_cases())
    def test_against_both_oracles(self, case):
        out = taylor_recenter(*case)
        assert out.same_known(taylor_via_subs(*case))
        g, centers = case[0], case[1]
        if all(v in centers for v in g.variables()):
            # the Hasse-derivative sum evaluates every variable at a centre
            assert out.same_known(taylor_via_hasse(*case))

    def test_new_variable_already_in_g(self):
        # Y0*S at Y0 = v + s*S is v*S + s*S^2, not (v + s)*S
        v, s = ValuedSeries.t_power(QQ, ZZ, 1), ValuedSeries.t_power(QQ, ZZ, 2)
        S = VarTag.stage(0, 3)
        g = Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, S)
        case = (g, {Y0: v}, {Y0: s}, {Y0: S})
        want = Poly(QQ, ZZ, {((S, 1),): v, ((S, 2),): s})
        assert taylor_recenter(*case).same_known(want)
        assert taylor_via_subs(*case).same_known(want)

    @pytest.mark.parametrize("field", [GF(2), GF(3)])
    def test_inexact_coefficients_char_p(self, field):
        # (1 + O(t^3)) Y^2 over F2: D^(1) has the coefficient 2 = 0, an
        # exact zero, so no O(t^6) Y term appears on either side.
        one = ValuedSeries(field, ZZ, [(0, field.one())], 3)
        g = (Poly.var(field, ZZ, Y0) ** 2).scale(one) + (Poly.var(field, ZZ, Y0) ** 3).scale(one)
        if field.p == 2:
            assert (Poly.var(field, ZZ, Y0) ** 2).scale(one).hasse_derivative({Y0: 1}).is_zero()
        case = (g, {Y0: ValuedSeries.t_power(field, ZZ, 1)},
                {Y0: ValuedSeries.t_power(field, ZZ, 3)}, {Y0: VarTag.stage(0, 1)})
        out = taylor_recenter(*case)
        assert out.same_known(taylor_via_hasse(*case))
        assert out.same_known(taylor_via_subs(*case))

    def test_partial_recentring(self):
        # Y1 is left alone when only Y0 is recentred
        field = GF(3)
        g = Poly.var(field, ZZ, Y0) ** 2 * Poly.var(field, ZZ, Y1) + Poly.var(field, ZZ, Y1)
        case = (g, {Y0: ValuedSeries.t_power(field, ZZ, 1)},
                {Y0: ValuedSeries.t_power(field, ZZ, 2)}, {Y0: VarTag.stage(0, 0)})
        assert taylor_recenter(*case).same_known(taylor_via_subs(*case))

    def test_zero_scale_rejected(self):
        with pytest.raises(InputError):
            taylor_recenter(Poly.var(QQ, ZZ, Y0), {Y0: ValuedSeries.one(QQ, ZZ)},
                            {Y0: ValuedSeries.zero(QQ, ZZ)}, {Y0: VarTag.stage(0, 0)})
