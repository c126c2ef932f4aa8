"""Property-based checks of the module invariants (hypothesis)."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcert.fields import GF, QQ
from valcert.group import INF, INTEGERS as ZZ, RATIONALS, Lex
from valcert.pcs import RuleSequence
from valcert.poly import Poly, VarTag
from valcert.separation import sep_multi, sep_tail
from valcert.series import ValuedSeries

ints = st.integers(min_value=-50, max_value=50)
# each value group with a strategy for its raw elements
GROUPS = [(ZZ, ints),
          (RATIONALS, st.fractions(min_value=-20, max_value=20)),
          (Lex(2), st.tuples(ints, ints))]


def in_one_group(n):
    """A group and n of its elements."""
    return st.sampled_from(GROUPS).flatmap(
        lambda ge: st.tuples(st.just(ge[0]), *[ge[1]] * n))


class TestGroupLaws:
    @given(in_one_group(3))
    def test_associative_commutative(self, gxyz):
        G, x, y, z = gxyz
        assert G.add(G.add(x, y), z) == G.add(x, G.add(y, z))
        assert G.add(x, y) == G.add(y, x)
        assert G.add(x, G.zero()) == x
        assert G.add(x, G.neg(x)) == G.zero()
        assert G.sub(G.add(x, y), y) == x

    @given(in_one_group(3))
    def test_order_translation_invariant(self, gxyz):
        # x < y iff x + c < y + c, lexicographically for tuples
        G, x, y, c = gxyz
        assert (x < y) == (G.add(x, c) < G.add(y, c))

    @given(st.integers(min_value=-6, max_value=6).filter(bool), ints, ints)
    def test_solve_scalar_solves(self, t, d, d2):
        sol = ZZ.solve_scalar(t, d)
        if sol is not None:
            assert ZZ.scale(sol, t) == d
        else:
            assert d % t != 0
        sol = Lex(2).solve_scalar(t, (d, d2))
        if sol is not None:
            assert Lex(2).scale(sol, t) == (d, d2)
        else:
            assert d % t or d2 % t
        assert RATIONALS.scale(RATIONALS.solve_scalar(t, Fraction(d)), t) == d

    @given(in_one_group(1))
    def test_infinity_tops(self, gx):
        _, x = gx
        assert x < INF and INF > x and x <= INF and INF >= x
        assert not INF < x and x != INF and min(x, INF) == x


series_terms = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12),
              st.integers(min_value=-9, max_value=9)),
    max_size=5)


def mk_series(pairs):
    return ValuedSeries(QQ, ZZ, [(e, Fraction(c)) for e, c in pairs])


class TestUltrametric:
    @given(series_terms, series_terms)
    def test_val_of_sum(self, xs, ys):
        x, y = mk_series(xs), mk_series(ys)
        s = x + y
        vx, vy, vs = x.val_lower(), y.val_lower(), s.val_lower()
        assert vs >= min(vx, vy)
        if vx is not INF and vy is not INF and vx != vy:
            assert s.val() == min(vx, vy)

    @given(series_terms, series_terms)
    def test_val_of_product(self, xs, ys):
        x, y = mk_series(xs), mk_series(ys)
        p = x * y
        if x.terms and y.terms:
            assert p.val() == x.val() + y.val()

    @given(series_terms)
    def test_division_inverts(self, xs):
        x = mk_series(xs)
        if not x.terms:
            return
        t3 = ValuedSeries.t_power(QQ, ZZ, 3)
        assert (x * t3).div(t3).same_known(x)


class TestPseudoConvergence:
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4),
           st.permutations([0, 1, 2, 3]))
    @settings(max_examples=30)
    def test_gap_inequality(self, a, b, _perm):
        seq = RuleSequence(QQ, {"kind": "arith", "a": a, "b": b},
                           {"kind": "const", "c": 1}, horizon=60)
        for (i, j, k) in [(0, 1, 2), (3, 7, 11), (2, 10, 20)]:
            vi, vj, vk = seq.term(i), seq.term(j), seq.term(k)
            assert (vi - vk).val() < (vj - vk).val()


betas_strategy = st.lists(st.integers(min_value=-20, max_value=20),
                          min_size=1, max_size=5)


class TestSeparationBruteForce:
    @given(betas_strategy, st.data())
    @settings(max_examples=40, deadline=None)
    def test_tail_verified_exhaustively(self, betas, data):
        ts = [data.draw(st.integers(min_value=-5, max_value=5).filter(bool))
              for _ in betas]
        pairs = list(zip(betas, ts))
        if len(set(pairs)) != len(pairs):
            return  # hypothesis of the lemma violated
        gamma = [s for s in range(1, 101)]
        try:
            cert = sep_tail([b for b in betas], ts, gamma)
        except Exception:
            return  # horizon/hypothesis failures are allowed, not wrong answers
        nu, r = cert.data["nu"], cert.data["r"]
        # brute force: claims hold past nu, and break at nu when nu > 0
        for s in range(nu + 1, 101):
            vals = [b + t * s for b, t in pairs]
            assert len(set(vals)) == len(vals)
            if r is not None:
                assert all(vals[r] < v for i, v in enumerate(vals) if i != r)
        if nu > 0:
            vals = [b + t * nu for b, t in pairs]
            collision = len(set(vals)) != len(vals)
            min_fails = r is not None and any(
                not vals[r] < v for i, v in enumerate(vals) if i != r)
            assert collision or min_fails
        cert.verify()

    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_multi_distinctness(self, b0, b1):
        g = [s for s in range(1, 61)]
        cert = sep_multi([[0], [1], [0, 1]], [b0, b1, 0],
                         [1, 2], [g, g], [0, 0])
        j0, j1 = cert.data["js"]
        vals = {b0 + j0, b1 + 2 * j1, j0 + 2 * j1}
        assert len(vals) == 3
        cert.verify()


class TestHasseLeibniz:
    @given(st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=40)
    def test_monomial_rule(self, k, n, c):
        # D^(k)(c*Y^n) = binom(n,k) c Y^(n-k), valid in every characteristic
        from math import comb
        for field in (QQ, GF(2), GF(3)):
            tag = VarTag.orig(0)
            g = (Poly.var(field, ZZ, tag) ** n).scale(
                ValuedSeries.scalar(field, ZZ, field.from_int(c)))
            d = g.hasse_derivative({tag: k})
            expect = (Poly.var(field, ZZ, tag) ** (n - k)).scale(
                ValuedSeries.scalar(field, ZZ, field.from_int(c * comb(n, k)))) \
                if k <= n else Poly.zero(field, ZZ)
            assert d.same_known(expect)
