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

from oracles import Scalars, from_int

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
                ValuedSeries.scalar(field, ZZ, from_int(field, c)))
            d = g.hasse_derivative({tag: k})
            expect = (Poly.var(field, ZZ, tag) ** (n - k)).scale(
                ValuedSeries.scalar(field, ZZ, from_int(field, c * comb(n, k)))) \
                if k <= n else Poly.zero(field, ZZ)
            assert d.same_known(expect)


# -- one normalisation point: Poly against a naive dict oracle -----------
#
# The oracle is a polynomial in the variables and t together: a dict from
# (frozenset of (variable, exponent), t-exponent) to a nonzero field
# coefficient.  A frozenset key needs no variable order, so the oracle
# never sorts or merges a monomial the way Poly.__init__ does.

TAGS = [VarTag.orig(0), VarTag.orig(1), VarTag.stage(0, 1)]
FIELDS = [QQ, GF(2)]
raw_terms = st.lists(
    st.tuples(st.tuples(*[st.integers(min_value=0, max_value=3)] * len(TAGS)),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=-3, max_value=3)),
    max_size=6)


def naive_add(field, out, key, c):
    ops = Scalars(field)
    c = ops.add(out.pop(key, 0), c)
    if not ops.is_zero(c):
        out[key] = c


def from_terms(field, terms):
    """The same raw terms as a Poly and as an oracle dict."""
    pairs, naive = [], {}
    for exps, e, c in terms:
        mono = [(v, k) for v, k in zip(TAGS, exps) if k]
        coeff = from_int(field, c)
        pairs.append((mono[::-1], ValuedSeries(field, ZZ, [(e, coeff)])))
        naive_add(field, naive, (frozenset(mono), e), coeff)
    return Poly(field, ZZ, pairs), naive


def as_naive(p):
    """A Poly in oracle form, after checking its normal-form invariants."""
    out = {}
    for mono, coeff in p.monos.items():
        assert list(mono) == sorted(mono)
        assert len({v for v, _ in mono}) == len(mono) and all(k >= 1 for _, k in mono)
        assert coeff.exact and coeff.terms
        for e, c in coeff.terms:
            naive_add(p.field, out, (frozenset(mono), e), c)
    return out


def naive_map(field, a, fn):
    out = {}
    for (mono, e), c in a.items():
        image = fn(dict(mono), c)
        if image is not None:
            exps, c2 = image
            naive_add(field, out, (frozenset((v, k) for v, k in exps.items() if k), e), c2)
    return out


class TestNormalisation:
    @given(st.sampled_from(FIELDS), raw_terms, raw_terms)
    @settings(max_examples=150, deadline=None)
    def test_add_and_mul(self, field, xs, ys):
        (p, a), (q, b) = from_terms(field, xs), from_terms(field, ys)
        assert as_naive(p) == a and as_naive(q) == b
        total = dict(a)
        for key, c in b.items():
            naive_add(field, total, key, c)
        assert as_naive(p + q) == total
        product = {}
        for (m1, e1), c1 in a.items():
            for (m2, e2), c2 in b.items():
                exps = dict(m1)
                for v, k in m2:
                    exps[v] = exps.get(v, 0) + k
                naive_add(field, product, (frozenset(exps.items()), e1 + e2),
                          Scalars(field).mul(c1, c2))
        assert as_naive(p * q) == product

    @given(st.sampled_from(FIELDS), raw_terms,
           st.lists(st.sampled_from(TAGS), min_size=len(TAGS), max_size=len(TAGS)))
    @settings(max_examples=150, deadline=None)
    def test_rename(self, field, xs, images):
        p, a = from_terms(field, xs)
        mapping = dict(zip(TAGS, images))

        def rename(exps, c):
            out = {}
            for v, k in exps.items():
                out[mapping[v]] = out.get(mapping[v], 0) + k
            return out, c
        assert as_naive(p.rename(mapping)) == naive_map(field, a, rename)

    @given(st.sampled_from(FIELDS), raw_terms, st.sampled_from(TAGS),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_hasse_derivative(self, field, xs, tag, n):
        from math import comb
        p, a = from_terms(field, xs)

        def derive(exps, c):
            k = exps.get(tag, 0)
            if k < n:
                return None
            exps[tag] = k - n
            return exps, Scalars(field).mul(comb(k, n), c)
        assert as_naive(p.hasse_derivative({tag: n})) == naive_map(field, a, derive)

    @pytest.mark.parametrize("field", FIELDS)
    def test_rename_collapses_and_cancels(self, field):
        y0, y1 = (Poly.var(field, ZZ, tag) for tag in TAGS[:2])
        collapsed = (y0 * y1).rename({TAGS[1]: TAGS[0]})
        assert collapsed.same_known(y0 ** 2)
        assert list(collapsed.monos) == [((TAGS[0], 2),)]
        # Y0*Y1 - Y0^2 collapses to the exact zero polynomial
        cancelled = (y0 * y1 - y0 ** 2).rename({TAGS[1]: TAGS[0]})
        assert cancelled.is_zero() and cancelled.monos == {}
