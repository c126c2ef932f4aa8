"""Pseudo-convergent sequences: partial sums, stages, restaging, stable values."""
from fractions import Fraction

import pytest

from valcert.errors import HorizonError, InputError
from valcert.fields import QQ
from valcert.group import INF, INTEGERS as ZZ, RATIONALS, Lex
from valcert.pcs import (DerivedSequence, RuleSequence, TableSequence,
                         lacunary_sequence, sequence_from_json)
from valcert.poly import Poly, VarTag
from valcert.rewrite import DEFAULT_WINDOW, _stable_betas
from valcert.series import ValuedSeries

from oracles import from_int

T = VarTag.orig(0)


def arith_seq(horizon=300):
    # exponents e_j = j + 1, coefficients 1
    return RuleSequence(QQ, {"kind": "arith", "a": 1, "b": 1},
                        {"kind": "const", "c": 1}, horizon=horizon)


def walk_value(poly, seqs, W=DEFAULT_WINDOW):
    """Stable value of val(poly(v_{0,j}, ..., v_{m,j})) read off the
    stabilization walk: poly is the Hasse derivative D^(0,...,0,1) of
    poly * Y_m, a fresh variable given a copy of the first sequence."""
    m = len(seqs)
    h = poly * Poly.var(poly.field, poly.group, VarTag.orig(m))
    return _stable_betas(h, list(seqs) + [seqs[0]], W)[(0,) * m + (1,)]


def S(*pairs, trunc=None):
    tr = trunc if trunc is not None else INF
    return ValuedSeries(QQ, ZZ, [(e, from_int(QQ, c)) for e, c in pairs], tr)


class TestTerms:
    def test_partial_sum(self):
        # [TRIVIAL] e_j = j+1: v_3 = t + t^2 + t^3
        assert arith_seq().term(3).same_known(S((1, 1), (2, 1), (3, 1)))

    def test_empty_sum(self):
        # [TRIVIAL] v_0 = 0
        assert arith_seq().term(0).is_zero_exact()

    def test_geometric(self):
        # [TRIVIAL] e_j = 2^j: v_2 = t + t^2
        assert lacunary_sequence(QQ).term(2).same_known(S((1, 1), (2, 1)))

    def test_gamma(self):
        # [TRIVIAL] gammas
        assert arith_seq().gamma(4) == 5
        assert lacunary_sequence(QQ).gamma(3) == 8

    def test_gamma_monotone(self):
        for seq in (arith_seq(), lacunary_sequence(QQ)):
            assert seq.gamma(2) < seq.gamma(3)

    def test_horizon_enforced(self):
        with pytest.raises(HorizonError):
            arith_seq(horizon=5).term(7)


class TestDerived:
    def test_failed_read_fails_the_same_way_again(self):
        # the window doubles from 4 until it holds term 5 (exponent 32); the
        # materialization below 32 fails, and a second read asks for the
        # same window, not a doubled one
        seq = lacunary_sequence(QQ)
        asked = []

        def materialize(delta):
            asked.append(delta)
            if delta > 16:
                raise HorizonError(f"no support below {delta}")
            return seq.limit(delta)

        derived = DerivedSequence(QQ, materialize, 4)
        for _ in range(2):
            with pytest.raises(HorizonError, match="below 32$"):
                derived.term_pair(5)
        assert asked == [4, 8, 16, 32, 32]
        assert derived.term_pair(3) == (8, 1)

    def test_exact_series_ends_the_sequence(self):
        derived = DerivedSequence(QQ, lambda delta: S((0, 1), (1, 1), (3, 1)), 4)
        assert derived.term_pair(2) == (3, 1)
        with pytest.raises(HorizonError, match="^underlying series has only 3 terms$"):
            derived.term_pair(3)

    def test_stalled_materialization_raises(self):
        # every window gives the same two terms known below 4
        derived = DerivedSequence(QQ, lambda delta: S((0, 1), (1, 1), trunc=4), 4)
        with pytest.raises(HorizonError, match="^materialization stalled"):
            derived.term_pair(2)


class TestStage:
    def test_arith_stage(self):
        # [DERIVED] j=0: (y - 0)/t = 1 + t + t^2 below delta 3
        st = arith_seq().stage(0, 3)
        assert st.terms == S((0, 1), (1, 1), (2, 1)).terms

    def test_geom_stage(self):
        # [DERIVED] e_j = 2^j, j=1: (t^2 + t^4 + t^8 + ...)/t^2 known below 7
        # is 1 + t^2 + t^6 (the quotient itself is truncated at delta)
        st = lacunary_sequence(QQ).stage(1, 7)
        assert st.terms == S((0, 1), (2, 1), (6, 1)).terms
        assert st.trunc == 7

    def test_stage_is_unit(self):
        for seq in (arith_seq(), lacunary_sequence(QQ)):
            assert seq.stage(2, 40).is_unit()


class TestRestage:
    def test_arith_restage(self):
        # [DERIVED] j=0, t=1: d = 1, b = t
        d, b = arith_seq().restage_coeffs(0, 1)
        assert d.same_known(S((0, 1)))
        assert b.same_known(S((1, 1)))

    def test_order_precondition(self):
        # [TRIVIAL] j < t required
        with pytest.raises(InputError):
            arith_seq().restage_coeffs(2, 2)

    def test_restage_identity(self):
        # [DERIVED] stage_j = d + b * stage_t on the common window
        seq = lacunary_sequence(QQ)
        delta = 40
        d, b = seq.restage_coeffs(1, 3)
        lhs = seq.stage(1, delta)
        rhs = d + b * seq.stage(3, delta)
        assert (lhs - rhs).is_small(30)


class TestClassify:
    def test_stable_vals(self):
        # [DERIVED] f=T -> 1; f=1+T -> 0; f=T^2 -> 2
        # through the walk (a single sequence is a list of one)
        seq = [arith_seq()]
        assert walk_value(Poly.var(QQ, ZZ, T), seq)[0] == 1
        assert walk_value(Poly.var(QQ, ZZ, T) + Poly.const(ValuedSeries.one(QQ, ZZ)),
                          seq)[0] == 0
        assert walk_value(Poly.var(QQ, ZZ, T) ** 2, seq)[0] == 2


class TestPseudoConvergence:
    def test_triple_inequality(self):
        # val(v_i - v_k) < val(v_j - v_k) for i < j < k
        for seq in (arith_seq(), lacunary_sequence(QQ)):
            for (i, j, k) in [(0, 1, 2), (1, 3, 5), (2, 4, 9)]:
                vi, vj, vk = seq.term(i), seq.term(j), seq.term(k)
                assert (vi - vk).val() < (vj - vk).val()


class TestSerialization:
    def test_rule_roundtrip(self):
        seq = lacunary_sequence(QQ)
        back = sequence_from_json(seq.to_json())
        for j in range(5):
            assert back.term(j).same_known(seq.term(j))

    def test_table_roundtrip(self):
        tab = TableSequence(QQ, [(1, QQ.one()), (3, from_int(QQ, 2)),
                                 (4, QQ.one())])
        back = sequence_from_json(tab.to_json())
        assert back.term(2).same_known(tab.term(2))
        with pytest.raises(HorizonError):
            back.gamma(3)

    def test_validation(self):
        with pytest.raises(InputError):
            # exponents must strictly increase
            TableSequence(QQ, [(3, QQ.one()), (1, QQ.one())])
        with pytest.raises(InputError):
            # coefficients must be nonzero
            RuleSequence(QQ, {"kind": "arith", "a": 1, "b": 1},
                         {"kind": "const", "c": 0})
        for values, step in (([1, 5, 3], 1), ([1, 2], 0), ([1, 2], -1), ([3], 0)):
            with pytest.raises(InputError):
                # every listed value and the tail step must increase
                RuleSequence(QQ, {"kind": "list", "values": values, "step": step},
                             {"kind": "const", "c": 1})
        seq = RuleSequence(QQ, {"kind": "list", "values": [0, 1, 3], "step": 2},
                           {"kind": "const", "c": 1})
        assert [seq.gamma(j) for j in range(5)] == [0, 1, 3, 5, 7]


class TestOtherGroups:
    def test_rational_exponents(self):
        # e_j = 1/2 + j/3: partial sums, gammas and stages live in Q
        seq = RuleSequence(QQ, {"kind": "arith", "a": Fraction(1, 2), "b": Fraction(1, 3)},
                           {"kind": "const", "c": 1}, horizon=60)
        assert seq.group is RATIONALS
        assert seq.gamma(3) == Fraction(3, 2)
        assert seq.stage(2, Fraction(3)).is_unit()
        assert walk_value(Poly.var(QQ, RATIONALS, T) ** 2, [seq])[0] == 1
        assert sequence_from_json(seq.to_json()).term(4).same_known(seq.term(4))

    def test_lex_exponents(self):
        seq = RuleSequence(QQ, {"kind": "geom", "a": (1, 1)}, {"kind": "const", "c": 1})
        assert seq.group is Lex(2)
        assert seq.gamma(2) == (4, 4)
        assert walk_value(Poly.var(QQ, Lex(2), T), [seq])[0] == (1, 1)

    def test_mixed_rule_rejected(self):
        with pytest.raises(InputError):
            RuleSequence(QQ, {"kind": "arith", "a": 1, "b": Fraction(1, 2)},
                         {"kind": "const", "c": 1})
        with pytest.raises(InputError):
            sequence_from_json({"seq": "rule", "field": "Q", "exp": {"kind": "arith", "a": 0, "b": "1/2"},
                                "coeff": {"kind": "const", "c": "1/1"}})
        with pytest.raises(InputError):
            TableSequence(QQ, [((0, 1), QQ.one()), ((0, 1, 2), QQ.one())])
