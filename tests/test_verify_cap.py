"""Differential test of the capped smooth verifier against the uncapped one.

smooth.sm_verify checks that the data lies over V with delta > 0, then
evaluates relations and witnesses once, below a cap C just past delta,
and decides the Jacobian minor on residues.  oracles.sm_verify applies
the same in-V, delta and floor rules and evaluates everything, the minor
by Laplace expansion, on the full values.  On honest
certificates over Z, Q and lex Z^2 exponents, over Q and F5, with edited
images, coefficients, witnesses, problem data, bases and deltas (negative
exponents, inexact and exact series, delta <= 0 included), both must give
the same verdict at the same claim, and the same message but for the two
window-dependent texts named in `known_difference`.
"""
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valcert import smooth
from valcert.fields import GF, QQ
from valcert.group import INF, INTEGERS as ZZ, RATIONALS, Lex
from valcert.pcs import RuleSequence
from valcert.poly import Poly, VarTag
from valcert.series import ValuedSeries
from valcert.smooth import SmoothCert, sm_family, sm_fraction, sm_pair

import oracles

Y0 = VarTag.orig(0)
LEX2 = Lex(2)
# exponent a of the geometric pseudo-limit t^a + t^2a + t^4a + ...
GROUPS = {ZZ: 1, RATIONALS: Fraction(1, 2), LEX2: (1, 1)}


def _bases():
    """(field, group, certificate JSON) of the four certificate shapes:
    a pair, a pair with an adjoined generator (one relation, a minor), a
    family (two relations, 2x2 minor) and a fraction (a witness with a
    denominator)."""
    out = []
    for field in (QQ, GF(5)):
        for group, a in GROUPS.items():
            V = Poly.var(field, group, Y0)
            t = ValuedSeries.t_power(field, group, a)
            seq = RuleSequence(field, {"kind": "geom", "a": a},
                               {"kind": "const", "c": field.one()}, 60)
            for cert in (sm_pair(V, seq),
                         sm_pair(V - Poly.const(seq.term(2)), seq),
                         sm_family([V, V ** 2 + V.scale(t)], seq),
                         sm_fraction(V ** 2, V, seq)):
                out.append((field, group, cert.to_json()))
    return out


BASES = _bases()


def _steps(group, delta):
    """delta as a count of the steps the edits draw exponents in."""
    if group is LEX2:
        return delta[0]
    return int(2 * delta) if group is RATIONALS else delta


def exponents(group, top):
    ks = st.integers(min_value=-3, max_value=2 * top + 3)
    if group is ZZ:
        return ks
    if group is RATIONALS:
        return st.builds(lambda k: Fraction(k, 2), ks)
    return st.tuples(ks, st.integers(min_value=-2, max_value=2))


def units(field):
    if field is QQ:
        return st.sampled_from((Fraction(1), Fraction(-1), Fraction(3, 2)))
    return st.integers(min_value=1, max_value=field.p - 1)


@st.composite
def edited_series(draw, s, exps, field):
    """s with a term added, dropped or rescaled, or a new truncation."""
    terms = list(s.terms)
    op = draw(st.sampled_from(("add", "drop", "scale", "trunc")))
    if op == "add" or not terms:
        terms.append((draw(exps), draw(units(field))))
    elif op == "trunc":
        return ValuedSeries(field, s.group, terms, draw(st.just(INF) | exps))
    else:
        i = draw(st.integers(min_value=0, max_value=len(terms) - 1))
        e, c = terms.pop(i)
        if op == "scale":
            terms.append((e, oracles.Scalars(field).mul(c, draw(units(field)))))
    return ValuedSeries(field, s.group, terms, s.trunc)


@st.composite
def edited_poly(draw, poly, exps, field):
    monos = dict(poly.monos)
    if not monos or draw(st.booleans()):
        mono = draw(st.sampled_from(list(monos) or [()]))
        monos[mono] = ValuedSeries(field, poly.group, [(draw(exps), draw(units(field)))])
    else:
        mono = draw(st.sampled_from(sorted(monos, key=repr)))
        monos[mono] = draw(edited_series(monos[mono], exps, field))
    return Poly(field, poly.group, monos)


@st.composite
def cases(draw):
    """A certificate, a few edits of it, and the delta to verify at."""
    field, group, obj = draw(st.sampled_from(BASES))
    cert = SmoothCert.from_json(obj)
    top = _steps(group, cert.delta)
    exps = exponents(group, top)
    pres = cert.pres
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        part = draw(st.sampled_from(("image", "relation", "witness", "den",
                                     "problem", "base")))
        if part == "image":
            i = draw(st.integers(min_value=0, max_value=len(pres.generators) - 1))
            tag, img = pres.generators[i]
            pres.generators[i] = (tag, draw(edited_series(img, exps, field)))
        elif part == "relation" and pres.relations:
            i = draw(st.integers(min_value=0, max_value=len(pres.relations) - 1))
            pres.relations[i] = draw(edited_poly(pres.relations[i], exps, field))
        elif part == "witness":
            w = draw(st.sampled_from(cert.witnesses))
            w.num = draw(edited_poly(w.num, exps, field))
        elif part == "den":
            # a denominator of any value, or none
            w = draw(st.sampled_from(cert.witnesses))
            tag = draw(st.sampled_from([tag for tag, _ in pres.generators]))
            base = w.den if w.den is not None else Poly.var(field, group, tag)
            w.den = draw(st.none() | edited_poly(base, exps, field))
        elif part == "problem":
            key = draw(st.sampled_from([k for k in ("d", "ds") if k in cert.problem]))
            problem = dict(cert.problem)
            if key == "d":
                d = ValuedSeries.from_json(problem["d"], field, group)
                problem["d"] = draw(edited_series(d, exps, field)).to_json()
            else:
                ds = list(problem["ds"])
                i = draw(st.integers(min_value=0, max_value=len(ds) - 1))
                d = ValuedSeries.from_json(ds[i], field, group)
                ds[i] = draw(edited_series(d, exps, field)).to_json()
                problem["ds"] = ds
            cert.problem = problem
        elif part == "base":
            pres.base = draw(st.integers(min_value=0, max_value=len(pres.generators) - 1))
    delta = draw(st.none() | st.just(cert.delta) | exps)
    return cert, delta


def outcome(verify, cert, delta):
    """(exception type, claim, message) of verify(cert, delta)."""
    try:
        verify(cert, delta)
    except Exception as exc:
        return type(exc).__name__, getattr(exc, "claim", None), str(exc)
    return "ok", None, ""


def known_difference(got, want):
    """The two messages that differ by construction: a Jacobian minor that
    is no unit, whose residue (0, or not known at exponent 0) the capped
    verifier reports where the full expansion names a val > 0 or a window,
    and a lex quotient whose unbounded support is reported below its own
    window."""
    if got[1] == "jacobian-minor":
        return "the minor's residue is" in got[2] and (
            "minor has val" in want[2] or "series vanishes below truncation" in want[2])
    return got[0] == "InputError" and all("unbounded support" in m for m in (got[2], want[2]))


def _series(c, trunc="inf"):
    return {"terms": [[c, 1]], "trunc": trunc, "exact": trunc == "inf"}


_SEQ = {"seq": "rule", "exp": {"kind": "geom", "a": "1/2"}, "coeff": {"kind": "const", "c": 1},
        "horizon": 60, "field": "Fp", "p": 5}
_X, _S = {"tag": "orig", "e": 0}, {"tag": "stage", "e": 0, "j": 1}
# A pair over F5 whose y0 witness divides by the generator's image
# t^3 + O(t^4): at its cap that truncation once read "series vanishes
# below truncation", where the full evaluation says the denominator is not
# a unit.
DENOMINATOR_ABOVE_ZERO = {
    "cert": "smooth", "kind": "pair", "branch": "d-divides-c", "delta": "2/1", "base": 0,
    "field": "Fp", "p": 5, "relations": [], "generators": [[_S, _series("3/1", "4/1")]],
    "problem": {"f": [[[[_X, 1]], _series("0/1")]], "d": _series("1/2"), "seq0": _SEQ,
                "case2": False},
    "witnesses": [
        {"name": "y", "kind": "y0", "e": 0, "num": [[[], _series("1/2")], [[[_S, 1]], _series("1/1")]],
         "den": [[[[_S, 1]], _series("0/1")]]},
        {"name": "z", "kind": "z", "e": 0, "den": None,
         "num": [[[], _series("0/1", "4/1")], [[[_S, 1]], _series("1/2", "4/1")]]}],
    "rewrites": [{"cert": "rewrite", "kind": "univariate_charp", "g": [[[[_X, 1]], _series("0/1")]],
                  "multiplier": [], "seqs": [_SEQ], "indices": [1], "c_mono": [[_S, 1]],
                  "mode": "min-linear", "case": "case1", "field": "Fp", "p": 5}]}


def _minor_known_to_8():
    """The Q pair Y - (t + t^2) with base 0, its stage image without the
    t^2 term, and its relation's Z coefficient only O(t^8): the minor's
    residue is 0, and in full the minor vanishes below 8."""
    field, group, obj = next(b for b in BASES if b[:2] == (QQ, ZZ)
                             and b[2]["branch"] == "c-divides-d")
    cert = SmoothCert.from_json(obj)
    (stag, img), (ztag, _) = cert.pres.generators
    cert.pres.generators[0] = (stag, ValuedSeries(
        field, group, [(e, c) for e, c in img.terms if e != 2], img.trunc))
    cert.pres.relations[0].monos[((ztag, 1),)] = ValuedSeries(field, group, [], 8)
    cert.pres.base = 0
    return cert


CHECKS = ("_check_relation", "_check_witness")


@contextmanager
def recorded_caps():
    """The (check, cap) of every relation and witness check run, the cap
    being the last argument each check is passed."""
    caps = []

    def spy(name, real):
        def tracked(*args):
            caps.append((name, args[-1]))
            return real(*args)
        return tracked

    with ExitStack() as stack:
        for name in CHECKS:
            stack.enter_context(mock.patch.object(smooth, name, spy(name, getattr(smooth, name))))
        yield caps


def capped_outcome(cert, delta):
    """smooth.sm_verify's outcome and the (check, cap) pairs it ran."""
    with recorded_caps() as caps:
        return outcome(smooth.sm_verify, cert, delta), caps


def assert_capped(cert, delta, caps):
    """Each check ran below the cap C, delta < C <= 2*delta."""
    cap = smooth._verify_cap(cert.pres, delta)
    assert delta < cap <= cert.pres.group.scale(delta, 2)
    for _, c in caps:
        assert c == cap


class TestCappedVerifier:
    @settings(max_examples=400, deadline=None)
    @given(cases())
    @example((SmoothCert.from_json(DENOMINATOR_ABOVE_ZERO), None))
    @example((_minor_known_to_8(), None))
    def test_against_uncapped_oracle(self, case):
        cert, delta = case
        got, caps = capped_outcome(cert, delta)
        want = outcome(oracles.sm_verify, cert, delta)
        assert got[:2] == want[:2]
        assert got[2] == want[2] or known_difference(got, want)
        if caps:
            assert_capped(cert, cert.delta if delta is None else delta, caps)

    @pytest.mark.parametrize("field, group, obj", BASES)
    def test_honest_certificates_decided_below_the_cap(self, field, group, obj):
        cert = SmoothCert.from_json(obj)
        got, caps = capped_outcome(cert, None)
        assert got == ("ok", None, "")
        # one check per relation and one per witness, each capped
        assert len(caps) == len(cert.pres.relations) + len(cert.witnesses)
        assert_capped(cert, cert.delta, caps)

    @pytest.mark.parametrize("field, group, obj", [
        b for b in BASES if b[1] is RATIONALS and b[2]["kind"] == "fraction"])
    def test_fraction_decided_below_the_cap_where_f2_vanishes(self, field, group, obj):
        # At delta 1/4 the cap is 1/2 = val f2(y0), so f2(y0) below the cap
        # has no known term.  The delta floor, checked before any witness,
        # fails first.
        cert = SmoothCert.from_json(obj)
        delta = Fraction(1, 4)
        assert smooth._verify_cap(cert.pres, delta) == Fraction(1, 2)
        got, caps = capped_outcome(cert, delta)
        assert got == outcome(oracles.sm_verify, cert, delta)
        assert got[:2] == ("VerificationError", "delta")
        assert "_check_witness" not in [name for name, _ in caps]
        assert_capped(cert, delta, caps)

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    def test_fraction_reads_f2_deeper_where_it_vanishes_below_the_cap(self, field):
        # y0 = t + t^2 + t^3 + ... and f2 = V - (t + ... + t^16): val f2(y0)
        # is 17, past the cap 9 at the certificate's delta 8, while y2 =
        # f2(y0)/t^17 has small gammas, so the floor passes.  Every target
        # reads y0 below C, or below C + val d for a member y_e = f_e(y0)/d_e
        # (val d1 = 18, val d2 = 17), and the fraction reuses the members:
        # nothing reads y0 below 2*deltaw = 32.
        V = Poly.var(field, ZZ, Y0)
        seq = RuleSequence(field, {"kind": "arith", "a": 1, "b": 1},
                           {"kind": "const", "c": field.one()}, 60)
        f2 = V - Poly.const(ValuedSeries(field, ZZ, [(e, field.one()) for e in range(1, 17)]))
        cert = sm_fraction(f2 * V, f2, seq)
        assert (cert.delta, smooth._verify_cap(cert.pres, cert.delta)) == (8, 9)
        depths = []
        real = smooth._Problem.limit

        def limit(problem, depth):
            depths.append(depth)
            return real(problem, depth)

        with mock.patch.object(smooth._Problem, "limit", limit):
            got = outcome(smooth.sm_verify, cert, None)
        assert got == outcome(oracles.sm_verify, cert, None) == ("ok", None, "")
        assert set(depths) == {9, 26, 27}

    @pytest.mark.parametrize("field, group, obj", [b for b in BASES if b[1] is LEX2])
    def test_floor_decided_before_any_witness(self, field, group, obj):
        # The y0 witness over the exact den Y_{0,1} * (1 + t^(0,1)): below
        # the cap at delta (0, 1) the quotient is read, in full it has
        # unbounded lex support.  Both verifiers decide the floor first,
        # and it fails, before either evaluates a witness.
        cert = SmoothCert.from_json(obj)
        w = next(w for w in cert.witnesses if w.kind == "y0")
        unit = ValuedSeries(field, group, [((0, 0), field.one()), ((0, 1), field.one())])
        w.den = Poly.var(field, group, cert.pres.generators[0][0]).scale(unit)
        got, caps = capped_outcome(cert, (0, 1))
        assert got == outcome(oracles.sm_verify, cert, (0, 1))
        assert got[:2] == ("VerificationError", "delta")
        assert "_check_witness" not in [name for name, _ in caps]

    def test_exact_quotient_kept_exact(self):
        # A y0 witness num/den with exact num and den whose quotient has
        # infinite support: the full evaluation gives up with an InputError.
        # Exact series are not capped, so the capped evaluation does too,
        # instead of passing on a truncated quotient.
        field, group, obj = BASES[0]
        cert = SmoothCert.from_json(obj)
        w = cert.witnesses[0]
        assert w.kind == "y0" and group is ZZ
        y = RuleSequence.from_json(cert.problem["seq0"]).limit(group.scale(cert.delta, 2))
        one_minus_t = ValuedSeries(field, group, [(0, field.one()), (1, -field.one())])
        num = (ValuedSeries(field, group, (y * one_minus_t).terms)
               + ValuedSeries.t_power(field, group, group.scale(cert.delta, 4)))
        w.num, w.den = Poly.const(num), Poly.const(one_minus_t)
        assert outcome(smooth.sm_verify, cert, None) == (
            "InputError", None, "exact quotient appears to have unbounded support; use div_to")
