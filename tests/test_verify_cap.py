"""Differential test of the capped smooth verifier against the uncapped one.

smooth.sm_verify evaluates relations, Jacobian minor and witnesses below a
cap C just past delta and runs a check on the full values only when the
capped values do not pass it.  oracles.sm_verify evaluates everything on
the full values.  On honest certificates over Z, Q and lex Z^2 exponents,
over Q and F5, with edited images, coefficients, witnesses, problem data,
bases and deltas (negative exponents, inexact and exact series, delta <= 0
included), both must give the same verdict and the same message; and where
every input has a nonnegative valuation, delta > 0 and the certificate
passes, the capped values must decide every check alone.
"""
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
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
    try:
        verify(cert, delta)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return "ok", ""


def _nonnegative(cert):
    """Every image, coefficient and problem series has val_lower >= 0."""
    zero = cert.pres.group.zero()
    series = [img for _, img in cert.pres.generators]
    polys = list(cert.pres.relations)
    for w in cert.witnesses:
        polys += [w.num] + ([w.den] if w.den is not None else [])
    series += [c for p in polys for c in p.monos.values()]
    problem = cert.problem
    field, group = cert.field, cert.pres.group
    series += [ValuedSeries.from_json(d, field, group)
               for d in ([problem["d"]] if "d" in problem else problem.get("ds", []))]
    return all(not s.val_lower() < zero for s in series)


def capped_outcome(cert, delta):
    """smooth.sm_verify's outcome and the caps its checks ran at."""
    caps = []
    real = smooth._decide

    def spy(check, cap):
        def tracked(c):
            caps.append(c)
            check(c)
        real(tracked, cap)

    with mock.patch.object(smooth, "_decide", spy):
        return outcome(smooth.sm_verify, cert, delta), caps


class TestCappedVerifier:
    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_against_uncapped_oracle(self, case):
        cert, delta = case
        got, caps = capped_outcome(cert, delta)
        assert got == outcome(oracles.sm_verify, cert, delta)
        dlt = cert.delta if delta is None else delta
        if got[0] == "ok" and dlt > cert.pres.group.zero() and _nonnegative(cert):
            assert None not in caps

    @pytest.mark.parametrize("field, group, obj", BASES)
    def test_honest_certificates_decided_below_the_cap(self, field, group, obj):
        cert = SmoothCert.from_json(obj)
        got, caps = capped_outcome(cert, None)
        assert got == ("ok", "")
        assert caps and None not in caps
        cap = smooth._verify_cap(cert.pres, cert.delta)
        assert cert.delta < cap <= group.scale(cert.delta, 2)

    @pytest.mark.parametrize("field, group, obj", [
        b for b in BASES if b[1] is RATIONALS and b[2]["kind"] == "fraction"])
    def test_fraction_decided_below_the_cap_where_f2_vanishes(self, field, group, obj):
        # At delta 1/4 the cap is 1/2 = val f2(y0), so f2(y0) below the cap
        # has no known term; the witness reads that valuation uncapped.
        cert = SmoothCert.from_json(obj)
        delta = Fraction(1, 4)
        assert smooth._verify_cap(cert.pres, delta) == Fraction(1, 2)
        got, caps = capped_outcome(cert, delta)
        assert got == outcome(oracles.sm_verify, cert, delta) == ("ok", "")
        assert caps and None not in caps

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
            "InputError", "exact quotient appears to have unbounded support; use div_to")
