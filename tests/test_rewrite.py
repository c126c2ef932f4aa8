"""Taylor-recentring rewrite certificates.

The characteristic-p fixtures at the bottom are frozen with their
hand-traced derivations; every certificate is additionally re-verified
through its own exact symbolic expansion (RewriteCert.verify).
"""
import copy
import functools
import json
import random
import re
from pathlib import Path
from unittest import mock

import pytest

from valcert import rewrite
from valcert.cli import canonical_json, run_single
from valcert.errors import InputError, VerificationError
from valcert.fields import GF, QQ
from valcert.group import INF, INTEGERS as ZZ
from valcert.pcs import RuleSequence, TableSequence, lacunary_sequence
from valcert.poly import Poly, VarTag
from valcert.rewrite import Plans, RewriteCert, rw, taylor_recenter
from valcert.series import ValuedSeries
from valcert.smooth import sm_pair

from oracles import from_int, taylor_via_hasse

Y0, Y1 = VarTag.orig(0), VarTag.orig(1)
OPTS = {"horizon": None, "window": None, "retries": None, "delta": None}


def tpow(field, e, c=1):
    return ValuedSeries(field, ZZ, [(e, from_int(field, c))])


@pytest.fixture(autouse=True)
def round_trip_every_certificate(monkeypatch):
    """Every certificate rw returns here verifies again from its
    canonical JSON, since the build itself does not recompute G1.  The
    JSON is taken as the certificate is built, before a test can tamper
    with it, and verified after the test."""
    built = []
    certify = rewrite._certify

    def recording(*args, **kwargs):
        cert = certify(*args, **kwargs)
        built.append(canonical_json(cert.to_json()))
        return cert

    monkeypatch.setattr(rewrite, "_certify", recording)
    yield
    for text in built:
        RewriteCert.from_json(json.loads(text)).verify()


class TestTaylor:
    def test_square_expansion(self):
        # [TRIVIAL] (v + s Y')^2 = v^2 + 2vs Y' + s^2 Y'^2
        v, s = tpow(QQ, 1), tpow(QQ, 2)
        new = VarTag.stage(0, 0)
        out = taylor_recenter(Poly.var(QQ, ZZ, Y0) ** 2, {Y0: v}, {Y0: s}, {Y0: new})
        expect = (Poly.const(v * v)
                  + Poly.var(QQ, ZZ, new).scale(v * s * ValuedSeries.scalar(QQ, ZZ, from_int(QQ, 2)))
                  + (Poly.var(QQ, ZZ, new) ** 2).scale(s * s))
        assert out.same_known(expect)

    def test_constant_unchanged(self):
        g = Poly.const(tpow(QQ, 3))
        out = taylor_recenter(g, {}, {}, {})
        assert out.same_known(g)

    def test_bilinear_expansion(self):
        # [TRIVIAL] (v0+s0A)(v1+s1B) expands to four terms
        v0, s0, v1, s1 = tpow(QQ, 1), tpow(QQ, 2), tpow(QQ, 3), tpow(QQ, 4)
        a, b = VarTag.stage(0, 0), VarTag.stage(1, 0)
        out = taylor_recenter(Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, Y1),
                              {Y0: v0, Y1: v1}, {Y0: s0, Y1: s1},
                              {Y0: a, Y1: b})
        expect = (Poly.const(v0 * v1) + Poly.var(QQ, ZZ, a).scale(s0 * v1)
                  + Poly.var(QQ, ZZ, b).scale(v0 * s1)
                  + (Poly.var(QQ, ZZ, a) * Poly.var(QQ, ZZ, b)).scale(s0 * s1))
        assert out.same_known(expect)

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
    def test_matches_hasse_oracle(self, field):
        rng = random.Random(7)
        for _ in range(10):
            g = _random_poly(rng, field, nvars=2, deg=4)
            centers = {Y0: tpow(field, 1), Y1: tpow(field, 2, 3 % _char_or(field))}
            scales = {Y0: tpow(field, 3), Y1: tpow(field, 1)}
            tags = {Y0: VarTag.stage(0, 0), Y1: VarTag.stage(1, 0)}
            assert taylor_recenter(g, centers, scales, tags).same_known(
                taylor_via_hasse(g, centers, scales, tags))


def _char_or(field):
    from valcert.fields import characteristic
    p = characteristic(field)
    return p if p > 0 else 10 ** 9


def _random_poly(rng, field, nvars, deg):
    tags = [Y0, Y1][:nvars]
    g = Poly.zero(field, ZZ)
    for _ in range(rng.randint(1, 5)):
        mono = Poly.const(ValuedSeries.scalar(field, ZZ, from_int(field, rng.randint(1, 6))))
        total = 0
        for tag in tags:
            k = rng.randint(0, deg - total)
            total += k
            mono = mono * (Poly.var(field, ZZ, tag) ** k)
        g = g + mono.scale(tpow(field, rng.randint(0, 2)))
    if g.is_zero():
        g = Poly.const(ValuedSeries.one(field, ZZ))
    return g


class TestMultilinear:
    def test_pair_square_rejects_quadratic(self):
        # [TRIVIAL] deg_{Y0} = 2 is outside the multilinear fragment
        seq = lacunary_sequence(QQ)
        with pytest.raises(InputError):
            rw("pair_square", Poly.var(QQ, ZZ, Y1) - Poly.var(QQ, ZZ, Y0) ** 2, [seq, seq])

    def test_pair_square_constant(self):
        # [TRIVIAL] constant g: c = g, g1 = 1
        seq = lacunary_sequence(QQ)
        cert = rw("pair_square", Poly.const(tpow(QQ, 3)), [seq, seq])
        assert cert.c.same_known(tpow(QQ, 3))
        cert.verify()

    def test_pair_square_linear(self):
        # [DERIVED] g = Y0 + t*Y1 over geometric partial sums
        seq = lacunary_sequence(QQ)
        g = Poly.var(QQ, ZZ, Y0) + Poly.var(QQ, ZZ, Y1).scale(tpow(QQ, 1))
        cert = rw("pair_square", g, [seq, seq])
        cert.verify()
        RewriteCert.from_json(json.loads(json.dumps(cert.to_json()))).verify()

    def test_mono_triple_product(self):
        # [DERIVED] g = Y0*Y1*Y2 over three lacunary sequences
        seqs = [lacunary_sequence(QQ) for _ in range(3)]
        g = Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, Y1) * Poly.var(QQ, ZZ, VarTag.orig(2))
        cert = rw("multilinear_mono", g, seqs, nus=[0, 0, 0])
        cert.verify()

    def test_mono_affine(self):
        # [DERIVED] g = 1 + t*Y0
        seq = lacunary_sequence(QQ)
        g = Poly.const(ValuedSeries.one(QQ, ZZ)) + Poly.var(QQ, ZZ, Y0).scale(tpow(QQ, 1))
        rw("multilinear_mono", g, [seq], nus=[0]).verify()

    def test_full_multilinear(self):
        # [DERIVED] g = 1 + Y0 + Y1 + Y0Y1 over two lacunary sequences
        seqs = [lacunary_sequence(QQ),
                RuleSequence(QQ, {"kind": "geom", "a": 3},
                             {"kind": "const", "c": 1}, horizon=300)]
        g = (Poly.const(ValuedSeries.one(QQ, ZZ)) + Poly.var(QQ, ZZ, Y0)
             + Poly.var(QQ, ZZ, Y1) + Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, Y1))
        cert = rw("multilinear", g, seqs, nus=[0, 0])
        cert.verify()

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            rw("multilinear", Poly.zero(QQ, ZZ), [lacunary_sequence(QQ)], nus=[0])


def _verdict(cert, **relabel):
    """valcert verify's exit code and failed claim on the certificate's
    JSON with the given fields replaced."""
    obj = json.loads(canonical_json(cert.to_json()))
    obj.update(relabel)
    code, result = run_single("verify", obj, OPTS)
    return code, "" if code == 0 else result.split(" at ", 1)[1]


class TestUnivariate:
    def test_linear_identity(self):
        # [TRIVIAL] g = Y: G1 = v_t + s_t*Y_t, c = scale s_t
        seq = lacunary_sequence(QQ)
        cert = rw("univariate", Poly.var(QQ, ZZ, Y0), [seq])
        t = cert.indices[0]
        assert cert.c.same_known(seq.scale(t))
        cert.verify()

    def test_pfree_cube_plus_linear_char2(self):
        # [DERIVED] exponents 1, 3 both odd: admissible over F2, so g is
        # rewritten itself, and the p-free label is true of it too
        f2 = GF(2)
        seq = lacunary_sequence(f2)
        g = Poly.var(f2, ZZ, Y0) ** 3 + Poly.var(f2, ZZ, Y0)
        cert = rw("univariate", g, [seq])
        assert (cert.kind, cert.case) == ("univariate_charp", "case1")
        cert.verify()
        assert _verdict(cert, kind="univariate_pfree") == (0, "")

    def test_pfree_rejects_square_char2(self):
        # [TRIVIAL] exponent 2 is divisible by p = 2: a univariate_pfree
        # certificate over F2 is refused at its kind
        f2 = GF(2)
        Y = Poly.var(f2, ZZ, Y0)
        cert = rw("univariate", Y ** 2 + Y ** 3, [lacunary_sequence(f2)])
        assert (cert.kind, cert.case) == ("univariate_charp", "case1")
        assert _verdict(cert, kind="univariate_pfree") == (
            4, "kind: exponent 2 of Y_0 is divisible by the characteristic 2")

    def test_quadratic_domination(self):
        # [DERIVED] every degree->=2 coefficient of G1 has val > val(c)
        seq = lacunary_sequence(QQ)
        g = Poly.var(QQ, ZZ, Y0) ** 2 + Poly.var(QQ, ZZ, Y0).scale(tpow(QQ, 1))
        cert = rw("univariate", g, [seq])
        cv = cert.c.val()
        for mono, coeff in cert.G1.monos.items():
            degree = sum(k for _, k in mono)
            if degree >= 2:
                assert coeff.val() > cv


# -- characteristic-p branch fixtures (acceptance criterion inputs) ----
#
# Derivations over F2, lacunary y0 = t + t^2 + t^4 + ...:
#   g = Y:       exponent 1 is odd, so g itself is admissible -> case1.
#   g = Y^2:     the only positive exponent is 2 = p; no admissible part,
#                so the product Y*g = Y^3 is rewritten instead -> case2.
#   g = Y + Y^2: the monomial Y has exponent 1 (odd), so the admissible
#                part is nonconstant and g is rewritten directly -> case1.
# Bivariate multipliers over F2:
#   f = Y1:        exponent (1,0) admissible as-is        -> multiplier 1.
#   f = Y1^2:      (2,0) inadmissible; Y1*f = Y1^3 works  -> multiplier y1.
#   f = Y1^2Y2^2:  (2,2) inadmissible; Y1*f = Y1^3Y2^2 has the odd
#                  exponent 3 in Y1                       -> multiplier y1.
#                  (y1y2 would also be admissible; the cascade tries y1 first.)

class TestCharPFixtures:
    def setup_method(self):
        self.f2 = GF(2)
        self.seq = lacunary_sequence(self.f2)
        self.Y = Poly.var(self.f2, ZZ, Y0)

    def test_co_case_tags(self):
        cases = {}
        for name, g in [("Y", self.Y), ("Y2", self.Y ** 2),
                        ("Y+Y2", self.Y + self.Y ** 2)]:
            cert = rw("univariate", g, [self.seq])
            cert.verify()
            cases[name] = cert.case
        assert cases == {"Y": "case1", "Y2": "case2", "Y+Y2": "case1"}

    def test_co_prime_multipliers(self):
        seqs = [lacunary_sequence(self.f2),
                RuleSequence(self.f2, {"kind": "geom", "a": 3},
                             {"kind": "const", "c": 1}, horizon=300)]
        B = Poly.var(self.f2, ZZ, Y1)
        mults = {}
        for name, f in [("Y1", self.Y), ("Y1^2", self.Y ** 2),
                        ("Y1^2Y2^2", self.Y ** 2 * B ** 2)]:
            cert = rw("bivariate", f, seqs)
            cert.verify()
            mults[name] = cert.case.split(":", 1)[1]
        assert mults["Y1"] == "1"
        assert mults["Y1^2"] == "y1"
        assert mults["Y1^2Y2^2"] in ("y1", "y1y2")


class TestBivariate:
    def test_pfree_product_plus_linear(self):
        # [DERIVED] g = Y1*Y2 + Y1 over Q
        seqs = [lacunary_sequence(QQ),
                RuleSequence(QQ, {"kind": "geom", "a": 3},
                             {"kind": "const", "c": 1}, horizon=300)]
        g = Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, Y1) + Poly.var(QQ, ZZ, Y0)
        rw("bivariate", g, seqs).verify()

    def test_pfree_rejects_divisible_exponent(self):
        # [TRIVIAL] Y1^2*Y2 + Y1 over F2: a bivariate_pfree certificate is
        # refused at its kind
        f2 = GF(2)
        g = Poly.var(f2, ZZ, Y0) ** 2 * Poly.var(f2, ZZ, Y1) + Poly.var(f2, ZZ, Y0)
        seqs = [lacunary_sequence(f2),
                RuleSequence(f2, {"kind": "geom", "a": 3},
                             {"kind": "const", "c": 1}, horizon=300)]
        cert = rw("bivariate", g, seqs)
        assert (cert.kind, cert.case) == ("bivariate_charp", "multiplier:1")
        assert _verdict(cert, kind="bivariate_pfree", case="case1") == (
            4, "kind: exponent 2 of Y_0 is divisible by the characteristic 2")


class CountingSequence(RuleSequence):
    """A rule sequence that records every gamma index read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def gamma(self, j):
        self.read.add(j)
        return super().gamma(j)


class TestLazyStreams:
    def test_gammas_read_up_to_chosen_index(self):
        seq = CountingSequence(QQ, {"kind": "geom", "a": 1},
                               {"kind": "const", "c": 1}, horizon=300)
        g = Poly.var(QQ, ZZ, Y0) ** 2 + Poly.var(QQ, ZZ, Y0).scale(tpow(QQ, 1))
        cert = rw("univariate", g, [seq])
        assert seq.read and max(seq.read) == cert.indices[0]

    def test_short_table_rejected(self):
        cert = rw("univariate", Poly.var(QQ, ZZ, Y0) ** 2, [lacunary_sequence(QQ)])
        t = cert.indices[0]
        bad = cert.to_json()
        # recentring at t reads terms 0..t: t + 1 terms suffice, t do not
        bad["seqs"][0] = TableSequence(QQ, [(2 ** j, QQ.one()) for j in range(t)]).to_json()
        with pytest.raises(VerificationError):
            RewriteCert.from_json(bad).verify()
        bad["seqs"][0] = TableSequence(QQ, [(2 ** j, QQ.one()) for j in range(t + 1)]).to_json()
        RewriteCert.from_json(bad).verify()


class TestPredict:
    def test_inf_beta_predicts_nothing(self):
        # (Y0 - Y1)^2 over two copies of one sequence: D^(1,0) and D^(0,1)
        # vanish at every index, so their betas are INF and the prediction
        # gives up before any separation search
        g = Poly.var(QQ, ZZ, Y0) - Poly.var(QQ, ZZ, Y1)
        plan = Plans("bivariate", g * g, [lacunary_sequence(QQ, 100)] * 2)[0]
        assert [k for k, (beta, _) in plan.betas.items() if beta is INF] == [(0, 1), (1, 0)]
        with mock.patch.object(rewrite, "separate_indices") as search:
            assert plan.predict((0, 0)) is None
        search.assert_not_called()


class TestTamper:
    def test_swapped_index(self):
        seq = lacunary_sequence(QQ)
        cert = rw("univariate", Poly.var(QQ, ZZ, Y0) ** 2, [seq])
        bad = copy.deepcopy(cert.to_json())
        bad["indices"][0] += 1
        with pytest.raises(VerificationError):
            RewriteCert.from_json(bad).verify()

    @pytest.mark.parametrize("indices", [lambda ts: ts + [3], lambda ts: ts[:1]],
                             ids=["extra", "missing"])
    def test_index_count(self, indices):
        # an index past the last sequence used to be read by nothing
        seqs = [lacunary_sequence(QQ),
                RuleSequence(QQ, {"kind": "geom", "a": 3},
                             {"kind": "const", "c": 1}, horizon=300)]
        g = Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, Y1) + Poly.var(QQ, ZZ, Y0)
        cert = rw("bivariate", g, seqs)
        assert _verdict(cert, indices=indices(cert.indices)) == (
            4, f"indices: {len(indices(cert.indices))} indices for 2 sequences")

    def test_perturbed_coefficient(self):
        seq = lacunary_sequence(QQ)
        g = Poly.var(QQ, ZZ, Y0) ** 2 + Poly.var(QQ, ZZ, Y0).scale(tpow(QQ, 1))
        cert = rw("univariate", g, [seq])
        bad = copy.deepcopy(cert.to_json())
        mono, coeff = bad["G1"][0]
        coeff["terms"][0][1] = "7/1" if "/" in str(coeff["terms"][0][1]) else 7
        with pytest.raises(VerificationError):
            RewriteCert.from_json(bad).verify()

    def test_g_holding_the_new_variable(self):
        # g = Y0 * S with S the stage variable: at Y0 = v + s*S the identity
        # holds for v*S + s*S^2 only, never for the collapsed (v + s)*S.
        # A univariate g may not hold S, so the multilinear kind carries it.
        seq = lacunary_sequence(QQ)
        cert = rw("multilinear", Poly.var(QQ, ZZ, Y0), [seq])
        t = cert.indices[0]
        S = VarTag.stage(0, t)
        v, s = seq.term(t), seq.scale(t)
        bad = cert.to_json()
        bad["g"] = (Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, S)).to_json()
        bad["G1"] = Poly(QQ, ZZ, {((S, 1),): v + s}).to_json()
        with pytest.raises(VerificationError) as exc:
            RewriteCert.from_json(bad).verify()
        assert exc.value.claim == "identity"
        bad["G1"] = Poly(QQ, ZZ, {((S, 1),): v, ((S, 2),): s}).to_json()
        with pytest.raises(VerificationError) as exc:
            RewriteCert.from_json(bad).verify()
        assert exc.value.claim != "identity"


class TestOneRecentring:
    def test_build_and_verify_recentre_once_each(self, monkeypatch):
        # Accepted at its first attempt, the build recentres once, on the
        # frozen sequences; verifying the JSON round trip recentres once.
        calls = {"recenter": 0, "attempts": 0}
        recenter, claims_hold = rewrite.taylor_recenter, rewrite._claims_hold

        def counted_recenter(*args):
            calls["recenter"] += 1
            return recenter(*args)

        def counted_attempt(*args):
            calls["attempts"] += 1
            return claims_hold(*args)

        monkeypatch.setattr(rewrite, "taylor_recenter", counted_recenter)
        monkeypatch.setattr(rewrite, "_claims_hold", counted_attempt)
        g = Poly.var(QQ, ZZ, Y0) ** 2 + Poly.var(QQ, ZZ, Y0).scale(tpow(QQ, 1))
        cert = rw("univariate", g, [lacunary_sequence(QQ)])
        assert calls == {"recenter": 1, "attempts": 1}
        text = canonical_json(cert.to_json())
        RewriteCert.from_json(json.loads(text)).verify()
        assert calls["recenter"] == 2


# -- each kind's rules, applied by the verifier --------------------------

FIXTURES = Path(__file__).parent / "fixtures"
# Relabels of one field; kind relabels are refused at the first rule the
# new kind breaks, mode relabels possibly by the normal form of the
# forged mode, an unknown mode and a designated monomial that G1 lacks by
# the normal form.
ABSENT = [[{"tag": "stage", "e": 0, "j": 1}, 99]]
RELABELS = [("kind", "multilinear"), ("kind", "bivariate_charp"),
            ("kind", "univariate_pfree"), ("case", "star"), ("case", "case2"),
            ("mode", "content"), ("mode", "star"), ("c_mono", ABSENT),
            ("mode", "min-linear")]
CLAIMS = {"kind": {"mode", "case", "kind"}, "case": {"case"},
          "mode": {"mode", "content-min", "min-linear"}, "c_mono": {"c-mono"}}


def _relabel_id(value):
    return "absent" if value is ABSENT else None


@functools.lru_cache(maxsize=None)
def _kind_certs():
    """One top-level rewrite of each kind, then the old rewrite fixture,
    as JSON."""
    Y, Z = Poly.var(QQ, ZZ, Y0), Poly.var(QQ, ZZ, Y1)
    f2 = GF(2)
    A = Poly.var(f2, ZZ, Y0)
    lac = lacunary_sequence(QQ)
    q2 = [lac, RuleSequence(QQ, {"kind": "geom", "a": 3},
                            {"kind": "const", "c": 1}, horizon=300)]
    f2s = [lacunary_sequence(f2), RuleSequence(f2, {"kind": "geom", "a": 3},
                                               {"kind": "const", "c": 1}, horizon=300)]
    near = Poly.const(lac.term(30))  # a constant that leaves G1's constant high
    certs = [rw("pair_square", Y - near + Z.scale(tpow(QQ, 1)), q2),
             rw("multilinear_mono", Y * Z - Poly.const(lac.term(30) * q2[1].term(30)), q2),
             rw("multilinear", Y - near, [lac]),
             rw("univariate", Y ** 2, [lac]),
             rw("univariate", A ** 2, [f2s[0]]),
             rw("bivariate", Y * Z + Y, q2),
             rw("bivariate", A ** 2, f2s)]
    out = [json.loads(canonical_json(c.to_json())) for c in certs]
    return out + [json.loads((FIXTURES / "rewrite_square_Q.json").read_text())]


@functools.lru_cache(maxsize=None)
def _smooth_certs():
    """Smooth certificates embedding rewrites of the four univariate and
    bivariate kinds, the two old smooth fixtures among them, as JSON."""
    f2 = GF(2)
    V, W = Poly.var(QQ, ZZ, Y0), Poly.var(f2, ZZ, Y0)
    built = [sm_pair(V ** 2, lacunary_sequence(QQ)),
             sm_pair(W ** 2 + W.scale(tpow(f2, 1)), lacunary_sequence(f2))]
    out = [json.loads(canonical_json(c.to_json())) for c in built]
    return out + [json.loads((FIXTURES / name).read_text())
                  for name in ("smooth_family_F5_full_tables.json",
                               "smooth_fraction_Q.json")]


def _claims(message: str):
    return re.findall(r"verification failed at ([\w-]+)", message)


class TestKindRules:
    def test_each_kind_and_fixture_verifies(self):
        kinds = [obj["kind"] for obj in _kind_certs()]
        assert kinds[:7] == list(rewrite._KINDS)
        embedded = {rw["kind"] for obj in _smooth_certs() for rw in obj["rewrites"]}
        assert embedded == {"univariate_pfree", "univariate_charp",
                            "bivariate_pfree", "bivariate_charp"}
        for obj in _kind_certs() + _smooth_certs():
            assert run_single("verify", obj, OPTS) == (
                0, {"verified": True, "cert": obj["cert"]})

    @pytest.mark.parametrize("kind, g, multiplier, allowed", [
        ("univariate_charp", "Y^2", {}, "[{0: 1}]"),
        ("univariate_charp", "Y^3", {0: 1}, "[{}]"),
        ("bivariate_charp", "Y^2", {}, "[{0: 1}, {1: 1}, {0: 1, 1: 1}]"),
        ("bivariate_charp", "Y^3", {0: 1}, "[{}, {1: 1}, {0: 1, 1: 1}]"),
    ])
    def test_multiplier_rule(self, kind, g, multiplier, allowed):
        # over F2: Y^2 and Y^3 * Y have no exponent prime to 2; Y^3 and Y^2 * Y_1 have
        Y = Poly.var(GF(2), ZZ, Y0)
        g = Y ** 2 if g == "Y^2" else Y ** 3
        n = 1 if kind == "univariate_charp" else 2
        assert rewrite._shape_fault(kind, g, multiplier, n) == (
            f"multiplier {multiplier} where the case split allows {allowed}")

    @pytest.mark.parametrize("op", ["univariate", "bivariate"])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_plans_take_the_multipliers_the_rule_accepts(self, op, p):
        # the steps Plans tries are the cascade multipliers _shape_fault
        # accepts, in cascade order, and a univariate rewrite takes one
        field = GF(p)
        Y, Z = Poly.var(field, ZZ, Y0), Poly.var(field, ZZ, Y1)
        one = Poly.const(ValuedSeries.one(field, ZZ))
        X = Y if op == "univariate" else Z
        cascade = [{}, {0: 1}, {1: 1}, {0: 1, 1: 1}]
        expected = {  # g: (univariate steps, bivariate steps)
            "prime to p": (Y ** p * X + Y ** 2 * X ** p, cascade[:1], cascade),
            "all divisible": ((Y * X) ** p, cascade[1:2], cascade[1:]),
            "constant term": (X ** p + one, cascade[1:2], cascade[1:]),
        }
        n = 1 if op == "univariate" else 2
        seqs = [lacunary_sequence(field)] * n
        for name, (g, uni, bi) in expected.items():
            kind = op + "_charp"
            accepted = [m for m in cascade if not rewrite._shape_fault(kind, g, m, n)]
            assert accepted == (uni if op == "univariate" else bi), name
            assert Plans(op, g, seqs).steps == [(kind, m) for m in accepted], name

    @pytest.mark.parametrize("field, value", RELABELS, ids=_relabel_id)
    def test_top_level_relabel_refused(self, field, value):
        changed = 0
        for obj in _kind_certs():
            if obj[field] == value:
                continue
            changed += 1
            code, message = run_single("verify", dict(obj, **{field: value}), OPTS)
            assert code == 4, (obj["kind"], message)
            assert _claims(message)[-1] in CLAIMS[field], message
        assert changed

    # every embedded rewrite is min-linear already
    @pytest.mark.parametrize("field, value", RELABELS[:-1], ids=_relabel_id)
    def test_embedded_relabel_refused(self, field, value):
        changed = 0
        for obj in _smooth_certs():
            for i, rw in enumerate(obj["rewrites"]):
                if rw[field] == value:
                    continue
                changed += 1
                bad = copy.deepcopy(obj)
                bad["rewrites"][i][field] = value
                code, message = run_single("verify", bad, OPTS)
                assert code == 4, (rw["kind"], message)
                claims = _claims(message)
                assert claims[0] == f"rewrite-{i}" and claims[-1] in CLAIMS[field], message
        assert changed

    @staticmethod
    def below_V(obj):
        """g times t^-10, so G1 has coefficients of negative value; without
        G1 and table, which would differ from the recomputation first."""
        for _, coeff in obj["g"]:
            for term in coeff["terms"]:
                term[0] -= 10
        del obj["G1"], obj["table"]

    @staticmethod
    def other_linear(obj):
        """The designated monomial moved to the other, larger linear one."""
        obj["c_mono"] = next(m for m, _ in obj["table"]
                             if m != obj["c_mono"] and sum(k for _, k in m) == 1)

    @pytest.mark.parametrize("edit, claim", [("below_V", "coeffs-in-V"),
                                             ("other_linear", "min-linear")])
    def test_normal_form_refused(self, edit, claim):
        obj = _kind_certs()[5]  # bivariate_pfree: two linear monomials
        assert obj["kind"] == "bivariate_pfree"
        bad = copy.deepcopy(obj)
        getattr(self, edit)(bad)
        code, message = run_single("verify", bad, OPTS)
        assert code == 4 and _claims(message)[-1] == claim, message
