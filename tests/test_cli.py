"""Command-line front end: exit codes, determinism, verify round-trips."""
import copy
import hashlib
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from valcert import smooth
from valcert.cli import main
from valcert.fields import GF, QQ
from valcert.group import INTEGERS as ZZ
from valcert.pcs import TableSequence, lacunary_sequence
from valcert.poly import Poly, VarTag
from valcert.series import ValuedSeries

Y0 = VarTag.orig(0)


FULL_TABLES = Path(__file__).parent / "fixtures" / "smooth_family_F5_full_tables.json"


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def run(argv):
    return main(argv)


# -- configs shared by the tests and the golden digests ----------------

def tail_cfg(betas=(0, 3), ts=(2, 1), H=200):
    return {"op": "tail", "betas": list(betas), "ts": list(ts),
            "gamma": list(range(1, H + 1))}


def univariate_cfg(field, degree):
    cfg = {"field": "Q"} if field is QQ else {"field": "Fp", "p": field.p}
    cfg.update({"op": "univariate", "g": (Poly.var(field, ZZ, Y0) ** degree).to_json(),
                "seqs": [lacunary_sequence(field, 300).to_json()]})
    return cfg


def family_cfg(horizon=300):
    f5 = GF(5)
    t = ValuedSeries.t_power(f5, ZZ, 1)
    V = Poly.var(f5, ZZ, Y0)
    return {"field": "Fp", "p": 5, "op": "family",
            "fs": [V.to_json(), (V ** 2 + V.scale(t)).to_json()],
            "seq0": lacunary_sequence(f5, horizon).to_json()}


def q_smooth_cfg(op):
    """A smooth config over Q whose coefficients have numerators and
    denominators other than 1: a [V, V^2 + (3/2)tV] family, or the fraction
    ((3/2)V^2 + tV) / (-(2/5)V^2 + t), whose witness goes through division."""
    t = ValuedSeries.t_power(QQ, ZZ, 1)
    V = Poly.var(QQ, ZZ, Y0)

    def c(x):
        return Poly.const(ValuedSeries.scalar(QQ, ZZ, Fraction(x)))

    cfg = {"field": "Q", "op": op,
           "seq0": lacunary_sequence(QQ, 300, [Fraction(2, 3)]).to_json()}
    if op == "family":
        cfg["fs"] = [V.to_json(), (V ** 2 + V.scale(t) * c("3/2")).to_json()]
    else:
        cfg["f1"] = (c("3/2") * V ** 2 + V.scale(t)).to_json()
        cfg["f2"] = (c("-2/5") * V ** 2 + c(1).scale(t)).to_json()
    return cfg


def batch_cfgs():
    return [tail_cfg((0, 5), (1, 2), 100), tail_cfg((0, 3), (2, 1), 100)]


# sha256 of the canonical JSON each config gives, recorded while
# exponents were still wrapped in element objects; a change of internal
# representation must keep every certificate byte-identical.  The smooth
# digest was renewed when embedded derived-sequence tables were cut to
# the chosen index + 2 terms; FULL_TABLES holds the certificate with the
# full 299/300-term tables, and TestGolden shows the two agree otherwise.
# The two Q smooth digests were recorded while series coefficients were
# Fractions, before they became integer numerators over one denominator.
GOLDEN = {
    "separate-tail": ("separate", tail_cfg,
                      "dcff16b899b48ff4832c7a3ce659bca555e5001359be8545a421adbc039238ea"),
    "separate-batch": ("separate", batch_cfgs,
                       "df8f428a1f0a66590f7f2a320918f6229c59bb672ae75f53ec5bf90e4ed78ceb"),
    "separate-batch-worst": ("separate", lambda: batch_cfgs()[:1] + [{"op": "tail"}],
                             "9e4768e57a6a354cd78ddb139f475b9a1b76634a7aec190e896c5cc37a7ef8a4"),
    "rewrite-linear-Q": ("rewrite", lambda: univariate_cfg(QQ, 1),
                         "921929462226f2790cfed02bd81ff96924e261750226daa1c9eef89581dfc8f4"),
    "rewrite-square-F2": ("rewrite", lambda: univariate_cfg(GF(2), 2),
                          "4a92f7cdf1f7f3a47a09ff4fe14e27d11a534fbfb7a4ec45be5da7cb5c70f445"),
    "rewrite-square-Q": ("rewrite", lambda: univariate_cfg(QQ, 2),
                         "32f737e09955c455b732e8b8ab09445944a72ee3eb61920c147bf67e12af7b3f"),
    "smooth-family-F5": ("smooth", family_cfg,
                         "67a61495585f8ee9a312198502412c288118a521eb450cee113686096897485b"),
    "smooth-family-Q": ("smooth", lambda: q_smooth_cfg("family"),
                        "2e45661264ea8e7a08bb89c12071f820a9eb934c58043d67e2c7e3ccd74afbbc"),
    "smooth-fraction-Q": ("smooth", lambda: q_smooth_cfg("fraction"),
                          "5e7ca85afdd1c5404580af58a87687ba373e2712fe37f5f31bfef881418f20f2"),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_digest(self, tmp_path, capsys, name):
        command, cfg, digest = GOLDEN[name]
        out = tmp_path / "out.json"
        run([command, write(tmp_path, "c.json", cfg()), "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_full_table_certificate(self, tmp_path, capsys):
        # The certificate with full tables still verifies, and cutting its
        # tables to index + 2 terms gives the certificate built today.
        assert run(["verify", str(FULL_TABLES)]) == 0
        old = json.loads(FULL_TABLES.read_text())
        cut = 0
        for rewrite in old["rewrites"]:
            for seq, t in zip(rewrite["seqs"], rewrite["indices"]):
                if seq["seq"] == "table":
                    assert len(seq["terms"]) > t + 2
                    seq["terms"] = seq["terms"][:t + 2]
                    cut += 1
        assert cut == 3
        out = tmp_path / "out.json"
        assert run(["smooth", write(tmp_path, "c.json", family_cfg()), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == old


class TestSeparate:
    def test_tail_example(self, tmp_path, capsys):
        # [DERIVED] the nu=3, r=1 instance through the CLI
        out = str(tmp_path / "cert.json")
        assert run(["separate", write(tmp_path, "c.json", tail_cfg()), "--out", out]) == 0
        cert = json.loads(Path(out).read_text())
        assert cert["nu"] == 3 and cert["r"] == 1
        assert run(["verify", out]) == 0

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert run(["separate", str(p)]) == 1

    def test_missing_key(self, tmp_path, capsys):
        cfg = {"op": "tail", "betas": [0]}
        assert run(["separate", write(tmp_path, "c.json", cfg)]) == 1

    def test_stalled_stream(self, tmp_path, capsys):
        # collision target beyond the declared window -> horizon exit
        assert run(["separate", write(tmp_path, "c.json", tail_cfg((0, 1000), H=50))]) == 2


class TestRewrite:
    def test_linear_over_Q(self, tmp_path, capsys):
        out = str(tmp_path / "cert.json")
        cfg = univariate_cfg(QQ, 1)
        assert run(["rewrite", write(tmp_path, "c.json", cfg), "--out", out]) == 0
        assert json.loads(Path(out).read_text())["case"] == "case1"
        assert run(["verify", out]) == 0

    def test_square_over_F2_case2(self, tmp_path, capsys):
        out = str(tmp_path / "cert.json")
        cfg = univariate_cfg(GF(2), 2)
        assert run(["rewrite", write(tmp_path, "c.json", cfg), "--out", out]) == 0
        assert json.loads(Path(out).read_text())["case"] == "case2"

    def test_horizon_flag_stops_at_table_end(self, tmp_path, capsys):
        # --horizon cannot reach past the terms a table sequence has
        cfg = univariate_cfg(QQ, 1)
        cfg["seqs"] = [TableSequence(QQ, [(2 ** j, QQ.one()) for j in range(12)]).to_json()]
        c = write(tmp_path, "c.json", cfg)
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["rewrite", c, "--out", str(o1)]) == 0
        assert run(["rewrite", c, "--horizon", "300", "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_zero_polynomial(self, tmp_path, capsys):
        cfg = univariate_cfg(QQ, 1)
        cfg["g"] = Poly.zero(QQ, ZZ).to_json()
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1


class TestWindowRetries:
    """window and retries are positive integers, from the flag when it is
    given, else from the config, else the default."""

    @pytest.mark.parametrize("value", [0, -3, 2.5, True])
    @pytest.mark.parametrize("key", ["window", "retries"])
    @pytest.mark.parametrize("command, cfg", [("rewrite", lambda: univariate_cfg(QQ, 2)),
                                              ("smooth", family_cfg)])
    def test_bad_config_value(self, tmp_path, capsys, command, cfg, key, value):
        bad = dict(cfg(), **{key: value})
        assert run([command, write(tmp_path, "c.json", bad)]) == 1
        assert f"{key} must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("key", ["window", "retries"])
    @pytest.mark.parametrize("command, cfg", [("rewrite", lambda: univariate_cfg(QQ, 2)),
                                              ("smooth", family_cfg)])
    def test_bad_flag(self, tmp_path, capsys, command, cfg, key, value):
        # the flag wins over a valid config value, even when it is 0
        good = dict(cfg(), **{key: 8})
        assert run([command, write(tmp_path, "c.json", good), f"--{key}", value]) == 1
        assert f"{key} must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, -3, 2.5, True])
    def test_bad_value_in_batch(self, tmp_path, capsys, value):
        good = univariate_cfg(QQ, 2)
        cfgs = [good, dict(good, window=value), dict(good, retries=value)]
        assert run(["rewrite", write(tmp_path, "c.json", cfgs), "--jobs", "2"]) == 1
        results = json.loads(capsys.readouterr().out)
        assert results[0]["cert"] == "rewrite"
        for key, result in zip(["window", "retries"], results[1:]):
            assert result["exit"] == 1 and f"{key} must be a positive integer" in result["error"]

    @pytest.mark.parametrize("value", [1, 8])
    @pytest.mark.parametrize("key", ["window", "retries"])
    def test_small_and_default_values_build(self, tmp_path, capsys, key, value):
        c = write(tmp_path, "c.json", dict(univariate_cfg(QQ, 2), **{key: value}))
        assert run(["rewrite", c]) == 0
        assert run(["rewrite", c, f"--{key}", str(value)]) == 0

    def test_zero_window_flag_is_not_ignored(self, tmp_path, capsys):
        # --window 0 is rejected, not replaced by the default 8, under which
        # this horizon-6 config does not stabilize
        cfg = univariate_cfg(QQ, 2)
        cfg["seqs"] = [lacunary_sequence(QQ, 6).to_json()]
        c = write(tmp_path, "c.json", cfg)
        assert run(["rewrite", c, "--window", "0"]) == 1
        capsys.readouterr()
        assert run(["rewrite", c]) == 2
        assert capsys.readouterr().err == (
            "horizon/stabilization: coefficient value did not stabilize over 8 "
            "indices below the horizon 6: D^(1) at val 1 since j=1, "
            "D^(2) at val 0 since j=0\n")


class TestSmooth:
    def test_family_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "cert.json")
        assert run(["smooth", write(tmp_path, "c.json", family_cfg()), "--out", out]) == 0
        assert run(["verify", out]) == 0

    def test_fraction_bad_vals(self, tmp_path, capsys):
        cfg = {"field": "Q", "op": "fraction",
               "f1": Poly.var(QQ, ZZ, Y0).to_json(),
               "f2": (Poly.var(QQ, ZZ, Y0) ** 2).to_json(),
               "seq0": lacunary_sequence(QQ, 300).to_json()}
        assert run(["smooth", write(tmp_path, "c.json", cfg)]) == 1

    def test_horizon_too_small(self, tmp_path, capsys):
        cfg = {"field": "Q", "op": "pair",
               "f": Poly.var(QQ, ZZ, Y0).to_json(),
               "seq0": lacunary_sequence(QQ, 300).to_json()}
        assert run(["smooth", write(tmp_path, "c.json", cfg),
                    "--horizon", "3"]) == 2


class TestVerify:
    def test_tampered_cert(self, tmp_path, capsys):
        out = str(tmp_path / "cert.json")
        run(["separate", write(tmp_path, "c.json", tail_cfg()), "--out", out])
        cert = json.loads(Path(out).read_text())
        cert["nu"] = 0
        bad = write(tmp_path, "bad.json", cert)
        assert run(["verify", bad]) == 4

    def test_unknown_schema(self, tmp_path, capsys):
        assert run(["verify", write(tmp_path, "x.json", {"cert": "what"})]) == 1

    def test_truncated_file(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text('{"cert": "sep', encoding="utf-8")
        assert run(["verify", str(p)]) == 1

    def test_unknown_rewrite_kind(self, tmp_path, capsys):
        # shift_min certificates are no longer produced and never accepted
        out = str(tmp_path / "cert.json")
        run(["rewrite", write(tmp_path, "c.json", univariate_cfg(QQ, 1)), "--out", out])
        cert = json.loads(Path(out).read_text())
        cert["kind"] = "shift_min"
        assert run(["verify", write(tmp_path, "bad.json", cert)]) in (1, 4)

    def unreadable_relation(self, tmp_path):
        """A valid [V, V^2] family certificate (F5, H=100) and a copy whose
        first relation coefficient is emptied to O(t^0), so no residual
        value can be read from it."""
        out = tmp_path / "cert.json"
        cfg = family_cfg(horizon=100)
        cfg["fs"][1] = (Poly.var(GF(5), ZZ, Y0) ** 2).to_json()
        assert run(["smooth", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        bad = json.loads(out.read_text())
        coeff = bad["relations"][0][0][1]
        coeff["terms"], coeff["trunc"] = [], 0
        return cert, bad

    def test_unreadable_relation_rejected(self, tmp_path, capsys):
        _, bad = self.unreadable_relation(tmp_path)
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4

    def test_unreadable_witness_denominator_rejected(self, tmp_path, capsys):
        f5 = GF(5)
        V = Poly.var(f5, ZZ, Y0)
        cfg = {"field": "Fp", "p": 5, "op": "fraction", "f1": (V ** 2).to_json(),
               "f2": V.to_json(), "seq0": lacunary_sequence(f5, 100).to_json()}
        out = tmp_path / "cert.json"
        assert run(["smooth", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        bad = json.loads(out.read_text())
        coeff = bad["witnesses"][-1]["den"][0][1]
        coeff["terms"], coeff["trunc"] = [], 0
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4

    def test_unreadable_relation_in_batch(self, tmp_path, capsys):
        cert, bad = self.unreadable_relation(tmp_path)
        capsys.readouterr()
        path = write(tmp_path, "batch.json", [bad, cert])
        assert run(["verify", path, "--jobs", "2"]) == 4
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 4
        assert results[1] == {"cert": "smooth", "verified": True}

    def zero_denominator(self, tmp_path, op):
        """A valid certificate of the op (F5, H=100) and a copy whose first
        problem denominator is an exact zero series."""
        f5 = GF(5)
        V = Poly.var(f5, ZZ, Y0)
        cfg = {"field": "Fp", "p": 5, "op": op, "seq0": lacunary_sequence(f5, 100).to_json()}
        if op == "family":
            cfg["fs"] = [V.to_json(), (V ** 2).to_json()]
        else:
            cfg["f1"], cfg["f2"] = (V ** 2).to_json(), V.to_json()
        out = tmp_path / "cert.json"
        assert run(["smooth", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        bad = json.loads(out.read_text())
        bad["problem"]["ds"][0]["terms"] = []
        return cert, bad

    @pytest.mark.parametrize("op", ["family", "fraction"])
    def test_zero_denominator_rejected(self, tmp_path, capsys, op):
        _, bad = self.zero_denominator(tmp_path, op)
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert "division by exact zero" in capsys.readouterr().err

    def test_zero_denominator_in_batch(self, tmp_path, capsys):
        cert, bad = self.zero_denominator(tmp_path, "fraction")
        capsys.readouterr()
        path = write(tmp_path, "batch.json", [bad, cert])
        assert run(["verify", path, "--jobs", "2"]) == 4
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 4
        assert results[1] == {"cert": "smooth", "verified": True}


class TestWitnessIndex:
    """A "ye" witness names problem member e, 1 <= e <= len(fs); any other
    e exits 4 at its witness, never a traceback or a read of fs[-1]."""

    def certificate(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["smooth", write(tmp_path, "c.json", family_cfg(horizon=100)),
                    "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert [w["e"] for w in cert["witnesses"] if w["kind"] == "ye"] == [1, 2]
        return cert

    @staticmethod
    def with_e(cert, e):
        bad = copy.deepcopy(cert)
        bad["witnesses"][-1]["e"] = e
        return bad

    @pytest.mark.parametrize("e", [3, 0])
    def test_out_of_range_rejected(self, tmp_path, capsys, e):
        bad = self.with_e(self.certificate(tmp_path), e)
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert "witness-y2" in capsys.readouterr().err

    def test_out_of_range_in_batch(self, tmp_path, capsys):
        cert = self.certificate(tmp_path)
        capsys.readouterr()
        path = write(tmp_path, "batch.json", [self.with_e(cert, 3), cert])
        assert run(["verify", path, "--jobs", "2"]) == 4
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 4 and "witness-y2" in results[0]["error"]
        assert results[1] == {"cert": "smooth", "verified": True}


class TestVerifyDelta:
    """`verify --delta` checks a smooth certificate at the delta given, and
    every relation and witness is decided below a cap just past that delta."""

    def certificate(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["smooth", write(tmp_path, "c.json", family_cfg(horizon=100)),
                    "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["delta"] == 16
        return str(out)

    @pytest.mark.parametrize("delta", [16, 15, 1, 31])
    def test_supported_delta_verifies(self, tmp_path, capsys, delta):
        path = self.certificate(tmp_path)
        caps = []
        real = smooth._decide

        def spy(check, cap):
            caps.append(cap)
            real(check, cap)

        with mock.patch.object(smooth, "_decide", spy):
            assert run(["verify", path, "--delta", str(delta)]) == 0
        # relations and witnesses below a cap past delta, the minor lower
        assert None not in caps
        assert max(caps) <= 2 * delta and sum(cap <= delta for cap in caps) <= 1

    @pytest.mark.parametrize("delta, window", [(32, 32), (100, 32)])
    def test_delta_past_the_images_rejected(self, tmp_path, capsys, delta, window):
        path = self.certificate(tmp_path)
        capsys.readouterr()
        assert run(["verify", path, "--delta", str(delta)]) == 4
        assert capsys.readouterr().err.strip() == (
            "verification failed: verification failed at relation-0: window "
            f"{window} does not certify vanishing past {delta}")


class TestBadRational:
    """A rational coefficient "n/0" exits 1, in a build, a verify and a batch."""

    def certificate(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["rewrite", write(tmp_path, "c.json", univariate_cfg(QQ, 2)),
                    "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_verify(self, tmp_path, capsys):
        bad = self.certificate(tmp_path)
        bad["G1"][0][1]["terms"][0][1] = "1/0"
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 1
        assert "cannot read rational '1/0'" in capsys.readouterr().err

    def test_build(self, tmp_path, capsys):
        cfg = univariate_cfg(QQ, 2)
        cfg["g"][0][1]["terms"][0][1] = "3/0"
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1
        assert "cannot read rational '3/0'" in capsys.readouterr().err

    def test_batch(self, tmp_path, capsys):
        cert = self.certificate(tmp_path)
        bad = copy.deepcopy(cert)
        bad["G1"][0][1]["terms"][0][1] = "1/0"
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "b.json", [bad, cert]), "--jobs", "2"]) == 1
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 1 and "1/0" in results[0]["error"]
        assert results[1] == {"cert": "rewrite", "verified": True}


class TestInternalError:
    """An exception outside the exit-code map exits 5, and the rest of a
    batch still gets its results.  Here: a rewrite certificate whose g
    raises Y0 to the power 2000 overflows the recursion of the power table."""

    CFG = {"field": "Q", "op": "univariate",
           "g": [[[[{"tag": "orig", "e": 0}, 1]], {"trunc": "inf", "terms": [[0, "3/1"]]}],
                 [[], {"trunc": "inf", "terms": [[2, "2/1"]]}]],
           "seqs": [{"seq": "rule", "field": "Q", "horizon": 300,
                     "exp": {"kind": "geom", "a": 1},
                     "coeff": {"kind": "const", "c": "4/1"}}]}

    def certificates(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["rewrite", write(tmp_path, "c.json", self.CFG), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        bad = copy.deepcopy(cert)
        (mono, _), = [m for m in bad["g"] if m[0]]
        assert mono == [[{"tag": "orig", "e": 0}, 1]]
        mono[0][1] = 2000
        return bad, cert

    def test_alone(self, tmp_path, capsys):
        bad, _ = self.certificates(tmp_path)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 5
        assert capsys.readouterr().err.startswith("internal error: RecursionError")

    def test_in_batch(self, tmp_path, capsys):
        bad, cert = self.certificates(tmp_path)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "b.json", [bad, cert]), "--jobs", "2"]) == 5
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 5 and "RecursionError" in results[0]["error"]
        assert results[1] == {"cert": "rewrite", "verified": True}


class TestSeparationMaps:
    """A separation certificate's sigma must be what it claims to be, not
    merely a superset of the collisions."""

    def certificate(self, tmp_path, cfg):
        out = tmp_path / "cert.json"
        assert run(["separate", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_cross_sigma_listing_every_pair(self, tmp_path, capsys):
        H = 50
        cert = self.certificate(tmp_path, {"op": "cross", "beta0": 5, "beta1": 0, "beta01": 0,
                                           "gamma0": list(range(1, H + 1)),
                                           "gamma1": list(range(1, H + 1))})
        cert["beta01"] = -3  # P0 = P01 at gamma1 = 8, past rho1 = 5
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        assert "cross-distinct: families collide at (1,8)" in capsys.readouterr().err
        cert["sigma"] = [[j0, j1] for j0 in range(1, H + 1) for j1 in range(1, H + 1)]
        cert["A"] = list(range(1, H + 1))
        assert run(["verify", write(tmp_path, "all.json", cert)]) == 4
        assert "cross-injective" in capsys.readouterr().err

    def test_cross_row_below_rho0(self, tmp_path, capsys):
        # gamma0 = 5 = beta1 - beta01 makes row 5 collide (P1 = P01) at every
        # j1, no P0 = P1 or P0 = P01 collision lying there; rho0 = 5 covers it
        cert = self.certificate(tmp_path, {"op": "cross", "beta0": 0, "beta1": 5, "beta01": 0,
                                           "gamma0": list(range(1, 51)),
                                           "gamma1": list(range(1, 51))})
        assert (cert["rho0"], cert["rho1"]) == (5, 0) and [5, 0] not in cert["sigma"]
        cert["rho0"] = 4
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        assert "cross-distinct: families collide at (5,1)" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [[500, 600], [4, 1.0], [True, 198]])
    def test_shifted_sigma_outside_window(self, tmp_path, capsys, pair):
        cert = self.certificate(tmp_path, {"op": "shifted", "beta0": 0, "beta1": 2, "c": 1,
                                           "gamma0": list(range(1, 201))})
        assert run(["verify", write(tmp_path, "ok.json", cert)]) == 0
        cert["sigma"].append(pair)
        cert["A"].append(pair[0])
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        assert "shifted-window" in capsys.readouterr().err


class TestTailBounds:
    """r, nu and ts of a tail certificate are checked claims: a value out of
    range exits 4 with claim tail-bounds, never a traceback or a read of
    wrapped-around stream entries."""

    def certificate(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["separate", write(tmp_path, "c.json", tail_cfg(H=50)), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert (cert["nu"], cert["r"]) == (3, 1)
        return cert

    @pytest.mark.parametrize("key, value", [
        ("r", 5), ("r", -1), ("r", True), ("nu", 60), ("nu", -3), ("nu", 2.0),
        ("ts", [2]), ("ts", [2, 1, 1]), ("ts", [2, "1"]), ("ts", 2)])
    def test_out_of_range_rejected(self, tmp_path, capsys, key, value):
        cert = self.certificate(tmp_path)
        cert[key] = value
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        assert "tail-bounds" in capsys.readouterr().err

    def test_out_of_range_in_batch(self, tmp_path, capsys):
        cert = self.certificate(tmp_path)
        capsys.readouterr()
        path = write(tmp_path, "batch.json", [dict(cert, r=5), cert])
        assert run(["verify", path, "--jobs", "2"]) == 4
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 4 and "tail-bounds" in results[0]["error"]
        assert results[1] == {"cert": "separation", "verified": True}


def list_rule(values, step):
    return {"seq": "rule", "field": "Q", "horizon": 100,
            "exp": {"kind": "list", "values": values, "step": step},
            "coeff": {"kind": "const", "c": "1/1"}}


class TestListRules:
    """A list exponent rule must increase through every listed value and
    its tail step, whichever command reads it."""

    BAD = [([1, 5, 3], 1), ([1, 2], 0), ([1, 2], -1)]

    @pytest.mark.parametrize("values, step", BAD)
    def test_rewrite(self, tmp_path, capsys, values, step):
        cfg = univariate_cfg(QQ, 1)
        cfg["seqs"] = [list_rule(values, step)]
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1

    @pytest.mark.parametrize("values, step", BAD)
    def test_smooth(self, tmp_path, capsys, values, step):
        cfg = {"field": "Q", "op": "pair", "f": Poly.var(QQ, ZZ, Y0).to_json(),
               "seq0": list_rule(values, step)}
        assert run(["smooth", write(tmp_path, "c.json", cfg)]) == 1

    @pytest.mark.parametrize("values, step", BAD)
    def test_separate(self, tmp_path, capsys, values, step):
        cfg = {"op": "tail", "betas": [0, 3], "ts": [2, 1],
               "gamma": list_rule(values, step)}
        assert run(["separate", write(tmp_path, "c.json", cfg)]) == 1

    def test_increasing_list_accepted(self, tmp_path, capsys):
        cfg = univariate_cfg(QQ, 1)
        cfg["seqs"] = [list_rule([0, 1, 3], 2)]
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 0


class TestShortData:
    """A certificate whose data stops short of its claims exits 4."""

    def test_rewrite_table_cut(self, tmp_path, capsys):
        cert = json.loads(FULL_TABLES.read_text())
        rewrite = cert["rewrites"][1]
        seq, t = rewrite["seqs"][0], rewrite["indices"][0]
        seq["terms"] = seq["terms"][:t + 2]
        assert run(["verify", write(tmp_path, "ok.json", rewrite)]) == 0
        seq["terms"] = seq["terms"][:t + 1]
        assert run(["verify", write(tmp_path, "bad.json", rewrite)]) == 4

    def test_smooth_table_cut(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert run(["smooth", write(tmp_path, "c.json", family_cfg()), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        seq = cert["rewrites"][1]["seqs"][1]
        assert len(seq["terms"]) == cert["rewrites"][1]["indices"][1] + 2
        seq["terms"].pop()
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4

    @staticmethod
    def multi_cfg():
        return {"op": "multi", "subsets": [[0], [1], [0, 1]], "betas": [0, 0, 0],
                "ts": [1, 1], "gammas": [list(range(1, 51))] * 2}

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(rhos=[0]),
        lambda c: c["entries"][0].__setitem__(1, [[5, 1]]),
        lambda c: c["entries"][0].__setitem__(1, [[-1, 1]]),
    ], ids=["rhos-cut", "position-past-streams", "negative-position"])
    def test_multi_shape(self, tmp_path, capsys, edit):
        out = tmp_path / "cert.json"
        assert run(["separate", write(tmp_path, "c.json", self.multi_cfg()),
                    "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        edit(cert)
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4

    def test_multi_ts_cut(self, tmp_path, capsys):
        cfg = self.multi_cfg()
        cfg["ts"] = [1]
        assert run(["separate", write(tmp_path, "c.json", cfg)]) == 1


class TestUnreadableRewrite:
    """A rewrite config or certificate whose values cannot be read, or that
    holds a list or number where an object belongs, gets an exit code and
    never a traceback, also beside a valid entry in a --jobs 2 batch."""

    UNKNOWN = {"terms": [], "trunc": 3}  # no known term below t^3

    def certificate(self, tmp_path, degree=1):
        out = tmp_path / "cert.json"
        cfg = univariate_cfg(QQ, degree)
        assert run(["rewrite", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_unreadable_g_build(self, tmp_path, capsys):
        cfg = univariate_cfg(QQ, 1)
        cfg["g"][0][1] = self.UNKNOWN
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 2
        assert "series vanishes below truncation 3" in capsys.readouterr().err

    def test_unreadable_g_build_in_batch(self, tmp_path, capsys):
        bad = univariate_cfg(QQ, 1)
        bad["g"][0][1] = self.UNKNOWN
        path = write(tmp_path, "batch.json", [bad, univariate_cfg(QQ, 1)])
        assert run(["rewrite", path, "--jobs", "2"]) == 2
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 2
        assert results[1] == self.certificate(tmp_path)

    def test_unreadable_g_verify(self, tmp_path, capsys):
        # g = O(t^3)*Y0 recentres to O(t^3)*(v_t + s_t*Y), whose coefficients
        # are known only below t^(3 + their honest value)
        cert = self.certificate(tmp_path)
        cert["g"][0][1] = self.UNKNOWN
        for _, coeff in cert["G1"]:
            coeff["terms"], coeff["trunc"] = [], 3 + coeff["terms"][0][0]
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        assert "value-table: series vanishes below truncation 4" in capsys.readouterr().err

    @staticmethod
    def non_object(cert, edit):
        if edit == "seq-list":
            cert["seqs"][0] = [1]
        elif edit == "seq-number":
            cert["seqs"][0] = 3
        else:
            cert["c_mono"][0][0] = 1
        return cert

    @pytest.mark.parametrize("edit", ["seq-list", "seq-number", "c-mono-tag"])
    def test_non_object_field(self, tmp_path, capsys, edit):
        bad = self.non_object(self.certificate(tmp_path), edit)
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 1
        assert "has no attribute 'get'" in capsys.readouterr().err

    def test_non_object_field_in_batch(self, tmp_path, capsys):
        cert = self.certificate(tmp_path)
        bad = self.non_object(json.loads(json.dumps(cert)), "c-mono-tag")
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "batch.json", [bad, cert]), "--jobs", "2"]) == 1
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 1
        assert results[1] == {"cert": "rewrite", "verified": True}

    @pytest.mark.parametrize("position", ["first", "last"])
    def test_repeated_monomial(self, tmp_path, capsys, position):
        # a repeat of G1's first monomial with coefficient 5, before or after
        # every honest entry
        cert = self.certificate(tmp_path, degree=2)
        repeat = [cert["G1"][0][0], {"terms": [[0, "5/1"]], "trunc": "inf"}]
        cert["G1"].insert(0 if position == "first" else len(cert["G1"]), repeat)
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 1
        assert "repeated monomial" in capsys.readouterr().err


class TestMixedGroups:
    """Every element of one input must lie in one value group."""

    @pytest.mark.parametrize("betas, gamma", [
        ([0, 3], [[0, s] for s in range(1, 51)]),   # int beta, lex gammas
        ([[0, 1], [0, 2]], [[0, s, 1] for s in range(1, 51)]),  # ragged lex
        ([[], []], [[s] for s in range(1, 51)]),    # empty lex tuples
        ([True, 3], list(range(1, 51))),            # booleans
        (["0/1", 3], [f"{s}/1" for s in range(1, 51)]),  # int among "n/d"
    ])
    def test_separate_rejects(self, tmp_path, capsys, betas, gamma):
        cfg = {"op": "tail", "betas": betas, "ts": [2, 1], "gamma": gamma}
        assert run(["separate", write(tmp_path, "c.json", cfg)]) == 1

    def test_int_exponent_in_rational_config(self, tmp_path, capsys):
        seq = {"seq": "rule", "field": "Q", "horizon": 300,
               "exp": {"kind": "arith", "a": "1/2", "b": "1/3"},
               "coeff": {"kind": "const", "c": "1/1"}}
        g = [[[[{"tag": "orig", "e": 0}, 1]], {"trunc": "inf", "terms": [[0, "1/1"]]}]]
        cfg = {"field": "Q", "op": "univariate", "g": g, "seqs": [seq]}
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1
        seq["exp"]["b"] = 1
        g[0][1]["terms"][0][0] = "0/1"
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1

    @pytest.mark.parametrize("delta", ["3/2", "[1,0]", "true", "x"])
    def test_delta_in_wrong_group(self, tmp_path, capsys, delta):
        cfg = write(tmp_path, "c.json", family_cfg(horizon=100))
        assert run(["smooth", cfg, "--delta", delta]) == 1


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path, capsys):
        c = write(tmp_path, "c.json", univariate_cfg(QQ, 2))
        o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run(["rewrite", c, "--out", o1]) == 0
        assert run(["rewrite", c, "--out", o2]) == 0
        assert Path(o1).read_bytes() == Path(o2).read_bytes()


class TestBatch:
    def test_array_config(self, tmp_path, capsys):
        out = str(tmp_path / "batch.json")
        assert run(["separate", write(tmp_path, "c.json", batch_cfgs()), "--out", out]) == 0
        results = json.loads(Path(out).read_text())
        assert [r["nu"] for r in results] == [0, 3]

    def test_batch_reports_worst_exit(self, tmp_path, capsys):
        cfgs = batch_cfgs()[:1] + [{"op": "tail"}]
        assert run(["separate", write(tmp_path, "c.json", cfgs)]) == 1

    @pytest.mark.parametrize("payload", [1, "tail", None, True])
    def test_non_object_config(self, tmp_path, capsys, payload):
        assert run(["separate", write(tmp_path, "c.json", payload)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["separate", "verify"])
    def test_non_object_entry(self, tmp_path, capsys, command, jobs):
        # the bad entry exits 1 and the valid one still gets its result
        out = str(tmp_path / "cert.json")
        assert run(["separate", write(tmp_path, "c.json", tail_cfg()), "--out", out]) == 0
        cert = json.loads(Path(out).read_text())
        valid = tail_cfg() if command == "separate" else cert
        capsys.readouterr()
        assert run([command, write(tmp_path, "b.json", [valid, 1]), "--jobs", jobs]) == 1
        results = json.loads(capsys.readouterr().out)
        assert results[0] == (cert if command == "separate"
                              else {"cert": "separation", "verified": True})
        assert results[1]["exit"] == 1 and "must be a JSON object" in results[1]["error"]
