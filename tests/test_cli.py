"""Command-line front end: exit codes, determinism, verify round-trips."""
import copy
import functools
import hashlib
import io
import json
import math
import runpy
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcert import smooth
from valcert.cli import canonical_json, main, run_single
from valcert.errors import InputError
from valcert.fields import GF, PRIME_LIMIT, QQ, _is_prime, field_from_json
from valcert.group import INF, INTEGERS as ZZ
from valcert.pcs import RuleSequence, TableSequence, lacunary_sequence
from valcert.poly import MAX_JSON_DEGREE, Poly, VarTag
from valcert.separation import SeparationCert, separate_indices
from valcert.series import ValuedSeries

from test_verify_cap import recorded_caps

Y0 = VarTag.orig(0)


FULL_TABLES = Path(__file__).parent / "fixtures" / "smooth_family_F5_full_tables.json"
# Certificates written while series JSON went through one Fraction per
# coefficient: the outputs of the rewrite-square-Q and smooth-fraction-Q
# golden configs (below), the smooth one while its derived tables held
# index + 2 terms.
OLD_Q_CERTS = {"rewrite-square-Q": Path(__file__).parent / "fixtures" / "rewrite_square_Q.json",
               "smooth-fraction-Q": Path(__file__).parent / "fixtures" / "smooth_fraction_Q.json"}


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


def power_family_cfg(a):
    """The F5 family [V^a + tV, V^(a+1) + tV^2]: its chain resultant is a
    Sylvester determinant of a + (a + 1) rows."""
    f5 = GF(5)
    t = ValuedSeries.t_power(f5, ZZ, 1)
    V = Poly.var(f5, ZZ, Y0)
    return {"field": "Fp", "p": 5, "op": "family",
            "fs": [(V ** a + V.scale(t)).to_json(), (V ** (a + 1) + (V ** 2).scale(t)).to_json()],
            "seq0": lacunary_sequence(f5, 300).to_json()}


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


def q_pair_cfg(branch):
    """A pair config over Q for each branch of sm_pair: the constant
    f = t^3; f = V, where d divides c; and f = V - (t + t^2), where val
    f(y0) = 4 passes the val 2 of the recentring constant, so c divides d."""
    t = ValuedSeries.t_power(QQ, ZZ, 1)
    V = Poly.var(QQ, ZZ, Y0)
    f = {"constant": Poly.const(ValuedSeries.t_power(QQ, ZZ, 3)),
         "d-divides-c": V,
         "c-divides-d": V - Poly.const(t + ValuedSeries.t_power(QQ, ZZ, 2))}[branch]
    return {"field": "Q", "op": "pair", "f": f.to_json(),
            "seq0": lacunary_sequence(QQ, 300).to_json()}


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
# Smooth certificates then stopped embedding each rewrite's G1 and value
# table; each smooth digest is the sha256 of the earlier output with those
# two keys removed from its embedded rewrites, computed from that output.
# The smooth-pair digests, one per branch of sm_pair, were recorded before
# its three branches shared one tail and its base stopped being searched.
# The family and fraction digests were last renewed when the embedded
# derived tables were cut from index + 2 to index + 1 terms, the terms
# recentring reads; each is the sha256 of the earlier output with the
# last term of each such table removed, computed from that output.
# Embedded rewrites then stopped carrying sequences, which the verifier
# derives from the problem echo; each smooth digest with a rewrite is the
# sha256 of the earlier output with the seqs key removed from its embedded
# rewrites, computed from that output.
# The power-family digest was recorded while the chain resultant was a
# Laplace expansion over the standard Sylvester rows.
GOLDEN = {
    "separate-tail": ("separate", tail_cfg,
                      "dcff16b899b48ff4832c7a3ce659bca555e5001359be8545a421adbc039238ea"),
    "separate-batch": ("separate", batch_cfgs,
                       "df8f428a1f0a66590f7f2a320918f6229c59bb672ae75f53ec5bf90e4ed78ceb"),
    "separate-batch-worst": ("separate", lambda: batch_cfgs()[:1] + [{"op": "tail"}],
                             "9e4768e57a6a354cd78ddb139f475b9a1b76634a7aec190e896c5cc37a7ef8a4"),
    "rewrite-linear-Q": ("rewrite", lambda: univariate_cfg(QQ, 1),
                         "35fd9a809b79f210019de8dfd7e43b717e501fd72acdb2e96957657a87f58862"),
    "rewrite-square-F2": ("rewrite", lambda: univariate_cfg(GF(2), 2),
                          "b0f83ddd5dd217de01820593cbce254a753730a4843e7ff80e2b1a3d9e449b9a"),
    "rewrite-square-Q": ("rewrite", lambda: univariate_cfg(QQ, 2),
                         "571e1afe5e83132dcf275af0af87ca77c23b681e0d94e87f426292a06abe6192"),
    "smooth-family-F5": ("smooth", family_cfg,
                         "bbd181a030da6fc229e0a02e087aaf609ac4249fcdd3274b89cbe04fa23fad71"),
    "smooth-family-power-F5": ("smooth", lambda: power_family_cfg(10),
                               "c54dd586132523356e5c29972ae35089d5aa3009712a1e08b7d4114ca5d08abd"),
    "smooth-family-Q": ("smooth", lambda: q_smooth_cfg("family"),
                        "d4bbedd242d82d11bf955b168c969af8c54b270eac17a361d8b4348b6f525278"),
    "smooth-fraction-Q": ("smooth", lambda: q_smooth_cfg("fraction"),
                          "0f2a9d78a258312f5d814dcd49146832ef9e717e7c6c35e67009ffd66a536849"),
    "smooth-pair-constant": ("smooth", lambda: q_pair_cfg("constant"),
                             "e0ce7214471e04898f0f9e5cb38aeb0c4b9070002b685b41c7dd1d2f833d1e81"),
    "smooth-pair-d-divides-c": ("smooth", lambda: q_pair_cfg("d-divides-c"),
                                "5ac7b5e1bafe2d6ca3ba1bb928a530c1871c870f16c9fe74c9bc44d612fa1cbc"),
    "smooth-pair-c-divides-d": ("smooth", lambda: q_pair_cfg("c-divides-d"),
                                "e7713d23984b5cb9578f31647dcbcfb5dcd40d95e27698b35aa847ff1ef0b210"),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_digest(self, tmp_path, capsys, name):
        command, cfg, digest = GOLDEN[name]
        out = tmp_path / "out.json"
        run([command, write(tmp_path, "c.json", cfg()), "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_full_table_certificate(self, tmp_path, capsys):
        # The certificate with full tables, whose embedded rewrites carry
        # sequences, G1 and a value table, still verifies; removing all
        # three from each embedded rewrite gives the certificate built today.
        assert run(["verify", str(FULL_TABLES)]) == 0
        old = json.loads(FULL_TABLES.read_text())
        assert _drop_seqs(old) == 2
        _respell(old)
        for rewrite in old["rewrites"]:
            del rewrite["G1"], rewrite["table"]
        out = tmp_path / "out.json"
        assert run(["smooth", write(tmp_path, "c.json", family_cfg()), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == old


    @pytest.mark.parametrize("name", sorted(OLD_Q_CERTS))
    def test_old_q_certificate(self, tmp_path, capsys, name):
        # it verifies, and today's build of its config writes it again,
        # respelled, with the seqs of each embedded rewrite dropped; with no
        # embedded rewrite, it writes the respelled bytes
        path = OLD_Q_CERTS[name]
        command, cfg, digest = GOLDEN[name]
        dropped = 2 if command == "smooth" else 0
        capsys.readouterr()
        assert run(["verify", str(path)]) == 0
        cert = json.loads(path.read_text())
        assert json.loads(capsys.readouterr().out) == {"cert": cert["cert"], "verified": True}
        out = tmp_path / "out.json"
        assert run([command, write(tmp_path, "c.json", cfg()), "--out", str(out)]) == 0
        assert _drop_seqs(cert) == dropped
        assert json.loads(out.read_text()) == _respell(cert)
        if not dropped:
            respelled = canonical_json(_respell(json.loads(path.read_text()))).encode()
            assert hashlib.sha256(respelled).hexdigest() == digest
            assert out.read_bytes() == respelled

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_old_spelling_verifies_the_same(self, tmp_path, capsys, name):
        # the build respelled as certificates were once written, with
        # "trunc": "inf" and "exact" on every series, gets the same verdict
        command, cfg, _ = GOLDEN[name]
        out = tmp_path / "out.json"
        run([command, write(tmp_path, "c.json", cfg()), "--out", str(out)])
        new = json.loads(out.read_text())
        old = _respell(copy.deepcopy(new), old=True)
        assert command == "separate" or old != new
        capsys.readouterr()
        verdicts = [(run(["verify", write(tmp_path, "v.json", cert)]), capsys.readouterr())
                    for cert in (new, old)]
        assert verdicts[0] == verdicts[1]


def _drop_seqs(cert):
    """Drop the sequences each rewrite a smooth certificate embeds carries,
    in place; returns how many rewrites carried them."""
    return sum(rewrite.pop("seqs", None) is not None for rewrite in cert.get("rewrites", []))


def _respell(cert, old=False):
    """Respell every series of a certificate in place, as it is written
    today: no "exact" key, and "trunc" only when truncated; or, with old,
    as it was once written: "trunc", "inf" when exact, beside "exact"."""
    def series(obj):
        if isinstance(obj, dict):
            if "terms" in obj and "seq" not in obj:  # a table sequence has terms too
                yield obj
            for v in obj.values():
                yield from series(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from series(v)
    for s in list(series(cert)):
        if old:
            s["exact"] = s.setdefault("trunc", "inf") == "inf"
        else:
            s.pop("exact", None)
            if s.get("trunc") == "inf":
                del s["trunc"]
    return cert


def _built_smooth(op):
    """A [V, V^2 + tV] family over F5, or the fraction of q_smooth_cfg over
    Q, built in-process at H=100."""
    if op == "family":
        f5 = GF(5)
        V = Poly.var(f5, ZZ, Y0)
        return smooth.sm_family([V, V ** 2 + V.scale(ValuedSeries.t_power(f5, ZZ, 1))],
                                lacunary_sequence(f5, 100))
    cfg = q_smooth_cfg("fraction")
    f1, f2 = (Poly.from_json(cfg[k], QQ, ZZ) for k in ("f1", "f2"))
    return smooth.sm_fraction(f1, f2, lacunary_sequence(QQ, 100, [Fraction(2, 3)]))


def _as_once_embedded(cert):
    """A family or fraction certificate's rewrites as their JSON was once
    embedded: with G1, its value table and the sequences the link joins,
    seq0 as its rule and each derived y_e as the table of the index + 1
    terms that recentring reads."""
    problem = smooth._Problem(cert)
    seq0 = problem.seq0
    live = [seq0] + [smooth._derived_unit_sequence(f, smooth._canonical_d(f, seq0), seq0)
                     for f in problem.fs]
    out = []
    for i, rc in enumerate(cert.rewrites):
        old = copy.copy(rc)
        old.seqs = [live[e] if e == 0
                    else TableSequence(cert.pres.field,
                                       [live[e].term_pair(j) for j in range(t + 1)])
                    for e, t in zip((i, i + 1), rc.indices)]
        out.append(old.to_json())
    return out


@pytest.fixture(scope="module", params=["family", "fraction"])
def old_and_new(request):
    """A smooth certificate's JSON as written today, and as written while
    each embedded rewrite carried its sequences, G1 and value table."""
    cert = _built_smooth(request.param)
    new = json.loads(json.dumps(cert.to_json()))
    old = json.loads(json.dumps(dict(cert.to_json(), rewrites=_as_once_embedded(cert))))
    return old, new


class TestEmbeddedRewriteSchema:
    """Embedded rewrites no longer carry sequences, G1 and table; a
    certificate that does still verifies, and a wrong sequence, G1 or
    table in it is still caught."""

    @staticmethod
    def bumped(cert, coeff):
        c = Fraction(coeff) + 1
        return c.numerator % cert["p"] if "p" in cert else f"{c.numerator}/{c.denominator}"

    def test_old_schema_verifies(self, tmp_path, capsys, old_and_new):
        old, _ = old_and_new
        assert run(["verify", write(tmp_path, "old.json", old)]) == 0

    def test_old_schema_wrong_G1(self, tmp_path, capsys, old_and_new):
        old, _ = old_and_new
        for i in range(len(old["rewrites"])):
            bad = copy.deepcopy(old)
            terms = bad["rewrites"][i]["G1"][0][1]["terms"]
            terms[0][1] = self.bumped(bad, terms[0][1])
            capsys.readouterr()
            assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
            assert f"rewrite-{i}: verification failed at identity" in capsys.readouterr().err

    def test_old_schema_wrong_table(self, tmp_path, capsys, old_and_new):
        old, _ = old_and_new
        for i in range(len(old["rewrites"])):
            bad = copy.deepcopy(old)
            bad["rewrites"][i]["table"][0][1] += 1
            capsys.readouterr()
            assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
            assert f"rewrite-{i}: verification failed at value-table" in capsys.readouterr().err

    def test_old_schema_wrong_table_coefficient(self, tmp_path, capsys, old_and_new):
        # the coefficient at index t of a carried derived table is the
        # scale s_t recentring reads; it must be the member's
        old, _ = old_and_new
        edited = 0
        for i, rewrite in enumerate(old["rewrites"]):
            for k, (seq, t) in enumerate(zip(rewrite["seqs"], rewrite["indices"])):
                if seq["seq"] != "table":
                    continue
                bad = copy.deepcopy(old)
                term = bad["rewrites"][i]["seqs"][k]["terms"][t]
                term[1] = self.bumped(bad, term[1])
                capsys.readouterr()
                assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
                assert (f"rewrite-{i}: verification failed at seqs: sequence {k} differs "
                        f"at index {t}") in capsys.readouterr().err
                edited += 1
        assert edited == 3

    def test_old_schema_extra_sequence(self, tmp_path, capsys, old_and_new):
        # a link joins two elements, so it carries two sequences
        old, _ = old_and_new
        for i in range(len(old["rewrites"])):
            bad = copy.deepcopy(old)
            seqs = bad["rewrites"][i]["seqs"]
            seqs.append(seqs[-1])
            capsys.readouterr()
            assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
            assert (f"rewrite-{i}: verification failed at seqs: 3 sequences for 2"
                    in capsys.readouterr().err)

    def test_new_schema(self, tmp_path, capsys, old_and_new):
        # an embedded rewrite carries no sequence, so it does not verify
        # on its own
        _, new = old_and_new
        assert run(["verify", write(tmp_path, "new.json", new)]) == 0
        assert len(new["rewrites"]) == 2
        for rewrite in new["rewrites"]:
            assert not {"seqs", "G1", "table"} & set(rewrite)
            capsys.readouterr()
            assert run(["verify", write(tmp_path, "rewrite.json", rewrite)]) == 1
            assert "a rewrite needs at least one sequence" in capsys.readouterr().err

    def test_new_schema_shifted_index(self, tmp_path, capsys, old_and_new):
        _, new = old_and_new
        for i, rewrite in enumerate(new["rewrites"]):
            for k in range(len(rewrite["indices"])):
                bad = copy.deepcopy(new)
                bad["rewrites"][i]["indices"][k] += 1
                capsys.readouterr()
                assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
                assert f"rewrite-{i}" in capsys.readouterr().err

    def test_new_is_old_without_G1_and_table(self, old_and_new):
        # and without the sequences
        old, new = copy.deepcopy(old_and_new)
        for rewrite in old["rewrites"]:
            del rewrite["seqs"], rewrite["G1"], rewrite["table"]
        assert new == old


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

    @pytest.mark.parametrize("field", [QQ, GF(2)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_bivariate_sequence_count(self, tmp_path, capsys, field, n):
        # one sequence used to end in an IndexError (exit 5)
        cfg = univariate_cfg(field, 1)
        cfg.update(op="bivariate", seqs=cfg["seqs"] * n)
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1
        assert "exactly two sequences expected" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [QQ, GF(2)])
    def test_univariate_sequence_count(self, tmp_path, capsys, field):
        # a second sequence used to be dropped and the rewrite built
        cfg = univariate_cfg(field, 2)
        cfg["seqs"] *= 2
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1
        assert "exactly one sequence expected" in capsys.readouterr().err

    # g as {(exponent of Y_0, of Y_1): t-exponent of its coefficient 1},
    # over the sequences t^(a*2^j), a = 1, 3, one per variable
    OPS = {"pair_square": ("Q", {(1, 0): 0, (0, 1): 1}),
           "multilinear_mono": ("Q", {(0,): 0, (1,): 1}),
           "multilinear": ("Q", {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0}),
           "univariate": ("F2", {(2,): 0}),
           "bivariate": ("F2", {(2, 2): 0})}

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_each_op_builds_and_verifies(self, tmp_path, capsys, op):
        field, g = self.OPS[op]
        spec = {"field": "Q"} if field == "Q" else {"field": "Fp", "p": 2}
        seqs = [dict(spec, seq="rule", exp={"kind": "geom", "a": a},
                     coeff={"kind": "const", "c": 1}, horizon=100)
                for a in (1, 3)[:len(next(iter(g)))]]
        cfg = dict(spec, op=op, seqs=seqs,
                   g=[[[[{"tag": "orig", "e": e}, k] for e, k in enumerate(exps) if k],
                       {"terms": [[t, 1]]}] for exps, t in g.items()])
        out = str(tmp_path / "cert.json")
        assert run(["rewrite", write(tmp_path, "c.json", cfg), "--out", out]) == 0
        assert run(["verify", out]) == 0

    def test_unknown_op(self, tmp_path, capsys):
        cfg = dict(univariate_cfg(QQ, 1), op="trivariate")
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1
        assert "unknown rewrite op 'trivariate'" in capsys.readouterr().err

    @pytest.mark.parametrize("make, key, message", [
        (lambda: univariate_cfg(QQ, 1), "nus", "reads its start index from 'nu', not 'nus'"),
        (lambda: bivariate_cfg(), "nu", "only a univariate rewrite reads 'nu'")],
        ids=["univariate-nus", "bivariate-nu"])
    def test_start_index_key_of_the_other_ops(self, tmp_path, capsys, make, key, message):
        # the key used to be dropped and the rewrite built from index 0
        cfg = make()
        cfg[key] = [5] if key == "nus" else 5
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1
        assert message in capsys.readouterr().err


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

    @staticmethod
    def f2_cfg(op, g):
        """A rewrite config over F2: g given as {exponents: t-exponents of
        its coefficient}, over the sequences t^(a*2^j), a = 1, 3, 5, one
        per exponent."""
        def series(es):
            return {"trunc": "inf", "terms": [[e, 1] for e in es]}
        seqs = [RuleSequence(GF(2), {"kind": "geom", "a": a}, {"kind": "const", "c": 1}).to_json()
                for a in (1, 3, 5)[:len(next(iter(g)))]]
        return {"field": "Fp", "p": 2, "op": op, "seqs": seqs,
                "g": [[[[{"tag": "orig", "e": e}, k] for e, k in enumerate(exps) if k],
                       series(es)] for exps, es in g.items()]}

    @pytest.mark.parametrize("op, g, message", [
        ("bivariate", {(2, 0): [0], (1, 1): [0], (0, 1): [1, 2]},
         "no multiplier in the cascade reached the normal form: claims not reached "
         "after 1 attempts: distinct-nonconstant: two coefficient values coincide"),
        ("multilinear", {(1, 0, 0): [2], (1, 1, 0): [0, 1], (1, 0, 1): [2],
                         (0, 1, 1): [0, 1], (0, 0, 0): [0, 1]},
         "claims not reached after 1 attempts: distinct-nonconstant: two "
         "coefficient values coincide")])
    def test_one_attempt_is_undecided(self, tmp_path, capsys, op, g, message):
        # retries counts attempts: at 1, attempt 0 is the only one, and its
        # failure exits 3; the default budget reaches the normal form
        cfg = self.f2_cfg(op, g)
        assert run(["rewrite", write(tmp_path, "c.json", dict(cfg, retries=1))]) == 3
        assert capsys.readouterr().err == f"undecided: {message}\n"
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 0

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


class TestHorizon:
    """--horizon, a separate config's horizon and a rule sequence's horizon
    are positive integers: 0 is rejected, not replaced by the config's or
    the default horizon."""

    def tail_rule_cfg(self, horizon=200):
        gamma = {"seq": "rule", "field": "Q", "horizon": 300,
                 "exp": {"kind": "arith", "a": 1, "b": 1},
                 "coeff": {"kind": "const", "c": 1}}
        return dict(tail_cfg(), gamma=gamma, horizon=horizon)

    def test_zero_flag_separate(self, tmp_path, capsys):
        c = write(tmp_path, "c.json", self.tail_rule_cfg())
        assert run(["separate", c]) == 0
        assert run(["separate", c, "--horizon", "0"]) == 1
        assert "horizon must be a positive integer" in capsys.readouterr().err

    def test_zero_in_config_separate(self, tmp_path, capsys):
        c = write(tmp_path, "c.json", self.tail_rule_cfg(horizon=0))
        assert run(["separate", c]) == 1
        assert "horizon must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg", [("rewrite", lambda: univariate_cfg(QQ, 2)),
                                              ("smooth", family_cfg)])
    def test_zero_flag_rewrite_smooth(self, tmp_path, capsys, command, cfg):
        assert run([command, write(tmp_path, "c.json", cfg()), "--horizon", "0"]) == 1
        assert "horizon must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [0, -3])
    @pytest.mark.parametrize("command", ["rewrite", "smooth", "verify"])
    def test_nonpositive_in_a_rule_sequence(self, tmp_path, capsys, command, horizon):
        # a rule sequence's own horizon, in a rewrite or smooth config or
        # in a rewrite certificate, is refused as the flag's is
        cfg = family_cfg() if command == "smooth" else univariate_cfg(QQ, 2)
        if command == "verify":
            out = tmp_path / "cert.json"
            assert run(["rewrite", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
            cfg = json.loads(out.read_text())
        seq = cfg["seq0"] if command == "smooth" else cfg["seqs"][0]
        seq["horizon"] = horizon
        capsys.readouterr()
        assert run([command, write(tmp_path, "e.json", cfg)]) == 1
        assert "horizon must be a positive integer" in capsys.readouterr().err

    def test_one_is_too_short(self, tmp_path, capsys):
        # a horizon of 1 is accepted, and stops the stream at its first term
        c = write(tmp_path, "c.json", self.tail_rule_cfg())
        assert run(["separate", c, "--horizon", "1"]) == 2
        c = write(tmp_path, "r.json", univariate_cfg(QQ, 2))
        assert run(["rewrite", c, "--horizon", "1"]) == 2


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


def _built(tmp_path, cfg):
    """The certificate cfg builds, as JSON."""
    out = tmp_path / "cert.json"
    assert run(["smooth", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _below_zero(series):
    """series (its JSON) with a term t^-1 put in front."""
    series["terms"].insert(0, [-1, 1])


class TestOverV:
    """Data outside V exits 4 at in-V, at each site that carries a series:
    a generator image, a relation coefficient, a witness numerator or
    denominator coefficient, and the problem's f and d."""

    SITES = {
        "image": ("c-divides-d", lambda c: c["generators"][1][1], "generator 1 image"),
        "relation": ("c-divides-d", lambda c: c["relations"][0][0][1], "relation 0"),
        "witness-num": ("c-divides-d", lambda c: c["witnesses"][0]["num"][0][1], "witness y num"),
        "witness-den": ("fraction", lambda c: c["witnesses"][-1]["den"][0][1], "witness f1/f2 den"),
        "problem-f": ("c-divides-d", lambda c: c["problem"]["f"][0][1], "problem f"),
        "problem-d": ("c-divides-d", lambda c: c["problem"]["d"], "problem d"),
    }

    def certificates(self, tmp_path, site):
        branch, part, name = self.SITES[site]
        cert = _built(tmp_path, q_smooth_cfg(branch) if branch == "fraction" else q_pair_cfg(branch))
        bad = copy.deepcopy(cert)
        _below_zero(part(bad))
        return cert, bad, f"verification failed at in-V: {name} has val -1 below 0"

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_rejected(self, tmp_path, capsys, site):
        _, bad, message = self.certificates(tmp_path, site)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert capsys.readouterr().err.strip() == f"verification failed: {message}"

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_rejected_in_batch(self, tmp_path, capsys, site):
        cert, bad, message = self.certificates(tmp_path, site)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "batch.json", [bad, cert]), "--jobs", "2"]) == 4
        results = json.loads(capsys.readouterr().out)
        assert results[0] == {"exit": 4, "error": f"verification failed: {message}"}
        assert results[1] == {"cert": "smooth", "verified": True}

    def test_exact_zero_d_fails_at_its_witness(self, tmp_path, capsys):
        bad = _built(tmp_path, q_pair_cfg("c-divides-d"))
        bad["problem"]["d"]["terms"] = []
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert capsys.readouterr().err.strip() == (
            "verification failed: verification failed at witness-z: "
            "series division by exact zero")


class TestPairBranch:
    """A pair's branch is the one its presentation has: no rewrite and one
    generator for a constant f, one generator for d | c, and a Z generator
    with one relation for c | d.  The rewrite count follows from f."""

    def test_constant_without_its_rewrite_rejected(self, tmp_path, capsys):
        bad = _built(tmp_path, q_pair_cfg("d-divides-c"))
        bad["branch"], bad["rewrites"] = "constant", []
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert "at rewrites: 0 rewrites for 1 chain links" in capsys.readouterr().err

    @pytest.mark.parametrize("branch, swapped", [("d-divides-c", "c-divides-d"),
                                                 ("c-divides-d", "d-divides-c"),
                                                 ("constant", "d-divides-c")])
    def test_relabelled_branch_rejected(self, tmp_path, capsys, branch, swapped):
        bad = _built(tmp_path, q_pair_cfg(branch))
        bad["branch"] = swapped
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert capsys.readouterr().err.strip() == (
            f"verification failed: verification failed at branch: branch {swapped!r}, "
            f"but the presentation has branch {branch!r}")

    def test_constant_with_a_z_generator_has_no_branch(self, tmp_path, capsys):
        # f = 2 with a Z generator of image 1 and relation Z - 1 fits none
        # of the three branches
        cfg = {"field": "Q", "op": "pair", "f": Poly.const(ValuedSeries.scalar(QQ, ZZ, Fraction(2))).to_json(),
               "seq0": lacunary_sequence(QQ, 300).to_json()}
        bad = _built(tmp_path, cfg)
        assert bad["branch"] == "constant"
        Z, one = VarTag.dup(0, "z"), ValuedSeries.one(QQ, ZZ)
        bad["generators"].append([Z.to_json(), one.to_json()])
        bad["relations"].append((Poly.var(QQ, ZZ, Z) - Poly.const(one)).to_json())
        bad["base"] = 0
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert capsys.readouterr().err.strip() == (
            "verification failed: verification failed at branch: branch 'constant', "
            "but the presentation has branch 'none'")

    def test_family_has_no_branch(self, tmp_path, capsys):
        bad = _built(tmp_path, family_cfg(horizon=100))
        assert bad["branch"] == ""
        bad["branch"] = "d-divides-c"
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert "at branch" in capsys.readouterr().err


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

    @pytest.mark.parametrize("delta", [16, 31])
    def test_supported_delta_verifies(self, tmp_path, capsys, delta):
        path = self.certificate(tmp_path)
        with recorded_caps() as checks:
            assert run(["verify", path, "--delta", str(delta)]) == 0
        # relations and witnesses below a cap past delta; the minor, decided
        # on residues, takes no cap
        caps = [cap for _, cap in checks]
        assert caps and None not in caps
        assert max(caps) <= 2 * delta and sum(cap <= delta for cap in caps) <= 1

    @pytest.mark.parametrize("delta, generator", [(15, 2), (1, 0)])
    def test_delta_below_the_floor_rejected(self, tmp_path, capsys, delta, generator):
        # The stage generators are Y_{0,1}, Y_{1,3} and Y_{2,7}, of gammas
        # 2, 7 and 8 (the exponents of term 1 of y0, term 3 of y1 and term
        # 7 of y2): the floor is 16.
        path = self.certificate(tmp_path)
        capsys.readouterr()
        assert run(["verify", path, "--delta", str(delta)]) == 4
        assert capsys.readouterr().err.strip() == (
            "verification failed: verification failed at delta: "
            f"delta {delta} is below twice the gamma of generator {generator}")

    @pytest.mark.parametrize("cfg", [family_cfg(horizon=100), q_pair_cfg("d-divides-c")],
                             ids=["family", "pair"])
    def test_build_below_the_floor_rejected(self, tmp_path, capsys, cfg):
        path = write(tmp_path, "c.json", cfg)
        assert run(["smooth", path, "--delta", "15" if cfg["op"] == "family" else "1"]) == 1
        assert "twice the largest stage gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["config", "option"])
    def test_build_at_a_requested_delta(self, tmp_path, capsys, how):
        # the family's floor is 16: a build at 32 carries 32 and verifies,
        # and one at 15 is refused
        def build(delta, out):
            cfg, argv = family_cfg(horizon=100), ["--delta", str(delta)]
            if how == "config":
                cfg["delta"], argv = delta, []
            return run(["smooth", write(tmp_path, "c.json", cfg), "--out", str(out)] + argv)

        out = tmp_path / "cert.json"
        assert build(32, out) == 0
        assert json.loads(out.read_text())["delta"] == 32
        assert run(["verify", str(out)]) == 0
        capsys.readouterr()
        assert build(15, tmp_path / "low.json") == 1
        assert capsys.readouterr().err.strip() == (
            "input error: delta 15 must be positive and at least 16, "
            "twice the largest stage gamma")

    def test_generator_of_no_member_rejected(self, tmp_path, capsys):
        # Y_{2,7} renamed Y_{3,7}: the family has no member y3
        cert = Path(self.certificate(tmp_path)).read_text()
        stage = '{"e":2,"j":7,"tag":"stage"}'
        assert stage in cert
        bad = json.loads(cert.replace(stage, '{"e":3,"j":7,"tag":"stage"}'))
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert capsys.readouterr().err.strip() == (
            "verification failed: verification failed at delta: "
            "generator 2 names no problem member")

    @pytest.mark.parametrize("cfg", [family_cfg(horizon=100), q_pair_cfg("d-divides-c"),
                                     q_smooth_cfg("fraction")],
                             ids=["family", "pair", "fraction"])
    def test_weakened_copy_rejected(self, tmp_path, capsys, cfg):
        # delta lowered to 1 and every generator image cut to O(t^2)
        out = tmp_path / "cert.json"
        assert run(["smooth", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        bad = json.loads(out.read_text())
        bad["delta"] = 1
        for _, image in bad["generators"]:
            image.update(terms=[t for t in image["terms"] if t[0] < 2], trunc=2, exact=False)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert "verification failed at delta: delta 1 is below twice" in capsys.readouterr().err

    @pytest.mark.parametrize("delta, window", [(32, 32), (100, 32)])
    def test_delta_past_the_images_rejected(self, tmp_path, capsys, delta, window):
        path = self.certificate(tmp_path)
        capsys.readouterr()
        assert run(["verify", path, "--delta", str(delta)]) == 4
        assert capsys.readouterr().err.strip() == (
            "verification failed: verification failed at relation-0: window "
            f"{window} does not certify vanishing past {delta}")


class TestOptions:
    """A usage error, or an option the command does not read, exits 1."""

    @pytest.mark.parametrize("argv, message", [
        (["separate", "c.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["frobnicate", "c.json"], "invalid choice: 'frobnicate'"),
        (["separate", "c.json", "--horizon", "x"], "argument --horizon: invalid int value: 'x'")],
        ids=["unknown-option", "unknown-command", "non-integer"])
    def test_usage_error(self, tmp_path, capsys, argv, message):
        argv[1] = write(tmp_path, "c.json", tail_cfg())
        assert run(argv) == 1
        assert message in capsys.readouterr().err

    def test_help(self, capsys):
        assert run(["separate", "--help"]) == 0
        assert "--horizon" in capsys.readouterr().out

    @staticmethod
    def inputs():
        """A config or certificate each command accepts without options."""
        code, cert = run_single("separate", tail_cfg(H=50), {})
        assert code == 0
        return {"separate": tail_cfg(H=50), "rewrite": univariate_cfg(QQ, 2), "verify": cert}

    @pytest.mark.parametrize("command, options, named", [
        ("separate", ["--window", "0", "--retries", "-5", "--delta", "3"],
         "--window, --delta, --retries"),
        ("separate", ["--delta", "99"], "--delta"),
        ("rewrite", ["--delta", "3"], "--delta"),
        ("verify", ["--horizon", "50"], "--horizon"),
        ("verify", ["--window", "8"], "--window"),
        ("verify", ["--retries", "8"], "--retries")],
        ids=["separate-three", "separate-delta", "rewrite-delta", "verify-horizon",
             "verify-window", "verify-retries"])
    def test_unread_option(self, tmp_path, capsys, command, options, named):
        path = write(tmp_path, "c.json", self.inputs()[command])
        assert run([command, path] + options) == 1
        assert capsys.readouterr().err == f"error: {command} does not read {named}\n"

    def test_verify_delta_on_a_non_smooth_item(self, tmp_path, capsys):
        # a floor applies to a smooth certificate only; the batch runs on
        rewrite = run_single("rewrite", univariate_cfg(QQ, 2), {})[1]
        smooth_cert = run_single("smooth", family_cfg(horizon=100), {})[1]
        batch = [self.inputs()["verify"], rewrite, smooth_cert]
        assert run(["verify", write(tmp_path, "c.json", batch), "--delta", "16"]) == 1
        results = json.loads(capsys.readouterr().out)
        for kind, result in zip(["separation", "rewrite"], results):
            assert result == {"exit": 1, "error": "input error: --delta is a floor on a "
                              f"smooth certificate's delta; a {kind} certificate has none"}
        assert results[2] == {"verified": True, "cert": "smooth"}


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
    batch still gets its results.  No input is known to raise one, so once
    the certificates are built the separation verifier is patched to raise
    ZeroDivisionError; forked batch workers inherit the patch."""

    @staticmethod
    def certificates(tmp_path, monkeypatch):
        """A tail separation certificate, which now fails to verify, and a
        rewrite certificate."""
        certs = []
        for command, cfg in (("separate", tail_cfg()), ("rewrite", univariate_cfg(QQ, 1))):
            out = tmp_path / f"{command}.json"
            assert run([command, write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
            certs.append(json.loads(out.read_text()))

        def verify(cert):
            raise ZeroDivisionError("injected")
        monkeypatch.setattr(SeparationCert, "verify", verify)
        return certs

    def test_alone(self, tmp_path, capsys, monkeypatch):
        bad, _ = self.certificates(tmp_path, monkeypatch)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 5
        assert capsys.readouterr().err.startswith("internal error: ZeroDivisionError")

    def test_in_batch(self, tmp_path, capsys, monkeypatch):
        bad, cert = self.certificates(tmp_path, monkeypatch)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "b.json", [bad, cert]), "--jobs", "2"]) == 5
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 5 and "ZeroDivisionError" in results[0]["error"]
        assert results[1] == {"cert": "rewrite", "verified": True}


class TestDeepInput:
    """Inputs past Python's recursion depth: Y0 raised to 1000 and 2000 in
    a rewrite's g, and a multi separation over 1,200 streams.  Each reaches
    a verdict, not exit 5.  A power past MAX_JSON_DEGREE exits 1 at once."""

    CFG = {"field": "Q", "op": "univariate",
           "g": [[[[{"tag": "orig", "e": 0}, 1]], {"trunc": "inf", "terms": [[0, "3/1"]]}],
                 [[], {"trunc": "inf", "terms": [[2, "2/1"]]}]],
           "seqs": [{"seq": "rule", "field": "Q", "horizon": 300,
                     "exp": {"kind": "geom", "a": 1},
                     "coeff": {"kind": "const", "c": "4/1"}}]}

    def raised(self, tmp_path, power):
        """A rewrite certificate whose g has its Y0 raised to the power."""
        out = tmp_path / "cert.json"
        assert run(["rewrite", write(tmp_path, "c.json", self.CFG), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        (mono, _), = [m for m in cert["g"] if m[0]]
        assert mono == [[{"tag": "orig", "e": 0}, 1]]
        mono[0][1] = power
        return write(tmp_path, "bad.json", cert)

    @pytest.mark.parametrize("power", [1000, 2000])
    def test_high_power_in_g(self, tmp_path, capsys, power):
        # G1 no longer recentres g, so exit 4
        path = self.raised(tmp_path, power)
        capsys.readouterr()
        assert run(["verify", path]) == 4
        assert "verification failed at identity" in capsys.readouterr().err

    @staticmethod
    def no_recentring(monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("recentred")
        monkeypatch.setattr("valcert.rewrite.taylor_recenter", boom)

    def test_power_past_the_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        assert MAX_JSON_DEGREE == 2048
        path = self.raised(tmp_path, 8000)
        capsys.readouterr()
        self.no_recentring(monkeypatch)
        assert run(["verify", path]) == 1
        assert "monomial of total degree 8000 exceeds 2048" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rewrite", "smooth"])
    def test_emitted_power_past_the_bound_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # Y0^2048 over F2 has no exponent prime to 2, so the rewrite takes
        # Y * g, and a case2 pair's z witness and relation hold it too: a
        # degree 2049 that Poly.from_json would refuse.  The build refuses
        # it first, before any recentring.
        f2 = GF(2)
        g = Poly.var(f2, ZZ, Y0) ** MAX_JSON_DEGREE
        unit_seq = RuleSequence(f2, {"kind": "list", "values": [0], "step": 2},
                                {"kind": "const", "c": f2.one()}, horizon=300).to_json()
        cfg = ({"field": "Fp", "p": 2, "op": "univariate", "g": g.to_json(), "seqs": [unit_seq]}
               if command == "rewrite" else
               {"field": "Fp", "p": 2, "op": "pair", "f": g.to_json(), "seq0": unit_seq})
        self.no_recentring(monkeypatch)
        assert run([command, write(tmp_path, "c.json", cfg)]) == 1
        assert "g * multiplier has total degree 2049; a certificate holds none above 2048" \
            in capsys.readouterr().err

    def test_multiplier_past_the_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        # Y0^2 over F2 takes the multiplier Y0; edited to Y0^8000, with no
        # G1 or table to compare, verify refuses the degree before it
        # forms g * multiplier or recentres it.
        f2 = GF(2)
        unit_seq = RuleSequence(f2, {"kind": "list", "values": [0], "step": 2},
                                {"kind": "const", "c": f2.one()}, horizon=300).to_json()
        cfg = {"field": "Fp", "p": 2, "op": "univariate",
               "g": (Poly.var(f2, ZZ, Y0) ** 2).to_json(), "seqs": [unit_seq]}
        out = tmp_path / "cert.json"
        assert run(["rewrite", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["multiplier"] == [[0, 1]]
        cert["multiplier"] = [[0, 8000]]
        del cert["G1"], cert["table"]
        capsys.readouterr()
        self.no_recentring(monkeypatch)
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 1
        assert "g * multiplier has total degree 8002; a certificate holds none above 2048" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("op, claim", [("multilinear", "kind"), ("bivariate", "identity")])
    def test_exponent_times_1000_refused_before_recentring(self, tmp_path, capsys,
                                                           monkeypatch, op, claim):
        # one exponent of g times 1000, G1 kept: a multilinear g takes no
        # square, and recentring keeps each degree of a bivariate g, so
        # verify refuses both before it forms the recentred polynomial
        seqs = [lacunary_sequence(QQ).to_json(),
                RuleSequence(QQ, {"kind": "geom", "a": 3},
                             {"kind": "const", "c": 1}, horizon=300).to_json()]
        g = _y(0) * _y(1) + _y(0) if op == "bivariate" else _y(0) - _y(1)
        out = tmp_path / "cert.json"
        cfg = dict(_rewrite_cfg(op, g, 0), seqs=seqs)
        assert run(["rewrite", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["kind"] == op + ("_pfree" if op == "bivariate" else "")
        (mono, _), = [m for m in cert["g"] if m[0] and m[0][0][0]["e"] == 0 and len(m[0]) == 1]
        mono[0][1] *= 1000
        capsys.readouterr()
        self.no_recentring(monkeypatch)
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        assert f"verification failed at {claim}" in capsys.readouterr().err

    def test_many_streams(self, tmp_path, capsys):
        n = 1200
        cfg = {"op": "multi", "subsets": [[0], [n - 1]], "betas": [0, 0], "ts": [1] * n,
               "gammas": [[1, 2, 3]] * n}
        out = tmp_path / "cert.json"
        assert run(["separate", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        # every index but the last is free; the last makes the values 1 and 2
        assert json.loads(out.read_text())["js"] == [1] * (n - 1) + [2]
        assert run(["verify", str(out)]) == 0


def _rewrite_cfg(op, g, n):
    """The Q univariate config with op, g and n copies of its sequence."""
    cfg = univariate_cfg(QQ, 1)
    cfg.update(op=op, g=g.to_json(), seqs=cfg["seqs"] * n)
    return cfg


def _edited(command, cfg, edit):
    """The certificate cfg builds, as JSON, after edit changes it in place."""
    code, cert = run_single(command, cfg, {})
    assert code == 0, cert
    cert = json.loads(json.dumps(cert))
    edit(cert)
    return cert


def _y(e):
    return Poly.var(QQ, ZZ, VarTag.orig(e))


def _over_seq0(seq0):
    """The Q pair V over the sequence seq0 (its JSON)."""
    return dict(q_pair_cfg("d-divides-c"), seq0=dict(seq0, field="Q"))


def _rule(exp=None, coeff=None):
    """A rule sequence's JSON: exponents 1, 2, 4, ... and coefficient 1,
    but for the rules given."""
    return {"seq": "rule", "exp": exp or {"kind": "geom", "a": 1},
            "coeff": coeff or {"kind": "const", "c": 1}, "horizon": 10}


def _q_family(*fs):
    """A Q family config of the polynomials fs over the lacunary sequence."""
    return {"field": "Q", "op": "family", "fs": [f.to_json() for f in fs],
            "seq0": lacunary_sequence(QQ, 300).to_json()}


def _with_f_mono(mono):
    """The Q pair whose f is the one monomial mono (its JSON), coefficient 1."""
    return dict(q_pair_cfg("d-divides-c"),
                f=[[mono, {"terms": [[0, 1]], "trunc": "inf", "exact": True}]])


def _series(terms):
    """An exact series' JSON."""
    return {"terms": terms, "trunc": "inf", "exact": True}


def _rational_power(k):
    """V^k's JSON with exponents in Q."""
    return [[[[{"tag": "orig", "e": 0}, k]], _series([["0/1", "1/1"]])]]


def _over_rational_exponents(op, **polys):
    """A Q smooth config of op and its polys over the sequence of
    exponents 1, 2, 3, ... in Q."""
    seq0 = {"seq": "rule", "field": "Q", "horizon": 300, "coeff": {"kind": "const", "c": "1/1"},
            "exp": {"kind": "arith", "a": "1/1", "b": "1/1"}}
    return dict({"field": "Q", "op": op, "seq0": seq0}, **polys)


def _multi(**edits):
    """A multi separation config over two streams, with edits applied."""
    return dict({"op": "multi", "subsets": [[0], [1]], "betas": [0, 1], "ts": [1, 1],
                 "gammas": [list(range(1, 20))] * 2}, **edits)


class TestExitArms:
    """One config per input, shape or search exit that no other test
    reaches, each with its exit code and message."""

    ARMS = {
        "pair-square-three-seqs": (
            "rewrite", lambda: _rewrite_cfg("pair_square", _y(0) * _y(1), 3),
            1, "input error: exactly two sequences expected"),
        "multilinear-mono-Y0-twice": (
            "rewrite", lambda: _rewrite_cfg("multilinear_mono", _y(0) * _y(1) + _y(0), 2),
            1, "input error: variable Y_0 occurs in 2 monomials; at most one allowed"),
        "bivariate-Y2": (
            "rewrite", lambda: _rewrite_cfg("bivariate", _y(0) + _y(2), 2),
            1, "input error: polynomial must live in Y_0, Y_1"),
        "univariate-Q-constant": (
            "rewrite", lambda: _rewrite_cfg(
                "univariate", Poly.const(ValuedSeries.t_power(QQ, ZZ, 1)), 1),
            1, "input error: polynomial must be nonconstant"),
        "rewrite-no-seqs": (
            "rewrite", lambda: _rewrite_cfg("univariate", _y(0), 0),
            1, "input error: a rewrite needs at least one sequence"),
        "separate-unknown-op": (
            "separate", lambda: {"op": "nope"},
            1, "input error: unknown separate op 'nope'"),
        "smooth-unknown-op": (
            "smooth", lambda: dict(family_cfg(100), op="nope"),
            1, "input error: unknown smooth op 'nope'"),
        "family-base-9": (
            "verify", lambda: _edited("smooth", family_cfg(), lambda c: c.update(base=9)),
            1, "input error: base index out of range"),
        "family-relation-dropped": (
            "verify", lambda: _edited("smooth", family_cfg(), lambda c: c["relations"].pop()),
            1, "input error: need exactly (generators - 1) relations"),
        "malformed-seq0-below-0": (
            "verify", lambda: _edited("smooth", q_pair_cfg("c-divides-d"), lambda c: (
                _below_zero(c["problem"]["f"][0][1]),
                c["problem"].update(seq0={"seq": "nope"}))),
            1, "input error: unknown sequence kind 'nope'"),
        "z-witness-without-d": (
            "verify", lambda: _edited("smooth", q_pair_cfg("c-divides-d"),
                                      lambda c: c["problem"].pop("d")),
            1, "input error: a z witness needs the problem's f and d"),
        "Q-univariate-as-charp": (
            "verify", lambda: _edited("rewrite", univariate_cfg(QQ, 1),
                                      lambda c: c.update(kind="univariate_charp")),
            4, "verification failed: verification failed at kind: "
               "this operation requires positive characteristic"),
        "multi-no-admissible-index": (
            "separate", lambda: {"op": "multi", "subsets": [[0], [1]], "betas": [0, 0],
                                 "ts": [1, 1], "gammas": [[1, 2], [1]]},
            2, "horizon/stabilization: no admissible index for position 1 "
               "within the stream window"),
        "seq0-cycle-empty": (
            "smooth", lambda: _over_seq0(_rule(coeff={"kind": "cycle", "values": []})),
            1, "input error: cycle coefficients must be nonzero"),
        "seq0-list-empty": (
            "smooth", lambda: _over_seq0(_rule(exp={"kind": "list", "values": [], "step": 1})),
            1, "input error: exponent list must be nonempty"),
        "seq0-exponent-below-0": (
            "smooth", lambda: _over_seq0(_rule(exp={"kind": "arith", "a": -1, "b": 1})),
            1, "input error: exponents must be >= 0"),
        "seq0-unknown-exponent-rule": (
            "smooth", lambda: _over_seq0(_rule(exp={"kind": "nope"})),
            1, "input error: unknown exponent rule 'nope'"),
        "seq0-unknown-coefficient-rule": (
            "smooth", lambda: _over_seq0(_rule(coeff={"kind": "nope"})),
            1, "input error: unknown coefficient rule 'nope'"),
        "seq0-table-empty": (
            "smooth", lambda: _over_seq0({"seq": "table", "terms": []}),
            1, "input error: term table needs at least one entry"),
        "seq0-table-below-0": (
            "smooth", lambda: _over_seq0({"seq": "table", "terms": [[-1, 1], [2, 1]]}),
            1, "input error: exponents must be >= 0"),
        "seq0-table-zero-coefficient": (
            "smooth", lambda: _over_seq0({"seq": "table", "terms": [[1, 1], [2, 0]]}),
            1, "input error: table coefficients must be nonzero"),
        "tail-betas-ts-mismatch": (
            "separate", lambda: {"op": "tail", "betas": [0], "ts": [1, 2], "gamma": [1, 2, 3]},
            1, "input error: need equally many betas and ts, at least one"),
        "multi-rhos-mismatch": (
            "separate", lambda: _multi(rhos=[0]),
            1, "input error: rhos must match the number of streams"),
        "multi-no-subsets": (
            "separate", lambda: _multi(subsets=[], betas=[]),
            1, "input error: empty subset family"),
        "multi-betas-mismatch": (
            "separate", lambda: _multi(betas=[0]),
            1, "input error: need one beta per subset"),
        "multi-multiplier-0": (
            "separate", lambda: _multi(ts=[0, 1]),
            1, "input error: position multipliers must be positive"),
        "multi-empty-subset": (
            "separate", lambda: _multi(subsets=[[0], []]),
            1, "input error: subsets must be nonempty"),
        "multi-subset-past-streams": (
            "separate", lambda: _multi(subsets=[[0], [5]]),
            1, "input error: subset (5,) names a position without a stream"),
        # a gamma stream is a JSON list or a sequence spec, nothing else
        "tail-gamma-string": (
            "separate", lambda: {"op": "tail", "betas": [0], "ts": [1], "gamma": "123"},
            1, "input error: gamma must be a JSON list of group elements or a "
               "sequence spec, got '123'"),
        "shifted-gamma0-number": (
            "separate", lambda: {"op": "shifted", "beta0": 0, "beta1": 1, "c": 1,
                                 "gamma0": 5},
            1, "input error: gamma0 must be a JSON list of group elements or a "
               "sequence spec, got 5"),
        "cross-gamma1-null": (
            "separate", lambda: {"op": "cross", "beta0": 0, "beta1": 1, "beta01": 2,
                                 "gamma0": [1, 2, 3], "gamma1": None},
            1, "input error: gamma1 must be a JSON list of group elements or a "
               "sequence spec, got None"),
        "multi-gammas-entry-string": (
            "separate", lambda: _multi(gammas=[list(range(1, 20)), "123"]),
            1, "input error: gammas[1] must be a JSON list of group elements or a "
               "sequence spec, got '123'"),
        "embedded-not-a-rewrite": (
            "verify", lambda: _edited("smooth", q_pair_cfg("d-divides-c"),
                                      lambda c: c["rewrites"][0].update(cert="nope")),
            1, "input error: not a rewrite certificate"),
        "embedded-rewrite-no-seqs": (
            "verify", lambda: _edited("smooth", q_pair_cfg("d-divides-c"),
                                      lambda c: None)["rewrites"][0],
            1, "input error: a rewrite needs at least one sequence"),
        "pair-f-in-Y1": (
            "smooth", lambda: dict(q_pair_cfg("d-divides-c"), f=_y(1).to_json()),
            1, "input error: f must be univariate in Y_0"),
        "family-empty": (
            "smooth", lambda: _q_family(),
            1, "input error: empty polynomial family"),
        "family-member-in-Y1": (
            "smooth", lambda: _q_family(_y(1)),
            1, "input error: family polynomials must be univariate in Y_0"),
        "family-constant-member": (
            "smooth", lambda: _q_family(_y(0), Poly.const(ValuedSeries.t_power(QQ, ZZ, 1))),
            1, "input error: family members must be nonconstant "
               "(constant members are units already in V)"),
        "witness-of-no-generator": (
            "verify", lambda: _edited("smooth", q_pair_cfg("c-divides-d"), lambda c: (
                c["witnesses"][1]["num"][0][0][0][0].update(e=3))),
            1, 'input error: no value for variable {"tag": "dup", "e": 3, "key": "z"}'),
        # Z renamed dup(0, "w") in its generator, relation and witness: the
        # presentation fits no branch, so the label "none" is refused too
        "pair-fits-no-branch": (
            "verify", lambda: _edited("smooth", q_pair_cfg("c-divides-d"), lambda c: c.update(
                json.loads(json.dumps(c).replace('"key": "z"', '"key": "w"')), branch="none")),
            4, "verification failed: verification failed at branch: "
               "the pair presentation fits none of the three branches"),
        "dup-key-not-a-string": (
            "verify", lambda: _edited("smooth", q_pair_cfg("c-divides-d"), lambda c: c.update(
                json.loads(json.dumps(c).replace('"key": "z"', '"key": ["z"]')))),
            1, 'input error: dup key ["z"] is not a string'),
        "unknown-witness-kind": (
            "verify", lambda: _edited("smooth", q_pair_cfg("d-divides-c"),
                                      lambda c: c["witnesses"][0].update(kind="nope")),
            1, "input error: unknown witness kind 'nope'"),
        "unknown-variable-tag": (
            "smooth", lambda: _with_f_mono([[{"tag": "nope", "e": 0}, 1]]),
            1, "input error: cannot decode variable tag from {'tag': 'nope', 'e': 0}"),
        "negative-exponent": (
            "smooth", lambda: _with_f_mono([[{"tag": "orig", "e": 0}, -1]]),
            1, "input error: negative exponents are not allowed in polynomials"),
        "unknown-field": (
            "rewrite", lambda: {"field": "R", "op": "univariate"},
            1, "input error: unknown field spec 'R'"),
        # fields compare by identity: QQ and the cached GF(p) are the only ones
        "rewrite-Q-over-F5-sequence": (
            "rewrite", lambda: dict(univariate_cfg(QQ, 1),
                                    seqs=[lacunary_sequence(GF(5), 300).to_json()]),
            1, "input error: fields QQ vs GF(5)"),
        "smooth-Q-over-F5-sequence": (
            "smooth", lambda: dict(q_pair_cfg("d-divides-c"),
                                   seq0=lacunary_sequence(GF(5), 300).to_json()),
            1, "input error: fields QQ vs GF(5)"),
        "pair-d-zero": (
            "smooth", lambda: dict(q_pair_cfg("d-divides-c"), d=_series([])),
            1, "input error: d must be nonzero"),
        # values are printed as group elements: "n/d" in Q, not a Fraction's repr
        "pair-d-wrong-val-rational-exponents": (
            "smooth", lambda: _over_rational_exponents(
                "pair", f=_rational_power(1), d=_series([["5/1", "1/1"]])),
            1, "input error: val(f(y)) = 1/1 differs from val(d) = 5/1; "
               "z would not be a unit"),
        "fraction-outside-V-rational-exponents": (
            "smooth", lambda: _over_rational_exponents(
                "fraction", f1=_rational_power(1), f2=_rational_power(2)),
            1, "input error: val(f1(y0)) = 1/1 < val(f2(y0)) = 2/1; "
               "the fraction lies outside V'"),
        # a multilinear rewrite whose least G1 value is nonconstant, Y_{0,t}'s
        "multilinear-gamma-min-forged-star": (
            "verify", lambda: _edited("rewrite", _rewrite_cfg(
                "multilinear", _y(0) - Poly.const(lacunary_sequence(QQ).term(30)), 1),
                lambda c: c.update(case="star")),
            4, "verification failed: verification failed at case: "
               "'star' where 'gamma-min:0' is due"),
        # the message names the field only, not the 40 KB object it was in
        "unknown-field-in-certificate": (
            "verify", lambda: dict(json.loads(FULL_TABLES.read_text()), field="R"),
            1, "input error: unknown field spec 'R'"),
    }

    # direct calls: each refusal sits behind a check the command line makes first
    REFUSALS = {
        "negative-index": (lambda: lacunary_sequence(QQ).term(-1), "negative sequence index"),
        "rule-unknown-exponent": (
            lambda: RuleSequence(QQ, {"kind": "nope"}, {"kind": "const", "c": QQ.one()}),
            "unknown exponent rule 'nope'"),
        "rule-unknown-coefficient": (
            lambda: RuleSequence(QQ, {"kind": "geom", "a": 1}, {"kind": "nope"}),
            "unknown coefficient rule 'nope'"),
        "not-a-separation": (lambda: SeparationCert.from_json({"cert": "rewrite"}),
                             "not a separation certificate"),
        "no-entries": (lambda: separate_indices([], [[1, 2]], [0]), "no entries to separate"),
        "not-a-smooth": (lambda: smooth.SmoothCert.from_json({"cert": "rewrite"}),
                         "not a smooth certificate"),
        "negative-power": (lambda: _y(0) ** -1, "negative polynomial powers"),
        "infinite-exponent": (lambda: ValuedSeries(QQ, ZZ, [(INF, QQ.one())]),
                              "term exponent cannot be Infinity"),
        "zero-leading": (lambda: ValuedSeries.zero(QQ, ZZ).leading(),
                         "zero series has no leading term"),
    }

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_exit(self, arm):
        command, cfg, code, message = self.ARMS[arm]
        assert run_single(command, cfg(), {}) == (code, message)

    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    def test_direct_refusal(self, refusal):
        call, message = self.REFUSALS[refusal]
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message

    def test_no_path(self, capsys):
        assert run(["verify"]) == 1
        assert capsys.readouterr().err == "error: no config file given\n"

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(tail_cfg(H=50))))
        assert run(["separate", "-"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert run_single("verify", cert, {}) == (0, {"verified": True, "cert": "separation"})

    def test_module_entry_point(self, monkeypatch, capsys):
        # python -m valcert.cli exits with main()'s code; the module is run
        # afresh, as it is when no import came first
        monkeypatch.setattr("sys.argv", ["valcert", "verify", str(OLD_Q_CERTS["rewrite-square-Q"])])
        monkeypatch.delitem(sys.modules, "valcert.cli")
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("valcert.cli", run_name="__main__")
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out) == {"cert": "rewrite", "verified": True}

    def test_equal_entries_cannot_be_separated(self):
        # sep_multi never passes two equal entries, so only a direct call
        # reaches this refusal
        entries = [("a", {0: 1}, 0), ("b", {0: 1}, 0)]
        with pytest.raises(InputError, match="entries 'a' and 'b' cannot be separated: "
                                             "identical multipliers and equal offsets"):
            separate_indices(entries, [[1, 2]], [0])


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


class TestPrimeField:
    """p is tested by deterministic Miller-Rabin, exact below PRIME_LIMIT;
    a larger p exits 1."""

    def test_agrees_with_trial_division(self):
        assert [p for p in range(20000) if _is_prime(p) != _trial_division(p)] == []

    @pytest.mark.parametrize("p", [561, 41041])
    def test_carmichael_rejected(self, p):
        assert not _is_prime(p)
        with pytest.raises(InputError, match="is not prime"):
            field_from_json({"field": "Fp", "p": p})

    def test_large_prime_decodes_fast(self):
        start = time.perf_counter()
        assert field_from_json({"field": "Fp", "p": 2 ** 61 - 1}).p == 2 ** 61 - 1
        assert time.perf_counter() - start < 0.05

    def test_past_the_limit_exits_1(self, tmp_path, capsys):
        # 2^89 - 1 is prime, but past the bound below which it is decided
        p = 2 ** 89 - 1
        assert p > PRIME_LIMIT
        cfg = univariate_cfg(GF(5), 1)
        cfg["p"] = cfg["seqs"][0]["p"] = p
        capsys.readouterr()
        assert run(["rewrite", write(tmp_path, "c.json", cfg)]) == 1
        assert "too large" in capsys.readouterr().err


class TestNegativeIndices:
    """A rewrite index below 0 exits 1, also at a sequence g does not read
    (which once verified, exit 0), and in a rewrite embedded in a smooth
    certificate."""

    def test_unread_sequence(self, tmp_path, capsys):
        cfg = univariate_cfg(QQ, 1)
        g = Poly.var(QQ, ZZ, Y0) + Poly.const(ValuedSeries.t_power(QQ, ZZ, 1))
        cfg.update(op="multilinear", g=g.to_json(), seqs=cfg["seqs"] * 2)
        out = tmp_path / "cert.json"
        assert run(["rewrite", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        cert["indices"][1] = -1
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 1
        assert "negative sequence index" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 1])
    def test_embedded(self, tmp_path, capsys, k):
        out = tmp_path / "cert.json"
        assert run(["smooth", write(tmp_path, "c.json", family_cfg()), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        cert["rewrites"][1]["indices"][k] = -1
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 1
        assert "negative sequence index" in capsys.readouterr().err


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

    # j0 = j1 + 3 for shifted, j1 = j0 + 5 for cross
    CONFIGS = {"shifted": {"op": "shifted", "beta0": 0, "beta1": 2, "c": 1,
                           "gamma0": list(range(1, 201))},
               "cross": {"op": "cross", "beta0": 5, "beta1": 0, "beta01": 0,
                         "gamma0": list(range(1, 51)), "gamma1": list(range(1, 51))}}

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    @pytest.mark.parametrize("edit, claim", [
        (lambda c: c["sigma"].append(c["sigma"][0]), "injective"),
        (lambda c: c["sigma"].append([c["sigma"][0][0], c["sigma"][1][1]]), "injective"),
        (lambda c: c["A"].append(c["A"][0]), "A")],
        ids=["pair-twice", "j0-twice", "A-entry-twice"])
    def test_listed_twice(self, tmp_path, capsys, kind, edit, claim):
        # a pair or an A entry listed twice once verified: both verifiers
        # read sigma into a set
        cert = self.certificate(tmp_path, self.CONFIGS[kind])
        edit(cert)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        message = {"injective": "sigma is not an injective partial map",
                   "A": "A does not match sigma's domain"}[claim]
        assert f"verification failed at {kind}-{claim}: {message}" in capsys.readouterr().err

    def test_shifted_sigma_not_a_map(self, tmp_path, capsys):
        # gamma_2 = gamma_3 makes row 1 collide at columns 2 and 3: a true
        # collision set, but not the injective map a shifted claim lists
        cert = {"cert": "separation", "kind": "shifted", "beta0": 0, "beta1": 0, "c": -5,
                "gamma0": [0, 5, 5], "A": [1], "sigma": [[1, 2], [1, 3]]}
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        assert ("verification failed at shifted-injective: sigma is not an injective "
                "partial map") in capsys.readouterr().err

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
        seq["terms"] = seq["terms"][:t + 1]
        assert run(["verify", write(tmp_path, "ok.json", rewrite)]) == 0
        seq["terms"] = seq["terms"][:t]
        assert run(["verify", write(tmp_path, "bad.json", rewrite)]) == 4

    def test_smooth_table_cut(self, tmp_path, capsys):
        # a table an older certificate carries, cut to index + 1 terms,
        # verifies; cut to index terms it exits 4
        cert = json.loads(FULL_TABLES.read_text())
        rewrite = cert["rewrites"][1]
        seq, t = rewrite["seqs"][1], rewrite["indices"][1]
        seq["terms"] = seq["terms"][:t + 1]
        assert run(["verify", write(tmp_path, "ok.json", cert)]) == 0
        seq["terms"].pop()
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        assert "rewrite-1: verification failed at indices: sequence too short" in (
            capsys.readouterr().err)

    @staticmethod
    def seq0_cut(tmp_path, horizon):
        """A valid [V, V^2 + tV] family certificate (F5, H=100) and a copy
        whose seq0 echo stops at the horizon given."""
        out = tmp_path / "cert.json"
        assert run(["smooth", write(tmp_path, "c.json", family_cfg(horizon=100)),
                    "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        bad = copy.deepcopy(cert)
        bad["problem"]["seq0"]["horizon"] = horizon
        return cert, bad

    # the delta floor, checked before the witnesses, is the first to read
    # past the cut
    SEQ0_CUT = {1: "at delta: generator 0: index 1 >= horizon 1",
                2: "at delta: generator 1: pseudo-limit support does not reach"}

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_seq0_horizon_cut(self, tmp_path, capsys, horizon):
        _, bad = self.seq0_cut(tmp_path, horizon)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert self.SEQ0_CUT[horizon] in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_seq0_horizon_cut_in_batch(self, tmp_path, capsys, horizon):
        cert, bad = self.seq0_cut(tmp_path, horizon)
        capsys.readouterr()
        path = write(tmp_path, "batch.json", [bad, cert])
        assert run(["verify", path, "--jobs", "2"]) == 4
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 4 and self.SEQ0_CUT[horizon] in results[0]["error"]
        assert results[1] == {"cert": "smooth", "verified": True}

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


class TestRepeatedVariable:
    """A monomial that lists one variable twice exits 1.  On a rewrite
    certificate, g = Y0 written [[Y0, 1], [Y0, 1]] used to verify: it was
    evaluated as Y0^2 and recentred as Y0."""

    @staticmethod
    def repeat_first(mono):
        mono.append(copy.deepcopy(mono[0]))

    def test_rewrite_g(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert run(["rewrite", write(tmp_path, "c.json", univariate_cfg(QQ, 1)),
                    "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        self.repeat_first(cert["g"][0][0])
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 1
        assert "a monomial lists one variable twice" in capsys.readouterr().err

    def test_smooth_witness(self, tmp_path, capsys):
        cert = json.loads(FULL_TABLES.read_text())
        mono = next(m for m, _ in cert["witnesses"][0]["num"] if m)
        self.repeat_first(mono)
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 1
        assert "a monomial lists one variable twice" in capsys.readouterr().err


def multi_cfg():
    gamma = list(range(1, 201))
    return {"op": "multi", "subsets": [[0], [1], [0, 1]], "betas": [1, 4, 0],
            "ts": [1, 2], "gammas": [gamma, gamma], "rhos": [0, 0]}


def pair_cfg():
    f5 = GF(5)
    return {"field": "Fp", "p": 5, "op": "pair",
            "f": Poly.var(f5, ZZ, Y0).to_json(),
            "seq0": lacunary_sequence(f5, 100).to_json()}


def bivariate_cfg():
    cfg = univariate_cfg(QQ, 1)
    cfg.update(op="bivariate", seqs=cfg["seqs"] * 2)
    return cfg


def q_exponents(cfg, key):
    """cfg with its betas and its gamma list (or lists) as Q exponents."""
    def q(xs):
        return [f"{x}/1" for x in xs]
    cfg["betas"] = q(cfg["betas"])
    cfg[key] = q(cfg[key]) if key == "gamma" else [q(g) for g in cfg[key]]
    return cfg


class TestConfigIntegerFields:
    """An integer field of a build config that holds a float, a bool or a
    string exits 1 and names the field, alone and beside a valid config in
    a --jobs 2 batch.  These fields were read with int() (or not at all),
    so 4.9 became 4 and true became 1.  So does a betas list that is a
    string, which was read as a list of one-character exponents."""

    EDITS = {
        "tail-ts": ("separate", tail_cfg, "ts", [4.9, True]),
        "multi-ts": ("separate", multi_cfg, "ts", [1, 2.0]),
        "multi-subsets": ("separate", multi_cfg, "subsets", [[0], [1.0], [0, 1]]),
        "multi-rhos": ("separate", multi_cfg, "rhos", [0, "1"]),
        "tail-betas": ("separate", lambda: q_exponents(tail_cfg(), "gamma"), "betas", "03"),
        "multi-betas": ("separate", lambda: q_exponents(multi_cfg(), "gammas"), "betas", "140"),
        "rewrite-nu": ("rewrite", lambda: univariate_cfg(QQ, 1), "nu", 4.9),
        "rewrite-nus": ("rewrite", bivariate_cfg, "nus", [0, True]),
        "rewrite-nus-number": ("rewrite", bivariate_cfg, "nus", 3),
        "smooth-nu": ("smooth", pair_cfg, "nu", True),
    }

    @classmethod
    def edited(cls, name):
        command, make, field, value = cls.EDITS[name]
        bad = make()
        bad[field] = value
        return command, make(), bad, field

    @pytest.mark.parametrize("name", EDITS)
    def test_alone(self, tmp_path, capsys, name):
        command, _, bad, field = self.edited(name)
        assert run([command, write(tmp_path, "bad.json", bad)]) == 1
        err = capsys.readouterr().err
        assert f"{field} must be an integer" in err or f"{field} must be a list" in err

    @pytest.mark.parametrize("name", EDITS)
    def test_in_batch(self, tmp_path, capsys, name):
        command, valid, bad, field = self.edited(name)
        path = write(tmp_path, "batch.json", [bad, valid])
        assert run([command, path, "--jobs", "2"]) == 1
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 1 and f"{field} must be" in results[0]["error"]
        assert "exit" not in results[1] and "cert" in results[1]


class TestIntegerFields:
    """An integer field of a certificate that holds a float, a bool or a
    string exits 1 and names the field, alone and beside a valid certificate
    in a --jobs 2 batch.  Each edit here once verified (exit 0): int() read
    1.0, true and "1" as 1, and 0.9 and false as 0."""

    REWRITE_EDITS = {
        "g-exponent-1.0": (lambda c: c["g"][0][0][0].__setitem__(1, 1.0), "monomial exponent"),
        "g-exponent-true": (lambda c: c["g"][0][0][0].__setitem__(1, True), "monomial exponent"),
        "g-exponent-str": (lambda c: c["g"][0][0][0].__setitem__(1, "1"), "monomial exponent"),
        "tag-e-0.9": (lambda c: c["g"][0][0][0][0].__setitem__("e", 0.9), "tag e"),
        "tag-e-false": (lambda c: c["g"][0][0][0][0].__setitem__("e", False), "tag e"),
        "c-mono-exponent": (lambda c: c["c_mono"][0].__setitem__(1, 1.2), "c_mono exponent"),
        "multiplier": (lambda c: c.__setitem__("multiplier", [[0.0, 0.5]]),
                       "multiplier variable"),
        "indices": (lambda c: c["indices"].__setitem__(0, True), "indices"),
    }
    SMOOTH_EDITS = {
        "base": (lambda c: c.__setitem__("base", 2.0), "base"),
        "witness-e": (lambda c: c["witnesses"][0].__setitem__("e", False), "witness e"),
        "seq0-horizon": (lambda c: c["problem"]["seq0"].__setitem__("horizon", 300.0),
                         "horizon"),
        "p": (lambda c: c.__setitem__("p", 5.0), "p"),
    }
    MULTI_EDITS = {
        "js-true": (lambda c: c["js"].__setitem__(0, True), "js"),
        "rhos-0.5": (lambda c: c["rhos"].__setitem__(0, 0.5), "rhos"),
        "position-true": (lambda c: c["entries"][2][1][1].__setitem__(0, True),
                          "entry position"),
        "multiplier-1.0": (lambda c: c["entries"][0][1][0].__setitem__(1, 1.0),
                           "entry multiplier"),
        "multiplier-true": (lambda c: c["entries"][0][1][0].__setitem__(1, True),
                            "entry multiplier"),
    }

    @staticmethod
    def certificate(tmp_path, kind):
        if kind == "smooth":
            return json.loads(FULL_TABLES.read_text())
        command, cfg = (("rewrite", univariate_cfg(QQ, 1)) if kind == "rewrite"
                        else ("separate", multi_cfg()))
        out = tmp_path / "cert.json"
        assert run([command, write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        return json.loads(out.read_text())

    @classmethod
    def edited(cls, tmp_path, name):
        kind = ("rewrite" if name in cls.REWRITE_EDITS
                else "multi" if name in cls.MULTI_EDITS else "smooth")
        edit, field = {**cls.REWRITE_EDITS, **cls.SMOOTH_EDITS, **cls.MULTI_EDITS}[name]
        cert = cls.certificate(tmp_path, kind)
        bad = copy.deepcopy(cert)
        edit(bad)
        return cert, bad, field

    @pytest.mark.parametrize("name", [*REWRITE_EDITS, *SMOOTH_EDITS, *MULTI_EDITS])
    def test_alone(self, tmp_path, capsys, name):
        _, bad, field = self.edited(tmp_path, name)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 1
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [*REWRITE_EDITS, *SMOOTH_EDITS, *MULTI_EDITS])
    def test_in_batch(self, tmp_path, capsys, name):
        cert, bad, field = self.edited(tmp_path, name)
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "batch.json", [bad, cert]), "--jobs", "2"]) == 1
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 1 and f"{field} must be an integer" in results[0]["error"]
        assert results[1] == {"cert": cert["cert"], "verified": True}


def lex_cross_cfg():
    """A cross problem over lex Z^2 with rho1 = 5: beta0 - beta01 = (0, 5)
    is gamma1 at j1 = 5."""
    gamma = [[0, s] for s in range(1, 51)]
    return {"op": "cross", "beta0": [0, 5], "beta1": [0, 0], "beta01": [0, 0],
            "gamma0": gamma, "gamma1": gamma}


class TestSeparationBounds:
    """The bounds a separation builder sets are checked claims: rho0 and
    rho1 of a cross certificate are the last row and column its maps give,
    a tail's r is null exactly when some t <= 0 and names an entry only
    with an index past nu, and a multi certificate's rhos are >= 0 and its
    multipliers >= 1.  Each edit here once verified (exit 0) and now exits 4."""

    EDITS = {
        "cross-rho0-H": (lex_cross_cfg, lambda c: c.update(rho0=50), "cross-bounds"),
        "cross-rho1-up": (lex_cross_cfg, lambda c: c.update(rho1=6), "cross-bounds"),
        "tail-r-null": (lambda: tail_cfg(H=50), lambda c: c.update(r=None), "tail-bounds"),
        "multi-rhos-negative": (multi_cfg, lambda c: c["rhos"].__setitem__(0, -1),
                                "multi-bounds"),
        "tail-r-with-t-0": (lambda: tail_cfg(ts=(0, 1), H=50), lambda c: c.update(r=0),
                            "tail-bounds"),
        "multi-multiplier-0": (multi_cfg, lambda c: c["entries"][0][1][0].__setitem__(1, 0),
                               "multi-shape"),
        "multi-multiplier-negative": (
            multi_cfg, lambda c: c["entries"][0][1][0].__setitem__(1, -1), "multi-shape"),
    }

    @classmethod
    def edited(cls, tmp_path, name):
        make, edit, claim = cls.EDITS[name]
        out = tmp_path / "cert.json"
        assert run(["separate", write(tmp_path, "c.json", make()), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        bad = copy.deepcopy(cert)
        edit(bad)
        return cert, bad, claim

    @pytest.mark.parametrize("name", EDITS)
    def test_alone(self, tmp_path, capsys, name):
        cert, bad, claim = self.edited(tmp_path, name)
        assert run(["verify", write(tmp_path, "ok.json", cert)]) == 0
        assert run(["verify", write(tmp_path, "bad.json", bad)]) == 4
        assert f"verification failed at {claim}" in capsys.readouterr().err

    def test_in_batch(self, tmp_path, capsys):
        cert, bad, _ = self.edited(tmp_path, "cross-rho0-H")
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "batch.json", [bad, cert]), "--jobs", "2"]) == 4
        results = json.loads(capsys.readouterr().out)
        assert results[0]["exit"] == 4 and "cross-bounds" in results[0]["error"]
        assert results[1] == {"cert": "separation", "verified": True}

    def test_r_with_no_index_past_nu(self, tmp_path, capsys):
        # beta + t*gamma = 2s, 3 + s collide at s = 3 = H, so no index lies
        # past nu = 3 for r to be least at
        cert = {"cert": "separation", "kind": "tail", "betas": [0, 3], "ts": [2, 1],
                "gamma": [1, 2, 3], "nu": 3, "r": 0}
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 4
        assert "tail-bounds" in capsys.readouterr().err
        assert run(["separate", write(tmp_path, "c.json", tail_cfg(H=3))]) == 2

    def test_negative_rho_in_config(self, tmp_path, capsys):
        cfg = multi_cfg()
        cfg["rhos"] = [-1, 0]
        assert run(["separate", write(tmp_path, "c.json", cfg)]) == 1
        assert "rhos must be nonnegative" in capsys.readouterr().err


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

    def test_string_stream_certificate(self, tmp_path, capsys):
        # a stream must be a JSON list: the string "123456789" is iterable,
        # but it is not the Q stream 1, ..., 9 of the certificate it replaces
        cfg = {"op": "tail", "betas": ["0/1", "3/1"], "ts": [2, 1],
               "gamma": [f"{s}/1" for s in range(1, 10)]}
        out = tmp_path / "cert.json"
        assert run(["separate", write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        assert run(["verify", str(out)]) == 0
        cert = json.loads(out.read_text())
        cert["gamma"] = "123456789"
        capsys.readouterr()
        assert run(["verify", write(tmp_path, "bad.json", cert)]) == 1
        assert "gamma streams must be nonempty JSON lists" in capsys.readouterr().err

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


@functools.lru_cache(maxsize=None)
def _edit_inputs():
    """One certificate of each separation kind, a top-level rewrite, a
    pair, family and fraction as built today, and the full-tables one."""
    gamma = list(range(1, 51))
    built = [("separate", tail_cfg(H=50)),
             ("separate", {"op": "shifted", "beta0": 0, "beta1": 0, "c": 3, "gamma0": gamma}),
             ("separate", {"op": "cross", "beta0": 5, "beta1": 0, "beta01": 0,
                           "gamma0": gamma, "gamma1": gamma}),
             ("separate", TestShortData.multi_cfg()),
             ("rewrite", univariate_cfg(QQ, 2)),
             ("smooth", q_pair_cfg("c-divides-d")),
             ("smooth", family_cfg(100)),
             ("smooth", q_smooth_cfg("fraction"))]
    return tuple(json.dumps(_edited(command, cfg, lambda c: None)) for command, cfg in built) + (
        FULL_TABLES.read_text(),)


def _nodes(obj, path=()):
    """The path of every node below the root, a key or index per step."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


_REPLACEMENTS = {"null": None, "empty-list": [], "x": "x", "zero": 0, "minus-one": -1,
                 "true": True}


@st.composite
def _edited_certificates(draw):
    """A certificate with one node edited: deleted, replaced, moved by +-1
    or scaled by 10 if it is an integer, or, in a list, duplicated."""
    cert = json.loads(draw(st.sampled_from(_edit_inputs())))
    *parent, key = draw(st.sampled_from(list(_nodes(cert))))
    holder = functools.reduce(lambda node, k: node[k], parent, cert)
    edits = ["delete", *_REPLACEMENTS]
    if type(holder[key]) is int:
        edits += ["plus-one", "minus-one-step", "times-ten"]
    if isinstance(holder, list):
        edits.append("duplicate")
    edit = draw(st.sampled_from(edits))
    if edit == "delete":
        del holder[key]
    elif edit == "duplicate":
        holder.insert(key, copy.deepcopy(holder[key]))
    elif edit in _REPLACEMENTS:
        holder[key] = _REPLACEMENTS[edit]
    else:
        holder[key] = {"plus-one": holder[key] + 1, "minus-one-step": holder[key] - 1,
                       "times-ten": holder[key] * 10}[edit]
    return cert


class TestEditedCertificates:
    """verify never ends in an internal error (exit 5): a certificate with
    one node edited verifies, is malformed input, or fails a claim."""

    @settings(max_examples=200, deadline=None)
    @given(_edited_certificates())
    def test_exit_is_0_1_or_4(self, cert):
        code, message = run_single("verify", cert, {})
        assert code in (0, 1, 4), message
