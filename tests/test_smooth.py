"""Smooth-subalgebra presentations: construction, verification, tampering."""
import copy
import functools
import importlib.util
import json
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valcert import rewrite, smooth
from valcert.cli import canonical_json, run_single
from valcert.errors import InputError, UndecidedError, VerificationError
from valcert.fields import GF, QQ, characteristic, field_to_json
from valcert.group import INTEGERS as ZZ
from valcert.pcs import RuleSequence, TableSequence, lacunary_sequence
from valcert.poly import Poly, VarTag
from valcert.series import ValuedSeries
from valcert.smooth import (SmoothCert, SmoothPresentation, _canonical_d,
                            _derived_unit_sequence, sm_check, sm_family,
                            sm_fraction, sm_pair, sm_verify)

import oracles
from oracles import from_int, steer_reference
from test_verify_cap import BASES

Y0 = VarTag.orig(0)


def tpow(field, e, c=1):
    return ValuedSeries(field, ZZ, [(e, from_int(field, c))])


def roundtrip_verify(cert):
    sm_verify(SmoothCert.from_json(json.loads(json.dumps(cert.to_json()))))


def _links_read_the_live_terms(cert, seq0, fs):
    """At each index t of each link rewrite, _Problem.sequence gives the
    live sequence's v_t and s_t, for the elements the link joins; returns
    how many of those sequences are member tables."""
    live = [seq0] + [_derived_unit_sequence(f, _canonical_d(f, seq0), seq0) for f in fs]
    problem = smooth._Problem(SmoothCert.from_json(json.loads(json.dumps(cert.to_json()))))
    cap = smooth._verify_cap(cert.pres, cert.delta)
    tables = 0
    for i, rewrite in enumerate(cert.rewrites):
        for e, t in zip((i, i + 1), rewrite.indices):
            seq = problem.sequence(e, cap)
            tables += isinstance(seq, TableSequence)
            assert seq.term(t).same_known(live[e].term(t))
            assert seq.scale(t).same_known(live[e].scale(t))
    return tables


def square_pair_f2():
    """Y^2 over F2 and a unit pseudo-limit: a pair through the case2 rewrite."""
    f2 = GF(2)
    unit_seq = RuleSequence(f2, {"kind": "list", "values": [0], "step": 2},
                            {"kind": "const", "c": f2.one()}, horizon=300)
    return sm_pair(Poly.var(f2, ZZ, Y0) ** 2, unit_seq)


@functools.lru_cache(maxsize=None)
def case2_pairs():
    """JSON of a case2 pair, a case1 pair (c | d) and a constant pair."""
    V, seq = Poly.var(QQ, ZZ, Y0), lacunary_sequence(QQ)
    return {"case2": square_pair_f2().to_json(),
            "case1": sm_pair(V - Poly.const(seq.term(2)), seq).to_json(),
            "constant": sm_pair(Poly.const(tpow(QQ, 3)), seq).to_json()}


class TestPresentationCheck:
    def test_polynomial_algebra_passes(self):
        # [TRIVIAL] one generator, no relations: empty minor is a unit
        seq = lacunary_sequence(QQ)
        pres = SmoothPresentation(QQ, ZZ, [(VarTag.stage(0, 1), seq.stage(1, 30))], [], 0)
        sm_check(pres, 10)

    def test_nonunit_minor_fails(self):
        # [TRIVIAL] relation t*Y0' - t*Y1' has Jacobian entries of val 1
        seq = lacunary_sequence(QQ)
        a, b = VarTag.stage(0, 1), VarTag.stage(1, 1)
        img = seq.stage(1, 30)
        rel = Poly.var(QQ, ZZ, a).scale(tpow(QQ, 1)) - Poly.var(QQ, ZZ, b).scale(tpow(QQ, 1))
        pres = SmoothPresentation(QQ, ZZ, [(a, img), (b, img)], [rel], 0)
        with pytest.raises(VerificationError) as exc:
            sm_check(pres, 10)
        assert "jacobian" in str(exc.value)


def dense_presentation(n=12, images=None, column=None):
    """n generators Y_i over Q, of images (i+1) + t^(i+1) but where images
    names another, and the n - 1 relations sum_j a_ij * c_j * (Y_j - img_j),
    with a_ij = 2 on the diagonal and 1 elsewhere, c_j = t for j = column
    and 1 otherwise; the last generator is the base.  Each relation
    vanishes at the images, and without a column the minor's residue is
    det(I + J) = n."""
    tags = [VarTag.stage(i, 0) for i in range(n)]
    imgs = [(images or {}).get(i, tpow(QQ, 0, i + 1) + tpow(QQ, i + 1)) for i in range(n)]
    terms = [(Poly.var(QQ, ZZ, tag) - Poly.const(img)).scale(tpow(QQ, int(j == column)))
             for j, (tag, img) in enumerate(zip(tags, imgs))]
    rels = [sum((term.scale(tpow(QQ, 0, 2 if i == j else 1)) for j, term in enumerate(terms)),
                Poly.zero(QQ, ZZ))
            for i in range(n - 1)]
    return SmoothPresentation(QQ, ZZ, list(zip(tags, imgs)), rels, n - 1)


def unknown_at_0():
    """O(t^0): over V, a series whose residue is not known."""
    return ValuedSeries(QQ, ZZ, [], 0)


class TestResidueMinor:
    """The minor is decided on residues by Gaussian elimination, without a
    Laplace expansion, in time cubic in the generators."""

    def test_bases_verify_without_the_expansion(self):
        def refuse(*args):
            raise AssertionError("the verifier expanded a determinant")
        assert not hasattr(smooth, "det")
        with mock.patch("valcert.poly.det", refuse):
            for _, _, obj in BASES:
                sm_verify(SmoothCert.from_json(obj))

    def test_dense_twelve_generators_pass(self):
        sm_check(dense_presentation(), 10)

    def test_column_of_zero_residues_fails(self):
        with pytest.raises(VerificationError, match="jacobian-minor: column 4: the minor's "
                                                    "residue is 0, not a unit"):
            sm_check(dense_presentation(column=4), 10)

    def test_entry_known_only_below_0_fails(self):
        # Y_0's image is t^20, past delta; relation 0 gains O(1) * Y_0 * Y_1,
        # of value O(t^20), so the residuals stay small, while its Y_0
        # derivative O(1) * Y_1 has no known residue
        pres = dense_presentation(images={0: tpow(QQ, 20)})
        y0, y1 = (Poly.var(QQ, ZZ, tag) for tag, _ in pres.generators[:2])
        pres.relations[0] = pres.relations[0] + (y0 * y1).scale(unknown_at_0())
        with pytest.raises(VerificationError, match="the minor's residue is not known at "
                                                    "exponent 0"):
            sm_check(pres, 10)

    def test_triangular_minor_with_unknown_entry_passes(self):
        # relations Y_0 - t^20 and Y_1 - img_1 + O(1) * Y_0 * Y_2, base Y_2:
        # the minor [[1, 0], [O(1) * (1 + t), 1]] has an entry of unknown
        # residue whose cofactor is an exact zero
        tags = [VarTag.stage(i, 0) for i in range(3)]
        imgs = [tpow(QQ, 20), tpow(QQ, 0) + tpow(QQ, 1), tpow(QQ, 0) + tpow(QQ, 1)]
        Y = [Poly.var(QQ, ZZ, tag) for tag in tags]
        rels = [Y[0] - Poly.const(imgs[0]),
                Y[1] - Poly.const(imgs[1]) + (Y[0] * Y[2]).scale(unknown_at_0())]
        pres = SmoothPresentation(QQ, ZZ, list(zip(tags, imgs)), rels, 2)
        sm_check(pres, 10)
        oracles.sm_check(pres, 10)


class TestPair:
    def test_identity_polynomial(self):
        # [DERIVED] f = Y, canonical d: z = y/d unit; polynomial branch
        for field in (QQ, GF(5)):
            cert = sm_pair(Poly.var(field, ZZ, Y0), lacunary_sequence(field))
            assert cert.branch == "d-divides-c"
            roundtrip_verify(cert)

    def test_explicit_unit_d(self):
        # [DERIVED] f = Y, d = t: z = y/t is a unit for val(y) = 1
        cert = sm_pair(Poly.var(QQ, ZZ, Y0), lacunary_sequence(QQ), d=tpow(QQ, 1))
        roundtrip_verify(cert)

    def test_val_mismatch_rejected(self):
        # [TRIVIAL] val(f(y)) = 1 < val(d) = 5: z not in V'
        with pytest.raises(InputError):
            sm_pair(Poly.var(QQ, ZZ, Y0), lacunary_sequence(QQ), d=tpow(QQ, 5))

    def test_adjoined_generator_branch(self):
        # [DERIVED] f = Y - (t + t^2): val(f(y0)) = 4 while the recentring
        # constant has val 2, so z must be adjoined with a relation
        for field in (QQ, GF(5)):
            approx = Poly.const(ValuedSeries(field, ZZ, [(1, field.one()), (2, field.one())]))
            cert = sm_pair(Poly.var(field, ZZ, Y0) - approx, lacunary_sequence(field))
            assert cert.branch == "c-divides-d"
            assert len(cert.pres.generators) == 2
            assert len(cert.pres.relations) == 1
            roundtrip_verify(cert)

    def test_charp_case2_routing(self):
        # [DERIVED] f = Y^2 over F2 goes through the case2 rewrite; the
        # divide-back-out step needs a unit pseudo-limit (first exponent 0)
        cert = square_pair_f2()
        assert cert.problem["case2"] is True
        roundtrip_verify(cert)

    @pytest.mark.parametrize("pair, case2", [
        ("case2", False), ("case2", "yes"), ("case2", None), ("case2", 3), ("case2", "deleted"),
        ("case1", True), ("case1", 0), ("case1", "deleted"), ("constant", False)])
    def test_case2_echo_checked(self, pair, case2):
        # a pair with a rewrite echoes case2 as the JSON boolean "the
        # rewrite multiplied by Y"; a pair without one echoes no case2
        bad = copy.deepcopy(case2_pairs()[pair])
        assert run_single("verify", bad, OPTS) == (0, {"verified": True, "cert": "smooth"})
        if case2 == "deleted":
            del bad["problem"]["case2"]
        else:
            bad["problem"]["case2"] = case2
        code, message = run_single("verify", bad, OPTS)
        assert code == 4, message
        assert message.startswith("verification failed: verification failed at case2: "), message

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("k", [4, 5])
    def test_val_d_past_twice_deltaw(self, field, k):
        # f = Y - (t + t^2 + ... + t^(2^(k-1))): val f(y0) = 2^k lies past
        # seq0.gamma(4) = 16 for k = 5, and f(y0) cancels below it for k = 4,
        # so the canonical d doubles its window.  z = f(y0)/d reads y0
        # below cap + val d: the Z image at deltaw = 8 < val d, and the z
        # check at its cap C <= deltaw.
        seq = lacunary_sequence(field)
        f = Poly.var(field, ZZ, Y0) - Poly.const(seq.term(k))
        assert _canonical_d(f, seq).val() == 2 ** k
        for cert in (sm_pair(f, seq), sm_family([f], seq)):
            assert cert.kind == "pair" and cert.branch == "c-divides-d"
            assert run_single("verify", cert.to_json(), OPTS)[0] == 0

    def test_short_horizon_pair_builds_and_verifies(self):
        # f = Y - (t + t^2) over exponents 1..12: c divides d, and seq0
        # reaches deltaw + val d = 8 + 3 but not 2 * deltaw = 16.  The Z
        # image and the z witness check both read y0 below cap + val d, at
        # most 11, so the pair builds and its verifier reads no further.
        seq = RuleSequence(QQ, {"kind": "arith", "a": 1, "b": 1},
                           {"kind": "const", "c": QQ.one()}, horizon=12)
        f = Poly.var(QQ, ZZ, Y0) - Poly.const(seq.term(2))
        cfg = {"field": "Q", "op": "pair", "f": f.to_json(), "seq0": seq.to_json()}
        code, cert = run_single("smooth", cfg, {})
        assert code == 0, cert
        assert (cert["branch"], cert["delta"]) == ("c-divides-d", 4)
        assert run_single("verify", json.loads(json.dumps(cert)), OPTS) == (
            0, {"verified": True, "cert": "smooth"})

    @pytest.mark.parametrize("op", ["pair", "family"])
    def test_canonical_d_stops_doubling(self, op):
        # y0 = sum t^(2^j) over F2 is a root of Y^2 + Y + t, so f(y0)
        # cancels below every window: term 0 of its derived sequence, d,
        # is unknown after the 64 doublings the sequence allows
        F2 = GF(2)
        V = Poly.var(F2, ZZ, Y0)
        f = V ** 2 + V + Poly.const(tpow(F2, 1))
        cfg = {"field": "Fp", "p": 2, "op": op,
               "seq0": lacunary_sequence(F2, 300).to_json()}
        cfg.update({"f": f.to_json()} if op == "pair" else {"fs": [V.to_json(), f.to_json()]})
        assert run_single("smooth", cfg, OPTS) == (
            2, "horizon/stabilization: term 0 is unknown after 64 window doublings")

    @settings(max_examples=30, deadline=None)
    @given(p=st.sampled_from((2, 3)), data=st.data())
    def test_case2_takes_d_divides_c(self, p, data):
        # f in Y^p over F2 or F3 and a unit pseudo-limit: the rewrite
        # multiplies by Y, its linear coefficient is f(v_t) * s_t, and
        # val f(v_t) = val f(y0), so val c = val d + gamma_t >= val d
        field = GF(p)
        V, scalars = Poly.var(field, ZZ, Y0), st.integers(1, p - 1)
        top = data.draw(st.integers(1, 2))
        f = Poly.zero(field, ZZ)
        for k in range(top + 1):
            if k == top or data.draw(st.booleans()):
                f = f + (V ** (p * k)).scale(
                    tpow(field, data.draw(st.integers(0, 3)), data.draw(scalars)))
        seq = RuleSequence(field, {"kind": "list", "values": [0],
                                   "step": data.draw(st.integers(1, 3))},
                           {"kind": "cycle",
                            "values": data.draw(st.lists(scalars, min_size=1, max_size=2))},
                           horizon=100)
        cert = sm_pair(f, seq)
        (rc,) = cert.rewrites
        assert cert.problem["case2"] is True and cert.branch == "d-divides-c"
        assert rc.c.val() == _canonical_d(f, seq).val() + seq.gamma(rc.indices[0])

    def test_charp_case2_nonunit_rejected(self):
        # [TRIVIAL] same input over a val-1 pseudo-limit violates the
        # unit hypothesis and is refused rather than silently mis-witnessed
        f2 = GF(2)
        with pytest.raises(InputError):
            sm_pair(Poly.var(f2, ZZ, Y0) ** 2, lacunary_sequence(f2))

    def test_constant_f(self):
        # constant f: z is a scalar unit, algebra is V[y_t]
        cert = sm_pair(Poly.const(tpow(QQ, 3)), lacunary_sequence(QQ))
        assert cert.branch == "constant"
        roundtrip_verify(cert)

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            sm_pair(Poly.zero(QQ, ZZ), lacunary_sequence(QQ))


class TestFamily:
    def test_single_delegates_to_pair(self):
        cert = sm_family([Poly.var(QQ, ZZ, Y0)], lacunary_sequence(QQ))
        assert cert.kind == "pair"

    def test_spec_pair_family(self):
        # [DERIVED] n=2, f1 = Y, f2 = Y + t: two relations, check passes
        for field in (QQ, GF(5)):
            fs = [Poly.var(field, ZZ, Y0),
                  Poly.var(field, ZZ, Y0) + Poly.const(tpow(field, 1))]
            cert = sm_family(fs, lacunary_sequence(field))
            assert len(cert.pres.relations) == 2
            sm_check(cert.pres, cert.delta)
            roundtrip_verify(cert)

    def test_resultant_chain(self):
        # quadratic second member forces a genuine resultant relation
        field = GF(5)
        t = tpow(field, 1)
        fs = [Poly.var(field, ZZ, Y0),
              Poly.var(field, ZZ, Y0) ** 2 + Poly.var(field, ZZ, Y0).scale(t)]
        cert = sm_family(fs, lacunary_sequence(field))
        roundtrip_verify(cert)

    def test_three_members(self):
        field = GF(5)
        V = Poly.var(field, ZZ, Y0)
        t = tpow(field, 1)
        fs = [V, V ** 2 + V.scale(t), V ** 3 + Poly.const(t) * V]
        seq0 = lacunary_sequence(field)
        cert = sm_family(fs, seq0)
        assert len(cert.pres.generators) == 4
        assert len(cert.pres.relations) == 3
        roundtrip_verify(cert)
        # The verifier reads the derived y1, y2, y3 of the three chain
        # links as tables of their terms below the cap; seq0 stays a rule.
        assert _links_read_the_live_terms(cert, seq0, fs) == 5

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def three_members():
        """The three-member F5 family, as its JSON."""
        V, t = Poly.var(GF(5), ZZ, Y0), tpow(GF(5), 1)
        return canonical_json(sm_family([V, V ** 2 + V.scale(t), V ** 3 + Poly.const(t) * V],
                                        lacunary_sequence(GF(5))).to_json())

    def test_each_image_power_computed_once(self):
        # one verification raises each capped generator image to each power
        # once, for every relation and witness check
        cert = SmoothCert.from_json(json.loads(self.three_members()))
        cap = smooth._verify_cap(cert.pres, cert.delta)
        images = {tag: smooth._cap(img, cap) for tag, img in cert.pres.generators}
        calls, missing = [], smooth.Powers.__missing__

        def counted(powers, key):
            calls.append((key, powers._values.get(key[0])))
            return missing(powers, key)
        with mock.patch.object(smooth.Powers, "__missing__", counted):
            sm_verify(cert)
        keys = [key for key, base in calls
                if key[0] in images and base is not None and base.same_known(images[key[0]])]
        assert len(keys) >= len(images) and len(keys) == len(set(keys))

    def test_each_member_tabulated_once(self):
        # the links 0-1, 1-2 and 2-3 read members 1 and 2 twice each, from
        # one table per member
        cert = SmoothCert.from_json(json.loads(self.three_members()))
        built = []

        class Counted(TableSequence):
            def __init__(self, field, terms):
                built.append(terms)
                super().__init__(field, terms)
        with mock.patch.object(smooth, "TableSequence", Counted):
            sm_verify(cert)
        assert len(built) == 3

    @pytest.mark.parametrize("field", [GF(5), QQ])
    def test_frozen_links_read_the_live_terms(self, field):
        # Each link rewrite is verified over the problem's members: at its
        # index t they must give the live derived sequence's v_t, s_t.
        seq0 = lacunary_sequence(field)
        V = Poly.var(field, ZZ, Y0)
        fs = [V, V ** 2 + V.scale(tpow(field, 1, 3))]
        cert = sm_family(fs, seq0)
        assert len(cert.rewrites) == len(fs)
        assert _links_read_the_live_terms(cert, seq0, fs) == 3

    def test_proportional_pair(self):
        # f2 = 3*f1: the resultant degenerates; a linear relation is used
        field = QQ
        V = Poly.var(field, ZZ, Y0)
        three = ValuedSeries.scalar(field, ZZ, from_int(field, 3))
        cert = sm_family([V, V.scale(three)], lacunary_sequence(field))
        roundtrip_verify(cert)

    def test_proportional_pivot_is_the_least_monomial(self):
        # the pivot is the least monomial in tuple order, Y^2, not Y^10,
        # which sorts first as text ("10" < "2")
        V = Poly.var(QQ, ZZ, Y0)

        def scalar(n):
            return ValuedSeries.scalar(QQ, ZZ, from_int(QQ, n))

        f1 = (V ** 10).scale(scalar(3)) + V ** 2
        f2 = (V ** 10).scale(scalar(6)) + (V ** 2).scale(scalar(2))
        c1, c2 = smooth._proportional_factor(f1, f2)
        assert (c1.terms, c2.terms) == (scalar(1).terms, scalar(2).terms)

    def test_unsteerable_chain_fails_after_one_attempt(self, monkeypatch):
        # no start index puts Y^2's rewrite on the earlier variable y1; the
        # chain steers each of its two links once and stops
        seq, V = lacunary_sequence(QQ), Poly.var(QQ, ZZ, Y0)
        steer, links = smooth._steer, []
        monkeypatch.setattr(smooth, "_steer",
                            lambda *args: links.append(1) or steer(*args))
        cfg = {"field": "Q", "op": "family", "seq0": seq.to_json(),
               "fs": [(V - Poly.const(seq.term(5))).to_json(), (V ** 2).to_json()]}
        code, message = run_single("smooth", cfg, OPTS)
        assert (code, links) == (2, [1, 1])
        assert message == ("horizon/stabilization: could not steer the rewrite "
                           "onto the earlier chain variable")

    def test_zero_member_rejected(self):
        with pytest.raises(InputError):
            sm_family([Poly.var(QQ, ZZ, Y0), Poly.zero(QQ, ZZ)], lacunary_sequence(QQ))


class TestFraction:
    def test_square_over_linear(self):
        # [DERIVED] f1 = Y^2, f2 = Y: the fraction is y0 itself
        for field in (QQ, GF(5)):
            V = Poly.var(field, ZZ, Y0)
            cert = sm_fraction(V ** 2, V, lacunary_sequence(field))
            names = [w.name for w in cert.witnesses]
            assert "f1/f2" in names
            roundtrip_verify(cert)

    def test_bad_valuations_rejected(self):
        # [TRIVIAL] val(y0) = 1 > 0: y0/y0^2 leaves V'
        V = Poly.var(QQ, ZZ, Y0)
        with pytest.raises(InputError):
            sm_fraction(V, V ** 2, lacunary_sequence(QQ))


class TestTamper:
    def _cert_json(self):
        field = GF(5)
        V = Poly.var(field, ZZ, Y0)
        cert = sm_family([V, V ** 2 + V.scale(tpow(field, 1))],
                         lacunary_sequence(field))
        return json.loads(json.dumps(cert.to_json()))

    def test_perturbed_image(self):
        bad = self._cert_json()
        bad["generators"][1][1]["terms"][0][1] = 3
        with pytest.raises(VerificationError):
            sm_verify(SmoothCert.from_json(bad))

    def test_wrong_base(self):
        bad = self._cert_json()
        bad["base"] = 0 if bad["base"] != 0 else 1
        with pytest.raises(VerificationError):
            sm_verify(SmoothCert.from_json(bad))

    def test_perturbed_relation(self):
        bad = self._cert_json()
        mono, coeff = bad["relations"][0][0]
        if coeff["terms"]:
            coeff["terms"][0][1] = 2
        else:
            coeff["terms"].append([0, 2])
        with pytest.raises(VerificationError):
            sm_verify(SmoothCert.from_json(bad))

    def test_perturbed_witness(self):
        bad = self._cert_json()
        bad["witnesses"][0]["num"][0][1]["terms"].append([1, 1])
        with pytest.raises(VerificationError):
            sm_verify(SmoothCert.from_json(bad))


class TestOneVerifyPerBuild:
    """Each build assembles one certificate and verifies it once."""

    @pytest.mark.parametrize("build", [
        lambda V: smooth.sm_pair(V, lacunary_sequence(QQ)),
        lambda V: smooth.sm_pair(V - Poly.const(tpow(QQ, 1) + tpow(QQ, 2)),
                                 lacunary_sequence(QQ)),
        lambda V: smooth.sm_pair(Poly.const(tpow(QQ, 3)), lacunary_sequence(QQ)),
        lambda V: smooth.sm_family([V, V ** 2 + V.scale(tpow(QQ, 1))], lacunary_sequence(QQ)),
        lambda V: smooth.sm_fraction(V ** 2, V, lacunary_sequence(QQ)),
    ], ids=["pair-d-divides-c", "pair-c-divides-d", "pair-constant", "family", "fraction"])
    def test_one_sm_verify_call(self, monkeypatch, build):
        verify, kinds = smooth.sm_verify, []

        def counted(cert, delta=None):
            kinds.append(cert.kind)
            return verify(cert, delta)

        monkeypatch.setattr(smooth, "sm_verify", counted)
        cert = build(Poly.var(QQ, ZZ, Y0))
        assert kinds == [cert.kind]


BENCH = Path(__file__).resolve().parent.parent / "bench"
OPTS = {"horizon": None, "window": None, "retries": None, "delta": None}


@functools.lru_cache(maxsize=None)
def _workload_builds():
    """The items of the benchmark's smooth workload at seeds 1 and 7919
    (4 pair, 20 family, 6 fraction), each as (seed, config, certificate
    JSON, the number of link certificates its build made)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    builds, built = [], []
    with _counting_links(built):
        for seed in (1, 7919):
            for command, cfg in workloads.smooth_items(seed):
                built.clear()
                code, cert = run_single(command, cfg, OPTS)
                assert code == 0, cert
                builds.append((seed, cfg, json.loads(canonical_json(cert)), len(built)))
    return builds


def _counting_links(built):
    """A patch of Plans.certify that appends each link certificate (each
    bivariate rewrite) it returns to built."""
    certify = rewrite.Plans.certify

    def counted(plans, *args, **kwargs):
        cert = certify(plans, *args, **kwargs)
        if cert.kind.startswith("bivariate"):
            built.append(cert)
        return cert
    return mock.patch.object(rewrite.Plans, "certify", counted)


def _workload_certs():
    """The smooth certificates of the benchmark's smooth workload at seeds 1
    and 7919, as JSON."""
    return [cert for _, _, cert, _ in _workload_builds()]


def _linked(cert):
    return cert["kind"] in ("family", "fraction")


def _index_shifts(cert):
    for i, rewrite in enumerate(cert["rewrites"]):
        for k in range(len(rewrite["indices"])):
            for step in (1, -1):
                bad = copy.deepcopy(cert)
                bad["rewrites"][i]["indices"][k] += step
                yield f"rewrite-{i}", bad


def _second_index_at(cert, i):
    """cert with link i's second index moved up to link i + 1's first."""
    bad = copy.deepcopy(cert)
    bad["rewrites"][i]["indices"][1] = bad["rewrites"][i + 1]["indices"][0]
    return bad


# name: (mutants of one certificate as (claim, copy), expected count)
SHAPE_MUTANTS = {
    "witnesses-emptied": (lambda c: [("witnesses", dict(c, witnesses=[]))], 30),
    "all-but-y0": (lambda c: [("witnesses", dict(c, witnesses=[
        w for w in c["witnesses"] if w["kind"] == "y0"]))], 30),
    "rewrites-emptied": (lambda c: [("rewrites", dict(c, rewrites=[]))], 30),
    "family-to-pair": (lambda c: [("kind", dict(c, kind="pair"))]
                       if c["kind"] == "family" else [], 20),
    # a two-member family is a fraction's shape but for the f1/f2 witness
    "family-to-fraction": (lambda c: [("kind" if len(c["problem"]["fs"]) != 2
                                       else "witnesses", dict(c, kind="fraction"))]
                           if c["kind"] == "family" else [], 20),
    "last-rewrite-dropped": (lambda c: [("rewrites", dict(c, rewrites=c["rewrites"][:-1]))]
                             if _linked(c) else [], 26),
    "rewrites-reversed": (lambda c: [("rewrite-0", dict(c, rewrites=c["rewrites"][::-1]))]
                          if _linked(c) else [], 26),
    "fraction-witness-deleted": (lambda c: [("witnesses", dict(c, witnesses=[
        w for w in c["witnesses"] if w["kind"] != "fraction"]))]
        if c["kind"] == "fraction" else [], 6),
    "index-shifted": (lambda c: list(_index_shifts(c)), 248),
    # the builder restages y_(i+1) forward, from link i's second index to
    # link i + 1's first
    "second-index-at-next-first": (lambda c: [
        (f"rewrite-{i}", _second_index_at(c, i)) for i in range(len(c["rewrites"]) - 1)], 34),
}


class TestShape:
    """verify checks the shape each kind defines: the mutants below of the
    benchmark's smooth certificates all verified before it did."""

    def test_honest_certificates_verify(self):
        certs = _workload_certs()
        assert [c["kind"] for c in certs].count("pair") == 4
        for cert in certs:
            assert run_single("verify", cert, OPTS) == (0, {"verified": True, "cert": "smooth"})

    @pytest.mark.parametrize("name", sorted(SHAPE_MUTANTS))
    def test_mutant_refused(self, name):
        mutate, expected = SHAPE_MUTANTS[name]
        mutants = [m for cert in _workload_certs() for m in mutate(cert)]
        assert len(mutants) == expected
        for claim, bad in mutants:
            code, message = run_single("verify", json.loads(json.dumps(bad)), OPTS)
            assert code == 4, message
            assert re.findall(r"verification failed at ([\w-]+)", message)[0] == claim, message


def _raised(cert, i, e, power=2000):
    """cert with Y_e raised to the power in the monomial of link i's g
    where Y_e has its highest degree; None when g does not read Y_e."""
    bad = copy.deepcopy(cert)
    tag = {"tag": "orig", "e": e}
    degree = lambda mono: sum(k for v, k in mono[0] if v == tag)  # noqa: E731
    mono = max(bad["rewrites"][i]["g"], key=degree)
    if not degree(mono):
        return None
    mono[0] = [[v, power if v == tag else k] for v, k in mono[0]]
    return bad


def _refusing_recentring(power=2000):
    """A patch under which recentring a polynomial of that degree or more
    raises, so it exits 5."""
    real = rewrite.taylor_recenter

    def refusing(g, *args):
        if g.total_degree() >= power:
            raise RuntimeError("recentred")
        return real(g, *args)
    return mock.patch.object(rewrite, "taylor_recenter", refusing)


class TestLinkBound:
    """Each link's g is bounded by the problem before any recentring: a
    pair's g is f, and the g of family link i, joining y_i and y_(i+1),
    has at most the resultant's degrees, deg f_(i+1) in Y_0 and deg f_i
    in Y_1 (1 for the first)."""

    def test_raised_degree_refused_before_recentring(self):
        # the honest certificates, whose 64 links meet the bound, verify
        # (TestShape); each link with Y_0 raised, and each of the 60 family
        # links with Y_1 raised, is refused without recentring
        mutants = [(i, _raised(cert, i, e)) for cert in _workload_certs()
                   for i in range(len(cert["rewrites"])) for e in range(2)]
        mutants = [(i, bad) for i, bad in mutants if bad is not None]
        assert len(mutants) == 64 + 60
        with _refusing_recentring():
            for i, bad in mutants:
                code, message = run_single("verify", bad, OPTS)
                assert code == 4, message
                assert f"rewrite-{i}: verification failed at g: " in message, message

    def test_hostile_fraction(self):
        # V^3 + tV over V^2 + 1 over Q, link 1's g with Y_0^2 raised to
        # Y_0^2000: recentring that g would take minutes and run out of
        # memory; the bound refuses it first
        V = Poly.var(QQ, ZZ, Y0)
        cfg = {"field": "Q", "op": "fraction", "seq0": lacunary_sequence(QQ).to_json(),
               "f1": (V ** 3 + V.scale(tpow(QQ, 1))).to_json(),
               "f2": (V ** 2 + Poly.const(tpow(QQ, 0))).to_json()}
        code, cert = run_single("smooth", cfg, OPTS)
        assert code == 0, cert
        cert = json.loads(canonical_json(cert))
        bad = _raised(cert, 1, 0)
        assert any([[{"tag": "orig", "e": 0}, 2000]] == mono for mono, _ in bad["rewrites"][1]["g"])
        # the patch is live: the honest links are recentred through it
        with _refusing_recentring(power=3):
            assert run_single("verify", cert, OPTS)[0] == 5
        with _refusing_recentring():
            assert run_single("verify", bad, OPTS) == (
                4, "verification failed: verification failed at rewrite-1: verification "
                   "failed at g: degree 2000 in Y_0 passes the link's bound 2")

    def test_pair_g_is_f(self):
        pair = next(c for c in _workload_certs()
                    if c["kind"] == "pair" and len(c["problem"]["f"]) > 1)
        bad = copy.deepcopy(pair)
        bad["rewrites"][0]["g"] = bad["problem"]["f"][1:]
        code, message = run_single("verify", bad, OPTS)
        assert (code, message.split(": ")[-1]) == (4, "g is not the problem's f"), message


def _outcome(cfg):
    """A smooth build's exit code and its canonical certificate or message."""
    code, out = run_single("smooth", cfg, OPTS)
    return code, canonical_json(out) if code == 0 else out


def _unsteerable():
    """[Y - v_5, Y^2] over Q: no start index puts the second link's rewrite
    on the earlier variable."""
    seq, V = lacunary_sequence(QQ), Poly.var(QQ, ZZ, Y0)
    return {"field": "Q", "op": "family", "seq0": seq.to_json(),
            "fs": [(V - Poly.const(seq.term(5))).to_json(), (V ** 2).to_json()]}


def _short_derived():
    """[Y + Y^2, Y] over F2 at horizon 60: the link's derived sequence runs
    out of pseudo-limit support inside the separation search, which the
    prediction reaches before the build does."""
    F2 = GF(2)
    V = Poly.var(F2, ZZ, Y0)
    return {"field": "Fp", "p": 2, "op": "family", "retries": 4,
            "seq0": lacunary_sequence(F2, 60).to_json(),
            "fs": [(V + V ** 2).to_json(), V.to_json()]}


@st.composite
def families(draw):
    """A family or fraction config over F2, F3, F5 or Q: two or three
    members of degree 1 or 2 with monomial coefficients c * t^e, at
    horizon 60 and 4 retries, so that a link that cannot be steered
    fails fast."""
    field = draw(st.sampled_from((GF(2), GF(3), GF(5), QQ)))
    p = characteristic(field)
    scalars = st.integers(1, p - 1) if p else st.sampled_from((1, -1, 2, 3))
    V = Poly.var(field, ZZ, Y0)
    fs = []
    for _ in range(draw(st.integers(2, 3))):
        degree = draw(st.integers(1, 2))
        f = Poly.zero(field, ZZ)
        for k in range(degree + 1):
            if k == degree or draw(st.booleans()):
                f = f + (V ** k).scale(tpow(field, draw(st.integers(0, 3)), draw(scalars)))
        fs.append(f)
    op = draw(st.sampled_from(("family", "fraction"))) if len(fs) == 2 else "family"
    coeffs = [from_int(field, c) for c in draw(st.lists(scalars, min_size=1, max_size=2))]
    cfg = {"op": op, "fs": [f.to_json() for f in fs], "retries": 4,
           "seq0": lacunary_sequence(field, 60, coeffs).to_json()}
    if op == "fraction":
        cfg["f1"], cfg["f2"] = cfg.pop("fs")
    cfg.update(field_to_json(field))
    return cfg


class TestSteering:
    """A family link is steered onto the earlier variable by building one
    rewrite per link: a start index whose attempt 0 is predicted to
    designate the later variable is skipped unbuilt."""

    def test_one_link_certificate_per_chain_link(self):
        builds = _workload_builds()
        for _, _, cert, built in builds:
            assert built == (len(cert["rewrites"]) if _linked(cert) else 0)
        per_seed = {seed: sum(built for s, _, _, built in builds if s == seed)
                    for seed in (1, 7919)}
        assert per_seed == {1: 30, 7919: 30}

    @settings(max_examples=12, deadline=None)
    @given(families())
    @example(_unsteerable())
    @example(_short_derived())
    def test_against_reference(self, cfg):
        # the steering loop that builds every start index it tries gives the
        # same certificate, or the same exit code and message
        new = _outcome(cfg)
        with mock.patch.object(smooth, "_steer", steer_reference):
            assert _outcome(cfg) == new

    def test_failed_search_runs_once(self):
        # the prediction's attempt-0 search fails; the build at the same
        # start indices raises that failure again instead of searching again
        calls = []
        search = rewrite.separate_indices

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)
        with mock.patch.object(rewrite, "separate_indices", counted):
            assert _outcome(_short_derived()) == (
                2, "horizon/stabilization: pseudo-limit support does not reach "
                "truncation 576460752303423489 within horizon")
        assert len(calls) == 1

    def test_undecided_start_index_skipped(self, monkeypatch):
        # a link attempt that stays undecided moves steering on to the next
        # start index, with the certificate a prediction that skips the
        # undecided start index unbuilt gives
        cfg = next(cfg for seed, cfg, cert, _ in _workload_builds()
                   if seed == 1 and cert["kind"] == "family")
        calls, certify = [], rewrite.Plans.certify

        def undecided_once(plans, nus, R):
            calls.append(tuple(nus))
            if len(calls) == 1:
                raise UndecidedError("undecided at the first start index")
            return certify(plans, nus, R)
        with mock.patch.object(rewrite.Plans, "certify", undecided_once):
            got = _outcome(cfg)
        assert got[0] == 0
        first = calls[0]
        assert calls[1] == (first[0], first[1] + 3)
        skipped, predict = [], rewrite._Plan.predict

        def skip_first(plan, nus):
            if tuple(nus) == first and not skipped:
                skipped.append(nus)
                return ((VarTag.stage(1, 0), 1),)  # the later variable
            return predict(plan, nus)
        monkeypatch.setattr(rewrite._Plan, "predict", skip_first)
        assert _outcome(cfg) == got and skipped

    @pytest.mark.parametrize("wrong", [lambda plan, nus: None,
                                       lambda plan, nus: ((VarTag.stage(0, 0), 1),)],
                             ids=["unknown", "earlier"])
    def test_wrong_prediction_falls_back(self, monkeypatch, wrong):
        # a prediction that never skips builds every start index, checks
        # each certificate, and ends as before: the same certificates at
        # seed 1, the same failure for the unsteerable family
        cases = [(cfg, (0, canonical_json(cert))) for seed, cfg, cert, _ in _workload_builds()
                 if seed == 1 and _linked(cert)]
        cases.append((_unsteerable(), _outcome(_unsteerable())))
        monkeypatch.setattr(rewrite._Plan, "predict", wrong)
        built = []
        with _counting_links(built):
            for cfg, expected in cases:
                assert _outcome(cfg) == expected
        assert len(built) > 30  # more than one per chain link
