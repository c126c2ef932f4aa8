"""Acceptance gate: seven desk-scale criteria, one pass/fail line each.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and then asserts the same condition, so the
suite is both a human-readable report and a hard gate.
"""
import copy
import itertools
import json
import math
import random
import time
from fractions import Fraction

from valcert.cli import main as cli_main
from valcert.errors import (HorizonError, InputError, NotStabilizedError,
                            UndecidedError)
from valcert.fields import GF, QQ
from valcert.group import INTEGERS as ZZ, Lex
from valcert.pcs import RuleSequence, lacunary_sequence
from valcert.poly import Poly, VarTag
from valcert.rewrite import rw, taylor_recenter
from valcert.separation import (sep_cross_pair, sep_multi, sep_shifted_pair,
                                sep_tail)
from valcert.series import ValuedSeries
from valcert.smooth import sm_family, sm_fraction, sm_verify

from oracles import derivative, from_int, taylor_via_hasse

Y0, Y1 = VarTag.orig(0), VarTag.orig(1)


def report(n, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {n} ({label}): {verdict}" + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {n} ({label}) failed: {detail}"


# -- shared random generators ------------------------------------------

def group_for(kind):
    return ZZ if kind == "Z" else Lex(2)


def rand_group(rng, kind):
    if kind == "Z":
        return rng.randint(-20, 20)
    return (rng.randint(-20, 20), rng.randint(-20, 20))


def rand_stream(rng, kind, H):
    out = []
    if kind == "Z":
        cur = rng.randint(1, 3)
        for _ in range(H):
            out.append(cur)
            cur += rng.randint(1, 3)
    else:
        a, b = 1, 1
        for _ in range(H):
            out.append((a, b))
            if rng.random() < 0.5:
                a += rng.randint(1, 2)
                b = rng.randint(-3, 3)
            else:
                b += rng.randint(1, 3)
    return out


def rand_unit(rng, field):
    while True:
        c = from_int(field, rng.randint(1, 6))
        if not field.is_zero(c):
            return c


def rand_series(rng, field, nterms=(1, 2), exps=(0, 3)):
    terms = [(rng.randint(*exps), rand_unit(rng, field))
             for _ in range(rng.randint(*nterms))]
    if not terms:
        terms = [(0, from_int(field, 1))]
    return ValuedSeries(field, ZZ, terms)


RETRYABLE = (InputError, HorizonError, NotStabilizedError)


# -- criterion 1: separation suite -------------------------------------

class TestCriterion1:
    H = 200
    PER_LEMMA = 100
    MAX_DRAWS = 600

    def run_lemma(self, build_and_check):
        rng = random.Random(11)
        done, slow = 0, 0.0
        for _ in range(self.MAX_DRAWS):
            if done == self.PER_LEMMA:
                break
            kind = rng.choice(["Z", "lex"])
            t0 = time.perf_counter()
            try:
                cert = build_and_check(rng, kind)
            except RETRYABLE:
                continue
            slow = max(slow, time.perf_counter() - t0)
            cert.verify()  # exhaustive exact window scan
            done += 1
        return done, slow

    def test_separation_suite(self):
        H = self.H

        def tail(rng, kind):
            m = rng.randint(1, 6)
            betas = [rand_group(rng, kind) for _ in range(m)]
            ts = [rng.choice([t for t in range(-5, 6) if t]) for _ in range(m)]
            gamma = rand_stream(rng, kind, H)
            cert = sep_tail(betas, ts, gamma)
            nu, r = cert.data["nu"], cert.data["r"]
            G = group_for(kind)
            # independent brute force: claims hold past nu, break at nu
            for s in range(nu + 1, H + 1):
                vals = [G.add(betas[i], G.scale(gamma[s - 1], ts[i])) for i in range(m)]
                assert len(set(vals)) == m
                if r is not None:
                    assert all(vals[r] < vals[i] for i in range(m) if i != r)
            if nu > 0:
                vals = [G.add(betas[i], G.scale(gamma[nu - 1], ts[i])) for i in range(m)]
                collision = len(set(vals)) < m
                min_fails = (r is not None and any(
                    i != r and not vals[r] < vals[i] for i in range(m)))
                assert collision or min_fails, "nu is not minimal"
            return cert

        def shifted(rng, kind):
            gamma0 = rand_stream(rng, kind, H)
            beta0 = rand_group(rng, kind)
            if rng.random() < 0.5:
                # engineer collisions: shift equals a stream difference
                a, b = sorted(rng.sample(range(H), 2))
                c = rand_group(rng, kind)
                G = group_for(kind)
                beta1 = G.sub(G.sub(beta0, c), G.sub(gamma0[b], gamma0[a]))
            else:
                beta1, c = rand_group(rng, kind), rand_group(rng, kind)
            return sep_shifted_pair(beta0, beta1, c, gamma0)

        def cross(rng, kind):
            g0 = rand_stream(rng, kind, H)
            g1 = rand_stream(rng, kind, H)
            beta0, beta1 = rand_group(rng, kind), rand_group(rng, kind)
            beta01 = rand_group(rng, kind)
            return sep_cross_pair(beta0, beta1, beta01, g0, g1)

        def multi(rng, kind):
            npos = rng.randint(1, 2)
            all_subs = [list(s) for r in range(1, npos + 1)
                        for s in itertools.combinations(range(npos), r)]
            k = rng.randint(1, len(all_subs))
            subs = rng.sample(all_subs, k)
            betas = [rand_group(rng, kind) for _ in subs]
            ts = [rng.randint(1, 5) for _ in range(npos)]
            gammas = [rand_stream(rng, kind, H) for _ in range(npos)]
            return sep_multi(subs, betas, ts, gammas, [0] * npos)

        worst = 0.0
        for name, fn in [("tail", tail), ("shifted", shifted),
                         ("cross", cross), ("multi", multi)]:
            done, slow = self.run_lemma(fn)
            worst = max(worst, slow)
            assert done == self.PER_LEMMA, \
                f"only {done} verified instances for {name}"
            assert slow < 1.0, f"{name} instance took {slow:.2f}s"
        report(1, "separation suite", True,
               f"{self.PER_LEMMA} verified instances per lemma, "
               f"worst construction {worst * 1000:.0f} ms")


# -- criterion 2: recentring kernel ------------------------------------

class TestCriterion2:
    def rand_poly(self, rng, field, nvars, maxdeg):
        monos = {}
        for _ in range(rng.randint(1, 5)):
            e0 = rng.randint(0, maxdeg)
            e1 = rng.randint(0, maxdeg - e0) if nvars == 2 else 0
            key = tuple(p for p in [(Y0, e0), (Y1, e1)] if p[1] > 0)
            monos[key] = rand_series(rng, field)
        return Poly(field, ZZ, monos)

    def test_recentring_kernel(self):
        rng = random.Random(7)
        fields = [QQ, GF(2), GF(3), GF(5)]
        checked = fact_checked = 0
        for i in range(200):
            field = fields[i % 4]
            nvars = rng.randint(1, 2)
            g = self.rand_poly(rng, field, nvars, 6)
            tags = [Y0, Y1][:nvars]
            centers = {t: rand_series(rng, field, (0, 2)) for t in tags}
            scales = {t: ValuedSeries.t_power(field, ZZ, rng.randint(0, 2), rand_unit(rng, field))
                for t in tags}
            newtags = {t: VarTag.stage(e, 1) for e, t in enumerate(tags)}
            direct = taylor_recenter(g, centers, scales, newtags)
            via_hasse = taylor_via_hasse(g, centers, scales, newtags)
            assert direct.same_known(via_hasse), f"instance {i} mismatch"
            checked += 1
            if field is QQ:
                # n! * D^(n) equals the n-fold iterated derivative
                tag = rng.choice(tags)
                n = rng.randint(1, 4)
                iterated = g
                for _ in range(n):
                    iterated = derivative(iterated, tag)
                scaled = g.hasse_derivative({tag: n}).scale(
                    ValuedSeries.scalar(QQ, ZZ, Fraction(math.factorial(n))))
                assert scaled.same_known(iterated)
                fact_checked += 1
        assert checked == 200 and fact_checked >= 40
        report(2, "recentring kernel", True,
               f"{checked} substitution-expansion matches, "
               f"{fact_checked} factorial identities")


# -- criterion 3: rewrite certificates ---------------------------------

class TestCriterion3:
    def seqs_for(self, field, m):
        ratios = [1, 2, 3]
        out = [lacunary_sequence(field, 300)]
        for a in ratios[1:m]:
            out.append(RuleSequence(field, {"kind": "geom", "a": (a + 1)},
                                    {"kind": "const", "c": 1}, horizon=300))
        return out[:m]

    def rand_multilinear(self, rng, field, m):
        monos = {}
        for r in range(m + 1):
            for sub in itertools.combinations(range(m), r):
                if rng.random() < 0.6:
                    key = tuple((VarTag.orig(e), 1) for e in sub)
                    monos[key] = rand_series(rng, field, (1, 2), (0, 2))
        if not monos:
            monos[()] = rand_series(rng, field, (1, 1), (0, 2))
        return Poly(field, ZZ, monos)

    def rand_dense(self, rng, field, nvars, maxdeg):
        monos = {}
        for _ in range(rng.randint(1, 4)):
            e0 = rng.randint(0, maxdeg)
            e1 = rng.randint(0, maxdeg - e0) if nvars == 2 else 0
            key = tuple(p for p in [(Y0, e0), (Y1, e1)] if p[1] > 0)
            monos[key] = rand_series(rng, field, (1, 2), (0, 2))
        if all(m == () for m in monos):
            monos[((Y0, 1),)] = rand_series(rng, field, (1, 1), (0, 2))
        return Poly(field, ZZ, monos)

    def test_rewrite_certificates(self):
        rng = random.Random(13)
        completed = aborted = 0
        fields = [QQ, GF(3), GF(5)]
        for i in range(50):  # multilinear pool
            field = fields[i % 3]
            m = rng.randint(1, 3)
            g = self.rand_multilinear(rng, field, m)
            while g.is_zero():
                g = self.rand_multilinear(rng, field, m)
            try:
                cert = rw("multilinear", g, self.seqs_for(field, m))
                cert.verify()
                completed += 1
            except (HorizonError, NotStabilizedError, UndecidedError):
                aborted += 1
        fields4 = [QQ, GF(2), GF(3), GF(5)]
        for i in range(50):  # univariate / bivariate pool
            field = fields4[i % 4]
            nvars = 1 + (i % 2)
            g = self.rand_dense(rng, field, nvars, 5)
            while g.is_zero() or g.total_degree() < 1:
                g = self.rand_dense(rng, field, nvars, 5)
            seqs = self.seqs_for(field, nvars)
            try:
                cert = rw(("univariate", "bivariate")[nvars - 1], g, seqs)
                cert.verify()
                completed += 1
            except (HorizonError, NotStabilizedError, UndecidedError):
                aborted += 1
            except InputError:
                aborted += 1  # inadmissible exponent draw, honest refusal
        total = completed + aborted
        ok = total == 100 and completed >= 95
        report(3, "rewrite certificates", ok,
               f"{completed}/100 completed and verified, {aborted} honest aborts")


# -- criterion 4: characteristic-p case logic --------------------------

class TestCriterion4:
    def test_case_logic_fixtures(self):
        f2 = GF(2)
        Y = Poly.var(f2, ZZ, Y0)
        seq = lacunary_sequence(f2, 300)
        cases = {}
        for name, g in [("Y", Y), ("Y2", Y ** 2), ("Y+Y2", Y + Y ** 2)]:
            cert = rw("univariate", g, [seq])
            cert.verify()
            cases[name] = cert.case
        # hand-traced: Y has an admissible exponent (case1); Y^2 has only
        # exponents divisible by 2, the Y-multiplier decides it (case2);
        # Y+Y^2 has the admissible exponent 1, decided directly (case1).
        tags_ok = cases == {"Y": "case1", "Y2": "case2", "Y+Y2": "case1"}
        seqs = [seq, RuleSequence(f2, {"kind": "geom", "a": 3},
                                  {"kind": "const", "c": 1}, horizon=300)]
        B = Poly.var(f2, ZZ, Y1)
        mults = {}
        for name, f in [("Y1", Y), ("Y1^2", Y ** 2), ("Y1^2Y2^2", Y ** 2 * B ** 2)]:
            cert = rw("bivariate", f, seqs)
            cert.verify()
            mults[name] = cert.case.split(":", 1)[1]
        # hand-traced: Y1 needs no multiplier; Y1^2 needs the y1 factor to
        # create an admissible exponent; Y1^2*Y2^2 is decided by y1 alone
        # or by y1*y2 depending on which product stabilizes first.
        mults_ok = (mults["Y1"] == "1" and mults["Y1^2"] == "y1"
                    and mults["Y1^2Y2^2"] in ("y1", "y1y2"))
        report(4, "characteristic-p case logic", tags_ok and mults_ok,
               f"tags={cases}, multipliers={mults}")


# -- criterion 5: smooth pipeline --------------------------------------

class TestCriterion5:
    def rand_f(self, rng, field):
        mono = Poly.zero(field, ZZ)
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(0, 3)
            coeff = ValuedSeries(field, ZZ, [(rng.randint(0, 2),
                                          from_int(field, rng.randint(1, 4)))])
            mono = mono + (Poly.var(field, ZZ, Y0) ** d).scale(coeff)
        return mono

    def fraction_reproduces(self, cert, f1, f2, seq0):
        fw = [w for w in cert.witnesses if w.kind == "fraction"][0]
        assign = dict(cert.pres.generators)
        wval = fw.num.eval_series(assign).div_to(
            fw.den.eval_series(assign), cert.delta)
        # independent target: quotient at a deep partial sum of y0
        J = 4
        while seq0.gamma(J) <= cert.delta + cert.delta:
            J += 1
        v = seq0.term(J)
        q = f1.eval_series({Y0: v}).div_to(f2.eval_series({Y0: v}), cert.delta)
        return (q - wval).val_lower() >= cert.delta

    def test_smooth_pipeline(self):
        rng = random.Random(17)
        worst, fractions = 0.0, 0
        for i in range(25):
            field = GF(5) if i % 2 == 0 else QQ
            n = rng.randint(1, 3)
            fs = []
            while len(fs) < n:
                f = self.rand_f(rng, field)
                if f.total_degree() >= 1:
                    fs.append(f)
            seq0 = lacunary_sequence(field, 300)
            t0 = time.perf_counter()
            cert = sm_family(fs, seq0)
            sm_verify(cert)
            if n >= 2:
                try:
                    fc = sm_fraction(fs[0], fs[1], seq0)
                    pair = (fs[0], fs[1])
                except InputError:
                    fc = sm_fraction(fs[1], fs[0], seq0)
                    pair = (fs[1], fs[0])
                sm_verify(fc)
                assert self.fraction_reproduces(fc, pair[0], pair[1], seq0), \
                    f"instance {i}: fraction does not reproduce f1/f2 to delta"
                fractions += 1
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            assert dt < 30.0, f"instance {i} took {dt:.1f}s"
        report(5, "smooth pipeline", True,
               f"25 families verified ({fractions} with fraction witnesses), "
               f"worst {worst:.1f}s")


# -- criterion 6: negative controls ------------------------------------

def tpow(field, e):
    return ValuedSeries.t_power(field, ZZ, e)


class TestCriterion6:
    def build_bases(self):
        """Genuine certificates to tamper with, as plain JSON dicts."""
        bases = {}
        gamma = [s for s in range(1, 201)]
        bases["tail"] = sep_tail([0, 3], [2, 1], gamma).to_json()
        bases["shifted"] = sep_shifted_pair(0, 0, 3, gamma).to_json()
        bases["cross"] = sep_cross_pair(0, 5, 0, gamma,
                                        [2 * s for s in range(1, 201)]).to_json()
        bases["multi"] = sep_multi([[0], [1], [0, 1]], [1, 4, 0],
                                   [1, 2], [gamma, gamma], [0, 0]).to_json()
        sq = lacunary_sequence(QQ, 300)
        g1 = Poly.var(QQ, ZZ, Y0) ** 2 + Poly.var(QQ, ZZ, Y0).scale(tpow(QQ, 1))
        bases["rw_uni"] = rw("univariate", g1, [sq]).to_json()
        seqs = [sq, RuleSequence(QQ, {"kind": "geom", "a": 3},
                                 {"kind": "const", "c": 1}, horizon=300)]
        g2 = Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, Y1) + Poly.var(QQ, ZZ, Y0)
        bases["rw_bi"] = rw("bivariate", g2, seqs).to_json()
        f5 = GF(5)
        V = Poly.var(f5, ZZ, Y0)
        bases["smooth"] = sm_family(
            [V, V ** 2 + V.scale(tpow(f5, 1))],
            lacunary_sequence(f5, 300)).to_json()
        bases["fraction"] = sm_fraction(
            V ** 2 + V.scale(tpow(f5, 1)), V,
            lacunary_sequence(f5, 300)).to_json()
        return json.loads(json.dumps(bases))

    def tampers(self, bases):
        """30 schema-preserving corruptions, each a (name, bad_dict) pair."""
        out = []

        def tamper(base, label, fn):
            bad = copy.deepcopy(bases[base])
            fn(bad)
            out.append((f"{base}:{label}", bad))

        def perturb_coeff(poly_json, mod=0):
            mono, coeff = poly_json[0]
            if coeff["terms"]:
                c = coeff["terms"][0][1]
                if isinstance(c, str):
                    coeff["terms"][0][1] = "9/1" if c != "9/1" else "7/1"
                else:
                    coeff["terms"][0][1] = (c + 1) % mod if mod else c + 1
            else:
                coeff["terms"].append([0, 1])

        # separation: bounds, maps and echoes
        tamper("tail", "nu+1", lambda b: b.update(nu=b["nu"] + 1))
        tamper("tail", "nu-1", lambda b: b.update(nu=b["nu"] - 1))
        tamper("tail", "r-flip", lambda b: b.update(r=1 - b["r"]))
        tamper("tail", "beta", lambda b: b["betas"].__setitem__(0, 1))
        tamper("tail", "t", lambda b: b["ts"].__setitem__(0, 3))
        tamper("shifted", "drop-A", lambda b: b["A"].pop(0))
        tamper("shifted", "sigma-shift",
               lambda b: b["sigma"][0].__setitem__(1, b["sigma"][0][1] + 1))
        tamper("shifted", "drop-pair", lambda b: b["sigma"].pop())
        tamper("shifted", "c", lambda b: b.update(c=b["c"] + 1))
        tamper("cross", "rho-low",
               lambda b: b.update(rho1=max(0, b["rho1"] - 1))
               if b["rho1"] > 0 else b.update(beta0=b["beta0"] + 1))

        def drop_cross_pair(b):
            keep = [p for p in b["sigma"]
                    if p[0] > b["rho0"] and p[1] > b["rho1"]]
            if keep:
                b["sigma"].remove(keep[0])
            else:
                b["beta1"] = b["beta1"] + 1
        tamper("cross", "drop-pair", drop_cross_pair)
        tamper("cross", "beta0", lambda b: b.update(beta0=b["beta0"] + 1))

        def collide_js(b):
            gammas = b["gammas"]
            for j0, j1 in itertools.product(range(1, 30), range(1, 30)):
                vals = []
                for label, mult, beta in b["entries"]:
                    total = beta
                    for e, t in mult:
                        total += gammas[e][(j0, j1)[e] - 1] * t
                    vals.append(total)
                if len(set(vals)) < len(vals):
                    b["js"] = [j0, j1]
                    return
            b["js"] = [0, b["js"][1]]  # fallback: out-of-bounds index
        tamper("multi", "collide-js", collide_js)
        tamper("multi", "rho-bounds", lambda b: b["rhos"].__setitem__(0, b["js"][0]))

        # rewrite: identity, tables, designations
        tamper("rw_uni", "index+1",
               lambda b: b["indices"].__setitem__(0, b["indices"][0] + 1))
        tamper("rw_uni", "coeff", lambda b: perturb_coeff(b["G1"]))
        tamper("rw_uni", "table",
               lambda b: b["table"][0].__setitem__(1, b["table"][0][1] + 1
                                                   if isinstance(b["table"][0][1], int)
                                                   else 99))
        tamper("rw_uni", "multiplier", lambda b: b.update(multiplier=[[0, 1]]))

        def quad_c_mono(b):
            for mono, _ in b["table"]:
                if sum(k for _, k in mono) == 2:
                    b["c_mono"] = mono
                    return
            b["c_mono"][0][1] = 2
        tamper("rw_uni", "c-mono", quad_c_mono)
        tamper("rw_bi", "swap-indices", lambda b: b["indices"].reverse()
               if b["indices"][0] != b["indices"][1]
               else b["indices"].__setitem__(0, b["indices"][0] + 1))
        tamper("rw_bi", "coeff", lambda b: perturb_coeff(b["G1"]))
        tamper("rw_bi", "table",
               lambda b: b["table"][0].__setitem__(1, 99))
        tamper("rw_bi", "multiplier", lambda b: b.update(multiplier=[[0, 2]]))

        # smooth: images, base, relations, witnesses
        tamper("smooth", "image",
               lambda b: b["generators"][1][1]["terms"][0].__setitem__(1, 3))
        tamper("smooth", "base",
               lambda b: b.update(base=0 if b["base"] != 0 else 1))
        tamper("smooth", "relation", lambda b: perturb_coeff(b["relations"][0], mod=5))
        tamper("smooth", "witness",
               lambda b: b["witnesses"][0]["num"][0][1]["terms"].append([1, 1]))
        tamper("fraction", "witness-num",
               lambda b: perturb_coeff(b["witnesses"][-1]["num"], mod=5))
        tamper("fraction", "witness-den",
               lambda b: perturb_coeff(b["witnesses"][-1]["den"], mod=5))
        tamper("fraction", "image",
               lambda b: b["generators"][0][1]["terms"][0].__setitem__(1, 4))
        return out

    def test_negative_controls(self, tmp_path):
        bases = self.build_bases()
        cases = self.tampers(bases)
        assert len(cases) == 30, f"expected 30 tampered cases, built {len(cases)}"
        rejected, wrong = 0, []
        for name, bad in cases:
            path = tmp_path / (name.replace(":", "_").replace("+", "p")
                               .replace("-", "_") + ".json")
            path.write_text(json.dumps(bad), encoding="utf-8")
            code = cli_main(["verify", str(path)])
            if code == 4:
                rejected += 1
            else:
                wrong.append((name, code))
        report(6, "negative controls", rejected == 30,
               f"{rejected}/30 tampered certificates rejected with exit 4"
               + (f"; wrong: {wrong}" if wrong else ""))


# -- criterion 7: value groups other than Z ----------------------------

def _series(p, terms):
    return {"trunc": "inf",
            "terms": [[e, f"{c}/1" if p == 0 else c % p] for e, c in terms]}


def _rule(p, exp, horizon=300):
    out = {"seq": "rule", "exp": exp, "horizon": horizon,
           "coeff": {"kind": "const", "c": "1/1" if p == 0 else 1}}
    out.update({"field": "Q"} if p == 0 else {"field": "Fp", "p": p})
    return out


def _mono(*exps):
    return [[{"tag": "orig", "e": e}, k] for e, k in exps]


def other_group_configs():
    """Rewrites with Q exponents (arith a=1/2, b=1/3) and lex Z^2 exponents,
    and [V, V^2] families over F5 at H=100 along geometric Q and lex
    pseudo-limits (an arithmetic seq0 does not reach the truncation there)."""
    q_seq = _rule(0, {"kind": "arith", "a": "1/2", "b": "1/3"})
    lex0 = _rule(0, {"kind": "arith", "a": [1, 0], "b": [0, 1]})
    lex1 = _rule(0, {"kind": "arith", "a": [1, 1], "b": [1, 0]})
    out = [
        ("Q univariate", "rewrite", {
            "field": "Q", "op": "univariate", "seqs": [q_seq],
            "g": [[_mono((0, 2)), _series(0, [["0/1", 1]])],
                  [_mono((0, 1)), _series(0, [["1/2", 1]])]]}),
        ("Q bivariate", "rewrite", {
            "field": "Q", "op": "bivariate",
            "seqs": [q_seq, _rule(0, {"kind": "arith", "a": "1/3", "b": "1/2"})],
            "g": [[_mono((0, 1), (1, 1)), _series(0, [["0/1", 1]])],
                  [_mono((0, 1)), _series(0, [["1/3", 2]])]]}),
        ("lex univariate", "rewrite", {
            "field": "Q", "op": "univariate", "seqs": [lex0],
            "g": [[_mono((0, 2)), _series(0, [[[0, 0], 1]])],
                  [_mono((0, 1)), _series(0, [[[0, 1], 1]])]]}),
        ("lex bivariate", "rewrite", {
            "field": "Q", "op": "bivariate", "seqs": [lex0, lex1],
            "g": [[_mono((0, 1), (1, 1)), _series(0, [[[0, 0], 1]])],
                  [_mono((1, 1)), _series(0, [[[1, 0], 3]])]]}),
    ]
    for name, a, zero in (("Q", "1/2", "0/1"), ("lex", [1, 1], [0, 0])):
        out.append((f"{name} family", "smooth", {
            "field": "Fp", "p": 5, "op": "family",
            "seq0": _rule(5, {"kind": "geom", "a": a}, horizon=100),
            "fs": [[[_mono((0, 1)), _series(5, [[zero, 1]])]],
                   [[_mono((0, 2)), _series(5, [[zero, 1]])]]]}))
    return out


class TestCriterion7:
    def test_other_value_groups(self, tmp_path):
        built = []
        for i, (name, cmd, cfg) in enumerate(other_group_configs()):
            cfg_path, out = tmp_path / f"c{i}.json", tmp_path / f"o{i}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            code = cli_main([cmd, str(cfg_path), "--out", str(out)])
            vcode = cli_main(["verify", str(out)]) if code == 0 else None
            built.append((name, code, vcode))
        ok = all(code == 0 and vcode == 0 for _, code, vcode in built)
        report(7, "Q and lex exponents in rewrite and smooth", ok,
               f"{sum(c == 0 and v == 0 for _, c, v in built)}/{len(built)} "
               f"built and verified" + ("" if ok else f"; {built}"))
