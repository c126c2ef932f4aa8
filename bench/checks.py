"""Independent checks of the certificates the benchmark's items produce.

Nothing here imports valcert.  Group elements are plain ints, Fractions
or tuples (tuples compare lexicographically), scalars are Fractions or
ints mod p, and a series is a dict of terms with an optional truncation
order.  Each check recomputes the certificate's claims from the item's
own config (the problem data) and raises CheckError on the first claim
that does not hold.
"""
from __future__ import annotations

import copy
import heapq
import math
from fractions import Fraction


class CheckError(Exception):
    pass


def fail(claim: str, detail: str = ""):
    raise CheckError(f"{claim}: {detail}" if detail else claim)


# -- value group -------------------------------------------------------

def grp(x):
    """JSON group element -> int (Z), Fraction (Q) or tuple (lex)."""
    if isinstance(x, bool):
        fail("group", f"boolean {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, list):
        return tuple(x)
    fail("group", f"cannot read {x!r}")


def grp_json(x):
    if isinstance(x, tuple):
        return list(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def gadd(a, b):
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def gneg(a):
    return tuple(-x for x in a) if isinstance(a, tuple) else -a


def gsub(a, b):
    return gadd(a, gneg(b))


def gscale(a, t: int):
    return tuple(t * x for x in a) if isinstance(a, tuple) else t * a


def gzero(a):
    return (0,) * len(a) if isinstance(a, tuple) else 0


# -- scalars -----------------------------------------------------------

class Field:
    def __init__(self, cfg: dict):
        self.p = 0 if cfg["field"] == "Q" else int(cfg["p"])

    def read(self, x):
        return Fraction(x) if self.p == 0 else int(x) % self.p

    def norm(self, a):
        return a % self.p if self.p else a

    def inv(self, a):
        if self.norm(a) == 0:
            fail("field", "inverse of zero")
        return pow(a, self.p - 2, self.p) if self.p else 1 / Fraction(a)


# -- truncated series --------------------------------------------------

class Series:
    """Sum of c * t^e over `terms`; exponents at or past `trunc` are
    unknown (trunc None: the series is exact)."""

    __slots__ = ("terms", "trunc")

    def __init__(self, F: Field, terms: dict, trunc=None):
        self.trunc = trunc
        self.terms = {e: F.norm(c) for e, c in terms.items()
                      if F.norm(c) != 0 and (trunc is None or e < trunc)}

    def low(self):
        """Certified lower bound of the valuation (None: exact zero)."""
        if self.terms:
            return min(self.terms)
        return self.trunc

    def vanishes_past(self, delta) -> bool:
        """Every known term lies past delta and the window reaches past it."""
        return (all(e > delta for e in self.terms)
                and (self.trunc is None or self.trunc > delta))


def series(F, obj) -> Series:
    """Series JSON -> Series; repeated exponents add up, as in valcert."""
    terms: dict = {}
    for e, c in obj.get("terms", []):
        terms[grp(e)] = terms.get(grp(e), 0) + F.read(c)
    trunc = obj.get("trunc", "inf")
    return Series(F, terms, None if trunc == "inf" else grp(trunc))


def _min_trunc(*bounds):
    known = [b for b in bounds if b is not None]
    return min(known) if known else None


def s_add(F, a: Series, b: Series, sign=1) -> Series:
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return Series(F, out, _min_trunc(a.trunc, b.trunc))


def s_mul(F, a: Series, b: Series, cap=None) -> Series:
    la, lb = a.low(), b.low()
    if (a.trunc is None and not a.terms) or (b.trunc is None and not b.terms):
        return Series(F, {})
    trunc = _min_trunc(cap,
                       gadd(a.trunc, lb) if a.trunc is not None else None,
                       gadd(b.trunc, la) if b.trunc is not None else None)
    out: dict = {}
    bt = sorted(b.terms.items())
    for e1, c1 in a.terms.items():
        for e2, c2 in bt:
            e = gadd(e1, e2)
            if trunc is not None and not e < trunc:
                break
            out[e] = out.get(e, 0) + c1 * c2
    return Series(F, out, trunc)


def s_div(F, a: Series, b: Series, cap) -> Series:
    """Quotient a / b known below min(cap, the honest window)."""
    if not b.terms:
        fail("division", "divisor has no known term")
    vb = min(b.terms)
    lead_inv = F.inv(b.terms[vb])
    la = a.low()
    trunc = _min_trunc(cap,
                       gsub(a.trunc, vb) if a.trunc is not None else None,
                       gsub(gadd(b.trunc, la), gscale(vb, 2))
                       if b.trunc is not None and la is not None else None)
    rest = sorted((e, c) for e, c in b.terms.items() if e != vb)
    rem = dict(a.terms)
    heap = list(rem)
    heapq.heapify(heap)
    out = {}
    while heap:
        lead = heapq.heappop(heap)
        c = F.norm(rem.pop(lead, 0))
        if c == 0:
            continue
        qe = gsub(lead, vb)
        if not qe < trunc:
            break
        qc = F.norm(c * lead_inv)
        out[qe] = qc
        for e2, c2 in rest:
            tgt = gadd(qe, e2)
            if not gsub(tgt, vb) < trunc:
                break
            if tgt not in rem:
                heapq.heappush(heap, tgt)
            rem[tgt] = rem.get(tgt, 0) - qc * c2
    return Series(F, out, trunc)


# -- polynomials -------------------------------------------------------

def tag(obj):
    kind = obj["tag"]
    if kind == "orig":
        return ("orig", obj["e"])
    if kind == "stage":
        return ("stage", obj["e"], obj["j"])
    key = obj.get("key")
    return ("dup", obj["e"], tuple(key) if isinstance(key, list) else key)


def poly(F, obj) -> dict:
    """Polynomial JSON -> {frozenset((tag, exponent)): Series}."""
    out = {}
    for mono, coeff in obj:
        key = frozenset((tag(v), int(k)) for v, k in mono)
        if key in out:
            fail("poly", "repeated monomial")
        out[key] = series(F, coeff)
    return out


def eval_poly(F, P: dict, assign: dict, cap) -> Series:
    powers = {}

    def power(v, k):
        if (v, k) not in powers:
            powers[v, k] = (assign[v] if k == 1
                            else s_mul(F, power(v, k - 1), assign[v], cap))
        return powers[v, k]

    total = Series(F, {})
    for mono, coeff in P.items():
        term = coeff
        for v, k in mono:
            if v not in assign:
                fail("poly", f"no value for variable {v}")
            term = s_mul(F, term, power(v, k), cap)
        total = s_add(F, total, term)
    return total


def derivative(F, P: dict, v) -> dict:
    out = {}
    for mono, coeff in P.items():
        exps = dict(mono)
        k = exps.get(v, 0)
        if k == 0 or F.norm(k) == 0:
            continue
        if k == 1:
            del exps[v]
        else:
            exps[v] = k - 1
        out[frozenset(exps.items())] = Series(
            F, {e: c * k for e, c in coeff.terms.items()}, coeff.trunc)
    return out


def det(F, rows, cap) -> Series:
    if not rows:
        return Series(F, {0: 1})
    total = Series(F, {})
    for col, entry in enumerate(rows[0]):
        if entry.trunc is None and not entry.terms:
            continue
        minor = det(F, [r[:col] + r[col + 1:] for r in rows[1:]], cap)
        total = s_add(F, total, s_mul(F, entry, minor, cap),
                      1 if col % 2 == 0 else -1)
    return total


# -- rule sequences ----------------------------------------------------

class Rule:
    """Pseudo-convergent sequence given by exponent and coefficient rules."""

    def __init__(self, F, spec: dict):
        if spec.get("seq", "rule") != "rule":
            fail("sequence", "only rule sequences are generated")
        self.F, self.spec = F, spec
        self.horizon = int(spec.get("horizon", 300))

    def term(self, j: int):
        exp, coeff = self.spec["exp"], self.spec["coeff"]
        if exp["kind"] == "arith":
            e = gadd(grp(exp["a"]), gscale(grp(exp["b"]), j))
        elif exp["kind"] == "geom":
            e = gscale(grp(exp["a"]), 2 ** j)
        else:
            vals = exp["values"]
            e = (grp(vals[j]) if j < len(vals)
                 else gadd(grp(vals[-1]), gscale(grp(exp["step"]), j - len(vals) + 1)))
        c = (coeff["c"] if coeff["kind"] == "const"
             else coeff["values"][j % len(coeff["values"])])
        return e, self.F.read(c)

    def partial(self, j: int) -> Series:
        """v_j = sum of the first j terms (exact)."""
        return Series(self.F, dict(self.term(i) for i in range(j)))

    def limit(self, prec) -> Series:
        terms, j = {}, 0
        while True:
            e, c = self.term(j)
            if not e < prec:
                return Series(self.F, terms, prec)
            terms[e] = c
            j += 1


# -- separate ----------------------------------------------------------

def check_separate(cfg: dict, cert: dict) -> None:
    if cert.get("cert") != "separation" or cert.get("kind") != cfg["op"]:
        fail("schema", "wrong certificate kind")
    # The certificate restates its problem; it must be this item's.
    for key in set(cfg) & set(cert):
        if cert[key] != cfg[key]:
            fail("echo", f"{key} differs from the problem")
    if cfg["op"] == "multi":
        entries = [[sorted(s), [[e, cfg["ts"][e]] for e in sorted(s)], b]
                   for s, b in zip(cfg["subsets"], cfg["betas"])]
        if cert["entries"] != entries:
            fail("echo", "entries differ from the problem")
    _SEP[cfg["op"]](cfg, cert)


def _tail(cfg, cert):
    betas = [grp(b) for b in cfg["betas"]]
    ts = cfg["ts"]
    gamma = [grp(x) for x in cfg["gamma"]]
    nu, r, m, H = cert["nu"], cert["r"], len(betas), len(gamma)
    if not (isinstance(nu, int) and 0 <= nu < H and isinstance(r, int) and 0 <= r < m):
        fail("tail-range", f"nu={nu!r} r={r!r}")

    def values(s):
        return [gadd(betas[i], gscale(gamma[s - 1], ts[i])) for i in range(m)]

    def minimal(vals):
        return all(vals[r] < vals[i] for i in range(m) if i != r)

    for s in range(nu + 1, H + 1):
        vals = values(s)
        if len(set(vals)) < m:
            fail("tail-distinct", f"values collide at s={s}")
        if not minimal(vals):
            fail("tail-minimum", f"entry {r} not strictly minimal at s={s}")
    if nu > 0:
        vals = values(nu)
        if len(set(vals)) == m and minimal(vals):
            fail("tail-break", f"the claims already hold at s=nu={nu}")


def _shifted(cfg, cert):
    beta0, beta1, c = grp(cfg["beta0"]), grp(cfg["beta1"]), grp(cfg["c"])
    gamma0 = [grp(x) for x in cfg["gamma0"]]
    index = {x: j for j, x in enumerate(gamma0, 1)}
    shift = gsub(gsub(beta0, beta1), c)
    expected = {(j0, index[gadd(x, shift)]) for j0, x in enumerate(gamma0, 1)
                if gadd(x, shift) in index}
    sigma = [tuple(p) for p in cert["sigma"]]
    if len(sigma) != len(set(sigma)) or set(sigma) != expected:
        fail("shifted-sigma", "sigma is not the collision set")
    if sorted(cert["A"]) != sorted(j0 for j0, _ in expected):
        fail("shifted-A", "A is not the domain of sigma")


def _cross(cfg, cert):
    beta0, beta1, beta01 = (grp(cfg[k]) for k in ("beta0", "beta1", "beta01"))
    g0 = [grp(x) for x in cfg["gamma0"]]
    g1 = [grp(x) for x in cfg["gamma1"]]
    rho0, rho1 = cert["rho0"], cert["rho1"]
    if not (0 <= rho0 <= len(g0) and 0 <= rho1 <= len(g1)):
        fail("cross-range", f"rho=({rho0}, {rho1})")
    index1 = {x: j for j, x in enumerate(g1, 1)}
    shift = gsub(beta0, beta1)
    expected = {(j0, index1[gadd(x, shift)]) for j0, x in enumerate(g0, 1)
                if gadd(x, shift) in index1}
    sigma = {tuple(p) for p in cert["sigma"]}
    if sigma != expected or len(cert["sigma"]) != len(sigma):
        fail("cross-sigma", "sigma is not the collision set of the first two families")
    # Past rho and off sigma the first two families never meet (sigma is
    # all of their collisions).  The cross family meets the first where
    # gamma1 = beta0 - beta01 and the second where gamma0 = beta1 - beta01.
    cols = range(rho1 + 1, len(g1) + 1)
    rows = range(rho0 + 1, len(g0) + 1)
    for j1 in cols:
        if g1[j1 - 1] == gsub(beta0, beta01) and any((j0, j1) not in sigma for j0 in rows):
            fail("cross-distinct", f"first and cross families meet at j1={j1}")
    for j0 in rows:
        if g0[j0 - 1] == gsub(beta1, beta01) and any((j0, j1) not in sigma for j1 in cols):
            fail("cross-distinct", f"second and cross families meet at j0={j0}")


def _multi(cfg, cert):
    gammas = [[grp(x) for x in stream] for stream in cfg["gammas"]]
    js, rhos, ts = cert["js"], cfg["rhos"], cfg["ts"]
    if len(js) != len(gammas):
        fail("multi-shape", "one index per stream expected")
    for e, j in enumerate(js):
        if not (isinstance(j, int) and rhos[e] < j <= len(gammas[e])):
            fail("multi-bounds", f"j_{e}={j!r} out of range")
    values = []
    for subset, beta in zip(cfg["subsets"], cfg["betas"]):
        total = grp(beta)
        for e in subset:
            total = gadd(total, gscale(gammas[e][js[e] - 1], ts[e]))
        values.append(total)
    if len(set(values)) < len(values):
        fail("multi-distinct", "two entries take the same value")


_SEP = {"tail": _tail, "shifted": _shifted, "cross": _cross, "multi": _multi}


# -- rewrite -----------------------------------------------------------

def _poly_mul_var(P: dict, v, k: int) -> dict:
    out = {}
    for mono, coeff in P.items():
        exps = dict(mono)
        exps[v] = exps.get(v, 0) + k
        out[frozenset(exps.items())] = coeff
    return out


def recentre(F, h: dict, seqs, indices) -> dict:
    """Expand h(v_t + s_t * Z) by the binomial theorem, Z = Stage(e, t_e)."""
    cache = {}

    def vpow(e, n):
        if (e, n) not in cache:
            cache[e, n] = (Series(F, {gzero(seqs[e].term(0)[0]): 1}) if n == 0
                           else s_mul(F, vpow(e, n - 1), seqs[e].partial(indices[e])))
        return cache[e, n]

    def spow(e, n):
        se, sc = seqs[e].term(indices[e])
        return Series(F, {gscale(se, n): sc ** n})

    out: dict = {}
    for mono, coeff in h.items():
        partial = {frozenset(): coeff}
        for (kind, e), k in mono:
            z = ("stage", e, indices[e])
            nxt: dict = {}
            for zmono, c in partial.items():
                for i in range(k + 1):
                    factor = s_mul(F, vpow(e, k - i), spow(e, i))
                    factor = Series(F, {x: y * math.comb(k, i)
                                        for x, y in factor.terms.items()})
                    key = zmono | {(z, i)} if i else zmono
                    prod = s_mul(F, c, factor)
                    nxt[key] = s_add(F, nxt[key], prod) if key in nxt else prod
            partial = nxt
        for key, c in partial.items():
            out[key] = s_add(F, out[key], c) if key in out else c
    return {m: c for m, c in out.items() if c.terms}


def check_rewrite(cfg: dict, cert: dict) -> None:
    if cert.get("cert") != "rewrite":
        fail("schema", "not a rewrite certificate")
    F = Field(cfg)
    g = poly(F, cfg["g"])
    seqs = [Rule(F, s) for s in cfg["seqs"]]
    mult = {int(e): int(k) for e, k in cert["multiplier"]}
    if any(k != 1 or not 0 <= e < len(seqs) for e, k in mult.items()):
        fail("multiplier", f"unexpected multiplier {cert['multiplier']}")
    h = g
    for e, k in mult.items():
        h = _poly_mul_var(h, ("orig", e), k)
    indices = cert["indices"]
    if len(indices) != len(seqs) or any(
            not (isinstance(t, int) and 0 <= t < s.horizon - 1)
            for t, s in zip(indices, seqs)):
        fail("indices", f"{indices!r} out of range")
    G1 = poly(F, cert["G1"])
    expanded = recentre(F, h, seqs, indices)
    if set(expanded) != set(G1) or any(
            G1[m].trunc is not None or G1[m].terms != c.terms
            for m, c in expanded.items()):
        fail("identity", "G1 is not g recentred at the certified indices")
    vals = {m: min(c.terms) for m, c in G1.items()}
    if not vals:
        fail("normal-form", "G1 is zero")
    zero = gzero(next(iter(vals.values())))
    if any(v < zero for v in vals.values()):
        fail("coeffs-in-V", "a coefficient has negative value")
    nonconst = {m: v for m, v in vals.items() if m}
    if len(set(nonconst.values())) < len(nonconst):
        fail("distinct", "two nonconstant coefficient values coincide")
    total_degree = max((sum(k for _, k in m) for m in g), default=0)
    mode = "content" if cfg["op"] == "multilinear" and total_degree < 1 else "min-linear"
    if cert["mode"] != mode:
        fail("mode", f"{cert['mode']!r} where {mode!r} is due")
    c_mono = frozenset((tag(v), int(k)) for v, k in cert["c_mono"])
    if c_mono not in vals:
        fail("c-mono", "designated coefficient is absent")
    cval = vals[c_mono]
    if mode == "content":
        if any(v < cval for v in vals.values()):
            fail("content-min", "designated coefficient is not minimal")
    else:
        if sum(k for _, k in c_mono) != 1:
            fail("min-linear", "designated coefficient is not linear")
        if any(not cval < v for m, v in nonconst.items() if m != c_mono):
            fail("min-linear", "designated coefficient is not strictly minimal")


# -- smooth ------------------------------------------------------------

class _Derived:
    """y = f(y0) / d, d the leading term of f(y0), over the seq0 limit."""

    def __init__(self, F, f: dict, seq0: Rule):
        self.F, self.f, self.seq0 = F, f, seq0
        prec = 8
        while True:
            fv = self.f_at(prec)
            if fv.terms:
                self.dexp = min(fv.terms)
                self.dinv = F.inv(fv.terms[self.dexp])
                return
            prec *= 2

    def f_at(self, prec) -> Series:
        """f(y0) with y0 known below prec."""
        y0 = self.seq0.limit(prec)
        return eval_poly(self.F, self.f, {("orig", 0): y0}, prec)

    def below(self, prec) -> Series:
        """y known below prec (at least)."""
        fv = self.f_at(gadd(prec, self.dexp))
        return Series(self.F, {gsub(e, self.dexp): c * self.dinv
                               for e, c in fv.terms.items()},
                      None if fv.trunc is None else gsub(fv.trunc, self.dexp))

    def gamma(self, j: int):
        """Exponent of the j-th term of y (its partial-sum sequence)."""
        prec = 8
        while True:
            y = self.below(prec)
            if len(y.terms) > j:
                return sorted(y.terms)[j]
            prec *= 2


def check_smooth(cfg: dict, cert: dict) -> None:
    if cert.get("cert") != "smooth":
        fail("schema", "not a smooth certificate")
    F = Field(cfg)
    seq0 = Rule(F, cfg["seq0"])
    fs = cfg["fs"] if cfg["op"] == "family" else [cfg["f1"], cfg["f2"]]
    members = [_Derived(F, poly(F, f), seq0) for f in fs]
    delta = grp(cert["delta"])
    cap = gscale(delta, 2)

    gens = [(tag(t), series(F, s)) for t, s in cert["generators"]]
    images = dict(gens)
    stage_gammas = []
    for (kind, e, *rest), _ in gens:
        if kind == "stage":
            j = rest[0]
            stage_gammas.append(seq0.term(j)[0] if e == 0 else members[e - 1].gamma(j))
    if not stage_gammas or delta < gscale(max(stage_gammas), 2):
        fail("delta", f"delta {cert['delta']} is below twice the largest stage gamma")

    relations = [poly(F, r) for r in cert["relations"]]
    if len(relations) != len(gens) - 1:
        fail("relations", "need one relation fewer than generators")
    for i, rel in enumerate(relations):
        if not eval_poly(F, rel, images, cap).vanishes_past(delta):
            fail(f"relation-{i}", "residual does not vanish past delta")
    if relations:
        base = cert["base"]
        cols = [t for i, (t, _) in enumerate(gens) if i != base]
        rows = [[eval_poly(F, derivative(F, rel, c), images, delta) for c in cols]
                for rel in relations]
        minor = det(F, rows, delta)
        if not minor.terms or min(minor.terms) != gzero(delta):
            fail("jacobian-minor", "the minor is not a unit")

    required = {("y0", 0)}
    if len(fs) == 1 and cfg["op"] == "family":
        required.add(("z", 0))
    else:
        required |= {("ye", e) for e in range(1, len(fs) + 1)}
    if cfg["op"] == "fraction":
        required.add(("fraction", 0))
    present = {(w["kind"], w["e"] if w["kind"] == "ye" else 0) for w in cert["witnesses"]}
    if not required <= present:
        fail("witnesses", f"missing {sorted(required - present)}")
    for w in cert["witnesses"]:
        value = eval_poly(F, poly(F, w["num"]), images, cap)
        if w["den"] is not None:
            den = eval_poly(F, poly(F, w["den"]), images, cap)
            if not den.terms or min(den.terms) != gzero(delta):
                fail(f"witness-{w['name']}", "denominator is not a unit")
            value = s_div(F, value, den, cap)
        kind = w["kind"]
        if kind == "y0":
            target = seq0.limit(cap)
        elif kind in ("ye", "z"):
            target = members[w["e"] - 1 if kind == "ye" else 0].below(cap)
        elif kind == "fraction":
            f1, f2 = members[0].f_at(gscale(cap, 2)), members[1].f_at(gscale(cap, 2))
            target = s_div(F, f1, f2, cap)
        else:
            fail("witnesses", f"unknown kind {kind!r}")
        if not s_add(F, value, target, -1).vanishes_past(delta):
            fail(f"witness-{w['name']}", "does not match its target below delta")


CHECKS = {"separate": check_separate, "rewrite": check_rewrite,
          "smooth": check_smooth}


# -- mutations the verifier must reject --------------------------------

def _bump(F: Field, terms: list) -> None:
    """Add one to the coefficient of the first term of a series JSON."""
    c = F.read(terms[0][1]) + 1
    terms[0][1] = f"{c.numerator}/{c.denominator}" if F.p == 0 else c % F.p


def mutate(cert: dict) -> dict:
    """A copy of cert whose claims are false, for the verifier to reject."""
    bad = copy.deepcopy(cert)
    if bad["cert"] == "separation":
        kind = bad["kind"]
        if kind == "tail":
            bad["nu"] += 1
        elif kind == "shifted":
            pair = [1, 1]
            if pair in bad["sigma"]:
                bad["sigma"].remove(pair)
                if all(p[0] != 1 for p in bad["sigma"]):
                    bad["A"].remove(1)
            else:
                bad["sigma"].append(pair)
                if 1 not in bad["A"]:
                    bad["A"].append(1)
        elif kind == "cross":
            # Move beta1 so the first two families meet at the last pair
            # (j0, j1) past rho that sigma does not already list.
            g0, g1 = bad["gamma0"], bad["gamma1"]
            sigma = {tuple(p) for p in bad["sigma"]}
            j0, j1 = next((a, b) for a in range(len(g0), bad["rho0"], -1)
                          for b in range(len(g1), bad["rho1"], -1)
                          if (a, b) not in sigma)
            bad["beta1"] = grp_json(gadd(grp(bad["beta0"]),
                                         gsub(grp(g0[j0 - 1]), grp(g1[j1 - 1]))))
        else:
            bad["js"][0] = bad["rhos"][0]
    elif bad["cert"] == "rewrite":
        _bump(Field(bad), bad["G1"][0][1]["terms"])
    else:
        _bump(Field(bad), bad["generators"][-1][1]["terms"])
    return bad
