"""Seeded inputs for the three benchmark workloads.

Every input is a plain JSON config in the schema `valcert <cmd>` reads;
nothing here imports the package.  A workload is a fixed list of item
templates; the seed only draws the values inside each template (group
offsets, stream steps, unit coefficients, t-exponents), so every seed
gives the same mix of operations and a similar amount of work.
"""
from __future__ import annotations

import itertools
import random

SEP_HORIZON = 200
SEQ_HORIZON = 300


# -- JSON building blocks ----------------------------------------------

def field_json(p: int) -> dict:
    return {"field": "Q"} if p == 0 else {"field": "Fp", "p": p}


def coeff_json(p: int, c: int):
    return f"{c}/1" if p == 0 else c % p


def unit(rng: random.Random, p: int) -> int:
    """A nonzero scalar: 1..4 over Q, 1..p-1 over F_p."""
    return rng.randint(1, 4 if p == 0 else p - 1)


def series_json(p: int, terms) -> dict:
    """Exact series: the sum of c * t^e over terms [(e, c)]."""
    return {"trunc": "inf", "terms": [[e, coeff_json(p, c)] for e, c in terms]}


def orig(e: int) -> dict:
    return {"tag": "orig", "e": e}


def poly_json(p: int, monos) -> list:
    """monos: [(exponent tuple over Y_0.., [(t_exp, coeff), ...])]."""
    out = []
    for exps, terms in monos:
        mono = [[orig(e), k] for e, k in enumerate(exps) if k]
        out.append([mono, series_json(p, terms)])
    return out


def geom_seq(p: int, a: int, c: int) -> dict:
    out = {"seq": "rule", "exp": {"kind": "geom", "a": a},
           "coeff": {"kind": "const", "c": coeff_json(p, c)},
           "horizon": SEQ_HORIZON}
    out.update(field_json(p))
    return out


def arith_seq(p: int, a, b, c: int) -> dict:
    out = {"seq": "rule", "exp": {"kind": "arith", "a": a, "b": b},
           "coeff": {"kind": "const", "c": coeff_json(p, c)},
           "horizon": SEQ_HORIZON}
    out.update(field_json(p))
    return out


# -- separate ----------------------------------------------------------

def _group(rng, kind, lo=-20, hi=20):
    if kind == "Z":
        return rng.randint(lo, hi)
    return [rng.randint(lo, hi), rng.randint(lo, hi)]


def _stream(rng, kind, H=SEP_HORIZON):
    """Strictly increasing stream of H group elements, all positive."""
    out = []
    if kind == "Z":
        cur = rng.randint(1, 3)
        for _ in range(H):
            out.append(cur)
            cur += rng.randint(1, 3)
        return out
    a, b = 1, 1
    for _ in range(H):
        out.append([a, b])
        if rng.random() < 0.5:
            a += rng.randint(1, 2)
            b = rng.randint(-3, 3)
        else:
            b += rng.randint(1, 3)
    return out


def _gadd(x, y):
    if isinstance(x, list):
        return [a + b for a, b in zip(x, y)]
    return x + y


def _gneg(x):
    return [-a for a in x] if isinstance(x, list) else -x


def separate_items(seed: int):
    """Per group (Z, lex Z^2): 4 tail, 3 shifted, 3 cross, 4 multi.

    Hypotheses hold by construction: tail entries differ in (t, beta),
    every t is positive and offsets are small, so each collision target
    lies inside the stream window; shifted and cross problems get one
    engineered collision each; multi subsets are distinct and nonempty.
    """
    rng = random.Random(f"separate:{seed}")
    items = []
    for kind in ("Z", "lex"):
        for m in (2, 3, 4, 5):
            pairs = []
            while len(pairs) < m:
                pair = (rng.randint(1, 5), _group(rng, kind))
                if pair not in pairs:
                    pairs.append(pair)
            items.append(("separate", {
                "op": "tail", "ts": [t for t, _ in pairs],
                "betas": [b for _, b in pairs],
                "gamma": _stream(rng, kind)}))
        for _ in range(3):
            gamma0 = _stream(rng, kind)
            beta0, c = _group(rng, kind), _group(rng, kind)
            a, b = sorted(rng.sample(range(SEP_HORIZON), 2))
            # beta1 = beta0 - c - (gamma0[b] - gamma0[a]) collides at (a+1, b+1)
            beta1 = _gadd(_gadd(beta0, _gneg(c)),
                          _gadd(gamma0[a], _gneg(gamma0[b])))
            items.append(("separate", {"op": "shifted", "beta0": beta0,
                                       "beta1": beta1, "c": c,
                                       "gamma0": gamma0}))
        for _ in range(3):
            g0, g1 = _stream(rng, kind), _stream(rng, kind)
            beta0, beta01 = _group(rng, kind), _group(rng, kind)
            a, b = rng.randrange(SEP_HORIZON), rng.randrange(SEP_HORIZON)
            beta1 = _gadd(beta0, _gadd(g0[a], _gneg(g1[b])))
            items.append(("separate", {"op": "cross", "beta0": beta0,
                                       "beta1": beta1, "beta01": beta01,
                                       "gamma0": g0, "gamma1": g1}))
        for npos in (2, 2, 3, 3):
            subsets = [list(s) for r in range(1, npos + 1)
                       for s in itertools.combinations(range(npos), r)]
            subsets = rng.sample(subsets, rng.randint(2, len(subsets)))
            items.append(("separate", {
                "op": "multi", "subsets": subsets,
                "betas": [_group(rng, kind) for _ in subsets],
                "ts": [rng.randint(1, 5) for _ in range(npos)],
                "gammas": [_stream(rng, kind) for _ in range(npos)],
                "rhos": [0] * npos}))
    return items


# -- rewrite -----------------------------------------------------------

REWRITE_FIELDS = (0, 2, 3, 5)

# Univariate templates: exponents of Y_0 present besides the leading one.
_UNI = ((1, (0,)), (2, (1, 0)), (2, (0,)), (3, (1,)), (3, (2, 0)),
        (4, (1, 0)))
# Bivariate templates: monomials (e0, e1), the first carries t^0.
_BI = (((1, 1), (1, 0), (0, 1)), ((2, 1), (1, 0), (0, 0)),
       ((1, 2), (0, 1), (1, 0)), ((2, 0), (1, 1), (0, 1)),
       ((1, 1), (2, 0), (0, 0)))
# Multilinear: number of variables; monomials are drawn as subsets.
_ML = (2, 2, 3, 3)


def _rand_terms(rng, p, lead=False):
    """One or two terms c*t^e, e in 0..2; a leading coefficient is a unit."""
    if lead:
        return [(0, unit(rng, p))]
    return [(e, unit(rng, p)) for e in sorted(rng.sample(range(3), rng.randint(1, 2)))]


def _seqs(rng, p, n):
    """Rule sequences: lacunary t^(2^j) first, then t^(3*2^j), t^(5*2^j).

    The multipliers are odd and distinct, so no sequence is a shift of
    another: t^(4*2^j) would be t^(2^j) two terms on, its limit would
    differ from the first one's by t + t^2, and a multilinear g could
    cancel along them so that no coefficient value stabilizes (exit 2)."""
    return [geom_seq(p, a, unit(rng, p)) for a in (1, 3, 5)[:n]]


def rewrite_items(seed: int):
    """Per field (Q, F2, F3, F5), four draws of each template: 24
    univariate, 20 bivariate and 16 multilinear rewrites; then the fixed
    Q-exponent and lex-exponent items."""
    rng = random.Random(f"rewrite:{seed}")
    items = []
    for p in REWRITE_FIELDS * 4:
        for lead, rest in _UNI:
            monos = [((lead,), _rand_terms(rng, p, lead=True))]
            monos += [((k,), _rand_terms(rng, p)) for k in rest]
            seq = (geom_seq(p, 1, unit(rng, p)) if lead % 2
                   else arith_seq(p, 1, 1, unit(rng, p)))
            items.append(_rewrite_cfg(p, "univariate", poly_json(p, monos), [seq]))
        for template in _BI:
            monos = [(template[0], _rand_terms(rng, p, lead=True))]
            monos += [(e, _rand_terms(rng, p)) for e in template[1:]]
            items.append(_rewrite_cfg(p, "bivariate", poly_json(p, monos),
                                      _seqs(rng, p, 2)))
        for n in _ML:
            subsets = [s for r in range(n + 1)
                       for s in itertools.combinations(range(n), r)]
            chosen = [s for s in subsets if s and rng.random() < 0.6]
            if not chosen:
                chosen = [(rng.randrange(n),)]
            chosen.append(())
            monos = [(tuple(int(e in s) for e in range(n)), _rand_terms(rng, p))
                     for s in chosen]
            items.append(_rewrite_cfg(p, "multilinear", poly_json(p, monos),
                                      _seqs(rng, p, n)))
    return items + other_group_rewrite_items()


def _rewrite_cfg(p, op, g, seqs):
    cfg = {"op": op, "g": g, "seqs": seqs}
    cfg.update(field_json(p))
    return ("rewrite", cfg)


def other_group_rewrite_items():
    """Fixed (seed-independent) rewrites whose exponents live in Q and in
    lex Z^2.  The package cannot build these yet: series constants are
    created with an integer exponent, so they exit 1 on every run."""
    y0, y1 = orig(0), orig(1)
    q_seq = arith_seq(0, "1/2", "1/3", 1)
    lex_seq0 = arith_seq(0, [1, 0], [0, 1], 1)
    lex_seq1 = arith_seq(0, [1, 1], [1, 0], 1)
    return [
        _rewrite_cfg(0, "univariate",
                     [[[[y0, 2]], series_json(0, [["0/1", 1]])],
                      [[[y0, 1]], series_json(0, [["1/2", 1]])]], [q_seq]),
        _rewrite_cfg(0, "bivariate",
                     [[[[y0, 1], [y1, 1]], series_json(0, [["0/1", 1]])],
                      [[[y0, 1]], series_json(0, [["1/3", 2]])]],
                     [q_seq, arith_seq(0, "1/3", "1/2", 1)]),
        _rewrite_cfg(0, "univariate",
                     [[[[y0, 2]], series_json(0, [[[0, 0], 1]])],
                      [[[y0, 1]], series_json(0, [[[0, 1], 1]])]], [lex_seq0]),
        _rewrite_cfg(0, "bivariate",
                     [[[[y0, 1], [y1, 1]], series_json(0, [[[0, 0], 1]])],
                      [[[y1, 1]], series_json(0, [[[1, 0], 3]])]],
                     [lex_seq0, lex_seq1]),
    ]


# -- smooth ------------------------------------------------------------

# Each template is (op, members, fields); a member is [(degree,
# t-exponent)], the first pair its leading monomial.  The first template
# is the [V, V^2]-type family whose derived-sequence re-materialization
# dominates the workload.  The second fraction runs over Q only: over F5
# its certified delta, and so its verify cost, jumps with the seed.
_SMOOTH = (
    ("family", [[(1, 0)], [(2, 0), (1, 1)]], (5, 0)),
    ("family", [[(2, 0), (0, 1)], [(3, 0), (1, 1)]], (5, 0)),
    ("fraction", [[(3, 0), (1, 1)], [(2, 0), (0, 0)]], (5, 0)),
    ("family", [[(2, 0), (1, 1), (0, 2)]], (5, 0)),
    ("family", [[(2, 0)], [(3, 0), (1, 1)], [(3, 0), (0, 2)]], (5, 0)),
    ("fraction", [[(2, 0), (1, 1)], [(2, 0), (0, 1)]], (0,)),
    ("family", [[(3, 0), (1, 2)], [(2, 0), (0, 1)]], (5, 0)),
    ("family", [[(2, 0), (0, 1)], [(3, 0), (1, 1)], [(3, 0), (2, 2)]], (5, 0)),
)


def smooth_items(seed: int):
    """Over F5, then Q: the templates above over a lacunary seq0 t^(2^j)
    with a seeded unit coefficient; members get seeded units."""
    rng = random.Random(f"smooth:{seed}")
    items = []
    for p in (5, 0):
        for op, members, fields in _SMOOTH:
            if p not in fields:
                continue
            fs = [poly_json(p, [((d,), [(k, unit(rng, p))]) for d, k in member])
                  for member in members]
            cfg = {"op": op, "seq0": geom_seq(p, 1, unit(rng, p))}
            cfg.update(field_json(p))
            if op == "family":
                cfg["fs"] = fs
            else:
                cfg["f1"], cfg["f2"] = fs
            items.append(("smooth", cfg))
    return items


WORKLOADS = {"separate": separate_items, "rewrite": rewrite_items,
             "smooth": smooth_items}
