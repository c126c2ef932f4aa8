"""Certified polynomial rewrites over pseudo-convergent sequences.

Every operation recentres a polynomial through the stage substitutions
y_e = v_{e,t} + s_{e,t} * Y_{e,t} at indices chosen so that the value
table of the result's coefficients has the advertised normal form
(values in V, nonconstant values distinct, a designated coefficient
least, or linear and strictly least).  Index choice runs through the
separation machinery on stabilized coefficient values, and the builder
decides each attempt with its verifier's normal-form check.  The
certificate stores the exact recentred polynomial, so verification is
an exact recomputation plus direct value checks -- no searches re-run.

Recentring is computed in Hasse form, from one power table of the
centres and one of the scales.  The stabilized values of all Hasse
derivatives come from a single walk over the partial sums, which
evaluates a derivative only where the Hasse-Taylor bound cannot decide
its value: a value that is a known term below the least possible value
of the step's change is carried, and it lies below the window of the
evaluated series too, since that window is fixed from j = 1 on (see
_stable_betas).
"""
from __future__ import annotations

import itertools
import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import (HorizonError, IndeterminateValError, InputError,
                     NotStabilizedError, UndecidedError, VerificationError)
from .fields import Field, characteristic, field_from_json, field_to_json
from .group import INF
from .pcs import DerivedSequence, PseudoSequence, sequence_from_json
from .poly import Poly, Powers, VarTag
from .separation import separate_indices
from .series import ValuedSeries

DEFAULT_WINDOW = 8
DEFAULT_RETRIES = 16


# -- Taylor recentring -------------------------------------------------

def taylor_recenter(g: Poly, centers: Mapping[VarTag, ValuedSeries],
                    scales: Mapping[VarTag, ValuedSeries],
                    newtags: Mapping[VarTag, VarTag]) -> Poly:
    """Exact polynomial with g(..., v_e + s_e*Y_new, ...) = result(Y_new).

    In Hasse form: the Y_new^k coefficient is the sum over the monomials
    C_a Y^a of g of binomial(a, k) C_a v^(a-k) s^k; a term whose integer
    binomial vanishes in the field is skipped.
    """
    for tag in centers:
        if scales[tag].is_zero_exact():
            raise InputError("recentring scale must be nonzero")
    field = g.field
    vpow, spow = Powers(centers), Powers(scales)
    out = []
    for mono, coeff in g.monos.items():
        rest = dict(mono)
        moved = [(tag, rest.pop(tag)) for tag in centers if tag in rest]
        for ks in itertools.product(*(range(a + 1) for _, a in moved)):
            binom = field.from_int(math.prod(math.comb(a, k) for (_, a), k in zip(moved, ks)))
            if field.is_zero(binom):
                continue
            term = coeff.scalar_mul(binom)
            exps = dict(rest)
            for (tag, a), k in zip(moved, ks):
                if k < a:
                    term = term * vpow[tag, a - k]
                if k:
                    term = term * spow[tag, k]
                    new = newtags[tag]
                    exps[new] = exps.get(new, 0) + k
            out.append((exps.items(), term))
    return Poly(field, g.group, out)


def recenter_at(h: Poly, seqs: Sequence[PseudoSequence],
                indices: Sequence[int]) -> Poly:
    """Recentre each Orig(e) variable at sequence index indices[e]."""
    centers, scales, newtags = {}, {}, {}
    for e, (seq, t) in enumerate(zip(seqs, indices)):
        tag = VarTag.orig(e)
        if h.degree_in(tag) == 0:
            continue
        centers[tag] = seq.term(t)
        scales[tag] = seq.scale(t)
        newtags[tag] = VarTag.stage(e, t)
    return taylor_recenter(h, centers, scales, newtags)


# -- Stabilized coefficient values -------------------------------------

def _stable_betas(h: Poly, seqs: Sequence[PseudoSequence], W: int):
    """beta_k and window start for every nonzero Hasse derivative D^(k)h, k != 0.

    beta_k is the value of val(D^(k)h(v_{0,j}, ..., v_{m,j})) that holds
    for W indices in a row, and the start is the first index of that run.
    One walk over j serves every derivative, and it evaluates a
    derivative only where its value can change.  By the Hasse-Taylor
    identity D^(k)h(v_j) = sum_i binomial(k+i, k) D^(k+i)h(v_{j-1}) s^i,
    s_e = v_{e,j} - v_{e,j-1} of value gamma_{e,j-1}, the step changes
    D^(k)h by a series of value at least

        B_k = min over nonzero D^(k')h, k' >= k, k' != k, of
              L_k' + sum_e (k'_e - k_e) * gamma_{e,j-1},

    where L_k' is a lower bound on val D^(k')h(v_{j-1}) (an INF bound,
    an exact zero, is skipped).  A known term strictly below B_k is
    therefore the value at v_j too, and a live derivative keeps it
    without evaluation; every other live derivative is evaluated, in
    derivative order.  A derivative whose window has closed is no
    longer evaluated but keeps a bound: its value while that is a known
    term below B_k, else min(L_k, B_k).

    Evaluation would read the carried value too, because it lies below
    the window of the computed D^(k)h(v_j).  With val v_{e,j} = gamma_{e,0}
    for j >= 1, that window is the same at every j >= 1: the minimum over
    the inexact coefficients C_a Y^a of D^(k)h of trunc C_a + sum_e
    a_e * gamma_{e,0}.  At j = 0 the centres are 0 and the window is
    trunc C_0.  Every derivative is evaluated at j = 0, and there
    D^(k+a)h(0) is C_a up to a nonzero integer factor; so for an inexact
    C_a, a != 0, the bound L_(k+a) at j = 0 is a known term below
    trunc C_a.  The window at j = 1 is therefore at least
    min(trunc C_0, B_k), above the carried value.
    """
    tags = [VarTag.orig(e) for e in range(len(seqs))]
    ranges = [range(h.degree_in(t) + 1) for t in tags]
    derivs: Dict[Tuple[int, ...], Poly] = {}
    for combo in itertools.product(*ranges):
        if any(combo):
            deriv = h.hasse_derivative(dict(zip(tags, combo)))
            if not deriv.is_zero():
                derivs[combo] = deriv
    # the derivatives above each one, with the difference of orders
    above = {k: [(k2, tuple(b - a for a, b in zip(k, k2))) for k2 in derivs
                 if k2 != k and all(a <= b for a, b in zip(k, k2))]
             for k in derivs}
    diffs = {d for pairs in above.values() for _, d in pairs}
    group = h.group
    bound = dict.fromkeys(derivs, INF)    # L_k at v_{j-1}
    known = dict.fromkeys(derivs, False)  # whether L_k is a known term
    live = dict(derivs)
    runs: Dict[Tuple[int, ...], Tuple[object, int]] = {}
    betas = dict.fromkeys(derivs)  # in derivative order
    horizon = min(s.horizon for s in seqs)
    for j in range(horizon - 1):
        if not live:
            break
        if j:
            gammas = [seq.term_pair(j - 1)[0] for seq in seqs]
            shifts = {}
            for d in diffs:
                shift = group.zero()
                for g, n in zip(gammas, d):
                    if n:
                        shift = group.add(shift, group.scale(g, n))
                shifts[d] = shift
            taylor = {k: min((group.add(bound[k2], shifts[d]) for k2, d in pairs
                              if bound[k2] is not INF), default=INF)
                      for k, pairs in above.items()}
            for k, b in taylor.items():
                if not (known[k] and bound[k] < b):
                    bound[k], known[k] = min(bound[k], b), False
        powers = None
        for k, deriv in list(live.items()):
            if not known[k]:
                if j == 0:
                    value = deriv.constant_term().val()
                else:
                    if powers is None:
                        powers = Powers({t: seq.term(j) for t, seq in zip(tags, seqs)})
                    value = deriv.eval_series(powers).val()
                bound[k], known[k] = value, True
            run = runs.get(k)
            if run is None or bound[k] != run[0]:
                run = runs[k] = (bound[k], j)
            if j - run[1] + 1 >= W:
                betas[k] = run
                del live[k]
    if live:
        raise NotStabilizedError(
            f"coefficient value did not stabilize over {W} indices below the "
            f"horizon {horizon}: " + ", ".join(_moving(k, runs.get(k), group) for k in live))
    return betas


def _moving(k: Tuple[int, ...], run, group) -> str:
    """A derivative whose window is still open, with its current run."""
    order = "D^(" + ",".join(map(str, k)) + ")"
    if run is None:
        return order + " not evaluated"
    value = "INF" if run[0] is INF else group.to_json(run[0])
    return f"{order} at val {value} since j={run[1]}"


# -- Certificates ------------------------------------------------------

_KINDS = ("pair_square", "multilinear_mono", "multilinear", "univariate_pfree",
          "univariate_charp", "bivariate_pfree", "bivariate_charp")


class RewriteCert:
    """Exact, self-verifying record of one rewrite."""

    def __init__(self, kind: str, field: Field, g: Poly,
                 multiplier: Mapping[int, int], seqs: Sequence[PseudoSequence],
                 indices: Sequence[int], G1: Poly, c_mono, mode: str, case: str,
                 table: Sequence[Tuple[object, object]]):
        self.kind = kind
        self.field = field
        self.g = g
        self.multiplier = dict(multiplier)
        self.seqs = list(seqs)
        self.indices = list(indices)
        self.G1 = G1
        self.c_mono = c_mono  # canonical monomial (tuple of [tag, exp])
        self.mode = mode
        self.case = case
        self.table = list(table)

    # -- serialization ------------------------------------------------
    def to_json(self):
        out = {
            "cert": "rewrite",
            "kind": self.kind,
            "g": self.g.to_json(),
            "multiplier": sorted([e, k] for e, k in self.multiplier.items()),
            "seqs": [s.to_json() for s in self.seqs],
            "indices": self.indices,
            "G1": self.G1.to_json(),
            "c_mono": [[v.to_json(), k] for v, k in self.c_mono],
            "mode": self.mode,
            "case": self.case,
            "table": [[[[v.to_json(), k] for v, k in mono], self.g.group.to_json(val)]
                      for mono, val in self.table],
        }
        out.update(field_to_json(self.field))
        return out

    @staticmethod
    def from_json(obj) -> "RewriteCert":
        if obj.get("cert") != "rewrite":
            raise InputError("not a rewrite certificate")
        if obj["kind"] not in _KINDS:
            raise InputError(f"unknown rewrite kind {obj['kind']!r}")
        field = field_from_json(obj)
        seqs = [sequence_from_json(s) for s in obj["seqs"]]
        if not seqs:
            raise InputError("a rewrite needs at least one sequence")
        group = seqs[0].group
        g = Poly.from_json(obj["g"], field, group)
        G1 = Poly.from_json(obj["G1"], field, group)
        mono = tuple((VarTag.from_json(v), int(k)) for v, k in obj["c_mono"])
        table = [(tuple((VarTag.from_json(v), int(k)) for v, k in m),
                  group.from_json(val)) for m, val in obj["table"]]
        return RewriteCert(
            obj["kind"], field, g, {int(e): int(k) for e, k in obj["multiplier"]},
            seqs, obj["indices"], G1, mono, obj["mode"], obj["case"], table)

    # -- verification -------------------------------------------------
    def _recompute(self) -> Poly:
        return recenter_at(_with_multiplier(self.g, self.multiplier),
                           self.seqs, self.indices)

    def verify(self) -> None:
        try:
            recomputed = self._recompute()
        except HorizonError as exc:
            # Recentring at index t reads t + 2 terms of the sequence.
            raise VerificationError("indices", f"sequence too short: {exc}")
        if not recomputed.same_known(self.G1):
            raise VerificationError("identity", "recentred polynomial differs from G1")
        try:
            vals = {mono: coeff.val() for mono, coeff in self.G1.monos.items()}
        except IndeterminateValError as exc:
            raise VerificationError("value-table", str(exc))
        table = {mono: v for mono, v in self.table}
        if set(table) != set(vals) or any(table[m] != vals[m] for m in vals):
            raise VerificationError("value-table", "embedded value table is wrong")
        _check_normal_form(vals, self.c_mono, self.mode, self.g.group)

    # -- convenience --------------------------------------------------
    @property
    def c(self) -> ValuedSeries:
        return self.G1.monos[self.c_mono]


# -- The certification engine ------------------------------------------

class _GammaStream:
    """Separation stream of one sequence: stream[s-1] = gamma_{s-1} (sep
    index s maps to sequence index s-1), read from the sequence only when
    asked for; capped one below the horizon so the scale at the chosen
    index is always available."""

    def __init__(self, seq: PseudoSequence):
        self._seq = seq

    def __len__(self) -> int:
        return self._seq.horizon - 1

    def __getitem__(self, i: int):
        return self._seq.gamma(i)


def _case_tag(vals: Dict[tuple, object]) -> str:
    nonconst = {m: v for m, v in vals.items() if m != ()}
    if not nonconst:
        return "star"
    cmin = min(nonconst.values())
    if () in vals and vals[()] < cmin:
        return "star"
    sigma = sorted(v.e for v, _ in _argmin(nonconst))
    return "gamma-min:" + ",".join(str(e) for e in sigma)


def _certify(kind: str, g: Poly, multiplier: Mapping[int, int],
             seqs: Sequence[PseudoSequence], nus: Sequence[int],
             mode: str, case: str, W: int, R: int) -> RewriteCert:
    h = _with_multiplier(g, multiplier)
    if h.is_zero():
        raise InputError("polynomial must be nonzero")
    betas = _stable_betas(h, seqs, W)
    streams = [_GammaStream(seq) for seq in seqs]
    min_idx = []
    for e, nu in enumerate(nus):
        starts = [start for k, (_, start) in betas.items() if k[e]]
        min_idx.append(max([nu + 1] + starts))
    rhos = list(min_idx)
    failure = "no attempt"
    for attempt in range(R):
        entries = [(k, {e: ke for e, ke in enumerate(k) if ke}, beta)
                   for k, (beta, _) in betas.items() if beta is not INF]
        if entries:
            js_sep = separate_indices(entries, streams, rhos)
            indices = [j - 1 for j in js_sep]
        else:
            indices = list(rhos)
        G1 = recenter_at(h, seqs, indices)
        vals = {m: c.val() for m, c in G1.monos.items()}
        c_mono, failure = _claims_hold(vals, mode, h.group)
        if not failure:
            table = sorted(vals.items(), key=lambda kv: _mono_key(kv[0]))
            tag = case if case else _case_tag(vals)
            # Verification reads term(t) and scale(t): t + 2 terms.
            frozen = [seq.snapshot(t + 2) if isinstance(seq, DerivedSequence) else seq
                      for seq, t in zip(seqs, indices)]
            cert = RewriteCert(kind, g.field, g, multiplier, frozen, indices,
                               G1, c_mono, mode, tag, table)
            cert.verify()
            return cert
        rhos = [max(r, t + 1) + 1 for r, t in zip(rhos, indices)]
    raise UndecidedError(
        f"claims not reached after {R} retries: {failure}")


def _with_multiplier(g: Poly, multiplier: Mapping[int, int]) -> Poly:
    """g * prod_e Y_e^k_e."""
    for e, k in multiplier.items():
        g = g * (Poly.var(g.field, g.group, VarTag.orig(e)) ** k)
    return g


def _mono_key(m):
    return tuple(v.sort_key() + (k,) for v, k in m)


def _argmin(vals: Dict[tuple, object]):
    best = min(vals.values())
    candidates = [m for m, v in vals.items() if v == best]
    return min(candidates, key=_mono_key)


def _check_normal_form(vals: Dict[tuple, object], c_mono, mode: str, group) -> None:
    """The normal-form claims on a value table, each a VerificationError:
    values in V, nonconstant values distinct, c_mono present and least
    ("content") or linear and strictly least among nonconstant ("min-linear")."""
    for v in vals.values():
        if v < group.zero():
            raise VerificationError(
                "coeffs-in-V", f"coefficient val {group.to_json(v)} < 0")
    seen = sorted(v for m, v in vals.items() if m != ())
    if any(a == b for a, b in zip(seen, seen[1:])):
        raise VerificationError("distinct-nonconstant", "two coefficient values coincide")
    if c_mono not in vals:
        raise VerificationError("c-mono", "designated coefficient is absent")
    cval = vals[c_mono]
    if mode == "content":
        if any(v < cval for v in vals.values()):
            raise VerificationError("content-min", "designated coefficient is not minimal")
    elif mode == "min-linear":
        if sum(k for _, k in c_mono) != 1:
            raise VerificationError("min-linear", "designated coefficient is not linear")
        if any(m not in (c_mono, ()) and not cval < v for m, v in vals.items()):
            raise VerificationError(
                "min-linear", "designated linear coefficient is not strictly minimal")
    else:
        raise VerificationError("mode", f"unknown mode {mode!r}")


def _claims_hold(vals: Dict[tuple, object], mode: str, group):
    """One attempt's designated monomial, its least coefficient (nonconstant
    unless mode is "content"), and why the normal-form check rejects it."""
    pool = vals if mode == "content" else {m: v for m, v in vals.items() if m != ()}
    c_mono = _argmin(pool) if pool else None
    try:
        _check_normal_form(vals, c_mono, mode, group)
    except VerificationError as exc:
        return c_mono, f"{exc.claim}: {exc.detail}"
    return c_mono, ""


# -- Public operations -------------------------------------------------

def _check_multilinear(g: Poly, nvars: int) -> None:
    for e in range(nvars):
        if g.degree_in(VarTag.orig(e)) > 1:
            raise InputError(f"polynomial must be multilinear; degree > 1 in Y_{e}")


def rw_pair_square(g: Poly, seqs: Sequence[PseudoSequence],
                   nus: Sequence[int] = (0, 0), W: int = DEFAULT_WINDOW,
                   R: int = DEFAULT_RETRIES) -> RewriteCert:
    """Content-extraction rewrite for a multilinear polynomial in two
    coupled elements (the second squares the first)."""
    _check_multilinear(g, 2)
    if len(seqs) != 2:
        raise InputError("exactly two sequences expected")
    return _certify("pair_square", g, {}, seqs, list(nus), "content", "", W, R)


def rw_multilinear_mono(g: Poly, seqs: Sequence[PseudoSequence],
                        nus: Optional[Sequence[int]] = None,
                        W: int = DEFAULT_WINDOW, R: int = DEFAULT_RETRIES) -> RewriteCert:
    """Content-extraction rewrite when every variable occurs in at most
    one monomial (single-monomial partial derivatives)."""
    n = len(seqs)
    _check_multilinear(g, n)
    for e in range(n):
        tag = VarTag.orig(e)
        occupied = [m for m in g.monos if any(v == tag for v, _ in m)]
        if len(occupied) > 1:
            raise InputError(
                f"variable Y_{e} occurs in {len(occupied)} monomials; at most one allowed")
    nus = list(nus) if nus is not None else [0] * n
    return _certify("multilinear_mono", g, {}, seqs, nus, "content", "", W, R)


def rw_multilinear(g: Poly, seqs: Sequence[PseudoSequence],
                   nus: Optional[Sequence[int]] = None,
                   W: int = DEFAULT_WINDOW, R: int = DEFAULT_RETRIES) -> RewriteCert:
    """Full multilinear rewrite: unique strictly minimal linear coefficient."""
    n = len(seqs)
    if g.is_zero():
        raise InputError("polynomial must be nonzero")
    _check_multilinear(g, n)
    nus = list(nus) if nus is not None else [0] * n
    if g.total_degree() < 1:
        # Constant polynomial: c = g, g1 = 1; nothing to recenter.
        return _certify("multilinear", g, {}, seqs, nus, "content", "", W, R)
    return _certify("multilinear", g, {}, seqs, nus, "min-linear", "", W, R)


def _charp_exponent_check(g: Poly, p: int, tags: Sequence[VarTag]) -> None:
    if p == 0:
        return
    for mono in g.monos:
        for v, k in mono:
            if v in tags and k > 0 and k % p == 0:
                raise InputError(
                    f"exponent {k} of Y_{v.e} is divisible by the characteristic {p}")


def _has_admissible(g: Poly, p: int, tags: Sequence[VarTag]) -> bool:
    """Some monomial has a positive exponent not divisible by p in one of tags."""
    for mono in g.monos:
        for v, k in mono:
            if v in tags and k > 0 and (p == 0 or k % p != 0):
                return True
    return False


def rw_univariate_pfree(g: Poly, seq: PseudoSequence, nu: int = 0,
                        W: int = DEFAULT_WINDOW, R: int = DEFAULT_RETRIES) -> RewriteCert:
    """Univariate normal form when no positive exponent is divisible by
    the characteristic."""
    if g.is_zero():
        raise InputError("polynomial must be nonzero")
    tag = VarTag.orig(0)
    if any(v != tag for v in g.variables()):
        raise InputError("polynomial must be univariate in Y_0")
    p = characteristic(g.field)
    _charp_exponent_check(g, p, [tag])
    if g.total_degree() < 1:
        raise InputError("polynomial must be nonconstant")
    return _certify("univariate_pfree", g, {}, [seq], [nu], "min-linear", "case1", W, R)


def rw_univariate_charp(g: Poly, seq: PseudoSequence, nu: int = 0,
                        W: int = DEFAULT_WINDOW, R: int = DEFAULT_RETRIES) -> RewriteCert:
    """Characteristic-p univariate case split: rewrite g itself (case1) or
    Y*g (case2) into the minimal-linear normal form."""
    p = characteristic(g.field)
    if p == 0:
        raise InputError("this operation requires positive characteristic")
    if g.is_zero():
        raise InputError("polynomial must be nonzero")
    tag = VarTag.orig(0)
    if any(v != tag for v in g.variables()):
        raise InputError("polynomial must be univariate in Y_0")
    if _has_admissible(g, p, [tag]):
        return _certify("univariate_charp", g, {}, [seq], [nu],
                        "min-linear", "case1", W, R)
    return _certify("univariate_charp", g, {0: 1}, [seq], [nu],
                    "min-linear", "case2", W, R)


def rw_bivariate_pfree(g: Poly, seqs: Sequence[PseudoSequence],
                       nus: Sequence[int] = (0, 0), W: int = DEFAULT_WINDOW,
                       R: int = DEFAULT_RETRIES) -> RewriteCert:
    """Bivariate normal form when no positive exponent is divisible by
    the characteristic."""
    if g.is_zero():
        raise InputError("polynomial must be nonzero")
    tags = [VarTag.orig(0), VarTag.orig(1)]
    if any(v not in tags for v in g.variables()):
        raise InputError("polynomial must live in Y_0, Y_1")
    p = characteristic(g.field)
    _charp_exponent_check(g, p, tags)
    if g.total_degree() < 1:
        raise InputError("polynomial must be nonconstant")
    return _certify("bivariate_pfree", g, {}, seqs, list(nus),
                    "min-linear", "case1", W, R)


_MULTIPLIER_CASCADE = ({}, {0: 1}, {1: 1}, {0: 1, 1: 1})
_MULTIPLIER_NAMES = {(): "1", ((0, 1),): "y1", ((1, 1),): "y2",
                     ((0, 1), (1, 1)): "y1y2"}


def rw_bivariate_charp(f: Poly, seqs: Sequence[PseudoSequence],
                       nus: Sequence[int] = (0, 0), W: int = DEFAULT_WINDOW,
                       R: int = DEFAULT_RETRIES) -> RewriteCert:
    """Characteristic-p bivariate cascade: multiply f by 1, Y_1, Y_2 or
    Y_1*Y_2 until the product admits the minimal-linear normal form."""
    p = characteristic(f.field)
    if p == 0:
        raise InputError("this operation requires positive characteristic")
    if f.is_zero():
        raise InputError("polynomial must be nonzero")
    tags = [VarTag.orig(0), VarTag.orig(1)]
    if any(v not in tags for v in f.variables()):
        raise InputError("polynomial must live in Y_0, Y_1")
    last_failure: Optional[Exception] = None
    for mult in _MULTIPLIER_CASCADE:
        h = _with_multiplier(f, mult)
        if not _has_admissible(h, p, tags):
            continue
        name = _MULTIPLIER_NAMES[tuple(sorted(mult.items()))]
        try:
            return _certify("bivariate_charp", f, mult, seqs, list(nus),
                            "min-linear", "multiplier:" + name, W, R)
        except UndecidedError as exc:
            last_failure = exc
    raise UndecidedError(
        "no multiplier in the cascade reached the normal form: "
        + str(last_failure))
