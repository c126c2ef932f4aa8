"""Certified polynomial rewrites over pseudo-convergent sequences.

Every operation recentres a polynomial through the stage substitutions
y_e = v_{e,t} + s_{e,t} * Y_{e,t} at indices chosen so that the value
table of the result's coefficients has the advertised normal form
(values in V, nonconstant values distinct, a designated coefficient
least, or linear and strictly least).  Index choice runs through the
separation machinery on stabilized coefficient values, and the builder
decides each attempt with its verifier's normal-form check.  The
verifier recentres g at the certified indices itself and checks the
normal form on that G1's values -- no searches re-run.  A top-level
certificate also stores its sequences, G1 (the exact answer a rewrite
gives) and G1's value table, which the verifier compares with its own;
a rewrite embedded in a smooth certificate stores none of them.  The
builder recentres each attempt once, on the sequences it searched, so
its G1 is the verifier's recomputation; it checks the verifier's
normal-form claims on G1's values, once, and writes its value table
from them.
A build is a plan (_Plan: what does not depend on the start indices nus,
the stable betas among it) and an attempt at given nus (_certify).  A
plan also predicts attempt 0's designated monomial from the betas and
the gammas at attempt 0's indices, without recentring.  rw(op, ...) is
the one entry point: it certifies the first of Plans(op, ...), the
(kind, multiplier) steps the op tries, that reaches the normal form; a
caller trying several nus keeps one Plans, so each plan is made once.

What a rewrite kind means lives in one place, the rules under "Rewrite
kinds": _shape_fault (the g, multiplier and sequences it accepts), _mode
and _case.  _Plan refuses an input by the first, and _certify records
what the other two give; RewriteCert.verify applies all three after the
identity and normal-form checks.  The field's characteristic picks an
op's kind, and _multipliers its characteristic-p multipliers, for both
Plans and _shape_fault.  The degree bound on g * multiplier is checked
where that product is formed (_with_multiplier), by _Plan and
RewriteCert.verify alike, before any recentring.

Recentring is computed in Hasse form, from one power table of the
centres and one of the scales.  The stabilized values of all Hasse
derivatives come from a single walk over the partial sums, which
evaluates a derivative only where the Hasse-Taylor bound cannot decide
its value: a value that is a known term below the least possible value
of the step's change is carried, and it lies below the window of the
evaluated series too, since that window is fixed from j = 1 on.  The walk
stops at the first step that evaluates nothing and moves no bound: the
gammas only rise, so the bounds cannot fall after it, every later step
would be the same, and each open window closes where its run would reach
W (see _stable_betas).
"""
from __future__ import annotations

import itertools
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (HorizonError, IndeterminateValError, InputError,
                     NotStabilizedError, UndecidedError, ValcertError,
                     VerificationError, require_int)
from .fields import Field, characteristic, field_from_json, field_to_json
from .group import INF, ValueGroup
from .pcs import PseudoSequence, sequence_from_json
from .poly import MAX_JSON_DEGREE, Poly, Powers, VarTag, mono_key
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
    binomial vanishes in the field is skipped, and the integer scales the
    coefficient directly (not at all when it is 1).
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
            binom = math.prod(math.comb(a, k) for (_, a), k in zip(moved, ks))
            if field.is_zero(binom):
                continue
            term = coeff if binom == 1 else coeff.scalar_mul(binom)
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

    The walk ends at its fixed point: the first step j >= 1 at which the
    Taylor update evaluates no live derivative (no known flag of a live
    one falls) and moves no bound.  The bounds are then those of step
    j - 1, and the gammas only rise, so no B_k falls at a later step: a
    carried value stays below its B_k, and a min(L_k, B_k) bound stays
    at L_k.  Every later step is this one again, and each live window
    closes at once with its run, if that run reaches W indices below the
    horizon; a window that cannot stays open.  A live derivative at an
    exact zero is evaluated at every step, so it keeps the walk going.

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
            idle = True
            for k, b in taylor.items():
                if not (known[k] and bound[k] < b):
                    if k in live or b < bound[k]:
                        idle = False
                    bound[k], known[k] = min(bound[k], b), False
            if idle:
                # every later step is this one again: close each window
                # where its run would reach W below the horizon
                for k in list(live):
                    if runs[k][1] + W - 1 < horizon - 1:
                        betas[k] = runs[k]
                        del live[k]
                break
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


# -- Rewrite kinds -----------------------------------------------------

_MULTILINEAR_KINDS = ("pair_square", "multilinear_mono", "multilinear")
_KINDS = _MULTILINEAR_KINDS + ("univariate_pfree", "univariate_charp",
                               "bivariate_pfree", "bivariate_charp")
# The characteristic-p multipliers of each op, in the order they are tried.
_CASCADES = {"univariate": ({}, {0: 1}),
             "bivariate": ({}, {0: 1}, {1: 1}, {0: 1, 1: 1})}
_ORIG = (VarTag.orig(0), VarTag.orig(1))


def _admissible(g: Poly, multiplier: Mapping[int, int], p: int) -> bool:
    """Some monomial of g * prod_e Y_e^k_e has an exponent prime to p,
    read off the exponents; g lives in the Orig variables."""
    for mono in g.monos:
        exps = dict(multiplier)
        for v, k in mono:
            exps[v.e] = exps.get(v.e, 0) + k
        if any(k % p for k in exps.values()):
            return True
    return False


def _multipliers(op: str, g: Poly, p: int) -> List[Dict[int, int]]:
    """The multipliers a characteristic-p op may take, in cascade order:
    g * multiplier has an exponent prime to p.  A univariate rewrite
    takes the first (g itself, case1, else Y*g, case2); a bivariate one
    tries each in turn."""
    fits = [dict(m) for m in _CASCADES[op] if _admissible(g, m, p)]
    return fits[:1] if op == "univariate" else fits


def _shape_fault(kind: str, g: Poly, multiplier: Mapping[int, int], n: int) -> str:
    """Why g, the multiplier and n sequences do not fit the kind, or ""."""
    p = characteristic(g.field)
    charp = kind.endswith("_charp")
    if multiplier and not charp:
        return f"a {kind} rewrite takes no multiplier"
    if kind in _MULTILINEAR_KINDS:
        if kind == "multilinear" and g.is_zero():
            return "polynomial must be nonzero"
        squared = {v for mono in g.monos for v, k in mono if k > 1}
        for e in range(2 if kind == "pair_square" else n):
            if VarTag.orig(e) in squared:
                return f"polynomial must be multilinear; degree > 1 in Y_{e}"
        if kind == "pair_square" and n != 2:
            return "exactly two sequences expected"
        for e in range(n if kind == "multilinear_mono" else 0):
            occupied = [m for m in g.monos if any(v == VarTag.orig(e) for v, _ in m)]
            if len(occupied) > 1:
                return (f"variable Y_{e} occurs in {len(occupied)} monomials; "
                        "at most one allowed")
        return "polynomial must be nonzero" if g.is_zero() else ""
    op = kind.rsplit("_", 1)[0]
    nvars = 1 if op == "univariate" else 2
    if charp and p == 0:
        return "this operation requires positive characteristic"
    if g.is_zero():
        return "polynomial must be nonzero"
    tags = _ORIG[:nvars]
    if any(v not in tags for mono in g.monos for v, _ in mono):
        return ("polynomial must be univariate in Y_0" if nvars == 1
                else "polynomial must live in Y_0, Y_1")
    if not charp:
        for mono in g.monos:
            for v, k in mono:
                if p and k % p == 0:
                    return f"exponent {k} of Y_{v.e} is divisible by the characteristic {p}"
        if g.total_degree() < 1:
            return "polynomial must be nonconstant"
    if n != nvars:
        return f"exactly {('one sequence', 'two sequences')[nvars - 1]} expected"
    if charp:
        allowed = _multipliers(op, g, p)
        if multiplier not in allowed:
            return f"multiplier {multiplier} where the case split allows {allowed}"
    return ""


def _mode(kind: str, g: Poly) -> str:
    """Content extraction for the multilinear kinds, except that a
    nonconstant g of kind multilinear reaches a strictly least linear
    coefficient, as every other kind does."""
    if kind in ("pair_square", "multilinear_mono") or (
            kind == "multilinear" and g.total_degree() < 1):
        return "content"
    return "min-linear"


def _case(kind: str, multiplier: Mapping[int, int], vals: Dict[tuple, object]) -> str:
    """bivariate_charp names its multiplier; the other univariate and
    bivariate kinds are case1, or case2 with a multiplier; a multilinear
    kind is star when G1's constant or nothing is least, else gamma-min
    with the variables of the least nonconstant monomial."""
    if kind == "bivariate_charp":
        return "multiplier:" + ("".join(f"y{e + 1}" for e in sorted(multiplier)) or "1")
    if kind not in _MULTILINEAR_KINDS:
        return "case2" if multiplier else "case1"
    nonconst = {m: v for m, v in vals.items() if m != ()}
    if not nonconst:
        return "star"
    cmin = min(nonconst.values())
    if () in vals and vals[()] < cmin:
        return "star"
    sigma = sorted(v.e for v, _ in _argmin(nonconst))
    return "gamma-min:" + ",".join(str(e) for e in sigma)


# -- Certificates ------------------------------------------------------


class RewriteCert:
    """Exact, self-verifying record of one rewrite.

    verify recomputes the recentred polynomial G1 from the claim fields
    (claims_json) over the sequences.  to_json adds the sequences, G1 (a
    top-level rewrite's answer) and its value table; a smooth certificate
    embeds the claim fields only, and decodes them in its own group:
    from_json leaves the sequences empty and G1 and table None where the
    JSON omits them, and a top-level rewrite's group is its first
    sequence's."""

    def __init__(self, kind: str, field: Field, g: Poly,
                 multiplier: Mapping[int, int], seqs: Sequence[PseudoSequence],
                 indices: Sequence[int], G1: Optional[Poly], c_mono, mode: str,
                 case: str, table: Optional[Sequence[Tuple[object, object]]]):
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
        self.table = None if table is None else list(table)

    # -- serialization ------------------------------------------------
    def claims_json(self):
        """Every field but the sequences, G1 and its value table."""
        out = {
            "cert": "rewrite",
            "kind": self.kind,
            "g": self.g.to_json(),
            "multiplier": sorted([e, k] for e, k in self.multiplier.items()),
            "indices": self.indices,
            "c_mono": [[v.to_json(), k] for v, k in self.c_mono],
            "mode": self.mode,
            "case": self.case,
        }
        out.update(field_to_json(self.field))
        return out

    def to_json(self):
        out = self.claims_json()
        out["seqs"] = [s.to_json() for s in self.seqs]
        out["G1"] = self.G1.to_json()
        out["table"] = [[[[v.to_json(), k] for v, k in mono], self.g.group.to_json(val)]
                        for mono, val in self.table]
        return out

    @staticmethod
    def from_json(obj, group: Optional[ValueGroup] = None) -> "RewriteCert":
        if obj.get("cert") != "rewrite":
            raise InputError("not a rewrite certificate")
        if obj["kind"] not in _KINDS:
            raise InputError(f"unknown rewrite kind {obj['kind']!r}")
        field = field_from_json(obj)
        seqs = [sequence_from_json(s) for s in obj.get("seqs", [])]
        if group is None:
            if not seqs:
                raise InputError("a rewrite needs at least one sequence")
            group = seqs[0].group
        g = Poly.from_json(obj["g"], field, group)
        G1 = Poly.from_json(obj["G1"], field, group) if "G1" in obj else None
        mono = tuple((VarTag.from_json(v), require_int(k, "c_mono exponent"))
                     for v, k in obj["c_mono"])
        table = ([(tuple((VarTag.from_json(v), require_int(k, "table exponent")) for v, k in m),
                   group.from_json(val)) for m, val in obj["table"]]
                 if "table" in obj else None)
        multiplier = {require_int(e, "multiplier variable"): require_int(k, "multiplier exponent")
                      for e, k in obj["multiplier"]}
        indices = [require_int(j, "indices") for j in obj["indices"]]
        if any(j < 0 for j in indices):
            # also at a sequence g does not read, which no check reaches
            raise InputError("negative sequence index")
        return RewriteCert(obj["kind"], field, g, multiplier, seqs, indices, G1, mono,
                           obj["mode"], obj["case"], table)

    # -- verification -------------------------------------------------
    def verify(self, seqs: Optional[Sequence[PseudoSequence]] = None) -> None:
        """Every claim over seqs, which each sequence the rewrite carries
        must match up to its index t; without seqs, over those it carries."""
        carried, seqs = ([], self.seqs) if seqs is None else (self.seqs, seqs)
        if len(self.indices) != len(seqs):
            raise VerificationError(
                "indices", f"{len(self.indices)} indices for {len(seqs)} sequences")
        if carried and len(carried) != len(seqs):
            raise VerificationError("seqs", f"{len(carried)} sequences for {len(seqs)}")
        try:
            G1 = recenter_at(_with_multiplier(self.g, self.multiplier), seqs, self.indices)
            for k, (seq, old, t) in enumerate(zip(seqs, carried, self.indices)):
                # v_t + s_t holds the terms 0..t, all that recentring at t reads
                if not (seq.term(t) + seq.scale(t)).same_known(old.term(t) + old.scale(t)):
                    raise VerificationError("seqs", f"sequence {k} differs at index {t}")
        except HorizonError as exc:
            # Recentring at index t reads terms 0..t.
            raise VerificationError("indices", f"sequence too short: {exc}")
        if self.G1 is not None and not G1.same_known(self.G1):
            raise VerificationError("identity", "recentred polynomial differs from G1")
        vals = self.check_table(G1)
        mode = _mode(self.kind, self.g)
        if self.mode != mode:
            raise VerificationError("mode", f"{self.mode!r} where {mode!r} is due")
        case = _case(self.kind, self.multiplier, vals)
        if self.case != case:
            raise VerificationError("case", f"{self.case!r} where {case!r} is due")
        fault = _shape_fault(self.kind, self.g, self.multiplier, len(seqs))
        if fault:
            raise VerificationError("kind", fault)

    def check_table(self, G1: Poly) -> Dict[tuple, object]:
        """The value and normal-form claims on the recentred polynomial G1:
        the embedded value table, if any, is G1's, and G1's values have the
        normal form of the certificate's mode.  Returns those values."""
        try:
            vals = {mono: coeff.val() for mono, coeff in G1.monos.items()}
        except IndeterminateValError as exc:
            raise VerificationError("value-table", str(exc))
        if self.table is not None:
            table = {mono: v for mono, v in self.table}
            if set(table) != set(vals) or any(table[m] != vals[m] for m in vals):
                raise VerificationError("value-table", "embedded value table is wrong")
        _check_normal_form(vals, self.c_mono, self.mode, self.g.group)
        return vals

    # -- convenience --------------------------------------------------
    @property
    def c(self) -> ValuedSeries:
        return self.G1.monos[self.c_mono]


# -- The certification engine ------------------------------------------

class _GammaStream:
    """Separation stream of one sequence: stream[s-1] = gamma_{s-1} (sep
    index s maps to sequence index s-1), read from the sequence only when
    asked for.  It stops one below the horizon, where the stabilization
    walk stops."""

    def __init__(self, seq: PseudoSequence):
        self._seq = seq

    def __len__(self) -> int:
        return self._seq.horizon - 1

    def __getitem__(self, i: int):
        return self._seq.gamma(i)


class _Plan:
    """What every attempt at a rewrite of g * multiplier over seqs shares,
    whatever the start indices: the shape fault (raised here), h, the
    mode, the stable betas and the gamma streams.  Attempt 0's indices,
    or the error their search raised, are kept per nus, for the attempt
    and for predict."""

    def __init__(self, kind: str, g: Poly, multiplier: Mapping[int, int],
                 seqs: Sequence[PseudoSequence], W: int):
        fault = _shape_fault(kind, g, multiplier, len(seqs))
        if fault:
            raise InputError(fault)
        self.kind, self.g, self.multiplier, self.seqs = kind, g, multiplier, list(seqs)
        self.h = _with_multiplier(g, multiplier)
        self.mode = _mode(kind, g)
        self.betas = _stable_betas(self.h, seqs, W)
        self.entries = [(k, {e: ke for e, ke in enumerate(k) if ke}, beta)
                        for k, (beta, _) in self.betas.items() if beta is not INF]
        self.streams = [_GammaStream(seq) for seq in seqs]
        self._first: Dict[Optional[tuple], object] = {}

    def starts(self, nus: Optional[Sequence[int]]) -> List[int]:
        """Attempt 0's least index per sequence: past nu and past the
        window start of every beta that reads the sequence."""
        out = []
        for e, nu in enumerate([0] * len(self.seqs) if nus is None else nus):
            starts = [start for k, (_, start) in self.betas.items() if k[e]]
            out.append(max([nu + 1] + starts))
        return out

    def indices(self, rhos: Sequence[int]) -> List[int]:
        """The recentring indices an attempt at least indices rhos takes."""
        if self.entries:
            return [j - 1 for j in separate_indices(self.entries, self.streams, rhos)]
        return list(rhos)

    def first_indices(self, nus: Optional[Sequence[int]]) -> List[int]:
        """Attempt 0's indices at nus, searched once: a search that failed
        raises its error again."""
        key = None if nus is None else tuple(nus)
        if key not in self._first:
            try:
                self._first[key] = self.indices(self.starts(nus))
            except ValcertError as exc:
                self._first[key] = exc
        found = self._first[key]
        if isinstance(found, ValcertError):
            raise found
        return found

    def predict(self, nus: Optional[Sequence[int]]):
        """The monomial attempt 0 at nus designates, when the nonconstant
        part of its value table, read without recentring, passes every
        claim; else None.  The Y^k coefficient has value beta_k + sum_e
        k_e * gamma_e(t_e).  In the min-linear plans steering asks, only the
        over-V claim reads the constant h(v_t), which meets it when h and
        v_t lie over V, so it is not read.  None also when a beta is INF or
        a read raises."""
        if len(self.entries) != len(self.betas):
            return None
        group = self.h.group
        try:
            t = self.first_indices(nus)
            gammas = [seq.gamma(i) for seq, i in zip(self.seqs, t)]
        except ValcertError:
            return None
        vals = {}
        for _, exps, beta in self.entries:
            mono = tuple((VarTag.stage(e, t[e]), ke) for e, ke in exps.items())
            for e, ke in exps.items():
                beta = group.add(beta, group.scale(gammas[e], ke))
            vals[mono] = beta
        c_mono, failure = _claims_hold(vals, self.mode, group)
        return None if failure else c_mono


def _certify(plan: _Plan, nus: Optional[Sequence[int]], R: int) -> RewriteCert:
    """The plan's rewrite at nus: attempt 0 at the plan's least indices,
    each retry past the indices of the one before."""
    rhos = plan.starts(nus)
    failure = "no attempt"
    for attempt in range(R):
        indices = plan.first_indices(nus) if attempt == 0 else plan.indices(rhos)
        G1 = recenter_at(plan.h, plan.seqs, indices)
        vals = {m: c.val() for m, c in G1.monos.items()}
        c_mono, failure = _claims_hold(vals, plan.mode, plan.h.group)
        if not failure:
            table = sorted(vals.items(), key=lambda kv: mono_key(kv[0]))
            return RewriteCert(plan.kind, plan.g.field, plan.g, plan.multiplier, plan.seqs,
                               indices, G1, c_mono, plan.mode,
                               _case(plan.kind, plan.multiplier, vals), table)
        rhos = [max(r, t + 1) + 1 for r, t in zip(rhos, indices)]
    raise UndecidedError(
        f"claims not reached after {R} attempts: {failure}")


def _with_multiplier(g: Poly, multiplier: Mapping[int, int]) -> Poly:
    """g * prod_e Y_e^k_e; an InputError past MAX_JSON_DEGREE, before any
    product is formed, since G1, the recentred product, would not load back."""
    degree = g.total_degree() + sum(multiplier.values())
    if degree > MAX_JSON_DEGREE:
        raise InputError(f"g * multiplier has total degree {degree}; a certificate "
                         f"holds none above {MAX_JSON_DEGREE}")
    for e, k in multiplier.items():
        g = g * (Poly.var(g.field, g.group, VarTag.orig(e)) ** k)
    return g


def _argmin(vals: Dict[tuple, object]):
    best = min(vals.values())
    candidates = [m for m, v in vals.items() if v == best]
    return min(candidates, key=mono_key)


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

class Plans:
    """The (kind, multiplier) steps op tries for one g, sequences and W,
    each step's plan made on first use.  The multilinear ops are their
    own kind.  Univariate and bivariate are min-linear: of kind _pfree in
    characteristic 0, with no multiplier; of kind _charp in
    characteristic p, one step per multiplier of _multipliers, which is
    one step for univariate.  A g that fits no multiplier raises its shape
    fault at the first step."""

    def __init__(self, op: str, g: Poly, seqs: Sequence[PseudoSequence],
                 W: int = DEFAULT_WINDOW):
        p = characteristic(g.field)
        if op in _MULTILINEAR_KINDS:
            self.steps = [(op, {})]
        elif op in _CASCADES and not p:
            self.steps = [(op + "_pfree", {})]
        elif op in _CASCADES:
            self.steps = [(op + "_charp", m) for m in _multipliers(op, g, p) or [{}]]
        else:
            raise InputError(f"unknown rewrite op {op!r}")
        self.cascade = op == "bivariate" and bool(p)
        self._args = (g, seqs, W)
        self._plans: List[_Plan] = []

    def __getitem__(self, i: int) -> _Plan:
        g, seqs, W = self._args
        while len(self._plans) <= i:
            kind, mult = self.steps[len(self._plans)]
            self._plans.append(_Plan(kind, g, mult, seqs, W))
        return self._plans[i]

    def certify(self, nus: Optional[Sequence[int]] = None,
                R: int = DEFAULT_RETRIES) -> RewriteCert:
        """The first step's rewrite at nus; in the bivariate
        characteristic-p cascade, the first step's that is decided."""
        if not self.cascade:
            return _certify(self[0], nus, R)
        last_failure: Optional[Exception] = None
        for i in range(len(self.steps)):
            try:
                return _certify(self[i], nus, R)
            except UndecidedError as exc:
                last_failure = exc
        raise UndecidedError(
            "no multiplier in the cascade reached the normal form: "
            + str(last_failure))


def rw(op: str, g: Poly, seqs: Sequence[PseudoSequence],
       nus: Optional[Sequence[int]] = None, W: int = DEFAULT_WINDOW,
       R: int = DEFAULT_RETRIES) -> RewriteCert:
    """The op's rewrite of g over seqs, nus the least stage index per
    sequence (0 by default).  op is one of

    - pair_square: content extraction for a multilinear g in two coupled
      elements (the second squares the first);
    - multilinear_mono: content extraction when every variable occurs in
      at most one monomial;
    - multilinear: a strictly least linear coefficient, or the content of
      a constant g;
    - univariate: the minimal-linear normal form of g in Y_0; in
      characteristic p, of g (case1) when it has an exponent prime to p,
      else of Y*g (case2);
    - bivariate: the minimal-linear normal form of g in Y_0, Y_1; in
      characteristic p, of g times 1, Y_0, Y_1 or Y_0*Y_1, the first
      product with an exponent prime to p that reaches it."""
    return Plans(op, g, seqs, W).certify(nus, R)
