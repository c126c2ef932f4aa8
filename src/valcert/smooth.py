"""Smooth-subalgebra presentations with unit-Jacobian certificates.

A presentation lists stage generators with their series images, a set of
polynomial relations vanishing on those images (residual val > delta),
and a distinguished base generator such that the Jacobian minor in the
remaining generators is a unit.  Constructions emit certificates with
membership witnesses (polynomial expressions, optionally over a unit
denominator) for every element they claim to contain; sm_verify
re-derives the targets from the problem data and re-checks everything.

Each kind has one build path, which assembles one certificate and
verifies it once; a family is built in one attempt.  Each family link's
rewrite is steered onto the earlier variable by raising the later
variable's start index, and a start index whose rewrite the stable
coefficient values predict to land on the later variable is skipped
unbuilt (_steer).  A fraction f1/f2 is the family {f1, f2} plus one
witness, y1 * (d1/d2) over y2.  sm_verify also checks the shape of the
certificate's kind, a pair's branch and its case2 echo (_check_shape).
Every f(y0)/d below a cap, in a build or a witness target, comes from
_f_over_d, which reads y0 below cap + val d; the f1/f2 target is
(d1*y1)/(d2*y2) from the members y1 and y2 below the cap.

The verifier first checks that the data lies over V: every generator
image, relation coefficient, witness coefficient and problem series has
a value >= 0, and delta > 0.  Then it reads each value only below the
window its verdict needs: relations and witnesses below a cap C with
delta < C <= 2*delta, inexact images, coefficients and the pseudo-limit
truncated at C first.  Over V a capped value is known at least as far
as min(C, the uncapped value's window), so each check runs once and
decides as it would on the full values.  The Jacobian minor is a unit
exactly when its residue is nonzero, so it is decided by Gaussian
elimination over the residue field (_check_minor).  The claims are
decided in one order: data over V and delta > 0, relations, then the
minor (sm_check), the problem echo decoded once (_Problem), witness and
problem data over V, the delta floor 2*gamma of every stage generator
(_check_floor; builders certify at it unless asked for more), then
witnesses, shape and the link rewrites, each over the members its link
joins, derived from the problem echo as the floor and witnesses computed
them (_check_link).
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (HorizonError, IndeterminateValError, InputError,
                     NotStabilizedError, UndecidedError, VerificationError,
                     require_int)
from .fields import Field, field_from_json, field_to_json
from .group import ValueGroup, element_from_json, group_of
from .pcs import DerivedSequence, PseudoSequence, TableSequence, sequence_from_json
from .poly import Poly, Powers, VarTag, sylvester_resultant
from .rewrite import (DEFAULT_RETRIES, DEFAULT_WINDOW, Plans, RewriteCert, rw,
                      taylor_recenter)
from .series import ValuedSeries


# -- presentation and certificate data ---------------------------------

class SmoothPresentation:
    def __init__(self, field: Field, group: ValueGroup,
                 generators: Sequence[Tuple[VarTag, ValuedSeries]],
                 relations: Sequence[Poly], base: int):
        self.field = field
        self.group = group
        self.generators = list(generators)
        self.relations = list(relations)
        self.base = base
        if not (0 <= base < len(self.generators)):
            raise InputError("base index out of range")
        if len(self.relations) != len(self.generators) - 1:
            raise InputError("need exactly (generators - 1) relations")

    def assignment(self, cap) -> Dict[VarTag, ValuedSeries]:
        return {tag: _cap(img, cap) for tag, img in self.generators}

    def to_json(self):
        return {
            "generators": [[tag.to_json(), img.to_json()] for tag, img in self.generators],
            "relations": [r.to_json() for r in self.relations],
            "base": self.base,
        }

    @staticmethod
    def from_json(obj, field: Field, group: ValueGroup) -> "SmoothPresentation":
        gens = [(VarTag.from_json(t), ValuedSeries.from_json(s, field, group))
                for t, s in obj["generators"]]
        rels = [Poly.from_json(r, field, group) for r in obj["relations"]]
        return SmoothPresentation(field, group, gens, rels, require_int(obj["base"], "base"))


def _cap(s: ValuedSeries, cap) -> ValuedSeries:
    """s truncated at cap; exact series are kept, so that a capped value is
    exact, and then equal to the uncapped one, exactly when that one is."""
    return s if s.exact else s.truncate(cap)


def _capped(poly: Poly, cap) -> Poly:
    return poly.map_coeffs(lambda c: _cap(c, cap))


def _verify_cap(pres: SmoothPresentation, delta):
    """The cap C of the relation and witness checks at delta: the least
    image exponent or truncation above delta, at most 2*delta, below which
    the images keep exactly their terms at or below delta."""
    bounds = [pres.group.scale(delta, 2)]
    for _, img in pres.generators:
        bounds += [e for e, _ in img.nums if e > delta]
        if not img.exact and img.trunc > delta:
            bounds.append(img.trunc)
    return min(bounds)


def _check_over_V(group: ValueGroup, named) -> None:
    """Every named series, and every coefficient of a named polynomial,
    has a value >= 0: the data lies over V."""
    for name, data in named:
        for s in data.monos.values() if isinstance(data, Poly) else [data]:
            if s.val_lower() < group.zero():
                raise VerificationError(
                    "in-V", f"{name} has val {group.to_json(s.val_lower())} below 0")


def _check_relation(pres: SmoothPresentation, i: int, delta, cap) -> None:
    residual = _capped(pres.relations[i], cap).eval_series(pres.assignment(cap))
    try:
        small = residual.is_small(delta)
    except IndeterminateValError as exc:
        raise VerificationError(f"relation-{i}", str(exc))
    if not small:
        raise VerificationError(
            f"relation-{i}",
            f"residual val {pres.group.to_json(residual.val_lower())} "
            f"not past {pres.group.to_json(delta)}")


def _residue(s: ValuedSeries) -> ValuedSeries:
    """The term of s at exponent 0 as an exact constant, or s itself, known
    nowhere, when its window does not pass 0: over V, the reduction to the
    residue field, in which a product with an exact zero is exact."""
    zero = s.group.zero()
    if not s.trunc > zero:
        return s
    return ValuedSeries(s.field, s.group, [s.leading()] if s.val_lower() == zero else [])


def _check_minor(pres: SmoothPresentation) -> None:
    """The Jacobian minor without the base column is a unit of V: over V,
    reduction is a ring map, so it is one exactly when the minor of the
    residues is nonzero, which Gaussian elimination decides with a known
    nonzero pivot per column (named by its generator)."""
    powers = Powers({tag: _residue(img) for tag, img in pres.generators})
    cols = [i for i in range(len(pres.generators)) if i != pres.base]
    rows = [[rel.hasse_derivative({pres.generators[i][0]: 1}).eval_series(powers) for i in cols]
            for rel in (r.map_coeffs(_residue) for r in pres.relations)]
    for k, i in enumerate(cols):
        p = next((r for r, row in enumerate(rows) if row[k].exact and row[k].nums), None)
        if p is None:
            why = "0, not a unit" if all(row[k].exact for row in rows) else "not known at exponent 0"
            raise VerificationError("jacobian-minor", f"column {i}: the minor's residue is {why}")
        pivot = rows.pop(p)
        for row in rows:
            factor = row[k].div(pivot[k])
            for m in range(k + 1, len(cols)):
                row[m] = row[m] - factor * pivot[m]


def sm_check(pres: SmoothPresentation, delta) -> None:
    """Verify the two presentation invariants; raises VerificationError,
    also for data outside V, a delta <= 0, or when the presentation's own
    data cannot decide one of them."""
    group = pres.group
    _check_over_V(group, [(f"generator {i} image", img)
                          for i, (_, img) in enumerate(pres.generators)]
                  + [(f"relation {i}", rel)
                     for i, rel in enumerate(pres.relations)])
    if not delta > group.zero():
        raise VerificationError("delta", f"delta {group.to_json(delta)} is not positive")
    cap = _verify_cap(pres, delta)
    for i in range(len(pres.relations)):
        _check_relation(pres, i, delta, cap)
    _check_minor(pres)


class Witness:
    """Membership claim: target element equals num/den over the generators."""

    def __init__(self, name: str, kind: str, e: int, num: Poly, den: Optional[Poly]):
        self.name = name
        self.kind = kind  # y0 | ye | z | fraction
        self.e = e
        self.num = num
        self.den = den

    def to_json(self):
        return {"name": self.name, "kind": self.kind, "e": self.e,
                "num": self.num.to_json(),
                "den": self.den.to_json() if self.den is not None else None}

    @staticmethod
    def from_json(obj, field: Field, group: ValueGroup) -> "Witness":
        den = obj.get("den")
        return Witness(obj["name"], obj["kind"], require_int(obj.get("e", 0), "witness e"),
                       Poly.from_json(obj["num"], field, group),
                       Poly.from_json(den, field, group) if den is not None else None)


class SmoothCert:
    """A presentation, its witnesses and one rewrite per chain link.

    An embedded rewrite carries its claim fields only: sm_verify
    recomputes its G1 over its link's members, and compares the
    sequences, G1 or value table an older certificate embeds."""

    def __init__(self, kind: str, field: Field, problem: dict,
                 pres: SmoothPresentation, witnesses: Sequence[Witness],
                 rewrites: Sequence[RewriteCert], delta,
                 branch: str = ""):
        self.kind = kind
        self.field = field
        self.problem = problem  # JSON-ready problem echo
        self.pres = pres
        self.witnesses = list(witnesses)
        self.rewrites = list(rewrites)
        self.delta = delta
        self.branch = branch

    def to_json(self):
        out = {
            "cert": "smooth",
            "kind": self.kind,
            "problem": self.problem,
            "witnesses": [w.to_json() for w in self.witnesses],
            "rewrites": [c.claims_json() for c in self.rewrites],
            "delta": self.pres.group.to_json(self.delta),
            "branch": self.branch,
        }
        out.update(self.pres.to_json())
        out.update(field_to_json(self.field))
        return out

    @staticmethod
    def from_json(obj) -> "SmoothCert":
        if obj.get("cert") != "smooth":
            raise InputError("not a smooth certificate")
        field = field_from_json(obj)
        delta = element_from_json(obj["delta"])
        pres = SmoothPresentation.from_json(obj, field, group_of(delta))
        wits = [Witness.from_json(w, field, pres.group) for w in obj["witnesses"]]
        rewrites = [RewriteCert.from_json(c, pres.group) for c in obj.get("rewrites", [])]
        return SmoothCert(obj["kind"], field, obj["problem"], pres, wits,
                          rewrites, delta, obj.get("branch", ""))


# -- shared helpers ----------------------------------------------------

def _f_over_d(f: Poly, d: ValuedSeries, limit: Callable, cap) -> ValuedSeries:
    """f(y0)/d known below cap.  Over V that needs f(y0), so y0, only below
    cap + val d; y0 is read there from limit(depth), which must know it
    below depth.  An exact-zero d raises ZeroDivisionError."""
    if d.is_zero_exact():
        raise ZeroDivisionError("series division by exact zero")
    y0 = limit(d.group.add(cap, d.val()))
    return f.eval_series({VarTag.orig(0): y0}).div_to(d, cap)


def _canonical_d(f: Poly, seq: PseudoSequence) -> ValuedSeries:
    """d = (leading coefficient) * t^val(f(y0)), so f(y0)/d has lead term 1
    and val d = val f(y0).  f(y0) is evaluated from seq.gamma(4) on, the
    window doubling while f(y0) cancels below it."""
    delta = seq.gamma(4)
    for _ in range(64):
        fv = f.eval_series({VarTag.orig(0): seq.limit(delta)})
        try:
            fv.val()
            return ValuedSeries(seq.field, seq.group, [fv.leading()])
        except IndeterminateValError:
            delta = seq.group.scale(delta, 2)
    raise HorizonError("val(f(y0)) cancels below every tried truncation")


def _derived_unit_sequence(f: Poly, d: ValuedSeries, seq0: PseudoSequence) -> DerivedSequence:
    """Partial-sum pseudo-sequence of the unit y = f(y0)/d."""
    return DerivedSequence(seq0.field, lambda delta: _f_over_d(f, d, seq0.limit, delta),
                           seq0.gamma(4), horizon=seq0.horizon)


def _stage_poly(seq: PseudoSequence, e: int, t: int) -> Poly:
    """y_e as a polynomial in its stage generator: v_{t} + s_{t} * Y_{e,t}."""
    return (Poly.const(seq.term(t))
            + Poly.var(seq.field, seq.group, VarTag.stage(e, t)).scale(seq.scale(t)))


def _delta(group: ValueGroup, gamma_max, delta):
    """The delta a build certifies at: the requested one, which must be
    positive and at least the verifier's floor 2*gamma_max, or the floor."""
    floor = group.scale(gamma_max, 2)
    if delta is None:
        return floor
    if not (delta > group.zero() and not delta < floor):
        raise InputError(
            f"delta {group.to_json(delta)} must be positive and at least "
            f"{group.to_json(floor)}, twice the largest stage gamma")
    return delta


def _designates_earlier(c_mono) -> bool:
    """True when a rewrite's designated monomial is the earlier pair variable."""
    return len(c_mono) == 1 and c_mono[0][1] == 1 and c_mono[0][0].e == 0


# -- Lemma-1 pair construction -----------------------------------------

def sm_pair(f: Poly, seq0: PseudoSequence, d: Optional[ValuedSeries] = None,
            nu: int = 0, W: int = DEFAULT_WINDOW, R: int = DEFAULT_RETRIES,
            delta=None) -> SmoothCert:
    """Smooth subalgebra containing y (pseudo-limit of seq0) and z = f(y)/d.

    z = h/d, h the rewrite's G1 in y_{0,t} (f itself when constant).  The
    last generator is the base: with Z adjoined, the minor is h'(y_{0,t})/c,
    a unit by the min-linear normal form."""
    if f.is_zero():
        raise InputError("f must be nonzero")
    tag0 = VarTag.orig(0)
    if any(v != tag0 for v in f.variables()):
        raise InputError("f must be univariate in Y_0")
    field, group = f.field, seq0.group
    lead = _canonical_d(f, seq0)
    if d is None:
        d = lead
    if d.val() != lead.val():
        raise InputError(
            f"val(f(y)) = {lead.val()!r} differs from val(d) = {d.val()!r}; "
            "z would not be a unit")
    problem = {"f": f.to_json(), "d": d.to_json(), "seq0": seq0.to_json()}

    if f.total_degree() < 1:
        # Constant f: z is a scalar unit; the algebra is V[y_{0,t}].
        rewrites, h, case2, t = [], f, False, nu + 1
    else:
        rcert = rw("univariate", f, [seq0], nus=[nu], W=W, R=R)
        case2 = bool(rcert.multiplier)
        if case2 and seq0.gamma(0) != group.zero():
            raise InputError(
                "the rewrite multiplied by Y, so dividing back out needs the "
                "pseudo-limit to be a unit (first exponent 0); this sequence "
                f"starts at val {group.to_json(seq0.gamma(0))}")
        rewrites, h, t = [rcert], rcert.G1, rcert.indices[0]
        rcert.seqs = []  # embedded, it carries no sequences, as in its JSON
        problem["case2"] = case2
    dlt = _delta(group, seq0.gamma(t), delta)
    deltaw = group.scale(dlt, 2)
    gens = [(VarTag.stage(0, t), seq0.stage(t, deltaw))]
    ypoly = _stage_poly(seq0, 0, t)
    rels = []
    if not rewrites or not rcert.c.val() < d.val():
        # f constant, or d | c: z (y*z in case2) is a polynomial in the stage
        # generator.  Every case2 pair is here: f' = 0 gives c = f(v_t)*s_t, and
        # val f(v_t) = val f(y0) = val d, so val c = val d + gamma_t.
        znum = h.map_coeffs(lambda co: co.div_to(d, deltaw))
        branch = "d-divides-c" if rewrites else "constant"
    else:
        # c | d: adjoin Z with relation (h - d*Z)/c, where Z carries z.  y0 is
        # read below deltaw + val d, which covers any z check at a cap <= deltaw.
        ztag = VarTag.dup(0, "z")
        zval = _f_over_d(f, d, seq0.limit, deltaw)
        gens.append((ztag, zval))
        rel = h - Poly.var(field, group, ztag).scale(d)
        rels.append(rel.map_coeffs(lambda co: co.div_to(rcert.c, deltaw)))
        znum, branch = Poly.var(field, group, ztag), "c-divides-d"
    wits = [Witness("y", "y0", 0, ypoly, None),
            Witness("z", "z", 0, znum, ypoly if case2 else None)]
    pres = SmoothPresentation(field, group, gens, rels, len(gens) - 1)
    cert = SmoothCert("pair", field, problem, pres, wits, rewrites, dlt, branch)
    sm_verify(cert)
    return cert


# -- Family construction (the key induction) ---------------------------

def _proportional_factor(f1: Poly, f2: Poly):
    """If f2 and f1 are proportional, return (c1, c2) with c1*f2 == c2*f1."""
    if not f1.monos or set(f1.monos) != set(f2.monos):
        return None
    m0 = min(f1.monos, key=str)
    c1, c2 = f1.monos[m0], f2.monos[m0]
    for m in f1.monos:
        lhs = f1.monos[m] * c2
        rhs = f2.monos[m] * c1
        if not (lhs - rhs).is_zero_exact():
            return None
    return c1, c2


def _chain_relation_poly(f_prev: Poly, d_prev: ValuedSeries, f_cur: Poly,
                         d_cur: ValuedSeries, first: bool) -> Poly:
    """Bivariate relation g(A, B) with g(y_prev, y_cur) = 0 exactly,
    A = Orig(0) (previous element), B = Orig(1) (current element)."""
    field, group = f_cur.field, f_cur.group
    A, B, Yelim = VarTag.orig(0), VarTag.orig(1), VarTag.orig(2)

    def var(tag):
        return Poly.var(field, group, tag)

    if first:
        # Previous element is y0 itself: g = f_cur(A) - d_cur * B.
        return _clear_content(f_cur - var(B).scale(d_cur))
    # Affine dependence: when the nonconstant parts of f_prev and f_cur
    # are proportional, the resultant degenerates to a power of the true
    # linear relation, so emit that relation directly (cross-multiplied,
    # no division).
    k1 = f_prev.constant_term()
    k2 = f_cur.constant_term()
    prop = _proportional_factor(f_prev - Poly.const(k1), f_cur - Poly.const(k2))
    if prop is not None:
        c1, c2 = prop  # c1 * (f_cur - k2) == c2 * (f_prev - k1)
        g = (var(B).scale(c1 * d_cur)
             - var(A).scale(c2 * d_prev)
             - Poly.const(c1 * k2 - c2 * k1))
        return _clear_content(g)
    p1 = f_prev.rename({VarTag.orig(0): Yelim}) - var(A).scale(d_prev)
    p2 = f_cur.rename({VarTag.orig(0): Yelim}) - var(B).scale(d_cur)
    g = sylvester_resultant(p1, p2, Yelim)
    if g.is_zero():
        raise NotStabilizedError(
            "resultant vanished for a non-proportional pair; cannot "
            "derive a chain relation")
    return _clear_content(g)


def _clear_content(g: Poly) -> Poly:
    vmin = min(c.val() for c in g.monos.values())
    return g.map_coeffs(lambda co: co.shift(g.group.neg(vmin)))


def sm_family(fs: Sequence[Poly], seq0: PseudoSequence,
              delta=None, W: int = DEFAULT_WINDOW,
              R: int = DEFAULT_RETRIES) -> SmoothCert:
    """Smooth subalgebra containing y0 and every y_e = f_e(y0)/d_e."""
    return _chain("family", fs, seq0, delta, W, R)


def sm_fraction(f1: Poly, f2: Poly, seq0: PseudoSequence,
                delta=None, W: int = DEFAULT_WINDOW,
                R: int = DEFAULT_RETRIES) -> SmoothCert:
    """The family {f1, f2} with one witness more, f1(y0)/f2(y0) as
    (d1/d2) * y1 * y2^{-1}, built and verified as one certificate."""
    return _chain("fraction", [f1, f2], seq0, delta, W, R)


def _chain(kind: str, fs: Sequence[Poly], seq0: PseudoSequence,
           delta, W: int, R: int) -> SmoothCert:
    """The family induction over fs, for a family or fraction certificate:
    one steered rewrite per chain link, then one certificate, verified once."""
    if not fs:
        raise InputError("empty polynomial family")
    for f in fs:
        if f.is_zero():
            raise InputError("family polynomials must be nonzero")
        if any(v != VarTag.orig(0) for v in f.variables()):
            raise InputError("family polynomials must be univariate in Y_0")
    if len(fs) == 1:
        return sm_pair(fs[0], seq0, delta=delta, W=W, R=R)
    field = fs[0].field
    for f in fs:
        f.field.check_same(field)
        f.group.check_same(seq0.group)
    if any(f.total_degree() < 1 for f in fs):
        raise InputError("family members must be nonconstant "
                         "(constant members are units already in V)")

    ds = [_canonical_d(f, seq0) for f in fs]
    if kind == "fraction" and ds[0].val() < ds[1].val():
        raise InputError(
            f"val(f1(y0)) = {ds[0].val()!r} < val(f2(y0)) = {ds[1].val()!r}; "
            "the fraction lies outside V'")
    seqs = [seq0] + [_derived_unit_sequence(f, d, seq0) for f, d in zip(fs, ds)]
    n = len(fs)
    cur = [0] * (n + 1)  # current stage index per element (0 = y0)
    rels_raw: List[Poly] = []
    rewrites: List[RewriteCert] = []
    try:
        for e in range(1, n + 1):
            g = _chain_relation_poly(fs[e - 2] if e >= 2 else None,
                                     ds[e - 2] if e >= 2 else None,
                                     fs[e - 1], ds[e - 1], first=(e == 1))
            rcert = _steer(g, [seqs[e - 1], seqs[e]], cur[e - 1], W, R)
            a, b = rcert.indices
            rel = rcert.G1.rename({VarTag.stage(0, a): VarTag.stage(e - 1, a),
                                   VarTag.stage(1, b): VarTag.stage(e, b)})
            if e >= 2:
                # Restage the previous relation from the old index of y_{e-1}:
                # taylor_recenter puts y_{e-1,old} = d + b*y_{e-1,a} into it.
                old = VarTag.stage(e - 1, cur[e - 1])
                dd, bb = seqs[e - 1].restage_coeffs(cur[e - 1], a)
                rels_raw[e - 2] = taylor_recenter(rels_raw[e - 2], {old: dd}, {old: bb},
                                                  {old: VarTag.stage(e - 1, a)})
            cur[e - 1], cur[e] = a, b
            rels_raw.append(rel)
            rcert.seqs = []  # embedded, it carries no sequences, as in its JSON
            rewrites.append(rcert)

        group = seq0.group
        gamma_max = max(seqs[e].gamma(cur[e]) for e in range(n + 1))
        dlt = _delta(group, gamma_max, delta)
        deltaw = group.scale(dlt, 2)
        # Divide each relation by its designated coefficient (every other
        # coefficient has strictly larger value, so the quotients stay in V
        # and the earlier-variable Jacobian entry becomes a unit).  With the
        # last generator as base, the minor is lower triangular with these
        # units on the diagonal.
        rels = [rel.map_coeffs(lambda co, c0=rc.c: co.div_to(c0, deltaw))
                for rel, rc in zip(rels_raw, rewrites)]
        gens = [(VarTag.stage(e, cur[e]), seqs[e].stage(cur[e], deltaw))
                for e in range(n + 1)]
        wits = [Witness(f"y{e}", "ye" if e else "y0", e, _stage_poly(seqs[e], e, cur[e]), None)
                for e in range(n + 1)]
        if kind == "fraction":
            # f1/f2 = (d1/d2) * y1 / y2; d1/d2 is an exact monomial of val >= 0.
            wits.append(Witness("f1/f2", "fraction", 0,
                                wits[1].num.scale(ds[0].div(ds[1])), wits[2].num))
        pres = SmoothPresentation(field, group, gens, rels, n)
        problem = {"fs": [f.to_json() for f in fs],
                   "ds": [d.to_json() for d in ds],
                   "seq0": seq0.to_json()}
        cert = SmoothCert(kind, field, problem, pres, wits, rewrites, dlt)
        sm_verify(cert)
        return cert
    except (NotStabilizedError, UndecidedError, VerificationError) as exc:
        raise NotStabilizedError(f"family construction failed: {exc}")


def _steer(g: Poly, pair: Sequence[PseudoSequence], nu: int, W: int, R: int) -> RewriteCert:
    """The link rewrite of g over the pair that designates the earlier
    variable, the earlier one starting past index nu.

    Earlier-side designation is what makes the chain Jacobian triangular
    with unit diagonal (and it survives restaging, which only raises
    later-side values).  Raising the later variable's start index raises
    that side's coefficient values without bound, so the minimal
    coefficient eventually lands on the earlier side.  A start index
    whose attempt 0 the cascade's first plan predicts to pass and to
    designate the later variable is skipped unbuilt; every other one is
    built and its certificate checked."""
    plans = Plans("bivariate", g, pair, W)
    for bump in range(8):
        nus = (nu, 3 * bump)
        predicted = plans[0].predict(nus)
        if predicted is not None and not _designates_earlier(predicted):
            continue
        try:
            cand = plans.certify(nus, R)
        except UndecidedError:
            continue
        if _designates_earlier(cand.c_mono):
            return cand
    raise NotStabilizedError("could not steer the rewrite onto the earlier chain variable")


# -- Independent verification ------------------------------------------

class _Problem:
    """A certificate's problem echo, decoded once per verification, and
    the witness targets it defines.  A quotient f(y0)/d known below C
    reads y0 below C + val d, and y0 itself is read below C."""

    def __init__(self, cert: SmoothCert):
        field, group, echo = cert.field, cert.pres.group, cert.problem
        self.seq0 = sequence_from_json(echo["seq0"])
        self.f = Poly.from_json(echo["f"], field, group) if "f" in echo else None
        self.d = ValuedSeries.from_json(echo["d"], field, group) if "d" in echo else None
        self.fs = [Poly.from_json(f, field, group) for f in echo.get("fs", [])]
        self.ds = [ValuedSeries.from_json(d, field, group) for d in echo.get("ds", [])]
        self._memo: dict = {}

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def named(self):
        """(name, polynomial or series) of each f, d, fs[k] and ds[k] it echoes."""
        out = [(f"problem {key}", data) for key, data in (("f", self.f), ("d", self.d))
               if data is not None]
        for key, items in (("fs", self.fs), ("ds", self.ds)):
            out += [(f"problem {key}[{k}]", data) for k, data in enumerate(items)]
        return out

    def limit(self, delta) -> ValuedSeries:
        return self._once(("limit", delta), lambda: self.seq0.limit(delta))

    def member(self, e: int, cap) -> Optional[ValuedSeries]:
        """y_e = f_e(y0)/d_e below cap, computed once; None when e names no
        problem member."""
        if not 1 <= e <= min(len(self.fs), len(self.ds)):
            return None
        return self._once(("member", e, cap), lambda: _f_over_d(
            self.fs[e - 1], self.ds[e - 1], self.limit, cap))

    def sequence(self, e: int, cap) -> PseudoSequence:
        """Chain element e: seq0, or the table of member e's terms below cap."""
        if e == 0:
            return self.seq0
        member = self.member(e, cap)
        return TableSequence(member.field, member.terms)

    def _member(self, w: Witness, e: int, cap) -> ValuedSeries:
        member = self.member(e, cap)
        if member is None:
            raise VerificationError(
                f"witness-{w.name}", f"index e={e} names no problem member")
        return member

    def target(self, w: Witness, cap) -> ValuedSeries:
        """The element w claims, known below cap."""
        if w.kind == "y0":
            return self.limit(cap)
        if w.kind == "z":
            if self.f is None or self.d is None:
                raise InputError("a z witness needs the problem's f and d")
            return _f_over_d(self.f, self.d, self.limit, cap)
        if w.kind == "ye":
            return self._member(w, w.e, cap)
        if w.kind == "fraction":
            # f1/f2 = (d1*y1)/(d2*y2), exact for nonzero d1, d2
            y1, y2 = self._member(w, 1, cap), self._member(w, 2, cap)
            return (self.ds[0] * y1).div_to(self.ds[1] * y2, cap)
        raise InputError(f"unknown witness kind {w.kind!r}")


def _check_witness(w: Witness, pres: SmoothPresentation, problem: _Problem,
                   delta, cap) -> None:
    assignment = pres.assignment(cap)
    value = _capped(w.num, cap).eval_series(assignment)
    try:
        if w.den is not None:
            den_val = _capped(w.den, cap).eval_series(assignment)
            # a value above 0, even one known only as a truncation, is no unit
            if den_val.val_lower() > pres.group.zero() or not den_val.is_unit():
                raise VerificationError(
                    f"witness-{w.name}", "denominator is not a unit")
            value = value.div(den_val)
        diff = value - problem.target(w, cap)
        small = diff.is_small(delta)
    except (HorizonError, IndeterminateValError, ZeroDivisionError) as exc:
        # an unreadable value, a target over an exact-zero denominator, or
        # a pseudo-limit past the end of the echoed seq0
        raise VerificationError(f"witness-{w.name}", str(exc))
    if not small:
        raise VerificationError(
            f"witness-{w.name}",
            f"expression differs from target at val {pres.group.to_json(diff.val_lower())}")


def _check_floor(cert: SmoothCert, problem: _Problem, delta, cap) -> None:
    """delta >= 2*gamma for every stage generator Y_{e,j}: gamma_j of seq0
    for e = 0, else the exponent of term j of y_e = f_e(y0)/d_e below cap,
    the member the y_e witness check then reuses as its target."""
    group = cert.pres.group
    for i, (tag, _) in enumerate(cert.pres.generators):
        if tag.kind != "stage":
            continue
        e, j = tag.e, tag.extra
        try:
            if e == 0:
                gamma = problem.seq0.gamma(j)
            else:
                member = problem.member(e, cap)
                if member is None:
                    raise VerificationError("delta", f"generator {i} names no problem member")
                # a term j at or past the cap has gamma > delta
                gamma = member.nums[j][0] if 0 <= j < len(member.nums) else cap
        except (HorizonError, IndeterminateValError, ZeroDivisionError) as exc:
            raise VerificationError("delta", f"generator {i}: {exc}")
        if delta < group.scale(gamma, 2):
            raise VerificationError(
                "delta", f"delta {group.to_json(delta)} is below twice the "
                f"gamma of generator {i}")


def _pair_branch(links: int, tags) -> str:
    """The sm_pair branch a pair presentation has: constant f (no rewrite,
    one generator), d | c (one generator) or c | d (a Z generator)."""
    if [tag[:2] for tag in tags[:1]] == [("stage", 0)]:
        if len(tags) == 1:
            return "d-divides-c" if links else "constant"
        if tags[1:] == [VarTag.dup(0, "z")] and links:
            return "c-divides-d"
    return "none"


def _check_shape(cert: SmoothCert, problem: _Problem) -> None:
    """The shape cert.kind defines: its problem echo, the witnesses it
    claims, one rewrite per chain link at the stage indices of the
    generators the link joins, each link's second index below the next
    link's first, and a pair's branch (see the README)."""
    kind, echo = cert.kind, cert.problem
    n = len(echo["fs"]) if "fs" in echo else 0
    # (rewrite, index, generator): the rewrite's index is the generator's stage
    if kind == "pair" and "f" in echo:
        required = {("y0", 0), ("z", 0)}
        links = 0 if problem.f.total_degree() < 1 else 1
        sites = [(0, 0, 0)] * links
    elif kind == "family" and n >= 1 or kind == "fraction" and n == 2:
        required = {("y0", 0)} | {("ye", e) for e in range(1, n + 1)}
        if kind == "fraction":
            required.add(("fraction", 0))
        links = n
        sites = [(e, 0, e) for e in range(n)] + [(n - 1, 1, n)]
    else:
        raise VerificationError("kind", f"kind {kind!r} does not fit the problem echo")
    present = {(w.kind, w.e if w.kind == "ye" else 0) for w in cert.witnesses}
    if not required <= present:
        raise VerificationError("witnesses", f"missing {sorted(required - present)}")
    if len(cert.rewrites) != links:
        raise VerificationError(
            "rewrites", f"{len(cert.rewrites)} rewrites for {links} chain links")
    tags = [tag for tag, _ in cert.pres.generators]
    for i, k, e in sites:
        indices = cert.rewrites[i].indices
        if not (k < len(indices) and e < len(tags) and tags[e] == VarTag.stage(e, indices[k])):
            raise VerificationError(
                f"rewrite-{i}", f"indices {indices} miss the stage index of generator {e}")
    for i in range(links - 1):
        # the builder restages y_(i+1) from link i's index up to link i + 1's
        second, first = cert.rewrites[i].indices[1:2], cert.rewrites[i + 1].indices[0]
        if second and not second[0] < first:
            raise VerificationError(f"rewrite-{i}", f"second index {second[0]} is not "
                                    f"below link {i + 1}'s first, {first}")
    branch = _pair_branch(links, tags) if kind == "pair" else ""
    if cert.branch != branch:
        raise VerificationError(
            "branch", f"branch {cert.branch!r}, but the presentation has branch {branch!r}")
    # a pair with a rewrite echoes case2: whether the rewrite multiplied by Y
    if kind == "pair":
        case2 = bool(cert.rewrites[0].multiplier) if links else None
        if ("case2" in echo) != bool(links) or links and echo["case2"] is not case2:
            raise VerificationError(
                "case2", f"case2 is {echo.get('case2', 'absent')!r}, but the "
                f"pair's rewrite gives {'no case2' if case2 is None else case2}")


def _check_link(cert: SmoothCert, i: int, problem: _Problem, cap) -> None:
    """Link i's rewrite over the elements it joins, 0 for a pair, else y_i
    and y_(i+1).  Before any recentring, g is bounded by the problem: a
    pair's g is f, and link i's degrees in Y_0 and Y_1 are at most the
    resultant's, deg f_(i+1) = deg fs[i] and deg f_i (1 for i = 0)."""
    rc, pair = cert.rewrites[i], cert.kind == "pair"
    if pair and not rc.g.same_known(problem.f):
        raise VerificationError("g", "g is not the problem's f")
    bounds = [] if pair else [problem.fs[i].total_degree(),
                              problem.fs[i - 1].total_degree() if i else 1]
    for e, bound in enumerate(bounds):
        if rc.g.degree_in(VarTag.orig(e)) > bound:
            raise VerificationError("g", f"degree {rc.g.degree_in(VarTag.orig(e))} in "
                                    f"Y_{e} passes the link's bound {bound}")
    rc.verify([problem.sequence(e, cap) for e in ([0] if pair else [i, i + 1])])


def sm_verify(cert: SmoothCert, delta=None) -> None:
    """Re-check presentation invariants, the delta floor, membership
    witnesses, the shape of the certificate's kind and the link rewrites,
    in the module's order; raises VerificationError at the first failure."""
    group = cert.pres.group
    dlt = cert.delta if delta is None else delta
    sm_check(cert.pres, dlt)
    problem = _Problem(cert)
    _check_over_V(group, [(f"witness {w.name} {part}", poly) for w in cert.witnesses
                          for part, poly in (("num", w.num), ("den", w.den))
                          if poly is not None] + problem.named())
    cap = _verify_cap(cert.pres, dlt)
    _check_floor(cert, problem, dlt, cap)
    for w in cert.witnesses:
        _check_witness(w, cert.pres, problem, dlt, cap)
    _check_shape(cert, problem)
    for i in range(len(cert.rewrites)):
        try:
            _check_link(cert, i, problem, cap)
        except VerificationError as exc:
            raise VerificationError(f"rewrite-{i}", str(exc))
