"""Reference implementations the tests compare the package against.

Each computes its result a second, independent way: series sums, negation,
scalar multiples, truncation and long division term by term on field
scalars (Fractions over Q, residues over F_p), where the package computes
on integer numerators over one denominator; series powers by repeated
squaring (series_pow); Taylor recentring as the sum of Hasse derivatives
and by substituting one variable at a time (subs_poly; the package
recentres and restages only in Hasse form, through taylor_recenter), the
stable values of the Hasse derivatives by one scan per derivative, the
ordinary partial derivative monomial by monomial, the smooth
presentation checks on the full, uncapped values, a series' JSON
through one Fraction (or residue) per coefficient, and the family
steering loop that builds a link rewrite at every start index it tries.
"""
import itertools
from fractions import Fraction

from valcert.errors import (HorizonError, IndeterminateValError, InputError,
                            NotStabilizedError, UndecidedError, VerificationError)
from valcert.fields import characteristic
from valcert.group import INF
from valcert.pcs import TableSequence, sequence_from_json
from valcert.poly import Poly, VarTag, _mono_mul, det
from valcert.rewrite import rw
from valcert.series import ValuedSeries


class Scalars:
    """Arithmetic on single field scalars: Fractions over Q, residues
    mod p over F_p."""

    def __init__(self, field):
        self.p = characteristic(field)

    def norm(self, a):
        return a % self.p if self.p else Fraction(a)

    def add(self, a, b):
        return self.norm(a + b)

    def sub(self, a, b):
        return self.norm(a - b)

    def mul(self, a, b):
        return self.norm(a * b)

    def div(self, a, b):
        if self.p:
            return a * pow(b, -1, self.p) % self.p
        return Fraction(a) / b

    def is_zero(self, a):
        return self.norm(a) == 0


def from_int(field, n):
    """The integer n as a field scalar."""
    return Scalars(field).norm(n)


def known(field, pairs, trunc):
    """(terms, trunc) of the series with these (exponent, scalar) pairs:
    merged per exponent, zeros and terms at or past trunc dropped, sorted."""
    ops = Scalars(field)
    acc = {}
    for e, c in pairs:
        acc[e] = ops.add(acc.get(e, 0), c)
    return tuple(sorted((e, c) for e, c in acc.items()
                        if not ops.is_zero(c) and e < trunc)), trunc


def series_add(x, y):
    return known(x.field, x.terms + y.terms, min(x.trunc, y.trunc))


def series_neg(x):
    ops = Scalars(x.field)
    return known(x.field, [(e, ops.sub(0, c)) for e, c in x.terms], x.trunc)


def series_sub(x, y):
    ops = Scalars(x.field)
    return known(x.field, x.terms + tuple((e, ops.sub(0, c)) for e, c in y.terms),
                 min(x.trunc, y.trunc))


def series_scalar_mul(x, c):
    ops = Scalars(x.field)
    if ops.is_zero(c):
        return (), INF
    return known(x.field, [(e, ops.mul(c, k)) for e, k in x.terms], x.trunc)


def series_truncate(x, delta):
    return known(x.field, x.terms, min(x.trunc, delta))


def long_division(x, y, max_steps=100000):
    """(terms, trunc) of x / y by long division on field scalars, one
    quotient term at a time; a quotient still growing after max_steps
    terms is taken to have unbounded support (below the window, which in
    lex Z^n holds infinitely many exponents)."""
    if y.is_zero_exact():
        raise ZeroDivisionError("series division by exact zero")
    g = x.group
    ops = Scalars(x.field)
    vy = y.val()  # raises IndeterminateVal on zero-so-far divisor
    bounds = []
    if not x.exact:
        bounds.append(g.sub(x.trunc, vy))
    if not y.exact and x.val_lower() is not INF:
        bounds.append(g.sub(g.add(y.trunc, x.val_lower()), g.scale(vy, 2)))
    qtrunc = min(bounds) if bounds else INF
    qexact = qtrunc is INF
    rem_limit = None if qexact else g.add(qtrunc, vy)
    ylead = y.terms[0][1]
    rest = y.terms[1:]
    rem = dict(x.terms)
    qterms = []
    steps = 0
    while rem:
        steps += 1
        if steps > max_steps:
            raise InputError(
                "exact quotient appears to have unbounded support; use div_to"
                if qexact else "quotient has unbounded support below "
                f"its window {g.to_json(qtrunc)}")
        lead = min(rem)
        qe = g.sub(lead, vy)
        if not qexact and not (qe < qtrunc):
            break
        qc = ops.div(rem.pop(lead), ylead)
        qterms.append((qe, qc))
        for e2, c2 in rest:
            tgt = g.add(qe, e2)
            if not qexact and not (tgt < rem_limit):
                continue
            cur = ops.sub(rem.get(tgt, 0), ops.mul(qc, c2))
            if ops.is_zero(cur):
                rem.pop(tgt, None)
            else:
                rem[tgt] = cur
    return known(x.field, qterms, qtrunc)


def long_division_to(x, y, delta, max_steps=100000):
    """long_division of x cut at delta + val(y): the quotient below delta."""
    if y.is_zero_exact():
        raise ZeroDivisionError("series division by exact zero")
    cut = min(x.trunc, x.group.add(delta, y.val()))
    return long_division(ValuedSeries(x.field, x.group, x.terms, cut), y, max_steps)


def series_from_json(obj, field, group):
    """A series read from JSON scalar by scalar: each coefficient through
    Field.coeff_from_json, then the (exponent, scalar) constructor."""
    trunc = obj.get("trunc", "inf")
    trunc = INF if trunc == "inf" else group.from_json(trunc)
    terms = [(group.from_json(e), field.coeff_from_json(c))
             for e, c in obj.get("terms", [])]
    return ValuedSeries(field, group, terms, trunc)


def series_to_json(x):
    """A series' JSON written scalar by scalar from its `terms` view."""
    return {
        "terms": [[x.group.to_json(e), x.field.coeff_to_json(c)] for e, c in x.terms],
        "trunc": "inf" if x.exact else x.group.to_json(x.trunc),
        "exact": x.exact,
    }


def series_pow(x, n):
    """x ** n by repeated squaring; n >= 0."""
    if n < 0:
        raise InputError("negative powers go through div")
    result = ValuedSeries.one(x.field, x.group)
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def subs_poly(p, tag, replacement):
    """p with the polynomial replacement substituted for the variable tag."""
    p._check(replacement)
    powers = {0: p._one()}

    def power(k):
        while len(powers) <= k:
            powers[len(powers)] = powers[len(powers) - 1] * replacement
        return powers[k]

    out = []
    for mono, coeff in p.monos.items():
        rest = dict(mono)
        k = rest.pop(tag, 0)
        out += [(_mono_mul(rest.items(), m), coeff * c)
                for m, c in power(k).monos.items()]
    return Poly(p.field, p.group, out)


def taylor_via_hasse(g, centers, scales, newtags):
    """sum_n D^(n)g(centers) * prod s^n * Y_new^n, equal to taylor_recenter."""
    tags = list(centers)
    ranges = [range(g.degree_in(t) + 1) for t in tags]
    total = Poly.zero(g.field, g.group)
    for combo in itertools.product(*ranges):
        deriv = g.hasse_derivative(dict(zip(tags, combo)))
        if deriv.is_zero():
            continue
        coeff = deriv.eval_series(centers)
        mono = []
        for t, n in zip(tags, combo):
            coeff = coeff * series_pow(scales[t], n)
            if n:
                mono.append((newtags[t], n))
        total = total + Poly(g.field, g.group, {tuple(mono): coeff})
    return total


def taylor_via_subs(g, centers, scales, newtags):
    """g with each variable replaced by the polynomial v + s*Y_new, one
    variable at a time; equal to taylor_recenter."""
    out = g
    for tag, center in centers.items():
        scale = scales[tag]
        if scale.is_zero_exact():
            raise InputError("recentring scale must be nonzero")
        replacement = (Poly.const(center)
                       + Poly.var(g.field, g.group, newtags[tag]).scale(scale))
        out = subs_poly(out, tag, replacement)
    return out


def stable_val(poly, seqs, W):
    """(value, window start) of val(poly(v_{0,j}, ..., v_{m,j})): a fresh
    evaluation at every j, each partial sum rebuilt with term(j)."""
    horizon = min(s.horizon for s in seqs)
    prev = None
    run_start = 0
    for j in range(horizon - 1):
        assignment = {VarTag.orig(e): seq.term(j) for e, seq in enumerate(seqs)}
        v = poly.eval_series(assignment).val()
        if prev is None or v != prev:
            prev, run_start = v, j
        if j - run_start + 1 >= W:
            return prev, run_start
    raise NotStabilizedError(
        f"coefficient value did not stabilize over {W} indices below the horizon")


def stable_betas(h, seqs, W):
    """stable_val of every nonzero Hasse derivative D^(k)h, k != 0, one
    derivative after the other; equal to rewrite._stable_betas."""
    tags = [VarTag.orig(e) for e in range(len(seqs))]
    betas = {}
    for combo in itertools.product(*[range(h.degree_in(t) + 1) for t in tags]):
        if not any(combo):
            continue
        deriv = h.hasse_derivative(dict(zip(tags, combo)))
        if not deriv.is_zero():
            betas[combo] = stable_val(deriv, seqs, W)
    return betas


def derivative(g, tag):
    """Ordinary partial derivative: Y^k -> k * Y^(k-1)."""
    out = []
    for mono, coeff in g.monos.items():
        exps = dict(mono)
        k = exps.pop(tag, 0)
        if k > 1:
            exps[tag] = k - 1
        if k:
            out.append((tuple(exps.items()), coeff.scalar_mul(from_int(g.field, k))))
    return Poly(g.field, g.group, out)


def jacobian_minor(pres):
    """The minor of the Jacobian without the base column, each entry
    evaluated at the full images."""
    assignment = dict(pres.generators)
    cols = [tag for i, (tag, _) in enumerate(pres.generators) if i != pres.base]
    rows = [[Poly.const(rel.hasse_derivative({tag: 1}).eval_series(assignment))
             for tag in cols]
            for rel in pres.relations]
    one = Poly.const(ValuedSeries.one(pres.field, pres.group))
    return det(rows, one).constant_term()


def over_V(group, named):
    """Each (name, polynomial or series) whose lowest known exponent over
    its terms (or its truncation, with no term) is below 0 fails in-V."""
    for name, data in named:
        for s in data.monos.values() if isinstance(data, Poly) else [data]:
            low = s.terms[0][0] if s.terms else s.trunc
            if low < group.zero():
                raise VerificationError("in-V", f"{name} has val {group.to_json(low)} below 0")


def sm_check(pres, delta):
    """The presentation checks on the full images, after the data is
    checked to lie over V with delta > 0; equal to smooth.sm_check in
    verdict and claim."""
    enc = pres.group.to_json
    over_V(pres.group, [(f"generator {i} image", img)
                        for i, (_, img) in enumerate(pres.generators)]
           + [(f"relation {i}", rel) for i, rel in enumerate(pres.relations)])
    if not delta > pres.group.zero():
        raise VerificationError("delta", f"delta {enc(delta)} is not positive")
    assignment = dict(pres.generators)
    for i, rel in enumerate(pres.relations):
        residual = rel.eval_series(assignment)
        try:
            small = residual.is_small(delta)
        except IndeterminateValError as exc:
            raise VerificationError(f"relation-{i}", str(exc))
        if not small:
            raise VerificationError(
                f"relation-{i}",
                f"residual val {enc(residual.val_lower())} not past {enc(delta)}")
    if pres.relations:
        try:
            v = jacobian_minor(pres).val()
        except IndeterminateValError as exc:
            raise VerificationError("jacobian-minor", str(exc))
        if v != pres.group.zero():
            raise VerificationError(
                "jacobian-minor", f"minor has val {v!r}, expected 0 (unit)")


def _eval_at_limit(f, seq, delta):
    return f.eval_series({VarTag.orig(0): seq.limit(delta)})


def _f_over_d(f, d, seq, deltaw):
    """f(y0)/d to deltaw, y0 known below 2*deltaw and at least as far as
    the deltaw + val d the quotient reads.  The package reads y0 only
    below cap + val d; this oracle reads it deeper on purpose, so that
    the differential compares two routes to the same value."""
    if d.is_zero_exact():
        raise ZeroDivisionError("series division by exact zero")
    depth = max(seq.group.scale(deltaw, 2), seq.group.add(deltaw, d.val()))
    return _eval_at_limit(f, seq, depth).div_to(d, deltaw)


def member_target(cert, e, deltaw):
    """y_e = f_e(y0)/d_e to deltaw; None when e names no problem member."""
    fs, ds = cert.problem.get("fs", []), cert.problem.get("ds", [])
    if not 1 <= e <= min(len(fs), len(ds)):
        return None
    seq0 = sequence_from_json(cert.problem["seq0"])
    f = Poly.from_json(fs[e - 1], cert.field, seq0.group)
    d = ValuedSeries.from_json(ds[e - 1], cert.field, seq0.group)
    return _f_over_d(f, d, seq0, deltaw)


def check_floor(cert, delta, deltaw):
    """delta >= 2*gamma_j for every stage generator Y_{e,j}, gamma_j read
    off seq0 (e = 0) or off y_e = f_e(y0)/d_e known to deltaw; a term j
    not known there has gamma >= deltaw."""
    group = cert.pres.group
    seq0 = sequence_from_json(cert.problem["seq0"])
    for i, (tag, _) in enumerate(cert.pres.generators):
        if tag.kind != "stage":
            continue
        e, j = tag.e, tag.extra
        try:
            if e == 0:
                gamma = seq0.gamma(j)
            else:
                member = member_target(cert, e, deltaw)
                if member is None:
                    raise VerificationError("delta", f"generator {i} names no problem member")
                gamma = member.terms[j][0] if 0 <= j < len(member.terms) else deltaw
        except (HorizonError, IndeterminateValError, ZeroDivisionError) as exc:
            raise VerificationError("delta", f"generator {i}: {exc}")
        if group.add(gamma, gamma) > delta:
            raise VerificationError(
                "delta", f"delta {group.to_json(delta)} is below twice the "
                f"gamma of generator {i}")


def witness_target(w, cert, deltaw):
    """The element w claims: y0 to deltaw, f(y0)/d with y0 known below
    2*deltaw and below deltaw + val d, each part of the problem echo
    decoded afresh.  f1/f2 divides f1(y0) by f2(y0) directly, on purpose:
    the package forms it from the members as (d1*y1)/(d2*y2), so the
    differential compares two routes."""
    field = cert.field
    seq0 = sequence_from_json(cert.problem["seq0"])
    group = seq0.group
    deep = group.scale(deltaw, 2)
    if w.kind == "y0":
        return seq0.limit(deltaw)
    if w.kind == "z":
        f = Poly.from_json(cert.problem["f"], field, group)
        d = ValuedSeries.from_json(cert.problem["d"], field, group)
        return _f_over_d(f, d, seq0, deltaw)
    if w.kind == "ye":
        member = member_target(cert, w.e, deltaw)
        if member is None:
            raise VerificationError(
                f"witness-{w.name}", f"index e={w.e} names no problem member")
        return member
    if w.kind == "fraction":
        f1 = Poly.from_json(cert.problem["fs"][0], field, group)
        f2 = Poly.from_json(cert.problem["fs"][1], field, group)
        f2v = _eval_at_limit(f2, seq0, deep)
        if f2v.is_zero_exact():
            raise ZeroDivisionError("series division by exact zero")
        depth = max(deep, group.add(deltaw, f2v.val()))
        if depth != deep:
            f2v = _eval_at_limit(f2, seq0, depth)
        return _eval_at_limit(f1, seq0, depth).div_to(f2v, deltaw)
    raise InputError(f"unknown witness kind {w.kind!r}")


def problem_named(cert):
    """(name, polynomial or series) of each f, d, fs[k] and ds[k] the
    problem echo holds, decoded afresh."""
    group = sequence_from_json(cert.problem["seq0"]).group

    def poly(obj):
        return Poly.from_json(obj, cert.field, group)

    def series(obj):
        return ValuedSeries.from_json(obj, cert.field, group)

    problem, out = cert.problem, []
    if "f" in problem:
        out.append(("problem f", poly(problem["f"])))
    if "d" in problem:
        out.append(("problem d", series(problem["d"])))
    out += [(f"problem fs[{k}]", poly(f)) for k, f in enumerate(problem.get("fs", []))]
    out += [(f"problem ds[{k}]", series(d)) for k, d in enumerate(problem.get("ds", []))]
    return out


def sm_verify(cert, delta=None):
    """smooth.sm_verify's claims in its order (see the smooth module),
    checked on the full values, each link rewrite over the tables of the
    members known to 2*delta; equal to it in verdict and claim (without
    the shape of the certificate's kind and the bound on each link's g)."""
    group = cert.pres.group
    dlt = cert.delta if delta is None else delta
    deltaw = group.scale(dlt, 2)
    sm_check(cert.pres, dlt)
    over_V(group, [(f"witness {w.name} {part}", poly) for w in cert.witnesses
                   for part, poly in (("num", w.num), ("den", w.den)) if poly is not None]
           + problem_named(cert))
    check_floor(cert, dlt, deltaw)
    assignment = dict(cert.pres.generators)
    for w in cert.witnesses:
        value = w.num.eval_series(assignment)
        try:
            if w.den is not None:
                den_val = w.den.eval_series(assignment)
                if den_val.val_lower() > group.zero() or not den_val.is_unit():
                    raise VerificationError(
                        f"witness-{w.name}", "denominator is not a unit")
                value = value.div(den_val)
            diff = value - witness_target(w, cert, deltaw)
            small = diff.is_small(dlt)
        except (IndeterminateValError, ZeroDivisionError) as exc:
            raise VerificationError(f"witness-{w.name}", str(exc))
        if not small:
            raise VerificationError(
                f"witness-{w.name}",
                f"expression differs from target at val {group.to_json(diff.val_lower())}")
    seq0 = sequence_from_json(cert.problem["seq0"])
    for i, rc in enumerate(cert.rewrites):
        seqs = [seq0 if e == 0 else TableSequence(cert.field, member_target(cert, e, deltaw).terms)
                for e in ([0] if cert.kind == "pair" else [i, i + 1])]
        try:
            rc.verify(seqs)
        except VerificationError as exc:
            raise VerificationError(f"rewrite-{i}", str(exc))


def steer_reference(g, pair, nu, W, R):
    """smooth._steer without prediction: a link rewrite built at each
    start index in turn, the first that designates the earlier variable
    kept."""
    for bump in range(8):
        nus = (nu, 3 * bump)
        try:
            cand = rw("bivariate", g, pair, nus=nus, W=W, R=R)
        except UndecidedError:
            continue
        m = cand.c_mono
        if len(m) == 1 and m[0][1] == 1 and m[0][0].e == 0:
            return cand
    raise NotStabilizedError("could not steer the rewrite onto the earlier chain variable")
