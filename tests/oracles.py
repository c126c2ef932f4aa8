"""Reference implementations the tests compare the package against.

Each computes its result a second, independent way: Taylor recentring as
the sum of Hasse derivatives and by substituting one variable at a time,
the stable values of the Hasse derivatives by one scan per derivative,
the ordinary partial derivative monomial by monomial, and the smooth
presentation checks on the full, uncapped values.
"""
import itertools

from valcert.errors import (IndeterminateValError, InputError,
                            NotStabilizedError, VerificationError)
from valcert.pcs import sequence_from_json
from valcert.poly import Poly, VarTag, det
from valcert.series import ValuedSeries


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
            coeff = coeff * (scales[t] ** n)
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
        out = out.subs_poly(tag, replacement)
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
            out.append((tuple(exps.items()), coeff.scalar_mul(g.field.from_int(k))))
    return Poly(g.field, g.group, out)


def jacobian_minor(pres):
    """The minor of the Jacobian without the base column, each entry
    evaluated at the full images."""
    assignment = pres.assignment()
    cols = [tag for i, (tag, _) in enumerate(pres.generators) if i != pres.base]
    rows = [[Poly.const(rel.hasse_derivative({tag: 1}).eval_series(assignment))
             for tag in cols]
            for rel in pres.relations]
    one = Poly.const(ValuedSeries.one(pres.field, pres.group))
    return det(rows, one).constant_term()


def sm_check(pres, delta):
    """The presentation checks on the full images; equal to smooth.sm_check
    in verdict and message."""
    enc = pres.group.to_json
    assignment = pres.assignment()
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


def witness_target(w, cert, deltaw):
    """The element w claims: y0 to deltaw, f(y0)/d with y0 known to
    2*deltaw, each part of the problem echo decoded afresh."""
    field = cert.field
    seq0 = sequence_from_json(cert.problem["seq0"])
    group = seq0.group
    deep = group.scale(deltaw, 2)
    if w.kind == "y0":
        return seq0.limit(deltaw)
    if w.kind == "z":
        f = Poly.from_json(cert.problem["f"], field, group)
        d = ValuedSeries.from_json(cert.problem["d"], field, group)
        return _eval_at_limit(f, seq0, deep).div_to(d, deltaw)
    if w.kind == "ye":
        fs, ds = cert.problem["fs"], cert.problem["ds"]
        if not 1 <= w.e <= min(len(fs), len(ds)):
            raise VerificationError(
                f"witness-{w.name}", f"index e={w.e} names no problem member")
        f = Poly.from_json(fs[w.e - 1], field, group)
        d = ValuedSeries.from_json(ds[w.e - 1], field, group)
        return _eval_at_limit(f, seq0, deep).div_to(d, deltaw)
    if w.kind == "fraction":
        f1 = Poly.from_json(cert.problem["fs"][0], field, group)
        f2 = Poly.from_json(cert.problem["fs"][1], field, group)
        f2v = _eval_at_limit(f2, seq0, deep)
        f1v = _eval_at_limit(f1, seq0, deep)
        return f1v.div_to(f2v, deltaw)
    raise InputError(f"unknown witness kind {w.kind!r}")


def sm_verify(cert, delta=None):
    """Presentation, witnesses and rewrites checked on the full values;
    equal to smooth.sm_verify in verdict and message."""
    group = cert.pres.group
    dlt = cert.delta if delta is None else delta
    deltaw = group.scale(dlt, 2)
    sm_check(cert.pres, dlt)
    assignment = cert.pres.assignment()
    for w in cert.witnesses:
        value = w.num.eval_series(assignment)
        try:
            if w.den is not None:
                den_val = w.den.eval_series(assignment)
                if not den_val.is_unit():
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
    for i, rc in enumerate(cert.rewrites):
        try:
            rc.verify()
        except VerificationError as exc:
            raise VerificationError(f"rewrite-{i}", str(exc))
