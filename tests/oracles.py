"""Reference implementations the tests compare the package against.

Each computes its result a second, independent way: Taylor recentring as
the sum of Hasse derivatives and by substituting one variable at a time,
the stable values of the Hasse derivatives by one scan per derivative,
and the ordinary partial derivative monomial by monomial.
"""
import itertools

from valcert.errors import InputError, NotStabilizedError
from valcert.poly import Poly, VarTag


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
