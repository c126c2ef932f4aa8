"""Reference implementations the tests compare the package against.

Each computes its result a second, independent way: Taylor recentring as
the sum of Hasse derivatives, and the ordinary partial derivative
monomial by monomial.
"""
import itertools

from valcert.poly import Poly


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
