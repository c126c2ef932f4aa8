"""Walkthrough: smooth presentations with unit-Jacobian certificates.

Given polynomials f_1..f_n and a pseudo-convergent sequence y0, the
family construction adjoins the units y_e = f_e(y0)/d_e, links
consecutive elements by bivariate chain relations, and normalizes them
so the Jacobian minor (last generator removed) is triangular with unit
diagonal.  Every adjoined element gets a polynomial witness that the
verifier replays against targets recomputed from the problem data.

    python3 demos/03_smooth.py
"""
import json

from valcert import (GF, INTEGERS, Poly, VarTag, lacunary_sequence,
                     sm_family, sm_fraction, sm_verify)
from valcert.errors import VerificationError
from valcert.series import ValuedSeries
from valcert.smooth import SmoothCert

ZZ = INTEGERS  # the value group: exponents are plain ints
Y0 = VarTag.orig(0)


def main():
    field = GF(5)
    t = ValuedSeries.t_power(field, ZZ, 1)
    V = Poly.var(field, ZZ, Y0)
    seq0 = lacunary_sequence(field, 300)

    # 1. A two-element family: y1 = y0/d1 and y2 = (y0^2 + t*y0)/d2.
    fs = [V, V ** 2 + V.scale(t)]
    cert = sm_family(fs, seq0)
    print("generators:",
          [tag.to_json() for tag, _ in cert.pres.generators])
    print("base generator column removed:", cert.pres.base)
    print("relations:", len(cert.pres.relations),
          "| witnesses:", [w.name for w in cert.witnesses])
    sm_verify(cert)
    print("verified: residuals past delta =", cert.delta,
          "and unit Jacobian minor\n")

    # 2. The fraction f1(y0)/f2(y0) is witnessed as (d1/d2) * y1 / y2
    #    with a unit denominator; the verifier recomputes the target
    #    quotient independently by truncated long division.
    frac = sm_fraction(V ** 2 + V.scale(t), V, seq0)
    fw = [w for w in frac.witnesses if w.kind == "fraction"][0]
    print("fraction witness:", fw.name, "num =", fw.num, "den =", fw.den)
    sm_verify(frac)
    print("fraction verified to delta =", frac.delta, "\n")

    # 3. Certificates are plain JSON and tampering is caught: perturb a
    #    relation coefficient and watch the residual check reject it.
    bad = json.loads(json.dumps(cert.to_json()))
    mono, coeff = bad["relations"][0][0]
    coeff["terms"][0][1] = (coeff["terms"][0][1] + 1) % 5
    try:
        sm_verify(SmoothCert.from_json(bad))
        raise SystemExit("tampered certificate was not rejected!")
    except VerificationError as exc:
        print("tampered relation rejected:", exc)


if __name__ == "__main__":
    main()
