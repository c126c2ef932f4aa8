"""Walkthrough: Taylor recentring and rewrite certificates.

A rewrite takes a polynomial g and pseudo-convergent sequences for its
variables, recentres g at chosen partial sums, and factors out the
designated minimal coefficient: G1 = c * g1 with g1 having unit
designated coefficient.  The certificate records everything needed to
replay the recentring exactly.  rw(op, g, seqs) builds every rewrite;
op names the shape (univariate, bivariate, multilinear, ...) and the
field's characteristic picks the kind.

    python3 demos/02_rewrite.py
"""
from valcert import (GF, INTEGERS, QQ, Poly, RewriteCert, RuleSequence,
                     VarTag, lacunary_sequence, rw, taylor_recenter)
from valcert.series import ValuedSeries

ZZ = INTEGERS  # the value group: exponents are plain ints
Y0, Y1 = VarTag.orig(0), VarTag.orig(1)


def main():
    # 1. Recentring substitutes y = v + s*Y' and expands exactly; the
    #    coefficient of Y'^n is the Hasse derivative D^(n)g(v) times s^n
    #    (divided powers, so this holds in characteristic p too).
    f2 = GF(2)
    g = Poly.var(f2, ZZ, Y0) ** 2 + Poly.var(f2, ZZ, Y0)
    centers = {Y0: ValuedSeries.t_power(f2, ZZ, 1)}
    scales = {Y0: ValuedSeries.t_power(f2, ZZ, 2)}
    newtags = {Y0: VarTag.stage(0, 0)}
    print("recentring over F2:", taylor_recenter(g, centers, scales, newtags), "\n")

    # 2. Univariate rewrite over Q: the linear coefficient of the
    #    recentred polynomial is strictly minimal; c is the factored
    #    content and the certificate's value table is rechecked exactly.
    seq = lacunary_sequence(QQ, 300)
    cert = rw("univariate", Poly.var(QQ, ZZ, Y0) ** 2, [seq])
    print("univariate over Q: designated index", cert.indices,
          "case", cert.case)
    RewriteCert.from_json(cert.to_json()).verify()

    # 3. Characteristic-p case split: Y^2 over F2 has no exponent prime
    #    to p, so the engine multiplies by Y first (case2); Y itself is
    #    decided directly (case1).
    seq2 = lacunary_sequence(f2, 300)
    for g2 in (Poly.var(f2, ZZ, Y0), Poly.var(f2, ZZ, Y0) ** 2):
        cert = rw("univariate", g2, [seq2])
        cert.verify()
        print(f"char-2 univariate {g2}: {cert.case}")
    print()

    # 4. Bivariate char-p rewrite walks the multiplier cascade
    #    1, y1, y2, y1*y2 until some exponent becomes admissible.
    seqs = [lacunary_sequence(f2, 300),
            RuleSequence(f2, {"kind": "geom", "a": 3},
                         {"kind": "const", "c": 1}, horizon=300)]
    gb = Poly.var(f2, ZZ, Y0) ** 2 * Poly.var(f2, ZZ, Y1) ** 2
    cert = rw("bivariate", gb, seqs)
    cert.verify()
    print("bivariate char-2 multiplier:", cert.case, "\n")

    # 5. Multilinear rewrite over two coupled sequences.
    seqs3 = [lacunary_sequence(QQ, 300),
             RuleSequence(QQ, {"kind": "geom", "a": 3},
                          {"kind": "const", "c": 1}, horizon=300)]
    gm = (Poly.var(QQ, ZZ, Y0) * Poly.var(QQ, ZZ, Y1)
          + Poly.var(QQ, ZZ, Y0) + Poly.var(QQ, ZZ, Y1))
    cert = rw("multilinear", gm, seqs3)
    cert.verify()
    print("multilinear designated coefficient value:", cert.c.val())


if __name__ == "__main__":
    main()
