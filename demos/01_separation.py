"""Walkthrough: separating value families over ordered abelian groups.

Each operation returns a certificate whose claims are re-checked by an
exhaustive exact scan over the declared window -- run this script to see
the certified data and the verification round trip.

    python3 demos/01_separation.py
"""
import json

from valcert import (SeparationCert, sep_cross_pair, sep_multi,
                     sep_shifted_pair, sep_tail)


def show(title, cert):
    print(f"== {title}")
    data = {k: v for k, v in cert.to_json().items()
            if k not in ("gamma", "gamma0", "gamma1", "gammas")}
    print(json.dumps(data, default=str)[:200])
    SeparationCert.from_json(cert.to_json()).verify()
    print("   verified by exhaustive window scan\n")


def main():
    # Group elements are plain values: ints for Z, tuples for lex Z^2.
    gamma = list(range(1, 201))

    # 1. Tail separation: beta_i + t_i * gamma_s become pairwise distinct
    #    past nu, with entry r strictly minimal afterwards.  The families
    #    2*s and 3+s collide at s=3, so nu=3 and entry 1 wins past it.
    cert = sep_tail([0, 3], [2, 1], gamma)
    assert cert.data["nu"] == 3 and cert.data["r"] == 1
    show("tail separation (collision at s=3)", cert)

    # 2. Shifted pair: collisions of beta0+gamma_{j0} against
    #    beta1+gamma_{j1}+c happen exactly on the graph of an injective
    #    map sigma defined on a set A -- here j1 = j0 - 3 for j0 >= 4.
    cert = sep_shifted_pair(0, 0, 3, gamma)
    assert cert.data["A"][0] == 4
    show("shifted pair (sigma: j0 -> j0-3 on A={4,...})", cert)

    # 3. Cross pair: two streams plus their cross terms stay pairwise
    #    distinct once each index passes its bound rho and avoids sigma.
    gamma1 = [2 * s for s in range(1, 201)]
    cert = sep_cross_pair(0, 5, 0, gamma, gamma1)
    show("cross pair (two streams and a cross family)", cert)

    # 4. Multi-index separation: one index per position making every
    #    subset-sum family distinct; works verbatim over lex Z^2.
    glex = [(s, 0) for s in range(1, 201)]
    cert = sep_multi([[0], [1], [0, 1]], [(1, 0), (4, 0), (0, 0)],
                     [1, 2], [glex, glex], [0, 0])
    print("lex js =", cert.data["js"])
    show("multi-index separation over lex Z^2", cert)


if __name__ == "__main__":
    main()
