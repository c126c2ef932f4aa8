"""Self-test of the benchmark's checker: it must accept the certificates
the package builds and reject corrupted copies of them.

    python3 bench/selftest.py

Builds a few cheap items of every certificate kind, checks each output,
then checks several corruptions of it and expects every one to fail.
It also reports what `valcert verify` says about a smooth certificate
whose delta was lowered to 1 with its generator images cut to O(t^2):
the checker derives the delta floor from the problem, the verifier
takes the certificate's word for it.  Exits 1 if any expectation fails.
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

from checks import CHECKS, CheckError, mutate
from workloads import WORKLOADS

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src"
OPTS = {"horizon": None, "window": None, "retries": None, "delta": None}
SEED = 1

# Item indices (see workloads.py): one or two of every certificate kind,
# choosing the cheap smooth templates (pair, two-member family, fraction).
CASES = {"separate": (0, 4, 7, 10, 14, 18, 21, 24),
         "rewrite": (0, 1, 6, 11, 16, 21, 26, 30, 36),
         "smooth": (1, 2, 3, 9, 10)}


def corruptions(cert: dict):
    """(label, corrupted copy) pairs; each makes some claim false."""
    def edit(label, fn):
        bad = copy.deepcopy(cert)
        fn(bad)
        return label, bad

    out = [("mutant", mutate(cert))]
    kind = cert["kind"]
    if cert["cert"] == "separation":
        if kind == "tail":
            out.append(edit("r", lambda b: b.update(r=(b["r"] + 1) % len(b["ts"]))))
            if cert["nu"] > 0:
                out.append(edit("nu-1", lambda b: b.update(nu=b["nu"] - 1)))
        elif kind in ("shifted", "cross"):
            out.append(edit("sigma", lambda b: b["sigma"].pop()))
        else:
            out.append(edit("js", lambda b: b["js"].__setitem__(-1, len(b["gammas"][-1]) + 1)))
    elif cert["cert"] == "rewrite":
        out.append(edit("index", lambda b: b["indices"].__setitem__(0, b["indices"][0] + 1)))
        out.append(edit("c_mono", lambda b: b.update(
            c_mono=next((m for m, _ in b["table"] if m and m != b["c_mono"]), []))))
    else:
        out.append(edit("delta", lambda b: b.update(delta=1)))
        out.append(edit("witness", lambda b: b["witnesses"][-1]["num"][0][1]["terms"]
                        .append([0, 1])))
        out.append(("weakened", weakened(cert)))
    return out


def weakened(cert: dict) -> dict:
    """delta lowered to 1 and every generator image cut to O(t^2)."""
    bad = copy.deepcopy(cert)
    bad["delta"] = 1
    for _, image in bad["generators"]:
        image["terms"] = [t for t in image["terms"] if t[0] < 2]
        image["trunc"] = 2
        image["exact"] = False
    return bad


def main() -> int:
    sys.path.insert(0, str(PACKAGE_ROOT))
    from valcert.cli import canonical_json, run_single

    errors = []
    for workload, indices in CASES.items():
        items = WORKLOADS[workload](SEED)
        for i in indices:
            cmd, cfg = items[i]
            code, result = run_single(cmd, copy.deepcopy(cfg), OPTS)
            if code != 0:
                errors.append(f"{workload}[{i}]: build exit {code}: {result}")
                continue
            cert = json.loads(canonical_json(result))
            name = f"{workload}[{i}] {cert['cert']}/{cert['kind']}"
            try:
                CHECKS[workload](cfg, cert)
            except CheckError as exc:
                errors.append(f"{name}: the true output was rejected: {exc}")
            for label, bad in corruptions(cert):
                try:
                    CHECKS[workload](cfg, bad)
                    errors.append(f"{name}: corruption {label!r} was accepted")
                except CheckError as exc:
                    print(f"{name}: {label} rejected ({exc})")
            if cert["cert"] == "smooth":
                code, verdict = run_single("verify", weakened(cert), OPTS)
                print(f"{name}: valcert verify of the weakened copy: exit {code} {verdict}")
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
