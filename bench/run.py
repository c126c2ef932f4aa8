"""Benchmark of valcert's separate, rewrite and smooth pipelines.

    python3 bench/run.py --workload separate --seed 1 --seconds 25 --trace 0

Each item goes the way a `valcert <cmd>` config goes: `cli.run_single`
builds the certificate, `cli.canonical_json` serialises it, and
`run_single("verify", ...)` checks it again from the parsed bytes.  One
round builds every item of the workload and verifies every certificate
twice; rounds repeat until --seconds have passed, and each timing is the
sum over items of the item's median time, scaled to a reference speed.
Outputs are then checked by independent arithmetic (checks.py), and one
mutated certificate per kind must make `verify` exit 4.

--trace 0 prints the end-to-end metrics; --trace 1 runs one round plain
and one under cProfile and prints per-layer metrics.  The last line of
standard output is one JSON object; a readable table goes to stderr.
`--workload all` runs the three workloads in turn.
"""
from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import pstats
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from checks import CHECKS, CheckError, mutate
from workloads import WORKLOADS, other_group_rewrite_items

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "valcert"
SETUP_REPEATS = 11
# Verifying is a tenth of a smooth round; a second pass per round gives
# its medians more samples.
VERIFY_PASSES = 2
OPTS = {"horizon": None, "window": None, "retries": None, "delta": None}
EXIT_VERIFY = 4
# The fixed Q- and lex-exponent rewrites fail today with exit 1
# (ValuedSeries.scalar makes its constant with a Z exponent).  Any other
# failing item, or one of these failing another way, is a fault.
KNOWN_FAILING = {("rewrite", json.dumps(cfg, sort_keys=True).encode())
                 for _, cfg in other_group_rewrite_items()}
KNOWN_EXIT = 1


# -- set-up and one round ----------------------------------------------

def setup(workload: str, seed: int):
    """Import the package afresh, then make and encode the seeded inputs."""
    for name in [m for m in sys.modules if m == "valcert" or m.startswith("valcert.")]:
        del sys.modules[name]
    cli = importlib.import_module("valcert.cli")
    items = [(cmd, json.dumps(cfg, sort_keys=True).encode())
             for cmd, cfg in WORKLOADS[workload](seed)]
    return cli, items


def run_round(cli, items):
    """Build every item, then verify every certificate built, VERIFY_PASSES
    times; every verdict that is not a plain "verified" is kept."""
    clock = SpeedClock()
    outputs, expected = [], []
    for cmd, data in items:
        t0 = time.perf_counter()
        code, result = cli.run_single(cmd, json.loads(data), OPTS)
        outputs.append((code, cli.canonical_json(result).encode() if code == 0 else result))
        clock.add(time.perf_counter() - t0)
        if code == 0:
            expected.append((0, {"verified": True, "cert": result["cert"]}))
    build = clock.stop()
    verify, rejected = [], []
    for _ in range(VERIFY_PASSES):
        clock = SpeedClock()
        verdicts = []
        for code, out in outputs:
            if code == 0:
                t0 = time.perf_counter()
                verdicts.append(cli.run_single("verify", json.loads(out), OPTS))
                clock.add(time.perf_counter() - t0)
        verify.append(clock.stop())
        rejected += [got for got, want in zip(verdicts, expected) if got != want]
    return {"outputs": outputs, "rejected": rejected, "build": [build], "verify": verify}


# -- CPU-speed normalisation -------------------------------------------
#
# On a shared machine the CPU speed seen by one process drifts by up to
# 2x over tens of seconds.  Every timing is therefore divided by the
# time of a fixed reference computation measured just before and after
# it, and multiplied by that computation's time on the reference machine
# (Python 3.11.7, 2 CPUs), so timings read as seconds at its speed.  Raw
# wall times go to the readable table on stderr.

REF_SECONDS = 0.0095
SAMPLE_EVERY_S = 0.5


def reference() -> float:
    """Best of two timings of a fixed dict/tuple/Fraction/sort computation,
    the kinds of work valcert's own code does."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            key = (i % 97, i // 97)
            table[key] = table.get(key, Fraction(0)) + Fraction(i, 7)
        sorted(table.items(), key=lambda kv: kv[1])
        [[x, (x, x + 1), str(x)] for x in range(3000)]
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """Collects the times of a sequence of items; every SAMPLE_EVERY_S of
    wall time the reference is measured again, and each item is scaled by
    the mean of the reference timings on either side of its stretch."""

    def __init__(self):
        self.ref = reference()
        self.mark = time.perf_counter()
        self.pending, self.scaled, self.wall = [], [], []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        self.wall.append(seconds)
        if time.perf_counter() - self.mark >= SAMPLE_EVERY_S:
            self._sample()

    def _sample(self) -> None:
        ref = reference()
        factor = REF_SECONDS * 2 / (self.ref + ref)
        self.scaled += [t * factor for t in self.pending]
        self.ref, self.pending, self.mark = ref, [], time.perf_counter()

    def stop(self):
        """Per-item times: (seconds at reference speed, raw wall seconds)."""
        self._sample()
        return self.scaled, self.wall


def item_medians(samples) -> float:
    """Sum over items of each item's median time over the samples (each
    sample a list of per-item times), so a slowdown that hits a few items
    in one round does not move the result."""
    return sum(statistics.median(times) for times in zip(*samples))


# -- correctness -------------------------------------------------------

def check(workload: str, cli, items, rounds: list, same: bool) -> list:
    """Problems found in the rounds' outputs and verdicts (same: whether
    every later round gave the first round's outputs); an empty list means
    correct."""
    problems = [] if same else ["outputs differ between rounds"]
    problems += [f"verify of a built certificate: exit {code} {verdict}"
                 for r in rounds for code, verdict in r["rejected"]]
    mutated = set()
    for i, ((cmd, data), (code, out)) in enumerate(zip(items, rounds[0]["outputs"])):
        if code != 0:
            if (cmd, data) not in KNOWN_FAILING:
                problems.append(f"item {i} failed with exit {code}: {out}")
            elif code != KNOWN_EXIT:
                problems.append(f"item {i} failed with exit {code}, not {KNOWN_EXIT}: {out}")
            continue
        cert = json.loads(out)
        try:
            CHECKS[workload](json.loads(data), cert)
        except CheckError as exc:
            problems.append(f"{cert['cert']}/{cert['kind']}: {exc}")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"{cert['cert']}/{cert['kind']}: unreadable ({exc!r})")
        kind = (cert["cert"], cert["kind"])
        if kind not in mutated:
            mutated.add(kind)
            bad_code, message = cli.run_single("verify", mutate(cert), OPTS)
            if bad_code != EXIT_VERIFY:
                problems.append(f"mutated {kind} gave exit {bad_code}: {message}")
    return problems


# -- per-layer metrics from the profile --------------------------------

LAYERS = ("group", "fields", "series", "poly", "pcs", "separation",
          "rewrite", "smooth", "cli")


class Profile:
    def __init__(self, profiler: cProfile.Profile):
        self.stats = pstats.Stats(profiler).stats
        self._layer = {}

    def layer(self, filename: str):
        if filename not in self._layer:
            path = Path(filename)
            self._layer[filename] = (path.stem if path.parent.resolve() == PACKAGE.resolve()
                                     else None)
        return self._layer[filename]

    def self_s(self, layer: str) -> float:
        return sum(tt for (f, _, _), (_, _, tt, _, _) in self.stats.items()
                   if self.layer(f) == layer)

    def calls(self, layer: str, *names, caller=None) -> int:
        total = 0
        for (f, _, name), (_, nc, _, _, callers) in self.stats.items():
            if self.layer(f) != layer or name not in names:
                continue
            if caller is None:
                total += nc
            else:
                total += sum(edge[0] for (cf, _, cn), edge in callers.items()
                             if cn in caller and self.layer(cf) is not None)
        return total

    def self_of(self, name: str, layer: str) -> float:
        return sum(tt for (f, _, n), (_, _, tt, _, _) in self.stats.items()
                   if n == name and self.layer(f) == layer)

    def cum_s(self, name: str, where) -> float:
        """Cumulative time of the functions called name in files where(f)."""
        return sum(ct for (f, _, n), (_, _, _, ct, _) in self.stats.items()
                   if n == name and where(f))


def _is_json_module(filename: str) -> bool:
    path = Path(filename)
    return path.name == "__init__.py" and path.parent.name == "json"


def _tables(obj):
    """Derived-sequence tables embedded anywhere in a certificate."""
    if isinstance(obj, dict):
        if obj.get("seq") == "table":
            yield obj
        else:
            for v in obj.values():
                yield from _tables(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _tables(v)


def layer_metrics(prof: Profile, outputs, overhead: float) -> dict:
    certs = [json.loads(out) for code, out in outputs if code == 0]
    table_bytes = sum(len(json.dumps(t, sort_keys=True, separators=(",", ":")))
                      for c in certs for t in _tables(c))

    def in_layer(layer):
        return lambda f: prof.layer(f) == layer

    certs_built = prof.calls("rewrite", "__init__", caller=("_certify", "rw_shift_min"))
    attempts = prof.calls("rewrite", "_claims_hold")
    c = "count"
    m = {
        "group.add_calls": (prof.calls("group", "__add__"), c),
        "group.cmp_calls": (prof.calls("group", "__eq__", "__lt__"), c),
        "group.scale_calls": (prof.calls("group", "scale"), c),
        "fields.op_calls": (prof.calls("fields", "add", "sub", "mul", "neg", "inv", "div"), c),
        "series.new_calls": (prof.calls("series", "__init__"), c),
        "series.mul_calls": (prof.calls("series", "__mul__"), c),
        "series.div_calls": (prof.calls("series", "div"), c),
        "poly.eval_calls": (prof.calls("poly", "eval_series"), c),
        "poly.subs_calls": (prof.calls("poly", "subs_poly"), c),
        "poly.hasse_calls": (prof.calls("poly", "hasse_derivative"), c),
        "pcs.term_calls": (prof.calls("pcs", "term"), c),
        "pcs.gamma_calls": (prof.calls("pcs", "gamma"), c),
        "pcs.materialize_calls": (prof.calls("smooth", "materialize"), c),
        # Like every per-layer time, this includes the module's own load.
        "separation.verify_s": (prof.cum_s("verify", in_layer("separation"))
                                + prof.self_of("<module>", "separation"), "s"),
        "separation.search_calls": (prof.calls("separation", "separate_indices"), c),
        "rewrite.certs": (certs_built, c),
        "rewrite.attempts": (attempts, c),
        "rewrite.certs_per_attempt": (certs_built / attempts if attempts else 0.0, "ratio"),
        "smooth.family_attempts": (prof.calls("smooth", "_family_attempt"), c),
        "smooth.link_rewrites": (prof.calls("rewrite", "rw_bivariate_pfree",
                                            "rw_bivariate_charp",
                                            caller=("_family_attempt",)), c),
        "smooth.table_bytes": (table_bytes, "bytes"),
        "cli.json_s": (prof.cum_s("canonical_json", in_layer("cli"))
                       + prof.cum_s("loads", _is_json_module), "s"),
        "trace.overhead_x": (overhead, "x"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (prof.self_s(layer), "s")
    return m


# -- one workload ------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    raw = {}
    if trace:
        clock = SpeedClock()
        t0 = time.perf_counter()
        cli, items = setup(workload, seed)
        plain = run_round(cli, items)
        clock.add(time.perf_counter() - t0)
        plain_s = clock.stop()[0][0]
        profiler = cProfile.Profile()
        clock = SpeedClock()
        t0 = time.perf_counter()
        profiler.enable()
        cli, items = setup(workload, seed)
        traced = run_round(cli, items)
        profiler.disable()
        clock.add(time.perf_counter() - t0)
        traced_s = clock.stop()[0][0]
        rounds = [plain, traced]
        same = traced["outputs"] == plain["outputs"]
        metrics = layer_metrics(Profile(profiler), traced["outputs"], traced_s / plain_s)
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            clock = SpeedClock()
            t0 = time.perf_counter()
            cli, items = setup(workload, seed)
            clock.add(time.perf_counter() - t0)
            setups.append(clock.stop())
        rounds, same = [], True
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(run_round(cli, items))
            if len(rounds) > 1:  # keep only the first round's outputs
                same &= rounds[-1].pop("outputs") == rounds[0]["outputs"]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timings = {"setup_s": setups,
                   "build_s": [t for r in rounds for t in r["build"]],
                   "verify_s": [t for r in rounds for t in r["verify"]]}
        metrics = {name: (item_medians(t[0] for t in ts), "s")
                   for name, ts in timings.items()}
        raw = {f"wall {name}": (item_medians(t[1] for t in ts), "s")
               for name, ts in timings.items()}
        metrics["cert_bytes"] = (sum(len(out) for code, out in rounds[0]["outputs"]
                                     if code == 0), "bytes")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
    problems = check(workload, cli, items, rounds, same)
    failures = [(i, code, out) for i, (code, out) in enumerate(rounds[0]["outputs"])
                if code != 0]
    for i, code, message in failures:
        print(f"{workload} item {i} failed with exit {code}: {message}", file=sys.stderr)
    for problem in problems:
        print(f"{workload} INCORRECT: {problem}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": len(rounds) * len(items),
            "failed": len(rounds) * len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(metrics.items())},
            "raw": raw, "rounds": len(rounds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per process, so dict and set lookups of
        # group elements hit different collisions and call __eq__ a
        # different number of times.  A fixed hash seed makes every call
        # count repeat exactly; exec keeps this one process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: the valcert sources are not at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        res = results[name]
        print(f"{name}: seed {args.seed}, {res['rounds']} round(s), "
              f"{res['attempted']} attempted, {res['failed']} failed, "
              f"correct={res['correct']}", file=sys.stderr)
        for metric, v in res["metrics"].items():
            print(f"  {metric:28s} {v['value']:>16.6g} {v['unit']}", file=sys.stderr)
        for metric, (value, unit) in res["raw"].items():
            print(f"  {metric:28s} {value:>16.6g} {unit}", file=sys.stderr)
    if len(names) == 1:
        res = results[names[0]]
        out = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{m}": v for w, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
