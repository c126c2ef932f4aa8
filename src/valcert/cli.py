"""Batch front end: run separation/rewrite/smooth pipelines from JSON
configs and verify certificate files.

Exit codes: 0 ok, 1 input error (a usage error or an option the command
does not read among them), 2 horizon/stabilization or unreadable
valuation, 3 undecided after the last of the R attempts that --retries
allows, 4 verification failure, 5 internal error (any other exception, so
one item cannot sink a batch).  Output is canonical JSON (sorted keys,
compact separators) so identical configs yield byte-identical
certificates.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

from .errors import (HorizonError, IndeterminateValError, InputError,
                     UndecidedError, VerificationError, require_int)
from .fields import field_from_json
from .group import element_from_json, group_of
from .pcs import TableSequence, sequence_from_json
from .poly import Poly
from .rewrite import DEFAULT_RETRIES, DEFAULT_WINDOW, RewriteCert, rw
from .separation import (SeparationCert, sep_cross_pair, sep_multi,
                         sep_shifted_pair, sep_tail)
from .smooth import SmoothCert, sm_family, sm_fraction, sm_pair, sm_verify
from .series import ValuedSeries

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HORIZON = 2
EXIT_UNDECIDED = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _load_stream(spec, horizon: int, key: str):
    """A gamma stream: either an explicit JSON list of group elements or a
    sequence spec whose gamma values are materialized up to the horizon;
    key names it."""
    if isinstance(spec, list):
        # an empty stream is the builder's to name
        return group_of(element_from_json(spec[0])).stream_from_json(spec) if spec else []
    if not isinstance(spec, dict):
        raise InputError(f"{key} must be a JSON list of group elements or a sequence spec, "
                         f"got {spec!r}")
    seq = sequence_from_json(spec)
    hi = min(horizon, seq.horizon)
    return [seq.gamma(j) for j in range(hi)]


def _load_seq(spec, opts):
    seq = sequence_from_json(spec)
    if opts.get("horizon") is not None:
        horizon = _positive(opts, {}, "horizon", None)
        # A term table has no terms past its length, whatever --horizon says.
        seq.horizon = (min(horizon, seq.horizon) if isinstance(seq, TableSequence)
                       else horizon)
    return seq


def _require(cfg, key):
    if key not in cfg:
        raise InputError(f"config is missing required key {key!r}")
    return cfg[key]


def _ints(value, key):
    """value, which must be a JSON list of integers; key names it."""
    if not isinstance(value, list):
        raise InputError(f"{key} must be a list of integers, got {value!r}")
    return [require_int(v, key) for v in value]


def _elements(value, key):
    """value, which must be a JSON list of group elements; key names it."""
    if not isinstance(value, list):
        raise InputError(f"{key} must be a list of group elements, got {value!r}")
    return [element_from_json(v) for v in value]


def _positive(opts, cfg, key, default):
    """The --key flag when given, else the config's key, else the default;
    it must be a positive integer (a bool is not one)."""
    value = opts.get(key)
    if value is None:
        value = cfg.get(key, default)
    if type(value) is not int or value < 1:
        raise InputError(f"{key} must be a positive integer, got {value!r}")
    return value


# -- command implementations -------------------------------------------

def cmd_separate(cfg, opts):
    H = _positive(opts, cfg, "horizon", 200)
    op = _require(cfg, "op")
    if op == "tail":
        cert = sep_tail(_elements(_require(cfg, "betas"), "betas"),
                        _ints(_require(cfg, "ts"), "ts"),
                        _load_stream(_require(cfg, "gamma"), H, "gamma"))
    elif op == "shifted":
        cert = sep_shifted_pair(element_from_json(_require(cfg, "beta0")),
                                element_from_json(_require(cfg, "beta1")),
                                element_from_json(_require(cfg, "c")),
                                _load_stream(_require(cfg, "gamma0"), H, "gamma0"))
    elif op == "cross":
        cert = sep_cross_pair(element_from_json(_require(cfg, "beta0")),
                              element_from_json(_require(cfg, "beta1")),
                              element_from_json(_require(cfg, "beta01")),
                              _load_stream(_require(cfg, "gamma0"), H, "gamma0"),
                              _load_stream(_require(cfg, "gamma1"), H, "gamma1"))
    elif op == "multi":
        gammas = [_load_stream(g, H, f"gammas[{i}]")
                  for i, g in enumerate(_require(cfg, "gammas"))]
        cert = sep_multi([_ints(s, "subsets") for s in _require(cfg, "subsets")],
                         _elements(_require(cfg, "betas"), "betas"),
                         _ints(_require(cfg, "ts"), "ts"),
                         gammas,
                         _ints(cfg.get("rhos", [0] * len(gammas)), "rhos"))
    else:
        raise InputError(f"unknown separate op {op!r}")
    return cert.to_json()


def cmd_rewrite(cfg, opts):
    field = field_from_json(cfg)
    g_json = _require(cfg, "g")
    seqs = [_load_seq(s, opts) for s in _require(cfg, "seqs")]
    if not seqs:
        raise InputError("a rewrite needs at least one sequence")
    g = Poly.from_json(g_json, field, seqs[0].group)
    W = _positive(opts, cfg, "window", DEFAULT_WINDOW)
    R = _positive(opts, cfg, "retries", DEFAULT_RETRIES)
    op = _require(cfg, "op")
    if op == "univariate":
        if "nus" in cfg:
            raise InputError("a univariate rewrite reads its start index from 'nu', not 'nus'")
        nus = [require_int(cfg.get("nu", 0), "nu")]
    elif "nu" in cfg:
        raise InputError("only a univariate rewrite reads 'nu'; the others read 'nus'")
    else:
        nus = None if cfg.get("nus") is None else _ints(cfg["nus"], "nus")
    return rw(op, g, seqs, nus=nus, W=W, R=R).to_json()


def cmd_smooth(cfg, opts):
    field = field_from_json(cfg)
    seq0 = _load_seq(_require(cfg, "seq0"), opts)
    group = seq0.group
    W = _positive(opts, cfg, "window", DEFAULT_WINDOW)
    R = _positive(opts, cfg, "retries", DEFAULT_RETRIES)
    delta = opts.get("delta")
    if delta is not None:
        delta = group.from_json(delta)
    elif "delta" in cfg:
        delta = group.from_json(cfg["delta"])
    op = _require(cfg, "op")
    if op == "pair":
        f = Poly.from_json(_require(cfg, "f"), field, group)
        d = (ValuedSeries.from_json(cfg["d"], field, group) if "d" in cfg else None)
        cert = sm_pair(f, seq0, d=d, nu=require_int(cfg.get("nu", 0), "nu"), W=W, R=R,
                       delta=delta)
    elif op == "family":
        fs = [Poly.from_json(f, field, group) for f in _require(cfg, "fs")]
        cert = sm_family(fs, seq0, delta=delta, W=W, R=R)
    elif op == "fraction":
        f1 = Poly.from_json(_require(cfg, "f1"), field, group)
        f2 = Poly.from_json(_require(cfg, "f2"), field, group)
        cert = sm_fraction(f1, f2, seq0, delta=delta, W=W, R=R)
    else:
        raise InputError(f"unknown smooth op {op!r}")
    return cert.to_json()


def cmd_verify(cfg, opts):
    kind = cfg.get("cert")
    if opts.get("delta") is not None and kind in ("separation", "rewrite"):
        raise InputError(f"--delta is a floor on a smooth certificate's delta; "
                         f"a {kind} certificate has none")
    if kind == "separation":
        SeparationCert.from_json(cfg).verify()
    elif kind == "rewrite":
        RewriteCert.from_json(cfg).verify()
    elif kind == "smooth":
        cert = SmoothCert.from_json(cfg)
        delta = opts.get("delta")
        sm_verify(cert, delta=None if delta is None else cert.pres.group.from_json(delta))
    else:
        raise InputError(f"unknown certificate schema {kind!r}")
    return {"verified": True, "cert": kind}


_COMMANDS = {"separate": cmd_separate, "rewrite": cmd_rewrite,
             "smooth": cmd_smooth, "verify": cmd_verify}
# the options each command reads; any other one is refused
_READS = {"separate": {"horizon"}, "rewrite": {"horizon", "window", "retries"},
          "smooth": {"horizon", "window", "retries", "delta"}, "verify": {"delta"}}


def run_single(command: str, cfg: dict, opts: dict):
    """Run one config; returns (exit_code, result-or-error-message)."""
    try:
        if not isinstance(cfg, dict):
            raise InputError(f"a config must be a JSON object, not {type(cfg).__name__}")
        return EXIT_OK, _COMMANDS[command](cfg, opts)
    except (AttributeError, InputError, KeyError, TypeError, ValueError) as exc:
        return EXIT_INPUT, f"input error: {exc}"
    except (HorizonError, IndeterminateValError) as exc:
        return EXIT_HORIZON, f"horizon/stabilization: {exc}"
    except UndecidedError as exc:
        return EXIT_UNDECIDED, f"undecided: {exc}"
    except VerificationError as exc:
        return EXIT_VERIFY, f"verification failed: {exc}"
    except Exception as exc:
        return EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}"


def _parse_delta(text):
    """The JSON form of a --delta value; bare text such as 3/2 stands for
    the string "3/2".  It is decoded in the group of the input it meets."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="valcert",
        description="produce and verify separation / rewrite / smooth-"
                    "presentation certificates")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("path", nargs="?",
                        help="config (or certificate) file; - for stdin")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--window", type=int)
    parser.add_argument("--delta", help="truncation order as group-element "
                        "JSON (e.g. 12, \"3/2\", [1,0])")
    parser.add_argument("--retries", type=int)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for an array config")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its message or the help
        return EXIT_INPUT if exc.code else EXIT_OK
    unread = [f"--{name}" for name in ("horizon", "window", "delta", "retries")
              if getattr(args, name) is not None and name not in _READS[args.command]]
    if unread:
        print(f"error: {args.command} does not read {', '.join(unread)}", file=sys.stderr)
        return EXIT_INPUT

    path = args.path
    if path is None:
        print("error: no config file given", file=sys.stderr)
        return EXIT_INPUT
    try:
        if path == "-":
            payload = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INPUT

    opts = {"horizon": args.horizon, "window": args.window,
            "retries": args.retries,
            "delta": _parse_delta(args.delta) if args.delta else None}

    if isinstance(payload, list):
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(run_single, repeat(args.command), payload,
                                        repeat(opts)))
        else:
            results = [run_single(args.command, cfg, opts) for cfg in payload]
        code = max((c for c, _ in results), default=EXIT_OK)
        out = [r if c == EXIT_OK else {"error": r, "exit": c}
               for c, r in results]
    else:
        code, out = run_single(args.command, payload, opts)
        if code != EXIT_OK:
            print(out, file=sys.stderr)
            return code

    text = canonical_json(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
