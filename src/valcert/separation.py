"""Index separation in ordered abelian groups.

Four procedures locate tails or index tuples past which linear
value-combinations beta + sum(t_e * gamma_{e,j_e}) are pairwise
distinct, together with explicit collision structure where collisions
are unavoidable.  Every certificate embeds the gamma windows it used, so
verification is an exhaustive exact check that needs no recomputation of
the search.  Each constructor keeps only its search and decides with its
verifier's check.  The tail and pair verifiers check every index exactly
and report the least index or pair where a claim fails: the tail looks
each stream value up, in constant work, in a table of the one value at
which each pair of entries collides (built when 2m <= H for m betas and
H stream entries, else the m values beta_i + t_i*gamma_s are compared:
O(min(m^2, m*H) + H) in all); the pair verifiers hash each raw stream
value to its indices and compare only the rows that can fail.  A
verifier decodes each JSON stream once, in the group of the first entry.

Streams are 1-indexed: a stream list g represents gamma_s = g[s-1] for
s = 1..H (matching the source statements that range indices over [1, λ)).
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import HorizonError, InputError, VerificationError, require_int
from .group import ValueGroup, element_from_json, group_of


def _head_group(streams: Sequence[Sequence], *values) -> ValueGroup:
    """The value group of the first stream, which the first entry of every
    stream and every value must share; reads no other stream entry."""
    if not streams or not all(streams):
        raise InputError("gamma stream is empty")
    group = group_of(streams[0][0])
    group.check(*(stream[0] for stream in streams), *values)
    return group


def _common_group(streams: Sequence[Sequence], *values) -> ValueGroup:
    """The value group of the first stream, which every stream entry and
    every value must share."""
    group = _head_group(streams, *values)
    for stream in streams:
        group.check(*stream)
    return group


def _decode(streams, values):
    """The value group of the first stream's first entry, with the JSON
    streams and values decoded in it, one pass per list.  A stream or the
    values that is no JSON list, an empty stream, and an entry outside the
    group are InputErrors."""
    if not (isinstance(streams, list) and streams
            and all(isinstance(s, list) and s for s in streams)):
        raise InputError("gamma streams must be nonempty JSON lists")
    G = group_of(element_from_json(streams[0][0]))
    return G, [G.stream_from_json(s) for s in streams], G.stream_from_json(values)


def _check_stream(g: Sequence, name: str = "gamma") -> None:
    for a, b in zip(g, g[1:]):
        if not a < b:
            raise InputError(f"{name} stream must be strictly increasing")


class SeparationCert:
    """Self-contained certificate; verify() re-checks every claim."""

    def __init__(self, kind: str, data: dict):
        self.kind = kind
        self.data = data

    def to_json(self):
        out = {"cert": "separation", "kind": self.kind}
        out.update(self.data)
        return out

    @staticmethod
    def from_json(obj) -> "SeparationCert":
        if obj.get("cert") != "separation":
            raise InputError("not a separation certificate")
        data = {k: v for k, v in obj.items() if k not in ("cert", "kind")}
        return SeparationCert(obj["kind"], data)

    def verify(self) -> None:
        _VERIFIERS[self.kind](self.data)


# -- Tail separation (single stream, integer multipliers) --------------

def _tail_fault(G: ValueGroup, betas, ts, g, r) -> Optional[Tuple[str, str]]:
    """The claim that fails at the stream value g: two of the values
    beta_i + t_i*g coincide ("tail-distinct"), or entry r is not strictly
    the least ("tail-minimum"); None when both hold."""
    vals = G.shifts(betas, ts, g)
    if len(set(vals)) < len(vals):
        i, j = next((i, j) for i, v in enumerate(vals) for j in range(i + 1, len(vals))
                    if v == vals[j])
        return "tail-distinct", f"collision of entries {i},{j}"
    # With the values distinct, r is strictly least unless a value lies below.
    if r is not None and min(vals) < vals[r]:
        return "tail-minimum", f"entry {r} not strictly minimal"
    return None


_EVERY = object()  # the pair table's key for pairs that collide at every g


def _pair_table(G: ValueGroup, betas, ts) -> dict:
    """Each pair's collision value solve_scalar(t_i - t_j, beta_j - beta_i) to
    its least (i, j), stopping at the first pair equal in t and beta (_EVERY)."""
    table: dict = {}
    for i, (bi, ti) in enumerate(zip(betas, ts)):
        for j, bj, tj in zip(range(i + 1, len(betas)), betas[i + 1:], ts[i + 1:]):
            g = (G.solve_scalar(ti - tj, G.sub(bj, bi)) if ti != tj
                 else _EVERY if bi == bj else None)
            if g is not None and g not in table:
                table[g] = i, j
                if g is _EVERY:
                    return table
    return table


def _tail_check(G: ValueGroup, betas, ts, r, table):
    """g -> _tail_fault(G, betas, ts, g, r) in a lookup and two comparisons:
    r is least when d_i*g > c_i (d_i = t_i - t_r, c_i = beta_r - beta_i) for
    all i != r, so when the largest c/d over d >= 0 (d = 0 <= c: never) and the
    least over d < 0 (d = 0 > c: always) hold, found as d_j*c_i vs d_i*c_j."""
    every, bounds = table.get(_EVERY), {}
    for i in range(len(betas)) if r is not None else ():
        d, c = ts[i] - ts[r], G.sub(betas[r], betas[i])
        bound = bounds.get(up := (d, c) >= (0, G.zero()))
        if i != r and (not bound or up == (G.scale(c, bound[0]) > G.scale(bound[1], d))):
            bounds[up] = d, c

    def fault(g):
        if pair := table.get(g, every):
            return "tail-distinct", "collision of entries {},{}".format(*pair)
        if any(not G.scale(g, d) > c for d, c in bounds.values()):
            return "tail-minimum", f"entry {r} not strictly minimal"
    return fault


def sep_tail(betas: Sequence, ts: Sequence[int], gamma: Sequence) -> SeparationCert:
    """Least nu with beta_i + t_i*gamma_s pairwise distinct for all s > nu.

    When every t_i is positive, also reports the index r whose value is
    least at the window's end, and the claims include that r is strictly
    minimal: a pair's ordering can flip between stream points without an
    on-stream collision (the crossover value is skipped or is not
    solvable in the group).  nu is the last index at which the
    verifier's per-index check fails, so the claims hold for every
    s > nu and break at s = nu.
    """
    m = len(betas)
    if m != len(ts) or m < 1:
        raise InputError("need equally many betas and ts, at least one")
    G = _common_group([gamma], *betas)
    _check_stream(gamma)
    H = len(gamma)
    table = _pair_table(G, betas, ts)
    if _EVERY in table:
        raise InputError("hypothesis violated: entries {} and {} coincide "
                         "(equal t and beta)".format(*table[_EVERY]))
    if any(gamma[-1] < target for target in table):
        raise HorizonError(
            "a collision target lies beyond the stream window; extend the horizon")
    r: Optional[int] = None
    if all(t > 0 for t in ts):
        end = G.shifts(betas, ts, gamma[-1])
        r = end.index(min(end))
    check = _tail_check(G, betas, ts, r, table)
    nu = next((s for s in range(H, 0, -1) if check(gamma[s - 1])), 0)
    if r is not None and nu >= H:
        raise HorizonError("no indices remain past nu within the window")
    cert = SeparationCert("tail", {
        "betas": [G.to_json(b) for b in betas],
        "ts": list(ts),
        "gamma": [G.to_json(g) for g in gamma],
        "nu": nu,
        "r": r,
    })
    cert.verify()
    return cert


def _verify_tail(data: dict) -> None:
    G, (gamma,), betas = _decode([data["gamma"]], data["betas"])
    ts = data["ts"]
    nu, r = data["nu"], data["r"]
    m, H = len(betas), len(gamma)
    if not (isinstance(ts, list) and len(ts) == m and all(type(t) is int for t in ts)):
        raise VerificationError("tail-bounds", f"ts must list {m} integers, one per beta")
    if not (type(nu) is int and 0 <= nu <= H):
        raise VerificationError("tail-bounds", f"nu={nu!r} lies outside [0,{H}]")
    if not (r is None or type(r) is int and 0 <= r < m):
        raise VerificationError("tail-bounds", f"r={r!r} is neither null nor in [0,{m})")
    # The builder sets r exactly when every t is positive, and then needs
    # an index past nu for r to be least at.
    if (r is None) != any(t <= 0 for t in ts):
        raise VerificationError("tail-bounds", f"r={r!r}, but r is null exactly when some t <= 0")
    if r is not None and nu == H:
        raise VerificationError("tail-bounds", f"r={r}, but nu={H} leaves no index past it")
    # The table's m(m-1)/2 solves undercut the H*m values only for m well below H.
    check = (_tail_check(G, betas, ts, r, _pair_table(G, betas, ts)) if 2 * m <= H
             else lambda g: _tail_fault(G, betas, ts, g, r))
    for s in range(nu + 1, H + 1):
        fault = check(gamma[s - 1])
        if fault:
            raise VerificationError(fault[0], f"{fault[1]} at s={s}")
    # nu is minimal when at s=nu the certified claims break.
    if nu > 0 and not check(gamma[nu - 1]):
        raise VerificationError(
            "tail-minimal-nu", f"claims hold at s={nu} already; nu is not minimal")


# -- Pair collision maps (shifted and cross) ---------------------------

def _is_index(j, H: int) -> bool:
    return type(j) is int and 1 <= j <= H


def _index_by_value(values) -> Dict[object, List[int]]:
    """Each value mapped to the ascending 1-based indices that take it."""
    index: Dict[object, List[int]] = {}
    for j, v in enumerate(values, 1):
        index.setdefault(v, []).append(j)
    return index


def _row_hits(G: ValueGroup, gamma0, shift, gamma1) -> Dict[int, List[int]]:
    """Each row j0 mapped to the ascending j1 with gamma1_{j1} =
    gamma0_{j0} + shift, the rows without one left out: one lookup of the
    shifted value per row in the index of the raw gamma1 values."""
    index = _index_by_value(gamma1)
    hits = {}
    for j0, g in enumerate(gamma0, 1):
        found = index.get(G.add(g, shift))
        if found:
            hits[j0] = found
    return hits


def _shifted_hits(G: ValueGroup, beta0, beta1, c, gamma0) -> Dict[int, List[int]]:
    """The collisions beta0 + gamma_{j0} = beta1 + gamma_{j1} + c, by row."""
    return _row_hits(G, gamma0, G.sub(G.sub(beta0, beta1), c), gamma0)


def _cross_maps(G: ValueGroup, beta0, beta1, beta01, gamma0, gamma1):
    """Where the families P0 = beta0 + gamma_{0,j0}, P1 = beta1 + gamma_{1,j1}
    and P01 = beta01 + gamma_{0,j0} + gamma_{1,j1} collide, cancellation
    being exact in the group: the rows j0 with gamma0 = beta1 - beta01
    (P1 = P01, whatever j1), the columns j1 with gamma1 = beta0 - beta01
    (P0 = P01, whatever j0), and the P0 = P1 collisions by row."""
    row, col = G.sub(beta1, beta01), G.sub(beta0, beta01)
    rows = [j for j, g in enumerate(gamma0, 1) if g == row]
    cols = [j for j, g in enumerate(gamma1, 1) if g == col]
    return rows, cols, _row_hits(G, gamma0, G.sub(beta0, beta1), gamma1)


def _sigma_fields(hits: Dict[int, List[int]]) -> dict:
    """The A and sigma a certificate lists for a collision map."""
    sigma = [[j0, j1] for j0, found in hits.items() for j1 in found]
    return {"A": [j0 for j0, _ in sigma], "sigma": sigma}


def _check_window(claim: str, sigma, H0: int, H1: int) -> None:
    for a, b in sigma:
        if not (_is_index(a, H0) and _is_index(b, H1)):
            raise VerificationError(
                claim, f"sigma pair ({a},{b}) lies outside [1,{H0}]x[1,{H1}]")


# -- Shifted pair (one stream, second shifted by a constant) ------------

def sep_shifted_pair(beta0, beta1, c, gamma0: Sequence) -> SeparationCert:
    """Collision structure of beta0+gamma_{j0} versus beta1+gamma_{j1}+c.

    Returns the set A and injective map sigma with equality exactly at
    j1 = sigma(j0), j0 in A, within the stream window.
    """
    G = _common_group([gamma0], beta0, beta1, c)
    _check_stream(gamma0)
    cert = SeparationCert("shifted", {
        "beta0": G.to_json(beta0),
        "beta1": G.to_json(beta1),
        "c": G.to_json(c),
        "gamma0": [G.to_json(g) for g in gamma0],
        **_sigma_fields(_shifted_hits(G, beta0, beta1, c, gamma0)),
    })
    cert.verify()
    return cert


def _verify_shifted(data: dict) -> None:
    G, (gamma0,), (beta0, beta1, c) = _decode(
        [data["gamma0"]], [data[k] for k in ("beta0", "beta1", "c")])
    H = len(gamma0)
    pairs = {(a, b) for a, b in data["sigma"]}
    if set(data["A"]) != {a for a, _ in pairs}:
        raise VerificationError("shifted-A", "A does not match sigma's domain")
    if len({b for _, b in pairs}) != len(pairs):
        raise VerificationError("shifted-injective", "sigma is not injective")
    _check_window("shifted-window", data["sigma"], H, H)
    # The real collisions must be exactly the listed ones.
    hits = _shifted_hits(G, beta0, beta1, c, gamma0)
    real = {(j0, j1) for j0, found in hits.items() for j1 in found}
    if real != pairs:
        raise VerificationError(
            "shifted-exhaustive", "collision map wrong at ({},{})".format(*min(real ^ pairs)))


# -- Cross pair (two streams and a cross term) --------------------------

def sep_cross_pair(beta0, beta1, beta01, gamma0: Sequence,
                   gamma1: Sequence) -> SeparationCert:
    """Bounds and collision map making the three families
    beta0+gamma_{0,j0}, beta1+gamma_{1,j1}, beta01+gamma_{0,j0}+gamma_{1,j1}
    pairwise distinct for j0 > rho0, j1 > rho1 with j1 != sigma(j0)."""
    G = _common_group([gamma0, gamma1], beta0, beta1, beta01)
    _check_stream(gamma0, "gamma0")
    _check_stream(gamma1, "gamma1")
    rows, cols, hits = _cross_maps(G, beta0, beta1, beta01, gamma0, gamma1)
    cert = SeparationCert("cross", {
        "beta0": G.to_json(beta0),
        "beta1": G.to_json(beta1),
        "beta01": G.to_json(beta01),
        "gamma0": [G.to_json(g) for g in gamma0],
        "gamma1": [G.to_json(g) for g in gamma1],
        "rho0": _last(rows),
        "rho1": _last(cols),
        **_sigma_fields(hits),
    })
    cert.verify()
    return cert


def _last(indices: Sequence[int]) -> int:
    """The last of the ascending indices, 0 when there is none."""
    return indices[-1] if indices else 0


def _least_above(indices: Sequence[int], lo: int, skip) -> Optional[int]:
    """The least of the ascending indices above lo other than skip."""
    i = bisect_right(indices, lo)
    return next((j for j in indices[i:i + 2] if j != skip), None)


def _verify_cross(data: dict) -> None:
    G, (gamma0, gamma1), (beta0, beta1, beta01) = _decode(
        [data["gamma0"], data["gamma1"]], [data[k] for k in ("beta0", "beta1", "beta01")])
    H0, H1 = len(gamma0), len(gamma1)
    rho0, rho1 = data["rho0"], data["rho1"]
    if not all(type(rho) is int and rho >= 0 for rho in (rho0, rho1)):
        raise VerificationError("cross-bounds", "rho0 and rho1 must be integers >= 0")
    pairs = {(a, b) for a, b in data["sigma"]}
    sigma = dict(pairs)
    if set(data["A"]) != set(sigma):
        raise VerificationError("cross-A", "A does not match sigma's domain")
    if not len(pairs) == len(sigma) == len(set(sigma.values())):
        raise VerificationError("cross-injective", "sigma is not an injective partial map")
    _check_window("cross-window", data["sigma"], H0, H1)
    rows, cols, hits = _cross_maps(G, beta0, beta1, beta01, gamma0, gamma1)
    bounds = _last(rows), _last(cols)
    for a, b in data["sigma"]:
        if b not in hits.get(a, ()):
            raise VerificationError(
                "cross-sigma", f"({a},{b}) is not a collision of the first two families")
    # Past the bounds and off sigma, each row's least colliding j1 is read
    # off the three maps.  A column candidate fails at rho0+1 or rho0+2
    # (injective, sigma skips it at one row at most), any other at its row.
    rows, every = set(rows), range(1, H1 + 1)
    for j0 in sorted(j for j in {rho0 + 1, rho0 + 2, *hits, *rows} if rho0 < j <= H0):
        skip = sigma.get(j0)
        candidates = [cols, hits.get(j0, [])] + ([every] if j0 in rows else [])
        found = [j for j in (_least_above(c, rho1, skip) for c in candidates)
                 if j is not None]
        if found:
            raise VerificationError(
                "cross-distinct", f"families collide at ({j0},{min(found)})")
    # The bounds are the builder's: the last row and column whose cross
    # value meets another family at every index of the other stream.
    if (rho0, rho1) != bounds:
        raise VerificationError(
            "cross-bounds", f"(rho0,rho1)=({rho0},{rho1}), but the maps give {bounds}")


# -- Multi-index separation (the inductive lemma) -----------------------

Entry = Tuple[object, Mapping[int, int], object]  # (label, {pos: mult}, beta)


def separate_indices(entries: Sequence[Entry], gammas: Sequence[Sequence],
                     rhos: Sequence[int]) -> List[int]:
    """Choose indices (j_e), rho_e < j_e <= H_e, making all entry values
    beta + sum(mult_e * gamma_{e,j_e}) pairwise distinct.

    Implements the inductive proof in a loop: the positions below the
    last are separated first, requiring distinctness only for entry pairs
    that carry equal multipliers at the peeled position (mixed pairs are
    separated by the tail step on the last index).  Multipliers may be any
    integers.
    Returns the lexicographically least tuple in that search order.

    The streams must already be validated (one value group, strictly
    increasing): only the entries the search reaches are read, so a
    stream may be a lazy view whose entries are computed on demand.
    Only each stream's first entry is checked against the betas' group.
    """
    n = len(gammas)
    if len(rhos) != n:
        raise InputError("rhos must match the number of streams")
    if not entries:
        raise InputError("no entries to separate")
    G = _head_group(gammas, *(beta for _, _, beta in entries))
    # Peel positions from the last: the pairs with unequal multipliers at
    # position m are separated there, the rest below it.
    required = [(i, j) for i in range(len(entries)) for j in range(i + 1, len(entries))]
    mixed_at = []
    for m in range(n - 1, -1, -1):
        mixed_at.append([(i, j) for i, j in required
                         if entries[i][1].get(m, 0) != entries[j][1].get(m, 0)])
        required = [(i, j) for i, j in required
                    if entries[i][1].get(m, 0) == entries[j][1].get(m, 0)]
    for i, j in required:
        if entries[i][2] == entries[j][2]:
            raise InputError(
                f"entries {entries[i][0]!r} and {entries[j][0]!r} cannot be "
                "separated: identical multipliers and equal offsets")
    # Then choose j_0, j_1, ... in turn, each the least one past rho_m that
    # separates its position's mixed pairs given the indices below it.
    js: List[int] = []
    for m, mixed in enumerate(reversed(mixed_at)):
        js.append(_least_index(G, entries, mixed, gammas, rhos, js, m))
    return js


def _entry_value(G: ValueGroup, entry: Entry, gammas, js, upto: int):
    _, mult, beta = entry
    total = beta
    for e, t in mult.items():
        if e <= upto and t != 0:
            total = G.add(total, G.scale(gammas[e][js[e] - 1], t))
    return total


def _least_index(G: ValueGroup, entries, mixed, gammas, rhos, js, m: int) -> int:
    for jm in range(rhos[m] + 1, len(gammas[m]) + 1):
        g = gammas[m][jm - 1]
        ok = True
        for i, j in mixed:
            bi = _entry_value(G, entries[i], gammas, js + [jm], m - 1)
            bj = _entry_value(G, entries[j], gammas, js + [jm], m - 1)
            if (G.add(bi, G.scale(g, entries[i][1].get(m, 0)))
                    == G.add(bj, G.scale(g, entries[j][1].get(m, 0)))):
                ok = False
                break
        if ok:
            return jm
    raise HorizonError(
        f"no admissible index for position {m} within the stream window")


def sep_multi(subsets: Sequence[Sequence[int]], betas: Sequence,
              ts: Sequence[int], gammas: Sequence[Sequence],
              rhos: Sequence[int]) -> SeparationCert:
    """Spec-shaped wrapper: entries are subsets of positions with a common
    positive multiplier t_e per position."""
    if not subsets:
        raise InputError("empty subset family")
    if len(subsets) != len(betas):
        raise InputError("need one beta per subset")
    if len(ts) != len(gammas):
        raise InputError("need one multiplier per stream")
    if any(t < 1 for t in ts):
        raise InputError("position multipliers must be positive")
    if any(rho < 0 for rho in rhos):
        raise InputError("rhos must be nonnegative")
    G = _common_group(gammas, *betas)
    for g in gammas:
        _check_stream(g)
    seen = set()
    entries: List[Entry] = []
    for sub, beta in zip(subsets, betas):
        key = tuple(sorted(set(sub)))
        if not key:
            raise InputError("subsets must be nonempty")
        if key in seen:
            raise InputError(f"duplicate subset {key}")
        seen.add(key)
        if any(e < 0 or e >= len(gammas) for e in key):
            raise InputError(f"subset {key} names a position without a stream")
        entries.append((list(key), {e: ts[e] for e in key}, beta))
    js = separate_indices(entries, gammas, rhos)
    cert = SeparationCert("multi", {
        "entries": [[label, sorted((e, t) for e, t in mult.items()), G.to_json(beta)]
                    for label, mult, beta in entries],
        "gammas": [[G.to_json(g) for g in stream] for stream in gammas],
        "rhos": list(rhos),
        "js": js,
    })
    cert.verify()
    return cert


def _verify_multi(data: dict) -> None:
    G, gammas, betas = _decode(data["gammas"], [beta for _, _, beta in data["entries"]])
    js = [require_int(j, "js") for j in data["js"]]
    rhos = [require_int(rho, "rhos") for rho in data["rhos"]]
    if len(js) != len(gammas) or len(rhos) != len(gammas):
        raise VerificationError(
            "multi-shape", "index tuple or bounds do not match streams")
    if any(rho < 0 for rho in rhos):
        raise VerificationError("multi-bounds", f"rhos={rhos} has a negative bound")
    for e, j in enumerate(js):
        if not (rhos[e] < j <= len(gammas[e])):
            raise VerificationError("multi-bounds", f"index j_{e}={j} out of range")
    values = []
    for (label, pairs, _), beta in zip(data["entries"], betas):
        mult: Dict[int, int] = {}
        for e, t in pairs:
            if not 0 <= require_int(e, "entry position") < len(gammas):
                raise VerificationError(
                    "multi-shape", f"entry {label!r} names position {e} without a stream")
            if require_int(t, "entry multiplier") < 1:
                raise VerificationError(
                    "multi-shape", f"entry {label!r} has multiplier {t} < 1")
            mult[e] = mult.get(e, 0) + t
        values.append((label, _entry_value(G, (label, mult, beta), gammas, js, len(js))))
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i][1] == values[j][1]:
                raise VerificationError(
                    "multi-distinct",
                    f"entries {values[i][0]!r} and {values[j][0]!r} coincide")


_VERIFIERS = {
    "tail": _verify_tail,
    "shifted": _verify_shifted,
    "cross": _verify_cross,
    "multi": _verify_multi,
}

