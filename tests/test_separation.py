"""Index-separation certificates, all verified by exhaustive exact checks."""
import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from valcert.errors import InputError, VerificationError
from valcert.group import INTEGERS as ZZ, RATIONALS, Lex, element_from_json, group_of
from valcert import separation
from valcert.cli import run_single
from valcert.separation import (SeparationCert, _common_group, _decode, _tail_fault,
                                sep_cross_pair, sep_multi, sep_shifted_pair, sep_tail,
                                separate_indices)



def stream(H=200, fn=lambda s: s):
    # gamma_s for s = 1..H (1-indexed entries stored 0-based)
    return [fn(s) for s in range(1, H + 1)]


def lex_stream(H=200):
    return [(0, s) for s in range(1, H + 1)]


class TestTail:
    def test_no_collision(self):
        # [DERIVED] beta=[0,5], t=[1,2], gamma_s=s: 0+s < 5+2s for all s>=1
        cert = sep_tail([0, 5], [1, 2], stream())
        assert cert.data["nu"] == 0 and cert.data["r"] == 0
        cert.verify()

    def test_single_collision(self):
        # [DERIVED] beta=[0,3], t=[2,1]: 2s = 3+s at s=3; nu=3, r=1
        cert = sep_tail([0, 3], [2, 1], stream())
        assert cert.data["nu"] == 3 and cert.data["r"] == 1
        cert.verify()

    def test_single_entry(self):
        # [TRIVIAL] nothing to separate
        cert = sep_tail([7], [4], stream())
        assert cert.data["nu"] == 0 and cert.data["r"] == 0
        cert.verify()

    def test_hypothesis_violated(self):
        # equal (beta, t) pairs can never separate
        with pytest.raises(InputError):
            sep_tail([1, 1], [2, 2], stream())

    def test_lex_variant(self):
        cert = sep_tail([(0, 0), (1, 0)], [1, 3], lex_stream())
        cert.verify()

    def test_tamper_rejected(self):
        cert = sep_tail([0, 3], [2, 1], stream())
        bad = copy.deepcopy(cert.to_json())
        bad["nu"] = 2  # claims separation already from s=3, but 6 == 6 there
        with pytest.raises(VerificationError):
            SeparationCert.from_json(bad).verify()


class TestShiftedPair:
    def test_arithmetic_shift(self):
        # [DERIVED] b0=0, b1=2, c=1, gamma_j=j: collisions j1 = j0 - 3, j0 >= 4
        cert = sep_shifted_pair(0, 2, 1, stream())
        assert cert.data["A"][:3] == [4, 5, 6]
        sigma = dict((int(k), int(v)) for k, v in cert.data["sigma"])
        assert sigma[4] == 1 and sigma[10] == 7
        cert.verify()

    def test_identity_map(self):
        # [TRIVIAL] equal betas, zero shift: sigma = identity on all indices
        cert = sep_shifted_pair(3, 3, 0, stream())
        sigma = dict((int(k), int(v)) for k, v in cert.data["sigma"])
        assert all(sigma[j] == j for j in cert.data["A"])
        cert.verify()

    def test_unreachable_shift(self):
        # [TRIVIAL] half-integer shift cannot collide in a Z-stream
        cert = sep_shifted_pair(0, 0, 1, [2 * s for s in range(1, 101)])
        assert cert.data["A"] == []
        cert.verify()


class TestCrossPair:
    def test_spec_example(self):
        # [DERIVED] b0=5, b1=0, b01=0, gamma=j: rho1=5 (P0=P01 at gamma1=5),
        # rho0=0, sigma(j0)=j0+5
        cert = sep_cross_pair(5, 0, 0, stream(), stream())
        assert cert.data["rho0"] == 0 and cert.data["rho1"] == 5
        sigma = dict((int(k), int(v)) for k, v in cert.data["sigma"])
        assert sigma[1] == 6
        cert.verify()

    def test_existence_past_bounds(self):
        # some (j0, j1) past the bounds gives three pairwise distinct values
        cert = sep_cross_pair(5, 0, 0, stream(), stream())
        rho0, rho1 = cert.data["rho0"], cert.data["rho1"]
        sigma = dict((int(k), int(v)) for k, v in cert.data["sigma"])
        j0 = rho0 + 1
        j1 = next(j for j in range(rho1 + 1, rho1 + 10) if sigma.get(j0) != j)
        vals = {5 + j0, 0 + j1, 0 + j0 + j1}
        assert len(vals) == 3

    def test_convex_stream(self):
        # [DERIVED] equal betas, gamma1 strictly convex
        cert = sep_cross_pair(0, 0, 0, stream(),
                              [s * s for s in range(1, 201)])
        cert.verify()


class TestMulti:
    def test_three_subsets(self):
        # [DERIVED] S = {{0},{1},{0,1}}, values 1, 2, 3 at js=[1,2]
        g = stream()
        cert = sep_multi([[0], [1], [0, 1]], [0] * 3, [1, 1], [g, g], [0, 0])
        assert cert.data["js"] == [1, 2]
        cert.verify()

    def test_singleton(self):
        # [TRIVIAL] single subset: j0 = rho0 + 1
        cert = sep_multi([[0]], [0], [1], [stream()], [3])
        assert cert.data["js"] == [4]
        cert.verify()

    def test_beta_separated_pair(self):
        # [DERIVED] different betas already separate at the least indices
        g = stream()
        cert = sep_multi([[0], [1]], [0, 1], [1, 1], [g, g], [0, 0])
        assert cert.data["js"] == [1, 1]
        cert.verify()

    def test_equal_entries_rejected(self):
        with pytest.raises(InputError):
            sep_multi([[0], [0]], [0, 0], [1], [stream()], [0])

    def test_tamper_rejected(self):
        g = stream()
        cert = sep_multi([[0], [1], [0, 1]], [0] * 3, [1, 1], [g, g], [0, 0])
        bad = copy.deepcopy(cert.to_json())
        bad["js"] = [1, 1]  # values 1, 1, 2: not pairwise distinct
        with pytest.raises(VerificationError):
            SeparationCert.from_json(bad).verify()


class GuardedStream:
    """gamma_s = s over a long window whose entries past `last` (0-based)
    must not be read."""

    def __init__(self, last, H=10 ** 6):
        self.last, self.H = last, H

    def __len__(self):
        return self.H

    def __getitem__(self, i):
        assert i <= self.last, f"entry {i} read past the chosen index"
        return i + 1


class TestStreamChecks:
    def test_monotonicity_required(self):
        with pytest.raises(InputError):
            sep_shifted_pair(0, 0, 0, [2, 1])

    # two equal adjacent entries: a nondecreasing stream is not enough
    FLAT = [1, 2, 2, 3, 4, 5]
    FLAT_STREAMS = {
        "tail": ({"op": "tail", "betas": [0, 3], "ts": [2, 1], "gamma": FLAT}, "gamma"),
        "shifted": ({"op": "shifted", "beta0": 0, "beta1": 1, "c": 1, "gamma0": FLAT},
                    "gamma"),
        "cross-gamma0": ({"op": "cross", "beta0": 0, "beta1": 5, "beta01": 0,
                          "gamma0": FLAT, "gamma1": stream(6)}, "gamma0"),
        "cross-gamma1": ({"op": "cross", "beta0": 0, "beta1": 5, "beta01": 0,
                          "gamma0": stream(6), "gamma1": FLAT}, "gamma1"),
        "multi": ({"op": "multi", "subsets": [[0]], "betas": [0], "ts": [1],
                   "gammas": [FLAT]}, "gamma"),
    }

    @pytest.mark.parametrize("case", sorted(FLAT_STREAMS))
    def test_equal_adjacent_entries_rejected(self, case):
        cfg, name = self.FLAT_STREAMS[case]
        assert run_single("separate", cfg, {}) == (
            1, f"input error: {name} stream must be strictly increasing")

    def test_search_reads_only_what_it_needs(self):
        # [DERIVED] as test_three_subsets: js = [1, 2] reads gamma_1, gamma_2
        entries = [(sub, {e: 1 for e in sub}, 0) for sub in ([0], [1], [0, 1])]
        js = separate_indices(entries, [GuardedStream(0), GuardedStream(1)], [0, 0])
        assert js == [1, 2]

    def test_multi_checks_whole_streams(self):
        # the entries past the chosen index are still validated
        with pytest.raises(InputError):
            sep_multi([[0]], [0], [1], [[1, 3, 2]], [0])
        with pytest.raises(InputError):
            sep_multi([[0]], [0], [1], [[1, 2, (0, 3)]], [0])

    def test_json_roundtrip(self):
        cert = sep_tail([0, 3], [2, 1], stream())
        back = SeparationCert.from_json(cert.to_json())
        back.verify()
        assert back.to_json() == cert.to_json()


class TestOtherGroups:
    def test_rational_stream(self):
        # [DERIVED] gamma_s = s/2, beta=[0, 3/2], t=[2, 1]: s = 3/2 + s/2 at s=3
        gamma = [Fraction(s, 2) for s in range(1, 101)]
        cert = sep_tail([Fraction(0), Fraction(3, 2)], [2, 1], gamma)
        assert cert.data["nu"] == 3 and cert.data["betas"] == ["0/1", "3/2"]
        SeparationCert.from_json(cert.to_json()).verify()

    def test_mixed_groups_rejected(self):
        lex = [(0, s) for s in range(1, 51)]
        with pytest.raises(InputError):
            sep_tail([0, (1, 0)], [1, 2], lex)  # an int beta with lex gammas
        with pytest.raises(InputError):
            sep_shifted_pair(Fraction(0), 0, Fraction(1), [Fraction(s) for s in range(1, 9)])
        with pytest.raises(InputError):
            sep_cross_pair((0, 0), (0, 0), (0, 0), lex, [(0, 0, s) for s in range(1, 51)])

    def test_verify_rejects_mixed_certificate(self):
        bad = sep_tail([(0, 0), (1, 0)], [1, 3], lex_stream()).to_json()
        bad["betas"][0] = 0
        with pytest.raises(InputError):
            SeparationCert.from_json(bad).verify()


# -- the table-driven tail and hash-indexed pair verifiers against scans ---

def scan_tail(data):
    """The tail verifier that compared the m values at each index with
    _tail_fault, kept as an oracle."""
    G, (gamma,), betas = _decode([data["gamma"]], data["betas"])
    ts, nu, r = data["ts"], data["nu"], data["r"]
    m, H = len(betas), len(gamma)
    if not (isinstance(ts, list) and len(ts) == m and all(type(t) is int for t in ts)):
        raise VerificationError("tail-bounds", f"ts must list {m} integers, one per beta")
    if not (type(nu) is int and 0 <= nu <= H):
        raise VerificationError("tail-bounds", f"nu={nu!r} lies outside [0,{H}]")
    if not (r is None or type(r) is int and 0 <= r < m):
        raise VerificationError("tail-bounds", f"r={r!r} is neither null nor in [0,{m})")
    if (r is None) != any(t <= 0 for t in ts):
        raise VerificationError("tail-bounds", f"r={r!r}, but r is null exactly when some t <= 0")
    if r is not None and nu == H:
        raise VerificationError("tail-bounds", f"r={r}, but nu={H} leaves no index past it")
    for s in range(nu + 1, H + 1):
        fault = _tail_fault(G, betas, ts, gamma[s - 1], r)
        if fault:
            raise VerificationError(fault[0], f"{fault[1]} at s={s}")
    if nu > 0 and not _tail_fault(G, betas, ts, gamma[nu - 1], r):
        raise VerificationError(
            "tail-minimal-nu", f"claims hold at s={nu} already; nu is not minimal")


def scan_shifted(data):
    """The O(H^2) scan the shifted verifier once was, kept as an oracle."""
    beta0, beta1, c = (element_from_json(data[k]) for k in ("beta0", "beta1", "c"))
    gamma0 = [element_from_json(g) for g in data["gamma0"]]
    G = group_of(beta0)
    pairs = {(a, b) for a, b in data["sigma"]}
    p0s = [G.add(beta0, g) for g in gamma0]
    p1s = [G.add(G.add(beta1, g), c) for g in gamma0]
    for j0, p0 in enumerate(p0s, 1):
        for j1, p1 in enumerate(p1s, 1):
            if (p0 == p1) != ((j0, j1) in pairs):
                raise VerificationError(
                    "shifted-exhaustive", f"collision map wrong at ({j0},{j1})")


def scan_cross(data):
    """The O(H^2) scan the cross verifier once was, kept as an oracle."""
    beta0, beta1, beta01 = (element_from_json(data[k]) for k in ("beta0", "beta1", "beta01"))
    gamma0, gamma1 = ([element_from_json(g) for g in data[k]] for k in ("gamma0", "gamma1"))
    G = group_of(beta0)
    rho0, rho1 = data["rho0"], data["rho1"]
    pairs = {(a, b) for a, b in data["sigma"]}
    for j0 in range(rho0 + 1, len(gamma0) + 1):
        p0, q0 = G.add(beta0, gamma0[j0 - 1]), G.add(beta01, gamma0[j0 - 1])
        for j1 in range(rho1 + 1, len(gamma1) + 1):
            if (j0, j1) in pairs:
                continue
            p1, p01 = G.add(beta1, gamma1[j1 - 1]), G.add(q0, gamma1[j1 - 1])
            if p0 == p1 or p0 == p01 or p1 == p01:
                raise VerificationError(
                    "cross-distinct", f"families collide at ({j0},{j1})")


# each group with a map from small ints into it: drawing from few small
# ints makes repeated values and collisions common
EMBEDDINGS = [(ZZ, lambda v: v), (RATIONALS, lambda v: Fraction(v, 2)),
              (Lex(2), lambda v: (v % 2, v // 2))]
small = st.integers(-3, 4)
# indices a mutation may write into sigma: in and out of the window, and
# values that equal an index without being an integer
loose_index = st.one_of(st.integers(-1, 9), st.sampled_from([True, 1.0, 1.5]))


def is_index(j, H):
    return type(j) is int and 1 <= j <= H


def sigma_fault(A, sigma, H0, H1):
    """The claim at which both pair verifiers reject the shape of sigma, or
    None: window for a pair outside the window or not made of integers,
    injective for a pair, j0 or j1 listed twice, and A for an A that does
    not list sigma's domain once each."""
    if not all(is_index(a, H0) and is_index(b, H1) for a, b in sigma):
        return "window"
    j0s, j1s = [a for a, _ in sigma], [b for _, b in sigma]
    if len(set(j0s)) < len(sigma) or len(set(j1s)) < len(sigma):
        return "injective"
    return "A" if sorted(A) != sorted(j0s) else None


@st.composite
def raw_stream(draw, embed, min_size=1, max_size=7):
    values = draw(st.lists(small, min_size=min_size, max_size=max_size))
    if draw(st.booleans()):
        values = sorted(set(values))  # the honest shape: strictly increasing
    return [embed(v) for v in values]


def outcome(check, data):
    try:
        check(data)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)
    return None


@st.composite
def shifted_certificates(draw):
    """A shifted certificate with the true collision map, then mutated."""
    G, embed = draw(st.sampled_from(EMBEDDINGS))
    gamma = draw(raw_stream(embed))
    beta0, beta1, c = (embed(draw(small)) for _ in range(3))
    H = len(gamma)
    sigma = [[j0, j1] for j0 in range(1, H + 1) for j1 in range(1, H + 1)
             if G.add(beta0, gamma[j0 - 1]) == G.add(G.add(beta1, gamma[j1 - 1]), c)]
    A = [a for a, _ in sigma]
    mutation = draw(st.sampled_from(["none", "drop", "add", "move", "A", "c", "beta0"]))
    if mutation == "drop" and sigma:
        sigma.pop(draw(st.integers(0, len(sigma) - 1)))
    elif mutation == "add":
        pair = [draw(loose_index), draw(loose_index)]
        sigma.append(pair)
        if draw(st.booleans()):
            A.append(pair[0])
    elif mutation == "move" and sigma:
        sigma[draw(st.integers(0, len(sigma) - 1))][1] += draw(st.sampled_from([-1, 1]))
    elif mutation == "A":
        A.append(draw(st.integers(0, H + 1)))
    elif mutation == "c":
        c = embed(draw(small))
    elif mutation == "beta0":
        beta0 = embed(draw(small))
    data = {"beta0": G.to_json(beta0), "beta1": G.to_json(beta1), "c": G.to_json(c),
            "gamma0": [G.to_json(g) for g in gamma], "A": A, "sigma": sigma}
    return data, sigma_fault(A, sigma, H, H)


@st.composite
def cross_certificates(draw):
    """A cross certificate built as sep_cross_pair builds it, from streams
    that may repeat or fall, then mutated."""
    G, embed = draw(st.sampled_from(EMBEDDINGS))
    gamma0, gamma1 = draw(raw_stream(embed)), draw(raw_stream(embed))
    beta0, beta1, beta01 = (embed(draw(small)) for _ in range(3))
    H0, H1 = len(gamma0), len(gamma1)

    def bounds():
        # the last row and column the cross family meets another family at
        return (max((j for j, g in enumerate(gamma0, 1) if g == G.sub(beta1, beta01)), default=0),
                max((j for j, g in enumerate(gamma1, 1) if g == G.sub(beta0, beta01)), default=0))

    rho0, rho1 = bounds()
    last1 = {g: j for j, g in enumerate(gamma1, 1)}
    sigma = [[j0, last1[G.add(g, G.sub(beta0, beta1))]] for j0, g in enumerate(gamma0, 1)
             if G.add(g, G.sub(beta0, beta1)) in last1]
    A = [a for a, _ in sigma]
    mutation = draw(st.sampled_from(
        ["none", "drop", "drop-with-A", "add", "move", "rho", "beta", "every-pair"]))
    if mutation in ("drop", "drop-with-A") and sigma:
        a, _ = sigma.pop(draw(st.integers(0, len(sigma) - 1)))
        if mutation == "drop-with-A":
            A.remove(a)
    elif mutation == "add":
        sigma.append([draw(loose_index), draw(loose_index)])
        A.append(sigma[-1][0])
    elif mutation == "move" and sigma:
        sigma[draw(st.integers(0, len(sigma) - 1))][1] += draw(st.sampled_from([-1, 1]))
    elif mutation == "rho":
        rho0 += draw(st.integers(-2, 2))
        rho1 += draw(st.integers(-2, 2))
    elif mutation == "beta":
        beta01 = embed(draw(small))
    elif mutation == "every-pair":
        sigma = [[j0, j1] for j0 in range(1, H0 + 1) for j1 in range(1, H1 + 1)]
        A = list(range(1, H0 + 1))
    data = {"beta0": G.to_json(beta0), "beta1": G.to_json(beta1),
            "beta01": G.to_json(beta01), "gamma0": [G.to_json(g) for g in gamma0],
            "gamma1": [G.to_json(g) for g in gamma1], "rho0": rho0, "rho1": rho1,
            "A": A, "sigma": sigma}
    # the shapes the scan let through and the verifier now rejects
    pairs = {(a, b) for a, b in sigma}
    newly_rejected = (
        min(rho0, rho1) < 0 or sigma_fault(A, sigma, H0, H1) is not None
        or any(G.add(beta0, gamma0[a - 1]) != G.add(beta1, gamma1[b - 1]) for a, b in pairs)
        # bounds other than the builder's that the scan accepts: the
        # verifier's collision loop passes them too and stops at cross-bounds
        or ((rho0, rho1) != bounds() and outcome(scan_cross, data) is None))
    return data, newly_rejected


def tail_data(G, betas, ts, gamma):
    """A tail certificate's data with the builder's r and nu (the last
    index at which the scan's check fails)."""
    r = None
    if all(t > 0 for t in ts):
        end = G.shifts(betas, ts, gamma[-1])
        r = end.index(min(end))
    nu = next((s for s in range(len(gamma), 0, -1)
               if _tail_fault(G, betas, ts, gamma[s - 1], r)), 0)
    return {"betas": [G.to_json(b) for b in betas], "ts": ts,
            "gamma": [G.to_json(g) for g in gamma], "nu": nu, "r": r}


@st.composite
def tail_certificates(draw):
    """A tail certificate over a stream that may repeat or fall, with ts in
    -2..3 (equal, zero and negative ones included) and up to 8 betas
    against up to 12 stream entries, so that the verifier takes either
    arm; then nu or r edited."""
    G, embed = draw(st.sampled_from(EMBEDDINGS))
    gamma = draw(raw_stream(embed, draw(st.integers(1, 12)), 12))
    m = draw(st.integers(1, draw(st.sampled_from([max(1, len(gamma) // 2), 8]))))
    betas = [embed(draw(small)) for _ in range(m)]
    t = st.integers(draw(st.sampled_from([-2, 1])), 3)  # all positive half of the time
    data = tail_data(G, betas, draw(st.lists(t, min_size=m, max_size=m)), gamma)
    edit = draw(st.sampled_from(["none", "nu", "r"]))
    if edit == "nu":
        data["nu"] = draw(st.integers(-1, len(gamma) + 1))
    elif edit == "r":
        data["r"] = draw(st.sampled_from([None, *range(m)]))
    return data, False


def same_verdict(kind, scan, case):
    data, newly_rejected = case
    cert = {"cert": "separation", "kind": kind, **data}
    if newly_rejected:
        with pytest.raises(VerificationError) as exc:
            SeparationCert.from_json(cert).verify()
        # a shifted certificate's fault names its claim
        assert newly_rejected is True or exc.value.claim == f"{kind}-{newly_rejected}"
    else:
        verify = lambda obj: SeparationCert.from_json(obj).verify()
        assert outcome(verify, cert) == outcome(scan, data)


class TestAgainstPairScan:
    """The table-driven tail verifier gives the per-index scan's verdict and
    message (the least failing index first), and the hash-indexed pair
    verifiers give the pair-by-pair scan's (the least failing pair first),
    on honest and mutated certificates over Z, Q and lex Z^2.  The pair
    verifiers also reject the sigma shapes the scan let through: pairs
    outside the window or not made of integers, a pair, j0 or j1 listed
    twice, an A that does not list sigma's domain once each, and in the
    cross case negative bounds, bounds other than the builder's that the
    scan accepts, or a sigma listing a non-collision."""

    @settings(max_examples=300, deadline=None)
    @given(tail_certificates())
    def test_tail(self, case):
        same_verdict("tail", scan_tail, case)

    @pytest.mark.parametrize("kind, scan, data", [
        # entries 0, 1 collide at every g, and entries 2, 3 at g = 2 too
        ("tail", scan_tail, {"betas": [0, 0, 1, 3], "ts": [1, 1, 2, 1],
                             "gamma": list(range(1, 9)), "nu": 1, "r": 0}),
        # t_0 = t_2 = t_r: entry 0 lies above r at every g, entry 2 below
        ("tail", scan_tail, {"betas": [5, 3, 1], "ts": [1, 1, 1],
                             "gamma": list(range(1, 7)), "nu": 0, "r": 1}),
        # sigma skips column 3, the one past rho1, at row 1: row 2 fails
        ("cross", scan_cross, {"beta0": 3, "beta1": 1, "beta01": 0, "gamma0": [1, 2, 3],
                               "gamma1": [1, 2, 3], "rho0": 0, "rho1": 2, "A": [1],
                               "sigma": [[1, 3]]}),
    ])
    def test_rare_faults(self, kind, scan, data):
        assert outcome(scan, data) is not None
        same_verdict(kind, scan, (data, False))

    @pytest.mark.parametrize("gamma", [[1, 2, 4], [1, 2, 4, 5, 6, 7]])
    def test_tail_minimum_below_r(self, gamma):
        # at g = 4 the values are 12, 14, 11: entry 2 (d = -1 against r = 0)
        # lies below r, on either arm (2m > H, then 2m <= H)
        cert = {"cert": "separation", "kind": "tail", "betas": [0, 10, 3], "ts": [3, 1, 2],
                "gamma": gamma, "nu": 0, "r": 0}
        assert run_single("verify", cert, {}) == (
            4, "verification failed: verification failed at tail-minimum: "
            "entry 0 not strictly minimal at s=3")

    @settings(max_examples=400, deadline=None)
    @given(shifted_certificates())
    def test_shifted(self, case):
        same_verdict("shifted", scan_shifted, case)

    @settings(max_examples=400, deadline=None)
    @given(cross_certificates())
    def test_cross(self, case):
        same_verdict("cross", scan_cross, case)


class TestTailArms:
    """The tail verifier builds the pair table only when 2m <= H and else
    compares the m values at each index; either arm gives the scan's
    verdict on an honest certificate and on one with nu lowered."""

    def verdicts(self, monkeypatch, m, H, unused):
        # ts 1..4 and betas 0..m/4 collide at gamma_s = s <= m/4 only
        cases = []
        for lower in (0, 1):
            data = tail_data(ZZ, [k // 4 for k in range(m)], [1 + k % 4 for k in range(m)],
                             list(range(1, H + 1)))
            data["nu"] -= lower
            cases.append((data, outcome(scan_tail, data)))
        assert cases[0][1] is None and "tail-distinct" in cases[1][1][1]

        def unreachable(*args):
            raise AssertionError(f"{unused} called")
        monkeypatch.setattr(separation, unused, unreachable)
        for data, want in cases:
            cert = {"cert": "separation", "kind": "tail", **data}
            assert outcome(lambda c: SeparationCert.from_json(c).verify(), cert) == want

    def test_many_betas_compare_values(self, monkeypatch):
        self.verdicts(monkeypatch, 40, 20, "_pair_table")

    def test_few_betas_look_up_the_table(self, monkeypatch):
        self.verdicts(monkeypatch, 10, 20, "_tail_fault")


# -- the one-pass stream decode against the per-element decode -------------

def per_element_decode(streams, values):
    """Each entry decoded on its own, then checked against the first
    stream's group: the decode the verifiers ran before streams were
    decoded in one pass."""
    values = [element_from_json(x) for x in values]
    streams = [[element_from_json(x) for x in s] for s in streams]
    return _common_group(streams, *values), streams, values


# JSON entries of every shape a certificate may hold: mostly elements of
# one group, so that whole inputs are often accepted, and junk besides
json_int = st.integers(-5, 5)
json_entry = st.one_of(
    json_int, json_int.map(lambda v: f"{v}/2"), st.lists(json_int, min_size=2, max_size=2),
    st.booleans(), st.sampled_from(["1/0", "x", "", 1.0, None, {}, [[1, 2]], [True, 1]]),
    st.lists(json_int, max_size=3))
json_stream = st.one_of(st.lists(json_entry, max_size=5), json_entry)


@st.composite
def json_inputs(draw):
    """Streams and values drawn in one form (one group, or any entry), half
    of the time with junk entries and streams mixed in."""
    form = draw(st.sampled_from([json_int, json_int.map(lambda v: f"{v}/3"),
                                 st.lists(json_int, min_size=2, max_size=2), json_entry]))
    stream, entry = st.lists(form, min_size=1, max_size=5), form
    if draw(st.booleans()):
        stream, entry = st.one_of(stream, json_stream), st.one_of(form, json_entry)
    return draw(st.lists(stream, max_size=3)), draw(st.lists(entry, max_size=3))


class TestDecode:
    """On JSON lists of JSON lists, _decode accepts exactly what the
    per-element decode accepts, with equal values; everything else is an
    InputError."""

    @settings(max_examples=200, deadline=None)
    @given(json_inputs())
    def test_against_per_element_decode(self, case):
        streams, values = case
        lists = all(isinstance(s, list) for s in streams)
        want = outcome(lambda c: per_element_decode(*c), case) if lists else "no list"
        if want is None:
            assert repr(_decode(streams, values)) == repr(per_element_decode(streams, values))
        else:
            with pytest.raises(InputError):
                _decode(streams, values)

    @pytest.mark.parametrize("streams, values", [
        (["123456789"], ["0/1"]), ([[1, 2], 3], [0]), ("12", ["0/1"]), ([[1, 2]], "0"),
        ([[1, 2]], 0)])
    def test_only_lists_are_streams(self, streams, values):
        # a string is iterable, but no stream: "123" is not the Q stream 1, 2, 3
        with pytest.raises(InputError):
            _decode(streams, values)


# -- the index search against its per-pair reference ------------------------

class LazyStream:
    """A strictly increasing stream whose entries are made when read; it
    records the highest entry read."""

    def __init__(self, values):
        self.values, self.top = values, -1

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        self.top = max(self.top, i)
        return self.values[i]


# embeddings of increasing integers that keep their order
ORDERED = [(ZZ, lambda v: v), (RATIONALS, lambda v: Fraction(v, 2)),
           (Lex(2), lambda v: (v // 3, v % 3))]


@st.composite
def index_searches(draw):
    """Entries with multipliers in -2..2 (0 included) over 1 to 3 lazy
    streams, with their bounds rhos."""
    G, embed = draw(st.sampled_from(ORDERED))
    n = draw(st.integers(1, 3))
    streams = [sorted(set(draw(st.lists(st.integers(-4, 12), min_size=2, max_size=10))))
               for _ in range(n)]
    entries = [(k, draw(st.dictionaries(st.integers(0, n - 1), st.integers(-2, 2), max_size=n)),
                embed(draw(st.integers(-6, 6))))
               for k in range(draw(st.integers(1, 6)))]
    rhos = [draw(st.integers(0, 1)) for _ in range(n)]
    gammas = [[embed(v) for v in s] for s in streams]
    if len(entries) > 1 and all(r < len(s) for r, s in zip(rhos, gammas)) and draw(st.booleans()):
        # plant a collision of two entries at the least indices
        i, j = draw(st.permutations(range(len(entries))))[:2]
        beta = entries[i][2]
        for e, gamma in enumerate(gammas):
            t = entries[i][1].get(e, 0) - entries[j][1].get(e, 0)
            beta = G.add(beta, G.scale(gamma[rhos[e]], t))
        entries[j] = (j, entries[j][1], beta)
    return G, gammas, entries, rhos


class TestIndexSearch:
    """The search computes each entry's value below a position once; it
    returns the per-pair reference's indices, or raises its error, reads
    no stream entry past the index it returns, and the entry values at
    those indices are pairwise distinct."""

    @settings(max_examples=300, deadline=None)
    @given(index_searches())
    def test_against_reference(self, case):
        G, values, entries, rhos = case
        streams = [LazyStream(v) for v in values]

        def result(search, gammas):
            try:
                return search(entries, gammas, rhos)
            except Exception as exc:  # compared by type and message
                return type(exc).__name__, str(exc)
        js = result(separate_indices, streams)
        assert js == result(oracles.least_indices, values)
        if isinstance(js, list):
            assert all(s.top <= j - 1 for s, j in zip(streams, js))
            vals = [separation._entry_value(G, entry, values, js, len(js)) for entry in entries]
            assert len(set(vals)) == len(vals)
