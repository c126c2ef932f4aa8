"""Index-separation certificates, all verified by exhaustive exact scans."""
import copy
from fractions import Fraction

import pytest

from valcert.errors import HorizonError, InputError, VerificationError
from valcert.separation import (SeparationCert, sep_cross_pair, sep_multi,
                                sep_shifted_pair, sep_tail, separate_indices,
                                verify_separation)



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
            verify_separation(bad)


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
            verify_separation(bad)


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
        verify_separation(cert.to_json())

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
            verify_separation(bad)
