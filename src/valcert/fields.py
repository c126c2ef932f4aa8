"""Exact base-field scalars: the rationals, or a prime field F_p.

Scalars are stored raw (Fraction for Q, small ints for F_p); a Field
object supplies what series and polynomials need so they stay agnostic.
Series keep their coefficients in integer-normal form -- integer
numerators over one positive denominator, in lowest terms -- and a Field
supplies the hooks of that form: `fold` maps an accumulated integer
numerator to its representative (itself over Q, its residue mod p over
F_p), `normalise` brings numerators over a denominator to lowest terms
(over F_p the denominator is then 1), and `scalars` turns them back into
field scalars for the `terms` view.  A scalar enters through its
`numerator` and `denominator`, which Fractions and ints both have.

Series JSON is read and written in that form too, without Fractions:
`ratio_from_json` reads a canonical "n/d" or an int as two ints, and any
other spelling through `coeff_from_json`; `terms_to_json` writes
numerators over a denominator.
"""
from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable

from .errors import InputError, VariantMismatchError, require_int

# The canonical spelling of a rational scalar: ASCII digits only.
_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)")


# Miller-Rabin with the prime bases 2..37 decides primality exactly below
# PRIME_LIMIT (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether p is prime, for p < PRIME_LIMIT; a larger p is refused."""
    if p >= PRIME_LIMIT:
        raise InputError(f"p = {p} is too large: primality is decided below {PRIME_LIMIT}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in _MR_BASES)


class Field:
    name: str
    # fold(n): the representative of an integer numerator; a builtin
    # callable, since series arithmetic calls it once per term.
    fold: Callable[[int], int]

    def one(self):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def normalise(self, nums: list, den: int) -> tuple:
        """(nums, den) in lowest terms, den > 0, for (key, n) pairs of
        folded nonzero integers over a nonzero denominator."""
        raise NotImplementedError

    def scalars(self, nums: tuple, den: int) -> tuple:
        """The (key, n / den) pairs of a normal form, as field scalars."""
        raise NotImplementedError

    def coeff_to_json(self, a):
        raise NotImplementedError

    def coeff_from_json(self, obj):
        raise NotImplementedError

    def ratio_from_json(self, obj) -> tuple:
        """(numerator, denominator) ints of the scalar coeff_from_json reads
        from obj, with its exceptions."""
        raise NotImplementedError

    def terms_to_json(self, nums: tuple, den: int, exp_to_json) -> list:
        """The [exponent, scalar] JSON terms of a normal form."""
        raise NotImplementedError

    def check_same(self, other: "Field") -> None:
        if self is not other and self != other:
            raise VariantMismatchError(f"fields {self} vs {other}")


class RationalField(Field):
    name = "Q"
    fold = operator.pos

    def one(self):
        return Fraction(1)

    def is_zero(self, a) -> bool:
        return a == 0

    def normalise(self, nums, den):
        g = abs(den)
        for _, n in nums:
            g = math.gcd(g, n)
            if g == 1:
                break
        if den < 0:
            g = -g
        if g == 1:
            return nums, den
        return [(k, n // g) for k, n in nums], den // g

    def scalars(self, nums, den):
        return tuple((k, Fraction(n, den)) for k, n in nums)

    def coeff_to_json(self, a):
        return f"{a.numerator}/{a.denominator}"

    def coeff_from_json(self, obj):
        if isinstance(obj, bool):
            raise InputError("booleans are not scalars")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            try:
                return Fraction(obj)
            except ZeroDivisionError as exc:
                raise InputError(f"cannot read rational {obj!r}: {exc}")
        raise InputError(f"cannot decode rational from {obj!r}")

    def ratio_from_json(self, obj):
        if type(obj) is int:
            return obj, 1
        m = _RATIO.fullmatch(obj) if type(obj) is str else None
        if m:
            # not reduced here: the series' normal form is brought to
            # lowest terms once, as a whole
            n, d = int(m[1]), int(m[2])
            if d:
                return n, d
        c = self.coeff_from_json(obj)
        return c.numerator, c.denominator

    def terms_to_json(self, nums, den, exp_to_json):
        gcd = math.gcd
        return [[exp_to_json(e), f"{n // (g := gcd(n, den))}/{den // g}"]
                for e, n in nums]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.fold = p.__rmod__  # n -> n % p

    def one(self):
        return 1

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def normalise(self, nums, den):
        p = self.p
        u = pow(den, -1, p)
        return [(k, n * u % p) for k, n in nums], 1

    def scalars(self, nums, den):
        # the numerators are the residues, over the denominator 1
        return nums

    def coeff_to_json(self, a):
        return int(a % self.p)

    def coeff_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise InputError(f"cannot decode residue from {obj!r}")
        return obj % self.p

    def ratio_from_json(self, obj):
        return (obj % self.p if type(obj) is int else self.coeff_from_json(obj)), 1

    def terms_to_json(self, nums, den, exp_to_json):
        # the numerators are the residues, over the denominator 1
        return [[exp_to_json(e), n] for e, n in nums]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def field_to_json(f: Field):
    if isinstance(f, RationalField):
        return {"field": "Q"}
    return {"field": "Fp", "p": f.p}


def field_from_json(obj) -> Field:
    if obj.get("field") == "Q":
        return QQ
    if obj.get("field") == "Fp":
        return GF(require_int(obj["p"], "p"))
    raise InputError(f"unknown field spec {obj.get('field')!r}")


def characteristic(f: Field) -> int:
    return f.p if isinstance(f, PrimeField) else 0
