"""Exact base-field scalars: the rationals, or a prime field F_p.

Scalars are stored raw (Fraction for Q, small ints for F_p); a Field
object supplies the operations so series and polynomials stay agnostic.
The lift/reduce pair lets a series product accumulate plain integers:
lift writes a factor's coefficients over one common denominator, and
reduce turns each accumulated sum back into a scalar once.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError, VariantMismatchError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    name: str

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def lift(self, terms) -> tuple:
        """For (key, c_i) pairs: (key, n_i) pairs of integers and one
        denominator d with c_i == n_i / d."""
        raise NotImplementedError

    def reduce(self, sums: dict, d: int) -> list:
        """The (key, n / d) pairs of a dict of integer sums, zeros dropped."""
        raise NotImplementedError

    def coeff_to_json(self, a):
        raise NotImplementedError

    def coeff_from_json(self, obj):
        raise NotImplementedError

    def check_same(self, other: "Field") -> None:
        if self is not other and self != other:
            raise VariantMismatchError(f"fields {self} vs {other}")


class RationalField(Field):
    name = "Q"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def is_zero(self, a) -> bool:
        return a == 0

    def lift(self, terms):
        d = math.lcm(*[c.denominator for _, c in terms])
        return [(k, c.numerator * (d // c.denominator)) for k, c in terms], d

    def reduce(self, sums, d):
        return [(k, Fraction(n, d)) for k, n in sums.items() if n]

    def coeff_to_json(self, a):
        a = Fraction(a)
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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def lift(self, terms):
        # residues are integers already, over the denominator 1
        return terms, 1

    def reduce(self, sums, d):
        p = self.p
        return [(k, r) for k, n in sums.items() if (r := n % p)]

    def coeff_to_json(self, a):
        return int(a % self.p)

    def coeff_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise InputError(f"cannot decode residue from {obj!r}")
        return obj % self.p

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
        return GF(int(obj["p"]))
    raise InputError(f"unknown field spec {obj!r}")


def characteristic(f: Field) -> int:
    return f.p if isinstance(f, PrimeField) else 0
