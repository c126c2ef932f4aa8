"""The value group: the integers, the rationals, or lex-ordered Z^n.

Elements are stored raw -- int for Z, Fraction for Q, a tuple of n ints
for lex Z^n -- so Python's own ordering, equality and hashing serve
directly (tuples compare lexicographically).  A ValueGroup object
supplies the arithmetic, the membership test and the JSON form, as
fields.Field does for scalars.  INF is the value of exact zero and the
truncation of an exact series; it tops every element and is not itself
a group element.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from typing import Optional

from .errors import InputError, VariantMismatchError


class _Infinity:
    """The formal value of 0: greater than every group element."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "INF"


INF = _Infinity()


class ValueGroup:
    """One instance per group (Lex(n) is cached), so groups compare by
    identity."""

    name: str
    zero_element: object

    def zero(self):
        return self.zero_element

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def scale(self, a, t: int):
        """The integer multiple t*a (t may be negative)."""
        raise NotImplementedError

    def coords(self, a) -> tuple:
        """The coordinates of an element: (a,) in Z and Q, a in lex Z^n."""
        raise NotImplementedError

    def solve_scalar(self, t: int, delta) -> Optional[object]:
        """x with t*x == delta; None when the group has no such x."""
        if t == 0:
            raise InputError("scalar t must be nonzero")
        return self._divide(delta, t)

    def _divide(self, delta, t: int):
        raise NotImplementedError

    def members(self, xs) -> bool:
        """Whether every one of xs is an element of the group."""
        raise NotImplementedError

    def check(self, *xs) -> None:
        if not self.members(xs):
            x = next(x for x in xs if not self.members((x,)))
            raise VariantMismatchError(f"{x!r} is not an element of {self}")

    def check_same(self, other: "ValueGroup") -> None:
        if self is not other:
            raise VariantMismatchError(f"value groups {self} vs {other}")

    def to_json(self, a):
        raise NotImplementedError

    def from_json(self, obj):
        """Decode an element of this group; anything else is an InputError."""
        raise NotImplementedError

    def stream_from_json(self, objs) -> list:
        """Decode a JSON list of elements of this group.  Anything else is
        an InputError: the one from_json raises for the first bad entry."""
        if not isinstance(objs, list):
            raise InputError(f"{objs!r} is not a JSON list of {self} elements")
        return [self.from_json(x) for x in objs]

    def shifts(self, betas, ts, g) -> list:
        """The values beta_i + t_i*g, for integers t_i."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


class _Numeric(ValueGroup):
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    sub = staticmethod(operator.sub)

    def coords(self, a):
        return (a,)

    def scale(self, a, t: int):
        return t * a

    def shifts(self, betas, ts, g):
        return [b + t * g for b, t in zip(betas, ts)]


class Integers(_Numeric):
    name = "Z"
    zero_element = 0

    def _divide(self, delta, t):
        return delta // t if delta % t == 0 else None

    def members(self, xs) -> bool:
        return all(type(x) is int for x in xs)

    def to_json(self, a):
        return a

    def from_json(self, obj):
        if type(obj) is not int:
            raise InputError(f"{obj!r} is not an integer exponent")
        return obj

    def stream_from_json(self, objs):
        if isinstance(objs, list) and self.members(objs):
            return list(objs)
        return super().stream_from_json(objs)


class Rationals(_Numeric):
    name = "Q"
    zero_element = Fraction(0)

    def _divide(self, delta, t):
        return delta / t

    def members(self, xs) -> bool:
        return all(type(x) is Fraction for x in xs)

    def to_json(self, a):
        return f"{a.numerator}/{a.denominator}"

    def from_json(self, obj):
        if not isinstance(obj, str):
            raise InputError(f"{obj!r} is not a rational exponent \"n/d\"")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot read rational exponent {obj!r}: {exc}")


class LexGroup(ValueGroup):
    def __init__(self, n: int):
        self.n = n
        self.name = f"lex{n}"
        self.zero_element = (0,) * n

    def add(self, a, b):
        return tuple(map(operator.add, a, b))

    def neg(self, a):
        return tuple(-c for c in a)

    def sub(self, a, b):
        return tuple(map(operator.sub, a, b))

    def scale(self, a, t: int):
        return tuple(t * c for c in a)

    def shifts(self, betas, ts, g):
        return [tuple([c + t * d for c, d in zip(b, g)]) for b, t in zip(betas, ts)]

    def coords(self, a):
        return a

    def _divide(self, delta, t):
        if any(c % t for c in delta):
            return None
        return tuple(c // t for c in delta)

    def _all_of(self, xs, kind) -> bool:
        """Whether every one of xs is a `kind` (tuple or list) of n ints."""
        return (set(map(type, xs)) <= {kind} and set(map(len, xs)) <= {self.n}
                and set(map(type, chain.from_iterable(xs))) <= {int})

    def members(self, xs) -> bool:
        return self._all_of(xs, tuple)

    def to_json(self, a):
        return list(a)

    def from_json(self, obj):
        if not (isinstance(obj, list) and len(obj) == self.n
                and all(type(c) is int for c in obj)):
            raise InputError(f"{obj!r} is not a lex exponent of width {self.n}")
        return tuple(obj)

    def stream_from_json(self, objs):
        if isinstance(objs, list) and self._all_of(objs, list):
            return list(map(tuple, objs))
        return super().stream_from_json(objs)


INTEGERS = Integers()
RATIONALS = Rationals()

_LEX_CACHE: dict[int, LexGroup] = {}


def Lex(n: int) -> LexGroup:
    """Z^n ordered lexicographically (n >= 1)."""
    if type(n) is not int or n < 1:
        raise InputError("lex tuple needs at least one coordinate")
    if n not in _LEX_CACHE:
        _LEX_CACHE[n] = LexGroup(n)
    return _LEX_CACHE[n]


def group_of(x) -> ValueGroup:
    """The group a raw element belongs to."""
    if type(x) is int:
        return INTEGERS
    if type(x) is Fraction:
        return RATIONALS
    if type(x) is tuple:
        group = Lex(len(x))
        group.check(x)
        return group
    raise InputError(f"{x!r} is not a value-group element")


def element_from_json(obj):
    """Decode a JSON element of whichever group its form names: an int is
    in Z, an "n/d" string in Q, a list of n ints in lex Z^n."""
    if isinstance(obj, bool):
        raise InputError("booleans are not group elements")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return RATIONALS.from_json(obj)
    if isinstance(obj, list):
        return Lex(len(obj)).from_json(obj)
    raise InputError(f"cannot decode group element from {obj!r}")
