"""Finite-support valued series with honest truncation tracking.

A series is a sorted list of (exponent, coefficient) terms over a base
field, together with a truncation order delta: exponents at or above
delta are unknown unless the series is flagged exact.  Exponents are raw
elements of the series' value group.  Arithmetic never fabricates terms
past the reliable window; the window shrinks under multiplication and
division exactly as the error analysis dictates.

Coefficients are held in integer-normal form: `nums` is the sorted tuple
of (exponent, integer numerator) pairs and `den` one positive
denominator, with gcd(den, every numerator) = 1; over F_p the numerators
are residues and den is 1.  The form is canonical, so equal series have
equal (nums, den).  Sums, products and long division run on plain
integers, and each result is brought to lowest terms once
(Field.normalise).  Field scalars appear only where a caller hands them
in or asks for them: the constructor from (exponent, scalar) pairs, and
the read-only `terms` view, built at most once per series, that
`leading` and the sequences read.  JSON is read and written in the
normal form itself (Field.ratio_from_json, Field.terms_to_json); the
constructor and the decoder share one merging routine (_merged).

A product sums the integer products of its factors' terms per exponent;
terms are sorted and the group order is compatible with addition, so each
row of term products stops at its first exponent at or past the
product's truncation.  Long division is fraction-free: with a the
divisor's leading numerator, each remainder entry is an integer over a
power of a, and the quotient is put over one denominator at the end.
"""
from __future__ import annotations

import math
import operator
from typing import Iterable

from .errors import IndeterminateValError, InputError
from .fields import Field
from .group import INF, ValueGroup


def _block_top(rem: dict, ynums: tuple, block: tuple, vyc: tuple, coords) -> tuple:
    """Coordinate-wise bound past the block prefix for the exponents of a
    quotient block: the top of the block's remainder minus the top of the
    divisor's lowest block (ValuedSeries.div)."""
    i = len(block)
    # remainder exponents are quotient exponents plus val(divisor)
    prefix = tuple(map(operator.add, block, vyc[:i]))
    num = [c[i:] for c in map(coords, rem) if c[:i] == prefix]
    den = [c[i:] for c in (coords(e) for e, _ in ynums) if c[:i] == vyc[:i]]
    return tuple(map(operator.sub, map(max, zip(*num)), map(max, zip(*den))))


def _merged(field: Field, parts: list, trunc) -> tuple:
    """(nums, den) of (exponent, numerator, denominator) parts, not yet in
    lowest terms: merged per exponent over the lcm of the denominators,
    folded, with zeros and terms at or past trunc dropped, sorted."""
    den = math.lcm(*[d for _, _, d in parts])
    merged: dict = {}
    for e, n, d in parts:
        merged[e] = merged.get(e, 0) + n * (den // d)
    fold = field.fold
    exact = trunc is INF
    nums = [(e, r) for e, n in merged.items()
            if (r := fold(n)) and (exact or e < trunc)]
    nums.sort()
    return nums, den


class ValuedSeries:
    __slots__ = ("field", "group", "nums", "den", "trunc", "_terms")

    def __init__(self, field: Field, group: ValueGroup, terms: Iterable, trunc=INF):
        """Build a normalized series from (exponent, scalar) pairs; trunc =
        INF means exact."""
        parts = []
        for exp, c in terms:
            if exp is INF:
                raise InputError("term exponent cannot be Infinity")
            parts.append((exp, c.numerator, c.denominator))
        nums, den = _merged(field, parts, trunc)
        if den != 1:
            nums, den = field.normalise(nums, den)
        self.field, self.group, self.trunc = field, group, trunc
        self.nums, self.den, self._terms = tuple(nums), den, None

    @property
    def terms(self) -> tuple:
        """The (exponent, field scalar) terms, computed once."""
        if self._terms is None:
            self._terms = self.field.scalars(self.nums, self.den)
        return self._terms

    # -- basic predicates --------------------------------------------
    @property
    def exact(self) -> bool:
        return self.trunc is INF

    def is_zero_exact(self) -> bool:
        return self.exact and not self.nums

    def val(self):
        """Least support exponent; INF for exact zero."""
        if self.nums:
            return self.nums[0][0]
        if self.exact:
            return INF
        raise IndeterminateValError(
            f"series vanishes below truncation {self.group.to_json(self.trunc)}")

    def val_lower(self):
        """A certified lower bound for the valuation."""
        if self.nums:
            return self.nums[0][0]
        return self.trunc

    def is_unit(self) -> bool:
        return self.val() == self.group.zero()

    def leading(self):
        if not self.nums:
            raise InputError("zero series has no leading term")
        return self.field.scalars(self.nums[:1], self.den)[0]

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "ValuedSeries") -> None:
        self.field.check_same(other.field)
        self.group.check_same(other.group)

    @staticmethod
    def _normal(field: Field, group: ValueGroup, nums, den: int, trunc) -> "ValuedSeries":
        """A series from numerators over den that are already folded,
        merged, nonzero, sorted and below trunc; brought to lowest terms."""
        if den != 1:
            nums, den = field.normalise(nums, den)
        out = ValuedSeries.__new__(ValuedSeries)
        out.field, out.group, out.trunc = field, group, trunc
        out.nums, out.den, out._terms = tuple(nums), den, None
        return out

    def __add__(self, other: "ValuedSeries") -> "ValuedSeries":
        """Sum by one merge of the two sorted term lists over a common
        denominator; cancelled terms and terms at or past the sum's
        truncation are dropped."""
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        fold = self.field.fold
        xs, ys = self.nums, other.nums
        den = self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            xs = [(e, n * (den // self.den)) for e, n in xs]
            ys = [(e, n * (den // other.den)) for e, n in ys]
        nx, ny = len(xs), len(ys)
        out = []
        i = k = 0
        while i < nx and k < ny:
            ex, ey = xs[i][0], ys[k][0]
            if ex < ey:
                out.append(xs[i])
                i += 1
            elif ey < ex:
                out.append(ys[k])
                k += 1
            else:
                c = fold(xs[i][1] + ys[k][1])
                if c:
                    out.append((ex, c))
                i += 1
                k += 1
        out += xs[i:] or ys[k:]
        while out and not out[-1][0] < trunc:
            out.pop()
        return ValuedSeries._normal(self.field, self.group, out, den, trunc)

    def __neg__(self) -> "ValuedSeries":
        fold = self.field.fold
        return ValuedSeries._normal(self.field, self.group,
                                    [(e, fold(-n)) for e, n in self.nums],
                                    self.den, self.trunc)

    def __sub__(self, other: "ValuedSeries") -> "ValuedSeries":
        return self + (-other)

    def __mul__(self, other: "ValuedSeries") -> "ValuedSeries":
        self._check(other)
        add = self.group.add
        # The window of a product: each inexact factor's truncation shifted
        # by the other factor's valuation (an exact zero factor gives INF).
        bounds = [add(x.trunc, y.val_lower()) for x, y in ((self, other), (other, self))
                  if not x.exact and y.val_lower() is not INF]
        trunc = min(bounds) if bounds else INF
        field = self.field
        capped = trunc is not INF
        sums: dict = {}
        get = sums.get
        for e1, n1 in self.nums:
            for e2, n2 in other.nums:
                e = add(e1, e2)
                # Rows are sorted and the order is compatible with addition,
                # so the rest of the row lies past the truncation too.
                if capped and not e < trunc:
                    break
                sums[e] = get(e, 0) + n1 * n2
        fold = field.fold
        nums = [(e, r) for e, n in sums.items() if (r := fold(n))]
        nums.sort()
        return ValuedSeries._normal(field, self.group, nums, self.den * other.den, trunc)

    def scalar_mul(self, c) -> "ValuedSeries":
        field = self.field
        if field.is_zero(c):
            return ValuedSeries.zero(field, self.group)
        fold, cn = field.fold, c.numerator
        return ValuedSeries._normal(field, self.group,
                                    [(e, fold(n * cn)) for e, n in self.nums],
                                    self.den * c.denominator, self.trunc)

    def shift(self, g) -> "ValuedSeries":
        """Multiply by the monomial t^g (exact)."""
        add = self.group.add
        trunc = self.trunc if self.exact else add(self.trunc, g)
        return ValuedSeries._normal(self.field, self.group,
                                    [(add(e, g), n) for e, n in self.nums],
                                    self.den, trunc)

    def div(self, other: "ValuedSeries") -> "ValuedSeries":
        """Formal series quotient by long division on the reliable window.

        Quotient exponents rise.  Fixing the coordinates of a quotient
        exponent up to the first one below the window's (none when the
        quotient is exact) fixes a block wholly below the window, whose
        terms are the exact quotient of the block's remainder, as it stands
        when the block is reached, by the divisor's lowest block.  Were that
        quotient of finite support, the top terms of a product could not
        cancel in any coordinate, so each further coordinate of its
        exponents is at most the remainder's top one minus the divisor's:
        past it the support is unbounded.  In Z and Q only an exact quotient
        is such a block; in lex Z^n the bound is what makes division stop.
        """
        self._check(other)
        if other.is_zero_exact():
            raise ZeroDivisionError("series division by exact zero")
        g = self.group
        vy = other.val()  # raises IndeterminateVal on zero-so-far divisor
        bounds = []
        if not self.exact:
            bounds.append(g.sub(self.trunc, vy))
        if not other.exact and self.val_lower() is not INF:
            bounds.append(g.sub(g.add(other.trunc, self.val_lower()), g.scale(vy, 2)))
        qtrunc = min(bounds) if bounds else INF
        qexact = qtrunc is INF
        rem_limit = None if qexact else g.add(qtrunc, vy)
        coords = g.coords
        vyc = coords(vy)
        width = len(vyc)
        window = None if qexact else coords(qtrunc)
        block = top = None
        fold = self.field.fold
        a = other.nums[0][1]
        rest = other.nums[1:]
        apow = [1]  # apow[k] = a^k, folded
        rem = {e: (n, 0) for e, n in self.nums}  # exponent -> (n, k): n / a^k
        quot = []  # (exponent, r, k): the quotient term r / a^k
        while rem:
            lead = min(rem)
            qe = g.sub(lead, vy)
            if not qexact and not qe < qtrunc:
                break
            if qexact or width > 1:
                qc = coords(qe)
                i = 0 if qexact else 1 + next(k for k, w in enumerate(window) if qc[k] != w)
                if i < width:
                    if qc[:i] != block:
                        block = qc[:i]
                        top = _block_top(rem, other.nums, block, vyc, coords)
                    if any(c > t for c, t in zip(qc[i:], top)):
                        raise InputError(
                            "exact quotient appears to have unbounded support; use div_to"
                            if qexact else "quotient has unbounded support below "
                            f"its window {g.to_json(qtrunc)}")
            r, k = rem.pop(lead)
            k += 1
            if k == len(apow):
                apow.append(fold(apow[-1] * a))
            quot.append((qe, r, k))
            for e2, c2 in rest:
                tgt = g.add(qe, e2)
                # rest is sorted, so the rest of it lies past the limit too
                if not qexact and not tgt < rem_limit:
                    break
                v, j = rem.get(tgt, (0, k))
                if j < k:
                    v, j = v * apow[k - j], k
                v = fold(v - r * c2 * apow[j - k])
                if v:
                    rem[tgt] = (v, j)
                else:
                    rem.pop(tgt, None)
        # self / other = (self.nums / other.nums) * other.den / self.den
        kmax = max((k for _, _, k in quot), default=0)
        nums = [(e, fold(r * apow[kmax - k] * other.den)) for e, r, k in quot]
        return ValuedSeries._normal(self.field, g, nums, apow[kmax] * self.den, qtrunc)

    def div_to(self, other: "ValuedSeries", delta) -> "ValuedSeries":
        """Quotient known below delta; use when the exact quotient may have
        infinite support (plain div would not terminate)."""
        if other.is_zero_exact():
            raise ZeroDivisionError("series division by exact zero")
        return self.truncate(self.group.add(delta, other.val())).div(other)

    def truncate(self, delta) -> "ValuedSeries":
        trunc = min(self.trunc, delta)
        return ValuedSeries._normal(self.field, self.group,
                                    [t for t in self.nums if t[0] < trunc],
                                    self.den, trunc)

    # -- window queries ----------------------------------------------
    def is_small(self, delta) -> bool:
        """True iff val(self) > delta is certified on the known window.

        Raises IndeterminateVal when the window does not reach delta.
        """
        if self.nums and not (self.nums[0][0] > delta):
            return False
        if not self.exact and not (self.trunc > delta):
            raise IndeterminateValError(
                f"window {self.group.to_json(self.trunc)} does not certify "
                f"vanishing past {self.group.to_json(delta)}")
        return True

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(field: Field, group: ValueGroup) -> "ValuedSeries":
        return ValuedSeries(field, group, [])

    @staticmethod
    def one(field: Field, group: ValueGroup) -> "ValuedSeries":
        return ValuedSeries.scalar(field, group, field.one())

    @staticmethod
    def scalar(field: Field, group: ValueGroup, c) -> "ValuedSeries":
        return ValuedSeries(field, group, [(group.zero(), c)])

    @staticmethod
    def t_power(field: Field, group: ValueGroup, exp, coeff=None) -> "ValuedSeries":
        if coeff is None:
            coeff = field.one()
        return ValuedSeries(field, group, [(exp, coeff)])

    # -- misc ---------------------------------------------------------
    def _trunc_json(self):
        return "inf" if self.exact else self.group.to_json(self.trunc)

    def __repr__(self) -> str:
        body = " + ".join(f"{c!r}*t^{self.group.to_json(e)}" for e, c in self.terms) or "0"
        tail = "" if self.exact else f" + O(t^{self._trunc_json()})"
        return f"<{body}{tail}>"

    def same_known(self, other: "ValuedSeries") -> bool:
        return (self.nums == other.nums and self.den == other.den
                and self.trunc == other.trunc)

    def to_json(self):
        return {
            "terms": self.field.terms_to_json(self.nums, self.den, self.group.to_json),
            "trunc": self._trunc_json(),
            "exact": self.exact,
        }

    @staticmethod
    def from_json(obj, field: Field, group: ValueGroup) -> "ValuedSeries":
        trunc = obj.get("trunc", "inf")
        trunc = INF if trunc == "inf" else group.from_json(trunc)
        exp, ratio = group.from_json, field.ratio_from_json
        parts = [(exp(e), *ratio(c)) for e, c in obj.get("terms", [])]
        return ValuedSeries._normal(field, group, *_merged(field, parts, trunc), trunc)
