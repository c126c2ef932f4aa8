"""Finite-support valued series with honest truncation tracking.

A series is a sorted list of (exponent, coefficient) terms over a base
field, together with a truncation order delta: exponents at or above
delta are unknown unless the series is flagged exact.  Exponents are raw
elements of the series' value group.  Arithmetic never fabricates terms
past the reliable window; the window shrinks under multiplication and
division exactly as the error analysis dictates.

A product is computed by integer accumulation: each factor's
coefficients are lifted once to integers over one common denominator
(Field.lift), the products of those integers are summed per exponent,
and each sum is reduced once (Field.reduce).  Terms are sorted and the
group order is compatible with addition, so each row of term products
stops at its first exponent at or past the product's truncation.
"""
from __future__ import annotations

from typing import Iterable

from .errors import IndeterminateValError, InputError
from .fields import Field
from .group import INF, ValueGroup


class ValuedSeries:
    __slots__ = ("field", "group", "terms", "trunc")

    def __init__(self, field: Field, group: ValueGroup, terms: Iterable, trunc=INF):
        """Build a normalized series; trunc = INF means exact."""
        self.field = field
        self.group = group
        merged: dict = {}
        for exp, coeff in terms:
            if exp is INF:
                raise InputError("term exponent cannot be Infinity")
            if exp in merged:
                merged[exp] = field.add(merged[exp], coeff)
            else:
                merged[exp] = coeff
        exact = trunc is INF
        kept = [(e, c) for e, c in merged.items()
                if not field.is_zero(c) and (exact or e < trunc)]
        kept.sort(key=lambda t: t[0])
        self.terms = tuple(kept)
        self.trunc = trunc

    # -- basic predicates --------------------------------------------
    @property
    def exact(self) -> bool:
        return self.trunc is INF

    def is_zero_exact(self) -> bool:
        return self.exact and not self.terms

    def val(self):
        """Least support exponent; INF for exact zero."""
        if self.terms:
            return self.terms[0][0]
        if self.exact:
            return INF
        raise IndeterminateValError(
            f"series vanishes below truncation {self.group.to_json(self.trunc)}")

    def val_lower(self):
        """A certified lower bound for the valuation."""
        if self.terms:
            return self.terms[0][0]
        return self.trunc

    def is_unit(self) -> bool:
        return self.val() == self.group.zero()

    def leading(self):
        if not self.terms:
            raise InputError("zero series has no leading term")
        return self.terms[0]

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "ValuedSeries") -> None:
        self.field.check_same(other.field)
        self.group.check_same(other.group)

    def _new(self, terms, trunc=INF) -> "ValuedSeries":
        return ValuedSeries(self.field, self.group, terms, trunc)

    @staticmethod
    def _normal(field: Field, group: ValueGroup, terms: tuple, trunc) -> "ValuedSeries":
        """A series from terms already merged, nonzero, sorted and below trunc."""
        out = ValuedSeries.__new__(ValuedSeries)
        out.field, out.group, out.terms, out.trunc = field, group, terms, trunc
        return out

    def __add__(self, other: "ValuedSeries") -> "ValuedSeries":
        """Sum by one merge of the two sorted term lists; cancelled terms and
        terms at or past the sum's truncation are dropped."""
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        field = self.field
        xs, ys = self.terms, other.terms
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
                c = field.add(xs[i][1], ys[k][1])
                if not field.is_zero(c):
                    out.append((ex, c))
                i += 1
                k += 1
        out += xs[i:] or ys[k:]
        while out and not out[-1][0] < trunc:
            out.pop()
        return ValuedSeries._normal(field, self.group, tuple(out), trunc)

    def __neg__(self) -> "ValuedSeries":
        return self._new([(e, self.field.neg(c)) for e, c in self.terms], self.trunc)

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
        if not (self.terms and other.terms):
            return ValuedSeries._normal(field, self.group, (), trunc)
        xs, dx = field.lift(self.terms)
        ys, dy = field.lift(other.terms)
        capped = trunc is not INF
        sums: dict = {}
        get = sums.get
        for e1, n1 in xs:
            for e2, n2 in ys:
                e = add(e1, e2)
                # Rows are sorted and the order is compatible with addition,
                # so the rest of the row lies past the truncation too.
                if capped and not e < trunc:
                    break
                sums[e] = get(e, 0) + n1 * n2
        terms = field.reduce(sums, dx * dy)
        terms.sort()
        return ValuedSeries._normal(field, self.group, tuple(terms), trunc)

    def scalar_mul(self, c) -> "ValuedSeries":
        if self.field.is_zero(c):
            return ValuedSeries.zero(self.field, self.group)
        return self._new([(e, self.field.mul(c, k)) for e, k in self.terms], self.trunc)

    def shift(self, g) -> "ValuedSeries":
        """Multiply by the monomial t^g (exact)."""
        add = self.group.add
        trunc = self.trunc if self.exact else add(self.trunc, g)
        return self._new([(add(e, g), c) for e, c in self.terms], trunc)

    def __pow__(self, n: int) -> "ValuedSeries":
        if n < 0:
            raise InputError("negative powers go through div")
        result = ValuedSeries.one(self.field, self.group)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def div(self, other: "ValuedSeries") -> "ValuedSeries":
        """Formal series quotient by long division on the reliable window."""
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
        field = self.field
        ylead = other.terms[0][1]
        rest = other.terms[1:]
        rem = dict(self.terms)
        qterms = []
        steps = 0
        while rem:
            steps += 1
            if steps > 100000:
                raise InputError(
                    "exact quotient appears to have unbounded support; use div_to")
            lead = min(rem)
            qe = g.sub(lead, vy)
            if not qexact and not (qe < qtrunc):
                break
            qc = field.div(rem.pop(lead), ylead)
            qterms.append((qe, qc))
            for e2, c2 in rest:
                tgt = g.add(qe, e2)
                if not qexact and not (tgt < rem_limit):
                    continue
                cur = rem.get(tgt, field.zero())
                cur = field.sub(cur, field.mul(qc, c2))
                if field.is_zero(cur):
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = cur
        return self._new(qterms, qtrunc)

    def div_to(self, other: "ValuedSeries", delta) -> "ValuedSeries":
        """Quotient known below delta; use when the exact quotient may have
        infinite support (plain div would not terminate)."""
        if other.is_zero_exact():
            raise ZeroDivisionError("series division by exact zero")
        return self.truncate(self.group.add(delta, other.val())).div(other)

    def truncate(self, delta) -> "ValuedSeries":
        trunc = min(self.trunc, delta)
        return ValuedSeries._normal(self.field, self.group,
                                    tuple(t for t in self.terms if t[0] < trunc), trunc)

    # -- window queries ----------------------------------------------
    def is_small(self, delta) -> bool:
        """True iff val(self) > delta is certified on the known window.

        Raises IndeterminateVal when the window does not reach delta.
        """
        if self.terms and not (self.terms[0][0] > delta):
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
        return self.terms == other.terms and self.trunc == other.trunc

    def to_json(self):
        return {
            "terms": [[self.group.to_json(e), self.field.coeff_to_json(c)]
                      for e, c in self.terms],
            "trunc": self._trunc_json(),
            "exact": self.exact,
        }

    @staticmethod
    def from_json(obj, field: Field, group: ValueGroup) -> "ValuedSeries":
        trunc = obj.get("trunc", "inf")
        trunc = INF if trunc == "inf" else group.from_json(trunc)
        terms = [(group.from_json(e), field.coeff_from_json(c))
                 for e, c in obj.get("terms", [])]
        return ValuedSeries(field, group, terms, trunc)
