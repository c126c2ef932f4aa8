"""Sparse multivariate polynomials with valued-series coefficients.

Variables carry a tag naming their role: an original generator, a stage
variable recentred at index j, or a duplicated working variable used by
the rewrite pipelines.  A tag is the tuple (rank, e, extra) and a monomial
the sorted tuple of its (tag, exponent) pairs, so the canonical order of
variables and monomials is Python's own tuple order.  The Hasse
derivative is computed with integer binomials before reduction into the
base field, so it is correct in any characteristic.  Poly.__init__ is
where monomials are sorted and merged: every operation hands it raw
(monomial, coefficient) pairs.  Only Poly.from_json fills its dict
itself, sorting each decoded monomial once; it rejects a monomial of
total degree above MAX_JSON_DEGREE.
"""
from __future__ import annotations

import json
import math
import operator
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import InputError, require_int
from .fields import Field
from .group import ValueGroup
from .series import ValuedSeries

_KINDS = ("orig", "stage", "dup")  # a tag's rank is its kind's place here
MAX_JSON_DEGREE = 2048  # recentring a higher power would take seconds


class VarTag(tuple):
    """Identity of a polynomial variable: Orig(e), Stage(e, j) or Dup(e, key).

    The tuple (rank, e, extra), rank the kind's place in _KINDS, so hashing,
    equality and the canonical order of variables are the tuple's own, in
    C.  extra is None, the stage index j, or the dup key, a string."""

    __slots__ = ()

    def __new__(cls, kind: str, e: int, extra: object = None):
        if kind not in _KINDS:
            raise InputError(f"unknown variable kind {kind!r}")
        return tuple.__new__(cls, (_KINDS.index(kind), e, extra))

    kind = property(lambda self: _KINDS[self[0]])
    e = property(operator.itemgetter(1))
    extra = property(operator.itemgetter(2))

    def __getnewargs__(self):
        return self.kind, self.e, self.extra

    @staticmethod
    def orig(e: int) -> "VarTag":
        return VarTag("orig", e)

    @staticmethod
    def stage(e: int, j: int) -> "VarTag":
        return VarTag("stage", e, j)

    @staticmethod
    def dup(e: int, key: str) -> "VarTag":
        return VarTag("dup", e, key)

    def to_json(self):
        if self.kind == "orig":
            return {"tag": "orig", "e": self.e}
        if self.kind == "stage":
            return {"tag": "stage", "e": self.e, "j": self.extra}
        return {"tag": "dup", "e": self.e, "key": self.extra}

    @staticmethod
    def from_json(obj) -> "VarTag":
        kind = obj.get("tag")
        if kind == "orig":
            return VarTag.orig(require_int(obj["e"], "tag e"))
        if kind == "stage":
            return VarTag.stage(require_int(obj["e"], "tag e"), require_int(obj["j"], "tag j"))
        if kind == "dup":
            key = obj.get("key")
            if not isinstance(key, str):
                raise InputError(f"dup key {json.dumps(key)} is not a string")
            return VarTag.dup(require_int(obj["e"], "tag e"), key)
        raise InputError(f"cannot decode variable tag from {obj!r}")


Monomial = Tuple[Tuple[VarTag, int], ...]  # sorted, exponents >= 1


def _mono_sorted(items: Iterable[Tuple[VarTag, int]]) -> Monomial:
    kept = [(v, k) for v, k in items if k != 0]
    for v, k in kept:
        if k < 0:
            raise InputError("negative exponents are not allowed in polynomials")
    kept.sort()
    return tuple(kept)


def _mono_mul(a: Iterable[Tuple[VarTag, int]], b: Monomial):
    """The product's (variable, exponent) pairs, unsorted."""
    acc: Dict[VarTag, int] = dict(a)
    for v, k in b:
        acc[v] = acc.get(v, 0) + k
    return acc.items()


class Powers(dict):
    """(tag, n) -> values[tag]^n, each power computed once, from the one below."""

    def __init__(self, values: Mapping[VarTag, ValuedSeries]):
        super().__init__()
        self._values = values

    def __missing__(self, key):
        tag, n = key
        if tag not in self._values:
            raise InputError(f"no value for variable {json.dumps(tag.to_json())}")
        base = self._values[tag]
        # from the highest power below n already known, up, in a loop
        low = n
        while low > 1 and (tag, low - 1) not in self:
            low -= 1
        for k in range(low, n + 1):
            self[tag, k] = base if k == 1 else self[tag, k - 1] * base
        return self[key]


class Poly:
    __slots__ = ("field", "group", "monos")

    def __init__(self, field: Field, group: ValueGroup,
                 monos: Dict[Monomial, ValuedSeries] | Iterable = ()):
        self.field = field
        self.group = group
        clean: Dict[Monomial, ValuedSeries] = {}
        items = monos.items() if isinstance(monos, dict) else monos
        for mono, coeff in items:
            mono = _mono_sorted(mono)
            if mono in clean:
                coeff = clean[mono] + coeff
            if not coeff.is_zero_exact():
                clean[mono] = coeff
            else:
                clean.pop(mono, None)
        self.monos = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(field: Field, group: ValueGroup) -> "Poly":
        return Poly(field, group)

    @staticmethod
    def const(coeff: ValuedSeries) -> "Poly":
        return Poly(coeff.field, coeff.group, {(): coeff})

    @staticmethod
    def var(field: Field, group: ValueGroup, tag: VarTag) -> "Poly":
        return Poly(field, group, {((tag, 1),): ValuedSeries.one(field, group)})

    # -- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.monos

    def variables(self) -> list:
        seen = set()
        for mono in self.monos:
            for v, _ in mono:
                seen.add(v)
        return sorted(seen)

    def degree_in(self, tag: VarTag) -> int:
        best = 0
        for mono in self.monos:
            for v, k in mono:
                if v == tag:
                    best = max(best, k)
        return best

    def total_degree(self) -> int:
        best = 0
        for mono in self.monos:
            best = max(best, sum(k for _, k in mono))
        return best

    def constant_term(self) -> ValuedSeries:
        return self.monos.get((), ValuedSeries.zero(self.field, self.group))

    def coeffs_in(self, tag: VarTag) -> list:
        """Coefficients of powers of tag, as Polys in the other variables."""
        buckets: list = [[] for _ in range(self.degree_in(tag) + 1)]
        for mono, coeff in self.monos.items():
            exps = dict(mono)
            buckets[exps.pop(tag, 0)].append((exps.items(), coeff))
        return [self._new(b) for b in buckets]

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "Poly") -> None:
        self.field.check_same(other.field)
        self.group.check_same(other.group)

    def _new(self, monos) -> "Poly":
        return Poly(self.field, self.group, monos)

    def _one(self) -> "Poly":
        return Poly.const(ValuedSeries.one(self.field, self.group))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return self._new([*self.monos.items(), *other.monos.items()])

    def __neg__(self) -> "Poly":
        return self._new({m: -c for m, c in self.monos.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return self._new([(_mono_mul(m1, m2), c1 * c2)
                          for m1, c1 in self.monos.items()
                          for m2, c2 in other.monos.items()])

    def scale(self, coeff: ValuedSeries) -> "Poly":
        return self._new({m: c * coeff for m, c in self.monos.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise InputError("negative polynomial powers")
        result = self._one()
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    # -- substitution -------------------------------------------------
    def eval_series(self, values) -> ValuedSeries:
        """self at the values of the variables: a mapping tag -> series, or
        a Powers table of them shared with other evaluations."""
        powers = values if isinstance(values, Powers) else Powers(values)
        total = ValuedSeries.zero(self.field, self.group)
        for mono, coeff in self.monos.items():
            for vk in mono:
                coeff = coeff * powers[vk]
            total = total + coeff
        return total

    def rename(self, mapping: Mapping[VarTag, VarTag]) -> "Poly":
        """Rename/collapse variables; merged monomials add up."""
        out = []
        for mono, coeff in self.monos.items():
            acc: Dict[VarTag, int] = {}
            for v, k in mono:
                w = mapping.get(v, v)
                acc[w] = acc.get(w, 0) + k
            out.append((acc.items(), coeff))
        return self._new(out)

    def map_coeffs(self, fn) -> "Poly":
        return self._new({m: fn(c) for m, c in self.monos.items()})

    # -- calculus -----------------------------------------------------
    def hasse_derivative(self, orders: Mapping[VarTag, int]) -> "Poly":
        """D^(orders): Y^k -> binomial(k, n) Y^(k-n), binomials over Z."""
        out = []
        for mono, coeff in self.monos.items():
            exps = dict(mono)
            factor = 1
            ok = True
            for v, n in orders.items():
                if n == 0:
                    continue
                k = exps.get(v, 0)
                if k < n:
                    ok = False
                    break
                factor *= math.comb(k, n)
                if k == n:
                    exps.pop(v)
                else:
                    exps[v] = k - n
            if ok:
                out.append((exps.items(), coeff if factor == 1 else coeff.scalar_mul(factor)))
        return self._new(out)

    # -- comparison / output ------------------------------------------
    def same_known(self, other: "Poly") -> bool:
        if set(self.monos) != set(other.monos):
            return False
        return all(self.monos[m].same_known(other.monos[m]) for m in self.monos)

    def __repr__(self) -> str:
        parts = []
        for mono in sorted(self.monos):
            coeff = self.monos[mono]
            vars_txt = "".join(f"*{v.kind}{v.e}" + (f"^{k}" if k > 1 else "") for v, k in mono)
            parts.append(f"({coeff!r}){vars_txt}")
        return "Poly(" + " + ".join(parts) + ")"

    def to_json(self):
        out = []
        for mono in sorted(self.monos):
            coeff = self.monos[mono]
            out.append([[ [v.to_json(), k] for v, k in mono], coeff.to_json()])
        return out

    @staticmethod
    def from_json(obj, field: Field, group: ValueGroup) -> "Poly":
        monos = {}
        for mono_json, coeff_json in obj:
            mono = _mono_sorted((VarTag.from_json(v), require_int(k, "monomial exponent"))
                                for v, k in mono_json)
            if any(a[0] == b[0] for a, b in zip(mono, mono[1:])):
                raise InputError("a monomial lists one variable twice")
            degree = sum(k for _, k in mono)
            if degree > MAX_JSON_DEGREE:
                raise InputError(f"monomial of total degree {degree} exceeds {MAX_JSON_DEGREE}")
            if mono in monos:
                raise InputError("repeated monomial")
            monos[mono] = ValuedSeries.from_json(coeff_json, field, group)
        out = Poly.__new__(Poly)
        out.field, out.group = field, group
        out.monos = {m: c for m, c in monos.items() if not c.is_zero_exact()}
        return out


def det(rows: Sequence[Sequence[Poly]], one: Poly) -> Poly:
    """Determinant by cofactor expansion along the first row, each minor
    expanded once; one is the empty determinant.  A minor is named by the
    columns it keeps and expands along row n - len(columns).  A forward
    pass collects, level by level, the minors reachable from the top
    through nonzero entries; a backward pass computes each once from the
    level below, from the last row up, with no recursion.  Its terms are
    summed by ascending position, + at even ones, as Laplace expansion
    sums them, so the two give the same bytes."""
    n = len(rows)
    zero = Poly.zero(one.field, one.group)
    nonzero = [{c for c, entry in enumerate(row) if not entry.is_zero()} for row in rows]
    levels = [{tuple(range(n))}]
    for cs in nonzero:
        levels.append({cols[:pos] + cols[pos + 1:] for cols in levels[-1]
                       for pos, c in enumerate(cols) if c in cs})
    below = {(): one}
    for r in range(n - 1, -1, -1):
        row, cs, values = rows[r], nonzero[r], {}
        for cols in levels[r]:
            total = None
            for pos, c in enumerate(cols):
                if c in cs:
                    term = row[c] * below[cols[:pos] + cols[pos + 1:]]
                    term = -term if pos % 2 else term
                    total = term if total is None else total + term
            values[cols] = zero if total is None else total
        below = values
    return below[tuple(range(n))]


def sylvester_resultant(p: Poly, q: Poly, tag: VarTag) -> Poly:
    """Resultant of p and q with respect to one variable, in which both have
    positive degree: the determinant of the Sylvester matrix, whose entries
    are polynomials in the remaining variables.  Its rows are taken in band
    order, p's shift i then q's shift i for i = 0, 1, ..., times the sign
    of that interleaving: every row's nonzeros lie in a window of width
    max(dp, dq) + 1, so few minors are reachable from the top."""
    pc, qc = p.coeffs_in(tag), q.coeffs_in(tag)
    dp, dq = len(pc) - 1, len(qc) - 1
    zero = Poly.zero(p.field, p.group)
    # a shift i row holds the coefficients, highest first, from column i
    rows = [[zero] * i + cs[::-1] + [zero] * (dp + dq - i - len(cs))
            for i in range(max(dp, dq)) for cs, shifts in ((pc, dq), (qc, dp)) if i < shifts]
    d = det(rows, p._one())
    return -d if sum(min(i, dp) for i in range(dq)) % 2 else d
