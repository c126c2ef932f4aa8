"""Pseudo-convergent sequences at a finite horizon.

A sequence is generated by an exponent rule (arithmetic, lacunary
doubling, or an explicit list with an arithmetic tail) and a coefficient
rule; v_j is the j-th partial sum, the pseudo-limit y is the full series
materialized to any requested truncation, and gamma_j = val(v_{j+1}-v_j)
strictly increases.  A sequence may also be derived from any series that
can be materialized to arbitrary truncation (partial sums of its term
expansion); that form backs the family construction in the smooth
pipeline.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from .errors import HorizonError, InputError, require_int
from .fields import Field, field_from_json, field_to_json
from .group import ValueGroup, element_from_json, group_of
from .series import ValuedSeries

DEFAULT_HORIZON = 300
MAX_DOUBLINGS = 64  # window doublings a DerivedSequence makes, in all


class PseudoSequence:
    """Common behaviour; subclasses supply term_pair(j) -> (e_j, c_j)."""

    field: Field
    group: ValueGroup
    horizon: int

    def _check_index(self, j: int) -> None:
        if j < 0:
            raise InputError("negative sequence index")
        if j >= self.horizon:
            raise HorizonError(f"index {j} >= horizon {self.horizon}")

    # -- core accessors -----------------------------------------------
    def gamma(self, j: int):
        self._check_index(j)
        return self.term_pair(j)[0]

    def term(self, j: int) -> ValuedSeries:
        """Partial sum v_j = sum_{i<j} c_i t^{e_i} (exact)."""
        self._check_index(j)
        return ValuedSeries(self.field, self.group, [self.term_pair(i) for i in range(j)])

    def scale(self, j: int) -> ValuedSeries:
        """s_j = v_{j+1} - v_j = c_j t^{e_j} (exact monomial)."""
        self._check_index(j)
        return ValuedSeries(self.field, self.group, [self.term_pair(j)])

    def limit(self, delta) -> ValuedSeries:
        """Pseudo-limit y materialized below truncation delta; a
        HorizonError when the terms run out below it."""
        terms = []
        for j in range(self.horizon):
            e, c = self.term_pair(j)
            if not (e < delta):
                return ValuedSeries(self.field, self.group, terms, delta)
            terms.append((e, c))
        raise HorizonError(
            "pseudo-limit support does not reach truncation "
            f"{self.group.to_json(delta)} within horizon")

    # -- derived elements ---------------------------------------------
    def stage(self, j: int, delta) -> ValuedSeries:
        """Unit stage element y_j = (y - v_j) / (v_{j+1} - v_j), to truncation delta."""
        y = self.limit(self.group.add(delta, self.gamma(j)))
        num = y - self.term(j)
        return num.div(self.scale(j))

    def restage_coeffs(self, j: int, t: int) -> Tuple[ValuedSeries, ValuedSeries]:
        """Exact (d, b) with y_j = d + b*y_t; d a unit, val(b) > 0."""
        if not j < t:
            raise InputError(f"restage needs j < t, got {j}, {t}")
        sj = self.scale(j)
        d = (self.term(t) - self.term(j)).div(sj)
        b = self.scale(t).div(sj)
        return d, b


class RuleSequence(PseudoSequence):
    """Sequence generated from exponent and coefficient rules.

    The rules are read once into one form.  Exponents are a head list
    followed by an arithmetic tail, e_j = head[-1] + (j - len(head) + 1) *
    step (arith is the head [a] with step b, list is its values with its
    step), or geom's doubling a * 2^j past the head [a].  Coefficients are
    a cycle, c_j = cycle[j % len(cycle)] (const is a cycle of one)."""

    def __init__(self, field: Field, exp_rule: dict, coeff_rule: dict,
                 horizon: int = DEFAULT_HORIZON):
        if horizon < 1:
            raise InputError(f"horizon must be a positive integer, got {horizon!r}")
        self.field = field
        self.horizon = horizon
        kind, ck = exp_rule.get("kind"), coeff_rule.get("kind")
        if kind not in ("arith", "geom", "list"):
            raise InputError(f"unknown exponent rule {kind!r}")
        if ck == "const":
            cycle = [coeff_rule["c"]]
            if field.is_zero(cycle[0]):
                raise InputError("coefficient rule must be nonzero")
        elif ck == "cycle":
            cycle = coeff_rule["values"]
            if not cycle or any(field.is_zero(c) for c in cycle):
                raise InputError("cycle coefficients must be nonzero")
        else:
            raise InputError(f"unknown coefficient rule {ck!r}")
        self._kinds, self._cycle = (kind, ck), list(cycle)
        if kind == "list":
            if not exp_rule["values"]:
                raise InputError("exponent list must be nonempty")
            self._head, self._step = list(exp_rule["values"]), exp_rule["step"]
        elif kind == "arith":
            self._head, self._step = [exp_rule["a"]], exp_rule["b"]
        else:
            self._head, self._step = [exp_rule["a"]], None
        elements = self._head + ([] if self._step is None else [self._step])
        self.group = group_of(elements[0])
        self.group.check(*elements)
        # Every later step is a positive multiple of the last step checked
        # here: the tail's step, or a * 2^j for geom.
        exps = [self._exp(j) for j in range(len(self._head) + 1)]
        if exps[0] < self.group.zero():
            raise InputError("exponents must be >= 0")
        if not all(a < b for a, b in zip(exps, exps[1:])):
            raise InputError("exponent rule must be strictly increasing")

    def _exp(self, j: int):
        head, g = self._head, self.group
        if j < len(head):
            return head[j]
        if self._step is None:
            return g.scale(head[0], 2 ** j)
        return g.add(head[-1], g.scale(self._step, j - len(head) + 1))

    def term_pair(self, j: int) -> Tuple[object, object]:
        cycle = self._cycle
        return self._exp(j), cycle[j % len(cycle)]

    # -- JSON ----------------------------------------------------------
    def to_json(self):
        enc, coeff_enc = self.group.to_json, self.field.coeff_to_json
        kind, ck = self._kinds
        if kind == "list":
            exp = {"kind": kind, "values": [enc(v) for v in self._head], "step": enc(self._step)}
        else:
            exp = {"kind": kind, "a": enc(self._head[0])}
            if kind == "arith":
                exp["b"] = enc(self._step)
        coeff = ({"kind": ck, "c": coeff_enc(self._cycle[0])} if ck == "const"
                 else {"kind": ck, "values": [coeff_enc(c) for c in self._cycle]})
        out = {"seq": "rule", "exp": exp, "coeff": coeff, "horizon": self.horizon}
        out.update(field_to_json(self.field))
        return out

    @staticmethod
    def from_json(obj) -> "RuleSequence":
        field = field_from_json(obj)
        exp_json = obj["exp"]
        exp = {"kind": exp_json["kind"]}
        if exp["kind"] == "arith":
            exp["a"] = element_from_json(exp_json["a"])
            exp["b"] = element_from_json(exp_json["b"])
        elif exp["kind"] == "geom":
            exp["a"] = element_from_json(exp_json["a"])
        elif exp["kind"] == "list":
            exp["values"] = [element_from_json(v) for v in exp_json["values"]]
            exp["step"] = element_from_json(exp_json["step"])
        else:
            raise InputError(f"unknown exponent rule {exp['kind']!r}")
        coeff_json = obj["coeff"]
        if coeff_json["kind"] == "const":
            coeff = {"kind": "const", "c": field.coeff_from_json(coeff_json["c"])}
        elif coeff_json["kind"] == "cycle":
            coeff = {"kind": "cycle",
                     "values": [field.coeff_from_json(c) for c in coeff_json["values"]]}
        else:
            raise InputError(f"unknown coefficient rule {coeff_json['kind']!r}")
        return RuleSequence(field, exp, coeff,
                            require_int(obj.get("horizon", DEFAULT_HORIZON), "horizon"))


class TableSequence(PseudoSequence):
    """Sequence given by an explicit finite term table.

    The smooth verifier reads a chain member as the table of its terms
    known below a cap: partial sums, gaps and scales up to the table
    length are exact, and nothing past the table is claimed (the horizon
    is the table length).
    """

    def __init__(self, field: Field, terms: Sequence[Tuple[object, object]]):
        if not terms:
            raise InputError("term table needs at least one entry")
        group = group_of(terms[0][0])
        group.check(*(e for e, _ in terms))
        for (e0, _), (e1, _) in zip(terms, terms[1:]):
            if not e0 < e1:
                raise InputError("term table exponents must be strictly increasing")
        if terms[0][0] < group.zero():
            raise InputError("exponents must be >= 0")
        if any(field.is_zero(c) for _, c in terms):
            raise InputError("table coefficients must be nonzero")
        self.field = field
        self.group = group
        self.horizon = len(terms)
        self._terms = [(e, c) for e, c in terms]

    def term_pair(self, j: int) -> Tuple[object, object]:
        return self._terms[j]

    def to_json(self):
        out = {"seq": "table",
               "terms": [[self.group.to_json(e), self.field.coeff_to_json(c)]
                         for e, c in self._terms]}
        out.update(field_to_json(self.field))
        return out

    @staticmethod
    def from_json(obj) -> "TableSequence":
        field = field_from_json(obj)
        terms = [(element_from_json(e), field.coeff_from_json(c))
                 for e, c in obj["terms"]]
        return TableSequence(field, terms)


def sequence_from_json(obj) -> PseudoSequence:
    kind = obj.get("seq", "rule")
    if kind == "rule":
        return RuleSequence.from_json(obj)
    if kind == "table":
        return TableSequence.from_json(obj)
    raise InputError(f"unknown sequence kind {kind!r}")


class DerivedSequence(PseudoSequence):
    """Partial-sum sequence of a series given by a materialization callback.

    materialize(delta) must return the series known below delta (exact
    results are accepted and simply bound the available terms).  Terms
    are materialized only as far as they are read, the window doubling
    from seed_delta at most MAX_DOUBLINGS times in all.  Nothing
    serialises one: a certificate echoes the problem it derives from.
    """

    def __init__(self, field: Field, materialize: Callable[[object], ValuedSeries],
                 seed_delta, horizon: int = DEFAULT_HORIZON):
        self.field = field
        self.group = group_of(seed_delta)
        self.horizon = horizon
        self._materialize = materialize
        self._delta, self._doublings = seed_delta, 0
        self._series = materialize(seed_delta)

    def term_pair(self, j: int) -> Tuple[object, object]:
        while len(self._series.nums) <= j:
            if self._series.exact:
                raise HorizonError(
                    f"underlying series has only {len(self._series.nums)} terms")
            if self._doublings == MAX_DOUBLINGS:
                raise HorizonError(f"term {j} is unknown after {MAX_DOUBLINGS} window doublings")
            # the window doubles only once the wider one is materialized, so
            # a read that failed fails the same way again
            delta = self.group.scale(self._delta, 2)
            self._delta, self._series = delta, self._materialize(delta)
            self._doublings += 1
        return self._series.terms[j]


def lacunary_sequence(field: Field, horizon: int = DEFAULT_HORIZON,
                      coeffs: Optional[Sequence] = None) -> RuleSequence:
    """Default transcendental-style sequence: e_j = 2^j, unit coefficients."""
    if coeffs is None:
        coeff_rule = {"kind": "const", "c": field.one()}
    else:
        coeff_rule = {"kind": "cycle", "values": list(coeffs)}
    return RuleSequence(field, {"kind": "geom", "a": 1}, coeff_rule, horizon)

