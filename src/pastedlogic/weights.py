"""Weights on event structures and the admissibility check.

A weight assigns one number to every atom.  It is admissible when every
value lies in [0, 1] and every context sums to exactly 1: the same
number serves as the probability of an atom in every context containing
it.  Admissible weights form a polytope; the distinguished points used
throughout are the half weight on a cycle (1/2 on cyclic atoms, 0 on the
rest) and the one-parameter path family p(ai) = 1/(2+r),
p(xi) = r/(2+r) that joins the midpoint limit (r -> infinity), the
uniform weight (r = 1) and the half weight (r -> 0).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Any

from .errors import (
    NegativePathParameterError,
    SchemaError,
    UnknownAtomError,
    ValidationError,
)
from .numeric import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    _require_keys,
    as_fraction,
    check_tolerance,
    clear_denominators,
    coerce_values,
    fields_to_json,
    is_exact,
    is_number,
    load_json,
    values_from_json,
)
from .structures import EventStructure, check_names, cycle_form

Numeric = Fraction | float

_ONE = Fraction(1)


@dataclass(frozen=True)
class Weight:
    """An atom -> value map over one structure, homogeneous in mode;
    ``make_weight`` builds it, with the values in structure atom order,
    read-only."""

    structure: EventStructure
    mode: str
    values: Mapping[str, Numeric]

    def __getitem__(self, atom: str) -> Numeric:
        try:
            return self.values[atom]
        except KeyError:
            raise UnknownAtomError(f"unknown atom {atom!r}") from None

    def items(self):
        """(atom, value) pairs in structure atom order."""
        return tuple((a, self.values[a]) for a in self.structure.atoms)

    @cached_property
    def point(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, nums)``: the values in atom order over their least
        common denominator, floats decomposed exactly.  Computed on first
        read, as the values never change, and not a field, so not printed."""
        scale, nums = clear_denominators(list(map(as_fraction, self.values.values())))
        return scale, tuple(nums)

    def __reduce__(self):
        return make_weight, (self.structure, dict(self.values), self.mode)

    to_json_dict = fields_to_json


def check_same_structure(structure: EventStructure, weight: Weight) -> None:
    """Raise ValidationError unless the weight lives on ``structure``
    (the same object, or an equal one not made by the loaders, which
    return a live equal structure itself)."""
    if not (weight.structure is structure or weight.structure == structure):
        raise ValidationError("the weight is over a different structure")


def make_weight(
    structure: EventStructure,
    values: Mapping[str, Any],
    mode: str | None = None,
) -> Weight:
    """Build a Weight, checking coverage and mode homogeneity.

    Every atom of the structure must get a value and no extra names are
    allowed.  Exact values (ints, Fractions) yield rational mode, floats
    yield float mode; mixtures need an explicit ``mode``.
    """
    check_names(values, structure.atom_index, "atoms in the weight")
    coerced, actual_mode = coerce_values(values, mode)
    return Weight(structure=structure, mode=actual_mode,
                  values=MappingProxyType({a: coerced[a] for a in structure.atoms}))


def weight_from_json_dict(doc: Mapping, structure: EventStructure) -> Weight:
    """Parse ``{"mode": "rational"|"float", "values": {...}}``."""
    _require_keys(doc, {"mode", "values"}, {"values"}, "weight")
    mode = doc.get("mode")
    if mode not in (None, RATIONAL, FLOAT):
        raise SchemaError(f"unknown weight mode {mode!r}")
    return make_weight(structure, values_from_json(doc["values"], "weight 'values'"), mode)


def weight_from_json(text: str, structure: EventStructure) -> Weight:
    return weight_from_json_dict(load_json(None, text), structure)


def to_rational(weight: Weight) -> Weight:
    """Exact conversion: every finite float is a dyadic rational."""
    if weight.mode == RATIONAL:
        return weight
    return make_weight(
        weight.structure, {a: as_fraction(v) for a, v in weight.values.items()}
    )


def to_float(weight: Weight) -> Weight:
    if weight.mode == FLOAT:
        return weight
    return make_weight(weight.structure, weight.values, mode=FLOAT)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Context sums and the verdict of the admissibility check.

    ``admissible`` holds exactly when ``max_deviation <= tolerance`` and
    every value sits in ``[-tolerance, 1 + tolerance]``; in rational mode
    the tolerance is 0 and all comparisons are exact.
    """

    mode: str
    tolerance: Numeric
    context_sums: Mapping[str, Numeric]
    max_deviation: Numeric
    values_in_box: bool
    admissible: bool

    to_json_dict = fields_to_json


def check_admissible(weight: Weight, tol: float = DEFAULT_TOL) -> AdmissibilityReport:
    """Check box constraints and per-context normalisation.

    Float mode compares against ``tol``; rational mode ignores ``tol``
    and demands exact equality.  A rational weight is checked in
    integers, on its ``point``: a context sums to 1 when its
    scaled values sum to the scale, and a value is in [0, 1] when its
    scaled value is in [0, scale].  A negative ``tol`` is refused.
    """
    check_tolerance(tol)
    structure = weight.structure
    contexts = zip(structure.context_names, structure.contexts)
    if weight.mode == RATIONAL:
        scale, nums = weight.point
        scaled = dict(zip(weight.values, nums))
        sums: dict[str, Numeric] = {}
        worst = 0
        for name, ctx in contexts:
            t = sum(scaled[a] for a in ctx)
            sums[name] = _ONE if t == scale else Fraction(t, scale)
            worst = max(worst, abs(t - scale))
        in_box = all(0 <= n <= scale for n in nums)
        return AdmissibilityReport(
            RATIONAL, Fraction(0), sums, Fraction(worst, scale), in_box, in_box and worst == 0
        )
    tolerance = float(tol)
    sums = {name: sum((weight[a] for a in ctx), 0.0) for name, ctx in contexts}
    max_dev = max((abs(s - 1) for s in sums.values()), default=0.0)
    in_box = all(
        -tolerance <= v <= 1 + tolerance for v in weight.values.values()
    )
    verdict = bool(in_box and max_dev <= tolerance)
    return AdmissibilityReport(weight.mode, tolerance, sums, max_dev, in_box, verdict)


def half_weight(structure: EventStructure) -> Weight:
    """1/2 on the cyclic atoms, 0 elsewhere; admissible on every cycle
    since each context holds two cyclic atoms and one extra atom."""
    form = cycle_form(structure)
    values: dict[str, Fraction] = {a: Fraction(1, 2) for a in form.cyclic_atoms}
    values.update({x: Fraction(0) for x in form.extra_atoms})
    return make_weight(structure, values)


def path_weight(structure: EventStructure, r: Any) -> Weight:
    """The path family p(ai) = 1/(2+r), p(xi) = r/(2+r), r >= 0.

    Exact input (int or Fraction) gives a rational-mode weight; float
    input gives float mode.  r = 0 is the half weight, r = 1 the uniform
    weight, and r -> infinity approaches the midpoint weight (0 on cyclic
    atoms, 1 on the extras).
    """
    form = cycle_form(structure)
    if not is_number(r):
        raise ValidationError(f"path parameter must be a number, got {r!r}")
    if r < 0:
        raise NegativePathParameterError(f"path parameter must be >= 0, got {r!r}")
    r = Fraction(r) if is_exact(r) else r
    values = dict.fromkeys(form.cyclic_atoms, 1 / (2 + r))
    values.update(dict.fromkeys(form.extra_atoms, r / (2 + r)))
    return make_weight(structure, values)


def cyclic_sum(structure: EventStructure, weight: Weight) -> Numeric:
    """Sum of the weight over the cyclic atoms a1..an."""
    check_same_structure(structure, weight)
    return sum(weight[a] for a in cycle_form(structure).cyclic_atoms)


def support(weight: Weight, tol: float = 0.0) -> frozenset[str]:
    """Atoms carrying strictly positive value (above ``tol`` in float
    mode)."""
    check_tolerance(tol)
    threshold: Numeric = Fraction(0) if weight.mode == RATIONAL else float(tol)
    return frozenset(a for a, v in weight.values.items() if v > threshold)
