"""Dual-mode numerics: exact rationals next to floats, plus JSON I/O.

This module alone decides what a number is, which numbers are exact and
which are integers (``is_number``, ``is_exact``, ``is_integer``).  A
number is an int, float or Fraction, never a bool.  Ints and Fractions
are exact: they make ``"rational"`` mode, held as Fractions and compared
exactly.  Floats make ``"float"`` mode, compared against a tolerance,
which is a finite number >= 0 (``check_tolerance``).  A mixture needs an
explicit mode, and NaN and infinities are rejected.  One rule turns
numbers into JSON, ``render``: rationals become ``"num/den"`` strings
and floats numbers rounded to 12 significant digits, which keeps every
report byte-deterministic.  A report renders from its fields:
``fields_to_json`` lists them in declaration order, leaves out the
structure the report is about, and passes each through ``render``.
Input files and literals are read here too, and every way they can be
malformed is a ValidationError.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import SchemaError, ValidationError

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_TOL = 1e-9
# is_number and is_exact test the type first: isinstance against Fraction is slow.
_NUMBER_TYPES = (int, float, Fraction)


def is_number(value: Any) -> bool:
    """True for an int, a float or a Fraction, and never for a bool."""
    return type(value) in _NUMBER_TYPES or (
        isinstance(value, _NUMBER_TYPES) and not isinstance(value, bool))


def is_exact(value: Any) -> bool:
    """True for an int or a Fraction, never a bool: the numbers of rational mode."""
    return type(value) in (int, Fraction) or (is_number(value) and not isinstance(value, float))


def as_fraction(value: Any) -> Fraction:
    """Exact conversion to Fraction.

    Floats are decomposed exactly (every finite double is a dyadic
    rational); no rounding or continued-fraction guessing happens here.
    """
    if isinstance(value, Fraction):
        return value
    if not is_number(value):
        raise ValidationError(f"cannot convert {value!r} to an exact rational")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"cannot convert non-finite {value!r} to a rational")
    return Fraction(value)


def is_integer(value: Any) -> bool:
    """True for an int, never a bool: a count, a size or a length."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def check_tolerance(value: Any, what: str = "tol") -> None:
    """Raise ValidationError unless a tolerance or threshold is a finite number >= 0."""
    if not (is_number(value) and 0 <= value < math.inf):
        raise ValidationError(f"{what} must be a finite number >= 0, got {value!r}")


def clear_denominators(values: list) -> tuple[int, list[int]]:
    """The lcm of the denominators of ints and Fractions, and the values
    times it, as ints; an all-int list comes back as it is, with scale 1."""
    if set(map(type, values)) <= {int}:
        return 1, values
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def as_float(value: Any) -> float:
    """float(), with overflow reported as a ValidationError."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError("number too large for a float") from None


def coerce_values(values: Mapping[str, Any], mode: str | None = None) -> tuple[dict, str]:
    """Normalise a name -> number mapping to one homogeneous mode.

    Without an explicit ``mode`` the mode is inferred: all-exact input
    becomes rational, all-float input stays float, and a mixture is
    rejected rather than silently rounded.  NaN and infinities are
    rejected.  A value that already has its mode's type is kept as it is.
    """
    if mode not in (None, RATIONAL, FLOAT):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode != FLOAT and set(map(type, values.values())) <= {Fraction}:
        return dict(values), RATIONAL
    exact = {k: is_exact(v) for k, v in values.items()}
    for k, v in values.items():
        if not (exact[k] or is_number(v)):
            raise ValidationError(f"value for {k!r} is not numeric: {v!r}")
        if not (exact[k] or math.isfinite(v)):
            raise ValidationError(f"value for {k!r} is not finite: {v!r}")
    if mode is None:
        if all(exact.values()):
            mode = RATIONAL
        elif not any(exact.values()):
            mode = FLOAT
        else:
            raise ValidationError("mixed exact and float values; pass an explicit mode")
    if mode == RATIONAL:
        bad = [k for k, ok in exact.items() if not ok]
        if bad:
            raise ValidationError(
                "rational mode requires exact values; got floats for "
                + ", ".join(sorted(bad))
            )
        return {k: v if type(v) is Fraction else Fraction(v) for k, v in values.items()}, RATIONAL
    return {k: v if type(v) is float else as_float(v) for k, v in values.items()}, FLOAT


def numeric_from_json(value: Any) -> Fraction | float:
    """Parse a JSON scalar: ``"num/den"`` strings and ints are exact,
    finite JSON floats stay float (``NaN`` and ``Infinity`` are
    rejected)."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational literal: {value!r}") from exc
    if not is_number(value):
        raise ValidationError(f"expected a number, got {value!r}")
    if is_exact(value):
        return Fraction(value)
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {value!r}")
    return value


def values_from_json(doc: Any, what: str) -> dict[str, Fraction | float]:
    """Parse a JSON object of name -> number with ``numeric_from_json``."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{what} must be a JSON object")
    return {str(k): numeric_from_json(v) for k, v in doc.items()}


def _require_keys(doc: Any, allowed: set[str] | None, required: set[str], what: str) -> None:
    """A JSON object with every ``required`` field and none outside ``allowed`` (None: any)."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{what} must be a JSON object")
    unknown = set() if allowed is None else set(doc) - allowed
    if unknown:
        raise SchemaError(f"{what} has unknown fields: {', '.join(sorted(unknown))}")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{what} is missing fields: {', '.join(sorted(missing))}")


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; an unreadable or undecodable file is a
    SchemaError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc.reason}") from None


def load_json(path: str | Path | None, text: str | None = None) -> Any:
    """Decode ``text``, or else the file at ``path``; every failure is a
    SchemaError.  The package decodes JSON nowhere else."""
    if text is None:
        text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        where = "" if path is None else f" in {path}"
        raise SchemaError(f"invalid JSON{where}: {exc}") from exc


def render(obj: Any) -> Any:
    """Recursively convert a report tree into JSON-safe primitives: the
    one rule for numbers in JSON.  Fractions become ``"num/den"``
    strings, floats are rounded to 12 significant digits (NaN and
    infinities print as their repr), and ints, bools, strings and None
    pass as they are."""
    if isinstance(obj, Mapping):
        return {str(k): render(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [render(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else repr(obj)
    return obj


def fields_to_json(report: Any) -> dict:
    """A dataclass report's fields in declaration order, each rendered;
    the ``structure`` a report is about is not printed."""
    return {
        f.name: render(getattr(report, f.name))
        for f in fields(report)
        if f.name != "structure"
    }


def dumps(obj: Any) -> str:
    """Deterministic JSON text (insertion order preserved, one trailing
    newline)."""
    return json.dumps(render(obj), indent=2) + "\n"
