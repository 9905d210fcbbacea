"""Field specs: each rule on a config or dataclass field, stated once.

A Spec gives one field's type and range.  field_violations checks a mapping
against a table of specs and cross-field rules and returns one message per
violation, led by the field's path.  Dataclasses raise the first message as
ValueError; the CLI prints every message and exits 2, so a config that
validates is one the dataclasses accept.  Configs are closed: a key that
no check reads is reported by unknown_fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TYPES = {"integer": (int, np.integer), "number": (int, float, np.integer, np.floating)}


@dataclass(frozen=True)
class Spec:
    """One field's type and range.

    kind is "integer" (Python or numpy integers) or "number" (Python or
    numpy integers and floats); booleans are neither, and a number must be
    finite as a float.  choices, when given, replaces the type and range
    check: only those integers fit, so a bool or a float equal to one does
    not.  lo and hi are inclusive unless lo_open / hi_open.  A field that
    is not required may be absent; given as None it is reported as missing
    unless it is nullable, where None means "not given".
    """

    kind: str = "number"
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    required: bool = True
    nullable: bool = False
    choices: tuple = ()

    def violation(self, value) -> str | None:
        """Why a given value breaks this spec, or None when it fits."""
        if self.choices:
            integer = isinstance(value, _TYPES["integer"]) and not isinstance(value, bool)
            if integer and value in self.choices:
                return None
            return f"must be {' or '.join(map(str, self.choices))}, got {value!r}"
        if isinstance(value, bool) or not isinstance(value, _TYPES[self.kind]):
            noun = "an integer" if self.kind == "integer" else "a number"
            return f"must be {noun}, got {value!r}"
        if self.kind == "number":
            try:
                value = float(value)
            except OverflowError:
                return f"must be a finite number, got {value!r}"
        # written so that NaN fails every bound; bounds first, so that a bounded
        # field reports inf or NaN as out of its range
        if self.lo is not None and not (value > self.lo if self.lo_open else value >= self.lo):
            return f"must be {'>' if self.lo_open else '>='} {self.lo}, got {value}"
        if self.hi is not None and not (value < self.hi if self.hi_open else value <= self.hi):
            return f"must be {'<' if self.hi_open else '<='} {self.hi}, got {value}"
        if self.kind == "number" and not math.isfinite(value):
            return f"must be a finite number, got {value}"
        return None


_COUNT = Spec("integer", lo=1)
_UNIT = Spec(lo=0.0, hi=1.0)
_OPEN_UNIT = Spec(lo=0.0, hi=1.0, lo_open=True, hi_open=True, required=False)
_RATE = Spec(lo=0.0, hi=1.0, hi_open=True)
_RATE_FIELDS = {"e_plus": _RATE, "e_minus": _RATE}
_RATE_RULES = {  # see noise.BinaryNoiseRates for why the sum stays below 1
    "e_minus": ("e_plus", ("e_plus", "e_minus"), lambda a, b: a + b < 1.0,
                lambda a, b: f"e_plus + e_minus must be < 1, got {a + b}"),
}


def field_violations(values, fields: dict, rules: dict | None = None, path: str = "") -> list[str]:
    """One message per broken field or cross-field rule, in table order.

    values maps field names to values.  rules maps a field name to
    (field reported, fields read, predicate, message), checked right after
    that field and only when every field it reads was given and fits.
    """
    prefix = f"{path}." if path else ""
    violations: list[str] = []
    fitting = {}
    for name, spec in fields.items():
        value = values.get(name)
        if (name in values or spec.required) and not (value is None and spec.nullable):
            if value is None and not spec.choices:
                message = f"{name} required"
            else:
                message = spec.violation(value)
            if message is None:
                fitting[name] = value
            else:
                violations.append(f"{prefix}{name}: {message}")
        rule = rules.get(name) if rules else None
        if rule is not None:
            reported, reads, holds, message = rule
            args = [fitting.get(read) for read in reads]
            if None not in args and not holds(*args):
                violations.append(f"{prefix}{reported}: {message(*args)}")
    return violations


def unknown_fields(values, known, path: str = "") -> list[str]:
    """One message per key of values outside known, in the order values gives them."""
    prefix = f"{path}." if path else ""
    return [f"{prefix}{key}: unknown field" for key in values if key not in known]


def reads(*keys: str):
    """Mark a config check with the top-level keys it reads, the keys a config may give."""
    def mark(check):
        check.keys = keys
        return check
    return mark


def raise_first(violations: list[str]) -> None:
    """Raise the first violation as ValueError, as a dataclass check does."""
    if violations:
        raise ValueError(violations[0])
