"""Exception types shared across the package.

The CLI maps these onto its exit-code contract (0 ok, 2 config,
3 input data, 4 numeric failure).
"""

import dataclasses
import math
import operator


class ApiqError(Exception):
    """Base class for all package errors."""


class ShapeError(ApiqError, ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ApiqError, ValueError):
    """Invalid configuration (bad key, bad value, bad divisibility)."""


def check(name: str, value, lo=None, hi=None, above=None, choices=None) -> None:
    """Raise `ConfigError` naming setting `name` and `value` unless `value`
    is >= lo, <= hi, > above and one of `choices`; a bound of None does not
    apply, and a float must also be finite."""
    rules = [("finite", math.isfinite(value))] if isinstance(value, float) else []
    rules += [(f"{op} {bound}", holds(value, bound)) for op, bound, holds in
              ((">=", lo, operator.ge), ("<=", hi, operator.le), (">", above, operator.gt))
              if bound is not None]
    if choices is not None:
        rules.append((f"one of {', '.join(map(str, choices))}", value in choices))
    if not all(ok for _, ok in rules):
        raise ConfigError(f"{name} must be {' and '.join(r for r, _ in rules)}, "
                          f"got {value!r}")


def check_fields(obj) -> None:
    """`check` each field of dataclass `obj` against the bound its metadata
    declares (the keyword arguments of `check`)."""
    for f in dataclasses.fields(obj):
        check(f.name, getattr(obj, f.name), **f.metadata)


class InputError(ApiqError, ValueError):
    """Invalid input data (corpus too short, token out of vocab, ...)."""


class FormatError(ApiqError, ValueError):
    """Malformed serialized data. Carries a byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class StateError(ApiqError, RuntimeError):
    """Operation invoked in an invalid order (e.g. backward twice)."""


class NumericError(ApiqError, ArithmeticError):
    """Non-finite values or failed numeric iteration."""
