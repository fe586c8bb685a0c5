"""Exception types, and the integer check, shared across the package.

The CLI maps these onto exit codes; library users can catch them
individually. All data-quality problems derive from ValueError so that
casual callers may catch the builtin.
"""

import numbers


class ParseError(ValueError):
    """Malformed input: CSV cells, model files, generator specs."""


class SchemaError(ValueError):
    """Column names / shapes do not line up between two inputs."""


class DegenerateDataError(ValueError):
    """A column (or sample) has zero variance and cannot be modeled."""


class InsufficientDataError(ValueError):
    """Too few rows for the requested fit or test."""


class StructureError(RuntimeError):
    """A vine-structure invariant is violated or a conditional is not derivable."""


def require_integer(name: str, value) -> None:
    """Refuse value, naming the argument, unless it is an integer (a numbers.Integral)."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
