"""Exceptions, the frozen-record base and the shared argument checks.

All package errors derive from :class:`KeplorError`, so callers can catch one
type at the boundary.  Domain violations additionally subclass the matching
builtin (``ValueError``, ``ArithmeticError``, ``RuntimeError``) so that code
written against the builtins keeps working.

Each argument rule that several modules apply is one ``_check_*`` helper here,
so a bad value gets one message from every entry point.  ``_split_counts``
and ``_parse_count`` read a table's counts for both the CLI and
``TwoByTwoTable.from_text``.
"""

from __future__ import annotations

import math

__all__ = [
    "KeplorError",
    "DomainError",
    "NoSignChange",
    "NonFinite",
    "NoConvergence",
    "ZeroCell",
    "ZeroMargin",
    "InconsistentParams",
    "OrderTooLarge",
]


class KeplorError(Exception):
    """Base class for all keplor errors."""


class DomainError(KeplorError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoSignChange(DomainError):
    """A root bracket does not enclose a sign change of the target function."""


class NonFinite(KeplorError, ArithmeticError):
    """A numerical evaluation produced NaN or an infinity."""


class NoConvergence(KeplorError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ZeroCell(DomainError):
    """A table cell is zero where a positive count is required."""


class ZeroMargin(DomainError):
    """A table row (cases or controls) contains no observations."""


class InconsistentParams(DomainError):
    """Derived quantities fell outside their valid range."""


class OrderTooLarge(DomainError):
    """A requested series truncation order exceeds the supported cap."""


class _Record:
    """Frozen record: the fields are the subclass's own annotations, in order.

    Each subclass gets a generated ``__init__`` with one named parameter per
    field.  It stores each argument straight into the instance ``__dict__``,
    in field order, and ends in ``__post_init__()`` where the class defines
    one.  The instance ``__dict__`` holds exactly the fields.  A record equals
    only records of its own class, and hashes as the tuple of its fields.
    """

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = fields = tuple(cls.__annotations__)
        # The dict's local name must not shadow a parameter.
        store = "_d"
        while store in fields:
            store += "_"
        body = f"\n    {store} = self.__dict__"
        body += "".join(f"\n    {store}[{name!r}] = {name}" for name in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        namespace: dict = {}
        exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
        cls.__init__ = namespace["__init__"]

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen; cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))


def _check_probability(name: str, value: float) -> None:
    # NaN fails both comparisons, so it is rejected here too.
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def _check_derived(name: str, value: float, upper: float = 1.0) -> None:
    # A mix of two tiny probabilities can underflow to 0, a share can round to
    # 0 or 1, and a ratio or spread of tiny risks can overflow (upper = inf).
    if not 0.0 < value < upper:
        raise InconsistentParams(f"derived {name} {value!r} falls outside (0, {upper:g})")


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _check_integer(name: str, value: int, minimum: int) -> None:
    """Reject a bool, a non-int, or an int below `minimum`, which is 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise DomainError(f"{name} must be a {kind} integer, got {value!r}")


def _split_counts(text: str, error: type[Exception]) -> list[str]:
    """The four stripped pieces of 'n11,n12,n21,n22'; `error` if not four."""
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != 4:
        raise error(
            f"expected four comma-separated counts n11,n12,n21,n22, got {text!r}"
        )
    return parts


def _parse_count(text: str, error: type[Exception]) -> int:
    """int(text) for one stripped table count; `error` says why it is not one.

    int() reads at most sys.get_int_max_str_digits() digits (4,300 by default,
    leading zeros included); a longer count is named by its number of digits.
    """
    try:
        return int(text)
    except ValueError:
        sign = text[:1] if text[:1] in ("+", "-") else ""
        groups = text[len(sign) :].split("_")
    if not all(group.isdecimal() for group in groups):
        raise error(f"count {text!r} is not an integer")
    digits = "".join(groups).lstrip("0") or "0"
    try:
        return int(sign + digits)
    except ValueError:
        raise error(
            f"a count of {len(digits):,} digits exceeds the double-precision range"
        ) from None
