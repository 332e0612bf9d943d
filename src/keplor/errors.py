"""Exception hierarchy and frozen-record base shared by every keplor module.

All package errors derive from :class:`KeplorError`, so callers can catch one
type at the boundary.  Domain violations additionally subclass the matching
builtin (``ValueError``, ``ArithmeticError``, ``RuntimeError``) so that code
written against the builtins keeps working.
"""

from __future__ import annotations

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
    field, ending in ``__post_init__()`` where the class defines one.  The
    instance ``__dict__`` holds exactly the fields.  A record equals only
    records of its own class, and hashes as the tuple of its fields.
    """

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = fields = tuple(cls.__annotations__)
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        namespace = {"_set": object.__setattr__}
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
