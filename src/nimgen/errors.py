"""Error types shared across the package."""

from __future__ import annotations

__all__ = [
    "NimgenError",
    "SpecParseError",
    "NonAbelianError",
    "TableFormatError",
    "CapacityError",
    "OutOfScopeError",
]


class NimgenError(Exception):
    """Base class for all errors raised deliberately by this package."""


class SpecParseError(NimgenError):
    """A group spec string could not be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonAbelianError(NimgenError):
    """An operation that needs an abelian group was given a non-abelian one."""


class TableFormatError(NimgenError):
    """A Cayley table file is malformed or does not describe a group."""


class CapacityError(NimgenError):
    """The input exceeds a configured size cap."""


class OutOfScopeError(NimgenError):
    """The input falls outside the documented scope of a prediction."""
