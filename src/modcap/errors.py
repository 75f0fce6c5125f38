"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ModcapError", "InvalidInstanceError", "SolverError", "NoBarycenterError"]


class ModcapError(Exception):
    """Base class for errors raised by this package."""


class InvalidInstanceError(ModcapError, ValueError):
    """Invalid input: a malformed space, measure, curve, family or argument.

    Also a ValueError, so callers that catch ValueError keep working.
    """


class SolverError(ModcapError):
    """An iterative solver failed to reach its tolerance.

    Carries the last relative gap (or residual) in ``gap``.
    """

    def __init__(self, message: str, gap: float | None = None):
        super().__init__(message)
        self.gap = gap


class NoBarycenterError(ModcapError):
    """A plan puts mass where the reference measure vanishes."""
