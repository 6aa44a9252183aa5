"""Shared exception types.

Censoring is an expected outcome of bounded-depth simulation, not a bug,
so it gets its own exception family: each censoring exception names why
the sample was lost in its class attribute ``reason``.
"""

from __future__ import annotations


class ChaconlabError(Exception):
    """Base class for all package errors."""


class OutOfDomainError(ChaconlabError):
    """A point lies outside the region the system covers."""


class CensoredError(ChaconlabError):
    """A sampled quantity could not be resolved within the given budget.

    Subclasses set ``reason``, the key under which reports count it.
    """

    reason = "Censored"


class DepthExceededError(CensoredError):
    """The map is undefined at this point without building a deeper system.

    ``steps_completed`` counts how many applications succeeded before the
    failure (0 when the very first application failed).
    """

    reason = "DepthExceeded"

    def __init__(self, message: str, steps_completed: int = 0):
        super().__init__(message)
        self.steps_completed = steps_completed


class PMaxExceededError(CensoredError):
    """A search for a return time used up its step budget ``p_max``."""

    reason = "PMaxExceeded"


class InsufficientDataError(ChaconlabError):
    """A statistical procedure received too little data to say anything."""
