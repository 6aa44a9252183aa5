"""Shared exception types.

Censoring is an expected outcome of bounded-depth simulation, not a bug,
so it gets its own exception carrying a tally report.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ChaconlabError(Exception):
    """Base class for all package errors."""


class OutOfDomainError(ChaconlabError):
    """A point lies outside the region the system covers."""


class DepthExceededError(ChaconlabError):
    """The map is undefined at this point without building a deeper system.

    ``steps_completed`` counts how many applications succeeded before the
    failure (0 when the very first application failed).
    """

    def __init__(self, message: str, steps_completed: int = 0):
        super().__init__(message)
        self.steps_completed = steps_completed


@dataclass(frozen=True)
class CensorReport:
    """How many atoms survived a censored step, and why the rest did not.

    ``reasons`` maps ``DepthExceeded`` or ``PMaxExceeded`` to a count.
    """

    survived: int
    censored: int
    reasons: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.survived < 0 or self.censored < 0:
            raise ValueError("counts must be nonnegative")


class CensoredError(ChaconlabError):
    """A sampled quantity could not be resolved within the given budget.

    ``report`` is a :class:`CensorReport`.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InsufficientDataError(ChaconlabError):
    """A statistical procedure received too little data to say anything."""
