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
    """The map is undefined at this point without building a deeper system."""

    reason = "DepthExceeded"


class PMaxExceededError(CensoredError):
    """A search for a return time used up its step budget ``p_max``."""

    reason = "PMaxExceeded"


class TooFewAtomsError(CensoredError):
    """A configuration holds fewer atoms than the prefix size k asks for."""

    reason = "TooFewAtoms"


class InsufficientDataError(ChaconlabError):
    """A statistical procedure received too little data to say anything."""
