"""Exception types shared across the toolkit."""

__all__ = [
    "PlccError",
    "InvalidInput",
    "DegenerateInput",
    "InvalidParameter",
    "SeriesTooShort",
    "EstimationFailed",
    "TruncationWarning",
]


class PlccError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(PlccError):
    """Input data violates a precondition (shape, length, ordering)."""


class DegenerateInput(PlccError):
    """Input data is degenerate for the requested statistic.

    Typical causes: zero variance, a vanishing denominator.
    """


class InvalidParameter(PlccError):
    """A parameter lies outside its allowed range."""


class SeriesTooShort(InvalidInput):
    """The series is too short for the requested scales or frequencies."""


class EstimationFailed(PlccError):
    """An estimator could not produce a usable fit."""


class TruncationWarning(UserWarning):
    """Moving-average cutoff is shorter than the generated series.

    Long-lag autocorrelations of the output are biased toward zero.
    """
