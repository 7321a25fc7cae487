"""Exception and warning types shared across the package."""


class LookdownError(Exception):
    """Base class for package errors."""


class ConfigurationError(LookdownError, ValueError):
    """Invalid simulation configuration (level cap, window, rates)."""


class DomainError(LookdownError, ValueError):
    """Argument outside the mathematical domain of a law."""


class WindowRangeError(LookdownError, ValueError):
    """Query time outside the simulated window."""


class InsufficientWindowError(WindowRangeError):
    """The simulated window is too short for the requested observable."""


class SampleSizeError(LookdownError, ValueError):
    """Too few samples for the requested statistic."""


class ValidationError(LookdownError, ValueError):
    """Malformed input data (unsorted, mismatched, nonpositive)."""


class DegenerateBinningError(LookdownError, ValueError):
    """All probability mass pooled away; no cells left to test."""


class InternalError(LookdownError):
    """An engine invariant failed: a fault in the package, not in its input."""


class StationarityWarning(UserWarning):
    """Query made with less history than the configured burn-in."""
