"""Exception and warning types shared across the package, and the summary
of caught warnings that run reports carry."""


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


def warning_summary(caught) -> dict:
    """Count and first message per category of the caught warnings;
    StationarityWarning is always listed."""
    out = {StationarityWarning.__name__: {"count": 0, "first": None}}
    for w in caught:
        entry = out.setdefault(w.category.__name__, {"count": 0, "first": None})
        entry["count"] += 1
        if entry["first"] is None:
            entry["first"] = str(w.message)
    return out
