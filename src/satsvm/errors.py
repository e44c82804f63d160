"""Exception types shared across the package.

The CLI maps these onto exit codes: parameter/shape problems are usage
errors (2), file and format problems are data errors (3), and numeric
breakdown during optimization is a numeric failure (4).
"""

import numpy as np


class SatsvmError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SatsvmError, ValueError):
    """A parameter violates its documented domain constraint."""


class ShapeError(SatsvmError, ValueError):
    """Array dimensions are inconsistent."""

    def __init__(self, message, *shapes):
        if shapes:
            message = f"{message} (got {', '.join(str(s) for s in shapes)})"
        super().__init__(message)


class CapacityError(SatsvmError):
    """An operation would exceed a documented size cap."""


class DataFormatError(SatsvmError, ValueError):
    """A data file failed to parse.

    ``line`` is the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericError(SatsvmError, ArithmeticError):
    """Optimization produced a non-finite quantity."""


class DegenerateStatisticError(SatsvmError):
    """A test statistic is undefined for the given inputs."""


def check_finite(spec, names) -> None:
    """Raise ``ParameterError`` for the first of the fields ``names`` of
    ``spec`` that is not finite: a number, or a vector with one value per
    column, any of which is not. An integer past the float range raises
    ``OverflowError``. The specs and the trainer's config call it after
    their range checks, so that no model file or manifest records a
    non-finite number."""
    for name in names:
        value = getattr(spec, name)
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ParameterError(f"{name} must be finite, got {name}={value}")
