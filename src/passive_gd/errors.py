"""Exception types, and the validators that decide what a valid parameter is."""

import math
from numbers import Integral


class PassiveGdError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PassiveGdError):
    """Dimension mismatch between signals, matrices, or vectors."""


class InvalidParameterError(PassiveGdError):
    """A numeric parameter violates its documented precondition."""


class ContractionError(PassiveGdError):
    """A fixed-point evaluation was requested outside its contraction regime."""


class DegenerateSectorError(PassiveGdError):
    """An operation requires strict sector separation (m < L) but m == L."""


class ConvergenceError(PassiveGdError):
    """An iterative solver exhausted its iteration budget."""


class DivergenceError(PassiveGdError):
    """An optimizer produced a non-finite iterate.

    Carries the last finite iterate in ``last_iterate``.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class LineSearchError(PassiveGdError):
    """A backtracking line search failed to find an acceptable step."""


def _positive(name, v):
    """Refuse ``v`` unless it is finite and above zero; the chained test refuses NaN."""
    if not 0.0 < v < math.inf:
        raise InvalidParameterError(f"{name} must be positive, got {v}")


def _positive_entries(name, values):
    """Refuse the first entry of the array ``values`` that ``_positive`` refuses,
    found with one vectorized test of the same rule."""
    ok = (0.0 < values) & (values < math.inf)
    if not ok.all():
        _positive(name, values[ok.argmin()])


def _count(name, v, minimum):
    """Refuse ``v`` unless it is an integer, not a bool, of at least ``minimum``."""
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {v!r}")
    if v < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {v}")


def _finite_reciprocal(what, name, v):
    """Refuse a positive ``v`` below 1/DBL_MAX (about 5.6e-309): it is
    subnormal, and its reciprocal overflows."""
    if math.isinf(1.0 / float(v)):
        raise InvalidParameterError(f"{what} must have a finite reciprocal, got {name}={v}")


def _sector(m, L):
    """Refuse sector bounds unless 0 < m <= L < inf and 1/L is finite, since
    the feedthrough is classified against 1/L."""
    if not 0.0 < m <= L < math.inf:
        raise InvalidParameterError(
            f"sector bounds must satisfy 0 < m <= L, got m={m}, L={L}"
        )
    _finite_reciprocal("sector bound L", "L", L)


def _interval(lo, hi, what):
    """Refuse the range [lo, hi] unless lo < hi and its width hi - lo is finite."""
    if not (lo < hi and hi - lo < math.inf):
        raise InvalidParameterError(f"empty or unbounded {what} range [{lo}, {hi}]")


def _finite(name, x):
    """Refuse the point ``x`` unless every entry is finite."""
    if not all(map(math.isfinite, x)):
        raise InvalidParameterError(f"{name} must be finite, got {list(map(float, x))}")
