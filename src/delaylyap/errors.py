"""Exception types shared across the package."""


class DelayLyapError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DelayLyapError):
    """A coefficient matrix or vector has the wrong shape."""


class NonincreasingDelays(DelayLyapError):
    """Delays are not strictly increasing and positive."""


class SingularK0(DelayLyapError):
    """sum(A_j) - I is singular or too close to singular to invert."""


class NonFiniteInput(DelayLyapError):
    """An input value is NaN or infinite where a finite real is required."""


class NonRationalInput(DelayLyapError):
    """An exact rational delay list was required but not supplied."""


class HorizonTooLarge(DelayLyapError):
    """The requested horizon would generate more lattice points than the
    cap, or (rational delays) more steps of h = gcd(h_j) than int64 holds."""


class RecursionDepthExceeded(DelayLyapError):
    """The recursion response needs more time points than its node budget."""


class CriticalSystem(DelayLyapError):
    """The Lyapunov block system is singular or numerically unsolvable."""


class SizeExceeded(DelayLyapError):
    """A construction would exceed the configured unknown-count cap."""


class NotStable(DelayLyapError):
    """An operation that needs a verified stable system got something else."""


class OutOfDomain(DelayLyapError):
    """A function was evaluated outside the interval it is defined on."""


class OrderUnavailable(DelayLyapError):
    """A float delay has no usable convergent at this order: the order is
    negative, or the convergent is 0."""


class ParseError(DelayLyapError):
    """A system descriptor or config file could not be parsed."""
