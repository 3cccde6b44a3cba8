"""Exception types shared across the package."""


class PowerCtlError(Exception):
    """Base class for all package errors."""


class AssumptionViolation(PowerCtlError, ValueError):
    """A model assumption (feasibility condition) does not hold."""


class NotADistribution(PowerCtlError, ValueError):
    """A probability vector or stochastic-matrix row fails to normalize."""


class NonConvergent(PowerCtlError, RuntimeError):
    """A path settled away from its target, or exceeded its arc cap.

    A settled path carries its value (tail priced to the time cap) in ``value``.
    """

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class DegenerateRegime(PowerCtlError, ValueError):
    """The two regime constants are not properly ordered."""


class ConvexityUnverified(PowerCtlError, RuntimeError):
    """Noise power exceeds the convexity certificate; refusing to classify."""


class DomainError(PowerCtlError, ValueError):
    """Argument outside the domain of a closed-form expression."""


class Infeasible(PowerCtlError, ValueError):
    """Transmit count outside the action set: k not a whole number, outside
    [0, n4] (only class 4 transmits), or outside [0, N] for
    ``finite.transmit_power``."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class NoConvergence(PowerCtlError, RuntimeError):
    """Value iteration failed to meet the span tolerance."""

    def __init__(self, message, span=None, iterations=None):
        super().__init__(message)
        self.span = span
        self.iterations = iterations


class MultichainDetected(PowerCtlError, RuntimeError):
    """Policy-induced chain has more than one recurrent class."""
