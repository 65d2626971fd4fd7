"""Semantic exception hierarchy.

Engines refuse inputs they cannot handle reliably instead of returning
degraded numbers; each refusal mode gets its own class so callers can
dispatch to a fallback engine (usually Monte Carlo) or abort.
"""


class MomentBoundsError(Exception):
    """Base class for all package errors."""


class EngineCapacityError(MomentBoundsError):
    """Input exceeds a hard capacity limit (e.g. the enumeration cap), or a
    unit-scale moment leaves the normal float range.

    An engine ladder moves on to its next engine.
    """


class DegenerateCoefficientsError(MomentBoundsError):
    """Coefficients violate the distinctness/nonzero preconditions of the
    partial-fraction engine.  The exponential ladder moves on to the
    characteristic-function engine and, where that cancels, the recursion.
    """


class ResidueCancellationError(MomentBoundsError):
    """Partial-fraction residues are too large for reliable floating-point
    summation (catastrophic cancellation)."""


class QuadratureError(MomentBoundsError):
    """Adaptive quadrature failed to converge within its subdivision cap."""


class UnboundedSupremumError(MomentBoundsError):
    """The dual-norm supremum is not finite for the supplied Orlicz data."""


class JobValidationError(MomentBoundsError, ValueError):
    """A CLI job document, or a parameter its computation needs, failed
    validation.

    ``field`` holds the path of the offending field (e.g. ``"p[1]"``) and
    ``message`` what is wrong with it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")
