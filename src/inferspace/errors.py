"""Exception hierarchy for inference-space operations.

Every error raised by this package derives from :class:`InferenceSpaceError`,
so callers can catch one base class at API boundaries.  Configuration and
schema problems derive from :class:`ConfigurationError`; everything that goes
wrong *numerically* (zero masses, singular Jacobians, support violations)
derives from :class:`NumericalError`.  The CLI maps the former to exit code 2
and the latter to exit code 3.
"""

from __future__ import annotations


class InferenceSpaceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(InferenceSpaceError):
    """Invalid configuration, schema, or argument structure."""


class NumericalError(InferenceSpaceError):
    """A numerically meaningless or degenerate operation was requested."""


# ---------------------------------------------------------------------------
# grid / density construction and evaluation
# ---------------------------------------------------------------------------

class InvalidGrid(ConfigurationError):
    """Axis or grid parameters are malformed (bounds, counts, spacing)."""


class UnknownAxis(ConfigurationError):
    """An axis name does not exist on the grid."""


class GridMismatch(ConfigurationError):
    """Operands live on different grids."""


class NonFinite(NumericalError):
    """Density values contain NaN or infinities."""


class ZeroMass(NumericalError):
    """A density integrates to (numerically) zero where mass is required."""


class NegativeDensity(NumericalError):
    """Density values must be nonnegative."""


class OutOfDomain(NumericalError):
    """A coordinate falls outside the grid box."""


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

class NeutralZero(NumericalError):
    """AND requested where the null-information density vanishes but the
    pointwise product does not."""


class SupportViolation(NumericalError):
    """An operand is positive outside the support allowed by its partner."""


class NotNormalized(NumericalError):
    """An operand was required to be normalized and is not."""


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------

class DomainMismatch(ConfigurationError):
    """A coordinate map does not carry the source box onto the target box."""


class SingularJacobian(NumericalError):
    """The Jacobian vanishes or is not finite somewhere on the domain."""


# ---------------------------------------------------------------------------
# priors and measurement models
# ---------------------------------------------------------------------------

class InvalidBounds(ConfigurationError):
    """Prior or measurement bounds are empty, inverted, or off the grid."""


class ModelAxisMismatch(ConfigurationError):
    """A measurement model is incompatible with the axis it targets
    (e.g. a gaussian on a positivity-constrained logarithmic axis)."""


# ---------------------------------------------------------------------------
# theory building
# ---------------------------------------------------------------------------

class EmptyInput(ConfigurationError):
    """An accumulation was requested over zero experiments."""


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

class ZeroSlice(NumericalError):
    """A conditional was requested along a slice with no mass."""


# ---------------------------------------------------------------------------
# I/O and CLI
# ---------------------------------------------------------------------------

class SchemaError(ConfigurationError):
    """A density or theory file does not match the interchange schema."""


class IOFailure(InferenceSpaceError):
    """An interchange file could not be read or written."""


class ConfigInvalid(ConfigurationError):
    """A run configuration is internally inconsistent."""
