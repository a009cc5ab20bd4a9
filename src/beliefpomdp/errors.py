"""Exception types shared across the package, and the zero-likelihood threshold."""


class BeliefPomdpError(Exception):
    """Base class for all package-specific errors."""


class ModelFormatError(BeliefPomdpError):
    """A model file is malformed or fails validation."""


#: below this normalizer an observation is treated as impossible
ZERO_LIKELIHOOD_THRESHOLD = 1e-300


class ZeroLikelihood(BeliefPomdpError):
    """An observation has (numerically) zero probability under the model."""


class ResourceLimit(BeliefPomdpError):
    """A requested computation exceeds a configured size cap."""


class DimensionMismatch(BeliefPomdpError):
    """Matrix or vector shapes are incompatible."""


class NegativeEigenvalue(BeliefPomdpError):
    """A spectral root requires a nonnegative spectrum and found otherwise."""


class PostconditionFailed(BeliefPomdpError):
    """A computed result violates its own declared postcondition."""


class PreconditionFailed(BeliefPomdpError):
    """Inputs do not satisfy a documented precondition of the operation."""


class StructureViolation(BeliefPomdpError):
    """A guaranteed structural property failed to materialize numerically."""


class HorizonUnbounded(BeliefPomdpError):
    """An undiscounted simulation has no guaranteed termination."""
