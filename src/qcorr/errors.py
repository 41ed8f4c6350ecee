"""Exception and warning types shared across the package."""


class QcorrError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QcorrError):
    """Operands have incompatible shapes or subsystem signatures."""


class NotHermitian(QcorrError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NegativeEigenvalue(QcorrError):
    """Matrix has an eigenvalue below the allowed negativity cutoff."""


class NotDensity(QcorrError):
    """Matrix fails the Hermiticity / positivity / unit-trace checks."""


class OutOfRange(QcorrError):
    """Scalar argument outside its documented range."""


class NotProbability(QcorrError):
    """Vector or table is not a valid probability distribution."""


class NotResolutionOfIdentity(QcorrError):
    """Measurement operators do not sum to the identity."""


class UnsupportedDimension(QcorrError):
    """Operation is only defined for two-qubit inputs."""


class SingularBasis(QcorrError):
    """Operator basis is linearly dependent; duals are not unique."""


class DualsDoNotResolveIdentity(QcorrError):
    """Computed dual operators do not sum to the identity."""


class NotRankOne(QcorrError):
    """Projector set contains an element of rank greater than one."""


class NotProjector(QcorrError, ValueError):
    """Measurement operator is not idempotent, or two are not orthogonal."""


class DegenerateMarginalWarning(UserWarning):
    """A marginal spectrum is (near-)degenerate; its eigenprojectors are
    fixed by the deterministic eigen-ordering rather than by physics."""
