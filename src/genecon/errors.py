"""Exception types shared across the package."""


class GeneconError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGrid(GeneconError):
    """Measurement grid is malformed (too few points or not strictly increasing)."""


class GridTooSmall(GeneconError):
    """Operation needs more grid points than were supplied."""


class InvalidMatrix(GeneconError):
    """Matrix input is non-finite, non-square, or asymmetric beyond tolerance."""


class NotUnitVector(GeneconError):
    """Vector expected to have unit Euclidean norm does not."""


class RankDeficientSubspace(GeneconError):
    """Supplied spanning set does not have full rank."""


class DimensionMismatch(GeneconError):
    """Operands have incompatible dimensions."""


class SingularPhenotypicCovariance(GeneconError):
    """G + E is not positive definite or too ill-conditioned to invert reliably."""


class UnbalancedDesign(GeneconError):
    """Family data set does not have the same number of members per family."""


class InsufficientData(GeneconError):
    """Fewer than two families or fewer than two members per family."""


class InvalidCovariance(GeneconError):
    """Covariance input for sampling is not positive semidefinite within tolerance."""
