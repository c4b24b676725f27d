"""Exception hierarchy shared across the package."""


class DsieError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DsieError):
    """Matrix/vector dimensions are inconsistent with the operation."""


class RankDeficient(DsieError):
    """A design matrix has insufficient column rank for a unique solution."""

    def __init__(self, message, rank=None, deficient_columns=None):
        super().__init__(message)
        self.rank = rank
        self.deficient_columns = list(deficient_columns or [])


class NotPositiveDefinite(DsieError):
    """A matrix required to be positive definite failed factorization."""


class UnrepresentableTopology(DsieError):
    """The network cannot be expressed as a state-space model."""


class DuplicateId(DsieError):
    """Two network elements claim the same identifier."""


class UnknownSensorTarget(DsieError):
    """A sensor refers to a state or input id that does not exist."""


class UnassignedElement(DsieError):
    """A network element is assigned to no area, or to more than one."""


class NonAdjacentShare(DsieError):
    """A declared shared bus is not on the boundary of both areas."""


class CoordinateMismatch(DsieError):
    """Exchanged shared-input coordinates do not align between areas."""


class UnreachableSupport(DsieError):
    """Requested channels cannot carry a pure column-space attack vector."""

    def __init__(self, message, projection_residual=None):
        super().__init__(message)
        self.projection_residual = projection_residual


class WindowOutOfRange(DsieError):
    """An event or attack window lies outside the simulated horizon."""


class SingularAtSteadyState(DsieError):
    """Steady-state initialization requested but the state matrix is singular."""


class InputFileError(DsieError):
    """A network or scenario file failed validation.

    ``problems`` holds one human-readable message per violation, each
    prefixed with the JSON path of the offending field.
    """

    def __init__(self, message, problems=None):
        super().__init__(message)
        self.problems = list(problems or [])
