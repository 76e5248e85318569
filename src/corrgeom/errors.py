"""Exception types shared across the package."""


class CorrGeomError(Exception):
    """Base class for all errors raised by this package."""


class IngestError(CorrGeomError):
    """Malformed CSV input (missing cells, bad numbers, broken tick column)."""


class DuplicateIdError(CorrGeomError):
    """Series labels collide."""


class ZeroVarianceError(CorrGeomError):
    """A window is constant, so it has no direction on the sphere."""


class AngleDomainError(CorrGeomError, ValueError):
    """A correlation value lies outside [-1, 1]."""


class MetricViolationError(CorrGeomError):
    """A distance matrix fails the metric axioms beyond tolerance."""


class TooFewPointsError(CorrGeomError):
    """An operation needs more points than were supplied."""


class InvalidTriangleError(CorrGeomError):
    """Side lengths violate the spherical triangle inequalities."""


class WindowTooLongError(CorrGeomError):
    """The summation window exceeds the series length."""
