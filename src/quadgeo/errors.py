"""Exception types shared across the package."""


class QuadGeoError(ValueError):
    """Base class for all domain errors raised by this package."""


class DegenerateInputError(QuadGeoError):
    """Input vectors are (numerically) linearly dependent."""


class UmbilicError(QuadGeoError):
    """Principal curvatures coincide on a region; focal data is meaningless there."""

    def __init__(self, msg, nodes=None):
        super().__init__(msg)
        self.nodes = [] if nodes is None else list(nodes)


class NotCurvatureLineError(QuadGeoError):
    """Chart is not aligned with principal directions within tolerance."""


class SignatureError(QuadGeoError):
    """Second fundamental form / induced structure has the wrong signature."""


class NotAsymptoticChartError(QuadGeoError):
    """Chart is not asymptotic: the lift fails focal normalization."""


class NotImmersedError(QuadGeoError):
    """Map fails the immersion rank condition."""


class IllConditionedFrameError(QuadGeoError):
    """A per-node basis is too ill-conditioned to solve against."""


class DegenerateReconstructionError(QuadGeoError):
    """<S_u,S_v> vanishes: the candidate focal surfaces degenerate."""


class FocalValueError(QuadGeoError):
    """A normal shift hit a focal distance (1 - t*kappa = 0)."""


class NonHarmonicInputError(QuadGeoError):
    """Spectral deformation requested for a connection that is not flat enough."""


class StreamlineError(QuadGeoError):
    """Streamline integration left the source chart domain."""


class GroupElementError(QuadGeoError):
    """A 6x6 map does not preserve the pairing within tolerance."""


class NonFiniteInputError(QuadGeoError):
    """Input data holds NaN or infinite values."""


class GridTooSmallError(QuadGeoError):
    """A grid has too few nodes for a stencil margin."""


class MalformedInputError(QuadGeoError):
    """An input file lacks a field or holds one of the wrong type or size."""


class UsageError(QuadGeoError):
    """Bad CLI / config usage."""
