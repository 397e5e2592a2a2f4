"""Exception types raised by the coupledpdc package."""


class PdcModelError(Exception):
    """Base class for all domain errors raised by this package."""


class UndefinedCoherenceError(PdcModelError):
    """Mutual coherence is a 0/0 expression (an empty signal mode)."""


class NonRealCorrelationError(PdcModelError):
    """A correlation that must be real (or purely imaginary) is not."""


class TanhDomainError(PdcModelError):
    """A tanh inversion received an argument of magnitude >= 1 beyond
    the rounding allowance."""


class ExtractionResidualError(PdcModelError):
    """Scheme extraction finished with back-propagated correlations that
    do not vanish to tolerance."""


class DegenerateGeometryError(PdcModelError):
    """The which-way geometry has an empty signal channel, so the
    measurement angle is undefined."""


class ZeroSchemeError(PdcModelError):
    """Every coupling of the scheme is zero; no photon pair is produced."""


class TruncationLeakageError(PdcModelError):
    """Too much population reached the edge of the truncated number basis;
    the result is not trustworthy at this cutoff."""


class NonFiniteMatrixError(PdcModelError, ValueError):
    """A matrix, or a moment computed from it, has non-finite entries
    (for example ``exp(iHL)`` overflowing far above threshold)."""


class SymplecticDriftError(PdcModelError, ValueError):
    """A transfer matrix violates ``M eta M^H = eta`` beyond the
    tolerance scaled to its entries."""


class PairConservationError(PdcModelError, ValueError):
    """Signal and idler photon totals differ beyond the tolerance scaled
    to the occupations."""
