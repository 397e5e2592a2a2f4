"""Exception types raised by the coupledpdc package, and the per-row
failure records of the batched engine.

A batch of N rows records its failures in an object array: entry ``i``
is ``None`` while row ``i`` passes, else the exception that row raises on
its own.  Checks run in the order a single row runs them and flag only
rows without a failure, so each row keeps its first one; the
single-point functions are batches of one that raise ``failed[0]``.
"""

from typing import Callable

import numpy as np

__all__ = [
    "PdcModelError", "UndefinedCoherenceError", "NonRealCorrelationError",
    "TanhDomainError", "ExtractionResidualError", "DegenerateGeometryError",
    "ZeroSchemeError", "TruncationLeakageError", "NonFiniteMatrixError",
    "SymplecticDriftError", "PairConservationError", "CoherenceBoundError",
    "ParameterCapError",
]


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


class CoherenceBoundError(PdcModelError, ValueError):
    """A computed signal coherence exceeds the unit bound by more than
    the rounding slack."""


class ParameterCapError(PdcModelError, ValueError):
    """An extracted scheme coupling reaches the sanity cap of the
    inversion domain."""


def no_failures(n: int) -> np.ndarray:
    """Failure record of a batch of ``n`` rows that all pass so far."""
    return np.empty(n, dtype=object)  # object arrays start as None


def flag(failed: np.ndarray, mask: np.ndarray,
         make: Callable[[int], PdcModelError]) -> None:
    """Record ``make(i)`` for each row ``i`` of ``mask`` that has no
    failure yet (in place)."""
    if mask.any():
        for i in mask.nonzero()[0]:
            if failed[i] is None:
                failed[i] = make(int(i))


def first_of(failed: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Row-wise first failure of two records."""
    return np.where(np.equal(failed, None), later, failed)


def raise_first(failed: np.ndarray) -> None:
    """Raise the failure of a batch of one, if it has one."""
    if failed[0] is not None:
        raise failed[0]
