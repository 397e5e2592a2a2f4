"""Exception types raised by the coupledpdc package, and the per-row
failure records of the batched engine.

Every failure a check can record is a row of one table, :data:`ERRORS`:
a failure's code is its class's index there, and each class carries the
``tag`` a sweep's status column shows and the fixed ``message`` it is
raised with.  A batch of N rows records its failures as N ``uint8``
codes, 0 while a row passes.  Checks run in the order a single row runs
them and flag only rows without a failure, so each row keeps its first
one; the single-point functions are batches of one that raise the class
of their code.  Counting a record's failures by class is one
``np.bincount``.
"""

from typing import Optional, Type

import numpy as np

__all__ = [
    "PdcModelError", "UndefinedCoherenceError", "NonRealCorrelationError",
    "TanhDomainError", "ExtractionResidualError", "DegenerateGeometryError",
    "ZeroSchemeError", "TruncationLeakageError", "NonFiniteMatrixError",
    "SymplecticDriftError", "PairConservationError", "CoherenceBoundError",
    "ParameterCapError",
]


class PdcModelError(Exception):
    """Base class for all domain errors raised by this package.  Without
    an argument an error carries its class's ``message``."""

    tag: str
    message: str

    def __init__(self, message: Optional[str] = None):
        super().__init__(self.message if message is None else message)


class UndefinedCoherenceError(PdcModelError):
    """Mutual coherence is a 0/0 expression (an empty signal mode)."""

    tag = "undefined-coherence"
    message = ("signal occupations are too small to normalize the "
               "cross-correlation")


class NonRealCorrelationError(PdcModelError):
    """A correlation that must be real (or purely imaginary) is not."""

    tag = "non-real-correlation"
    message = "a tanh inversion argument is not real"


class TanhDomainError(PdcModelError):
    """A tanh inversion received an argument of magnitude >= 1 beyond
    the rounding allowance."""

    tag = "tanh-domain"
    message = "|tanh argument| exceeds 1 beyond the rounding allowance"


class ExtractionResidualError(PdcModelError):
    """Scheme extraction finished with back-propagated correlations that
    do not vanish to tolerance."""

    tag = "residual-too-large"
    message = "the extraction residual exceeds its limit"


class DegenerateGeometryError(PdcModelError):
    """The which-way geometry has an empty signal channel, so the
    measurement angle is undefined."""

    tag = "degenerate-geometry"
    message = "a signal channel is empty: the measurement angle is undefined"


class ZeroSchemeError(PdcModelError):
    """Every coupling of the scheme is zero; no photon pair is produced."""

    tag = "zero-scheme"
    message = "all couplings vanish: no pair is produced"


class TruncationLeakageError(PdcModelError):
    """Too much population reached the edge of the truncated number basis;
    the result is not trustworthy at this cutoff."""

    tag = "leakage"
    message = "boundary population exceeds its limit; raise the cutoff"


class NonFiniteMatrixError(PdcModelError, ValueError):
    """A matrix, or a moment computed from it, has non-finite entries
    (for example ``exp(iHL)`` overflowing far above threshold)."""

    tag = "non-finite"
    message = "matrix has non-finite entries"


class SymplecticDriftError(PdcModelError, ValueError):
    """A transfer matrix violates ``M eta M^H = eta`` beyond the
    tolerance scaled to its entries."""

    tag = "symplectic-drift"
    message = "matrix is not symplectic"


class PairConservationError(PdcModelError, ValueError):
    """Signal and idler photon totals differ beyond the tolerance scaled
    to the occupations."""

    tag = "pair-conservation"
    message = "pair production must create equal signal and idler totals"


class CoherenceBoundError(PdcModelError, ValueError):
    """A computed signal coherence exceeds the unit bound by more than
    the rounding slack."""

    tag = "coherence-bound"
    message = "|gamma| violates the unit bound"


class ParameterCapError(PdcModelError, ValueError):
    """An extracted scheme coupling reaches the sanity cap of the
    inversion domain."""

    tag = "parameter-cap"
    message = "an extracted coupling reaches the sanity cap"


class _NormDriftError(PdcModelError, ArithmeticError):
    """A number-basis evolution's norm is off 1 beyond ``TOL.fock_norm``;
    an ``ArithmeticError`` too, which ``except ArithmeticError`` catches."""

    tag = "error"
    message = "evolution lost unitarity"


#: The classes a record's codes index; code 0 is no failure.
ERRORS = (None, UndefinedCoherenceError, NonRealCorrelationError,
          TanhDomainError, ExtractionResidualError, DegenerateGeometryError,
          ZeroSchemeError, TruncationLeakageError, NonFiniteMatrixError,
          SymplecticDriftError, PairConservationError, CoherenceBoundError,
          ParameterCapError, _NormDriftError)


def no_failures(n: int) -> np.ndarray:
    """Failure record of a batch of ``n`` rows that all pass so far."""
    return np.zeros(n, dtype=np.uint8)


def flag(failed: np.ndarray, mask: np.ndarray,
         error: Type[PdcModelError]) -> None:
    """Record ``error`` for each row of ``mask`` that has no failure yet
    (in place)."""
    failed[mask & (failed == 0)] = ERRORS.index(error)


def first_of(failed: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Row-wise first failure of two records."""
    return np.where(failed != 0, failed, later)


def raise_first(failed: np.ndarray) -> None:
    """Raise the failure of a batch of one, if it has one."""
    if failed[0]:
        raise ERRORS[failed[0]]()
