"""Vacuum-input second moments and the mutual signal coherence.

For vacuum input, every second moment of the output field is a bilinear
combination of transfer-matrix elements.  In the mixed basis
``(A_s1, A_s2, A_i1^+, A_i2^+)`` the only non-vanishing moments are

* four anomalous signal-idler pair correlations ``<A_s A_i>``,
* the two normal cross-correlations ``<A_s1^+ A_s2>`` and
  ``<A_i1^+ A_i2>``,
* the four occupations ``<A^+ A>``.

Signal-signal and idler-idler anomalous correlations vanish identically
for this device class, as do normal signal-idler correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Union

import numpy as np

from .config import TOL, Tolerances
from .device import TransferMatrix
from .errors import (
    NonFiniteMatrixError,
    PairConservationError,
    UndefinedCoherenceError,
)

__all__ = [
    "MomentSet",
    "CoherenceResult",
    "Intensities",
    "vacuum_moments",
    "signal_coherence",
    "intensities",
]


@dataclass(frozen=True)
class MomentSet:
    """Second moments of the output field over vacuum input.

    ``d`` maps a mode-pair label to a complex correlation: for the
    signal-idler labels (``s1i1``, ``s1i2``, ``s2i1``, ``s2i2``) the
    anomalous correlation ``<A_j A_k>``; for ``s1s2`` and ``i1i2`` the
    normal correlation ``<A_j^+ A_k>``.  ``b`` maps a mode label to its
    occupation ``<A_j^+ A_j>`` (real, >= 0).
    """

    d: Mapping[str, complex]
    b: Mapping[str, float]

    def max_abs(self) -> float:
        """Largest magnitude over all stored moments.

        Zero exactly when the transformation is passive on vacuum, which
        is the back-propagation target of the scheme extractions.
        """
        return max(
            max(abs(v) for v in self.d.values()),
            max(abs(v) for v in self.b.values()),
        )


@dataclass(frozen=True)
class CoherenceResult:
    """Signed mutual coherence of the signal modes with diagnostics.

    ``gamma`` is the real part of ``-i <A_s1^+ A_s2> / sqrt(n_s1 n_s2)``
    (the imaginary unit is factored out so that real-coupling devices give
    a real quantity); ``imag_residue`` is the magnitude of the discarded
    imaginary part; ``fragile`` flags occupations so small that the ratio
    is numerically delicate.
    """

    gamma: float
    imag_residue: float
    fragile: bool = False


@dataclass(frozen=True)
class Intensities:
    """Per-mode occupations of the output field."""

    s1: float
    s2: float
    i1: float
    i2: float

    @property
    def total_signal(self) -> float:
        return self.s1 + self.s2


def vacuum_moments(tm: Union[TransferMatrix, np.ndarray],
                   tol: Tolerances = TOL) -> MomentSet:
    """All non-vanishing vacuum-input second moments of ``tm``'s output.

    ``tm`` is a validated :class:`TransferMatrix` or, for the scheme
    extractions' back-propagated intermediates, a raw 4x4 array.  Raises
    :class:`~coupledpdc.errors.NonFiniteMatrixError` when an occupation
    overflows and :class:`~coupledpdc.errors.PairConservationError` when
    the signal and idler totals differ by more than
    ``tol.pair_conservation`` times ``max(1, signal total)``.
    """
    m = tm.matrix if isinstance(tm, TransferMatrix) else tm
    d = {
        "s1i1": m[0, 0] * np.conj(m[2, 0]) + m[0, 1] * np.conj(m[2, 1]),
        "s1i2": m[0, 0] * np.conj(m[3, 0]) + m[0, 1] * np.conj(m[3, 1]),
        "s2i1": m[1, 0] * np.conj(m[2, 0]) + m[1, 1] * np.conj(m[2, 1]),
        "s2i2": m[1, 0] * np.conj(m[3, 0]) + m[1, 1] * np.conj(m[3, 1]),
        "s1s2": np.conj(m[0, 2]) * m[1, 2] + np.conj(m[0, 3]) * m[1, 3],
        "i1i2": m[2, 0] * np.conj(m[3, 0]) + m[2, 1] * np.conj(m[3, 1]),
    }
    b = {
        "s1": float(abs(m[0, 2]) ** 2 + abs(m[0, 3]) ** 2),
        "s2": float(abs(m[1, 2]) ** 2 + abs(m[1, 3]) ** 2),
        "i1": float(abs(m[2, 0]) ** 2 + abs(m[2, 1]) ** 2),
        "i2": float(abs(m[3, 0]) ** 2 + abs(m[3, 1]) ** 2),
    }
    signal = b["s1"] + b["s2"]
    pair_gap = abs(signal - b["i1"] - b["i2"])
    if not math.isfinite(pair_gap):
        raise NonFiniteMatrixError(
            f"occupations overflowed: signal total {signal:.3e}")
    if pair_gap > tol.pair_conservation * max(1.0, signal):
        raise PairConservationError(
            "pair production must create equal signal and idler totals; "
            f"gap {pair_gap:.3e} at signal total {signal:.3e}"
        )
    return MomentSet(d=MappingProxyType(d), b=MappingProxyType(b))


def signal_coherence(tm: TransferMatrix, tol: Tolerances = TOL) -> CoherenceResult:
    """Normalized mutual coherence of the two output signal modes.

    Raises :class:`~coupledpdc.errors.UndefinedCoherenceError` when either
    signal occupation is below ``tol.coherence_epsilon`` (the 0/0 case at
    zero length or for an absent, uncoupled converter).
    """
    ms = vacuum_moments(tm, tol)
    n1, n2 = ms.b["s1"], ms.b["s2"]
    if n1 <= tol.coherence_epsilon or n2 <= tol.coherence_epsilon:
        raise UndefinedCoherenceError(
            f"signal occupations ({n1:.3e}, {n2:.3e}) are too small to "
            "normalize the cross-correlation"
        )
    value = -1j * ms.d["s1s2"] / np.sqrt(n1 * n2)
    gamma = float(value.real)
    if abs(gamma) > 1.0 + tol.coherence_bound_slack:
        raise ValueError(f"|gamma| = {abs(gamma)} violates the unit bound")
    return CoherenceResult(
        gamma=gamma,
        imag_residue=float(abs(value.imag)),
        fragile=min(n1, n2) < tol.coherence_fragile,
    )


def intensities(tm: TransferMatrix, tol: Tolerances = TOL) -> Intensities:
    """Occupations of all four output modes."""
    ms = vacuum_moments(tm, tol)
    return Intensities(s1=ms.b["s1"], s2=ms.b["s2"], i1=ms.b["i1"], i2=ms.b["i2"])
