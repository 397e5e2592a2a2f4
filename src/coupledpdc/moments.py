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

The sweep engine computes the moments of a whole block once, as ``(N,)``
arrays in one :class:`MomentSet`, and feeds them to the intensities, the
coherence (:func:`coherence_of`) and both scheme extractions.  The
single-matrix functions are the same code on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Union

import numpy as np

from .config import TOL
from .device import TransferMatrix
from .errors import (
    CoherenceBoundError,
    NonFiniteMatrixError,
    PairConservationError,
    UndefinedCoherenceError,
    flag,
    no_failures,
    raise_first,
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

    For one matrix the values are scalars; for a stack of N matrices they
    are ``(N,)`` arrays and ``failed`` holds each matrix's first failure
    (see :mod:`coupledpdc.errors`).
    """

    d: Mapping[str, Union[complex, np.ndarray]]
    b: Mapping[str, Union[float, np.ndarray]]
    failed: Optional[np.ndarray] = None

    def max_abs(self) -> Union[float, np.ndarray]:
        """Largest magnitude over all stored moments (per matrix of a
        stack).

        Zero exactly when the transformation is passive on vacuum, which
        is the back-propagation target of the scheme extractions.
        """
        return np.max(np.abs([*self.d.values(), *self.b.values()]), axis=0)


@dataclass(frozen=True)
class CoherenceResult:
    """Signed mutual coherence of the signal modes with diagnostics.

    ``gamma`` is the real part of ``-i <A_s1^+ A_s2> / sqrt(n_s1 n_s2)``
    (the imaginary unit is factored out so that real-coupling devices give
    a real quantity); ``imag_residue`` is the magnitude of the discarded
    imaginary part; ``fragile`` flags occupations so small that the ratio
    is numerically delicate.  :func:`coherence_of` fills the fields with
    ``(N,)`` arrays.
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


# each correlation is the sum over two columns c of m[j, c] conj(m[k, c]),
# each occupation the sum over two columns c of |m[j, c]|^2; as indices
# into the flattened 4x4 matrix
_PAIRS = {"s1i1": (0, 2, 0), "s1i2": (0, 3, 0), "s2i1": (1, 2, 0),
          "s2i2": (1, 3, 0), "s1s2": (1, 0, 2), "i1i2": (2, 3, 0)}
_MODES = {"s1": (0, 2), "s2": (1, 2), "i1": (2, 0), "i2": (3, 0)}
_PAIR_J = np.array([[4 * j + c, 4 * j + c + 1] for j, _, c in _PAIRS.values()])
_PAIR_K = np.array([[4 * k + c, 4 * k + c + 1] for _, k, c in _PAIRS.values()])
_MODE_J = np.array([[4 * j + c, 4 * j + c + 1] for j, c in _MODES.values()])


def square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` as :func:`math.pow` computes it, by the C library's
    ``pow``, below 1e300; at or above, on rows that overflow anyway,
    ``x * x``.

    numpy's array ``x ** 2`` (and ``np.power``) is ``x * x``, which differs
    from ``pow`` on about 0.1 % of inputs, while ``np.float_power``'s double
    loop calls the C library's ``pow`` itself, bit for bit.  Near the edge
    of the tanh inversion domain such an ulp grows until it decides a
    row's status.
    """
    out = np.asarray(x * x)
    return np.float_power(x, 2.0, out=out, where=out < 1e300)


def _stack(m: np.ndarray) -> MomentSet:
    """Moments of each matrix of an ``(N, 4, 4)`` stack, with failures."""
    flat = m.reshape(len(m), 16)
    terms = flat[:, _PAIR_J] * np.conj(flat[:, _PAIR_K])
    squares = square(np.abs(flat[:, _MODE_J]))
    d = dict(zip(_PAIRS, (terms[:, :, 0] + terms[:, :, 1]).T))
    b = dict(zip(_MODES, (squares[:, :, 0] + squares[:, :, 1]).T))
    signal = b["s1"] + b["s2"]
    pair_gap = np.abs(signal - b["i1"] - b["i2"])
    failed = no_failures(len(m))
    allowed = TOL.pair_conservation * np.maximum(1.0, signal)
    flag(failed, ~np.isfinite(pair_gap), NonFiniteMatrixError)
    flag(failed, ~(pair_gap <= allowed), PairConservationError)
    return MomentSet(d=MappingProxyType(d), b=MappingProxyType(b),
                     failed=failed)


def vacuum_moments(tm: Union[TransferMatrix, np.ndarray]) -> MomentSet:
    """All non-vanishing vacuum-input second moments of ``tm``'s output.

    ``tm`` is a validated :class:`TransferMatrix`, a raw 4x4 array (the
    scheme extractions' back-propagated intermediates), or an
    ``(N, 4, 4)`` stack of either kind.  The checks: an occupation that
    overflows is a :class:`~coupledpdc.errors.NonFiniteMatrixError`, and
    signal and idler totals that differ by more than
    ``TOL.pair_conservation`` times ``max(1, signal total)`` a
    :class:`~coupledpdc.errors.PairConservationError`.  A single matrix
    raises them; a stack records them per matrix in ``failed``.
    """
    m = tm.matrix if isinstance(tm, TransferMatrix) else np.asarray(tm)
    if m.ndim == 3:
        return _stack(m)
    ms = _stack(m[None])
    raise_first(ms.failed)
    return MomentSet(d=MappingProxyType({k: v[0] for k, v in ms.d.items()}),
                     b=MappingProxyType({k: v[0] for k, v in ms.b.items()}))


def coherence_of(ms: MomentSet,
                 failed: np.ndarray) -> tuple[CoherenceResult, np.ndarray]:
    """Signal coherence of each matrix of a stack's moments.

    ``failed`` holds the failures already recorded upstream; the returned
    record adds :class:`~coupledpdc.errors.UndefinedCoherenceError` where
    either signal occupation is at most ``TOL.coherence_epsilon`` and
    :class:`~coupledpdc.errors.CoherenceBoundError` where ``|gamma|``
    exceeds ``1 + TOL.coherence_bound_slack``.
    """
    failed = failed.copy()
    n1, n2 = ms.b["s1"], ms.b["s2"]
    low = np.minimum(n1, n2)
    undefined = low <= TOL.coherence_epsilon
    flag(failed, undefined, UndefinedCoherenceError)
    value = -1j * ms.d["s1s2"] / np.sqrt(np.where(undefined, 1.0, n1 * n2))
    gamma = value.real
    flag(failed, np.abs(gamma) > 1.0 + TOL.coherence_bound_slack,
         CoherenceBoundError)
    return CoherenceResult(gamma=gamma, imag_residue=np.abs(value.imag),
                           fragile=low < TOL.coherence_fragile), failed


def signal_coherence(tm: TransferMatrix) -> CoherenceResult:
    """Normalized mutual coherence of the two output signal modes.

    Raises :class:`~coupledpdc.errors.UndefinedCoherenceError` when either
    signal occupation is below ``TOL.coherence_epsilon`` (the 0/0 case at
    zero length or for an absent, uncoupled converter), and
    :class:`~coupledpdc.errors.CoherenceBoundError` when ``|gamma|``
    breaks the unit bound beyond rounding.
    """
    ms = vacuum_moments(tm.matrix[None])
    coh, failed = coherence_of(ms, ms.failed)
    raise_first(failed)
    return CoherenceResult(gamma=float(coh.gamma[0]),
                           imag_residue=float(coh.imag_residue[0]),
                           fragile=bool(coh.fragile[0]))


def intensities(tm: TransferMatrix) -> Intensities:
    """Occupations of all four output modes."""
    ms = vacuum_moments(tm)
    return Intensities(s1=ms.b["s1"], s2=ms.b["s2"], i1=ms.b["i1"], i2=ms.b["i2"])
