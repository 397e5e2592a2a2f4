"""Independent validation in a truncated four-mode number basis.

The continuous device's full interaction generator is represented exactly
on photon-number states with a per-mode cutoff and exponentiated onto the
vacuum.  Intensities and the signal coherence computed this way make no
Gaussian assumption, so agreement with the transfer-matrix route
cross-validates both, as long as little population reaches the truncation
boundary (tracked by a leakage proxy).

Every term of the generator conserves ``(n_s1 + n_s2) - (n_i1 + n_i2)``
(pairs are created together, idlers only exchanged), so the basis holds
only the vacuum's zero-charge sector: ``n(n+1)(2n+1)/3 + (n+1)^2`` states
at cutoff ``n`` instead of ``(n+1)^4``.

Mode order inside a ket is ``(s1, i1, s2, i2)``: ``|1100>`` is one photon
in signal 1 and one in idler 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from .config import TOL, Tolerances
from .device import ContinuousDevice
from .errors import TruncationLeakageError, UndefinedCoherenceError
from .moments import CoherenceResult

__all__ = [
    "FockBasis",
    "FockState",
    "FockObservables",
    "build_generator",
    "evolve",
    "mode_occupations",
    "fock_observables",
    "pair_component",
]

# largest basis FockBasis.build allocates: the sector size stays within
# this up to n_max = 113 and exceeds it from n_max = 114
MAX_STATES = 1_000_000


def sector_size(n_max: int) -> int:
    """Number of zero-charge states with each occupation <= ``n_max``."""
    return n_max * (n_max + 1) * (2 * n_max + 1) // 3 + (n_max + 1) ** 2


@dataclass(frozen=True)
class FockBasis:
    """The :func:`sector_size` states with occupations <= ``n_max`` and
    ``n_s1 + n_s2 == n_i1 + n_i2``, in ascending order of their key
    ``((n_s1*d + n_i1)*d + n_s2)*d + n_i2``, ``d = n_max + 1``.

    Row 0 is the vacuum, a step in one mode moves the key by that mode's
    stride, and ``np.searchsorted`` over ``keys`` maps a key to its row.
    """

    n_max: int
    occupations: np.ndarray            # (size, 4) int array
    keys: np.ndarray                   # (size,) ascending int64 keys

    @classmethod
    def build(cls, n_max: int = 4) -> "FockBasis":
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        if sector_size(n_max) > MAX_STATES:
            raise ValueError(
                f"n_max={n_max} needs {sector_size(n_max)} basis states, "
                f"more than {MAX_STATES}")
        d = n_max + 1
        # (n_s1, n_i1, n_s2) in ascending order fixes n_i2, so the kept
        # rows are in ascending key order
        s1, i1, s2 = np.indices((d,) * 3).reshape(3, -1)
        i2 = s1 + s2 - i1
        keep = (i2 >= 0) & (i2 <= n_max)
        occ = np.stack([s1, i1, s2, i2], axis=1)[keep]
        keys = (((s1 * d + i1) * d + s2) * d + i2)[keep]
        occ.flags.writeable = False
        keys.flags.writeable = False
        return cls(n_max=n_max, occupations=occ, keys=keys)

    @property
    def size(self) -> int:
        return len(self.occupations)

    @property
    def strides(self) -> np.ndarray:
        """Key step of one photon in each mode, ``(d^3, d^2, d, 1)``."""
        d = self.n_max + 1
        return np.array([d ** 3, d ** 2, d, 1], dtype=np.int64)

    def index_of(self, occupations) -> np.ndarray:
        """Row of one occupation tuple, or of each row of an array; a
        ``ValueError`` if any is not in the basis."""
        occ = np.asarray(occupations, dtype=np.int64)
        row = np.minimum(np.searchsorted(self.keys, occ @ self.strides),
                         self.size - 1)
        if not np.array_equal(self.occupations[row], occ):
            raise ValueError(f"{occupations!r} is not in the zero-charge "
                             f"basis with n_max={self.n_max}")
        return row


@dataclass(frozen=True)
class FockState:
    """State vector over a :class:`FockBasis` with truncation diagnostics.

    ``leakage`` is the total population of boundary kets (any mode at the
    cutoff), a conservative proxy for the truncation error.
    """

    basis: FockBasis
    amplitudes: np.ndarray
    leakage: float


def build_generator(dev: ContinuousDevice,
                    basis: FockBasis) -> scipy.sparse.csr_matrix:
    """Sparse Hermitian generator of the device in the number basis.

    Terms: pair creation/annihilation on (s1,i1) and (s2,i2) with
    strengths gamma1/gamma2, and idler exchange with strength kappa; each
    listed with its Hermitian conjugate, so the matrix is Hermitian by
    construction (the cutoff drops both directions of a boundary-crossing
    transition).  Each term is one masked array operation over all source
    states; its target key is the source key plus the strides of the modes
    it steps, and every target inside the cutoff is in the sector.
    """
    terms = (
        (dev.gamma1, (0, +1), (1, +1)),
        (dev.gamma1, (0, -1), (1, -1)),
        (dev.gamma2, (2, +1), (3, +1)),
        (dev.gamma2, (2, -1), (3, -1)),
        (dev.kappa, (1, -1), (3, +1)),
        (dev.kappa, (1, +1), (3, -1)),
    )
    occ = basis.occupations
    rows, cols, vals = [], [], []
    for coef, *steps in terms:
        keep = np.full(basis.size, coef != 0.0)
        amp = np.full(basis.size, coef)
        for mode, step in steps:
            n = occ[:, mode]
            keep &= (n < basis.n_max) if step > 0 else (n > 0)
            amp = amp * np.sqrt(n + (step > 0))
        offset = sum(step * basis.strides[mode] for mode, step in steps)
        rows.append(np.searchsorted(basis.keys, basis.keys[keep] + offset))
        cols.append(np.flatnonzero(keep))
        vals.append(amp[keep])
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.size, basis.size), dtype=complex)


def evolve(dev: ContinuousDevice, basis: FockBasis,
           tol: Tolerances = TOL) -> FockState:
    """Evolve the vacuum over the device's interaction length.

    Applies the exponential of the sparse generator to the vacuum column
    with ``expm_multiply`` (Al-Mohy & Higham 2011), never forming the
    dense exponential.

    Raises :class:`~coupledpdc.errors.TruncationLeakageError` when the
    boundary population exceeds ``tol.fock_leakage_max``.
    """
    gen = build_generator(dev, basis)
    vac = np.zeros(basis.size, dtype=complex)
    vac[0] = 1.0
    psi = expm_multiply(1j * gen * dev.length, vac)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol.fock_norm:
        raise ArithmeticError(
            f"evolution lost unitarity: norm = {norm!r}"
        )
    boundary = np.max(basis.occupations, axis=1) == basis.n_max
    leakage = float(np.sum(np.abs(psi[boundary]) ** 2))
    if leakage > tol.fock_leakage_max:
        raise TruncationLeakageError(
            f"boundary population {leakage:.3e} exceeds "
            f"{tol.fock_leakage_max:.0e}; raise the cutoff"
        )
    psi.flags.writeable = False
    return FockState(basis=basis, amplitudes=psi, leakage=leakage)


@dataclass(frozen=True)
class FockObservables:
    """Intensities and signal coherence evaluated on a number-basis state."""

    n_s1: float
    n_i1: float
    n_s2: float
    n_i2: float
    coherence: CoherenceResult


def mode_occupations(state: FockState) -> Tuple[float, float, float, float]:
    """Mean photon numbers ``(n_s1, n_i1, n_s2, n_i2)`` of ``state``."""
    probs = np.abs(state.amplitudes) ** 2
    return tuple(
        float(np.sum(probs * state.basis.occupations[:, mode]))
        for mode in range(4)
    )


def fock_observables(state: FockState, tol: Tolerances = TOL) -> FockObservables:
    """Exact mode occupations and mutual signal coherence of ``state``."""
    basis = state.basis
    psi = state.amplitudes
    n = mode_occupations(state)

    # <A_s1^+ A_s2>: lower mode s2 (index 2), raise mode s1 (index 0)
    occ = basis.occupations
    source = np.flatnonzero((occ[:, 2] > 0) & (occ[:, 0] < basis.n_max))
    amp = np.sqrt(occ[source, 2]) * np.sqrt(occ[source, 0] + 1)
    target = np.searchsorted(
        basis.keys, basis.keys[source] + basis.strides[0] - basis.strides[2])
    cross = complex(np.sum(np.conj(psi[target]) * amp * psi[source]))

    if n[0] <= tol.coherence_epsilon or n[2] <= tol.coherence_epsilon:
        raise UndefinedCoherenceError(
            f"signal occupations ({n[0]:.3e}, {n[2]:.3e}) are too small to "
            "normalize the cross-correlation"
        )
    value = -1j * cross / math.sqrt(n[0] * n[2])
    coherence = CoherenceResult(
        gamma=float(value.real),
        imag_residue=float(abs(value.imag)),
        fragile=min(n[0], n[2]) < tol.coherence_fragile,
    )
    return FockObservables(n_s1=n[0], n_i1=n[1], n_s2=n[2], n_i2=n[3],
                           coherence=coherence)


def pair_component(state: FockState) -> np.ndarray:
    """Amplitudes of the four single-pair kets of ``state``.

    Order matches :class:`~coupledpdc.whichway.PairState`:
    ``(|1001>, |0110>, |1100>, |0011>)`` in ``(s1, i1, s2, i2)`` mode
    order.  At short lengths this component, renormalized, should match
    the extracted four-converter pair state up to a global phase.
    """
    kets = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1))
    return state.amplitudes[state.basis.index_of(kets)]
