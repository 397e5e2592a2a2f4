"""Independent validation in a truncated four-mode number basis.

The continuous device's full interaction generator is represented exactly
on photon-number states with a per-mode cutoff and applied, exponentiated,
to the vacuum.  Intensities and the signal coherence computed this way
make no Gaussian assumption, so agreement with the transfer-matrix route
cross-validates both, as long as the cutoff is high enough (which the
leakage proxy of :class:`FockState` does not show).

Every term of the generator conserves ``(n_s1 + n_s2) - (n_i1 + n_i2)``
(pairs are created together, idlers only exchanged), so the basis holds
only the vacuum's zero-charge sector: ``n(n+1)(2n+1)/3 + (n+1)^2`` states
at cutoff ``n`` instead of ``(n+1)^4``.

The generator is real and symmetric and does not depend on the length,
so the exponential is applied by a Chebyshev expansion (Tal-Ezer &
Kosloff, J. Chem. Phys. 81, 3967, 1984): one real three-term recurrence
of sparse matrix-vector products serves every length of a batch, and only
the Bessel-function coefficients differ between lengths
(:func:`expm_multiply`, :func:`evolve_stack`, :func:`observables_stack`).
The generator is held as
plain CSR arrays (:class:`CsrMatrix`), and each product runs SciPy's
compiled ``csr_matvec``, the kernel behind a ``scipy.sparse`` product.
It is loaded from its compiled file, without importing ``scipy.sparse``:
that package first imports ``scipy._lib._util``, which touches every lazy
attribute of numpy and more than doubles start-up.

Mode order inside a ket is ``(s1, i1, s2, i2)``: ``|1100>`` is one photon
in signal 1 and one in idler 1.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import List, Sequence, Tuple

import numpy as np
import scipy

from .config import TOL, Tolerances
from .device import ContinuousDevice
from .errors import (
    TruncationLeakageError,
    UndefinedCoherenceError,
    flag,
    no_failures,
    raise_first,
)
from .moments import CoherenceResult

__all__ = [
    "FockBasis",
    "FockState",
    "FockObservables",
    "CsrMatrix",
    "build_generator",
    "expm_multiply",
    "evolve_stack",
    "evolve",
    "observables_stack",
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

    ``leakage`` is the final population of boundary kets (any mode at the
    cutoff).  A large one shows the cutoff too low, but a small one bounds
    neither the truncation error accumulated along the length nor the
    coherence's: at fig2, L = 1000, ``n_max = 4`` leaks 5.7e-7 with the
    coherence off by 1.4e-3 (2.5e-9 at ``n_max = 8``).  Two cutoffs
    measure it (ROADMAP item 6).
    """

    basis: FockBasis
    amplitudes: np.ndarray
    leakage: float


def _scipy_extension(name: str) -> ModuleType:
    """The compiled SciPy module ``name`` (``scipy.<subpackage>.<module>``),
    loaded from its file without running its package's ``__init__``.

    It is registered in ``sys.modules`` under its own name, so a later
    ``import scipy.sparse`` reuses it instead of initializing it a second
    time.  Raises ``ImportError`` naming the module and SciPy's version
    when no such file exists.
    """
    if name in sys.modules:
        return sys.modules[name]
    package = name.rpartition(".")[0].split(".")
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(os.path.dirname(scipy.__file__), *package[1:])])
    if spec is None:
        raise ImportError(f"{name} not found in SciPy {scipy.__version__}",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_csr_matvec = _scipy_extension("scipy.sparse._sparsetools").csr_matvec


@dataclass(frozen=True)
class CsrMatrix:
    """A square real matrix in compressed sparse row form.

    Row ``i`` holds the entries ``data[indptr[i]:indptr[i + 1]]`` in the
    columns ``indices[indptr[i]:indptr[i + 1]]``, in ascending column order
    and without duplicates: SciPy's canonical CSR layout, with ``int32``
    indices, so ``scipy.sparse.csr_array((data, indices, indptr),
    shape=(size, size))`` wraps it without a copy.
    """

    indptr: np.ndarray                 # (size + 1,) int32 row offsets
    indices: np.ndarray                # (nnz,) int32 columns
    data: np.ndarray                   # (nnz,) float64 entries


def _matvec(matrix: CsrMatrix, data: np.ndarray, vector: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """``out = A @ vector`` for the matrix ``A`` with the sparsity of
    ``matrix`` and the entries ``data``, summed row by row in column order
    into zeros, as a ``scipy.sparse`` product sums."""
    out.fill(0.0)
    _csr_matvec(len(out), len(out), matrix.indptr, matrix.indices, data,
                vector, out)
    return out


def _radius(matrix: CsrMatrix) -> float:
    """The largest absolute row sum of ``matrix``, a Gershgorin bound on
    its spectrum (0 for the zero matrix).  Rows are summed as
    ``scipy.sparse`` sums them, by ``np.add.reduceat``; a product with
    ones can differ in the last bit, which would move every amplitude."""
    filled = np.flatnonzero(np.diff(matrix.indptr))
    sums = np.add.reduceat(np.abs(matrix.data), matrix.indptr[filled])
    return float(sums.max(initial=0.0))


def build_generator(dev: ContinuousDevice, basis: FockBasis) -> CsrMatrix:
    """Sparse real symmetric generator of the device in the number basis.

    Terms: pair creation/annihilation on (s1,i1) and (s2,i2) with
    strengths gamma1/gamma2, and idler exchange with strength kappa; each
    listed with its Hermitian conjugate, so the matrix is symmetric by
    construction (the cutoff drops both directions of a boundary-crossing
    transition).  Each term is one masked array operation over all source
    states; its target key is the source key plus the strides of the modes
    it steps, and every target inside the cutoff is in the sector.  The
    entries are then sorted into SciPy's canonical CSR order.
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
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(basis.size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=basis.size), out=indptr[1:])
    arrays = (indptr, cols[order].astype(np.int32),
              vals[order].astype(float))
    for array in arrays:
        array.flags.writeable = False
    return CsrMatrix(*arrays)


#: A length's Chebyshev series ends at the first order above its argument
#: whose coefficient is smaller than this.
SERIES_FLOOR = 1e-18

#: Bytes of Chebyshev vectors :func:`expm_multiply` keeps between folds,
#: unless its floor of 4 vectors exceeds them (from ``n_max = 58``), and
#: the most terms per fold.
FOLD_BYTES, FOLD_TERMS = 4 * 2 ** 20, 32

# sign of i**k, which multiplies the real part for even k and the
# imaginary part for odd k
_PHASE = np.array([1.0, 1.0, -1.0, -1.0])


def _bessel_series(x: float) -> np.ndarray:
    """``(2 - delta_k0) J_k(x)`` for ``k = 0, 1, ...`` up to the first order
    above ``x >= 0`` where it is below :data:`SERIES_FLOOR`.

    Miller's backward recurrence ``J_{k-1} = (2k/x) J_k - J_{k+1}``,
    started where ``(x/2)^k / k!``, a bound on ``J_k(x)``, is below 1e-30,
    rescaled before it can overflow and normalized by
    ``J_0 + 2 (J_2 + J_4 + ...) = 1``.  Below the floor ``J_0(x)`` rounds
    to 1 and ``2 J_1(x) ~ x`` is already under it.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError(f"Chebyshev argument must be finite and >= 0, "
                         f"got {x!r}")
    if x < SERIES_FLOOR:
        return np.ones(1)
    log_half = math.log(x / 2)
    # below order e x / 2 the bound exceeds 1 / (e sqrt(k)), far above 1e-30
    top = math.ceil(math.e * x / 2)
    while top * log_half - math.lgamma(top + 1) > -69.0:   # ln 1e-30
        top += 1
    j = [0.0] * (top + 2)
    j[top] = this = 1.0
    above = 0.0
    for k in range(top, 0, -1):
        # 2k / x in one rounding: a rounded 2 / x would act as a shifted x
        this, above = 2 * k / x * this - above, this
        j[k - 1] = this
        if abs(this) > 1e250:
            j[k - 1:] = [v * 1e-250 for v in j[k - 1:]]
            this, above = j[k - 1], j[k]
    norm = j[0] + 2.0 * math.fsum(j[2::2])
    end = math.floor(x) + 1      # j[top + 1] = 0 ends the scan at the latest
    while 2.0 * abs(j[end]) >= SERIES_FLOOR * abs(norm):
        end += 1
    series = np.array(j[:end]) / norm
    series[1:] *= 2.0
    return series


def _fold_width(size: int) -> int:
    """Even terms per fold of ``size``-vectors; at least 4, so a chunk's
    rows never overwrite the two vectors the recurrence reads."""
    return max(4, min(FOLD_TERMS, FOLD_BYTES // (8 * size)) // 2 * 2)


def expm_multiply(generator: CsrMatrix, vector: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """Rows ``exp(i L H) v`` for each ``L`` of ``lengths``, for a real
    symmetric sparse ``H`` and a real vector ``v``.

    The largest absolute row sum ``r`` of ``H`` bounds its spectrum
    (Gershgorin), and ``exp(i L H) = sum_k (2 - delta_k0) i^k J_k(rL)
    T_k(H/r)``.  The vectors ``w_k = T_k(H/r) v`` follow the real
    recurrence ``w_{k+1} = (2/r) H w_k - w_{k-1}`` and are shared by every
    length; only the Bessel coefficients, which feed the real part (even
    ``k``) or the imaginary part (odd ``k``), differ.  A length's series
    has about ``rL + 12 (rL)^(1/3)`` terms, each one matrix-vector
    product.  The vectors fill a reused buffer a chunk of
    :func:`_fold_width` terms at a time, and each chunk is folded into each
    length's real and imaginary parts by two BLAS vector-matrix products.
    The chunks are fixed in ``k`` by the basis size, the last one is
    zero-padded, and a length whose series has ended folds no more, so each
    row is bit-identical to the same length run alone.
    """
    radius = _radius(generator)
    series = [_bessel_series(radius * length)
              for length in np.asarray(lengths, dtype=float).tolist()]
    width = _fold_width(len(vector))
    terms = max(map(len, series))
    coef = np.zeros((len(series), -(-terms // width) * width))
    for row, values in zip(coef, series):
        row[:len(values)] = values
    coef *= _PHASE[np.arange(coef.shape[1]) % 4]
    out = np.zeros((len(series), len(vector)), dtype=complex)
    rows = np.zeros((width, len(vector)))
    rows[0] = vector
    ring = list(rows)                           # w_k is ring[k % width]
    for start in range(0, coef.shape[1], width):
        for k in range(max(1, start), min(terms, start + width)):
            row = ring[k % width]
            if k == 1:
                scaled = generator.data * (2.0 / radius)
                _matvec(generator, generator.data, vector, out=row)
                row /= radius
            else:
                _matvec(generator, scaled, ring[(k - 1) % width], out=row)
                row -= ring[(k - 2) % width]
        for parity, part in enumerate((out.real, out.imag)):
            weights = coef[:, start + parity:start + width:2]
            for i, values in enumerate(series):
                if len(values) > start:
                    part[i] += weights[i] @ rows[parity::2]
    return out


def evolve_stack(generator: CsrMatrix, basis: FockBasis,
                 lengths: np.ndarray, tol: Tolerances = TOL,
                 ) -> Tuple[List[FockState], np.ndarray]:
    """The vacuum evolved by ``generator`` (:func:`build_generator` on
    ``basis``) over each of ``lengths``, from one :func:`expm_multiply`.

    Returns the states and each length's first failure (see
    :mod:`coupledpdc.errors`): an ``ArithmeticError`` when the norm is off
    1 by more than ``tol.fock_norm``, then a
    :class:`~coupledpdc.errors.TruncationLeakageError` when the boundary
    population exceeds ``tol.fock_leakage_max``.
    """
    vacuum = np.zeros(basis.size)
    vacuum[0] = 1.0
    psi = expm_multiply(generator, vacuum, lengths)
    psi.flags.writeable = False
    # row by row: a reduction along the rows of a stack rounds differently
    # from the same reduction of one row
    norm = np.array([np.linalg.norm(row) for row in psi])
    boundary = np.max(basis.occupations, axis=1) == basis.n_max
    leakage = np.array([np.sum(np.abs(row[boundary]) ** 2) for row in psi])
    failed = no_failures(len(psi))
    flag(failed, np.abs(norm - 1.0) > tol.fock_norm,
         lambda i: ArithmeticError(
             f"evolution lost unitarity: norm = {float(norm[i])!r}"))
    flag(failed, leakage > tol.fock_leakage_max,
         lambda i: TruncationLeakageError(
             f"boundary population {leakage[i]:.3e} exceeds "
             f"{tol.fock_leakage_max:.0e}; raise the cutoff"))
    states = [FockState(basis=basis, amplitudes=row, leakage=float(leak))
              for row, leak in zip(psi, leakage)]
    return states, failed


def evolve(dev: ContinuousDevice, basis: FockBasis,
           tol: Tolerances = TOL) -> FockState:
    """Evolve the vacuum over the device's interaction length:
    :func:`evolve_stack` on a batch of one.

    Raises :class:`~coupledpdc.errors.TruncationLeakageError` when the
    boundary population exceeds ``tol.fock_leakage_max``.
    """
    states, failed = evolve_stack(build_generator(dev, basis), basis,
                                  np.array([dev.length]), tol)
    raise_first(failed)
    return states[0]


@dataclass(frozen=True)
class FockObservables:
    """Intensities and signal coherence evaluated on a number-basis state."""

    n_s1: float
    n_i1: float
    n_s2: float
    n_i2: float
    coherence: CoherenceResult


def observables_stack(states: Sequence[FockState], tol: Tolerances = TOL,
                      ) -> Tuple[List[FockObservables], np.ndarray]:
    """Exact mode occupations and mutual signal coherence of each of
    ``states``, all on one basis, from one set of index arrays.

    Returns the observables and each state's failure, an
    :class:`~coupledpdc.errors.UndefinedCoherenceError` (and a meaningless
    coherence) where a signal occupation is at most
    ``tol.coherence_epsilon``.  Each state is reduced alone, as
    :func:`fock_observables` reduces it.
    """
    basis = states[0].basis
    occ = basis.occupations
    columns = occ.T.astype(float)
    # <A_s1^+ A_s2>: lower mode s2 (index 2), raise mode s1 (index 0)
    source = np.flatnonzero((occ[:, 2] > 0) & (occ[:, 0] < basis.n_max))
    amp = np.sqrt(occ[source, 2]) * np.sqrt(occ[source, 0] + 1)
    target = np.searchsorted(
        basis.keys, basis.keys[source] + basis.strides[0] - basis.strides[2])
    n = np.empty((len(states), 4))
    cross = np.empty(len(states), dtype=complex)
    for i, state in enumerate(states):
        psi = state.amplitudes
        n[i] = np.sum(np.abs(psi) ** 2 * columns, axis=1)
        cross[i] = np.sum(np.conj(psi[target]) * amp * psi[source])
    failed = no_failures(len(states))
    low = np.minimum(n[:, 0], n[:, 2])
    undefined = low <= tol.coherence_epsilon
    flag(failed, undefined, lambda i: UndefinedCoherenceError(
        f"signal occupations ({n[i, 0]:.3e}, {n[i, 2]:.3e}) are too small "
        "to normalize the cross-correlation"))
    value = -1j * cross / np.sqrt(np.where(undefined, 1.0, n[:, 0] * n[:, 2]))
    return [FockObservables(*row.tolist(), CoherenceResult(
        float(v.real), float(abs(v.imag)), bool(lo < tol.coherence_fragile)))
        for row, v, lo in zip(n, value, low)], failed


def mode_occupations(state: FockState) -> Tuple[float, float, float, float]:
    """Mean photon numbers ``(n_s1, n_i1, n_s2, n_i2)`` of ``state``."""
    (obs,), _ = observables_stack([state])
    return obs.n_s1, obs.n_i1, obs.n_s2, obs.n_i2


def fock_observables(state: FockState, tol: Tolerances = TOL) -> FockObservables:
    """Exact mode occupations and mutual signal coherence of ``state``
    (:func:`observables_stack` on a batch of one); raises the failure it
    records."""
    (obs,), failed = observables_stack([state], tol)
    raise_first(failed)
    return obs


def pair_component(state: FockState) -> np.ndarray:
    """Amplitudes of the four single-pair kets of ``state``.

    Order matches :class:`~coupledpdc.whichway.PairState`:
    ``(|1001>, |0110>, |1100>, |0011>)`` in ``(s1, i1, s2, i2)`` mode
    order.  At short lengths this component, renormalized, should match
    the extracted four-converter pair state up to a global phase.
    """
    kets = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1))
    return state.amplitudes[state.basis.index_of(kets)]
