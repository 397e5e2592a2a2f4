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

Every term also flips the parity of ``n_s1 + n_i2``, so the generator is
chiral: with the basis split into its even half (the vacuum's) and its
odd half, ``H = [[0, B^T], [B, 0]]``, and it is stored as the one block
``B`` (:class:`ChiralGenerator`).  It is real and does not depend on the
length, so the exponential is applied by a Chebyshev
expansion (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984): one real
three-term recurrence of half-size sparse matrix-vector products serves
every length of a batch, and only the Bessel-function coefficients differ
between lengths (:func:`expm_multiply`, :func:`evolve_stack`); the states
reduce to the transfer-matrix route's :class:`~coupledpdc.moments.MomentSet`
(:func:`moments_stack`).  The series is sized by a Collatz-Wielandt upper
bound on the spectral radius, taken once when the generator is built.
Products with ``B`` and ``B^T`` run SciPy's compiled ``csr_matvec`` and
``csc_matvec`` on ``B``'s arrays, the kernels of ``B @ x`` and ``B.T @
x`` in ``scipy.sparse``.  They are loaded from their compiled file,
without importing ``scipy`` or ``scipy.sparse``: the latter first
imports ``scipy._lib._util``, which touches every lazy attribute of
numpy and more than doubles start-up.

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
from types import MappingProxyType
from typing import List, Sequence, Tuple

import numpy as np

from .config import TOL
from .device import ContinuousDevice
from .errors import TruncationLeakageError, flag, no_failures, raise_first
from .moments import CoherenceResult, MomentSet, coherence_of

__all__ = [
    "FockBasis",
    "FockState",
    "FockObservables",
    "build_generator",
    "evolve",
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
    measure it (ROADMAP item 8).
    """

    basis: FockBasis
    amplitudes: np.ndarray
    leakage: float


def _load_matvecs():
    """``csr_matvec`` and ``csc_matvec`` of ``scipy.sparse._sparsetools``,
    loaded from its compiled file without running ``scipy``'s or
    ``scipy.sparse``'s ``__init__``, unless already imported.  CPython
    registers the module in ``sys.modules`` as it loads it; it is taken
    out again, so that a later ``import scipy.sparse`` loads its own and
    sets it as an attribute.  ``ImportError`` names SciPy's version if
    the file is missing."""
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        roots = importlib.util.find_spec("scipy").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(root, "sparse") for root in roots])
        if spec is None:
            from importlib.metadata import version
            raise ImportError(f"{name} not found in SciPy {version('scipy')}",
                              name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)
    return module.csr_matvec, module.csc_matvec


_csr_matvec, _csc_matvec = _load_matvecs()


@dataclass(frozen=True)
class CsrMatrix:
    """A real matrix in compressed sparse row form.

    Row ``i`` holds the entries ``data[indptr[i]:indptr[i + 1]]`` in the
    columns ``indices[indptr[i]:indptr[i + 1]]``, not necessarily ascending,
    without duplicates or stored zeros and with ``int32`` indices, so
    ``scipy.sparse.csr_array((data, indices, indptr), shape=(rows, cols))``
    wraps it without a copy.
    """

    indptr: np.ndarray                 # (rows + 1,) int32 row offsets
    indices: np.ndarray                # (nnz,) int32 columns
    data: np.ndarray                   # (nnz,) float64 entries


@dataclass(frozen=True)
class ChiralGenerator:
    """The number-basis generator ``H = [[0, B^T], [B, 0]]`` as ``B``.

    ``even`` and ``odd`` are the ascending basis rows of the two halves,
    ``n_s1 + n_i2`` even (the vacuum's, row 0) or odd.  ``to_odd`` is
    ``B``, the block from the even half to the odd half (rows index
    ``odd``, columns ``even``); products with ``B^T`` read its arrays
    (:func:`_matvec`).  ``radius`` bounds the spectral radius of ``H``
    from above (:func:`_spectral_bound`).
    """

    even: np.ndarray                   # (n_even,) basis rows
    odd: np.ndarray                    # (n_odd,) basis rows
    to_odd: CsrMatrix                  # (n_odd, n_even) block B
    radius: float


def _matvec(matrix: CsrMatrix, data: np.ndarray, vector: np.ndarray,
            out: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``out = A @ vector``, or ``A^T @ vector`` if ``transpose``, for the
    matrix ``A`` with the sparsity of ``matrix`` and the entries ``data``,
    summed into zeros in ``A``'s storage order, as ``scipy.sparse`` sums
    ``A @ vector`` and ``A.T @ vector``."""
    out.fill(0.0)
    kernel = _csc_matvec if transpose else _csr_matvec
    kernel(len(out), len(vector), matrix.indptr, matrix.indices, data,
           vector, out)
    return out


#: Power steps on ``|B|^T |B|`` before its Collatz-Wielandt ratio is read,
#: and the shift each adds (relative to the largest entry of ``|B|``, which
#: is scaled into [0.5, 1)), so that the vector stays positive where a row
#: of ``B`` is zero.  For fig2 at ``--nmax 8`` the bound reads 43.88 after
#: 0 steps, 38.72 after 1, 38.22 after 2 and 38.01 after 3 (spectral
#: radius 37.15, Gershgorin 50.90): past one step, each step's two
#: half-size products cost more than the terms it saves.
POWER_STEPS, POWER_SHIFT = 1, 2.0 ** -20

#: Relative margin on the bound, thousands of times its rounding error:
#: each row of a product with ``|B|`` or ``|B|^T`` sums at most six
#: nonnegative products, so the ratio and its square root are within about
#: 16 units in the last place of their exact values.
RADIUS_MARGIN = 1e-12


def _spectral_bound(block: CsrMatrix, columns: int) -> float:
    """Upper bound on the spectral radius of ``H = [[0, B^T], [B, 0]]``
    for the block ``B`` with ``columns`` columns.

    ``rho(H) <= rho(|H|)`` for any real entries, and ``rho(|H|)^2 =
    rho(|B|^T |B|) <= max_i (|B|^T |B| x)_i / x_i`` for every positive
    ``x`` (Collatz-Wielandt).  ``x`` is the all-ones vector after
    :data:`POWER_STEPS` shifted power steps.  ``|B|`` is scaled by
    ``2^-e`` with ``ldexp``, exactly, so that its square cannot overflow
    (``2^e`` itself overflows at ``e = 1024``).  Zero couplings give 0.
    """
    e = math.frexp(np.abs(block.data).max(initial=0.0))[1]
    scaled = np.ldexp(np.abs(block.data), -e)
    mid = np.empty(len(block.indptr) - 1)

    def square(x: np.ndarray) -> np.ndarray:
        return _matvec(block, scaled, _matvec(block, scaled, x, mid),
                       np.empty_like(x), transpose=True)

    x = np.ones(columns)
    for _ in range(POWER_STEPS):
        x = square(x) + POWER_SHIFT * x
    ratio = float(np.max(square(x) / x))
    return float(np.ldexp(math.sqrt(ratio) * (1.0 + RADIUS_MARGIN), e))


#: Even-half source states per pass of :func:`build_generator` over the
#: six terms.  A pass's temporaries peak at about 350 bytes a state (1.4
#: MB a block, by tracemalloc), so a block stays in a core's cache; the
#: even half is one block up to ``n_max = 22`` (4,071 states).
BUILD_ROWS = 4096


def build_generator(dev: ContinuousDevice, basis: FockBasis
                    ) -> ChiralGenerator:
    """Sparse real symmetric generator of the device in the number basis,
    as its block ``B`` from the even half to the odd half.

    Terms: pair creation/annihilation on (s1,i1) and (s2,i2) with
    strengths gamma1/gamma2, and idler exchange with strength kappa; each
    listed with its Hermitian conjugate, so the matrix is symmetric by
    construction (the cutoff drops both directions of a boundary-crossing
    transition).  Each term flips the parity of ``n_s1 + n_i2``, so ``B``
    is filled from the even half's source states, all six terms masked in
    one pass over a block of :data:`BUILD_ROWS` of them; a term's target
    key is the source key plus the strides of the modes it steps, and
    every target inside the cutoff is in the odd half.  A term reaches a
    row at most once, so term ``t`` fills column ``t`` of an ``(n_odd,
    6)`` table, whose entries, row by row, are ``B``'s CSR arrays.
    """
    coef = np.repeat([dev.gamma1, dev.gamma2, dev.kappa], 2)
    # each term's two modes, and which of them it raises
    modes = np.array([[0, 1], [0, 1], [2, 3], [2, 3], [1, 3], [1, 3]])
    up = np.array([[1, 1], [0, 0], [1, 1], [0, 0], [0, 1], [1, 0]], np.uint8)
    parity = (basis.occupations[:, 0] + basis.occupations[:, 3]) % 2
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity)
    # the even half's occupations as bytes (n_max <= 113); a term's raised
    # modes leave the cutoff at n_max + 1, its lowered ones at 0
    occupations = basis.occupations[even].T.astype(np.uint8)
    sources, targets = basis.keys[even], basis.keys[odd]
    column = np.arange(len(even), dtype=np.int32)
    edge = np.where(up, basis.n_max + 1, 0)[..., None]
    root = np.sqrt(np.arange(basis.n_max + 2.0))
    offset = np.where(up, basis.strides[modes], -basis.strides[modes]).sum(1)
    cols = np.zeros(len(odd) * 6, dtype=np.int32)
    vals = np.zeros(len(odd) * 6)
    for start in range(0, len(even), BUILD_ROWS):
        rows = slice(start, start + BUILD_ROWS)
        # (6, 2, rows) occupations, plus 1 where raised
        n = occupations[:, rows].take(modes, 0) + up[..., None]
        keep = (n != edge).all(axis=1) & (coef != 0.0)[:, None]  # (6, rows)
        amp = coef[:, None] * root.take(n[:, 0]) * root.take(n[:, 1])
        # the masks select term-major, so each term's queries ascend
        term = np.repeat(np.arange(6), np.count_nonzero(keep, axis=1))
        target = np.searchsorted(targets,
                                 (sources[rows] + offset[:, None])[keep])
        slot = 6 * target + term
        cols[slot] = np.broadcast_to(column[rows], keep.shape)[keep]
        vals[slot] = amp[keep]
    filled = vals != 0.0
    indptr = np.zeros(len(odd) + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(filled.reshape(-1, 6), axis=1),
              out=indptr[1:])
    indices, data = cols[filled], vals[filled]
    for array in (even, odd, indptr, indices, data):
        array.flags.writeable = False
    block = CsrMatrix(indptr, indices, data)
    return ChiralGenerator(even, odd, block,
                           _spectral_bound(block, len(even)))


#: A length's Chebyshev series ends at the first order above its argument
#: whose coefficient is smaller than this.
SERIES_FLOOR = 1e-18

#: Highest order the Bessel recurrence of a series may start from, which
#: is within 70 of ``e x / 2`` for an argument ``x`` above 60.  At the cap
#: :func:`_bessel_series` takes about 2.4 s and a 44 MB peak (tracemalloc)
#: per length, and an ``--nmax 8`` length about 4 s in all (2 virtual
#: CPUs); its series has about 736,000 terms.
MAX_ORDER = 1_000_000

#: Bytes of Chebyshev vectors :func:`expm_multiply` keeps between folds,
#: unless its floor of 4 vectors exceeds them (from ``n_max = 73``), and
#: the most terms per fold.
FOLD_BYTES, FOLD_TERMS = 4 * 2 ** 20, 32

# sign of i**k, which multiplies the real part for even k and the
# imaginary part for odd k
_PHASE = np.array([1.0, 1.0, -1.0, -1.0])


def _check_argument(x: float) -> None:
    """Raise ``ValueError`` unless ``x`` is a finite Chebyshev argument
    ``>= 0`` whose series starts at most at order :data:`MAX_ORDER`."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"Chebyshev argument must be finite and >= 0, "
                         f"got {x!r}")
    if math.e * x / 2 > MAX_ORDER:
        raise ValueError(f"Chebyshev argument {x:.6g} (spectral bound "
                         f"times length) needs a series above order "
                         f"{MAX_ORDER}")


def check_lengths(generator: ChiralGenerator, lengths: Sequence[float]
                  ) -> None:
    """Raise ``ValueError`` for the first of ``lengths`` that
    :func:`expm_multiply` would refuse with ``generator``, before any
    work: one whose Chebyshev series would start above :data:`MAX_ORDER`
    (named with the longest length accepted), then one that is not
    finite and ``>= 0``."""
    radius = generator.radius
    for length in lengths:
        if math.e * (radius * length) / 2 > MAX_ORDER:
            raise ValueError(
                f"length {length:.6g} needs a series above order "
                f"{MAX_ORDER}; at spectral bound {radius:.6g} the longest "
                f"length accepted is {2 * MAX_ORDER / math.e / radius:.6g}")
        _check_argument(radius * length)


def _bessel_series(x: float) -> np.ndarray:
    """``(2 - delta_k0) J_k(x)`` for ``k = 0, 1, ...`` up to the first order
    above ``x >= 0`` where it is below :data:`SERIES_FLOOR`.

    Miller's backward recurrence ``J_{k-1} = (2k/x) J_k - J_{k+1}``,
    started at the first order from ``e x / 2`` where ``(x/2)^k / k!``, a
    bound on ``J_k(x)``, is below 1e-30, rescaled before it can overflow
    and normalized by ``J_0 + 2 (J_2 + J_4 + ...) = 1``.  Below the floor
    ``J_0(x)`` rounds to 1 and ``2 J_1(x) ~ x`` is already under it.
    Raises ``ValueError`` where :func:`check_lengths` would.
    """
    _check_argument(x)
    if x < SERIES_FLOOR:
        return np.ones(1)
    log_half = math.log(x / 2)
    # the bound falls with k from order e x / 2; by Stirling it is below
    # e^-k <= 1e-30 at k >= max(69, e^2 x / 2), so bisect between the two
    low = math.ceil(math.e * x / 2) - 1
    top = max(69, math.ceil(math.e ** 2 * x / 2))
    while top - low > 1:
        mid = (low + top) // 2
        if mid * log_half - math.lgamma(mid + 1) > -69.0:   # ln 1e-30
            low = mid
        else:
            top = mid
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


def expm_multiply(generator: ChiralGenerator, vector: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """Rows ``exp(i L H) v`` for each ``L`` of ``lengths``, for the
    generator ``H`` and a real vector ``v`` that is zero on the odd half
    (as the vacuum is); any other ``v`` raises ``ValueError``.

    With ``r`` the generator's spectral bound, ``exp(i L H) = sum_k
    (2 - delta_k0) i^k J_k(rL) T_k(H/r)``.  The vectors ``w_k = T_k(H/r)
    v`` follow the real recurrence ``w_{k+1} = (2/r) H w_k - w_{k-1}`` and
    are shared by every length; only the Bessel coefficients, which feed
    the real part (even ``k``) or the imaginary part (odd ``k``), differ.
    ``H`` maps each half to the other, so ``w_k`` lies on the even half
    for even ``k`` and on the odd half for odd ``k``: each step is one
    product with ``B`` or ``B^T``, the real part of a row lies on the even
    half and its imaginary part on the odd half.  A length's series has
    about ``rL + 12 (rL)^(1/3)`` terms.  The vectors fill two reused
    half-size buffers a chunk of :func:`_fold_width` terms at a time, and
    each chunk is folded into each length's real and imaginary parts by
    two BLAS vector-matrix products.  The chunks are fixed in ``k`` by the
    basis, the last one is zero-padded, and a length whose series has
    ended folds no more, so each row is bit-identical to the same length
    run alone.
    """
    even, odd = generator.even, generator.odd
    if np.any(vector[odd]):
        raise ValueError("expm_multiply needs a start vector that is zero "
                         "on the odd half of the basis")
    radius = generator.radius
    series = [_bessel_series(radius * length)
              for length in np.asarray(lengths, dtype=float).tolist()]
    width = _fold_width(max(len(even), len(odd)))
    terms = max(map(len, series))
    coef = np.zeros((len(series), -(-terms // width) * width))
    for row, values in zip(coef, series):
        row[:len(values)] = values
    coef *= _PHASE[np.arange(coef.shape[1]) % 4]
    # w_k is ring[k % width], a row of rows[k % 2]: B^T makes even k, B odd
    block = generator.to_odd
    rows = [np.zeros((width // 2, len(half))) for half in (even, odd)]
    ring = [rows[k % 2][k // 2] for k in range(width)]
    ring[0][:] = vector[even]
    parts = [np.zeros((len(series), len(half))) for half in (even, odd)]
    for start in range(0, coef.shape[1], width):
        for k in range(max(1, start), min(terms, start + width)):
            row = ring[k % width]
            if k == 1:
                scaled = block.data * (2.0 / radius)
                _matvec(block, block.data, ring[0], out=row)
                row /= radius
            else:
                _matvec(block, scaled, ring[(k - 1) % width], out=row,
                        transpose=(k % 2 == 0))
                row -= ring[(k - 2) % width]
        for parity, part in enumerate(parts):
            weights = coef[:, start + parity:start + width:2]
            for i, values in enumerate(series):
                if len(values) > start:
                    part[i] += weights[i] @ rows[parity]
    out = np.zeros((len(series), len(vector)), dtype=complex)
    out.real[:, even] = parts[0]
    out.imag[:, odd] = parts[1]
    return out


def evolve_stack(generator: ChiralGenerator, basis: FockBasis,
                 lengths: np.ndarray) -> Tuple[List[FockState], np.ndarray]:
    """The vacuum evolved by ``generator`` (:func:`build_generator` on
    ``basis``) over each of ``lengths``, from one :func:`expm_multiply`.

    Returns the states and each length's first failure (see
    :mod:`coupledpdc.errors`): an ``ArithmeticError`` when the norm is off
    1 by more than ``TOL.fock_norm``, then a
    :class:`~coupledpdc.errors.TruncationLeakageError` when the boundary
    population exceeds ``TOL.fock_leakage_max``.
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
    flag(failed, np.abs(norm - 1.0) > TOL.fock_norm,
         lambda i: ArithmeticError(
             f"evolution lost unitarity: norm = {float(norm[i])!r}"))
    flag(failed, leakage > TOL.fock_leakage_max,
         lambda i: TruncationLeakageError(
             f"boundary population {leakage[i]:.3e} exceeds "
             f"{TOL.fock_leakage_max:.0e}; raise the cutoff"))
    states = [FockState(basis=basis, amplitudes=row, leakage=float(leak))
              for row, leak in zip(psi, leakage)]
    return states, failed


def evolve(dev: ContinuousDevice, basis: FockBasis) -> FockState:
    """Evolve the vacuum over the device's interaction length:
    :func:`evolve_stack` on a batch of one.

    Raises :class:`~coupledpdc.errors.TruncationLeakageError` when the
    boundary population exceeds ``TOL.fock_leakage_max``.
    """
    states, failed = evolve_stack(build_generator(dev, basis), basis,
                                  np.array([dev.length]))
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


# mode order inside a ket
_MODES = ("s1", "i1", "s2", "i2")


def moments_stack(states: Sequence[FockState]) -> MomentSet:
    """Exact moments of each of ``states``, all on one basis, from one set
    of index arrays: the four occupations in ``b`` (``(N,)`` arrays) and
    ``<A_s1^+ A_s2>`` in ``d["s1s2"]``, with no failure recorded.  Each
    state is reduced alone, so a row does not depend on the batch."""
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
    return MomentSet(d=MappingProxyType({"s1s2": cross}),
                     b=MappingProxyType(dict(zip(_MODES, n.T))),
                     failed=no_failures(len(states)))


def fock_observables(state: FockState) -> FockObservables:
    """Exact mode occupations and mutual signal coherence of ``state``
    (:func:`moments_stack` and :func:`~coupledpdc.moments.coherence_of`
    on a batch of one); raises the failure the coherence records."""
    ms = moments_stack([state])
    coh, failed = coherence_of(ms, ms.failed)
    raise_first(failed)
    return FockObservables(
        *(float(ms.b[mode][0]) for mode in _MODES), CoherenceResult(
            float(coh.gamma[0]), float(coh.imag_residue[0]),
            bool(coh.fragile[0])))


def pair_component(state: FockState) -> np.ndarray:
    """Amplitudes of the four single-pair kets of ``state``.

    Order matches :class:`~coupledpdc.whichway.PairState`:
    ``(|1001>, |0110>, |1100>, |0011>)`` in ``(s1, i1, s2, i2)`` mode
    order.  At short lengths this component, renormalized, should match
    the extracted four-converter pair state up to a global phase.
    """
    kets = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1))
    return state.amplitudes[state.basis.index_of(kets)]
