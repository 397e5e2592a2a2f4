"""Physical devices as Bogoliubov transfer matrices.

Two constructions are provided:

* :class:`ContinuousDevice` -- a pair of downconverters whose idler modes
  exchange energy continuously over an interaction length, described by a
  quadratic generator and exponentiated into a transfer matrix.
* :class:`CascadedDevice` -- two downconverters in sequence with the first
  idler partially injected into the second converter through a mixer of
  angle ``psi`` (perfect alignment at ``psi = pi/2``).

Mode convention, used everywhere in this package: the operator vector is
``(A_s1, A_s2, A_i1^+, A_i2^+)`` -- annihilators for the two signal modes
followed by creators for the two idler modes.  In this mixed basis a
physical (commutator-preserving) transformation ``M`` satisfies
``M eta M^H = eta`` with ``eta = diag(+1, +1, -1, -1)``.

The sweep engine builds a block of grid points as one ``(N, 4, 4)``
stack (:func:`transfer_stack`, :func:`cascaded_stack`) and validates it
with :func:`stack_failures`, the checks of :class:`TransferMatrix`.

The continuous device's ``exp(iHL)`` is a closed form (:func:`expm`): the
generator's characteristic polynomial is biquadratic, ``lambda^4 + (g1^2 +
g2^2 - kappa^2) lambda^2 + g1^2 g2^2``, so (Cayley-Hamilton) a function of
``H^2`` is a line through its values at two roots.  Threshold, a converter
without gain, no idler coupling and ``L = 0`` are limits of that formula.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import (
    NonFiniteMatrixError,
    SymplecticDriftError,
    flag,
    no_failures,
    raise_first,
)

__all__ = [
    "ContinuousDevice",
    "CascadedDevice",
    "TransferMatrix",
    "Regime",
    "build_hamiltonian",
    "transfer_matrix",
    "cascaded_transfer_matrix",
    "classify_regime",
]

#: Bogoliubov metric for the (A_s1, A_s2, A_i1^+, A_i2^+) operator vector.
ETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ContinuousDevice:
    """Two downconverters with continuously coupled idlers.

    Parameters
    ----------
    gamma1, gamma2 : float
        Real downconversion strengths of the two crystals (inverse length).
    kappa : float
        Real strength of the linear idler-idler exchange (inverse length).
    length : float
        Interaction length, >= 0.

    Couplings are restricted to real values; the complex-coupling
    generalisation is deliberately not exposed.
    """

    gamma1: float
    gamma2: float
    kappa: float
    length: float

    def __post_init__(self) -> None:
        _require_finite(gamma1=self.gamma1, gamma2=self.gamma2,
                        kappa=self.kappa, length=self.length)
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")


@dataclass(frozen=True)
class CascadedDevice:
    """Two downconverters in series with partially aligned idlers.

    ``r1`` and ``r2`` are the squeezing parameters of the two crystals and
    ``psi`` in [0, pi/2] is the mixing angle of the idler beamsplitter
    placed between them (``psi = pi/2``: the first idler is fully injected
    into the second crystal).
    """

    r1: float
    r2: float
    psi: float

    def __post_init__(self) -> None:
        _require_finite(r1=self.r1, r2=self.r2, psi=self.psi)
        if not 0.0 <= self.psi <= math.pi / 2:
            raise ValueError(f"psi must lie in [0, pi/2], got {self.psi}")


class Regime(enum.Enum):
    """Operating regime of a :class:`ContinuousDevice`.

    Weak idler coupling (|kappa| below the combined gain) lets the
    downconverted intensity grow exponentially; strong coupling keeps all
    intensities bounded and oscillatory.
    """

    ABOVE_THRESHOLD = "above-threshold"
    BELOW_THRESHOLD = "below-threshold"
    AT_THRESHOLD = "at-threshold"


def stack_failures(m: np.ndarray) -> np.ndarray:
    """First failure of each matrix of an ``(N, 4, 4)`` stack under the
    :class:`TransferMatrix` checks (see :mod:`coupledpdc.errors`)."""
    failed = no_failures(len(m))
    with np.errstate(over="ignore", invalid="ignore"):
        peak = np.abs(m).max(axis=(1, 2))
        allowed = TOL.symplectic * np.maximum(1.0, peak * peak)
        # m @ ETA, exactly: the sign of m's last two columns flipped
        gap = (m * ETA.diagonal()) @ np.conj(m).swapaxes(-1, -2) - ETA
        resid = np.abs(gap).max(axis=(1, 2))
    # a non-finite entry makes the residual non-finite
    flag(failed, ~np.isfinite(resid), NonFiniteMatrixError)
    flag(failed, ~(resid <= allowed), SymplecticDriftError)
    return failed


@dataclass(frozen=True)
class TransferMatrix:
    """A validated 4x4 Bogoliubov matrix in the mixed-operator basis.

    Construction enforces the commutator-preservation condition
    ``M eta M^H = eta``.  The check is scaled by ``max(1, max|M|^2)`` so
    that legitimately large above-threshold matrices, whose absolute
    floating-point residual grows with the entries, still construct; for
    the bounded below-threshold matrices the check is the plain
    element-wise tolerance.  A violation raises
    :class:`~coupledpdc.errors.SymplecticDriftError`, and a residual that
    overflows :class:`~coupledpdc.errors.NonFiniteMatrixError`.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"transfer matrix must be 4x4, got {m.shape}")
        raise_first(stack_failures(m[None]))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def build_hamiltonian(dev: ContinuousDevice) -> np.ndarray:
    """Quadratic-form generator of the continuous device.

    Returns the real 4x4 matrix ``H`` such that the operator vector
    evolves as ``A_out = exp(iHL) A_in``.  Rows/columns follow the global
    (s1, s2, i1^+, i2^+) order.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[0, 2] = dev.gamma1
    h[1, 3] = dev.gamma2
    h[2, 0] = -dev.gamma1
    h[2, 3] = -dev.kappa
    h[3, 1] = -dev.gamma2
    h[3, 2] = -dev.kappa
    return h


#: ``(-1)^n / (2n + 1)!``, n >= 1: Taylor coefficients of ``S`` (see
#: :func:`expm`), as many as full precision needs for ``|mu| <= 4``.
_S_SERIES = [(-1) ** n / math.factorial(2 * n + 1) for n in range(1, 14)]


def _cos_sinc(x: np.ndarray):
    """``C(x) = cos(sqrt x)`` and ``S(x) = sin(sqrt x) / sqrt x`` of real
    ``x``, entire in ``x``: ``cosh`` and ``sinh`` below 0, ``S(0) = 1``."""
    r = np.sqrt(np.abs(x))
    c = np.where(x >= 0, np.cos(r), np.cosh(r))
    sin = np.where(x >= 0, np.sin(r), np.sinh(r))
    return c, np.divide(sin, r, out=np.ones_like(r), where=r != 0)


def _s_divided_difference(ss, dd, cs, sinc_s, cd, sinc_d, ab):
    """``S[mu1, mu2]`` at ``mu = (s +- d)^2``, from ``s^2``, ``d^2``, their
    ``C`` and ``S``, and ``ab = sqrt(mu1 mu2) = s^2 - d^2 = |g1 g2| L^2``.
    Each of three forms runs where its denominator is at least about
    ``max(|s^2|, |d^2|)``: the Taylor series in ``mu1 + mu2`` and
    ``mu1 mu2`` while that is at most 1; else ``(C(s^2) S(d^2) - S(s^2)
    C(d^2)) / 2ab`` while ``s^2`` and ``d^2`` lie apart (always when they
    differ in sign, where the roots are complex); else the definition,
    whose roots are then real and apart."""
    rs, rd = np.sqrt(np.abs(ss)), np.sqrt(np.abs(dd))
    sign = np.where(ss + dd >= 0, 1.0, -1.0)
    s1, s2 = (_cos_sinc(sign * r * r)[1] for r in (rs + rd, rs - rd))
    total, p = 2.0 * (ss + dd), ab * ab
    h_prev, h, series = np.zeros_like(p), np.ones_like(p), np.zeros_like(p)
    for coef in _S_SERIES:  # h = (mu1^n - mu2^n) / (mu1 - mu2)
        series = series + coef * h
        h_prev, h = h, total * h - p * h_prev
    return np.where(np.maximum(np.abs(ss), np.abs(dd)) <= 1.0, series,
                    np.where(p >= 4.0 * np.abs(ss * dd),
                             (cs * sinc_d - sinc_s * cd) / (2.0 * ab),
                             (s1 - s2) / (4.0 * sign * rs * rd)))


def expm(a) -> np.ndarray:
    """``exp(a)`` of a continuous device's generator ``a = i H L``, or of
    each of a stack ``(..., 4, 4)`` of them, element-wise: a row of a
    stack is bit-identical to the matrix alone.  ``g1 L``, ``g2 L`` and
    ``kappa L`` are read from ``a[..., 0, 2]``, ``a[..., 1, 3]`` and
    ``-a[..., 2, 3]``; any other matrix raises ``ValueError``.  Far above
    threshold, or where ``g L`` itself overflows, the entries are
    non-finite, which :func:`stack_failures` reports.

    With ``K = H L``, ``K^2`` has the eigenvalues ``mu = (s +- d)^2``,
    where ``s^2 = (kappa^2 - (|g1| - |g2|)^2) L^2 / 4`` and ``d^2 =
    (kappa^2 - (|g1| + |g2|)^2) L^2 / 4`` are real, and ``exp(iK) = C(K^2)
    + i K S(K^2)`` for ``C(mu) = cos(sqrt mu)`` and ``S(mu) = sin(sqrt mu)
    / sqrt mu``, each the line through its values at the roots:
    ``f(K^2) = f_mean I + f[mu1, mu2] (K^2 - mu_mean I)``.  With
    ``C_mean = C(s^2) C(d^2)``, ``C[mu1, mu2] = -S(s^2) S(d^2) / 2`` and
    ``S_mean = C(s^2) S(d^2) - 2 s^2 S[mu1, mu2]``, all four coefficients
    are real and smooth across every regime."""
    a = np.asarray(a)
    if a.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 generators, got shape {a.shape}")
    x1, x2, y = a[..., 0, 2].imag, a[..., 1, 3].imag, -a[..., 2, 3].imag
    k = np.zeros(a.shape)
    k[..., 0, 2], k[..., 2, 0], k[..., 1, 3], k[..., 3, 1] = x1, -x1, x2, -x2
    k[..., 2, 3] = k[..., 3, 2] = -y
    # the parts apart, as 1j * inf has a NaN real part
    if a.real.any() or not np.array_equal(a.imag, k):
        raise ValueError("expm takes generators i H L of a continuous device "
                         "(see build_hamiltonian), non-finite only as g L "
                         "overflows")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ax1, ax2, ay = np.abs(x1), np.abs(x2), np.abs(y)
        hi, lo = np.maximum(ax1, ax2), np.minimum(ax1, ax2)
        # the larger gain first: exact (|kappa| - |g1| - |g2|) L at threshold
        ss = ((ay - hi) + lo) * ((ay + hi) - lo) / 4.0
        dd = ((ay - hi) - lo) * ((ay + hi) + lo) / 4.0
        (cs, sinc_s), (cd, sinc_d) = _cos_sinc(ss), _cos_sinc(dd)
        c_mean, c_dd = cs * cd, -0.5 * sinc_s * sinc_d
        s_dd = _s_divided_difference(ss, dd, cs, sinc_s, cd, sinc_d,
                                     ax1 * ax2)
        s_mean = cs * sinc_d - 2.0 * ss * s_dd
        # K^2 - mu_mean I = diag(-p, -q, q, p) with corners -+ x1 y, -+ x2 y
        mid = (y * y - x1 * x1 - x2 * x2) / 2.0
        p, q = mid + x1 * x1, mid + x2 * x2
        m = np.zeros(a.shape, dtype=complex)
        re, im = m.real, m.imag
        re[..., 0, 0], re[..., 3, 3] = c_mean - c_dd * p, c_mean + c_dd * p
        re[..., 1, 1], re[..., 2, 2] = c_mean - c_dd * q, c_mean + c_dd * q
        re[..., 3, 0], re[..., 2, 1] = c_dd * x1 * y, c_dd * x2 * y
        re[..., 0, 3], re[..., 1, 2] = -re[..., 3, 0], -re[..., 2, 1]
        im[..., 0, 1] = im[..., 1, 0] = s_dd * x1 * x2 * y
        im[..., 0, 2] = x1 * (s_mean + s_dd * q)
        im[..., 1, 3] = x2 * (s_mean + s_dd * p)
        im[..., 2, 0], im[..., 3, 1] = -im[..., 0, 2], -im[..., 1, 3]
        im[..., 2, 3] = im[..., 3, 2] = -y * (s_mean + s_dd * mid)
    return m


def transfer_matrix(dev: ContinuousDevice) -> TransferMatrix:
    """Transfer matrix ``M = exp(i H L)`` of the continuous device."""
    return TransferMatrix(transfer_stack(dev, np.array([dev.length]))[0])


def transfer_stack(dev: ContinuousDevice, lengths: np.ndarray) -> np.ndarray:
    """:func:`transfer_matrix` of ``dev``'s couplings at each of
    ``lengths``, bit-identical, from one call of :func:`expm`."""
    return expm(1j * build_hamiltonian(dev) * lengths[:, None, None])


def cascaded_stack(dev: CascadedDevice, psis: np.ndarray) -> np.ndarray:
    """Cascade transfer matrices of ``dev``'s crystals at each alignment
    angle of ``psis``.

    Rows are the input-output relations of the two-crystal cascade written
    in the mixed basis; the idler rows are the conjugated relations for
    the daggered operators.  All entries are infinite if a ``cosh`` overflows.
    """
    try:
        ch1, sh1 = math.cosh(dev.r1), math.sinh(dev.r1)
        ch2, sh2 = math.cosh(dev.r2), math.sinh(dev.r2)
    except OverflowError:
        return np.full(psis.shape + (4, 4), complex(math.inf))
    c, s = np.cos(psis), np.sin(psis)
    m = np.zeros(psis.shape + (4, 4), dtype=complex)
    # A_s1_out = A_s1 ch1 + i A_i1^+ sh1
    m[:, 0, 0] = ch1
    m[:, 0, 2] = 1j * sh1
    # A_s2_out = -i A_s1 sh1 s sh2 + A_s2 ch2 + A_i1^+ ch1 s sh2 + i A_i2^+ c sh2
    m[:, 1, 0] = -1j * sh1 * s * sh2
    m[:, 1, 1] = ch2
    m[:, 1, 2] = ch1 * s * sh2
    m[:, 1, 3] = 1j * c * sh2
    # A_i1_out = i A_s1^+ sh1 c + A_i1 ch1 c + i A_i2 s   (conjugated below)
    m[:, 2, 0] = -1j * sh1 * c
    m[:, 2, 2] = ch1 * c
    m[:, 2, 3] = -1j * s
    # A_i2_out = -A_s1^+ sh1 s ch2 + i A_s2^+ sh2 + i A_i1 ch1 s ch2 + A_i2 c ch2
    m[:, 3, 0] = -sh1 * s * ch2
    m[:, 3, 1] = -1j * sh2
    m[:, 3, 2] = -1j * ch1 * s * ch2
    m[:, 3, 3] = c * ch2
    return m


def cascaded_transfer_matrix(dev: CascadedDevice) -> TransferMatrix:
    """Transfer matrix of the cascaded device with partially aligned idlers."""
    return TransferMatrix(cascaded_stack(dev, np.array([dev.psi]))[0])


def classify_regime(dev: ContinuousDevice) -> Regime:
    """Classify the device against the gain/coupling threshold.

    ``|kappa| < |gamma1| + |gamma2|`` is above threshold (exponential
    growth), the reverse is below threshold (bounded oscillations), and
    equality within ``TOL.threshold_equality`` is reported as its own
    value rather than forced into either side.
    """
    gain = abs(dev.gamma1) + abs(dev.gamma2)
    if abs(abs(dev.kappa) - gain) <= TOL.threshold_equality:
        return Regime.AT_THRESHOLD
    if abs(dev.kappa) < gain:
        return Regime.ABOVE_THRESHOLD
    return Regime.BELOW_THRESHOLD
