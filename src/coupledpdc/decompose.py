"""Extraction of the two equivalent substituting schemes.

A below-threshold coupled-downconverter device can be replaced, for vacuum
input, by either of two short cascades of elementary components producing
the same output state:

* a **four-converter scheme** -- two direct downconverters (couplings
  ``g1``: s1-i1 and ``g2``: s2-i2) followed by two crossed ones
  (``g4``: s1-i2 and ``g5``: s2-i1);
* an **interferometer scheme** -- the two direct downconverters followed
  by a signal mixer of angle ``phi_s`` and an idler mixer of ``phi_i``.

The four-converter couplings follow from closed-form ``tanh`` inversions
of the output moments.  The interferometer scheme is the Bloch-Messiah
factorization of the device (passive, squeezers, passive; on vacuum input
the first passive stage does nothing), read from one singular-value
decomposition of the 2x2 pair-correlation matrix.  Either way the
parameters are checked by back-propagating the output through the inverse
stages: the largest vacuum moment left over is reported as the extraction
``residual``, and zero residual certifies that the scheme reproduces the
device's output state exactly (the leftover matrix is passive, and passive
stages act trivially on vacuum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .config import TOL, Tolerances
from .device import TransferMatrix
from .errors import (
    ExtractionResidualError,
    NonRealCorrelationError,
    TanhDomainError,
)
from .moments import vacuum_moments

__all__ = [
    "FourConverterScheme",
    "InterferometerScheme",
    "ExtractionReport",
    "GainBound",
    "extract_four_converter",
    "extract_interferometer",
    "four_converter_matrix",
    "interferometer_matrix",
    "equivalence_residual",
    "gain_bound",
]


def _check_coupling(name: str, value: float, cap: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if abs(value) >= cap:
        raise ValueError(f"|{name}| = {abs(value)} is outside the sane "
                         f"inversion domain (cap {cap})")


@dataclass(frozen=True)
class FourConverterScheme:
    """Couplings of the four-downconverter substituting scheme."""

    g1: float
    g2: float
    g4: float
    g5: float

    def __post_init__(self) -> None:
        for name in ("g1", "g2", "g4", "g5"):
            _check_coupling(name, getattr(self, name), TOL.scheme_parameter_cap)


@dataclass(frozen=True)
class InterferometerScheme:
    """Parameters of the two-converter/two-mixer substituting scheme.

    Mixing angles are normalized to (-pi/2, pi/2].
    """

    g1: float
    g2: float
    phi_s: float
    phi_i: float

    def __post_init__(self) -> None:
        for name in ("g1", "g2"):
            _check_coupling(name, getattr(self, name), TOL.scheme_parameter_cap)
        half_pi = math.pi / 2
        for name in ("phi_s", "phi_i"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if not -half_pi < value <= half_pi + 1e-12:
                raise ValueError(f"{name} = {value} is not normalized "
                                 "into (-pi/2, pi/2]")


Scheme = Union[FourConverterScheme, InterferometerScheme]


@dataclass(frozen=True)
class ExtractionReport:
    """Result of a scheme extraction.

    ``residual`` is the largest back-propagated correlation that should
    vanish for vacuum input; ``branch`` names the route that produced the
    parameters (``closed-form`` for the four-converter scheme, ``svd`` for
    the interferometer scheme); ``imag_residue`` is the largest imaginary
    contamination seen in the nominally real inversion arguments.
    """

    scheme: Scheme
    residual: float
    branch: str
    imag_residue: float = 0.0


@dataclass(frozen=True)
class GainBound:
    """Photon-number bound linking a device to its extracted scheme.

    ``signal_total`` is the device's mean output signal photon number and
    ``scheme_total`` the sum of ``sinh^2 g`` over the four converter
    couplings; physically ``signal_total >= scheme_total``, which caps
    every individual coupling at ``parameter_cap = asinh(sqrt(signal_total))``.
    """

    signal_total: float
    scheme_total: float
    parameter_cap: float
    violated: bool


# ---------------------------------------------------------------------------
# back-propagation stages (each is the inverse of the corresponding forward
# component; invert by negating the coupling or angle)

def crossed_stage(g4: float, g5: float) -> np.ndarray:
    """Undo the crossed converter pair (s1-i2 coupling g4, s2-i1 g5)."""
    c4, s4 = math.cosh(g4), math.sinh(g4)
    c5, s5 = math.cosh(g5), math.sinh(g5)
    return np.array(
        [
            [c4, 0, 0, -s4],
            [0, c5, -s5, 0],
            [0, -s5, c5, 0],
            [-s4, 0, 0, c4],
        ],
        dtype=complex,
    )


def direct_stage(g1: float, g2: float) -> np.ndarray:
    """Undo the direct converter pair (s1-i1 coupling g1, s2-i2 g2)."""
    c1, s1 = math.cosh(g1), math.sinh(g1)
    c2, s2 = math.cosh(g2), math.sinh(g2)
    return np.array(
        [
            [c1, 0, -1j * s1, 0],
            [0, c2, 0, -1j * s2],
            [1j * s1, 0, c1, 0],
            [0, 1j * s2, 0, c2],
        ],
        dtype=complex,
    )


def mixer_stage(phi_s: float, phi_i: float) -> np.ndarray:
    """Undo the signal and idler mixers of the interferometer scheme."""
    cs, ss = math.cos(phi_s), math.sin(phi_s)
    ci, si = math.cos(phi_i), math.sin(phi_i)
    return np.array(
        [
            [cs, -1j * ss, 0, 0],
            [-1j * ss, cs, 0, 0],
            [0, 0, ci, 1j * si],
            [0, 0, 1j * si, ci],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# shared helpers (back-propagated intermediates stay raw arrays: the
# extraction residual, not a symplectic check, certifies them)

def _vanishing_residual(matrix: np.ndarray, tol: Tolerances) -> float:
    """Largest vacuum moment of ``matrix``; zero iff it is passive."""
    return vacuum_moments(matrix, tol).max_abs()


def _invert_tanh(arg: complex, tol: Tolerances,
                 *, what: str) -> tuple[float, float]:
    """Solve ``tanh(2g) = arg`` for real g.

    Returns ``(g, imag_residue)``.  A non-real argument, or one reaching
    past +-1 by more than the rounding allowance, is an error.
    """
    imag = abs(arg.imag)
    if imag > tol.imag_correlation:
        raise NonRealCorrelationError(
            f"{what}: inversion argument has imaginary part {imag:.3e}"
        )
    x = float(arg.real)
    if abs(x) >= 1.0:
        if abs(x) - 1.0 > tol.tanh_overshoot:
            raise TanhDomainError(
                f"{what}: |tanh argument| = {abs(x)} exceeds 1 beyond the "
                "rounding allowance"
            )
        x = math.copysign(1.0 - tol.tanh_clamp, x)
    return 0.5 * math.atanh(x), imag


def _direct_gains(matrix: np.ndarray,
                  tol: Tolerances) -> tuple[float, float, float]:
    """Couplings of the direct converter pair that decorrelate ``matrix``.

    Solves the two vanishing conditions for the s1-i1 and s2-i2 pair
    correlations; the inversion arguments are real exactly when those
    correlations are purely imaginary.
    """
    ms = vacuum_moments(matrix, tol)
    t1 = -2j * ms.d["s1i1"] / (ms.b["s1"] + ms.b["i1"] + 1.0)
    t2 = -2j * ms.d["s2i2"] / (ms.b["s2"] + ms.b["i2"] + 1.0)
    g1, r1 = _invert_tanh(t1, tol, what="direct gain g1")
    g2, r2 = _invert_tanh(t2, tol, what="direct gain g2")
    return g1, g2, max(r1, r2)


# ---------------------------------------------------------------------------
# four-converter extraction

def extract_four_converter(tm: TransferMatrix,
                           tol: Tolerances = TOL) -> ExtractionReport:
    """Extract the four-converter scheme from a transfer matrix.

    The crossed couplings follow from requiring the back-propagated
    s1-i2 and s2-i1 pair correlations to vanish, the direct couplings
    from the remaining s1-i1 and s2-i2 conditions; the residual is taken
    after the final back-propagation, where every vacuum moment must be
    zero.
    """
    m = tm.matrix
    ms = vacuum_moments(tm, tol)
    t4 = 2.0 * ms.d["s1i2"] / (ms.b["s1"] + ms.b["i2"] + 1.0)
    t5 = 2.0 * ms.d["s2i1"] / (ms.b["s2"] + ms.b["i1"] + 1.0)
    g4, imag4 = _invert_tanh(t4, tol, what="crossed gain g4")
    g5, imag5 = _invert_tanh(t5, tol, what="crossed gain g5")
    partial = crossed_stage(g4, g5) @ m
    g1, g2, imag12 = _direct_gains(partial, tol)
    residual = _vanishing_residual(direct_stage(g1, g2) @ partial, tol)
    if residual > tol.extraction_residual_max:
        raise ExtractionResidualError(
            f"four-converter residual {residual:.3e} exceeds "
            f"{tol.extraction_residual_max:.0e}"
        )
    return ExtractionReport(
        scheme=FourConverterScheme(g1=g1, g2=g2, g4=g4, g5=g5),
        residual=residual,
        branch="closed-form",
        imag_residue=max(imag4, imag5, imag12),
    )


# ---------------------------------------------------------------------------
# interferometer extraction

#: Singular values closer than this, relative to the larger one, are equal
#: to rounding; the singular basis is then arbitrary.
_EQUAL_SINGULAR = 1e-12


def _mixer_angle(v0: complex, v1: complex, sign: float) -> float:
    """Angle in (-pi/2, pi/2] of the mixer column ``(cos phi, sign*i sin
    phi)`` to which ``(v0, v1)`` is proportional.

    Uses the phase-invariant combinations ``|v0|^2 - |v1|^2`` (cos 2phi)
    and ``2 Im(v1 conj v0)`` (sign * sin 2phi), so neither component's
    phase is fixed and a vanishing component needs no special case.
    """
    phi = 0.5 * math.atan2(2.0 * sign * (v1 * v0.conjugate()).imag,
                           abs(v0) ** 2 - abs(v1) ** 2)
    return phi + math.pi if phi <= -math.pi / 2 else phi


def extract_interferometer(tm: TransferMatrix,
                           tol: Tolerances = TOL) -> ExtractionReport:
    """Extract the interferometer scheme from a transfer matrix.

    The pair-correlation matrix ``D = [[d_s1i1, d_s1i2], [d_s2i1,
    d_s2i2]] = M_ss M_is^H`` of the scheme factors as
    ``Rs diag(i cosh g_k sinh g_k) Ri^H``, with ``Rs`` and ``Ri`` the
    forward signal and idler mixers: an SVD of ``D`` with singular values
    ``sinh(2|g_k|)/2``.  The mixing angles come from the first left and
    right singular vectors, the signed gains from ``tanh`` inversions
    after undoing the mixers, and the residual from one final
    back-propagation.  The cost is the same at every point.

    Canonical representative: ``|g1| >= |g2|`` (the larger singular value
    belongs to the first converter; equal to rounding when the singular
    values are) and both angles in (-pi/2, pi/2].
    When the singular values are equal to rounding (a symmetric device,
    an uncoupled cascade, or zero length) only the sum or difference of
    the angles is fixed; the representative with the smallest
    ``|phi_s| + |phi_i|`` and then the smallest ``|phi_s|`` is
    ``phi_s = 0``, whose idler mixer is read from the first row of ``D``.
    A zero second singular value (a fully aligned cascade) needs no
    special case: the angles depend on the first singular vectors alone.

    Raises :class:`~coupledpdc.errors.ExtractionResidualError` when the
    back-propagated moments do not vanish to tolerance.
    """
    d = vacuum_moments(tm, tol).d
    pairs = np.array([[d["s1i1"], d["s1i2"]], [d["s2i1"], d["s2i2"]]])
    left, sigma, right_h = np.linalg.svd(pairs)
    if sigma[0] - sigma[1] <= _EQUAL_SINGULAR * sigma[0]:
        # D is sigma times a unitary: with Rs = 1, Ri's first column is
        # proportional to the conjugated first row of D
        phi_s = 0.0
        phi_i = _mixer_angle(*(pairs[0].conj() / (sigma[0] or 1.0)), -1.0)
    else:
        phi_s = _mixer_angle(*left[:, 0], 1.0)
        phi_i = _mixer_angle(*right_h[0].conj(), -1.0)
    partial = mixer_stage(phi_s, phi_i) @ tm.matrix
    g1, g2, imag = _direct_gains(partial, tol)
    residual = _vanishing_residual(direct_stage(g1, g2) @ partial, tol)
    if residual > tol.extraction_residual_max:
        raise ExtractionResidualError(
            f"interferometer residual {residual:.3e} exceeds "
            f"{tol.extraction_residual_max:.0e}"
        )
    return ExtractionReport(
        scheme=InterferometerScheme(g1=g1, g2=g2,
                                    phi_s=phi_s, phi_i=phi_i),
        residual=residual,
        branch="svd",
        imag_residue=imag,
    )


# ---------------------------------------------------------------------------
# forward synthesis and scheme diagnostics

def four_converter_matrix(scheme: FourConverterScheme,
                          tol: Tolerances = TOL) -> TransferMatrix:
    """Forward transfer matrix of the four-converter scheme.

    Equals the original device's matrix only up to a passive stage, but
    produces the same vacuum output moments.
    """
    forward = crossed_stage(-scheme.g4, -scheme.g5) \
        @ direct_stage(-scheme.g1, -scheme.g2)
    return TransferMatrix(forward, tol=tol)


def interferometer_matrix(scheme: InterferometerScheme,
                          tol: Tolerances = TOL) -> TransferMatrix:
    """Forward transfer matrix of the interferometer scheme."""
    forward = mixer_stage(-scheme.phi_s, -scheme.phi_i) \
        @ direct_stage(-scheme.g1, -scheme.g2)
    return TransferMatrix(forward, tol=tol)


def equivalence_residual(tm: TransferMatrix, scheme: Scheme,
                         tol: Tolerances = TOL) -> float:
    """Largest vacuum moment left after undoing ``scheme`` behind ``tm``.

    Zero (to rounding) certifies that the scheme generates the same
    vacuum output state as the device.
    """
    m = tm.matrix
    if isinstance(scheme, FourConverterScheme):
        undone = direct_stage(scheme.g1, scheme.g2) \
            @ crossed_stage(scheme.g4, scheme.g5) @ m
    elif isinstance(scheme, InterferometerScheme):
        undone = direct_stage(scheme.g1, scheme.g2) \
            @ mixer_stage(scheme.phi_s, scheme.phi_i) @ m
    else:
        raise TypeError(f"unsupported scheme type {type(scheme).__name__}")
    return _vanishing_residual(undone, tol)


def gain_bound(tm: TransferMatrix, scheme: FourConverterScheme,
               tol: Tolerances = TOL) -> GainBound:
    """Photon-number inequality between a device and its scheme.

    The device's total signal output must be at least the sum of
    ``sinh^2 g`` over the scheme couplings, which in turn caps each
    individual coupling.
    """
    ms = vacuum_moments(tm, tol)
    lhs = ms.b["s1"] + ms.b["s2"]
    rhs = (math.sinh(scheme.g1) ** 2 + math.sinh(scheme.g2) ** 2
           + math.sinh(scheme.g4) ** 2 + math.sinh(scheme.g5) ** 2)
    return GainBound(
        signal_total=lhs,
        scheme_total=rhs,
        parameter_cap=math.asinh(math.sqrt(max(lhs, 0.0))),
        violated=lhs < rhs - tol.gain_bound_slack,
    )
