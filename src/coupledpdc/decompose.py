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

Both extractions run on a stack of N transfer matrices at once
(:func:`four_converter_stack`, :func:`interferometer_stack`): ``tanh``
inversions by :func:`~coupledpdc.linalg.atanh`, batched stage products
and, for the interferometer, one batched SVD.  Every check records its
failure per row (see :mod:`coupledpdc.errors`); :func:`extract_four_converter`
and :func:`extract_interferometer` are the same code on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Union

import numpy as np

from .config import TOL
from .device import TransferMatrix
from .errors import (
    ExtractionResidualError,
    NonRealCorrelationError,
    ParameterCapError,
    TanhDomainError,
    first_of,
    flag,
    raise_first,
)
from .linalg import atan2, atanh, cosh, sinh
from .moments import MomentSet, square, vacuum_moments

__all__ = [
    "FourConverterScheme",
    "InterferometerScheme",
    "ExtractionReport",
    "GainBound",
    "extract_four_converter",
    "extract_interferometer",
    "four_converter_matrix",
    "interferometer_matrix",
    "gain_bound",
]


def _cap_message(name: str, value: float) -> str:
    return (f"|{name}| = {abs(value)} is outside the sane inversion domain "
            f"(cap {TOL.scheme_parameter_cap})")


def _check_coupling(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if abs(value) >= TOL.scheme_parameter_cap:
        raise ParameterCapError(_cap_message(name, value))


@dataclass(frozen=True)
class FourConverterScheme:
    """Couplings of the four-downconverter substituting scheme."""

    g1: float
    g2: float
    g4: float
    g5: float

    def __post_init__(self) -> None:
        for name in ("g1", "g2", "g4", "g5"):
            _check_coupling(name, getattr(self, name))


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
            _check_coupling(name, getattr(self, name))
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
class SchemeStack:
    """A scheme extraction over N transfer matrices: each scheme field
    (in ``params``), ``residual`` and ``imag_residue`` as ``(N,)`` arrays,
    and each row's first failure (see :mod:`coupledpdc.errors`)."""

    params: Dict[str, np.ndarray]
    residual: np.ndarray
    imag_residue: np.ndarray
    failed: np.ndarray


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
# component; invert by negating the coupling or angle).  Scalar parameters
# give one 4x4 matrix, ``(N,)`` arrays a stack of N.

def _stage(entries: dict) -> np.ndarray:
    out = np.zeros(np.shape(entries[0, 0]) + (4, 4), dtype=complex)
    for (i, j), value in entries.items():
        out[..., i, j] = value
    return out


def crossed_stage(g4, g5) -> np.ndarray:
    """Undo the crossed converter pair (s1-i2 coupling g4, s2-i1 g5)."""
    c4, s4, c5, s5 = cosh(g4), sinh(g4), cosh(g5), sinh(g5)
    return _stage({(0, 0): c4, (0, 3): -s4, (1, 1): c5, (1, 2): -s5,
                   (2, 1): -s5, (2, 2): c5, (3, 0): -s4, (3, 3): c4})


def direct_stage(g1, g2) -> np.ndarray:
    """Undo the direct converter pair (s1-i1 coupling g1, s2-i2 g2)."""
    c1, s1, c2, s2 = cosh(g1), sinh(g1), cosh(g2), sinh(g2)
    return _stage({(0, 0): c1, (0, 2): -1j * s1, (1, 1): c2, (1, 3): -1j * s2,
                   (2, 0): 1j * s1, (2, 2): c1, (3, 1): 1j * s2, (3, 3): c2})


def mixer_stage(phi_s, phi_i) -> np.ndarray:
    """Undo the signal and idler mixers of the interferometer scheme."""
    cs, ss = np.cos(phi_s), np.sin(phi_s)
    ci, si = np.cos(phi_i), np.sin(phi_i)
    return _stage({(0, 0): cs, (0, 1): -1j * ss, (1, 0): -1j * ss, (1, 1): cs,
                   (2, 2): ci, (2, 3): 1j * si, (3, 2): 1j * si, (3, 3): ci})


# ---------------------------------------------------------------------------
# shared batch steps (back-propagated intermediates stay raw arrays: the
# extraction residual, not a symplectic check, certifies them).  The steps
# flag failing rows in the ``failed`` record they are given, except
# ``_undo_direct``, which returns an extended copy.

def _invert_tanh(arg: np.ndarray, failed: np.ndarray,
                 *, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``tanh(2g) = arg`` for real g, per row.

    Returns ``(g, imag_residue)``.  A non-real argument, or one reaching
    past +-1 by more than the rounding allowance, is a failure; an
    argument past +-1 within it is clamped.
    """
    imag = np.abs(arg.imag)
    flag(failed, imag > TOL.imag_correlation, lambda i: NonRealCorrelationError(
        f"{what}: inversion argument has imaginary part {imag[i]:.3e}"))
    x = arg.real
    over = np.abs(x) >= 1.0
    flag(failed, over & (np.abs(x) - 1.0 > TOL.tanh_overshoot),
         lambda i: TanhDomainError(
             f"{what}: |tanh argument| = {abs(x[i])} exceeds 1 beyond the "
             "rounding allowance"))
    x = np.where(over, np.copysign(1.0 - TOL.tanh_clamp, x), x)
    return 0.5 * atanh(x), imag


def _undo_direct(partial: np.ndarray, failed: np.ndarray, scheme: str):
    """Direct converter couplings that decorrelate ``partial``, and the
    residual left once they are undone too.

    Solves the two vanishing conditions for the s1-i1 and s2-i2 pair
    correlations (the inversion arguments are real exactly when those
    correlations are purely imaginary), then takes the largest vacuum
    moment of the fully back-propagated stack.  Returns ``(g1, g2,
    imag_residue, residual, failed)``.
    """
    ms = vacuum_moments(partial)
    failed = first_of(failed, ms.failed)
    t1 = -2j * ms.d["s1i1"] / (ms.b["s1"] + ms.b["i1"] + 1.0)
    t2 = -2j * ms.d["s2i2"] / (ms.b["s2"] + ms.b["i2"] + 1.0)
    g1, imag1 = _invert_tanh(t1, failed, what="direct gain g1")
    g2, imag2 = _invert_tanh(t2, failed, what="direct gain g2")
    final = vacuum_moments(direct_stage(g1, g2) @ partial)
    failed = first_of(failed, final.failed)
    residual = final.max_abs()
    flag(failed, residual > TOL.extraction_residual_max,
         lambda i: ExtractionResidualError(
             f"{scheme} residual {residual[i]:.3e} exceeds "
             f"{TOL.extraction_residual_max:.0e}"))
    return g1, g2, np.maximum(imag1, imag2), residual, failed


def _flag_caps(failed: np.ndarray, couplings: Mapping[str, np.ndarray]):
    for name, value in couplings.items():
        flag(failed, np.abs(value) >= TOL.scheme_parameter_cap,
             lambda i: ParameterCapError(_cap_message(name, value[i])))


def _extract_one(extract, tm: TransferMatrix, scheme_type,
                 branch: str) -> ExtractionReport:
    """``extract`` on a batch of one: its report, or its failure raised."""
    m = tm.matrix[None]
    ms = vacuum_moments(m)
    stack = extract(m, ms, ms.failed)
    raise_first(stack.failed)
    return ExtractionReport(
        scheme=scheme_type(**{k: float(v[0]) for k, v in stack.params.items()}),
        residual=float(stack.residual[0]),
        branch=branch,
        imag_residue=float(stack.imag_residue[0]),
    )


# ---------------------------------------------------------------------------
# four-converter extraction

def four_converter_stack(m: np.ndarray, ms: MomentSet,
                         failed: np.ndarray) -> SchemeStack:
    """Four-converter scheme of each matrix of an ``(N, 4, 4)`` stack.

    ``ms`` are the stack's vacuum moments and ``failed`` the failures
    recorded upstream.  The crossed couplings follow from requiring the
    back-propagated s1-i2 and s2-i1 pair correlations to vanish, the
    direct couplings from the remaining s1-i1 and s2-i2 conditions; the
    residual is taken after the final back-propagation, where every
    vacuum moment must be zero.  Each coupling must stay below
    ``TOL.scheme_parameter_cap``.
    """
    failed = failed.copy()
    t4 = 2.0 * ms.d["s1i2"] / (ms.b["s1"] + ms.b["i2"] + 1.0)
    t5 = 2.0 * ms.d["s2i1"] / (ms.b["s2"] + ms.b["i1"] + 1.0)
    g4, imag4 = _invert_tanh(t4, failed, what="crossed gain g4")
    g5, imag5 = _invert_tanh(t5, failed, what="crossed gain g5")
    g1, g2, imag12, residual, failed = _undo_direct(
        crossed_stage(g4, g5) @ m, failed, "four-converter")
    params = {"g1": g1, "g2": g2, "g4": g4, "g5": g5}
    _flag_caps(failed, params)
    return SchemeStack(params, residual,
                       np.maximum(np.maximum(imag4, imag5), imag12), failed)


def extract_four_converter(tm: TransferMatrix) -> ExtractionReport:
    """Extract the four-converter scheme from a transfer matrix (see
    :func:`four_converter_stack`); raises the first failed check."""
    return _extract_one(four_converter_stack, tm, FourConverterScheme,
                        "closed-form")


# ---------------------------------------------------------------------------
# interferometer extraction

#: Singular values closer than this, relative to the larger one, are equal
#: to rounding; the singular basis is then arbitrary.
_EQUAL_SINGULAR = 1e-12


def _mixer_angle(v0: np.ndarray, v1: np.ndarray, sign: float) -> np.ndarray:
    """Angle in (-pi/2, pi/2] of the mixer column ``(cos phi, sign*i sin
    phi)`` to which ``(v0, v1)`` is proportional, per row.

    Uses the phase-invariant combinations ``|v0|^2 - |v1|^2`` (cos 2phi)
    and ``2 Im(v1 conj v0)`` (sign * sin 2phi), so neither component's
    phase is fixed and a vanishing component needs no special case.
    """
    phi = 0.5 * atan2(2.0 * sign * (v1 * np.conj(v0)).imag,
                      square(np.abs(v0)) - square(np.abs(v1)))
    return np.where(phi <= -math.pi / 2, phi + math.pi, phi)


def interferometer_stack(m: np.ndarray, ms: MomentSet,
                         failed: np.ndarray) -> SchemeStack:
    """Interferometer scheme of each matrix of an ``(N, 4, 4)`` stack.

    ``ms`` are the stack's vacuum moments and ``failed`` the failures
    recorded upstream.  The pair-correlation matrix ``D = [[d_s1i1,
    d_s1i2], [d_s2i1, d_s2i2]] = M_ss M_is^H`` of the scheme factors as
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
    """
    failed = failed.copy()
    d = ms.d
    pairs = np.stack([d["s1i1"], d["s1i2"], d["s2i1"], d["s2i2"]],
                     axis=-1).reshape(-1, 2, 2)
    # a failed row may hold non-finite moments, which would stop the
    # batched SVD for every row
    pairs[~np.equal(failed, None)] = 0.0
    left, sigma, right_h = np.linalg.svd(pairs)
    top = sigma[:, 0]
    equal = top - sigma[:, 1] <= _EQUAL_SINGULAR * top
    # equal singular values: D is sigma times a unitary, and with Rs = 1
    # Ri's first column is proportional to the conjugated first row of D
    first_row = np.conj(pairs[:, 0]) / np.where(top == 0.0, 1.0, top)[:, None]
    phi_s = np.where(equal, 0.0,
                     _mixer_angle(left[:, 0, 0], left[:, 1, 0], 1.0))
    phi_i = np.where(equal,
                     _mixer_angle(first_row[:, 0], first_row[:, 1], -1.0),
                     _mixer_angle(np.conj(right_h[:, 0, 0]),
                                  np.conj(right_h[:, 0, 1]), -1.0))
    g1, g2, imag, residual, failed = _undo_direct(
        mixer_stage(phi_s, phi_i) @ m, failed, "interferometer")
    _flag_caps(failed, {"g1": g1, "g2": g2})
    params = {"g1": g1, "g2": g2, "phi_s": phi_s, "phi_i": phi_i}
    return SchemeStack(params, residual, imag, failed)


def extract_interferometer(tm: TransferMatrix) -> ExtractionReport:
    """Extract the interferometer scheme from a transfer matrix (see
    :func:`interferometer_stack`).

    Raises the first failed check, for example
    :class:`~coupledpdc.errors.ExtractionResidualError` when the
    back-propagated moments do not vanish to tolerance.
    """
    return _extract_one(interferometer_stack, tm, InterferometerScheme,
                        "svd")


# ---------------------------------------------------------------------------
# forward synthesis and scheme diagnostics

def four_converter_matrix(scheme: FourConverterScheme) -> TransferMatrix:
    """Forward transfer matrix of the four-converter scheme.

    Equals the original device's matrix only up to a passive stage, but
    produces the same vacuum output moments.
    """
    forward = crossed_stage(-scheme.g4, -scheme.g5) \
        @ direct_stage(-scheme.g1, -scheme.g2)
    return TransferMatrix(forward)


def interferometer_matrix(scheme: InterferometerScheme) -> TransferMatrix:
    """Forward transfer matrix of the interferometer scheme."""
    forward = mixer_stage(-scheme.phi_s, -scheme.phi_i) \
        @ direct_stage(-scheme.g1, -scheme.g2)
    return TransferMatrix(forward)


def gain_bound(tm: TransferMatrix, scheme: FourConverterScheme) -> GainBound:
    """Photon-number inequality between a device and its scheme.

    The device's total signal output must be at least the sum of
    ``sinh^2 g`` over the scheme couplings, which in turn caps each
    individual coupling.
    """
    ms = vacuum_moments(tm)
    lhs = ms.b["s1"] + ms.b["s2"]
    rhs = (math.sinh(scheme.g1) ** 2 + math.sinh(scheme.g2) ** 2
           + math.sinh(scheme.g4) ** 2 + math.sinh(scheme.g5) ** 2)
    return GainBound(
        signal_total=lhs,
        scheme_total=rhs,
        parameter_cap=math.asinh(math.sqrt(max(lhs, 0.0))),
        violated=lhs < rhs - TOL.gain_bound_slack,
    )
