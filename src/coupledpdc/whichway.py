"""Single-pair analysis: path information carried by the idler modes.

Well below threshold at most one photon pair is present, and the
four-converter scheme prepares (vacuum component projected out, overall
normalization left open)

    |Psi> = g4|1001> + g5|0110> + i g1|1100> + i g2|0011>,

with kets labeled ``|n_s1 n_i1 n_s2 n_i2>``.  Two real plane vectors
``u = (g1, g4)`` and ``v = (g5, -g2)`` then organize everything: the
squared signal coherence is ``(u.v)^2 / (u^2 v^2)``, orthogonality means
the idlers carry perfect path information, collinearity means they carry
none, and the ideal two-outcome idler measurement is a number-difference
measurement rotated by an angle fixed by ``u``.

Probabilities here are computed from the normalized pair state, not from
the unnormalized textbook decomposition of |Psi> over the measurement
eigenstates, which absorbs a factor of |u|; that decomposition is checked
as a proportionality in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decompose import FourConverterScheme, InterferometerScheme
from .errors import (
    DegenerateGeometryError,
    UndefinedCoherenceError,
    ZeroSchemeError,
    flag,
    no_failures,
    raise_first,
)
from .linalg import atan2

__all__ = [
    "PairState",
    "WhichWayGeometry",
    "WhichWayMeasurement",
    "pair_state",
    "geometry",
    "ideal_measurement",
    "interferometer_coherence",
]


@dataclass(frozen=True)
class PairState:
    """Unnormalized single-pair amplitudes over the four pair kets."""

    c_1001: complex  # photon pair in (s1, i2)
    c_0110: complex  # photon pair in (i1, s2)
    c_1100: complex  # photon pair in (s1, i1)
    c_0011: complex  # photon pair in (s2, i2)

    def norm_squared(self) -> float:
        return (abs(self.c_1001) ** 2 + abs(self.c_0110) ** 2
                + abs(self.c_1100) ** 2 + abs(self.c_0011) ** 2)


@dataclass(frozen=True)
class WhichWayGeometry:
    """Mutual geometry of the coupling vectors u and v.

    ``angle`` is the oriented angle from u to v in (-pi, pi];
    ``gamma_sq`` is the squared signal coherence it implies.  When one of
    the vectors vanishes only one signal channel is populated at first
    order, the geometry is degenerate and the coherence is reported as 1
    with the flag set.  :func:`geometry_stack` fills the fields with one
    row per scheme (``u`` and ``v`` are then ``(N, 2)``).
    """

    u: np.ndarray
    v: np.ndarray
    dot: float
    cross: float
    angle: float
    gamma_sq: float
    degenerate: bool = False


@dataclass(frozen=True)
class WhichWayMeasurement:
    """The ideal two-outcome idler measurement and its action.

    ``phi`` is the rotation of the measurement basis away from plain
    idler photon counting.  ``state_1``/``state_2`` are the normalized
    conditional signal states over the basis ``(|10>_s, |01>_s)``; a
    zero-probability outcome carries ``None``.
    """

    phi: float
    p1: float
    p2: float
    state_1: Optional[np.ndarray]
    state_2: Optional[np.ndarray]


def pair_state(scheme: FourConverterScheme) -> PairState:
    """First-order pair state prepared by the four-converter scheme."""
    if scheme.g1 == 0 and scheme.g2 == 0 and scheme.g4 == 0 and scheme.g5 == 0:
        raise ZeroSchemeError()
    return PairState(
        c_1001=complex(scheme.g4),
        c_0110=complex(scheme.g5),
        c_1100=1j * scheme.g1,
        c_0011=1j * scheme.g2,
    )


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two ``(N, 2)`` arrays, each rounded as
    the single-vector ``a @ b`` rounds."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def geometry_stack(g1: np.ndarray, g2: np.ndarray, g4: np.ndarray,
                   g5: np.ndarray) -> tuple[WhichWayGeometry, np.ndarray]:
    """Coupling-vector geometry of N four-converter schemes given by
    their ``(N,)`` coupling arrays, with each row's failure
    (:class:`~coupledpdc.errors.ZeroSchemeError` where every coupling
    vanishes)."""
    u = np.stack([g1, g4], axis=-1)
    v = np.stack([g5, -g2], axis=-1)
    dot, u2, v2 = (_rowdot(a, b) for a, b in ((u, v), (u, u), (v, v)))
    cross = g1 * -g2 - g4 * g5
    # single-source case: the populated signal mode is trivially
    # coherent with itself after any mixer
    degenerate = (u2 == 0.0) | (v2 == 0.0)
    failed = no_failures(len(dot))
    flag(failed, (u2 == 0.0) & (v2 == 0.0), ZeroSchemeError)
    return WhichWayGeometry(
        u=u, v=v, dot=dot, cross=cross,
        angle=np.where(degenerate, 0.0, atan2(cross, dot)),
        gamma_sq=np.where(degenerate, 1.0,
                          dot * dot / np.where(degenerate, 1.0, u2 * v2)),
        degenerate=degenerate,
    ), failed


def geometry(scheme: FourConverterScheme) -> WhichWayGeometry:
    """Coupling-vector geometry and the coherence it implies."""
    geo, failed = geometry_stack(
        *(np.array([getattr(scheme, name)], dtype=float)
          for name in ("g1", "g2", "g4", "g5")))
    raise_first(failed)
    u, v = geo.u[0], geo.v[0]
    u.flags.writeable = False
    v.flags.writeable = False
    return WhichWayGeometry(
        u=u, v=v, dot=float(geo.dot[0]), cross=float(geo.cross[0]),
        angle=float(geo.angle[0]), gamma_sq=float(geo.gamma_sq[0]),
        degenerate=bool(geo.degenerate[0]),
    )


def ideal_measurement(scheme: FourConverterScheme,
                      ps: PairState) -> WhichWayMeasurement:
    """Ideal which-way measurement on the idler modes.

    The measurement basis is the photon-number-difference basis rotated
    by ``phi`` with ``sin(phi) = g4 / sqrt(g1^2 + g4^2)``; at ``g4 = 0``
    it reduces to plain idler counting.  Outcome probabilities and the
    conditional signal states follow from projecting the normalized pair
    state onto the two idler eigenstates.
    """
    norm_u = math.hypot(scheme.g1, scheme.g4)
    if norm_u == 0.0:
        raise DegenerateGeometryError(
            "g1 = g4 = 0: the first signal channel is empty and the "
            "measurement angle is undefined"
        )
    sin_phi = scheme.g4 / norm_u
    cos_phi = scheme.g1 / norm_u
    phi = math.atan2(scheme.g4, scheme.g1)

    # idler eigenstates over (|10>_i, |01>_i):
    #   |e1> = sin(phi)|10> + i cos(phi)|01>
    #   |e2> = i cos(phi)|10> + sin(phi)|01>
    # pair state grouped by idler content:
    #   |10>_i carries signal (c_1100, c_0110), |01>_i carries (c_1001, c_0011)
    # conditional (unnormalized) signal vectors over (|10>_s, |01>_s):
    proj_1 = np.array([
        sin_phi * ps.c_1100 - 1j * cos_phi * ps.c_1001,
        sin_phi * ps.c_0110 - 1j * cos_phi * ps.c_0011,
    ])
    proj_2 = np.array([
        -1j * cos_phi * ps.c_1100 + sin_phi * ps.c_1001,
        -1j * cos_phi * ps.c_0110 + sin_phi * ps.c_0011,
    ])

    # scale-safe norms: amplitudes can be tiny enough that their squares
    # underflow, so never sum squared magnitudes directly
    def _norm(vec: np.ndarray) -> float:
        return math.hypot(vec[0].real, vec[0].imag, vec[1].real, vec[1].imag)

    total_norm = math.hypot(
        ps.c_1001.real, ps.c_1001.imag, ps.c_0110.real, ps.c_0110.imag,
        ps.c_1100.real, ps.c_1100.imag, ps.c_0011.real, ps.c_0011.imag,
    )
    if total_norm == 0.0:
        raise ZeroSchemeError("pair state has zero norm")
    norm_1 = _norm(proj_1)
    norm_2 = _norm(proj_2)
    p1 = (norm_1 / total_norm) ** 2
    p2 = (norm_2 / total_norm) ** 2

    def _normalized(vec: np.ndarray, norm: float) -> Optional[np.ndarray]:
        if norm == 0.0:
            return None
        return vec / norm

    return WhichWayMeasurement(
        phi=phi, p1=p1, p2=p2,
        state_1=_normalized(proj_1, norm_1),
        state_2=_normalized(proj_2, norm_2),
    )


def interferometer_coherence(scheme: InterferometerScheme) -> float:
    """Signal coherence of the interferometer scheme from its parameters.

    With converter outputs ``n_j = sinh^2 g_j`` mixed by the signal
    mixer, the coherence is
    ``(n_1 - n_2) sin(2 phi_s) / sqrt(4 N_1 N_2)`` where ``N_1, N_2``
    are the mixed occupations.  Equal converters give zero; a single
    active converter gives |coherence| = 1 for any mixing angle.
    """
    n1 = math.sinh(scheme.g1) ** 2
    n2 = math.sinh(scheme.g2) ** 2
    cos2 = math.cos(scheme.phi_s) ** 2
    sin2 = math.sin(scheme.phi_s) ** 2
    big_n1 = n1 * cos2 + n2 * sin2
    big_n2 = n1 * sin2 + n2 * cos2
    if big_n1 * big_n2 <= 0.0:
        raise UndefinedCoherenceError(
            "a mixed signal occupation vanishes; the coherence is a 0/0 "
            "expression"
        )
    return (n1 - n2) * math.sin(2.0 * scheme.phi_s) / math.sqrt(
        4.0 * big_n1 * big_n2)
