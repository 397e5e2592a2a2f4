"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths of the package under test: the
matrix exponential is a plain scaled Taylor summation, or mpmath's at 50
digits, and the squeezer forms are textbook closed formulas.  The
number-basis references are the original per-state loops, indexed through
a dictionary of occupation tuples built independently of the package's
basis.
"""

import itertools
import math

import mpmath
import numpy as np


def taylor_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaled power-series summation.

    Scales the input so its 1-norm is below 1/2, sums the Taylor series
    to machine precision, and squares back.  Slow and simple; used as the
    oracle for the package's exponential.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    scaled = a / (2.0 ** squarings)
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 60):
        term = term @ scaled / k
        result = result + term
        if np.max(np.abs(term)) < 1e-20:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def mpmath_transfer_matrix(g1: float, g2: float, kappa: float,
                           length: float) -> np.ndarray:
    """``exp(iHL)`` of the continuous device by mpmath's ``expm`` at 50
    digits, from the exact binary values of the arguments (their products
    are exact at that precision), correctly rounded to complex128."""
    with mpmath.workdps(50):
        h = mpmath.matrix([[0, 0, g1, 0], [0, 0, 0, g2],
                           [-g1, 0, 0, -kappa], [0, -g2, -kappa, 0]])
        m = mpmath.expm(h * (1j * mpmath.mpf(length)))
        return np.array([[complex(m[i, j]) for j in range(4)]
                         for i in range(4)])


def symplectic_residual(m: np.ndarray) -> float:
    """Largest element-wise violation of ``M eta M^H = eta``, with the
    metric ``eta = diag(1, 1, -1, -1)`` as a plain matrix product."""
    eta = np.diag([1.0, 1.0, -1.0, -1.0])
    return float(np.max(np.abs(m @ eta @ np.conj(m).T - eta)))


def squeezer_matrix(g: float) -> np.ndarray:
    """Transfer matrix of a single two-mode squeezer on (s1, i1).

    Closed form for the continuous device with only the first converter
    active: ``A_s1_out = cosh(g) A_s1 + i sinh(g) A_i1^+``.
    """
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.cosh(g)
    m[0, 2] = 1j * np.sinh(g)
    m[2, 0] = -1j * np.sinh(g)
    m[2, 2] = np.cosh(g)
    return m


def loop_full_basis(n_max: int):
    """All occupation tuples ``(s1, i1, s2, i2)`` up to the cutoff, in
    lexicographic order."""
    return list(itertools.product(range(n_max + 1), repeat=4))


def in_sector(occ) -> bool:
    """Whether a ket has as many signal as idler photons."""
    return occ[0] + occ[2] == occ[1] + occ[3]


def sector_mask(n_max: int) -> np.ndarray:
    """Boolean mask of the sector kets within :func:`loop_full_basis`."""
    return np.array([in_sector(occ) for occ in loop_full_basis(n_max)])


def loop_basis(n_max: int):
    """Sector occupation tuples in lexicographic order, and the
    tuple -> position dictionary."""
    occupations = [occ for occ in loop_full_basis(n_max) if in_sector(occ)]
    return occupations, {occ: i for i, occ in enumerate(occupations)}


def loop_generator(gamma1: float, gamma2: float, kappa: float,
                   n_max: int) -> np.ndarray:
    """Dense generator on the full truncated basis, built state by state
    and term by term."""
    terms = (
        (gamma1, (0, +1), (1, +1)),
        (gamma1, (0, -1), (1, -1)),
        (gamma2, (2, +1), (3, +1)),
        (gamma2, (2, -1), (3, -1)),
        (kappa, (1, -1), (3, +1)),
        (kappa, (1, +1), (3, -1)),
    )
    occupations = loop_full_basis(n_max)
    index = {occ: i for i, occ in enumerate(occupations)}
    g = np.zeros((len(occupations), len(occupations)), dtype=complex)
    for i, occ in enumerate(occupations):
        for coef, (mode_a, step_a), (mode_b, step_b) in terms:
            if coef == 0.0:
                continue
            target = list(occ)
            amp = coef
            ok = True
            for mode, step in ((mode_a, step_a), (mode_b, step_b)):
                n = target[mode]
                if step > 0:
                    amp *= math.sqrt(n + 1)
                    target[mode] = n + 1
                else:
                    if n == 0:
                        ok = False
                        break
                    amp *= math.sqrt(n)
                    target[mode] = n - 1
            if not ok or max(target) > n_max:
                continue
            g[index[tuple(target)], i] += amp
    return g


def loop_signal_cross(psi: np.ndarray, n_max: int) -> complex:
    """``<A_s1^+ A_s2>`` of a sector state, summed state by state."""
    occupations, index = loop_basis(n_max)
    cross = 0.0 + 0.0j
    for i, occ in enumerate(occupations):
        if occ[2] == 0 or occ[0] == n_max:
            continue
        amp = math.sqrt(occ[2]) * math.sqrt(occ[0] + 1)
        target = (occ[0] + 1, occ[1], occ[2] - 1, occ[3])
        cross += np.conj(psi[index[target]]) * amp * psi[i]
    return cross


def linear_search_bessel_series(x: float) -> np.ndarray:
    """``(2 - delta_k0) J_k(x)`` by Miller's backward recurrence, started at
    the order found by a linear search upwards from ``e x / 2``, one
    ``lgamma`` per order: the series :func:`coupledpdc.fock._bessel_series`
    computed before its start order was bisected.  Only for finite
    ``x >= 0`` of moderate size; it has no cap on the order."""
    if x < 1e-18:
        return np.ones(1)
    log_half = math.log(x / 2)
    top = math.ceil(math.e * x / 2)
    while top * log_half - math.lgamma(top + 1) > -69.0:
        top += 1
    j = [0.0] * (top + 2)
    j[top] = this = 1.0
    above = 0.0
    for k in range(top, 0, -1):
        this, above = 2 * k / x * this - above, this
        j[k - 1] = this
        if abs(this) > 1e250:
            j[k - 1:] = [v * 1e-250 for v in j[k - 1:]]
            this, above = j[k - 1], j[k]
    norm = j[0] + 2.0 * math.fsum(j[2::2])
    end = math.floor(x) + 1
    while 2.0 * abs(j[end]) >= 1e-18 * abs(norm):
        end += 1
    series = np.array(j[:end]) / norm
    series[1:] *= 2.0
    return series
