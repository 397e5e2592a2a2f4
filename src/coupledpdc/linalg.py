"""Small dense complex-matrix utilities shared by the whole package.

Everything here operates on plain ``numpy.ndarray`` values with
``complex128`` entries and returns fresh arrays; inputs are never mutated.
The matrix exponential is the workhorse behind the 4x4 transfer matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .config import TOL, Tolerances
from .errors import SingularMatrixError

__all__ = ["as_complex_matrix", "expm", "mat_mul", "adjoint", "inverse"]


def as_complex_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and convert ``a`` to a 2-D complex128 array.

    Raises ``ValueError`` for wrong rank, non-finite entries, or (with
    ``square=True``) a non-square shape.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def expm(a) -> np.ndarray:
    """Matrix exponential of a square complex matrix.

    Scaling-and-squaring with a Pade-type rational approximation (the
    SciPy implementation), wrapped with the package's validation: the
    input must be square and finite.  Deterministic across runs.
    """
    m = as_complex_matrix(a, square=True)
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ValueError("expm overflowed to non-finite entries")
    return out


def mat_mul(a, b) -> np.ndarray:
    """Matrix product with dimension and overflow checking."""
    ma = as_complex_matrix(a)
    mb = as_complex_matrix(b)
    if ma.shape[1] != mb.shape[0]:
        raise ValueError(f"cannot multiply shapes {ma.shape} and {mb.shape}")
    return as_complex_matrix(ma @ mb)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_complex_matrix(a).conj().T.copy()


def inverse(a, tol: Tolerances = TOL) -> np.ndarray:
    """Inverse of a well-conditioned square matrix.

    Raises :class:`~coupledpdc.errors.SingularMatrixError` when the
    2-norm condition estimate exceeds ``tol.condition_cap``.
    """
    m = as_complex_matrix(a, square=True)
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > tol.condition_cap:
        raise SingularMatrixError(
            f"condition estimate {cond:.3e} exceeds cap {tol.condition_cap:.0e}"
        )
    return np.linalg.inv(m)
