"""Small dense complex-matrix utilities shared by the whole package.

Everything here operates on plain ``numpy.ndarray`` values with
``complex128`` entries and returns fresh arrays; inputs are never mutated.
The matrix exponential is the workhorse behind the 4x4 transfer matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NonFiniteMatrixError

__all__ = ["as_complex_matrix", "expm"]


def _require_finite(m: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFiniteMatrixError(f"{what} has non-finite entries")


def as_complex_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and convert ``a`` to a 2-D complex128 array.

    Raises ``ValueError`` for wrong rank or (with ``square=True``) a
    non-square shape, and its subclass
    :class:`~coupledpdc.errors.NonFiniteMatrixError` for non-finite
    entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _require_finite(m, "matrix")
    return m


def expm(a) -> np.ndarray:
    """Matrix exponential of a square complex matrix.

    Scaling-and-squaring with a Pade-type rational approximation (the
    SciPy implementation), wrapped with the package's validation: the
    input must be square and finite, and an output that overflows raises
    :class:`~coupledpdc.errors.NonFiniteMatrixError`.  Deterministic
    across runs.
    """
    out = scipy.linalg.expm(as_complex_matrix(a, square=True))
    _require_finite(out, "expm output")
    return out
