"""Small dense complex-matrix utilities shared by the whole package.

Everything here operates on plain ``numpy.ndarray`` values with
``complex128`` entries and returns fresh arrays; inputs are never mutated.
The matrix exponential is the workhorse behind the 4x4 transfer matrices;
the sweep engine passes it a whole stack of them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import NonFiniteMatrixError

__all__ = ["as_complex_matrix", "expm", "square", "atanh", "cosh", "sinh",
           "atan2"]


def _require_finite(m: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFiniteMatrixError(f"{what} has non-finite entries")


def as_complex_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and convert ``a`` to a complex128 matrix, or stack of
    matrices (``ndim >= 2``).

    Raises ``ValueError`` for a lower rank or (with ``square=True``) a
    non-square shape, and its subclass
    :class:`~coupledpdc.errors.NonFiniteMatrixError` for non-finite
    entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if square and m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _require_finite(m, "matrix")
    return m


def expm(a) -> np.ndarray:
    """Matrix exponential of a square complex matrix, or of each matrix
    of a stack ``(N, n, n)`` (bit-identical to one at a time).

    Scaling-and-squaring with a Pade-type rational approximation (the
    SciPy implementation), wrapped with the package's validation: the
    input must be square and finite, and a single matrix whose output
    overflows raises :class:`~coupledpdc.errors.NonFiniteMatrixError`
    (a stack leaves that check to the caller, per matrix).  Deterministic
    across runs.
    """
    out = scipy.linalg.expm(as_complex_matrix(a, square=True))
    if out.ndim == 2:
        _require_finite(out, "expm output")
    return out


# ---------------------------------------------------------------------------
# element-wise functions of the batched engine, rounded as the C library
# (and so :mod:`math`) rounds.  numpy's array loops for these functions
# differ from it in the last ulp on 3-30 % of inputs, and its array
# ``x ** 2`` is ``x * x`` where its scalar one calls ``pow`` (0.1 %).  Near
# the edge of the tanh inversion domain such an ulp grows until it decides
# a row's status.

def _libm(fn: Callable[..., float], nin: int = 1) -> Callable[..., np.ndarray]:
    """``fn`` of :mod:`math` element-wise (about 0.2 us per element)."""
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


atanh, cosh, sinh = map(_libm, (math.atanh, math.cosh, math.sinh))
atan2, _pow = _libm(math.atan2, 2), _libm(math.pow, 2)


def square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` by ``pow``, as numpy's scalar power, below 1e300 (where
    ``pow`` cannot overflow and raise); above, on rows that overflow
    anyway, ``x * x``."""
    out = x * x
    exact = out < 1e300
    out[exact] = _pow(x[exact], 2.0)
    return out
