"""Small dense complex-matrix utilities shared by the whole package.

Everything here operates on plain ``numpy.ndarray`` values with
``complex128`` entries and returns fresh arrays; inputs are never mutated:
the validation of a matrix or stack of matrices, and the element-wise
functions of the batched engine, rounded as :mod:`math` rounds.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NonFiniteMatrixError

__all__ = ["as_complex_matrix", "square", "atanh", "cosh", "sinh", "atan2"]


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
    if not np.isfinite(m).all():
        raise NonFiniteMatrixError("matrix has non-finite entries")
    return m


# ---------------------------------------------------------------------------
# element-wise functions of the batched engine, rounded as the C library
# (and so :mod:`math`) rounds.  numpy's array loops for ``arctanh``,
# ``cosh``, ``sinh`` and ``arctan2`` differ from it in the last ulp on 3-30 %
# of inputs, so those four are :mod:`math`'s, one Python call per element.
# Squares are ``pow(x, 2)``, as numpy's scalar power computes them: its
# array ``x ** 2`` (and ``np.power``) is ``x * x``, which differs from
# ``pow`` on about 0.1 % of inputs, while ``np.float_power``'s double loop
# calls the C library's ``pow`` itself, bit for bit.  Near the edge of the
# tanh inversion domain such an ulp grows until it decides a row's status.

def _libm(fn: Callable[..., float], nin: int = 1) -> Callable[..., np.ndarray]:
    """``fn`` of :mod:`math` element-wise, broadcasting its ``nin``
    arguments (about 0.1 us per element)."""
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


atanh, cosh, sinh = map(_libm, (math.atanh, math.cosh, math.sinh))
atan2 = _libm(math.atan2, 2)


def square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` as :func:`math.pow` computes it, by the C library's
    ``pow``, below 1e300; at or above, on rows that overflow anyway,
    ``x * x``."""
    out = np.asarray(x * x)
    return np.float_power(x, 2.0, out=out, where=out < 1e300)
