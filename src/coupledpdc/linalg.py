"""Element-wise functions of the batched engine, rounded as the C library
(and so :mod:`math`) rounds; they return fresh arrays and never mutate
their inputs.

numpy's array loops for ``arctanh``, ``cosh``, ``sinh`` and ``arctan2``
differ from the C library in the last ulp on 3-30 % of inputs, so those
four are :mod:`math`'s, one Python call per element.  Squares are ``pow(x,
2)``, as numpy's scalar power computes them: its array ``x ** 2`` (and
``np.power``) is ``x * x``, which differs from ``pow`` on about 0.1 % of
inputs, while ``np.float_power``'s double loop calls the C library's
``pow`` itself, bit for bit.  Near the edge of the tanh inversion domain
such an ulp grows until it decides a row's status.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["square", "atanh", "cosh", "sinh", "atan2"]


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
