"""Element-wise functions of the scheme extractions and the which-way
geometry, rounded as the C library (and so :mod:`math`) rounds; they
return fresh arrays and never mutate their inputs.

numpy's array loops for ``arctanh``, ``cosh``, ``sinh`` and ``arctan2``
differ from the C library in the last ulp on 3-30 % of inputs, so these
are :mod:`math`'s, one Python call per element.  Near the edge of the
tanh inversion domain such an ulp grows until it decides a row's status.
(Squares rounded as ``pow`` are :func:`coupledpdc.moments.square`.)
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["atanh", "cosh", "sinh", "atan2"]


def _libm(fn: Callable[..., float], nin: int = 1) -> Callable[..., np.ndarray]:
    """``fn`` of :mod:`math` element-wise, broadcasting its ``nin``
    arguments (about 0.1 us per element)."""
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


atanh, cosh, sinh = map(_libm, (math.atanh, math.cosh, math.sinh))
atan2 = _libm(math.atan2, 2)

