"""Small dense complex-matrix utilities shared by the whole package.

Everything here operates on plain ``numpy.ndarray`` values with
``complex128`` entries and returns fresh arrays; inputs are never mutated.
The matrix exponential is the workhorse behind the 4x4 transfer matrices;
the sweep engine passes it a whole stack of them.  It returns the bits of
``scipy.linalg.expm`` through SciPy's own compiled Pade stages, and holds
SciPy's bundled OpenBLAS to one thread while it runs: its LAPACK solves on
4x4 systems otherwise wake a thread pool that then spins idle.

The Pade stages, like the sparse product of :mod:`coupledpdc.fock`, are
loaded from their compiled file, without ``scipy.linalg`` or
``scipy.sparse``: either package first imports ``scipy._lib._util``, which
touches every lazy attribute of numpy and more than doubles start-up.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.machinery
import importlib.util
import math
import os
import sys
from types import ModuleType
from typing import Callable

import numpy as np
import scipy

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


def _scipy_extension(name: str) -> ModuleType:
    """The compiled SciPy module ``name`` (``scipy.<subpackage>.<module>``),
    loaded from its file without running its package's ``__init__``.

    It is registered in ``sys.modules`` under its own name, so a later
    ``import scipy.linalg`` or ``import scipy.sparse`` reuses it instead of
    initializing it a second time.  Raises ``ImportError`` naming the
    module and SciPy's version when no such file exists.
    """
    if name in sys.modules:
        return sys.modules[name]
    package = name.rpartition(".")[0].split(".")
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(os.path.dirname(scipy.__file__), *package[1:])])
    if spec is None:
        raise ImportError(f"{name} not found in SciPy {scipy.__version__}",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_expm_kernels = _scipy_extension("scipy.linalg._matfuncs_expm")
pick_pade_structure = _expm_kernels.pick_pade_structure
pade_UV_calc = _expm_kernels.pade_UV_calc


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """SciPy's bundled OpenBLAS (already loaded as a dependency of its
    compiled Pade stages), or ``None`` where SciPy links another BLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(scipy.__file__), os.pardir,
                                  "scipy.libs", "libscipy_openblas*.so"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    lib.scipy_openblas_get_num_threads.argtypes = []
    lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads.restype = None
    return lib


@contextlib.contextmanager
def _one_blas_thread():
    """Hold SciPy's OpenBLAS to one thread, then restore its count."""
    lib = _openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(threads)


def expm(a) -> np.ndarray:
    """Matrix exponential of a square complex matrix, or of each matrix
    of a stack ``(..., n, n)``: bit for bit what ``scipy.linalg.expm``
    returns, and so a stack's rows are bit-identical to one at a time.

    Scaling-and-squaring with a Pade-type rational approximation
    (Al-Mohy & Higham 2009, SciPy's kernels), wrapped with the package's
    validation: the input must be square and finite, and a single matrix
    whose output overflows raises
    :class:`~coupledpdc.errors.NonFiniteMatrixError` (a stack leaves that
    check to the caller, per matrix).  While it runs, SciPy's OpenBLAS is
    held to one thread; that count is process-wide for the duration, but
    no result depends on it.  Deterministic across runs.
    """
    a = as_complex_matrix(a, square=True)
    stack = a.reshape(math.prod(a.shape[:-2]), *a.shape[-2:])
    with _one_blas_thread():
        out = _expm_stack(stack).reshape(a.shape)
    if out.ndim == 2:
        _require_finite(out, "expm output")
    return out


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm`` of an ``(N, n, n)`` stack.  SciPy's loop over
    a stack spends most of its time in Python per matrix; here the generic
    rows (neither upper nor lower triangular) go straight through its two
    compiled stages and are then squared together, grouped by squaring
    count.  Triangular and diagonal rows take SciPy's own route, and only
    they import ``scipy.linalg``."""
    n = a.shape[-1]
    below, nonzero = np.tri(n, k=-1, dtype=bool), a != 0
    generic = nonzero[:, below].any(1) & nonzero[:, below.T].any(1)
    out = np.empty_like(a)
    rows = np.flatnonzero(generic)
    if len(rows) < len(a):
        import scipy.linalg
        out[~generic] = scipy.linalg.expm(a[~generic])
    work = np.empty((5, n, n), dtype=a.dtype)
    squarings = []
    for i in rows.tolist():
        work[0] = a[i]
        order, s = pick_pade_structure(work)
        if order < 0 or pade_UV_calc(work, order) != 0:
            raise RuntimeError(f"SciPy's Pade kernels failed on matrix {i}")
        out[i] = work[0]
        squarings.append(s)
    for s in sorted(set(squarings) - {0}):
        group = rows[np.equal(squarings, s)]
        e = out[group]
        for _ in range(s):
            e = e @ e
        out[group] = e
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
