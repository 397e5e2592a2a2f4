import dataclasses
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import coupledpdc.linalg as linalg
from coupledpdc.config import TOL, Tolerances
from coupledpdc.device import ContinuousDevice, build_hamiltonian
from coupledpdc.errors import NonFiniteMatrixError, PdcModelError
from coupledpdc.linalg import expm

from oracles import taylor_expm

DIM = 4
FINITE = st.floats(min_value=-1.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)


def _matrices(max_norm: float):
    """Random complex 4x4 matrices with 2-norm at most ``max_norm``."""

    def build(re, im):
        m = re + 1j * im
        norm = np.linalg.norm(m, 2)
        if norm > max_norm:
            m = m * (max_norm / norm)
        return m

    return st.builds(build,
                     arrays(np.float64, (DIM, DIM), elements=FINITE),
                     arrays(np.float64, (DIM, DIM), elements=FINITE))


def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))


def test_expm_diagonal_phase():
    theta = 0.7
    out = expm(np.diag([1j * theta, 1j * theta]))
    expected = complex(math.cos(theta), math.sin(theta))
    assert np.allclose(np.diag(out), expected, atol=1e-15)
    assert abs(out[0, 1]) == 0.0


def test_expm_squeezer_block_closed_form():
    # 2x2 coupling block [[0, g], [-g, 0]] times iL gives the
    # single-squeezer cosh/sinh form
    g, length = 0.1, 1.0
    block = np.array([[0.0, g], [-g, 0.0]])
    out = expm(1j * block * length)
    assert out[0, 0] == pytest.approx(1.0050041680558035, abs=1e-14)
    assert abs(out[0, 1]) == pytest.approx(0.10016675001984403, abs=1e-14)
    assert np.allclose(out, taylor_expm(1j * block * length), atol=1e-15)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_matrices(2.0))
def test_expm_matches_series_oracle(a):
    got = expm(a)
    want = taylor_expm(a)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_matrices(1.0))
def test_expm_inverse_identity(a):
    assert np.max(np.abs(expm(a) @ expm(-a) - np.eye(DIM))) <= 1e-10


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_matrices(1.0))
def test_expm_respects_adjoint(a):
    assert np.max(np.abs(expm(a.conj().T) - expm(a).conj().T)) <= 1e-12


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_matrices(1.0))
def test_expm_scaling_consistency(a):
    half = expm(a / 2)
    assert np.max(np.abs(expm(a) - half @ half)) <= 1e-10


def test_expm_accuracy_at_large_norm():
    # the accuracy contract extends to inputs of 2-norm 50; on a
    # skew-Hermitian input the exact exponential is unitary, so forward
    # error tracks backward error directly
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    a = 1j * h * (50.0 / np.linalg.norm(1j * h, 2))
    got = expm(a)
    assert np.max(np.abs(got @ got.conj().T - np.eye(4))) <= 1e-13
    assert np.max(np.abs(got - taylor_expm(a))) <= 1e-12
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b *= 50.0 / np.linalg.norm(b, 2)
    want = taylor_expm(b)
    assert np.max(np.abs(expm(b) - want)) <= 1e-12 * np.max(np.abs(want))


def test_expm_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros((2, 3)))


def test_expm_rejects_non_finite():
    bad = np.zeros((2, 2), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        expm(bad)


def test_expm_overflow_is_a_model_error():
    # far above threshold exp(iHL) overflows; sweeps tag such a row
    # instead of aborting, so the failure must be a domain error
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteMatrixError, match="expm output") as info:
        expm(np.array([[800.0, 0.0], [0.0, 0.0]], dtype=complex))
    assert isinstance(info.value, PdcModelError)


# expm reaches into SciPy's private Pade kernels for speed; these tests
# hold it to SciPy's public expm bit for bit, so that a change of those
# kernels fails here instead of shifting a sweep's digits or status tags

def _assert_scipy_bits(a):
    """``expm`` of the stack ``a``, whole and as batches of one, is
    bit-identical to ``scipy.linalg.expm``."""
    want = scipy.linalg.expm(a)
    assert np.array_equal(expm(a), want, equal_nan=True)
    for i, row in enumerate(a):
        assert np.array_equal(expm(row[None])[0], want[i], equal_nan=True), i


_SHAPES = {
    "generic": lambda m: m,
    "upper": np.triu,
    "lower": np.tril,
    "diagonal": lambda m: np.diag(np.diag(m)),
    "zero": np.zeros_like,
}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.builds(
    lambda shape, re, im, scale: _SHAPES[shape]((re + 1j * im) * scale),
    st.sampled_from(sorted(_SHAPES)),
    arrays(np.float64, (DIM, DIM), elements=FINITE),
    arrays(np.float64, (DIM, DIM), elements=FINITE),
    st.floats(min_value=0.0, max_value=60.0)), min_size=1, max_size=12))
def test_expm_is_scipy_bit_for_bit_on_mixed_stacks(rows):
    a = np.array(rows)
    _assert_scipy_bits(a)
    assert np.array_equal(expm(a[None]), scipy.linalg.expm(a)[None])


@pytest.mark.parametrize("gamma1, gamma2, kappa, start, stop, steps", [
    # the length sweeps of tests/test_golden.py over their CLI ranges
    (0.1, 0.3, 3.0, 0.01, 20.0, 2000),
    (1.0, 1.0, 0.5, 0.01, 30.0, 50),
    (1.0, 1.0, 0.5, 0.01, 400.0, 50),
    (0.5, 1.0, 1.5, 0.01, 1000.0, 50),
    (0.1, 0.0, 3.0, 0.0, 20.0, 50),
    # far above threshold, up to where exp(iHL) itself overflows
    (1.0, 1.0, 0.5, 0.01, 800.0, 200),
])
def test_expm_is_scipy_bit_for_bit_on_sweep_stacks(gamma1, gamma2, kappa,
                                                   start, stop, steps):
    h = build_hamiltonian(ContinuousDevice(gamma1, gamma2, kappa, 0.0))
    lengths = np.linspace(start, stop, steps)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_scipy_bits(1j * h * lengths[:, None, None])
        if stop == 800.0:
            assert not np.all(np.isfinite(expm(1j * h[None] * stop)))


_openblas = pytest.mark.skipif(linalg._openblas() is None,
                               reason="SciPy links no bundled OpenBLAS")


def _blas_threads() -> int:
    return linalg._openblas().scipy_openblas_get_num_threads()


@pytest.fixture
def two_blas_threads():
    """SciPy's OpenBLAS at two threads for the test, then as it was."""
    threads = _blas_threads()
    linalg._openblas().scipy_openblas_set_num_threads(2)
    yield
    linalg._openblas().scipy_openblas_set_num_threads(threads)


def _fig2_stack(steps: int = 5) -> np.ndarray:
    h = build_hamiltonian(ContinuousDevice(0.1, 0.3, 3.0, 0.0))
    return 1j * h * np.linspace(0.5, 20.0, steps)[:, None, None]


@_openblas
def test_expm_runs_scipy_kernels_on_one_blas_thread(two_blas_threads,
                                                    monkeypatch):
    seen, pade_uv = [], linalg.pade_UV_calc

    def recorder(work, order):
        seen.append(_blas_threads())
        return pade_uv(work, order)

    monkeypatch.setattr(linalg, "pade_UV_calc", recorder)
    expm(_fig2_stack())
    assert seen == [1] * 5
    assert _blas_threads() == 2


@_openblas
def test_expm_restores_the_blas_threads_when_it_raises(two_blas_threads,
                                                       monkeypatch):
    # a failing kernel is an error, never a quiet fallback
    monkeypatch.setattr(linalg, "pade_UV_calc", lambda work, order: -1)
    with pytest.raises(RuntimeError, match="Pade kernels failed"):
        expm(_fig2_stack())
    assert _blas_threads() == 2


def test_expm_without_scipy_openblas_gives_the_same_bits(monkeypatch):
    monkeypatch.setattr(linalg.glob, "glob", lambda pattern: [])
    assert linalg._openblas.__wrapped__() is None
    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    a = _fig2_stack(50)
    assert np.array_equal(expm(a), scipy.linalg.expm(a))


def test_package_kernels_coexist_with_scipy_imported_later():
    # the package loads SciPy's compiled kernels without their packages;
    # scipy.linalg and scipy.sparse imported afterwards must reuse them,
    # and a stack with an all-zero row (L = 0) imports scipy.linalg itself
    code = textwrap.dedent("""
        import importlib, sys
        import numpy as np
        import coupledpdc.fock as fock
        import coupledpdc.linalg as linalg
        from coupledpdc.device import ContinuousDevice, build_hamiltonian
        pade = sys.modules["scipy.linalg._matfuncs_expm"]
        sparsetools = sys.modules["scipy.sparse._sparsetools"]
        assert "scipy.linalg" not in sys.modules
        h = build_hamiltonian(ContinuousDevice(0.1, 0.3, 3.0, 0.0))
        fig2 = 1j * h * np.linspace(0.5, 20.0, 50)[:, None, None]
        mixed = 1j * h * np.linspace(0.0, 20.0, 50)[:, None, None]
        got_mixed = linalg.expm(mixed)
        assert "scipy.linalg" in sys.modules
        import scipy.linalg, scipy.sparse
        assert importlib.import_module("scipy.linalg._matfuncs_expm") is pade
        assert scipy.linalg._matfuncs.pade_UV_calc is linalg.pade_UV_calc
        assert importlib.import_module("scipy.sparse._sparsetools") \\
            is sparsetools
        assert np.array_equal(scipy.linalg.expm(fig2), linalg.expm(fig2))
        assert np.array_equal(scipy.linalg.expm(mixed), got_mixed)
        g = fock.build_generator(ContinuousDevice(0.1, 0.3, 3.0, 1.0),
                                 fock.FockBasis.build(4))
        x = np.linspace(-1.0, 1.0, len(g.indptr) - 1)
        csr = scipy.sparse.csr_matrix((g.data, g.indices, g.indptr))
        assert np.array_equal(csr @ x, fock._matvec(g, g.data, x))
        print("ok")
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_scipy_extension_loader_names_a_missing_module():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_kernel"
                                          r".* SciPy \d"):
        linalg._scipy_extension("scipy.linalg._no_such_kernel")


def test_tolerances_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TOL.symplectic = 1.0  # type: ignore[misc]
    assert isinstance(TOL, Tolerances)
