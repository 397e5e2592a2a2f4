import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coupledpdc.config import TOL, Tolerances
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


def test_tolerances_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TOL.symplectic = 1.0  # type: ignore[misc]
    assert isinstance(TOL, Tolerances)
