import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledpdc.config import TOL
from coupledpdc.device import (
    ETA,
    CascadedDevice,
    ContinuousDevice,
    Regime,
    TransferMatrix,
    build_hamiltonian,
    cascaded_transfer_matrix,
    classify_regime,
    transfer_matrix,
)
from coupledpdc.moments import intensities

from oracles import (
    mpmath_transfer_matrix,
    squeezer_matrix,
    symplectic_residual,
    taylor_expm,
)

SEMIGROUP_TOL = 1e-9  # composition consistency of exp(iHL), relative
EPS = 2.2e-16

FIG2 = dict(gamma1=0.1, gamma2=0.3, kappa=3.0)


@st.composite
def below_threshold_devices(draw):
    g1 = draw(st.floats(-2.0, 2.0))
    g2 = draw(st.floats(-2.0, 2.0))
    margin = draw(st.floats(0.05, 0.9))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    length = draw(st.floats(0.0, 10.0))
    kappa = sign * (abs(g1) + abs(g2) + margin)
    return ContinuousDevice(g1, g2, kappa, length)


@st.composite
def devices(draw):
    """Devices in every regime: below threshold, above it, exactly at it
    and within 1e-9 and 1e-6 of it, a converter without gain, and no idler
    coupling; lengths of 0 and 1e-6 among them."""
    g1, g2 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    regime = draw(st.sampled_from(["below", "above", "threshold",
                                   "no-gain", "no-coupling"]))
    gain = abs(g1) + abs(g2)
    if regime == "below":
        kappa = gain + draw(st.floats(0.05, 0.9))
    elif regime == "above":
        kappa = draw(st.floats(0.0, gain))
    elif regime == "threshold":
        kappa = gain + draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6]))
    elif regime == "no-gain":
        g2, kappa = 0.0, draw(st.floats(0.0, 3.0))
    else:
        kappa = 0.0
    kappa *= draw(st.sampled_from([-1.0, 1.0]))
    length = draw(st.one_of(st.sampled_from([0.0, 1e-6]),
                            st.floats(0.0, 10.0)))
    return ContinuousDevice(g1, g2, kappa, length)


def _relative_error(dev: ContinuousDevice) -> float:
    """Largest entry error of :func:`transfer_matrix` against mpmath's
    exponential of the same generator, relative to ``max|M|`` and to
    ``eps max(1, rho L)``, ``rho`` the spectral radius of ``H``."""
    a = 1j * build_hamiltonian(dev) * dev.length
    want = mpmath_transfer_matrix(a[0, 2].imag, a[1, 3].imag, -a[2, 3].imag,
                                  1.0)
    got = transfer_matrix(dev).matrix
    assert np.isfinite(got).all()
    rho_l = max(abs(np.linalg.eigvals(a)))
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want))
                 / (EPS * max(1.0, rho_l)))


def test_hamiltonian_entry_pattern():
    h = build_hamiltonian(ContinuousDevice(0.1, 0.3, 3.0, 1.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 0.1
    expected[1, 3] = 0.3
    expected[2, 0] = -0.1
    expected[2, 3] = -3.0
    expected[3, 1] = -0.3
    expected[3, 2] = -3.0
    assert np.array_equal(h, expected)


def test_hamiltonian_zero_couplings():
    h = build_hamiltonian(ContinuousDevice(0.0, 0.0, 0.0, 5.0))
    assert np.array_equal(h, np.zeros((4, 4)))


def test_hamiltonian_swap_symmetry():
    # equal converter strengths: H invariant under swapping (s1,s2) and (i1,i2)
    h = build_hamiltonian(ContinuousDevice(0.7, 0.7, 2.1, 1.0))
    perm = np.array([1, 0, 3, 2])
    assert np.array_equal(h, h[np.ix_(perm, perm)])


def test_transfer_matrix_zero_length_is_identity():
    tm = transfer_matrix(ContinuousDevice(**FIG2, length=0.0))
    assert np.allclose(tm.matrix, np.eye(4), atol=0.0)


def test_transfer_matrix_single_squeezer_closed_form():
    tm = transfer_matrix(ContinuousDevice(0.1, 0.0, 0.0, 1.0))
    assert tm.matrix[0, 0] == pytest.approx(math.cosh(0.1), abs=1e-14)
    assert abs(tm.matrix[0, 2]) == pytest.approx(math.sinh(0.1), abs=1e-14)
    # second converter untouched
    assert np.allclose(tm.matrix[np.ix_([1, 3], [1, 3])], np.eye(2), atol=0.0)
    assert np.max(np.abs(tm.matrix - squeezer_matrix(0.1))) < 1e-14


def test_transfer_matrix_matches_series_oracle():
    dev = ContinuousDevice(**FIG2, length=1.3)
    want = taylor_expm(1j * build_hamiltonian(dev) * dev.length)
    assert np.max(np.abs(transfer_matrix(dev).matrix - want)) < 1e-13


@pytest.mark.parametrize("gamma1, gamma2, kappa, length", [
    (0.1, 0.3, 3.0, 0.5),
    (0.1, 0.3, 3.0, 19.9),
    (1.0, 1.0, 0.5, 20.0),
    (0.5, 1.0, 1.5 + 1e-6, 1000.0),
    # exactly at threshold, where the two roots of H^2 meet
    (0.5, 1.0, 1.5, 0.01),
    (0.5, 1.0, 1.5, 20.41795918367347),
    (0.5, 1.0, 1.5, 1000.0),
    # roots at 0: a nilpotent generator
    (1.0, 0.0, 1.0, 50.0),
])
def test_transfer_matrix_accuracy_against_mpmath(gamma1, gamma2, kappa,
                                                 length):
    assert _relative_error(ContinuousDevice(gamma1, gamma2, kappa,
                                            length)) <= 64


@settings(max_examples=60, derandomize=True, deadline=None)
@given(devices())
def test_transfer_matrix_accuracy_in_every_regime(dev):
    assert _relative_error(dev) <= 64


@settings(max_examples=60, derandomize=True, deadline=None)
@given(devices())
def test_transfer_matrix_is_symplectic(dev):
    m = transfer_matrix(dev).matrix
    assert symplectic_residual(m) <= TOL.symplectic * max(
        1.0, np.max(np.abs(m)) ** 2)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(devices(), st.floats(0.1, 0.9))
def test_transfer_matrix_semigroup(dev, split):
    first = transfer_matrix(ContinuousDevice(
        dev.gamma1, dev.gamma2, dev.kappa, dev.length * split)).matrix
    second = transfer_matrix(ContinuousDevice(
        dev.gamma1, dev.gamma2, dev.kappa, dev.length * (1.0 - split))).matrix
    scale = max(1.0, np.max(np.abs(first)) * np.max(np.abs(second)))
    assert np.max(np.abs(second @ first - transfer_matrix(dev).matrix)) \
        <= SEMIGROUP_TOL * scale


def test_cascaded_zero_angle_decouples():
    tm = cascaded_transfer_matrix(CascadedDevice(0.1, 0.1, 0.0))
    m = tm.matrix
    # no cross terms between the (s1, i1) and (s2, i2) sectors
    for row, col in [(0, 1), (0, 3), (1, 0), (1, 2),
                     (2, 1), (2, 3), (3, 0), (3, 2)]:
        assert m[row, col] == 0
    assert m[0, 0] == pytest.approx(math.cosh(0.1))
    assert m[1, 1] == pytest.approx(math.cosh(0.1))


def test_cascaded_full_alignment_swaps_first_idler():
    tm = cascaded_transfer_matrix(CascadedDevice(0.1, 0.1, math.pi / 2))
    m = tm.matrix
    # the first output idler carries only the second input idler
    assert m[2, 3] == pytest.approx(-1j, abs=1e-15)
    assert m[2, 0] == pytest.approx(0.0, abs=1e-16)
    assert m[2, 2] == pytest.approx(0.0, abs=1e-16)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
       st.floats(0.0, math.pi / 2))
def test_cascaded_factorizes_into_stages(r1, r2, psi):
    # the cascade must equal: squeezer on (s1,i1), idler mixer, squeezer
    # on (s2,i2), composed left to right in propagation order
    def sq1(r):
        m = np.eye(4, dtype=complex)
        m[0, 0] = m[2, 2] = math.cosh(r)
        m[0, 2] = 1j * math.sinh(r)
        m[2, 0] = -1j * math.sinh(r)
        return m

    def sq2(r):
        m = np.eye(4, dtype=complex)
        m[1, 1] = m[3, 3] = math.cosh(r)
        m[1, 3] = 1j * math.sinh(r)
        m[3, 1] = -1j * math.sinh(r)
        return m

    def idler_mixer(angle):
        m = np.eye(4, dtype=complex)
        m[2, 2] = m[3, 3] = math.cos(angle)
        m[2, 3] = m[3, 2] = -1j * math.sin(angle)
        return m

    want = cascaded_transfer_matrix(CascadedDevice(r1, r2, psi)).matrix
    got = sq2(r2) @ idler_mixer(psi) @ sq1(r1)
    assert np.max(np.abs(got - want)) < 1e-14


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
       st.floats(0.0, math.pi / 2))
def test_cascaded_is_symplectic(r1, r2, psi):
    tm = cascaded_transfer_matrix(CascadedDevice(r1, r2, psi))
    assert symplectic_residual(tm.matrix) <= TOL.symplectic


def test_cascaded_rejects_angle_outside_range():
    with pytest.raises(ValueError, match="psi"):
        CascadedDevice(0.1, 0.1, -0.01)
    with pytest.raises(ValueError, match="psi"):
        CascadedDevice(0.1, 0.1, math.pi / 2 + 0.01)


def test_continuous_device_validation():
    with pytest.raises(ValueError, match="length"):
        ContinuousDevice(0.1, 0.1, 1.0, -1.0)
    with pytest.raises(ValueError, match="finite"):
        ContinuousDevice(math.nan, 0.1, 1.0, 1.0)


def test_classify_regime():
    assert classify_regime(ContinuousDevice(**FIG2, length=1.0)) \
        is Regime.BELOW_THRESHOLD
    assert classify_regime(ContinuousDevice(1.0, 1.0, 0.5, 1.0)) \
        is Regime.ABOVE_THRESHOLD
    assert classify_regime(ContinuousDevice(0.2, 0.2, 0.4, 1.0)) \
        is Regime.AT_THRESHOLD
    # sign of the couplings is irrelevant
    assert classify_regime(ContinuousDevice(-0.1, 0.3, -3.0, 1.0)) \
        is Regime.BELOW_THRESHOLD


def test_below_threshold_intensity_stays_bounded():
    worst = 0.0
    for length in np.linspace(0.0, 20.0, 401):
        dev = ContinuousDevice(**FIG2, length=float(length))
        worst = max(worst, intensities(transfer_matrix(dev)).total_signal)
    assert worst < 1.0


def test_above_threshold_intensity_grows():
    dev = ContinuousDevice(1.0, 1.0, 0.5, 0.0)
    totals = [
        intensities(transfer_matrix(
            ContinuousDevice(dev.gamma1, dev.gamma2, dev.kappa, length)
        )).total_signal
        for length in np.linspace(1.0, 4.0, 13)
    ]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_transfer_matrix_rejects_non_symplectic():
    with pytest.raises(ValueError, match="symplectic"):
        TransferMatrix(np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex))
    with pytest.raises(ValueError, match="4x4"):
        TransferMatrix(np.eye(3, dtype=complex))


def test_transfer_matrix_is_immutable():
    tm = TransferMatrix(np.eye(4))
    with pytest.raises(ValueError):
        tm.matrix[0, 0] = 2.0


def test_transfer_matrix_composition_operator():
    a = transfer_matrix(ContinuousDevice(**FIG2, length=0.7))
    b = transfer_matrix(ContinuousDevice(**FIG2, length=0.5))
    combined = TransferMatrix(a.matrix @ b.matrix)
    want = transfer_matrix(ContinuousDevice(**FIG2, length=1.2))
    assert np.max(np.abs(combined.matrix - want.matrix)) <= SEMIGROUP_TOL


def test_eta_signature():
    assert np.array_equal(np.diag(ETA), [1, 1, -1, -1])
