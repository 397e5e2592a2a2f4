import math

import numpy as np
import pytest
from hypothesis import given, settings

from coupledpdc.config import TOL
from coupledpdc.device import (
    ContinuousDevice,
    TransferMatrix,
    transfer_matrix,
)
from coupledpdc.errors import UndefinedCoherenceError
from coupledpdc.moments import intensities, signal_coherence, vacuum_moments

from test_device import below_threshold_devices

FIG2 = dict(gamma1=0.1, gamma2=0.3, kappa=3.0)


def _fig2(length: float) -> TransferMatrix:
    return transfer_matrix(ContinuousDevice(**FIG2, length=length))


def test_identity_has_no_moments():
    ms = vacuum_moments(TransferMatrix(np.eye(4)))
    assert ms.max_abs() == 0.0
    assert all(v == 0 for v in ms.d.values())
    assert all(v == 0 for v in ms.b.values())


def test_single_squeezer_closed_form():
    tm = transfer_matrix(ContinuousDevice(0.1, 0.0, 0.0, 1.0))
    ms = vacuum_moments(tm)
    assert ms.b["s1"] == pytest.approx(0.010033377809537924, abs=1e-15)
    assert ms.b["i1"] == pytest.approx(0.010033377809537924, abs=1e-15)
    assert abs(ms.d["s1i1"]) == pytest.approx(0.10066800127054698, abs=1e-15)
    for key in ("s1i2", "s2i1", "s2i2", "s1s2", "i1i2"):
        assert ms.d[key] == 0
    assert ms.b["s2"] == 0 and ms.b["i2"] == 0


@settings(max_examples=50, derandomize=True, deadline=None)
@given(below_threshold_devices())
def test_pair_conservation(dev):
    ms = vacuum_moments(transfer_matrix(dev))
    assert abs(ms.b["s1"] + ms.b["s2"] - ms.b["i1"] - ms.b["i2"]) \
        <= TOL.pair_conservation


def test_moments_mapping_is_readonly():
    ms = vacuum_moments(_fig2(1.0))
    with pytest.raises(TypeError):
        ms.d["s1i1"] = 0.0  # type: ignore[index]


def test_coherence_undefined_at_zero_length():
    with pytest.raises(UndefinedCoherenceError):
        signal_coherence(_fig2(0.0))


def test_coherence_undefined_for_single_uncoupled_converter():
    tm = transfer_matrix(ContinuousDevice(0.1, 0.0, 0.0, 1.0))
    with pytest.raises(UndefinedCoherenceError):
        signal_coherence(tm)


def test_symmetric_device_has_zero_coherence():
    for length in (0.3, 1.0, 2.7):
        tm = transfer_matrix(ContinuousDevice(0.2, 0.2, 3.0, length))
        assert abs(signal_coherence(tm).gamma) <= 1e-9


def test_coherence_bounded_and_real():
    for length in np.linspace(0.05, 20.0, 100):
        coh = signal_coherence(_fig2(float(length)))
        assert abs(coh.gamma) <= 1.0 + TOL.coherence_bound_slack
        assert coh.imag_residue <= 1e-9


def test_coherence_fragile_flag():
    # occupations around 1e-12: defined but numerically delicate
    tm = transfer_matrix(ContinuousDevice(1e-4, 1e-4, 3.0, 0.01))
    coh = signal_coherence(tm)
    assert coh.fragile


def test_coherence_time_unit_rescaling_invariance():
    base = signal_coherence(_fig2(1.7)).gamma
    for c in (0.5, 2.0, 10.0):
        dev = ContinuousDevice(c * 0.1, c * 0.3, c * 3.0, 1.7 / c)
        assert signal_coherence(transfer_matrix(dev)).gamma \
            == pytest.approx(base, abs=1e-10)


def test_intensities_identity_zero():
    inten = intensities(TransferMatrix(np.eye(4)))
    assert (inten.s1, inten.s2, inten.i1, inten.i2) == (0, 0, 0, 0)
    assert inten.total_signal == 0


def test_intensities_single_squeezer():
    inten = intensities(transfer_matrix(ContinuousDevice(0.1, 0.0, 0.0, 1.0)))
    assert inten.s1 == pytest.approx(math.sinh(0.1) ** 2, abs=1e-15)
    assert inten.total_signal == pytest.approx(math.sinh(0.1) ** 2, abs=1e-15)


def test_coherence_resonances_reach_unit_magnitude():
    # the unit-coherence resonances are slivers far narrower than any
    # practical uniform grid; locate them by refining coarse local maxima
    from scipy.optimize import minimize_scalar

    grid = np.linspace(0.01, 20.0, 4001)
    values = np.array([abs(signal_coherence(_fig2(float(length))).gamma)
                       for length in grid])
    is_peak = (values[1:-1] > values[:-2]) & (values[1:-1] >= values[2:])
    candidates = [i + 1 for i in np.nonzero(is_peak)[0] if values[i + 1] > 0.9]
    refined = []
    for i in candidates:
        res = minimize_scalar(
            lambda length: -abs(signal_coherence(_fig2(float(length))).gamma),
            bounds=(grid[i - 1], grid[i + 1]), method="bounded",
            options={"xatol": 1e-12})
        refined.append(-res.fun)
    assert sum(1 for peak in refined if peak >= 0.999) >= 2
    assert max(refined) >= 0.9999999


def test_oscillation_amplitude_shrinks_with_coupling():
    # stronger idler exchange suppresses the downconversion everywhere
    grid = np.linspace(0.0, 20.0, 201)
    peaks = []
    for kappa in (2.0, 3.0, 5.0, 10.0):
        peaks.append(max(
            intensities(transfer_matrix(
                ContinuousDevice(0.1, 0.3, kappa, float(length))
            )).total_signal
            for length in grid
        ))
    assert all(b < a for a, b in zip(peaks, peaks[1:]))
