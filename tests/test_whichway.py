import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coupledpdc.decompose import (
    FourConverterScheme,
    InterferometerScheme,
    extract_four_converter,
)
from coupledpdc.device import ContinuousDevice, transfer_matrix
from coupledpdc.errors import (
    DegenerateGeometryError,
    UndefinedCoherenceError,
    ZeroSchemeError,
)
from coupledpdc.moments import intensities, signal_coherence
from coupledpdc.whichway import (
    geometry,
    ideal_measurement,
    interferometer_coherence,
    pair_state,
)

SMALL = st.floats(-0.25, 0.25)

KET_10 = np.array([1.0, 0.0], dtype=complex)   # signal photon in mode s1
KET_01 = np.array([0.0, 1.0], dtype=complex)   # signal photon in mode s2


# ---------------------------------------------------------------------------
# pair state

def test_pair_state_amplitude_mapping():
    ps = pair_state(FourConverterScheme(g1=0.1, g2=0.2, g4=0.05, g5=0.15))
    assert ps.c_1001 == 0.05
    assert ps.c_0110 == 0.15
    assert ps.c_1100 == 0.1j
    assert ps.c_0011 == 0.2j


def test_pair_state_single_converter():
    ps = pair_state(FourConverterScheme(g1=0.1, g2=0, g4=0, g5=0))
    assert ps.c_1100 == 0.1j
    assert ps.c_1001 == ps.c_0110 == ps.c_0011 == 0


def test_pair_state_rejects_empty_scheme():
    with pytest.raises(ZeroSchemeError):
        pair_state(FourConverterScheme(0, 0, 0, 0))


# ---------------------------------------------------------------------------
# geometry

def test_geometry_direct_arithmetic():
    geo = geometry(FourConverterScheme(g1=0.2, g2=0.1, g4=0.05, g5=0.15))
    # (g1 g5 - g2 g4)^2 / ((g1^2 + g4^2)(g2^2 + g5^2)), evaluated by hand
    assert geo.gamma_sq == pytest.approx(0.45248868778280527, abs=1e-15)
    assert geo.dot == pytest.approx(0.2 * 0.15 - 0.1 * 0.05, abs=1e-17)
    assert not geo.degenerate


def test_geometry_aligned_special_case():
    # only one converter per idler channel: fully coherent
    geo = geometry(FourConverterScheme(g1=0.1, g2=0.0, g4=0.0, g5=0.07))
    assert geo.gamma_sq == pytest.approx(1.0, abs=1e-15)
    assert abs(geo.cross) <= 1e-17
    assert not geo.degenerate


def test_geometry_orthogonal_case():
    geo = geometry(FourConverterScheme(g1=0.1, g2=0.1, g4=0.1, g5=0.1))
    assert geo.dot == pytest.approx(0.0, abs=1e-17)
    assert geo.gamma_sq == pytest.approx(0.0, abs=1e-17)
    assert abs(geo.angle) == pytest.approx(math.pi / 2, abs=1e-12)


def test_geometry_degenerate_channel():
    geo = geometry(FourConverterScheme(g1=0.0, g2=0.1, g4=0.0, g5=0.1))
    assert geo.degenerate
    assert geo.gamma_sq == 1.0
    with pytest.raises(ZeroSchemeError):
        geometry(FourConverterScheme(0, 0, 0, 0))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(SMALL, SMALL, SMALL, SMALL)
def test_geometry_lagrange_identity(g1, g2, g4, g5):
    assume(g1 * g1 + g4 * g4 > 1e-6 and g2 * g2 + g5 * g5 > 1e-6)
    geo = geometry(FourConverterScheme(g1, g2, g4, g5))
    u2 = float(geo.u @ geo.u)
    v2 = float(geo.v @ geo.v)
    assert geo.dot ** 2 + geo.cross ** 2 == pytest.approx(
        u2 * v2, abs=1e-12)
    assert geo.gamma_sq <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# ideal measurement

def _measure(scheme):
    return ideal_measurement(scheme, pair_state(scheme))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(SMALL, SMALL, SMALL, SMALL)
def test_measurement_is_complete_and_normalized(g1, g2, g4, g5):
    assume(g1 * g1 + g4 * g4 > 1e-6)
    assume(g2 * g2 + g5 * g5 > 1e-8)
    mm = _measure(FourConverterScheme(g1, g2, g4, g5))
    assert mm.p1 + mm.p2 == pytest.approx(1.0, abs=1e-12)
    for state in (mm.state_1, mm.state_2):
        if state is not None:
            assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-12)


def test_measurement_angle_and_counting_limit():
    # without a crossed converter the measurement is plain idler counting
    mm = _measure(FourConverterScheme(g1=0.1, g2=0.05, g4=0.0, g5=0.02))
    assert mm.phi == 0.0


def test_orthogonal_case_gives_perfect_path_knowledge():
    mm = _measure(FourConverterScheme(g1=0.1, g2=0.1, g4=0.1, g5=0.1))
    # outcome 1 projects the signal photon into mode s2, outcome 2 into s1
    assert abs(np.vdot(KET_01, mm.state_1)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(KET_10, mm.state_2)) == pytest.approx(1.0, abs=1e-12)


def test_collinear_case_gains_no_information():
    # v = t * u makes the distinguishing outcome impossible
    t, g1, g4 = 0.5, 0.1, 0.05
    scheme = FourConverterScheme(g1=g1, g2=-g4 * t, g4=g4, g5=g1 * t)
    ps = pair_state(scheme)
    mm = ideal_measurement(scheme, ps)
    assert mm.p1 == pytest.approx(0.0, abs=1e-12)
    assert mm.state_1 is None
    # post-measurement signal occupations equal the prior ones
    total = ps.norm_squared()
    prior_s1 = (abs(ps.c_1100) ** 2 + abs(ps.c_1001) ** 2) / total
    post_s1 = abs(mm.state_2[0]) ** 2
    assert post_s1 == pytest.approx(prior_s1, abs=1e-12)
    # and the conditional state is the expected superposition up to a
    # global phase: ( +-i |v|, |u| ) over (|01>, |10>) reordered to our
    # (|10>, |01>) basis
    norm_u = math.hypot(g1, g4)
    norm_v = t * norm_u
    expected = np.array([norm_u, -1j * norm_v]) / math.hypot(norm_u, norm_v)
    overlap = abs(np.vdot(expected, mm.state_2))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_textbook_decomposition_is_a_scaled_projection():
    # the unnormalized eigenstate decomposition of the pair state carries
    # an absorbed factor |u|: outcome-1 amplitude is |u x v| / |u|, and
    # the outcome-2 projection is (-i u.v |01> + u^2 |10>) / |u|
    g1, g2, g4, g5 = 0.12, 0.07, 0.03, 0.11
    scheme = FourConverterScheme(g1, g2, g4, g5)
    mm = _measure(scheme)
    geo = geometry(scheme)
    norm_u = math.hypot(g1, g4)
    total = pair_state(scheme).norm_squared()
    amp1 = math.sqrt(mm.p1 * total)
    assert amp1 == pytest.approx(abs(geo.cross) / norm_u, abs=1e-13)
    amp2_expected = np.array([norm_u ** 2, -1j * geo.dot]) / norm_u
    amp2 = math.sqrt(mm.p2 * total) * mm.state_2
    assert np.max(np.abs(amp2 - amp2_expected)) <= 1e-13


def test_measurement_requires_populated_first_channel():
    scheme = FourConverterScheme(g1=0.0, g2=0.1, g4=0.0, g5=0.1)
    with pytest.raises(DegenerateGeometryError):
        ideal_measurement(scheme, pair_state(scheme))


# ---------------------------------------------------------------------------
# interferometer coherence formula

def test_equal_converters_are_incoherent():
    s = InterferometerScheme(g1=0.1, g2=0.1, phi_s=0.6, phi_i=0.2)
    assert interferometer_coherence(s) == pytest.approx(0.0, abs=1e-15)


def test_single_converter_is_fully_coherent():
    for phi_s in (0.3, 0.7, 1.2):
        s = InterferometerScheme(g1=0.1, g2=0.0, phi_s=phi_s, phi_i=0.0)
        assert abs(interferometer_coherence(s)) == pytest.approx(1.0, abs=1e-12)


def test_interferometer_coherence_direct_value():
    s = InterferometerScheme(g1=0.2, g2=0.1, phi_s=math.pi / 4, phi_i=0.0)
    assert interferometer_coherence(s) == pytest.approx(
        0.6031851149298855, abs=1e-15)


def test_interferometer_coherence_undefined_cases():
    with pytest.raises(UndefinedCoherenceError):
        interferometer_coherence(
            InterferometerScheme(g1=0.0, g2=0.1, phi_s=0.0, phi_i=0.0))
    with pytest.raises(UndefinedCoherenceError):
        interferometer_coherence(
            InterferometerScheme(g1=0.0, g2=0.0, phi_s=0.3, phi_i=0.0))


# ---------------------------------------------------------------------------
# first-order consistency with the exact coherence

def test_geometry_tracks_exact_coherence_at_low_gain():
    for length in (0.05, 0.1, 0.2, 0.4):
        tm = transfer_matrix(ContinuousDevice(0.1, 0.3, 3.0, length))
        n_total = intensities(tm).total_signal
        assert n_total <= 0.02
        exact = abs(signal_coherence(tm).gamma)
        geo = geometry(extract_four_converter(tm).scheme)
        assert abs(exact - math.sqrt(geo.gamma_sq)) <= 5.0 * n_total
