import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coupledpdc.cli import (
    PRESETS,
    SweepConfig,
    sweep_length_rows,
    sweep_psi_rows,
)
from coupledpdc.decompose import (
    _EQUAL_SINGULAR,
    FourConverterScheme,
    InterferometerScheme,
    crossed_stage,
    direct_stage,
    extract_four_converter,
    extract_interferometer,
    four_converter_matrix,
    gain_bound,
    interferometer_matrix,
    mixer_stage,
    _mixer_angle,
    _mixer_angles,
)
from coupledpdc.device import (
    CascadedDevice,
    ContinuousDevice,
    TransferMatrix,
    cascaded_transfer_matrix,
    transfer_matrix,
)
from coupledpdc.errors import NonRealCorrelationError
from coupledpdc.moments import signal_coherence, vacuum_moments
from coupledpdc.whichway import interferometer_coherence

from oracles import symplectic_residual

FIG2 = dict(gamma1=0.1, gamma2=0.3, kappa=3.0)

SMALL = st.floats(-0.25, 0.25)


def _fig2(length: float) -> TransferMatrix:
    return transfer_matrix(ContinuousDevice(**FIG2, length=length))


# ---------------------------------------------------------------------------
# stage matrices

def test_stages_at_zero_are_identity():
    assert np.array_equal(crossed_stage(0.0, 0.0), np.eye(4))
    assert np.array_equal(direct_stage(0.0, 0.0), np.eye(4))
    assert np.array_equal(mixer_stage(0.0, 0.0), np.eye(4))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(SMALL, SMALL)
def test_stages_invert_by_negation(a, b):
    for stage in (crossed_stage, direct_stage, mixer_stage):
        both = stage(a, b) @ stage(-a, -b)
        assert np.max(np.abs(both - np.eye(4))) < 1e-14


@settings(max_examples=30, derandomize=True, deadline=None)
@given(SMALL, SMALL)
def test_stages_are_symplectic(a, b):
    for stage in (crossed_stage, direct_stage, mixer_stage):
        assert symplectic_residual(stage(a, b)) < 1e-14


# ---------------------------------------------------------------------------
# four-converter extraction

def test_four_converter_identity_device():
    report = extract_four_converter(TransferMatrix(np.eye(4)))
    s = report.scheme
    assert (s.g1, s.g2, s.g4, s.g5) == (0, 0, 0, 0)
    assert report.residual == 0.0


def test_four_converter_uncoupled_closed_form():
    # without idler exchange each coupling is exactly strength * length
    tm = transfer_matrix(ContinuousDevice(0.1, 0.3, 0.0, 1.0))
    report = extract_four_converter(tm)
    s = report.scheme
    assert s.g1 == pytest.approx(0.1, abs=1e-10)
    assert s.g2 == pytest.approx(0.3, abs=1e-10)
    assert abs(s.g4) <= 1e-12 and abs(s.g5) <= 1e-12
    assert report.residual < 1e-10


@settings(max_examples=40, derandomize=True, deadline=None)
@given(SMALL, SMALL, SMALL, SMALL)
def test_four_converter_roundtrip(g1, g2, g4, g5):
    scheme = FourConverterScheme(g1=g1, g2=g2, g4=g4, g5=g5)
    report = extract_four_converter(four_converter_matrix(scheme))
    assert report.scheme.g1 == pytest.approx(g1, abs=1e-10)
    assert report.scheme.g2 == pytest.approx(g2, abs=1e-10)
    assert report.scheme.g4 == pytest.approx(g4, abs=1e-10)
    assert report.scheme.g5 == pytest.approx(g5, abs=1e-10)
    assert report.residual < 1e-12


def test_four_converter_couplings_stay_small_on_sweep():
    worst = 0.0
    for length in np.linspace(0.25, 20.0, 80):
        s = extract_four_converter(_fig2(float(length))).scheme
        worst = max(worst, abs(s.g1), abs(s.g2), abs(s.g4), abs(s.g5))
    # tight empirical ceiling: slightly above the rounded 0.2 claim
    assert worst < 0.201


def test_four_converter_rejects_dephased_matrix():
    # a phase plate on the output side rotates the pair correlations away
    # from the real/imaginary pattern the closed-form inversion relies on
    phase = np.diag([np.exp(0.3j), 1.0, 1.0, 1.0])
    tm = TransferMatrix(phase @ _fig2(1.0).matrix)
    with pytest.raises(NonRealCorrelationError):
        extract_four_converter(tm)


def test_cascaded_alignment_extremes_reduce_the_scheme():
    # no alignment: two plain converters, crossed pair absent
    s0 = extract_four_converter(
        cascaded_transfer_matrix(CascadedDevice(0.1, 0.1, 0.0))).scheme
    assert abs(s0.g4) <= 1e-8 and abs(s0.g5) <= 1e-8
    assert s0.g1 == pytest.approx(0.1, abs=1e-10)
    assert s0.g2 == pytest.approx(0.1, abs=1e-10)
    # full alignment: the first idler channel empties (g1 = g5 = 0)
    s1 = extract_four_converter(
        cascaded_transfer_matrix(CascadedDevice(0.1, 0.1, math.pi / 2))).scheme
    assert abs(s1.g1) <= 1e-8 and abs(s1.g5) <= 1e-8
    assert abs(s1.g4) > 0.05 and abs(s1.g2) > 0.05


# ---------------------------------------------------------------------------
# interferometer extraction

def _assert_canonical_certified_scheme(tm, report, tol=1e-10):
    """The three behavioural checks of an interferometer extraction:
    residual, canonical representative, and moment round-trip."""
    s = report.scheme
    assert report.residual < tol
    assert abs(s.g1) >= abs(s.g2)
    for phi in (s.phi_s, s.phi_i):
        assert -math.pi / 2 < phi <= math.pi / 2
    want = vacuum_moments(tm)
    got = vacuum_moments(interferometer_matrix(s))
    for key in want.d:
        assert abs(got.d[key] - want.d[key]) <= tol
    for key in want.b:
        assert abs(got.b[key] - want.b[key]) <= tol


def test_interferometer_uncoupled_is_a_relabeled_identity_mixer():
    # the larger converter becomes g1; swapping the converters takes a
    # quarter-turn of both mixers
    tm = transfer_matrix(ContinuousDevice(0.1, 0.3, 0.0, 1.0))
    report = extract_interferometer(tm)
    _assert_canonical_certified_scheme(tm, report)
    s = report.scheme
    assert abs(s.g1) == pytest.approx(0.3, abs=1e-10)
    assert abs(s.g2) == pytest.approx(0.1, abs=1e-10)
    assert s.phi_s == pytest.approx(math.pi / 2, abs=1e-12)
    assert s.phi_i == pytest.approx(math.pi / 2, abs=1e-12)


def test_interferometer_generic_closed_form():
    tm = _fig2(1.0)
    _assert_canonical_certified_scheme(tm, extract_interferometer(tm))


def test_interferometer_full_alignment_drops_second_converter():
    # zero second singular value: the angles come from the first
    # singular vectors alone
    tm = cascaded_transfer_matrix(CascadedDevice(0.1, 0.1, math.pi / 2))
    report = extract_interferometer(tm)
    _assert_canonical_certified_scheme(tm, report)
    assert abs(report.scheme.g2) <= 1e-8


def test_interferometer_singular_vector_with_vanishing_first_component():
    # gamma1 = 0 leaves the first signal mode empty, so the first left
    # singular vector is (0, 1) up to a phase: phi_s = pi/2
    tm = transfer_matrix(ContinuousDevice(0.0, 0.5, -1.0, 1.0))
    report = extract_interferometer(tm)
    _assert_canonical_certified_scheme(tm, report)
    assert report.scheme.phi_s == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize("tm, phi_i", [
    (transfer_matrix(ContinuousDevice(0.2, 0.2, 3.0, 1.0)), None),
    (cascaded_transfer_matrix(CascadedDevice(0.1, 0.1, 0.0)), 0.0),
    (TransferMatrix(np.eye(4)), 0.0),
], ids=["symmetric-device", "unaligned-cascade", "identity"])
def test_interferometer_equal_gains_put_the_angle_in_the_idler_mixer(tm,
                                                                      phi_i):
    # equal singular values leave only the sum or difference of the
    # angles fixed; the canonical representative has phi_s = 0
    report = extract_interferometer(tm)
    _assert_canonical_certified_scheme(tm, report)
    s = report.scheme
    assert abs(abs(s.g1) - abs(s.g2)) <= 1e-12
    assert s.phi_s == 0.0
    if phi_i is not None:
        assert s.phi_i == pytest.approx(phi_i, abs=1e-12)


def test_interferometer_representative_on_the_figure_grids():
    for preset, rows_of in (("fig2", sweep_length_rows),
                            ("fig7", sweep_psi_rows)):
        p = PRESETS[preset]
        device = (ContinuousDevice(p["gamma1"], p["gamma2"], p["kappa"], 0.0)
                  if preset == "fig2" else CascadedDevice(p["r1"], p["r2"], 0.0))
        rows = rows_of(SweepConfig(kind=p["kind"], device=device,
                                   start=p["start"], stop=p["stop"],
                                   steps=p["steps"]))
        assert len(rows) == p["steps"]
        for row in rows:
            assert row["status"] == "ok"
            assert abs(float(row["ou_g1"])) >= abs(float(row["ou_g2"]))


def test_interferometer_representative_ignores_rounding_noise():
    # neighbouring floats give the same representative: no rounding-level
    # comparison picks between equivalent solutions
    for length in np.linspace(0.5, 19.5, 20):
        here = extract_interferometer(_fig2(float(length))).scheme
        there = extract_interferometer(
            _fig2(float(np.nextafter(length, np.inf)))).scheme
        for name in ("g1", "g2", "phi_s", "phi_i"):
            assert getattr(there, name) == pytest.approx(
                getattr(here, name), abs=1e-12), (length, name)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SMALL, SMALL, st.floats(-1.4, 1.4), st.floats(-1.4, 1.4))
def test_interferometer_roundtrip_reproduces_moments(g1, g2, phi_s, phi_i):
    scheme = InterferometerScheme(g1=g1, g2=g2, phi_s=phi_s, phi_i=phi_i)
    tm = interferometer_matrix(scheme)
    report = extract_interferometer(tm)
    # the recovered parameters may be a relabeling; the moments must match
    assert abs(report.scheme.g1) >= abs(report.scheme.g2)
    resynth = interferometer_matrix(report.scheme)
    want = vacuum_moments(tm)
    got = vacuum_moments(resynth)
    for key in want.d:
        assert got.d[key] == pytest.approx(want.d[key], abs=1e-9)
    for key in want.b:
        assert got.b[key] == pytest.approx(want.b[key], abs=1e-9)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8),
       st.floats(0.05, 0.9), st.sampled_from([-1.0, 1.0]),
       st.floats(0.0, 6.0))
def test_random_devices_are_reproduced_by_both_schemes(g1, g2, margin,
                                                       sign, length):
    # scheme equivalence is at the level of vacuum moments: whatever the
    # below-threshold device, both extracted schemes regenerate its output
    dev = ContinuousDevice(g1, g2, sign * (abs(g1) + abs(g2) + margin),
                           length)
    tm = transfer_matrix(dev)
    want = vacuum_moments(tm)
    for extract, synthesize in (
        (extract_four_converter, four_converter_matrix),
        (extract_interferometer, interferometer_matrix),
    ):
        report = extract(tm)
        assert report.residual < 1e-8
        got = vacuum_moments(synthesize(report.scheme))
        for key in want.d:
            assert got.d[key] == pytest.approx(want.d[key], abs=1e-8)
        for key in want.b:
            assert got.b[key] == pytest.approx(want.b[key], abs=1e-8)


EPS = np.finfo(float).eps
DIAGONAL_BOUND = 128 * EPS  # x max|D|
ANGLE_BOUND = 16 * EPS  # x sigma1 / (sigma1 - sigma2)


@st.composite
def pair_correlations(draw) -> np.ndarray:
    """``D = Rs diag(i s1, i s2) Ri^H 2^e`` of random forward mixers: the
    form of every device's pair-correlation matrix, at scales ``2^-1000``
    to ``2^1000``, of rank 2, 1 or 0, and with equal or nearly equal
    singular values."""
    phi_s = draw(st.floats(-math.pi / 2, math.pi / 2))
    phi_i = draw(st.floats(-math.pi / 2, math.pi / 2))
    # |s1| >= 1/2 or 0 keeps a nonzero max|D| above 2^-1002, normal
    s1 = draw(st.one_of(st.just(0.0), st.floats(0.5, 1.0),
                        st.floats(-1.0, -0.5)))
    ratio = draw(st.one_of(
        st.floats(-2.0, 2.0), st.just(0.0), st.sampled_from([1.0, -1.0]),
        st.floats(1.0, 15.0).map(lambda k: 1.0 - 10.0 ** -k)))
    s2 = ratio * s1
    exponent = draw(st.integers(-1000, 1000))
    forward = mixer_stage(-phi_s, -phi_i)
    sigma = np.diag([1j * math.ldexp(s1, exponent),
                     1j * math.ldexp(s2, exponent)])
    return forward[:2, :2] @ sigma @ np.conj(forward[2:, 2:]).T


def _angle_gap(a: float, b: float) -> float:
    """Distance of two mixer angles modulo pi (``phi`` and ``phi + pi``
    give the same mixer column up to its sign)."""
    return abs((a - b + math.pi / 2) % math.pi - math.pi / 2)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pair_correlations())
@example(np.zeros((2, 2), dtype=complex))
def test_mixer_angles_diagonalize_the_pair_correlations(d):
    # Rs^H D Ri is diagonal with |diag| descending.  Over 1,000,000 draws
    # of this form the off-diagonal entries reached 2.2 eps max|D|; on
    # rows taken as equal (whose angles are a representative, not the
    # singular vectors) they reached sigma1 - sigma2 plus 33 eps, and
    # |diag| fell out of order by that gap plus 47 eps.  The bound allows
    # 128 eps.  Where the singular values are apart, the angles are
    # LAPACK's to eps sigma1 / (sigma1 - sigma2) times 2 (measured) or 16
    # (allowed).
    (phi_s,), (phi_i,) = _mixer_angles(d[None])
    forward = mixer_stage(-phi_s, -phi_i)
    x = np.conj(forward[:2, :2]).T @ d @ forward[2:, 2:]
    left, sigma, right_h = np.linalg.svd(d[None])
    top, gap = sigma[0, 0], sigma[0, 0] - sigma[0, 1]
    allowed = DIAGONAL_BOUND * np.abs(d).max()
    if gap <= 2 * _EQUAL_SINGULAR * top:
        allowed += gap
    assert max(abs(x[0, 1]), abs(x[1, 0])) <= allowed
    assert abs(x[1, 1]) <= abs(x[0, 0]) + allowed
    if gap > 1e-6 * top:
        want_s = _mixer_angle(left[:, 0, 0], left[:, 1, 0], 1.0)[0]
        want_i = _mixer_angle(np.conj(right_h[:, 0, 0]),
                              np.conj(right_h[:, 0, 1]), -1.0)[0]
        allowed = ANGLE_BOUND / (gap / top)
        assert _angle_gap(phi_s, want_s) <= allowed
        assert _angle_gap(phi_i, want_i) <= allowed


def test_interferometer_coherence_formula_matches_direct():
    for length in (0.4, 1.0, 2.3, 7.7):
        tm = _fig2(length)
        report = extract_interferometer(tm)
        direct = signal_coherence(tm).gamma
        via_scheme = interferometer_coherence(report.scheme)
        assert via_scheme == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------------------
# forward synthesis and diagnostics

def test_forward_matrices_of_zero_schemes():
    assert np.array_equal(
        four_converter_matrix(FourConverterScheme(0, 0, 0, 0)).matrix,
        np.eye(4))
    assert np.array_equal(
        interferometer_matrix(InterferometerScheme(0, 0, 0, 0)).matrix,
        np.eye(4))


def test_forward_matrix_single_converter_closed_form():
    m = four_converter_matrix(FourConverterScheme(0.1, 0, 0, 0)).matrix
    assert m[0, 0] == pytest.approx(math.cosh(0.1), abs=1e-15)
    assert abs(m[0, 2]) == pytest.approx(math.sinh(0.1), abs=1e-15)
    assert m[1, 1] == 1 and m[3, 3] == 1


def test_forward_synthesis_reproduces_vacuum_moments():
    tm = _fig2(1.0)
    want = vacuum_moments(tm)
    for extract, synthesize in (
        (extract_four_converter, four_converter_matrix),
        (extract_interferometer, interferometer_matrix),
    ):
        got = vacuum_moments(synthesize(extract(tm).scheme))
        for key in want.d:
            assert got.d[key] == pytest.approx(want.d[key], abs=1e-8)
        for key in want.b:
            assert got.b[key] == pytest.approx(want.b[key], abs=1e-8)


def _equivalence_residual(tm: TransferMatrix, scheme) -> float:
    # undo the scheme's stages (each inverts by negation) behind the
    # device; the largest vacuum moment left is zero, to rounding, when the
    # scheme generates the device's vacuum output state
    if isinstance(scheme, FourConverterScheme):
        undo = direct_stage(scheme.g1, scheme.g2) \
            @ crossed_stage(scheme.g4, scheme.g5)
    else:
        undo = direct_stage(scheme.g1, scheme.g2) \
            @ mixer_stage(scheme.phi_s, scheme.phi_i)
    return vacuum_moments(undo @ tm.matrix).max_abs()


def test_equivalence_residual_of_extracted_schemes():
    tm = _fig2(1.0)
    zou = extract_four_converter(tm).scheme
    ou = extract_interferometer(tm).scheme
    assert _equivalence_residual(tm, zou) < 1e-8
    assert _equivalence_residual(tm, ou) < 1e-8
    assert _equivalence_residual(
        TransferMatrix(np.eye(4)), FourConverterScheme(0, 0, 0, 0)) == 0.0


def test_equivalence_residual_detects_perturbation():
    tm = _fig2(1.0)
    s = extract_four_converter(tm).scheme
    bumped = FourConverterScheme(s.g1 + 0.05, s.g2, s.g4, s.g5)
    assert _equivalence_residual(tm, bumped) > 1e-3


def test_gain_bound_identity():
    bound = gain_bound(TransferMatrix(np.eye(4)),
                       FourConverterScheme(0, 0, 0, 0))
    assert bound.signal_total == 0.0
    assert bound.scheme_total == 0.0
    assert not bound.violated


def test_gain_bound_uncoupled_is_tight():
    tm = transfer_matrix(ContinuousDevice(0.1, 0.3, 0.0, 1.0))
    bound = gain_bound(tm, extract_four_converter(tm).scheme)
    assert bound.scheme_total == pytest.approx(bound.signal_total, abs=1e-12)
    assert not bound.violated


def test_gain_bound_holds_on_sweep():
    for length in np.linspace(0.25, 20.0, 80):
        tm = _fig2(float(length))
        scheme = extract_four_converter(tm).scheme
        bound = gain_bound(tm, scheme)
        assert not bound.violated
        assert bound.parameter_cap < 0.25
        # the summed inequality caps each individual coupling too
        assert max(abs(scheme.g1), abs(scheme.g2),
                   abs(scheme.g4), abs(scheme.g5)) \
            <= bound.parameter_cap + 1e-9


def test_scheme_validation():
    with pytest.raises(ValueError, match="g1"):
        FourConverterScheme(g1=11.0, g2=0, g4=0, g5=0)
    with pytest.raises(ValueError, match="phi_s"):
        InterferometerScheme(g1=0, g2=0, phi_s=2.0, phi_i=0)
    with pytest.raises(ValueError, match="finite"):
        FourConverterScheme(g1=math.nan, g2=0, g4=0, g5=0)
