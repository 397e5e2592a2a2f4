"""Exact symmetries of the continuous device, below threshold, through the
length sweep's cells.

:func:`~coupledpdc.device.build_hamiltonian` gives, in the (s1, s2,
i1^+, i2^+) order,

    H(g1, g2, kappa) = [[  0,   0,    g1,      0],
                        [  0,   0,     0,     g2],
                        [-g1,   0,     0, -kappa],
                        [  0, -g2, -kappa,     0]],

and the device's matrix is ``M = exp(i H L)``.  Three relations follow.

(a) ``kappa -> -kappa``.  With ``P = diag(1, -1, 1, -1)``, ``(P H P)_jk
    = p_j p_k H_jk`` flips the sign of the two ``kappa`` entries alone, so
    ``H(-kappa) = P H(kappa) P`` and ``M(-kappa) = P M(kappa) P``.  Every
    entry keeps its magnitude, so the occupations stay; the signal
    correlation ``<A_s1^+ A_s2>`` takes the factor ``p_s1 p_s2 = -1``, so
    ``gamma`` is negated.  The closed form meets ``kappa`` only through
    ``|kappa|``, ``kappa^2`` and linear factors, and a sign flip is exact:
    the relation holds bit for bit.
(b) ``(c g1, c g2, c kappa, L / c)``.  ``H`` is linear in the couplings,
    so ``i (c H) (L / c) = i H L``: the same matrix.  At ``c = 2^k``, ``k
    >= 1``, ``c g`` is exact, a subnormal gain's too, and so are the grid's
    ``L / c`` (``linspace`` commutes with the scale); ``(c g) (L / c)``
    then rounds the same number as ``g L``, so the generator, and every
    cell but ``L``, is byte-identical.  (A scale below 1 would round a
    subnormal gain; read backwards, ``k >= 1`` covers it.)
(c) ``g1 <-> g2``.  With ``Q`` the permutation ``s1 <-> s2``, ``i1 <->
    i2``, ``Q H(g1, g2, kappa) Q = H(g2, g1, kappa)``, so ``M(g2, g1) = Q
    M(g1, g2) Q``: ``n_s1`` and ``n_s2`` swap, and ``<A_s1^+ A_s2>`` becomes
    ``<A_s2^+ A_s1>``, its conjugate.  ``gamma`` is that correlation over
    ``i sqrt(n_s1 n_s2)``, so it is negated.  The closed form takes the two
    gains in another order, so this holds to rounding.  On 1,600 random
    devices of the strategy's domain (64 rows each, 30 % at the smallest
    margin) the swap changed no tag and moved ``gamma`` by at most 18 eps
    ``max(1, 1 / sqrt(min(n_s1, n_s2)))`` and the occupations by at most
    116 eps ``max(1, n)``; the bounds below allow 64 and 256.

The domain stops at a margin ``|kappa| - |g1| - |g2|`` of 0.05: closer to
threshold the extracted schemes' residual tags depend on rounding, which
is the open work on exact extraction at every scale.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledpdc.cli import SweepConfig, sweep_length_rows
from coupledpdc.device import ContinuousDevice

EPS = np.finfo(float).eps
GAMMA_BOUND = 64 * EPS  # x max(1, 1 / sqrt(min(n_s1, n_s2)))
OCCUPATION_BOUND = 256 * EPS  # x max(1, n)


@st.composite
def below_threshold_sweeps(draw):
    """Couplings with ``|kappa| > |g1| + |g2|`` and the end of a grid."""
    g1 = draw(st.floats(-2.0, 2.0))
    g2 = draw(st.floats(-2.0, 2.0))
    margin = draw(st.floats(0.05, 2.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    stop = draw(st.floats(0.5, 50.0))
    return (g1, g2, sign * (abs(g1) + abs(g2) + margin)), stop


def _cells(g1: float, g2: float, kappa: float, stop: float) -> dict:
    cfg = SweepConfig(kind="length", device=ContinuousDevice(g1, g2, kappa,
                                                             0.0),
                      start=0.0, stop=stop, steps=64)
    return sweep_length_rows(cfg).cells


def _values(cells) -> np.ndarray:
    return np.array([float(c) if c else math.nan for c in cells])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(below_threshold_sweeps())
def test_negating_kappa_negates_gamma_bit_for_bit(sweep):
    (g1, g2, kappa), stop = sweep
    base, mirrored = _cells(g1, g2, kappa, stop), _cells(g1, g2, -kappa, stop)
    for column in ("n_s1", "n_s2", "status"):
        assert mirrored[column] == base[column], column
    assert [c and float(c) for c in mirrored["gamma"]] \
        == [c and -float(c) for c in base["gamma"]]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(below_threshold_sweeps(), st.integers(1, 4))
def test_rescaling_by_a_power_of_two_changes_no_cell_but_length(sweep, k):
    (g1, g2, kappa), stop = sweep
    c = 2.0 ** k
    base = _cells(g1, g2, kappa, stop)
    scaled = _cells(c * g1, c * g2, c * kappa, stop / c)
    for column in base:
        if column != "L":
            assert scaled[column] == base[column], column


@settings(max_examples=60, derandomize=True, deadline=None)
@given(below_threshold_sweeps())
def test_swapping_the_converters_negates_gamma_and_swaps_the_signals(sweep):
    (g1, g2, kappa), stop = sweep
    base, swapped = _cells(g1, g2, kappa, stop), _cells(g2, g1, kappa, stop)
    assert swapped["status"] == base["status"]
    n1, n2 = _values(base["n_s1"]), _values(base["n_s2"])
    for got, want in ((swapped["n_s1"], n2), (swapped["n_s2"], n1)):
        assert np.all(np.abs(_values(got) - want)
                      <= OCCUPATION_BOUND * np.maximum(1.0, want))
    gamma, negated = _values(base["gamma"]), -_values(swapped["gamma"])
    assert np.array_equal(np.isnan(gamma), np.isnan(negated))
    defined = ~np.isnan(gamma)
    allowed = GAMMA_BOUND * np.maximum(
        1.0, 1.0 / np.sqrt(np.minimum(n1, n2)[defined]))
    assert np.all(np.abs(negated[defined] - gamma[defined]) <= allowed)
