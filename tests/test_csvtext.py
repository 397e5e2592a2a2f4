"""The sweep CSV text: every float cell is ``repr(x + 0.0)``, byte for byte.

``csvtext`` computes the shortest round-trip digits by Schubfach on
``uint64`` arrays.  Java's ``Double.toString`` runs the same algorithm
with two differences that ``repr`` does not share; the tests named after
them fail if either difference comes back.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledpdc import csvtext


def _cells(values) -> list:
    """Each value's cell, one column, one row per value."""
    values = np.asarray(values, dtype=float)
    lines = csvtext.lines([(values, None)]).split("\n")
    assert lines.pop() == ""
    return lines


def _assert_repr(values) -> None:
    values = np.asarray(values, dtype=float)
    got = _cells(values)
    want = [repr(x + 0.0) for x in values.tolist()]
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert not wrong and len(got) == len(want), wrong[:5]


def _neighbours(values: np.ndarray) -> np.ndarray:
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float_prints_as_repr(values):
    _assert_repr(values)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_prints_as_repr(patterns):
    # the raw bits reach the subnormals, both infinities and every NaN
    _assert_repr(np.array(patterns, dtype=np.uint64).view(float))


def test_random_bit_patterns_print_as_repr():
    rng = np.random.default_rng(20261021)
    _assert_repr(rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
                 .view(float))


def test_powers_of_two_and_their_neighbours_print_as_repr():
    # 2^e has an irregular spacing below it, except at the least normal
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_repr(_neighbours(powers))
    _assert_repr(-_neighbours(powers))


def test_powers_of_ten_and_their_neighbours_print_as_repr():
    _assert_repr(_neighbours(np.array([float(f"1e{k}")
                                       for k in range(-323, 309)])))


def test_subnormals_print_as_repr():
    _assert_repr(np.arange(1, 100_001, dtype=np.uint64).view(float))


def test_integers_and_short_decimals_print_as_repr():
    rng = np.random.default_rng(7)
    _assert_repr(rng.integers(0, 2 ** 53, 20_000).astype(float))
    digits = rng.integers(1, 10 ** 6, 20_000)
    exponents = rng.integers(-30, 30, 20_000)
    _assert_repr([float(f"{d}e{e}") for d, e in zip(digits, exponents)])


def test_the_fixed_and_scientific_switch_points_print_as_repr():
    # repr is fixed for 1e-4 <= |x| < 1e16 and scientific outside
    edges = np.array([1e-5, 1e-4, 1e-3, 1e15, 1e16, 1e17, 9999999999999998.0,
                      0.00009999999999999999, 123456789012345.67])
    _assert_repr(_neighbours(np.concatenate([edges, -edges])))


def test_zeros_infinities_and_nan():
    assert _cells([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]) \
        == ["0.0", "0.0", "inf", "-inf", "nan", "nan"]


@pytest.mark.parametrize("bits, text", [
    (1, "5e-324"),      # Java's C_TINY path prints 4.9E-324
    (2, "1e-323"),      # and 9.9E-324
    (16, "8e-323"),     # Java keeps two digits where s < 100: 7.9E-323
    (9, "4.4e-323"),
    (2 ** 52 - 1, "2.225073858507201e-308"),
], ids=["min-subnormal", "two-ulps", "sixteen-ulps", "nine-ulps",
        "max-subnormal"])
def test_subnormals_where_java_differs_print_as_repr(bits, text):
    value = np.array([bits], dtype=np.uint64).view(float)
    assert repr(float(value[0])) == text
    assert _cells(value) == [text]


def test_empty_cells_flags_separators_and_status():
    values = np.array([0.5, -2.0, 1e300])
    failed = np.array([0, 3, 0], dtype=np.uint8)
    text = csvtext.lines(
        [(values, None), (values, failed), (values > 0, values > 1e299)],
        (np.array([False, True, True]), ["zou:pair-conservation", "x;y"]))
    assert text == ("0.5,0.5,1,ok\n"
                    "-2.0,,0,zou:pair-conservation\n"
                    "1e+300,1e+300,,x;y\n")


def test_a_status_alone_and_blocks_of_many_passes():
    failed = np.zeros(5000, dtype=bool)
    failed[[0, 4999]] = True
    assert csvtext.lines([], (failed, ["a", "b"])) \
        == "a\n" + "ok\n" * 4998 + "b\n"
    # more cells than one pass takes: rows are cut only between passes
    values = np.linspace(-1.0, 1.0, 5000)
    assert csvtext.lines([(values, None)] * 3) == "".join(
        f"{v!r},{v!r},{v!r}\n" for v in (values + 0.0).tolist())
