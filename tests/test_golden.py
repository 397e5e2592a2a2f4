"""Sweep outputs against golden CSVs.

The goldens under ``tests/golden/`` were written by one ``cli.main`` call
each (the arguments are in ``PANEL``): ``fig7.csv`` and
``gamma2_zero.csv`` by the per-point sweep route that preceded the batched
engine, the other four by the closed-form transfer matrix.  The panel
covers both presets and the numerically hard regimes: above threshold up
to the overflow of ``exp(iHL)``, at threshold, and a converter without
gain.  The intensities and the coherence of every ``ok`` row of a length
sweep agree with mpmath's ``exp(iHL)`` to 1e-10, and its interferometer
gains with the singular values of mpmath's pair-correlation matrix to
``GAIN_RTOL``, so the goldens pin true values, not the rounding of
whichever exponential or element-wise loop wrote them.

The contract: ``status``, the grid column and ``gamma_defined`` are
byte-identical; every other non-empty cell agrees to 1e-12 relative, and
empty cells stay empty; each residual cell is at most 1e-14 (except on
rows whose golden residual is already larger: near threshold it is set
by rounding, and the identical status keeps it within the extraction's
limit).  ``at_threshold.csv`` and ``above_threshold_to30.csv`` were last
written with numpy's ``arctanh``, ``cosh``, ``sinh`` and ``arctan2``
loops in the extractions; in the other goldens the last digits of some
cells have moved since, and the tolerances leave room for such last-ulp
changes of the arithmetic.
"""

from pathlib import Path

import numpy as np
import pytest

from coupledpdc.cli import _fill_preset, build_parser, main

from oracles import (mpmath_device_matrix, mpmath_interferometer_gains,
                     rounded)

GOLDEN = Path(__file__).parent / "golden"
ABOVE = ["--gamma1", "1", "--gamma2", "1", "--kappa", "0.5", "--from", "0.01"]
PANEL = {
    "fig7.csv": ["sweep-psi", "--preset", "fig7"],
    "fig2_50.csv": ["sweep-length", "--preset", "fig2", "--steps", "50"],
    "above_threshold_to30.csv": ["sweep-length", *ABOVE, "--to", "30",
                                 "--steps", "50"],
    "above_threshold_to400.csv": ["sweep-length", *ABOVE, "--to", "400",
                                  "--steps", "50"],
    "at_threshold.csv": ["sweep-length", "--gamma1", "0.5", "--gamma2", "1",
                         "--kappa", "1.5", "--from", "0.01", "--to", "1000",
                         "--steps", "50"],
    "gamma2_zero.csv": ["sweep-length", "--gamma1", "0.1", "--gamma2", "0",
                        "--kappa", "3", "--from", "0", "--to", "20",
                        "--steps", "50"],
}
EXACT = ("L", "psi", "status", "gamma_defined")
#: Relative bound on the interferometer gains against mpmath.  The worst
#: golden cell is 1.44e-7, at threshold, where ``atanh`` inverts an
#: argument near 1; below threshold the gains agree to 4e-13.
GAIN_RTOL = 2e-7


def _table(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(PANEL))
def test_sweep_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*PANEL[name], "--out", str(out)]) == 0
    header, want = _table(GOLDEN / name)
    got_header, got = _table(out)
    assert got_header == header and len(got) == len(want)
    for i, (row_want, row_got) in enumerate(zip(want, got)):
        for column, a, b in zip(header, row_want, row_got):
            where = f"{name} row {i} {column}: {a!r} -> {b!r}"
            if column in EXACT or not a or not b:
                assert a == b, where
            elif column.endswith("_residual"):
                assert float(b) <= 1e-14 or float(a) > 1e-14, where
            else:
                assert abs(float(a) - float(b)) <= 1e-12 * max(
                    abs(float(a)), abs(float(b))), where


@pytest.mark.parametrize("name", sorted(
    name for name, args in PANEL.items() if args[0] == "sweep-length"))
def test_golden_rows_agree_with_mpmath(name):
    params = _fill_preset(build_parser().parse_args(PANEL[name]), "length")
    header, rows = _table(GOLDEN / name)
    checked = 0
    for row in rows:
        cell = dict(zip(header, row))
        if cell["status"] != "ok":
            continue
        exact = mpmath_device_matrix(params["gamma1"], params["gamma2"],
                                     params["kappa"], float(cell["L"]))
        m = rounded(exact)
        n1 = abs(m[0, 2]) ** 2 + abs(m[0, 3]) ** 2
        n2 = abs(m[1, 2]) ** 2 + abs(m[1, 3]) ** 2
        where = f"{name} L={cell['L']}"
        assert abs(float(cell["n_s1"]) - n1) <= 1e-10 * n1, where
        assert abs(float(cell["n_s2"]) - n2) <= 1e-10 * n2, where
        if cell["gamma"]:
            cross = np.conj(m[0, 2]) * m[1, 2] + np.conj(m[0, 3]) * m[1, 3]
            gamma = (-1j * cross / np.sqrt(n1 * n2)).real
            assert abs(float(cell["gamma"]) - gamma) <= 1e-10, where
        gains = mpmath_interferometer_gains(exact)
        for column, gain in zip(("ou_g1", "ou_g2"), gains):
            # plus the 50-digit noise of a vanishing singular value
            assert abs(abs(float(cell[column])) - gain) <= (
                GAIN_RTOL * gain + 1e-40 * gains[0]), f"{where} {column}"
        checked += 1
    assert checked > 0
