import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coupledpdc import cli, fock
from coupledpdc.cli import (
    EXIT_LEAKAGE,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    LENGTH_COLUMNS,
    MAX_STEPS,
    PSI_COLUMNS,
    SweepConfig,
    build_parser,
    main,
)
from coupledpdc.device import ContinuousDevice


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_sweep_length_row_count(tmp_path):
    out = tmp_path / "two.csv"
    assert run_cli("sweep-length", "--gamma1", "0.1", "--gamma2", "0.3",
                   "--kappa", "3", "--from", "0.01", "--to", "0.02",
                   "--steps", "2", "--out", str(out)) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\r" not in text
    header, rows = read_rows(out)
    assert header == list(LENGTH_COLUMNS)
    assert len(rows) == 2
    assert rows[0]["L"] == "0.01" and rows[1]["L"] == "0.02"
    assert all(row["status"] == "ok" for row in rows)


def test_sweep_length_undefined_gamma_rows(tmp_path):
    # a single uncoupled converter never populates the second signal mode
    out = tmp_path / "undef.csv"
    assert run_cli("sweep-length", "--gamma1", "0.1", "--gamma2", "0",
                   "--kappa", "0", "--from", "0.5", "--to", "1.0",
                   "--steps", "3", "--out", str(out)) == EXIT_OK
    _, rows = read_rows(out)
    for row in rows:
        assert row["gamma"] == ""
        assert row["gamma_defined"] == "0"
        assert row["n_s1"] != ""


def test_sweep_determinism_across_runs_and_entry_points(tmp_path, child_env):
    args = ["sweep-length", "--gamma1", "0.1", "--gamma2", "0.3",
            "--kappa", "3", "--from", "0.1", "--to", "4.0", "--steps", "40"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(first)) == EXIT_OK
    assert run_cli(*args, "--out", str(second)) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    # a fresh interpreter must produce the same bytes
    proc = subprocess.run(
        [sys.executable, "-m", "coupledpdc.cli", *args[0:1], *args[1:]],
        capture_output=True, check=True, env=child_env)
    assert proc.stdout == first.read_bytes()


def test_sweep_psi_endpoints(tmp_path):
    out = tmp_path / "psi.csv"
    assert run_cli("sweep-psi", "--r1", "0.1", "--r2", "0.1",
                   "--steps", "26", "--out", str(out)) == EXIT_OK
    header, rows = read_rows(out)
    assert header == list(PSI_COLUMNS)
    assert len(rows) == 26
    gammas = [float(row["gamma"]) for row in rows]
    assert gammas[0] == pytest.approx(0.0, abs=1e-12)
    assert gammas[-1] == pytest.approx(1.0, abs=1e-9)
    assert all(b >= a - 1e-6 for a, b in zip(gammas, gammas[1:]))
    assert abs(float(rows[-1]["ou_g2"])) <= 1e-8


def test_column_selection(tmp_path, capsys):
    assert run_cli("sweep-psi", "--r1", "0.1", "--r2", "0.1", "--steps", "2",
                   "--columns", "psi,gamma") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "psi,gamma"
    assert all(line.count(",") == 1 for line in lines)


def test_describe_columns(capsys):
    assert run_cli("sweep-length", "--describe-columns") == EXIT_OK
    text = capsys.readouterr().out
    for name in LENGTH_COLUMNS:
        assert name in text
    assert run_cli("sweep-psi", "--describe-columns") == EXIT_OK
    text = capsys.readouterr().out
    for name in PSI_COLUMNS:
        assert name in text


def test_usage_errors():
    # missing device parameters
    assert run_cli("sweep-length", "--from", "0", "--to", "1",
                   "--steps", "5") == EXIT_USAGE
    # preset kind mismatch
    assert run_cli("sweep-length", "--preset", "fig7") == EXIT_USAGE
    assert run_cli("sweep-psi", "--preset", "fig2") == EXIT_USAGE
    # bad grids
    assert run_cli("sweep-length", "--gamma1", "0.1", "--gamma2", "0.3",
                   "--kappa", "3", "--from", "1", "--to", "0.5",
                   "--steps", "5") == EXIT_USAGE
    assert run_cli("sweep-length", "--gamma1", "0.1", "--gamma2", "0.3",
                   "--kappa", "3", "--from", "0", "--to", "1",
                   "--steps", "1") == EXIT_USAGE
    # unknown column
    assert run_cli("sweep-psi", "--r1", "0.1", "--r2", "0.1", "--steps", "2",
                   "--columns", "nope") == EXIT_USAGE
    # a column list that names no column
    assert run_cli("sweep-psi", "--r1", "0.1", "--r2", "0.1", "--steps", "2",
                   "--columns", ",") == EXIT_USAGE
    # unknown subcommand (argparse usage failure)
    assert run_cli("frobnicate") == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["sweep-length", "--preset", "fig2", "--steps", "2"],
    ["sweep-psi", "--preset", "fig7", "--steps", "2"]])
@pytest.mark.parametrize("columns", ["", ","])
def test_a_column_list_that_names_no_column_is_refused(argv, columns, capsys):
    assert run_cli(*argv, "--columns", columns) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid sweep configuration: --columns names "
                            "no column\n")


def test_unwritable_out_is_a_usage_error_before_any_point(tmp_path, capsys,
                                                          monkeypatch):
    from coupledpdc import cli

    def no_sweep(*args):
        raise AssertionError("a grid point was computed")

    # the library sweeps and the stacks the CLI's stream computes
    for name in ("sweep_length_rows", "sweep_psi_rows", "transfer_stack",
                 "cascaded_stack"):
        monkeypatch.setattr(cli, name, no_sweep)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert run_cli("sweep-length", "--preset", "fig2",
                       "--out", str(out)) == EXIT_USAGE
        assert run_cli("sweep-psi", "--preset", "fig7",
                       "--out", str(out)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 and all(str(out) in line for line in lines)
        assert "Traceback" not in captured.err


def test_steps_beyond_the_cap_are_a_usage_error(capsys):
    # refused in the config, before the grid is allocated: MAX_STEPS + 1
    # steps would take gigabytes, the refusal next to nothing
    import tracemalloc
    dev = ContinuousDevice(0.1, 0.3, 3.0, 0.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"2 to {MAX_STEPS} steps"):
            SweepConfig(kind="length", device=dev, start=0.01, stop=20.0,
                        steps=MAX_STEPS + 1)
        assert run_cli("sweep-length", "--preset", "fig2",
                       "--steps", str(MAX_STEPS + 1)) == EXIT_USAGE
        assert run_cli("sweep-length", "--preset", "fig2",
                       "--steps", "100000000000") == EXIT_USAGE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err.count(f"2 to {MAX_STEPS} steps") == 2
    assert "Traceback" not in err
    assert SweepConfig(kind="length", device=dev, start=0.01, stop=20.0,
                       steps=MAX_STEPS).steps == MAX_STEPS


def test_extraction_failure_lands_in_status_column(tmp_path, monkeypatch):
    # failures must tag the row and empty the columns, never abort the
    # sweep; the failure is injected into the engine's interferometer
    # kernel, which records it per row instead of raising
    from coupledpdc import decompose
    from coupledpdc.errors import TanhDomainError, flag

    kernel = decompose.interferometer_stack

    def forced(m, ms, failed):
        ou = kernel(m, ms, failed)
        flag(ou.failed, np.ones(len(m), dtype=bool),
             lambda i: TanhDomainError("forced for the test"))
        return ou

    monkeypatch.setattr(decompose, "interferometer_stack", forced)
    out = tmp_path / "tagged.csv"
    assert run_cli("sweep-length", "--gamma1", "0.1", "--gamma2", "0.3",
                   "--kappa", "3", "--from", "0.5", "--to", "1.0",
                   "--steps", "2", "--out", str(out)) == EXIT_OK
    _, rows = read_rows(out)
    for row in rows:
        assert row["status"] == "ou:tanh-domain"
        assert row["ou_g1"] == "" and row["ou_residual"] == ""
        assert row["zou_g1"] != ""


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.floats(0.0, 1.5), st.floats(0.0, 1.5),
       st.sampled_from(["above", "at", "below"]), st.floats(0.0, 1.0),
       st.floats(5.0, 500.0))
def test_no_row_aborts_a_long_sweep(gamma1, gamma2, regime, fraction, stop):
    # above threshold exp(iHL) grows until it overflows; every row must
    # still end with a status, and the command with exit status 0
    gain = gamma1 + gamma2
    kappa = {"above": gain * 0.95 * fraction, "at": gain,
             "below": gain + 0.05 + fraction}[regime]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "long.csv"
        assert run_cli("sweep-length", "--gamma1", repr(gamma1),
                       "--gamma2", repr(gamma2), "--kappa", repr(kappa),
                       "--from", "0.01", "--to", repr(stop), "--steps", "8",
                       "--out", str(out)) == EXIT_OK
        header, rows = read_rows(out)
    assert header == list(LENGTH_COLUMNS)
    assert len(rows) == 8
    assert all(row["status"] for row in rows)


def test_above_threshold_sweep_tags_rows_instead_of_aborting(tmp_path):
    out = tmp_path / "above.csv"
    assert run_cli("sweep-length", "--gamma1", "1", "--gamma2", "1",
                   "--kappa", "0.5", "--from", "0.01", "--to", "400",
                   "--steps", "50", "--out", str(out)) == EXIT_OK
    _, rows = read_rows(out)
    assert len(rows) == 50 and rows[0]["status"] == "ok"
    # exp(iHL) overflows at the far end: only the length is left
    assert rows[-1]["status"] == "device:non-finite"
    assert rows[-1]["L"] == "400.0" and rows[-1]["n_s1"] == ""


def test_preset_overrides(tmp_path):
    out = tmp_path / "short.csv"
    assert run_cli("sweep-length", "--preset", "fig2", "--steps", "3",
                   "--to", "1.0", "--out", str(out)) == EXIT_OK
    _, rows = read_rows(out)
    assert len(rows) == 3
    assert rows[-1]["L"] == "1.0"


def test_oracle_check_pass(capsys):
    assert run_cli("oracle-check", "--preset", "fig2", "--points", "0.5",
                   "--nmax", "3") == EXIT_OK
    text = capsys.readouterr().out
    assert "PASS" in text and "max gamma deviation" in text


def test_oracle_check_zero_length_trivial(capsys):
    assert run_cli("oracle-check", "--preset", "fig2",
                   "--points", "0.0") == EXIT_OK
    assert "gamma=undefined (skipped)" in capsys.readouterr().out


def test_oracle_check_refuses_above_threshold(capsys):
    assert run_cli("oracle-check", "--gamma1", "1", "--gamma2", "1",
                   "--kappa", "0.5") == EXIT_USAGE
    assert "below-threshold" in capsys.readouterr().err


def test_oracle_check_leakage_exit_code(capsys):
    assert run_cli("oracle-check", "--gamma1", "1.0", "--gamma2", "1.0",
                   "--kappa", "2.5", "--points", "3.0",
                   "--nmax", "2") == EXIT_LEAKAGE
    assert "boundary population" in capsys.readouterr().err


def test_oracle_check_stops_at_the_first_leaking_length(capsys):
    # the middle length leaks: the first length's line is printed, the
    # leak is reported, and the last length is never printed
    assert run_cli("oracle-check", "--gamma1", "1", "--gamma2", "1",
                   "--kappa", "2.5", "--nmax", "2",
                   "--points", "0.05,3.0,1.0") == EXIT_LEAKAGE
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("L=0.05 dintensity=")
    assert captured.err.startswith("L=3.0: boundary population 2.314e-02 ")
    assert "L=1.0" not in captured.out + captured.err


@pytest.mark.parametrize("block", [1, 3])
def test_oracle_check_output_does_not_depend_on_the_block(block, capsys,
                                                         monkeypatch):
    from coupledpdc import cli
    argv = ("oracle-check", "--preset", "fig2", "--nmax", "5",
            "--points", "0,0.1,0.5,1,1.5,2,2.5")
    assert run_cli(*argv) == EXIT_OK
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "ORACLE_BLOCK", block)
    assert run_cli(*argv) == EXIT_OK
    assert capsys.readouterr().out == whole
    assert whole.count("L=") == 7


def test_oracle_check_refuses_a_negative_length_before_any_line(capsys):
    assert run_cli("oracle-check", "--preset", "fig2",
                   "--points", "0.5,-1") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "length must be >= 0" in captured.err


@pytest.mark.parametrize("argv", [
    ("oracle-check", "--preset", "fig2", "--nmax", "4", "--points", "1e300"),
    ("oracle-check", "--preset", "fig2", "--nmax", "4",
     "--points", "0.5,1e9"),
    ("decompose", "--gamma1", "0.1", "--gamma2", "0.3", "--kappa", "3",
     "--length", "1e9", "--nmax", "4"),
])
def test_a_length_beyond_the_series_cap_is_refused_before_any_line(argv,
                                                                    capsys):
    # uncapped, 1e300 spun in the order search and 1e9 asked for a
    # Bessel table of tens of GB; refused, it takes about 70 kB
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code = run_cli(*argv)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs a series above order 1000000" in captured.err
    assert elapsed < 2.0
    assert peak < 500_000


def test_oracle_check_tolerance_breach(capsys):
    # an absurdly tight tolerance must trip the breach exit code
    assert run_cli("oracle-check", "--preset", "fig2", "--points", "1.0",
                   "--nmax", "3", "--tolerance", "1e-12") == EXIT_TOLERANCE
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-3"])
def test_oracle_check_refuses_a_non_finite_or_negative_tolerance(tolerance,
                                                                 capsys):
    # every comparison with NaN is false, so a NaN tolerance passed always
    assert run_cli("oracle-check", "--preset", "fig2", "--nmax", "4",
                   f"--tolerance={tolerance}") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a finite --tolerance >= 0" in captured.err


def test_cascade_squeezing_beyond_cosh_overflow_is_non_finite(capsys):
    # math.cosh(800) overflows; the device is tagged, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep-psi", "--r1", "800", "--r2", "0.1",
                       "--steps", "3") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(line.endswith(",device:non-finite") for line in lines[1:])
        assert run_cli("decompose", "--r1", "800", "--r2", "0.1",
                       "--psi", "0.5") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invalid device: matrix has non-finite entries"]


@pytest.mark.parametrize("device", [
    ("--gamma1", "0", "--gamma2", "0", "--kappa", "0", "--length", "1"),
    ("--gamma1", "0", "--gamma2", "0", "--kappa", "0", "--length", "0"),
    ("--r1", "0", "--r2", "0", "--psi", "0"),
])
def test_decompose_names_the_geometry_stage_of_a_zero_scheme(device, capsys):
    assert run_cli("decompose", *device) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4].startswith("zou_g1=0.0 ")
    assert lines[-3] == "which-way geometry failed: zero-scheme"
    assert lines[-2].startswith("signal_total=0.0 ")
    assert lines[-1].startswith("ou_g1=0.0 ")
    assert not any("extraction failed" in line for line in lines)


def test_decompose_continuous(capsys):
    assert run_cli("decompose", "--gamma1", "0.1", "--gamma2", "0.3",
                   "--kappa", "3", "--length", "1.0") == EXIT_OK
    text = capsys.readouterr().out
    for key in ("regime=below-threshold", "gamma=", "zou_g1=", "ou_g1=",
                "uv_angle=", "parameter_cap="):
        assert key in text


def test_decompose_cascaded(capsys):
    assert run_cli("decompose", "--r1", "0.1", "--r2", "0.1",
                   "--psi", str(math.pi / 4)) == EXIT_OK
    text = capsys.readouterr().out
    assert "device=cascaded" in text and "ou_g1=" in text


def test_decompose_aligned_cascade(capsys):
    assert run_cli("decompose", "--r1", "0.1", "--r2", "0.1",
                   "--psi", "1.5707963267948966") == EXIT_OK
    line = capsys.readouterr().out.splitlines()[-1]
    fields = dict(tok.split("=") for tok in line.split())
    assert fields["branch"] == "svd" and "fallback" not in fields
    assert float(fields["ou_residual"]) < 1e-10
    assert abs(float(fields["ou_g2"])) <= 1e-8


def test_cli_import_leaves_scipy_optimize_unloaded(child_env):
    # scipy.optimize costs about 0.2 s of every start-up
    code = ("import sys, coupledpdc.cli; "
            "print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_runs_import_neither_scipy_linalg_nor_scipy_sparse(child_env):
    # either would import scipy._lib._util, which touches every lazy
    # attribute of numpy: about 0.35 s of every start-up; a length of 0
    # and a device without couplings once took scipy.linalg's expm.
    # scipy itself costs about 10 ms: the compiled csr_matvec is found
    # through the import system's spec of scipy instead
    code = ("import contextlib, io, sys\n"
            "import coupledpdc.cli as cli\n"
            "heavy = {'scipy', 'scipy.linalg', 'scipy.sparse',\n"
            "         'scipy._lib._util', 'scipy.optimize',\n"
            "         'scipy.linalg._matfuncs_expm'}\n"
            "print(sorted(heavy & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['sweep-length', '--preset', 'fig2',\n"
            "                       '--steps', '50']),\n"
            "             cli.main(['sweep-psi', '--preset', 'fig7']),\n"
            "             cli.main(['oracle-check', '--preset', 'fig2',\n"
            "                       '--nmax', '4']),\n"
            "             cli.main(['sweep-length', '--gamma1', '0.1',\n"
            "                       '--gamma2', '0', '--kappa', '3',\n"
            "                       '--from', '0', '--to', '20',\n"
            "                       '--steps', '50']),\n"
            "             cli.main(['decompose', '--gamma1', '0',\n"
            "                       '--gamma2', '0', '--kappa', '0',\n"
            "                       '--length', '1'])]\n"
            "print(codes, sorted(heavy & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "[0, 0, 0, 0, 0] []"]


@pytest.mark.parametrize("argv, absent", [
    (["sweep-length", "--preset", "fig2", "--steps", "50"], {"fock"}),
    (["sweep-psi", "--preset", "fig7"], {"fock", "whichway"}),
    (["oracle-check", "--preset", "fig2", "--nmax", "4"],
     {"decompose", "whichway", "linalg"}),
    (["decompose", "--gamma1", "0.1", "--gamma2", "0.3", "--kappa", "3",
      "--length", "1"], {"fock"}),
    (["-h"], {"fock"}),
], ids=["sweep-length", "sweep-psi", "oracle-check", "decompose", "help"])
def test_each_command_imports_only_the_modules_it_runs(argv, absent,
                                                       child_env):
    # a sweep never loads the number-basis oracle, whose import loads
    # SciPy's compiled _sparsetools, and the oracle none of the extractions
    code = ("import contextlib, io, sys\n"
            "from coupledpdc import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(code, *sorted(name for name in sys.modules\n"
            "                    if name.startswith('coupledpdc.')))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=child_env,
                          capture_output=True, text=True, check=True)
    code, *loaded = proc.stdout.split()
    assert code == str(EXIT_OK)
    assert {"coupledpdc.cli", "coupledpdc.moments"} <= set(loaded)
    assert not {f"coupledpdc.{name}" for name in absent} & set(loaded)


def test_decompose_needs_exactly_one_device(capsys):
    assert run_cli("decompose") == EXIT_USAGE
    assert run_cli("decompose", "--gamma1", "0.1", "--r1", "0.1") == EXIT_USAGE


def test_fig4_and_fig6_presets_alias_fig2(capsys):
    outputs = []
    for preset in ("fig2", "fig4", "fig6"):
        assert run_cli("sweep-length", "--preset", preset,
                       "--steps", "3", "--to", "1.0") == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_oracle_check_rejects_oversized_cutoff(capsys):
    # rejected by the basis-size guard before any state is allocated
    assert run_cli("oracle-check", "--preset", "fig2",
                   "--nmax", "1000") == EXIT_USAGE
    assert "basis states" in capsys.readouterr().err


def test_decompose_nmax_runs_the_number_basis_cross_check(capsys):
    device = ("--gamma1", "0.1", "--gamma2", "0.3", "--kappa", "3",
              "--length", "1.0")
    assert run_cli("decompose", *device) == EXIT_OK
    plain = capsys.readouterr().out
    assert run_cli("decompose", *device, "--nmax", "4") == EXIT_OK
    checked = capsys.readouterr().out
    assert checked.startswith(plain)
    extra = checked[len(plain):].splitlines()
    assert len(extra) == 1
    fields = dict(tok.split("=") for tok in extra[0].split())
    assert fields["nmax"] == "4"
    assert float(fields["dintensity"]) < 1e-3
    assert float(fields["dgamma"]) < 1e-3
    assert float(fields["leakage"]) < 1e-4
    # the same comparison oracle-check prints for this length
    assert run_cli("oracle-check", "--preset", "fig2", "--points", "1.0",
                   "--nmax", "4") == EXIT_OK
    oracle_line = capsys.readouterr().out.splitlines()[0]
    assert oracle_line.split(" ", 1)[1] == extra[0].split(" ", 1)[1]


def test_decompose_nmax_needs_a_below_threshold_continuous_device(capsys):
    assert run_cli("decompose", "--r1", "0.1", "--r2", "0.1",
                   "--psi", "0.3", "--nmax", "4") == EXIT_USAGE
    assert "continuous device" in capsys.readouterr().err
    assert run_cli("decompose", "--gamma1", "1", "--gamma2", "1",
                   "--kappa", "0.5", "--length", "1",
                   "--nmax", "4") == EXIT_USAGE
    assert "below-threshold" in capsys.readouterr().err


def test_decompose_nmax_leakage_exit_code(capsys):
    assert run_cli("decompose", "--gamma1", "1.0", "--gamma2", "1.0",
                   "--kappa", "2.5", "--length", "3.0",
                   "--nmax", "2") == EXIT_LEAKAGE
    assert "boundary population" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["1e308", "1.7e308"])
def test_oracle_check_at_the_top_of_the_float_range(kappa, capsys):
    # the spectral bound's power-of-two scale is 2^1024 here, which
    # overflows as a float; the masked amplitudes of the generator
    # overflow too, silently
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("oracle-check", "--gamma1", "0.1", "--gamma2", "0.3",
                       "--kappa", kappa, "--points", "0",
                       "--nmax", "1") == EXIT_OK
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[0] == (
        "L=0.0 dintensity=0.000e+00 gamma=undefined (skipped) "
        "leakage=0.000e+00")
    assert captured.out.endswith("PASS (tolerance 0.001)\n")


def test_decompose_of_an_overflowing_generator_prints_its_reason_only(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("decompose", "--gamma1", "0.5", "--gamma2", "-0",
                       "--kappa", "2e154", "--length", "1e308") == EXIT_USAGE
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid device: matrix has non-finite entries\n"


def test_a_sweep_whose_generator_overflows_tags_every_row(capsys):
    # g1 L overflows to infinity: the rows carry the device's tag, the
    # sweep still runs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("sweep-length", "--preset", "fig2", "--gamma1",
                       "1e308", "--steps", "3") == EXIT_OK
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == ""
    header, *lines = captured.out.splitlines()
    assert header == ",".join(LENGTH_COLUMNS) and len(lines) == 3
    assert all(line.endswith(",device:non-finite") for line in lines)


@pytest.mark.parametrize("argv, message", [
    (["sweep-length", "--gamma2", "0.3", "--kappa", "3", "--from", "0",
      "--to", "1", "--steps", "3"],
     "sweep-length needs --gamma1/--gamma2/--kappa or a preset"),
    (["sweep-length", "--gamma1", "0.1", "--gamma2", "0.3", "--kappa", "3",
      "--from", "0", "--to", "1"],
     "sweep-length needs --from/--to/--steps or a preset"),
    (["sweep-length"], "sweep-length needs --gamma1/--gamma2/--kappa and "
                       "--from/--to/--steps or a preset"),
    (["sweep-psi", "--r1", "0.1", "--steps", "3"],
     "sweep-psi needs --r1/--r2 or a preset"),
    (["sweep-psi", "--r1", "0.1", "--r2", "0.1"],
     "sweep-psi needs --steps or a preset"),
])
def test_a_sweep_missing_an_option_names_the_options(argv, message, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("argv", [
    ["decompose", "--gamma1", "0.1", "--gamma2", "0.3", "--kappa", "3",
     "--length", "1"],
    ["sweep-psi", "--preset", "fig7"],
    ["oracle-check", "--preset", "fig2"],
])
def test_a_closed_stdout_exits_1_without_a_traceback(argv, child_env):
    # stdout is a pipe whose reader is gone before the program starts
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "coupledpdc", *argv],
                              stdout=write, stderr=subprocess.PIPE,
                              env=child_env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""  # no traceback, nor any other line


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, code", [
    (["sweep-length", "--preset", "fig2"], EXIT_USAGE),  # 4 blocks, 0.7 MB
    (["sweep-psi", "--preset", "fig7"], EXIT_OK),        # 1 block, 14 kB
    (["sweep-length", "--preset", "fig2", "--steps", "512"],
     EXIT_USAGE),                                        # 1 block, 170 kB
])
def test_a_reader_that_leaves_after_the_header_ends_a_longer_sweep(
        argv, code, unbuffered, child_env):
    # the sweep's first write after the reader is gone fails, also the
    # rest of a block larger than the pipe, unbuffered too; a sweep the
    # pipe takes whole before the reader goes ends 0
    child_env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        child_env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "coupledpdc", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env)
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert header.startswith((b"L,", b"psi,")) and err == b""


@pytest.mark.parametrize("length", ["1e308", "50000"])
def test_a_refused_length_is_named_with_the_longest_accepted(length, capsys):
    # 1e308 times the spectral bound overflows, 50000 times it does not;
    # either refusal names the length, and the longest length it names is
    # accepted
    assert run_cli("oracle-check", "--preset", "fig2", "--nmax", "4",
                   "--points", f"0.5,{length}") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    head = f"error: length {float(length):.6g} needs a series above order "
    assert line.startswith(head + f"{fock.MAX_ORDER}; at spectral bound ")
    longest = float(line.rsplit(" ", 1)[1])
    generator = fock.build_generator(ContinuousDevice(0.1, 0.3, 3.0, 0.0),
                                     fock.FockBasis.build(4))
    fock.check_lengths(generator, [longest])
    with pytest.raises(ValueError, match="needs a series above order"):
        fock.check_lengths(generator, [longest * (1 + 1e-5)])


# --- the CLI contract, fuzzed ---------------------------------------------
# Every argv ends in exit 0-3 without an exception escaping main; a sweep
# that exits 0 writes its header and one row per step, each with a
# status; a usage error (exit 1) writes nothing to stdout and one line to
# stderr.  Values: signed zeros, subnormals, the ends of the float range,
# non-finite values, a few ordinary ones, and the edges of the caps.  Each
# example stays cheap: at most 7 steps and --nmax 3, and every accepted
# oracle length is short (a refused one costs nothing).

FINITE = ("0", "-0", "5e-324", "-5e-324", "1e-300", "0.1", "0.3", "3",
          "-1", "1e300", "-1e300", "1e308")
FLOATS = FINITE + ("inf", "-inf", "nan")
STEPS = ("2", "3", "7")
BAD_STEPS = ("-1", "0", "1", str(MAX_STEPS + 1), "100000000000", "abc")
# 114 is the first cutoff above fock.MAX_STATES
NMAX = ("-1", "0", "1", "2", "3", "114", "x")
TOLERANCES = ("0", "-0", "5e-324", "1e-3", "-1e-3", "1e300", "inf", "nan")


def _first_refused_length(nmax):
    """The shortest length whose Chebyshev series would start above
    fock.MAX_ORDER at fig2's spectral bound for ``nmax``."""
    generator = fock.build_generator(ContinuousDevice(0.1, 0.3, 3.0, 0.0),
                                     fock.FockBasis.build(nmax))
    length = 2 * fock.MAX_ORDER / math.e / generator.radius * (1 - 1e-14)
    fock.check_lengths(generator, [length])
    while True:
        length = float(np.nextafter(length, math.inf))
        try:
            fock.check_lengths(generator, [length])
        except ValueError:
            return length


# an accepted length at the edge takes seconds, so only the refused side
# of each cap is run
FIRST_REFUSED = {nmax: _first_refused_length(nmax) for nmax in (1, 2, 3)}


def _option(name, values):
    """``--name=value`` for a value of ``values``, or the option left out
    (``=`` keeps argparse from reading ``-1e300`` as an option)."""
    return st.one_of(st.sampled_from(values).map(
        lambda value: (f"--{name}={value}",)), st.just(()))


def _range(values):
    """``--from`` and ``--to`` from ``values``, the lower one first, or
    neither."""
    return st.one_of(st.lists(st.sampled_from(values), min_size=2,
                              max_size=2).map(
        lambda ends: tuple(f"--{name}={end}" for name, end in
                           zip(("from", "to"), sorted(ends, key=float)))),
        st.just(()))


def _argv(command, *options):
    return st.tuples(*options).map(
        lambda parts: [command, *(arg for part in parts for arg in part)])


def _run(argv):
    """Exit code, stdout and stderr of ``main(argv)``, with every warning
    an error: the contract leaves stderr to the program's own lines."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_TOLERANCE, EXIT_LEAKAGE)
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _check_sweep(argv, columns):
    code, out, err = _run(argv)
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_OK:
        assert err == ""
        header, *rows = out.splitlines()
        names = header.split(",")
        assert set(names) <= set(columns)
        steps = [arg for arg in argv if arg.startswith("--steps=")]
        assert 2 <= len(rows) == int(steps[-1].split("=")[1]) <= MAX_STEPS
        for row in rows:
            cells = dict(zip(names, row.split(",")))
            assert len(cells) == len(names)
            assert cells.get("status", "ok") != ""


SWEEP_COLUMNS = ("status", "gamma,status", "n_s1", ",", "", "L,psi")


def _sweeps(command, preset, device):
    """Argv of ``command``: ``preset`` with finite overrides and a valid
    step count, which mostly runs, or any values, mostly refused."""
    def argv(presets, values, steps):
        return _argv(command, presets,
                     *(_option(name, values) for name in device),
                     _range(values),
                     st.sampled_from(steps).map(lambda v: (f"--steps={v}",)),
                     _option("columns", SWEEP_COLUMNS))

    return st.one_of(argv(st.just((f"--preset={preset}",)), FINITE, STEPS),
                     argv(_option("preset", ("fig2", "fig7")), FLOATS,
                          STEPS + BAD_STEPS))


#: Each contract property's explicit examples: edges the strategies seldom
#: draw, and tokens that argparse itself refuses
EXAMPLES = {
    "sweep-length": [
        ["sweep-length", "--preset=fig2", f"--steps={MAX_STEPS + 1}"],
        ["sweep-length", "--preset=fig2", "--steps=7", "--columns=,"],
        ["sweep-length", "--preset=fig2", "--steps=7", "--columns="],
        ["sweep-length", "--gamma1=1", "--gamma2=1", "--kappa=0.5",
         "--from=0", "--to=1e300", "--steps=7"],
        ["sweep-length", "--preset=fig2", "--steps=abc"],
        ["sweep-length", "--preset=fig2", "--steps=7", "--gamma1="],
    ],
    "sweep-psi": [
        ["sweep-psi", "--r1=800", "--r2=0.1", "--steps=3"],
        ["sweep-psi", "--preset=fig7", "--steps=3", "stray"],
    ],
    "oracle-check": [
        ["oracle-check", "--gamma1=0.1", "--gamma2=0.3", "--kappa=1e308",
         "--points=0", "--nmax=1"],
        ["oracle-check", "--gamma1=0.1", "--gamma2=0.3", "--kappa=1.7e308",
         "--points=0", "--nmax=1"],
        ["oracle-check", "--preset=fig2", "--nmax=4", "--points=1e308"],
        ["oracle-check", "--preset=fig2", "--nmax=1", "--tolerance=nan"],
        ["oracle-check", "--preset=fig2", "--nmax=x"],
        ["oracle-check", "--preset=fig2", "--bogus=1"],
    ],
    "decompose": [
        ["decompose", "--gamma1=0.5", "--gamma2=-0", "--kappa=2e154",
         "--length=1e308"],
        ["decompose", "--r1=800", "--r2=0.1", "--psi=0.5"],
        ["decompose", "--gamma1=", "--length=1"],
    ],
}


def _examples(command):
    """Run a property on ``command``'s explicit examples too."""
    def decorate(test):
        for argv in EXAMPLES[command]:
            test = example(argv)(test)
        return test
    return decorate


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_sweeps("sweep-length", "fig2", ("gamma1", "gamma2", "kappa")))
@_examples("sweep-length")
def test_sweep_length_keeps_the_cli_contract(argv):
    _check_sweep(argv, LENGTH_COLUMNS)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_sweeps("sweep-psi", "fig7", ("r1", "r2")))
@_examples("sweep-psi")
def test_sweep_psi_keeps_the_cli_contract(argv):
    _check_sweep(argv, PSI_COLUMNS)


ORACLE_EDGES = [["oracle-check", "--preset=fig2", f"--nmax={nmax}",
                 f"--points=0.5,{length!r}"]
                for nmax, length in FIRST_REFUSED.items()]


SHORT = ("0", "-0", "5e-324", "1e-300", "0.1", "0.3", "3")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(
    # fig2 with finite overrides and short lengths, which mostly runs
    _argv("oracle-check", st.just(("--preset=fig2",)),
          *(_option(name, FINITE) for name in ("gamma1", "gamma2", "kappa")),
          st.lists(st.sampled_from(SHORT), min_size=1, max_size=3).map(
              lambda lengths: (f"--points={','.join(lengths)}",)),
          _option("nmax", ("1", "2", "3")), _option("tolerance", TOLERANCES)),
    # any values, mostly refused
    _argv("oracle-check", _option("preset", ("fig2", "fig7")),
          *(_option(name, FLOATS) for name in ("gamma1", "gamma2", "kappa")),
          _option("points", [",".join(lengths) for lengths in [
              *((v,) for v in FLOATS),
              ("0.5", "1e308"), ("0", "nan"), ("0.3", "-1"), ("", ","),
              ("x",)]]),
          _option("nmax", NMAX), _option("tolerance", TOLERANCES)),
    st.sampled_from(ORACLE_EDGES)))
@_examples("oracle-check")
def test_oracle_check_keeps_the_cli_contract(argv):
    code, out, err = _run(argv)
    if argv in ORACLE_EDGES:
        assert code == EXIT_USAGE and "needs a series above order" in err
    if code in (EXIT_OK, EXIT_TOLERANCE):
        tolerance = [arg for arg in argv if arg.startswith("--tolerance=")]
        assert 0.0 <= float((tolerance or ["=1e-3"])[0].split("=")[1]) \
            < math.inf
        assert err == ""
        assert out.splitlines()[-1].startswith(
            "PASS" if code == EXIT_OK else "FAIL")
    if code == EXIT_LEAKAGE:
        assert "boundary population" in err


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(
    _argv("decompose", *(_option(name, FLOATS) for name in
                         ("gamma1", "gamma2", "kappa", "length")),
          _option("nmax", NMAX)),
    _argv("decompose", *(_option(name, FLOATS) for name in
                         ("r1", "r2", "psi")),
          _option("nmax", NMAX))))
@_examples("decompose")
def test_decompose_keeps_the_cli_contract(argv):
    code, out, err = _run(argv)
    assert code != EXIT_TOLERANCE
    if code == EXIT_OK:
        assert err == ""
        assert out.startswith("device=")
    if code == EXIT_LEAKAGE:
        assert "boundary population" in err


NO_COMMAND = ([], ["frobnicate"], ["--bogus=1"])


@pytest.mark.parametrize("argv", NO_COMMAND)
def test_an_argv_without_a_command_is_a_one_line_usage_error(argv):
    assert _run(argv)[0] == EXIT_USAGE


# --- one command, one parser ----------------------------------------------
# main builds only the named command's parser; build_parser builds all
# four.  Both must read every argv alike: the same help bytes, the same
# namespace, the same exit.

VALID = (
    ["sweep-length", "--preset", "fig2", "--steps", "3", "--out", "x.csv"],
    ["sweep-length", "--describe-columns"],
    ["sweep-psi", "--r1", "0.1", "--r2=0.2", "--from", "0", "--to", "1",
     "--steps", "2", "--columns", "psi,gamma"],
    ["oracle-check"],
    ["oracle-check", "--preset", "fig2", "--points", "0.5", "--nmax", "2",
     "--tolerance", "1e-2"],
    ["decompose", "--gamma1", "0.1", "--gamma2", "0.3", "--kappa", "3",
     "--length", "1"],
    ["decompose", "--r1", "0.1", "--r2", "0.1", "--psi", "0.5", "--nmax=0"],
)


@pytest.mark.parametrize("argv", [["-h"], *([name, "-h"] for name in
                                            cli.COMMANDS)])
def test_help_matches_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == EXIT_OK
    via_main = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == via_main
    assert via_main.out.startswith("usage: coupledpdc")


@pytest.mark.parametrize("argv", [
    *VALID, *(argv for examples in EXAMPLES.values() for argv in examples),
    *NO_COMMAND, ["-h", "sweep-psi"]])
def test_main_parses_as_the_full_parser(argv, capsys):
    def outcome(parse):
        """The namespace, as text so that a NaN equals itself, or the exit
        code."""
        try:
            return repr(sorted(vars(parse(argv)).items()))
        except SystemExit as exc:
            return exc.code

    assert outcome(cli._parse_args) == outcome(build_parser().parse_args)


@pytest.mark.parametrize("argv, arguments", [
    (["sweep-length", "--describe-columns"], 11),
    (["sweep-psi", "--describe-columns"], 10),
    (["oracle-check", "--preset=fig2", "--nmax=4", "--points=0.5"], 8),
    (["decompose", "--r1=0.1", "--r2=0.1", "--psi=0.5"], 9)])
def test_a_command_builds_only_its_own_parser(argv, arguments, capsys,
                                              monkeypatch):
    # counted, not timed: one parser, the command's arguments and -h
    counts = {"__init__": 0, "add_argument": 0}

    def counting(name):
        method = getattr(argparse.ArgumentParser, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, name, counted)

    counting("__init__")
    counting("add_argument")
    assert main(argv) == EXIT_OK
    assert counts == {"__init__": 1, "add_argument": arguments}
