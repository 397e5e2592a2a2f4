import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledpdc.cli import (
    EXIT_LEAKAGE,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    LENGTH_COLUMNS,
    PSI_COLUMNS,
    main,
)


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


def test_sweep_determinism_across_runs_and_entry_points(tmp_path):
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
        capture_output=True, check=True)
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
    # unknown subcommand (argparse usage failure)
    assert run_cli("frobnicate") == EXIT_USAGE


def test_extraction_failure_lands_in_status_column(tmp_path, monkeypatch):
    # failures must tag the row and empty the columns, never abort the
    # sweep; the failure is injected into the engine's interferometer
    # kernel, which records it per row instead of raising
    import coupledpdc.cli as cli
    from coupledpdc.errors import TanhDomainError, flag

    kernel = cli.dec.interferometer_stack

    def forced(m, ms, failed, tol):
        ou = kernel(m, ms, failed, tol)
        flag(ou.failed, np.ones(len(m), dtype=bool),
             lambda i: TanhDomainError("forced for the test"))
        return ou

    monkeypatch.setattr(cli.dec, "interferometer_stack", forced)
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


def test_oracle_check_tolerance_breach(capsys):
    # an absurdly tight tolerance must trip the breach exit code
    assert run_cli("oracle-check", "--preset", "fig2", "--points", "1.0",
                   "--nmax", "3", "--tolerance", "1e-12") == EXIT_TOLERANCE
    assert "FAIL" in capsys.readouterr().out


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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.2 s of every start-up
    code = ("import sys, coupledpdc.cli; "
            "print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


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
