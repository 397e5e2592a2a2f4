"""The batched sweep engine: block invariance, memory, status tags, and
the names the benchmark's tracer reaches into."""

import contextlib
import functools
import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledpdc.cli as cli
from coupledpdc import decompose, moments, whichway
from coupledpdc.cli import (
    BLOCK,
    LENGTH_COLUMNS,
    PRESETS,
    PSI_COLUMNS,
    SweepConfig,
    sweep_length_rows,
    sweep_psi_rows,
)
from coupledpdc.config import Tolerances
from coupledpdc.decompose import (
    FourConverterScheme,
    extract_four_converter,
    extract_interferometer,
)
from coupledpdc.device import (
    CascadedDevice,
    ContinuousDevice,
    build_hamiltonian,
    transfer_matrix,
)
from coupledpdc.errors import (
    ERRORS,
    CoherenceBoundError,
    ParameterCapError,
    PdcModelError,
    UndefinedCoherenceError,
    ZeroSchemeError,
)
from coupledpdc.moments import intensities, signal_coherence
from coupledpdc.whichway import geometry

FIG2 = ContinuousDevice(0.1, 0.3, 3.0, 0.0)
ABOVE = ContinuousDevice(1.0, 1.0, 0.5, 0.0)


def _single_point_row(dev: ContinuousDevice) -> dict:
    """One length-sweep row computed through the single-point functions,
    as the sweeps were evaluated before the batched engine."""
    fmt = cli._fmt
    row = dict.fromkeys(LENGTH_COLUMNS, "")
    row["L"] = fmt(dev.length)
    try:
        tm = transfer_matrix(dev)
        inten = intensities(tm)
    except PdcModelError as exc:
        row["status"] = f"device:{exc.tag}"
        return row
    row.update(n_s1=fmt(inten.s1), n_s2=fmt(inten.s2),
               n_total_signal=fmt(inten.total_signal), gamma_defined="0")
    problems = []
    try:
        row["gamma"] = fmt(signal_coherence(tm).gamma)
        row["gamma_defined"] = "1"
    except UndefinedCoherenceError:
        pass
    except PdcModelError as exc:
        problems.append(f"gamma:{exc.tag}")
    for prefix, extract in (("zou", extract_four_converter),
                            ("ou", extract_interferometer)):
        try:
            report = extract(tm)
        except PdcModelError as exc:
            problems.append(f"{prefix}:{exc.tag}")
            continue
        for name, value in vars(report.scheme).items():
            row[f"{prefix}_{name.replace('_', '')}"] = fmt(value)
        row[f"{prefix}_residual"] = fmt(report.residual)
        if prefix == "zou":
            try:
                row["uv_angle"] = fmt(geometry(report.scheme).angle)
            except ZeroSchemeError:
                pass
    row["status"] = ";".join(problems) or "ok"
    return row


@pytest.mark.parametrize("base, stop, steps", [
    (FIG2, 20.0, 3 * 64 + 17),
    (ABOVE, 400.0, 3 * 64 + 17),
    # the remainder is one failing row, L = 400 (device:non-finite)
    (ABOVE, 400.0, 3 * 64 + 1),
], ids=["fig2", "above-threshold", "one-failing-row-block"])
def test_block_boundaries_do_not_change_rows(base, stop, steps, monkeypatch):
    # three full blocks and a remainder (the blocks are made small to keep
    # the single-point reference cheap); every row must be byte-equal to
    # the same point computed on its own, ok and tagged rows alike, and a
    # block of one row tags its failure where a single point raises it
    monkeypatch.setattr(cli, "BLOCK", 64)
    cfg = SweepConfig(kind="length", device=base, start=0.01, stop=stop,
                      steps=steps)
    rows = sweep_length_rows(cfg)
    assert len(rows) == cfg.steps
    with np.errstate(over="ignore", invalid="ignore"):
        for length, row in zip(cfg.grid(), rows):
            dev = ContinuousDevice(base.gamma1, base.gamma2, base.kappa,
                                   float(length))
            assert row == _single_point_row(dev)
    statuses = {row["status"] for row in rows}
    assert "ok" in statuses and (base is FIG2 or "device:non-finite"
                                 in statuses and len(statuses) > 3)
    if steps % 64 == 1:
        assert rows[-1]["status"] == "device:non-finite"


def _transient_bytes(steps: int) -> int:
    """Peak traced memory of a fig2-device sweep beyond what its returned
    rows hold."""
    cfg = SweepConfig(kind="length", device=FIG2, start=0.01, stop=20.0,
                      steps=steps)
    tracemalloc.start()
    try:
        rows = sweep_length_rows(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == steps
    return peak - held


def test_memory_beyond_the_rows_does_not_grow_with_steps():
    # one block's stacks and cells, however many blocks the grid spans
    one_block = _transient_bytes(BLOCK)
    assert _transient_bytes(4 * BLOCK + 17) <= 1.2 * one_block + 64 * 1024


def _cli_peak(steps: int, out) -> int:
    tracemalloc.start()
    try:
        assert cli.main(["sweep-length", "--preset", "fig2", "--steps",
                         str(steps), "--out", str(out)]) == cli.EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_cli_holds_one_block_however_many_steps(tmp_path):
    # each block is written as it completes, so eight cost what one does
    one_block = _cli_peak(BLOCK, tmp_path / "sweep.csv")
    assert _cli_peak(8 * BLOCK + 17, tmp_path / "sweep.csv") \
        <= 1.2 * one_block + 64 * 1024


def _sweep(steps: int = 6):
    return sweep_length_rows(SweepConfig(kind="length", device=FIG2,
                                         start=0.5, stop=3.0, steps=steps))


def test_coherence_bound_is_a_tagged_domain_error(monkeypatch):
    # a negative slack puts every nonzero coherence past the bound
    monkeypatch.setattr(moments, "TOL",
                        Tolerances(coherence_bound_slack=-1.0))
    assert issubclass(CoherenceBoundError, PdcModelError)
    with pytest.raises(ValueError, match="unit bound"):
        signal_coherence(transfer_matrix(
            ContinuousDevice(0.1, 0.3, 3.0, 1.0)))
    for row in _sweep():
        assert row["status"] == "gamma:coherence-bound"
        assert row["gamma"] == "" and row["gamma_defined"] == "0"
        assert row["zou_g1"] != "" and row["ou_g1"] != ""


def test_parameter_cap_is_a_tagged_domain_error(monkeypatch):
    with pytest.raises(ParameterCapError, match="cap 10"):
        FourConverterScheme(g1=11.0, g2=0.0, g4=0.0, g5=0.0)
    assert issubclass(ParameterCapError, ValueError)
    # a cap below the fig2 couplings: both extractions fail on it
    monkeypatch.setattr(decompose, "TOL",
                        Tolerances(scheme_parameter_cap=0.02))
    with pytest.raises(ParameterCapError, match="cap 0.02"):
        extract_four_converter(transfer_matrix(
            ContinuousDevice(0.1, 0.3, 3.0, 1.0)))
    rows = _sweep()
    assert all(row["status"] == "zou:parameter-cap;ou:parameter-cap"
               for row in rows)
    assert all(row["zou_g1"] == row["ou_residual"] == "" for row in rows)
    assert all(row["gamma"] != "" for row in rows)


def test_per_tag_counts_of_a_sweep_are_bincounts_of_its_codes(capsys):
    # the status column shows the stage records: per stage, the count of
    # each tag is np.bincount of the stage's codes summed over the blocks,
    # where a row the device fails shows the device's tag alone
    assert cli.main(["sweep-length", "--gamma1", "1", "--gamma2", "1",
                     "--kappa", "0.5", "--from", "0.01", "--to", "30",
                     "--steps", "1100"]) == cli.EXIT_OK
    statuses = [line.rsplit(",", 1)[1]
                for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(statuses) == 1100
    counted = Counter(tag for status in statuses if status != "ok"
                      for tag in status.split(";"))
    grid = SweepConfig(kind="length", device=ABOVE, start=0.01, stop=30.0,
                       steps=1100).grid()
    totals: dict = {}
    ok = 0
    for start in range(0, len(grid), BLOCK):
        b = cli._Block(dev=ABOVE, x=grid[start:start + BLOCK])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # the stages the status column reads, in the order they run
            for stage in cli.LENGTH_TABLE["status"][1].split():
                getattr(b, stage)()
        device, stages = b.failed, [("gamma", b.gamma_status),
                                    ("zou", b.zou.failed), ("ou", b.ou.failed)]
        shown = [("device", device)] + [
            (prefix, np.where(device == 0, codes, 0))
            for prefix, codes in stages]
        for prefix, codes in shown:
            assert codes.dtype == np.uint8
            totals[prefix] = totals.get(prefix, 0) + np.bincount(
                codes, minlength=len(ERRORS))
        ok += int(np.all([codes == 0 for _, codes in shown], axis=0).sum())
    expected = Counter({f"{prefix}:{ERRORS[code].tag}": int(n)
                        for prefix, counts in totals.items()
                        for code, n in enumerate(counts) if code and n})
    assert counted == expected and statuses.count("ok") == ok
    assert len(expected) >= 4 and {key.split(":")[0] for key in expected} \
        >= {"zou", "ou"}


def test_sweep_range_outside_the_device_domain_is_a_usage_error():
    assert cli.main(["sweep-length", "--preset", "fig2",
                     "--from", "-1"]) == cli.EXIT_USAGE
    assert cli.main(["sweep-psi", "--preset", "fig7",
                     "--to", "2"]) == cli.EXIT_USAGE


def test_names_the_benchmark_tracer_wraps_resolve():
    # bench/spans.py reads or replaces these module attributes
    from coupledpdc import decompose, device, fock, moments, whichway
    names = {
        device: ["expm"],
        moments: ["vacuum_moments", "signal_coherence", "intensities"],
        decompose: ["vacuum_moments", "extract_four_converter",
                    "extract_interferometer"],
        whichway: ["geometry"],
        fock: ["expm_multiply"],
        cli: ["transfer_matrix", "cascaded_transfer_matrix", "evolve",
              "fock_observables", "sweep_length_rows", "sweep_psi_rows",
              "render_csv"],
    }
    for module, attributes in names.items():
        for attribute in attributes:
            assert callable(getattr(module, attribute)), attribute
    assert callable(device.TransferMatrix.__post_init__)
    assert isinstance(fock.FockBasis.__dict__["build"], classmethod)
    # the stacks go through the wrapped names: one call per block
    assert device.expm(np.zeros((3, 4, 4))).shape == (3, 4, 4)
    assert moments.vacuum_moments(np.zeros((3, 4, 4))).b["s1"].shape == (3,)


def test_a_length_sweep_calls_expm_once_per_block(monkeypatch):
    # the tracer's linalg.expm.calls and .max_dim count blocks and block
    # lengths; each call takes the whole block's stack
    from coupledpdc import device
    stacks, expm = [], device.expm

    def recorder(a):
        stacks.append(a)
        return expm(a)

    monkeypatch.setattr(device, "expm", recorder)
    cfg = SweepConfig(kind="length", device=FIG2, start=0.01, stop=20.0,
                      steps=2000)
    assert len(sweep_length_rows(cfg)) == 2000
    blocks = [cfg.grid()[start:start + BLOCK]
              for start in range(0, 2000, BLOCK)]
    assert len(stacks) == len(blocks) == 4
    h = build_hamiltonian(FIG2)
    for stack, lengths in zip(stacks, blocks):
        assert np.array_equal(stack, 1j * h * lengths[:, None, None])


def test_a_sweep_block_calls_no_lapack_routine(monkeypatch, capsys):
    # every stage of a block is a closed form, the interferometer's 2x2
    # SVD included: a batched numpy.linalg.svd would load LAPACK's
    # workspaces into every sweep process
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called on a sweep path")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    fig2 = ["sweep-length", "--preset", "fig2", "--steps", str(BLOCK)]
    for argv, rows in ((fig2, BLOCK), (["sweep-psi", "--preset", "fig7"],
                                       PRESETS["fig7"]["steps"])):
        assert cli.main(argv) == cli.EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + rows


def _csv_of_main(argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("preset, steps", [
    ("fig2", 50), ("fig7", 100),
    # three blocks, the last partial, so the stream has block seams
    ("fig2", 2 * BLOCK + 17), ("fig7", 2 * BLOCK + 17),
])
def test_rows_and_csv_are_two_views_of_one_engine(preset, steps, capsys,
                                                  tmp_path):
    p = PRESETS[preset]
    if p["kind"] == "length":
        device, rows_of, columns = FIG2, sweep_length_rows, LENGTH_COLUMNS
        argv = ["sweep-length"]
    else:
        device = CascadedDevice(p["r1"], p["r2"], 0.0)
        rows_of, columns, argv = sweep_psi_rows, PSI_COLUMNS, ["sweep-psi"]
    argv += ["--preset", preset, "--steps", str(steps)]
    rows = rows_of(SweepConfig(kind=p["kind"], device=device, start=p["start"],
                               stop=p["stop"], steps=steps))
    header, cells = _csv_of_main(argv, capsys)
    assert header == list(columns) and len(cells) == steps
    parsed = [dict(zip(header, line)) for line in cells]
    # the row view: length, iteration, indexing from either end, slices
    assert len(rows) == steps
    assert list(rows) == parsed
    assert [rows[i] for i in range(steps)] == parsed
    assert rows[-1] == parsed[-1] and rows[-steps] == parsed[0]
    assert rows[1:4] == parsed[1:4] and rows[::-7] == parsed[::-7]
    with pytest.raises(IndexError):
        rows[steps]
    # a selection keeps the canonical column order, whatever order it names
    picked = [columns[1], columns[0]]
    header, sub = _csv_of_main(argv + ["--columns", ",".join(picked)], capsys)
    assert header == [columns[0], columns[1]]
    assert sub == [line[:2] for line in cells]
    # the stream, to stdout or to --out, writes what render_csv renders
    out = tmp_path / "sweep.csv"
    for selected in (None, picked):
        chosen = [] if selected is None else ["--columns", ",".join(selected)]
        text = cli.render_csv(rows, selected)
        assert cli.main(argv + chosen) == cli.EXIT_OK
        assert capsys.readouterr().out == text
        assert cli.main(argv + chosen + ["--out", str(out)]) == cli.EXIT_OK
        assert out.read_bytes() == text.encode()


#: The sweeps whose column subsets are checked against the full CSV:
#: fig2, fig7 and the above-threshold device
SUBSET_SWEEPS = (
    ("sweep-length", "--preset", "fig2"),
    ("sweep-psi", "--preset", "fig7"),
    ("sweep-length", "--gamma1", "1", "--gamma2", "1", "--kappa", "0.5",
     "--from", "0.01", "--to", "30", "--steps", "1100"),
)


def _columns_of_main(argv) -> dict:
    """``{column: cells}`` of the CSV that ``cli.main(argv)`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == cli.EXIT_OK
    header, *lines = out.getvalue().splitlines()
    return dict(zip(header.split(","),
                    zip(*(line.split(",") for line in lines))))


_full_columns = functools.lru_cache(maxsize=None)(_columns_of_main)


@st.composite
def column_subsets(draw):
    argv = draw(st.sampled_from(SUBSET_SWEEPS))
    columns = LENGTH_COLUMNS if argv[0] == "sweep-length" else PSI_COLUMNS
    return argv, draw(st.lists(st.sampled_from(columns), min_size=1,
                               unique=True))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(column_subsets())
def test_a_selected_column_is_the_full_csvs_column(subset):
    # only the selected columns are formatted; a cell's bytes never depend
    # on which other columns are selected
    argv, selected = subset
    full = _full_columns(argv)
    got = _columns_of_main(argv + ("--columns", ",".join(selected)))
    assert list(got) == [c for c in full if c in selected]
    for column in selected:
        assert got[column] == full[column], column


def _refuse(*args, **kwargs):
    raise AssertionError("a stage ran that no selected column reads")


_FOUR_CONVERTER = [(decompose, "four_converter_stack")]
_INTERFEROMETER = [(decompose, "interferometer_stack")]
_GEOMETRY = [(whichway, "geometry_stack")]


@pytest.mark.parametrize("argv, refused", [
    (SUBSET_SWEEPS[0] + ("--columns", "L,gamma,gamma_defined,n_s1,n_s2,"
                                      "n_total_signal"),
     _FOUR_CONVERTER + _INTERFEROMETER + _GEOMETRY),
    (SUBSET_SWEEPS[1] + ("--columns", "psi,gamma"),
     _FOUR_CONVERTER + _INTERFEROMETER + _GEOMETRY),
    (SUBSET_SWEEPS[0] + ("--columns", "L,zou_g1,uv_angle,zou_residual"),
     _INTERFEROMETER),
    (SUBSET_SWEEPS[0] + ("--columns", "L,ou_g1,ou_residual"),
     _FOUR_CONVERTER + _GEOMETRY),
], ids=["fig2-coherence", "fig7-coherence", "fig2-four-converter",
        "fig2-interferometer"])
def test_a_selection_runs_only_the_stages_its_columns_read(argv, refused,
                                                           monkeypatch):
    # the stages no selected column reads are patched to raise, as the
    # LAPACK guard patches numpy.linalg; the cells stay the full CSV's
    full = _full_columns(argv[:-2])
    for module, name in refused:
        monkeypatch.setattr(module, name, _refuse)
    got = _columns_of_main(argv)
    selected = argv[-1].split(",")
    assert list(got) == selected
    for column in selected:
        assert got[column] == full[column], column
