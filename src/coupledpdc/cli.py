"""Command-line front end: parameter sweeps, oracle checks, extraction dumps.

Four subcommands:

* ``sweep-length`` -- sweep the interaction length of the continuous
  device, emitting one CSV row per grid point with intensities, the
  signal coherence, both extracted substituting schemes and their
  residuals.
* ``sweep-psi`` -- sweep the idler alignment angle of the cascaded
  device, emitting the coherence and the interferometer-scheme
  parameters.
* ``oracle-check`` -- compare the transfer-matrix observables against the
  truncated number-basis evolution at sampled lengths.
* ``decompose`` -- single-point extraction dump for either device.

CSV output is UTF-8, comma-separated, header row, LF line endings, with
shortest round-trip decimal formatting; undefined values are empty fields
accompanied by a flag or status column.  Rows come out in grid order and
the output is byte-identical across repeated runs.

Both sweeps run on one batched engine.  The grid goes through it in
blocks of :data:`BLOCK` points: one stacked transfer-matrix build with
its checks, the vacuum moments once per block as ``(N,)`` arrays, and
from them the coherence, the four-converter extraction and the
interferometer extraction, each vectorized over the block.  Every check
records a per-row failure instead of raising, and a row's status names
the first failed check of each stage.  The block size does not change
any result: each row is bit-identical to the same point computed on its
own through the single-point functions, which are batches of one.

The output is assembled by column, a block at a time: one list of cells
per column, the status cells built only for the rows where a check
failed.  The CLI writes a block's lines before the next block is
computed; a library sweep extends a :class:`Rows` from the same blocks,
which callers read one row (a ``{column: cell}`` dict) at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import math
import os
import sys
from collections import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np

from . import moments as mom
from .device import (
    CascadedDevice,
    ContinuousDevice,
    Regime,
    cascaded_stack,
    cascaded_transfer_matrix,
    classify_regime,
    stack_failures,
    transfer_matrix,
    transfer_stack,
)
from .errors import (
    CoherenceBoundError,
    DegenerateGeometryError,
    ExtractionResidualError,
    NonFiniteMatrixError,
    NonRealCorrelationError,
    PairConservationError,
    ParameterCapError,
    PdcModelError,
    SymplecticDriftError,
    TanhDomainError,
    TruncationLeakageError,
    UndefinedCoherenceError,
    ZeroSchemeError,
    first_of,
)

# the sweeps import decompose and whichway, and the number-basis commands
# fock, where they run, so that no command loads a route it does not take
if TYPE_CHECKING:
    from .decompose import SchemeStack
    from .fock import FockBasis


def __getattr__(name: str):
    # the single-state number-basis routes, which no command calls; the
    # per-layer tracer of bench/spans.py wraps them under these names
    if name in ("evolve", "fock_observables"):
        from . import fock
        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_LEAKAGE = 3

LENGTH_COLUMNS = (
    "L", "gamma", "gamma_defined", "n_s1", "n_s2", "n_total_signal",
    "zou_g1", "zou_g2", "zou_g4", "zou_g5", "uv_angle",
    "ou_g1", "ou_g2", "ou_phis", "ou_phii",
    "zou_residual", "ou_residual", "status",
)

PSI_COLUMNS = (
    "psi", "gamma", "ou_g1", "ou_g2", "ou_phis", "ou_phii",
    "ou_residual", "status",
)

COLUMN_DOCS = {
    "L": "interaction length of the continuous device",
    "psi": "idler alignment angle of the cascaded device (radians)",
    "gamma": "mutual signal coherence; real by convention (the imaginary "
             "unit is factored out); empty when undefined. For sweep-psi "
             "the sign convention is fixed so that perfect idler alignment "
             "(psi = pi/2) gives +1; the raw mixer phases of the cascade "
             "construction produce the opposite sign, a pure phase gauge.",
    "gamma_defined": "1 when gamma is defined at this row, 0 otherwise",
    "n_s1": "mean photon number of signal mode 1",
    "n_s2": "mean photon number of signal mode 2",
    "n_total_signal": "n_s1 + n_s2",
    "zou_g1": "direct converter coupling (s1-i1) of the four-converter scheme",
    "zou_g2": "direct converter coupling (s2-i2) of the four-converter scheme",
    "zou_g4": "crossed converter coupling (s1-i2) of the four-converter scheme",
    "zou_g5": "crossed converter coupling (s2-i1) of the four-converter scheme",
    "uv_angle": "oriented angle between the which-way vectors u = (g1, g4) "
                "and v = (g5, -g2), in (-pi, pi]",
    "ou_g1": "first converter coupling of the interferometer scheme; "
             "|ou_g1| >= |ou_g2|",
    "ou_g2": "second converter coupling of the interferometer scheme; "
             "|ou_g2| <= |ou_g1|",
    "ou_phis": "signal mixer angle of the interferometer scheme, (-pi/2, pi/2]",
    "ou_phii": "idler mixer angle of the interferometer scheme, (-pi/2, pi/2]",
    "zou_residual": "largest back-propagated correlation left by the "
                    "four-converter extraction (0 = exact)",
    "ou_residual": "largest back-propagated correlation left by the "
                   "interferometer extraction (0 = exact)",
    "status": "ok, or semicolon-separated failure tags per extraction; "
              "failed extractions leave their columns empty",
}

# canonical parameter sets used throughout the docs and tests; figures 4
# and 6 plot other columns of the fig2 sweep, so they are aliases of it
_FIG2 = dict(kind="length", gamma1=0.1, gamma2=0.3, kappa=3.0,
             start=0.01, stop=20.0, steps=2000)
PRESETS = {
    "fig2": _FIG2,
    "fig4": _FIG2,
    "fig6": _FIG2,
    "fig7": dict(kind="psi", r1=0.1, r2=0.1,
                 start=0.0, stop=math.pi / 2, steps=100),
}

#: Most grid points of one sweep.  Streamed by block, a fig2 length sweep
#: of this many steps takes 28 s and peaks at 42 MB of resident memory
#: (2 virtual CPUs); its CSV is about 335 MB.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SweepConfig:
    """A validated sweep request (variable, range, grid, output)."""

    kind: str                    # "length" | "psi"
    device: Union[ContinuousDevice, CascadedDevice]
    start: float
    stop: float
    steps: int
    out: str = "-"
    columns: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("length", "psi"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.start < self.stop:
            raise ValueError("sweep range must satisfy start < stop")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"a sweep needs 2 to {MAX_STEPS} steps, "
                             f"got {self.steps}")
        # every grid point must make a valid device; the grid is
        # monotone, so its two ends suffice
        for end in (self.start, self.stop):
            dataclasses.replace(self.device, **{self.kind: end})

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def _fmt(value: float) -> str:
    # shortest round-trip decimal; normalize -0.0
    return repr(float(value) + 0.0)


_STATUS_TAGS = {
    UndefinedCoherenceError: "undefined-coherence",
    NonRealCorrelationError: "non-real-correlation",
    TanhDomainError: "tanh-domain",
    ExtractionResidualError: "residual-too-large",
    TruncationLeakageError: "leakage",
    NonFiniteMatrixError: "non-finite",
    SymplecticDriftError: "symplectic-drift",
    PairConservationError: "pair-conservation",
    CoherenceBoundError: "coherence-bound",
    ParameterCapError: "parameter-cap",
    ZeroSchemeError: "zero-scheme",
    DegenerateGeometryError: "degenerate-geometry",
}


def _tag(exc: PdcModelError) -> str:
    return _STATUS_TAGS.get(type(exc), "error")


#: Grid points per pass of the sweep engine.  The CLI holds one block's
#: stacks and cells, a tracemalloc peak of about 1.1 MB on fig2, however
#: many steps a sweep has; a library sweep also holds its output cells.
BLOCK = 512


def _column(values: np.ndarray) -> List[str]:
    """:func:`_fmt` of each value."""
    return list(map(repr, (values + 0.0).tolist()))


def _cells(values: np.ndarray, failed: np.ndarray) -> List[str]:
    """One column of a block, empty where the row failed."""
    cells = _column(values)
    for i in np.flatnonzero(np.not_equal(failed, None)):
        cells[i] = ""
    return cells


def _scheme_cells(prefix: str, scheme: SchemeStack) -> Dict[str, List[str]]:
    cells = {f"{prefix}_{name.replace('_', '')}": _cells(values, scheme.failed)
             for name, values in scheme.params.items()}
    cells[f"{prefix}_residual"] = _cells(scheme.residual, scheme.failed)
    return cells


def _length_block(dev: ContinuousDevice, lengths: np.ndarray):
    """Cells, device failures and (stage, failures) of one block of a
    length sweep; a failure of the moments is the device's, and an
    undefined coherence an empty cell with ``gamma_defined = 0``."""
    from . import decompose as dec
    from . import whichway as ww
    m = transfer_stack(dev, lengths)
    ms = mom.vacuum_moments(m)
    device = first_of(stack_failures(m), ms.failed)
    coh, gamma_failed = mom.coherence_of(ms, device)
    zou = dec.four_converter_stack(m, ms, device)
    ou = dec.interferometer_stack(m, ms, device)
    geo, geo_failed = ww.geometry_stack(*(zou.params[g] for g in
                                          ("g1", "g2", "g4", "g5")))
    defined = np.where(np.equal(gamma_failed, None), "1", "0")
    undefined = [isinstance(f, UndefinedCoherenceError) for f in gamma_failed]
    cells = {
        "gamma": _cells(coh.gamma, gamma_failed),
        "gamma_defined": np.where(np.equal(device, None), defined, "").tolist(),
        "n_s1": _cells(ms.b["s1"], device),
        "n_s2": _cells(ms.b["s2"], device),
        "n_total_signal": _cells(ms.b["s1"] + ms.b["s2"], device),
        "uv_angle": _cells(geo.angle, first_of(zou.failed, geo_failed)),
        **_scheme_cells("zou", zou), **_scheme_cells("ou", ou),
    }
    return cells, device, [("gamma", np.where(undefined, None, gamma_failed)),
                           ("zou", zou.failed), ("ou", ou.failed)]


def _psi_block(dev: CascadedDevice, psis: np.ndarray):
    """As :func:`_length_block` for a psi sweep, where a failure of the
    moments is the coherence's and the extraction's; the gamma column
    uses the aligned-idler sign convention (see COLUMN_DOCS["gamma"])."""
    from . import decompose as dec
    m = cascaded_stack(dev, psis)
    device = stack_failures(m)
    ms = mom.vacuum_moments(m)
    upstream = first_of(device, ms.failed)
    coh, gamma_failed = mom.coherence_of(ms, upstream)
    ou = dec.interferometer_stack(m, ms, upstream)
    cells = {"gamma": _cells(-coh.gamma, gamma_failed),
             **_scheme_cells("ou", ou)}
    return cells, device, [("gamma", gamma_failed), ("ou", ou.failed)]


def _status(device: np.ndarray, stages) -> List[str]:
    """Status cells: the device's tag alone, else the tags of the failed
    stages joined by ``;``, else ``ok``."""
    out = ["ok"] * len(device)
    failed_rows = np.not_equal(device, None)
    for _, failed in stages:
        failed_rows |= np.not_equal(failed, None)
    for i in np.flatnonzero(failed_rows):
        out[i] = (f"device:{_tag(device[i])}" if device[i] is not None
                  else ";".join(f"{prefix}:{_tag(failed[i])}"
                                for prefix, failed in stages
                                if failed[i] is not None))
    return out


class Rows(abc.Sequence):
    """The rows of a sweep, held as one list of CSV cells per column.

    Read one row at a time, it is a read-only sequence of ``{column:
    cell}`` dicts in grid order, each built on access;
    :func:`render_csv` joins the columns without building them.
    """

    def __init__(self, columns: Sequence[str], cells: Dict[str, List[str]]):
        self.columns = tuple(columns)
        self.cells = cells

    def __len__(self) -> int:
        return len(self.cells[self.columns[0]])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return {c: self.cells[c][index] for c in self.columns}


def _sweep_blocks(cfg: SweepConfig, columns: Sequence[str], block):
    """Each block's CSV cells, a ``{column: cells}`` dict, in grid order.

    The grid goes through ``block`` :data:`BLOCK` points at a time.  No
    point aborts the sweep: a failure leaves the affected columns empty
    and the status column carries a tag (``device:`` when the transfer
    matrix or its occupations already fail).  A block is dropped before
    the next one is computed, so a consumer that drops it too holds one.
    """
    grid = cfg.grid()
    for start in range(0, len(grid), BLOCK):
        values = grid[start:start + BLOCK]
        # overflow far above threshold is caught and tagged, not warned about
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cells, device, stages = block(cfg.device, values)
        cells[columns[0]] = _column(values)
        cells["status"] = _status(device, stages)
        yield cells
        del cells, device, stages


def _sweep_rows(cfg: SweepConfig, columns: Sequence[str], block) -> Rows:
    """The cells of every grid point (see :func:`_sweep_blocks`)."""
    rows = Rows(columns, {c: [] for c in columns})
    for cells in _sweep_blocks(cfg, columns, block):
        for c in columns:
            rows.cells[c].extend(cells[c])
    return rows


def sweep_length_rows(cfg: SweepConfig) -> Rows:
    """Evaluate a length sweep of the continuous device (see
    :func:`_sweep_rows`)."""
    return _sweep_rows(cfg, LENGTH_COLUMNS, _length_block)


def sweep_psi_rows(cfg: SweepConfig) -> Rows:
    """Evaluate an alignment-angle sweep of the cascaded device (see
    :func:`_sweep_rows`); the raw coherence of the cascade construction
    is negated so that full alignment reports +1."""
    return _sweep_rows(cfg, PSI_COLUMNS, _psi_block)


def _csv_lines(names: Sequence[str], cells: Dict[str, List[str]]) -> str:
    """One LF-ended CSV line per row of the ``names`` columns of ``cells``."""
    return "".join([line + "\n" for line in
                    map(",".join, zip(*(cells[c] for c in names)))])


def _write(fh, texts: abc.Iterable[str]) -> None:
    """``fh.writelines(texts)``.  Where ``fh`` is text over a raw file
    (standard output under ``python -u``), one raw write may take part of
    a text and the text layer drops the rest, so each text's bytes go in
    a loop until every one is taken: a gone reader raises BrokenPipeError."""
    raw = getattr(fh, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        fh.writelines(texts)
        return
    fh.flush()
    for text in texts:
        data = memoryview(text.encode(fh.encoding, fh.errors))
        while data:
            data = data[raw.write(data):]


def render_csv(rows: Rows, selected: Optional[Sequence[str]] = None) -> str:
    """CSV text of ``rows``: the header, then one line per row, of the
    ``selected`` columns (all by default) in the sweep's column order."""
    names = [c for c in rows.columns if selected is None or c in selected]
    return ",".join(names) + "\n" + _csv_lines(names, rows.cells)


def _describe(columns: Sequence[str]) -> str:
    width = max(len(c) for c in columns)
    return "\n".join(f"{c.ljust(width)}  {COLUMN_DOCS[c]}" for c in columns) + "\n"


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage error is one line on stderr."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="use a canonical parameter set")
    p.add_argument("--from", dest="start", type=float, help="sweep start")
    p.add_argument("--to", dest="stop", type=float, help="sweep end")
    p.add_argument("--steps", type=int, help="number of grid points (>= 2)")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--columns", help="comma-separated column subset")
    p.add_argument("--describe-columns", action="store_true",
                   help="print column documentation and exit")


def _continuous_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma1", type=float, help="first converter strength")
    p.add_argument("--gamma2", type=float, help="second converter strength")
    p.add_argument("--kappa", type=float, help="idler exchange strength")


def _cascaded_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r1", type=float, help="first converter squeezing")
    p.add_argument("--r2", type=float, help="second converter squeezing")


def _oracle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--points", default="0.5,1.0,1.5,2.0",
                   help="comma-separated interaction lengths")
    p.add_argument("--nmax", type=int, default=4,
                   help="per-mode photon-number cutoff")
    p.add_argument("--tolerance", type=float, default=1e-3,
                   help="largest allowed deviation")


def _decompose_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", type=float,
                   help="interaction length (continuous device)")
    p.add_argument("--psi", type=float,
                   help="alignment angle (cascaded device)")
    p.add_argument("--nmax", type=int, default=0,
                   help="if > 0, also run the number-basis cross-check")


_CONTINUOUS = ("gamma1", "gamma2", "kappa")
#: The keys a sweep cannot run without, by group of options
_SWEEP_NEEDS = {"length": (_CONTINUOUS, ("start", "stop", "steps")),
                "psi": (("r1", "r2"), ("steps",))}


def _fill_preset(args, wanted_kind: str, needs=()) -> Optional[dict]:
    """Merge preset values and explicit flags; explicit flags win.  Where
    a group of keys in ``needs`` is incomplete, name it and return None."""
    merged: dict = {}
    if args.preset:
        preset = PRESETS[args.preset]
        if preset["kind"] != wanted_kind:
            raise ValueError(
                f"preset {args.preset!r} configures a "
                f"{preset['kind']} sweep, not {wanted_kind}")
        merged.update(preset)
    for key in (*_CONTINUOUS, "r1", "r2", "start", "stop", "steps"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    missing = ["/".join("--" + {"start": "from", "stop": "to"}.get(k, k)
                        for k in group)
               for group in needs if not merged.keys() >= set(group)]
    if missing:
        print(f"{args.command} needs {' and '.join(missing)} or a preset",
              file=sys.stderr)
        return None
    return merged


def _cmd_sweep(args, kind: str) -> int:
    columns = LENGTH_COLUMNS if kind == "length" else PSI_COLUMNS
    if args.describe_columns:
        sys.stdout.write(_describe(columns))
        return EXIT_OK
    merged = _fill_preset(args, kind, _SWEEP_NEEDS[kind])
    if merged is None:
        return EXIT_USAGE
    try:
        if kind == "length":
            dev = ContinuousDevice(*(merged[k] for k in _CONTINUOUS), 0.0)
        else:
            dev = CascadedDevice(merged["r1"], merged["r2"], 0.0)
            merged.setdefault("start", 0.0)
            merged.setdefault("stop", math.pi / 2)
        cfg = SweepConfig(kind=kind, device=dev,
                          start=merged["start"], stop=merged["stop"],
                          steps=int(merged["steps"]), out=args.out,
                          columns=_parse_columns(args, columns))
    except (ValueError, TypeError) as exc:
        print(f"invalid sweep configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # the output is opened before any grid point is computed
    try:
        out = (contextlib.nullcontext(sys.stdout) if cfg.out == "-" else
               open(cfg.out, "w", encoding="utf-8", newline="\n"))
    except OSError as exc:
        print(f"cannot write --out {cfg.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    names = [c for c in columns if cfg.columns is None or c in cfg.columns]
    lines = map(lambda cells: _csv_lines(names, cells), _sweep_blocks(
        cfg, columns, _length_block if kind == "length" else _psi_block))
    with out as fh:
        # the header goes with the first block: one write for one block
        _write(fh, [",".join(names) + "\n" + next(lines)])
        _write(fh, lines)
    return EXIT_OK


def _parse_columns(args, known: Sequence[str]) -> Optional[Sequence[str]]:
    if args.columns is None:
        return None
    wanted = [c.strip() for c in args.columns.split(",") if c.strip()]
    unknown = sorted(set(wanted) - set(known))
    if not wanted:
        raise ValueError("--columns names no column")
    if unknown:
        raise ValueError(f"unknown columns: {', '.join(unknown)}")
    return wanted


@dataclass(frozen=True)
class OracleDeviation:
    """Transfer-matrix vs number-basis deviations; ``dgamma`` is ``None``
    where the coherence is undefined."""

    dintensity: float
    dgamma: Optional[float]
    leakage: float

    def fields(self) -> str:
        gamma_note = ("gamma=undefined (skipped)" if self.dgamma is None
                      else f"dgamma={self.dgamma:.3e}")
        return (f"dintensity={self.dintensity:.3e} {gamma_note} "
                f"leakage={self.leakage:.3e}")


#: Oracle lengths per shared Chebyshev recurrence.  A block's amplitudes
#: take 16 bytes per basis state and length (16 MB per length at the
#: largest cutoff, ``--nmax 113``).
ORACLE_BLOCK = 4


def oracle_deviations(dev: ContinuousDevice, basis: FockBasis,
                      generator, lengths: Sequence[float],
                      ) -> List[Union[OracleDeviation, Exception]]:
    """Compare ``dev``'s intensities and coherence on both routes at each
    of ``lengths``, where ``generator`` is
    :func:`~coupledpdc.fock.build_generator` of ``dev`` on ``basis``.

    A length that fails carries its first failure instead of a deviation:
    a check of the transfer matrix or of its moments, then one of
    :func:`~coupledpdc.fock.evolve_stack` (a
    :class:`~coupledpdc.errors.TruncationLeakageError` at the cutoff),
    then a coherence beyond the unit bound.  Each side runs once on the
    whole block, a transfer-matrix stack or a number-basis recurrence, and
    reads its coherence by :func:`~coupledpdc.moments.coherence_of`."""
    from . import fock
    grid = np.array(lengths, dtype=float)
    m = transfer_stack(dev, grid)
    ms = mom.vacuum_moments(m)
    failed = first_of(stack_failures(m), ms.failed)
    coh, coh_failed = mom.coherence_of(ms, failed)
    states, fock_failed = fock.evolve_stack(generator, basis, grid)
    failed = first_of(failed, fock_failed)
    fock_ms = fock.moments_stack(states)
    fock_coh, fock_coh_failed = mom.coherence_of(fock_ms, fock_ms.failed)
    dintensity = np.max([np.abs(fock_ms.b[mode] - ms.b[mode])
                         for mode in ms.b], axis=0)
    # an undefined coherence on either side skips dgamma, the number
    # basis's first; one beyond the unit bound fails the length
    gamma_failed = first_of(fock_coh_failed, coh_failed)
    out: List[Union[OracleDeviation, Exception]] = []
    for i, state in enumerate(states):
        if failed[i] is not None:
            out.append(failed[i])
        elif isinstance(gamma_failed[i], CoherenceBoundError):
            out.append(gamma_failed[i])
        else:
            dgamma = (None if gamma_failed[i] is not None else
                      abs(float(fock_coh.gamma[i]) - float(coh.gamma[i])))
            out.append(OracleDeviation(float(dintensity[i]), dgamma,
                                       state.leakage))
    return out


def _oracle_applies(dev, command: str) -> bool:
    """Whether the number-basis oracle can follow ``dev``; if not, say why."""
    if isinstance(dev, CascadedDevice):
        print(f"{command} needs a continuous device; the number basis does "
              "not model the cascade", file=sys.stderr)
        return False
    regime = classify_regime(dev)
    if regime is not Regime.BELOW_THRESHOLD:
        print(f"{command} requires a below-threshold device (the truncated "
              f"basis cannot follow exponential growth); got {regime.value}",
              file=sys.stderr)
    return regime is Regime.BELOW_THRESHOLD


def _cmd_oracle_check(args) -> int:
    merged = _fill_preset(args, "length", [_CONTINUOUS])
    if merged is None:
        return EXIT_USAGE
    merged_args = {key: merged[key] for key in _CONTINUOUS}
    try:
        lengths = [float(tok) for tok in args.points.split(",") if tok.strip()]
    except ValueError:
        print(f"could not parse --points {args.points!r}", file=sys.stderr)
        return EXIT_USAGE
    if not lengths or args.nmax < 1 or not 0.0 <= args.tolerance < math.inf:
        print("need at least one length, --nmax >= 1 and a finite "
              "--tolerance >= 0", file=sys.stderr)
        return EXIT_USAGE

    probe = ContinuousDevice(**merged_args, length=0.0)
    if not _oracle_applies(probe, "oracle-check"):
        return EXIT_USAGE
    # every length is checked before any is evaluated
    for length in lengths:
        ContinuousDevice(**merged_args, length=length)

    from . import fock
    basis = fock.FockBasis.build(args.nmax)
    generator = fock.build_generator(probe, basis)
    fock.check_lengths(generator, lengths)
    worst_intensity = 0.0
    worst_gamma = 0.0
    worst_leak = 0.0
    for start in range(0, len(lengths), ORACLE_BLOCK):
        block = lengths[start:start + ORACLE_BLOCK]
        for length, deviation in zip(block, oracle_deviations(
                probe, basis, generator, block)):
            if isinstance(deviation, TruncationLeakageError):
                print(f"L={_fmt(length)}: {deviation}", file=sys.stderr)
                return EXIT_LEAKAGE
            if isinstance(deviation, Exception):
                raise deviation
            worst_intensity = max(worst_intensity, deviation.dintensity)
            worst_gamma = max(worst_gamma, deviation.dgamma or 0.0)
            worst_leak = max(worst_leak, deviation.leakage)
            print(f"L={_fmt(length)} {deviation.fields()}")
    print(f"max intensity deviation: {worst_intensity:.3e}")
    print(f"max gamma deviation:     {worst_gamma:.3e}")
    print(f"max leakage proxy:       {worst_leak:.3e}")
    if max(worst_intensity, worst_gamma) > args.tolerance:
        print(f"FAIL: deviation exceeds tolerance {args.tolerance:g}")
        return EXIT_TOLERANCE
    print(f"PASS (tolerance {args.tolerance:g})")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    continuous = args.gamma1 is not None or args.gamma2 is not None \
        or args.kappa is not None or args.length is not None
    cascaded = args.r1 is not None or args.r2 is not None \
        or args.psi is not None
    if continuous == cascaded:
        print("decompose needs either --gamma1/--gamma2/--kappa/--length "
              "or --r1/--r2/--psi", file=sys.stderr)
        return EXIT_USAGE
    try:
        if continuous:
            dev = ContinuousDevice(args.gamma1 or 0.0, args.gamma2 or 0.0,
                                   args.kappa or 0.0, args.length or 0.0)
            tm = transfer_matrix(dev)
        else:
            dev = CascadedDevice(args.r1 or 0.0, args.r2 or 0.0,
                                 args.psi or 0.0)
            tm = cascaded_transfer_matrix(dev)
    except ValueError as exc:
        print(f"invalid device: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.nmax > 0 and not _oracle_applies(dev, "decompose --nmax"):
        return EXIT_USAGE
    basis = generator = None
    if args.nmax > 0:
        from . import fock
        basis = fock.FockBasis.build(args.nmax)
        generator = fock.build_generator(dev, basis)
        fock.check_lengths(generator, [dev.length])
    if continuous:
        print(f"device=continuous gamma1={_fmt(dev.gamma1)} "
              f"gamma2={_fmt(dev.gamma2)} kappa={_fmt(dev.kappa)} "
              f"length={_fmt(dev.length)}")
        print(f"regime={classify_regime(dev).value}")
    else:
        print(f"device=cascaded r1={_fmt(dev.r1)} r2={_fmt(dev.r2)} "
              f"psi={_fmt(dev.psi)}")
    inten = mom.intensities(tm)
    print(f"n_s1={_fmt(inten.s1)} n_s2={_fmt(inten.s2)} "
          f"n_i1={_fmt(inten.i1)} n_i2={_fmt(inten.i2)}")
    try:
        coh = mom.signal_coherence(tm)
        print(f"gamma={_fmt(coh.gamma)} imag_residue={coh.imag_residue:.3e} "
              f"fragile={int(coh.fragile)}")
    except UndefinedCoherenceError:
        print("gamma=undefined")
    from . import decompose as dec
    from . import whichway as ww
    try:
        zou = dec.extract_four_converter(tm)
        s = zou.scheme
        print(f"zou_g1={_fmt(s.g1)} zou_g2={_fmt(s.g2)} "
              f"zou_g4={_fmt(s.g4)} zou_g5={_fmt(s.g5)} "
              f"zou_residual={_fmt(zou.residual)}")
        try:
            geo = ww.geometry(s)
            print(f"uv_dot={_fmt(geo.dot)} uv_cross={_fmt(geo.cross)} "
                  f"uv_angle={_fmt(geo.angle)} gamma_sq="
                  f"{_fmt(geo.gamma_sq)} degenerate={int(geo.degenerate)}")
        except PdcModelError as exc:
            print(f"which-way geometry failed: {_tag(exc)}")
        bound = dec.gain_bound(tm, s)
        print(f"signal_total={_fmt(bound.signal_total)} "
              f"scheme_total={_fmt(bound.scheme_total)} "
              f"parameter_cap={_fmt(bound.parameter_cap)} "
              f"bound_violated={int(bound.violated)}")
    except PdcModelError as exc:
        print(f"four-converter extraction failed: {_tag(exc)}")
    try:
        ou = dec.extract_interferometer(tm)
        s = ou.scheme
        print(f"ou_g1={_fmt(s.g1)} ou_g2={_fmt(s.g2)} "
              f"ou_phis={_fmt(s.phi_s)} ou_phii={_fmt(s.phi_i)} "
              f"ou_residual={_fmt(ou.residual)} branch={ou.branch}")
    except PdcModelError as exc:
        print(f"interferometer extraction failed: {_tag(exc)}")
    if basis is not None:
        (deviation,) = oracle_deviations(dev, basis, generator, [dev.length])
        if isinstance(deviation, TruncationLeakageError):
            print(f"nmax={args.nmax}: {deviation}", file=sys.stderr)
            return EXIT_LEAKAGE
        if isinstance(deviation, Exception):
            raise deviation
        print(f"nmax={args.nmax} {deviation.fields()}")
    return EXIT_OK


#: Each command's help line, the functions that add its arguments (in
#: order) and its handler
COMMANDS = {
    "sweep-length": (
        "sweep the interaction length of the continuous device",
        (_continuous_args, _add_common), lambda a: _cmd_sweep(a, "length")),
    "sweep-psi": (
        "sweep the idler alignment angle of the cascaded device",
        (_cascaded_args, _add_common), lambda a: _cmd_sweep(a, "psi")),
    "oracle-check": (
        "cross-check transfer-matrix results against the truncated "
        "number-basis evolution",
        (_continuous_args, _oracle_args), _cmd_oracle_check),
    "decompose": ("single-point extraction dump",
                  (_continuous_args, _cascaded_args, _decompose_args),
                  _cmd_decompose),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of all four commands, for the top-level help."""
    parser = _Parser(prog="coupledpdc",
                     description="Coupled-downconverter coherence simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, adders, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for add in adders:
            add(p)
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, but where ``argv[0]`` names a
    command only that command's parser is built, at a fifth of the cost."""
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    parser = _Parser(prog=f"coupledpdc {argv[0]}")
    for add in COMMANDS[argv[0]][1]:
        add(parser)
    args = parser.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits with 2 on usage problems; fold into our code
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # stderr carries the program's own lines only, no numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = COMMANDS[args.command][2](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: the rest goes to the null device; exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
