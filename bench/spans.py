"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each coupledpdc
module with timing wrappers, at the names through which the calling
modules reach them (``cli.transfer_matrix``, ``decompose.vacuum_moments``,
``moments.signal_coherence`` and so on).  Nothing under ``src/`` changes.
A wrapper counts calls and adds up its span time; the time of wrapped
calls made inside a span is its children's time, and self time is span
time minus children's time.

Layers and what is wrapped:

* cli: ``sweep_length_rows``/``sweep_psi_rows`` as ``cli.rows`` (the
  row dicts and ``_fmt``, once the children are taken out) and
  ``render_csv``;
* device: ``transfer_matrix``, ``cascaded_transfer_matrix`` and the
  validation in ``TransferMatrix.__post_init__``, which runs on every
  construction;
* linalg: ``expm`` as bound in ``device`` and ``fock``, with the largest
  dimension it was given;
* moments: ``vacuum_moments`` (bound in ``moments`` and in
  ``decompose``), ``signal_coherence`` and ``intensities``;
* decompose: both extractions; an interferometer extraction that reports
  ``branch == "search"`` also counts under ``decompose.search``;
* whichway: ``geometry``;
* fock: ``FockBasis.build``, ``evolve``, its two kernels (the dense
  ``expm`` and the sparse ``expm_multiply``) and ``fock_observables``.
"""

import time

# per-layer metric -> unit; the suffix says how the per-pass value is made:
# .calls counts calls, .self_s is self time, .s is span time
METRICS = {
    "device.transfer_matrix.calls": "count",
    "device.transfer_matrix.self_s": "s",
    "device.cascaded_transfer_matrix.calls": "count",
    "device.TransferMatrix.calls": "count",
    "device.TransferMatrix.self_s": "s",
    "linalg.expm.calls": "count",
    "linalg.expm.self_s": "s",
    "linalg.expm.max_dim": "rows",
    "moments.vacuum_moments.calls": "count",
    "moments.vacuum_moments.self_s": "s",
    "moments.signal_coherence.self_s": "s",
    "moments.intensities.self_s": "s",
    "decompose.extract_four_converter.self_s": "s",
    "decompose.extract_interferometer.self_s": "s",
    "decompose.search.calls": "count",
    "decompose.search.s": "s",
    "decompose.moment_evals_per_extraction": "evals/extraction",
    "whichway.geometry.self_s": "s",
    "fock.FockBasis.build.s": "s",
    "fock.evolve.calls": "count",
    "fock.evolve.self_s": "s",
    "fock.expm_dense.s": "s",
    "fock.expm_multiply.s": "s",
    "fock.fock_observables.self_s": "s",
    "fock.basis_size": "states",
    "cli.rows.self_s": "s",
    "cli.render_csv.s": "s",
}

_EXTRACTIONS = ("decompose.extract_four_converter",
                "decompose.extract_interferometer")


class Tracer:
    """Call counts and span times per layer, reset before every pass."""

    def __init__(self):
        self._stack = []      # children's time of each open span
        self.reset()

    def reset(self):
        # span name -> [calls, span seconds, children's seconds]
        self.spans = {}
        self.max_dim = 0
        self.basis_size = 0
        self.in_extraction = 0
        self.moment_evals_in_extractions = 0

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(args, result, elapsed)`` runs once the call has returned,
        outside the timed interval.
        """
        stack, clock, tracer = self._stack, time.perf_counter, self

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                rec = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        return span

    def install(self):
        from coupledpdc import cli, decompose, device, fock, moments, whichway

        def expm_dim(args, result, elapsed):
            self.max_dim = max(self.max_dim, len(args[0]))

        def basis_size(args, result, elapsed):
            self.basis_size = max(self.basis_size, result.size)

        def moment_eval(args, result, elapsed):
            if self.in_extraction:
                self.moment_evals_in_extractions += 1

        def search(args, result, elapsed):
            if result.branch == "search":
                rec = self.spans.setdefault("decompose.search", [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed

        def extraction(name, fn, after=None):
            inner = self.wrap(name, fn, after)

            def counted(*args, **kwargs):
                self.in_extraction += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.in_extraction -= 1
            return counted

        expm = self.wrap("linalg.expm", device.expm, expm_dim)
        vacuum_moments = self.wrap("moments.vacuum_moments",
                                   moments.vacuum_moments, moment_eval)
        post_init = device.TransferMatrix.__post_init__
        build = fock.FockBasis.__dict__["build"].__func__

        device.expm = expm
        device.TransferMatrix.__post_init__ = self.wrap(
            "device.TransferMatrix", post_init)
        moments.vacuum_moments = vacuum_moments
        decompose.vacuum_moments = vacuum_moments
        moments.signal_coherence = self.wrap(
            "moments.signal_coherence", moments.signal_coherence)
        moments.intensities = self.wrap(
            "moments.intensities", moments.intensities)
        decompose.extract_four_converter = extraction(
            _EXTRACTIONS[0], decompose.extract_four_converter)
        decompose.extract_interferometer = extraction(
            _EXTRACTIONS[1], decompose.extract_interferometer, search)
        whichway.geometry = self.wrap("whichway.geometry", whichway.geometry)
        fock.expm = self.wrap("fock.expm_dense", expm)
        fock.expm_multiply = self.wrap("fock.expm_multiply",
                                       fock.expm_multiply)
        fock.FockBasis.build = classmethod(
            self.wrap("fock.FockBasis.build", build, basis_size))
        cli.transfer_matrix = self.wrap("device.transfer_matrix",
                                        cli.transfer_matrix)
        cli.cascaded_transfer_matrix = self.wrap(
            "device.cascaded_transfer_matrix", cli.cascaded_transfer_matrix)
        cli.evolve = self.wrap("fock.evolve", cli.evolve)
        cli.fock_observables = self.wrap("fock.fock_observables",
                                         cli.fock_observables)
        cli.sweep_length_rows = self.wrap("cli.rows", cli.sweep_length_rows)
        cli.sweep_psi_rows = self.wrap("cli.rows", cli.sweep_psi_rows)
        cli.render_csv = self.wrap("cli.render_csv", cli.render_csv)

    def snapshot(self):
        """The per-layer metrics of the pass since the last reset."""
        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def span_s(name):
            return self.spans.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            rec = self.spans.get(name, [0, 0.0, 0.0])
            return rec[1] - rec[2]

        extractions = sum(calls(name) for name in _EXTRACTIONS)
        out = {}
        for name in METRICS:
            if name == "linalg.expm.max_dim":
                value = self.max_dim
            elif name == "fock.basis_size":
                value = self.basis_size
            elif name == "decompose.moment_evals_per_extraction":
                value = (self.moment_evals_in_extractions / extractions
                         if extractions else 0.0)
            elif name.endswith(".calls"):
                value = calls(name[:-len(".calls")])
            elif name.endswith(".self_s"):
                value = self_s(name[:-len(".self_s")])
            else:
                value = span_s(name[:-len(".s")])
            out[name] = value
        return out
