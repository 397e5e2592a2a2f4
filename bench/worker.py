"""One measuring process of the benchmark.

Started by ``run.py`` as a fresh interpreter, with ``src/`` of the
checkout on ``PYTHONPATH``.  It imports numpy, scipy and the program,
parses the command line once (that is the set-up), then calls
``coupledpdc.cli.main`` on the same arguments pass after pass, with the
program's standard output and error captured in memory.  Its own last
line of standard output is one JSON object for ``run.py``:

* ``setup_s``: seconds from the spawn time handed over as ``t0`` until
  the first pass is ready;
* ``passes``: wall and CPU seconds, exit code and output digest of every
  pass, and the contention it met, NaN where the kernel does not give
  it: ``wait``, the seconds this thread spent runnable but waiting for a
  CPU (``/proc/thread-self/schedstat``; the program's own BLAS threads
  cause some of it), ``others``, the CPU seconds the rest of the machine
  used, and ``steal``, the CPU seconds the hypervisor took from the
  machine (both from ``/proc/stat``);
* ``outputs``: the text of each distinct output, keyed by digest;
* ``peak_rss_kb``: peak resident memory of this process;
* ``machine``: core count and the Python, numpy and scipy versions;
* ``layers``: with tracing on, the per-pass layer figures (see
  ``spans.py``);
* ``matrices``: for the oracle workloads, the program's transfer matrices
  at the oracle lengths, computed after the timed passes.

Usage (normally only from run.py)::

    python3 bench/worker.py '<json spec>'
"""

import time  # first, so nothing the set-up pays for goes unmeasured
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback


def _contention():
    """(run-queue delay of this thread, busy and steal CPU time of the
    machine), in seconds; NaN where the kernel does not give them."""
    try:
        with open("/proc/thread-self/schedstat", encoding="ascii") as fh:
            wait = int(fh.read().split()[1]) / 1e9
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, IndexError, ValueError):
        return math.nan, math.nan, math.nan
    hz = os.sysconf("SC_CLK_TCK")
    user, nice, system, _, _, irq, softirq, steal = ticks
    return wait, (user + nice + system + irq + softirq) / hz, steal / hz


def _pass(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    before = _contention()
    wall, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            # the command aborted: every operation of the pass fails, and
            # the traceback goes into the pass's output for the record
            traceback.print_exc()
            code = "exception"
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    wait, busy, steal = (b - a for a, b in zip(before, _contention()))
    text = f"exit={code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return {"wall": wall, "cpu": cpu, "code": code, "wait": wait,
            "others": busy - cpu, "steal": steal}, text


def main() -> int:
    spec = json.loads(sys.argv[1])
    import numpy  # the set-up a user of the CLI pays on every run
    import scipy
    from coupledpdc import cli
    cli.build_parser().parse_args(spec["argv"])
    setup_s = time.perf_counter() - spec["t0"]

    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"coupledpdc imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    passes, outputs, layers = [], {}, []
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        record, text = _pass(cli, spec["argv"])
        if tracer is not None:
            layers.append(tracer.snapshot())
        record["digest"] = hashlib.sha256(text.encode()).hexdigest()
        outputs.setdefault(record["digest"], text)
        passes.append(record)
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall"] for p in passes)
        # stop when one more pass would end nearer past the slice than
        # stopping now falls short of it
        if elapsed + typical / 2 >= spec["seconds"]:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    matrices = []
    if spec.get("lengths"):
        from coupledpdc.device import ContinuousDevice, transfer_matrix
        g1, g2, kappa = spec["device"]
        for length in spec["lengths"]:
            m = transfer_matrix(ContinuousDevice(g1, g2, kappa, length)).matrix
            matrices.append([[[z.real, z.imag] for z in row] for row in m])

    sys.stdout.write(json.dumps({
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "setup_s": setup_s,
        "passes": passes,
        "outputs": outputs,
        "peak_rss_kb": peak_rss_kb,
        "layers": layers,
        "matrices": matrices,
    }) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
