"""coupledpdc benchmark: the four canonical CLI runs, end to end and by layer.

Run from the root of a checkout::

    python3 bench/run.py --workload fig2-length --seed 0 --seconds 20 --trace 0

Workloads (each pass is one ``coupledpdc.cli.main`` call; an operation is
one grid point or one oracle length):

* ``fig2-length``: ``sweep-length --preset fig2``, 2000 points of the
  continuous device;
* ``fig7-psi``: ``sweep-psi --preset fig7``, 100 points of the cascaded
  device, the last one (psi = pi/2) on the extraction's search path;
* ``oracle-n4``: ``oracle-check --preset fig2 --nmax 4``, 625 basis
  states, dense matrix exponential;
* ``oracle-n8``: ``oracle-check --preset fig2 --nmax 8``, 6561 basis
  states, sparse exponential action.

Seed 0 gives the presets exactly.  Other seeds shift the fig2 grid by a
fraction of a step, move the fig7 start by a fraction of a step (psi =
pi/2 stays the last point), and move each of the four oracle lengths
0.5, 1.0, 1.5, 2.0 inwards by up to 0.05, so they stay in [0.5, 2.0].

The run starts ``WORKERS`` fresh interpreters one after another
(``worker.py``), each measuring passes for an equal share of
``--seconds``.  Every distinct output is then checked against
computations made outside the program (``reference.py``), untimed.  The
last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: points per
second and CPU seconds per pass over all timed passes of the run, and the
medians of ``setup_s`` and ``peak_rss_mb`` over the workers.  The
record and standard error also give the contention the passes met, and
flag a run whose steal share exceeds ``BUSY_STEAL``.  With
``--trace 1`` the workers wrap each module's public functions
(``spans.py``) and the metrics are the per-layer figures, medians per
pass.  The full record of a run goes to ``bench/results/``.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

#: Fresh processes per run, and so samples of ``setup_s``.  Pass times
#: differ between processes by up to about 20 % on a 2-core machine, so
#: one process is too few, and a median of three set-ups still moved by a
#: quarter between runs.
WORKERS = 5
#: A run is flagged as met by a busy host when the hypervisor's steal
#: took more than this share of the machine's CPU time during its timed
#: passes.  Steal itself costs little, but it marks the stretches in which
#: the host's other guests slow this one far more (shared cores and
#: caches): runs at 1-5 % steal read up to a third slower than runs
#: below 0.4 %.
BUSY_STEAL = 0.01
#: The whole run, checks included, must end well inside 180 s.
DEADLINE_S = 150.0

FIG2 = dict(gamma1=0.1, gamma2=0.3, kappa=3.0, start=0.01, stop=20.0,
            steps=2000)
FIG7 = dict(r1=0.1, r2=0.1, start=0.0, stop=math.pi / 2, steps=100)
ORACLE_LENGTHS = [0.5, 1.0, 1.5, 2.0]

WORKLOADS = ("fig2-length", "fig7-psi", "oracle-n4", "oracle-n8")

END_TO_END = {
    "points_per_s": "points/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


def make_inputs(workload, seed):
    """The CLI arguments of ``workload`` for ``seed`` and what they mean."""
    rng = random.Random(seed)
    if workload == "fig2-length":
        step = (FIG2["stop"] - FIG2["start"]) / (FIG2["steps"] - 1)
        shift = 0.0 if seed == 0 else rng.random() * step
        start, stop = FIG2["start"] + shift, FIG2["stop"] + shift
        argv = ["sweep-length", "--preset", "fig2"]
        if seed != 0:
            argv += ["--from", repr(start), "--to", repr(stop)]
        return argv, dict(start=start, stop=stop, steps=FIG2["steps"])
    if workload == "fig7-psi":
        step = (FIG7["stop"] - FIG7["start"]) / (FIG7["steps"] - 1)
        start = 0.0 if seed == 0 else rng.random() * step
        argv = ["sweep-psi", "--preset", "fig7"]
        if seed != 0:
            argv += ["--from", repr(start)]
        return argv, dict(start=start, stop=FIG7["stop"], steps=FIG7["steps"])
    nmax = workload[len("oracle-n"):]
    argv = ["oracle-check", "--preset", "fig2", "--nmax", nmax]
    if seed == 0:
        lengths = list(ORACLE_LENGTHS)
    else:
        # each preset length moves inwards by up to a tenth of the 0.5
        # spacing; the truncation error peaks near L = 1.8, so draws over
        # all of [0.5, 2.0] would move the worst deviation by a factor 3
        lengths = [x + math.copysign(0.05 * rng.random(), 1.25 - x)
                   for x in ORACLE_LENGTHS]
        argv += ["--points", ",".join(repr(x) for x in lengths)]
    return argv, dict(lengths=lengths)


def check(workload, inputs, text, matrices):
    if workload == "fig2-length":
        return reference.check_length_sweep(
            text, (FIG2["gamma1"], FIG2["gamma2"], FIG2["kappa"]),
            inputs["start"], inputs["stop"], inputs["steps"])
    if workload == "fig7-psi":
        return reference.check_psi_sweep(
            text, FIG7["r1"], FIG7["r2"],
            inputs["start"], inputs["stop"], inputs["steps"])
    return reference.check_oracle(
        text, matrices, (FIG2["gamma1"], FIG2["gamma2"], FIG2["kappa"]),
        inputs["lengths"])


def run_worker(argv, inputs, seconds, trace, timeout):
    spec = {"argv": argv, "root": ROOT, "seconds": seconds, "trace": trace}
    if "lengths" in inputs:
        spec["lengths"] = inputs["lengths"]
        spec["device"] = [FIG2["gamma1"], FIG2["gamma2"], FIG2["kappa"]]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    spec["t0"] = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "coupledpdc", "cli.py")):
        print(f"no coupledpdc sources under {ROOT}/src", file=sys.stderr)
        return 2

    argv, inputs = make_inputs(args.workload, args.seed)
    workers = []
    for _ in range(WORKERS):
        left = DEADLINE_S - (time.perf_counter() - began)
        workers.append(run_worker(argv, inputs, args.seconds / WORKERS,
                                  bool(args.trace), timeout=max(left, 1.0)))

    passes = [p for w in workers for p in w["passes"]]
    outputs = {}
    for w in workers:
        outputs.update(w["outputs"])
    verdicts = {digest: check(args.workload, inputs, text,
                              workers[0]["matrices"])
                for digest, text in outputs.items()}
    per_pass = next(iter(verdicts.values())).ops
    attempted = per_pass * len(passes)
    failed = sum(verdicts[p["digest"]].failed for p in passes)
    correct = not any(v.wrong for v in verdicts.values())
    worst = max(v.worst for v in verdicts.values())

    # Shares of the machine's CPU time (nproc x wall) over the timed
    # passes; "wait" is the share of wall time the pass's own thread
    # waited for a CPU, which the program's own BLAS threads also cause.
    # The run is flagged, not re-run or trimmed, so that every metric
    # stays a total over the same passes.
    wall = sum(p["wall"] for p in passes)
    capacity = workers[0]["machine"]["nproc"] * wall
    contention = {"steal": sum(p["steal"] for p in passes) / capacity,
                  "others": sum(p["others"] for p in passes) / capacity,
                  "wait": sum(p["wait"] for p in passes) / wall}

    # Totals over the passes, not medians of them: the host's load makes
    # pass times bimodal (fast and slow stretches of ~10 s), and a median
    # jumps between the two modes where a total moves with their shares.
    end_to_end = {
        "points_per_s": attempted / wall,
        "cpu_s": sum(p["cpu"] for p in passes) / len(passes),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["peak_rss_kb"] for w in workers) / 1024,
        # a deviation of exactly 0 would read as infinitely many digits;
        # one of 1 or more, or none checked (inf), reads as 0 digits
        "accuracy_digits": math.log10(1.0 / min(max(worst, 1e-17), 1.0)),
    }
    if args.trace:
        layers = [layer for w in workers for layer in w["layers"]]
        metrics = {name: {"value": statistics.median(l[name] for l in layers),
                          "unit": unit}
                   for name, unit in spans.METRICS.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": argv, "inputs": inputs,
        "machine": workers[0]["machine"],
        "attempted": attempted, "failed": failed, "correct": correct,
        "end_to_end": end_to_end, "metrics": metrics,
        "setup_s": [w["setup_s"] for w in workers],
        "peak_rss_kb": [w["peak_rss_kb"] for w in workers],
        "contention": contention,
        "passes": [[{k: p[k] for k in ("wall", "cpu", "code", "wait",
                                       "others", "steal")}
                    for p in w["passes"]] for w in workers],
        "layers": [w["layers"] for w in workers],
        "notes": [n for v in verdicts.values() for n in v.notes],
        "run_s": time.perf_counter() - began,
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for note in record["notes"]:
        print(f"check: {note}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{end_to_end['points_per_s']:.1f} points/s, "
          f"run {record['run_s']:.1f} s", file=sys.stderr)
    print(f"contention: steal {contention['steal']:.2%} and other processes "
          f"{contention['others']:.2%} of the machine's CPU time, run-queue "
          f"wait {contention['wait']:.2%} of wall time", file=sys.stderr)
    if contention["steal"] > BUSY_STEAL:
        print(f"busy host: steal above {BUSY_STEAL:.0%}; this run's times "
              "are not comparable with those of a quiet host",
              file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
