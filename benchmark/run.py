#!/usr/bin/env python3
"""Benchmark of conekop: quadrature workloads checked against exact references.

    python3 benchmark/run.py --workload kop_a1 --seed 1 --seconds 40 --trace 0

Run from any directory; the package is imported from the sibling ``src``.

--trace 0 repeats the workload's batch job in this process for about
--seconds seconds (at least once) and prints the end-to-end metrics:
medians over the jobs, and set-up time as the median over fresh interpreters
started between the jobs.  --trace 1 runs the job once untraced and once
under the tracer, requires both to give the same report digest, and prints
the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every checked quantity of the reports is one
attempted operation (see references.py); ``correct`` is false when the
reports are unusable: a missing or non-finite reference check, or jobs of
the same seed that disagree.  Details (per-job times and digests, failed
operations, the machine, Python, numpy and BLAS) go to benchmark/results/.
"""

import os

# pinned before numpy loads: one BLAS / OpenMP thread in every process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES_PER_JOB = 3

sys.path.insert(0, str(HERE))
from references import accuracy_factor, operations, structurally_sound  # noqa: E402
from tracing import (JOB_RUN, PER_LAYER, SAMPLE_COUNT, SETUP_RUN, Tracer,  # noqa: E402
                     layer_metrics)
from workloads import WORKLOADS, run_job  # noqa: E402


class BenchError(RuntimeError):
    pass


def import_conekop():
    init = SRC / "conekop" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no conekop sources at {init}")
    sys.path.insert(0, str(SRC))
    import conekop
    if Path(conekop.__file__).resolve() != init.resolve():
        raise BenchError(f"imported conekop from {conekop.__file__}, not {init}")
    return conekop


def setup_times(variety: str, probes: int) -> list[float]:
    """Seconds for import plus load_variety, each in a fresh interpreter."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), variety],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _checks(v, job):
    ops = operations(v, job.reports)
    return ops, structurally_sound(job.reports, ops)


def _t_acc(wall, ops, sound):
    """Time to a 1% standard error; without sound references the run is
    not correct and the accuracy factor falls back to 1."""
    return wall * (accuracy_factor(ops) if sound else 1.0)


def run_untraced(conekop, wl, args):
    v = conekop.load_variety(wl.variety)
    counter = Tracer(SAMPLE_COUNT)
    jobs, setup = [], []
    start = time.perf_counter()
    with counter.installed():
        while True:
            # set-up probes between jobs see the same machine states the
            # jobs see
            setup += setup_times(wl.variety, SETUP_PROBES_PER_JOB)
            counter.run_id = len(jobs)
            jobs.append(run_job(v, wl, args.seed))
            elapsed = time.perf_counter() - start
            # the round count closest to --seconds: stop once another
            # round would end more than half a round after it
            if elapsed * (len(jobs) + 0.5) / len(jobs) >= args.seconds:
                break
    samples = [counter.counters[i]["sampling.samples"] for i in range(len(jobs))]
    ops, sound = _checks(v, jobs[0])
    wall = statistics.median(j.wall_s for j in jobs)
    metrics = {
        "wall_s": (wall, "s"),
        "samples_per_s": (samples[0] / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    digests = {j.digest for j in jobs}
    correct = sound and len(digests) == 1 and len(set(samples)) == 1
    details = {"job_wall_s": [j.wall_s for j in jobs],
               "job_digests": [j.digest for j in jobs],
               "job_warnings": [j.warnings for j in jobs],
               "samples_per_job": samples[0], "setup_probe_s": setup,
               "t_acc_s": _t_acc(wall, ops, sound)}
    return correct, ops, metrics, details


def run_traced(conekop, wl, args):
    v = conekop.load_variety(wl.variety)
    with Tracer(SAMPLE_COUNT).installed():
        plain = run_job(v, wl, args.seed)
    tracer = Tracer()
    with tracer.installed():
        tracer.run_id = SETUP_RUN
        v_traced = conekop.load_variety(wl.variety)
        tracer.run_id = JOB_RUN
        traced = run_job(v_traced, wl, args.seed)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans_{args.workload}_seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    ops, sound = _checks(v_traced, traced)
    overhead = traced.wall_s - plain.wall_s
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (value, units[name]) for name, value in layer_metrics(
        tracer, traced.warnings, overhead, _t_acc(plain.wall_s, ops, sound)).items()}
    correct = sound and plain.digest == traced.digest
    details = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
               "untraced_digest": plain.digest, "traced_digest": traced.digest,
               "spans": len(tracer.spans), "spans_file": spans_path.name}
    return correct, ops, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        conekop = import_conekop()
        run = run_traced if args.trace else run_untraced
        correct, ops, metrics, details = run(conekop, wl, args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failed = [op.label for op in ops if not op.ok]
    env = environment()
    print(f"workload {args.workload}: {wl.variety}, {', '.join(wl.experiments)}, "
          f"{wl.samples} samples, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "t_acc_s" not in metrics:
        print(f"  t_acc_s = {details['t_acc_s']:.6g} s (seed-dependent, "
              "reported as a metric by --trace 1)")
    print(f"  ops = {len(ops)}\n  ops_failed = {len(failed)}")
    for label in failed:
        print(f"    failed: {label}")
    print(f"  correct = {correct}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                         if k != "threads")
          + ", BLAS/OpenMP threads pinned to 1")

    result = {"correct": bool(correct), "attempted": len(ops),
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, environment=env,
                  failed_ops=failed, **details)
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
