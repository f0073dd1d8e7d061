#!/usr/bin/env python3
"""Digests of the benchmark jobs and of full CLI runs, for byte-identity checks.

    python3 tools/report_digests.py > digests.txt

Run it on two checkouts and diff the outputs: a change that moves no bit of
any report prints the same lines.  It prints

  * the ``benchmark/workloads.run_job`` report digest of ``kop_a1``,
    ``kop_fermat3`` and ``model_a1`` at seeds 0, 1 and 2;
  * for each catalog variety, the exit code of ``conekop --samples 20000
    --seed 7`` (every experiment) and the sha256 of the ``report.json`` and
    ``tables.csv`` it writes;
  * after each such run, one line per experiment report: the sha256 of
    ``json.dumps(entry, sort_keys=True)`` for that entry of the run's
    ``report.json``, so a change that adds or removes an experiment can show
    that every other report stayed byte-identical;
  * the same lines for ``koppelman_q0`` and ``koppelman_q1_loose`` on the
    quadric threefold of ``tests/test_cli.py::test_cli_threefold_runs_koppelman``
    (dim 3 in C^4, with a mixed term), at the same budget and seed.

The package and the workloads are imported from the checkout this file sits
in.  Timings are not printed.  The CLI runs take a few minutes.
"""

import os

# pinned before numpy loads, as in benchmark/run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "benchmark"))

from workloads import WORKLOADS, run_job  # noqa: E402

import conekop  # noqa: E402
from conekop.varieties import catalog_names  # noqa: E402

JOBS = ("kop_a1", "kop_fermat3", "model_a1")
SEEDS = (0, 1, 2)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


QUADRIC3 = {"ambient_dim": 4, "name": "quadric3", "polys": [[
    {"exp": [2, 0, 0, 0], "re": 1.0}, {"exp": [0, 2, 0, 0], "re": 1.0},
    {"exp": [0, 0, 2, 0], "re": 1.0}, {"exp": [0, 0, 0, 2], "re": 1.0},
    {"exp": [1, 1, 0, 0], "re": 0.3, "im": 0.2}]]}


def _cli(label: str, args: list) -> None:
    """Run conekop at 20k samples, seed 7, and print its digest lines."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = subprocess.run(
            [sys.executable, "-m", "conekop", *args,
             "--samples", "20000", "--seed", "7", "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        print(f"cli {label} exit={code} report.json={_sha256(out / 'report.json')} "
              f"tables.csv={_sha256(out / 'tables.csv')}", flush=True)
        report = out / "report.json"
        entries = json.loads(report.read_text())["reports"] if report.exists() else []
        for entry in entries:
            digest = hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()
            print(f"cli {label} {entry['name']} {digest}", flush=True)


def main() -> int:
    for name in JOBS:
        wl = WORKLOADS[name]
        v = conekop.load_variety(wl.variety)
        for seed in SEEDS:
            print(f"run_job {name} seed={seed} {run_job(v, wl, seed).digest}", flush=True)
    for variety in catalog_names():
        _cli(variety, ["--variety", variety])
    with tempfile.TemporaryDirectory() as tmp:
        vpath = Path(tmp) / "quadric3.json"
        vpath.write_text(json.dumps(QUADRIC3))
        _cli("quadric3", ["--variety", str(vpath), "--experiment", "koppelman_q0",
                          "--experiment", "koppelman_q1_loose"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
