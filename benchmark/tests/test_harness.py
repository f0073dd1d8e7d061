"""Determinism guard and self-checks of the benchmark harness.

    python3 -m pytest benchmark/tests
"""

import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import references  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, report_digest, run_job  # noqa: E402

from conekop import cli, get_variety, load_variety, sampling  # noqa: E402
from conekop.verify import ExperimentReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = Workload("a1", ("koppelman_q0", "v_bounds"), 4000)


def test_closed_forms_match_the_hyperplane():
    flat = get_variety("hyperplane")
    assert references.ball_volume_ratio(flat) == pytest.approx(math.pi**2 / 2,
                                                               rel=1e-15)
    # alpha = 0 integrates the constant: the ball volume
    assert references.radial_mass(flat, 0.0, 0.7) == pytest.approx(
        math.pi**2 / 2 * 0.7**4, rel=1e-15)
    assert references.ball_volume_ratio(get_variety("a1")) == pytest.approx(
        math.pi**2, rel=1e-15)
    plan = sampling.SamplingPlan(samples=20_000, seed=3)
    for v in (flat, load_variety("a1")):
        qr = sampling.estimate_v(v, 0.5, np.zeros(3), plan)
        assert references.within_reference(qr.value, qr.stderr,
                                            references.ball_volume_ratio(v))


def test_reference_checks_count_misses_as_failed_operations():
    v = get_variety("a1")
    ref = references.ball_volume_ratio(v)
    rep = ExperimentReport("v_bounds", "a1", {})
    rep.rows = [{"z_norm": 0.0, "r": 0.1, "v": ref + 0.4, "stderr": 0.1},
                {"z_norm": 0.0, "r": 0.2, "v": ref + 0.6, "stderr": 0.1},
                {"z_norm": 0.5, "r": 0.2, "v": 1.0, "stderr": 0.1}]
    verdict_only = ExperimentReport("two_pole", "a1", {}, verdict=False)
    ops = references.operations(v, [rep, verdict_only])
    assert [op.ok for op in ops] == [True, False, False]
    assert references.accuracy_factor(ops) == pytest.approx((0.1 / (0.01 * ref)) ** 2)


def test_self_time_arithmetic_on_a_synthetic_nested_call(monkeypatch):
    mod = types.ModuleType("conekop._synthetic")
    exec("def inner():\n    return 1\n\n"
         "def outer():\n    return inner() + 1\n", mod.__dict__)
    alias = types.ModuleType("conekop._synthetic_alias")
    alias.inner = mod.inner  # imported by name elsewhere
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    originals = (mod.outer, mod.inner)
    ticks = iter([0.0, 1.0, 4.0, 10.0, 20.0, 22.0])
    tracer = tracing.Tracer(
        (tracing.Target("_synthetic", "outer", "x.outer"),
         tracing.Target("_synthetic", "inner", "x.inner")),
        clock=lambda: next(ticks))
    tracer.install()
    assert mod.outer() == 2
    assert alias.inner() == 1
    tracer.restore()

    assert (mod.outer, mod.inner, alias.inner) == originals + (originals[1],)
    assert [s[0] for s in tracer.spans] == ["x.outer", "x.inner", "x.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    assert tracer.self_times() == [7.0, 3.0, 2.0]
    agg = tracer.aggregate(tracing.JOB_RUN)
    assert agg["x.outer"] == {"self": 7.0, "incl": 10.0, "calls": 1, "points": 0}
    assert agg["x.inner"] == {"self": 5.0, "incl": 5.0, "calls": 2, "points": 0}


def test_traced_untraced_and_cli_runs_give_one_digest(tmp_path):
    v = load_variety("a1")
    plain = run_job(v, SMALL, 5)
    assert run_job(v, SMALL, 5).digest == plain.digest

    integrate = sampling.integrate
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.run_id = tracing.SETUP_RUN
        v_traced = load_variety("a1")
        tracer.run_id = tracing.JOB_RUN
        traced = run_job(v_traced, SMALL, 5)
    assert sampling.integrate is integrate
    assert traced.digest == plain.digest

    metrics = tracing.layer_metrics(tracer, traced.warnings, 0.0, 1.0)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["operators.apply_K.calls"] == 5
    assert metrics["sampling.attach_link_margin.s"] > 0
    assert metrics["sampling.valid_ratio"] == 1.0

    args = ["--variety", "a1", "--samples", str(SMALL.samples), "--seed", "5",
            "--out", str(tmp_path)]
    for name in SMALL.experiments:
        args += ["--experiment", name]
    cli.main(args)
    payload = json.loads((tmp_path / "report.json").read_text())
    cli_digest = report_digest([types.SimpleNamespace(to_json_dict=lambda r=r: r)
                                for r in payload["reports"]])
    assert cli_digest == plain.digest


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [tuple(row) for row in tracing.PER_LAYER]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "model_a1",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    assert {k: m["unit"] for k, m in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_run_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "kop_a1", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
