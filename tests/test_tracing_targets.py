"""The benchmark tracer's targets name functions that exist in conekop.

``benchmark/tracing.py`` wraps conekop functions by owner and attribute
name, so a renamed or deleted function breaks ``benchmark/run.py --trace 1``
without failing any test under ``tests/``.  This guard only imports the
tracer module; it patches nothing.
"""

import inspect
from pathlib import Path

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))  # tracing imports workloads
    import tracing

    targets = tracing.TARGETS + tracing.SAMPLE_COUNT
    assert targets
    for t in targets:
        owner = tracing._resolve(t.owner)
        if inspect.isclass(owner):  # Tracer.install reads the class __dict__
            attr = vars(owner).get(t.attr)
        else:
            attr = getattr(owner, t.attr, None)
        assert callable(attr), f"{t.owner}.{t.attr} does not resolve"
