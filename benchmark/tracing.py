"""Tracing from outside: wrap conekop's public functions, keep spans in memory.

The tracer replaces each target function with a wrapper in every conekop
module that holds it (``integrate`` is imported by name into ``operators``
and ``verify``, for instance), and methods on their class.  A wrapper records
a span (name, start, end, parent, run id) and the number of points the call
processed, and may add to the counters of the current run.  ``restore`` puts
every original back.  A layer's self time is its spans' durations minus the
durations of their direct child spans; calls never overlap, because the
program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from workloads import WORKLOADS


@dataclass(frozen=True)
class Target:
    owner: str                       # "module" or "module.Class" inside conekop
    attr: str
    layer: str | Callable | None     # span name, or a function of the args;
                                     # None counts through the hook untimed
    points: Callable | None = None   # (args, kwargs, result) -> points processed
    hook: Callable | None = None     # (counters, args, kwargs, result, parent)


def _rows(i: int) -> Callable:
    """Points in positional argument i: the product of its leading axes."""
    def points(args, kwargs, res):
        return int(np.prod(np.shape(args[i])[:-1], dtype=np.int64))
    return points


def _frames_rows(args, kwargs, res):
    return int(np.prod(np.shape(args[1])[:-2], dtype=np.int64))


def _form_rows(args, kwargs, res):
    return max((int(np.size(c)) for form in args[:2]
                for c in form.terms.values()), default=0)


def _integrate_points(args, kwargs, res):
    return int(res.samples)


# ----- counters ----------------------------------------------------------------


def _count_samples(c, args, kwargs, res, parent):
    c["sampling.samples"] += res.samples
    c["sampling.discarded"] += res.discarded


def _count_wedge(c, args, kwargs, res, parent):
    c["forms.wedge.terms_out"] += len(res.terms)


def _count_kept(c, args, kwargs, res, parent):
    c["forms.terms_in"] += len(args[0].terms)
    c["forms.terms_kept"] += len(res.terms)


def _count_sheets(c, args, kwargs, res, parent):
    if parent == "sampling.integrate":
        valid = res[1]
        c["sampling.valid_sheets"] += int(valid.sum())
        c["sampling.sheet_slots"] += int(valid.size)


def _count_inside(c, args, kwargs, res, parent):
    if parent == "sampling.integrate":
        c["sampling.inside_points"] += _rows(2)(args, kwargs, res)


def _count_operator(key):
    def hook(c, args, kwargs, res, parent):
        c[key] += res[1].samples
    return hook


MODEL_KERNELS = ("model_k_gamma", "model_k_tilde", "t_k_kernel",
                 "k_gamma_truncated")

TARGETS = (
    Target("forms.FormValue", "wedge", "forms.wedge", _form_rows, _count_wedge),
    Target("forms.FormValue", "bidegree_part", None, None, _count_kept),
    Target("forms.FormValue", "restricted_to_dim", None, None, _count_kept),
    Target("forms.FormValue", "pullback_surface", "forms.pullback_surface",
           _frames_rows),
    *(Target("forms.TestForm", name, "forms.test_form", _rows(1))
      for name in ("eval", "form_value", "eval_scalar")),
    Target("kernels", "kernel_K", "kernels.kernel_K", _rows(1)),
    Target("kernels", "kernel_P", "kernels.kernel_P", _rows(1)),
    Target("kernels", "bm_B", "kernels.bm_B", _rows(0)),
    Target("kernels", "weight_g", "kernels.weight_g", _rows(0)),
    Target("kernels", "structure_form", "kernels.structure_form", _rows(1)),
    Target("kernels", "hefer_form", "kernels.hefer_form", _rows(1)),
    *(Target("kernels", name, "kernels.model", _rows(0))
      for name in MODEL_KERNELS),
    Target("sampling", "frames_for", "sampling.frames_for", _rows(1)),
    Target("sampling", "gram_factors", "sampling.gram_factors", _rows(2),
           _count_inside),
    Target("sampling", "solve_fiber", "sampling.solve_fiber", _rows(2),
           _count_sheets),
    Target("sampling", "integrate", "sampling.integrate", _integrate_points,
           _count_samples),
    Target("sampling", "attach_link_margin", "sampling.attach_link_margin"),
    Target("varieties.ConeVariety", "jacobian", "varieties.jacobian", _rows(1)),
    Target("varieties.ConeVariety", "eval_tuple", "varieties.eval_tuple",
           _rows(1)),
    Target("varieties.ConeVariety", "hefer_coeffs", "varieties.hefer_coeffs",
           _rows(1)),
    Target("operators", "apply_K", "operators.apply_K", None,
           _count_operator("operators.apply_K.samples")),
    Target("operators", "apply_P", "operators.apply_P", None,
           _count_operator("operators.apply_P.samples")),
    Target("operators", "apply_T_m", "operators.apply_T_m"),
    Target("verify", "run_experiment", lambda args: f"verify.{args[0]}"),
)

SETUP_RUN, JOB_RUN = "setup", "job"  # run ids: load_variety, the job

# integrate alone, untimed: how an untraced job learns its sample count
SAMPLE_COUNT = (Target("sampling", "integrate", None, None, _count_samples),)


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    mod = importlib.import_module(f"conekop.{module}")
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Wraps the targets while installed; spans and counters stay in memory."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.run_id = JOB_RUN
        self.spans: list[list] = []  # [name, start, end, parent, run id, points]
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._patched: list = []

    # ----- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "conekop" or name.startswith("conekop.")]
        for t in self.targets:
            owner = _resolve(t.owner)
            if isinstance(owner, type):
                orig = owner.__dict__[t.attr]
                self._patch(owner, t.attr, orig, self._wrap(t, orig))
                continue
            orig = getattr(owner, t.attr)
            wrapped = self._wrap(t, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, obj, key, orig, wrapped):
        setattr(obj, key, wrapped)
        self._patched.append((obj, key, orig))

    def restore(self):
        for obj, key, orig in reversed(self._patched):
            setattr(obj, key, orig)
        bad = [key for obj, key, orig in self._patched
               if vars(obj)[key] is not orig]
        self._patched = []
        if bad:
            raise RuntimeError(f"tracer could not restore {bad}")

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()

    # ----- recording ---------------------------------------------------------

    def _wrap(self, t: Target, orig):
        spans, stack, clock = self.spans, self._stack, self.clock

        def parent_name(parent):
            return spans[parent][0] if parent >= 0 else None

        if t.layer is None:
            def counted(*args, **kwargs):
                res = orig(*args, **kwargs)
                parent = stack[-1] if stack else -1
                t.hook(self.counters[self.run_id], args, kwargs, res,
                       parent_name(parent))
                return res
            return functools.update_wrapper(counted, orig)

        def traced(*args, **kwargs):
            name = t.layer(args) if callable(t.layer) else t.layer
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, self.run_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                res = orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            # points count once per outermost call of a layer
            if t.points is not None and parent_name(parent) != name:
                rec[5] = t.points(args, kwargs, res)
            if t.hook is not None:
                t.hook(self.counters[self.run_id], args, kwargs, res,
                       parent_name(parent))
            return res
        return functools.update_wrapper(traced, orig)

    # ----- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - c
                for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def aggregate(self, run_id: str) -> dict:
        """Per span name: self time, inclusive time, calls and points."""
        agg: dict = defaultdict(lambda: {"self": 0.0, "incl": 0.0,
                                         "calls": 0, "points": 0})
        for rec, own in zip(self.spans, self.self_times()):
            name, start, end, parent, run, points = rec
            if run != run_id:
                continue
            a = agg[name]
            a["self"] += own
            a["calls"] += 1
            a["points"] += points
            # inclusive time counts only outermost spans of a name
            if parent < 0 or self.spans[parent][0] != name:
                a["incl"] += end - start
        return agg

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run, points in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run,
                                     "points": points}) + "\n")


# ----- per-layer metrics ---------------------------------------------------------

TIMED_LAYERS = (
    "forms.wedge", "forms.pullback_surface", "forms.test_form",
    "kernels.kernel_K", "kernels.kernel_P", "kernels.bm_B", "kernels.weight_g",
    "kernels.structure_form", "kernels.hefer_form", "kernels.model",
    "sampling.frames_for", "sampling.integrate", "sampling.gram_factors",
    "sampling.solve_fiber",
    "varieties.jacobian", "varieties.eval_tuple", "varieties.hefer_coeffs",
)

EXPERIMENTS = tuple(dict.fromkeys(name for wl in WORKLOADS.values()
                                   for name in wl.experiments))

POINTS_PER_BATCH = 20_000


def _per_layer_table():
    table = []
    for layer in TIMED_LAYERS:
        table.append((f"{layer}.self_s", "s", "lower"))
        table.append((f"{layer}.ms_per_20k", "ms", "lower"))
    table += [
        ("forms.wedge.calls", "count", "lower"),
        ("forms.wedge.terms_out", "count", "lower"),
        ("forms.kept_ratio", "ratio", "higher"),
        ("kernels.kernel_K.points", "count", "lower"),
        ("sampling.frames_for.points", "count", "lower"),
        ("varieties.jacobian.calls", "count", "lower"),
        ("varieties.eval_tuple.calls", "count", "lower"),
        ("sampling.integrate.calls", "count", "lower"),
        ("sampling.solve_fiber.points", "count", "lower"),
        ("sampling.attach_link_margin.s", "s", "lower"),
        ("sampling.samples", "count", "higher"),
        ("sampling.discarded", "count", "lower"),
        ("sampling.valid_ratio", "ratio", "higher"),
        ("sampling.inside_ratio", "ratio", "higher"),
        ("sampling.warnings", "count", "lower"),
        ("operators.apply_K.s", "s", "lower"),
        ("operators.apply_K.calls", "count", "lower"),
        ("operators.apply_K.samples_per_s", "1/s", "higher"),
        ("operators.apply_P.s", "s", "lower"),
        ("operators.apply_P.samples_per_s", "1/s", "higher"),
        ("operators.apply_T_m.s", "s", "lower"),
    ]
    table += [(f"verify.{e}.s", "s", "lower") for e in EXPERIMENTS]
    table += [("verify.self_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower"),
              ("t_acc_s", "s", "lower")]
    return table


PER_LAYER = _per_layer_table()


def _ratio(num, den) -> float:
    """num / den, or 0 where the layer did no work."""
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, warnings: int, overhead_s: float,
                  t_acc_s: float) -> dict:
    """Every per-layer metric, from the spans and counters of a traced job.

    t_acc_s, the untraced job's time to a 1% standard error, rides along:
    it depends on the seed far more than on the code (see references.py).
    """
    agg = tracer.aggregate(JOB_RUN)
    setup = tracer.aggregate(SETUP_RUN)
    c = tracer.counters[JOB_RUN]
    zero = {"self": 0.0, "incl": 0.0, "calls": 0, "points": 0}

    def get(name):
        return agg.get(name, zero)

    out = {}
    for layer in TIMED_LAYERS:
        a = get(layer)
        out[f"{layer}.self_s"] = a["self"]
        out[f"{layer}.ms_per_20k"] = 1e3 * _ratio(a["self"] * POINTS_PER_BATCH,
                                                  a["points"])
    out["forms.wedge.calls"] = get("forms.wedge")["calls"]
    out["forms.wedge.terms_out"] = c["forms.wedge.terms_out"]
    out["forms.kept_ratio"] = _ratio(c["forms.terms_kept"], c["forms.terms_in"])
    out["kernels.kernel_K.points"] = get("kernels.kernel_K")["points"]
    out["sampling.frames_for.points"] = get("sampling.frames_for")["points"]
    out["varieties.jacobian.calls"] = get("varieties.jacobian")["calls"]
    out["varieties.eval_tuple.calls"] = get("varieties.eval_tuple")["calls"]
    out["sampling.integrate.calls"] = get("sampling.integrate")["calls"]
    out["sampling.solve_fiber.points"] = get("sampling.solve_fiber")["points"]
    out["sampling.attach_link_margin.s"] = \
        setup.get("sampling.attach_link_margin", zero)["incl"]
    out["sampling.samples"] = c["sampling.samples"]
    out["sampling.discarded"] = c["sampling.discarded"]
    out["sampling.valid_ratio"] = _ratio(c["sampling.valid_sheets"],
                                         c["sampling.sheet_slots"])
    out["sampling.inside_ratio"] = _ratio(c["sampling.inside_points"],
                                          c["sampling.valid_sheets"])
    out["sampling.warnings"] = warnings
    for op in ("apply_K", "apply_P"):
        a = get(f"operators.{op}")
        out[f"operators.{op}.s"] = a["incl"]
        out[f"operators.{op}.samples_per_s"] = _ratio(
            c[f"operators.{op}.samples"], a["incl"])
    out["operators.apply_K.calls"] = get("operators.apply_K")["calls"]
    out["operators.apply_T_m.s"] = get("operators.apply_T_m")["incl"]
    for e in EXPERIMENTS:
        out[f"verify.{e}.s"] = get(f"verify.{e}")["incl"]
    out["verify.self_s"] = sum(a["self"] for name, a in agg.items()
                               if name.startswith("verify."))
    out["trace.overhead_s"] = overhead_s
    out["t_acc_s"] = t_acc_s
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
