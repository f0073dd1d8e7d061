"""The benchmark's workloads and the batch job that runs one of them.

A job calls ``verify.run_experiment`` for each experiment of the workload
with the settings ``cli.main`` derives from a ``RunConfig``, so its reports
are the ones a CLI run with the same variety, experiments, samples and seed
writes to ``report.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    variety: str
    experiments: tuple[str, ...]
    samples: int


WORKLOADS = {
    # Acceptance criterion 3 at a fifth of its budget: 10 apply_P and
    # 5 apply_K calls.  Kernel assembly, the FormValue algebra, SVD frames and
    # the pullback dominate; the fiber solve is the closed-form quadratic.
    # Stresses forms, kernels and frames; the model kernels are bypassed.
    "kop_a1": Workload("a1", ("koppelman_q0",), 200_000),
    # The same operator path with 3 sheets, the companion-matrix eigensolver
    # and a stronger cone-point pole (d - nu = 2).  Stresses the fiber solve
    # (cubic path) on top of the kernel work; the model kernels are bypassed.
    "kop_fermat3": Workload("fermat3", ("koppelman_q0",), 60_000),
    # The model criteria of the acceptance gate.  No forms and no frames: the
    # time goes to strata, base draws, the mixture density, model kernels and
    # the quadratic fiber solve.  It is the bypass workload for kernel and
    # forms changes, and tm_decay's thin annuli carry the most strata, so it
    # is the main workload for integrate's own loop.
    "model_a1": Workload("a1", ("radial_scaling", "two_pole", "tm_decay",
                                "truncation", "v_bounds", "lp_threshold"),
                         300_000),
}


def cli_settings(wl: Workload, seed: int):
    """RunConfig, WeightConfig and SamplingPlan exactly as cli.main builds them."""
    from conekop.cli import RunConfig
    from conekop.kernels import WeightConfig
    from conekop.sampling import SamplingPlan

    cfg = RunConfig(variety=wl.variety, experiments=list(wl.experiments),
                    samples=wl.samples, seed=seed)
    cfg.validate()
    weight = WeightConfig(rho1=cfg.rho1, rho2=cfg.rho2,
                          omega_prime_radius=cfg.omega_prime)
    plan = SamplingPlan(samples=cfg.samples, seed=cfg.seed, r_min=cfg.r_min,
                        shell_ratio=cfg.shell_ratio)
    return cfg, weight, plan


@dataclass
class JobResult:
    reports: list
    wall_s: float
    warnings: int

    @property
    def digest(self) -> str:
        return report_digest(self.reports)


def run_job(v, wl: Workload, seed: int) -> JobResult:
    """Run every experiment of the workload once; time first call to last report.

    ``verify.run_experiment`` is looked up on the module at call time, so a
    tracer that wrapped it sees these calls.
    """
    from conekop import verify

    cfg, weight, plan = cli_settings(wl, seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        reports = [verify.run_experiment(name, v, plan, cfg=weight,
                                         tolerance_scale=cfg.tolerance_scale)
                   for name in cfg.experiments]
        wall = time.perf_counter() - t0
    n_warn = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
    return JobResult(reports, wall, n_warn)


def report_digest(reports) -> str:
    """sha256 of the reports serialized as cli.main writes them."""
    payload = json.dumps([r.to_json_dict() for r in reports], indent=2,
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
