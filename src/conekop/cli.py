"""Command line entry point: pick a variety and experiments, emit reports.

Exit codes: 0 all requested experiments pass, 1 at least one fails,
2 configuration error.  Identical configuration and seed produce
byte-identical report files; progress and the verdict table go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import load_variety
from .kernels import WeightConfig
from .sampling import FiberDegenerateError, SamplingPlan
from .varieties import NearSingularError
from .verify import CSV_COLUMNS, EXPERIMENTS, run_experiment

__all__ = ["RunConfig", "main"]


class ConfigError(ValueError):
    pass


# config file keys and the RunConfig fields they set
CONFIG_KEYS = {"out": "out_dir", **{key: key for key in (
    "variety", "experiments", "samples", "seed", "tolerance_scale", "rho1",
    "rho2", "omega_prime", "r_min", "shell_ratio")}}


@dataclass
class RunConfig:
    variety: str = "a1"
    experiments: list = field(default_factory=list)
    samples: int = 100_000
    seed: int = 0
    out_dir: str = "out"
    tolerance_scale: float = 1.0
    rho1: float = 1.0
    rho2: float = 1.8
    omega_prime: float = 2.0
    r_min: float = 1e-4
    shell_ratio: float = 2.0

    def validate(self):
        for key in ("samples", "seed"):
            val = getattr(self, key)
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"{key} must be an integer, got {val!r}")
        for key in ("tolerance_scale", "rho1", "rho2", "omega_prime", "r_min",
                    "shell_ratio"):
            val = getattr(self, key)
            if (isinstance(val, bool) or not isinstance(val, (int, float))
                    or not math.isfinite(val)):
                raise ConfigError(f"{key} must be a finite number, got {val!r}")
        for key in ("variety", "out_dir"):
            val = getattr(self, key)
            if not isinstance(val, str):
                raise ConfigError(f"{key} must be a string, got {val!r}")
        if not (isinstance(self.experiments, list)
                and all(isinstance(e, str) for e in self.experiments)):
            raise ConfigError("experiments must be a list of names")
        if self.samples < 1000:
            raise ConfigError("samples must be at least 1000")
        if not self.tolerance_scale > 0:
            raise ConfigError(f"tolerance_scale must be positive, got "
                              f"{self.tolerance_scale!r}")
        bad = [e for e in self.experiments if e not in EXPERIMENTS]
        if bad:
            raise ConfigError(
                f"unknown experiment(s) {', '.join(bad)}; "
                f"registered: {', '.join(sorted(EXPERIMENTS))}"
            )


def _parse_args(argv) -> RunConfig:
    ap = argparse.ArgumentParser(
        prog="conekop",
        description="Run integral-operator verification experiments on an "
                    "affine cone.",
    )
    ap.add_argument("--variety", default=None,
                    help="catalog name or path to a variety JSON file")
    ap.add_argument("--experiment", action="append", default=None,
                    metavar="NAME",
                    help="experiment to run (repeatable); default: all")
    ap.add_argument("--samples", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--tolerance-scale", type=float, default=None)
    ap.add_argument("--config", default=None, help="JSON config file")
    args = ap.parse_args(argv)

    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"config file must hold a JSON object, got {raw!r}")
        unknown = sorted(set(raw) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config key(s) "
                              f"{', '.join(map(repr, unknown))}; "
                              f"known: {', '.join(sorted(CONFIG_KEYS))}")
        for key, val in raw.items():
            setattr(cfg, CONFIG_KEYS[key], val)
    if args.variety is not None:
        cfg.variety = args.variety
    if args.experiment:
        cfg.experiments = list(args.experiment)
    if args.samples is not None:
        cfg.samples = args.samples
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.tolerance_scale is not None:
        cfg.tolerance_scale = args.tolerance_scale
    if not cfg.experiments:
        cfg.experiments = sorted(EXPERIMENTS)
    return cfg


def main(argv=None) -> int:
    try:
        cfg = _parse_args(argv)
        cfg.validate()
        weight_cfg = WeightConfig(rho1=cfg.rho1, rho2=cfg.rho2,
                                  omega_prime_radius=cfg.omega_prime)
        plan = SamplingPlan(samples=cfg.samples, seed=cfg.seed, r_min=cfg.r_min,
                            shell_ratio=cfg.shell_ratio)
        v = load_variety(cfg.variety)
        # regions with poles lie in the ball of radius max(omega_prime, 1):
        # a pole with shells has a base point of norm at most twice that
        plan.check_r_min(v.dim, 2 * max(cfg.omega_prime, 1.0))
        if v.dim < 2:
            raise ConfigError(f"variety {v.name!r} has dim X = {v.dim}; "
                              f"the experiments need dim X >= 2")
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, KeyError, ValueError, OSError, FiberDegenerateError,
            NearSingularError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    reports = []
    for name in cfg.experiments:
        t0 = time.time()
        print(f"[conekop] running {name} on {v.name} ...", file=sys.stderr)
        rep = run_experiment(name, v, plan, cfg=weight_cfg,
                             tolerance_scale=cfg.tolerance_scale)
        print(f"[conekop]   {'PASS' if rep.verdict else 'FAIL'} "
              f"({time.time() - t0:.1f}s)", file=sys.stderr)
        reports.append(rep)

    payload = {
        "config": {
            "variety": v.name,
            "experiments": cfg.experiments,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "tolerance_scale": cfg.tolerance_scale,
            "rho1": cfg.rho1,
            "rho2": cfg.rho2,
            "omega_prime": cfg.omega_prime,
        },
        "link_regularity_margin": v.link_regularity_margin,
        "reports": [r.to_json_dict() for r in reports],
        "all_pass": all(r.verdict for r in reports),
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2,
                                                sort_keys=True) + "\n")
    with (out / "tables.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rep in reports:
            for row in rep.csv_rows():
                writer.writerow(row)

    width = max(len(r.name) for r in reports) + 2
    print("\nverdicts:", file=sys.stderr)
    for rep in reports:
        print(f"  {rep.name:<{width}} {'PASS' if rep.verdict else 'FAIL'}",
              file=sys.stderr)
    return 0 if payload["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
