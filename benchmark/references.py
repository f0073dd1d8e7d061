"""Closed-form references and the benchmark's operation count.

Each checked quantity of a workload's reports is one operation.  It fails
when it misses the repository's own check (a Koppelman row's ``pass`` flag,
or the verdict of an experiment without a closed form), or when it lies more
than ``SIGMAS`` standard errors from its exact reference:

* Vol(X cap B_r(0)) / r^(2n) = d pi^n / n!                       (v_bounds)
* int_{X cap B_r(0)} |zeta|^-alpha
      = d (2 pi^n / (n-1)!) r^(2n-alpha) / (2n-alpha)           (radial_scaling)
* phi(z) for the q = 0 homotopy identity phi = P phi + K dbar phi (koppelman_q0)

d is the degree of the cone, the product of the defining degrees: X meets
the ball around its vertex in d times the volume of a flat n-ball.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

SIGMAS = 5.0
ROUNDING = 1e-12  # relative floor for estimates with zero variance

# experiments whose rows carry closed-form references; every other
# experiment counts as one operation, its verdict
CLOSED_FORM = ("koppelman_q0", "radial_scaling", "v_bounds")


def cone_degree(v) -> int:
    return math.prod(v.degrees)


def ball_volume_ratio(v) -> float:
    """Vol(X cap B_r(0)) / r^(2n), independent of r for a cone."""
    n = v.dim
    return cone_degree(v) * math.pi**n / math.factorial(n)


def radial_mass(v, alpha: float, r: float) -> float:
    """Integral of |zeta|^-alpha over X cap B_r(0), for alpha < 2n."""
    n = v.dim
    sphere = 2.0 * math.pi**n / math.factorial(n - 1)
    return cone_degree(v) * sphere * r ** (2 * n - alpha) / (2 * n - alpha)


@dataclass
class Operation:
    label: str
    ok: bool
    stderr: float | None = None  # set for reference-checked quantities
    scale: float | None = None   # magnitude of the exact reference


def _complex(x) -> complex:
    if isinstance(x, dict):
        return complex(x["re"], x["im"])
    return complex(x)


def within_reference(value, stderr, ref) -> bool:
    return abs(value - ref) <= SIGMAS * stderr + ROUNDING * abs(ref)


def _reference_op(label, value, stderr, ref, scale, own_ok=True) -> Operation:
    ok = own_ok and within_reference(value, stderr, ref)
    return Operation(label, bool(ok), float(stderr), float(scale))


def operations(v, reports) -> list[Operation]:
    """The checked quantities of one job's reports."""
    ops = []
    for rep in reports:
        tag = f"{rep.name}:{rep.variety}"
        if rep.name == "koppelman_q0":
            scales: dict = {}
            for row in rep.rows:
                s = abs(_complex(row["phi_z"]))
                scales[row["phi"]] = max(scales.get(row["phi"], 0.0), s)
            for row in rep.rows:
                phi = _complex(row["phi_z"])
                est = _complex(row["P_phi"]) + _complex(row["K_dbar_phi"])
                ops.append(_reference_op(
                    f"{tag}:{row['phi']}@{row['z_norm']}", est, row["stderr"],
                    phi, max(scales[row["phi"]], 1e-12), own_ok=row["pass"]))
        elif rep.name == "radial_scaling":
            if rep.parameters["z_norm"] != 0.0:
                raise ValueError("radial_scaling references need z at the vertex")
            for row in rep.rows:
                if "integral" not in row:
                    continue  # log-case rows: outer masses, no closed form
                ref = radial_mass(v, row["alpha"], row["r"])
                ops.append(_reference_op(
                    f"{tag}:alpha{row['alpha']:g}@r{row['r']:.4g}",
                    row["integral"], row["stderr"], ref, ref))
        elif rep.name == "v_bounds":
            ref = ball_volume_ratio(v)
            for row in rep.rows:
                if row["z_norm"] != 0.0:
                    continue  # balls off the vertex: no closed form
                ops.append(_reference_op(
                    f"{tag}:v@r{row['r']:g}", row["v"], row["stderr"], ref, ref))
        else:
            ops.append(Operation(f"{tag}:verdict", bool(rep.verdict)))
    return ops


def structurally_sound(reports, ops) -> bool:
    """Every closed-form experiment yielded finite reference checks."""
    for rep in reports:
        if rep.name in CLOSED_FORM and not any(
                op.label.startswith(f"{rep.name}:") and op.scale is not None
                for op in ops):
            return False
    return bool(ops) and all(
        op.scale is None or (math.isfinite(op.stderr) and op.stderr >= 0
                             and math.isfinite(op.scale) and op.scale > 0)
        for op in ops)


def accuracy_factor(ops) -> float:
    """Median over reference-checked quantities of (stderr / (0.01 scale))^2.

    The number of times the job would have to run for a 1% standard error,
    so wall time times this factor is the time to 1% accuracy.
    """
    return statistics.median((op.stderr / (0.01 * op.scale)) ** 2
                             for op in ops if op.scale is not None)
