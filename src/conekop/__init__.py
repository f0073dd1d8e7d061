"""Koppelman integral operators on affine cones over projective complete intersections.

The package evaluates the solution kernel K and projection kernel P for the
dbar equation on such cones, applies them by stratified Monte Carlo
quadrature on branched-cover charts, and ships an experiment harness that
checks the radial integral estimates, Hölder moduli, cut-off decay laws and
the q = 0 homotopy identity at desk scale.
"""

from .varieties import (
    ConeVariety,
    MultiIndexPoly,
    catalog_names,
    get_variety,
    variety_from_json,
)
from .sampling import (
    Region,
    SamplingPlan,
    attach_link_margin,
    estimate_v,
    integrate,
    tangent_frame,
)
from .forms import FormValue, TestForm
from .kernels import WeightConfig, kernel_K, kernel_P
from .operators import apply_K, apply_P, apply_model_T, apply_T_m, lp_norm

__version__ = "0.1.0"


def load_variety(name_or_path: str) -> ConeVariety:
    """Catalog lookup or JSON load, with the link regularity margin attached."""
    try:
        v = get_variety(name_or_path)
    except KeyError:
        if name_or_path.endswith(".json"):
            v = variety_from_json(name_or_path)
        else:
            raise
    return attach_link_margin(v)
