"""The K/P densities in the FormValue algebra, used by the tests as reference.

omega ^ kernel ^ phi is formed from the FormValue kernels (kernel_K for a
(0,q) input with q >= 1, kernel_P for q = 0) and pulled back to X through
the Plücker coordinates det F[:, A] of the SVD tangent frames of
sampling.frames_for.  It forms no closed-form density, so it can be
checked against operators._kernel_integrand, which forms nothing else.
"""

from __future__ import annotations

import itertools

import numpy as np

from conekop import kernels
from conekop import operators as O
from conekop.sampling import PointBatch, frames_for


def frame_densities(v, phis, z, cfg, batch: PointBatch) -> list[np.ndarray]:
    """Per input phi, the (len(batch), width) density of omega ^ kernel ^ phi,
    columns over O.output_subsets(N, q - 1) for K and the one column () for
    P; rows at the cone point or at z read 0, every other row is evaluated.
    The frames, omega and each kernel are formed once for all inputs."""
    N, n = v.ambient_dim, v.dim
    ok = (batch.norms() > O._TINY) & (batch.dist(z) > O._TINY)
    pts = batch.positions[ok]
    frames = frames_for(v, pts)
    plucker = {sum(1 << j for j in A): np.linalg.det(frames[..., list(A)])
               for A in itertools.combinations(range(N), n)}
    omega = kernels.structure_form(v, pts, batch.minors[ok])
    formed = {}
    outs = []
    for phi in phis:
        kernel = kernels.kernel_K if phi.q else kernels.kernel_P
        if kernel not in formed:
            formed[kernel] = kernel(v, pts, z, cfg)
        total = formed[kernel].wedge(phi.form_value(pts)).restricted_to_dim(n)
        dens = omega.wedge(total).pullback_surface(plucker)
        subsets = O.output_subsets(N, phi.q - 1) if phi.q else [()]
        out = np.zeros((len(batch), len(subsets)), dtype=complex)
        for i, s in enumerate(subsets):
            m = sum(1 << j for j in s)
            if m in dens:
                out[ok, i] = dens[m]
        outs.append(out)
    return outs
