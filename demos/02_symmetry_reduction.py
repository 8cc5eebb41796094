"""Reducing the two-body system by its translation symmetry.

The quotient dynamics live on relative-position coordinates plus a stored
translation offset. Projecting a full trajectory gives a trajectory of
the reduced system (and vice versa); the offset coordinate is constant
because it is proportional to the center-of-mass velocity. Reconstruction
lifts the reduced trajectory back, recovering the original run exactly.
"""

import numpy as np

from dlpsim import (TwoBodyConfig, make_full_system, make_reduced_system,
                    potential_handle, simulate)
from dlpsim.dlps import del_residual
from dlpsim.reduction import project_path, reconstruct_path

cfg = TwoBodyConfig(h=0.1, potential=potential_handle("linear", 0.5))
full = make_full_system(cfg)
red = make_reduced_system(cfg, rng=np.random.default_rng(0))

q0 = np.array([1.0, 0.0, -1.0, 0.0])
q1 = np.array([1.04, 0.03, -0.97, 0.02])
trajectory = simulate(full, q0, q1, 50)

projected = project_path(red.model, trajectory)
residuals = [
    float(np.max(np.abs(del_residual(red.system, *projected[k - 1],
                                     *projected[k]))))
    for k in range(1, len(projected))]
print(f"projected path: max reduced residual {max(residuals):.3e} "
      "(a genuine reduced trajectory)")

z = projected.points[:, 2:4]
z_drift = float(np.max(np.abs(z - z[0])))
print(f"stored offset (center-of-mass velocity) drift: {z_drift:.3e}")

# simulate the reduced system directly from the projected start
y0 = red.model.upsilon(np.concatenate([q0, q1]))
direct = simulate(red.system, y0[:4], y0[4:], 50)
diff = np.max(np.abs(projected.points - direct.points))
print(f"projection vs direct reduced integration: {diff:.3e}")

rebuilt = reconstruct_path(red.model, projected, q0, q1)
roundtrip = np.max(np.abs(trajectory.points - rebuilt.points))
print(f"reconstruct(project(trajectory)) roundtrip error: {roundtrip:.3e}")
