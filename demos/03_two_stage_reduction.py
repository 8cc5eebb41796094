"""Reduction by stages: translations first, then the residual rotations.

The planar isometry group contains the translations as a closed normal
subgroup. Reducing by translations leaves a circle action on the reduced
space; reducing again is equivalent to reducing by the full group in one
shot. The comparison map between the two-stage and one-shot reduced
spaces is realized by lifting through both stage sections, and matches
the one-shot morphism along trajectories to machine precision.
"""

import numpy as np

from dlpsim import TwoBodyConfig, make_staged_setup, potential_handle, simulate
from dlpsim.reduction import two_stage

cfg = TwoBodyConfig(h=0.1, potential=potential_handle("linear", 0.5))
setup = make_staged_setup(cfg, rng=np.random.default_rng(0))

q0 = np.array([1.0, 0.0, -1.0, 0.0])
q1 = np.array([1.04, 0.03, -0.97, 0.02])
trajectory = simulate(setup.sys, q0, q1, 50)

report, F = two_stage(setup.sys, setup.stage_h, setup.stage_gh,
                      setup.one_shot, trajectory, conn_h=setup.conn_h,
                      full_group_action=setup.action_g,
                      conjugate_in_full=setup.conjugate_in_g,
                      rng=np.random.default_rng(11235))

print("first-stage connection conjugation-equivariance:",
      f"{report['conjugation_equivariance_max']:.3e}")
print("two-stage vs one-shot comparison over the trajectory:",
      f"{report['stage_comparison_max']:.3e}")

x = trajectory.points[10]
y_h = setup.stage_h.model.upsilon(x)
y_gh = setup.stage_gh.model.upsilon(y_h)
y_g = setup.one_shot.model.upsilon(x)
print("\nsample point, step 10:")
print("  stage-one coordinates:   ", np.round(y_h, 6))
print("  stage-two coordinates:   ", np.round(y_gh, 6))
print("  one-shot coordinates:    ", np.round(y_g, 6))
print("  F(stage-two):            ", np.round(F(y_gh), 6))
