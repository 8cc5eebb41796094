"""Numerical verification of the structural identities.

Four independent checks: the integrator's one-step map preserves the
discrete Lagrangian two-form Omega_L = D12 L_d dq0 ^ dq1 in pair
coordinates; the momentum evolution identity holds along reduced
trajectories (with the chaining correction); the bracket of pulled-back
functions is constant on group orbits (Poisson descent); and the
reduction morphism satisfies the pointwise morphism conditions while a
perturbed map visibly fails them.
"""

import numpy as np

from dlpsim import (TwoBodyConfig, make_full_system, make_reduced_system,
                    make_staged_setup, potential_handle, simulate)
from dlpsim.diagnostics import (momentum_evolution_check,
                                poisson_descent_check, symplectic_check)
from dlpsim.example_se2 import sample_cprime
from dlpsim.reduction import check_morphism
from dlpsim.smooth import SmoothMapHandle

cfg = TwoBodyConfig(h=0.1, potential=potential_handle("linear", 0.5))
full = make_full_system(cfg)
red = make_reduced_system(cfg, rng=np.random.default_rng(3))
setup = make_staged_setup(cfg, rng=np.random.default_rng(4))

q0 = np.array([1.0, 0.0, -1.0, 0.0])
q1 = np.array([1.04, 0.03, -0.97, 0.02])

print("-- symplecticity of the one-step map (20 steps)")
rep = symplectic_check(full, simulate(full, q0, q1, 20))
print(f"   max |K^T Omega_L(F(x)) K - Omega_L(x)| = {rep['max_violation']:.3e}")

print("-- momentum evolution on the reduced system (50 steps)")
y0 = red.model.upsilon(np.concatenate([q0, q1]))
reduced_traj = simulate(red.system, y0[:4], y0[4:], 50)
rep = momentum_evolution_check(red.system, setup.residual_action, reduced_traj)
print(f"   identity violation = {rep['max_violation']:.3e}")

print("-- Poisson descent: orbit-invariance of the bracket of pullbacks")
fns = [SmoothMapHandle(6, 1, lambda y, i=i: y[i:i + 1]) for i in (0, 2, 4)]
rep = poisson_descent_check(red.model, full, fns, n_samples=10,
                            rng=np.random.default_rng(0), n_group=3)
print(f"   max orbit variation = {rep['max_orbit_variation']:.3e}")

print("-- morphism conditions for the reduction map")
rep = check_morphism(red.model.upsilon, full, red.system, sample_cprime,
                     n_samples=30, rng=np.random.default_rng(1))
for key in ("cond3_base_independence_max", "cond4_base_compatibility_max",
            "cond5_lagrangian_match_max", "cond6_chaining_intertwine_max"):
    print(f"   {key} = {rep[key]:.3e}")

print("-- negative control: a perturbed map is not a morphism")


def perturbed(x):
    y = red.model.upsilon(x).copy()
    y[0] += 0.1
    return y


rep = check_morphism(SmoothMapHandle(8, 6, perturbed), full, red.system,
                     sample_cprime, n_samples=30, rng=np.random.default_rng(2))
print(f"   Lagrangian-match violation = "
      f"{rep['cond5_lagrangian_match_max']:.3e} (should be large)")
