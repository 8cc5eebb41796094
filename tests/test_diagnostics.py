"""Tests for momentum maps, symplecticity and Poisson descent."""

import numpy as np
import pytest

from dlpsim.diagnostics import (bracket_of_pullbacks,
                                bracket_via_legendre_chart, momentum,
                                momentum_evolution_check,
                                poisson_descent_check, symplectic_check)
from dlpsim.dlps import (free_particle_dms, from_dms, harmonic_oscillator_dms,
                         make_path, simulate)
from dlpsim.errors import RegularityError
from dlpsim.example_se2 import sample_cprime
from dlpsim.lie import ActionModel, LieGroupModel, t2_two_point_action
from dlpsim.reduction import trivial_reduction
from dlpsim.smooth import SmoothMapHandle


def line_translation_action():
    """Translations of the real line, for scalar DMS momenta."""
    G = LieGroupModel(
        dim=1, identity=np.zeros(1),
        compose=lambda a, b: a + b,
        inverse=lambda g: -g,
        from_params=lambda p: np.atleast_1d(np.asarray(p, float)).copy())
    return ActionModel(group=G, space_dim=1, act=lambda g, q: q + g)


def test_momentum_free_particle_value():
    """L = (q1-q0)^2/2, h = 1, (q0, q1) = (0, 2): momentum 2."""
    sys = free_particle_dms(dim=1, h=1.0)
    J = momentum(sys, line_translation_action(), [0.0], [2.0])
    assert abs(J[0] - 2.0) < 1e-9


def test_momentum_vanishes_at_rest():
    sys = free_particle_dms(dim=1, h=1.0)
    J = momentum(sys, line_translation_action(), [0.7], [0.7])
    assert abs(J[0]) < 1e-11


def test_momentum_two_body_hand_formula(full_system, body_cfg, rng):
    """Translation momentum is the summed displacement over the timestep."""
    act = t2_two_point_action()
    for _ in range(20):
        x = sample_cprime(rng)
        q0, q1 = x[:4], x[4:]
        J = momentum(full_system, act, q0, q1)
        expected = ((q1[:2] - q0[:2]) + (q1[2:] - q0[2:])) / body_cfg.h
        assert np.max(np.abs(J - expected)) < 1e-9


def test_momentum_conserved_dms(full_system, full_start):
    """Zero chaining map: translation momentum is constant, identity exact."""
    traj = simulate(full_system, *full_start, 100)
    rep = momentum_evolution_check(full_system, t2_two_point_action(), traj)
    assert rep["precondition_ok"]
    assert rep["max_violation"] <= 1e-10
    assert rep["max_conservation_drift"] <= 1e-10


def test_momentum_evolution_reduced(reduced, staged, full_start):
    """The evolution identity holds with the residual circle action."""
    y0 = reduced.model.upsilon(np.concatenate(full_start))
    traj = simulate(reduced.system, y0[:4], y0[4:], 50)
    rep = momentum_evolution_check(reduced.system, staged.residual_action, traj)
    assert rep["precondition_ok"]
    assert rep["max_violation"] <= 1e-8


def test_momentum_check_flags_non_trajectory(full_system, rng):
    pts = [sample_cprime(rng)[:4] for _ in range(4)]
    from dlpsim.dlps import path_from_points
    rep = momentum_evolution_check(full_system, t2_two_point_action(),
                                   path_from_points(pts))
    assert not rep["precondition_ok"]


def test_symplectic_harmonic():
    sys = harmonic_oscillator_dms(h=0.1)
    traj = simulate(sys, [1.0], [0.995], 20)
    rep = symplectic_check(sys, traj)
    assert rep["max_violation"] <= 1e-6
    assert rep["n_steps"] == 20


def test_symplectic_zero_steps():
    sys = harmonic_oscillator_dms(h=0.1)
    traj = make_path([(np.array([1.0]), np.array([0.995]))])
    rep = symplectic_check(sys, traj)
    assert rep["max_violation"] == 0.0
    assert rep["n_steps"] == 0


def test_symplectic_two_body(full_system, full_start):
    traj = simulate(full_system, *full_start, 20)
    rep = symplectic_check(full_system, traj)
    assert rep["max_violation"] <= 1e-6


def test_symplectic_free_particle():
    sys = free_particle_dms(dim=2, h=0.5)
    traj = simulate(sys, np.zeros(2), np.array([0.1, 0.05]), 20)
    rep = symplectic_check(sys, traj)
    assert rep["max_violation"] <= 1e-6


def test_symplectic_regularity_error():
    """A Lagrangian with no velocity coupling has a singular mixed block."""
    sys = from_dms(1, SmoothMapHandle(
        2, 1, lambda x: np.array([x[0] ** 2 + x[1] ** 2])))
    traj = make_path([(np.array([0.3]), np.array([0.4])),
                      (np.array([0.4]), np.array([0.5]))])
    with pytest.raises(RegularityError):
        symplectic_check(sys, traj)


def test_bracket_constants_vanish(full_system, reduced, rng):
    c1 = SmoothMapHandle(6, 1, lambda y: np.array([1.0]))
    c2 = SmoothMapHandle(6, 1, lambda y: np.array([-2.0]))
    x = sample_cprime(rng)
    assert abs(bracket_of_pullbacks(full_system, reduced.model, c1, c2, x)) < 1e-12


def test_bracket_trivial_group_canonical_oracle():
    """Through the identity reduction the bracket is the canonical one.

    For L = (q1-q0)^2/2 the Legendre chart is p0 = q1 - q0, so
    {q0, q1} = {q0, q0 + p0} = 1.
    """
    sys = free_particle_dms(dim=1, h=1.0)
    triv = trivial_reduction(sys, lambda r: r.uniform(-1, 1, 2),
                             rng=np.random.default_rng(1))
    f = SmoothMapHandle(2, 1, lambda y: y[:1])
    g = SmoothMapHandle(2, 1, lambda y: y[1:])
    val = bracket_of_pullbacks(sys, triv.model, f, g, np.array([0.3, 0.9]))
    assert abs(val - 1.0) < 1e-6


def test_bracket_two_routes_agree(full_system, reduced, rng):
    """Two-form inverse route vs Legendre-chart route."""
    fns = [SmoothMapHandle(6, 1, lambda y, i=i: y[i:i + 1]) for i in (0, 2, 4)]
    for _ in range(3):
        x = sample_cprime(rng)
        for i, j in ((0, 1), (0, 2)):
            fast = bracket_of_pullbacks(full_system, reduced.model,
                                        fns[i], fns[j], x)
            slow = bracket_via_legendre_chart(full_system, reduced.model,
                                              fns[i], fns[j], x)
            assert abs(fast - slow) < 1e-6


def test_poisson_descent_two_body(full_system, reduced):
    """The bracket of pullbacks is constant on group orbits."""
    fns = [SmoothMapHandle(6, 1, lambda y, i=i: y[i:i + 1]) for i in (0, 2, 4)]
    rep = poisson_descent_check(reduced.model, full_system, fns,
                                n_samples=20, rng=np.random.default_rng(11),
                                n_group=5)
    assert rep["max_orbit_variation"] <= 1e-6
