"""Tests for momentum maps, symplecticity and Poisson descent."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpsim import diagnostics
from dlpsim.diagnostics import (bracket_of_pullbacks, momentum,
                                momentum_evolution_check,
                                poisson_descent_check, symplectic_check)
from dlpsim.dlps import (d1_lagrangian, free_particle_dms, from_dms,
                         harmonic_oscillator_dms, make_path, simulate, step)
from dlpsim.errors import RegularityError
from dlpsim.example_se2 import (TwoBodyConfig, make_full_system,
                                potential_handle, sample_configuration,
                                sample_cprime)
from dlpsim.lie import ActionModel, LieGroupModel, t2_two_point_action
from dlpsim.smooth import SmoothMapHandle, jacobian_fd
from oracles import canonical_step_map, trivial_reduction


def _pullback_gradient_legendre(sys, fn, model, z, q1_guess):
    """Gradient in Legendre coordinates of a reduced function's pullback."""
    n = sys.bundle.total_dim
    step_map = canonical_step_map(sys, q1_guess)

    def value(zz):
        q1 = step_map(zz)[:n]
        return fn(model.upsilon(np.concatenate([zz[:n], q1])))

    return jacobian_fd(value, z)[0]


def bracket_via_legendre_chart(sys, model, f1, f2, x):
    """Canonical bracket of pullbacks computed in the Legendre chart.

    Slow route (each perturbed evaluation re-solves the implicit Legendre
    relation); the independent cross-check of ``bracket_of_pullbacks``.
    """
    n = sys.bundle.total_dim
    q0, q1 = x[:n], x[n:]
    p0 = -d1_lagrangian(sys, q0, q1)
    z = np.concatenate([q0, p0])
    g1 = _pullback_gradient_legendre(sys, f1, model, z, q1)
    g2 = _pullback_gradient_legendre(sys, f2, model, z, q1)
    return float(g1[:n] @ g2[n:] - g1[n:] @ g2[:n])


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


def test_momentum_evolution_check_takes_one_gradient_per_pair(full_system,
                                                              full_start):
    """An 11-pair path costs 11 Lagrangian gradient calls: each pair's
    gradient feeds both its DEL residuals and its momentum."""
    traj = simulate(full_system, *full_start, 10)
    L = full_system.lagrangian
    calls = []
    counting = dataclasses.replace(full_system, lagrangian=dataclasses.replace(
        L, jac=lambda x: calls.append(x) or L.jac(x)))
    momentum_evolution_check(counting, t2_two_point_action(), traj)
    assert len(traj) == 11 and len(calls) == 11


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


def test_momentum_check_keeps_nan(full_system, full_start):
    """A NaN chaining matrix makes the evolution identity and the DEL
    residual NaN: the check reports NaN and a failed precondition, not
    0.0 and ok."""
    traj = simulate(full_system, *full_start, 5)
    nan = np.full((4, 4), np.nan)
    broken = dataclasses.replace(full_system, ivcm_matrix=lambda x0, x1: nan)
    rep = momentum_evolution_check(broken, t2_two_point_action(), traj)
    assert np.isnan(rep["max_violation"])
    assert np.isnan(rep["max_del_residual"])
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


def test_symplectic_check_differences_the_step(full_system, full_start,
                                               monkeypatch):
    """Negative control: a step whose q2 is off by -1e-3 (q1 - q0) does
    not preserve the two-form, and the check, which differences the step
    it is given, reads that (1.0e-2 on the README trajectory)."""
    traj = simulate(full_system, *full_start, 20)

    def off_step(dms, q0, q1, cfg=None):
        q1_next, q2 = step(dms, q0, q1, cfg)
        return q1_next, q2 - 1e-3 * (q1 - q0)

    monkeypatch.setattr(diagnostics, "step", off_step)
    assert symplectic_check(full_system, traj)["max_violation"] > 1e-6


def legendre_symplectic_defect(sys, traj):
    """max |K^T Omega K - Omega| of the Legendre-chart step map of
    ``oracles`` over a trajectory's steps, Omega the canonical form."""
    n = sys.bundle.total_dim
    Omega = np.block([[np.zeros((n, n)), np.eye(n)],
                      [-np.eye(n), np.zeros((n, n))]])
    worst = 0.0
    for k in range(len(traj) - 1):
        q0, q1 = traj[k]
        z = np.concatenate([q0, -d1_lagrangian(sys, q0, q1)])
        K = jacobian_fd(canonical_step_map(sys, traj[k + 1][0]), z)
        worst = max(worst, float(np.max(np.abs(K.T @ Omega @ K - Omega))))
    return worst


def test_legendre_chart_step_map_is_symplectic(full_system, full_start):
    """The Legendre-chart identity the check read before it differenced
    ``dlps.step``: the oracle's canonical map preserves Omega."""
    ho = harmonic_oscillator_dms(h=0.1)
    assert legendre_symplectic_defect(
        ho, simulate(ho, [1.0], [0.995], 20)) <= 1e-6
    assert legendre_symplectic_defect(
        full_system, simulate(full_system, *full_start, 20)) <= 1e-6


@functools.lru_cache(maxsize=None)
def _dms(name):
    if name == "oscillator":
        return harmonic_oscillator_dms(h=0.1)
    family, coeff = name.split()
    return make_full_system(TwoBodyConfig(
        h=0.1, potential=potential_handle(family, float(coeff))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(["linear 0.5", "quadratic 0.3", "zero 0", "oscillator"]),
       st.integers(0, 2 ** 32 - 1))
def test_symplectic_from_random_starts(name, seed):
    """Three steps from a start in the ``sample_configuration`` box, with a
    first step of at most 0.05 per coordinate, preserve the two-form."""
    sys = _dms(name)
    rng = np.random.default_rng(seed)
    n = sys.bundle.total_dim
    q0 = sample_configuration(rng) if n == 4 else rng.uniform(-2.0, 2.0, 1)
    q1 = q0 + rng.uniform(-0.05, 0.05, n)
    rep = symplectic_check(sys, simulate(sys, q0, q1, 3))
    assert rep["n_steps"] == 3 and rep["max_violation"] <= 1e-6


def test_symplectic_regularity_error():
    """A Lagrangian with no velocity coupling has a singular mixed block."""
    sys = from_dms(1, SmoothMapHandle(
        2, 1, lambda x: np.array([x[0] ** 2 + x[1] ** 2])))
    traj = make_path([(np.array([0.3]), np.array([0.4])),
                      (np.array([0.4]), np.array([0.5]))])
    with pytest.raises(RegularityError):
        symplectic_check(sys, traj)


def test_symplectic_nan_block_is_a_regularity_error():
    """A Lagrangian that is NaN for q0 > 0.5 makes the second step's
    mixed-partial block NaN: a RegularityError, not numpy's LinAlgError."""
    sys = from_dms(1, SmoothMapHandle(2, 1, lambda x: np.array(
        [0.5 * (x[1] - x[0]) ** 2 + (np.nan if x[0] > 0.5 else 0.0)])))
    traj = make_path([(np.array([float(k)]), np.array([k + 1.0]))
                      for k in range(3)])
    with pytest.raises(RegularityError, match="not finite"):
        symplectic_check(sys, traj)


def test_bracket_constants_vanish(full_system, reduced, rng):
    c1 = SmoothMapHandle(6, 1, lambda y: np.array([1.0]))
    c2 = SmoothMapHandle(6, 1, lambda y: np.array([-2.0]))
    x = sample_cprime(rng)
    assert abs(bracket_of_pullbacks(full_system, reduced.model, c1, c2, x)) < 1e-12


def test_bracket_differences_the_mixed_partial_once(full_system, reduced, rng,
                                                     monkeypatch):
    """One bracket forms the mixed-partial block once: the regularity
    check reads the block the bracket solves with."""
    calls = []
    mixed_partial = diagnostics._mixed_partial

    def counting(*args):
        calls.append(1)
        return mixed_partial(*args)

    monkeypatch.setattr(diagnostics, "_mixed_partial", counting)
    f, g = (SmoothMapHandle(6, 1, lambda y, i=i: y[i:i + 1]) for i in (0, 4))
    bracket_of_pullbacks(full_system, reduced.model, f, g, sample_cprime(rng))
    assert len(calls) == 1


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


@pytest.mark.parametrize("counts", [(0, 5), (3, 0), (-1, 5)])
def test_poisson_descent_rejects_empty_counts(full_system, reduced, counts):
    """No sample or no group element would read as a vacuous 0.0 pass."""
    n_samples, n_group = counts
    fns = [SmoothMapHandle(6, 1, lambda y, i=i: y[i:i + 1]) for i in (0, 2)]
    with pytest.raises(ValueError, match="at least 1"):
        poisson_descent_check(reduced.model, full_system, fns,
                              n_samples=n_samples, n_group=n_group)
