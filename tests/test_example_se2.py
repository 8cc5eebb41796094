"""Tests for the two-body system wiring: Lagrangian, connections, reduced
model, closed-form dynamics and the staged-reduction configuration."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpsim.dlps import simulate, step
from dlpsim.errors import DomainError
from dlpsim.example_se2 import (TwoBodyConfig, closed_form_reduced_step,
                                make_full_system, make_reduced_system,
                                make_staged_setup, potential_handle,
                                sample_annulus, sample_configuration,
                                sample_cprime)
from dlpsim.lie import sample_group, se2_two_point_action, t2_two_point_action
from dlpsim.reduction import (SYMMETRY_TOLS, check_symmetry, project_path,
                              reconstruct_path, two_stage)
from dlpsim.smooth import SmoothMapHandle, jacobian_fd

SQRT2 = np.sqrt(2.0)


def test_lagrangian_hand_value():
    """V = 0, h = 1, both particles moved by one unit: L = 1."""
    cfg = TwoBodyConfig(h=1.0, potential=potential_handle("zero"))
    sys = make_full_system(cfg)
    q0 = np.array([0.0, 0.0, 2.0, 0.0])
    q1 = q0 + np.array([1.0, 0.0, 1.0, 0.0])
    assert sys.lag(np.concatenate([q0, q1])) == pytest.approx(1.0, abs=1e-14)


def test_lagrangian_group_invariance(full_system, rng):
    act = se2_two_point_action()
    for _ in range(100):
        x = sample_cprime(rng)
        g = sample_group(act.group, rng)
        gx = np.concatenate([act.act(g, x[:4]), act.act(g, x[4:])])
        assert abs(full_system.lag(gx) - full_system.lag(x)) < 1e-12


def test_lagrangian_rejects_coincident_particles(full_system):
    bad = np.array([1.0, 0.0, 1.0, 0.0])
    ok = np.array([1.0, 0.0, -1.0, 0.0])
    with pytest.raises(DomainError):
        full_system.lag(np.concatenate([bad, ok]))
    with pytest.raises(DomainError):
        full_system.lag(np.concatenate([ok, bad]))


def test_potential_families():
    lin = potential_handle("linear", 0.5)
    quad = potential_handle("quadratic", 0.25)
    s = np.array([3.0])
    assert lin(s)[0] == pytest.approx(1.5)
    assert quad(s)[0] == pytest.approx(2.25)
    cfg = TwoBodyConfig(h=0.1, potential=quad)
    assert cfg.v_prime(3.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        potential_handle("unknown")


def test_user_potential_with_callable_v_second_steps_exactly(rng):
    """A user potential V(s) = c s^3 with callable V' and V'' gives the
    Lagrangian a Hessian that matches central differences of its gradient,
    and a step whose Newton Jacobian it is lands on the step that
    differences the residual, from the README start and seeded draws."""
    c = 0.05
    cubic = SmoothMapHandle(1, 1, lambda s: c * s ** 3,
                            jac=lambda s: np.array([[3.0 * c * s[0] ** 2]]),
                            hess=lambda s: np.array([[6.0 * c * s[0]]]))
    cfg = TwoBodyConfig(h=0.1, potential=cubic)
    assert cfg.v_second(2.0) == 6.0 * c * 2.0
    sys = make_full_system(cfg)
    L = sys.lagrangian
    assert callable(L.hess) and sys._newton_jac is not None
    fd_sys = dataclasses.replace(sys, lagrangian=dataclasses.replace(L, hess=None))
    starts = [(np.array([1.0, 0.0, -1.0, 0.0]), np.array([1.04, 0.03, -0.97, 0.02]))]
    for _ in range(10):
        q0 = sample_configuration(rng)
        starts.append((q0, q0 + rng.uniform(-0.05, 0.05, 4)))
    for q0, q1 in starts:
        x = np.concatenate([q0, q1])
        fd = jacobian_fd(lambda y: L.jacobian(y)[0], x)
        # The worst of 200 seeded draws reads 7.7e-11, relative.
        assert np.max(np.abs(L.hessian(x) - fd)) <= 1e-9 * max(1.0, np.max(np.abs(fd)))
        exact = np.concatenate(step(sys, q0, q1))
        assert np.max(np.abs(exact - np.concatenate(step(fd_sys, q0, q1)))) <= 1e-10


def test_zero_timestep_rejected():
    with pytest.raises(ValueError):
        TwoBodyConfig(h=0.0)


def test_reduced_model_upsilon_section_roundtrip(reduced, rng):
    for _ in range(100):
        y = reduced.model.upsilon(sample_cprime(rng))
        back = reduced.model.upsilon(reduced.model.lift_section(y))
        assert np.max(np.abs(back - y)) < 1e-10


def test_reduced_model_jacobians_match_fd_oracle(reduced, rng):
    """The constant Jacobians of upsilon, lift_section and the reduced phi
    agree with central differences of their maps."""
    model = reduced.model
    phi = model.reduced_bundle.phi
    for handle in (model.upsilon, model.lift_section, phi):
        assert handle.jac is not None
    for _ in range(50):
        x = sample_cprime(rng)
        y = model.upsilon(x)
        for handle, point in ((model.upsilon, x), (model.lift_section, y),
                              (phi, y[:4])):
            oracle = jacobian_fd(handle.eval, point)
            assert np.max(np.abs(handle.jacobian(point) - oracle)) <= 1e-9


def test_closed_form_reduced_step_printed_case(body_cfg):
    """V(s) = s/2, h = 0.1, (r0, z0, r1) = (1, 0, 1): z1 = 0, r2 = 0.99."""
    r1, z1, r2 = closed_form_reduced_step(body_cfg, [1.0, 0.0], [0.0, 0.0],
                                          [1.0, 0.0])
    assert np.max(np.abs(z1)) == 0.0
    assert np.max(np.abs(r2 - np.array([0.99, 0.0]))) < 1e-15


def test_closed_form_free_motion():
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle("zero"))
    r0, r1 = np.array([0.5, 0.2]), np.array([0.6, 0.1])
    _, _, r2 = closed_form_reduced_step(cfg, r0, [0.0, 0.0], r1)
    assert np.max(np.abs(r2 - (2 * r1 - r0))) < 1e-15


def test_closed_form_collision_rejected(body_cfg):
    with pytest.raises(DomainError):
        closed_form_reduced_step(body_cfg, [1.0, 0.0], [0.0, 0.0], [0.0, 0.0])


def test_generic_step_matches_closed_form(reduced, body_cfg, rng):
    from dlpsim.dlps import step
    for _ in range(100):
        r0 = sample_annulus(rng, 0.7, 1.3)
        z0 = rng.uniform(-0.4, 0.4, 2)
        r1 = r0 + rng.uniform(-0.15, 0.15, 2)
        eps1, m2 = step(reduced.system, np.concatenate([r0, z0]), r1)
        _, z1c, r2c = closed_form_reduced_step(body_cfg, r0, z0, r1)
        assert np.max(np.abs(eps1[2:] - z1c)) < 1e-10
        assert np.max(np.abs(m2 - r2c)) < 1e-10


def test_full_step_projects_to_closed_form(full_system, reduced, body_cfg,
                                           rng):
    """Cross-check: solve upstairs in all eight coordinates, project down."""
    from dlpsim.dlps import step
    for _ in range(10):
        r0 = sample_annulus(rng, 0.7, 1.3)
        x = reduced.model.lift_section(np.concatenate(
            [r0, rng.uniform(-0.3, 0.3, 2), r0 + rng.uniform(-0.15, 0.15, 2)]))
        y = reduced.model.upsilon(x)
        eps1, m2 = step(full_system, x[:4], x[4:])
        projected = reduced.model.upsilon(np.concatenate([x[4:], m2]))
        _, z1c, r2c = closed_form_reduced_step(body_cfg, y[:2], y[2:4], y[4:])
        assert np.max(np.abs(projected[4:] - r2c)) < 1e-9
        assert np.max(np.abs(projected[2:4] - z1c)) < 1e-9


@pytest.mark.parametrize("pot_name,coeff", [("linear", 0.5), ("linear", 1.0),
                                            ("quadratic", 0.25)])
def test_project_reconstruct_roundtrip_potentials(pot_name, coeff, full_start):
    """Potentials s/2, s, s^2/4: projection and reconstruction both hold."""
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle(pot_name, coeff))
    sys = make_full_system(cfg)
    red = make_reduced_system(cfg, rng=np.random.default_rng(12))
    traj = simulate(sys, *full_start, 50)
    red_path = project_path(red.model, traj)
    rebuilt = reconstruct_path(red.model, red_path, *full_start)
    assert np.max(np.abs(traj.points - rebuilt.points)) <= 1e-8
    z0 = red_path[0][0][2:]
    assert max(float(np.max(np.abs(p[0][2:] - z0)))
               for p in red_path.pairs) <= 1e-10


@pytest.mark.parametrize("build", [make_reduced_system, make_staged_setup])
def test_builds_leave_the_given_generator_untouched(body_cfg, build):
    """A build validates with children of ``rng`` (``rng.spawn``), so the
    generator it was given draws on as if the build had not run."""
    rng = np.random.default_rng(3)
    build(body_cfg, rng=rng)
    assert rng.random() == np.random.default_rng(3).random()


def test_staged_setup_conjugation_condition(staged, rng):
    """The first-stage form is conjugation-equivariant under the full group."""
    for _ in range(100):
        q0, q1 = (staged.conn_h.quotient.sample(rng) for _ in range(2))
        g = sample_group(staged.action_g.group, rng)
        lhs = staged.conn_h.ad_form(staged.action_g.act(g, q0),
                                    staged.action_g.act(g, q1))
        rhs = staged.conjugate_in_g(g, staged.conn_h.ad_form(q0, q1))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_residual_action_is_action(staged, rng):
    G = staged.residual_action.group
    act = staged.residual_action.act
    for _ in range(100):
        y = np.concatenate([sample_annulus(rng), rng.uniform(-2, 2, 2)])
        g1, g2 = sample_group(G, rng), sample_group(G, rng)
        assert np.max(np.abs(act(G.identity, y) - y)) < 1e-12
        assert np.max(np.abs(act(g1, act(g2, y))
                             - act(G.compose(g1, g2), y))) < 1e-12


def test_residual_action_preserves_reduced_lagrangian(staged, rng):
    sysr = staged.stage_h.system
    act = staged.residual_action
    for _ in range(100):
        y = staged.stage_h.model.upsilon(sample_cprime(rng))
        g = sample_group(act.group, rng)
        gy = np.concatenate([act.act(g, y[:4]),
                             staged.stage_gh.model.action_m.act(g, y[4:])])
        assert abs(sysr.lag(gy) - sysr.lag(y)) < 1e-12


#: Each shipped symmetry as (system, action on E, action on M, sampler).
SHIPPED_SYMMETRIES = {
    "T2-full": lambda full, staged: (
        full, t2_two_point_action(), t2_two_point_action(), sample_cprime),
    "SE2-full": lambda full, staged: (
        full, se2_two_point_action(), se2_two_point_action(), sample_cprime),
    "residual-U1-reduced": lambda full, staged: (
        staged.stage_h.system, staged.residual_action, staged.stage_gh.model.action_m,
        lambda r: staged.stage_h.model.upsilon(sample_cprime(r))),
}


@pytest.mark.parametrize("symmetry", list(SHIPPED_SYMMETRIES.values()),
                         ids=list(SHIPPED_SYMMETRIES))
def test_shipped_symmetries_pass_check_symmetry(full_system, staged, rng, symmetry):
    """Each shipped group acts by a genuine left action of bundle maps,
    leaving the Lagrangian invariant to 1e-12 and the chaining map
    equivariant to the bound ``reduce`` validates."""
    report = check_symmetry(*symmetry(full_system, staged), n_samples=100, rng=rng)
    chaining = "chaining-map G-equivariance"
    bounds = {**dict.fromkeys(report, 1e-12), chaining: SYMMETRY_TOLS[chaining]}
    assert {name: worst for name, (worst, _) in report.items()
            if worst > bounds[name]} == {}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(SHIPPED_SYMMETRIES)))
def test_shipped_symmetries_pass_check_symmetry_on_random_draws(full_system, staged,
                                                                seed, name):
    """For random seeds, every shipped symmetry stays within the bounds
    ``reduce`` validates, ``SYMMETRY_TOLS``."""
    report = check_symmetry(*SHIPPED_SYMMETRIES[name](full_system, staged),
                            rng=np.random.default_rng(seed))
    assert {cond: worst for cond, (worst, _) in report.items()
            if not worst <= SYMMETRY_TOLS[cond]} == {}


def test_one_shot_reduction_roundtrip(staged):
    """Project and reconstruct through the full-group reduction, on a
    trajectory with genuine rotational motion (exercises the angle chart
    and the full-group matching solver)."""
    from dlpsim.dlps import del_residual
    q0 = np.array([1.0, 0.0, -1.0, 0.0])
    q1 = np.array([0.995, 0.09, -0.995, -0.09])
    traj = simulate(staged.sys, q0, q1, 60)
    red_path = project_path(staged.one_shot.model, traj)
    worst = 0.0
    for k in range(1, len(red_path)):
        r = del_residual(staged.one_shot.system, *red_path[k - 1],
                         *red_path[k])
        worst = max(worst, float(np.max(np.abs(r))))
    assert worst <= 1e-8
    rebuilt = reconstruct_path(staged.one_shot.model, red_path, q0, q1)
    assert np.max(np.abs(traj.points - rebuilt.points)) <= 1e-8

    report, _ = two_stage(staged.sys, staged.stage_h, staged.stage_gh,
                          staged.one_shot, traj, conn_h=staged.conn_h,
                          full_group_action=staged.action_g,
                          conjugate_in_full=staged.conjugate_in_g,
                          rng=np.random.default_rng(11235))
    assert report["stage_comparison_max"] <= 1e-8


@pytest.mark.parametrize("h,pot", [(0.05, ("linear", 0.5)),
                                   (0.2, ("quadratic", 0.25)),
                                   (-0.1, ("linear", 0.5))])
def test_closed_form_agreement_across_timesteps(h, pot, rng):
    """The generic solver tracks the closed form for other timesteps,
    including negative ones (only h != 0 is required)."""
    from dlpsim.dlps import step
    cfg = TwoBodyConfig(h=h, potential=potential_handle(*pot))
    red = make_reduced_system(cfg, rng=np.random.default_rng(14))
    for _ in range(10):
        r0 = sample_annulus(rng, 0.7, 1.3)
        z0 = rng.uniform(-0.2, 0.2, 2)
        r1 = r0 + rng.uniform(-0.1, 0.1, 2)
        eps1, m2 = step(red.system, np.concatenate([r0, z0]), r1)
        _, z1c, r2c = closed_form_reduced_step(cfg, r0, z0, r1)
        assert np.max(np.abs(eps1[2:] - z1c)) < 1e-10
        assert np.max(np.abs(m2 - r2c)) < 1e-10


def test_two_stage_report(staged, full_start):
    traj = simulate(staged.sys, *full_start, 50)
    report, F = two_stage(staged.sys, staged.stage_h, staged.stage_gh,
                          staged.one_shot, traj, conn_h=staged.conn_h,
                          full_group_action=staged.action_g,
                          conjugate_in_full=staged.conjugate_in_g,
                          rng=np.random.default_rng(11235))
    assert report["stage_comparison_max"] <= 1e-8

    # F maps second-stage coordinates onto one-shot coordinates pointwise
    x = np.concatenate(traj[7])
    y_gh = staged.stage_gh.model.upsilon(staged.stage_h.model.upsilon(x))
    assert np.max(np.abs(F(y_gh) - staged.one_shot.model.upsilon(x))) <= 1e-10
