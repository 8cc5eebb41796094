"""Tests for the reduction morphism, reduced dynamics, reconstruction,
two-stage reduction and the morphism checker."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpsim.dlps import del_residual, simulate, step
from dlpsim.errors import MatchingError, ValidationError
from dlpsim.example_se2 import (TwoBodyConfig, closed_form_reduced_step,
                                make_full_system, make_reduced_system,
                                make_t2_connection,
                                make_weighted_t2_connection, potential_handle,
                                sample_annulus, sample_configuration,
                                sample_cprime)
from dlpsim.lie import sample_group, se2_two_point_action, t2_group, t2_two_point_action
from dlpsim.reduction import (build_upsilon, check_morphism, project_path,
                              reconstruct_path, reduce, solve_matching,
                              trivial_reduction, two_stage)
from dlpsim.smooth import SmoothMapHandle, gradient_fd5, jacobian_fd

SQRT2 = np.sqrt(2.0)
TRAJ_TOL = 1e-8

#: Random two-body configs: (seed, potential, h) with a linear potential of
#: coefficient in [0, 1] or a quadratic one in [0, 0.5], and |h| in [0.02, 0.2].
RANDOM_BODIES = (
    st.integers(0, 2 ** 32 - 1),
    st.one_of(st.tuples(st.just("linear"), st.floats(0.0, 1.0)),
              st.tuples(st.just("quadratic"), st.floats(0.0, 0.5))),
    st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]),
              st.floats(0.02, 0.2)))


def test_upsilon_printed_value(reduced):
    """q0 = (0, 2), q1 = (1, 3): reduced point ((-sqrt2, 1), -sqrt2)."""
    x = np.array([0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 3.0, 0.0])
    y = reduced.model.upsilon(x)
    expected = np.array([-SQRT2, 0.0, 1.0, 0.0, -SQRT2, 0.0])
    assert np.max(np.abs(y - expected)) < 1e-12


def test_upsilon_constant_on_orbits(reduced, rng):
    act = reduced.model.group_action
    for _ in range(100):
        x = sample_cprime(rng)
        g = sample_group(act.group, rng)
        assert np.max(np.abs(reduced.model.upsilon(act.act(g, x))
                             - reduced.model.upsilon(x))) < 1e-10


def test_upsilon_fiber_slot_isomorphism(reduced, rng):
    """The fiber-slot derivative block is a linear isomorphism at samples."""
    for _ in range(50):
        x = sample_cprime(rng)
        J = jacobian_fd(lambda e, m=x[4:]: reduced.model.upsilon(
            np.concatenate([e, m]))[:4], x[:4])
        sv = np.linalg.svd(J, compute_uv=False)
        assert sv[-1] > 1e-6
        assert np.linalg.matrix_rank(J) == 4


def test_reduced_lagrangian_closed_form(reduced, body_cfg, rng):
    """L'((r0,z0),r1) = (2|z0|^2 + |r1-r0|^2)/(2h) - (h/2) V(2|r0|^2)."""
    h = body_cfg.h
    for _ in range(100):
        r0 = sample_annulus(rng, 0.3, 2.0)
        z0 = rng.uniform(-1.5, 1.5, 2)
        r1 = rng.uniform(-2, 2, 2)
        y = np.concatenate([r0, z0, r1])
        printed = ((2 * float(z0 @ z0) + float((r1 - r0) @ (r1 - r0)))
                   / (2 * h) - 0.5 * h * body_cfg.v(2 * float(r0 @ r0)))
        assert abs(float(reduced.system.lagrangian(y)[0]) - printed) < 1e-10


def test_reduced_chaining_closed_form(reduced, rng):
    """Generic reduced chaining agrees with (b, c) -> (0, -c) at samples."""
    for _ in range(100):
        r0 = sample_annulus(rng, 0.5, 1.5)
        z0 = rng.uniform(-1, 1, 2)
        r1 = sample_annulus(rng, 0.5, 1.5)
        z1 = rng.uniform(-1, 1, 2)
        r2 = sample_annulus(rng, 0.5, 1.5)
        delta = rng.standard_normal(4)
        out = reduced.system.ivcm(np.concatenate([r0, z0, r1]),
                                  np.concatenate([r1, z1, r2]), delta)
        expected = np.array([0.0, 0.0, -delta[2], -delta[3]])
        assert np.max(np.abs(out - expected)) < 1e-9


@pytest.mark.parametrize("pot", [("linear", 0.5), ("quadratic", 0.3)])
def test_reduced_lagrangian_chain_rule_matches_fd_oracle(pot, rng):
    """The chain-rule gradient of L o lift_section against gradient_fd5."""
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle(*pot))
    red = make_reduced_system(cfg, rng=np.random.default_rng(1))
    L = red.system.lagrangian
    assert L.jac is not None
    for _ in range(50):
        y = red.model.upsilon(sample_cprime(rng))
        oracle = gradient_fd5(L, y)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(L.jacobian(y)[0] - oracle)) <= 1e-9 * scale


def _without_jac(handle):
    return dataclasses.replace(handle, jac=None)


def test_reduce_without_lift_jac_keeps_stencil(full_system, reduced):
    """No jac on lift_section (or on L): the reduced Lagrangian has none."""
    model = reduced.model
    bare_lift = dataclasses.replace(
        model, lift_section=_without_jac(model.lift_section))
    assert reduce(full_system, bare_lift).system.lagrangian.jac is None
    bare_sys = dataclasses.replace(
        full_system, lagrangian=_without_jac(full_system.lagrangian))
    assert reduce(bare_sys, model).system.lagrangian.jac is None


def test_reduced_chaining_fd_fallback_matches_closed_form(full_system, reduced,
                                                          rng):
    """Without upsilon's jac the chaining matrix takes its derivative blocks
    from jacobian_fd and agrees with the closed-form blocks."""
    model = reduced.model
    bare = dataclasses.replace(model, upsilon=_without_jac(model.upsilon))
    fd_sys = reduce(full_system, bare).system
    for _ in range(20):
        y0 = model.upsilon(sample_cprime(rng))
        y1 = model.upsilon(sample_cprime(rng))
        diff = fd_sys.ivcm_matrix(y0, y1) - reduced.system.ivcm_matrix(y0, y1)
        assert np.max(np.abs(diff)) < 1e-9


def test_trivial_group_reduction_is_identity(rng):
    """Reducing by the trivial group returns the same dynamics."""
    from dlpsim.dlps import free_particle_dms
    sys = free_particle_dms(dim=2, h=0.5)
    triv = trivial_reduction(sys, lambda r: r.uniform(-1, 1, 4),
                             rng=np.random.default_rng(3))
    x = np.array([0.1, -0.2, 0.3, 0.4])
    assert np.max(np.abs(triv.model.upsilon(x) - x)) < 1e-14
    e1, m2 = step(sys, x[:2], x[2:])
    e1r, m2r = step(triv.system, x[:2], x[2:])
    assert np.max(np.abs(e1 - e1r)) < 1e-10
    assert np.max(np.abs(m2 - m2r)) < 1e-10


def _t2_chart(e, w):
    return np.concatenate([(e[:2] - e[2:]) / SQRT2, w])


def _t2_section(v):
    return (np.concatenate([v[:2], -v[:2]]) / SQRT2,
            t2_group().from_params(v[2:]))


def test_build_upsilon_rejects_broken_symmetry():
    """A Lagrangian that is not group-invariant fails validation."""
    from dlpsim.dlps import from_dms
    conn = make_t2_connection()
    bad = from_dms(4, SmoothMapHandle(
        8, 1, lambda x: np.array([float(x[:4] @ x[:4])])))
    with pytest.raises(ValidationError):
        build_upsilon(conn, bad, fiber_chart=_t2_chart,
                      fiber_section=_t2_section,
                      action_e=t2_two_point_action(),
                      sample_cprime=sample_cprime)


def test_build_upsilon_reports_tested_chaining_point(full_system):
    """A chaining map that is not equivariant fails validation, reporting
    the row x0 = (eps0, phi(eps1)) that it was tested at."""
    broken = dataclasses.replace(full_system,
                                 ivcm=lambda x0, x1, d: x0[:4] * d[0])
    drawn = []

    def recording_sample(rng):
        drawn.append(sample_cprime(rng))
        return drawn[-1]

    with pytest.raises(ValidationError) as err:
        build_upsilon(make_t2_connection(), broken, fiber_chart=_t2_chart,
                      fiber_section=_t2_section,
                      action_e=t2_two_point_action(),
                      sample_cprime=recording_sample)
    assert err.value.identity == "chaining-map G-equivariance"
    xa, xb = drawn[-2:]
    assert np.array_equal(err.value.sample, np.concatenate([xa[:4], xb[:4]]))


@pytest.mark.parametrize("fiber_chart, fiber_section", [
    (lambda e, w: _t2_chart(e, w)[:3], _t2_section),
    (_t2_chart, lambda v: (_t2_section(v)[0][:3], _t2_section(v)[1])),
], ids=["short-chart", "short-section"])
def test_build_upsilon_rejects_wrong_length_model_maps(full_system,
                                                       fiber_chart,
                                                       fiber_section):
    """The closures are not checked themselves: the upsilon handle sees a
    short chart value, the bundle projection a short section value. It is
    a shape error, not a failed identity."""
    with pytest.raises(ValueError) as excinfo:
        build_upsilon(make_t2_connection(), full_system, fiber_chart,
                      fiber_section, action_e=t2_two_point_action(),
                      sample_cprime=sample_cprime)
    assert excinfo.type is ValueError


def test_project_trajectory_is_reduced_trajectory(full_system, reduced,
                                                  full_start):
    traj = simulate(full_system, *full_start, 50)
    red_path = project_path(reduced.model, traj)
    worst = 0.0
    for k in range(1, len(red_path)):
        res = del_residual(reduced.system, red_path[k - 1][0],
                           red_path[k - 1][1], red_path[k][0], red_path[k][1])
        worst = max(worst, float(np.max(np.abs(res))))
    assert worst <= TRAJ_TOL
    # the stored offset is constant along reduced trajectories
    z0 = red_path[0][0][2:]
    assert max(float(np.max(np.abs(p[0][2:] - z0))) for p in red_path.pairs) < 1e-10


def test_projection_of_translated_trajectory(full_system, reduced, full_start,
                                             rng):
    """Projection is constant on orbits: a translated path projects equally."""
    traj = simulate(full_system, *full_start, 10)
    g = t2_group().from_params(rng.uniform(-1, 1, 2))
    shifted = [(t2_two_point_action().act(g, e), reduced.model.action_m.act(g, m))
               for e, m in traj.pairs]
    from dlpsim.dlps import make_path
    assert np.max(np.abs(project_path(reduced.model, traj).points
                         - project_path(reduced.model, make_path(shifted)).points)) < 1e-10


def test_projection_matches_reduced_simulation(full_system, reduced,
                                               full_start):
    traj = simulate(full_system, *full_start, 50)
    red_path = project_path(reduced.model, traj)
    y0 = reduced.model.upsilon(np.concatenate(traj[0]))
    direct = simulate(reduced.system, y0[:4], y0[4:], 50)
    assert np.max(np.abs(red_path.points - direct.points)) <= TRAJ_TOL


def test_reconstruction_roundtrip(full_system, reduced, full_start):
    traj = simulate(full_system, *full_start, 50)
    red_path = project_path(reduced.model, traj)
    rebuilt = reconstruct_path(reduced.model, red_path, *full_start)
    assert np.max(np.abs(traj.points - rebuilt.points)) <= TRAJ_TOL


@settings(derandomize=True, max_examples=40, deadline=None)
@given(*RANDOM_BODIES)
def test_reconstruction_inverts_projection(seed, potential, h):
    """reconstruct_path(project_path(traj)) = traj on random trajectories."""
    rng = np.random.default_rng(seed)
    cfg = TwoBodyConfig(h=h, potential=potential_handle(*potential))
    model = make_reduced_system(cfg, rng=rng).model
    q0 = sample_configuration(rng)
    q1 = q0 + rng.uniform(-0.05, 0.05, 4)
    traj = simulate(make_full_system(cfg), q0, q1, 10)
    rebuilt = reconstruct_path(model, project_path(model, traj), q0, q1)
    assert np.max(np.abs(rebuilt.points - traj.points)) <= TRAJ_TOL


@settings(derandomize=True, max_examples=40, deadline=None)
@given(*RANDOM_BODIES)
def test_reduced_step_matches_closed_form(seed, potential, h):
    """The generic T2-reduced step is the printed reduced update."""
    rng = np.random.default_rng(seed)
    cfg = TwoBodyConfig(h=h, potential=potential_handle(*potential))
    red = make_reduced_system(cfg, rng=rng)
    r0 = sample_annulus(rng, 0.5, 2.0)
    z0 = rng.uniform(-1, 1, 2)
    r1 = r0 + rng.uniform(-0.1, 0.1, 2)
    eps1, r2 = step(red.system, np.concatenate([r0, z0]), r1)
    _, z1, r2_closed = closed_form_reduced_step(cfg, r0, z0, r1)
    assert np.max(np.abs(eps1 - np.concatenate([r1, z1]))) <= 1e-10
    assert np.max(np.abs(r2 - r2_closed)) <= 1e-10


def test_reconstruction_single_pair(reduced, full_start):
    x0 = np.concatenate(full_start)
    y = reduced.model.upsilon(x0)
    from dlpsim.dlps import make_path
    red_path = make_path([(y[:4], y[4:])])
    rebuilt = reconstruct_path(reduced.model, red_path, *full_start)
    assert len(rebuilt) == 1
    assert np.max(np.abs(np.concatenate(rebuilt[0]) - x0)) < 1e-12


def test_reconstruction_equivariance(full_system, reduced, full_start, rng):
    """Reconstructing from a shifted start yields the shifted trajectory."""
    traj = simulate(full_system, *full_start, 20)
    red_path = project_path(reduced.model, traj)
    g = t2_group().from_params(rng.uniform(-1, 1, 2))
    act_e, act_m = t2_two_point_action(), reduced.model.action_m
    shifted_start = (act_e.act(g, full_start[0]), act_m.act(g, full_start[1]))
    rebuilt = reconstruct_path(reduced.model, red_path, *shifted_start)
    from dlpsim.dlps import make_path
    shifted_traj = make_path([(act_e.act(g, e), act_m.act(g, m))
                              for e, m in traj.pairs])
    assert np.max(np.abs(rebuilt.points - shifted_traj.points)) <= TRAJ_TOL


def test_reconstruction_rejects_bad_start(reduced, full_system, full_start):
    traj = simulate(full_system, *full_start, 3)
    red_path = project_path(reduced.model, traj)
    with pytest.raises(ValueError):
        reconstruct_path(reduced.model, red_path,
                         full_start[0] + 0.5, full_start[1])


def test_matching_error_surfaces(reduced):
    act = reduced.model.action_m
    with pytest.raises(MatchingError):
        solve_matching(act, np.array([1.0, 0.0, -1.0, 0.0]),
                       np.array([2.0, 0.0, -1.0, 0.0]))


def test_matching_generic_fallback(rng):
    """Without a closed-form matcher, the Gauss-Newton fallback solves it."""
    from dlpsim.lie import ActionModel
    closed = se2_two_point_action()
    bare = ActionModel(group=closed.group, space_dim=4, act=closed.act)
    for _ in range(20):
        q = sample_cprime(rng)[:4]
        g = sample_group(bare.group, rng, scale=0.8)
        target = bare.act(g, q)
        found = solve_matching(bare, q, target)
        assert np.max(np.abs(bare.act(found, q) - target)) < 1e-9


def test_two_stage_real(staged, full_start):
    traj = simulate(staged.sys, *full_start, 50)
    report, F = two_stage(staged.sys, staged.stage_h, staged.stage_gh,
                          staged.one_shot, traj, conn_h=staged.conn_h,
                          full_group_action=staged.action_g,
                          conjugate_in_full=staged.conjugate_in_g)
    assert report["conjugation_equivariance_max"] <= 1e-10
    assert report["stage_comparison_max"] <= TRAJ_TOL


_CONJUGATION_CHECK_ARGS = ("conn_h", "full_group_action", "conjugate_in_full")


@pytest.mark.parametrize("given_args", [
    combo for k in (1, 2)
    for combo in itertools.combinations(_CONJUGATION_CHECK_ARGS, k)])
def test_two_stage_rejects_partial_conjugation_check(staged, full_start,
                                                     given_args):
    """Some but not all of the conjugation-check arguments raise
    ValueError instead of silently skipping the check."""
    available = {"conn_h": staged.conn_h, "full_group_action": staged.action_g,
                 "conjugate_in_full": staged.conjugate_in_g}
    traj = simulate(staged.sys, *full_start, 0)
    with pytest.raises(ValueError, match="given together"):
        two_stage(staged.sys, staged.stage_h, staged.stage_gh,
                  staged.one_shot, traj,
                  **{name: available[name] for name in given_args})


def test_two_stage_h_equals_g(staged, full_start):
    """H = G: the second stage is trivial and F is a coordinate identity."""
    triv = trivial_reduction(
        staged.one_shot.system,
        lambda r: staged.one_shot.model.upsilon(sample_cprime(r)),
        rng=np.random.default_rng(5))
    traj = simulate(staged.sys, *full_start, 10)
    report, _ = two_stage(staged.sys, staged.one_shot, triv, staged.one_shot,
                          traj)
    assert report["stage_comparison_max"] <= 1e-10


def test_two_stage_h_trivial(staged, full_start):
    """H = {e}: the first stage is trivial; the comparison degenerates."""
    triv = trivial_reduction(staged.sys, sample_cprime,
                             rng=np.random.default_rng(6))
    traj = simulate(staged.sys, *full_start, 10)
    # stage 2 reduces the trivially-reduced system by the full group: its
    # phase space has the same coordinates, so the one-shot model applies.
    report, _ = two_stage(staged.sys, triv, staged.one_shot, staged.one_shot,
                          traj)
    assert report["stage_comparison_max"] <= 1e-10


def test_connection_independence(body_cfg, full_system, reduced, full_start,
                                 rng):
    """Two connections give isomorphic reductions: trajectories correspond
    under project-after-lift."""
    conn2 = make_weighted_t2_connection(2.0, 1.0)
    model2 = build_upsilon(conn2, full_system, _t2_chart, _t2_section,
                           action_e=t2_two_point_action(),
                           sample_cprime=sample_cprime,
                           rng=np.random.default_rng(7))
    red2 = reduce(full_system, model2)

    traj1 = simulate(reduced.system,
                     *_split(reduced.model.upsilon(np.concatenate(full_start))),
                     30)
    transition = lambda y: model2.upsilon(reduced.model.lift_section(y))  # noqa: E731
    mapped_start = transition(np.concatenate(traj1[0]))
    traj2 = simulate(red2.system, mapped_start[:4], mapped_start[4:], 30)
    worst = max(float(np.max(np.abs(transition(np.concatenate(p))
                                    - np.concatenate(q))))
                for p, q in zip(traj1.pairs, traj2.pairs))
    assert worst <= TRAJ_TOL


def _split(y):
    return y[:4], y[4:]


def test_translated_trajectory_is_trajectory(full_system, full_start, rng):
    """Morphisms send trajectories to trajectories; group translations
    are morphisms, so a translated trajectory still solves the equations."""
    traj = simulate(full_system, *full_start, 10)
    act = se2_two_point_action()
    g = sample_group(act.group, rng)
    worst = 0.0
    moved = [(act.act(g, e), act.act(g, m)) for e, m in traj.pairs]
    for k in range(1, len(moved)):
        res = del_residual(full_system, moved[k - 1][0], moved[k - 1][1],
                           moved[k][0], moved[k][1])
        worst = max(worst, float(np.max(np.abs(res))))
    assert worst <= 1e-10


def test_check_morphism_reduction_map(full_system, reduced):
    rep = check_morphism(reduced.model.upsilon, full_system, reduced.system,
                         sample_cprime, n_samples=50,
                         rng=np.random.default_rng(8))
    assert rep["cond1_submersion_rank_ok"] and rep["cond2_fiber_slot_rank_ok"]
    for key in ("cond3_base_independence_max", "cond4_base_compatibility_max",
                "cond5_lagrangian_match_max", "cond6_chaining_intertwine_max"):
        assert rep[key] <= 1e-9, key


def test_check_morphism_group_translation(full_system, rng):
    act = se2_two_point_action()
    g = sample_group(act.group, rng)
    candidate = SmoothMapHandle(
        8, 8, lambda x: np.concatenate([act.act(g, x[:4]), act.act(g, x[4:])]))
    rep = check_morphism(candidate, full_system, full_system, sample_cprime,
                         n_samples=50, rng=np.random.default_rng(9))
    for key in ("cond3_base_independence_max", "cond4_base_compatibility_max",
                "cond5_lagrangian_match_max", "cond6_chaining_intertwine_max"):
        assert rep[key] <= 1e-9, key


def test_check_morphism_negative_control(full_system, reduced):
    """Perturbing the map breaks the Lagrangian-match condition visibly."""
    def perturbed(x):
        y = reduced.model.upsilon(x).copy()
        y[0] += 0.1
        return y

    rep = check_morphism(SmoothMapHandle(8, 6, perturbed), full_system,
                         reduced.system, sample_cprime, n_samples=50,
                         rng=np.random.default_rng(10))
    assert rep["cond5_lagrangian_match_max"] >= 1e-2


def test_check_morphism_verifies_representative_independence(staged,
                                                             full_system):
    """The checker feeds its own orbit representatives to the reduced
    chaining map, re-verifying that the construction is well defined."""
    rep = check_morphism(staged.one_shot.model.upsilon, full_system,
                         staged.one_shot.system, sample_cprime,
                         n_samples=25, rng=np.random.default_rng(11))
    assert rep["cond6_chaining_intertwine_max"] <= 1e-7
