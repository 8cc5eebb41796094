"""Tests for the reduction morphism, reduced dynamics, reconstruction,
two-stage reduction and the morphism checker."""

import dataclasses
import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpsim import reduction
from dlpsim.connection import DiscreteConnection, QuotientModel
from dlpsim.dlps import DiscretePath, del_residual, simulate, step
from dlpsim.errors import MatchingError, ValidationError
from dlpsim.example_se2 import (TwoBodyConfig, closed_form_reduced_step,
                                make_full_system, make_reduced_system,
                                make_residual_u1_action, make_se2_connection,
                                make_t2_connection, make_t2_quotient,
                                make_u1_connection, potential_handle,
                                residual_u1_fiber_chart,
                                residual_u1_fiber_section, sample_annulus,
                                sample_configuration, sample_cprime)
from dlpsim.lie import (sample_group, se2_two_point_action, t2_group,
                        t2_two_point_action)
from dlpsim.reduction import (ROUNDTRIP_TOL, SYMMETRY_TOLS, VALIDATION_DRAWS,
                              build_upsilon, check_morphism,
                              check_symmetry, project_path,
                              reconstruct_path, reduce, solve_matching,
                              two_stage)
from dlpsim.smooth import (SmoothMapHandle, directional_derivative,
                           gradient_fd5, identity_map, jacobian_fd)
from oracles import (conjugate, exact_two_body_path, trivial_action,
                     trivial_group, trivial_reduction)
from test_connection import make_weighted_t2_connection

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
        out = reduced.system.ivcm_matrix(np.concatenate([r0, z0, r1]),
                                         np.concatenate([r1, z1, r2])) @ delta
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
    assert reduce(full_system, bare_lift,
                  rng=np.random.default_rng(8)).system.lagrangian.jac is None
    bare_sys = dataclasses.replace(
        full_system, lagrangian=_without_jac(full_system.lagrangian))
    assert reduce(bare_sys, model,
                  rng=np.random.default_rng(9)).system.lagrangian.jac is None


def test_reduced_chaining_fd_fallback_matches_closed_form(full_system, reduced,
                                                          rng):
    """Without upsilon's jac the chaining matrix takes its derivative blocks
    from jacobian_fd and agrees with the closed-form blocks."""
    model = reduced.model
    bare = dataclasses.replace(model, upsilon=_without_jac(model.upsilon))
    fd_sys = reduce(full_system, bare, rng=np.random.default_rng(10)).system
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


@pytest.fixture(scope="module")
def oscillator_reduction(with_jacs):
    """The harmonic oscillator on R^2 and the model of its trivial
    reduction, whose maps declare their identity Jacobians as arrays."""
    from dlpsim.dlps import harmonic_oscillator_dms
    sys = harmonic_oscillator_dms(dim=2)
    triv = trivial_reduction(sys, lambda r: r.uniform(-1, 1, 4),
                             rng=np.random.default_rng(3))
    return sys, with_jacs(triv.model, np.eye(4), np.eye(4), np.eye(2))


def test_affine_reduction_of_a_dms_gets_the_exact_step(oscillator_reduction, rng):
    """A second affine reduction of a DMS: ``reduce`` gives it the zero
    chaining matrix as one read-only constant and a reduced ``hess``, and
    its steps are the DMS steps."""
    sys, model = oscillator_reduction
    red = reduce(sys, model, rng=np.random.default_rng(11)).system
    C = red.ivcm_matrix(np.zeros(4), np.ones(4))
    assert np.array_equal(C, np.zeros((2, 2))) and not C.flags.writeable
    assert red.lagrangian.hess is not None
    for _ in range(20):
        x = rng.uniform(-1, 1, 4)
        assert red.ivcm_matrix(x, rng.uniform(-1, 1, 4)) is C
        dms = np.concatenate(step(sys, x[:2], x[2:]))
        assert np.max(np.abs(np.concatenate(step(red, x[:2], x[2:])) - dms)) <= 1e-14


MODEL_MAPS = ("upsilon", "lift_section", "reduced phi")


@pytest.mark.parametrize("case", ("source phi",) + MODEL_MAPS)
def test_one_callable_jac_keeps_the_generic_path(oscillator_reduction, with_jacs,
                                                 case, rng):
    """One of the four Jacobians given as a callable: the chaining matrix
    is rebuilt at every call (still zero) and there is no exact step."""
    sys, model = oscillator_reduction
    if case == "source phi":
        phi = sys.bundle.phi
        sys = dataclasses.replace(sys, bundle=dataclasses.replace(
            sys.bundle, phi=dataclasses.replace(phi, jac=lambda x: phi.jac)))
    else:
        jacs = [f.jac for f in (model.upsilon, model.lift_section,
                                model.reduced_bundle.phi)]
        k = MODEL_MAPS.index(case)
        jacs[k] = lambda x, J=jacs[k]: J
        model = with_jacs(model, *jacs)
    red = reduce(sys, model, rng=np.random.default_rng(12)).system
    assert red.lagrangian.hess is None
    y0, y1 = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
    C = red.ivcm_matrix(y0, y1)
    assert C is not red.ivcm_matrix(y0, y1)
    assert np.array_equal(C, np.zeros((2, 2)))


def test_non_square_source_keeps_the_generic_path(reduced, with_jacs, rng):
    """The translation-reduced system is not a DMS (its bundle is not
    square): identity maps with array Jacobians over it keep the generic
    chaining map, equal to its own, and give no exact step although its
    Lagrangian has a ``hess``."""
    sys = reduced.system
    assert isinstance(sys.bundle.phi.jac, np.ndarray) and sys.lagrangian.hess is not None
    triv = trivial_reduction(sys, lambda r: reduced.model.upsilon(sample_cprime(r)),
                             rng=np.random.default_rng(4))
    red = reduce(sys, with_jacs(triv.model, np.eye(6), np.eye(6), sys.bundle.phi.jac),
                 rng=np.random.default_rng(13)).system
    assert red.lagrangian.hess is None
    for _ in range(5):
        y0 = reduced.model.upsilon(sample_cprime(rng))
        y1 = reduced.model.upsilon(sample_cprime(rng))
        assert np.max(np.abs(red.ivcm_matrix(y0, y1) - sys.ivcm_matrix(y0, y1))) <= 1e-14


def _t2_chart(e, w):
    return np.concatenate([(e[:2] - e[2:]) / SQRT2, w])


def _t2_section(v):
    return (np.concatenate([v[:2], -v[:2]]) / SQRT2,
            t2_group().from_params(v[2:]))


def _build_and_reduce(conn, sys, fiber_chart, fiber_section, action_e,
                      sample=sample_cprime):
    """Build the model of ``sys``'s bundle and reduce ``sys`` by it, each
    with its child of one seeded generator, split as the shipped builders
    split theirs."""
    model_rng, symmetry_rng = np.random.default_rng(20240817).spawn(2)
    model = build_upsilon(conn, sys.bundle, fiber_chart, fiber_section,
                          action_e=action_e, sample_cprime=sample, rng=model_rng)
    return reduce(sys, model, rng=symmetry_rng)


def test_reduce_checks_the_symmetry_of_the_system_it_reduces(full_system, reduced):
    """A model is validated without a Lagrangian, so ``reduce`` checks the
    system it is given: the README Lagrangian plus 1e-3 x0_re^2 is not
    translation-invariant (5.6e-3 at this seed), and the T2 model, which
    reduces the README system, rejects it by name."""
    from dlpsim.dlps import from_dms
    L = full_system.lagrangian
    tilted = from_dms(4, SmoothMapHandle(8, 1, lambda x: L(x) + 1e-3 * x[0] ** 2))
    with pytest.raises(ValidationError) as err:
        reduce(tilted, reduced.model, rng=np.random.default_rng(0))
    assert err.value.identity == "lagrangian G-invariance"
    assert err.value.violation > 1e3 * SYMMETRY_TOLS["lagrangian G-invariance"]


def test_build_upsilon_rejects_broken_symmetry():
    """A Lagrangian that is not group-invariant fails validation when the
    system is reduced."""
    from dlpsim.dlps import from_dms
    conn = make_t2_connection()
    bad = from_dms(4, SmoothMapHandle(
        8, 1, lambda x: np.array([float(x[:4] @ x[:4])])))
    with pytest.raises(ValidationError):
        _build_and_reduce(conn, bad, _t2_chart, _t2_section, t2_two_point_action())


def _nan_lagrangian_system():
    from dlpsim.dlps import from_dms
    return from_dms(4, SmoothMapHandle(8, 1, lambda x: np.array([np.nan])))


def _nan_chart(eps, w):
    return np.full(4, np.nan)


@pytest.mark.parametrize("nan_part, identity", [
    ("lagrangian", "lagrangian G-invariance"),
    ("chart", "upsilon orbit invariance")])
def test_build_upsilon_rejects_nan(full_system, nan_part, identity):
    """A NaN violation is a violation: the translation reduction of a
    system whose Lagrangian is NaN everywhere fails its invariance check
    in ``reduce``, and a chart that gives NaN fails the model identities
    at build."""
    sys = _nan_lagrangian_system() if nan_part == "lagrangian" else full_system
    chart = _nan_chart if nan_part == "chart" else _t2_chart
    with pytest.raises(ValidationError) as err:
        _build_and_reduce(make_t2_connection(), sys, chart, _t2_section,
                          t2_two_point_action())
    assert err.value.identity == identity
    assert np.isnan(err.value.violation)


def test_check_symmetry_keeps_nan_maximum():
    """A NaN draw stays the maximum when finite violations follow it."""
    from dlpsim.dlps import from_dms
    sys = from_dms(4, SmoothMapHandle(
        8, 1, lambda x: np.array([np.nan if x[0] > 1.5 else x[0]])))
    act = t2_two_point_action()
    report = check_symmetry(sys, act, act, sample_cprime,
                            rng=np.random.default_rng(3))
    worst, sample = report["lagrangian G-invariance"]
    assert np.isnan(worst) and sample is not None
    assert report["action identity axiom"][0] == 0.0


def test_check_morphism_reports_nan_lagrangian_match():
    sys = _nan_lagrangian_system()
    rep = check_morphism(identity_map(8), sys, sys, sample_cprime, n_samples=5,
                         rng=np.random.default_rng(4))
    assert np.isnan(rep["cond5_lagrangian_match_max"])
    assert rep["cond3_base_independence_max"] == 0.0


def test_build_upsilon_reports_tested_chaining_point(monkeypatch, full_system):
    """A chaining matrix that is not equivariant fails validation in
    ``reduce``, reporting the row x0 = (eps0, phi(eps1)) of the tested
    draw with the largest violation."""
    drawn, matrices, directions = [], [], []

    def recording_sample(rng):
        drawn.append(sample_cprime(rng))
        return drawn[-1]

    def broken_ivcm_matrix(x0, x1):
        # The matrix of delta -> x0[:4] * delta[0].
        matrices.append((x0, np.outer(x0[:4], np.eye(4)[0])))
        return matrices[-1][1]

    def recording_push(f, x, v):
        directions.append(v)
        return directional_derivative(f, x, v)

    monkeypatch.setattr(reduction, "directional_derivative", recording_push)
    broken = dataclasses.replace(full_system, ivcm_matrix=broken_ivcm_matrix)
    with pytest.raises(ValidationError) as err:
        _build_and_reduce(make_t2_connection(), broken, _t2_chart, _t2_section,
                          t2_two_point_action(), recording_sample)
    assert err.value.identity == "chaining-map G-equivariance"
    assert any(np.array_equal(err.value.sample, np.concatenate([xa[:4], xb[:4]]))
               for xa, xb in zip(drawn, drawn[1:]))
    # A draw reads the matrix at (x0, x1), then at (g x0, g x1), and
    # pushes C0 delta, then delta; a translation pushes tangents forward
    # by the identity.
    draws = [(x0, float(np.max(np.abs(Cg @ delta - C0 @ delta))))
             for (x0, C0), (_, Cg), delta
             in zip(matrices[::2], matrices[1::2], directions[1::2])]
    worst_row, worst = max(draws, key=lambda draw: draw[1])
    assert np.array_equal(err.value.sample, worst_row)
    assert err.value.violation == pytest.approx(worst, rel=1e-6)


def test_build_upsilon_names_the_worst_failing_draw(full_system):
    """A chart that breaks orbit invariance by 1e-9 |eps|^2 fails at many
    draws; every draw is evaluated, and the error names the worst, which
    here is not the first failing one."""
    t2 = t2_two_point_action()
    moves = []

    def recording_act(g, q):
        moves.append((q, t2.act(g, q)))
        return moves[-1][1]

    def chart(eps, w):
        return _t2_chart(eps, w) + np.array([1e-9 * float(eps @ eps), 0, 0, 0])

    with pytest.raises(ValidationError) as err:
        build_upsilon(make_t2_connection(), full_system.bundle, fiber_chart=chart,
                      fiber_section=_t2_section,
                      action_e=dataclasses.replace(t2, act=recording_act),
                      sample_cprime=sample_cprime,
                      rng=np.random.default_rng(20240817))
    assert err.value.identity == "upsilon orbit invariance"
    assert len(moves) == VALIDATION_DRAWS
    defects = [1e-9 * abs(float(gq @ gq - q @ q)) for q, gq in moves]
    worst = int(np.argmax(defects))
    first = next(i for i, d in enumerate(defects) if d > ROUNDTRIP_TOL)
    assert first != worst
    assert np.array_equal(err.value.sample[:4], moves[worst][0])
    assert err.value.violation == pytest.approx(defects[worst], rel=1e-6)


def _distance_chart(eps, w):
    """Fiber coordinates that read only the particle distance: the upsilon
    they give is invariant under any isometries of E and M separately, so
    its model identities hold and only the symmetry conditions can fail."""
    return np.full(4, np.hypot(*(eps[:2] - eps[2:])) / SQRT2)


def _double_translation():
    """T2 acting on M by twice the translation it makes on E: a genuine
    action, but not by bundle maps."""
    return dataclasses.replace(t2_two_point_action(),
                               act=lambda g, q: q + np.tile(2 * g, 2))


def _right_se2_action():
    """SE(2) acting by g q = g^{-1} q: a right action posing as a left one."""
    left = se2_two_point_action()
    return dataclasses.replace(left, act=lambda g, q: left.act(left.group.inverse(g), q))


@pytest.mark.parametrize("conn, action_e, action_m, identity", [
    (make_t2_connection(), t2_two_point_action(), _double_translation(),
     "bundle-map G-equivariance"),
    (make_se2_connection(), _right_se2_action(), _right_se2_action(),
     "action compatibility axiom"),
], ids=["bundle-map", "right-action"])
def test_build_upsilon_names_broken_symmetry_condition(full_system, conn, action_e,
                                                       action_m, identity):
    """A group that is no symmetry is rejected by ``reduce``, naming the
    condition it breaks. The right action leaves the Lagrangian, the zero
    chaining map and the bundle projection equivariant; only the
    compatibility axiom sees it."""
    conn = dataclasses.replace(conn, quotient=dataclasses.replace(conn.quotient,
                                                                 action=action_m))
    G = action_e.group

    def section(v):
        return np.array([v[0], 0.0, -v[0], 0.0]) / SQRT2, G.identity

    with pytest.raises(ValidationError) as err:
        _build_and_reduce(conn, full_system, _distance_chart, section, action_e)
    assert err.value.identity == identity


#: The two negative controls on the full system: (action on E, action on
#: M, the condition that breaks).
NEGATIVE_CONTROLS = {
    "bundle-map": (t2_two_point_action(), _double_translation(),
                   "bundle-map G-equivariance"),
    "right-action": (_right_se2_action(), _right_se2_action(),
                     "action compatibility axiom"),
}


def test_check_symmetry_needs_a_draw(full_system):
    """Zero draws would read 0.0 for every condition: a ValueError."""
    act = se2_two_point_action()
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        check_symmetry(full_system, act, act, sample_cprime, n_samples=0,
                       rng=np.random.default_rng(31))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(NEGATIVE_CONTROLS)))
def test_negative_controls_fail_check_symmetry_on_random_draws(full_system, seed,
                                                               control):
    """For random seeds, each negative control exceeds the ``SYMMETRY_TOLS``
    bound of the condition it breaks."""
    action_e, action_m, broken = NEGATIVE_CONTROLS[control]
    report = check_symmetry(full_system, action_e, action_m, sample_cprime,
                            rng=np.random.default_rng(seed))
    assert report[broken][0] > SYMMETRY_TOLS[broken]


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
        build_upsilon(make_t2_connection(), full_system.bundle, fiber_chart,
                      fiber_section, action_e=t2_two_point_action(),
                      sample_cprime=sample_cprime,
                      rng=np.random.default_rng(20240817))
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


#: Reconstruction by stages against the full trajectory and against
#: one-shot reconstruction. Measured on the 50-step README trajectory:
#: 1.8e-15 against the trajectory (3.4e-16 at the T2 level) and 1.6e-15
#: against one-shot, margins 56x, 290x and 64x.
STAGED_RECONSTRUCTION_TOL = 1e-13


def test_reconstruction_by_stages(staged, full_start):
    """Projecting the README trajectory through T2 and then U(1) and
    rebuilding it through the stage-two model and then the T2 model
    returns the trajectory, and agrees with one-shot SE(2)
    reconstruction: the U(1) and SE(2) matchers carry every row."""
    traj = simulate(staged.sys, *full_start, 50)
    path_h = project_path(staged.stage_h.model, traj)
    path_gh = project_path(staged.stage_gh.model, path_h)
    rebuilt_h = reconstruct_path(staged.stage_gh.model, path_gh, *path_h[0])
    rebuilt = reconstruct_path(staged.stage_h.model, rebuilt_h, *full_start)
    one_shot = reconstruct_path(staged.one_shot.model,
                                project_path(staged.one_shot.model, traj),
                                *full_start)
    for got, want in ((rebuilt_h, path_h), (rebuilt, traj), (rebuilt, one_shot)):
        assert np.max(np.abs(got.points - want.points)) <= STAGED_RECONSTRUCTION_TOL


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


def test_matcher_division_by_zero_is_a_matching_error():
    """SE(2)'s matcher divides by the source separation: coincident source
    points raise MatchingError, not ZeroDivisionError."""
    with pytest.raises(MatchingError, match="coincident source points"):
        solve_matching(se2_two_point_action(), np.array([1.0, 0.5, 1.0, 0.5]),
                       np.array([1.0, 0.0, -1.0, 0.0]))


@pytest.mark.parametrize("make_action", [t2_two_point_action, se2_two_point_action])
@pytest.mark.parametrize("generic", [False, True], ids=["match", "generic"])
def test_matching_rejects_nan(make_action, generic):
    """A NaN or infinite target or source, in any entry, raises
    MatchingError at the boundary, before any arithmetic on it (an
    ``inf - inf`` would warn first) and before the matcher is read: an
    action without one ("generic") raises the same."""
    act = make_action()
    if generic:
        act = dataclasses.replace(act, match=None)
    q = np.array([1.0, 0.0, -1.0, 0.0])
    for k, bad in itertools.product(range(4), (np.nan, np.inf, -np.inf)):
        bad_q = np.where(np.arange(4) == k, bad, q)
        for q_from, q_to in ((q, bad_q), (bad_q, q)):
            with pytest.raises(MatchingError, match="non-finite"):
                solve_matching(act, q_from, q_to)


def test_matching_zero_dimensional_group():
    """The one-element group's matcher returns its identity, and the
    defect check decides: equal points match to the identity, differing
    points raise MatchingError."""
    act = trivial_action(3)
    q = np.array([0.3, -1.2, 2.0])
    g = solve_matching(act, q, q.copy())
    assert g.dtype == np.float64 and g.shape == act.group.identity.shape == (0,)
    for q_to in (q + np.array([0.0, 1e-6, 0.0]), np.array([0.3, np.nan, 2.0])):
        with pytest.raises(MatchingError):
            solve_matching(act, q, q_to)


def test_an_action_without_match_is_rejected(full_system):
    """Matching needs the action's closed-form ``match``: without one,
    ``solve_matching`` and a build over such a quotient action raise
    ValueError, the build before any draw."""
    bare = dataclasses.replace(t2_two_point_action(), match=None)
    q = np.array([1.0, 0.0, -1.0, 0.0])
    with pytest.raises(ValueError, match="no closed-form match"):
        solve_matching(bare, q, q + 0.5)
    conn = make_t2_connection()
    conn = dataclasses.replace(conn, quotient=dataclasses.replace(conn.quotient,
                                                                 action=bare))

    def no_draws(rng):
        raise AssertionError("drew a sample")

    with pytest.raises(ValueError, match="no closed-form match"):
        build_upsilon(conn, full_system.bundle, _t2_chart, _t2_section,
                      action_e=t2_two_point_action(), sample_cprime=no_draws,
                      rng=np.random.default_rng(0))


def _with_nan(path, row, col):
    points = path.points.copy()
    points[row, col] = np.nan
    return dataclasses.replace(path, points=points)


def test_reconstruction_rejects_nan_start(reduced, full_system, full_start):
    """A NaN start, or a NaN in the first reduced pair, is a ValueError."""
    red_path = project_path(reduced.model, simulate(full_system, *full_start, 3))
    eps0, m1 = full_start
    for k in range(4):
        nan_at_k = np.arange(4) == k
        with pytest.raises(ValueError):
            reconstruct_path(reduced.model, red_path, np.where(nan_at_k, np.nan, eps0), m1)
        with pytest.raises(ValueError):
            reconstruct_path(reduced.model, red_path, eps0, np.where(nan_at_k, np.nan, m1))
    for col in range(red_path.points.shape[1]):
        with pytest.raises(ValueError):
            reconstruct_path(reduced.model, _with_nan(red_path, 0, col), *full_start)


def test_reconstruction_rejects_nan_reduced_pair(reduced, full_system, full_start):
    """A NaN or an infinity anywhere in a reduced pair after the first,
    the last included (in the cells its matching does not read too),
    raises MatchingError naming that pair."""
    red_path = project_path(reduced.model, simulate(full_system, *full_start, 5))
    n_rows, n_cols = red_path.points.shape
    for row, col in np.ndindex(n_rows - 1, n_cols):
        with pytest.raises(MatchingError, match=f"reduced pair {row + 1} "):
            reconstruct_path(reduced.model, _with_nan(red_path, row + 1, col),
                             *full_start)
    points = red_path.points.copy()
    points[-1, -1] = np.inf
    with pytest.raises(MatchingError, match=f"reduced pair {n_rows - 1} "):
        reconstruct_path(reduced.model, dataclasses.replace(red_path, points=points),
                         *full_start)


def test_two_stage_real(staged, full_start):
    traj = simulate(staged.sys, *full_start, 50)
    report, F = two_stage(staged.sys, staged.stage_h, staged.stage_gh,
                          staged.one_shot, traj, conn_h=staged.conn_h,
                          full_group_action=staged.action_g,
                          conjugate_in_full=staged.conjugate_in_g,
                          rng=np.random.default_rng(11235))
    assert report["conjugation_equivariance_max"] <= 1e-10
    assert report["stage_comparison_max"] <= TRAJ_TOL


def test_two_stage_needs_a_draw(staged, full_start):
    """Zero conjugation draws would skip the check that ``two_stage``
    always runs: a ValueError, not a vacuous report."""
    traj = simulate(staged.sys, *full_start, 0)
    with pytest.raises(ValueError, match="n_checks must be at least 1"):
        two_stage(staged.sys, staged.stage_h, staged.stage_gh,
                  staged.one_shot, traj, conn_h=staged.conn_h,
                  full_group_action=staged.action_g,
                  conjugate_in_full=staged.conjugate_in_g, n_checks=0,
                  rng=np.random.default_rng(11235))


def test_two_stage_rejects_nan_conjugation(staged, full_start):
    """A conjugation that returns NaN fails the conjugation check."""
    traj = simulate(staged.sys, *full_start, 0)
    with pytest.raises(ValidationError) as err:
        two_stage(staged.sys, staged.stage_h, staged.stage_gh,
                  staged.one_shot, traj, conn_h=staged.conn_h,
                  full_group_action=staged.action_g,
                  conjugate_in_full=lambda g, h: np.full(2, np.nan),
                  rng=np.random.default_rng(11235))
    assert err.value.identity == "subgroup connection conjugation-equivariance"
    assert np.isnan(err.value.violation)


def test_two_stage_keeps_nan_stage_comparison(staged, full_start):
    """A NaN comparison at the first point stays the maximum."""
    upsilon = staged.one_shot.model.upsilon
    calls = []

    def nan_first(x):
        calls.append(1)
        if len(calls) == 1:
            return np.full(upsilon.out_dim, np.nan)
        return upsilon.eval(x)

    one_shot = dataclasses.replace(staged.one_shot, model=dataclasses.replace(
        staged.one_shot.model, upsilon=dataclasses.replace(upsilon, eval=nan_first)))
    traj = simulate(staged.sys, *full_start, 3)
    report, _ = two_stage(staged.sys, staged.stage_h, staged.stage_gh,
                          one_shot, traj, conn_h=staged.conn_h,
                          full_group_action=staged.action_g,
                          conjugate_in_full=staged.conjugate_in_g,
                          rng=np.random.default_rng(11235))
    assert np.isnan(report["per_step"][0])
    assert np.all(np.isfinite(report["per_step"][1:]))
    assert np.isnan(report["stage_comparison_max"])


def test_two_stage_h_equals_g(staged, full_start):
    """H = G: the second stage is trivial and F is a coordinate identity.
    The G-connection is conjugation-equivariant under G itself."""
    triv = trivial_reduction(
        staged.one_shot.system,
        lambda r: staged.one_shot.model.upsilon(sample_cprime(r)),
        rng=np.random.default_rng(5))
    traj = simulate(staged.sys, *full_start, 10)
    G = staged.action_g.group
    report, _ = two_stage(staged.sys, staged.one_shot, triv, staged.one_shot,
                          traj, conn_h=staged.conn_g,
                          full_group_action=staged.action_g,
                          conjugate_in_full=partial(conjugate, G),
                          rng=np.random.default_rng(11235))
    assert report["conjugation_equivariance_max"] <= 1e-10
    assert report["stage_comparison_max"] <= 1e-10


def test_two_stage_h_trivial(staged, full_start):
    """H = {e}: the first stage is trivial; the comparison degenerates.
    The trivial connection's only value, e, is fixed by conjugation."""
    triv = trivial_reduction(staged.sys, sample_cprime,
                             rng=np.random.default_rng(6))
    e = trivial_group().identity
    quotient = QuotientModel(phi=identity_map(4), section=identity_map(4),
                             action=trivial_action(4),
                             sample=sample_configuration)
    conn_e = DiscreteConnection(quotient=quotient, ad_form=lambda q0, q1: e,
                                hor_lift=lambda q0, r1: r1)
    traj = simulate(staged.sys, *full_start, 10)
    # stage 2 reduces the trivially-reduced system by the full group: its
    # phase space has the same coordinates, so the one-shot model applies.
    report, _ = two_stage(staged.sys, triv, staged.one_shot, staged.one_shot,
                          traj, conn_h=conn_e, full_group_action=staged.action_g,
                          conjugate_in_full=lambda g, h: h,
                          rng=np.random.default_rng(11235))
    assert report["stage_comparison_max"] <= 1e-10


def _axis_weighted_t2_connection(weights):
    """A T2 connection whose horizontal pairs keep W x + (1 - W) y, the
    weights W applying to the real and imaginary axes. It is a connection
    for any W, and conjugation-equivariant under rotations only when the
    two weights agree (0.5 each gives the shipped formula)."""
    W = np.array(weights)

    def ad_form(q0, q1):
        return W * (q1[:2] - q0[:2]) + (1 - W) * (q1[2:] - q0[2:])

    def hor_lift(q0, r1):
        y1 = W * q0[:2] + (1 - W) * q0[2:] - W * SQRT2 * r1
        return np.concatenate([y1 + SQRT2 * r1, y1])

    return DiscreteConnection(quotient=make_t2_quotient(), ad_form=ad_form,
                              hor_lift=hor_lift)


@pytest.mark.parametrize("weights", [(0.5, 0.8), (0.5, 0.5)],
                         ids=["unequal", "equal"])
def test_stage_two_needs_a_conjugation_equivariant_connection(
        staged, full_system, full_start, weights):
    """Stage one builds and reduces with the axis-weighted T2 connection
    whatever its weights, but reduction by stages needs it to be
    conjugation-equivariant under SE(2). With weights (0.5, 0.8) both
    checks of that hypothesis fire: ``two_stage``'s conjugation check
    (1.47) and, through the shipped stage-two charts and residual action,
    the Lagrangian invariance ``reduce`` checks at stage two (40.2). With
    equal weights neither does, and the stages match one-shot reduction."""
    conn = _axis_weighted_t2_connection(weights)
    model_h = build_upsilon(conn, full_system.bundle, _t2_chart, _t2_section,
                            action_e=t2_two_point_action(),
                            sample_cprime=sample_cprime,
                            rng=np.random.default_rng(0))
    stage_h = reduce(full_system, model_h, rng=np.random.default_rng(1))
    model_gh = build_upsilon(
        make_u1_connection(), stage_h.system.bundle, residual_u1_fiber_chart,
        residual_u1_fiber_section, action_e=make_residual_u1_action(),
        sample_cprime=lambda r: model_h.upsilon(sample_cprime(r)),
        rng=np.random.default_rng(4))

    def stages(stage_gh):
        return two_stage(full_system, stage_h, stage_gh, staged.one_shot,
                         simulate(full_system, *full_start, 5), conn_h=conn,
                         full_group_action=staged.action_g,
                         conjugate_in_full=staged.conjugate_in_g,
                         rng=np.random.default_rng(3))

    if weights[0] == weights[1]:
        report, _ = stages(reduce(stage_h.system, model_gh,
                                  rng=np.random.default_rng(5)))
        assert report["stage_comparison_max"] <= 1e-10
        return
    for run, identity in (
            (lambda: stages(staged.stage_gh),
             "subgroup connection conjugation-equivariance"),
            (lambda: reduce(stage_h.system, model_gh, rng=np.random.default_rng(5)),
             "lagrangian G-invariance")):
        with pytest.raises(ValidationError) as err:
            run()
        assert err.value.identity == identity and err.value.violation >= 1.0


def test_connection_independence(body_cfg, full_system, reduced, full_start,
                                 rng):
    """Two connections give isomorphic reductions: trajectories correspond
    under project-after-lift."""
    conn2 = make_weighted_t2_connection(2.0, 1.0)
    model2 = build_upsilon(conn2, full_system.bundle, _t2_chart, _t2_section,
                           action_e=t2_two_point_action(),
                           sample_cprime=sample_cprime,
                           rng=np.random.default_rng(7))
    red2 = reduce(full_system, model2, rng=np.random.default_rng(14))

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


#: The T2-reduced flow against the projection of the exact discrete
#: solution (``tests/oracles.py``), 2,000 steps from the README start. The
#: bound is set from the largest error over the run, measured in float64:
#: README (linear 0.5) 2.6e-14, zero potential 4.8e-11, margins 7.8x and
#: 10x.
@pytest.mark.parametrize("name, coeff, bound", [("linear", 0.5, 2e-13),
                                                ("zero", 0.0, 5e-10)],
                         ids=["readme", "zero"])
def test_reduced_flow_matches_the_projected_exact_solution(full_start, name,
                                                           coeff, bound):
    """The reduced step, started from the projection of the exact
    solution's first pair, stays on the projection of every later pair."""
    cfg = TwoBodyConfig(potential=potential_handle(name, coeff))
    red = make_reduced_system(cfg, rng=np.random.default_rng(1))
    exact = project_path(red.model, DiscretePath(
        exact_two_body_path(*full_start, 2000, cfg.h, coeff), 4))
    path = simulate(red.system, *exact[0], 2000)
    assert np.max(np.abs(path.points - exact.points)) <= bound


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


def _counting(handle, calls):
    return dataclasses.replace(
        handle, eval=lambda x: calls.append(1) or handle.eval(x))


def test_check_morphism_candidate_evaluations_per_sample(full_system, reduced):
    """The T2 upsilon carries its constant jac, so a sample evaluates it
    only at x0 and x1."""
    calls = []
    check_morphism(_counting(reduced.model.upsilon, calls), full_system,
                   reduced.system, sample_cprime, n_samples=3,
                   rng=np.random.default_rng(12))
    assert len(calls) == 3 * 2


def test_check_morphism_fd_fallback_evaluations_per_sample(full_system, reduced):
    """Without a jac, per sample: the full FD Jacobian at x0
    (2 (nE + nM) = 16), the values at x0 and x1 (2), and the fiber slot
    alone at x1 (2 nE = 8)."""
    calls = []
    upsilon = dataclasses.replace(reduced.model.upsilon, jac=None)
    check_morphism(_counting(upsilon, calls), full_system, reduced.system,
                   sample_cprime, n_samples=3, rng=np.random.default_rng(12))
    assert len(calls) == 3 * 26


def test_check_morphism_closed_form_agrees_with_fd_fallback(full_system, reduced):
    """The same draws with and without the jac: the value-only conditions
    are bit-equal, and both derivative paths pass."""
    upsilon = reduced.model.upsilon
    exact, fd = (check_morphism(u, full_system, reduced.system, sample_cprime,
                                n_samples=20, rng=np.random.default_rng(3))
                 for u in (upsilon, dataclasses.replace(upsilon, jac=None)))
    for key in ("cond1_submersion_rank_ok", "cond2_fiber_slot_rank_ok",
                "cond4_base_compatibility_max", "cond5_lagrangian_match_max"):
        assert exact[key] == fd[key], key
    for key in ("cond3_base_independence_max", "cond6_chaining_intertwine_max"):
        assert exact[key] <= 1e-9 and fd[key] <= 1e-9, key


def test_check_morphism_fails_a_wrong_closed_form(full_system, reduced):
    """A supplied jac is trusted: one whose fiber block is 1% off fails
    the chaining condition, which central differences of the same map
    pass."""
    upsilon = reduced.model.upsilon
    jac = upsilon.jacobian(np.zeros(8)).copy()
    jac[:4, :4] *= 1.01
    rep = check_morphism(dataclasses.replace(upsilon, jac=jac), full_system,
                         reduced.system, sample_cprime, n_samples=20,
                         rng=np.random.default_rng(3))
    assert rep["cond6_chaining_intertwine_max"] >= 1e-3


def test_check_morphism_keeps_nan_jacobian(full_system, reduced):
    """A candidate that is NaN on part of the domain makes its Jacobian
    there non-finite: both rank checks fail and the smallest singular
    value and the maxima read NaN, with no LinAlgError."""
    def partly_nan(x):
        return reduced.model.upsilon(x) + (np.nan if x[0] > 1.5 else 0.0)

    rep = check_morphism(SmoothMapHandle(8, 6, partly_nan), full_system,
                         reduced.system, sample_cprime, n_samples=20,
                         rng=np.random.default_rng(3))
    assert not rep["cond1_submersion_rank_ok"]
    assert not rep["cond2_fiber_slot_rank_ok"]
    assert np.isnan(rep["cond2_min_singular_value"])
    for key in ("cond3_base_independence_max", "cond4_base_compatibility_max",
                "cond5_lagrangian_match_max", "cond6_chaining_intertwine_max"):
        assert np.isnan(rep[key]), key
    assert rep["worst_samples"]["cond5_lagrangian_match_max"][0] > 1.5


def test_check_morphism_worst_samples(full_system, reduced):
    """Each worst sample is the x0 of the draw attaining its maximum; a
    condition that reads 0 on every draw has none."""
    def perturbed(x):
        y = reduced.model.upsilon(x).copy()
        y[0] += 0.1
        return y

    rep = check_morphism(SmoothMapHandle(8, 6, perturbed), full_system,
                         reduced.system, sample_cprime, n_samples=10,
                         rng=np.random.default_rng(10))
    x0 = rep["worst_samples"]["cond5_lagrangian_match_max"]
    assert abs(full_system.lag(x0) - reduced.system.lag(perturbed(x0))) \
        == rep["cond5_lagrangian_match_max"]
    rep = check_morphism(reduced.model.upsilon, full_system, reduced.system,
                         sample_cprime, n_samples=10,
                         rng=np.random.default_rng(10))
    assert rep["cond3_base_independence_max"] == 0.0
    assert rep["worst_samples"]["cond3_base_independence_max"] is None
    x0 = rep["worst_samples"]["cond2_min_singular_value"]
    assert x0 is not None and x0.shape == (8,)


def test_check_morphism_needs_a_draw(full_system, reduced):
    """Zero draws would check nothing: a ValueError, not a passing report."""
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        check_morphism(reduced.model.upsilon, full_system, reduced.system,
                       sample_cprime, n_samples=0,
                       rng=np.random.default_rng(97))


def test_check_morphism_rejects_incompatible_dimensions(full_system, reduced):
    """A candidate whose dimensions do not fit the two systems is a
    ValueError before any draw."""
    with pytest.raises(ValueError, match="dimensions are incompatible"):
        check_morphism(reduced.model.upsilon, full_system, full_system,
                       sample_cprime,
                       rng=np.random.default_rng(97))


def test_check_morphism_verifies_representative_independence(staged,
                                                             full_system):
    """The checker feeds its own orbit representatives to the reduced
    chaining map, re-verifying that the construction is well defined."""
    rep = check_morphism(staged.one_shot.model.upsilon, full_system,
                         staged.one_shot.system, sample_cprime,
                         n_samples=25, rng=np.random.default_rng(11))
    assert rep["cond6_chaining_intertwine_max"] <= 1e-7
