"""Tests for paths, action sums, equations of motion, stepping and the
fixed-endpoint variational principle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpsim.dlps import (DiscretePath, _del_covector, action_derivative,
                         action_sum, build_fixed_endpoint_variation,
                         d1_lagrangian, d2_lagrangian, del_residual,
                         free_particle_dms, from_dms, harmonic_oscillator_dms,
                         make_path, path_from_points, simulate, step)
from dlpsim.errors import DomainError, SimulationError
from dlpsim.example_se2 import (TwoBodyConfig, make_full_system,
                                make_reduced_system, potential_handle,
                                sample_configuration, sample_cprime)
from dlpsim.lie import sample_group, se2_two_point_action
from dlpsim.reduction import project_path
from dlpsim.smooth import (NewtonConfig, SmoothMapHandle, gradient_fd5,
                           newton_solve)

RES_TOL = 1e-9
VAR_TOL = 1e-6
#: Closed-form slot gradients against the fourth-order FD oracle.
ORACLE_RTOL = 1e-9


def _two_body(name, coeff):
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle(name, coeff))
    return make_full_system(cfg)


def _box(dim):
    return lambda rng: rng.uniform(-2.0, 2.0, 2 * dim)


EXACT_GRADIENT_CASES = {
    "two-body-zero": (lambda: _two_body("zero", 1.0), sample_cprime),
    "two-body-linear": (lambda: _two_body("linear", 0.5), sample_cprime),
    "two-body-quadratic": (lambda: _two_body("quadratic", 0.3), sample_cprime),
    "free-1": (lambda: free_particle_dms(dim=1, h=0.5), _box(1)),
    "free-2": (lambda: free_particle_dms(dim=2, h=0.5), _box(2)),
    "harmonic": (lambda: harmonic_oscillator_dms(h=0.1, omega=1.3), _box(1)),
}


def test_action_sum_constant_lagrangian():
    sys = from_dms(1, SmoothMapHandle(2, 1, lambda x: np.array([3.25])))
    path = make_path([(np.array([0.0]), np.array([1.0]))])
    assert action_sum(sys, path) == pytest.approx(3.25)


def test_action_sum_free_particle_hand_value():
    """Path 0, 1, 2 with L = (q1-q0)^2/2: action 0.5 + 0.5 = 1."""
    sys = free_particle_dms(dim=1, h=1.0)
    path = path_from_points([[0.0], [1.0], [2.0]])
    assert action_sum(sys, path) == pytest.approx(1.0, abs=1e-14)


def test_action_invariant_under_group_shift(full_system, rng):
    """Shifting a whole path by one group element preserves the action."""
    act = se2_two_point_action()
    for _ in range(20):
        pts = [sample_cprime(rng)[:4] for _ in range(4)]
        path = path_from_points(pts)
        g = sample_group(act.group, rng)
        shifted = path_from_points([act.act(g, p) for p in pts])
        assert abs(action_sum(full_system, path)
                   - action_sum(full_system, shifted)) < 1e-12


def test_del_residual_free_particle_zero():
    sys = free_particle_dms(dim=1, h=1.0)
    res = del_residual(sys, [0.0], [1.0], [1.0], [2.0])
    assert np.max(np.abs(res)) < 1e-12


def test_del_residual_stationary_path():
    """A constant path of a potential-free DMS is stationary."""
    sys = free_particle_dms(dim=2, h=0.5)
    q = np.array([0.4, -0.3])
    res = del_residual(sys, q, q, q, q)
    assert np.max(np.abs(res)) < 1e-12


def test_del_residual_reduced_closed_form(reduced, body_cfg, rng):
    """Points satisfying the closed-form update zero the reduced residual."""
    from dlpsim.example_se2 import closed_form_reduced_step, sample_annulus
    for _ in range(20):
        r0 = sample_annulus(rng, 0.7, 1.3)
        z0 = rng.uniform(-0.4, 0.4, 2)
        r1 = r0 + rng.uniform(-0.15, 0.15, 2)
        _, z1, r2 = closed_form_reduced_step(body_cfg, r0, z0, r1)
        res = del_residual(reduced.system, np.concatenate([r0, z0]), r1,
                           np.concatenate([r1, z1]), r2)
        assert np.max(np.abs(res)) < RES_TOL


def test_step_free_particle():
    sys = free_particle_dms(dim=1, h=1.0)
    eps1, m2 = step(sys, [0.0], [1.0])
    assert abs(eps1[0] - 1.0) < 1e-10 and abs(m2[0] - 2.0) < 1e-10


def test_step_stationary_zero_velocity(body_cfg):
    """Zero initial velocity and no force: the system stays put."""
    from dlpsim.example_se2 import TwoBodyConfig, make_full_system, potential_handle
    cfg = TwoBodyConfig(h=body_cfg.h, potential=potential_handle("zero"))
    sys = make_full_system(cfg)
    q = np.array([1.0, 0.0, -1.0, 0.0])
    eps1, m2 = step(sys, q, q)
    assert np.max(np.abs(eps1 - q)) < 1e-10
    assert np.max(np.abs(m2 - q)) < 1e-10


def test_step_reduced_example(reduced):
    """From ((1, 0), 1) with V(s) = s/2, h = 0.1: z1 = 0, r2 = 0.99."""
    eps1, m2 = step(reduced.system, np.array([1.0, 0, 0, 0]), np.array([1.0, 0]))
    assert np.max(np.abs(eps1 - np.array([1.0, 0, 0, 0]))) < 1e-10
    assert np.max(np.abs(m2 - np.array([0.99, 0.0]))) < 1e-10


def test_step_agrees_with_direct_dms_solve(full_system, rng):
    """Unified step vs a direct Newton solve of the two-term equation."""
    for _ in range(10):
        q0 = sample_cprime(rng)[:4]
        q1 = q0 + rng.uniform(-0.1, 0.1, 4)
        eps1, m2 = step(full_system, q0, q1)

        def direct(q2):
            return (d1_lagrangian(full_system, q1, q2)
                    + d2_lagrangian(full_system, q0, q1))

        q2 = newton_solve(SmoothMapHandle(4, 4, direct), 2 * q1 - q0)
        assert np.max(np.abs(m2 - q2)) < 1e-10
        assert np.max(np.abs(eps1 - q1)) < 1e-12


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([("linear", 0.5), ("quadratic", 0.3)]))
def test_step_is_se2_equivariant(seed, potential):
    """step(g q0, g q1) = g step(q0, q1) under the diagonal SE(2) action."""
    rng = np.random.default_rng(seed)
    sys = _two_body(*potential)
    action = se2_two_point_action()
    q0 = sample_configuration(rng)
    q1 = q0 + rng.uniform(-0.05, 0.05, 4)
    g = sample_group(action.group, rng, scale=3.0)
    q1_next, q2 = step(sys, q0, q1)
    moved_q1, moved_q2 = step(sys, action.act(g, q0), action.act(g, q1))
    assert np.max(np.abs(moved_q1 - action.act(g, q1_next))) <= 1e-10
    assert np.max(np.abs(moved_q2 - action.act(g, q2))) <= 1e-10


def test_simulate_zero_steps():
    sys = free_particle_dms(dim=1)
    path = simulate(sys, [0.0], [1.0], 0)
    assert len(path) == 1


def test_simulate_rejects_negative_steps():
    with pytest.raises(ValueError, match=r"n_steps must be nonnegative \(got -3\)"):
        simulate(free_particle_dms(dim=1), [0.0], [1.0], -3)


@pytest.mark.parametrize("make", [
    lambda: TwoBodyConfig(h=float("nan")),
    lambda: TwoBodyConfig(h=float("inf")),
    lambda: free_particle_dms(h=0),
    lambda: free_particle_dms(h=float("nan")),
    lambda: harmonic_oscillator_dms(h=0),
], ids=["two-body-nan", "two-body-inf", "free-zero", "free-nan",
        "harmonic-zero"])
def test_bad_timestep_rejected_at_construction(make):
    """A zero or non-finite timestep fails where the system is built,
    not later inside a step."""
    with pytest.raises(ValueError, match="timestep must be finite and nonzero"):
        make()


def test_simulate_free_particle_linear():
    sys = free_particle_dms(dim=1, h=1.0)
    path = simulate(sys, [0.0], [1.0], 10)
    for k, (eps, m) in enumerate(path.pairs):
        assert abs(eps[0] - k) < 1e-10
        assert abs(m[0] - (k + 1)) < 1e-10


def test_simulate_middle_triple_residual(full_system, full_start):
    """Contiguous pairs of a trajectory satisfy the equations of motion."""
    path = simulate(full_system, *full_start, 3)
    res = del_residual(full_system, path[1][0], path[1][1],
                       path[2][0], path[2][1])
    assert np.max(np.abs(res)) <= NewtonConfig().residual_tol


def test_path_is_one_read_only_array(full_system, reduced, full_start):
    """A path is one read-only (N, n + nb) array whose rows are the pairs;
    projections and variations are paths of the same layout."""
    pairs = [full_start]
    for _ in range(4):
        pairs.append(step(full_system, *pairs[-1]))
    path = simulate(full_system, *full_start, 4)
    assert isinstance(path.points, np.ndarray)
    assert path.points.shape == (5, 8) and not path.points.flags.writeable
    with pytest.raises(ValueError):
        path.points[0, 0] = 0.0
    for k, (eps, m) in enumerate(pairs):
        assert np.array_equal(path[k][0], eps) and np.array_equal(path[k][1], m)
        assert np.array_equal(np.concatenate(path.pairs[k]), path.points[k])

    projected = project_path(reduced.model, path)
    for k in range(len(path)):
        assert np.array_equal(projected.points[k],
                              reduced.model.upsilon(path.points[k]))

    var = build_fixed_endpoint_variation(full_system, path,
                                         [np.ones(4)] * (len(path) - 1))
    assert isinstance(var, DiscretePath) and var.points.shape == (5, 8)
    assert abs(action_derivative(full_system, path, var)) < VAR_TOL


def test_simulate_reports_partial_path(body_cfg):
    """A failing step surfaces the partial path and the step index."""
    from dlpsim.example_se2 import make_full_system
    sys = make_full_system(body_cfg)
    # velocities pointed at each other: the particles collide numerically
    q0 = np.array([1e-7, 0.0, -1e-7, 0.0])
    q1 = np.array([0.5e-13, 0.0, -0.5e-13, 0.0])
    with pytest.raises(SimulationError) as err:
        simulate(sys, q0, q1, 5)
    assert isinstance(err.value.partial_path, DiscretePath)
    assert err.value.step_index >= 0


def test_bundle_section_validation(reduced, rng):
    """The reduced bundle's section hits every sampled base point."""
    bundle = reduced.system.bundle
    defect = bundle.validate(lambda r: r.uniform(-2, 2, 2), rng)
    assert defect < 1e-9
    from dlpsim.dlps import FiberBundleModel
    broken = FiberBundleModel(
        total_dim=2, base_dim=1,
        phi=SmoothMapHandle(2, 1, lambda x: x[:1]),
        section=SmoothMapHandle(1, 2, lambda r: np.array([r[0] + 1.0, 0.0])))
    with pytest.raises(ValueError):
        broken.validate(lambda r: r.uniform(-1, 1, 1), rng)


def test_path_compatibility_validation(full_system):
    good = path_from_points([np.zeros(4), np.ones(4) * 0.1])
    good.validate(full_system.bundle)
    bad = make_path([(np.zeros(4), np.ones(4)),
                     (np.zeros(4), np.ones(4))])
    with pytest.raises(ValueError):
        bad.validate(full_system.bundle)


def test_from_dms_zero_chaining(rng):
    sys = free_particle_dms(dim=3)
    for _ in range(100):
        p0 = (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        p1 = (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        out = sys.ivcm(np.concatenate(p0), np.concatenate(p1),
                       rng.standard_normal(3))
        assert np.max(np.abs(out)) == 0.0


def test_from_dms_two_term_residual(full_system, rng):
    """With the identity bundle the residual is D1 L(k) + D2 L(k-1)."""
    q0 = sample_cprime(rng)[:4]
    q1, q2 = q0 + rng.uniform(-0.1, 0.1, 4), q0 + rng.uniform(-0.2, 0.2, 4)
    res = del_residual(full_system, q0, q1, q1, q2)
    expected = (d1_lagrangian(full_system, q1, q2)
                + d2_lagrangian(full_system, q0, q1))
    assert np.max(np.abs(res - expected)) < 1e-13


def test_variation_zero_inputs(full_system, full_start):
    path = simulate(full_system, *full_start, 4)
    var = build_fixed_endpoint_variation(
        full_system, path, [np.zeros(4)] * (len(path) - 1))
    for de, dm in var.pairs:
        assert np.max(np.abs(de)) == 0.0 and np.max(np.abs(dm)) == 0.0


def test_variation_dms_passthrough(full_system, full_start, rng):
    """Zero chaining: free vectors pass through and the k = 0 slot vanishes."""
    path = simulate(full_system, *full_start, 4)
    tilde = [rng.standard_normal(4) for _ in range(len(path) - 1)]
    var = build_fixed_endpoint_variation(full_system, path, tilde)
    assert np.max(np.abs(var[0][0])) == 0.0
    for k in range(1, len(path)):
        assert np.max(np.abs(var[k][0] - tilde[k - 1])) < 1e-14
    assert np.max(np.abs(var[-1][1])) == 0.0


@pytest.mark.parametrize("system_name", ["free", "harmonic"])
def test_variational_principle_dms(system_name, rng):
    """dS vanishes along fixed-endpoint variations of a trajectory."""
    if system_name == "free":
        sys = free_particle_dms(dim=2, h=0.5)
        start = (np.array([0.0, 0.0]), np.array([0.1, 0.05]))
    else:
        sys = harmonic_oscillator_dms(h=0.1)
        start = (np.array([1.0]), np.array([0.995]))
    path = simulate(sys, *start, 8)
    for _ in range(20):
        tilde = [rng.standard_normal(sys.bundle.total_dim)
                 for _ in range(len(path) - 1)]
        var = build_fixed_endpoint_variation(sys, path, tilde)
        assert abs(action_derivative(sys, path, var)) < VAR_TOL


def test_variational_principle_reduced(reduced, rng):
    """The variational principle holds on the reduced system too."""
    path = simulate(reduced.system, np.array([1.0, 0, 0.1, 0.05]),
                    np.array([1.02, 0.01]), 8)
    for _ in range(20):
        tilde = [rng.standard_normal(4) for _ in range(len(path) - 1)]
        var = build_fixed_endpoint_variation(reduced.system, path, tilde)
        assert abs(action_derivative(reduced.system, path, var)) < VAR_TOL


def test_chaining_map_linearity(reduced, rng):
    """The reduced chaining map is linear in the tangent argument."""
    x0 = np.array([1.0, 0.1, 0.2, -0.1, 1.05, 0.12])
    x1 = np.array([1.05, 0.12, 0.2, -0.1, 1.1, 0.15])
    ivcm = reduced.system.ivcm
    for _ in range(10):
        a, b = rng.standard_normal(2)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        lhs = ivcm(x0, x1, a * x + b * y)
        rhs = a * ivcm(x0, x1, x) + b * ivcm(x0, x1, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_chaining_map_vertical(reduced, rng):
    """The reduced chaining map lands in the kernel of the bundle map."""
    bundle = reduced.system.bundle
    x0 = np.array([1.0, 0.1, 0.2, -0.1, 1.05, 0.12])
    x1 = np.array([1.05, 0.12, 0.2, -0.1, 1.1, 0.15])
    for _ in range(10):
        out = reduced.system.ivcm(x0, x1, rng.standard_normal(4))
        jphi = bundle.phi.jacobian(x0[:4])
        assert np.max(np.abs(jphi @ out)) < 1e-8


@pytest.mark.parametrize("case", sorted(EXACT_GRADIENT_CASES))
def test_exact_slot_gradients_match_fd_oracle(case, rng):
    """D1/D2 through the Lagrangian's jac agree with gradient_fd5 on L."""
    make, sample = EXACT_GRADIENT_CASES[case]
    sys = make()
    assert sys.lagrangian.jac is not None
    n = sys.bundle.total_dim
    for _ in range(50):
        x = sample(rng)
        got = np.concatenate([d1_lagrangian(sys, x[:n], x[n:]),
                              d2_lagrangian(sys, x[:n], x[n:])])
        oracle = gradient_fd5(sys.lagrangian, x)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(got - oracle)) <= ORACLE_RTOL * scale


def test_two_body_without_potential_jac_uses_fd(rng):
    """A potential without jac leaves L without one: D1/D2 take the stencil."""
    pot = potential_handle("quadratic", 0.3)
    bare = SmoothMapHandle(1, 1, pot.eval)
    sys = make_full_system(TwoBodyConfig(h=0.1, potential=bare))
    assert sys.lagrangian.jac is None
    for _ in range(10):
        x = sample_cprime(rng)
        got = np.concatenate([d1_lagrangian(sys, x[:4], x[4:]),
                              d2_lagrangian(sys, x[:4], x[4:])])
        assert np.array_equal(got, gradient_fd5(sys.lagrangian, x))


@pytest.mark.parametrize("bad_slot", [0, 1])
def test_exact_gradient_rejects_coincident_particles(full_system, bad_slot):
    """The closed-form gradient keeps L's excised collision diagonal."""
    assert full_system.lagrangian.jac is not None
    points = [np.array([1.0, 0.0, -1.0, 0.0]), np.array([1.1, 0.1, -0.9, 0.0])]
    points[bad_slot] = np.array([0.3, 0.2, 0.3, 0.2])
    for grad in (d1_lagrangian, d2_lagrangian):
        with pytest.raises(DomainError):
            grad(full_system, *points)


def _fd_two_body():
    """The two-body system with a potential that has no jac."""
    pot = potential_handle("quadratic", 0.3)
    bare = SmoothMapHandle(1, 1, pot.eval)
    return make_full_system(TwoBodyConfig(h=0.1, potential=bare))


@pytest.mark.parametrize("bad_slot", [0, 1])
def test_fd_gradient_rejects_coincident_particles(bad_slot):
    """The stencil fallback keeps L's excised collision diagonal too.

    No stencil point of the differentiated slot is coincident, so the
    fallback must evaluate L at the point itself.
    """
    sys = _fd_two_body()
    assert sys.lagrangian.jac is None
    points = [np.array([1.0, 0.0, -1.0, 0.0]), np.array([1.1, 0.1, -0.9, 0.0])]
    points[bad_slot] = np.array([0.3, 0.2, 0.3, 0.2])
    for grad in (d1_lagrangian, d2_lagrangian):
        with pytest.raises(DomainError):
            grad(sys, *points)


def _covector_case(name):
    """(system, sampler of (eps, m) pairs) for the bitwise covector test."""
    if name == "reduced":
        red = make_reduced_system(TwoBodyConfig(), rng=np.random.default_rng(1))
        return red.system, lambda rng: np.split(
            red.model.upsilon(sample_cprime(rng)), [4])
    sys = _two_body("linear", 0.5) if name == "exact" else _fd_two_body()
    return sys, lambda rng: sample_cprime(rng).reshape(2, 4)


@pytest.mark.parametrize("name", ["exact", "fd", "reduced"])
def test_del_covector_matches_del_residual_bitwise(name, rng):
    """The hoisted-gradient helper is del_residual term for term."""
    sys, sample_pair = _covector_case(name)
    for _ in range(10):
        eps_prev, m_cur = sample_pair(rng)
        eps_cur, m_next = sample_pair(rng)
        got = _del_covector(sys, d1_lagrangian(sys, eps_prev, m_cur),
                            d2_lagrangian(sys, eps_prev, m_cur),
                            np.concatenate([eps_prev, m_cur]),
                            np.concatenate([eps_cur, m_next]))
        assert np.array_equal(got, del_residual(sys, eps_prev, m_cur,
                                                eps_cur, m_next))


def test_full_step_computes_previous_gradients_once(full_system):
    """README step: D1 and D2 at the previous pair once each, then one
    gradient per residual evaluation (1 + 16 FD + 1 trial of one Newton
    iteration)."""
    calls = []
    L = full_system.lagrangian
    counting = dataclasses.replace(L, jac=lambda x: calls.append(1) or L.jac(x))
    sys = dataclasses.replace(full_system, lagrangian=counting)
    step(sys, np.array([1.0, 0.0, -1.0, 0.0]), np.array([1.04, 0.03, -0.97, 0.02]))
    assert len(calls) == 20


def test_reduced_step_takes_one_exact_newton_iteration(reduced):
    """README-style reduced data: one Newton iteration suffices, and the
    reduced Lagrangian is never evaluated (its gradient is the chain rule)."""
    evals = []
    L = reduced.system.lagrangian
    counting = dataclasses.replace(L, eval=lambda y: evals.append(1) or L.eval(y))
    sys = dataclasses.replace(reduced.system, lagrangian=counting)
    eps0 = np.array([1.0, 0.1, 0.05, -0.02])
    r1 = np.array([1.02, 0.13])
    step(sys, eps0, r1, cfg=NewtonConfig(max_iters=1))
    assert evals == []


def _raise_type_error(x):
    raise TypeError("defective jac")


@pytest.mark.parametrize("jac, error", [(_raise_type_error, TypeError),
                                        (lambda x: np.zeros(3), ValueError)])
def test_simulate_propagates_defects_in_user_maps(jac, error):
    """Only solver failures become SimulationError; defects surface as is."""
    L = SmoothMapHandle(2, 1, lambda x: np.array([0.5 * (x[1] - x[0]) ** 2]),
                        jac=jac)
    with pytest.raises(error):
        simulate(from_dms(1, L), [0.0], [1.0], 3)
