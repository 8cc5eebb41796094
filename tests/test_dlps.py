"""Tests for paths, action sums, equations of motion, stepping and the
fixed-endpoint variational principle."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpsim import dlps
from dlpsim.dlps import (DiscretePath, _del_covector, action_derivative,
                         action_sum, build_fixed_endpoint_variation,
                         d1_lagrangian, d2_lagrangian, del_residual,
                         free_particle_dms, from_dms, harmonic_oscillator_dms,
                         make_path, path_from_points, simulate, step)
from dlpsim.errors import DomainError, NonConvergence, SimulationError
from dlpsim.example_se2 import (TwoBodyConfig, make_full_system,
                                make_reduced_system, potential_handle,
                                sample_configuration, sample_cprime)
from dlpsim.lie import sample_group, se2_two_point_action
from dlpsim.reduction import project_path, reduce
from dlpsim.smooth import (NewtonConfig, SmoothMapHandle, gradient_fd5,
                           jacobian_fd, newton_solve)

RES_TOL = 1e-9
VAR_TOL = 1e-6
#: Closed-form slot gradients against the fourth-order FD oracle.
ORACLE_RTOL = 1e-9
#: Closed-form Hessians against central FD of the gradient, relative to
#: max(1, largest FD entry): the worst measured is 4.6e-11 (the two-body
#: system, quadratic potential; 4.6e-10 absolute), a margin of 20x.
HESS_RTOL = 1e-9


def _two_body(name, coeff):
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle(name, coeff))
    return make_full_system(cfg)


def _box(dim):
    return lambda rng: rng.uniform(-2.0, 2.0, 2 * dim)


@functools.lru_cache(maxsize=None)
def _reduced_two_body(name, coeff):
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle(name, coeff))
    return make_reduced_system(cfg, rng=np.random.default_rng(1))


def _reduced_case(name, coeff):
    """(system, sampler of rows) of the translation-reduced two-body system."""
    def sample(rng):
        return _reduced_two_body(name, coeff).model.upsilon(sample_cprime(rng))

    return lambda: _reduced_two_body(name, coeff).system, sample


EXACT_GRADIENT_CASES = {
    "two-body-zero": (lambda: _two_body("zero", 1.0), sample_cprime),
    "two-body-linear": (lambda: _two_body("linear", 0.5), sample_cprime),
    "two-body-quadratic": (lambda: _two_body("quadratic", 0.3), sample_cprime),
    "reduced-zero": _reduced_case("zero", 1.0),
    "reduced-linear": _reduced_case("linear", 0.5),
    "reduced-quadratic": _reduced_case("quadratic", 0.3),
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


@pytest.mark.parametrize("call, message", [
    (lambda sys, path: DiscretePath(np.zeros(4), 2), "cannot split rows"),
    (lambda sys, path: DiscretePath(np.zeros((3, 4)), 0), "cannot split rows"),
    (lambda sys, path: DiscretePath(np.zeros((3, 4)), 5), "cannot split rows"),
    (lambda sys, path: from_dms(2, SmoothMapHandle(3, 1, lambda x: x[:1])),
     "must live on Q x Q"),
    (lambda sys, path: build_fixed_endpoint_variation(
        sys, DiscretePath(path.points[:1], 2), []), "at least two pairs"),
    (lambda sys, path: build_fixed_endpoint_variation(
        sys, path, [np.zeros(2)]), "one free vector per interior index"),
    (lambda sys, path: action_derivative(
        sys, path, DiscretePath(np.zeros((2, 4)), 2)), "lengths differ"),
], ids=["flat-points", "no-fiber", "too-many-fiber", "dms-dims",
        "one-pair-path", "free-vector-count", "variation-length"])
def test_malformed_arguments_raise_value_error(call, message):
    """Shapes and lengths that do not fit are ValueErrors that say so."""
    sys = free_particle_dms(dim=2)
    path = simulate(sys, [0.0, 0.0], [1.0, 0.5], 3)
    with pytest.raises(ValueError, match=message):
        call(sys, path)


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


@pytest.mark.parametrize("h, omega", [(0.1, 1e200), (1e-300, 1e160),
                                      (0.1, float("inf")), (0.1, np.float64(1e155))])
def test_oscillator_rejects_an_overflowing_frequency(h, omega):
    """An omega whose h omega^2 is not finite fails at construction with
    a ValueError, not with a raw OverflowError or a RuntimeWarning."""
    with pytest.raises(ValueError, match=r"h \* omega\^2 must be finite"):
        harmonic_oscillator_dms(h=h, omega=omega)


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


def test_from_dms_zero_chaining(rng):
    sys = free_particle_dms(dim=3)
    for _ in range(100):
        p0 = (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        p1 = (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        out = sys.ivcm_matrix(np.concatenate(p0), np.concatenate(p1))
        assert out.shape == (3, 3) and np.max(np.abs(out)) == 0.0


@pytest.mark.parametrize("read", [lambda sys, x: sys.ivcm_matrix(x, x),
                                  lambda sys, x: sys.lagrangian.hessian(x)],
                         ids=["ivcm_matrix", "hess"])
@pytest.mark.parametrize("make", [free_particle_dms, harmonic_oscillator_dms])
def test_shared_constant_matrices_are_read_only(make, read):
    """The zero chaining matrix of ``from_dms`` and the constant Hessians of
    the canonical DMS are shared by every call: a write raises instead of
    changing later steps."""
    sys = make(dim=2)
    before = np.concatenate(step(sys, [0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ValueError):
        read(sys, np.zeros(4))[0, 0] = 5.0
    assert np.array_equal(np.concatenate(step(sys, [0.0, 0.0], [1.0, 1.0])), before)


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


def test_chaining_map_vertical(reduced, rng):
    """The reduced chaining map lands in the kernel of the bundle map."""
    bundle = reduced.system.bundle
    x0 = np.array([1.0, 0.1, 0.2, -0.1, 1.05, 0.12])
    x1 = np.array([1.05, 0.12, 0.2, -0.1, 1.1, 0.15])
    out = reduced.system.ivcm_matrix(x0, x1)
    jphi = bundle.phi.jacobian(x0[:4])
    for _ in range(10):
        assert np.max(np.abs(jphi @ (out @ rng.standard_normal(4)))) < 1e-8


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


@pytest.mark.parametrize("case", sorted(EXACT_GRADIENT_CASES))
def test_exact_hessians_match_fd_of_jac(case, rng):
    """Every shipped Lagrangian's hess matches central FD of its jac."""
    make, sample = EXACT_GRADIENT_CASES[case]
    L = make().lagrangian
    for _ in range(50):
        x = sample(rng)
        fd = jacobian_fd(lambda y: L.jacobian(y)[0], x)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(L.hessian(x) - fd)) <= HESS_RTOL * scale


@pytest.mark.parametrize("case", sorted(EXACT_GRADIENT_CASES))
def test_del_jacobian_matches_fd_of_del_covector(case, rng):
    """The DEL Jacobian that ``step`` builds, rows ``[:n]`` of the
    Lagrangian's hess, is the current-row derivative of the DEL covector,
    chaining term included."""
    make, sample = EXACT_GRADIENT_CASES[case]
    sys = make()
    n = sys.bundle.total_dim
    for _ in range(20):
        x_prev, x_cur = sample(rng), sample(rng)
        fd = jacobian_fd(_del_covector(sys, x_prev), x_cur)
        scale = max(1.0, float(np.max(np.abs(fd))))
        got = sys.lagrangian.hessian(x_cur)[:n]
        assert np.max(np.abs(got - fd)) <= HESS_RTOL * scale


def test_exact_step_jacobian_only_with_closed_forms(reduced, callable_jacs):
    """A Lagrangian without hess, a potential without V'' and the generic
    ``reduce`` output keep the finite-difference Newton Jacobian; the
    translation-reduced two-body system gets the exact one: a system
    without a hess has no ``_newton_jac``."""
    pot = potential_handle("quadratic", 0.3)
    no_v2 = TwoBodyConfig(potential=dataclasses.replace(pot, hess=None))
    L = _two_body("linear", 0.5).lagrangian
    no_v2_reduced = make_reduced_system(no_v2, rng=np.random.default_rng(1))
    generic = reduce(make_full_system(TwoBodyConfig()), callable_jacs(reduced.model))
    for sys in (from_dms(4, dataclasses.replace(L, hess=None)),
                make_full_system(no_v2), no_v2_reduced.system, generic.system):
        assert sys.lagrangian.hess is None and sys._newton_jac is None
    assert reduced.system.lagrangian.hess is not None
    assert reduced.system._newton_jac is not None


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([("linear", 0.5), ("quadratic", 0.3)]),
       st.booleans())
def test_exact_newton_step_matches_fd_newton_step(seed, potential, reduced):
    """The step with the Hessian Newton Jacobian agrees with the step that
    differences the residual, on the full two-body system and on its
    translation reduction; on the linear potential it takes one Newton
    iteration."""
    rng = np.random.default_rng(seed)
    q0 = sample_configuration(rng)
    x = np.concatenate([q0, q0 + rng.uniform(-0.05, 0.05, 4)])
    if reduced:
        red = _reduced_two_body(*potential)
        sys, x = red.system, red.model.upsilon(x)
    else:
        sys = _two_body(*potential)
    exact = np.concatenate(step(sys, x[:4], x[4:]))
    fd_sys = dataclasses.replace(
        sys, lagrangian=dataclasses.replace(sys.lagrangian, hess=None))
    fd = np.concatenate(step(fd_sys, x[:4], x[4:]))
    assert np.max(np.abs(exact - fd)) <= 1e-10
    if potential[0] == "linear":
        step(sys, x[:4], x[4:], cfg=NewtonConfig(max_iters=1))


def test_reduced_step_jacobian_preconditions(body_cfg, reduced, callable_jacs, rng):
    """What makes the hess step exact on the translation-reduced system:
    its chaining matrix is one read-only constant C, bit for bit the
    generic ``reduce`` chaining matrix at every sampled pair, its chaining
    map is C @ delta, and d phi is constant. A potential without V''
    keeps the constant but gets no hess."""
    sys = reduced.system
    generic = reduce(make_full_system(body_cfg), callable_jacs(reduced.model)).system
    pot = dataclasses.replace(potential_handle("quadratic", 0.3), hess=None)
    no_v2 = make_reduced_system(TwoBodyConfig(potential=pot),
                                rng=np.random.default_rng(1)).system
    assert no_v2.lagrangian.hess is None

    def sample():
        return reduced.model.upsilon(sample_cprime(rng))

    C = sys.ivcm_matrix(sample(), sample())
    assert not C.flags.writeable
    jphi = sys.bundle.phi.jacobian(sample()[:4])
    for _ in range(20):
        y0, y1 = sample(), sample()
        assert sys.ivcm_matrix(y0, y1) is C
        assert np.array_equal(generic.ivcm_matrix(y0, y1), C)
        assert np.array_equal(no_v2.ivcm_matrix(y0, y1), C)
        assert no_v2.ivcm_matrix(y0, y1) is no_v2.ivcm_matrix(y1, y0)
        assert np.max(np.abs(sys.bundle.phi.jacobian(y0[:4]) - jphi)) <= 1e-12


def _counting_newton(monkeypatch):
    """Patch ``step``'s solver to record, per solve, whether its residual
    has a closed-form Jacobian and the list of its evaluations."""
    solves = []
    solve = dlps.newton_solve

    def counting(residual, x0, cfg=None):
        evals = []
        solves.append((residual.jac is not None, evals))
        counted = dataclasses.replace(
            residual, eval=lambda z: evals.append(1) or residual.eval(z))
        return solve(counted, x0, cfg)

    monkeypatch.setattr(dlps, "newton_solve", counting)
    return solves


def test_hess_over_callable_phi_jac_differences_the_residual(
        full_system, full_start, monkeypatch):
    """A hess gives the exact step only over an array phi jac: the README
    step of the same DMS with phi's jac as a callable differences its
    residual (1 + 16 FD + 1 trial evaluations where the exact step makes
    2) and lands on the exact step to 1e-10."""
    phi = full_system.bundle.phi
    callable_phi = dataclasses.replace(full_system, bundle=dataclasses.replace(
        full_system.bundle, phi=dataclasses.replace(phi, jac=lambda x: phi.jac)))
    assert callable_phi.lagrangian.hess is not None
    assert callable_phi._newton_jac is None
    solves = _counting_newton(monkeypatch)
    exact = np.concatenate(step(full_system, *full_start))
    fd = np.concatenate(step(callable_phi, *full_start))
    assert [(exact_jac, len(evals)) for exact_jac, evals in solves] == [
        (True, 2), (False, 18)]
    assert np.max(np.abs(exact - fd)) <= 1e-10


def test_non_finite_row_stops_the_step_at_once(full_system, monkeypatch):
    """A NaN in the row makes the residual at the guess NaN: the step
    raises NonConvergence after that one residual evaluation, on the free
    particle (which used to stall after 20 halvings) and on the two-body
    system (which used to report a singular Jacobian)."""
    solves = _counting_newton(monkeypatch)
    cases = [(free_particle_dms(2), [np.nan, 0.0], [0.0, 1.0]),
             (full_system, [1.0, np.nan, -1.0, 0.0], [1.04, 0.03, -0.97, 0.02])]
    for sys, eps0, m1 in cases:
        with pytest.raises(NonConvergence) as info:
            step(sys, eps0, m1)
        assert len(solves.pop()[1]) == 1
        assert np.isnan(info.value.residual_norm)
        assert info.value.last_iterate.shape == (2 * sys.bundle.total_dim,)


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
    """The hoisted-gradient covector of ``step`` and ``del_residual`` is
    the textbook sum of slot gradients, bit for bit: D1 at the current
    row, D2 at the previous row through d phi, D1 at the previous row
    through the chaining matrix."""
    sys, sample_pair = _covector_case(name)
    for _ in range(10):
        eps_prev, m_cur = sample_pair(rng)
        eps_cur, m_next = sample_pair(rng)
        x_prev = np.concatenate([eps_prev, m_cur])
        x_cur = np.concatenate([eps_cur, m_next])
        textbook = (d1_lagrangian(sys, eps_cur, m_next)
                    + d2_lagrangian(sys, eps_prev, m_cur)
                    @ sys.bundle.phi.jacobian(eps_cur)
                    + d1_lagrangian(sys, eps_prev, m_cur)
                    @ sys.ivcm_matrix(x_prev, x_cur))
        got = _del_covector(sys, x_prev)(x_cur)
        assert np.array_equal(got, textbook)
        assert np.array_equal(got, del_residual(sys, eps_prev, m_cur,
                                                eps_cur, m_next))


def _readme_step_gradient_calls(L, hess):
    """Gradient calls of one README step of from_dms(4, L with ``hess``)."""
    calls = []
    counting = dataclasses.replace(L, jac=lambda x: calls.append(1) or L.jac(x),
                                   hess=hess)
    step(from_dms(4, counting), np.array([1.0, 0.0, -1.0, 0.0]),
         np.array([1.04, 0.03, -0.97, 0.02]))
    return len(calls)


def test_full_step_computes_previous_gradients_once(full_system):
    """README step: one gradient at the previous pair, split into D1 and
    D2, then one gradient per residual evaluation of one Newton iteration
    whose Jacobian is the Hessian: the initial evaluation and one trial."""
    L = full_system.lagrangian
    assert _readme_step_gradient_calls(L, L.hess) == 3


def test_full_step_without_hess_differences_the_residual(full_system):
    """Without hess, the Newton Jacobian takes 16 more residual
    evaluations (1 + 16 FD + 1 trial, after the one gradient at the
    previous pair)."""
    assert _readme_step_gradient_calls(full_system.lagrangian, None) == 19


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
