"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import dataclasses
import json

import numpy as np
import pytest

from dlpsim.cli import main as cli_main
from dlpsim.connection import ad, check_equivariance
from dlpsim.diagnostics import (momentum_evolution_check,
                                poisson_descent_check, symplectic_check)
from dlpsim.dlps import (action_derivative, build_fixed_endpoint_variation,
                         del_residual, free_particle_dms, from_dms,
                         harmonic_oscillator_dms, simulate, step)
from dlpsim.example_se2 import (TwoBodyConfig, closed_form_reduced_step,
                                make_full_system, make_reduced_system,
                                make_t2_connection, potential_handle,
                                sample_annulus, sample_cprime,
                                sample_configuration)
from dlpsim.lie import sample_group, se2_two_point_action, t2_two_point_action
from dlpsim.reduction import (check_morphism, project_path, reconstruct_path,
                              reduce, two_stage)
from dlpsim.smooth import SmoothMapHandle
from oracles import horizontal_lift, mechanical_connection_flat


def report(criterion, label, value, tol, ok=None):
    ok = (value <= tol) if ok is None else ok
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:>2} [{status}] {label}: "
          f"{value:.3e} (tol {tol:.0e})")
    assert ok, f"criterion {criterion}: {label} = {value:.3e} > {tol:.0e}"


@pytest.fixture(scope="module")
def full_traj(full_system, full_start):
    return simulate(full_system, *full_start, 50)


@pytest.fixture(scope="module")
def reduced_traj(reduced, full_start):
    y0 = reduced.model.upsilon(np.concatenate(full_start))
    return simulate(reduced.system, y0[:4], y0[4:], 50)


def test_criterion_1_closed_form_reduced_dynamics(reduced, full_system,
                                                  body_cfg):
    eps1, m2 = step(reduced.system, np.array([1.0, 0, 0, 0]),
                    np.array([1.0, 0.0]))
    printed = max(float(np.max(np.abs(eps1[2:]))),
                  float(np.max(np.abs(m2 - np.array([0.99, 0.0])))))

    rng = np.random.default_rng(100)
    generic = 0.0
    for _ in range(100):
        r0 = sample_annulus(rng, 0.7, 1.3)
        z0 = rng.uniform(-0.2, 0.2, 2)
        r1 = r0 + rng.uniform(-0.1, 0.1, 2)
        e1, m2 = step(reduced.system, np.concatenate([r0, z0]), r1)
        _, z1c, r2c = closed_form_reduced_step(body_cfg, r0, z0, r1)
        generic = max(generic, float(np.max(np.abs(e1[2:] - z1c))),
                      float(np.max(np.abs(m2 - r2c))))

    # independent oracle: solve the step upstairs in all 8 coordinates
    cross = 0.0
    for _ in range(10):
        r0 = sample_annulus(rng, 0.7, 1.3)
        y = np.concatenate([r0, rng.uniform(-0.2, 0.2, 2),
                            r0 + rng.uniform(-0.1, 0.1, 2)])
        x = reduced.model.lift_section(y)
        _, m2full = step(full_system, x[:4], x[4:])
        projected = reduced.model.upsilon(np.concatenate([x[4:], m2full]))
        _, z1c, r2c = closed_form_reduced_step(body_cfg, y[:2], y[2:4], y[4:])
        cross = max(cross, float(np.max(np.abs(projected[4:] - r2c))),
                    float(np.max(np.abs(projected[2:4] - z1c))))

    report(1, "printed case z1=0, r2=0.99", printed, 1e-10)
    report(1, "generic step vs closed form (100 random)", generic, 1e-10)
    report(1, "full-space solve projects to closed form", cross, 1e-9)


def test_criterion_2_projection_equivalence(full_system, reduced, full_traj,
                                            reduced_traj):
    projected = project_path(reduced.model, full_traj)
    res_max = 0.0
    for k in range(1, len(projected)):
        r = del_residual(reduced.system, projected[k - 1][0],
                         projected[k - 1][1], projected[k][0],
                         projected[k][1])
        res_max = max(res_max, float(np.max(np.abs(r))))
    report(2, "projected trajectory reduced residual", res_max, 1e-8)
    report(2, "reduced simulation equals projection",
           float(np.max(np.abs(projected.points - reduced_traj.points))), 1e-8)


def test_criterion_3_reconstruction(full_start):
    worst = 0.0
    for name, coeff in (("linear", 0.5), ("linear", 1.0), ("quadratic", 0.25)):
        cfg = TwoBodyConfig(h=0.1, potential=potential_handle(name, coeff))
        sys = make_full_system(cfg)
        red = make_reduced_system(cfg, rng=np.random.default_rng(30))
        traj = simulate(sys, *full_start, 50)
        rebuilt = reconstruct_path(red.model, project_path(red.model, traj),
                                   *full_start)
        worst = max(worst, float(np.max(np.abs(traj.points - rebuilt.points))))
    report(3, "reconstruct(project(traj)) roundtrip, three potentials",
           worst, 1e-8)


@pytest.fixture(scope="module")
def staged_projections(staged, full_traj):
    """(label, system, projected path) for the twice-reduced and the
    one-shot system, the README trajectory projected onto each."""
    twice = project_path(staged.stage_gh.model,
                         project_path(staged.stage_h.model, full_traj))
    once = project_path(staged.one_shot.model, full_traj)
    return (("twice-reduced", staged.stage_gh.system, twice),
            ("one-shot", staged.one_shot.system, once))


def test_criterion_4_two_stage(staged, full_traj, staged_projections):
    rep, _ = two_stage(staged.sys, staged.stage_h, staged.stage_gh,
                       staged.one_shot, full_traj, conn_h=staged.conn_h,
                       full_group_action=staged.action_g,
                       conjugate_in_full=staged.conjugate_in_g,
                       rng=np.random.default_rng(11235))
    report(4, "stage comparison over 50 steps",
           rep["stage_comparison_max"], 1e-8)
    # Each staged system, stepped from the projected trajectory, stays on
    # it: the twice-reduced step exercises the generic chaining map.
    for label, system, projected in staged_projections:
        stepped = simulate(system, *projected[0], 5)
        report(4, f"{label} steps vs projection (5 steps)", float(np.max(
            np.abs(stepped.points - projected.points[:6]))), 1e-10)


def test_criterion_5_connection_laws():
    conn = make_t2_connection()
    flat = mechanical_connection_flat(np.eye(4), conn.quotient)
    rep_closed = check_equivariance(conn, 200, rng=np.random.default_rng(51))
    rep_flat = check_equivariance(flat, 200, rng=np.random.default_rng(52))
    rng = np.random.default_rng(53)
    agree = 0.0
    for _ in range(200):
        q0, q1 = sample_configuration(rng), sample_configuration(rng)
        agree = max(agree, float(np.max(np.abs(
            ad(conn, q0, q1) - ad(flat, q0, q1)))))
        r1 = rng.uniform(-2, 2, 2)
        agree = max(agree, float(np.max(np.abs(
            horizontal_lift(conn, q0, r1) - horizontal_lift(flat, q0, r1)))))
    report(5, "closed-form connection equivariance (200 samples)",
           rep_closed["max_violation"], 1e-10)
    report(5, "flat-metric connection equivariance (200 samples)",
           rep_flat["max_violation"], 1e-10)
    report(5, "closed-form vs flat-metric agreement", agree, 1e-10)


def unequal_masses(h):
    """The two-body DMS with masses 1 and 3 and V(s) = s/2, by hand: L
    only, so its slot gradients are differenced."""
    def L(x):
        q0, q1 = x[:4], x[4:]
        dx, dy, sep = q1[:2] - q0[:2], q1[2:] - q0[2:], q0[:2] - q0[2:]
        return np.array([(dx @ dx + 3.0 * (dy @ dy)) / (2.0 * h)
                         - 0.5 * h * 0.5 * (sep @ sep)])
    return from_dms(4, SmoothMapHandle(8, 1, L))


def test_criterion_6_momentum(full_system, full_traj, reduced, reduced_traj,
                              staged, body_cfg, full_start):
    rep = momentum_evolution_check(full_system, t2_two_point_action(),
                                   full_traj)
    report(6, "translation momentum constant along DMS trajectory",
           rep["max_conservation_drift"], 1e-10)
    rep_red = momentum_evolution_check(reduced.system, staged.residual_action,
                                       reduced_traj)
    report(6, "momentum evolution identity on reduced trajectory",
           rep_red["max_violation"], 1e-8)
    # With equal masses the chaining correction vanishes identically; with
    # masses 1 and 3 it carries the momentum, which then drifts.
    red_13 = reduce(unequal_masses(body_cfg.h), reduced.model,
                    rng=np.random.default_rng(0))
    y0 = reduced.model.upsilon(np.concatenate(full_start))
    rep_13 = momentum_evolution_check(
        red_13.system, staged.residual_action,
        simulate(red_13.system, y0[:4], y0[4:], 50))
    report(6, "momentum evolution identity, masses 1 and 3",
           rep_13["max_violation"], 1e-8, ok=rep_13["precondition_ok"]
           and rep_13["max_violation"] <= 1e-8)
    report(6, "momentum drift is material, masses 1 and 3",
           rep_13["max_conservation_drift"], 0.1,
           ok=rep_13["max_conservation_drift"] >= 0.1)


def test_criterion_7_symplecticity(full_system, full_start):
    ho = harmonic_oscillator_dms(h=0.1)
    rep_ho = symplectic_check(ho, simulate(ho, [1.0], [0.995], 20))
    rep_body = symplectic_check(
        full_system, simulate(full_system, *full_start, 20))
    report(7, "harmonic oscillator symplectic defect (20 steps)",
           rep_ho["max_violation"], 1e-6)
    report(7, "two-body symplectic defect (20 steps)",
           rep_body["max_violation"], 1e-6)


def test_criterion_8_variational_principle(full_system, reduced, full_start,
                                           staged_projections):
    rng = np.random.default_rng(80)
    systems = [
        ("free particle", free_particle_dms(dim=2, h=0.5),
         (np.array([0.0, 0.0]), np.array([0.1, 0.05])), 8),
        ("harmonic oscillator", harmonic_oscillator_dms(h=0.1),
         (np.array([1.0]), np.array([0.995])), 8),
        ("two-body", full_system, full_start, 8),
        ("two-body reduced", reduced.system,
         (np.array([1.0, 0.0, 0.1, 0.05]), np.array([1.02, 0.01])), 8),
    ]
    worst = 0.0
    for _name, sys, start, n in systems:
        traj = simulate(sys, *start, n)
        for _ in range(20):
            tilde = [rng.standard_normal(sys.bundle.total_dim)
                     for _ in range(len(traj) - 1)]
            var = build_fixed_endpoint_variation(sys, traj, tilde)
            worst = max(worst, abs(action_derivative(sys, traj, var)))
    report(8, "dS along 20 random fixed-endpoint variations, 4 systems",
           worst, 1e-6)
    # The staged systems' chaining maps depend on the point, so their
    # variations carry a chaining term at every interior index.
    rng = np.random.default_rng(81)
    for label, system, projected in staged_projections:
        traj = simulate(system, *projected[0], 5)
        worst = 0.0
        for _ in range(20):
            tilde = [rng.standard_normal(system.bundle.total_dim)
                     for _ in range(len(traj) - 1)]
            var = build_fixed_endpoint_variation(system, traj, tilde)
            worst = max(worst, abs(action_derivative(system, traj, var)))
        report(8, f"dS along 20 random fixed-endpoint variations, {label} "
               "(5 steps)", worst, 1e-6)


def test_criterion_9_morphism_checker(full_system, reduced):
    rep_u = check_morphism(reduced.model.upsilon, full_system, reduced.system,
                           sample_cprime, n_samples=50,
                           rng=np.random.default_rng(90))
    worst = max(rep_u["cond3_base_independence_max"],
                rep_u["cond4_base_compatibility_max"],
                rep_u["cond5_lagrangian_match_max"],
                rep_u["cond6_chaining_intertwine_max"])
    ranks_ok = (rep_u["cond1_submersion_rank_ok"]
                and rep_u["cond2_fiber_slot_rank_ok"])

    act = se2_two_point_action()
    g = sample_group(act.group, np.random.default_rng(91))
    translation = SmoothMapHandle(
        8, 8, lambda x: np.concatenate([act.act(g, x[:4]), act.act(g, x[4:])]))
    rep_t = check_morphism(translation, full_system, full_system,
                           sample_cprime, n_samples=50,
                           rng=np.random.default_rng(92))
    worst_t = max(rep_t["cond3_base_independence_max"],
                  rep_t["cond4_base_compatibility_max"],
                  rep_t["cond5_lagrangian_match_max"],
                  rep_t["cond6_chaining_intertwine_max"])

    def perturbed(x):
        y = reduced.model.upsilon(x).copy()
        y[0] += 0.1
        return y

    rep_p = check_morphism(SmoothMapHandle(8, 6, perturbed), full_system,
                           reduced.system, sample_cprime, n_samples=50,
                           rng=np.random.default_rng(93))

    report(9, "reduction morphism conditions", worst, 1e-9,
           ok=(worst <= 1e-9 and ranks_ok))
    report(9, "group translation conditions", worst_t, 1e-9)
    report(9, "negative control breaks the Lagrangian condition",
           rep_p["cond5_lagrangian_match_max"], 1e-2,
           ok=rep_p["cond5_lagrangian_match_max"] >= 1e-2)


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "system": "se2-two-body", "h": 0.1,
        "potential": {"name": "linear", "coeff": 0.5},
        "n_steps": 10,
        "initial": [1.0, 0.0, -1.0, 0.0, 1.04, 0.03, -0.97, 0.02],
        "seed": 7,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        assert cli_main(["simulate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert cli_main(["stages", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("trajectory.csv", "simulate.json", "stages.json"))
    report(10, "CLI byte-identical outputs with fixed seed",
           0.0 if identical else 1.0, 0.5, ok=identical)


def product_of_coordinates(i, j):
    """f(y) = y_i y_j on the T2-reduced space, with its closed-form ``jac``."""
    def jac(y):
        J = np.zeros((1, 6))
        J[0, i] += y[j]
        J[0, j] += y[i]
        return J
    return SmoothMapHandle(6, 1, lambda y: y[i:i + 1] * y[j:j + 1], jac=jac)


def test_criterion_11_poisson_descent():
    """The bracket of pullbacks is constant on T2 orbits. Coordinate
    functions have a constant bracket under the README's constant
    Hessian, so they cannot see a non-invariant upsilon; products of
    coordinates can. Measured: 1.4e-16 (72x under the bound); the
    negative control reads 2.2e-10, in proportion to its shift."""
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle("quadratic", 0.3))
    full = make_full_system(cfg)
    model = make_reduced_system(cfg, rng=np.random.default_rng(0)).model
    fns = [product_of_coordinates(i, j)
           for i, j in ((0, 1), (0, 4), (2, 5), (1, 3))]

    def variation(model):
        return poisson_descent_check(model, full, fns, n_samples=20, n_group=5,
                                     rng=np.random.default_rng(100))[
                                         "max_orbit_variation"]

    # upsilon shifted by 1e-9 x0_re in its first component, jac to match
    shift = np.zeros((6, 8))
    shift[0, 0] = 1e-9
    upsilon = model.upsilon
    broken = dataclasses.replace(model, upsilon=SmoothMapHandle(
        8, 6, lambda x: upsilon(x) + shift @ x, jac=upsilon.jac + shift))
    negative = variation(broken)
    report(11, "bracket of pullbacks orbit variation, quadratic 0.3",
           variation(model), 1e-14)
    report(11, "negative control: upsilon + 1e-9 x0_re varies on orbits",
           negative, 1e-14, ok=negative > 1e-14)
