"""The maxima of the CLI reports and of the diagnostics against reference
copies of their running folds.

``cli._reduce``, ``cli._reconstruct``, ``momentum_evolution_check``,
``symplectic_check`` and ``poisson_descent_check`` collect their per-draw
(or per-step) differences and judge them once, with ``errors.draw_maxima``
and ``errors.worst_draw``. Each reference below is the running maximum the
code kept before: it folds every value as it is computed, by ``worse``, and
here also keeps the sample or step of the running maximum. On the README
config and with the quadratic potential the values and the samples must be
equal bit for bit, also with a NaN injected at one draw or step, which must
stay the maximum and be reported where it was injected.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from dlpsim import cli, dlps, example_se2
from dlpsim import diagnostics as D
from dlpsim.dlps import d1_lagrangian, del_residual, simulate
from dlpsim.example_se2 import TwoBodyConfig, make_full_system, potential_handle
from dlpsim.lie import orbit_frame, sample_group, t2_two_point_action
from dlpsim.smooth import SmoothMapHandle
from test_batched_checks import assert_bit_equal, worse

README = {"system": "se2-two-body", "h": 0.1,
          "potential": {"name": "linear", "coeff": 0.5}, "n_steps": 50,
          "initial": [1.0, 0.0, -1.0, 0.0, 1.04, 0.03, -0.97, 0.02], "seed": 7}
CONFIGS = {"readme": README,
           "quadratic": dict(README, potential={"name": "quadratic", "coeff": 0.3})}


def keep(best, values, where):
    """The running maximum ``best = (worst, where)`` after folding in
    ``values`` by ``worse``; a value that replaces it brings ``where``."""
    worst, at = best
    for v in values:
        if worse(v, worst):
            worst, at = v, where
    return worst, at


# --- reference folds -------------------------------------------------------


def ref_reduce(cfg):
    body, rng = cli._two_body(cfg)
    n_check = cli._integer(cfg, "n_check", 100, 1)
    red = example_se2.make_reduced_system(body, rng=rng)
    full = example_se2.make_full_system(body)

    lag = roundtrip = orbit = ivcm = step = (0.0, None)
    for _ in range(n_check):
        x = example_se2.sample_cprime(rng)
        y = red.model.upsilon(x)
        lag = keep(lag, [abs(
            float(red.system.lagrangian(y)[0]) - float(full.lagrangian(x)[0]))], x)
        roundtrip = keep(roundtrip, [float(np.max(np.abs(
            red.model.upsilon(red.model.lift_section(y)) - y)))], x)
        g = sample_group(red.model.group_action.group, rng)
        orbit = keep(orbit, [float(np.max(np.abs(
            red.model.upsilon(red.model.group_action.act(g, x)) - y)))], x)
        y1 = np.concatenate([y[4:], rng.uniform(-1, 1, 2),
                             y[4:] + rng.uniform(-0.2, 0.2, 2)])
        delta = rng.standard_normal(4)
        out = red.system.ivcm_matrix(y, y1) @ delta
        expected = np.array([0.0, 0.0, -delta[2], -delta[3]])
        ivcm = keep(ivcm, [float(np.max(np.abs(out - expected)))], x)

    for _ in range(20):
        r0 = example_se2.sample_annulus(rng, 0.7, 1.3)
        z0 = rng.uniform(-0.2, 0.2, 2)
        r1 = r0 + rng.uniform(-0.1, 0.1, 2)
        eps1, m2 = dlps.step(red.system, np.concatenate([r0, z0]), r1)
        _, z1c, r2c = example_se2.closed_form_reduced_step(body, r0, z0, r1)
        step = keep(step,
                    [float(np.max(np.abs(eps1 - np.concatenate([r1, z1c])))),
                     float(np.max(np.abs(m2 - r2c)))],
                    np.concatenate([r0, z0, r1]))

    return {
        "lagrangian_match_max": (lag[0], 1e-10, lag[1]),
        "upsilon_section_roundtrip_max": (roundtrip[0], 1e-10, roundtrip[1]),
        "orbit_invariance_max": (orbit[0], 1e-10, orbit[1]),
        "chaining_closed_form_max": (ivcm[0], 1e-9, ivcm[1]),
        "closed_form_step_max": (step[0], 1e-10, step[1]),
    }


def ref_reconstruct(cfg):
    body, rng = cli._two_body(cfg)
    full = example_se2.make_full_system(body)
    eps0, m1 = cli._initial_pair(cfg, full)
    n_steps = cli._integer(cfg, "n_steps", 50, 0)
    traj = cli.simulate(full, eps0, m1, n_steps, cfg=cli._newton_config(cfg))
    red = example_se2.make_reduced_system(body, rng=rng)
    reduced = cli.project_path(red.model, traj)
    rebuilt = cli.reconstruct_path(red.model, reduced, eps0, m1)
    res = (0.0, None)
    for k in range(1, len(reduced)):
        r = cli.del_residual(red.system, *reduced[k - 1], *reduced[k])
        res = keep(res, [float(np.max(np.abs(r)))], reduced.points[k])
    # The value was one np.max over the whole difference; the row is the
    # first row attaining it.
    roundtrip_max = float(np.max(np.abs(traj.points - rebuilt.points)))
    row = (0.0, None)
    for x, x_rebuilt in zip(traj.points, rebuilt.points):
        row = keep(row, [float(np.max(np.abs(x - x_rebuilt)))], x)
    return {
        "roundtrip_max": (roundtrip_max, 1e-8, row[1]),
        "projected_residual_max": (res[0], 1e-8, res[1]),
    }


def ref_momentum_evolution_check(sys, action, trajectory):
    pairs = trajectory.pairs
    residual = (0.0, None)
    for k in range(1, len(pairs)):
        res = del_residual(sys, pairs[k - 1][0], pairs[k - 1][1],
                           pairs[k][0], pairs[k][1])
        residual = keep(residual, [float(np.max(np.abs(res)))], k)
    precondition_ok = residual[0] <= 1e-6

    grads = [d1_lagrangian(sys, eps, m) for eps, m in pairs]
    frames = [orbit_frame(action, eps) for eps, _ in pairs]
    momenta = [-(g1 @ frame) for g1, frame in zip(grads, frames)]
    points = trajectory.points
    violation = drift = (0.0, None)
    for k in range(1, len(pairs)):
        ivcm_m = sys.ivcm_matrix(points[k - 1], points[k])
        correction = grads[k - 1] @ (ivcm_m @ frames[k])
        v = momenta[k] - momenta[k - 1] - correction
        violation = keep(violation, [float(np.max(np.abs(v), initial=0.0))], k)
        drift = keep(drift, [float(np.max(np.abs(momenta[k] - momenta[0]),
                                          initial=0.0))], k)
    return {
        "max_violation": violation[0],
        "max_violation_step": violation[1],
        "max_conservation_drift": drift[0],
        "max_conservation_drift_step": drift[1],
        "precondition_ok": bool(precondition_ok),
        "max_del_residual": residual[0],
        "max_del_residual_step": residual[1],
        "momenta": [m.tolist() for m in momenta],
    }


def ref_symplectic_check(dms, trajectory):
    n = D._require_dms(dms)

    def two_form(D12):
        zero = np.zeros((n, n))
        return np.block([[zero, D12], [-D12.T, zero]])

    def flow(x):
        return np.concatenate(dlps.step(dms, x[:n], x[n:]))

    rows = trajectory.points[:-1]
    blocks = [D._mixed_partial(dms, x[:n], x[n:]) for x in rows]
    ratios = [D._check_regularity(D12) for D12 in blocks]
    per_step = []
    worst = (0.0, None)
    for k, (x, D12) in enumerate(zip(rows, blocks)):
        y = flow(x)
        D12_next = D._mixed_partial(dms, y[:n], y[n:])
        D._check_regularity(D12_next)
        K = D.jacobian_fd(flow, x)
        per_step.append(float(np.max(np.abs(
            K.T @ two_form(D12_next) @ K - two_form(D12)))))
        worst = keep(worst, per_step[-1:], k)
    smallest = (-np.inf, None)
    for k, ratio in enumerate(ratios):
        smallest = keep(smallest, [-ratio], k)
    return {
        "max_violation": float(worst[0]),
        "worst_step": worst[1],
        "per_step": per_step,
        "min_mixed_partial_sigma_ratio": (None if smallest[1] is None
                                          else ratios[smallest[1]]),
        "n_steps": len(per_step),
    }


def ref_poisson_descent_check(model, dms, test_fns, n_samples, rng, n_group):
    worst = (0.0, None)
    n_pairs = len(test_fns) * (len(test_fns) - 1) // 2
    for s in range(n_samples):
        x = model.sample_cprime(rng)
        base = D._bracket_table(dms, model, test_fns, x)
        for _ in range(n_group):
            g = sample_group(model.group_action.group, rng, scale=1.0)
            gx = model.group_action.act(g, x)
            moved = D._bracket_table(dms, model, test_fns, gx)
            worst = keep(worst, [float(np.max(np.abs(moved - base), initial=0.0))], s)
    return {"max_orbit_variation": worst[0], "worst_sample": worst[1],
            "n_samples": int(n_samples), "n_pairs": n_pairs,
            "n_group": int(n_group)}


# --- injected NaNs ---------------------------------------------------------


def _nan_at_call(fn, j, seen, nan_result):
    """``fn``, except that its call j (from 0) records its arguments in
    ``seen`` and returns ``nan_result(result)``."""
    calls = itertools.count()

    def wrapped(*args):
        result = fn(*args)
        if next(calls) == j:
            seen.append(args)
            return nan_result(result)
        return result

    return wrapped


def _full_system(name):
    pot = CONFIGS[name]["potential"]
    return make_full_system(TwoBodyConfig(
        h=0.1, potential=potential_handle(pot["name"], pot["coeff"])))


# --- the CLI reports -------------------------------------------------------


@pytest.mark.parametrize("name", CONFIGS)
def test_reduce_matches_the_fold(name):
    assert_bit_equal(cli._reduce(CONFIGS[name]), ref_reduce(CONFIGS[name]))


def test_reduce_reports_an_injected_nan(monkeypatch):
    """A NaN reduced Lagrangian at draw 3 and a NaN closed-form r2 at step 5
    are the maxima, reported with the draw's x and the step's start."""
    make_reduced = example_se2.make_reduced_system
    closed_form = example_se2.closed_form_reduced_step
    reports, models, lag_at, step_at = [], [], [], []
    for run in (cli._reduce, ref_reduce):
        def reduced_with_nan(body, rng=None):
            red = make_reduced(body, rng=rng)
            models.append(red.model)
            L = red.system.lagrangian
            value = _nan_at_call(L.eval, 3, lag_at, lambda v: np.full(1, np.nan))
            return dataclasses.replace(red, system=dataclasses.replace(
                red.system, lagrangian=dataclasses.replace(L, eval=value)))

        monkeypatch.setattr(example_se2, "make_reduced_system", reduced_with_nan)
        monkeypatch.setattr(example_se2, "closed_form_reduced_step", _nan_at_call(
            closed_form, 5, step_at,
            lambda out: (out[0], out[1], np.full(2, np.nan))))
        reports.append(run(README))
    got, want = reports
    assert_bit_equal(got, want)
    value, _, x = got["lagrangian_match_max"]
    assert np.isnan(value)
    assert models[0].upsilon(x).tobytes() == lag_at[0][0].tobytes()
    value, _, start = got["closed_form_step_max"]
    assert np.isnan(value)
    assert start.tobytes() == np.concatenate(step_at[0][1:]).tobytes()


@pytest.mark.parametrize("name", CONFIGS)
def test_reconstruct_matches_the_fold(name):
    assert_bit_equal(cli._reconstruct(CONFIGS[name]),
                     ref_reconstruct(CONFIGS[name]))


def test_reconstruct_reports_an_injected_nan(monkeypatch):
    """A NaN residual at step 7 and a NaN rebuilt row 4 are the maxima,
    reported with the reduced row 7 and the full row 4."""
    residual, rebuild, run_simulate = (cli.del_residual, cli.reconstruct_path,
                                       cli.simulate)
    reports, residual_at, trajectories = [], [], []

    def rebuilt_with_nan(*args):
        points = rebuild(*args).points.copy()
        points[4, 2] = np.nan
        return dlps.DiscretePath(points, 4)

    def recorded_simulate(*args, **kwargs):
        trajectories.append(run_simulate(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(cli, "reconstruct_path", rebuilt_with_nan)
    monkeypatch.setattr(cli, "simulate", recorded_simulate)
    for run in (cli._reconstruct, ref_reconstruct):
        monkeypatch.setattr(cli, "del_residual", _nan_at_call(
            residual, 6, residual_at, lambda r: np.full_like(r, np.nan)))
        reports.append(run(README))
    got, want = reports
    assert_bit_equal(got, want)
    value, _, row = got["projected_residual_max"]
    assert np.isnan(value)
    assert row.tobytes() == np.concatenate(residual_at[0][3:]).tobytes()
    value, _, row = got["roundtrip_max"]
    assert np.isnan(value)
    assert row.tobytes() == trajectories[0].points[4].tobytes()


# --- the diagnostics -------------------------------------------------------


@pytest.fixture(scope="module", params=list(CONFIGS))
def full_case(request, full_start):
    sys = _full_system(request.param)
    return sys, simulate(sys, *full_start, 12)


def test_momentum_evolution_check_matches_the_fold(full_case):
    sys, traj = full_case
    assert_bit_equal(D.momentum_evolution_check(sys, t2_two_point_action(), traj),
                     ref_momentum_evolution_check(sys, t2_two_point_action(), traj))


def test_momentum_evolution_check_matches_the_fold_without_jac(full_case):
    """The stencil path: without a ``jac`` the slot gradients are the
    fourth-order differences, and the check still matches the fold."""
    sys, traj = full_case
    stencil = dataclasses.replace(sys, lagrangian=dataclasses.replace(
        sys.lagrangian, jac=None, hess=None))
    short = dlps.DiscretePath(traj.points[:6], 4)
    assert_bit_equal(D.momentum_evolution_check(stencil, t2_two_point_action(), short),
                     ref_momentum_evolution_check(stencil, t2_two_point_action(), short))


def test_reduced_momentum_evolution_check_matches_the_fold(reduced, staged,
                                                           full_start):
    y0 = reduced.model.upsilon(np.concatenate(full_start))
    traj = simulate(reduced.system, y0[:4], y0[4:], 12)
    args = (reduced.system, staged.residual_action, traj)
    assert_bit_equal(D.momentum_evolution_check(*args),
                     ref_momentum_evolution_check(*args))


def test_momentum_evolution_check_reports_an_injected_nan(full_case):
    """A NaN Lagrangian gradient at pair 5 makes momentum 5, the evolution
    identity and the residual at step 5 NaN: each maximum is NaN at 5."""
    sys, traj = full_case
    L, nan_row = sys.lagrangian, traj.points[5].tobytes()
    gradient = lambda x: (np.full(8, np.nan) if x.tobytes() == nan_row
                          else L.jacobian(x))
    broken = dataclasses.replace(sys, lagrangian=dataclasses.replace(L, jac=gradient))
    got = D.momentum_evolution_check(broken, t2_two_point_action(), traj)
    assert_bit_equal(got, ref_momentum_evolution_check(
        broken, t2_two_point_action(), traj))
    for key in ("max_violation", "max_conservation_drift", "max_del_residual"):
        assert np.isnan(got[key]) and got[f"{key}_step"] == 5, key
    assert not got["precondition_ok"]


def test_symplectic_check_matches_the_fold(full_case):
    sys, traj = full_case
    assert_bit_equal(D.symplectic_check(sys, traj), ref_symplectic_check(sys, traj))


def test_symplectic_check_reports_an_injected_nan(full_case, monkeypatch):
    """A NaN step Jacobian K at step 3 makes that step's defect NaN: the
    maximum, with ``worst_step`` 3."""
    sys, traj = full_case
    jacobian, row = D.jacobian_fd, traj.points[3].tobytes()

    def nan_at_step_3(f, x, *args):
        J = jacobian(f, x, *args)
        return np.full_like(J, np.nan) if np.asarray(x).tobytes() == row else J

    monkeypatch.setattr(D, "jacobian_fd", nan_at_step_3)
    got = D.symplectic_check(sys, traj)
    assert_bit_equal(got, ref_symplectic_check(sys, traj))
    assert np.isnan(got["max_violation"]) and got["worst_step"] == 3
    assert np.isnan(got["per_step"][3])


def _poisson_fns():
    return [SmoothMapHandle(6, 1, lambda y, i=i: y[i:i + 1]) for i in (0, 2, 4)]


def test_poisson_descent_check_matches_the_fold(full_case, reduced):
    sys, _ = full_case
    args = (reduced.model, sys, _poisson_fns(), 3)
    assert_bit_equal(
        D.poisson_descent_check(*args, rng=np.random.default_rng(11), n_group=2),
        ref_poisson_descent_check(*args, np.random.default_rng(11), 2))


def test_poisson_descent_check_reports_an_injected_nan(full_system, reduced,
                                                       monkeypatch):
    """A NaN bracket table at the second group element of sample 1 (call
    1 * (1 + 2) + 2) is the maximum, with ``worst_sample`` 1."""
    table, reports = D._bracket_table, []
    args = (reduced.model, full_system, _poisson_fns(), 3)
    for run in (lambda: D.poisson_descent_check(
                    *args, rng=np.random.default_rng(11), n_group=2),
                lambda: ref_poisson_descent_check(
                    *args, np.random.default_rng(11), 2)):
        monkeypatch.setattr(D, "_bracket_table", _nan_at_call(
            table, 5, [], lambda t: np.full_like(t, np.nan)))
        reports.append(run())
    got, want = reports
    assert_bit_equal(got, want)
    assert np.isnan(got["max_orbit_variation"]) and got["worst_sample"] == 1
