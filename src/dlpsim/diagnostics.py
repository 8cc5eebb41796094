"""Structure-preservation diagnostics.

Discrete momentum maps and their evolution identity, symplecticity of
``dlps.step`` on a regular discrete mechanical system (the step preserves
the discrete Lagrangian two-form in pair coordinates), and the
orbit-invariance form of Poisson descent. Everything here reports; only
regularity failures and a failing step raise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# d2_lagrangian and del_residual are unused here, but the benchmark tracer
# patches them in this module.
from .dlps import (DiscretePath, DlpsSystem, _del_from_gradients,
                   _slot_gradients, d1_lagrangian, d2_lagrangian, del_residual,
                   step)
from .errors import RegularityError, draw_maxima, worst_draw
from .lie import ActionModel, orbit_frame, sample_group
from .reduction import ReducedModel
from .smooth import SmoothMapHandle, as_vector, jacobian_fd


def momentum(sys: DlpsSystem, action: ActionModel, eps0, m1) -> np.ndarray:
    """Minus the fiber-slot Lagrangian gradient paired with the generators:
    component i is the momentum paired with the i-th Lie-algebra basis
    element."""
    eps0 = as_vector(eps0, sys.bundle.total_dim)
    m1 = as_vector(m1, sys.bundle.base_dim)
    return -(d1_lagrangian(sys, eps0, m1) @ orbit_frame(action, eps0))


def momentum_evolution_check(sys: DlpsSystem, action: ActionModel,
                             trajectory: DiscretePath) -> dict:
    """Check the per-step momentum evolution identity along a trajectory.

    The momentum at step k must equal the momentum at step k-1 plus the
    chaining correction (the previous fiber-slot gradient through the
    chaining map, evaluated on the generator). Also reports the raw
    conservation drift, which vanishes whenever the chaining correction
    does. A path that is not a trajectory (a discrete Euler-Lagrange
    residual above 1e-6) is flagged by ``precondition_ok``, not rejected.
    Each maximum ``<key>`` comes with ``<key>_step``, the pair index k of
    its worst step (the first NaN, else the first largest; None while 0).

    The slot gradients of each pair are taken once (one ``jac`` call when
    the Lagrangian has one), and so is the chaining matrix of each step:
    both feed the DEL residuals and the momentum identity.
    """
    points = trajectory.points
    slot_grads = [_slot_gradients(sys, x) for x in points]
    chaining = [sys.ivcm_matrix(points[k - 1], points[k])
                for k in range(1, len(points))]
    residuals = [_del_from_gradients(sys, points[k - 1], slot_grads[k - 1])(
                     points[k], slot_grads[k][0], chaining[k - 1])
                 for k in range(1, len(points))]
    max_residual, residual_step = _worst_step(residuals)

    grads = [g1 for g1, _ in slot_grads]
    frames = [orbit_frame(action, eps) for eps, _ in trajectory.pairs]
    momenta = [-(g1 @ frame) for g1, frame in zip(grads, frames)]
    violations, drifts = [], []
    for k in range(1, len(points)):
        correction = grads[k - 1] @ (chaining[k - 1] @ frames[k])
        violations.append(momenta[k] - momenta[k - 1] - correction)
        drifts.append(momenta[k] - momenta[0])
    max_violation, violation_step = _worst_step(violations)
    max_drift, drift_step = _worst_step(drifts)
    return {
        "max_violation": max_violation,
        "max_violation_step": violation_step,
        "max_conservation_drift": max_drift,
        "max_conservation_drift_step": drift_step,
        "precondition_ok": bool(max_residual <= 1e-6),
        "max_del_residual": max_residual,
        "max_del_residual_step": residual_step,
        "momenta": [m.tolist() for m in momenta],
    }


def _worst_step(diffs) -> tuple[float, int | None]:
    """The worst of per-step differences for steps 1, 2, ... and its step."""
    worst, i = worst_draw(draw_maxima(diffs))
    return worst, None if i is None else i + 1


def _require_dms(sys: DlpsSystem) -> int:
    if sys.bundle.total_dim != sys.bundle.base_dim:
        raise ValueError("this diagnostic needs a DMS (identity bundle)")
    return sys.bundle.total_dim


def _mixed_partial(sys: DlpsSystem, q0, q1) -> np.ndarray:
    """d^2 L_d / dq0 dq1 by differencing the fiber-slot gradient."""
    return jacobian_fd(lambda q: d1_lagrangian(sys, q0, q), q1)


def _check_regularity(D12: np.ndarray) -> float:
    """Smallest singular value of the mixed-partial block, scale-guarded.

    The reference scale is max(sigma_max, 1): a block sitting at the FD
    noise floor is singular for every practical purpose even though its
    singular values are mutually balanced. Raises RegularityError at 1e-8,
    and on a block with a non-finite entry, which has no singular values.
    """
    if not np.isfinite(D12).all():
        raise RegularityError("mixed-partial block is not finite")
    sv = np.linalg.svd(D12, compute_uv=False)
    scale = max(float(sv[0]), 1.0)
    if sv[-1] <= 1e-8 * scale:
        raise RegularityError(
            f"mixed-partial block nearly singular "
            f"(sigma_min/scale {sv[-1] / scale:.3e})")
    return float(sv[-1] / scale)


def _two_form(D12: np.ndarray) -> np.ndarray:
    """The discrete Lagrangian two-form D12 L_d dq0 ^ dq1 in pair
    coordinates: ``[[0, D12], [-D12^T, 0]]``."""
    zero = np.zeros_like(D12)
    return np.block([[zero, D12], [-D12.T, zero]])


def symplectic_check(dms: DlpsSystem, trajectory: DiscretePath) -> dict:
    """Per-step symplecticity defect of ``dlps.step`` in pair coordinates.

    For each row x = (q_k, q_{k+1}) but the last, the step's Jacobian K at
    x is formed by central differences of x -> concat(step(x)), and the
    defect is max |K^T W(F(x)) K - W(x)|, W being the discrete Lagrangian
    two-form (see ``_two_form``) and F(x) the stepped row. The report
    gives the per-step defects, their maximum and its ``worst_step`` (the
    first NaN, else the first largest; None while every defect is 0).
    The mixed-partial block of every stepped row is checked before any
    step, and that of each F(x) before it is used: RegularityError when
    one degenerates or has a non-finite entry. A failing step raises its
    own exception. The smallest sigma ratio (rows 0..N-2) keeps a NaN.
    """
    n = _require_dms(dms)
    rows = trajectory.points[:-1]
    blocks = [_mixed_partial(dms, x[:n], x[n:]) for x in rows]
    ratios = [_check_regularity(D12) for D12 in blocks]

    def flow(x):
        return np.concatenate(step(dms, x[:n], x[n:]))

    defects = []
    for x, D12 in zip(rows, blocks):
        y = flow(x)
        D12_next = _mixed_partial(dms, y[:n], y[n:])
        _check_regularity(D12_next)
        K = jacobian_fd(flow, x)
        defects.append(K.T @ _two_form(D12_next) @ K - _two_form(D12))
    per_step = draw_maxima(defects)
    worst, worst_step = worst_draw(per_step)
    _, i = worst_draw(-np.array(ratios), -np.inf)  # the smallest
    return {
        "max_violation": worst,
        "worst_step": worst_step,
        "per_step": per_step.tolist(),
        "min_mixed_partial_sigma_ratio": None if i is None else ratios[i],
        "n_steps": len(per_step),
    }


def _pair_space_gradient(model: ReducedModel, fn: SmoothMapHandle, x) -> np.ndarray:
    """FD gradient over pair coordinates of a reduced function's pullback."""
    return jacobian_fd(lambda y: fn(model.upsilon(y)), x)[0]


def _bracket_table(sys: DlpsSystem, model: ReducedModel,
                   test_fns: Sequence[SmoothMapHandle], x) -> np.ndarray:
    """All pairwise brackets of pulled-back functions at one point.

    Uses the inverse of the discrete Lagrangian two-form in pair
    coordinates, whose only block is the FD mixed partial:

        {F, G} = -F_q0^T D12^{-T} G_q1 + F_q1^T D12^{-1} G_q0.
    """
    n = _require_dms(sys)
    x = as_vector(x, 2 * n)
    D12 = _mixed_partial(sys, x[:n], x[n:])
    _check_regularity(D12)
    grads = [_pair_space_gradient(model, fn, x) for fn in test_fns]
    k = len(grads)
    table = np.zeros((k, k))
    for j in range(k):
        a = np.linalg.solve(D12.T, grads[j][n:])
        b = np.linalg.solve(D12, grads[j][:n])
        for i in range(k):
            if i != j:
                table[i, j] = float(-grads[i][:n] @ a + grads[i][n:] @ b)
    return table


def bracket_of_pullbacks(sys: DlpsSystem, model: ReducedModel,
                         f1: SmoothMapHandle, f2: SmoothMapHandle,
                         x) -> float:
    """Poisson bracket of two pulled-back reduced functions.

    Computed from the inverse of the discrete Lagrangian two-form in pair
    coordinates (mixed partials and gradients by FD); agrees with the
    canonical bracket in the Legendre chart.
    """
    return float(_bracket_table(sys, model, [f1, f2], as_vector(x))[0, 1])


def poisson_descent_check(model: ReducedModel, dms: DlpsSystem,
                          test_fns: Sequence[SmoothMapHandle],
                          n_samples: int,
                          rng: np.random.Generator | None = None,
                          n_group: int = 5) -> dict:
    """Orbit-invariance of the bracket of pulled-back reduced functions.

    The reduced bracket is defined by pushing the bracket of pullbacks
    through the quotient; the computable content is that the bracket of
    pullbacks is constant on group orbits. Reports the max variation over
    samples and ``n_group`` group elements each (parameters drawn from
    [-1, 1]), for every function pair, and the index of the sample
    attaining it as ``worst_sample`` (the first NaN, else the first
    largest; None while every variation is 0). ``n_samples`` or
    ``n_group`` below 1 is a ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1 (got {n_samples})")
    if n_group < 1:
        raise ValueError(f"n_group must be at least 1 (got {n_group})")
    rng = rng or np.random.default_rng(5)
    n_pairs = len(test_fns) * (len(test_fns) - 1) // 2
    variations = []
    for _ in range(n_samples):
        x = model.sample_cprime(rng)
        base = _bracket_table(dms, model, test_fns, x)
        moved = []
        for _ in range(n_group):
            g = sample_group(model.group_action.group, rng, scale=1.0)
            gx = model.group_action.act(g, x)
            moved.append(_bracket_table(dms, model, test_fns, gx) - base)
        variations.append(moved)
    worst, i = worst_draw(draw_maxima(variations))
    return {"max_orbit_variation": worst, "worst_sample": i,
            "n_samples": int(n_samples), "n_pairs": n_pairs,
            "n_group": int(n_group)}
