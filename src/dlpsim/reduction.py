"""Symmetry reduction of discrete Lagrange-Poincare systems.

Reduction by a symmetry group plus a discrete connection produces a new
system on (a coordinate model of) the conjugate bundle times the reduced
base. The quotient itself is never represented abstractly: every
reduction requires an explicit coordinate model, given by a chart for the
fiber space (E x G)/G and a section choosing orbit representatives, and
the structural identities that make the model consistent are validated
numerically at build time.

The module also provides path projection, reconstruction of full
trajectories from reduced ones, two-stage reduction with the comparison
map against one-shot reduction, and a numeric morphism checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connection import DiscreteConnection, QuotientModel
from .dlps import DiscretePath, DlpsSystem, FiberBundleModel
from .errors import MatchingError, SingularJacobian, ValidationError
from .lie import ActionModel, sample_group, trivial_action, trivial_group
from .smooth import (SmoothMapHandle, as_vector, directional_derivative,
                     identity_map, jacobian_fd)

FiberChart = Callable[[np.ndarray, np.ndarray], np.ndarray]
FiberSection = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

#: Largest defect |g q_from - q_to| a matched group element may leave.
MATCH_TOL = 1e-9
#: Sampled draws of each validation loop in ``build_upsilon``.
VALIDATION_DRAWS = 50
#: Bound on the upsilon orbit-invariance and roundtrip defects.
ROUNDTRIP_TOL = 1e-10
#: Relative singular-value floor of the rank checks in ``check_morphism``.
RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """Coordinate model of the reduced phase space and its bundle maps.

    ``upsilon`` realizes the reduction morphism C'(E) -> C'(reduced);
    ``lift_section`` is a right inverse choosing orbit representatives.
    ``group_action`` is the diagonal action on C'(E) whose orbits are the
    fibers of upsilon (its ``group`` is the symmetry group);
    ``action_m`` is its factor on the base.
    """

    source_bundle: FiberBundleModel
    reduced_bundle: FiberBundleModel
    upsilon: SmoothMapHandle
    lift_section: SmoothMapHandle
    group_action: ActionModel
    action_m: ActionModel
    sample_cprime: Callable[[np.random.Generator], np.ndarray]


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """A reduced system together with the model that produced it."""

    system: DlpsSystem
    model: ReducedModel


def solve_matching(action: ActionModel, q_from, q_to) -> np.ndarray:
    """The group element carrying q_from to q_to under the action.

    Uses the action's closed-form matcher when present, otherwise up to 50
    Gauss-Newton iterations over the group parameters. The result is
    always verified; a defect above ``MATCH_TOL`` raises MatchingError.
    """
    q_from = as_vector(q_from, action.space_dim)
    q_to = as_vector(q_to, action.space_dim)
    G = action.group
    if action.match is not None:
        try:
            g = action.match(q_from, q_to)
        except ZeroDivisionError as exc:
            raise MatchingError(str(exc)) from exc
    elif G.dim == 0:
        g = G.identity
    else:
        theta = np.zeros(G.dim)
        for _ in range(50):
            res = action.act(G.from_params(theta), q_from) - q_to
            if float(np.max(np.abs(res))) <= 0.1 * MATCH_TOL:
                break
            f = SmoothMapHandle(G.dim, action.space_dim,
                                lambda th: action.act(G.from_params(th), q_from) - q_to)
            J = jacobian_fd(f, theta)
            delta, *_ = np.linalg.lstsq(J, -res, rcond=None)
            theta = theta + delta
        g = G.from_params(theta)
    defect = float(np.max(np.abs(action.act(g, q_from) - q_to), initial=0.0))
    if defect > MATCH_TOL:
        raise MatchingError(
            f"no group element maps {q_from} to {q_to} (defect {defect:.3e})")
    return g


def _lift_onto(model: ReducedModel, y, m) -> np.ndarray:
    """The lift of the reduced point y whose fiber point projects to m:
    ``lift_section(y)`` moved by the ``solve_matching`` element."""
    x = model.lift_section(y)
    nE = model.source_bundle.total_dim
    g = solve_matching(model.action_m, model.source_bundle.phi(x[:nE]), m)
    return model.group_action.act(g, x)


def _sample_second_order(sys: DlpsSystem, sample_cprime,
                         rng) -> tuple[np.ndarray, np.ndarray]:
    """Rows x0 = (eps0, phi(eps1)) and x1 = (eps1, m2) of E x M from two
    sampled points, so that x1 may follow x0 on a path."""
    nE, nM = sys.bundle.total_dim, sys.bundle.base_dim
    xa = as_vector(sample_cprime(rng), nE + nM)
    x1 = as_vector(sample_cprime(rng), nE + nM)
    return np.concatenate([xa[:nE], sys.bundle.phi(x1[:nE])]), x1


def _diagonal_cprime_action(action_e: ActionModel, action_m: ActionModel) -> ActionModel:
    ne = action_e.space_dim

    def act(g, x):
        return np.concatenate([action_e.act(g, x[:ne]), action_m.act(g, x[ne:])])

    return ActionModel(group=action_e.group, space_dim=ne + action_m.space_dim, act=act)


def build_upsilon(conn: DiscreteConnection, sys: DlpsSystem,
                  fiber_chart: FiberChart, fiber_section: FiberSection,
                  action_e: ActionModel,
                  sample_cprime: Callable[[np.random.Generator], np.ndarray],
                  rng: np.random.Generator | None = None,
                  ivcm_tol: float = 1e-8) -> ReducedModel:
    """Assemble and validate the reduction morphism for (sys, conn).

    ``fiber_chart(eps, w)`` are invariant coordinates of the class of
    (eps, w) in (E x G)/G and ``fiber_section`` picks a representative,
    with chart o section = id. Both get checked vectors, and their values
    are checked by the handles they feed, so a wrong length surfaces as a
    ValueError from a handle. The returned model's upsilon composes the
    connection form, the quotient projection and the chart; its
    lift_section transports the horizontal lift by the stored group
    offset.

    Validation (two loops of ``VALIDATION_DRAWS`` sampled draws): the
    group is a symmetry of sys (Lagrangian invariance to 1e-10 and
    chaining-map equivariance to ``ivcm_tol``), upsilon o lift_section is
    the identity and upsilon is constant on orbits (both to
    ``ROUNDTRIP_TOL``). Violations raise ValidationError naming the
    identity and the sample.
    """
    rng = rng or np.random.default_rng(20240817)
    quotient = conn.quotient
    action_m = quotient.action
    G = action_m.group
    nE, nM = sys.bundle.total_dim, sys.bundle.base_dim
    nEr, nMr = nE, quotient.base_dim

    def upsilon_eval(x):
        eps, m = x[:nE], x[nE:]
        w = conn.ad_form(sys.bundle.phi(eps), m)
        return np.concatenate([fiber_chart(eps, w), quotient.project(m)])

    def lift_eval(y):
        v, r = y[:nEr], y[nEr:]
        eps, w = fiber_section(v)
        base = conn.hor_lift(sys.bundle.phi(eps), r)
        return np.concatenate([eps, action_m.act(w, base)])

    upsilon = SmoothMapHandle(nE + nM, nEr + nMr, upsilon_eval)
    lift_section = SmoothMapHandle(nEr + nMr, nE + nM, lift_eval)

    def reduced_phi_eval(v):
        eps, _w = fiber_section(v)
        return quotient.project(sys.bundle.phi(eps))

    def reduced_section_eval(r):
        eps = sys.bundle.section(quotient.section(r))
        return fiber_chart(eps, G.identity)

    reduced_bundle = FiberBundleModel(
        total_dim=nEr, base_dim=nMr,
        phi=SmoothMapHandle(nEr, nMr, reduced_phi_eval),
        section=SmoothMapHandle(nMr, nEr, reduced_section_eval))

    group_action = _diagonal_cprime_action(action_e, action_m)
    model = ReducedModel(source_bundle=sys.bundle,
                         reduced_bundle=reduced_bundle, upsilon=upsilon,
                         lift_section=lift_section, group_action=group_action,
                         action_m=action_m, sample_cprime=sample_cprime)

    # -- sampled validation ------------------------------------------------
    for _ in range(VALIDATION_DRAWS):
        x = as_vector(sample_cprime(rng), nE + nM)
        g = sample_group(G, rng)
        gx = group_action.act(g, x)
        dL = abs(sys.lag(gx) - sys.lag(x))
        if dL > 1e-10:
            raise ValidationError("lagrangian G-invariance", sample=x, violation=dL)
        dU = float(np.max(np.abs(upsilon(gx) - upsilon(x))))
        if dU > ROUNDTRIP_TOL:
            raise ValidationError("upsilon orbit invariance", sample=x, violation=dU)
        y = upsilon(x)
        dR = float(np.max(np.abs(upsilon(lift_section(y)) - y)))
        if dR > ROUNDTRIP_TOL:
            raise ValidationError("upsilon o lift_section = id", sample=y, violation=dR)

    for _ in range(VALIDATION_DRAWS):
        x0, x1 = _sample_second_order(sys, sample_cprime, rng)
        g = sample_group(G, rng)
        delta = rng.standard_normal(nE)
        out = sys.ivcm(x0, x1, delta)
        pushed = directional_derivative(lambda q: action_e.act(g, q), x0[:nE], out)
        g_delta = directional_derivative(lambda q: action_e.act(g, q), x1[:nE], delta)
        out_g = sys.ivcm(group_action.act(g, x0), group_action.act(g, x1), g_delta)
        dI = float(np.max(np.abs(out_g - pushed), initial=0.0))
        if dI > ivcm_tol:
            raise ValidationError("chaining-map G-equivariance", sample=x0, violation=dI)

    return model


def _solve_isomorphism(J: np.ndarray) -> np.ndarray:
    """Invert the fiber-slot block; a non-square or singular one raises."""
    n = J.shape[0]
    if J.shape[0] != J.shape[1]:
        raise SingularJacobian(
            f"fiber-slot derivative block is not square: {J.shape}")
    try:
        return np.linalg.solve(J, np.eye(n))
    except np.linalg.LinAlgError:
        raise SingularJacobian("fiber-slot derivative block is singular") from None


def reduce(sys: DlpsSystem, model: ReducedModel) -> ReductionResult:
    """The reduced system determined by a validated model.

    The reduced Lagrangian is the original one through the lift section,
    ``L o lift_section``. When both ``L`` and ``lift_section`` carry a
    ``jac``, its gradient is the chain rule
    ``L.jacobian(lift(y)) @ lift.jacobian(y)``; otherwise it has no
    ``jac`` and D1/D2 take the stencil. The reduced chaining map lifts a
    reduced second-order point to a compatible pair upstairs, converts
    the reduced tangent through the fiber-slot derivative isomorphism (a
    small dense solve), pushes it through the original chaining map and
    the bundle projection, and maps both pieces back down with the two
    partial derivatives of the fiber part of upsilon, read off
    ``upsilon.jacobian`` (closed form when upsilon has a ``jac``).
    """
    nE = sys.bundle.total_dim
    nEr = model.reduced_bundle.total_dim
    L, lift, upsilon = sys.lagrangian, model.lift_section, model.upsilon

    lagrangian_jac = None
    if L.jac is not None and lift.jac is not None:
        def lagrangian_jac(y):
            return L.jacobian(lift(y)) @ lift.jacobian(y)

    lagrangian = SmoothMapHandle(nEr + model.reduced_bundle.base_dim, 1,
                                 lambda y: L(lift(y)), jac=lagrangian_jac)

    def reduced_ivcm_matrix(y0, y1) -> np.ndarray:
        # Lift y0 over the base point carried by v1 = y1[:nEr] itself: on
        # the second-order compatibility set this equals y0's base point,
        # and off it (solver iterates between constraint projections) it
        # is the smooth extension that keeps the matching equation solvable.
        x0 = lift(np.concatenate([y0[:nEr], model.reduced_bundle.phi(y1[:nEr])]))
        x1 = _lift_onto(model, y1, x0[nE:])

        Jinv = _solve_isomorphism(upsilon.jacobian(x1)[:nEr, :nE])
        K = upsilon.jacobian(x0)[:nEr]
        jphi1 = sys.bundle.phi.jacobian(x1[:nE])
        inner = sys.ivcm_matrix(x0, x1)
        return (K[:, :nE] @ inner + K[:, nE:] @ jphi1) @ Jinv

    def reduced_ivcm(y0, y1, delta_v1) -> np.ndarray:
        return reduced_ivcm_matrix(y0, y1) @ as_vector(delta_v1, nEr)

    reduced_sys = DlpsSystem(bundle=model.reduced_bundle, lagrangian=lagrangian,
                             ivcm=reduced_ivcm, ivcm_matrix=reduced_ivcm_matrix)
    return ReductionResult(system=reduced_sys, model=model)


def trivial_reduction(sys: DlpsSystem,
                      sample_cprime: Callable[[np.random.Generator], np.ndarray],
                      rng: np.random.Generator | None = None) -> ReductionResult:
    """Reduction by the one-element group: the identity model.

    Exercises the generic machinery end to end; the reduced system's
    dynamics coincide with the input's.
    """
    nE, nM = sys.bundle.total_dim, sys.bundle.base_dim
    quotient = QuotientModel(total_dim=nM, base_dim=nM,
                             project=identity_map(nM), section=identity_map(nM),
                             action=trivial_action(nM))
    G = trivial_group()
    conn = DiscreteConnection(
        quotient=quotient,
        ad_form=lambda q0, q1: G.identity,
        hor_lift=lambda q0, r1: r1)
    model = build_upsilon(conn, sys,
                          fiber_chart=lambda eps, w: eps.copy(),
                          fiber_section=lambda v: (v, G.identity),
                          action_e=trivial_action(nE),
                          sample_cprime=sample_cprime, rng=rng)
    return reduce(sys, model)


def project_path(model: ReducedModel, path: DiscretePath) -> DiscretePath:
    """Pointwise image of a path under the reduction morphism."""
    return DiscretePath(np.array([model.upsilon(x) for x in path.points]),
                        model.reduced_bundle.total_dim)


def reconstruct_path(model: ReducedModel, reduced_path: DiscretePath,
                     eps0, m1) -> DiscretePath:
    """The unique lift of a reduced path through a given starting point.

    The starting point must project onto the first reduced pair to
    within 1e-9 (else ValueError). Each step lifts the next reduced pair
    by the section, then acts by the unique group element matching the
    base condition (the new fiber point must project onto the previous
    base point). Inconsistent input surfaces as MatchingError.
    """
    nE = model.source_bundle.total_dim
    x = np.concatenate([as_vector(eps0, nE),
                        as_vector(m1, model.source_bundle.base_dim)])
    start_defect = float(np.max(np.abs(model.upsilon(x) - reduced_path.points[0])))
    if start_defect > 1e-9:
        raise ValueError(
            f"starting point does not project onto the reduced path "
            f"(defect {start_defect:.3e})")
    rows = [x]
    for y in reduced_path.points[1:]:
        rows.append(_lift_onto(model, y, rows[-1][nE:]))
    return DiscretePath(np.array(rows), nE)


def two_stage(sys: DlpsSystem, stage_h: ReductionResult,
              stage_gh: ReductionResult, one_shot: ReductionResult,
              trajectory: DiscretePath,
              conn_h: DiscreteConnection | None = None,
              full_group_action: ActionModel | None = None,
              conjugate_in_full: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
              rng: np.random.Generator | None = None,
              n_checks: int = 100) -> tuple[dict, Callable]:
    """Compare two-stage reduction with one-shot reduction on a trajectory.

    Returns a report and the comparison map F, realized as lift through
    both stage sections followed by the one-shot morphism. When the
    first-stage connection, the full group action and the conjugation in
    the full group are supplied, the conjugation-equivariance condition
    that makes the second stage possible is validated first on
    ``n_checks`` samples (a worst sample above 1e-10 raises
    ValidationError). Supplying some but not all three raises ValueError.
    """
    given = [c is not None for c in (conn_h, full_group_action, conjugate_in_full)]
    if any(given) and not all(given):
        raise ValueError("conn_h, full_group_action and conjugate_in_full "
                         "must be given together or not at all")
    rng = rng or np.random.default_rng(11235)
    report: dict = {}

    if conn_h is not None:
        worst, worst_sample = 0.0, None
        quotient = conn_h.quotient
        for _ in range(n_checks):
            q0 = quotient.sample(rng)
            q1 = quotient.sample(rng)
            g = sample_group(full_group_action.group, rng)
            lhs = conn_h.ad_form(full_group_action.act(g, q0),
                                 full_group_action.act(g, q1))
            rhs = conjugate_in_full(g, conn_h.ad_form(q0, q1))
            v = float(np.max(np.abs(lhs - rhs), initial=0.0))
            if v > worst:
                worst, worst_sample = v, (q0, q1)
        report["conjugation_equivariance_max"] = worst
        if worst > 1e-10:
            raise ValidationError("subgroup connection conjugation-equivariance",
                                  sample=worst_sample, violation=worst)

    def F(y):
        x_h = stage_gh.model.lift_section(y)
        x = stage_h.model.lift_section(x_h)
        return one_shot.model.upsilon(x)

    worst = 0.0
    per_step = []
    for x in trajectory.points:
        y_h = stage_h.model.upsilon(x)
        y_gh = stage_gh.model.upsilon(y_h)
        y_g = one_shot.model.upsilon(x)
        d = float(np.max(np.abs(F(y_gh) - y_g)))
        per_step.append(d)
        worst = max(worst, d)
    report["stage_comparison_max"] = worst
    report["per_step"] = per_step
    return report, F


def check_morphism(candidate: SmoothMapHandle, sys: DlpsSystem,
                   sys_target: DlpsSystem,
                   sample_cprime: Callable[[np.random.Generator], np.ndarray],
                   n_samples: int = 50,
                   rng: np.random.Generator | None = None) -> dict:
    """Numeric point checks of the morphism conditions between systems.

    Reports per-condition maxima over samples; never raises. The global
    surjectivity/submersion condition is reported as a rank check only.
    The chaining condition is tested on 3 random tangents per sample.
    """
    rng = rng or np.random.default_rng(97)
    nE, nM = sys.bundle.total_dim, sys.bundle.base_dim
    nEr = sys_target.bundle.total_dim
    nMr = sys_target.bundle.base_dim
    if candidate.in_dim != nE + nM or candidate.out_dim != nEr + nMr:
        raise ValueError("candidate dimensions are incompatible with the systems")

    full_rank_ok = True
    cond2_rank_ok = True
    cond2_min_sv = np.inf
    cond3 = cond4 = cond5 = cond6 = 0.0
    for _ in range(n_samples):
        x0, x1 = _sample_second_order(sys, sample_cprime, rng)
        J0 = jacobian_fd(candidate, x0)
        sv_full = np.linalg.svd(J0, compute_uv=False)
        if sv_full[min(J0.shape) - 1] <= RANK_TOL * sv_full[0]:
            full_rank_ok = False

        D1p1 = J0[:nEr, :nE]
        sv = np.linalg.svd(D1p1, compute_uv=False)
        cond2_min_sv = min(cond2_min_sv, float(sv[-1]))
        if np.sum(sv > RANK_TOL * max(sv[0], 1.0)) < nEr:
            cond2_rank_ok = False

        cond3 = max(cond3, float(np.max(np.abs(J0[nEr:, :nE]))))

        y0 = candidate(x0)
        y1 = candidate(x1)
        base_defect = y0[nEr:] - sys_target.bundle.phi(y1[:nEr])
        cond4 = max(cond4, float(np.max(np.abs(base_defect))))

        cond5 = max(cond5, abs(sys.lag(x0) - sys_target.lag(y0)))

        J1 = jacobian_fd(candidate, x1)
        D1p1_at_x1 = J1[:nEr, :nE]
        D2p1_at_x0 = J0[:nEr, nE:]
        jphi1 = sys.bundle.phi.jacobian(x1[:nE])
        inner = sys.ivcm_matrix(x0, x1)
        ivcm_target = sys_target.ivcm_matrix(y0, y1)
        for _ in range(3):
            delta = rng.standard_normal(nE)
            lhs = ivcm_target @ (D1p1_at_x1 @ delta)
            rhs = D1p1 @ (inner @ delta) + D2p1_at_x0 @ (jphi1 @ delta)
            cond6 = max(cond6, float(np.max(np.abs(lhs - rhs), initial=0.0)))

    return {
        "cond1_submersion_rank_ok": bool(full_rank_ok),
        "cond1_note": "rank check only",
        "cond2_fiber_slot_rank_ok": bool(cond2_rank_ok),
        "cond2_min_singular_value": float(cond2_min_sv),
        "cond3_base_independence_max": cond3,
        "cond4_base_compatibility_max": cond4,
        "cond5_lagrangian_match_max": cond5,
        "cond6_chaining_intertwine_max": cond6,
        "n_samples": int(n_samples),
    }
