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
map against one-shot reduction, and numeric morphism and symmetry checkers.
The concrete models, by T2, by U(1) after T2 and by SE(2) at once, are
built in ``example_se2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .connection import DiscreteConnection
from .dlps import DiscretePath, DlpsSystem, FiberBundleModel
from .errors import (MatchingError, SingularJacobian, ValidationError,
                     draw_maxima, worst_draw)
from .lie import ActionModel, sample_group
from .smooth import (SmoothMapHandle, as_vector, directional_derivative,
                     jacobian_fd)

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
#: Bounds ``build_upsilon`` puts on the ``check_symmetry`` conditions, in the
#: order it tests them.
SYMMETRY_TOLS = {"action identity axiom": 1e-12, "action compatibility axiom": 1e-12,
                 "bundle-map G-equivariance": 1e-10, "lagrangian G-invariance": 1e-10,
                 "chaining-map G-equivariance": 1e-8}


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
    Gauss-Newton iterations over the group parameters (a non-finite
    residual ends them early). A zero-dimensional group takes the same
    solve, whose empty steps leave the identity, and the defect check
    decides. A non-finite entry in ``q_from`` or ``q_to`` raises
    MatchingError before any solve. The result is always verified; a
    defect above ``MATCH_TOL``, or a NaN defect, raises MatchingError.
    """
    q_from = as_vector(q_from, action.space_dim)
    q_to = as_vector(q_to, action.space_dim)
    if not (np.isfinite(q_from).all() and np.isfinite(q_to).all()):
        raise MatchingError(f"cannot match non-finite points {q_from} and {q_to}")
    G = action.group
    if action.match is not None:
        try:
            g = action.match(q_from, q_to)
        except ZeroDivisionError as exc:
            raise MatchingError(str(exc)) from exc
    else:
        theta = np.zeros(G.dim)
        for _ in range(50):
            res = action.act(G.from_params(theta), q_from) - q_to
            # Converged, or NaN or infinite: the defect check decides.
            if not 0.1 * MATCH_TOL < float(np.max(np.abs(res))) < np.inf:
                break
            f = SmoothMapHandle(G.dim, action.space_dim,
                                lambda th: action.act(G.from_params(th), q_from) - q_to)
            J = jacobian_fd(f, theta)
            delta, *_ = np.linalg.lstsq(J, -res, rcond=None)
            theta = theta + delta
        g = G.from_params(theta)
    defect = float(np.max(np.abs(action.act(g, q_from) - q_to), initial=0.0))
    if not defect <= MATCH_TOL:
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


def check_symmetry(sys: DlpsSystem, action_e: ActionModel, action_m: ActionModel,
                   sample_cprime: Callable[[np.random.Generator], np.ndarray],
                   n_samples: int = 50,
                   rng: np.random.Generator | None = None) -> dict:
    """Numeric point checks that G, acting on E by ``action_e`` and on M by
    ``action_m``, is a symmetry of sys.

    Each draw takes a second-order pair x0 = (eps0, phi(eps1)),
    x1 = (eps1, m2), a group element g and a tangent delta at eps1, and
    tests, for the diagonal action on E x M, the conditions (the keys of
    ``SYMMETRY_TOLS``, in its order):

    - "action identity axiom": e x0 = x0;
    - "action compatibility axiom": g' (g x0) = (g' g) x0, with g' the
      previous draw's element (the identity on the first draw);
    - "bundle-map G-equivariance": phi(g eps1) = g phi(eps1);
    - "lagrangian G-invariance": L(g x0) = L(x0);
    - "chaining-map G-equivariance": ``Cg @ push(x1, delta)`` equals
      ``push(x0, C0 @ delta)``, with C0 and Cg the chaining matrices
      ``sys.ivcm_matrix`` gives at (x0, x1) and at (g x0, g x1) and push
      the push-forward by g, a central difference. A term whose matrix is
      zero is the zero vector, which is what the difference gives there,
      so it takes no push-forward: a DMS (``dlps.from_dms``) takes none
      per draw. A NaN entry counts as nonzero, so a NaN matrix reads NaN.

    Returns ``{condition: (maximum, x0 of the draw attaining it)}`` (the
    sample is None while every violation is 0; a NaN violation is the
    maximum); never raises on a violation (``n_samples`` below 1 is a
    ValueError). The draws are evaluated one by one and judged in bulk
    afterwards; the worst draw is the first NaN, else the first largest.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1 (got {n_samples})")
    rng = rng or np.random.default_rng(31)
    G, nE = action_e.group, sys.bundle.total_dim
    act = _diagonal_cprime_action(action_e, action_m).act
    zero = np.zeros(nE)
    x0s, draws = [], []
    g_prev = G.identity
    for _ in range(n_samples):
        x0, x1 = _sample_second_order(sys, sample_cprime, rng)
        g = sample_group(G, rng)
        delta = rng.standard_normal(nE)
        gx0, gx1 = act(g, x0), act(g, x1)
        push = partial(directional_derivative, partial(action_e.act, g))
        C0, Cg = sys.ivcm_matrix(x0, x1), sys.ivcm_matrix(gx0, gx1)
        pushed = push(x0[:nE], C0 @ delta) if C0.any() else zero
        chained = Cg @ push(x1[:nE], delta) if Cg.any() else zero
        x0s.append(x0)
        draws.append((act(G.identity, x0) - x0,
                      act(g_prev, gx0) - act(G.compose(g_prev, g), x0),
                      sys.bundle.phi(gx1[:nE]) - gx0[nE:],
                      sys.lag(gx0) - sys.lag(x0),
                      chained - pushed))
        g_prev = g
    report = {}
    for k, name in enumerate(SYMMETRY_TOLS):
        worst, i = worst_draw(draw_maxima([d[k] for d in draws]))
        report[name] = (worst, None if i is None else x0s[i])
    return report


def build_upsilon(conn: DiscreteConnection, sys: DlpsSystem,
                  fiber_chart: FiberChart, fiber_section: FiberSection,
                  action_e: ActionModel,
                  sample_cprime: Callable[[np.random.Generator], np.ndarray],
                  rng: np.random.Generator | None = None) -> ReducedModel:
    """Assemble and validate the reduction morphism for (sys, conn).

    ``fiber_chart(eps, w)`` are invariant coordinates of the class of
    (eps, w) in (E x G)/G and ``fiber_section`` picks a representative,
    with chart o section = id. Both get checked vectors, and their values
    are checked by the handles they feed, so a wrong length surfaces as a
    ValueError from a handle. The returned model's upsilon composes the
    connection form, the quotient projection and the chart; its
    lift_section transports the horizontal lift by the stored group
    offset.

    Validation (``VALIDATION_DRAWS`` draws each): upsilon is constant on
    orbits and upsilon o lift_section is the identity (both to
    ``ROUNDTRIP_TOL``), then ``check_symmetry`` within ``SYMMETRY_TOLS``.
    The draws of each identity are evaluated one by one and judged in
    bulk, the roundtrip only once orbit invariance holds. A violation, NaN
    included, raises ValidationError naming the identity and the sample
    of its worst draw (the first NaN, else the first largest defect).
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
        phi=SmoothMapHandle(nEr, nMr, reduced_phi_eval),
        section=SmoothMapHandle(nMr, nEr, reduced_section_eval))

    group_action = _diagonal_cprime_action(action_e, action_m)
    model = ReducedModel(source_bundle=sys.bundle,
                         reduced_bundle=reduced_bundle, upsilon=upsilon,
                         lift_section=lift_section, group_action=group_action,
                         action_m=action_m, sample_cprime=sample_cprime)

    # -- sampled validation ------------------------------------------------
    xs, ys, moved = [], [], []
    for _ in range(VALIDATION_DRAWS):
        x = as_vector(sample_cprime(rng), nE + nM)
        g = sample_group(G, rng)
        xs.append(x)
        ys.append(upsilon(x))
        moved.append(upsilon(group_action.act(g, x)))

    def judge(identity, samples, images):
        worst, i = worst_draw(draw_maxima(np.array(images) - np.array(ys)))
        if not worst <= ROUNDTRIP_TOL:
            raise ValidationError(identity, sample=samples[i], violation=worst)

    judge("upsilon orbit invariance", xs, moved)
    # lift_section reads upsilon's values, so only once they passed.
    judge("upsilon o lift_section = id", ys, [upsilon(lift_section(y)) for y in ys])

    report = check_symmetry(sys, action_e, action_m, sample_cprime, VALIDATION_DRAWS, rng)
    for name, (worst, sample) in report.items():
        if not worst <= SYMMETRY_TOLS[name]:
            raise ValidationError(name, sample=sample, violation=worst)
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

    The reduced Lagrangian is ``L o lift_section``, with the chain-rule
    gradient ``L.jacobian(lift(y)) @ lift.jacobian(y)`` when ``L`` and
    ``lift_section`` both carry a ``jac`` (else none, and D1/D2 take the
    stencil). The generic chaining map lifts a reduced second-order point
    to a compatible pair upstairs, converts the reduced tangent through
    the fiber-slot derivative isomorphism (a small dense solve), pushes it
    through the original chaining map and the bundle projection, and maps
    both pieces back down with the partial derivatives of upsilon.

    An affine reduction of a DMS has a constant chaining matrix and an
    exact step, and steps on its matrices: when the source bundle is
    square (its chaining map is zero) and its ``phi``, ``upsilon``,
    ``lift_section`` and the reduced ``phi`` carry ``jac`` arrays, the
    chaining matrix is one read-only C computed from them, the lift is
    evaluated as ``c + T y`` and the reduced system's bundle map as
    ``p + P v`` (T and P the ``lift_section`` and reduced ``phi`` arrays,
    c and p their values at 0, read once here), and a ``hess`` on ``L``
    gives the reduced Lagrangian ``T^T hess(c + T y) T``, from which
    ``dlps.step`` builds its Newton Jacobian; an array ``hess`` H gives
    the array ``T^T H T``, formed once here. The model keeps its own
    maps. Every other reduced Lagrangian has no ``hess``.
    """
    nE = sys.bundle.total_dim
    bundle = model.reduced_bundle
    nEr, nMr = bundle.total_dim, bundle.base_dim
    L, lift, upsilon = sys.lagrangian, model.lift_section, model.upsilon

    lifted, lift_jacobian = lift, lift.jacobian
    C = hess = None
    if nE == sys.bundle.base_dim and all(isinstance(f.jac, np.ndarray) for f in (
            sys.bundle.phi, upsilon, lift, bundle.phi)):
        K = upsilon.jac[:nEr]
        C = (K[:, nE:] @ sys.bundle.phi.jac) @ _solve_isomorphism(K[:, :nE])
        C.flags.writeable = False
        T, c = lift.jac, lift(np.zeros(lift.in_dim))
        P, p = bundle.phi.jac, bundle.phi(np.zeros(nEr))

        def lifted(y):
            return c + T @ y

        def lift_jacobian(y):
            return T

        bundle = FiberBundleModel(
            section=bundle.section,
            phi=SmoothMapHandle(nEr, nMr, lambda v: p + P @ v, jac=P))
        if isinstance(L.hess, np.ndarray):
            hess = T.T @ L.hess @ T
        elif L.hess is not None:
            def hess(y):
                return T.T @ L.hessian(lifted(y)) @ T

    lagrangian_jac = None
    if L.jac is not None and lift.jac is not None:
        def lagrangian_jac(y):
            return L.jacobian(lifted(y)) @ lift_jacobian(y)

    lagrangian = SmoothMapHandle(nEr + nMr, 1, lambda y: L(lifted(y)),
                                 jac=lagrangian_jac, hess=hess)

    def reduced_ivcm_matrix(y0, y1) -> np.ndarray:
        # Lift y0 over the base point carried by v1 = y1[:nEr] itself: on
        # the second-order compatibility set this equals y0's base point,
        # and off it (solver iterates between constraint projections) it
        # is the smooth extension that keeps the matching equation solvable.
        x0 = lift(np.concatenate([y0[:nEr], bundle.phi(y1[:nEr])]))
        x1 = _lift_onto(model, y1, x0[nE:])

        Jinv = _solve_isomorphism(upsilon.jacobian(x1)[:nEr, :nE])
        K = upsilon.jacobian(x0)[:nEr]
        jphi1 = sys.bundle.phi.jacobian(x1[:nE])
        inner = sys.ivcm_matrix(x0, x1)
        return (K[:, :nE] @ inner + K[:, nE:] @ jphi1) @ Jinv

    reduced_sys = DlpsSystem(
        bundle=bundle, lagrangian=lagrangian,
        ivcm_matrix=reduced_ivcm_matrix if C is None else lambda y0, y1: C)
    return ReductionResult(system=reduced_sys, model=model)


def project_path(model: ReducedModel, path: DiscretePath) -> DiscretePath:
    """Pointwise image of a path under the reduction morphism."""
    return DiscretePath(np.array([model.upsilon(x) for x in path.points]),
                        model.reduced_bundle.total_dim)


def reconstruct_path(model: ReducedModel, reduced_path: DiscretePath,
                     eps0, m1) -> DiscretePath:
    """The unique lift of a reduced path through a given starting point.

    The starting point must project onto the first reduced pair to
    within 1e-9 (else ValueError, also for a NaN defect). Each step lifts
    the next reduced pair by the section, then acts by the unique group
    element matching the base condition (the new fiber point must
    project onto the previous base point). Inconsistent input surfaces
    as MatchingError, and so does a non-finite entry in any reduced pair
    after the first, rejected before the first step is lifted.
    """
    nE = model.source_bundle.total_dim
    x = np.concatenate([as_vector(eps0, nE),
                        as_vector(m1, model.source_bundle.base_dim)])
    start_defect = float(np.max(np.abs(model.upsilon(x) - reduced_path.points[0])))
    if not start_defect <= 1e-9:
        raise ValueError(
            f"starting point does not project onto the reduced path "
            f"(defect {start_defect:.3e})")
    bad = ~np.isfinite(reduced_path.points[1:]).all(axis=1)
    if bad.any():
        raise MatchingError(
            f"reduced pair {int(np.argmax(bad)) + 1} is not finite")
    rows = [x]
    for y in reduced_path.points[1:]:
        rows.append(_lift_onto(model, y, rows[-1][nE:]))
    return DiscretePath(np.array(rows), nE)


def two_stage(sys: DlpsSystem, stage_h: ReductionResult,
              stage_gh: ReductionResult, one_shot: ReductionResult,
              trajectory: DiscretePath, conn_h: DiscreteConnection,
              full_group_action: ActionModel,
              conjugate_in_full: Callable[[np.ndarray, np.ndarray], np.ndarray],
              rng: np.random.Generator | None = None,
              n_checks: int = 100) -> tuple[dict, Callable]:
    """Compare two-stage reduction with one-shot reduction on a trajectory.

    Returns a report and the comparison map F, realized as lift through
    both stage sections followed by the one-shot morphism. First the
    condition that makes the second stage possible is validated on
    ``n_checks`` samples of ``conn_h``'s quotient: the first-stage
    connection ``conn_h`` is equivariant under conjugation
    (``conjugate_in_full``) by the full group acting by
    ``full_group_action``; a worst sample above 1e-10 raises
    ValidationError, and ``n_checks`` below 1 a ValueError. Both maxima
    keep a NaN, so a NaN conjugation violation raises and a NaN
    comparison reads as the maximum.

    The draws and the trajectory points are evaluated one by one and
    judged in bulk afterwards; the maxima, and the report's
    ``conjugation_worst_sample`` (q0 and q1 of the worst draw, as one
    row) and ``stage_comparison_worst_step`` (the index of the worst
    trajectory point), are those of the first NaN, else the first largest
    (None while every violation is 0).
    """
    if n_checks < 1:
        raise ValueError(f"n_checks must be at least 1 (got {n_checks})")
    rng = rng or np.random.default_rng(11235)
    quotient = conn_h.quotient
    samples, lhs, rhs = [], [], []
    for _ in range(n_checks):
        q0 = quotient.sample(rng)
        q1 = quotient.sample(rng)
        g = sample_group(full_group_action.group, rng)
        samples.append((q0, q1))
        lhs.append(conn_h.ad_form(full_group_action.act(g, q0),
                                  full_group_action.act(g, q1)))
        rhs.append(conjugate_in_full(g, conn_h.ad_form(q0, q1)))
    worst, i = worst_draw(draw_maxima(np.array(lhs) - np.array(rhs)))
    if not worst <= 1e-10:
        raise ValidationError("subgroup connection conjugation-equivariance",
                              sample=samples[i], violation=worst)
    report: dict = {"conjugation_equivariance_max": worst,
                    "conjugation_worst_sample":
                        None if i is None else np.concatenate(samples[i])}

    def F(y):
        x_h = stage_gh.model.lift_section(y)
        x = stage_h.model.lift_section(x_h)
        return one_shot.model.upsilon(x)

    staged, direct = [], []
    for x in trajectory.points:
        y_h = stage_h.model.upsilon(x)
        y_gh = stage_gh.model.upsilon(y_h)
        direct.append(one_shot.model.upsilon(x))
        staged.append(F(y_gh))
    per_step = draw_maxima(np.array(staged) - np.array(direct))
    worst, step = worst_draw(per_step)
    report.update(stage_comparison_max=worst, stage_comparison_worst_step=step,
                  per_step=per_step.tolist())
    return report, F


def _matvecs(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``A[i] @ v[i, k]`` for every draw i and tangent k, stacked: the
    products per draw as matrix-vector products, bit for bit."""
    return np.matmul(A[:, None], v[..., None])[..., 0]


def check_morphism(candidate: SmoothMapHandle, sys: DlpsSystem,
                   sys_target: DlpsSystem,
                   sample_cprime: Callable[[np.random.Generator], np.ndarray],
                   n_samples: int = 50,
                   rng: np.random.Generator | None = None) -> dict:
    """Numeric point checks of the morphism conditions between systems.

    Derivatives come from ``candidate.jacobian``: the closed-form ``jac``
    when the candidate carries one, otherwise central differences. A
    supplied ``jac`` is trusted, not compared with differences here (the
    tests do that); a wrong one shows in the chaining condition. At x1
    only the fiber slot is read, so without a ``jac`` only that slot is
    differenced there.

    Reports per-condition maxima over samples and, in ``worst_samples``,
    the x0 of the draw attaining each of them (None while it reads 0) and
    the smallest fiber-slot singular value; never raises on a violation
    (``n_samples`` below 1 is a ValueError). A NaN reading is kept as the
    maximum (as the minimum for the singular value), and a non-finite
    Jacobian at x0 fails both rank checks. The global
    surjectivity/submersion condition is reported as a rank check only.
    The chaining condition is tested on 3 random tangents per sample.

    The draws are evaluated one by one (the maps, then the tangents) and
    judged in bulk afterwards: one stacked SVD per rank check (a single
    one for a constant ``jac``) and one maximum per condition, whose worst
    draw is the first NaN, else the first largest.
    """
    rng = rng or np.random.default_rng(97)
    nE, nM = sys.bundle.total_dim, sys.bundle.base_dim
    nEr = sys_target.bundle.total_dim
    nMr = sys_target.bundle.base_dim
    if candidate.in_dim != nE + nM or candidate.out_dim != nEr + nMr:
        raise ValueError("candidate dimensions are incompatible with the systems")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1 (got {n_samples})")

    draws = []
    for _ in range(n_samples):
        x0, x1 = _sample_second_order(sys, sample_cprime, rng)
        J0 = candidate.jacobian(x0)
        y0 = candidate(x0)
        y1 = candidate(x1)
        base_defect = y0[nEr:] - sys_target.bundle.phi(y1[:nEr])
        lag_defect = sys.lag(x0) - sys_target.lag(y0)
        if candidate.jac is None:
            m2 = x1[nE:]
            D1p1_at_x1 = jacobian_fd(
                lambda e: candidate(np.concatenate([e, m2]))[:nEr], x1[:nE])
        else:
            D1p1_at_x1 = candidate.jacobian(x1)[:nEr, :nE]
        draws.append((x0, J0, base_defect, lag_defect, D1p1_at_x1,
                      sys.bundle.phi.jacobian(x1[:nE]), sys.ivcm_matrix(x0, x1),
                      sys_target.ivcm_matrix(y0, y1), rng.standard_normal((3, nE))))
    x0s, *stacks = zip(*draws)
    (J0, base_defect, lag_defect, D1p1_at_x1, jphi1, inner, ivcm_target,
     delta) = map(np.array, stacks)
    D1p1, D2p1 = J0[:, :nEr, :nE], J0[:, :nEr, nE:]

    finite = np.all(np.isfinite(J0), axis=(1, 2))
    full_rank_ok = cond2_rank_ok = bool(np.all(finite))
    sv_min = np.full(n_samples, np.nan)
    if np.any(finite):
        J = J0[:1] if isinstance(candidate.jac, np.ndarray) else J0[finite]
        sv_full = np.linalg.svd(J, compute_uv=False)
        full_rank_ok &= not np.any(sv_full[:, -1] <= RANK_TOL * sv_full[:, 0])
        sv = np.linalg.svd(J[:, :nEr, :nE], compute_uv=False)
        ranks = np.sum(sv > RANK_TOL * np.maximum(sv[:, :1], 1.0), axis=1)
        cond2_rank_ok &= not np.any(ranks < nEr)
        sv_min[finite] = sv[:, -1]

    lhs = _matvecs(ivcm_target, _matvecs(D1p1_at_x1, delta))
    rhs = _matvecs(D1p1, _matvecs(inner, delta)) + _matvecs(D2p1, _matvecs(jphi1, delta))
    report = {
        "cond1_submersion_rank_ok": bool(full_rank_ok),
        "cond1_note": "rank check only",
        "cond2_fiber_slot_rank_ok": bool(cond2_rank_ok),
    }
    # The smallest, a NaN kept; every entry is finite or NaN, so a draw wins.
    _, i = worst_draw(-sv_min, -np.inf)
    report["cond2_min_singular_value"] = float(sv_min[i])
    worst_samples = {"cond2_min_singular_value": x0s[i]}
    for name, diffs in (("cond3_base_independence_max", J0[:, nEr:, :nE]),
                        ("cond4_base_compatibility_max", base_defect),
                        ("cond5_lagrangian_match_max", lag_defect),
                        ("cond6_chaining_intertwine_max", lhs - rhs)):
        report[name], i = worst_draw(draw_maxima(diffs))
        worst_samples[name] = None if i is None else x0s[i]
    report["worst_samples"] = worst_samples
    report["n_samples"] = int(n_samples)
    return report
