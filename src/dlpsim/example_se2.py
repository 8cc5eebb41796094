"""Two unit-mass particles in the plane, fully wired.

Configuration space: pairs of distinct plane points, coordinates
(x_re, x_im, y_re, y_im). The discrete Lagrangian is the midpoint-free
discretization

    L_d(q0, q1) = (|q1^x - q0^x|^2 + |q1^y - q0^y|^2) / (2h)
                  - (h/2) V(|q0^y - q0^x|^2),

invariant under the diagonal SE(2) action. The module ships the
translation-subgroup connection in closed form, the explicit reduced
model on C* x T2 (coordinates r = (q^x - q^y)/sqrt(2) and the stored
translation offset z), the closed-form reduced update, and the full
staged-reduction configuration: SE(2) one-shot model, residual U(1)
action on the reduced space, and the circle connection on the reduced
base.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .connection import DiscreteConnection, QuotientModel
from .dlps import DlpsSystem, _check_timestep, from_dms
from .errors import DomainError, ValidationError
from .lie import (ActionModel, _cconj, _cmul, sample_group,
                  se2_two_point_action, t2_two_point_action, u1_group,
                  u1_plane_action)
from .reduction import ReducedModel, ReductionResult, build_upsilon, reduce
# jacobian_fd is unused here, but the benchmark tracer patches it in this module.
from .smooth import SmoothMapHandle, as_vector, jacobian_fd

SQRT2 = float(np.sqrt(2.0))
_SEPARATION_FLOOR = 1e-12


def potential_handle(name: str, coeff: float = 1.0) -> SmoothMapHandle:
    """Named potential families V(s), s the squared separation."""
    if name == "zero":
        return SmoothMapHandle(1, 1, lambda s: np.zeros(1), jac=lambda s: np.zeros((1, 1)))
    if name == "linear":
        return SmoothMapHandle(1, 1, lambda s: coeff * s,
                               jac=lambda s: np.array([[coeff]]))
    if name == "quadratic":
        return SmoothMapHandle(1, 1, lambda s: coeff * s ** 2,
                               jac=lambda s: np.array([[2.0 * coeff * s[0]]]))
    raise ValueError(f"unknown potential family '{name}'")


@dataclass(frozen=True)
class TwoBodyConfig:
    """Timestep and interaction potential (argument: squared separation)."""

    h: float = 0.1
    potential: SmoothMapHandle = field(
        default_factory=lambda: potential_handle("linear", 0.5))

    def __post_init__(self):
        _check_timestep(self.h)

    def v(self, s: float) -> float:
        return float(self.potential(np.array([s]))[0])

    def v_prime(self, s: float) -> float:
        return float(self.potential.jacobian(np.array([float(s)]))[0, 0])


def _separation(q) -> np.ndarray:
    return q[:2] - q[2:]


def _check_off_diagonal(q):
    if float(np.hypot(*_separation(q))) < _SEPARATION_FLOOR:
        raise DomainError("coincident particles (excised diagonal)")


def make_full_system(cfg: TwoBodyConfig) -> DlpsSystem:
    """The two-body system as a DMS on R^4 (zero chaining map).

    The Lagrangian carries its closed-form gradient when the potential
    has a closed-form derivative; otherwise D1/D2 fall back to the
    fourth-order stencil on L, which beats a second-order V'.
    """
    h = cfg.h

    def L(x):
        q0, q1 = x[:4], x[4:]
        _check_off_diagonal(q0)
        _check_off_diagonal(q1)
        dx = q1[:2] - q0[:2]
        dy = q1[2:] - q0[2:]
        sep = _separation(q0)
        return np.array([
            (float(dx @ dx) + float(dy @ dy)) / (2.0 * h)
            - 0.5 * h * cfg.v(float(sep @ sep))])

    def dL(x):
        q0, q1 = x[:4], x[4:]
        _check_off_diagonal(q0)
        _check_off_diagonal(q1)
        v = (q1 - q0) / h
        sep = _separation(q0)
        force = h * cfg.v_prime(float(sep @ sep)) * np.concatenate([sep, -sep])
        return np.concatenate([-v - force, v])

    jac = dL if cfg.potential.jac is not None else None
    return from_dms(4, SmoothMapHandle(8, 1, L, jac=jac))


def sample_configuration(rng: np.random.Generator) -> np.ndarray:
    """A configuration in [-2, 2]^4 with the particles at least 0.3 apart."""
    while True:
        q = rng.uniform(-2.0, 2.0, size=4)
        if float(np.hypot(*_separation(q))) >= 0.3:
            return q


def sample_cprime(rng: np.random.Generator) -> np.ndarray:
    return np.concatenate([sample_configuration(rng), sample_configuration(rng)])


# --- translation-subgroup connection ---------------------------------------

_T2_PROJECT_JAC = np.array([[1.0, 0.0, -1.0, 0.0],
                            [0.0, 1.0, 0.0, -1.0]]) / SQRT2
_T2_SECTION_JAC = np.array([[1.0, 0.0], [0.0, 1.0],
                            [-1.0, 0.0], [0.0, -1.0]]) / SQRT2


def make_t2_quotient() -> QuotientModel:
    """Quotient by simultaneous translations: base coordinate r = (q^x - q^y)/sqrt(2)."""
    project = SmoothMapHandle(4, 2, lambda q: _separation(q) / SQRT2,
                              jac=lambda q: _T2_PROJECT_JAC)
    section = SmoothMapHandle(2, 4, lambda r: np.concatenate([r, -r]) / SQRT2,
                              jac=lambda r: _T2_SECTION_JAC)
    return QuotientModel(total_dim=4, base_dim=2, project=project,
                         section=section, action=t2_two_point_action(),
                         sample=sample_configuration)


def make_t2_connection() -> DiscreteConnection:
    """Closed-form connection: horizontal pairs keep the summed position."""
    quotient = make_t2_quotient()

    def ad_form(q0, q1):
        s0 = q0[:2] + q0[2:]
        s1 = q1[:2] + q1[2:]
        return 0.5 * (s1 - s0)

    def hor_lift(q0, r1):
        s0 = q0[:2] + q0[2:]
        return np.concatenate([0.5 * (s0 + SQRT2 * r1), 0.5 * (s0 - SQRT2 * r1)])

    return DiscreteConnection(quotient=quotient, ad_form=ad_form, hor_lift=hor_lift)


def make_weighted_t2_connection(weight_x: float, weight_y: float) -> DiscreteConnection:
    """Translation connection from an anisotropic particle weighting.

    Horizontality balances the weighted displacements; the offset is the
    weighted mean (w_x dx + w_y dy) / (w_x + w_y). Coincides with the
    flat-metric construction for metric diag(w_x, w_x, w_y, w_y) and with
    the unweighted connection when the weights agree.
    """
    if weight_x <= 0 or weight_y <= 0:
        raise ValueError("weights must be positive")
    quotient = make_t2_quotient()
    total = weight_x + weight_y

    def ad_form(q0, q1):
        dx = q1[:2] - q0[:2]
        dy = q1[2:] - q0[2:]
        return (weight_x * dx + weight_y * dy) / total

    def hor_lift(q0, r1):
        # q1 = (a + wy*sqrt2*r1/total, a - wx*sqrt2*r1/total) with the
        # weighted mean a matching q0's.
        a = (weight_x * q0[:2] + weight_y * q0[2:]) / total
        return np.concatenate([a + weight_y * SQRT2 * r1 / total,
                               a - weight_x * SQRT2 * r1 / total])

    return DiscreteConnection(quotient=quotient, ad_form=ad_form, hor_lift=hor_lift)


# --- the explicit reduced model on C* x T2 ---------------------------------

_I2 = np.eye(2)
_O2 = np.zeros((2, 2))
#: (ex, ey, mx, my) -> ((ex - ey)/sqrt2, (mx + my - ex - ey)/2, (mx - my)/sqrt2)
_T2_UPSILON_JAC = np.block([[_I2 / SQRT2, -_I2 / SQRT2, _O2, _O2],
                            [-_I2 / 2.0, -_I2 / 2.0, _I2 / 2.0, _I2 / 2.0],
                            [_O2, _O2, _I2 / SQRT2, -_I2 / SQRT2]])
#: (r0, z0, r1) -> (r0/sqrt2, -r0/sqrt2, r1/sqrt2 + z0, -r1/sqrt2 + z0)
_T2_LIFT_JAC = np.block([[_I2 / SQRT2, _O2, _O2],
                         [-_I2 / SQRT2, _O2, _O2],
                         [_O2, _I2, _I2 / SQRT2],
                         [_O2, _I2, -_I2 / SQRT2]])
#: (r0, z0) -> r0
_T2_REDUCED_PHI_JAC = np.block([_I2, _O2])


def make_reduced_model(cfg: TwoBodyConfig | None = None,
                       rng: np.random.Generator | None = None) -> ReducedModel:
    """Reduced coordinates ((r0, z0), r1): relative position and stored offset.

    r = (q^x - q^y)/sqrt(2); z is the translation offset assigned by the
    connection. Validated against a concrete system (default timestep 0.1,
    V(s) = s/2) since symmetry validation needs a Lagrangian. The model is
    linear in these coordinates, so ``upsilon``, ``lift_section`` and the
    reduced bundle's ``phi`` carry their constant Jacobians as ``jac``:
    the reduced Lagrangian then gets its gradient by the chain rule and
    the reduced chaining map its derivative blocks in closed form.
    """
    cfg = cfg or TwoBodyConfig()
    sys = make_full_system(cfg)
    conn = make_t2_connection()

    def fiber_chart(eps, w):
        return np.concatenate([_separation(eps) / SQRT2, w])

    def fiber_section(v):
        r0, z0 = v[:2], v[2:]
        eps = np.concatenate([r0, -r0]) / SQRT2
        return eps, z0.copy()

    model = build_upsilon(conn, sys, fiber_chart, fiber_section,
                          action_e=t2_two_point_action(),
                          sample_cprime=sample_cprime, rng=rng)
    bundle = model.reduced_bundle
    return replace(
        model,
        upsilon=replace(model.upsilon, jac=lambda x: _T2_UPSILON_JAC),
        lift_section=replace(model.lift_section, jac=lambda y: _T2_LIFT_JAC),
        reduced_bundle=replace(bundle, phi=replace(
            bundle.phi, jac=lambda v: _T2_REDUCED_PHI_JAC)))


def make_reduced_system(cfg: TwoBodyConfig | None = None,
                        rng: np.random.Generator | None = None) -> ReductionResult:
    """The two-body system reduced by translations."""
    cfg = cfg or TwoBodyConfig()
    model = make_reduced_model(cfg, rng=rng)
    return reduce(make_full_system(cfg), model)


def closed_form_reduced_step(cfg: TwoBodyConfig, r0, z0, r1):
    """The printed reduced update: z frozen, r by the forced recurrence.

        z1 = z0,   r2 = 2 r1 - r0 - 2 h^2 V'(2 |r1|^2) r1.
    """
    r0 = as_vector(r0, 2)
    z0 = as_vector(z0, 2)
    r1 = as_vector(r1, 2)
    if float(np.hypot(*r1)) < _SEPARATION_FLOOR:
        raise DomainError("relative position vanishes (collision)")
    vp = cfg.v_prime(2.0 * float(r1 @ r1))
    r2 = 2.0 * r1 - r0 - 2.0 * cfg.h ** 2 * vp * r1
    return r1.copy(), z0.copy(), r2


# --- staged reduction: SE(2) over T2 ---------------------------------------

def _phase(a):
    n = float(np.hypot(*a))
    if n < _SEPARATION_FLOOR:
        raise DomainError("phase of a vanishing complex number")
    return a / n


def make_se2_quotient() -> QuotientModel:
    """Quotient by the full planar isometry group: base coordinate |r|."""
    project = SmoothMapHandle(4, 1,
                              lambda q: np.array([float(np.hypot(*_separation(q))) / SQRT2]))
    section = SmoothMapHandle(1, 4,
                              lambda rho: np.array([rho[0], 0.0, -rho[0], 0.0]) / SQRT2)
    return QuotientModel(total_dim=4, base_dim=1, project=project,
                         section=section, action=se2_two_point_action(),
                         sample=sample_configuration)


def make_se2_connection() -> DiscreteConnection:
    """Closed-form counterpart of the flat-metric SE(2) connection.

    Horizontal pairs keep the summed position and scale the relative
    position by a positive real factor; the form reads the rotation off
    the relative phases and the translation off the summed positions.
    """
    quotient = make_se2_quotient()

    def ad_form(q0, q1):
        d0, d1 = _separation(q0), _separation(q1)
        a = _phase(_cmul(d1, _cconj(d0)))
        s0 = q0[:2] + q0[2:]
        s1 = q1[:2] + q1[2:]
        v = 0.5 * (s1 - _cmul(a, s0))
        return np.concatenate([a, v])

    def hor_lift(q0, rho1):
        d0 = _separation(q0)
        r0 = d0 / SQRT2
        r1 = float(rho1[0]) * _phase(r0)
        s0 = q0[:2] + q0[2:]
        return np.concatenate([0.5 * (s0 + SQRT2 * r1), 0.5 * (s0 - SQRT2 * r1)])

    return DiscreteConnection(quotient=quotient, ad_form=ad_form, hor_lift=hor_lift)


def sample_annulus(rng: np.random.Generator, inner: float = 0.3,
                   outer: float = 2.5) -> np.ndarray:
    while True:
        r = rng.uniform(-outer, outer, size=2)
        if inner <= float(np.hypot(*r)) <= outer:
            return r


def make_u1_base_quotient() -> QuotientModel:
    """U(1) acting on the punctured plane of relative positions; base |r|."""
    project = SmoothMapHandle(2, 1, lambda r: np.array([float(np.hypot(*r))]))
    section = SmoothMapHandle(1, 2, lambda rho: np.array([rho[0], 0.0]))
    return QuotientModel(total_dim=2, base_dim=1, project=project,
                         section=section, action=u1_plane_action(),
                         sample=sample_annulus)


def make_u1_connection() -> DiscreteConnection:
    """Phase connection on the punctured plane: horizontal = same phase."""
    quotient = make_u1_base_quotient()

    def ad_form(r0, r1):
        return _phase(_cmul(r1, _cconj(r0)))

    def hor_lift(r0, rho1):
        return float(rho1[0]) * _phase(r0)

    return DiscreteConnection(quotient=quotient, ad_form=ad_form, hor_lift=hor_lift)


def make_residual_u1_action() -> ActionModel:
    """The circle action surviving on the reduced space: (r, z) -> (Ar, Az)."""
    G = u1_group()

    def act(g, y):
        return np.concatenate([_cmul(g, y[:2]), _cmul(g, y[2:])])

    return ActionModel(group=G, space_dim=4, act=act)


def conjugate_translation_by_se2(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g (1, v) g^{-1} = (1, A v) for g = (A, u): translations stay translations."""
    return _cmul(g[:2], h)


@dataclass(frozen=True, eq=False)
class StagedSetup:
    """Everything the two-stage comparison needs, prevalidated."""

    sys: DlpsSystem
    action_g: ActionModel
    conn_h: DiscreteConnection
    conn_g: DiscreteConnection
    stage_h: ReductionResult
    stage_gh: ReductionResult
    one_shot: ReductionResult
    residual_action: ActionModel
    conjugate_in_g: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _validate_action_axioms(action: ActionModel, sample,
                            rng: np.random.Generator):
    """Identity and compatibility axioms to 1e-12 on 100 sampled points."""
    for _ in range(100):
        q = sample(rng)
        g1 = sample_group(action.group, rng)
        g2 = sample_group(action.group, rng)
        d_id = float(np.max(np.abs(action.act(action.group.identity, q) - q)))
        if d_id > 1e-12:
            raise ValidationError("action identity axiom", sample=q, violation=d_id)
        lhs = action.act(g1, action.act(g2, q))
        rhs = action.act(action.group.compose(g1, g2), q)
        d_comp = float(np.max(np.abs(lhs - rhs)))
        if d_comp > 1e-12:
            raise ValidationError("action compatibility axiom", sample=q,
                                  violation=d_comp)


def make_staged_setup(cfg: TwoBodyConfig | None = None,
                      rng: np.random.Generator | None = None) -> StagedSetup:
    """Build and validate the SE(2)-over-T2 staged reduction data.

    Stage one reduces by translations onto C* x T2; the residual circle
    action (validated as a genuine action leaving the reduced Lagrangian
    invariant) drives stage two over the base |r|; the one-shot SE(2)
    model uses the invariant coordinates (|r0|, rotation angle,
    phase-aligned translation offset).
    """
    cfg = cfg or TwoBodyConfig()
    rng = rng or np.random.default_rng(424242)
    sys = make_full_system(cfg)
    action_g = se2_two_point_action()

    conn_h = make_t2_connection()
    model_h = make_reduced_model(cfg, rng=rng)
    stage_h = reduce(sys, model_h)

    residual_action = make_residual_u1_action()
    _validate_action_axioms(residual_action,
                            lambda r: np.concatenate([sample_annulus(r), r.uniform(-2, 2, 2)]),
                            rng)

    conn_gh = make_u1_connection()

    def fiber_chart_gh(eps, b):
        r, z = eps[:2], eps[2:]
        rho0 = float(np.hypot(*r))
        if rho0 < _SEPARATION_FLOOR:
            raise DomainError("relative position vanishes in reduced chart")
        p0 = r / rho0
        beta = float(np.arctan2(b[1], b[0]))
        zeta = _cmul(_cconj(p0), z)
        return np.array([rho0, beta, zeta[0], zeta[1]])

    def fiber_section_gh(v):
        eps = np.array([v[0], 0.0, v[2], v[3]])
        return eps, np.array([np.cos(v[1]), np.sin(v[1])])

    def sample_cprime_gh(local_rng):
        return model_h.upsilon(sample_cprime(local_rng))

    model_gh = build_upsilon(conn_gh, stage_h.system, fiber_chart_gh,
                             fiber_section_gh, action_e=residual_action,
                             sample_cprime=sample_cprime_gh, rng=rng,
                             ivcm_tol=1e-7)
    stage_gh = reduce(stage_h.system, model_gh)

    conn_g = make_se2_connection()

    def fiber_chart_g(eps, g):
        d0 = _separation(eps)
        r0 = d0 / SQRT2
        rho0 = float(np.hypot(*r0))
        if rho0 < _SEPARATION_FLOOR:
            raise DomainError("coincident particles in reduced chart")
        p0 = r0 / rho0
        a, w = g[:2], g[2:]
        s0 = eps[:2] + eps[2:]
        one_minus_a = np.array([1.0 - a[0], -a[1]])
        zeta = _cmul(_cconj(p0), w - 0.5 * _cmul(one_minus_a, s0))
        alpha = float(np.arctan2(a[1], a[0]))
        return np.array([rho0, alpha, zeta[0], zeta[1]])

    def fiber_section_g(v):
        eps = np.array([v[0], 0.0, -v[0], 0.0]) / SQRT2
        a = np.array([np.cos(v[1]), np.sin(v[1])])
        return eps, np.concatenate([a, v[2:]])

    model_g = build_upsilon(conn_g, sys, fiber_chart_g, fiber_section_g,
                            action_e=action_g, sample_cprime=sample_cprime,
                            rng=rng)
    one_shot = reduce(sys, model_g)

    return StagedSetup(sys=sys, action_g=action_g, conn_h=conn_h,
                       conn_g=conn_g, stage_h=stage_h, stage_gh=stage_gh,
                       one_shot=one_shot, residual_action=residual_action,
                       conjugate_in_g=conjugate_translation_by_se2)
