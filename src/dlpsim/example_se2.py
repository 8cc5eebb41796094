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
base. Its connection, chart, action and sampler closures compute on
Python floats as those of ``lie`` do, bit-identical to the complex formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .connection import DiscreteConnection, QuotientModel
from .dlps import DlpsSystem, _check_timestep, _kinetic_hessian, from_dms
from .errors import DomainError
from .lie import (ActionModel, _cmul, se2_two_point_action,
                  t2_two_point_action, u1_group, u1_plane_action)
from .reduction import ReducedModel, ReductionResult, build_upsilon, reduce
# jacobian_fd is unused here, but the benchmark tracer patches it in this module.
from .smooth import SmoothMapHandle, as_vector, jacobian_fd

SQRT2 = float(np.sqrt(2.0))
_SEPARATION_FLOOR = 1e-12


def potential_handle(name: str, coeff: float = 1.0) -> SmoothMapHandle:
    """Named potential families V(s), s the squared separation, with
    their closed-form V' (``jac``) and V'' (``hess``), each a constant
    array where it is constant."""
    if name == "zero":
        return SmoothMapHandle(1, 1, lambda s: np.zeros(1), jac=np.zeros((1, 1)),
                               hess=np.zeros((1, 1)))
    if name == "linear":
        return SmoothMapHandle(1, 1, lambda s: coeff * s,
                               jac=np.array([[coeff]]), hess=np.zeros((1, 1)))
    if name == "quadratic":
        return SmoothMapHandle(1, 1, lambda s: coeff * s ** 2,
                               jac=lambda s: np.array([[2.0 * coeff * s[0]]]),
                               hess=np.array([[2.0 * coeff]]))
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
        """V'(s): the constant array's entry when V' is one."""
        jac = self.potential.jac
        if isinstance(jac, np.ndarray):
            return float(jac[0, 0])
        return float(self.potential.jacobian(np.array([float(s)]))[0, 0])

    def v_second(self, s: float) -> float:
        """V''(s): the constant array's entry when V'' is one."""
        hess = self.potential.hess
        if isinstance(hess, np.ndarray):
            return float(hess[0, 0])
        return float(self.potential.hessian(np.array([float(s)]))[0, 0])


def _distance(q) -> float:
    """|q^x - q^y| of a configuration."""
    x_re, x_im, y_re, y_im = q.tolist()
    return float(np.hypot(x_re - y_re, x_im - y_im))


def _check_apart(d_re, d_im):
    """Raise DomainError when the separation q^x - q^y = (d_re, d_im) is
    below the floor; a NaN separation passes."""
    if math.hypot(d_re, d_im) < _SEPARATION_FLOOR:
        raise DomainError("coincident particles (excised diagonal)")


def _norm2(a, b) -> float:
    """a^2 + b^2 as numpy's length-2 ``@`` rounds it, which differs in the
    last bit from the float sum a*a + b*b on some inputs."""
    d = np.array((a, b))
    return float(d @ d)


#: Half the Hessian of the squared separation |q^x - q^y|^2 on R^4.
_SEPARATION_HESS = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.eye(2))


def make_full_system(cfg: TwoBodyConfig) -> DlpsSystem:
    """The two-body system as a DMS on R^4 (zero chaining map).

    The Lagrangian carries its closed-form gradient when the potential
    has a closed-form derivative, and its closed-form Hessian (from which
    ``step`` builds its Newton Jacobian) when the potential has V'' as
    well; otherwise D1/D2 fall back to the fourth-order stencil on L,
    which beats a second-order V', and the Newton Jacobian to central
    differences.

    L, its gradient and its Hessian read the row once with ``.tolist()``
    and compute on Python floats, bit-identical to the numpy formulas
    over q0 = x[:4], q1 = x[4:]: the squared lengths |q1^x - q0^x|^2,
    |q1^y - q0^y|^2 and |q0^x - q0^y|^2 keep numpy's length-2 ``@``
    (``_norm2``), and the Hessian's potential block is, entry by entry,
    ``kin_ij - h*((2 V'')*(u_i*u_j) + V'*S_ij)`` with u = (sep, -sep)
    and S = ``_SEPARATION_HESS``. Each raises DomainError when either
    configuration is on the excised diagonal.

    A constant V' (an array ``jac`` on the potential: ``zero``,
    ``linear``) is read once, here: the gradient kernel then takes no
    squared separation, which only a varying V' (``quadratic``) reads.
    When V' is a constant array and V'' the zero array, L is quadratic
    and its ``hess`` is the constant array ``kin - h*(V'*S)`` on the q0
    block instead of that kernel: ``step`` and ``reduction.reduce`` then
    form their Newton matrices once. For h > 0 it equals the kernel's value bit for bit
    on every row the kernel accepts (for h < 0 a zero entry may differ
    in sign); being data, it does not check the row.
    """
    h = cfg.h
    kinetic = _kinetic_hessian(4, h)
    # (i, j, kin_ij, S_ij) on and above the diagonal of the potential
    # block, which is symmetric bit for bit since u_i*u_j == u_j*u_i.
    upper = [(i, j, float(kinetic[i, j]), float(_SEPARATION_HESS[i, j]))
             for i in range(4) for j in range(i, 4)]

    def row(x):
        """The row's eight floats, both configurations checked."""
        x = x.tolist()
        _check_apart(x[0] - x[2], x[1] - x[3])
        _check_apart(x[4] - x[6], x[5] - x[7])
        return x

    def L(x):
        x0, x1, x2, x3, x4, x5, x6, x7 = row(x)
        return np.array([
            (_norm2(x4 - x0, x5 - x1) + _norm2(x6 - x2, x7 - x3)) / (2.0 * h)
            - 0.5 * h * cfg.v(_norm2(x0 - x2, x1 - x3))])

    V1, V2 = cfg.potential.jac, cfg.potential.hess
    h_vp = h * float(V1[0, 0]) if isinstance(V1, np.ndarray) else None

    def dL(x):
        x0, x1, x2, x3, x4, x5, x6, x7 = row(x)
        v0, v1, v2, v3 = (x4 - x0) / h, (x5 - x1) / h, (x6 - x2) / h, (x7 - x3) / h
        s0, s1 = x0 - x2, x1 - x3
        c = h_vp if h_vp is not None else h * cfg.v_prime(_norm2(s0, s1))
        return np.array([-v0 - c * s0, -v1 - c * s1, -v2 - c * -s0, -v3 - c * -s1,
                         v0, v1, v2, v3])

    def d2L(x):
        x0, x1, x2, x3 = row(x)[:4]
        s0, s1 = x0 - x2, x1 - x3
        s = _norm2(s0, s1)
        a = 2.0 * cfg.v_second(s)
        vp = cfg.v_prime(s)
        u = (s0, s1, -s0, -s1)
        block = [[0.0] * 4 for _ in range(4)]
        for i, j, k, S in upper:
            block[i][j] = block[j][i] = k - h * (a * (u[i] * u[j]) + vp * S)
        H = kinetic.copy()
        H[:4, :4] = block
        return H

    jac = dL if V1 is not None else None
    hess = d2L if jac is not None and V2 is not None else None
    if (isinstance(V1, np.ndarray) and isinstance(V2, np.ndarray)
            and not V2.any()):
        hess = kinetic.copy()
        hess[:4, :4] -= h * (float(V1[0, 0]) * _SEPARATION_HESS)
    return from_dms(4, SmoothMapHandle(8, 1, L, jac=jac, hess=hess))


def sample_configuration(rng: np.random.Generator) -> np.ndarray:
    """A configuration in [-2, 2]^4 with the particles at least 0.3 apart."""
    while True:
        q = rng.uniform(-2.0, 2.0, size=4)
        if _distance(q) >= 0.3:
            return q


def sample_cprime(rng: np.random.Generator) -> np.ndarray:
    return np.concatenate([sample_configuration(rng), sample_configuration(rng)])


# --- translation-subgroup connection ---------------------------------------

def _relative(q) -> tuple[float, float]:
    """The relative position r = (q^x - q^y)/sqrt(2)."""
    x_re, x_im, y_re, y_im = q.tolist()
    return (x_re - y_re) / SQRT2, (x_im - y_im) / SQRT2


def _symmetric_pair(r_re, r_im) -> np.ndarray:
    """The configuration (r, -r)/sqrt(2)."""
    return np.array([r_re / SQRT2, r_im / SQRT2, -r_re / SQRT2, -r_im / SQRT2])


def _on_real_axis(rho) -> np.ndarray:
    """The configuration (rho, 0, -rho, 0)/sqrt(2), relative position rho."""
    return np.array([rho / SQRT2, 0.0, -rho / SQRT2, 0.0])


def _sum_and_split(s_re, s_im, r1_re, r1_im) -> np.ndarray:
    """The configuration with summed position s and relative position r1."""
    t_re, t_im = SQRT2 * r1_re, SQRT2 * r1_im
    return np.array([0.5 * (s_re + t_re), 0.5 * (s_im + t_im),
                     0.5 * (s_re - t_re), 0.5 * (s_im - t_im)])


def make_t2_quotient() -> QuotientModel:
    """Quotient by simultaneous translations: base coordinate r = (q^x - q^y)/sqrt(2)."""
    project = SmoothMapHandle(4, 2, lambda q: np.array(_relative(q)))
    section = SmoothMapHandle(2, 4, lambda r: _symmetric_pair(*r.tolist()))
    return QuotientModel(project=project, section=section,
                         action=t2_two_point_action(),
                         sample=sample_configuration)


def make_t2_connection() -> DiscreteConnection:
    """Closed-form connection: horizontal pairs keep the summed position."""
    quotient = make_t2_quotient()

    def ad_form(q0, q1):
        x0_re, x0_im, y0_re, y0_im = q0.tolist()
        x1_re, x1_im, y1_re, y1_im = q1.tolist()
        return np.array([0.5 * ((x1_re + y1_re) - (x0_re + y0_re)),
                         0.5 * ((x1_im + y1_im) - (x0_im + y0_im))])

    def hor_lift(q0, r1):
        x_re, x_im, y_re, y_im = q0.tolist()
        return _sum_and_split(x_re + y_re, x_im + y_im, *r1.tolist())

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


def _t2_reduced_section(r) -> np.ndarray:
    """The reduced bundle's section r -> (r', 0) in one scalar kernel.

    Bit for bit the section ``build_upsilon`` composes for the T2 model
    (the full identity section, the quotient section ``_symmetric_pair``
    and the fiber chart at the identity offset): r' = ((a/sqrt2 -
    (-a)/sqrt2)/sqrt2, (b/sqrt2 - (-b)/sqrt2)/sqrt2) for r = (a, b).
    """
    a, b = r.tolist()
    return np.array([(a / SQRT2 - -a / SQRT2) / SQRT2,
                     (b / SQRT2 - -b / SQRT2) / SQRT2, 0.0, 0.0])


def make_reduced_model(cfg: TwoBodyConfig | None = None, *,
                       rng: np.random.Generator) -> ReducedModel:
    """Reduced coordinates ((r0, z0), r1): relative position and stored offset.

    r = (q^x - q^y)/sqrt(2); z is the translation offset assigned by the
    connection. Validated with ``rng`` against a concrete system (default
    timestep 0.1, V(s) = s/2) since symmetry validation needs a Lagrangian.
    The model is linear in these coordinates, so ``upsilon``, ``lift_section``
    and the reduced bundle's ``phi`` carry their constant Jacobians as ``jac``
    arrays, which makes the model affine for ``reduce``. The reduced bundle's
    ``section``, which seeds every step's Newton guess, is the scalar kernel
    ``_t2_reduced_section``; the section ``build_upsilon`` composes is its
    oracle, equal to it bit for bit (NaN kept).
    """
    cfg = cfg or TwoBodyConfig()
    sys = make_full_system(cfg)
    conn = make_t2_connection()

    def fiber_chart(eps, w):
        return np.array([*_relative(eps), *w.tolist()])

    def fiber_section(v):
        r_re, r_im, z_re, z_im = v.tolist()
        return _symmetric_pair(r_re, r_im), np.array([z_re, z_im])

    model = build_upsilon(conn, sys, fiber_chart, fiber_section,
                          action_e=t2_two_point_action(),
                          sample_cprime=sample_cprime, rng=rng)
    bundle = model.reduced_bundle
    return replace(
        model,
        upsilon=replace(model.upsilon, jac=_T2_UPSILON_JAC),
        lift_section=replace(model.lift_section, jac=_T2_LIFT_JAC),
        reduced_bundle=replace(
            bundle, phi=replace(bundle.phi, jac=_T2_REDUCED_PHI_JAC),
            section=SmoothMapHandle(2, 4, _t2_reduced_section)))


def make_reduced_system(cfg: TwoBodyConfig | None = None, *,
                        rng: np.random.Generator) -> ReductionResult:
    """The two-body system reduced by translations, validated with ``rng``.

    The full system is a DMS and the model is affine, so ``reduce`` gives
    the reduced system its constant chaining matrix and, when the
    potential has V'', the exact Newton Jacobian of its step.
    """
    cfg = cfg or TwoBodyConfig()
    return reduce(make_full_system(cfg), make_reduced_model(cfg, rng=rng))


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

def _phase(re, im) -> tuple[float, float]:
    n = float(np.hypot(re, im))
    if n < _SEPARATION_FLOOR:
        raise DomainError("phase of a vanishing complex number")
    return re / n, im / n


def make_se2_quotient() -> QuotientModel:
    """Quotient by the full planar isometry group: base coordinate |r|."""
    project = SmoothMapHandle(4, 1, lambda q: np.array([_distance(q) / SQRT2]))
    section = SmoothMapHandle(1, 4, lambda rho: _on_real_axis(*rho.tolist()))
    return QuotientModel(project=project, section=section,
                         action=se2_two_point_action(),
                         sample=sample_configuration)


def make_se2_connection() -> DiscreteConnection:
    """Closed-form counterpart of the flat-metric SE(2) connection.

    Horizontal pairs keep the summed position and scale the relative
    position by a positive real factor; the form reads the rotation off
    the relative phases and the translation off the summed positions.
    """
    quotient = make_se2_quotient()

    def ad_form(q0, q1):
        x0_re, x0_im, y0_re, y0_im = q0.tolist()
        x1_re, x1_im, y1_re, y1_im = q1.tolist()
        a_re, a_im = _phase(*_cmul(x1_re - y1_re, x1_im - y1_im,
                                   x0_re - y0_re, -(x0_im - y0_im)))
        w_re, w_im = _cmul(a_re, a_im, x0_re + y0_re, x0_im + y0_im)
        return np.array([a_re, a_im, 0.5 * ((x1_re + y1_re) - w_re),
                         0.5 * ((x1_im + y1_im) - w_im)])

    def hor_lift(q0, rho1):
        (rho,) = rho1.tolist()
        x_re, x_im, y_re, y_im = q0.tolist()
        p_re, p_im = _phase((x_re - y_re) / SQRT2, (x_im - y_im) / SQRT2)
        return _sum_and_split(x_re + y_re, x_im + y_im, rho * p_re, rho * p_im)

    return DiscreteConnection(quotient=quotient, ad_form=ad_form, hor_lift=hor_lift)


def sample_annulus(rng: np.random.Generator, inner: float = 0.3,
                   outer: float = 2.5) -> np.ndarray:
    while True:
        r = rng.uniform(-outer, outer, size=2)
        if inner <= float(np.hypot(*r.tolist())) <= outer:
            return r


def make_u1_base_quotient() -> QuotientModel:
    """U(1) acting on the punctured plane of relative positions; base |r|."""
    project = SmoothMapHandle(2, 1, lambda r: np.array([np.hypot(*r.tolist())]))
    section = SmoothMapHandle(1, 2, lambda rho: np.array([*rho.tolist(), 0.0]))
    return QuotientModel(project=project, section=section,
                         action=u1_plane_action(),
                         sample=sample_annulus)


def make_u1_connection() -> DiscreteConnection:
    """Phase connection on the punctured plane: horizontal = same phase."""
    quotient = make_u1_base_quotient()

    def ad_form(r0, r1):
        a_re, a_im = r0.tolist()
        return np.array(_phase(*_cmul(*r1.tolist(), a_re, -a_im)))

    def hor_lift(r0, rho1):
        (rho,) = rho1.tolist()
        p_re, p_im = _phase(*r0.tolist())
        return np.array([rho * p_re, rho * p_im])

    return DiscreteConnection(quotient=quotient, ad_form=ad_form, hor_lift=hor_lift)


def make_residual_u1_action() -> ActionModel:
    """The circle action surviving on the reduced space: (r, z) -> (Ar, Az)."""
    G = u1_group()

    def act(g, y):
        a_re, a_im = g.tolist()
        r_re, r_im, z_re, z_im = y.tolist()
        return np.array([*_cmul(a_re, a_im, r_re, r_im), *_cmul(a_re, a_im, z_re, z_im)])

    def generators(y):
        r_re, r_im, z_re, z_im = y.tolist()
        return np.array([[-r_im], [r_re], [-z_im], [z_re]])

    return ActionModel(group=G, space_dim=4, act=act, generators=generators)


def conjugate_translation_by_se2(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g (1, v) g^{-1} = (1, A v) for g = (A, u): translations stay translations."""
    a_re, a_im, _, _ = g.tolist()
    return np.array(_cmul(a_re, a_im, *h.tolist()))


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


def make_staged_setup(cfg: TwoBodyConfig | None = None, *,
                      rng: np.random.Generator) -> StagedSetup:
    """Build and validate the SE(2)-over-T2 staged reduction data.

    Stage one is ``make_reduced_system``, the reduction by translations
    onto C* x T2; the residual circle action (validated by
    ``build_upsilon`` as a symmetry of the reduced system) drives stage
    two over the base |r|; the one-shot SE(2) model uses the invariant
    coordinates (|r0|, rotation angle, phase-aligned translation offset).
    Each of the three builds validates with its own child of ``rng``.
    """
    cfg = cfg or TwoBodyConfig()
    rng_h, rng_gh, rng_g = rng.spawn(3)
    sys = make_full_system(cfg)
    action_g = se2_two_point_action()

    conn_h = make_t2_connection()
    stage_h = make_reduced_system(cfg, rng=rng_h)
    model_h = stage_h.model

    residual_action = make_residual_u1_action()
    conn_gh = make_u1_connection()

    def fiber_chart_gh(eps, b):
        r_re, r_im, z_re, z_im = eps.tolist()
        rho0 = float(np.hypot(r_re, r_im))
        if rho0 < _SEPARATION_FLOOR:
            raise DomainError("relative position vanishes in reduced chart")
        b_re, b_im = b.tolist()
        beta = float(np.arctan2(b_im, b_re))
        return np.array([rho0, beta, *_cmul(r_re / rho0, -(r_im / rho0), z_re, z_im)])

    def fiber_section_gh(v):
        rho, beta, zeta_re, zeta_im = v.tolist()
        return (np.array([rho, 0.0, zeta_re, zeta_im]),
                np.array([np.cos(beta), np.sin(beta)]))

    def sample_cprime_gh(local_rng):
        return model_h.upsilon(sample_cprime(local_rng))

    model_gh = build_upsilon(conn_gh, stage_h.system, fiber_chart_gh,
                             fiber_section_gh, action_e=residual_action,
                             sample_cprime=sample_cprime_gh, rng=rng_gh)
    stage_gh = reduce(stage_h.system, model_gh)

    conn_g = make_se2_connection()

    def fiber_chart_g(eps, g):
        x_re, x_im, y_re, y_im = eps.tolist()
        r_re, r_im = (x_re - y_re) / SQRT2, (x_im - y_im) / SQRT2
        rho0 = float(np.hypot(r_re, r_im))
        if rho0 < _SEPARATION_FLOOR:
            raise DomainError("coincident particles in reduced chart")
        a_re, a_im, w_re, w_im = g.tolist()
        c_re, c_im = _cmul(1.0 - a_re, -a_im, x_re + y_re, x_im + y_im)
        zeta = _cmul(r_re / rho0, -(r_im / rho0), w_re - 0.5 * c_re, w_im - 0.5 * c_im)
        alpha = float(np.arctan2(a_im, a_re))
        return np.array([rho0, alpha, *zeta])

    def fiber_section_g(v):
        rho, alpha, zeta_re, zeta_im = v.tolist()
        return (_on_real_axis(rho),
                np.array([np.cos(alpha), np.sin(alpha), zeta_re, zeta_im]))

    model_g = build_upsilon(conn_g, sys, fiber_chart_g, fiber_section_g,
                            action_e=action_g, sample_cprime=sample_cprime,
                            rng=rng_g)
    one_shot = reduce(sys, model_g)

    return StagedSetup(sys=sys, action_g=action_g, conn_h=conn_h,
                       conn_g=conn_g, stage_h=stage_h, stage_gh=stage_gh,
                       one_shot=one_shot, residual_action=residual_action,
                       conjugate_in_g=conjugate_translation_by_se2)
