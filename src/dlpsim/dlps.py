"""Discrete Lagrange-Poincare systems and their dynamics.

A system lives on the discrete velocity phase space E x M of a fiber
bundle phi: E -> M and consists of a discrete Lagrangian on E x M plus a
chaining map that feeds the fixed-endpoint variation of one step into the
previous one. Ordinary discrete mechanical systems (DMS) embed as the
identity bundle with a zero chaining map; symmetry reduction (see
``reduction``) produces systems with a nontrivial one.

Trajectories are solved step by step: the three-term discrete
Euler-Lagrange covector plus the bundle constraint rows form a square
residual handed to the damped Newton solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, SimulationError, SolverError
from .smooth import (DEFAULT_FD_STEP, NewtonConfig, SmoothMapHandle,
                     as_vector, gradient_fd5, identity_map, jacobian_fd,
                     newton_solve)

#: A point of E x M split as (fiber-space coordinates, base coordinates);
#: inside the library a point is one row x = (eps, m).
Pair = tuple[np.ndarray, np.ndarray]

#: Failures of a step's implicit solve. Anything else (a TypeError, a bad
#: shape) is a defect in the caller's maps, not a solver failure.
_STEP_FAILURES = (SolverError, DomainError)


@dataclass(frozen=True, eq=False)
class FiberBundleModel:
    """A fiber bundle in coordinates: phi: R^total_dim -> R^base_dim.

    ``section`` is any smooth right inverse of ``phi``; it seeds Newton
    guesses. The dimensions are those of ``phi``.
    """

    phi: SmoothMapHandle
    section: SmoothMapHandle

    @property
    def total_dim(self) -> int:
        return self.phi.in_dim

    @property
    def base_dim(self) -> int:
        return self.phi.out_dim


@dataclass(frozen=True, eq=False)
class DlpsSystem:
    """(bundle, discrete Lagrangian, infinitesimal variation chaining map).

    A point of E x M is one row x = (eps, m) of length
    total_dim + base_dim. ``lagrangian`` is a scalar handle on such rows.
    The chaining map is ``ivcm_matrix``: ``ivcm_matrix(x_k, x_{k+1})`` is a
    float array of shape (total_dim, total_dim) whose product with a
    tangent delta_eps_{k+1} at eps_{k+1} is the chained tangent at eps_k,
    with image in ker(d phi). A constant chaining map may return one
    shared read-only array (``from_dms`` and, for an affine reduction of
    a DMS, ``reduction.reduce`` do). Every reader of the chaining map
    (``step``, ``build_fixed_endpoint_variation``, symmetry and morphism
    checks, diagnostics) reads this matrix.

    ``step`` takes its Newton Jacobian from ``_newton_jac``, which states
    the rule.
    """

    bundle: FiberBundleModel
    lagrangian: SmoothMapHandle
    ivcm_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # Set and read by nothing in the library. It stays only because
    # perfbench/tracing.py passes ``ivcm=`` to ``dataclasses.replace``; it
    # goes once the tracer wraps ``ivcm_matrix`` alone.
    ivcm: Callable | None = None

    def lag(self, x) -> float:
        return float(self.lagrangian(x)[0])

    @cached_property
    def _newton_jac(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """``step``'s Newton Jacobian as a function of the unknown row, or
        None for central differences of the residual.

        The rule: a function exactly when the Lagrangian has a ``hess``
        and ``phi`` an array ``jac``, giving ``[[hess[:n]], [d phi, 0]]``.
        Rows ``[:n]`` of the Hessian are the derivative of the DEL
        covector in the current row only when the chaining matrix does
        not depend on that row, which ``from_dms`` (a zero chaining map)
        and ``reduction.reduce`` (a ``hess`` only for an affine reduction
        of a DMS, whose chaining matrix is constant) keep true. A
        hand-built system that breaks it gets a wrong Jacobian: Newton
        converges more slowly or stalls, but it stops on the true residual
        and never returns a wrong point. An array ``hess`` gives one
        read-only matrix, formed once per system (a ``dataclasses.replace``
        copy forms its own); a callable one is read once per iteration.
        """
        bundle, L = self.bundle, self.lagrangian
        if L.hess is None or not isinstance(bundle.phi.jac, np.ndarray):
            return None
        if isinstance(L.hess, np.ndarray):
            J = _newton_jacobian(bundle, L.hess)
            J.flags.writeable = False
            return lambda z: J
        return lambda z: _newton_jacobian(bundle, L.hessian(z))


@dataclass(frozen=True, eq=False)
class DiscretePath:
    """A discrete path: row k of ``points`` is (eps_k, m_{k+1}) in E x M.

    ``points`` is one read-only array of shape (N, total_dim + base_dim),
    copied from the input; ``path[k]`` and ``pairs`` split its rows into
    (eps, m) views. A variation of a path has the same layout, its rows
    being tangent vectors (delta eps_k, delta m_{k+1}).
    """

    points: np.ndarray
    total_dim: int

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or not 0 < self.total_dim <= points.shape[1]:
            raise ValueError(f"cannot split rows of shape {points.shape} "
                             f"after {self.total_dim} fiber coordinates")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, k) -> Pair:
        row = self.points[k]
        return row[:self.total_dim], row[self.total_dim:]

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(self[k] for k in range(len(self)))


def make_path(pairs: Sequence[Pair]) -> DiscretePath:
    """A path whose rows join the given (eps, m) pairs."""
    return DiscretePath(np.array([np.concatenate([as_vector(e), as_vector(m)])
                                  for e, m in pairs]),
                        len(as_vector(pairs[0][0])))


def path_from_points(points: Sequence[np.ndarray]) -> DiscretePath:
    """A DMS path from configuration points q_0, ..., q_N."""
    pts = [as_vector(p) for p in points]
    return make_path([(pts[k], pts[k + 1]) for k in range(len(pts) - 1)])


# --- derivatives of the Lagrangian -----------------------------------------

def _lagrangian_grad(sys: DlpsSystem, eps, m, slot: int) -> np.ndarray:
    """Gradient of L_d in one slot of E x M.

    The matching slice of the Lagrangian handle's ``jac`` when it has one;
    otherwise ``gradient_fd5`` on the slot, which also serves as the
    oracle the closed forms are tested against.
    """
    L = sys.lagrangian
    if L.jac is not None:
        grad = L.jacobian(np.concatenate([eps, m]))[0]
        n = sys.bundle.total_dim
        return grad[:n] if slot == 1 else grad[n:]
    # The stencil never visits (eps, m) itself, so evaluate L there once:
    # off L's domain (e.g. on the two-body collision diagonal) this raises.
    L(np.concatenate([eps, m]))
    if slot == 1:
        return gradient_fd5(lambda e: L(np.concatenate([e, m])), eps)
    return gradient_fd5(lambda b: L(np.concatenate([eps, b])), m)


def d1_lagrangian(sys: DlpsSystem, eps, m) -> np.ndarray:
    return _lagrangian_grad(sys, eps, m, 1)


def d2_lagrangian(sys: DlpsSystem, eps, m) -> np.ndarray:
    return _lagrangian_grad(sys, eps, m, 2)


def _slot_gradients(sys: DlpsSystem, x) -> Pair:
    """(D1, D2) of L_d at the row x = (eps, m): one ``jac`` call split at
    the fiber slot when the Lagrangian has one, else one stencil per slot."""
    n = sys.bundle.total_dim
    L = sys.lagrangian
    if L.jac is None:
        return d1_lagrangian(sys, x[:n], x[n:]), d2_lagrangian(sys, x[:n], x[n:])
    grad = L.jacobian(x)[0]
    return grad[:n], grad[n:]


# --- dynamics --------------------------------------------------------------

def action_sum(sys: DlpsSystem, path: DiscretePath) -> float:
    """The discrete action: sum of L_d over the path's points."""
    return float(sum(float(sys.lagrangian(x)[0]) for x in path.points))


def del_residual(sys: DlpsSystem, eps_prev, m_cur, eps_cur, m_next) -> np.ndarray:
    """The discrete Euler-Lagrange covector at the middle point.

    Components (against the standard basis of the fiber-space tangent) of

        D1 L_d(eps_k, m_{k+1})
        + D2 L_d(eps_{k-1}, m_k) o d phi(eps_k)
        + D1 L_d(eps_{k-1}, m_k) o IVCM((eps_{k-1}, m_k), (eps_k, m_{k+1})).

    D1/D2 come from the Lagrangian handle's ``jac`` when it has one and
    from the fourth-order central difference otherwise; d phi uses the
    bundle's Jacobian.
    """
    n, nb = sys.bundle.total_dim, sys.bundle.base_dim
    x_prev, x_cur = np.concatenate([as_vector(eps_prev, n), as_vector(m_cur, nb),
                                    as_vector(eps_cur, n), as_vector(m_next, nb)]
                                   ).reshape(2, n + nb)
    return _del_covector(sys, x_prev)(x_cur)


def _del_covector(sys: DlpsSystem, x_prev,
                  g_prev: Pair | None = None) -> Callable[..., np.ndarray]:
    """The discrete Euler-Lagrange covector after the row x_prev, as a
    function ``covector(x_cur, d1=None, chaining=None)`` of the current row.

    Every DEL residual of the library is this sum, in this order: D1 L_d
    at x_cur, D2 L_d(x_prev) o d phi(eps_cur) and D1 L_d(x_prev) o the
    chaining matrix ``ivcm_matrix(x_prev, x_cur)``. What depends on x_prev
    alone is formed once, for every current row the function is given
    (``step`` evaluates it once per Newton residual): the slot gradients
    ``g_prev = (D1, D2)`` at x_prev (by default ``_slot_gradients``) and,
    when ``phi`` has an array ``jac``, D2 L_d(x_prev) o d phi. A caller
    that has D1 at x_cur or the chaining matrix passes them; else D1 is
    one ``jac`` call on x_cur when the Lagrangian has one (else
    ``d1_lagrangian``) and the matrix one ``ivcm_matrix`` call.
    """
    n = sys.bundle.total_dim
    L = sys.lagrangian
    phi = sys.bundle.phi
    g1_prev, g2_prev = _slot_gradients(sys, x_prev) if g_prev is None else g_prev
    g2_dphi = g2_prev @ phi.jac if isinstance(phi.jac, np.ndarray) else None

    def covector(x_cur, d1=None, chaining=None):
        if d1 is None:
            d1 = (d1_lagrangian(sys, x_cur[:n], x_cur[n:]) if L.jac is None
                  else L.jacobian(x_cur)[0, :n])
        transported = (g2_prev @ phi.jacobian(x_cur[:n]) if g2_dphi is None
                       else g2_dphi)
        if chaining is None:
            chaining = sys.ivcm_matrix(x_prev, x_cur)
        return d1 + transported + g1_prev @ chaining

    return covector


def _newton_jacobian(bundle: FiberBundleModel, H: np.ndarray) -> np.ndarray:
    """``[[H[:n]], [d phi, 0]]``: the Newton Jacobian of a step from the
    Lagrangian's Hessian H, ``phi`` having an array ``jac``."""
    n, nb = bundle.total_dim, bundle.base_dim
    J = np.zeros((n + nb, n + nb))
    J[:n] = H[:n]
    J[n:, :n] = bundle.phi.jac
    return J


def _default_guess(sys: DlpsSystem, eps0, m1) -> np.ndarray:
    """Linear extrapolation seed: section-transport of eps0 over m1."""
    b = sys.bundle
    m0 = b.phi(eps0)
    eps1 = eps0 + b.section(m1) - b.section(m0)
    m2 = m1 + (m1 - m0)
    return np.concatenate([eps1, m2])


def step(sys: DlpsSystem, eps0, m1, cfg: NewtonConfig | None = None) -> Pair:
    """One step of the discrete Lagrangian flow.

    Solves for (eps1, m2), from the ``_default_guess`` seed, such that
    phi(eps1) = m1 and the discrete Euler-Lagrange covector vanishes.
    The Newton Jacobian is ``sys._newton_jac`` (see there).
    Raises NonConvergence or SingularJacobian when the implicit solve
    fails, which signals a failure of the flow's regularity hypotheses.
    """
    b = sys.bundle
    n, nb = b.total_dim, b.base_dim
    eps0 = as_vector(eps0, n)
    m1 = as_vector(m1, nb)
    covector = _del_covector(sys, np.concatenate([eps0, m1]))

    def residual(z):
        out = np.empty(n + nb)
        out[:n] = covector(z)
        out[n:] = b.phi(z[:n]) - m1
        return out

    handle = SmoothMapHandle(n + nb, n + nb, residual, jac=sys._newton_jac)
    z = newton_solve(handle, _default_guess(sys, eps0, m1), cfg)
    return z[:n], z[n:]


def simulate(sys: DlpsSystem, eps0, m1, n_steps: int,
             cfg: NewtonConfig | None = None) -> DiscretePath:
    """Chain ``step`` n_steps times from (eps0, m1).

    When a step's solve fails (a SolverError, such as NonConvergence or
    SingularJacobian, or a DomainError), raises SimulationError
    carrying the partial path and the failing step index, so diagnostics
    can run on partial data. Any other exception propagates as itself.
    A negative ``n_steps`` raises ValueError.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative (got {n_steps})")
    pairs = [(as_vector(eps0, sys.bundle.total_dim),
              as_vector(m1, sys.bundle.base_dim))]
    for k in range(n_steps):
        try:
            nxt = step(sys, pairs[-1][0], pairs[-1][1], cfg=cfg)
        except _STEP_FAILURES as exc:
            raise SimulationError(k, make_path(pairs), exc) from exc
        pairs.append(nxt)
    return make_path(pairs)


def from_dms(config_dim: int, lagrangian: SmoothMapHandle) -> DlpsSystem:
    """Embed a discrete mechanical system (Q, L_d) as the identity bundle.

    The chaining map is identically zero, so the equations of motion
    reduce to the usual two-term discrete Euler-Lagrange equation, and a
    ``hess`` on the Lagrangian gives ``step`` its exact Newton Jacobian
    (``DlpsSystem._newton_jac``).
    ``ivcm_matrix`` returns one shared read-only zero matrix.
    """
    if lagrangian.in_dim != 2 * config_dim:
        raise ValueError("DMS Lagrangian must live on Q x Q")
    bundle = FiberBundleModel(phi=identity_map(config_dim),
                              section=identity_map(config_dim))
    zero = np.zeros((config_dim, config_dim))
    zero.flags.writeable = False
    return DlpsSystem(bundle=bundle, lagrangian=lagrangian,
                      ivcm_matrix=lambda x0, x1: zero)


def build_fixed_endpoint_variation(sys: DlpsSystem, path: DiscretePath,
                                   tilde_deltas: Sequence[np.ndarray]) -> DiscretePath:
    """Assemble the fixed-endpoint variation generated by free vectors.

    ``tilde_deltas[k-1]`` is the free tangent at eps_k for k = 1..N-1.
    The last free vector is taken as is, earlier ones receive the chained
    contribution of their successor, the k = 0 slot is pure chaining, and
    base deltas follow d phi. The final base delta is zero. Row k of the
    returned path is (delta eps_k, delta m_{k+1}).
    """
    n_pairs = len(path)
    if n_pairs < 2:
        raise ValueError("need a path with at least two pairs")
    if len(tilde_deltas) != n_pairs - 1:
        raise ValueError("need one free vector per interior index")
    tilde = [as_vector(d, sys.bundle.total_dim) for d in tilde_deltas]

    x = path.points
    d_eps = [None] * n_pairs
    d_eps[n_pairs - 1] = tilde[-1]
    for k in range(n_pairs - 2, 0, -1):
        d_eps[k] = tilde[k - 1] + sys.ivcm_matrix(x[k], x[k + 1]) @ tilde[k]
    d_eps[0] = sys.ivcm_matrix(x[0], x[1]) @ tilde[0]

    deltas = []
    for k in range(n_pairs):
        if k + 1 <= n_pairs - 1:
            jphi = sys.bundle.phi.jacobian(path[k + 1][0])
            dm = jphi @ d_eps[k + 1]
        else:
            dm = np.zeros(sys.bundle.base_dim)
        deltas.append((d_eps[k], dm))
    return make_path(deltas)


def action_derivative(sys: DlpsSystem, path: DiscretePath,
                      variation: DiscretePath) -> float:
    """Directional derivative of the action along a variation, by FD.

    The step in t is ``DEFAULT_FD_STEP`` over the largest fiber delta
    (at least 1).
    """
    if len(variation) != len(path):
        raise ValueError("variation and path lengths differ")
    n = path.total_dim

    def shifted(t):
        return action_sum(sys, DiscretePath(path.points + t[0] * variation.points, n))

    scale = max(1.0, float(np.max(np.abs(variation.points[:, :n]), initial=0.0)))
    return float(jacobian_fd(shifted, np.zeros(1),
                             step=DEFAULT_FD_STEP / scale)[0, 0])


# --- small canonical systems ------------------------------------------------

def _check_timestep(h: float):
    """Reject a zero or non-finite timestep, which no Lagrangian survives."""
    if h == 0 or not np.isfinite(h):
        raise ValueError(f"timestep must be finite and nonzero (got {h})")


def _kinetic_hessian(dim: int, h: float) -> np.ndarray:
    """Hessian of |q1 - q0|^2 / (2h) on R^dim x R^dim."""
    H = np.eye(2 * dim) / h
    H[:dim, dim:] = H[dim:, :dim] = -H[:dim, :dim]
    return H


def free_particle_dms(dim: int = 1, h: float = 1.0) -> DlpsSystem:
    """L_d(q0, q1) = |q1 - q0|^2 / (2h) on R^dim: the harmonic oscillator
    with omega = 0."""
    return harmonic_oscillator_dms(h=h, omega=0.0, dim=dim)


def harmonic_oscillator_dms(h: float = 0.1, omega: float = 1.0,
                            dim: int = 1) -> DlpsSystem:
    """L_d(q0, q1) = |q1 - q0|^2 / (2h) - (h/2) omega^2 |q0|^2; its
    ``hess`` is the constant array."""
    _check_timestep(h)
    try:
        omega_sq = float(omega) ** 2
    except OverflowError:
        omega_sq = np.inf
    if not np.isfinite(h * omega_sq):
        raise ValueError(f"h * omega^2 must be finite (got h={h}, omega={omega})")
    hess = _kinetic_hessian(dim, h)
    hess[:dim, :dim] -= h * omega ** 2 * np.eye(dim)

    def L(x):
        q0, q1 = x[:dim], x[dim:]
        d = q1 - q0
        return np.array([float(d @ d) / (2.0 * h)
                         - 0.5 * h * omega ** 2 * float(q0 @ q0)])

    def dL(x):
        q0, q1 = x[:dim], x[dim:]
        v = (q1 - q0) / h
        return np.concatenate([-v - h * omega ** 2 * q0, v])

    return from_dms(dim, SmoothMapHandle(2 * dim, 1, L, jac=dL, hess=hess))
