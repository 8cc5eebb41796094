"""Numerical calculus substrate.

Smooth-map handles over flat coordinates, central finite differences,
dense linear solves and a damped Newton iteration. Everything downstream
(connections, discrete Euler-Lagrange residuals, reduction, diagnostics)
is built on these few primitives, and this module is the one place that
takes a central difference: every other module calls ``jacobian_fd``,
``gradient_fd5`` or ``directional_derivative``. Their conventions are
fixed here once:

* all manifolds are represented in global coordinates as R^n;
* central differences use a per-coordinate step ``step * (1 + |x_i|)``
  with ``step = eps**(1/3)`` (``eps**(1/5)`` for the fourth-order
  ``gradient_fd5``); only ``jacobian_fd`` takes another ``step``;
* a difference evaluates its map only at the stencil points, never at
  the centre.

A handle's closed-form derivatives come first and the differences are
their fallback and test oracle: ``jac`` replaces ``jacobian_fd`` in
``.jacobian``, and on a scalar map ``hess`` gives the Hessian. A
constant ``jac`` may be the array itself, the mark of an affine map, and
a constant ``hess`` likewise, the mark of a quadratic one. A
Lagrangian's ``jac`` drives D1/D2 of the equations of motion, and its
``hess`` the exact Newton Jacobian of a step on an affine bundle map;
without them, D1/D2 take ``gradient_fd5`` and ``newton_solve``
takes ``jacobian_fd`` of its residual.

Shapes are checked once, at the boundary. ``SmoothMapHandle.__call__``
and ``.jacobian``, ``newton_solve``, the difference primitives and the
public entry points that take caller data coerce through ``as_vector``.
The closures that models, actions and connections are built from
receive arrays already checked (a handle's input, a handle's output, or
a slice of one) and do not check them again; a closure that returns a
value of the wrong length is caught by the next handle it feeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergence, SingularJacobian

EPS = float(np.finfo(float).eps)
#: Default central-difference step scale (relative; scaled by 1 + |x_i|).
DEFAULT_FD_STEP = EPS ** (1.0 / 3.0)
#: Step scale for the fourth-order stencil used on Lagrangian gradients.
FD_STEP_GRADIENT = EPS ** (1.0 / 5.0)


def as_vector(x, dim=None):
    """Coerce to a 1-d float array, optionally checking its length.

    A scalar (0-d) input becomes a length-1 vector.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        if v.ndim:
            raise ValueError(f"expected a vector, got shape {v.shape}")
        v = v.reshape(1)
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected length {dim}, got {v.shape[0]}")
    return v


@dataclass(frozen=True, eq=False)
class SmoothMapHandle:
    """An evaluatable map R^in_dim -> R^out_dim with optional Jacobian.

    ``eval`` must accept a 1-d array of length ``in_dim`` and return a
    1-d array of length ``out_dim`` (scalars are promoted). ``jac`` is a
    callable of x or, when constant, the (out_dim, in_dim) array itself,
    stored as a read-only copy. It must agree with central finite
    differences; that is checked by tests, not at call time. On a
    discrete Lagrangian the ``jac`` (the gradient) drives the slot
    derivatives D1/D2 of the equations of motion; without one they fall
    back to the fourth-order stencil of ``gradient_fd5``.

    A scalar map (``out_dim`` 1) may also carry ``hess``, its closed-form
    second derivative: a callable of x returning an (in_dim, in_dim)
    matrix or, when constant, that array itself, checked and stored
    read-only as ``jac`` is. It must agree with central differences of
    ``jac``. On a discrete Lagrangian it gives the exact Newton Jacobian
    of the step (see ``dlps.DlpsSystem``).
    """

    in_dim: int
    out_dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray] | np.ndarray] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray] | np.ndarray] = None

    def __post_init__(self):
        if self.hess is not None and self.out_dim != 1:
            raise ValueError("only a scalar map (out_dim 1) carries a hess")
        for name, shape in (("jac", (self.out_dim, self.in_dim)),
                            ("hess", (self.in_dim, self.in_dim))):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value = np.array(value, dtype=float)
                if value.shape != shape:
                    raise ValueError(f"{name} has shape {value.shape}, not {shape}")
                value.flags.writeable = False
                object.__setattr__(self, name, value)

    def __call__(self, x) -> np.ndarray:
        x = as_vector(x, self.in_dim)
        return as_vector(self.eval(x), self.out_dim)

    def jacobian(self, x, step: float | None = None) -> np.ndarray:
        """Analytic Jacobian (a constant one as stored), else central differences."""
        x = as_vector(x, self.in_dim)
        if isinstance(self.jac, np.ndarray):
            return self.jac
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=float).reshape(self.out_dim, self.in_dim)
        return jacobian_fd(self, x, step=step)

    def hessian(self, x) -> np.ndarray:
        """The closed-form ``hess`` at x (a constant one as stored); there
        is no difference fallback."""
        if self.hess is None:
            raise ValueError("this map carries no closed-form hess")
        x = as_vector(x, self.in_dim)
        if isinstance(self.hess, np.ndarray):
            return self.hess
        return np.asarray(self.hess(x), dtype=float).reshape(self.in_dim, self.in_dim)


def identity_map(dim: int) -> SmoothMapHandle:
    return SmoothMapHandle(dim, dim, lambda x: x, jac=np.eye(dim))


def jacobian_fd(f, x, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``x``.

    The step per coordinate is ``step * (1 + |x_i|)``. ``f`` is evaluated
    at the 2n stencil points only, not at ``x`` itself (once at ``x`` when
    n = 0, for the output length), so a warm-started ``f`` sees the same
    sequence of calls as a hand-written stencil. Domain errors from ``f``
    propagate.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 0:
        return np.empty((as_vector(f(x)).shape[0], 0))
    h0 = DEFAULT_FD_STEP if step is None else float(step)
    cols = []
    for i in range(x.shape[0]):
        h = h0 * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((as_vector(f(xp)) - as_vector(f(xm))) / (2.0 * h))
    return np.column_stack(cols)


def gradient_fd5(f, x) -> np.ndarray:
    """Fourth-order central-difference gradient of a scalar map.

    The five-point stencil keeps the rounding floor near eps^(4/5)|f| and
    is exact on polynomials of degree four, which covers every shipped
    Lagrangian. The same stencil is the fallback for Lagrangians without
    a ``jac`` in the discrete Euler-Lagrange residuals, where the two-point
    floor would sit above the solver tolerance, and the oracle that the
    closed-form gradients are tested against.
    """
    x = np.asarray(x, dtype=float)

    def val(y):
        return float(as_vector(f(y), 1)[0])

    g = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        h = FD_STEP_GRADIENT * (1.0 + abs(x[i]))
        xp, xm, xp2, xm2 = x.copy(), x.copy(), x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        xp2[i] += 2.0 * h
        xm2[i] -= 2.0 * h
        g[i] = (8.0 * (val(xp) - val(xm)) - (val(xp2) - val(xm2))) / (12.0 * h)
    return g


def directional_derivative(f, x, v) -> np.ndarray:
    """Central difference of ``t -> f(x + t v)`` at ``t = 0``."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    scale = max(1.0, float(np.abs(v).max(initial=0.0)))
    h = DEFAULT_FD_STEP * (1.0 + float(np.abs(x).max(initial=0.0))) / scale
    hv = h * v
    return (as_vector(f(x + hv)) - as_vector(f(x - hv))) / (2.0 * h)


def _float_or_inf(value) -> float:
    """``float(value)``; a real number too large for a float, such as a
    400-digit integer, is +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class NewtonConfig:
    """Tolerance and iteration budget of the damped Newton iteration:
    ``residual_tol`` is a positive and finite number (a bool not), stored
    as a float, and ``max_iters`` an integer (a numpy integer too, a bool
    not) of at least 1."""

    residual_tol: float = 1e-12
    max_iters: int = 50

    def __post_init__(self):
        tol = self.residual_tol
        if (isinstance(tol, bool)
                or not isinstance(tol, (int, float, np.integer, np.floating))
                or not 0 < _float_or_inf(tol) < np.inf):
            raise ValueError(
                f"residual_tol must be positive and finite (got {tol!r})")
        object.__setattr__(self, "residual_tol", float(tol))
        iters = self.max_iters
        if (isinstance(iters, bool) or not isinstance(iters, (int, np.integer))
                or iters < 1):
            raise ValueError(
                f"max_iters must be an integer of at least 1 (got {iters!r})")


#: The settings of a ``newton_solve`` given no config.
_DEFAULT_NEWTON = NewtonConfig()

#: Backtracking halvings tried per Newton iteration before it stalls.
MAX_HALVINGS = 20


def _inf_norm(r):
    """max |r_i| (0.0 for an empty r; NaN when any entry is NaN)."""
    return float(np.abs(r).max()) if r.size else 0.0


def newton_solve(residual: SmoothMapHandle, x0, cfg: NewtonConfig | None = None) -> np.ndarray:
    """Solve ``residual(x) = 0`` by damped Newton iteration.

    Each iteration backtracks from the full Newton step, halving it until
    the residual's max norm falls. Returns x with
    ``||residual(x)||_inf < cfg.residual_tol``; raises NonConvergence at
    once when the residual at ``x0`` is not finite, when the iteration
    budget is exhausted or when ``MAX_HALVINGS`` halvings all fail to
    lower the residual (a stall), and SingularJacobian when the dense
    linear solve fails. There are no silent near-solutions.
    """
    cfg = cfg or _DEFAULT_NEWTON
    if residual.in_dim != residual.out_dim:
        raise ValueError("newton_solve needs a square residual map")
    x = as_vector(x0, residual.in_dim).copy()
    if x.size == 0:
        return x
    r = residual(x)
    rnorm = _inf_norm(r)
    if not math.isfinite(rnorm):
        raise NonConvergence(f"Newton residual at the starting point is {rnorm}",
                             residual_norm=rnorm, last_iterate=x)
    for it in range(cfg.max_iters):
        if rnorm < cfg.residual_tol:
            return x
        J = residual.jacobian(x)
        if not np.isfinite(J).all():
            raise SingularJacobian("non-finite Jacobian entries")
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        t = 1.0
        for _ in range(MAX_HALVINGS):
            trial = residual(x + t * delta)
            if _inf_norm(trial) < rnorm:
                break
            t *= 0.5
        else:
            raise NonConvergence(
                f"Newton line search stalled at iteration {it}: no step "
                f"among {MAX_HALVINGS} halvings lowers the residual "
                f"{rnorm:.3e}", residual_norm=rnorm, last_iterate=x)
        x = x + t * delta
        r = trial
        rnorm = _inf_norm(r)
    if rnorm < cfg.residual_tol:
        return x
    raise NonConvergence(
        f"Newton did not reach tolerance {cfg.residual_tol:g} in "
        f"{cfg.max_iters} iterations (residual {rnorm:.3e})",
        residual_norm=rnorm, last_iterate=x)
