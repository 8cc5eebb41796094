"""Lie groups, Lie algebras and smooth left actions.

Concrete models for the planar special Euclidean group SE(2), the circle
group U(1) and the translation group T2 (isomorphic to the complex
plane), with their actions on pairs of plane points and U(1)'s rotation
of the plane. A group element is its 1-D float coordinate array; SE(2)
stores its rotation as a unit complex number (a_re, a_im, v_re, v_im)
and renormalizes after every product so |A| = 1 survives long
composition chains.

Model closures take 1-D float ndarrays. Those of SE(2), U(1) and the
planar actions read their inputs once with ``.tolist()``, do the
complex arithmetic on Python floats, term by term in the order of the
complex formulas, and build one array for the result, so their values
are bit-identical to the complex formulas evaluated over 2-element
numpy arrays. Norms use ``np.hypot``: ``math.hypot`` differs from it in
the last bit on some inputs.

Lie-algebra elements are coordinate vectors against the standard basis of
each group's parameter space; no abstract bracket is implemented. Each
shipped action carries its infinitesimal generators in closed form, so
``orbit_frame`` is exact on it; an action without them gets the central
difference of the action at the identity, which also serves the tests as
the oracle of every closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .smooth import as_vector, jacobian_fd


@dataclass(frozen=True, eq=False)
class LieGroupModel:
    """A Lie group given by explicit coordinate operations.

    A group element is a 1-D float array with the length of ``identity``;
    ``compose``, ``inverse`` and ``from_params`` take and return such
    arrays. ``dim`` is the Lie-algebra dimension; ``from_params`` is a
    chart R^dim -> G with ``from_params(0) = identity`` whose differential
    at 0 is the identity on algebra coordinates. It serves the
    Newton-based solves over the group, sampling, and the difference
    fallback of the infinitesimal generators. SE(2) and U(1) compute in
    float arithmetic on ``g.tolist()``, bit-identical to their complex
    formulas (see the module docstring).
    """

    dim: int
    identity: np.ndarray
    compose: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    from_params: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ActionModel:
    """A smooth left action of ``group`` on R^space_dim.

    ``match``, when given, solves ``act(g, a) = b`` for g in closed form;
    callers verify the result and fall back to a generic solve otherwise.
    ``generators``, when given, is the infinitesimal generators in closed
    form: a callable of q returning the (space_dim, group.dim) matrix
    whose i-th column is d/dt act(from_params(t e_i), q) at t = 0 or, for
    a linear action, that constant array itself, checked and stored
    read-only as a constant ``SmoothMapHandle.jac`` is. It must agree
    with ``orbit_frame``'s central differences; that is checked by tests,
    not at call time. The closures receive 1-D float ndarrays of length
    ``space_dim`` that their callers have checked, and do not check them
    again. The shipped planar actions compute in float arithmetic on
    ``.tolist()``, bit-identical to their complex formulas (see the
    module docstring).
    """

    group: LieGroupModel
    space_dim: int
    act: Callable[[np.ndarray, np.ndarray], np.ndarray]
    match: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    generators: Optional[Callable[[np.ndarray], np.ndarray] | np.ndarray] = None

    def __post_init__(self):
        if isinstance(self.generators, np.ndarray):
            value = np.array(self.generators, dtype=float)
            shape = (self.space_dim, self.group.dim)
            if value.shape != shape:
                raise ValueError(f"generators has shape {value.shape}, not {shape}")
            value.flags.writeable = False
            object.__setattr__(self, "generators", value)


def sample_group(G: LieGroupModel, rng: np.random.Generator, scale: float = 1.5) -> np.ndarray:
    """A pseudo-random group element via the parameter chart."""
    return G.from_params(rng.uniform(-scale, scale, size=G.dim))


def orbit_frame(action: ActionModel, q) -> np.ndarray:
    """Matrix whose columns are the infinitesimal generators at q: the
    action's closed-form ``generators`` (a constant one as stored), else
    the central-difference Jacobian of theta -> act(from_params(theta), q)
    at 0, where the chart's differential is the identity."""
    q = as_vector(q, action.space_dim)
    if isinstance(action.generators, np.ndarray):
        return action.generators
    if action.generators is not None:
        return np.asarray(action.generators(q), dtype=float).reshape(
            action.space_dim, action.group.dim)
    return jacobian_fd(lambda theta: action.act(action.group.from_params(theta), q),
                       np.zeros(action.group.dim))


# --- complex helpers over (re, im) float pairs ---------------------------

def _cmul(a_re, a_im, b_re, b_im):
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _cnormalize(re, im):
    n = float(np.hypot(re, im))
    if n == 0.0:
        raise ZeroDivisionError("cannot normalize the zero complex number")
    return re / n, im / n


# --- concrete groups ------------------------------------------------------

def u1_group() -> LieGroupModel:
    """U(1) as unit complex numbers (a_re, a_im)."""
    e = np.array([1.0, 0.0])

    def comp(g1, g2):
        return np.array(_cnormalize(*_cmul(*g1.tolist(), *g2.tolist())))

    def inv(g):
        a_re, a_im = _cnormalize(*g.tolist())
        return np.array([a_re, -a_im])

    def from_params(p):
        (t,) = as_vector(p, 1).tolist()
        return np.array([np.cos(t), np.sin(t)])

    return LieGroupModel(dim=1, identity=e, compose=comp, inverse=inv,
                         from_params=from_params)


def t2_group() -> LieGroupModel:
    """The planar translation group, isomorphic to (C, +)."""
    e = np.zeros(2)
    return LieGroupModel(
        dim=2, identity=e,
        compose=lambda g1, g2: g1 + g2,
        inverse=lambda g: -g,
        from_params=lambda p: as_vector(p, 2).copy(),
    )


def se2_group() -> LieGroupModel:
    """SE(2) = {(A, v) in C^2 : |A| = 1} with (A1,v1)(A2,v2) = (A1 A2, A1 v2 + v1).

    Coordinates (a_re, a_im, v_re, v_im); the rotation is renormalized
    after every composition. Parameters are (angle, v_re, v_im).
    """
    e = np.array([1.0, 0.0, 0.0, 0.0])

    def comp(g1, g2):
        a1r, a1i, v1r, v1i = g1.tolist()
        a2r, a2i, v2r, v2i = g2.tolist()
        a_re, a_im = _cnormalize(*_cmul(a1r, a1i, a2r, a2i))
        w_re, w_im = _cmul(a1r, a1i, v2r, v2i)
        return np.array([a_re, a_im, w_re + v1r, w_im + v1i])

    def inv(g):
        a_re, a_im, v_re, v_im = g.tolist()
        a_re, a_im = _cnormalize(a_re, a_im)
        w_re, w_im = _cmul(a_re, -a_im, v_re, v_im)
        return np.array([a_re, -a_im, -w_re, -w_im])

    def from_params(p):
        t, v_re, v_im = as_vector(p, 3).tolist()
        return np.array([np.cos(t), np.sin(t), v_re, v_im])

    return LieGroupModel(dim=3, identity=e, compose=comp, inverse=inv,
                         from_params=from_params)


# --- concrete actions -----------------------------------------------------

def se2_two_point_action() -> ActionModel:
    """The diagonal SE(2) action on pairs of plane points (R^4)."""
    G = se2_group()

    def act(g, q):
        a_re, a_im, v_re, v_im = g.tolist()
        x_re, x_im, y_re, y_im = q.tolist()
        return np.array([a_re * x_re - a_im * x_im + v_re,
                         a_re * x_im + a_im * x_re + v_im,
                         a_re * y_re - a_im * y_im + v_re,
                         a_re * y_im + a_im * y_re + v_im])

    def match(qa, qb):
        # Solve A(qa^x - qa^y) = qb^x - qb^y for the rotation, then read
        # the translation off the first point.
        xa_re, xa_im, ya_re, ya_im = qa.tolist()
        xb_re, xb_im, yb_re, yb_im = qb.tolist()
        da_re, da_im = xa_re - ya_re, xa_im - ya_im
        if float(np.hypot(da_re, da_im)) == 0.0:
            raise ZeroDivisionError("coincident source points")
        a_re, a_im = _cnormalize(*_cmul(xb_re - yb_re, xb_im - yb_im, da_re, -da_im))
        w_re, w_im = _cmul(a_re, a_im, xa_re, xa_im)
        return np.array([a_re, a_im, xb_re - w_re, xb_im - w_im])

    def generators(q):
        # Columns: the rotation i x, i y, then the two translations.
        x_re, x_im, y_re, y_im = q.tolist()
        return np.array([[-x_im, 1.0, 0.0],
                         [x_re, 0.0, 1.0],
                         [-y_im, 1.0, 0.0],
                         [y_re, 0.0, 1.0]])

    return ActionModel(group=G, space_dim=4, act=act, match=match,
                       generators=generators)


def t2_two_point_action() -> ActionModel:
    """T2 acting on pairs of plane points by the same translation."""
    G = t2_group()

    def act(g, q):
        g_re, g_im = g.tolist()
        x_re, x_im, y_re, y_im = q.tolist()
        return np.array([x_re + g_re, x_im + g_im, y_re + g_re, y_im + g_im])

    def match(qa, qb):
        xa_re, xa_im, _, _ = qa.tolist()
        xb_re, xb_im, _, _ = qb.tolist()
        return np.array([xb_re - xa_re, xb_im - xa_im])

    return ActionModel(group=G, space_dim=4, act=act, match=match,
                       generators=np.vstack([np.eye(2), np.eye(2)]))


def u1_plane_action() -> ActionModel:
    """U(1) acting on the plane by rotation z -> A z."""
    G = u1_group()

    def act(g, q):
        return np.array(_cmul(*g.tolist(), *q.tolist()))

    def match(qa, qb):
        a_re, a_im = qa.tolist()
        return np.array(_cnormalize(*_cmul(*qb.tolist(), a_re, -a_im)))

    def generators(q):
        q_re, q_im = q.tolist()
        return np.array([[-q_im], [q_re]])

    return ActionModel(group=G, space_dim=2, act=act, match=match,
                       generators=generators)
