"""Lie groups, Lie algebras and smooth left actions.

Concrete models for the planar special Euclidean group SE(2), the circle
group U(1), the translation group T2 (isomorphic to the complex plane)
and the quotient homomorphism SE(2) -> SE(2)/T2 = U(1). A group element
is its 1-D float coordinate array; SE(2) stores its rotation as a unit
complex number (a_re, a_im, v_re, v_im) and renormalizes after every
product so |A| = 1 survives long composition chains.

Lie-algebra elements are coordinate vectors against the standard basis of
each group's parameter space; no abstract bracket is implemented.
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
    Newton-based solves over the group, sampling, and the infinitesimal
    generators.
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
    Both receive float vectors of length ``space_dim`` that their callers
    have checked, and do not check them again.
    """

    group: LieGroupModel
    space_dim: int
    act: Callable[[np.ndarray, np.ndarray], np.ndarray]
    match: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


def conjugate(G: LieGroupModel, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Conjugation g h g^{-1}."""
    return G.compose(G.compose(g, h), G.inverse(g))


def sample_group(G: LieGroupModel, rng: np.random.Generator, scale: float = 1.5) -> np.ndarray:
    """A pseudo-random group element via the parameter chart."""
    return G.from_params(rng.uniform(-scale, scale, size=G.dim))


def orbit_frame(action: ActionModel, q) -> np.ndarray:
    """Matrix whose columns are the infinitesimal generators at q: the
    central-difference Jacobian of theta -> act(from_params(theta), q)
    at 0, where the chart's differential is the identity."""
    q = as_vector(q, action.space_dim)
    return jacobian_fd(lambda theta: action.act(action.group.from_params(theta), q),
                       np.zeros(action.group.dim))


def infinitesimal_generator(action: ActionModel, xi_index: int, q) -> np.ndarray:
    """d/dt|_0 act(from_params(t * xi_i), q): column ``xi_index`` of the orbit frame."""
    return orbit_frame(action, q)[:, xi_index]


# --- complex helpers over (re, im) pairs ---------------------------------

def _cmul(a, b):
    return np.array([a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]])


def _cconj(a):
    return np.array([a[0], -a[1]])


def _cnormalize(a):
    n = float(np.hypot(a[0], a[1]))
    if n == 0.0:
        raise ZeroDivisionError("cannot normalize the zero complex number")
    return a / n


# --- concrete groups ------------------------------------------------------

def trivial_group() -> LieGroupModel:
    """The one-element group, useful for degenerate reductions."""
    e = np.zeros(0)
    return LieGroupModel(
        dim=0, identity=e,
        compose=lambda g1, g2: e,
        inverse=lambda g: e,
        from_params=lambda p: e,
    )


def u1_group() -> LieGroupModel:
    """U(1) as unit complex numbers (a_re, a_im)."""
    e = np.array([1.0, 0.0])

    def comp(g1, g2):
        return _cnormalize(_cmul(g1, g2))

    def inv(g):
        return _cconj(_cnormalize(g))

    def from_params(p):
        t = float(as_vector(p, 1)[0])
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
        a1, v1 = g1[:2], g1[2:]
        a2, v2 = g2[:2], g2[2:]
        return np.concatenate([_cnormalize(_cmul(a1, a2)), _cmul(a1, v2) + v1])

    def inv(g):
        a, v = _cnormalize(g[:2]), g[2:]
        ainv = _cconj(a)
        return np.concatenate([ainv, -_cmul(ainv, v)])

    def from_params(p):
        p = as_vector(p, 3)
        return np.array([np.cos(p[0]), np.sin(p[0]), p[1], p[2]])

    return LieGroupModel(dim=3, identity=e, compose=comp, inverse=inv,
                         from_params=from_params)


def project_to_quotient(g: np.ndarray) -> np.ndarray:
    """The quotient homomorphism SE(2) -> SE(2)/T2 = U(1): keep the rotation."""
    return _cnormalize(as_vector(g, 4)[:2])


# --- concrete actions -----------------------------------------------------

def se2_plane_action() -> ActionModel:
    """SE(2) acting on the plane by z -> A z + v."""
    G = se2_group()

    def act(g, q):
        a, v = g[:2], g[2:]
        return _cmul(a, q) + v

    return ActionModel(group=G, space_dim=2, act=act)


def se2_two_point_action() -> ActionModel:
    """The diagonal SE(2) action on pairs of plane points (R^4)."""
    G = se2_group()

    def act(g, q):
        a, v = g[:2], g[2:]
        return np.concatenate([_cmul(a, q[:2]) + v, _cmul(a, q[2:]) + v])

    def match(qa, qb):
        # Solve A(qa^x - qa^y) = qb^x - qb^y for the rotation, then read
        # the translation off the first point.
        da, db = qa[:2] - qa[2:], qb[:2] - qb[2:]
        na = float(np.hypot(*da))
        if na == 0.0:
            raise ZeroDivisionError("coincident source points")
        a = _cnormalize(_cmul(db, _cconj(da)))
        v = qb[:2] - _cmul(a, qa[:2])
        return np.concatenate([a, v])

    return ActionModel(group=G, space_dim=4, act=act, match=match)


def t2_two_point_action() -> ActionModel:
    """T2 acting on pairs of plane points by the same translation."""
    G = t2_group()

    def act(g, q):
        return np.concatenate([q[:2] + g, q[2:] + g])

    def match(qa, qb):
        return qb[:2] - qa[:2]

    return ActionModel(group=G, space_dim=4, act=act, match=match)


def u1_plane_action() -> ActionModel:
    """U(1) acting on the plane by rotation z -> A z."""
    G = u1_group()

    def act(g, q):
        return _cmul(g, q)

    def match(qa, qb):
        return _cnormalize(_cmul(qb, _cconj(qa)))

    return ActionModel(group=G, space_dim=2, act=act, match=match)


def trivial_action(space_dim: int) -> ActionModel:
    G = trivial_group()
    return ActionModel(group=G, space_dim=space_dim,
                       act=lambda g, q: as_vector(q, space_dim).copy(),
                       match=lambda qa, qb: G.identity)
