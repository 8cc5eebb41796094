"""Reference constructions the tests check the library against.

None of these is reached by the library, the CLI, the demos or the
benchmark; the tests import them with ``from oracles import ...``.

- ``conjugate``: g h g^{-1} through the group's own ``compose`` and
  ``inverse``, the oracle of ``two_stage``'s conjugation check.
- ``trivial_group``, ``trivial_action`` and ``trivial_reduction``: the
  one-element group and the reduction by it, whose reduced system
  coincides with its input.
- ``horizontal_lift`` and ``mechanical_connection_flat``: a connection's
  horizontal lift, and the discrete connection of a flat metric solved
  by Newton over the group parameters, the oracle of the closed-form
  T2 and SE(2) connections.
- ``canonical_step_map``: the one-step map of a DMS in discrete Legendre
  coordinates (q, p), each step re-solving -D1 L_d(q0, q1) = p0 for q1
  by Newton: the Legendre-chart oracle of ``bracket_of_pullbacks``,
  whose preservation of the canonical form is tested too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from dlpsim.connection import DiscreteConnection, QuotientModel
from dlpsim.dlps import DlpsSystem, d1_lagrangian, d2_lagrangian
from dlpsim.errors import DomainError, NonConvergence, SingularJacobian
from dlpsim.lie import ActionModel, LieGroupModel, orbit_frame
from dlpsim.reduction import ReductionResult, build_upsilon, reduce
from dlpsim.smooth import (NewtonConfig, SmoothMapHandle, as_vector,
                           identity_map, newton_solve)


def conjugate(G: LieGroupModel, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Conjugation g h g^{-1}."""
    return G.compose(G.compose(g, h), G.inverse(g))


def trivial_group() -> LieGroupModel:
    """The one-element group, useful for degenerate reductions."""
    e = np.zeros(0)
    return LieGroupModel(
        dim=0, identity=e,
        compose=lambda g1, g2: e,
        inverse=lambda g: e,
        from_params=lambda p: e,
    )


def trivial_action(space_dim: int) -> ActionModel:
    G = trivial_group()
    return ActionModel(group=G, space_dim=space_dim,
                       act=lambda g, q: as_vector(q, space_dim).copy(),
                       match=lambda qa, qb: G.identity,
                       generators=np.zeros((space_dim, 0)))


def horizontal_lift(conn: DiscreteConnection, q0, r1) -> np.ndarray:
    """The point q1 over r1 with ad(q0, q1) = e."""
    q0 = as_vector(q0, conn.quotient.total_dim)
    r1 = as_vector(r1, conn.quotient.base_dim)
    return as_vector(conn.hor_lift(q0, r1), conn.quotient.total_dim)


def mechanical_connection_flat(metric, quotient: QuotientModel) -> DiscreteConnection:
    """Discrete connection from a flat metric and an isometric action.

    Horizontal pairs are those whose difference is metric-orthogonal to
    the group orbit at the first point (geodesics are straight lines, so
    the geodesic construction degenerates to this orthogonality). The
    orbit is spanned by ``orbit_frame``, exact for an action with
    closed-form generators (every shipped one) and central differences
    otherwise. The group offset is solved by Newton (to 1e-13) over the
    group parameters, starting at the identity; a failed solve surfaces
    as DomainError.
    """
    action = quotient.action
    G = action.group
    M = np.asarray(metric, dtype=float)
    if M.shape != (quotient.total_dim, quotient.total_dim):
        raise ValueError("metric shape does not match the total space")
    if not np.allclose(M, M.T):
        raise ValueError("metric must be symmetric")
    cfg = NewtonConfig(residual_tol=1e-13)

    def _horizontality(q0, q1):
        frame = orbit_frame(action, q0)
        return frame.T @ (M @ (q1 - q0))

    def ad_form(q0, q1):
        def res(theta):
            g = G.from_params(theta)
            q1h = action.act(G.inverse(g), q1)
            return _horizontality(q0, q1h)

        handle = SmoothMapHandle(G.dim, G.dim, res)
        try:
            theta = newton_solve(handle, np.zeros(G.dim), cfg)
        except (NonConvergence, SingularJacobian) as exc:
            raise DomainError(
                f"no group offset renders ({q0}, {q1}) horizontal: {exc}") from exc
        return G.from_params(theta)

    def hor_lift(q0, r1):
        base = quotient.section(r1)

        def res(theta):
            q1 = action.act(G.from_params(theta), base)
            return _horizontality(q0, q1)

        handle = SmoothMapHandle(G.dim, G.dim, res)
        try:
            theta = newton_solve(handle, np.zeros(G.dim), cfg)
        except (NonConvergence, SingularJacobian) as exc:
            raise DomainError(
                f"no horizontal point over {r1} from {q0}: {exc}") from exc
        return action.act(G.from_params(theta), base)

    return DiscreteConnection(quotient=quotient, ad_form=ad_form, hor_lift=hor_lift)


def trivial_reduction(sys: DlpsSystem,
                      sample_cprime: Callable[[np.random.Generator], np.ndarray],
                      rng: np.random.Generator | None = None) -> ReductionResult:
    """Reduction by the one-element group: the identity model.

    Exercises the generic machinery end to end; the reduced system's
    dynamics coincide with the input's.
    """
    nE, nM = sys.bundle.total_dim, sys.bundle.base_dim
    quotient = QuotientModel(project=identity_map(nM), section=identity_map(nM),
                             action=trivial_action(nM),
                             sample=lambda r: sample_cprime(r)[nE:])
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


def canonical_step_map(sys: DlpsSystem, q1_guess) -> Callable[[np.ndarray], np.ndarray]:
    """The one-step map of a DMS in discrete Legendre coordinates
    (q, p) -> (q', p').

    Given (q0, p0), the next configuration q1 solves -D1 L_d(q0, q1) = p0
    (Newton to 1e-10, warm-started at ``q1_guess`` and then at the last
    solution); the new momentum is D2 L_d(q0, q1).
    """
    n = sys.bundle.total_dim
    cfg = NewtonConfig(residual_tol=1e-10)
    state = {"guess": as_vector(q1_guess, n).copy()}

    def phi(z):
        q0, p0 = z[:n], z[n:]
        res = SmoothMapHandle(n, n, lambda q1: d1_lagrangian(sys, q0, q1) + p0)
        q1 = newton_solve(res, state["guess"], cfg)
        state["guess"] = q1
        return np.concatenate([q1, d2_lagrangian(sys, q0, q1)])

    return phi
