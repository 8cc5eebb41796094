"""Discrete connections on principal bundles.

A discrete connection assigns to a pair of nearby configurations the
unique group element measuring how far the pair sits from a chosen
horizontal submanifold; its horizontal lift inverts the base projection
along that submanifold. Connections here are partial maps: evaluating
outside the domain raises DomainError rather than extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonConvergence, SingularJacobian
from .lie import ActionModel, orbit_frame, sample_group
from .smooth import NewtonConfig, SmoothMapHandle, as_vector, newton_solve


@dataclass(frozen=True, eq=False)
class QuotientModel:
    """An explicit coordinate model of a quotient Q -> Q/G.

    ``project`` and ``section`` are coordinate realizations of the bundle
    projection and of one local section (project o section = id); the
    abstract quotient never appears. ``sample`` draws points of Q used by
    sampled validation.
    """

    total_dim: int
    base_dim: int
    project: SmoothMapHandle
    section: SmoothMapHandle
    action: ActionModel
    sample: Optional[Callable[[np.random.Generator], np.ndarray]] = None


@dataclass(frozen=True, eq=False)
class DiscreteConnection:
    """Connection form A_d: Q x Q -> G plus horizontal lift h_d."""

    quotient: QuotientModel
    ad_form: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hor_lift: Callable[[np.ndarray, np.ndarray], np.ndarray]


def ad(conn: DiscreteConnection, q0, q1) -> np.ndarray:
    """The unique g with (q0, g^{-1} q1) horizontal."""
    n = conn.quotient.total_dim
    return conn.ad_form(as_vector(q0, n), as_vector(q1, n))


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
    group offset is solved by Newton (to 1e-13) over the group parameters,
    starting at the identity; a failed solve surfaces as DomainError.
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


def check_equivariance(conn: DiscreteConnection, n_samples: int,
                       rng: np.random.Generator | None = None) -> dict:
    """Max violation of A_d(g0 q0, g1 q1) = g1 A_d(q0, q1) g0^{-1} at samples.

    Reports, never raises; a broken connection shows up as a large
    ``max_violation``.
    """
    rng = rng or np.random.default_rng(0)
    quotient = conn.quotient
    if quotient.sample is None:
        raise ValueError("the quotient model provides no domain sampler")
    G = quotient.action.group
    worst = 0.0
    worst_sample = None
    for _ in range(n_samples):
        q0 = quotient.sample(rng)
        q1 = quotient.sample(rng)
        g0 = sample_group(G, rng)
        g1 = sample_group(G, rng)
        lhs = ad(conn, quotient.action.act(g0, q0), quotient.action.act(g1, q1))
        rhs = G.compose(G.compose(g1, ad(conn, q0, q1)), G.inverse(g0))
        violation = float(np.max(np.abs(lhs - rhs), initial=0.0))
        if violation > worst:
            worst, worst_sample = violation, (q0, q1)
    return {"max_violation": worst, "n_samples": int(n_samples),
            "worst_sample": worst_sample}
