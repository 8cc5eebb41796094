"""Discrete connections on principal bundles.

A discrete connection assigns to a pair of nearby configurations the
unique group element measuring how far the pair sits from a chosen
horizontal submanifold; its horizontal lift inverts the base projection
along that submanifold. Connections here are partial maps: evaluating
outside the domain raises DomainError rather than extrapolating.

The concrete T2, SE(2) and U(1) connections are closed forms, built in
``example_se2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dlps import FiberBundleModel
from .errors import draw_maxima, worst_draw
from .lie import ActionModel, sample_group
from .smooth import as_vector


@dataclass(frozen=True, eq=False)
class QuotientModel(FiberBundleModel):
    """The principal bundle Q -> Q/G of a connection, in coordinates.

    Its ``phi`` and ``section`` realize the bundle projection and one
    local section (phi o section = id), and its dimensions are the
    bundle's; the abstract quotient never appears. ``action`` is the
    action of G on Q, and ``sample`` draws the points of Q that
    ``check_equivariance`` and ``reduction.two_stage`` test at.
    """

    action: ActionModel
    sample: Callable[[np.random.Generator], np.ndarray]


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


def check_equivariance(conn: DiscreteConnection, n_samples: int, *,
                       rng: np.random.Generator) -> dict:
    """Max violation of A_d(g0 q0, g1 q1) = g1 A_d(q0, q1) g0^{-1} at
    ``n_samples`` pairs of points drawn by the quotient's ``sample``.

    Reports, never raises; a broken connection shows up as a large
    ``max_violation``, and a NaN violation is kept as the maximum. The
    draws, all from ``rng``, are evaluated one by one and judged in bulk
    afterwards; the maximum and its ``worst_sample`` (q0, q1) are those of
    the first NaN draw, else of the first largest (None while every
    violation is 0). ``n_samples`` below 1 is a ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1 (got {n_samples})")
    quotient = conn.quotient
    G = quotient.action.group
    samples, lhs, rhs = [], [], []
    for _ in range(n_samples):
        q0 = quotient.sample(rng)
        q1 = quotient.sample(rng)
        g0 = sample_group(G, rng)
        g1 = sample_group(G, rng)
        samples.append((q0, q1))
        lhs.append(ad(conn, quotient.action.act(g0, q0), quotient.action.act(g1, q1)))
        rhs.append(G.compose(G.compose(g1, ad(conn, q0, q1)), G.inverse(g0)))
    worst, i = worst_draw(draw_maxima(np.array(lhs) - np.array(rhs)))
    return {"max_violation": worst, "n_samples": int(n_samples),
            "worst_sample": None if i is None else samples[i]}
