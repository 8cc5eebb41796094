"""Tests for discrete connections: closed forms, flat-metric construction,
equivariance laws and the pair-space isomorphism roundtrip."""

import numpy as np
import pytest

from dlpsim.connection import DiscreteConnection, ad, check_equivariance
from dlpsim.errors import DomainError
from dlpsim.example_se2 import (make_se2_connection, make_t2_connection,
                                make_t2_quotient,
                                sample_configuration)
from dlpsim.lie import sample_group
from oracles import horizontal_lift, mechanical_connection_flat

TOL = 1e-10
SQRT2 = np.sqrt(2.0)


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


@pytest.fixture(scope="module")
def t2_conn():
    return make_t2_connection()


@pytest.fixture(scope="module")
def flat_conn(t2_conn):
    return mechanical_connection_flat(np.eye(4), t2_conn.quotient)


def test_ad_example_value(t2_conn):
    """q0 = (0, 2), q1 = (1, 3) in complex shorthand: offset w = 1."""
    q0 = np.array([0.0, 0.0, 2.0, 0.0])
    q1 = np.array([1.0, 0.0, 3.0, 0.0])
    w = ad(t2_conn, q0, q1)
    assert np.max(np.abs(w - np.array([1.0, 0.0]))) < TOL


def test_ad_diagonal_is_identity(t2_conn, rng):
    for _ in range(20):
        q = sample_configuration(rng)
        assert np.max(np.abs(ad(t2_conn, q, q))) < TOL


def test_ad_equivariance_law(t2_conn, rng):
    """A_d(g0 q0, g1 q1) = g1 A_d(q0, q1) g0^{-1} on 100 samples."""
    G = t2_conn.quotient.action.group
    act = t2_conn.quotient.action.act
    for _ in range(100):
        q0, q1 = sample_configuration(rng), sample_configuration(rng)
        g0, g1 = sample_group(G, rng), sample_group(G, rng)
        lhs = ad(t2_conn, act(g0, q0), act(g1, q1))
        rhs = G.compose(G.compose(g1, ad(t2_conn, q0, q1)), G.inverse(g0))
        assert np.max(np.abs(lhs - rhs)) < TOL


def test_horizontal_lift_example(t2_conn):
    """Lifting r1 = -sqrt(2) from q0 = (0, 2) lands back on (0, 2)."""
    q0 = np.array([0.0, 0.0, 2.0, 0.0])
    q1 = horizontal_lift(t2_conn, q0, np.array([-SQRT2, 0.0]))
    assert np.max(np.abs(q1 - q0)) < TOL


def test_lift_of_own_base_point(t2_conn, rng):
    for _ in range(20):
        q = sample_configuration(rng)
        r = t2_conn.quotient.project(q)
        assert np.max(np.abs(horizontal_lift(t2_conn, q, r) - q)) < TOL


def test_lift_equivariance(t2_conn, rng):
    """h_d(g q0, r1) = g h_d(q0, r1): the group action fixes base points."""
    G = t2_conn.quotient.action.group
    act = t2_conn.quotient.action.act
    for _ in range(100):
        q0 = sample_configuration(rng)
        r1 = rng.uniform(-2, 2, 2)
        g = sample_group(G, rng)
        lhs = horizontal_lift(t2_conn, act(g, q0), r1)
        rhs = act(g, horizontal_lift(t2_conn, q0, r1))
        assert np.max(np.abs(lhs - rhs)) < TOL


def test_lift_then_ad_is_identity(t2_conn, rng):
    """ad(q0, h_d(q0, r1)) = e and project(h_d(q0, r1)) = r1."""
    for _ in range(100):
        q0 = sample_configuration(rng)
        r1 = rng.uniform(-2, 2, 2)
        q1 = horizontal_lift(t2_conn, q0, r1)
        assert np.max(np.abs(ad(t2_conn, q0, q1))) < TOL
        assert np.max(np.abs(t2_conn.quotient.project(q1) - r1)) < TOL


def test_hor_membership_iff_trivial_form(t2_conn, rng):
    """A_d = e exactly when the summed positions agree."""
    for _ in range(200):
        q0, q1 = sample_configuration(rng), sample_configuration(rng)
        w = ad(t2_conn, q0, q1)
        gap = np.max(np.abs((q1[:2] + q1[2:]) - (q0[:2] + q0[2:])))
        assert abs(np.max(np.abs(w)) - 0.5 * gap) < TOL


def test_flat_metric_connection_matches_closed_form(t2_conn, flat_conn, rng):
    """The Euclidean flat-metric construction reproduces the closed form."""
    for _ in range(200):
        q0, q1 = sample_configuration(rng), sample_configuration(rng)
        a = ad(flat_conn, q0, q1)
        b = ad(t2_conn, q0, q1)
        assert np.max(np.abs(a - b)) < TOL
    for _ in range(50):
        q0 = sample_configuration(rng)
        r1 = rng.uniform(-2, 2, 2)
        assert np.max(np.abs(horizontal_lift(flat_conn, q0, r1)
                             - horizontal_lift(t2_conn, q0, r1))) < TOL


def test_flat_metric_diagonal(flat_conn, rng):
    for _ in range(20):
        q = sample_configuration(rng)
        assert np.max(np.abs(ad(flat_conn, q, q))) < TOL


def test_flat_weighted_matches_weighted_closed_form(rng):
    weighted = make_weighted_t2_connection(2.0, 1.0)
    flat = mechanical_connection_flat(np.diag([2.0, 2.0, 1.0, 1.0]),
                                      weighted.quotient)
    for _ in range(100):
        q0, q1 = sample_configuration(rng), sample_configuration(rng)
        assert np.max(np.abs(ad(flat, q0, q1) - ad(weighted, q0, q1))) < TOL


def test_se2_connection_conjugation_equivariance(rng):
    """A_d(g q0, g q1) = g A_d(q0, q1) g^{-1} for the full-group connection."""
    conn = make_se2_connection()
    G = conn.quotient.action.group
    act = conn.quotient.action.act
    for _ in range(100):
        q0, q1 = sample_configuration(rng), sample_configuration(rng)
        g = sample_group(G, rng)
        lhs = ad(conn, act(g, q0), act(g, q1))
        rhs = G.compose(G.compose(g, ad(conn, q0, q1)), G.inverse(g))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_se2_flat_metric_construction_agrees(rng):
    conn = make_se2_connection()
    flat = mechanical_connection_flat(np.eye(4), conn.quotient)
    for _ in range(50):
        q0 = sample_configuration(rng)
        # keep the pair in the Newton basin of the closed-form branch
        g = sample_group(conn.quotient.action.group, rng, scale=0.4)
        q1 = conn.quotient.action.act(g, q0 + rng.uniform(-0.2, 0.2, 4))
        a = ad(flat, q0, q1)
        b = ad(conn, q0, q1)
        assert np.max(np.abs(a - b)) < 1e-9


def test_check_equivariance_clean(t2_conn):
    report = check_equivariance(t2_conn, 200, rng=np.random.default_rng(10))
    assert report["max_violation"] <= TOL


def test_check_equivariance_negative_control_nonabelian():
    """A constant offset composed onto the full-group form breaks the law.

    (For translation groups a constant offset cancels out of the
    equivariance identity, so the control lives on SE(2).)
    """
    conn = make_se2_connection()
    G = conn.quotient.action.group
    offset = np.array([1.0, 0.0, 0.5, 0.0])
    broken = DiscreteConnection(
        quotient=conn.quotient,
        ad_form=lambda q0, q1: G.compose(offset, conn.ad_form(q0, q1)),
        hor_lift=conn.hor_lift)
    report = check_equivariance(broken, 200, rng=np.random.default_rng(11))
    assert report["max_violation"] >= 0.1


def test_check_equivariance_negative_control_state_dependent(t2_conn):
    """A position-dependent offset breaks the translation connection."""
    broken = DiscreteConnection(
        quotient=t2_conn.quotient,
        ad_form=lambda q0, q1: t2_conn.ad_form(q0, q1) + 0.5 * q0[:2],
        hor_lift=t2_conn.hor_lift)
    report = check_equivariance(broken, 200, rng=np.random.default_rng(11))
    assert report["max_violation"] >= 0.1


def test_check_equivariance_keeps_nan_maximum(t2_conn):
    """A connection form that returns NaN on part of the domain reports a
    NaN maximum, kept when finite violations follow it."""
    def nan_form(q0, q1):
        return np.full(2, np.nan) if q0[0] > 1.5 else t2_conn.ad_form(q0, q1)

    broken = DiscreteConnection(quotient=t2_conn.quotient, ad_form=nan_form,
                                hor_lift=t2_conn.hor_lift)
    report = check_equivariance(broken, 50, rng=np.random.default_rng(12))
    assert np.isnan(report["max_violation"])
    assert report["worst_sample"] is not None


@pytest.mark.parametrize("n_samples", [0, -1])
def test_check_equivariance_needs_a_draw(t2_conn, n_samples):
    """Zero draws would check nothing: a ValueError, not a passing report."""
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        check_equivariance(t2_conn, n_samples,
                           rng=np.random.default_rng(0))


def test_phi_psi_roundtrip(t2_conn, rng):
    """The pair-space isomorphisms built from the connection invert each other."""
    for _ in range(200):
        q0, q1 = sample_configuration(rng), sample_configuration(rng)
        w = ad(t2_conn, q0, q1)
        r1 = t2_conn.quotient.project(q1)
        back = t2_conn.quotient.action.act(w, horizontal_lift(t2_conn, q0, r1))
        assert np.max(np.abs(back - q1)) < TOL


def _shipped_connections():
    from dlpsim.example_se2 import make_se2_connection, make_u1_connection
    return [("t2", make_t2_connection()),
            ("t2-weighted", make_weighted_t2_connection(2.0, 1.0)),
            ("se2", make_se2_connection()),
            ("u1", make_u1_connection())]


@pytest.mark.parametrize("name,conn", _shipped_connections())
def test_every_shipped_connection_lift_form_consistency(name, conn):
    """For every shipped connection: the lift is horizontal and projects
    onto its base point, and transporting the lift by the stored offset
    recovers the second point (the pair-space isomorphism roundtrip)."""
    rng = np.random.default_rng(14)
    e = conn.quotient.action.group.identity
    for _ in range(200):
        q0 = conn.quotient.sample(rng)
        q1 = conn.quotient.sample(rng)
        r1 = conn.quotient.project(q1)
        lift = horizontal_lift(conn, q0, r1)
        assert np.max(np.abs(ad(conn, q0, lift) - e)) < TOL, name
        assert np.max(np.abs(conn.quotient.project(lift) - r1)) < TOL, name
        w = ad(conn, q0, q1)
        back = conn.quotient.action.act(w, lift)
        assert np.max(np.abs(back - q1)) < TOL, name


def test_quotient_model_invariants(t2_conn, rng):
    """project is orbit-constant and a right inverse of section at samples."""
    quotient = t2_conn.quotient
    for _ in range(100):
        q = sample_configuration(rng)
        g = sample_group(quotient.action.group, rng)
        assert np.max(np.abs(quotient.project(quotient.action.act(g, q))
                             - quotient.project(q))) < TOL
        r = rng.uniform(-2, 2, 2)
        assert np.max(np.abs(quotient.project(quotient.section(r)) - r)) < TOL


def test_flat_t2_connection_full_group_equivariance(flat_conn, rng):
    """The constructed subgroup connection is conjugation-equivariant under
    the full isometry group: A_d(g q0, g q1) = g A_d(q0, q1) g^{-1}."""
    from dlpsim.example_se2 import conjugate_translation_by_se2
    from dlpsim.lie import se2_two_point_action
    act = se2_two_point_action()
    for _ in range(100):
        q0, q1 = sample_configuration(rng), sample_configuration(rng)
        g = sample_group(act.group, rng)
        lhs = ad(flat_conn, act.act(g, q0), act.act(g, q1))
        rhs = conjugate_translation_by_se2(g, ad(flat_conn, q0, q1))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_isomorphism_solve_rejects_singular_blocks():
    """Singular and non-square fiber-slot blocks raise SingularJacobian;
    an invertible one is inverted."""
    from dlpsim.errors import SingularJacobian
    from dlpsim.reduction import _solve_isomorphism
    with pytest.raises(SingularJacobian):
        _solve_isomorphism(np.zeros((2, 2)))
    with pytest.raises(SingularJacobian):
        _solve_isomorphism(np.ones((2, 3)))
    inv = _solve_isomorphism(np.diag([2.0, 4.0]))
    assert np.max(np.abs(inv - np.diag([0.5, 0.25]))) < 1e-14


def test_mechanical_connection_rejects_bad_metric(t2_conn):
    with pytest.raises(ValueError):
        mechanical_connection_flat(np.eye(3), t2_conn.quotient)
    with pytest.raises(ValueError):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        mechanical_connection_flat(bad, t2_conn.quotient)


def test_se2_connection_domain_error():
    conn = make_se2_connection()
    coincident = np.array([1.0, 0.0, 1.0, 0.0])
    ok = np.array([1.0, 0.0, -1.0, 0.0])
    with pytest.raises(DomainError):
        ad(conn, coincident, ok)
