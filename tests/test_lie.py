"""Tests for the group models and actions."""

import numpy as np
import pytest

from dlpsim.lie import (conjugate, infinitesimal_generator,
                        project_to_quotient, sample_group, se2_group,
                        se2_plane_action, se2_two_point_action, t2_group,
                        t2_two_point_action, trivial_group, u1_group,
                        u1_plane_action)

TOL = 1e-12


def se2(a_re, a_im, v_re, v_im):
    return np.array([a_re, a_im, v_re, v_im], dtype=float)


@pytest.mark.parametrize("make_group", [trivial_group, u1_group, t2_group,
                                        se2_group])
def test_elements_are_coordinate_arrays(make_group):
    """identity, compose, inverse, from_params and sample_group all return
    1-D float arrays with the identity's length."""
    G = make_group()
    rng = np.random.default_rng(9)
    g, h = sample_group(G, rng), sample_group(G, rng)
    for out in (G.identity, G.compose(g, h), G.inverse(g),
                G.from_params(rng.uniform(-1, 1, G.dim)), g):
        assert isinstance(out, np.ndarray)
        assert out.ndim == 1 and out.dtype == np.float64
        assert out.shape == G.identity.shape


def test_se2_product_example():
    """(A=i, v=1) * (A=1, v=2) = (A=i, v=1+2i)."""
    G = se2_group()
    out = G.compose(se2(0, 1, 1, 0), se2(1, 0, 2, 0))
    assert np.max(np.abs(out - np.array([0, 1, 1, 2]))) < TOL


def test_identity_composition():
    G = se2_group()
    g = se2(0.6, 0.8, 1.0, -2.0)
    out = G.compose(G.identity, g)
    assert np.max(np.abs(out - g)) < TOL


def test_inverse_axiom():
    """g * g^{-1} = e for 100 random elements of each group."""
    rng = np.random.default_rng(1)
    for G in (se2_group(), u1_group(), t2_group()):
        for _ in range(100):
            g = sample_group(G, rng)
            out = G.compose(g, G.inverse(g))
            assert np.max(np.abs(out - G.identity)) < TOL


def test_associativity_samples():
    rng = np.random.default_rng(2)
    G = se2_group()
    for _ in range(100):
        a, b, c = (sample_group(G, rng) for _ in range(3))
        lhs = G.compose(G.compose(a, b), c)
        rhs = G.compose(a, G.compose(b, c))
        assert np.max(np.abs(lhs - rhs)) < TOL


def test_conjugate_by_identity():
    G = se2_group()
    h = se2(0.6, 0.8, 0.5, 0.5)
    out = conjugate(G, G.identity, h)
    assert np.max(np.abs(out - h)) < TOL


def test_translations_commute_under_conjugation():
    G = se2_group()
    out = conjugate(G, se2(1, 0, 2.0, -1.0), se2(1, 0, 0.3, 0.7))
    assert np.max(np.abs(out - se2(1, 0, 0.3, 0.7))) < TOL


def test_rotation_conjugates_translation():
    """(A,0)(1,u)(A,0)^{-1} = (1, A u): the translations are normal."""
    G = se2_group()
    a = np.array([np.cos(0.7), np.sin(0.7)])
    u = np.array([0.4, -1.1])
    au = np.array([a[0] * u[0] - a[1] * u[1], a[0] * u[1] + a[1] * u[0]])
    out = conjugate(G, np.concatenate([a, [0, 0]]),
                    se2(1, 0, u[0], u[1]))
    assert np.max(np.abs(out - np.concatenate([[1, 0], au]))) < TOL


def test_t2_normality_in_se2():
    """Conjugating any translation by any group element stays a translation."""
    G = se2_group()
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = sample_group(G, rng)
        h = se2(1, 0, *rng.uniform(-2, 2, 2))
        out = conjugate(G, g, h)
        assert abs(out[0] - 1.0) < TOL and abs(out[1]) < TOL


def test_renormalization_long_chain():
    """|A| stays 1 within 1e-12 across 1e4 chained compositions."""
    G = se2_group()
    rng = np.random.default_rng(4)
    g = G.identity
    for _ in range(10_000):
        g = G.compose(g, sample_group(G, rng, scale=0.5))
    assert abs(np.hypot(g[0], g[1]) - 1.0) < 1e-12


def test_translation_generator_on_pairs():
    """Translating both particles: generator is (1,0,1,0)."""
    act = t2_two_point_action()
    q = np.array([0.3, -0.2, 1.0, 0.4])
    xi = infinitesimal_generator(act, 0, q)
    assert np.max(np.abs(xi - np.array([1.0, 0.0, 1.0, 0.0]))) < 1e-9


def test_rotation_generator_at_one():
    """d/dt e^{it} z at z = 1 is i."""
    act = u1_plane_action()
    xi = infinitesimal_generator(act, 0, np.array([1.0, 0.0]))
    assert np.max(np.abs(xi - np.array([0.0, 1.0]))) < 1e-9


def test_generator_vanishes_at_fixed_point():
    """The rotation generator vanishes at the origin."""
    act = u1_plane_action()
    xi = infinitesimal_generator(act, 0, np.zeros(2))
    assert np.max(np.abs(xi)) < 1e-12


def test_quotient_projection_kernel():
    out = project_to_quotient(se2(1, 0, 3.0, 4.0))
    assert np.max(np.abs(out - np.array([1.0, 0.0]))) < TOL


def test_quotient_projection_strips_translation():
    out = project_to_quotient(se2(0, 1, 3.0, 4.0))
    assert np.max(np.abs(out - np.array([0.0, 1.0]))) < TOL


def test_quotient_projection_homomorphism():
    G, U = se2_group(), u1_group()
    rng = np.random.default_rng(5)
    for _ in range(100):
        g1, g2 = sample_group(G, rng), sample_group(G, rng)
        lhs = project_to_quotient(G.compose(g1, g2))
        rhs = U.compose(project_to_quotient(g1), project_to_quotient(g2))
        assert np.max(np.abs(lhs - rhs)) < TOL


@pytest.mark.parametrize("action_maker,sampler", [
    (se2_plane_action, lambda r: r.uniform(-2, 2, 2)),
    (se2_two_point_action, lambda r: r.uniform(-2, 2, 4)),
    (t2_two_point_action, lambda r: r.uniform(-2, 2, 4)),
    (u1_plane_action, lambda r: r.uniform(-2, 2, 2)),
])
def test_action_axioms(action_maker, sampler):
    """Identity and compatibility axioms at 200 random samples."""
    act = action_maker()
    G = act.group
    rng = np.random.default_rng(6)
    for _ in range(200):
        q = sampler(rng)
        g1, g2 = sample_group(G, rng), sample_group(G, rng)
        assert np.max(np.abs(act.act(G.identity, q) - q)) < TOL
        lhs = act.act(g1, act.act(g2, q))
        rhs = act.act(G.compose(g1, g2), q)
        assert np.max(np.abs(lhs - rhs)) < TOL


def test_match_solvers():
    rng = np.random.default_rng(8)
    for act, sampler in ((se2_two_point_action(), lambda r: r.uniform(-2, 2, 4)),
                         (t2_two_point_action(), lambda r: r.uniform(-2, 2, 4)),
                         (u1_plane_action(), lambda r: r.uniform(0.5, 2, 2))):
        for _ in range(50):
            q = sampler(rng)
            if act.space_dim == 4 and np.hypot(*(q[:2] - q[2:])) < 0.3:
                continue
            g = sample_group(act.group, rng)
            target = act.act(g, q)
            found = act.match(q, target)
            assert np.max(np.abs(act.act(found, q) - target)) < 1e-10
