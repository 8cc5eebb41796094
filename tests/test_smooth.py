"""Tests for the numerical calculus substrate."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpsim.dlps import del_residual, free_particle_dms
from dlpsim.errors import NonConvergence, SingularJacobian
from dlpsim.lie import se2_two_point_action
from dlpsim.smooth import (DEFAULT_FD_STEP, MAX_HALVINGS, NewtonConfig,
                           SmoothMapHandle, _inf_norm, as_vector,
                           directional_derivative, gradient_fd5, jacobian_fd,
                           newton_solve)

FD_TOL = 1e-8
#: V'' against central differences of V', relative to max(1, |V''|): the
#: worst measured on these points is 1.0e-11 (quadratic), a margin of 100x.
HESS_RTOL = 1e-9


def test_jacobian_identity():
    f = SmoothMapHandle(2, 2, lambda x: x)
    assert np.allclose(jacobian_fd(f, np.array([1.0, 2.0])), np.eye(2))


def test_jacobian_square():
    """d/dx x^2 at x=1 is 2."""
    f = SmoothMapHandle(1, 1, lambda x: x ** 2)
    J = jacobian_fd(f, np.array([1.0]))
    assert abs(J[0, 0] - 2.0) < FD_TOL


def test_jacobian_product_map():
    """f(x, y) = (xy, x+y) at (2, 3) has Jacobian [[3, 2], [1, 1]]."""
    f = SmoothMapHandle(2, 2, lambda x: np.array([x[0] * x[1], x[0] + x[1]]))
    J = jacobian_fd(f, np.array([2.0, 3.0]))
    assert np.max(np.abs(J - np.array([[3.0, 2.0], [1.0, 1.0]]))) < FD_TOL


def test_jacobian_matches_random_polynomials():
    """Degree <= 3 polynomial maps in dims <= 4: FD vs analytic, 1e-6."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        n_terms = int(rng.integers(1, 6))
        exponents = rng.integers(0, 4, size=(n_terms, dim))
        exponents = exponents[exponents.sum(axis=1) <= 3]
        if len(exponents) == 0:
            exponents = np.zeros((1, dim), dtype=int)
        coeffs = rng.uniform(-1, 1, size=len(exponents))

        def poly(x, e=exponents, c=coeffs):
            return np.array([float(np.sum(c * np.prod(x ** e, axis=1)))])

        def grad(x, e=exponents, c=coeffs):
            g = np.zeros(len(x))
            for i in range(len(x)):
                ei = e.copy()
                fac = c * ei[:, i]
                ei[:, i] = np.maximum(ei[:, i] - 1, 0)
                g[i] = float(np.sum(fac * np.prod(x ** ei, axis=1)))
            return g

        x = rng.uniform(-1.5, 1.5, dim)
        J = jacobian_fd(SmoothMapHandle(dim, 1, poly), x)
        assert np.max(np.abs(J[0] - grad(x))) < 1e-6


def test_jacobian_evaluates_only_stencil_points():
    """2n evaluations, none at the centre; one for the output length at n = 0."""
    seen = []

    def f(y):
        seen.append(y.copy())
        return np.array([y.sum(), y @ y])

    x = np.array([0.5, -1.0, 2.0])
    J = jacobian_fd(f, x)
    assert J.shape == (2, 3)
    assert len(seen) == 2 * x.size
    assert not any(np.array_equal(y, x) for y in seen)
    seen.clear()
    assert jacobian_fd(f, np.zeros(0)).shape == (2, 0)
    assert len(seen) == 1


def test_gradient_fd5_exact_on_quartics():
    """The five-point stencil is exact on degree-4 polynomials."""
    f = SmoothMapHandle(1, 1, lambda x: x ** 4 - 2.0 * x ** 3 + x)
    x = np.array([1.3])
    expected = 4 * 1.3 ** 3 - 6 * 1.3 ** 2 + 1
    assert abs(gradient_fd5(f, x)[0] - expected) < 1e-11


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_newton_affine_one_iteration(root, start):
    """An affine residual is solved exactly in one iteration."""
    f = SmoothMapHandle(1, 1, lambda x: x - root)
    sol = newton_solve(f, np.array([start]), NewtonConfig(max_iters=2))
    assert abs(sol[0] - root) < 1e-12


def test_newton_square_root():
    """x^2 - 4 from x0 = 3 converges to 2."""
    f = SmoothMapHandle(1, 1, lambda x: x ** 2 - 4.0)
    sol = newton_solve(f, np.array([3.0]))
    assert abs(sol[0] - 2.0) < 1e-12


def test_newton_free_particle_del():
    """The free-particle discrete Euler-Lagrange update is q2 = 2q1 - q0."""
    sys = free_particle_dms(dim=1, h=1.0)
    q0, q1 = np.array([0.0]), np.array([1.0])

    def res(q2):
        return del_residual(sys, q0, q1, q1, q2)

    sol = newton_solve(SmoothMapHandle(1, 1, res), np.array([1.0]))
    assert abs(sol[0] - 2.0) < 1e-10


def test_newton_no_silent_near_solutions():
    """Unreachable tolerance raises rather than returning a bad iterate."""
    f = SmoothMapHandle(1, 1, lambda x: x ** 2 + 1.0)  # no real root
    with pytest.raises((NonConvergence, SingularJacobian)):
        newton_solve(f, np.array([0.5]), NewtonConfig(max_iters=30))


def test_newton_raises_when_line_search_stalls():
    """A wrong-signed Jacobian makes every halving raise the residual:
    Newton gives up after one iteration instead of stepping anyway."""
    calls = []

    def res(x):
        calls.append(x.copy())
        return x ** 2 - 4.0

    f = SmoothMapHandle(1, 1, res, jac=lambda x: np.array([[-2.0 * x[0]]]))
    with pytest.raises(NonConvergence, match="stalled at iteration 0") as info:
        newton_solve(f, np.array([3.0]))
    assert len(calls) == 1 + MAX_HALVINGS
    assert info.value.residual_norm == 5.0
    assert info.value.last_iterate[0] == 3.0


def test_newton_raises_when_the_budget_is_exhausted():
    """x^3 - 2 from x0 = 5 needs more than two iterations: with a budget
    of two, Newton raises NonConvergence with the second iterate."""
    f = SmoothMapHandle(1, 1, lambda x: x ** 3 - 2.0,
                        jac=lambda x: np.array([[3.0 * x[0] ** 2]]))
    with pytest.raises(NonConvergence, match="in 2 iterations") as info:
        newton_solve(f, np.array([5.0]), NewtonConfig(max_iters=2))
    x = 5.0
    for _ in range(2):
        x -= (x ** 3 - 2.0) / (3.0 * x ** 2)
    assert info.value.last_iterate[0] == x
    assert info.value.residual_norm == abs(x ** 3 - 2.0) > 1e-12


def test_newton_raises_on_a_finite_singular_jacobian():
    """A finite but singular Newton matrix is a SingularJacobian, raised
    from the failed dense solve."""
    f = SmoothMapHandle(2, 2, lambda x: x - 1.0, jac=np.ones((2, 2)))
    with pytest.raises(SingularJacobian, match="Singular matrix"):
        newton_solve(f, np.zeros(2))


def test_newton_shapes():
    """A non-square residual is a ValueError; an empty unknown is its own
    solution, returned without evaluating the residual."""
    with pytest.raises(ValueError, match="square residual"):
        newton_solve(SmoothMapHandle(2, 1, lambda x: x[:1]), np.zeros(2))

    def never(x):
        raise AssertionError("evaluated")

    assert newton_solve(SmoothMapHandle(0, 0, never), np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_newton_stops_at_once_on_non_finite_start(bad):
    """A non-finite residual at x0 raises NonConvergence after that one
    evaluation: no difference Jacobian, no halvings."""
    calls = []

    def res(x):
        calls.append(x.copy())
        return np.array([bad, x[1]])

    with pytest.raises(NonConvergence, match="starting point") as info:
        newton_solve(SmoothMapHandle(2, 2, res), np.array([1.0, 2.0]))
    assert len(calls) == 1
    assert np.array_equal(info.value.residual_norm, bad, equal_nan=True)
    assert np.array_equal(info.value.last_iterate, [1.0, 2.0])


def test_newton_stops_at_once_on_nan_after_finite_entries():
    """A NaN behind larger finite entries still makes the start norm NaN:
    one evaluation, then NonConvergence."""
    calls = []

    def res(x):
        calls.append(1)
        return np.array([1e3, -1e3, np.nan])

    with pytest.raises(NonConvergence, match="starting point") as info:
        newton_solve(SmoothMapHandle(3, 3, res), np.zeros(3))
    assert len(calls) == 1 and np.isnan(info.value.residual_norm)


INF_NORM_CASES = {
    "empty": [], "zero": [0.0], "negative zero": [-0.0],
    "negative zeros": [-0.0, -0.0], "signed zeros": [0.0, -0.0, 0.0],
    "ordinary": [3e-13, -7.5e-12, 1e-15], "one negative": [-2.5],
    "nan": [np.nan], "nan last": [1.0, -4.0, np.nan],
    "nan first": [np.nan, 1e300], "inf": [1.0, np.inf], "-inf": [-np.inf, 2.0],
    "inf and nan": [np.inf, np.nan], "tiny": [5e-324, -5e-324],
}


@pytest.mark.parametrize("name", sorted(INF_NORM_CASES))
def test_inf_norm_matches_masked_max(name):
    """Newton's residual norm equals ``np.max(np.abs(r), initial=0.0)``
    bit for bit, sign of zero and NaN included, as a Python float."""
    r = np.array(INF_NORM_CASES[name], dtype=float)
    got, want = _inf_norm(r), float(np.max(np.abs(r), initial=0.0))
    assert type(got) is float
    assert np.array_equal(np.float64(got), np.float64(want), equal_nan=True)
    assert np.signbit(got) == np.signbit(want)


def _directional_derivative_reference(f, x, v):
    """The ``np.max`` formulation, with ``h * v`` formed twice."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    scale = max(1.0, float(np.max(np.abs(v), initial=0.0)))
    h = DEFAULT_FD_STEP * (1.0 + float(np.max(np.abs(x), initial=0.0))) / scale
    return (as_vector(f(x + h * v)) - as_vector(f(x - h * v))) / (2.0 * h)


def test_directional_derivative_matches_reference_bit_for_bit():
    """Through a fixed SE(2) map, seeded draws of points (scaled from
    1e-2 to 1e2) and directions (1e-3 to 1e3), plus a zero and a NaN
    direction, give the bytes of the reference formulation; so does an
    empty direction through the identity."""
    act = se2_two_point_action()
    g = np.array([0.6, 0.8, 0.1, -0.2])

    def f(q):
        return act.act(g, q) if q.size else q

    rng = np.random.default_rng(17)
    x0 = np.array([1.0, 0.2, -1.0, 0.5])
    cases = [(x0, np.zeros(4)), (x0, np.array([0.3, np.nan, 1.0, 0.0])),
             (np.zeros(0), np.zeros(0))]
    for _ in range(2000):
        cases.append((rng.standard_normal(4) * 10.0 ** rng.uniform(-2, 2),
                      rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3)))
    for x, v in cases:
        got = directional_derivative(f, x, v)
        want = _directional_derivative_reference(f, x, v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert not directional_derivative(f, *cases[0]).any()
    assert np.isnan(directional_derivative(f, *cases[1])).any()


def test_newton_postcondition_bound():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0, size=(3, 3)) + 2 * np.eye(3)
        b = rng.uniform(-1, 1, 3)
        f = SmoothMapHandle(3, 3, lambda x, a=a, b=b: a @ x - b)
        sol = newton_solve(f, np.zeros(3))
        assert np.max(np.abs(a @ sol - b)) <= 1e-12


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iters=0)
    # A non-integer budget would fail later, inside newton_solve's range().
    for bad in (2.5, 3.0, True, "3", None, np.float64(3.0)):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            NewtonConfig(max_iters=bad)
    assert NewtonConfig(max_iters=np.int64(3)).max_iters == 3
    # A bool or a non-number is no tolerance; the message names the value.
    for bad in (True, False, "1e-10", None, [1e-10], -1.0, 10 ** 400):
        with pytest.raises(ValueError, match=re.escape(
                f"residual_tol must be positive and finite (got {bad!r})")):
            NewtonConfig(residual_tol=bad)
    tol = NewtonConfig(residual_tol=1).residual_tol
    assert tol == 1.0 and type(tol) is float


def test_newton_config_rejects_non_finite_tolerances():
    """An infinite tolerance would accept the unsolved guess and a NaN one
    would never stop the iteration."""
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError):
            NewtonConfig(residual_tol=tol)


def test_constant_jac_is_a_read_only_array():
    """A constant Jacobian is passed as the array itself: its shape is
    checked at construction, a read-only copy is stored, and ``.jacobian``
    returns that copy after checking x."""
    J = np.arange(6.0).reshape(3, 2)
    f = SmoothMapHandle(2, 3, lambda x: J @ x, jac=J)
    assert J.flags.writeable and not f.jac.flags.writeable
    assert f.jacobian(np.ones(2)) is f.jac and np.array_equal(f.jac, J)
    with pytest.raises(ValueError):
        f.jacobian(np.ones(3))
    for bad in (J.T, J[:, :1], J.ravel()):
        with pytest.raises(ValueError):
            SmoothMapHandle(2, 3, lambda x: J @ x, jac=bad)

    # A constant Hessian likewise: an (in_dim, in_dim) array, stored as a
    # read-only copy that ``.hessian`` returns after checking x.
    H = np.array([[2.0, -1.0], [-1.0, 2.0]])
    q = SmoothMapHandle(2, 1, lambda x: np.array([0.5 * x @ H @ x]),
                        jac=lambda x: H @ x, hess=H)
    assert H.flags.writeable and not q.hess.flags.writeable
    assert q.hessian(np.ones(2)) is q.hess and np.array_equal(q.hess, H)
    with pytest.raises(ValueError):
        q.hessian(np.ones(3))
    for bad in (H[:1], np.ones((3, 3)), H.ravel()):
        with pytest.raises(ValueError):
            SmoothMapHandle(2, 1, q.eval, jac=q.jac, hess=bad)


def test_smooth_handle_checks_dims():
    f = SmoothMapHandle(2, 1, lambda x: np.array([x[0]]))
    with pytest.raises(ValueError):
        f(np.array([1.0, 2.0, 3.0]))


def _as_vector_reference(x, dim=None):
    """The ``np.atleast_1d`` formulation of ``as_vector``: the reference
    that its reshape of 0-d input must match."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected length {dim}, got {v.shape[0]}")
    return v


@pytest.mark.parametrize("x, dim", [
    (2.5, None), (2.5, 1), (2.5, 2), (np.float64(-1.0), None), (np.array(3), 1),
    ([1, 2], None), ([1, 2], 2), ([1, 2], 3), ((0.5,), 1), ([], None), ([], 0),
    (np.arange(3), 3), (np.zeros((2, 2)), None), (np.zeros((1, 1)), 1),
    ([[1.0, 2.0]], 2), (np.zeros((2, 1, 1)), None)])
def test_as_vector_matches_atleast_1d_reference(x, dim):
    """A 0-d input becomes a length-1 vector; lists convert, and 2-d
    arrays and wrong lengths raise, with the same result or message as
    the ``np.atleast_1d`` formulation."""
    try:
        expected = _as_vector_reference(x, dim)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            as_vector(x, dim)
        assert str(err.value) == str(exc)
        return
    got = as_vector(x, dim)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_as_vector_does_not_copy_float_vectors():
    x = np.arange(3.0)
    assert as_vector(x, 3) is x


def test_supplied_jacobians_agree_with_fd():
    """Every handle shipped with an analytic Jacobian matches central FD."""
    from dlpsim.example_se2 import potential_handle
    rng = np.random.default_rng(13)
    handles = [potential_handle("linear", 0.5),
               potential_handle("quadratic", 0.25)]
    for handle in handles:
        assert handle.jac is not None
        for _ in range(10):
            x = rng.uniform(0.2, 2.0, handle.in_dim)
            diff = np.max(np.abs(handle.jacobian(x) - jacobian_fd(handle, x)))
            assert diff < 1e-8


@pytest.mark.parametrize("name, coeff", [("zero", 1.0), ("linear", 0.5),
                                         ("quadratic", 0.3)])
def test_potential_hessians_agree_with_fd_of_jac(name, coeff):
    """V'' (``hess``) of every shipped potential matches central FD of V'."""
    from dlpsim.example_se2 import potential_handle
    pot = potential_handle(name, coeff)
    rng = np.random.default_rng(14)
    for _ in range(20):
        s = rng.uniform(0.0, 16.0, 1)
        fd = jacobian_fd(lambda t: pot.jacobian(t)[0], s)
        assert np.max(np.abs(pot.hessian(s) - fd)) <= HESS_RTOL * max(1.0, abs(fd[0, 0]))


def test_hess_only_on_scalar_maps():
    """A hess is a scalar map's second derivative; there is no FD fallback."""
    with pytest.raises(ValueError):
        SmoothMapHandle(2, 2, lambda x: x, hess=lambda x: np.eye(2))
    with pytest.raises(ValueError):
        SmoothMapHandle(2, 1, lambda x: x[:1]).hessian(np.zeros(2))
