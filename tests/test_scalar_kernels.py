"""The planar group, action and connection closures, and the two-body
Lagrangian with its gradient and Hessian, against reference copies of
their numpy formulations.

The closures compute on Python floats read with ``.tolist()``; each
reference below evaluates the same formula over numpy arrays. On seeded
draws every closure must give the reference's result bit for bit (dtype,
shape and bytes, so the sign of a zero counts too), raise the reference's
exception at zero norm or on the excised diagonal, and keep a NaN input
as a NaN output without raising. The one exception is the constant
Hessian of a quadratic two-body Lagrangian (``zero``, ``linear``), which
is an array: it matches the reference on every row the reference
accepts, and a step from a row is what raises or fails there.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from dlpsim import dlps, example_se2
from dlpsim.dlps import _kinetic_hessian, from_dms, simulate, step
from dlpsim.errors import DomainError, NonConvergence
from dlpsim.example_se2 import (TwoBodyConfig, make_full_system,
                                make_residual_u1_action, make_se2_connection,
                                make_t2_connection, make_u1_connection,
                                potential_handle)
from dlpsim.lie import (se2_group, se2_two_point_action, t2_two_point_action,
                        u1_group, u1_plane_action)
from dlpsim.reduction import build_upsilon
from dlpsim.smooth import SmoothMapHandle, as_vector

SQRT2 = float(np.sqrt(2.0))
FLOOR = 1e-12
DRAWS = 200


# --- reference formulas over 2-element arrays ------------------------------

def _cmul(a, b):
    return np.array([a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]])


def _cconj(a):
    return np.array([a[0], -a[1]])


def _cnormalize(a):
    n = float(np.hypot(a[0], a[1]))
    if n == 0.0:
        raise ZeroDivisionError("cannot normalize the zero complex number")
    return a / n


def _sep(q):
    return q[:2] - q[2:]


def _phase(a):
    n = float(np.hypot(*a))
    if n < FLOOR:
        raise DomainError("phase of a vanishing complex number")
    return a / n


def _check_off_diagonal(q):
    if float(np.hypot(*_sep(q))) < FLOOR:
        raise DomainError("coincident particles (excised diagonal)")


def se2_comp(g1, g2):
    a1, v1 = g1[:2], g1[2:]
    a2, v2 = g2[:2], g2[2:]
    return np.concatenate([_cnormalize(_cmul(a1, a2)), _cmul(a1, v2) + v1])


def se2_inv(g):
    a, v = _cnormalize(g[:2]), g[2:]
    ainv = _cconj(a)
    return np.concatenate([ainv, -_cmul(ainv, v)])


def se2_from_params(p):
    p = as_vector(p, 3)
    return np.array([np.cos(p[0]), np.sin(p[0]), p[1], p[2]])


def u1_from_params(p):
    t = float(as_vector(p, 1)[0])
    return np.array([np.cos(t), np.sin(t)])


def se2_match(qa, qb):
    da, db = qa[:2] - qa[2:], qb[:2] - qb[2:]
    if float(np.hypot(*da)) == 0.0:
        raise ZeroDivisionError("coincident source points")
    a = _cnormalize(_cmul(db, _cconj(da)))
    return np.concatenate([a, qb[:2] - _cmul(a, qa[:2])])


def t2_hor_lift(q0, r1):
    s0 = q0[:2] + q0[2:]
    return np.concatenate([0.5 * (s0 + SQRT2 * r1), 0.5 * (s0 - SQRT2 * r1)])


def se2_ad_form(q0, q1):
    d0, d1 = _sep(q0), _sep(q1)
    a = _phase(_cmul(d1, _cconj(d0)))
    s0 = q0[:2] + q0[2:]
    s1 = q1[:2] + q1[2:]
    return np.concatenate([a, 0.5 * (s1 - _cmul(a, s0))])


def se2_hor_lift(q0, rho1):
    r1 = float(rho1[0]) * _phase(_sep(q0) / SQRT2)
    s0 = q0[:2] + q0[2:]
    return np.concatenate([0.5 * (s0 + SQRT2 * r1), 0.5 * (s0 - SQRT2 * r1)])


def t2_chart(eps, w):
    return np.concatenate([_sep(eps) / SQRT2, w])


def t2_section(v):
    r0, z0 = v[:2], v[2:]
    return np.concatenate([r0, -r0]) / SQRT2, z0.copy()


def u1_stage_chart(eps, b):
    r, z = eps[:2], eps[2:]
    rho0 = float(np.hypot(*r))
    if rho0 < FLOOR:
        raise DomainError("relative position vanishes in reduced chart")
    zeta = _cmul(_cconj(r / rho0), z)
    return np.array([rho0, float(np.arctan2(b[1], b[0])), zeta[0], zeta[1]])


def u1_stage_section(v):
    return (np.array([v[0], 0.0, v[2], v[3]]),
            np.array([np.cos(v[1]), np.sin(v[1])]))


def se2_chart(eps, g):
    r0 = _sep(eps) / SQRT2
    rho0 = float(np.hypot(*r0))
    if rho0 < FLOOR:
        raise DomainError("coincident particles in reduced chart")
    a, w = g[:2], g[2:]
    s0 = eps[:2] + eps[2:]
    one_minus_a = np.array([1.0 - a[0], -a[1]])
    zeta = _cmul(_cconj(r0 / rho0), w - 0.5 * _cmul(one_minus_a, s0))
    return np.array([rho0, float(np.arctan2(a[1], a[0])), zeta[0], zeta[1]])


def se2_section(v):
    eps = np.array([v[0], 0.0, -v[0], 0.0]) / SQRT2
    a = np.array([np.cos(v[1]), np.sin(v[1])])
    return eps, np.concatenate([a, v[2:]])


def sample_configuration(rng):
    while True:
        q = rng.uniform(-2.0, 2.0, size=4)
        if float(np.hypot(*_sep(q))) >= 0.3:
            return q


def sample_annulus(rng, inner=0.3, outer=2.5):
    while True:
        r = rng.uniform(-outer, outer, size=2)
        if inner <= float(np.hypot(*r)) <= outer:
            return r


# --- the closures and their references -------------------------------------

@pytest.fixture(scope="module")
def fiber_maps():
    """The fiber charts and sections that ``make_staged_setup`` hands to
    ``build_upsilon``: the translation model, stage two and the one-shot
    model, in that order."""
    seen = []

    def recording(conn, bundle, fiber_chart, fiber_section, **kw):
        seen.append((fiber_chart, fiber_section))
        return build_upsilon(conn, bundle, fiber_chart, fiber_section, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(example_se2, "build_upsilon", recording)
        example_se2.make_staged_setup(rng=np.random.default_rng(5))
    assert len(seen) == 3
    return seen


def _flat(out):
    """A section's (eps, g) pair as one array; any other value as it is."""
    return np.concatenate(out) if isinstance(out, tuple) else out


def _closures(fiber_maps):
    """(name, closure, reference, argument lengths) for every rewritten closure."""
    se2, u1 = se2_group(), u1_group()
    two, t2 = se2_two_point_action(), t2_two_point_action()
    rot = u1_plane_action()
    c_t2, c_se2, c_u1 = make_t2_connection(), make_se2_connection(), make_u1_connection()
    (t2c, t2s), (u1c, u1s), (se2c, se2s) = fiber_maps
    return [
        ("se2.compose", se2.compose, se2_comp, (4, 4)),
        ("se2.inverse", se2.inverse, se2_inv, (4,)),
        ("se2.from_params", se2.from_params, se2_from_params, (3,)),
        ("u1.compose", u1.compose, lambda a, b: _cnormalize(_cmul(a, b)), (2, 2)),
        ("u1.inverse", u1.inverse, lambda g: _cconj(_cnormalize(g)), (2,)),
        ("u1.from_params", u1.from_params, u1_from_params, (1,)),
        ("se2_two_point.act", two.act,
         lambda g, q: np.concatenate([_cmul(g[:2], q[:2]) + g[2:],
                                      _cmul(g[:2], q[2:]) + g[2:]]), (4, 4)),
        ("se2_two_point.match", two.match, se2_match, (4, 4)),
        ("t2_two_point.act", t2.act,
         lambda g, q: np.concatenate([q[:2] + g, q[2:] + g]), (2, 4)),
        ("t2_two_point.match", t2.match, lambda qa, qb: qb[:2] - qa[:2], (4, 4)),
        ("u1_plane.act", rot.act, _cmul, (2, 2)),
        ("u1_plane.match", rot.match,
         lambda qa, qb: _cnormalize(_cmul(qb, _cconj(qa))), (2, 2)),
        ("t2.ad_form", c_t2.ad_form,
         lambda q0, q1: 0.5 * ((q1[:2] + q1[2:]) - (q0[:2] + q0[2:])), (4, 4)),
        ("t2.hor_lift", c_t2.hor_lift, t2_hor_lift, (4, 2)),
        ("t2.project", c_t2.quotient.phi.eval, lambda q: _sep(q) / SQRT2, (4,)),
        ("t2.section", c_t2.quotient.section.eval,
         lambda r: np.concatenate([r, -r]) / SQRT2, (2,)),
        ("se2.ad_form", c_se2.ad_form, se2_ad_form, (4, 4)),
        ("se2.hor_lift", c_se2.hor_lift, se2_hor_lift, (4, 1)),
        ("se2.project", c_se2.quotient.phi.eval,
         lambda q: np.array([float(np.hypot(*_sep(q))) / SQRT2]), (4,)),
        ("se2.section", c_se2.quotient.section.eval,
         lambda rho: np.array([rho[0], 0.0, -rho[0], 0.0]) / SQRT2, (1,)),
        ("u1.ad_form", c_u1.ad_form, lambda r0, r1: _phase(_cmul(r1, _cconj(r0))), (2, 2)),
        ("u1.hor_lift", c_u1.hor_lift, lambda r0, rho1: float(rho1[0]) * _phase(r0),
         (2, 1)),
        ("u1.project", c_u1.quotient.phi.eval,
         lambda r: np.array([float(np.hypot(*r))]), (2,)),
        ("u1.section", c_u1.quotient.section.eval,
         lambda rho: np.array([rho[0], 0.0]), (1,)),
        ("_phase", lambda a: np.array(example_se2._phase(*a.tolist())), _phase, (2,)),
        ("residual_u1.act", make_residual_u1_action().act,
         lambda g, y: np.concatenate([_cmul(g, y[:2]), _cmul(g, y[2:])]), (2, 4)),
        ("conjugate_translation_by_se2", example_se2.conjugate_translation_by_se2,
         lambda g, h: _cmul(g[:2], h), (4, 2)),
        ("t2.fiber_chart", t2c, t2_chart, (4, 2)),
        ("t2.fiber_section", t2s, t2_section, (4,)),
        ("u1_stage.fiber_chart", u1c, u1_stage_chart, (4, 2)),
        ("u1_stage.fiber_section", u1s, u1_stage_section, (4,)),
        ("se2_one_shot.fiber_chart", se2c, se2_chart, (4, 4)),
        ("se2_one_shot.fiber_section", se2s, se2_section, (4,)),
    ]


def _same_bits(out, ref):
    out, ref = _flat(out), _flat(ref)
    return (isinstance(out, np.ndarray) and out.dtype == ref.dtype
            and out.shape == ref.shape and out.tobytes() == ref.tobytes())


def test_closures_match_reference_bit_for_bit(fiber_maps):
    """Seeded draws in [-2, 2] (group elements not normalized, so the
    renormalizing products are exercised off the group too), then draws
    whose entries are small integers, where exact zeros and their signs
    appear."""
    rng = np.random.default_rng(2027)
    for name, closure, reference, dims in _closures(fiber_maps):
        for k in range(DRAWS):
            draw = ((lambda n: rng.uniform(-2.0, 2.0, n)) if k % 2 else
                    (lambda n: rng.integers(-2, 3, n).astype(float)))
            args = [draw(n) for n in dims]
            try:
                ref = reference(*args)
            except (ZeroDivisionError, DomainError) as exc:
                with pytest.raises(type(exc)):
                    closure(*args)
                continue
            assert _same_bits(closure(*args), ref), (name, args)


#: (case, closure name, arguments, exception). The case number is the
#: ``args<case>`` of the test id, written out so that removing a case
#: renames no other test.
ZERO_NORM_CASES = [
    (0, "se2.compose", ([0.0, 0.0, 1.0, 2.0], [0.6, 0.8, 0.0, 1.0]), ZeroDivisionError),
    (1, "se2.inverse", ([0.0, 0.0, 1.0, 2.0],), ZeroDivisionError),
    (2, "u1.compose", ([0.0, 0.0], [0.6, 0.8]), ZeroDivisionError),
    (3, "u1.inverse", ([0.0, 0.0],), ZeroDivisionError),
    (5, "se2_two_point.match", ([1.0, 2.0, 1.0, 2.0], [0.0, 1.0, 1.0, 0.0]),
     ZeroDivisionError),
    (6, "se2_two_point.match", ([0.0, 1.0, 1.0, 0.0], [1.0, 2.0, 1.0, 2.0]),
     ZeroDivisionError),
    (7, "u1_plane.match", ([0.0, 0.0], [0.6, 0.8]), ZeroDivisionError),
    (8, "_phase", ([0.0, 0.0],), DomainError),
    (9, "_phase", ([1e-13, 0.0],), DomainError),
    (10, "se2.ad_form", ([1.0, 2.0, 1.0, 2.0], [0.0, 1.0, 1.0, 0.0]), DomainError),
    (11, "se2.hor_lift", ([1.0, 2.0, 1.0, 2.0], [0.5]), DomainError),
    (12, "u1.ad_form", ([0.0, 0.0], [0.6, 0.8]), DomainError),
    (13, "u1.hor_lift", ([0.0, 0.0], [0.5]), DomainError),
    (14, "u1_stage.fiber_chart", ([0.0, 0.0, 1.0, 2.0], [1.0, 0.0]), DomainError),
    (15, "se2_one_shot.fiber_chart", ([1.0, 2.0, 1.0, 2.0], [1.0, 0.0, 0.0, 0.0]),
     DomainError),
]


@pytest.mark.parametrize("name, args, exc", [
    pytest.param(name, args, exc, id=f"{name}-args{case}-{exc.__name__}")
    for case, name, args, exc in ZERO_NORM_CASES])
def test_zero_norm_raises_as_reference(fiber_maps, name, args, exc):
    """At zero norm each closure raises the reference's exception type."""
    _, closure, reference, _ = next(c for c in _closures(fiber_maps) if c[0] == name)
    args = [np.array(a) for a in args]
    with pytest.raises(exc):
        reference(*args)
    with pytest.raises(exc):
        closure(*args)


@pytest.mark.parametrize("d", [0.0, 0.5e-12, 1e-12, 2e-12, 0.3])
def test_check_off_diagonal_as_reference(d):
    """The excised diagonal: the Lagrangian, its gradient and its Hessian
    raise DomainError, with q in either row, exactly where the reference
    check raises on q."""
    q = np.array([0.25, -1.0, 0.25 + d, -1.0])
    far = np.array([1.0, 0.5, -1.0, 0.25])
    L = make_full_system(TwoBodyConfig(potential=potential_handle("quadratic", 0.3))).lagrangian
    calls = [(part, x) for part in (L.eval, L.jac, L.hess)
             for x in (np.concatenate([q, far]), np.concatenate([far, q]))]
    try:
        _check_off_diagonal(q)
    except DomainError:
        for part, x in calls:
            with pytest.raises(DomainError):
                part(x)
    else:
        for part, x in calls:
            part(x)


def test_nan_input_gives_nan_output(fiber_maps):
    """A NaN argument propagates to the value; nothing raises or warns."""
    for name, closure, _, dims in _closures(fiber_maps):
        out = _flat(closure(*[np.full(n, np.nan) for n in dims]))
        assert np.isnan(out).any(), name


@pytest.mark.parametrize("sampler, reference, args", [
    (example_se2.sample_configuration, sample_configuration, ()),
    (example_se2.sample_annulus, sample_annulus, ()),
    (example_se2.sample_annulus, sample_annulus, (0.7, 1.3)),
])
def test_samplers_match_reference(sampler, reference, args):
    """Same draws and the same generator state after them."""
    rng_a, rng_b = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(DRAWS):
        assert _same_bits(sampler(rng_a, *args), reference(rng_b, *args))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


# --- the two-body Lagrangian -----------------------------------------------

SEPARATION_HESS = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.eye(2))
POTENTIALS = [("zero", 1.0), ("linear", 0.5), ("linear", -0.5), ("quadratic", 0.3)]


def reference_lagrangian(cfg):
    """The two-body Lagrangian handle with its gradient and Hessian written
    over numpy arrays, wired as ``make_full_system`` wires its kernels."""
    h = cfg.h
    kinetic = _kinetic_hessian(4, h)

    def L(x):
        q0, q1 = x[:4], x[4:]
        _check_off_diagonal(q0)
        _check_off_diagonal(q1)
        dx = q1[:2] - q0[:2]
        dy = q1[2:] - q0[2:]
        sep = _sep(q0)
        return np.array([
            (float(dx @ dx) + float(dy @ dy)) / (2.0 * h)
            - 0.5 * h * cfg.v(float(sep @ sep))])

    def dL(x):
        q0, q1 = x[:4], x[4:]
        _check_off_diagonal(q0)
        _check_off_diagonal(q1)
        v = (q1 - q0) / h
        sep = _sep(q0)
        force = h * cfg.v_prime(float(sep @ sep)) * np.concatenate([sep, -sep])
        return np.concatenate([-v - force, v])

    def d2L(x):
        q0, q1 = x[:4], x[4:]
        _check_off_diagonal(q0)
        _check_off_diagonal(q1)
        sep = _sep(q0)
        s = float(sep @ sep)
        u = np.concatenate([sep, -sep])
        H = kinetic.copy()
        H[:4, :4] -= h * (2.0 * cfg.v_second(s) * np.outer(u, u)
                          + cfg.v_prime(s) * SEPARATION_HESS)
        return H

    jac = dL if cfg.potential.jac is not None else None
    hess = d2L if jac is not None and cfg.potential.hess is not None else None
    return SmoothMapHandle(8, 1, L, jac=jac, hess=hess)


def _kernel_pairs(cfg):
    """(name, kernel, reference) for the value, gradient and Hessian; a
    constant Hessian's kernel is the array itself."""
    kernel, reference = make_full_system(cfg).lagrangian, reference_lagrangian(cfg)
    return [(name, getattr(kernel, name), getattr(reference, name))
            for name in ("eval", "jac", "hess")]


@pytest.mark.parametrize("h", [0.1, 0.5])
@pytest.mark.parametrize("name, coeff", POTENTIALS)
def test_lagrangian_kernels_match_reference_bit_for_bit(name, coeff, h):
    """Seeded rows in [-2, 2]^8, then rows of small integers, where exact
    zeros, signed zeros and coincident particles appear. A constant
    Hessian cannot raise: on a row the reference rejects, a step from
    that row raises DomainError instead."""
    cfg = TwoBodyConfig(h=h, potential=potential_handle(name, coeff))
    sys = make_full_system(cfg)
    rng = np.random.default_rng(2029)
    for part, kernel, reference in _kernel_pairs(cfg):
        constant = isinstance(kernel, np.ndarray)
        for k in range(2 * DRAWS):
            x = rng.uniform(-2.0, 2.0, 8) if k % 2 else rng.integers(-2, 3, 8).astype(float)
            try:
                ref = reference(x)
            except DomainError:
                with pytest.raises(DomainError):
                    step(sys, x[:4], x[4:]) if constant else kernel(x)
                continue
            assert _same_bits(kernel if constant else kernel(x), ref), (part, x)


@pytest.mark.parametrize("name, coeff", POTENTIALS)
def test_lagrangian_kernels_nan_row_gives_nan(name, coeff, monkeypatch):
    """A NaN row passes the collision check and gives NaN; nothing warns.
    A constant Hessian has no NaN to give: a step from the NaN row fails
    with NonConvergence after one residual evaluation instead."""
    cfg = TwoBodyConfig(potential=potential_handle(name, coeff))
    nan = np.full(8, np.nan)
    evals = []
    newton = dlps.newton_solve

    def counting_newton(residual, x0, cfg=None):
        def counted(z):
            evals.append(z)
            return residual.eval(z)

        return newton(dataclasses.replace(residual, eval=counted), x0, cfg)

    monkeypatch.setattr(dlps, "newton_solve", counting_newton)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for part, kernel, _ in _kernel_pairs(cfg):
            if isinstance(kernel, np.ndarray):
                with pytest.raises(NonConvergence):
                    step(make_full_system(cfg), nan[:4], nan[4:])
                assert len(evals) == 1, part
            else:
                assert np.isnan(kernel(nan)).any(), part


def test_lagrangian_gradient_infinite_entry_gives_nan_silently():
    """An infinite coordinate gives NaN where the numpy formula also gave
    NaN but emitted a RuntimeWarning (inf - inf in -v - force)."""
    cfg = TwoBodyConfig(potential=potential_handle("linear", 0.5))
    _, (_, grad, ref_grad), _ = _kernel_pairs(cfg)
    x = np.array([np.inf, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0])
    with pytest.warns(RuntimeWarning):
        ref = ref_grad(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = grad(x)
    assert np.array_equal(np.isnan(out), np.isnan(ref)) and np.isnan(out[0])
    assert np.array_equal(out[~np.isnan(out)], ref[~np.isnan(ref)])


@pytest.mark.parametrize("name, coeff", POTENTIALS + [("linear", 0.0)])
def test_infinite_entry_is_silent_for_every_named_potential(name, coeff):
    """On a row with an infinite coordinate the value and the Hessian
    kernel are not finite, and nothing warns: ``linear 0.0`` included,
    whose value is ``0 * inf``. A constant V' reaches the kernel through
    a callable ``jac``."""
    V = potential_handle(name, coeff)
    if isinstance(V.jac, np.ndarray):
        V = dataclasses.replace(V, jac=lambda s, J=V.jac: J)
    L = make_full_system(TwoBodyConfig(potential=V)).lagrangian
    assert callable(L.hess)
    x = np.array([np.inf, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(L(x)).all()
        assert not np.isfinite(L.hessian(x)).all()


def test_potential_without_hess_leaves_no_lagrangian_hess():
    """A potential with V' but no V'' gives the gradient kernel only."""
    potential = SmoothMapHandle(1, 1, lambda s: 0.5 * s, jac=np.array([[0.5]]))
    L = make_full_system(TwoBodyConfig(potential=potential)).lagrangian
    assert L.jac is not None and L.hess is None


@pytest.mark.parametrize("name, coeff", [("linear", 0.5), ("quadratic", 0.3)])
def test_simulation_on_kernels_matches_reference_handle(full_start, name, coeff):
    """Fifty steps from the README start: the kernels and the numpy
    reference handle give the same path bit for bit."""
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle(name, coeff))
    path = simulate(make_full_system(cfg), *full_start, 50)
    ref = simulate(from_dms(4, reference_lagrangian(cfg)), *full_start, 50)
    assert path.points.shape == (51, 8)
    assert path.points.tobytes() == ref.points.tobytes()
