"""The exact step of an affine reduction runs on matrices.

``reduce`` evaluates the lift of an affine reduction of a DMS as
``c + T y`` and the reduced bundle map as ``p + P v``; ``dlps.step`` takes
D1 at the unknown row from one gradient call on the row. These tests pin
the values against the generic path and the mechanism by call counts.
"""

import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpsim import dlps
from dlpsim.dlps import harmonic_oscillator_dms, step
from dlpsim.example_se2 import (TwoBodyConfig, make_full_system,
                                make_reduced_system, potential_handle,
                                sample_configuration)
from dlpsim.reduction import reduce
from dlpsim.smooth import SmoothMapHandle
from oracles import trivial_reduction

POTENTIALS = (("zero", 0.0), ("linear", 0.5), ("quadratic", 0.3))
#: The matrix step against the generic ``reduce`` step (closure lift,
#: closure bundle map, central-difference Newton Jacobian): the worst of
#: 300 seeded draws per potential is 9.9e-14 (linear 0.5), a margin of 10x.
STEP_TOL = 1e-12
#: ``c + T y`` and ``p + P v`` against the closures, on draws of unit
#: scale: the worst of 20000 draws is 4.4e-16 for the lift and 2.2e-16
#: for the bundle map, margins of 2.2x and 4.5x.
MATRIX_TOL = 1e-15
#: A shifted DMS against the DMS: the worst of 500 seeded draws is 1.0e-15
#: for the step and 1.8e-16 (relative) for the Hessian, margins of 10x
#: and 56x.
SHIFT_TOL = 1e-14

README_FULL_START = (np.array([1.0, 0.0, -1.0, 0.0]),
                     np.array([1.04, 0.03, -0.97, 0.02]))
REDUCED_START = (np.array([1.0, 0.1, 0.05, -0.02]), np.array([1.02, 0.13]))


@functools.lru_cache(maxsize=None)
def _systems(name, coeff):
    """The full two-body system and its translation reduction."""
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle(name, coeff))
    return make_full_system(cfg), make_reduced_system(cfg, rng=np.random.default_rng(1))


def _reduced_start(u):
    """((r0, z0), r1) from six numbers in [0, 1): |r0| in [0.7, 1.3], z0
    and r1 - r0 per axis within 0.2 and 0.1."""
    angle = 2.0 * np.pi * u[1]
    r0 = (0.7 + 0.6 * u[0]) * np.array([np.cos(angle), np.sin(angle)])
    return np.concatenate([r0, 0.4 * (u[2:4] - 0.5)]), r0 + 0.2 * (u[4:] - 0.5)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(POTENTIALS),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=6, max_size=6))
def test_matrix_step_matches_generic_step(callable_jacs, potential, u):
    """The step of ``make_reduced_system`` equals the step of the same model
    reduced through callable ``jac`` (the generic path, which evaluates
    ``lift_section`` and the reduced ``phi`` closures)."""
    full, red = _systems(*potential)
    generic = reduce(full, callable_jacs(red.model),
                     rng=np.random.default_rng(21)).system
    assert generic.lagrangian.hess is None
    eps0, m1 = _reduced_start(np.array(u))
    got = np.concatenate(step(red.system, eps0, m1))
    want = np.concatenate(step(generic, eps0, m1))
    assert np.max(np.abs(got - want)) <= STEP_TOL


def test_matrices_equal_the_closures(reduced, full_system):
    """The reduced bundle map is ``p + P v`` and the reduced Lagrangian is
    L at ``c + T y`` (bit for bit), with c, p the model's maps at 0 and
    T, P their ``jac`` arrays; both matrix forms equal the closures."""
    model, sys = reduced.model, reduced.system
    lift, phi = model.lift_section, model.reduced_bundle.phi
    c, T = lift(np.zeros(6)), lift.jac
    p, P = phi(np.zeros(4)), phi.jac
    rng = np.random.default_rng(7)
    for _ in range(200):
        eps, m = _reduced_start(rng.random(6))
        y = np.concatenate([eps, m])
        assert np.array_equal(sys.bundle.phi(eps), p + P @ eps)
        assert np.max(np.abs(sys.bundle.phi(eps) - phi(eps))) <= MATRIX_TOL
        assert sys.lag(y) == full_system.lag(c + T @ y)
        assert np.max(np.abs(c + T @ y - lift(y))) <= MATRIX_TOL


def _oscillator():
    sys = harmonic_oscillator_dms(dim=2)
    return sys, lambda r: r.uniform(-1, 1, 4)


def _two_body_quadratic():
    def sample(r):
        q0 = sample_configuration(r)
        return np.concatenate([q0, q0 + r.uniform(-0.05, 0.05, 4)])
    return _systems("quadratic", 0.3)[0], sample


@pytest.mark.parametrize("make", [_oscillator, _two_body_quadratic],
                         ids=["oscillator", "two-body"])
def test_offset_affine_reduction_steps_in_shifted_coordinates(make, rng):
    """The offsets c and p count: a DMS in the coordinates v = eps + a,
    r = m + b (lift c = -(a, b), bundle map p = b - a) has the Hessian of
    L at c + y and steps as the DMS does, shifted."""
    sys, sample = make()
    n = sys.bundle.total_dim
    model = trivial_reduction(sys, sample, rng=np.random.default_rng(3)).model
    a, b = np.linspace(0.3, -0.7, n), np.linspace(1.1, 0.4, n)
    shift = np.concatenate([a, b])
    bundle = model.reduced_bundle
    shifted = dataclasses.replace(
        model,
        upsilon=SmoothMapHandle(2 * n, 2 * n, lambda x: x + shift, jac=np.eye(2 * n)),
        lift_section=SmoothMapHandle(2 * n, 2 * n, lambda y: y - shift,
                                     jac=np.eye(2 * n)),
        reduced_bundle=dataclasses.replace(
            bundle, phi=SmoothMapHandle(n, n, lambda v: v - a + b, jac=np.eye(n)),
            section=SmoothMapHandle(n, n, lambda r: r + a - b)))
    red = reduce(sys, shifted, rng=np.random.default_rng(22)).system
    for _ in range(20):
        x = sample(rng)
        H = sys.lagrangian.hessian(x)
        assert np.max(np.abs(red.lagrangian.hessian(x + shift) - H)) <= (
            SHIFT_TOL * max(1.0, float(np.max(np.abs(H)))))
        want = np.concatenate(step(sys, x[:n], x[n:])) + shift
        got = np.concatenate(step(red, x[:n] + a, x[n:] + b))
        assert np.max(np.abs(got - want)) <= SHIFT_TOL


def _counted(counts, name, fn):
    """``fn`` with each call counted under ``name``."""
    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted


def _counting(counts, name, handle):
    """``handle`` with each evaluation counted under ``name``."""
    return dataclasses.replace(handle, eval=_counted(counts, name, handle.eval))


@pytest.fixture()
def newton_counts(monkeypatch):
    """Counts of Newton residual evaluations and Jacobians (one per
    iteration) and of ``d1_lagrangian`` calls, for steps run in the test."""
    counts = Counter()
    newton = dlps.newton_solve

    def counting_newton(residual, x0, cfg=None):
        jac = None if residual.jac is None else _counted(counts, "jacobian",
                                                          residual.jac)
        return newton(dataclasses.replace(_counting(counts, "residual", residual),
                                          jac=jac), x0, cfg)

    monkeypatch.setattr(dlps, "newton_solve", counting_newton)
    monkeypatch.setattr(dlps, "d1_lagrangian",
                        _counted(counts, "d1_lagrangian", dlps.d1_lagrangian))
    return counts


def test_exact_reduced_step_calls_no_closure(reduced, full_system,
                                             callable_jacs, newton_counts):
    """One exact reduced step makes no ``lift_section`` and no reduced
    ``phi`` call (build reads each once, at 0), no ``d1_lagrangian`` call,
    one Newton iteration and two residual evaluations. The generic
    reduction of the same counting model calls both closures in its step."""
    model = reduced.model
    bundle = model.reduced_bundle
    counts = Counter()
    counting = dataclasses.replace(
        model, lift_section=_counting(counts, "lift_section", model.lift_section),
        reduced_bundle=dataclasses.replace(
            bundle, phi=_counting(counts, "reduced phi", bundle.phi)))
    sys = reduce(full_system, counting, rng=np.random.default_rng(23)).system
    generic = reduce(full_system, callable_jacs(counting),
                     rng=np.random.default_rng(24)).system
    assert counts == {"lift_section": 1, "reduced phi": 1}

    counts.clear()
    step(sys, *REDUCED_START)
    assert counts == {}
    assert newton_counts == {"residual": 2, "jacobian": 1}

    step(generic, *REDUCED_START)
    assert counts["lift_section"] > 0 and counts["reduced phi"] > 0


def test_exact_full_step_calls_no_d1_lagrangian(full_system, newton_counts):
    """The README full step: no ``d1_lagrangian`` call, one Newton
    iteration, two residual evaluations. A Lagrangian without ``jac``
    still differences its slots through ``d1_lagrangian``."""
    step(full_system, *README_FULL_START)
    assert newton_counts == {"residual": 2, "jacobian": 1}

    stencil = dataclasses.replace(
        full_system, lagrangian=dataclasses.replace(full_system.lagrangian,
                                                    jac=None, hess=None))
    step(stencil, *README_FULL_START)
    assert newton_counts["d1_lagrangian"] > 0


def test_reduced_constant_hessian_is_the_callable_one(reduced, full_system, rng):
    """The README Lagrangian is quadratic: its ``hess`` is an array, and
    the reduced one is the array ``T^T H T``, equal bit for bit to what a
    copy with a callable ``hess`` evaluates at every y."""
    L = full_system.lagrangian
    assert isinstance(L.hess, np.ndarray)
    copy = dataclasses.replace(full_system, lagrangian=dataclasses.replace(
        L, hess=lambda x, H=L.hess: H))
    generic = reduce(copy, reduced.model,
                     rng=np.random.default_rng(25)).system.lagrangian
    H = reduced.system.lagrangian.hess
    assert isinstance(H, np.ndarray) and callable(generic.hess)
    for _ in range(20):
        y = np.concatenate(_reduced_start(rng.random(6)))
        assert generic.hessian(y).tobytes() == H.tobytes()


@pytest.mark.parametrize("potential, kernel_calls",
                         [(("linear", 0.5), 0), (("quadratic", 0.3), 1)])
def test_hessian_kernel_calls_per_step(monkeypatch, newton_counts, potential,
                                       kernel_calls):
    """One Newton iteration per step, full and reduced: the README steps
    (``linear 0.5``, a constant Hessian) call the Hessian kernel 0 times,
    the ``quadratic 0.3`` steps once. Each kernel call reads V'' once."""
    full, red = _systems(*potential)
    reads = Counter()
    monkeypatch.setattr(TwoBodyConfig, "v_second",
                        _counted(reads, "v_second", TwoBodyConfig.v_second))
    for sys, start in ((full, README_FULL_START), (red.system, REDUCED_START)):
        reads.clear()
        newton_counts.clear()
        step(sys, *start)
        assert reads["v_second"] == kernel_calls
        assert newton_counts["jacobian"] == 1
