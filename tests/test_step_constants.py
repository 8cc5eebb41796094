"""Step constants are formed once, and the steps stay the same bits.

A system with a constant Newton matrix forms it once and hands the same
read-only array to every step; the two-body gradient reads a constant V'
once, at build; the T2 model's reduced section is one scalar kernel. The
oracles are the per-step paths these replace: a callable ``hess``, a
callable V' and the section ``build_upsilon`` composes.
"""

import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest

from dlpsim import dlps, example_se2
from dlpsim.diagnostics import momentum, momentum_evolution_check
from dlpsim.dlps import del_residual, harmonic_oscillator_dms, simulate, step
from dlpsim.errors import SingularJacobian
from dlpsim.example_se2 import (TwoBodyConfig, make_full_system,
                                make_reduced_model, potential_handle)
from dlpsim.lie import orbit_frame
from dlpsim.reduction import reduce
from dlpsim.smooth import SmoothMapHandle, newton_solve

POTENTIALS = (("zero", 0.0), ("linear", 0.5), ("quadratic", 0.3))
README_FULL_START = (np.array([1.0, 0.0, -1.0, 0.0]),
                     np.array([1.04, 0.03, -0.97, 0.02]))
REDUCED_START = (np.array([1.0, 0.1, 0.05, -0.02]), np.array([1.02, 0.13]))


def _counted(counts, name, fn):
    """``fn`` with each call counted under ``name``."""
    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted


def _composed_section_model(cfg):
    """``make_reduced_model(cfg)`` and the model ``build_upsilon`` returned
    inside it, whose reduced section is the composed one."""
    built = []
    build_upsilon = example_se2.build_upsilon

    def spy(*args, **kwargs):
        built.append(build_upsilon(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(example_se2, "build_upsilon", spy)
        model = make_reduced_model(cfg, rng=np.random.default_rng(1))
    return model, built[0]


@functools.lru_cache(maxsize=None)
def _systems(name, coeff):
    """(full system, reduced system, reduced system with the composed
    section) of the two-body config with this potential."""
    cfg = TwoBodyConfig(h=0.1, potential=potential_handle(name, coeff))
    full = make_full_system(cfg)
    model, built = _composed_section_model(cfg)
    composed = dataclasses.replace(model, reduced_bundle=dataclasses.replace(
        model.reduced_bundle, section=built.reduced_bundle.section))
    return full, reduce(full, model).system, reduce(full, composed).system


def _per_step_hess(sys):
    """``sys`` with its array ``hess`` H behind ``lambda x, H=H: H``, so
    that ``step`` forms its Newton matrix on every call."""
    L = sys.lagrangian
    assert isinstance(L.hess, np.ndarray)
    return dataclasses.replace(sys, lagrangian=dataclasses.replace(
        L, hess=lambda x, H=L.hess: H))


def _newton_matrix_is_constant(sys, z):
    """Whether two reads of ``sys``'s Newton Jacobian at z give one object."""
    return sys._newton_jac(z) is sys._newton_jac(z)


def _chained_rows(sys, starts, n_steps):
    """Every row of ``n_steps`` chained steps from each start, as bytes."""
    rows = []
    for eps, m in starts:
        for _ in range(n_steps):
            eps, m = step(sys, eps, m)
            rows.append(eps.tobytes() + m.tobytes())
    return rows


def _full_starts(rng, n):
    """README starts moved by up to 0.2 per coordinate, first steps by up
    to 0.02."""
    starts = []
    for _ in range(n):
        eps = README_FULL_START[0] + rng.uniform(-0.2, 0.2, 4)
        starts.append((eps, eps + rng.uniform(-0.02, 0.02, 4)))
    return starts


def _reduced_starts(rng, n):
    """((r0, z0), r1) with |r0| in [0.7, 1.3], |z0| and r1 - r0 per axis
    within 0.2 and 0.1."""
    starts = []
    for _ in range(n):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        r0 = rng.uniform(0.7, 1.3) * np.array([np.cos(angle), np.sin(angle)])
        starts.append((np.concatenate([r0, rng.uniform(-0.2, 0.2, 2)]),
                       r0 + rng.uniform(-0.1, 0.1, 2)))
    return starts


@pytest.mark.parametrize("name, coeff", POTENTIALS)
def test_chained_steps_equal_the_per_step_paths(name, coeff):
    """Seeded chained steps, full (10 per start) and reduced (4 per
    start), equal bit for bit the steps of copies that form their Newton
    matrix on every step; the reduced ones also equal the steps of the
    model with ``build_upsilon``'s composed section. The quadratic
    potential has no constant matrix and is its own per-step path."""
    full, red, composed = _systems(name, coeff)
    rng = np.random.default_rng(2025)
    full_starts, red_starts = _full_starts(rng, 20), _reduced_starts(rng, 20)
    got_full = _chained_rows(full, full_starts, 10)
    got_red = _chained_rows(red, red_starts, 4)
    assert got_red == _chained_rows(composed, red_starts, 4)
    if name == "quadratic":
        assert not _newton_matrix_is_constant(full, np.concatenate(README_FULL_START))
        assert not _newton_matrix_is_constant(red, np.concatenate(REDUCED_START))
        return
    assert got_full == _chained_rows(_per_step_hess(full), full_starts, 10)
    assert got_red == _chained_rows(_per_step_hess(red), red_starts, 4)


@pytest.mark.parametrize("name, coeff", [("zero", 0.0), ("linear", 0.5)])
def test_constant_v_prime_steps_equal_the_per_call_read(name, coeff):
    """A constant V' read once at build steps as a V' read on every
    gradient call (the same potential with a callable ``jac``, which also
    gives the Lagrangian its Hessian kernel): bit for bit, chained."""
    V = potential_handle(name, coeff)
    per_call = make_full_system(TwoBodyConfig(h=0.1, potential=dataclasses.replace(
        V, jac=lambda s, J=V.jac: J)))
    assert not _newton_matrix_is_constant(per_call, np.concatenate(README_FULL_START))
    starts = _full_starts(np.random.default_rng(99), 20)
    assert (_chained_rows(_systems(name, coeff)[0], starts, 10)
            == _chained_rows(per_call, starts, 10))


@pytest.mark.parametrize("name, coeff, reads", [("zero", 0.0, 0), ("linear", 0.5, 0),
                                                ("quadratic", 0.3, 1)])
def test_gradient_reads_v_prime_only_when_it_varies(monkeypatch, name, coeff, reads):
    """The gradient kernel makes no ``v_prime`` call for a constant V'
    (``zero``, ``linear``) and exactly one per call for ``quadratic``."""
    full = _systems(name, coeff)[0]
    counts = Counter()
    monkeypatch.setattr(TwoBodyConfig, "v_prime",
                        _counted(counts, "v_prime", TwoBodyConfig.v_prime))
    x = np.concatenate(README_FULL_START)
    for _ in range(5):
        full.lagrangian.jacobian(x)
    assert counts["v_prime"] == 5 * reads


def test_section_kernel_equals_the_composed_section():
    """The T2 model's reduced section equals the one ``build_upsilon``
    composes, bit for bit, on seeded draws of magnitude 1e-3 to 1e3 and on
    signed zeros, infinities and NaN (kept, no raise)."""
    model, built = _composed_section_model(TwoBodyConfig())
    kernel, composed = model.reduced_bundle.section, built.reduced_bundle.section
    assert kernel is not composed
    rng = np.random.default_rng(17)
    draws = [rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
             for _ in range(2000)]
    draws += [np.array(r) for r in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0),
                                    (np.nan, 1.0), (-2.5, np.nan),
                                    (np.inf, -np.inf))]
    for r in draws:
        assert kernel(r).tobytes() == composed(r).tobytes(), r


def test_steps_of_one_system_share_one_read_only_newton_matrix(monkeypatch):
    """Two steps of one system hand ``newton_solve`` the same read-only
    matrix object; a ``dataclasses.replace`` copy forms its own from its
    own fields."""
    seen = []
    newton = dlps.newton_solve

    def spy(residual, x0, cfg=None):
        seen.append(residual.jac(x0))
        return newton(residual, x0, cfg)

    monkeypatch.setattr(dlps, "newton_solve", spy)
    full, red, _ = _systems("linear", 0.5)
    for sys, start in ((full, README_FULL_START), (red, REDUCED_START)):
        seen.clear()
        step(sys, *start)
        step(sys, *step(sys, *start))
        first, second, third = seen
        assert first is second is third and not first.flags.writeable
        assert sys._newton_jac(np.zeros_like(first[0])) is first
        n = sys.bundle.total_dim
        assert np.array_equal(first[:n], sys.lagrangian.hess[:n])

        L = sys.lagrangian
        copy = dataclasses.replace(sys)
        doubled = dataclasses.replace(sys, lagrangian=dataclasses.replace(
            L, hess=2.0 * L.hess))
        step(copy, *start)
        step(doubled, *start)
        assert seen[3] is not first and seen[3].tobytes() == first.tobytes()
        assert np.array_equal(seen[4][:n], 2.0 * L.hess[:n])


def test_callable_hess_is_read_once_per_newton_iteration(monkeypatch):
    """A callable ``hess`` is read once per Newton iteration and each read
    gives a fresh matrix: chained quadratic-potential steps, full and
    reduced, read it exactly as often as ``newton_solve`` asks for a
    Jacobian."""
    counts, matrices = Counter(), []
    newton = dlps.newton_solve

    def spy(residual, x0, cfg=None):
        def jac(z):
            counts["jac"] += 1
            matrices.append(residual.jac(z))
            return matrices[-1]
        return newton(dataclasses.replace(residual, jac=jac), x0, cfg)

    monkeypatch.setattr(dlps, "newton_solve", spy)
    full, red, _ = _systems("quadratic", 0.3)
    for sys, (eps, m) in ((full, README_FULL_START), (red, REDUCED_START)):
        L = sys.lagrangian
        counting = dataclasses.replace(sys, lagrangian=dataclasses.replace(
            L, hess=_counted(counts, "hess", L.hess)))
        counts.clear()
        matrices.clear()
        for _ in range(5):
            eps, m = step(counting, eps, m)
        assert counts["hess"] == counts["jac"] >= 5
        assert len({id(J) for J in matrices}) == len(matrices)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_newton_matrix_raises(bad):
    """A NaN or an infinite entry in the Newton matrix raises
    SingularJacobian: from a callable ``jac``, and from an array ``hess``,
    whose matrix is formed once, on every step."""
    J = np.eye(2)
    J[1, 0] = bad
    residual = SmoothMapHandle(2, 2, lambda x: x - 1.0, jac=lambda x: J)
    with pytest.raises(SingularJacobian):
        newton_solve(residual, np.zeros(2))

    sys = harmonic_oscillator_dms(h=0.1, omega=1.0, dim=2)
    H = np.array(sys.lagrangian.hess)
    H[0, 3] = bad
    broken = dataclasses.replace(sys, lagrangian=dataclasses.replace(
        sys.lagrangian, hess=H))
    for _ in range(3):
        with pytest.raises(SingularJacobian):
            step(broken, np.array([0.5, 0.2]), np.array([0.55, 0.25]))


def test_momentum_check_reads_each_chaining_matrix_once(staged):
    """An 11-pair path of the translation-reduced system makes 10
    ``ivcm_matrix`` calls, one per step, and the report equals the public
    ``del_residual`` and ``momentum`` along the path, bit for bit."""
    sys = staged.stage_h.system
    action = staged.residual_action
    path = simulate(sys, *REDUCED_START, 10)
    counts = Counter()
    counting = dataclasses.replace(
        sys, ivcm_matrix=_counted(counts, "ivcm_matrix", sys.ivcm_matrix))
    report = momentum_evolution_check(counting, action, path)
    assert len(path) == 11 and counts == {"ivcm_matrix": 10}

    pairs = path.pairs
    residuals = [del_residual(sys, *pairs[k - 1], *pairs[k])
                 for k in range(1, len(pairs))]
    assert report["max_del_residual"] == max(float(np.max(np.abs(r)))
                                             for r in residuals)
    momenta = [momentum(sys, action, *p) for p in pairs]
    assert report["momenta"] == [m.tolist() for m in momenta]
    n = sys.bundle.total_dim
    violations = []
    for k in range(1, len(pairs)):
        g1 = sys.lagrangian.jacobian(path.points[k - 1])[0, :n]
        C = sys.ivcm_matrix(path.points[k - 1], path.points[k])
        correction = g1 @ (C @ orbit_frame(action, pairs[k][0]))
        violations.append(momenta[k] - momenta[k - 1] - correction)
    assert report["max_violation"] == max(float(np.max(np.abs(v)))
                                          for v in violations)
