"""The benchmark tracer's patches still find every name they wrap.

``perfbench/tracing.py`` replaces dlpsim module attributes by name; a
rename or deletion in the library would otherwise surface only when the
benchmark runs.
"""

import importlib
from pathlib import Path

import numpy as np

from dlpsim import (connection, diagnostics, dlps, example_se2, lie,
                    reduction)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_count_full_and_reduced_steps(monkeypatch, callable_jacs):
    """The README full step and the translation-reduced step build their
    one Newton Jacobian from the Lagrangian's Hessian: no residual
    evaluation goes to differencing, and the residual is evaluated at the
    guess and at one trial. Building the reduced system never reads the
    generic chaining matrix, and its step reads the constant, with no
    group matching. The generic reduced system, whose Lagrangian has no
    ``hess``, differences its residual and rebuilds the matrix on every
    evaluation."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    eps0, r1 = np.array([1.0, 0.1, 0.05, -0.02]), np.array([1.02, 0.13])
    with tracing.patches(tracer):
        cfg = example_se2.TwoBodyConfig()
        full = example_se2.make_full_system(cfg)
        tracer.counts.clear()
        red = example_se2.make_reduced_system(cfg, rng=np.random.default_rng(1))
        build_counts = dict(tracer.counts)
        generic = reduction.reduce(full, callable_jacs(red.model),
                                   rng=np.random.default_rng(2)).system
        tracer.counts.clear()
        dlps.step(full, np.array([1.0, 0.0, -1.0, 0.0]),
                  np.array([1.04, 0.03, -0.97, 0.02]))
        full_counts = dict(tracer.counts)
        tracer.counts.clear()
        dlps.step(red.system, eps0, r1)
        red_counts = dict(tracer.counts)
        tracer.counts.clear()
        dlps.step(generic, eps0, r1)
    for counts in (full_counts, red_counts):
        assert counts.get("smooth.newton.fd_evals", 0) == 0
        assert counts.get("smooth.jacobian_fd", 0) == 0
        assert counts["smooth.newton.jacobians"] == 1
        assert counts["smooth.newton.residual_evals"] == 2
        assert counts["dlps.step"] == 1
    assert build_counts.get("reduction.reduced_ivcm_matrix", 0) == 0
    assert red_counts.get("reduction.solve_matching", 0) == 0
    assert generic.lagrangian.hess is None
    assert tracer.counts["smooth.newton.fd_evals"] > 0
    assert tracer.counts["reduction.reduced_ivcm_matrix"] > 2


def test_tracer_units_bind_checker_signatures(monkeypatch):
    """The per-sample and per-step spans read ``n_samples`` and
    ``trajectory`` off the checkers' signatures by name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracing.patches(tracer):
        cfg = example_se2.TwoBodyConfig()
        full = example_se2.make_full_system(cfg)
        red = example_se2.make_reduced_system(cfg, rng=np.random.default_rng(1))
        path = dlps.simulate(full, np.array([1.0, 0.0, -1.0, 0.0]),
                             np.array([1.04, 0.03, -0.97, 0.02]), 3)
        reduction.check_morphism(red.model.upsilon, full, red.system,
                                 example_se2.sample_cprime, n_samples=2,
                                 rng=np.random.default_rng(2))
        connection.check_equivariance(example_se2.make_t2_connection(), 4,
                                      rng=np.random.default_rng(3))
        diagnostics.momentum_evolution_check(full, lie.t2_two_point_action(),
                                             path)
    stats = tracer.span_stats()
    assert stats["reduction.check_morphism"]["units"] == [2]
    assert stats["connection.check_equivariance"]["units"] == [4]
    assert stats["diagnostics.momentum_evolution_check"]["units"] == [3]
