"""Spans and exact counters for the traced benchmark run.

Tracing patches module attributes of dlpsim and wraps the handles and
connections that its factories return, so nothing in the library changes.
Every wrapped call is counted. The coarser boundaries also record a span:
(name, parent, start, end, units). Calls that happen hundreds of times per
step (Lagrangian, ``upsilon``, ``lift_section``, ``ad_form`` and the
Newton residual) are counted only, so tracing stays cheap.

A count made while a ``dlps.step`` is running is also kept under
``<name>@step``; per-step figures use those, so the output checks that
run between steps do not leak into them.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import time
from collections import Counter, defaultdict

from dlpsim import (cli, connection, diagnostics, dlps, example_se2,
                    reduction, smooth)


class Tracer:
    """In-memory spans and counts; written out once, after the run."""

    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end, units)
        self.counts = Counter()
        self._stack = []
        self._step_depth = 0

    def count(self, name: str, n: int = 1):
        self.counts[name] += n
        if self._step_depth:
            self.counts[name + "@step"] += n

    def counted(self, name: str, fn):
        """``fn`` that counts its calls under ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def spanned(self, name: str, fn, units=None, step: bool = False):
        """``fn`` that counts its calls and records a span for each.

        ``units(arguments)`` gives the work a call does (samples, steps)
        from its bound arguments; ``step`` marks the span as a DEL step.
        """
        sig = inspect.signature(fn) if units else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            n_units = 1
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                n_units = units(bound.arguments)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            self._step_depth += step
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._step_depth -= step
                self._stack.pop()
                self.spans[idx] = (name, parent, start, end, n_units)
        return wrapper

    def span_stats(self, first: int = 0, stop: int | None = None) -> dict:
        """Per span name: self times, durations (s) and units.

        Covers spans ``first`` to ``stop`` in start order; a span's
        children start after it and end before it, so a contiguous range
        that holds a span also holds its children.
        """
        spans = self.spans[first:stop]
        covered = [0.0] * len(spans)
        for _name, parent, start, end, _u in spans:
            if parent >= first:
                covered[parent - first] += end - start
        stats = defaultdict(lambda: {"self": [], "total": [], "units": []})
        for i, (name, _parent, start, end, units) in enumerate(spans):
            entry = stats[name]
            entry["self"].append(end - start - covered[i])
            entry["total"].append(end - start)
            entry["units"].append(units)
        return dict(stats)

    def write(self, path, header: dict):
        """Spans as gzipped JSON lines, after one header line."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(header) + "\n")
            for name, parent, start, end, units in self.spans:
                out.write(json.dumps([name, parent, start, end, units]) + "\n")


class _CountingResidual:
    """A Newton residual handle that counts evaluations and Jacobians.

    Evaluations made while the finite-difference Jacobian is formed are
    also counted under ``smooth.newton.fd_evals``; the rest are the
    initial evaluation and the line-search trials.
    """

    def __init__(self, handle, tracer: Tracer):
        self._tracer = tracer
        self._eval = handle.eval
        self._in_jacobian = False
        self._handle = dataclasses.replace(handle, eval=self._counting_eval)
        self.in_dim, self.out_dim = handle.in_dim, handle.out_dim

    def _counting_eval(self, x):
        self._tracer.count("smooth.newton.residual_evals")
        if self._in_jacobian:
            self._tracer.count("smooth.newton.fd_evals")
        return self._eval(x)

    def __call__(self, x):
        return self._handle(x)

    def jacobian(self, x, step=None):
        self._tracer.count("smooth.newton.jacobians")
        self._in_jacobian = True
        try:
            return self._handle.jacobian(x, step=step)
        finally:
            self._in_jacobian = False


class Patches:
    """Module attributes that a ``with`` block replaces and then restores.

    The same patches can be entered again, so traced and untraced work can
    alternate in one process.
    """

    def __init__(self):
        self._replacements = []
        self._saved = []

    def set(self, module, attr: str, value):
        self._replacements.append((module, attr, value))

    def __enter__(self):
        for module, attr, value in self._replacements:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def _n_samples(args) -> int:
    return int(args["n_samples"])


def _n_steps(args) -> int:
    return max(len(args["trajectory"]) - 1, 1)


def _handle(tracer: Tracer, name: str, handle):
    return dataclasses.replace(handle, eval=tracer.counted(name, handle.eval))


def patches(tracer: Tracer) -> Patches:
    """Patches that route dlpsim's public entry points through ``tracer``.

    They act inside their ``with`` block. Objects built there keep their
    wrappers after it.
    """
    p = Patches()

    def patch(name, fn, modules, **kw):
        wrapped = tracer.spanned(name, fn, **kw)
        for module in modules:
            p.set(module, fn.__name__, wrapped)

    patch("dlps.step", dlps.step, [dlps], step=True)
    patch("dlps.del_residual", dlps.del_residual, [dlps, diagnostics, cli])
    patch("dlps.d1_lagrangian", dlps.d1_lagrangian, [dlps, diagnostics])
    patch("dlps.d2_lagrangian", dlps.d2_lagrangian, [dlps, diagnostics])

    newton = dlps.newton_solve

    def counting_newton(residual, x0, cfg=None):
        tracer.count("smooth.newton.solves")
        return newton(_CountingResidual(residual, tracer), x0, cfg)

    p.set(dlps, "newton_solve",
          tracer.spanned("smooth.newton_solve", counting_newton))
    patch("smooth.jacobian_fd", smooth.jacobian_fd,
          [smooth, reduction, example_se2])

    patch("reduction.solve_matching", reduction.solve_matching, [reduction])
    patch("reduction.project_path", reduction.project_path, [reduction, cli])
    patch("reduction.reconstruct_path", reduction.reconstruct_path,
          [reduction, cli])
    patch("reduction.two_stage", reduction.two_stage, [reduction, cli])
    patch("reduction.check_morphism", reduction.check_morphism,
          [reduction, cli], units=_n_samples)

    build_upsilon = reduction.build_upsilon

    def traced_build_upsilon(*args, **kwargs):
        model = build_upsilon(*args, **kwargs)
        return dataclasses.replace(
            model,
            upsilon=_handle(tracer, "reduction.upsilon", model.upsilon),
            lift_section=_handle(tracer, "reduction.lift_section",
                                 model.lift_section))

    reduce_ = reduction.reduce

    def traced_reduce(*args, **kwargs):
        result = reduce_(*args, **kwargs)
        system = dataclasses.replace(
            result.system,
            ivcm=tracer.spanned("reduction.reduced_ivcm", result.system.ivcm),
            ivcm_matrix=tracer.spanned("reduction.reduced_ivcm_matrix",
                                       result.system.ivcm_matrix))
        return dataclasses.replace(result, system=system)

    patch("reduction.build_upsilon",
          functools.wraps(build_upsilon)(traced_build_upsilon),
          [reduction, example_se2])
    patch("reduction.reduce", functools.wraps(reduce_)(traced_reduce),
          [reduction, example_se2])

    patch("connection.check_equivariance", connection.check_equivariance,
          [connection], units=_n_samples)
    patch("diagnostics.momentum_evolution_check",
          diagnostics.momentum_evolution_check, [diagnostics], units=_n_steps)

    patch("example_se2.make_reduced_system", example_se2.make_reduced_system,
          [example_se2])
    patch("example_se2.make_staged_setup", example_se2.make_staged_setup,
          [example_se2])

    make_full = example_se2.make_full_system

    def counting_full_system(cfg):
        sys_ = make_full(cfg)
        return dataclasses.replace(
            sys_, lagrangian=_handle(tracer, "dlps.lagrangian", sys_.lagrangian))

    p.set(example_se2, "make_full_system",
          functools.wraps(make_full)(counting_full_system))

    for attr in ("make_t2_connection", "make_se2_connection",
                 "make_u1_connection"):
        factory = getattr(example_se2, attr)

        def counting_connection(factory=factory):
            conn = factory()
            return dataclasses.replace(
                conn, ad_form=tracer.counted("connection.ad_form", conn.ad_form))

        p.set(example_se2, attr, functools.wraps(factory)(counting_connection))
    return p
