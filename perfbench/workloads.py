"""The three benchmark workloads.

Each workload is a closed loop with one caller: an op starts after the
previous one returns. All use the README config (h = 0.1, potential
``linear 0.5``). Inputs come only from the seeded generator handed in;
every op's output is checked at the tolerances of the CLI reports, and an
op that raises or fails its check counts as failed. Failed ops are not
dropped or retried. A workload runs in units: a trajectory segment or a
verification round.

* ``full_trajectory``: op = one ``dlps.step`` of the full two-body
  system. Each 10-step segment starts from seeded data off the collision
  diagonal; after it, ``project_path`` -> ``reconstruct_path`` and
  ``momentum_evolution_check`` under the SE(2) action check the segment.
* ``reduced_trajectory``: op = one ``dlps.step`` of the translation-
  reduced system, chained for 4 steps from seeded ``(r0, z0, r1)`` and
  checked against ``closed_form_reduced_step``.
* ``verify``: op = one verification round on a fresh seeded sample:
  ``check_morphism`` (upsilon, an SE(2) translation),
  ``check_equivariance`` (T2, SE(2)) and ``two_stage`` on a short
  trajectory that setup precomputes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from dlpsim import (connection, diagnostics, dlps, example_se2, lie,
                    reduction)
from dlpsim.smooth import SmoothMapHandle
from hostspeed import SpeedTrack

#: Per-step DEL residual bound (CLI ``reconstruct`` residual tolerance).
STEP_RESIDUAL_TOL = 1e-8
#: reconstruct(project(path)) bound (CLI ``reconstruct`` roundtrip).
ROUNDTRIP_TOL = 1e-8
#: Momentum evolution identity on a DMS trajectory (acceptance criterion 6).
MOMENTUM_TOL = 1e-10
#: Reduced step against the closed form (CLI ``reduce``).
CLOSED_FORM_TOL = 1e-10
#: Morphism conditions 3-6 (CLI ``check``).
MORPHISM_TOL = 1e-9
#: Connection equivariance (acceptance criterion 5).
EQUIVARIANCE_TOL = 1e-10
#: Stage comparison and conjugation equivariance (CLI ``stages``).
STAGE_TOL = 1e-8
CONJUGATION_TOL = 1e-10


def readme_config() -> example_se2.TwoBodyConfig:
    return example_se2.TwoBodyConfig(
        h=0.1, potential=example_se2.potential_handle("linear", 0.5))


def _max_abs(a) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def low_discrepancy(rng: np.random.Generator, dim: int):
    """Points of [0, 1)^dim that cover the cube evenly for any run length.

    Point n is frac(shift + n * alpha), with alpha from the R_d sequence
    and the shift drawn from the seed. Each seed gives its own inputs, but
    the share of hard inputs in a run varies far less between seeds than
    with independent draws, which keeps the percentiles steady.
    """
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1)
    point = rng.random(dim)
    while True:
        yield point
        point = (point + alpha) % 1.0


#: README initial data: q0 and q1 of the two-body trajectory.
README_Q0 = np.array([1.0, 0.0, -1.0, 0.0])
README_Q1 = np.array([1.04, 0.03, -0.97, 0.02])


def full_initial_data(rng: np.random.Generator):
    """(q0, q1): the README initial data, each coordinate moved by up to
    0.2 and the first step by up to 0.02, so separations stay above 1.4."""
    for u in low_discrepancy(rng, 8):
        q0 = README_Q0 + 0.4 * (u[:4] - 0.5)
        yield q0, q0 + (README_Q1 - README_Q0) + 0.04 * (u[4:] - 0.5)


def reduced_initial_data(rng: np.random.Generator):
    """((r0, z0), r1) as the CLI ``reduce`` check draws them: |r0| in
    [0.7, 1.3], z0 and r1 - r0 per axis within 0.2 and 0.1."""
    for u in low_discrepancy(rng, 6):
        angle = 2.0 * np.pi * u[1]
        r0 = (0.7 + 0.6 * u[0]) * np.array([np.cos(angle), np.sin(angle)])
        yield (np.concatenate([r0, 0.4 * (u[2:4] - 0.5)]),
               r0 + 0.2 * (u[4:] - 0.5))


@dataclass
class Recorder:
    """Latencies of completed ops, and ops attempted and failed.

    With a ``speed`` track, the host speed is probed before each op;
    ``starts`` keeps the start time of each completed op.
    """

    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    findings: list = field(default_factory=list)
    speed: SpeedTrack | None = None
    starts: list = field(default_factory=list)

    def timed(self, fn, *args):
        """Run one op; its latency excludes the caller's output check."""
        if self.speed is not None:
            self.speed.probe()
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a raising op is a result
            self.fail(1, f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None
        self.latencies_ms.append((time.perf_counter() - start) * 1e3)
        self.starts.append(start)
        return out

    def fail(self, n_ops: int, finding: str):
        """Count ``n_ops`` failed ops; keep the first findings."""
        self.failed += n_ops
        if len(self.findings) < 20:
            self.findings.append(finding)


class FullTrajectory:
    name = "full_trajectory"
    segment_steps = 10
    count_units = 2

    def setup(self, rng):
        cfg = readme_config()
        return {"full": example_se2.make_full_system(cfg),
                "red": example_se2.make_reduced_system(cfg, rng=rng),
                "se2": lie.se2_two_point_action()}

    def inputs(self, rng):
        return full_initial_data(rng)

    def unit(self, state, start, rec: Recorder, keep_going=None):
        full, model = state["full"], state["red"].model
        q0, q1 = start
        pairs = [(q0, q1)]
        passed = 0
        for k in range(self.segment_steps):
            if k and keep_going is not None and not keep_going():
                break
            out = rec.timed(dlps.step, full, *pairs[-1])
            if out is None:
                break
            res = _max_abs(dlps.del_residual(full, *pairs[-1], *out))
            if res <= STEP_RESIDUAL_TOL:
                passed += 1
            else:
                rec.fail(1, f"step {k}: DEL residual {res:.3e}")
            pairs.append(out)
        if len(pairs) < 2:
            return
        path = dlps.make_path(pairs)
        try:
            rebuilt = reduction.reconstruct_path(
                model, reduction.project_path(model, path), q0, q1)
            roundtrip = max(_max_abs(np.concatenate(a) - np.concatenate(b))
                            for a, b in zip(path.pairs, rebuilt.pairs))
            mom = diagnostics.momentum_evolution_check(full, state["se2"], path)
        except Exception as exc:  # noqa: BLE001 - the segment's ops fail
            rec.fail(passed, f"segment check: {type(exc).__name__}: {exc}")
            return
        if not (roundtrip <= ROUNDTRIP_TOL and mom["precondition_ok"]
                and mom["max_violation"] <= MOMENTUM_TOL):
            rec.fail(passed, f"segment check: roundtrip {roundtrip:.3e}, "
                             f"momentum {mom['max_violation']:.3e}")


class ReducedTrajectory:
    name = "reduced_trajectory"
    segment_steps = 4
    count_units = 3

    def setup(self, rng):
        cfg = readme_config()
        return {"cfg": cfg, "red": example_se2.make_reduced_system(cfg, rng=rng)}

    def inputs(self, rng):
        return reduced_initial_data(rng)

    def unit(self, state, start, rec: Recorder, keep_going=None):
        cfg, system = state["cfg"], state["red"].system
        eps, m = start
        for k in range(self.segment_steps):
            if k and keep_going is not None and not keep_going():
                break
            out = rec.timed(dlps.step, system, eps, m)
            if out is None:
                break
            _, z1, r2 = example_se2.closed_form_reduced_step(cfg, eps[:2],
                                                             eps[2:], m)
            err = max(_max_abs(out[0] - np.concatenate([m, z1])),
                      _max_abs(out[1] - r2))
            if err > CLOSED_FORM_TOL:
                rec.fail(1, f"step {k}: closed-form mismatch {err:.3e}")
            eps, m = out


class Verify:
    name = "verify"
    short_steps = 10
    morphism_samples = 10
    equivariance_samples = 50
    count_units = 5

    def setup(self, rng):
        cfg = readme_config()
        full = example_se2.make_full_system(cfg)
        return {"full": full,
                "red": example_se2.make_reduced_system(cfg, rng=rng),
                "staged": example_se2.make_staged_setup(cfg, rng=rng),
                "short": dlps.simulate(full, *next(full_initial_data(rng)),
                                       self.short_steps)}

    def round(self, state, rng):
        full, red, staged = state["full"], state["red"], state["staged"]
        n = self.morphism_samples
        rep_ups = reduction.check_morphism(red.model.upsilon, full, red.system,
                                           example_se2.sample_cprime,
                                           n_samples=n, rng=rng)
        act = staged.action_g
        g = lie.sample_group(act.group, rng)
        translation = SmoothMapHandle(
            8, 8, lambda x: np.concatenate([act.act(g, x[:4]), act.act(g, x[4:])]))
        rep_tr = reduction.check_morphism(translation, full, full,
                                          example_se2.sample_cprime,
                                          n_samples=n, rng=rng)
        eq = [connection.check_equivariance(c, self.equivariance_samples, rng=rng)
              for c in (staged.conn_h, staged.conn_g)]
        stages, _ = reduction.two_stage(
            staged.sys, staged.stage_h, staged.stage_gh, staged.one_shot,
            state["short"], conn_h=staged.conn_h,
            full_group_action=staged.action_g,
            conjugate_in_full=staged.conjugate_in_g, rng=rng,
            n_checks=self.equivariance_samples)
        return rep_ups, rep_tr, eq, stages

    def inputs(self, rng):
        while True:
            yield np.random.default_rng(rng.integers(1 << 62))

    def unit(self, state, round_rng, rec: Recorder, keep_going=None):
        out = rec.timed(self.round, state, round_rng)
        if out is None:
            return
        rep_ups, rep_tr, eq, stages = out
        bad = [f"{name}.{key}" for name, rep in (("upsilon", rep_ups),
                                                  ("translation", rep_tr))
               for key, ok in _morphism_gates(rep).items() if not ok]
        bad += [f"equivariance[{i}]" for i, rep in enumerate(eq)
                if not rep["max_violation"] <= EQUIVARIANCE_TOL]
        if not stages["stage_comparison_max"] <= STAGE_TOL:
            bad.append("stage_comparison_max")
        if not stages["conjugation_equivariance_max"] <= CONJUGATION_TOL:
            bad.append("conjugation_equivariance_max")
        if bad:
            rec.fail(1, "verify round: " + ", ".join(bad))


def _morphism_gates(rep: dict) -> dict:
    gates = {"cond1_submersion_rank_ok": rep["cond1_submersion_rank_ok"],
             "cond2_fiber_slot_rank_ok": rep["cond2_fiber_slot_rank_ok"]}
    for key in ("cond3_base_independence_max", "cond4_base_compatibility_max",
                "cond5_lagrangian_match_max", "cond6_chaining_intertwine_max"):
        gates[key] = rep[key] <= MORPHISM_TOL
    return gates


WORKLOADS = {w.name: w for w in (FullTrajectory(), ReducedTrajectory(), Verify())}
