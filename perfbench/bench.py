"""One benchmark run of one workload, in its own process.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1. Prints the
environment (nproc, Python and numpy versions, thread settings) and then
the JSON result line, and writes a record (and, when traced, the spans)
under ``.perfbench/`` in the checkout.

Untraced (``--trace 0``): run ops for ``--seconds``, time setup repeatedly
before and after, and report the end-to-end metrics, every time scaled to
the reference host by the host-speed probes around it (``hostspeed.py``).

Traced (``--trace 1``): two fixed counting passes whose counts must agree
exactly; ``--seconds`` of untraced and traced units alternating on the
same inputs (their throughput ratio gives ``trace.overhead_frac``); and
the CLI pipeline on the README config, traced, so that every layer is
timed on every workload. Per-layer metrics come from this run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from dlpsim import cli, connection, diagnostics, dlps, example_se2, lie
import tracing
from hostspeed import SpeedTrack
from workloads import WORKLOADS, Recorder, full_initial_data, readme_config

#: Setup is timed before and after the op phase: each time at least
#: SETUP_MIN repeats lasting SETUP_MIN_S seconds, at most SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 3, 100, 1.5
#: p90 needs at least ten samples beyond it.
MIN_OPS = 100
CLI_COMMANDS = ("simulate", "reduce", "reconstruct", "stages", "check")
README_CONFIG = {
    "system": "se2-two-body", "h": 0.1,
    "potential": {"name": "linear", "coeff": 0.5}, "n_steps": 50,
    "initial": [1.0, 0.0, -1.0, 0.0, 1.04, 0.03, -0.97, 0.02], "seed": 7,
}
OUT_DIR = Path(".perfbench")


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")}}


def run_ops(wl, state, rng, rec: Recorder, seconds=None, units=None,
            min_ops=0) -> list:
    """Closed loop, ``units`` long or for ``seconds`` and ``min_ops`` ops.

    Returns (start, end, probe time) of each unit: its wall time includes
    the output checks, and any host-speed probes taken inside it.
    """
    start = time.perf_counter()
    deadline = start + (seconds or 0.0)

    def keep_going():
        return rec.attempted < min_ops or time.perf_counter() < deadline

    def probe_time():
        return rec.speed.spent if rec.speed is not None else 0.0

    inputs = wl.inputs(rng)
    spans = []
    while (keep_going() if units is None else len(spans) < units):
        t0, p0 = time.perf_counter(), probe_time()
        wl.unit(state, next(inputs), rec, keep_going if units is None else None)
        spans.append((t0, time.perf_counter(), probe_time() - p0))
    return spans


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _time_setup(wl, seed, speed: SpeedTrack) -> tuple[list, dict]:
    """Setup repeats as (start, seconds), each after a host-speed probe."""
    runs = []
    while len(runs) < SETUP_MIN or (sum(t for _, t in runs) < SETUP_MIN_S
                                    and len(runs) < SETUP_MAX):
        speed.probe()
        start = time.perf_counter()
        state = wl.setup(np.random.default_rng([seed, 1]))
        runs.append((start, time.perf_counter() - start))
    speed.probe()
    return runs, state


def untraced(wl, seed, seconds, record):
    """End-to-end metrics, every time scaled to the reference host.

    Each time is scaled by the host-speed probes around it (``hostspeed``);
    the run record keeps the raw times as well.
    """
    speed = SpeedTrack()
    # Setup is timed on both sides of the op phase so that its median
    # spans more of the machine's speed changes.
    setup_runs, state = _time_setup(wl, seed, speed)
    rec = Recorder(speed=speed)
    units = run_ops(wl, state, np.random.default_rng([seed, 0]), rec, seconds,
                    min_ops=MIN_OPS)
    speed.probe()
    setup_runs += _time_setup(wl, seed, speed)[0]
    setup_s = [t * speed.scale(t0, t0 + t) for t0, t in setup_runs]
    lat = [ms * speed.scale(t0, t0 + ms / 1e3)
           for t0, ms in zip(rec.starts, rec.latencies_ms)]
    wall = sum((t1 - t0 - p) * speed.scale(t0, t1)
               for t0, t1, p in units)
    record.update(
        setup_s=setup_s, op_wall_s=wall,
        latencies_ms=[round(x, 3) for x in lat],
        raw={"setup_s": [t for _, t in setup_runs],
             "op_wall_s": sum(t1 - t0 - p for t0, t1, p in units),
             "latencies_ms": [round(x, 3) for x in rec.latencies_ms]},
        probe_ms=[round(v * 1e3, 4) for v in speed.values])
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "op_ms_p50": _metric(statistics.median(lat), "ms"),
        "op_ms_p90": _metric(statistics.quantiles(lat, n=10)[8], "ms"),
        "ops_per_s": _metric((rec.attempted - rec.failed) / wall, "ops/s"),
        "ops_ok_frac": _metric((rec.attempted - rec.failed) / rec.attempted,
                               "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return rec, metrics, len(lat) >= MIN_OPS


def _counting_pass(wl, state, seed, tracer) -> tuple[dict, Recorder]:
    """Fixed work from a fixed seed, so its counts repeat exactly."""
    tracer.counts.clear()
    rec = Recorder()
    run_ops(wl, state, np.random.default_rng([seed, 2]), rec,
            units=wl.count_units)
    return dict(tracer.counts), rec


def _cli_pipeline(tracer) -> tuple[dict, list]:
    walls, failures = {}, []
    work = OUT_DIR / "cli"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(README_CONFIG))
    for cmd in CLI_COMMANDS:
        run = tracer.spanned(f"cli.{cmd}", cli.main)
        start = time.perf_counter()
        code = run([cmd, "--config", str(config), "--out", str(work)])
        walls[cmd] = time.perf_counter() - start
        if code != 0:
            failures.append(f"cli {cmd} exited {code}")
    return walls, failures


def _probe():
    """The two layers the CLI never calls, timed on fixed inputs."""
    full = example_se2.make_full_system(readme_config())
    rng = np.random.default_rng(0)
    path = dlps.simulate(full, *next(full_initial_data(rng)), 10)
    diagnostics.momentum_evolution_check(full, lie.se2_two_point_action(), path)
    for conn in (example_se2.make_t2_connection(),
                 example_se2.make_se2_connection()):
        connection.check_equivariance(conn, 50, rng=rng)


def traced(wl, seed, seconds, record):
    tracer = tracing.Tracer()
    traced_calls = tracing.patches(tracer)
    rng = np.random.default_rng
    state = wl.setup(rng([seed, 1]))
    with traced_calls:
        traced_state = wl.setup(rng([seed, 1]))
        counts, pass1 = _counting_pass(wl, traced_state, seed, tracer)
        counts2, pass2 = _counting_pass(wl, traced_state, seed, tracer)
    # Untraced and traced units alternate on the same inputs, so a change
    # in the machine's speed during the run hits both sides alike.
    base, timed = Recorder(), Recorder()
    wall = {"untraced": 0.0, "traced": 0.0}
    inputs = {"untraced": wl.inputs(rng([seed, 0])),
              "traced": wl.inputs(rng([seed, 0]))}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        wl.unit(state, next(inputs["untraced"]), base)
        wall["untraced"] += time.perf_counter() - start
        with traced_calls:
            start = time.perf_counter()
            wl.unit(traced_state, next(inputs["traced"]), timed)
            wall["traced"] += time.perf_counter() - start
    n_own = len(tracer.spans)
    with traced_calls:
        cli_walls, cli_failures = _cli_pipeline(tracer)
        _probe()
    rec = Recorder()
    for r in (base, pass1, pass2, timed):
        rec.attempted += r.attempted
        rec.failed += r.failed
        rec.findings += r.findings
    rec.findings += cli_failures
    if counts != counts2:
        rec.findings.append("the two counting passes disagree")
    ops_u = (base.attempted - base.failed) / wall["untraced"]
    ops_t = (timed.attempted - timed.failed) / wall["traced"]
    metrics = layer_metrics(tracer.span_stats(0, n_own),
                            tracer.span_stats(n_own), counts,
                            pass1.attempted, cli_walls)
    metrics["trace.overhead_frac"] = _metric(ops_u / ops_t - 1.0, "ratio")
    record.update(counts=counts, count_ops=pass1.attempted,
                  ops_per_s_untraced=ops_u, ops_per_s_traced=ops_t,
                  cli_wall_s=cli_walls)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl.gz",
                 {"workload": wl.name, "seed": seed, "env": record["env"]})
    return rec, metrics, counts == counts2 and not cli_failures


def layer_metrics(own, pipeline, counts, ops, cli_walls) -> dict:
    """Per-layer metrics of one traced run.

    Times come from the workload's own spans (traced setup and ops); a
    layer the workload never calls is timed on the ``pipeline`` spans (the
    CLI pipeline and probe), which are the same on every workload. Counts
    are per op of a counting pass: ``*_per_step`` counts only work inside
    ``dlps.step`` and divides by the steps taken, ``*_per_op`` counts the
    whole op, checks included. A count is 0 where the workload makes no
    such call.
    """
    steps = counts.get("dlps.step", 0)

    def per_step(name):
        return counts.get(name + "@step", 0) / steps if steps else 0.0

    def per_op(name):
        return counts.get(name, 0) / ops

    def source(name):
        return own if name in own else pipeline

    def p50_ms(name):
        return statistics.median(source(name)[name]["self"]) * 1e3

    def ms_per_unit(name):
        entry = source(name)[name]
        return sum(entry["total"]) * 1e3 / sum(entry["units"])

    def share_of_step(name):
        stats = source(name)
        return sum(stats[name]["total"]) / sum(stats["dlps.step"]["total"])

    iters = per_step("smooth.newton.jacobians")
    trials = (per_step("smooth.newton.residual_evals")
              - per_step("smooth.newton.fd_evals")
              - per_step("smooth.newton.solves"))
    m = {
        "dlps.lagrangian_evals_per_step": (per_step("dlps.lagrangian"), "count"),
        "dlps.step.self_ms_p50": (p50_ms("dlps.step"), "ms"),
        "dlps.del_residual.self_ms_p50": (p50_ms("dlps.del_residual"), "ms"),
        "dlps.del_residual.calls_per_step": (per_step("dlps.del_residual"), "count"),
        "dlps.d1_lagrangian.calls_per_step": (per_step("dlps.d1_lagrangian"), "count"),
        "dlps.d2_lagrangian.calls_per_step": (per_step("dlps.d2_lagrangian"), "count"),
        "smooth.newton.iters_per_step": (iters, "count"),
        "smooth.newton.halvings_per_step": (trials - iters, "count"),
        "smooth.newton.residual_evals_per_step": (
            per_step("smooth.newton.residual_evals"), "count"),
        "smooth.newton.accepted_trial_ratio": (
            iters / trials if trials else 0.0, "ratio"),
        "smooth.newton_solve.self_ms_p50": (p50_ms("smooth.newton_solve"), "ms"),
        "smooth.jacobian_fd.calls_per_op": (per_op("smooth.jacobian_fd"), "count"),
        "reduction.reduced_ivcm_matrix.self_ms_p50": (
            p50_ms("reduction.reduced_ivcm_matrix"), "ms"),
        "reduction.reduced_ivcm_matrix.calls_per_step": (
            per_step("reduction.reduced_ivcm_matrix"), "count"),
        "reduction.reduced_ivcm_matrix.share_of_step": (
            share_of_step("reduction.reduced_ivcm_matrix"), "ratio"),
        "reduction.lift_section.calls_per_op": (
            per_op("reduction.lift_section"), "count"),
        "reduction.upsilon.calls_per_op": (per_op("reduction.upsilon"), "count"),
        "reduction.solve_matching.calls_per_op": (
            per_op("reduction.solve_matching"), "count"),
        "reduction.project_path.self_ms": (p50_ms("reduction.project_path"), "ms"),
        "reduction.reconstruct_path.self_ms": (
            p50_ms("reduction.reconstruct_path"), "ms"),
        "reduction.build_upsilon.self_s": (
            p50_ms("reduction.build_upsilon") / 1e3, "s"),
        "reduction.check_morphism.ms_per_sample": (
            ms_per_unit("reduction.check_morphism"), "ms"),
        "reduction.two_stage.self_ms": (p50_ms("reduction.two_stage"), "ms"),
        "connection.check_equivariance.ms_per_sample": (
            ms_per_unit("connection.check_equivariance"), "ms"),
        "connection.ad_form.calls_per_op": (per_op("connection.ad_form"), "count"),
        "diagnostics.momentum_evolution_check.ms_per_step": (
            ms_per_unit("diagnostics.momentum_evolution_check"), "ms"),
        "example_se2.make_reduced_system.self_s": (
            p50_ms("example_se2.make_reduced_system") / 1e3, "s"),
        "example_se2.make_staged_setup.self_s": (
            p50_ms("example_se2.make_staged_setup") / 1e3, "s"),
    }
    for cmd, wall in cli_walls.items():
        m[f"cli.{cmd}.wall_s"] = (wall, "s")
    return {name: _metric(v, unit) for name, (v, unit) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    run = traced if args.trace else untraced
    rec, metrics, correct = run(wl, args.seed, args.seconds, record)
    result = {"correct": bool(correct and rec.failed == 0),
              "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    record.update(result=result, findings=rec.findings)
    runs = OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
