"""Command-line frontend.

Subcommands: simulate, reduce, reconstruct, stages, check. Configuration
is a JSON object with no keys outside ``CONFIG_KEYS`` (``potential``,
when given, an object with a ``name`` and an optional ``coeff``), each
checked before any command runs, also where that command never reads it;
the report commands sample from ``seed`` (a nonnegative integer, default
0, also set by ``--seed``), ``reduce`` and ``check`` take ``n_check``
samples, and the finite ``perturb`` is ``check``'s negative control.
Results are written as CSV (full double precision) plus JSON reports
with per-identity violations, so CI can gate on the exit code: 0 all
checks pass, 1 validation failure, 2 solver failure (``simulate``
writes the trajectory up to the failing step and a ``simulate.json``
whose ``failure`` names it; a report command writes no report), 3 I/O
failure.

Identical config and seed produce byte-identical outputs; timing goes to
the log (env var DLPS_LOG sets verbosity), never into the files.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dlps, example_se2
from .dlps import (DiscretePath, del_residual, free_particle_dms,
                   harmonic_oscillator_dms, simulate)
from .errors import SimulationError, SolverError, draw_maxima, worst_draw
from .lie import sample_group, se2_two_point_action, u1_plane_action
from .reduction import (SYMMETRY_TOLS, check_morphism, check_symmetry,
                        project_path, reconstruct_path, two_stage)
from .smooth import NewtonConfig, SmoothMapHandle

logger = logging.getLogger("dlpsim.cli")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3

#: The keys a config may have; any other key is rejected.
CONFIG_KEYS = ("system", "h", "potential", "initial", "n_steps", "newton",
               "dim", "omega", "seed", "n_check", "perturb")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _finite(cfg: dict, key: str, default: float, rule: str = "finite",
            name: str | None = None) -> float:
    """The number ``cfg[key]``, obeying ``rule``: "finite", "finite and
    nonzero" or "positive and finite". Errors call it ``name`` or ``key``."""
    value = cfg.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or (rule == "finite and nonzero" and value == 0)
            or (rule == "positive and finite" and value <= 0)):
        raise ValueError(f"{name or key} must be {rule} (got {value!r})")
    return float(value)


def _integer(cfg: dict, key: str, default: int, minimum: int) -> int:
    """The integer ``cfg[key]``, at least ``minimum``."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer (got {value!r})")
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{key} must be {bound} (got {value})")
    return value


def _unknown_keys(obj: dict, allowed, name: str):
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")


def _newton_config(cfg: dict) -> NewtonConfig:
    """The ``newton`` object (absent: the defaults) as a ``NewtonConfig``,
    which checks its ``residual_tol`` and ``max_iters``; no other key."""
    overrides = cfg.get("newton", {})
    if not isinstance(overrides, dict):
        raise ValueError(f"newton must be an object (got {overrides!r})")
    _unknown_keys(overrides, ("residual_tol", "max_iters"), "newton")
    try:
        return NewtonConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"newton.{exc}") from exc


def _two_body_config(cfg: dict) -> example_se2.TwoBodyConfig:
    pot = cfg.get("potential", {"name": "linear", "coeff": 0.5})
    if not isinstance(pot, dict) or "name" not in pot:
        raise ValueError(
            f"potential must be an object with a name (got {pot!r})")
    _unknown_keys(pot, ("name", "coeff"), "potential")
    return example_se2.TwoBodyConfig(
        h=_finite(cfg, "h", 0.1, "finite and nonzero"),
        potential=example_se2.potential_handle(pot["name"],
                                               _finite(pot, "coeff", 1.0)))


def _build_system(cfg: dict):
    name = cfg.get("system")
    if name == "se2-two-body":
        return example_se2.make_full_system(_two_body_config(cfg))
    if name == "free-particle":
        return free_particle_dms(dim=_integer(cfg, "dim", 1, 1),
                                 h=_finite(cfg, "h", 1.0, "finite and nonzero"))
    if name == "harmonic-oscillator":
        return harmonic_oscillator_dms(
            h=_finite(cfg, "h", 0.1, "finite and nonzero"),
            omega=_finite(cfg, "omega", 1.0))
    raise ValueError(f"unknown system {name!r}")


def _two_body(cfg: dict) -> tuple[example_se2.TwoBodyConfig,
                                  np.random.Generator]:
    """The two-body config of a report command and its seeded generator."""
    if cfg.get("system") != "se2-two-body":
        raise ValueError("command requires system 'se2-two-body' "
                         f"(got {cfg.get('system')!r})")
    return (_two_body_config(cfg),
            np.random.default_rng(_integer(cfg, "seed", 0, 0)))


def _initial_pair(cfg: dict, sys):
    n, nb = sys.bundle.total_dim, sys.bundle.base_dim
    value = cfg.get("initial")
    if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
        raise ValueError(f"initial must be a list of numbers (got {value!r})")
    initial = np.array(value, dtype=float)
    if initial.shape != (n + nb,):
        raise ValueError(
            f"initial must have length {n + nb} (got shape {initial.shape})")
    if not np.isfinite(initial).all():
        raise ValueError(f"initial must be finite (got {initial.tolist()})")
    # Raises DomainError (a validation failure) off the Lagrangian's
    # domain, e.g. on the two-body collision diagonal, before any solve.
    sys.lagrangian(initial)
    return initial[:n], initial[n:]


def _check_config(command: str, cfg: dict):
    """Apply to every key of ``cfg`` the rule of the code that reads it,
    whichever command runs, so that no malformed value passes unread.

    An absent key takes its default, which obeys the rule. A report
    command first requires the two-body system; a present ``initial``
    must fit the configured system, and ``omega`` is read as the
    harmonic oscillator reads it, so ``h * omega^2`` must be finite.
    """
    if command != "simulate":
        _two_body(cfg)
    sys_ = _build_system(cfg)
    _two_body_config(cfg)
    _build_system(dict(cfg, system="harmonic-oscillator"))
    _integer(cfg, "dim", 1, 1)
    _integer(cfg, "n_steps", 0, 0)
    _integer(cfg, "seed", 0, 0)
    _integer(cfg, "n_check", 1, 1)
    _newton_config(cfg)
    _finite(cfg, "perturb", 0.0)
    if "initial" in cfg:
        _initial_pair(cfg, sys_)


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_trajectory_csv(path: Path, sys, path_obj: DiscretePath):
    n, nb = sys.bundle.total_dim, sys.bundle.base_dim
    header = (["k"] + [f"eps{i}" for i in range(n)]
              + [f"m{i}" for i in range(nb)] + ["residual_norm"])
    lines = [",".join(header)]
    for k, x in enumerate(path_obj.points):
        res = 0.0 if k == 0 else float(np.max(np.abs(
            del_residual(sys, *path_obj[k - 1], *path_obj[k]))))
        lines.append(",".join([str(k)] + [_fmt(v) for v in x] + [_fmt(res)]))
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(cfg: dict, out_dir: Path) -> int:
    sys_ = _build_system(cfg)
    eps0, m1 = _initial_pair(cfg, sys_)
    n_steps = _integer(cfg, "n_steps", 0, 0)
    ncfg = _newton_config(cfg)
    t0 = time.perf_counter()
    try:
        traj = simulate(sys_, eps0, m1, n_steps, cfg=ncfg)
        failure = None
    except SimulationError as exc:
        traj = exc.partial_path
        failure = {"step_index": exc.step_index, "error": str(exc.cause)}
    logger.info("simulate: %d steps in %.3fs", len(traj) - 1,
                time.perf_counter() - t0)
    _write_trajectory_csv(out_dir / "trajectory.csv", sys_, traj)
    meta = {
        "config": cfg,
        "n_pairs": len(traj),
        "newton_residual_tol": ncfg.residual_tol,
        "failure": failure,
    }
    _write_json(out_dir / "simulate.json", meta)
    return EXIT_OK if failure is None else EXIT_SOLVER


def _judged(diffs, samples, tol: float) -> tuple:
    """The check ``(value, tol, sample)`` of per-draw differences: the worst
    draw's violation and sample (None while every violation is 0)."""
    worst, i = worst_draw(draw_maxima(diffs))
    return worst, tol, None if i is None else samples[i]


def _reduce(cfg: dict) -> dict:
    """The T2-reduced system against the full one and the closed-form step;
    each sample is the worst draw's full row x, for the step its reduced
    start (r0, z0, r1)."""
    body, rng = _two_body(cfg)
    n_check = _integer(cfg, "n_check", 100, 1)
    red = example_se2.make_reduced_system(body, rng=rng)
    full = example_se2.make_full_system(body)

    xs, draws = [], []
    for _ in range(n_check):
        x = example_se2.sample_cprime(rng)
        y = red.model.upsilon(x)
        lag = red.system.lagrangian(y)[0] - full.lagrangian(x)[0]
        roundtrip = red.model.upsilon(red.model.lift_section(y)) - y
        g = sample_group(red.model.group_action.group, rng)
        orbit = red.model.upsilon(red.model.group_action.act(g, x)) - y
        y1 = np.concatenate([y[4:], rng.uniform(-1, 1, 2),
                             y[4:] + rng.uniform(-0.2, 0.2, 2)])
        delta = rng.standard_normal(4)
        out = red.system.ivcm_matrix(y, y1) @ delta
        expected = np.array([0.0, 0.0, -delta[2], -delta[3]])
        xs.append(x)
        draws.append((lag, roundtrip, orbit, out - expected))

    starts, steps = [], []
    for _ in range(20):
        r0 = example_se2.sample_annulus(rng, 0.7, 1.3)
        z0 = rng.uniform(-0.2, 0.2, 2)
        r1 = r0 + rng.uniform(-0.1, 0.1, 2)
        eps1, m2 = dlps.step(red.system, np.concatenate([r0, z0]), r1)
        _, z1c, r2c = example_se2.closed_form_reduced_step(body, r0, z0, r1)
        starts.append(np.concatenate([r0, z0, r1]))
        steps.append(np.concatenate([eps1 - np.concatenate([r1, z1c]),
                                     m2 - r2c]))

    lag, roundtrip, orbit, chaining = zip(*draws)
    return {
        "lagrangian_match_max": _judged(lag, xs, 1e-10),
        "upsilon_section_roundtrip_max": _judged(roundtrip, xs, 1e-10),
        "orbit_invariance_max": _judged(orbit, xs, 1e-10),
        "chaining_closed_form_max": _judged(chaining, xs, 1e-9),
        "closed_form_step_max": _judged(steps, starts, 1e-10),
    }


def _reconstruct(cfg: dict) -> dict:
    """A full trajectory projected, checked against the reduced DEL
    equations and rebuilt; each sample is the worst row: of the full
    trajectory for the roundtrip, of the reduced one (the current row of
    the residual) for the DEL check."""
    body, rng = _two_body(cfg)
    full = example_se2.make_full_system(body)
    eps0, m1 = _initial_pair(cfg, full)
    n_steps = _integer(cfg, "n_steps", 50, 0)
    traj = simulate(full, eps0, m1, n_steps, cfg=_newton_config(cfg))
    red = example_se2.make_reduced_system(body, rng=rng)
    reduced = project_path(red.model, traj)
    rebuilt = reconstruct_path(red.model, reduced, eps0, m1)
    residuals = [del_residual(red.system, *reduced[k - 1], *reduced[k])
                 for k in range(1, len(reduced))]
    return {
        "roundtrip_max": _judged(traj.points - rebuilt.points, traj.points,
                                 1e-8),
        "projected_residual_max": _judged(residuals, reduced.points[1:], 1e-8),
    }


def _stages(cfg: dict) -> dict:
    """Two-stage reduction of a full trajectory against the one-shot one;
    each sample is the worst one: the trajectory point (eps_k, m_k+1) of
    the comparison, the (q0, q1) row of the conjugation check."""
    body, rng = _two_body(cfg)
    setup = example_se2.make_staged_setup(body, rng=rng)
    eps0, m1 = _initial_pair(cfg, setup.sys)
    n_steps = _integer(cfg, "n_steps", 50, 0)
    traj = simulate(setup.sys, eps0, m1, n_steps, cfg=_newton_config(cfg))
    report, _f = two_stage(setup.sys, setup.stage_h, setup.stage_gh,
                           setup.one_shot, traj, conn_h=setup.conn_h,
                           full_group_action=setup.action_g,
                           conjugate_in_full=setup.conjugate_in_g, rng=rng)
    step = report["stage_comparison_worst_step"]
    return {
        "stage_comparison_max": (report["stage_comparison_max"], 1e-8,
                                 None if step is None else traj.points[step]),
        "conjugation_equivariance_max": (
            report["conjugation_equivariance_max"], 1e-10,
            report["conjugation_worst_sample"]),
    }


def _check(cfg: dict) -> dict:
    """The morphism conditions for upsilon (shifted by ``perturb``, the
    negative control) and for a sampled SE(2) translation, then the
    symmetry conditions of SE(2) on the full system and of the residual
    circle action on the translation-reduced one."""
    body, rng = _two_body(cfg)
    n_samples = _integer(cfg, "n_check", 50, 1)
    perturb = _finite(cfg, "perturb", 0.0)
    full = example_se2.make_full_system(body)
    red = example_se2.make_reduced_system(body, rng=rng)

    upsilon = red.model.upsilon
    if perturb:
        shift = perturb * np.eye(6)[0]
        upsilon = SmoothMapHandle(8, 6, lambda x: red.model.upsilon(x) + shift)
    reports = {"reduction_morphism": check_morphism(
        upsilon, full, red.system, example_se2.sample_cprime,
        n_samples=n_samples, rng=rng)}
    # g is drawn after upsilon's samples; drawing it earlier changes check.json.
    act = se2_two_point_action()
    g = sample_group(act.group, rng)
    translation = SmoothMapHandle(
        8, 8, lambda x: np.concatenate([act.act(g, x[:4]), act.act(g, x[4:])]))
    reports["group_translation"] = check_morphism(
        translation, full, full, example_se2.sample_cprime,
        n_samples=n_samples, rng=rng)

    # The symmetries are drawn after every morphism sample, which keeps the
    # fields above; their bounds are the ones build_upsilon applies.
    symmetries = {
        "se2_symmetry": (full, act, act, example_se2.sample_cprime),
        "residual_u1_symmetry": (
            red.system, example_se2.make_residual_u1_action(), u1_plane_action(),
            lambda r: red.model.upsilon(example_se2.sample_cprime(r)))}
    checks = {}
    for name, args in symmetries.items():
        rep = check_symmetry(*args, n_samples=n_samples, rng=rng)
        for cond, (worst, sample) in rep.items():
            checks[f"{name}.{cond}"] = (worst, SYMMETRY_TOLS[cond], sample)
    for name, rep in reports.items():
        samples = rep["worst_samples"]
        checks[f"{name}.cond1_submersion_rank"] = {
            "value": rep["cond1_submersion_rank_ok"], "note": rep["cond1_note"],
            "pass": bool(rep["cond1_submersion_rank_ok"])}
        checks[f"{name}.cond2_fiber_slot_rank"] = {
            "value": rep["cond2_fiber_slot_rank_ok"],
            "pass": bool(rep["cond2_fiber_slot_rank_ok"]),
            "sample": _row(samples["cond2_min_singular_value"])}
        for key in ("cond3_base_independence_max",
                    "cond4_base_compatibility_max",
                    "cond5_lagrangian_match_max",
                    "cond6_chaining_intertwine_max"):
            checks[f"{name}.{key}"] = (rep[key], 1e-9, samples[key])
    return checks


REPORTS = {"reduce": _reduce, "reconstruct": _reconstruct,
           "stages": _stages, "check": _check}


def _row(x) -> list | None:
    return None if x is None else [float(v) for v in x]


def _report(command: str, cfg: dict, out_dir: Path, tol: float | None) -> int:
    """Write ``command``'s checks to ``<command>.json``; a ``(value,
    default_tol)`` check passes if value <= (``tol`` or default_tol). A
    third element, the sample attaining the value (or None), is written
    as the entry's ``sample``."""
    checks = {}
    for key, entry in REPORTS[command](cfg).items():
        if isinstance(entry, tuple):
            value, default, *sample = entry
            limit = default if tol is None else tol
            entry = {"value": float(value), "tol": float(limit),
                     "pass": bool(value <= limit)}
            if sample:
                entry["sample"] = _row(*sample)
        checks[key] = entry
    ok = all(entry["pass"] for entry in checks.values())
    _write_json(out_dir / f"{command}.json",
                {"config": cfg, "checks": checks, "all_pass": ok})
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlpsim",
        description="Simulate, reduce, reconstruct and verify discrete "
                    "variational systems with Lie-group symmetry.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", *REPORTS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (nonnegative)")
        p.add_argument("--tol", type=float, default=None,
                       help="override report tolerances (positive, finite)")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("DLPS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 means a solver failure here.
        return EXIT_VALIDATION if exc.code == 2 else exc.code
    try:
        if args.tol is not None:
            _finite(vars(args), "tol", None, "positive and finite", "--tol")
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ValueError(f"config must be a JSON object (got {cfg!r})")
        _unknown_keys(cfg, CONFIG_KEYS, "config")
        if args.seed is not None:
            cfg["seed"] = args.seed
        _check_config(args.command, cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        return _report(args.command, cfg, out_dir, args.tol)
    except json.JSONDecodeError as exc:
        logger.error("config is not valid JSON: %s", exc)
        return EXIT_VALIDATION
    # ValidationError (a failed structural identity) is a ValueError too.
    except (KeyError, ValueError) as exc:
        logger.error("validation failure: %s", exc)
        return EXIT_VALIDATION
    except SolverError as exc:
        logger.error("solver failure: %s", exc)
        return EXIT_SOLVER
    except OSError as exc:
        logger.error("I/O failure: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
