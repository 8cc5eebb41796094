"""Command-line frontend.

Subcommands: simulate, reduce, reconstruct, stages, check. Configuration
comes from a JSON file; results are written as CSV (full double
precision) plus JSON reports with per-identity violations, so CI can gate
on the exit code: 0 all checks pass, 1 validation failure, 2 solver
failure (partial output written), 3 I/O failure.

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

from . import example_se2
from .dlps import (DiscretePath, del_residual, free_particle_dms,
                   harmonic_oscillator_dms, simulate)
from .errors import (MatchingError, NonConvergence, RegularityError,
                     SimulationError, SingularJacobian)
from .reduction import (check_morphism, project_path, reconstruct_path,
                        two_stage)
from .smooth import NewtonConfig, SmoothMapHandle

logger = logging.getLogger("dlpsim.cli")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3

SOLVER_ERRORS = (NonConvergence, SingularJacobian, SimulationError,
                 MatchingError, RegularityError)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _positive_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _finite(cfg: dict, key: str, default: float, nonzero: bool = False) -> float:
    """The number ``cfg[key]``: finite, and nonzero when asked."""
    value = cfg.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (nonzero and value == 0)):
        rule = "finite and nonzero" if nonzero else "finite"
        raise ValueError(f"{key} must be {rule} (got {value!r})")
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


def _newton_config(cfg: dict) -> NewtonConfig | None:
    """The ``newton`` overrides: ``residual_tol`` (positive, finite) and
    ``max_iters`` (an integer of at least 1); any other key is rejected."""
    overrides = cfg.get("newton")
    if not overrides:
        return None
    if not isinstance(overrides, dict):
        raise ValueError(f"newton must be an object (got {overrides!r})")
    unknown = sorted(set(overrides) - {"residual_tol", "max_iters"})
    if unknown:
        raise ValueError(f"unknown newton keys {unknown}")
    tol = overrides.get("residual_tol", NewtonConfig.residual_tol)
    if not _positive_finite(tol):
        raise ValueError(
            f"newton.residual_tol must be positive and finite (got {tol!r})")
    iters = overrides.get("max_iters", NewtonConfig.max_iters)
    if isinstance(iters, bool) or not isinstance(iters, int) or iters < 1:
        raise ValueError(
            f"newton.max_iters must be an integer of at least 1 (got {iters!r})")
    return NewtonConfig(residual_tol=tol, max_iters=iters)


def _two_body_config(cfg: dict) -> example_se2.TwoBodyConfig:
    pot = cfg.get("potential", {"name": "linear", "coeff": 0.5})
    return example_se2.TwoBodyConfig(
        h=_finite(cfg, "h", 0.1, nonzero=True),
        potential=example_se2.potential_handle(pot["name"],
                                               _finite(pot, "coeff", 1.0)))


def _build_system(cfg: dict):
    name = cfg.get("system")
    if name == "se2-two-body":
        return example_se2.make_full_system(_two_body_config(cfg))
    if name == "free-particle":
        return free_particle_dms(dim=_integer(cfg, "dim", 1, 1),
                                 h=_finite(cfg, "h", 1.0, nonzero=True))
    if name == "harmonic-oscillator":
        return harmonic_oscillator_dms(h=_finite(cfg, "h", 0.1, nonzero=True),
                                       omega=_finite(cfg, "omega", 1.0))
    raise ValueError(f"unknown system {name!r}")


def _require_two_body(cfg: dict):
    if cfg.get("system") != "se2-two-body":
        raise ValueError("command requires system 'se2-two-body' "
                         f"(got {cfg.get('system')!r})")


def _initial_pair(cfg: dict, sys):
    n, nb = sys.bundle.total_dim, sys.bundle.base_dim
    initial = np.asarray(cfg["initial"], dtype=float)
    if initial.shape != (n + nb,):
        raise ValueError(
            f"initial must have length {n + nb} (got shape {initial.shape})")
    if not np.all(np.isfinite(initial)):
        raise ValueError(f"initial must be finite (got {initial.tolist()})")
    # Raises DomainError (a validation failure) off the Lagrangian's
    # domain, e.g. on the two-body collision diagonal, before any solve.
    sys.lagrangian(initial)
    return initial[:n], initial[n:]


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


def _report_payload(cfg: dict, checks: dict) -> tuple[dict, bool]:
    ok = all(entry["pass"] for entry in checks.values())
    return {"config": cfg, "checks": checks, "all_pass": ok}, ok


def _tol(override: float | None, default: float) -> float:
    """The report tolerance: the ``--tol`` override when given."""
    return default if override is None else override


def _check_entry(value: float, tol: float) -> dict:
    return {"value": float(value), "tol": float(tol),
            "pass": bool(value <= tol)}


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
        "newton_residual_tol": (ncfg or NewtonConfig()).residual_tol,
        "failure": failure,
    }
    _write_json(out_dir / "simulate.json", meta)
    return EXIT_OK if failure is None else EXIT_SOLVER


def cmd_reduce(cfg: dict, out_dir: Path, tol_override: float | None) -> int:
    _require_two_body(cfg)
    body = _two_body_config(cfg)
    n_check = _integer(cfg, "n_check", 100, 1)
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    red = example_se2.make_reduced_system(body, rng=rng)
    full = example_se2.make_full_system(body)

    lag_max = roundtrip_max = orbit_max = ivcm_max = step_max = 0.0
    for _ in range(n_check):
        x = example_se2.sample_cprime(rng)
        y = red.model.upsilon(x)
        lag_max = max(lag_max, abs(
            float(red.system.lagrangian(y)[0]) - float(full.lagrangian(x)[0])))
        roundtrip_max = max(roundtrip_max, float(np.max(np.abs(
            red.model.upsilon(red.model.lift_section(y)) - y))))
        from .lie import sample_group
        g = sample_group(red.model.group, rng)
        orbit_max = max(orbit_max, float(np.max(np.abs(
            red.model.upsilon(red.model.group_action.act(g, x)) - y))))
        v1 = np.concatenate([y[4:], rng.uniform(-1, 1, 2)])
        pair0 = (y[:4], y[4:])
        pair1 = (v1, y[4:] + rng.uniform(-0.2, 0.2, 2))
        delta = rng.standard_normal(4)
        out = red.system.ivcm(pair0, pair1, delta)
        expected = np.array([0.0, 0.0, -delta[2], -delta[3]])
        ivcm_max = max(ivcm_max, float(np.max(np.abs(out - expected))))

    from .dlps import step as dlps_step
    for _ in range(20):
        r0 = example_se2.sample_annulus(rng, 0.7, 1.3)
        z0 = rng.uniform(-0.2, 0.2, 2)
        r1 = r0 + rng.uniform(-0.1, 0.1, 2)
        eps1, m2 = dlps_step(red.system, np.concatenate([r0, z0]), r1)
        _, z1c, r2c = example_se2.closed_form_reduced_step(body, r0, z0, r1)
        step_max = max(step_max,
                       float(np.max(np.abs(eps1 - np.concatenate([r1, z1c])))),
                       float(np.max(np.abs(m2 - r2c))))

    checks = {
        "lagrangian_match_max": _check_entry(lag_max, _tol(tol_override, 1e-10)),
        "upsilon_section_roundtrip_max": _check_entry(
            roundtrip_max, _tol(tol_override, 1e-10)),
        "orbit_invariance_max": _check_entry(orbit_max, _tol(tol_override, 1e-10)),
        "chaining_closed_form_max": _check_entry(ivcm_max, _tol(tol_override, 1e-9)),
        "closed_form_step_max": _check_entry(step_max, _tol(tol_override, 1e-10)),
    }
    payload, ok = _report_payload(cfg, checks)
    _write_json(out_dir / "reduce.json", payload)
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_reconstruct(cfg: dict, out_dir: Path, tol_override: float | None) -> int:
    _require_two_body(cfg)
    body = _two_body_config(cfg)
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    full = example_se2.make_full_system(body)
    red = example_se2.make_reduced_system(body, rng=rng)
    eps0, m1 = _initial_pair(cfg, full)
    n_steps = _integer(cfg, "n_steps", 50, 0)
    ncfg = _newton_config(cfg)
    traj = simulate(full, eps0, m1, n_steps, cfg=ncfg)
    reduced = project_path(red.model, traj)
    rebuilt = reconstruct_path(red.model, reduced, eps0, m1)
    roundtrip = float(np.max(np.abs(traj.points - rebuilt.points)))
    res_max = 0.0
    for k in range(1, len(reduced)):
        r = del_residual(red.system, *reduced[k - 1], *reduced[k])
        res_max = max(res_max, float(np.max(np.abs(r))))
    checks = {
        "roundtrip_max": _check_entry(roundtrip, _tol(tol_override, 1e-8)),
        "projected_residual_max": _check_entry(res_max, _tol(tol_override, 1e-8)),
    }
    payload, ok = _report_payload(cfg, checks)
    _write_json(out_dir / "reconstruct.json", payload)
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_stages(cfg: dict, out_dir: Path, tol_override: float | None) -> int:
    _require_two_body(cfg)
    body = _two_body_config(cfg)
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    setup = example_se2.make_staged_setup(body, rng=rng)
    eps0, m1 = _initial_pair(cfg, setup.sys)
    n_steps = _integer(cfg, "n_steps", 50, 0)
    traj = simulate(setup.sys, eps0, m1, n_steps, cfg=_newton_config(cfg))
    report, _f = two_stage(setup.sys, setup.stage_h, setup.stage_gh,
                           setup.one_shot, traj, conn_h=setup.conn_h,
                           full_group_action=setup.action_g,
                           conjugate_in_full=setup.conjugate_in_g, rng=rng)
    checks = {
        "stage_comparison_max": _check_entry(report["stage_comparison_max"],
                                             _tol(tol_override, 1e-8)),
        "conjugation_equivariance_max": _check_entry(
            report["conjugation_equivariance_max"], _tol(tol_override, 1e-10)),
    }
    payload, ok = _report_payload(cfg, checks)
    _write_json(out_dir / "stages.json", payload)
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_check(cfg: dict, out_dir: Path, tol_override: float | None) -> int:
    _require_two_body(cfg)
    body = _two_body_config(cfg)
    n_samples = _integer(cfg, "n_check", 50, 1)
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    full = example_se2.make_full_system(body)
    red = example_se2.make_reduced_system(body, rng=rng)
    tol = _tol(tol_override, 1e-9)

    perturb = float(cfg.get("perturb", 0.0))
    upsilon = red.model.upsilon
    if perturb:
        def perturbed(x):
            y = red.model.upsilon(x).copy()
            y[0] += perturb
            return y
        upsilon = SmoothMapHandle(8, 6, perturbed)
    rep_upsilon = check_morphism(upsilon, full, red.system,
                                 example_se2.sample_cprime,
                                 n_samples=n_samples, rng=rng)

    from .lie import sample_group, se2_two_point_action
    act = se2_two_point_action()
    g = sample_group(act.group, rng)
    translation = SmoothMapHandle(
        8, 8, lambda x: np.concatenate([act.act(g, x[:4]), act.act(g, x[4:])]))
    rep_translation = check_morphism(translation, full, full,
                                     example_se2.sample_cprime,
                                     n_samples=n_samples, rng=rng)

    def condition_checks(rep: dict) -> dict:
        out = {
            "cond1_submersion_rank": {"value": rep["cond1_submersion_rank_ok"],
                                      "note": rep["cond1_note"],
                                      "pass": bool(rep["cond1_submersion_rank_ok"])},
            "cond2_fiber_slot_rank": {"value": rep["cond2_fiber_slot_rank_ok"],
                                      "pass": bool(rep["cond2_fiber_slot_rank_ok"])},
        }
        for key in ("cond3_base_independence_max",
                    "cond4_base_compatibility_max",
                    "cond5_lagrangian_match_max",
                    "cond6_chaining_intertwine_max"):
            out[key] = _check_entry(rep[key], tol)
        return out

    checks = {}
    for name, rep in (("reduction_morphism", rep_upsilon),
                      ("group_translation", rep_translation)):
        for key, entry in condition_checks(rep).items():
            checks[f"{name}.{key}"] = entry
    payload, ok = _report_payload(cfg, checks)
    _write_json(out_dir / "check.json", payload)
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlpsim",
        description="Simulate, reduce, reconstruct and verify discrete "
                    "variational systems with Lie-group symmetry.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "reduce", "reconstruct", "stages", "check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
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
    if args.tol is not None and not _positive_finite(args.tol):
        logger.error("--tol must be positive and finite, got %r", args.tol)
        return EXIT_VALIDATION
    try:
        cfg = json.loads(Path(args.config).read_text())
    except OSError as exc:
        logger.error("cannot read config: %s", exc)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        logger.error("config is not valid JSON: %s", exc)
        return EXIT_VALIDATION
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        logger.error("cannot create output directory: %s", exc)
        return EXIT_IO

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "reduce":
            return cmd_reduce(cfg, out_dir, args.tol)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, out_dir, args.tol)
        if args.command == "stages":
            return cmd_stages(cfg, out_dir, args.tol)
        if args.command == "check":
            return cmd_check(cfg, out_dir, args.tol)
    # ValidationError (a failed structural identity) is a ValueError too.
    except (KeyError, ValueError) as exc:
        logger.error("validation failure: %s", exc)
        return EXIT_VALIDATION
    except SOLVER_ERRORS as exc:
        logger.error("solver failure: %s", exc)
        return EXIT_SOLVER
    except OSError as exc:
        logger.error("I/O failure: %s", exc)
        return EXIT_IO
    return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
