"""Tests for the command-line frontend: outputs, exit codes, determinism."""

import csv
import json

import pytest

from dlpsim.cli import main

BODY_CONFIG = {
    "system": "se2-two-body",
    "h": 0.1,
    "potential": {"name": "linear", "coeff": 0.5},
    "n_steps": 10,
    "initial": [1.0, 0.0, -1.0, 0.0, 1.04, 0.03, -0.97, 0.02],
    "seed": 7,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run(command, config_path, out_dir, *extra):
    return main([command, "--config", str(config_path),
                 "--out", str(out_dir), *extra])


def read_rows(out_dir):
    with open(out_dir / "trajectory.csv") as fh:
        return list(csv.DictReader(fh))


def test_simulate_free_particle(tmp_path):
    cfg = write_config(tmp_path, {"system": "free-particle", "h": 1.0,
                                  "n_steps": 3, "initial": [0.0, 1.0],
                                  "seed": 1})
    assert run("simulate", cfg, tmp_path) == 0
    rows = read_rows(tmp_path)
    assert [float(r["eps0"]) for r in rows] == pytest.approx([0, 1, 2, 3],
                                                             abs=1e-10)
    assert (tmp_path / "simulate.json").exists()


def test_simulate_zero_steps(tmp_path):
    cfg = write_config(tmp_path, {"system": "free-particle", "h": 1.0,
                                  "n_steps": 0, "initial": [0.5, 1.5],
                                  "seed": 1})
    assert run("simulate", cfg, tmp_path) == 0
    assert len(read_rows(tmp_path)) == 1


def test_simulate_two_body_residual_column(tmp_path):
    cfg = write_config(tmp_path, BODY_CONFIG)
    assert run("simulate", cfg, tmp_path) == 0
    rows = read_rows(tmp_path)
    assert len(rows) == 11
    assert all(float(r["residual_norm"]) <= 1e-12 for r in rows)


def test_simulate_unknown_system(tmp_path):
    cfg = write_config(tmp_path, {"system": "nope", "initial": [0, 1]})
    assert run("simulate", cfg, tmp_path) == 1


def test_simulate_solver_failure_writes_partial(tmp_path):
    """Force-free particles on a head-on course collide mid-run: the step
    that reaches the excised diagonal fails, earlier steps are kept."""
    payload = dict(BODY_CONFIG)
    payload["potential"] = {"name": "linear", "coeff": 0.0}
    payload["initial"] = [1.0, 0.0, -1.0, 0.0, 0.75, 0.0, -0.75, 0.0]
    cfg = write_config(tmp_path, payload)
    assert run("simulate", cfg, tmp_path) == 2
    meta = json.loads((tmp_path / "simulate.json").read_text())
    assert meta["failure"] is not None
    assert (tmp_path / "trajectory.csv").exists()
    assert len(read_rows(tmp_path)) == meta["failure"]["step_index"] + 1 > 1


@pytest.mark.parametrize("command", ["simulate", "reconstruct", "stages"])
def test_collision_initial_data_is_validation_failure(tmp_path, command):
    payload = dict(BODY_CONFIG)
    payload["initial"] = [1e-7, 0.0, -1e-7, 0.0, 0.5e-13, 0.0, -0.5e-13, 0.0]
    cfg = write_config(tmp_path, payload)
    assert run(command, cfg, tmp_path) == 1
    assert list(tmp_path.iterdir()) == [cfg]


def test_reduce_report(tmp_path):
    cfg = write_config(tmp_path, BODY_CONFIG)
    assert run("reduce", cfg, tmp_path) == 0
    rep = json.loads((tmp_path / "reduce.json").read_text())
    assert rep["all_pass"]
    assert rep["checks"]["lagrangian_match_max"]["value"] <= 1e-10


def test_reconstruct_report(tmp_path):
    cfg = write_config(tmp_path, BODY_CONFIG)
    assert run("reconstruct", cfg, tmp_path) == 0
    rep = json.loads((tmp_path / "reconstruct.json").read_text())
    assert rep["checks"]["roundtrip_max"]["value"] <= 1e-8


def test_stages_report(tmp_path):
    cfg = write_config(tmp_path, BODY_CONFIG)
    assert run("stages", cfg, tmp_path) == 0
    rep = json.loads((tmp_path / "stages.json").read_text())
    assert rep["checks"]["stage_comparison_max"]["value"] <= 1e-8


def test_check_negative_control_exit_code(tmp_path):
    payload = dict(BODY_CONFIG)
    payload["perturb"] = 0.1
    payload["n_check"] = 10
    cfg = write_config(tmp_path, payload)
    assert run("check", cfg, tmp_path) == 1
    rep = json.loads((tmp_path / "check.json").read_text())
    entry = rep["checks"]["reduction_morphism.cond5_lagrangian_match_max"]
    assert entry["value"] >= 1e-2 and not entry["pass"]


def test_check_clean(tmp_path):
    payload = dict(BODY_CONFIG)
    payload["n_check"] = 10
    cfg = write_config(tmp_path, payload)
    assert run("check", cfg, tmp_path) == 0


def test_determinism_byte_identical(tmp_path):
    """Same config and seed: byte-identical CSV and JSON outputs."""
    cfg = write_config(tmp_path, BODY_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("simulate", cfg, out) == 0
        assert run("reduce", cfg, out) == 0
    for name in ("trajectory.csv", "simulate.json", "reduce.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, BODY_CONFIG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run("reduce", cfg, out1, "--seed", "99") == 0
    assert run("reduce", cfg, out2, "--seed", "100") == 0
    rep1 = json.loads((out1 / "reduce.json").read_text())
    rep2 = json.loads((out2 / "reduce.json").read_text())
    assert rep1["config"]["seed"] == 99 and rep2["config"]["seed"] == 100


def test_newton_overrides_respected(tmp_path):
    payload = dict(BODY_CONFIG)
    payload["newton"] = {"residual_tol": 1e-10, "max_iters": 30}
    cfg = write_config(tmp_path, payload)
    assert run("simulate", cfg, tmp_path) == 0
    meta = json.loads((tmp_path / "simulate.json").read_text())
    assert meta["newton_residual_tol"] == 1e-10


def test_missing_config_is_io_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("newton", [
    {"bogus": 1}, {"max_iters": 2.5}, {"residual_tol": float("nan")},
    {"fd_step": 1e-6}, {"backtracking": False}, {"max_halvings": 5}])
def test_newton_overrides_validated(tmp_path, newton):
    cfg = write_config(tmp_path, dict(BODY_CONFIG, newton=newton))
    assert run("simulate", cfg, tmp_path) == 1
    assert not (tmp_path / "simulate.json").exists()


@pytest.mark.parametrize("argv", [
    ["check", "--config", "config.json", "--tol", "-1e-9"],
    ["check", "--out", "."]])
def test_usage_errors_exit_1(argv):
    assert main(argv) == 1


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
def test_tol_must_be_positive_and_finite(tmp_path, tol):
    cfg = write_config(tmp_path, dict(BODY_CONFIG, n_check=10))
    assert run("check", cfg, tmp_path, f"--tol={tol}") == 1
    assert not (tmp_path / "check.json").exists()


@pytest.mark.parametrize("command",
                         ["reduce", "reconstruct", "stages", "check"])
def test_tol_override_written_to_report(tmp_path, command):
    cfg = write_config(tmp_path, dict(BODY_CONFIG, n_check=10))
    assert run(command, cfg, tmp_path, "--tol", "1e-3") == 0
    rep = json.loads((tmp_path / f"{command}.json").read_text())
    tols = {entry["tol"] for entry in rep["checks"].values() if "tol" in entry}
    assert tols == {1e-3}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_simulate_rejects_non_finite_initial(tmp_path, bad):
    initial = list(BODY_CONFIG["initial"])
    initial[5] = bad
    cfg = write_config(tmp_path, dict(BODY_CONFIG, initial=initial))
    assert run("simulate", cfg, tmp_path) == 1
    assert not (tmp_path / "simulate.json").exists()


@pytest.mark.parametrize("command, overrides, message", [
    ("simulate", {"newton": {"max_iters": 2.5}},
     "newton.max_iters must be an integer of at least 1 (got 2.5)"),
    ("simulate", {"newton": {"residual_tol": -1.0}},
     "newton.residual_tol must be positive and finite (got -1.0)"),
    ("simulate", {"system": "pendulum"}, "unknown system 'pendulum'"),
    ("simulate", {"n_steps": -2}, "n_steps must be nonnegative (got -2)"),
    ("reconstruct", {"n_steps": -3}, "n_steps must be nonnegative (got -3)"),
    ("stages", {"n_steps": -3}, "n_steps must be nonnegative (got -3)"),
    ("simulate", {"initial": [1.0, 0.0]},
     "initial must have length 8 (got shape (2,))"),
    ("simulate", {"initial": [1.0, 0.0, -1.0, 0.0, 1.04, float("nan"), -0.97, 0.02]},
     "initial must be finite (got [1.0, 0.0, -1.0, 0.0, 1.04, nan, -0.97, 0.02])"),
    ("reduce", {"system": "free-particle"},
     "command requires system 'se2-two-body' (got 'free-particle')"),
    ("simulate", {"system": "free-particle", "h": 0, "initial": [0.0, 1.0]},
     "h must be finite and nonzero (got 0)"),
    ("simulate", {"h": float("nan")}, "h must be finite and nonzero (got nan)"),
    ("simulate", {"system": "harmonic-oscillator", "omega": float("nan"),
                  "initial": [1.0, 0.99]}, "omega must be finite (got nan)"),
    ("simulate", {"potential": {"name": "linear", "coeff": float("inf")}},
     "coeff must be finite (got inf)"),
    ("reduce", {"n_check": 0}, "n_check must be at least 1 (got 0)"),
    ("reduce", {"n_check": -5}, "n_check must be at least 1 (got -5)"),
    ("reduce", {"n_check": 2.5}, "n_check must be an integer (got 2.5)"),
    ("check", {"n_check": 0}, "n_check must be at least 1 (got 0)"),
    ("check", {"n_check": -5}, "n_check must be at least 1 (got -5)"),
    ("check", {"n_check": 2.5}, "n_check must be an integer (got 2.5)"),
    ("simulate", {"n_steps": 2.9}, "n_steps must be an integer (got 2.9)"),
    ("simulate", {"n_steps": "3"}, "n_steps must be an integer (got '3')"),
    ("simulate", {"system": "free-particle", "dim": 2.7,
                  "initial": [0.0, 0.0, 1.0, 1.0]},
     "dim must be an integer (got 2.7)"),
    ("reduce", {"seed": 7.9}, "seed must be an integer (got 7.9)"),
    ("reduce", {"seed": "7"}, "seed must be an integer (got '7')"),
    ("reduce", {"seed": -1}, "seed must be nonnegative (got -1)"),
    ("check", {"perturb": float("nan")}, "perturb must be finite (got nan)"),
    ("check", {"perturb": float("inf")}, "perturb must be finite (got inf)"),
    ("simulate", {"potential": "linear"},
     "potential must be an object with a name (got 'linear')"),
    ("reduce", {"potential": {"coeff": 0.5}},
     "potential must be an object with a name (got {'coeff': 0.5})"),
])
def test_config_errors_logged_as_config_messages(tmp_path, caplog, command,
                                                 overrides, message):
    """Plain config errors read as such, not as a failed identity."""
    cfg = write_config(tmp_path, dict(BODY_CONFIG, **overrides))
    with caplog.at_level("ERROR", logger="dlpsim.cli"):
        assert run(command, cfg, tmp_path) == 1
    assert f"validation failure: {message}" in caplog.text
    assert "identity '" not in caplog.text



def test_seed_flag_validated_like_config_seed(tmp_path, caplog):
    cfg = write_config(tmp_path, BODY_CONFIG)
    with caplog.at_level("ERROR", logger="dlpsim.cli"):
        assert run("reduce", cfg, tmp_path, "--seed=-1") == 1
    assert ("validation failure: seed must be nonnegative (got -1)"
            in caplog.text)
    assert not (tmp_path / "reduce.json").exists()


@pytest.mark.parametrize("extra", [[], ["--seed", "3"]])
def test_config_must_be_json_object(tmp_path, caplog, extra):
    cfg = write_config(tmp_path, [1, 2])
    with caplog.at_level("ERROR", logger="dlpsim.cli"):
        assert run("simulate", cfg, tmp_path, *extra) == 1
    assert ("validation failure: config must be a JSON object (got [1, 2])"
            in caplog.text)
