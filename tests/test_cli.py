"""Tests for the command-line frontend: outputs, exit codes, determinism."""

import csv
import dataclasses
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlpsim import cli, example_se2
from dlpsim.cli import CONFIG_KEYS, main
from dlpsim.errors import (DomainError, MatchingError, NonConvergence,
                           RegularityError, SimulationError, SingularJacobian,
                           ValidationError)

BODY_CONFIG = {
    "system": "se2-two-body",
    "h": 0.1,
    "potential": {"name": "linear", "coeff": 0.5},
    "n_steps": 10,
    "initial": [1.0, 0.0, -1.0, 0.0, 1.04, 0.03, -0.97, 0.02],
    "seed": 7,
}

#: An override that removes the key from the config.
MISSING = object()


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


@pytest.mark.parametrize("command", ["reconstruct", "stages"])
def test_report_solver_failure_writes_no_report(tmp_path, command):
    """On the same collision a report command exits 2 and writes nothing:
    only ``simulate`` keeps partial output."""
    payload = dict(BODY_CONFIG, potential={"name": "linear", "coeff": 0.0},
                   initial=[1.0, 0.0, -1.0, 0.0, 0.75, 0.0, -0.75, 0.0])
    cfg = write_config(tmp_path, payload)
    assert run(command, cfg, tmp_path) == 2
    assert not (tmp_path / f"{command}.json").exists()
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("exc, code", [
    (NonConvergence("no convergence"), 2),
    (SingularJacobian("singular"), 2),
    (MatchingError("no match"), 2),
    (RegularityError("degenerate"), 2),
    (SimulationError(3, None, "step failed"), 2),
    (DomainError("outside the domain"), 1),
    (ValidationError("identity"), 1),
])
def test_exit_code_of_each_failure(tmp_path, monkeypatch, exc, code):
    """Every SolverError exits 2; a DomainError or a ValidationError (both
    ValueErrors) exits 1."""
    def failing(*args):
        raise exc

    monkeypatch.setattr(cli, "_report", failing)
    assert run("reduce", write_config(tmp_path, BODY_CONFIG), tmp_path) == code


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
    # The worst draw's full row x; the step check's reduced start (r0, z0, r1).
    for key, entry in rep["checks"].items():
        dim = 6 if key == "closed_form_step_max" else 8
        assert entry["sample"] is None or len(entry["sample"]) == dim, key
    assert len(rep["checks"]["closed_form_step_max"]["sample"]) == 6


def test_reconstruct_report(tmp_path):
    cfg = write_config(tmp_path, BODY_CONFIG)
    assert run("reconstruct", cfg, tmp_path) == 0
    rep = json.loads((tmp_path / "reconstruct.json").read_text())
    assert rep["checks"]["roundtrip_max"]["value"] <= 1e-8
    # The worst full row and the worst reduced row.
    assert len(rep["checks"]["roundtrip_max"]["sample"]) == 8
    assert len(rep["checks"]["projected_residual_max"]["sample"]) == 6


@pytest.mark.parametrize("command, key", [
    ("reduce", "chaining_closed_form_max"),
    ("reconstruct", "projected_residual_max")])
def test_nan_report_value_fails(tmp_path, monkeypatch, command, key):
    """A NaN chaining matrix (``reduce``'s closed-form comparison,
    ``reconstruct``'s DEL residuals) is reported as NaN and fails, instead
    of passing as 0.0. Only the first matrix read is NaN, so ``reduce``'s
    steps, which come after its chaining draws, still converge."""
    make = example_se2.make_reduced_system

    def nan_chaining(body, rng):
        red = make(body, rng=rng)
        matrix, reads = red.system.ivcm_matrix, itertools.count()
        nan = np.full((4, 4), np.nan)

        def first_nan(y0, y1):
            return nan if next(reads) == 0 else matrix(y0, y1)

        return dataclasses.replace(red, system=dataclasses.replace(
            red.system, ivcm_matrix=first_nan))

    monkeypatch.setattr(example_se2, "make_reduced_system", nan_chaining)
    cfg = write_config(tmp_path, BODY_CONFIG)
    assert run(command, cfg, tmp_path) == 1
    rep = json.loads((tmp_path / f"{command}.json").read_text())
    assert np.isnan(rep["checks"][key]["value"])
    assert not rep["checks"][key]["pass"]


def test_stages_report(tmp_path):
    cfg = write_config(tmp_path, BODY_CONFIG)
    assert run("stages", cfg, tmp_path) == 0
    rep = json.loads((tmp_path / "stages.json").read_text())
    assert rep["checks"]["stage_comparison_max"]["value"] <= 1e-8


def test_stages_writes_worst_samples(tmp_path):
    """The stage comparison names its worst trajectory point, a row of the
    simulated path, and the conjugation check its worst (q0, q1) row."""
    cfg = write_config(tmp_path, BODY_CONFIG)
    assert run("stages", cfg, tmp_path) == 0
    checks = json.loads((tmp_path / "stages.json").read_text())["checks"]
    assert run("simulate", cfg, tmp_path) == 0
    rows = [[float(r[f"eps{i}"]) for i in range(4)] + [float(r[f"m{i}"]) for i in range(4)]
            for r in read_rows(tmp_path)]
    assert checks["stage_comparison_max"]["sample"] in rows
    assert len(checks["conjugation_equivariance_max"]["sample"]) == 8


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
    checks = json.loads((tmp_path / "check.json").read_text())["checks"]
    symmetry = {key: entry["tol"] for key, entry in checks.items()
                if key.split(".")[0].endswith("_symmetry")}
    assert len(symmetry) == 10
    assert symmetry["residual_u1_symmetry.chaining-map G-equivariance"] == 1e-8
    assert symmetry["se2_symmetry.bundle-map G-equivariance"] == 1e-10


def test_check_writes_worst_samples(tmp_path):
    """Each sampled maximum in check.json carries the x0 of the draw that
    attains it: a row of the full system, or of the reduced one for the
    residual circle action, and null where every draw reads 0. A rank
    entry carries the draw with the smallest fiber-slot singular value."""
    payload = dict(BODY_CONFIG, perturb=0.1, n_check=10)
    assert run("check", write_config(tmp_path, payload), tmp_path) == 1
    checks = json.loads((tmp_path / "check.json").read_text())["checks"]
    sampled = {key: entry for key, entry in checks.items() if "tol" in entry}
    assert len(sampled) == 18
    for key, entry in sampled.items():
        if entry["value"] == 0.0:
            assert entry["sample"] is None, key
        else:
            dim = 6 if key.startswith("residual_u1_symmetry.") else 8
            assert len(entry["sample"]) == dim, key
    for name in ("reduction_morphism", "group_translation"):
        assert len(checks[f"{name}.cond2_fiber_slot_rank"]["sample"]) == 8
    failed = checks["reduction_morphism.cond5_lagrangian_match_max"]
    assert not failed["pass"] and len(failed["sample"]) == 8


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


#: A 401-digit integer, which no float holds.
HUGE = 10 ** 400


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
    ("simulate", {"newton": False}, "newton must be an object (got False)"),
    ("simulate", {"newton": 0}, "newton must be an object (got 0)"),
    ("simulate", {"newton": []}, "newton must be an object (got [])"),
    ("simulate", {"newton": ""}, "newton must be an object (got '')"),
    ("simulate", {"newton": None}, "newton must be an object (got None)"),
    ("simulate", {"n_step": 50}, "unknown config keys ['n_step']"),
    ("reduce", {"comment": "x", "seeds": 3},
     "unknown config keys ['comment', 'seeds']"),
    ("simulate", {"potential": {"name": "quadratic", "coef": 0.3}},
     "unknown potential keys ['coef']"),
    ("simulate", {"initial": {"a": 1}},
     "initial must be a list of numbers (got {'a': 1})"),
    ("reconstruct", {"initial": MISSING},
     "initial must be a list of numbers (got None)"),
    ("stages", {"initial": [1.0, 0.0, -1.0, 0.0, "1.04", 0.03, -0.97, True]},
     "initial must be a list of numbers (got [1.0, 0.0, -1.0, 0.0, '1.04', 0.03, -0.97, True])"),
    ("simulate", {"system": "harmonic-oscillator", "omega": 1e200, "initial": [0, 1]},
     "h * omega^2 must be finite (got h=0.1, omega=1e+200)"),
    # Keys the command never reads are checked all the same.
    ("simulate", {"omega": "abc"}, "omega must be finite (got 'abc')"),
    ("simulate", {"omega": 1e200}, "h * omega^2 must be finite (got h=0.1, omega=1e+200)"),
    ("simulate", {"n_check": 2.5}, "n_check must be an integer (got 2.5)"),
    ("simulate", {"dim": -3}, "dim must be at least 1 (got -3)"),
    ("simulate", {"perturb": [1]}, "perturb must be finite (got [1])"),
    ("simulate", {"seed": -1}, "seed must be nonnegative (got -1)"),
    ("simulate", {"system": "free-particle", "initial": [0.0, 1.0],
                  "potential": {"name": "cubic"}}, "unknown potential family 'cubic'"),
    ("reduce", {"n_steps": -1}, "n_steps must be nonnegative (got -1)"),
    ("reduce", {"newton": {"max_iters": 0}},
     "newton.max_iters must be an integer of at least 1 (got 0)"),
    ("stages", {"n_check": 0}, "n_check must be at least 1 (got 0)"),
    ("check", {"initial": [1.0, 0.0]}, "initial must have length 8 (got shape (2,))"),
    ("check", {"initial": "abc"}, "initial must be a list of numbers (got 'abc')"),
    ("reduce", {"initial": [1.0, 0.0, -1.0, 0.0, 1.04, 0.03, -0.97, float("inf")]},
     "initial must be finite (got [1.0, 0.0, -1.0, 0.0, 1.04, 0.03, -0.97, inf])"),
    ("check", {"initial": [1e-7, 0.0, -1e-7, 0.0, 0.5e-13, 0.0, -0.5e-13, 0.0]},
     "coincident particles (excised diagonal)"),
    # A JSON integer too large for a float is a config error, not a crash;
    # the messages show the number's first digits.
    ("simulate", {"omega": HUGE}, "omega must be finite (got 1000000000"),
    ("reduce", {"potential": {"name": "linear", "coeff": -HUGE}},
     "coeff must be finite (got -1000000000"),
    ("simulate", {"newton": {"residual_tol": HUGE}},
     "newton.residual_tol must be positive and finite (got 1000000000"),
    ("simulate", {"initial": [1.0, 0.0, -1.0, 0.0, 1.04, 0.03, -HUGE, 0.02]},
     "initial must be finite (got [1.0, 0.0, -1.0, 0.0, 1.04, 0.03, -inf, 0.02])"),
    # dim is bounded before the free particle allocates its Hessian.
    ("simulate", {"system": "free-particle", "dim": 10 ** 10},
     "dim must be at most 1000 (got 10000000000)"),
    ("simulate", {"system": "free-particle", "dim": HUGE},
     "dim must be at most 1000 (got 1000000000"),
    ("reduce", {"dim": 1001}, "dim must be at most 1000 (got 1001)"),
])
def test_config_errors_logged_as_config_messages(tmp_path, caplog, command,
                                                 overrides, message):
    """Plain config errors read as such, not as a failed identity."""
    payload = {key: value for key, value in dict(BODY_CONFIG, **overrides).items()
               if value is not MISSING}
    cfg = write_config(tmp_path, payload)
    with caplog.at_level("ERROR", logger="dlpsim.cli"):
        assert run(command, cfg, tmp_path) == 1
    assert f"validation failure: {message}" in caplog.text
    assert "identity '" not in caplog.text


FREE_CONFIG = {"system": "free-particle", "dim": 2, "h": 1.0, "n_steps": 2,
               "initial": [0.0, 0.0, 1.0, 1.0]}
OSCILLATOR_CONFIG = {"system": "harmonic-oscillator", "h": 0.1, "omega": 1.0,
                     "n_steps": 2, "initial": [1.0, 0.99]}
SMALL_BODY_CONFIG = dict(BODY_CONFIG, n_steps=2, n_check=2)

#: (command, a valid config).
VALID_CASES = [
    ("simulate", BODY_CONFIG),
    ("simulate", FREE_CONFIG),
    ("simulate", OSCILLATOR_CONFIG),
    ("check", SMALL_BODY_CONFIG),
    ("reduce", SMALL_BODY_CONFIG),
    ("reconstruct", SMALL_BODY_CONFIG),
    ("stages", SMALL_BODY_CONFIG),
]

_SCALAR_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3))
#: JSON values that are not numbers.
_JUNK = st.one_of(_SCALAR_JUNK, st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
#: Numbers that are not finite floats: NaN, the infinities and JSON
#: integers too large for a float.
_NON_FINITE = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.integers(min_value=2 ** 1024),
                        st.integers(max_value=-2 ** 1024))
_NOT_A_COUNT = st.one_of(_JUNK, st.floats(), st.integers(max_value=-1))
_NOT_AN_OBJECT = st.one_of(_SCALAR_JUNK, st.floats(), st.integers(),
                           st.lists(st.integers(), max_size=2))

MALFORMED = {
    "system": st.one_of(_JUNK, st.integers(), st.floats()),
    "h": st.one_of(_JUNK, _NON_FINITE, st.sampled_from([0, 0.0, -0.0])),
    "omega": st.one_of(_JUNK, _NON_FINITE,
                       st.floats(min_value=1e155, allow_infinity=False),
                       st.floats(max_value=-1e155, allow_infinity=False)),
    "perturb": st.one_of(_JUNK, _NON_FINITE),
    "n_steps": _NOT_A_COUNT, "seed": _NOT_A_COUNT,
    "dim": _NOT_A_COUNT, "n_check": _NOT_A_COUNT,
    "potential": st.one_of(
        _NOT_AN_OBJECT,
        st.fixed_dictionaries({"coeff": st.floats()}),
        st.fixed_dictionaries({"name": st.one_of(_JUNK, st.text(max_size=5).filter(
            lambda name: name not in ("zero", "linear")))}),
        st.fixed_dictionaries({"name": st.just("linear"),
                               "coeff": st.one_of(_JUNK, _NON_FINITE)}),
        st.fixed_dictionaries({"name": st.just("linear"), "coef": st.floats()})),
    "newton": st.one_of(
        _NOT_AN_OBJECT,
        st.fixed_dictionaries({"residual_tol": st.one_of(
            _JUNK, _NON_FINITE, st.floats(max_value=0.0))}),
        st.fixed_dictionaries({"max_iters": st.one_of(
            _JUNK, st.floats(), st.integers(max_value=0))}),
        st.fixed_dictionaries({"fd_step": st.floats()})),
}


@st.composite
def _malformed_initial(draw, length):
    """Not a list, a list of another length, or one entry that is not a
    finite number."""
    kind = draw(st.sampled_from(["type", "length", "entry"]))
    if kind == "type":
        return draw(st.one_of(_SCALAR_JUNK, st.floats(), st.dictionaries(
            st.text(max_size=2), st.integers(), max_size=1)))
    if kind == "length":
        return draw(st.lists(st.floats(-2.0, 2.0), max_size=10).filter(
            lambda v: len(v) != length))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=length, max_size=length))
    values[draw(st.integers(0, length - 1))] = draw(st.one_of(_JUNK, _NON_FINITE))
    return values


@st.composite
def malformed_configs(draw):
    """(command, config): a valid config with one known key, read by the
    command or not, set to a malformed value, or with one unknown key
    added."""
    command, base = draw(st.sampled_from(VALID_CASES))
    key = draw(st.sampled_from(CONFIG_KEYS + (None,)))
    if key is None:
        key = draw(st.text(min_size=1, max_size=8).filter(
            lambda k: k not in CONFIG_KEYS))
        value = draw(_JUNK)
    elif key == "initial":
        value = draw(_malformed_initial(len(base["initial"])))
    else:
        value = draw(MALFORMED[key])
    return command, dict(base, **{key: value})


@pytest.mark.parametrize("command, payload", VALID_CASES)
def test_malformed_config_bases_are_valid(tmp_path, command, payload):
    assert run(command, write_config(tmp_path, payload), tmp_path / "out") == 0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(malformed_configs())
@example(("simulate", dict(OSCILLATOR_CONFIG, omega=1e200)))
@example(("simulate", dict(OSCILLATOR_CONFIG, omega=HUGE)))
def test_malformed_configs_never_crash_the_cli(case):
    """Every malformed config exits 1 as a config error: nothing raises
    out of ``main`` and no output file is written."""
    command, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert run(command, write_config(Path(tmp), payload), out) == 1
        assert list(out.glob("*")) == []


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["zero", "linear", "quadratic"]),
       st.floats(0.0, 0.5))
def test_every_command_is_deterministic(seed, name, coeff):
    """Two runs of each subcommand on the same valid config and seed both
    exit 0 and write the same, byte-identical files."""
    payload = dict(SMALL_BODY_CONFIG, seed=seed,
                   potential={"name": name, "coeff": coeff})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = write_config(tmp, payload)
        for command in ("simulate", "reduce", "reconstruct", "stages", "check"):
            runs = []
            for out in (tmp / command / "a", tmp / command / "b"):
                code = run(command, cfg, out)
                runs.append((code, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
            assert runs[0] == runs[1]
            assert runs[0][0] == 0 and runs[0][1]



@pytest.mark.parametrize("command", ["reduce", "check", "stages"])
def test_extra_build_draws_leave_the_report_bit_identical(tmp_path, monkeypatch,
                                                          command):
    """A model build that consumes extra draws moves no sample of the
    report: each consumer of draws reads its own stream, not the next
    draws of one generator shared in order."""
    cfg = write_config(tmp_path, SMALL_BODY_CONFIG)
    assert run(command, cfg, tmp_path / "plain") == 0

    def greedy(build):
        def greedy_build(body, *, rng):
            rng.standard_normal(16)
            return build(body, rng=rng)
        return greedy_build

    for name in ("make_reduced_system", "make_staged_setup"):
        monkeypatch.setattr(example_se2, name, greedy(getattr(example_se2, name)))
    assert run(command, cfg, tmp_path / "greedy") == 0
    report = f"{command}.json"
    assert ((tmp_path / "greedy" / report).read_bytes()
            == (tmp_path / "plain" / report).read_bytes())

def test_empty_newton_object_gives_defaults(tmp_path):
    outs = {}
    for name, payload in (("absent", BODY_CONFIG),
                          ("empty", dict(BODY_CONFIG, newton={}))):
        out = tmp_path / name
        assert run("simulate", write_config(tmp_path, payload), out) == 0
        meta = json.loads((out / "simulate.json").read_text())
        meta["config"].pop("newton", None)
        outs[name] = (meta, (out / "trajectory.csv").read_bytes())
    assert outs["absent"] == outs["empty"]


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


def test_config_must_be_valid_json(tmp_path, caplog):
    """A config file that is not JSON exits 1 with a logged message and
    writes nothing."""
    cfg = tmp_path / "config.json"
    cfg.write_text('{"system": "free-particle",')
    with caplog.at_level("ERROR", logger="dlpsim.cli"):
        assert run("simulate", cfg, tmp_path / "out") == 1
    assert "config is not valid JSON" in caplog.text
    assert not (tmp_path / "out").exists()
