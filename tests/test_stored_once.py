"""Each fact about a system is stored once: the chaining map is
``ivcm_matrix`` alone, and a bundle's or a quotient's dimensions are those
of its ``phi`` or ``project``."""

import dataclasses

import numpy as np
import pytest

from dlpsim.diagnostics import momentum_evolution_check
from dlpsim.dlps import (action_derivative, build_fixed_endpoint_variation,
                         del_residual, simulate, step)
from dlpsim.example_se2 import (make_se2_quotient, make_t2_quotient,
                                make_u1_base_quotient, sample_cprime)
from dlpsim.lie import se2_two_point_action, t2_two_point_action, u1_plane_action
from dlpsim.reduction import check_morphism, check_symmetry, project_path, two_stage
from dlpsim.smooth import SmoothMapHandle

from test_batched_checks import assert_bit_equal

REDUCED_START = (np.array([1.0, 0.0, 0.1, 0.05]), np.array([1.02, 0.01]))


def _raising_ivcm(x0, x1, delta):
    raise AssertionError("a reader called the chaining callable")


def _guarded(result):
    """A reduction result whose system carries an ``ivcm`` that raises."""
    return dataclasses.replace(
        result, system=dataclasses.replace(result.system, ivcm=_raising_ivcm))


def _readings(full, reduced, staged, full_start):
    """What every reader of the chaining map returns on these systems, each
    from its own seeded generator."""
    out = {}
    for name, sys, start, action in (
            ("full", full, full_start, t2_two_point_action()),
            ("reduced", reduced.system, REDUCED_START, staged.residual_action)):
        path = simulate(sys, *start, 4)
        rng = np.random.default_rng(5)
        tilde = [rng.standard_normal(sys.bundle.total_dim)
                 for _ in range(len(path) - 1)]
        variation = build_fixed_endpoint_variation(sys, path, tilde)
        out[name] = (step(sys, *start), path.points,
                     del_residual(sys, *path[0], *path[1]),
                     momentum_evolution_check(sys, action, path),
                     variation.points, action_derivative(sys, path, variation))
    se2 = se2_two_point_action()
    out["symmetry"] = (
        check_symmetry(full, se2, se2, sample_cprime, n_samples=5,
                       rng=np.random.default_rng(6)),
        check_symmetry(reduced.system, staged.residual_action, u1_plane_action(),
                       lambda r: reduced.model.upsilon(sample_cprime(r)),
                       n_samples=5, rng=np.random.default_rng(7)))
    out["morphism"] = check_morphism(reduced.model.upsilon, full, reduced.system,
                                     sample_cprime, n_samples=5,
                                     rng=np.random.default_rng(8))
    traj = simulate(full, *full_start, 3)
    out["stages"] = two_stage(
        full, staged.stage_h, staged.stage_gh, staged.one_shot, traj,
        conn_h=staged.conn_h, full_group_action=staged.action_g,
        conjugate_in_full=staged.conjugate_in_g,
        rng=np.random.default_rng(9), n_checks=5)[0]
    # One step of each staged system from the projected full trajectory.
    nested = project_path(staged.stage_gh.model,
                          project_path(staged.stage_h.model, traj))
    for name, result, path in (("twice_reduced", staged.stage_gh, nested),
                               ("one_shot", staged.one_shot,
                                project_path(staged.one_shot.model, traj))):
        out[name] = step(result.system, *path[0])
    return out


def test_no_reader_calls_the_chaining_callable(full_system, reduced, staged,
                                               full_start):
    """Every reader of the chaining map (stepping, DEL residuals,
    fixed-endpoint variations, symmetry, morphism, momentum and two-stage
    checks) reads ``ivcm_matrix``: on the full, T2-reduced and staged
    systems with an ``ivcm`` that raises, each returns what it returns on
    the systems as built."""
    want = _readings(full_system, reduced, staged, full_start)
    guarded_staged = dataclasses.replace(
        staged, sys=dataclasses.replace(staged.sys, ivcm=_raising_ivcm),
        **{name: _guarded(getattr(staged, name))
           for name in ("stage_h", "stage_gh", "one_shot")})
    got = _readings(dataclasses.replace(full_system, ivcm=_raising_ivcm),
                    _guarded(reduced), guarded_staged, full_start)
    assert_bit_equal(got, want)


def test_bundle_dimensions_follow_phi(full_system, reduced):
    """A bundle stores no dimensions of its own: replacing ``phi`` moves
    ``total_dim`` and ``base_dim`` with it, and they cannot be set."""
    for bundle in (full_system.bundle, reduced.system.bundle):
        assert (bundle.total_dim, bundle.base_dim) == (bundle.phi.in_dim,
                                                       bundle.phi.out_dim)
    phi = SmoothMapHandle(3, 1, lambda e: e[:1])
    moved = dataclasses.replace(full_system.bundle, phi=phi)
    assert (moved.total_dim, moved.base_dim) == (3, 1)
    with pytest.raises(TypeError):
        dataclasses.replace(full_system.bundle, total_dim=3)


@pytest.mark.parametrize("make", [make_t2_quotient, make_se2_quotient,
                                  make_u1_base_quotient])
def test_quotient_dimensions_follow_project(make):
    """A quotient's dimensions are those of ``project``, also after a
    ``dataclasses.replace`` of it."""
    quotient = make()
    assert (quotient.total_dim, quotient.base_dim) == (
        quotient.project.in_dim, quotient.project.out_dim)
    project = SmoothMapHandle(6, 2, lambda q: q[:2])
    moved = dataclasses.replace(quotient, project=project)
    assert (moved.total_dim, moved.base_dim) == (6, 2)
    with pytest.raises(TypeError):
        dataclasses.replace(quotient, base_dim=3)
