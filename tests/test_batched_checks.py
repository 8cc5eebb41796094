"""The sampled checks against reference copies of their per-draw loops.

``check_morphism``, ``check_equivariance``, ``check_symmetry`` and
``two_stage`` evaluate their draws one by one and judge them in bulk. Each
reference below is the per-draw formulation: it judges every draw as it
is taken and keeps a running maximum by ``worse``. On seeded draws the
reports, worst samples included, must be equal bit for bit (dtype, shape
and bytes, so the sign of a zero and the payload of a NaN count too), and
``errors.worst_draw`` must agree with the left fold by ``worse`` that the
references use.
"""

import dataclasses
import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dlpsim import reduction
from dlpsim.connection import DiscreteConnection, QuotientModel, ad, check_equivariance
from dlpsim.dlps import from_dms, simulate
from dlpsim.errors import draw_maxima, worst_draw
from dlpsim.example_se2 import (make_residual_u1_action, sample_configuration,
                                sample_cprime)
from dlpsim.lie import (sample_group, se2_two_point_action, t2_two_point_action,
                        u1_plane_action)
from dlpsim.reduction import (RANK_TOL, SYMMETRY_TOLS, _diagonal_cprime_action,
                              _matvecs, _sample_second_order, check_morphism,
                              check_symmetry, two_stage)
from dlpsim.smooth import (SmoothMapHandle, directional_derivative, identity_map,
                           jacobian_fd)
from oracles import trivial_action, trivial_group, trivial_reduction
from test_reduction import _right_se2_action

# --- reference per-draw loops ----------------------------------------------


def worse(v: float, worst: float) -> bool:
    """Whether violation v replaces the running maximum worst; a NaN does,
    and is then kept, so a NaN anywhere reads as the maximum."""
    return v > worst or (math.isnan(v) and not math.isnan(worst))


def ref_check_morphism(candidate, sys, sys_target, sample, n_samples, rng):
    nE = sys.bundle.total_dim
    nEr = sys_target.bundle.total_dim
    full_rank_ok = cond2_rank_ok = True
    cond2_min_sv = np.inf
    maxima = dict.fromkeys(("cond3_base_independence_max",
                            "cond4_base_compatibility_max",
                            "cond5_lagrangian_match_max",
                            "cond6_chaining_intertwine_max"), 0.0)
    worst_samples = dict.fromkeys(("cond2_min_singular_value", *maxima))

    def keep(name, value, x0):
        value = float(value)
        if worse(value, maxima[name]):
            maxima[name] = value
            worst_samples[name] = x0

    for _ in range(n_samples):
        x0, x1 = _sample_second_order(sys, sample, rng)
        J0 = candidate.jacobian(x0)
        D1p1 = J0[:nEr, :nE]
        if np.all(np.isfinite(J0)):
            sv_full = np.linalg.svd(J0, compute_uv=False)
            if sv_full[min(J0.shape) - 1] <= RANK_TOL * sv_full[0]:
                full_rank_ok = False
            sv = np.linalg.svd(D1p1, compute_uv=False)
            sv_min = float(sv[-1])
            if np.sum(sv > RANK_TOL * max(sv[0], 1.0)) < nEr:
                cond2_rank_ok = False
        else:
            full_rank_ok = cond2_rank_ok = False
            sv_min = np.nan
        if worse(-sv_min, -cond2_min_sv):
            cond2_min_sv = sv_min
            worst_samples["cond2_min_singular_value"] = x0
        keep("cond3_base_independence_max", np.max(np.abs(J0[nEr:, :nE])), x0)
        y0 = candidate(x0)
        y1 = candidate(x1)
        base_defect = y0[nEr:] - sys_target.bundle.phi(y1[:nEr])
        keep("cond4_base_compatibility_max", np.max(np.abs(base_defect)), x0)
        keep("cond5_lagrangian_match_max", abs(sys.lag(x0) - sys_target.lag(y0)), x0)
        if candidate.jac is None:
            m2 = x1[nE:]
            D1p1_at_x1 = jacobian_fd(
                lambda e: candidate(np.concatenate([e, m2]))[:nEr], x1[:nE])
        else:
            D1p1_at_x1 = candidate.jacobian(x1)[:nEr, :nE]
        D2p1_at_x0 = J0[:nEr, nE:]
        jphi1 = sys.bundle.phi.jacobian(x1[:nE])
        inner = sys.ivcm_matrix(x0, x1)
        ivcm_target = sys_target.ivcm_matrix(y0, y1)
        for _ in range(3):
            delta = rng.standard_normal(nE)
            lhs = ivcm_target @ (D1p1_at_x1 @ delta)
            rhs = D1p1 @ (inner @ delta) + D2p1_at_x0 @ (jphi1 @ delta)
            keep("cond6_chaining_intertwine_max",
                 np.max(np.abs(lhs - rhs), initial=0.0), x0)
    return {
        "cond1_submersion_rank_ok": bool(full_rank_ok),
        "cond1_note": "rank check only",
        "cond2_fiber_slot_rank_ok": bool(cond2_rank_ok),
        "cond2_min_singular_value": float(cond2_min_sv),
        **maxima,
        "worst_samples": worst_samples,
        "n_samples": int(n_samples),
    }


def ref_check_equivariance(conn, n_samples, rng):
    quotient = conn.quotient
    G = quotient.action.group
    worst, worst_sample = 0.0, None
    for _ in range(n_samples):
        q0 = quotient.sample(rng)
        q1 = quotient.sample(rng)
        g0 = sample_group(G, rng)
        g1 = sample_group(G, rng)
        lhs = ad(conn, quotient.action.act(g0, q0), quotient.action.act(g1, q1))
        rhs = G.compose(G.compose(g1, ad(conn, q0, q1)), G.inverse(g0))
        violation = float(np.max(np.abs(lhs - rhs), initial=0.0))
        if worse(violation, worst):
            worst, worst_sample = violation, (q0, q1)
    return {"max_violation": worst, "n_samples": int(n_samples),
            "worst_sample": worst_sample}


def ref_check_symmetry(sys, action_e, action_m, sample, n_samples, rng):
    G, nE = action_e.group, sys.bundle.total_dim
    act = _diagonal_cprime_action(action_e, action_m).act
    report = dict.fromkeys(SYMMETRY_TOLS, (0.0, None))
    g_prev = G.identity
    for _ in range(n_samples):
        x0, x1 = _sample_second_order(sys, sample, rng)
        g = sample_group(G, rng)
        delta = rng.standard_normal(nE)
        gx0, gx1 = act(g, x0), act(g, x1)
        push = partial(directional_derivative, partial(action_e.act, g))
        pushed = push(x0[:nE], sys.ivcm_matrix(x0, x1) @ delta)
        violations = (act(G.identity, x0) - x0,
                      act(g_prev, gx0) - act(G.compose(g_prev, g), x0),
                      sys.bundle.phi(gx1[:nE]) - gx0[nE:],
                      sys.lag(gx0) - sys.lag(x0),
                      sys.ivcm_matrix(gx0, gx1) @ push(x1[:nE], delta) - pushed)
        for name, v in zip(report, violations):
            v = float(np.max(np.abs(v), initial=0.0))
            if worse(v, report[name][0]):
                report[name] = (v, x0)
        g_prev = g
    return report


def ref_two_stage(stage_h, stage_gh, one_shot, trajectory, conn_h,
                  full_group_action, conjugate_in_full, rng, n_checks):
    """The report of ``two_stage`` for a conjugation check that passes."""
    worst, worst_sample = 0.0, None
    quotient = conn_h.quotient
    for _ in range(n_checks):
        q0 = quotient.sample(rng)
        q1 = quotient.sample(rng)
        g = sample_group(full_group_action.group, rng)
        lhs = conn_h.ad_form(full_group_action.act(g, q0),
                             full_group_action.act(g, q1))
        rhs = conjugate_in_full(g, conn_h.ad_form(q0, q1))
        v = float(np.max(np.abs(lhs - rhs), initial=0.0))
        if worse(v, worst):
            worst, worst_sample = v, np.concatenate([q0, q1])
    report = {"conjugation_equivariance_max": worst,
              "conjugation_worst_sample": worst_sample}

    def F(y):
        x_h = stage_gh.model.lift_section(y)
        x = stage_h.model.lift_section(x_h)
        return one_shot.model.upsilon(x)

    worst, worst_step = 0.0, None
    per_step = []
    for k, x in enumerate(trajectory.points):
        y_h = stage_h.model.upsilon(x)
        y_gh = stage_gh.model.upsilon(y_h)
        y_g = one_shot.model.upsilon(x)
        d = float(np.max(np.abs(F(y_gh) - y_g)))
        per_step.append(d)
        if worse(d, worst):
            worst, worst_step = d, k
    report["stage_comparison_max"] = worst
    report["stage_comparison_worst_step"] = worst_step
    report["per_step"] = per_step
    return report


# --- bit-for-bit comparison ----------------------------------------------


def assert_bit_equal(got, want, where="report"):
    """Equal structure, types and bits; a dict's keys in the same order."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_bit_equal(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            assert_bit_equal(a, b, f"{where}[{k}]")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, float):
        assert type(got) is float, where
        assert struct.pack("<d", got) == struct.pack("<d", want), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, where


# --- cases -----------------------------------------------------------------


def _se2_translation(seed):
    act = se2_two_point_action()
    g = sample_group(act.group, np.random.default_rng(seed))
    return SmoothMapHandle(
        8, 8, lambda x: np.concatenate([act.act(g, x[:4]), act.act(g, x[4:])]))


def _constant_lagrangian(value):
    return from_dms(4, SmoothMapHandle(8, 1, lambda x: np.array([value]),
                                       jac=np.zeros((1, 8))))


@pytest.fixture(scope="module")
def morphism_cases(full_system, reduced, staged):
    upsilon = reduced.model.upsilon

    def partly_nan(x):
        return upsilon(x) + (np.nan if x[0] > 1.5 else 0.0)

    def perturbed(x):
        y = upsilon(x).copy()
        y[0] += 0.1
        return y

    return {
        "jac": (upsilon, full_system, reduced.system),
        "jac-less": (dataclasses.replace(upsilon, jac=None), full_system,
                     reduced.system),
        "translation": (_se2_translation(3), full_system, full_system),
        "partly-nan": (SmoothMapHandle(8, 6, partly_nan), full_system,
                       reduced.system),
        "perturbed": (SmoothMapHandle(8, 6, perturbed), full_system,
                      reduced.system),
        "one-shot": (staged.one_shot.model.upsilon, full_system,
                     staged.one_shot.system),
        "constant-lagrangians": (identity_map(8), _constant_lagrangian(1.0),
                                 _constant_lagrangian(3.0)),
    }


@pytest.mark.parametrize("case", ["jac", "jac-less", "translation", "partly-nan",
                                  "perturbed", "one-shot", "constant-lagrangians"])
@pytest.mark.parametrize("seed", [3, 10])
def test_check_morphism_matches_per_draw_loop(morphism_cases, case, seed):
    candidate, sys, target = morphism_cases[case]
    got = check_morphism(candidate, sys, target, sample_cprime, n_samples=12,
                         rng=np.random.default_rng(seed))
    want = ref_check_morphism(candidate, sys, target, sample_cprime, 12,
                              np.random.default_rng(seed))
    assert_bit_equal(got, want)


def test_check_morphism_cases_cover_nan_zero_and_ties(morphism_cases):
    """The cases above reach the fold's corners: a NaN maximum and minimum,
    a condition that reads 0 at every draw (no sample), and a tie, which the
    first draw wins."""
    candidate, sys, target = morphism_cases["partly-nan"]
    rep = check_morphism(candidate, sys, target, sample_cprime, n_samples=12,
                         rng=np.random.default_rng(3))
    assert np.isnan(rep["cond2_min_singular_value"])
    assert np.isnan(rep["cond6_chaining_intertwine_max"])
    drawn = []

    def recording(rng):
        drawn.append(sample_cprime(rng))
        return drawn[-1]

    candidate, sys, target = morphism_cases["constant-lagrangians"]
    rep = check_morphism(candidate, sys, target, recording, n_samples=12,
                         rng=np.random.default_rng(3))
    first_x0 = np.concatenate([drawn[0][:4], drawn[1][:4]])
    assert rep["cond5_lagrangian_match_max"] == 2.0
    assert np.array_equal(rep["worst_samples"]["cond5_lagrangian_match_max"], first_x0)
    assert np.array_equal(rep["worst_samples"]["cond2_min_singular_value"], first_x0)
    for key in ("cond3_base_independence_max", "cond4_base_compatibility_max",
                "cond6_chaining_intertwine_max"):
        assert rep[key] == 0.0 and rep["worst_samples"][key] is None, key


def _nan_past(conn, bound):
    """conn with a connection form that is NaN once q0[0] exceeds bound."""
    def ad_form(q0, q1):
        return conn.ad_form(q0, q1) + (np.nan if q0[0] > bound else 0.0)
    return dataclasses.replace(conn, ad_form=ad_form)


def _trivial_connection():
    e = trivial_group().identity
    quotient = QuotientModel(project=identity_map(4), section=identity_map(4),
                             action=trivial_action(4),
                             sample=sample_configuration)
    return DiscreteConnection(quotient=quotient, ad_form=lambda q0, q1: e,
                              hor_lift=lambda q0, r1: r1)


@pytest.mark.parametrize("which", ["t2", "se2", "nan", "trivial"])
def test_check_equivariance_matches_per_draw_loop(staged, which):
    conn = {"t2": staged.conn_h, "se2": staged.conn_g,
            "nan": _nan_past(staged.conn_g, 1.0),
            "trivial": _trivial_connection()}[which]
    got = check_equivariance(conn, 30, rng=np.random.default_rng(5))
    want = ref_check_equivariance(conn, 30, np.random.default_rng(5))
    assert_bit_equal(got, want)
    if which == "nan":
        assert np.isnan(got["max_violation"])
    if which == "trivial":
        assert got["max_violation"] == 0.0 and got["worst_sample"] is None


def _nan_lagrangian_past(bound):
    return from_dms(4, SmoothMapHandle(
        8, 1, lambda x: np.array([np.nan if x[0] > bound else x[0]])))


def _symmetry_case(which, full_system, reduced):
    """(sys, action_e, action_m, sample_cprime) of a ``check_symmetry`` case."""
    if which == "t2-reduced-u1":
        # The residual circle action on the translation-reduced system,
        # whose chaining matrix is not zero: the push-forward branch.
        return (reduced.system, make_residual_u1_action(), u1_plane_action(),
                lambda r: reduced.model.upsilon(sample_cprime(r)))
    sys, action = {"se2": (full_system, se2_two_point_action()),
                   "t2": (full_system, t2_two_point_action()),
                   "right-action": (full_system, _right_se2_action()),
                   "nan-lagrangian": (_nan_lagrangian_past(1.5),
                                      t2_two_point_action())}[which]
    return sys, action, action, sample_cprime


@pytest.mark.parametrize("which", ["se2", "t2", "right-action", "nan-lagrangian",
                                   "t2-reduced-u1"])
def test_check_symmetry_matches_per_draw_loop(full_system, reduced, which):
    args = _symmetry_case(which, full_system, reduced)
    got = check_symmetry(*args, n_samples=20, rng=np.random.default_rng(7))
    want = ref_check_symmetry(*args, 20, np.random.default_rng(7))
    assert_bit_equal(got, want)


@pytest.mark.parametrize("which, pushes", [("se2", 0), ("t2", 0),
                                           ("nan-lagrangian", 0),
                                           ("t2-reduced-u1", 2)])
def test_check_symmetry_pushes_only_through_nonzero_matrices(
        monkeypatch, full_system, reduced, which, pushes):
    """A draw takes a push-forward only for a chaining term whose matrix
    has a nonzero entry: none on a DMS (zero chaining matrix), two on the
    translation-reduced system."""
    calls = []

    def counted(f, x, v):
        calls.append(1)
        return directional_derivative(f, x, v)

    monkeypatch.setattr(reduction, "directional_derivative", counted)
    check_symmetry(*_symmetry_case(which, full_system, reduced), n_samples=5,
                   rng=np.random.default_rng(3))
    assert len(calls) == 5 * pushes


def test_check_symmetry_reads_a_nan_chaining_matrix_as_nan(full_system):
    """A NaN entry counts as nonzero, so a NaN chaining matrix reads NaN."""
    nan = np.full((4, 4), np.nan)
    broken = dataclasses.replace(full_system, ivcm_matrix=lambda x0, x1: nan)
    act = t2_two_point_action()
    report = check_symmetry(broken, act, act, sample_cprime, n_samples=3,
                            rng=np.random.default_rng(3))
    worst, sample = report["chaining-map G-equivariance"]
    assert np.isnan(worst) and sample is not None


def _nan_at_first_call(result):
    """result with a one-shot upsilon that reads NaN on its first call."""
    upsilon = result.model.upsilon
    calls = []

    def nan_first(x):
        calls.append(1)
        if len(calls) == 1:
            return np.full(upsilon.out_dim, np.nan)
        return upsilon.eval(x)

    return dataclasses.replace(result, model=dataclasses.replace(
        result.model, upsilon=dataclasses.replace(upsilon, eval=nan_first)))


@pytest.mark.parametrize("which", ["staged", "nan-first", "h-trivial"])
def test_two_stage_matches_per_draw_loop(staged, full_start, which):
    traj = simulate(staged.sys, *full_start, 6)
    stage_h, stage_gh, conn_h, conjugate = (staged.stage_h, staged.stage_gh,
                                            staged.conn_h, staged.conjugate_in_g)
    if which == "h-trivial":
        stage_h = trivial_reduction(staged.sys, sample_cprime,
                                    rng=np.random.default_rng(6))
        stage_gh, conn_h = staged.one_shot, _trivial_connection()
        conjugate = lambda g, h: h  # noqa: E731
    reports = []
    for run in (two_stage, ref_two_stage):
        one_shot = (_nan_at_first_call(staged.one_shot) if which == "nan-first"
                    else staged.one_shot)
        args = (stage_h, stage_gh, one_shot, traj, conn_h, staged.action_g,
                conjugate, np.random.default_rng(9), 20)
        reports.append(run(staged.sys, *args)[0] if run is two_stage else run(*args))
    assert_bit_equal(*reports)
    if which == "nan-first":
        assert reports[0]["stage_comparison_worst_step"] == 0
    if which == "h-trivial":
        assert reports[0]["conjugation_worst_sample"] is None


# --- the helpers -----------------------------------------------------------

VIOLATIONS = hnp.arrays(
    np.float64, st.integers(0, 12),
    elements=st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0, 2.0]),
                       st.floats(-1e3, 1e3)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(VIOLATIONS, st.sampled_from([0.0, -np.inf]))
def test_worst_draw_is_the_fold_by_worse(values, start):
    """The worst entry and its index are those of a left fold by ``worse``
    from ``start``: the first NaN, else the first strict maximum."""
    worst, index = start, None
    for k, v in enumerate(values.tolist()):
        if worse(v, worst):
            worst, index = v, k
    got, got_index = worst_draw(values, start)
    assert got_index == index
    assert struct.pack("<d", got) == struct.pack("<d", worst)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(0, 3),
                                        st.integers(0, 4)),
                  elements=st.one_of(st.just(np.nan), st.floats(-1e3, 1e3))))
def test_draw_maxima_is_the_per_draw_maximum(diffs):
    got = draw_maxima(diffs)
    want = np.array([float(np.max(np.abs(d), initial=0.0)) for d in diffs])
    assert got.shape == (diffs.shape[0],)
    assert got.tobytes() == want.tobytes()


def test_stacked_matvecs_are_per_draw_matvecs():
    """Stacked mat-vecs give the bits of per-draw ``A @ v``, on contiguous
    stacks and on slices of them."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        n, r, c = rng.integers(1, 9, size=3)
        A = rng.standard_normal((n, r + 2, c + 3)) * 10.0 ** rng.integers(-3, 4)
        v = rng.standard_normal((n, 3, c))
        for M in (A[:, :r, :c], A[:, 2:, 3:], np.ascontiguousarray(A[:, :r, :c])):
            want = np.array([[M[i] @ v[i, k] for k in range(3)] for i in range(n)])
            assert _matvecs(M, v).tobytes() == want.tobytes()
