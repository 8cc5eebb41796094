"""The benchmark tracer's patches still find every name they wrap.

``perfbench/tracing.py`` replaces dlpsim module attributes by name; a
rename or deletion in the library would otherwise surface only when the
benchmark runs.
"""

import importlib
from pathlib import Path

import numpy as np

from dlpsim import dlps, example_se2

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_count_full_and_reduced_steps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracing.patches(tracer):
        cfg = example_se2.TwoBodyConfig()
        full = example_se2.make_full_system(cfg)
        red = example_se2.make_reduced_system(cfg, rng=np.random.default_rng(1))
        dlps.step(full, np.array([1.0, 0.0, -1.0, 0.0]),
                  np.array([1.04, 0.03, -0.97, 0.02]))
        dlps.step(red.system, np.array([1.0, 0.1, 0.05, -0.02]),
                  np.array([1.02, 0.13]))
    assert tracer.counts["dlps.step"] == 2
    assert tracer.counts["reduction.reduced_ivcm_matrix"] > 0
