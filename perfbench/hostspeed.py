"""Reference timing of the host's current speed.

On a shared VM, for a fraction of a second up to minutes at a time, a
vCPU runs the same single-threaded code up to about
twice as slowly. Raw wall times of two sets of runs then differ by as much
as the share of slow time in each set, whatever the code does.

``probe()`` times a fixed kernel of the same kind of work as the workloads
(Python calls over small numpy arrays: finite-difference gradients and a
small linear solve). The kernel is part of the benchmark, not of dlpsim,
so a change to the library cannot move it. ``SpeedTrack`` runs it before
every timed op and scales a time by ``REFERENCE_S`` over the mean of the
probes taken within ``WINDOW_S`` of it: those just before and just after
an op. A scaled time reads as the time on a host where the kernel takes
``REFERENCE_S``, about a 2-vCPU x86-64 VM at full speed. The
workloads slow down somewhat more than the kernel when the host does, so
scaled times still rise by up to ~15% on a host that is slow throughout.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: Kernel time that defines the reference host, in seconds.
REFERENCE_S = 0.002
#: Probes within this many seconds of a timed interval give its scale.
WINDOW_S = 0.01

_Q = np.array([1.0, 0.0, -1.0, 0.0])
_DQ = np.array([0.04, 0.03, 0.03, 0.02])
_MASS = np.diag([1.0, 1.0, 2.0, 2.0])


def _lagrangian(x):
    q0, q1 = x[:4], x[4:]
    v = (q1 - q0) / 0.1
    mid = 0.5 * (q0 + q1)
    r = mid[:2] - mid[2:]
    return np.array([0.5 * float(v @ _MASS @ v) - 0.5 * float(np.sqrt(r @ r))])


def _gradient(x, step=1e-6):
    g = np.empty(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = step
        g[i] = (_lagrangian(x + e)[0] - _lagrangian(x - e)[0]) / (2.0 * step)
    return g


def _kernel():
    x = np.concatenate([_Q, _Q + _DQ])
    for _ in range(12):
        g = _gradient(x)
        jac = np.outer(g[:4], g[4:]) + _MASS
        x = np.concatenate([x[:4], x[4:] + 1e-9 * np.linalg.solve(jac, g[4:])])
    return x


def probe() -> float:
    """Time of one run of the kernel, in seconds."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class SpeedTrack:
    """Probes taken during a run, and the scale they give a time."""

    def __init__(self):
        self.starts, self.ends, self.values = [], [], []
        #: Wall time spent in probes, to be left out of phase times.
        self.spent = 0.0

    def probe(self):
        start = time.perf_counter()
        self.values.append(probe())
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.spent += end - start

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a time measured from ``start`` to ``end`` to
        the reference host, from the probes within ``WINDOW_S`` of it."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.values[lo:hi] or self.values
        return REFERENCE_S * len(near) / sum(near)
