"""Exception types shared across the package, and the one ordering of
the violations that sampled checks report."""

import numpy as np


def draw_maxima(diffs) -> np.ndarray:
    """The violation of each draw: max |d| over every axis of ``diffs`` but
    the first, which indexes the draws (0 for a draw with no entries; a
    NaN entry makes its draw's violation NaN)."""
    d = np.abs(np.asarray(diffs, dtype=float))
    return np.max(d, axis=tuple(range(1, d.ndim)), initial=0.0)


def worst_draw(violations, start: float = 0.0) -> tuple[float, int | None]:
    """The worst entry of an array of per-draw violations and its index.

    The first NaN entry; else the first largest entry, provided it
    exceeds ``start``; else ``(start, None)``. Negate both the array and
    ``start`` to take a minimum the same way.
    """
    v = np.asarray(violations, dtype=float)
    nan = np.isnan(v)
    if nan.any():
        i = int(np.argmax(nan))
    elif v.size and v.max() > start:
        i = int(np.argmax(v))
    else:
        return float(start), None
    return float(v[i]), i


class DomainError(ValueError):
    """A map was evaluated outside its declared domain."""


class NonConvergence(RuntimeError):
    """An iterative solver exhausted its iteration budget or stalled."""

    def __init__(self, message, residual_norm=None, last_iterate=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.last_iterate = last_iterate


class SingularJacobian(RuntimeError):
    """A dense linear solve failed (singular or rank-deficient matrix)."""


class ValidationError(ValueError):
    """A structural identity failed at a sample point.

    Carries the name of the identity and the offending sample so failures
    are diagnosable.
    """

    def __init__(self, identity, sample=None, violation=None):
        msg = f"identity '{identity}' violated"
        if violation is not None:
            msg += f" (violation {violation:.3e})"
        if sample is not None:
            msg += f" at sample {sample}"
        super().__init__(msg)
        self.identity = identity
        self.sample = sample
        self.violation = violation


class MatchingError(RuntimeError):
    """No group element solves the base-matching condition."""


class RegularityError(RuntimeError):
    """A regularity hypothesis (invertible mixed-partial block) fails."""


class SimulationError(RuntimeError):
    """A multi-step run failed; carries the partial path and step index."""

    def __init__(self, step_index, partial_path, cause):
        super().__init__(f"step {step_index} failed: {cause}")
        self.step_index = step_index
        self.partial_path = partial_path
        self.cause = cause
