"""Numeric cross-checks of the closed-form age statistics.

Integrates the instantaneous age (or a penalty of it) over the
observation window with a midpoint rule on a fine grid. Age drops
happen exactly at reception stamps, so when the stamps are multiples
of the grid step the integrand is linear inside every cell and the
midpoint rule integrates the sawtooth itself exactly; the penalty
integrals carry only the O(step^2) curvature error of f.

This is a test oracle, not a production path: it is O(window / step)
and the closed forms are exact. It evaluates the penalty f itself,
so it shares no arithmetic with `aoikit.metrics`.
"""

from __future__ import annotations

import numpy as np

from aoikit.errors import InsufficientDataError
from aoikit.metrics import PenaltySpec
from aoikit.trace import AgeTrace

DEFAULT_STEP_NS = 1_000  # 1 microsecond


def penalty_f(spec: PenaltySpec, t: np.ndarray) -> np.ndarray:
    """The penalty f(t) named by `spec`: alpha * t, exp(alpha * t) - 1
    or log(alpha * t + 1)."""
    at = spec.alpha * np.asarray(t, dtype=float)
    if spec.kind == "linear":
        return at
    if spec.kind == "exponential":
        return np.expm1(at)
    return np.log1p(at)


def _cells(trace: AgeTrace, step_ns: int):
    """Midpoints and widths of grid cells spanning
    [first recv, last recv]."""
    gen, recv = trace.delivered()
    if len(gen) < 2:
        raise InsufficientDataError("need >= 2 deliveries")
    t0, t1 = int(recv[0]), int(recv[-1])
    starts = np.arange(t0, t1, step_ns, dtype=np.int64)
    ends = np.minimum(starts + step_ns, t1)
    mids = (starts + ends) // 2
    idx = np.searchsorted(recv, mids, side="right") - 1
    ages = (mids - gen[idx]).astype(float) / 1e9
    widths = (ends - starts).astype(float) / 1e9
    return ages, widths, float(t1 - t0) / 1e9


def grid_average_age(trace: AgeTrace, step_ns: int = DEFAULT_STEP_NS) -> float:
    """Midpoint-rule time-average of the instantaneous age."""
    ages, widths, window = _cells(trace, step_ns)
    return float(np.sum(ages * widths) / window)


def grid_penalty_average(
    trace: AgeTrace, spec: PenaltySpec, step_ns: int = DEFAULT_STEP_NS
) -> float:
    """Midpoint-rule time-average of f(age)."""
    ages, widths, window = _cells(trace, step_ns)
    return float(np.sum(penalty_f(spec, ages) * widths) / window)


def grid_peak_age(trace: AgeTrace) -> float:
    """Mean of the age sampled one nanosecond before each reception,
    plus that nanosecond of slope-one growth. Independent of the
    closed-form peak computation."""
    gen, recv = trace.delivered()
    if len(gen) < 2:
        raise InsufficientDataError("need >= 2 deliveries")
    just_before = recv[1:] - 1
    idx = np.searchsorted(recv, just_before, side="right") - 1
    peaks = (just_before - gen[idx] + 1).astype(float) / 1e9
    return float(np.mean(peaks))
