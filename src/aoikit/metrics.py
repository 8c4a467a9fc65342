"""Age statistics computed from timestamp traces.

Average age is the time integral of the instantaneous age divided by
the observation window. Statistics use the window between the first
and last reception so that the two closed-form area decompositions
(one indexed by generation intervals, one by reception intervals)
agree exactly on finite traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientDataError, RangeError
from .trace import _LOST, AgeTrace

PENALTY_KINDS = ("linear", "exponential", "logarithmic")


@dataclass(frozen=True)
class PenaltySpec:
    """Age penalty function selector.

    linear       f(t) = alpha * t
    exponential  f(t) = exp(alpha * t) - 1
    logarithmic  f(t) = log(alpha * t + 1)
    """

    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ConfigError(f"unknown penalty kind {self.kind!r}")
        if not (self.alpha > 0):
            raise ConfigError("penalty alpha must be positive")

    def F(self, t: np.ndarray | float) -> np.ndarray | float:
        """Antiderivative of f with F(0) = 0."""
        t = np.asarray(t, dtype=float)
        a = self.alpha
        if self.kind == "linear":
            return a * t * t / 2.0
        if self.kind == "exponential":
            return np.expm1(a * t) / a - t
        at = a * t
        if np.any(at <= -1.0):
            raise RangeError("logarithmic penalty argument is nonpositive")
        return ((at + 1.0) * np.log1p(at) - at) / a


@dataclass(frozen=True)
class BiasModel:
    """Constant clock offset between the two endpoints, applied to the
    reception stamps as seen by the sender-side calculator."""

    bias_ns: int


def _delivered_or_raise(trace: AgeTrace) -> tuple[np.ndarray, np.ndarray]:
    gen, recv = trace.delivered()
    if len(gen) < 2:
        raise InsufficientDataError(
            f"need >= 2 deliveries after obsolete filtering, have {len(gen)}"
        )
    return gen, recv


def _difference(end: np.ndarray, start: np.ndarray) -> np.ndarray:
    """`end - start` of int64 nanosecond stamps as float: the int64
    loop writes straight into the float array, a buffer at a time, so
    each difference is exact before its one rounding and no integer
    difference array is made."""
    out = np.empty(len(end))
    return np.subtract(end, start, out=out, dtype=np.int64, casting="unsafe")


def _span_s(end: np.ndarray, start: np.ndarray) -> np.ndarray:
    """`end - start` of int64 nanosecond stamps in float seconds,
    divided in place: the one array it makes is its result."""
    span = _difference(end, start)
    span /= 1e9
    return span


def _window_s(recv: np.ndarray) -> float:
    t = float(int(recv[-1]) - int(recv[0]))
    if t <= 0:
        raise InsufficientDataError("observation window has zero length")
    return t / 1e9


def instantaneous_age(trace: AgeTrace, t_ns: int) -> float:
    """Age at time t: t minus the newest generation stamp delivered by
    t, or the initial age grown at slope one if nothing was delivered
    yet. Seconds."""
    if not (trace.t_start_ns <= t_ns <= trace.t_end_ns):
        raise RangeError(
            f"t={t_ns} outside window [{trace.t_start_ns}, {trace.t_end_ns}]"
        )
    gen, recv = trace.delivered()
    idx = int(np.searchsorted(recv, t_ns, side="right")) - 1
    if idx < 0:
        return (trace.initial_age_ns + (t_ns - trace.t_start_ns)) / 1e9
    return (t_ns - int(gen[idx])) / 1e9


def average_age_by_reception(trace: AgeTrace) -> float:
    """Average age from per-reception strips: each inter-reception gap
    contributes (gap * system_time + gap^2 / 2). Preferred form for
    live measurement since it needs only quantities known at each
    reception."""
    gen, recv = _delivered_or_raise(trace)
    gap = _span_s(recv[1:], recv[:-1])
    strips = _span_s(recv[:-1], gen[:-1])
    strips *= gap
    gap *= gap
    area = float(np.sum(strips) + np.sum(gap) / 2.0)
    return area / _window_s(recv)


def average_age_by_generation(trace: AgeTrace) -> float:
    """Average age from per-generation trapezoids, corrected by the two
    window-edge triangles so the value equals the exact time average
    over [first reception, last reception]."""
    gen, recv = _delivered_or_raise(trace)
    # trapezoid k: the ages just before reception k + 1 and just after
    # it, summed, times the generation gap gen[k + 1] - gen[k]
    theta = _span_s(recv[1:], gen[:-1])
    theta += _span_s(recv[1:], gen[1:])
    theta *= _span_s(gen[1:], gen[:-1])
    trapezoids = float(np.sum(theta) / 2.0)
    first_delay, last_delay = _span_s(recv[[0, -1]], gen[[0, -1]])
    edges = (float(last_delay) ** 2 - float(first_delay) ** 2) / 2.0
    return (trapezoids + edges) / _window_s(recv)


def peak_age(trace: AgeTrace) -> float:
    """Mean of the age values immediately before each reception."""
    gen, recv = _delivered_or_raise(trace)
    peaks = _span_s(recv[1:], gen[:-1])
    return float(np.mean(peaks))


def mean_delay(trace: AgeTrace) -> float:
    """Mean system time (reception minus generation) of counted
    deliveries. Seconds."""
    gen, recv = trace.delivered()
    if len(gen) == 0:
        raise InsufficientDataError("no deliveries")
    return float(np.mean(_difference(recv, gen))) / 1e9


def _finite_sum(areas: np.ndarray, recv: np.ndarray) -> float:
    """Sum of per-interval penalty areas; interval k lies between
    receptions k and k+1. A non-finite sum (the penalty overflowed)
    raises RangeError naming the first interval where the running sum
    stops being finite."""
    total = float(np.sum(areas))
    if not math.isfinite(total):
        k = int(np.argmax(~np.isfinite(np.cumsum(areas))))
        raise RangeError(
            f"penalty is not finite over interval {k}, between the receptions "
            f"at {int(recv[k])} ns and {int(recv[k + 1])} ns"
        )
    return total


def penalty_average(trace: AgeTrace, spec: PenaltySpec) -> float:
    """Time average of f(age) over the observation window, computed in
    closed form per inter-reception interval via the antiderivative."""
    gen, recv = _delivered_or_raise(trace)
    beta = _span_s(recv[:-1], gen[:-1])
    theta = _span_s(recv[1:], gen[:-1])
    # an overflow is reported by _finite_sum, which names the interval
    with np.errstate(over="ignore", invalid="ignore"):
        areas = spec.F(theta) - spec.F(beta)
    return _finite_sum(areas, recv) / _window_s(recv)


def apply_bias(trace: AgeTrace, bias: BiasModel) -> AgeTrace:
    """Shift every reception stamp by the clock bias; generation stamps
    stay on the sender's clock."""
    if bias.bias_ns == 0:
        return trace
    recv = trace.recv_ns.copy()
    mask = recv != _LOST
    recv[mask] += bias.bias_ns
    if np.any(recv[mask] < 0):
        raise RangeError("bias shift would produce a negative timestamp")
    t_start = trace.t_start_ns
    t_end = trace.t_end_ns
    if np.any(mask):
        t_start = min(t_start, int(recv[mask].min()))
        t_end = max(t_end, int(recv[mask].max()))
    return AgeTrace(
        trace.ids.copy(), trace.gen_ns.copy(), recv, trace.sizes.copy(),
        t_start, t_end, trace.initial_age_ns, bias_declared=True,
    )


def penalty_bias(trace: AgeTrace, bias: BiasModel, spec: PenaltySpec) -> float:
    """Penalty error introduced by a constant clock bias: the biased
    time-average penalty minus the unbiased one, in closed form.

    For the linear penalty the result is exactly alpha * bias for every
    trace; the nonlinear cases depend on the trace through the
    per-interval ages.
    """
    b = bias.bias_ns / 1e9
    if spec.kind == "linear":
        _delivered_or_raise(trace)
        return spec.alpha * b
    if bias.bias_ns == 0:
        _delivered_or_raise(trace)
        return 0.0
    gen, recv = _delivered_or_raise(trace)
    beta = _span_s(recv[:-1], gen[:-1])
    theta = _span_s(recv[1:], gen[:-1])
    with np.errstate(over="ignore", invalid="ignore"):  # see penalty_average
        areas = spec.F(theta + b) - spec.F(beta + b) - spec.F(theta) + spec.F(beta)
    return _finite_sum(areas, recv) / _window_s(recv)


def age_floor(rtt_s: float, rate_hz: float) -> float:
    """Smallest achievable average age for periodic sampling at the
    given rate over a queueing-free path: round trip time plus half the
    sampling period."""
    if rate_hz <= 0:
        raise ConfigError("rate must be positive")
    return rtt_s + 1.0 / (2.0 * rate_hz)


def summary(trace: AgeTrace, spec: PenaltySpec | None = None) -> dict[str, float]:
    """All headline statistics in one dict (used by the CLI analyze
    subcommand)."""
    out = {
        "avg_age_recv_form_s": average_age_by_reception(trace),
        "avg_age_gen_form_s": average_age_by_generation(trace),
        "peak_age_s": peak_age(trace),
        "mean_delay_s": mean_delay(trace),
        "loss_count": float(trace.loss_count),
        "obsolete_count": float(trace.obsolete_count),
    }
    if spec is not None:
        out["penalty_avg"] = penalty_average(trace, spec)
    return out
