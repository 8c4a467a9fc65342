"""Polling uplink with per-source single-slot freshest-only queues.

An access point polls one source per frame. Each source refreshes its
slot with a new sample at every frame start, so a successful poll
delivers the sample generated at the start of the polled frame and the
source's age drops to one frame (the generation lag) at the frame
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .trace import AgeTrace, seconds_to_ns

POLICIES = ("round-robin", "greedy", "max-weight")


@dataclass(frozen=True)
class SchedulerConfig:
    n_sources: int
    success_prob: tuple[float, ...]
    frame_s: float = 1.0
    policy: str = "round-robin"
    # weight exponent w in p_i * age_i**w for max-weight (and age_i**w
    # for greedy); exposed because the right exponent is a modelling
    # choice, not a fixed convention
    weight_exponent: float = 1.0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.n_sources < 1 or len(self.success_prob) != self.n_sources:
            raise ConfigError("need one success probability per source")
        if any(not (0.0 < p <= 1.0) for p in self.success_prob):
            raise ConfigError("success probabilities must be in (0, 1]")
        if not (0.0 < self.frame_s < math.inf):
            raise ConfigError("frame must be positive and finite")
        if not (0.0 <= self.weight_exponent < math.inf):
            raise ConfigError("weight exponent must be finite and non-negative")


@dataclass
class SchedulerRun:
    config: SchedulerConfig
    frames: int
    seed: int
    avg_age_per_source: list[float]  # exact time averages, seconds
    polls: list[int]
    successes: list[int]
    traces: list[AgeTrace] = field(default_factory=list)

    @property
    def total_avg_age(self) -> float:
        return float(sum(self.avg_age_per_source))


def simulate_scheduler(
    cfg: SchedulerConfig, frames: int, seed: int = 0, keep_traces: bool = True
) -> SchedulerRun:
    """Run the polling loop for the given number of frames.

    Ages are tracked in frame units with exact per-frame trapezoid
    areas, then scaled by the frame length; every source starts fresh
    (age zero) at time zero.
    """
    if frames < 1:
        raise ConfigError("need at least one frame")
    if keep_traces and frames * seconds_to_ns(cfg.frame_s) > np.iinfo(np.int64).max:
        raise ConfigError("trace stamps would pass the int64 nanosecond range")
    n = cfg.n_sources
    p = np.asarray(cfg.success_prob, dtype=float)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    coins = rng.random(frames)

    if cfg.policy == "round-robin":
        picks = np.arange(frames) % n
    else:
        weights = p if cfg.policy == "max-weight" else None
        picks = _max_weight_picks(weights, p, coins, cfg.weight_exponent)
    success = coins < p[picks]
    hits = np.flatnonzero(success)
    owner = picks[hits]
    deliveries = [hits[owner == i] for i in range(n)]  # in frame order
    polls = np.bincount(picks, minlength=n).tolist()
    successes = [len(ks) for ks in deliveries]

    # age in frame k is k minus the newest delivery before k (0 before
    # any): between consecutive delivery frames L apart (frame 0 and
    # the last frame count as ends) the ages sum to 1 + ... + L, and
    # each frame's trapezoid adds 0.5
    frame = cfg.frame_s
    avg = []
    for ks in deliveries:
        runs = np.diff(ks, prepend=0, append=frames - 1)
        area = int((runs * (runs + 1)).sum()) // 2 + 0.5 * frames
        avg.append(area / frames * frame)

    traces = []
    if keep_traces:
        frame_ns = seconds_to_ns(frame)
        for ks in deliveries:
            traces.append(
                AgeTrace.from_arrays(
                    np.arange(len(ks)),
                    ks * frame_ns,
                    (ks + 1) * frame_ns,
                    t_start_ns=0,
                    t_end_ns=frames * frame_ns,
                )
            )
    return SchedulerRun(cfg, frames, seed, avg, polls, successes, traces)


def _max_weight_picks(weights: Optional[np.ndarray], p: np.ndarray,
                      coins: np.ndarray, w: float) -> np.ndarray:
    """Poll, in each frame, the first source with the largest
    weights[i] * age_i**w; greedy is the case of unit weights (None).

    pw[a] holds float(a) ** w, Python's pow, so every score and every
    tie equals a per-source scan. The table grows only when the oldest
    age reaches its end, and never past the first age whose power
    overflows, so a run raises OverflowError exactly when an age's
    power overflows.
    """
    last = np.zeros(len(p), dtype=np.int64)  # newest delivered frame
    low = 0  # a lower bound on last.min()
    pw = np.empty(0)
    picks = np.empty(len(coins), dtype=np.int64)
    for k in range(len(coins)):
        if k - low >= len(pw):
            low = int(last.min())
            if k - low >= len(pw):
                pw = _extend_powers(pw, k - low, w)
        scores = pw[k - last]
        pick = int((scores if weights is None else weights * scores).argmax())
        picks[k] = pick
        if coins[k] < p[pick]:
            last[pick] = k
    return picks


def _extend_powers(pw: np.ndarray, age: int, w: float) -> np.ndarray:
    """pw extended to at least twice its length and past `age`,
    stopping short at the first power beyond `age` that overflows."""
    more = []
    for a in range(len(pw), max(2 * len(pw), age + 1)):
        try:
            more.append(float(a) ** w)
        except OverflowError:
            if a <= age:
                raise
            break
    return np.concatenate((pw, more))
