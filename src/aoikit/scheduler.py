"""Polling uplink with per-source single-slot freshest-only queues.

An access point polls one source per frame. Each source refreshes its
slot with a new sample at every frame start, so a successful poll
delivers the sample generated at the start of the polled frame and the
source's age drops to one frame (the generation lag) at the frame
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if not (self.frame_s > 0):
            raise ConfigError("frame must be positive")


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
    n = cfg.n_sources
    p = np.asarray(cfg.success_prob, dtype=float)
    w = cfg.weight_exponent
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    coins = rng.random(frames)

    last_gen = [0] * n  # frame index of the newest delivered sample
    area = [0.0] * n  # integral of age, in frame^2 units
    polls = [0] * n
    successes = [0] * n
    deliveries: list[list[int]] = [[] for _ in range(n)]

    for k in range(frames):
        ages = [k - last_gen[i] for i in range(n)]
        if cfg.policy == "round-robin":
            pick = k % n
        elif cfg.policy == "greedy":
            best, pick = -1.0, 0
            for i in range(n):
                score = float(ages[i]) ** w
                if score > best:
                    best, pick = score, i
        else:  # max-weight
            best, pick = -1.0, 0
            for i in range(n):
                score = p[i] * float(ages[i]) ** w
                if score > best:
                    best, pick = score, i
        for i in range(n):
            area[i] += ages[i] + 0.5
        polls[pick] += 1
        if coins[k] < p[pick]:
            successes[pick] += 1
            deliveries[pick].append(k)
            last_gen[pick] = k

    frame = cfg.frame_s
    avg = [a / frames * frame for a in area]

    traces = []
    if keep_traces:
        frame_ns = seconds_to_ns(frame)
        for i in range(n):
            ks = np.asarray(deliveries[i], dtype=np.int64)
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
