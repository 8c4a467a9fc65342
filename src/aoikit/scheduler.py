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
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .trace import AgeTrace

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
    # each source's successful frames, in order
    delivery_frames: list[np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def traces(self) -> list[AgeTrace]:
        """Each source's age trace, built on first read: a success in
        frame k delivers the sample generated at the frame's start, at
        its end."""
        from .trace import AgeTrace, seconds_to_ns  # loaded on first read

        frame_ns = seconds_to_ns(self.config.frame_s)
        if self.frames * frame_ns > np.iinfo(np.int64).max:
            raise ConfigError("trace stamps would pass the int64 nanosecond range")
        return [AgeTrace.from_arrays(np.arange(len(ks)), ks * frame_ns, (ks + 1) * frame_ns,
                                     t_start_ns=0, t_end_ns=self.frames * frame_ns)
                for ks in self.delivery_frames]


def simulate_scheduler(cfg: SchedulerConfig, frames: int, seed: int = 0) -> SchedulerRun:
    """Run the polling loop for the given number of frames.

    Ages are tracked in frame units with exact per-frame trapezoid
    areas, then scaled by the frame length; every source starts fresh
    (age zero) at time zero.
    """
    if frames < 1:
        raise ConfigError("need at least one frame")
    n = cfg.n_sources
    p = np.asarray(cfg.success_prob, dtype=float)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    coins = rng.random(frames)

    if cfg.policy == "round-robin":
        picks = np.arange(frames) % n
    elif cfg.policy == "greedy":
        picks = _greedy_picks(p, coins, cfg.weight_exponent)
    else:
        picks = _max_weight_picks(p, p, coins, cfg.weight_exponent)
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
    avg = []
    for ks in deliveries:
        runs = np.diff(ks, prepend=0, append=frames - 1)
        area = int((runs * (runs + 1)).sum()) // 2 + 0.5 * frames
        avg.append(area / frames * cfg.frame_s)
    return SchedulerRun(cfg, frames, seed, avg, polls, successes, deliveries)


def analytic_avg_age_per_source(cfg: SchedulerConfig) -> Optional[list[float]]:
    """Long-run average age of each source, in seconds, by
    renewal-reward, or None where the policy has no closed form here.

    With L frames between a source's deliveries, the per-frame ages of
    `simulate_scheduler` average E[L^2] / (2 E[L]) + 1 frames. Under
    round-robin L is n times a geometric count of polls (any p).
    Greedy with w > 0 polls each source until it succeeds, in index
    order, so L is the sum of one geometric count per source; so does
    max-weight when every p is equal. Greedy with w = 0 polls source 0
    only, and max-weight with unequal p has no form here. The forms
    assume age**w strictly increases, which float powers of a tiny w
    (such as 1e-300) do not.
    """
    n, p, w = cfg.n_sources, cfg.success_prob, cfg.weight_exponent
    if cfg.policy == "round-robin":
        moments = [(n / q, n * n * (1 - q) / (q * q)) for q in p]
    elif w > 0 and (cfg.policy == "greedy" or len(set(p)) == 1):
        mean = sum(1 / q for q in p)
        var = sum((1 - q) / (q * q) for q in p)
        moments = [(mean, var)] * n
    else:
        return None
    return [cfg.frame_s * ((var + mean * mean) / (2 * mean) + 1)
            for mean, var in moments]


def _greedy_picks(p: np.ndarray, coins: np.ndarray, w: float) -> np.ndarray:
    """Greedy's picks as a rotation: poll the pointer source until it
    succeeds, then move the pointer to the next index.

    While float(a) ** w strictly increases over the ages looked up,
    greedy polls the first source with the oldest delivery. A success
    at frame k > 0 makes its source the newest, so the order by
    (newest delivery, index) stays a rotation of 0..n-1 and the pointer
    is its head; a success at frame 0 changes no delivery frame and
    keeps the pointer. The pointer always holds the oldest age, so the
    oldest age looked up is checked afterwards: on a tie or an overflow
    among the powers up to it, the per-frame argmax decides instead,
    and raises where the scan would.

    The loop reads coins and writes picks through memoryviews, one
    Python float at a time, so the run holds no per-frame list.
    """
    n = len(p)
    probs = p.tolist()
    last = [0] * n  # newest delivered frame
    picks = np.empty(len(coins), dtype=np.int64)
    out = memoryview(picks)
    c, pc, oldest = 0, probs[0], 0
    for k, coin in enumerate(memoryview(coins)):
        out[k] = c
        if coin < pc and k:
            if k - last[c] > oldest:
                oldest = k - last[c]
            last[c] = k
            c += 1
            if c == n:
                c = 0
            pc = probs[c]
    oldest = max(oldest, len(coins) - 1 - last[c])
    try:
        pw = _extend_powers(np.empty(0), oldest, w)
    except OverflowError:
        pw = None
    if pw is None or not (np.diff(pw) > 0).all():
        return _max_weight_picks(None, p, coins, w)
    return picks


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
