"""Shared generators for randomized trace tests, and helpers for tests
that start a Python child process."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from aoikit.trace import AgeTrace, seconds_to_ns


US = 1_000  # ns per microsecond


def random_inorder_trace(
    rng: np.random.Generator,
    n: int,
    base_offset_s: float = 100.0,
    mean_gap_s: float = 0.005,
    mean_delay_s: float = 0.003,
) -> AgeTrace:
    """Complete in-order trace: strictly increasing generations and
    receptions, every packet delivered, reception never before
    generation. Stamps are multiples of 1 us so the midpoint grid
    oracle integrates the sawtooth exactly."""
    gaps = rng.exponential(mean_gap_s, n) + 2e-6
    gen = ((base_offset_s + np.cumsum(gaps)) * 1e9).astype(np.int64)
    gen = (gen // US) * US
    delays = rng.exponential(mean_delay_s, n) + 2e-6
    raw = gen + ((delays * 1e9).astype(np.int64) // US) * US
    recv = np.maximum.accumulate(raw) + np.arange(n, dtype=np.int64) * US
    return AgeTrace.from_arrays(np.arange(n), gen, recv)


def random_reordered_trace(
    rng: np.random.Generator,
    n: int,
    base_offset_s: float = 100.0,
    mean_gap_s: float = 0.005,
    mean_delay_s: float = 0.02,
    loss_p: float = 0.0,
) -> AgeTrace:
    """Trace with heavy delay jitter so packets arrive out of
    generation order, optionally with losses."""
    gaps = rng.exponential(mean_gap_s, n) + 1e-6
    gen = ((base_offset_s + np.cumsum(gaps)) * 1e9).astype(np.int64)
    delays = rng.exponential(mean_delay_s, n) + 1e-6
    recv = gen + (delays * 1e9).astype(np.int64)
    recv_list = [None if rng.random() < loss_p else int(r) for r in recv]
    return AgeTrace.from_arrays(np.arange(n), gen, recv_list)


def periodic_trace(n: int, period_s: float = 1.0, delay_s: float = 0.5) -> AgeTrace:
    """Deterministic periodic trace: generation every period, constant
    delivery delay."""
    gen = (np.arange(1, n + 1, dtype=np.int64)) * int(round(period_s * 1e9))
    recv = gen + int(round(delay_s * 1e9))
    return AgeTrace.from_arrays(np.arange(n), gen, recv)


def trace_from_seconds(gen_s, recv_s, start_id: int = 0) -> AgeTrace:
    """Float-second stamp lists (None for a lost packet) to an
    integer-nanosecond trace."""
    ids = list(range(start_id, start_id + len(gen_s)))
    gen = [seconds_to_ns(g) for g in gen_s]
    recv = [None if r is None else seconds_to_ns(r) for r in recv_s]
    return AgeTrace.from_arrays(ids, gen, recv)


def reference_median_age(trace: AgeTrace, grid_s: float) -> float:
    """The closed-loop median age as first written, with every
    grid-sized array at once and `np.median` on float seconds: the
    reference `emulate._median_age` must equal exactly."""
    gen, recv = trace.delivered()
    if len(gen) < 2:
        return float("nan")
    t0, t1 = int(recv[0]), int(recv[-1])
    step = max(1, seconds_to_ns(grid_s))
    ts = np.arange(t0, t1 + 1, step, dtype=np.int64)
    idx = np.searchsorted(recv, ts, side="right") - 1
    ages = (ts - gen[idx]).astype(float) / 1e9
    return float(np.median(ages))


def sha256_of(*parts) -> str:
    """Digest of arrays (raw int64 bytes) and strings, in order: the
    fingerprint golden tests pin a run's outputs with."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def reference_simulate_scheduler(cfg, frames: int, seed: int = 0, keep_traces: bool = True):
    """The polling loop as first written, scoring every source in every
    frame in Python: the reference `simulate_scheduler` must equal
    exactly, in polls, successes, ages and traces."""
    from aoikit.errors import ConfigError
    from aoikit.scheduler import SchedulerRun

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


def child_env() -> dict:
    """Environment for a `python -m aoikit.cli` child that imports the
    same aoikit as this test run, installed or not."""
    import aoikit

    src = str(Path(aoikit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_child(*args: str) -> subprocess.CompletedProcess:
    """Run `python *args` under child_env(); it must exit 0."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc


def imported_by(*args: str) -> set[str]:
    """The modules a fresh `python *args` imports, read from its
    `-X importtime` report on stderr."""
    report = run_child("-X", "importtime", *args).stderr
    return {line.rsplit("|", 1)[1].strip() for line in report.splitlines()
            if line.startswith("import time:")}
