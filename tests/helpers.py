"""Shared generators for randomized trace tests, and helpers for tests
that start a Python child process."""

from __future__ import annotations

import hashlib
import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from aoikit.cli import _number
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


def closed_loop_trace(n: int) -> AgeTrace:
    """A trace shaped like a closed-loop run's: ids 0..n-1 of size 0,
    stamps of a few hundred seconds, every packet delivered in order
    but the last three, still in flight when the run ended."""
    gen = np.arange(n, dtype=np.int64) * 6_000_000 + 1_000
    recv = gen + 5_000_000 + np.arange(n, dtype=np.int64) % 7 * 1_000
    recv[-3:] = -1  # trace._LOST
    return AgeTrace.from_arrays(np.arange(n), gen, recv,
                                t_start_ns=0, t_end_ns=int(gen[-1]) + 10**9)


def statistics_trace(rng: np.random.Generator, n: int, kind: str) -> AgeTrace:
    """A trace of `n` packets of one `kind`: "in-order", "reordered",
    "lossy", "in-flight tail" (in order, the last three lost) or "wide"
    (stamps near 2**62 ns and spans above 2**53 ns, where a float
    subtraction of stamps would round differently from an int64 one)."""
    if kind == "in-order":
        return random_inorder_trace(rng, n)
    if kind == "reordered":
        return random_reordered_trace(rng, n)
    if kind == "lossy":
        return random_reordered_trace(rng, n, loss_p=0.3)
    if kind == "in-flight tail":
        trace = random_inorder_trace(rng, n + 3)
        recv = trace.recv_ns.copy()
        recv[-3:] = -1  # trace._LOST
        return AgeTrace.from_arrays(trace.ids, trace.gen_ns, recv)
    assert kind == "wide" and n <= 500
    gen = np.cumsum(rng.integers(2**53, 2**62 // n, n, dtype=np.int64))
    recv = gen + rng.integers(0, 2**58, n, dtype=np.int64)
    return AgeTrace.from_arrays(np.arange(n), gen, recv)


def reference_delivered(trace: AgeTrace) -> tuple[np.ndarray, np.ndarray]:
    """`AgeTrace.delivered` as first written: mask, stable sort,
    running maximum, each a copy."""
    mask = trace.recv_ns != -1  # trace._LOST
    gen, recv = trace.gen_ns[mask], trace.recv_ns[mask]
    order = np.argsort(recv, kind="stable")
    gen, recv = gen[order], recv[order]
    if not len(gen):
        return gen, recv
    prev = np.concatenate([[np.iinfo(np.int64).min], np.maximum.accumulate(gen)[:-1]])
    keep = gen > prev
    return gen[keep], recv[keep]


def _reference_span_s(end: np.ndarray, start: np.ndarray) -> np.ndarray:
    span = (end - start).astype(float)  # the int64 difference, then float
    span /= 1e9
    return span


def reference_summary(trace: AgeTrace, spec=None) -> dict[str, float]:
    """`metrics.summary` as first written, every statistic from whole
    difference and product arrays: the reference `summary` must equal
    exactly, value for value. Raises InsufficientDataError or
    RangeError where `summary` must."""
    from aoikit.errors import InsufficientDataError, RangeError

    gen, recv = reference_delivered(trace)
    if len(gen) < 2:
        raise InsufficientDataError("need >= 2 deliveries")
    window = float(int(recv[-1]) - int(recv[0]))
    if window <= 0:
        raise InsufficientDataError("observation window has zero length")
    window /= 1e9
    gap = _reference_span_s(recv[1:], recv[:-1])
    beta = _reference_span_s(recv[:-1], gen[:-1])
    x = _reference_span_s(gen[1:], gen[:-1])
    theta = _reference_span_s(recv[1:], gen[:-1])
    y = _reference_span_s(recv, gen)
    trapezoids = (theta + y[1:]) * x
    out = {
        "avg_age_recv_form_s":
            float(np.sum(gap * beta) + np.sum(gap * gap) / 2.0) / window,
        "avg_age_gen_form_s": (float(np.sum(trapezoids) / 2.0)
                               + (float(y[-1]) ** 2 - float(y[0]) ** 2) / 2.0) / window,
        "peak_age_s": float(np.mean(theta)),
        "mean_delay_s": float(np.mean((recv - gen).astype(float))) / 1e9,
        "loss_count": float(np.count_nonzero(trace.recv_ns == -1)),
        "obsolete_count": float(np.count_nonzero(trace.recv_ns != -1) - len(gen)),
    }
    if spec is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(spec.F(theta) - spec.F(beta)))
        if not math.isfinite(total):
            raise RangeError("penalty is not finite")
        out["penalty_avg"] = total / window
    return out


def parse_seconds(text: str) -> float:
    """'12.5ms' -> 0.0125 through the CLI's one number parser; bare
    numbers are seconds."""
    return _number(text, "duration", "s")


def echo_ratio(res) -> float:
    """Share of a live sampler run's packets that were echoed."""
    return res.received / res.sent if res.sent else 0.0


def total_avg_age(run) -> float:
    """Sum over the sources of a scheduler run's average ages."""
    return float(sum(run.avg_age_per_source))


def polling_age_lower_bound(cfg, frames: float = math.inf) -> float:
    """A lower bound, in seconds, on the expected source-averaged age of
    any polling policy over `frames` frames, after Kadota et al.
    (IEEE/ACM ToN 2018); the long run's by default.

    A run sums each source's ages as r(r + 1)/2 over the r between
    consecutive deliveries (frame 0 and the last frame count as ends),
    plus 0.5 a frame. The d deliveries give d + 1 runs summing to
    F - 1, so by Cauchy-Schwarz the source's average age in frames is at
    least (F - 1)^2 / (2F(d + 1)) + 1 - 1/(2F). A poll succeeds with
    probability p whatever led to it, so E[d] = p E[polls], and the
    polls sum to F. Jensen's inequality and Cauchy-Schwarz once more
    then give, with S = sum 1/sqrt(p_i) and T = sum 1/p_i,
    (F - 1)^2 S^2 / (2NF(F + T)) + 1 - 1/(2F), which tends to
    S^2 / (2N) + 1. The start-up terms are what a run of finite length,
    which starts every source at age zero, reads below the long run.
    """
    n, p = cfg.n_sources, cfg.success_prob
    s2 = sum(q ** -0.5 for q in p) ** 2
    if frames == math.inf:
        return cfg.frame_s * (s2 / (2 * n) + 1)
    t = sum(1 / q for q in p)
    return cfg.frame_s * ((frames - 1) ** 2 * s2 / (2 * n * frames * (frames + t))
                          + 1 - 1 / (2 * frames))


def sha256_of(*parts) -> str:
    """Digest of arrays (raw int64 bytes) and strings, in order: the
    fingerprint golden tests pin a run's outputs with."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def lowest_scaling_ratio(run, n: int) -> float:
    """The lowest of five 4n/n ratios of the time `run(n)` takes, each
    of the fastest of three interleaved calls at n and at 4n, so that a
    busy machine does not read as a super-linear run."""

    def timed(size: int) -> float:
        start = time.perf_counter()
        run(size)
        return time.perf_counter() - start

    ratios = []
    for _ in range(5):
        small, large = [], []
        for _ in range(3):
            small.append(timed(n))
            large.append(timed(4 * n))
        ratios.append(min(large) / min(small))
    return min(ratios)


def reference_simulate_scheduler(cfg, frames: int, seed: int = 0):
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

    frames_of = [np.asarray(ks, dtype=np.int64) for ks in deliveries]
    frame_ns = seconds_to_ns(frame)
    run = SchedulerRun(cfg, frames, seed, avg, polls, successes, frames_of)
    # built here, not by the run on first read
    run.traces = [
        AgeTrace.from_arrays(
            np.arange(len(ks)),
            ks * frame_ns,
            (ks + 1) * frame_ns,
            t_start_ns=0,
            t_end_ns=frames * frame_ns,
        )
        for ks in frames_of
    ]
    return run


def decision_text(log) -> str:
    """A decision log's CSV text: the blocks `write_decision_csv`
    writes, joined."""
    from aoikit.emulate import write_decision_csv

    f = io.StringIO()
    write_decision_csv(f, log)
    return f.getvalue()


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


# Linux starts a child's ru_maxrss at its parent's resident size when it
# forked, so a child started from the test run would count the test
# run's memory, heap that earlier tests freed but the allocator kept
# included. This launcher, a small process, starts the child and prints
# its exit code and peak, under a CPU-time limit it passes on.
_PEAK_LAUNCHER = """\
import os, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_CPU, (int(sys.argv[1]),) * 2)
proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def own_peak_rss_mb(*args: str, cpu_s: int = 120) -> float:
    """Run `python *args` under child_env(), at most `cpu_s` seconds of
    CPU time; it must exit 0. Its own peak resident memory in MB."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_LAUNCHER, str(cpu_s),
                           sys.executable, *args],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(peak_kb) / 1024  # kilobytes on Linux


def imported_by(*args: str) -> set[str]:
    """The modules a fresh `python *args` imports, read from its
    `-X importtime` report on stderr."""
    report = run_child("-X", "importtime", *args).stderr
    return {line.rsplit("|", 1)[1].strip() for line in report.splitlines()
            if line.startswith("import time:")}
