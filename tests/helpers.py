"""Shared generators for randomized trace tests."""

from __future__ import annotations

import hashlib

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


def sha256_of(*parts) -> str:
    """Digest of arrays (raw int64 bytes) and strings, in order: the
    fingerprint golden tests pin a run's outputs with."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()
