"""Busy periods in numpy: the queue simulator's path for poisson or
deterministic arrivals into an infinite buffer, which never drops a
packet for room. It runs FCFS with loss and/or retransmission, and
lcfs1 at load up to 1 while no arrival finds a packet already waiting,
so that it serves as FCFS does.

Each completion is computed as the event loop computes it,
t_k = max(A_k, t_{k-1}) + S_k over service attempts, as an in-order
cumulative sum within each busy period, so every stamp is bit-identical
to the loop's. Services and loss coins come from the loop's streams in
its per-attempt order. `queuesim.simulate` imports this module only for
a config that can take this path, so other runs and commands do not
compile it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .queuesim import SimConfig, SimRun, _arrival_times, _draw_services, _rngs, _run

# busy periods of up to this many attempts are summed one rank per pass,
# longer ones by a cumulative sum each
_SHORT_PERIOD = 64


def _sum_periods(t: np.ndarray, release: np.ndarray, starts: np.ndarray) -> None:
    """Turn `t`, holding each attempt's service time, into completion
    times in place. A busy period runs from one True in `starts` to the
    next: its first attempt completes at its release plus its service,
    each later one at the completion before it plus its own service,
    added in that order, as the event loop adds them."""
    first = np.flatnonzero(starts)
    t[first] += release[first]
    length = np.diff(first, append=len(t))
    long = length > _SHORT_PERIOD
    for s, e in zip(first[long].tolist(), (first + length)[long].tolist()):
        np.cumsum(t[s:e], out=t[s:e])
    # one pass per rank over the periods longer than that rank
    short, length = first[~long], length[~long]
    for rank in range(1, _SHORT_PERIOD):
        keep = length > rank
        short, length = short[keep], length[keep]
        if not len(short):
            break
        idx = short + rank
        t[idx] += t[idx - 1]


def departures(release: np.ndarray, svc: np.ndarray) -> Optional[np.ndarray]:
    """Completion times of a single server's service attempts, in the
    event loop's floats: t_k = max(release_k, t_{k-1}) + svc_k, where a
    release of -inf marks an attempt that follows the one before it (a
    retransmission). Busy-period starts are guessed from the Lindley
    form, whose sums run in another order, then checked against the
    exact times. Returns None if the guess misplaces a start."""
    t = np.cumsum(svc)
    guess = np.subtract(t, svc)
    np.subtract(release, guess, out=guess)
    np.maximum.accumulate(guess, out=guess)
    guess += t
    starts = np.empty(len(svc), dtype=bool)
    starts[0] = True
    np.greater(release[1:], guess[:-1], out=starts[1:])
    del guess
    t[:] = svc
    _sum_periods(t, release, starts)
    # attempt k > 0 starts a busy period iff it is released after
    # attempt k - 1 completes
    if (starts[1:] != (release[1:] > t[:-1])).any():
        return None
    return t


def simulate_busy_periods(cfg: SimConfig) -> Optional[SimRun]:
    """The run of `cfg`, which has poisson or deterministic arrivals and
    an infinite buffer, as the event loop makes it, or None for the loop
    to run: on an lcfs1 discard, on an arrival at exactly a completion
    time (the loop's tie order then sets `max_waiting`), or when the
    Lindley guess misplaces a busy-period start."""
    arrival_rng, service_rng, loss_rng = _rngs(cfg.seed)
    n, loss_p = cfg.horizon, cfg.loss_p
    arr = _arrival_times(cfg.arrival, n, arrival_rng)
    # one loss coin per completed attempt, in attempt order
    ok = loss_rng.random(n) >= loss_p if loss_p else np.ones(n, dtype=bool)
    if cfg.retransmit:
        got = int(np.count_nonzero(ok))
        while got < n:
            more = loss_rng.random(int((n - got) / (1.0 - loss_p) * 1.1) + 64) >= loss_p
            ok = np.concatenate((ok, more))
            got += int(np.count_nonzero(more))
        last = np.flatnonzero(ok)[:n]  # each packet's delivered attempt
        first = np.concatenate(([0], last[:-1] + 1))
        release = np.full(int(last[-1]) + 1, -np.inf)
        release[first] = arr
    else:
        release = arr
    t = departures(release, _draw_services(cfg.service, len(release), service_rng))
    if t is None:
        return None
    # the attempt in service when each packet arrives: its own first
    # attempt if the server was idle
    at = np.searchsorted(t, arr)
    if np.any(t[at] == arr):
        return None
    if cfg.retransmit:
        at = np.searchsorted(first, at, side="right") - 1
    # the waiting line an arrival joins: itself and the packets between
    # it and the one in service
    at -= np.arange(n)
    max_waiting = max(0, -int(at.min()))
    del at
    if cfg.discipline == "lcfs1" and max_waiting > 1:
        return None
    if cfg.retransmit:
        return _run(cfg, arr, t[last], n, n, retransmissions=len(t) - n,
                    max_waiting=max_waiting)
    t[~ok] = np.nan
    delivered = int(np.count_nonzero(ok))
    return _run(cfg, arr, t, n, delivered, lost_channel=n - delivered,
                max_waiting=max_waiting)
