"""Seedable discrete-event simulation of status-update flows through
queues and bottleneck links, producing age traces.

Determinism: all randomness comes from numpy PCG64 generators derived
from the run seed (one independent stream each for arrivals, service,
and loss coins), and simultaneous events are ordered by insertion
sequence, so identical (config, seed) pairs give bit-identical traces
on a given platform.

`simulate` runs each config on one of three paths:

- the Lindley recurrence (`SimConfig.lindley`: loss-free FCFS with
  poisson or deterministic arrivals and an infinite buffer). Its sums
  run in another order than the event loop's, so it rounds some
  deliveries 1 ns apart from the loop: which path a config takes is
  part of its trace;
- busy periods in numpy (`busy_periods`): the other configs with
  poisson or deterministic arrivals and an infinite buffer, that is
  FCFS with loss or retransmission and lcfs1 at load up to 1. It sums
  in the event loop's order and equals the loop bit for bit, and it
  hands the run to the loop on an lcfs1 discard, an arrival at exactly
  a completion time, or a busy-period start its guess misplaces;
- the event loop (`_simulate_events`): at-will and zero-wait arrivals,
  a finite `capacity`, lcfs1 above load 1, and the runs the
  busy-period path hands over.

Every path returns through `_run`, which alone adds the delivery
offset, converts the stamps and writes the `.meta` keys.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ConfigError, InsufficientDataError
from .records import FrozenRecord, Record
from .trace import AgeTrace

ARRIVAL_KINDS = ("poisson", "deterministic", "at-will", "zero-wait")
SERVICE_KINDS = ("exponential", "deterministic")
DISCIPLINES = ("fcfs", "lcfs1")
# generated packets per run: far beyond any run that finishes in
# reasonable time. A run keeps two float columns of this length, and a
# million-arrival event-loop `sim` peaks near 81 MB
MAX_ARRIVALS = 10**9


def _rate_ok(rate: float) -> bool:
    """A rate is usable when it is positive and finite and its mean
    time 1/rate is finite too."""
    return 0.0 < rate < math.inf and 1.0 / rate < math.inf


class ArrivalSpec(FrozenRecord):
    """Update generation process.

    poisson / deterministic generate at `rate` per second. at-will
    asks `hook(packet_index, completion_time_s)` for the waiting time
    before the next generation each time the channel goes idle;
    zero-wait is at-will with zero waiting. A negative wait counts as
    zero; a wait of nan or +inf raises `ConfigError` during the run.
    """

    _fields = ("kind", "rate", "hook")

    def __init__(self, kind: str, rate: float = 0.0,
                 hook: Optional[Callable[[int, float], float]] = None):
        if kind not in ARRIVAL_KINDS:
            raise ConfigError(f"unknown arrival kind {kind!r}")
        if kind in ("poisson", "deterministic") and not _rate_ok(rate):
            raise ConfigError("arrival rate must be positive and finite, "
                              "with a finite mean interval 1/rate")
        if kind == "at-will" and hook is None:
            raise ConfigError("at-will arrivals need a policy hook")
        vars(self).update(kind=kind, rate=rate, hook=hook)


class ServiceSpec(FrozenRecord):
    """Service process: `mu` is the service rate, and 1/mu the mean
    service time."""

    _fields = ("kind", "mu")

    def __init__(self, kind: str, mu: float):
        if kind not in SERVICE_KINDS:
            raise ConfigError(f"unknown service kind {kind!r}")
        if not _rate_ok(mu):
            raise ConfigError("service rate must be positive and finite, "
                              "with a finite mean service time 1/mu")
        vars(self).update(kind=kind, mu=mu)


class SimConfig(FrozenRecord):
    """One simulated queue run. `capacity` counts waiting slots (None =
    infinite), `loss_p` is the i.i.d. transmission-loss probability,
    with `retransmit` lost packets re-enter service (TCP-like),
    `delivery_offset_s` is the propagation added to every delivery and
    `horizon` the number of generated packets."""

    _fields = ("arrival", "service", "discipline", "capacity", "loss_p", "retransmit",
               "delivery_offset_s", "horizon", "seed")

    def __init__(self, arrival: ArrivalSpec, service: ServiceSpec, discipline: str = "fcfs",
                 capacity: Optional[int] = None, loss_p: float = 0.0,
                 retransmit: bool = False, delivery_offset_s: float = 0.0,
                 horizon: int = 1000, seed: int = 0):
        if discipline not in DISCIPLINES:
            raise ConfigError(f"unknown discipline {discipline!r}")
        if capacity is not None and capacity < 0:
            raise ConfigError("capacity must be >= 0")
        if not (0.0 <= loss_p < 1.0):
            raise ConfigError("loss probability must be in [0, 1)")
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if horizon > MAX_ARRIVALS:
            raise ConfigError(f"{horizon} arrivals are more than the bound "
                              f"of {MAX_ARRIVALS} per run")
        vars(self).update(arrival=arrival, service=service, discipline=discipline,
                          capacity=capacity, loss_p=loss_p, retransmit=retransmit,
                          delivery_offset_s=delivery_offset_s, horizon=horizon, seed=seed)

    @property
    def load(self) -> Optional[float]:
        if self.arrival.kind in ("poisson", "deterministic"):
            return self.arrival.rate / self.service.mu
        return None

    @property
    def lindley(self) -> bool:
        """Whether the single-server waiting-time recurrence solves this
        queue: loss-free, infinite-buffer FCFS with exogenous arrivals."""
        return (self.arrival.kind in ("poisson", "deterministic")
                and self.discipline == "fcfs" and self.capacity is None
                and self.loss_p == 0.0 and not self.retransmit)


class SimRun(Record):
    """Simulation output: the age trace plus bookkeeping counters."""

    _fields = ("trace", "meta")

    def __init__(self, trace: AgeTrace, meta: dict):
        self.trace = trace
        self.meta = meta

    def meta_lines(self) -> str:
        """Line-oriented key=value sidecar text."""
        return "".join(f"{k}={v}\n" for k, v in self.meta.items())


def analytic_mm1_age(rho: float, mu: float) -> float:
    """Steady-state average age of the memoryless single-server FCFS
    queue, used as the simulator's oracle."""
    if not (0.0 < rho < 1.0):
        raise ConfigError("load must be in (0, 1)")
    if not (mu > 0):
        raise ConfigError("service rate must be positive")
    return (1.0 / mu) * (1.0 + 1.0 / rho + rho * rho / (1.0 - rho))


def _rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    ss = np.random.SeedSequence(seed)
    a, s, l = ss.spawn(3)
    return (
        np.random.Generator(np.random.PCG64(a)),
        np.random.Generator(np.random.PCG64(s)),
        np.random.Generator(np.random.PCG64(l)),
    )


def _draw_services(spec: ServiceSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "exponential":
        return rng.exponential(1.0 / spec.mu, n)
    return np.full(n, 1.0 / spec.mu)


def simulate(cfg: SimConfig) -> SimRun:
    """Run one flow through the configured queue and return the trace.

    An unstable configuration (offered load >= 1 with an infinite
    buffer) is permitted; the run metadata carries `unstable=1`.
    """
    if cfg.lindley:
        return _simulate_fcfs_lindley(cfg)
    return _simulate_busy_periods(cfg) or _simulate_events(cfg)


def _arrival_times(spec: ArrivalSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Generation times of `n` poisson or deterministic arrivals: the
    cumulative sum of their interarrival times."""
    if spec.kind == "poisson":
        gaps = rng.exponential(1.0 / spec.rate, n)
    else:
        gaps = np.full(n, 1.0 / spec.rate)
    return np.cumsum(gaps, out=gaps)


def _run(cfg: SimConfig, gen, recv, arrivals: int, delivered: int,
         lost_channel: int = 0, lost_overflow: int = 0, discarded: int = 0,
         retransmissions: int = 0, max_waiting: int = 0) -> SimRun:
    """The run of `cfg` from its generation and completion columns in
    float seconds (nan where a packet was not delivered) and its
    counters. Adds `cfg.delivery_offset_s` to `recv` in place and writes
    the `.meta` keys in their fixed order: the counters, then the config."""
    if cfg.delivery_offset_s:
        np.add(recv, cfg.delivery_offset_s, out=np.asarray(recv))
    loss = lost_channel + lost_overflow + discarded
    load = cfg.load
    meta = dict(
        arrivals=arrivals, delivered=delivered, lost_channel=lost_channel,
        lost_overflow=lost_overflow, discarded=discarded,
        retransmissions=retransmissions, still_queued=arrivals - delivered - loss,
        loss=loss, max_waiting=max_waiting,
        seed=cfg.seed, discipline=cfg.discipline, arrival=cfg.arrival.kind,
        arrival_rate=cfg.arrival.rate, service=cfg.service.kind,
        service_rate=cfg.service.mu,
        capacity="inf" if cfg.capacity is None else cfg.capacity,
        loss_p=cfg.loss_p, retransmit=int(cfg.retransmit), horizon=cfg.horizon,
        load="" if load is None else f"{load:.6g}",
        unstable=int(load is not None and load >= 1.0 and cfg.capacity is None),
    )
    return SimRun(AgeTrace.from_seconds(gen, recv), meta)


def _simulate_fcfs_lindley(cfg: SimConfig) -> SimRun:
    """Vectorized fast path for the loss-free infinite-buffer FCFS
    queue: departures follow the single-server waiting-time recurrence
    dep[i] = max(arr[i], dep[i-1]) + service[i]."""
    arrival_rng, service_rng, _ = _rngs(cfg.seed)
    n = cfg.horizon
    arr = _arrival_times(cfg.arrival, n, arrival_rng)
    svc = _draw_services(cfg.service, n, service_rng)
    csum = np.cumsum(svc)
    dep = csum + np.maximum.accumulate(arr - (csum - svc))
    # packets ahead of each arrival still at the server; the other paths
    # count the line an arrival joins, itself included, so the `- 1`
    # reads one short, and it stays until its fix updates every pinned
    # Lindley `.meta` digest
    in_system = np.arange(n) - np.searchsorted(dep, arr, side="right")
    return _run(cfg, arr, dep, n, n, max_waiting=max(0, int(in_system.max()) - 1))


def _simulate_busy_periods(cfg: SimConfig) -> Optional[SimRun]:
    """`busy_periods.simulate_busy_periods` for a config with poisson or
    deterministic arrivals and an infinite buffer, unless it is lcfs1
    above capacity; None, for the event loop to run, for any other
    config or a run that path hands back."""
    if cfg.arrival.kind not in ("poisson", "deterministic") or cfg.capacity is not None:
        return None
    # lcfs1 above capacity discards in all but the shortest runs, and
    # the path would hand it back only after computing it
    if cfg.discipline == "lcfs1" and cfg.load > 1.0:
        return None
    # imported here, so that no other run or command compiles it
    from .busy_periods import simulate_busy_periods

    return simulate_busy_periods(cfg)


_DRAW_BLOCK = 4096


def _draws(draw: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The values of `draw(size)` one at a time, drawn `_DRAW_BLOCK` at
    a time. PCG64 bulk draws equal successive scalar draws, so a stream
    that makes only this one kind of draw keeps its sequence."""
    return itertools.chain.from_iterable(
        map(np.ndarray.tolist, map(draw, itertools.repeat(_DRAW_BLOCK))))


def _simulate_events(cfg: SimConfig) -> SimRun:
    """General event loop covering bounded buffers, transmission loss,
    retransmission, the single-slot freshest-only queue, and
    generate-at-will sources.

    A single server has at most two pending events, kept as two floats:
    the next arrival time and the current departure time (inf when none
    is pending). On equal times the event scheduled earlier fires
    first; `dep_first` records whether the pending departure was
    scheduled before the pending arrival, which is all that rule needs.
    Exponential services and loss coins are drawn `_DRAW_BLOCK` at a
    time from their own streams through `_draws`, so every trace equals
    the one drawn a value per event.

    Every run generates exactly `horizon` packets, so it keeps two typed
    columns of that length from the start. With poisson or deterministic
    arrivals the generation column is the cumulative sum of the
    interarrival draws, which the loop reads `_DRAW_BLOCK` values at a
    time; an at-will source's `array('d')` column takes each generation
    time as the source schedules it. Completions go to an `array('d')`,
    nan until delivered, which `_run` offsets and converts in place."""
    from array import array  # loaded on first use

    arrival_rng, service_rng, loss_rng = _rngs(cfg.seed)
    n = cfg.horizon
    inf = math.inf
    exogenous = cfg.arrival.kind in ("poisson", "deterministic")
    if exogenous:
        gen = _arrival_times(cfg.arrival, n, arrival_rng)
        times = itertools.chain.from_iterable(
            gen[lo:lo + _DRAW_BLOCK].tolist() for lo in range(0, n, _DRAW_BLOCK))
    else:
        # the first update at 0, each later one when the channel goes idle
        gen = array("d", [0.0]) * n
        times = [0.0]
    next_arrival = itertools.chain(times, itertools.repeat(inf)).__next__
    recv = array("d", [math.nan]) * n  # nan until delivered
    hook = cfg.arrival.hook if cfg.arrival.kind == "at-will" else None
    scale = 1.0 / cfg.service.mu
    if cfg.service.kind == "exponential":
        service = _draws(lambda k: service_rng.exponential(scale, k)).__next__
    else:
        service = itertools.repeat(scale).__next__
    coin = _draws(loss_rng.random).__next__
    lcfs1 = cfg.discipline == "lcfs1"
    capacity = inf if cfg.capacity is None else cfg.capacity
    loss_p, retransmit = cfg.loss_p, cfg.retransmit

    queue: deque[int] = deque()  # FCFS waiting line, or [freshest] for lcfs1
    q_append, q_popleft = queue.append, queue.popleft
    in_service: Optional[int] = None
    t_arr = next_arrival()
    t_dep = inf
    dep_first = False
    arrived = 0
    generated = 1  # at-will generations scheduled, the first at 0
    delivered = lost_channel = lost_overflow = discarded = 0
    retransmissions = max_waiting = 0

    while True:
        if t_dep < t_arr or (dep_first and t_dep == t_arr):
            now = t_dep
            dep_first = False
            if loss_p and coin() < loss_p:
                if retransmit:
                    retransmissions += 1
                    t_dep = now + service()
                    continue
                lost_channel += 1
            else:
                recv[in_service] = now
                delivered += 1
            if not exogenous and generated < n:
                # the channel is idle again; let the source decide when
                # to generate the next update
                wait = 0.0 if hook is None else float(hook(in_service, now))
                if not wait < inf:
                    raise ConfigError(f"at-will hook returned a wait of {wait!r} "
                                      f"after packet {in_service}")
                t_arr = now + max(0.0, wait)
                gen[generated] = t_arr
                generated += 1
            if queue:
                in_service = q_popleft()
                t_dep = now + service()
            else:
                in_service = None
                t_dep = inf
            continue
        if t_arr == inf:
            break
        now = t_arr
        t_arr = next_arrival()
        idx = arrived
        arrived += 1
        if in_service is None:
            in_service = idx
            t_dep = now + service()
            continue
        dep_first = True
        if lcfs1:
            if queue:
                discarded += 1
                queue.clear()
            q_append(idx)
        elif len(queue) < capacity:
            q_append(idx)
        else:
            lost_overflow += 1
        if len(queue) > max_waiting:
            max_waiting = len(queue)

    return _run(cfg, gen, recv, arrived, delivered, lost_channel, lost_overflow,
                discarded, retransmissions, max_waiting)


# ------------------------------------------------------------------ sweeps


class SweepRow(FrozenRecord):
    _fields = ("rate_hz", "avg_age_s", "peak_age_s", "loss", "avg_delay_s")

    def __init__(self, rate_hz: float, avg_age_s: float, peak_age_s: float, loss: int,
                 avg_delay_s: float):
        vars(self).update(rate_hz=rate_hz, avg_age_s=avg_age_s, peak_age_s=peak_age_s,
                          loss=loss, avg_delay_s=avg_delay_s)


SWEEP_HEADER = "rate_hz,avg_age_s,peak_age_s,loss,avg_delay_s"


def _sweep(rates, seed: int, point: Callable[[float, int], SimConfig]) -> list[SweepRow]:
    """One independent run per rate, each starting from an empty queue:
    `point(rate, child_seed)` builds the run's config, with the child
    seed derived from (seed, point index). A point with fewer than two
    deliveries raises InsufficientDataError naming its index and rate."""
    from .metrics import average_age_by_reception, mean_delay, peak_age

    rates = list(rates)
    if not rates:
        raise ConfigError("sweep needs at least one rate")
    rows = []
    for k, rate in enumerate(rates):
        child = int(np.random.SeedSequence((seed, k)).generate_state(1)[0])
        run = simulate(point(rate, child))
        try:
            avg_age_s = average_age_by_reception(run.trace)
        except InsufficientDataError as exc:
            raise InsufficientDataError(
                f"sweep point {k} at {rate:.10g} Hz: {exc}") from None
        rows.append(
            SweepRow(
                rate_hz=rate,
                avg_age_s=avg_age_s,
                peak_age_s=peak_age(run.trace),
                loss=int(run.meta["loss"]),
                avg_delay_s=mean_delay(run.trace),
            )
        )
    return rows


def sweep_rate(cfg: SimConfig, rates) -> list[SweepRow]:
    """Sweep the arrival rate of `cfg`; every other field is kept."""
    return _sweep(rates, cfg.seed, lambda rate, child: cfg.replace(
        arrival=cfg.arrival.replace(rate=rate), seed=child))


def sweep_csv(rows: list[SweepRow]) -> str:
    out = [SWEEP_HEADER]
    for r in rows:
        out.append(
            f"{r.rate_hz:.10g},{r.avg_age_s:.10g},{r.peak_age_s:.10g},"
            f"{r.loss},{r.avg_delay_s:.10g}"
        )
    return "\n".join(out) + "\n"


# ------------------------------------------------------- bottleneck channel

# default loss probabilities of the busy and panicked load regimes
BUSY_LOSS_P = 0.02
PANICKED_LOSS_P = 0.15


def check_regime_loss_p(busy_loss_p: float, panicked_loss_p: float) -> None:
    """Refuse a busy or panicked loss probability outside [0, 1)."""
    for regime, p in (("busy", busy_loss_p), ("panicked", panicked_loss_p)):
        if not (0.0 <= p < 1.0):
            raise ConfigError(f"{regime} loss probability must be in [0, 1)")


def regime_loss_p(load: float, loss_onset_load: float,
                  busy_loss_p: float, panicked_loss_p: float) -> float:
    """Loss probability of a bottleneck at an offered load (arrival
    rate over capacity): none below the loss onset (relaxed),
    busy_loss_p below load 1 (busy) and panicked_loss_p at load 1 or
    above (panicked). Loss steps up before queueing delay does, which
    starts at load 1."""
    if load < loss_onset_load:
        return 0.0
    return busy_loss_p if load < 1.0 else panicked_loss_p


class ChannelModel(FrozenRecord):
    """Load-regime model of a bottleneck path (see `regime_loss_p`):
    loss steps up to busy_loss_p at loss_onset_load and to
    panicked_loss_p at load 1, where queueing delay starts to grow.
    The ordering loss-before-delay is contractual; the particular
    loss values are free parameters."""

    _fields = ("base_rtt_s", "bandwidth_bps", "packet_bytes", "loss_onset_load",
               "busy_loss_p", "panicked_loss_p")

    def __init__(self, base_rtt_s: float = 0.0, bandwidth_bps: float = 130_000.0,
                 packet_bytes: int = 1058, loss_onset_load: float = 0.6,
                 busy_loss_p: float = BUSY_LOSS_P, panicked_loss_p: float = PANICKED_LOSS_P):
        if not (0.0 < loss_onset_load <= 1.0):
            raise ConfigError("loss onset load must be in (0, 1]")
        if bandwidth_bps <= 0 or packet_bytes <= 0:
            raise ConfigError("bandwidth and packet size must be positive")
        check_regime_loss_p(busy_loss_p, panicked_loss_p)
        vars(self).update(base_rtt_s=base_rtt_s, bandwidth_bps=bandwidth_bps,
                          packet_bytes=packet_bytes, loss_onset_load=loss_onset_load,
                          busy_loss_p=busy_loss_p, panicked_loss_p=panicked_loss_p)

    @property
    def capacity_hz(self) -> float:
        """Packet rate that saturates the bottleneck."""
        return self.bandwidth_bps / (8.0 * self.packet_bytes)

    def loss_for_rate(self, rate_hz: float) -> float:
        return regime_loss_p(rate_hz / self.capacity_hz, self.loss_onset_load,
                             self.busy_loss_p, self.panicked_loss_p)

    def sim_config(
        self,
        rate_hz: float,
        horizon: int,
        seed: int,
        retransmit: bool = False,
        discipline: str = "fcfs",
    ) -> SimConfig:
        """Constant-rate sampling through the bottleneck. With
        retransmit=True lost packets are re-served in order, the
        rough stand-in for a reliable transport (approximate by
        design: no window or timer dynamics)."""
        return SimConfig(
            arrival=ArrivalSpec("deterministic", rate_hz),
            service=ServiceSpec("deterministic", self.capacity_hz),
            discipline=discipline,
            loss_p=self.loss_for_rate(rate_hz),
            retransmit=retransmit,
            delivery_offset_s=self.base_rtt_s / 2.0,
            horizon=horizon,
            seed=seed,
        )


def bottleneck_sweep(
    model: ChannelModel,
    rates,
    horizon: int = 20_000,
    seed: int = 0,
    retransmit: bool = False,
    discipline: str = "fcfs",
) -> list[SweepRow]:
    """Fresh bottleneck per rate point, as in a sweep that restarts
    with empty buffers each iteration."""
    return _sweep(rates, seed, lambda rate, child: model.sim_config(
        rate, horizon, child, retransmit, discipline))


def geometric_rates(lo_hz: float, hi_hz: float, points: int) -> list[float]:
    if not (0 < lo_hz < hi_hz) or points < 2:
        raise ConfigError("need 0 < lo < hi and at least two points")
    return [float(r) for r in np.geomspace(lo_hz, hi_hz, points)]
