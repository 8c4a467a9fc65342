"""Seedable discrete-event simulation of status-update flows through
queues and bottleneck links, producing age traces.

Determinism: all randomness comes from numpy PCG64 generators derived
from the run seed (one independent stream each for arrivals, service,
and loss coins), and simultaneous events are ordered by insertion
sequence, so identical (config, seed) pairs give bit-identical traces
on a given platform.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ConfigError
from .trace import AgeTrace, seconds_to_ns

ARRIVAL_KINDS = ("poisson", "deterministic", "at-will", "zero-wait")
SERVICE_KINDS = ("exponential", "deterministic")
DISCIPLINES = ("fcfs", "lcfs1")


def _rate_ok(rate: float) -> bool:
    """A rate is usable when it is positive and finite and its mean
    time 1/rate is finite too."""
    return 0.0 < rate < math.inf and 1.0 / rate < math.inf


@dataclass(frozen=True)
class ArrivalSpec:
    """Update generation process.

    poisson / deterministic generate at `rate` per second. at-will
    asks `hook(packet_index, completion_time_s)` for the waiting time
    before the next generation each time the channel goes idle;
    zero-wait is at-will with zero waiting.
    """

    kind: str
    rate: float = 0.0
    hook: Optional[Callable[[int, float], float]] = None

    def __post_init__(self):
        if self.kind not in ARRIVAL_KINDS:
            raise ConfigError(f"unknown arrival kind {self.kind!r}")
        if self.kind in ("poisson", "deterministic") and not _rate_ok(self.rate):
            raise ConfigError("arrival rate must be positive and finite, "
                              "with a finite mean interval 1/rate")
        if self.kind == "at-will" and self.hook is None:
            raise ConfigError("at-will arrivals need a policy hook")


@dataclass(frozen=True)
class ServiceSpec:
    kind: str
    mu: float  # service rate; mean service time is 1/mu

    def __post_init__(self):
        if self.kind not in SERVICE_KINDS:
            raise ConfigError(f"unknown service kind {self.kind!r}")
        if not _rate_ok(self.mu):
            raise ConfigError("service rate must be positive and finite, "
                              "with a finite mean service time 1/mu")


@dataclass(frozen=True)
class SimConfig:
    arrival: ArrivalSpec
    service: ServiceSpec
    discipline: str = "fcfs"
    capacity: Optional[int] = None  # waiting slots; None = infinite
    loss_p: float = 0.0  # i.i.d. transmission-loss probability
    retransmit: bool = False  # lost packets re-enter service (TCP-like)
    delivery_offset_s: float = 0.0  # propagation added to every delivery
    horizon: int = 1000  # number of generated packets
    seed: int = 0

    def __post_init__(self):
        if self.discipline not in DISCIPLINES:
            raise ConfigError(f"unknown discipline {self.discipline!r}")
        if self.capacity is not None and self.capacity < 0:
            raise ConfigError("capacity must be >= 0")
        if not (0.0 <= self.loss_p < 1.0):
            raise ConfigError("loss probability must be in [0, 1)")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")

    @property
    def load(self) -> Optional[float]:
        if self.arrival.kind in ("poisson", "deterministic"):
            return self.arrival.rate / self.service.mu
        return None


@dataclass
class SimRun:
    """Simulation output: the age trace plus bookkeeping counters."""

    trace: AgeTrace
    meta: dict = field(default_factory=dict)

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


def _draw_interarrivals(spec: ArrivalSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "poisson":
        return rng.exponential(1.0 / spec.rate, n)
    return np.full(n, 1.0 / spec.rate)


def _draw_services(spec: ServiceSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "exponential":
        return rng.exponential(1.0 / spec.mu, n)
    return np.full(n, 1.0 / spec.mu)


def simulate(cfg: SimConfig) -> SimRun:
    """Run one flow through the configured queue and return the trace.

    An unstable configuration (offered load >= 1 with an infinite
    buffer) is permitted; the run metadata carries `unstable=1`.
    """
    exogenous = cfg.arrival.kind in ("poisson", "deterministic")
    if (
        exogenous
        and cfg.discipline == "fcfs"
        and cfg.capacity is None
        and cfg.loss_p == 0.0
        and not cfg.retransmit
    ):
        run = _simulate_fcfs_lindley(cfg)
    else:
        run = _simulate_events(cfg)
    load = cfg.load
    run.meta.update(
        seed=cfg.seed,
        discipline=cfg.discipline,
        arrival=cfg.arrival.kind,
        arrival_rate=cfg.arrival.rate,
        service=cfg.service.kind,
        service_rate=cfg.service.mu,
        capacity="inf" if cfg.capacity is None else cfg.capacity,
        loss_p=cfg.loss_p,
        retransmit=int(cfg.retransmit),
        horizon=cfg.horizon,
        load="" if load is None else f"{load:.6g}",
        unstable=int(load is not None and load >= 1.0 and cfg.capacity is None),
    )
    return run


def _simulate_fcfs_lindley(cfg: SimConfig) -> SimRun:
    """Vectorized fast path for the loss-free infinite-buffer FCFS
    queue: departures follow the single-server waiting-time recurrence
    dep[i] = max(arr[i], dep[i-1]) + service[i]."""
    arrival_rng, service_rng, _ = _rngs(cfg.seed)
    n = cfg.horizon
    arr = np.cumsum(_draw_interarrivals(cfg.arrival, n, arrival_rng))
    svc = _draw_services(cfg.service, n, service_rng)
    csum = np.cumsum(svc)
    dep = csum + np.maximum.accumulate(arr - (csum - svc))
    # queue occupancy is measured at the server, before any added
    # propagation delay
    completed_on_arrival = np.searchsorted(dep, arr, side="right")
    in_system = np.arange(n) - completed_on_arrival
    if cfg.delivery_offset_s:
        dep = dep + cfg.delivery_offset_s
    trace = AgeTrace.from_arrays(
        np.arange(n, dtype=np.int64), seconds_to_ns(arr), seconds_to_ns(dep),
        t_start_ns=0,
    )
    meta = {
        "arrivals": n,
        "delivered": n,
        "lost_channel": 0,
        "lost_overflow": 0,
        "discarded": 0,
        "retransmissions": 0,
        "still_queued": 0,
        "loss": 0,
        "max_waiting": int(max(0, int(in_system.max()) - 1)) if n else 0,
    }
    return SimRun(trace, meta)


_DRAW_BLOCK = 4096


def _draws(draw: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The values of `draw(size)` one at a time, drawn `_DRAW_BLOCK` at
    a time. PCG64 bulk draws equal successive scalar draws, so a stream
    that makes only this one kind of draw keeps its sequence."""
    while True:
        yield from draw(_DRAW_BLOCK).tolist()


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
    the one drawn a value per event."""
    arrival_rng, service_rng, loss_rng = _rngs(cfg.seed)
    n = cfg.horizon
    inf = math.inf
    exogenous = cfg.arrival.kind in ("poisson", "deterministic")
    if exogenous:
        times = np.cumsum(_draw_interarrivals(cfg.arrival, n, arrival_rng)).tolist()
    else:
        # the first update at 0, each later one when the channel goes idle
        times = [0.0]
    next_arrival = itertools.chain(times, itertools.repeat(inf)).__next__
    hook = cfg.arrival.hook if cfg.arrival.kind == "at-will" else None
    scale = 1.0 / cfg.service.mu
    if cfg.service.kind == "exponential":
        service = _draws(lambda k: service_rng.exponential(scale, k)).__next__
    else:
        service = itertools.repeat(scale).__next__
    coin = _draws(loss_rng.random).__next__
    lcfs1 = cfg.discipline == "lcfs1"
    capacity = inf if cfg.capacity is None else cfg.capacity
    loss_p, retransmit, offset = cfg.loss_p, cfg.retransmit, cfg.delivery_offset_s

    gen_times: list[float] = []
    recv_times: list[float] = []  # nan until delivered
    gen_append, recv_append = gen_times.append, recv_times.append
    queue: deque[int] = deque()  # FCFS waiting line, or [freshest] for lcfs1
    q_append, q_popleft = queue.append, queue.popleft
    in_service: Optional[int] = None
    t_arr = next_arrival()
    t_dep = inf
    dep_first = False
    generated = 1
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
                recv_times[in_service] = now + offset
                delivered += 1
            if not exogenous and generated < n:
                # the channel is idle again; let the source decide when
                # to generate the next update
                wait = 0.0 if hook is None else float(hook(in_service, now))
                t_arr = now + max(0.0, wait)
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
        idx = len(gen_times)
        gen_append(now)
        recv_append(math.nan)
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

    trace = AgeTrace.from_seconds(gen_times, recv_times)
    total_loss = lost_channel + lost_overflow + discarded
    meta = {
        "arrivals": len(gen_times),
        "delivered": delivered,
        "lost_channel": lost_channel,
        "lost_overflow": lost_overflow,
        "discarded": discarded,
        "retransmissions": retransmissions,
        "still_queued": len(gen_times) - delivered - total_loss,
        "loss": total_loss,
        "max_waiting": max_waiting,
    }
    return SimRun(trace, meta)


# ------------------------------------------------------------------ sweeps


@dataclass(frozen=True)
class SweepRow:
    rate_hz: float
    avg_age_s: float
    peak_age_s: float
    loss: int
    avg_delay_s: float


SWEEP_HEADER = "rate_hz,avg_age_s,peak_age_s,loss,avg_delay_s"


def _sweep(rates, seed: int, point: Callable[[float, int], SimConfig]) -> list[SweepRow]:
    """One independent run per rate, each starting from an empty queue:
    `point(rate, child_seed)` builds the run's config, with the child
    seed derived from (seed, point index)."""
    from .metrics import average_age_by_reception, mean_delay, peak_age

    rates = list(rates)
    if not rates:
        raise ConfigError("sweep needs at least one rate")
    rows = []
    for k, rate in enumerate(rates):
        child = int(np.random.SeedSequence((seed, k)).generate_state(1)[0])
        run = simulate(point(rate, child))
        rows.append(
            SweepRow(
                rate_hz=rate,
                avg_age_s=average_age_by_reception(run.trace),
                peak_age_s=peak_age(run.trace),
                loss=int(run.meta["loss"]),
                avg_delay_s=mean_delay(run.trace),
            )
        )
    return rows


def sweep_rate(cfg: SimConfig, rates) -> list[SweepRow]:
    """Sweep the arrival rate of `cfg`; every other field is kept."""
    return _sweep(rates, cfg.seed, lambda rate, child: replace(
        cfg, arrival=replace(cfg.arrival, rate=rate), seed=child))


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


@dataclass(frozen=True)
class ChannelModel:
    """Load-regime model of a bottleneck path (see `regime_loss_p`):
    loss steps up to busy_loss_p at loss_onset_load and to
    panicked_loss_p at load 1, where queueing delay starts to grow.
    The ordering loss-before-delay is contractual; the particular
    loss values are free parameters."""

    base_rtt_s: float = 0.0
    bandwidth_bps: float = 130_000.0
    packet_bytes: int = 1058
    loss_onset_load: float = 0.6
    busy_loss_p: float = BUSY_LOSS_P
    panicked_loss_p: float = PANICKED_LOSS_P

    def __post_init__(self):
        if not (0.0 < self.loss_onset_load <= 1.0):
            raise ConfigError("loss onset load must be in (0, 1]")
        if self.bandwidth_bps <= 0 or self.packet_bytes <= 0:
            raise ConfigError("bandwidth and packet size must be positive")
        check_regime_loss_p(self.busy_loss_p, self.panicked_loss_p)

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
