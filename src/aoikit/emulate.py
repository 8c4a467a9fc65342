"""In-process emulated channel and virtual-time closed-loop runners.

The emulated channel stands in for a physical echo path: configurable
forward/backward propagation (fixed or lognormal), an optional
bottleneck with finite service rate and buffer, independent loss, and
a peer clock offset for time exchanges. Everything runs in virtual
time from a seeded generator, so runs are deterministic and finish in
milliseconds regardless of the emulated duration.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .policies import AcpState, EwmaEstimator, PolicyObservation, rate_policy
from .queuesim import (
    BUSY_LOSS_P,
    PANICKED_LOSS_P,
    _draws,
    check_regime_loss_p,
    regime_loss_p,
)
from .trace import AgeTrace, seconds_to_ns


@dataclass(frozen=True)
class EmulatedChannelSpec:
    """Impairments of the emulated echo path.

    Either give fixed per-leg propagation delays (fwd/bwd), or a
    lognormal round-trip distribution (split evenly between the legs).
    A bottleneck is modelled as a single FIFO server of `capacity_hz`
    packets per second with `buffer` waiting slots (None = infinite);
    `capacity_step_at_s`/`capacity_step_factor` rescale the service
    rate mid-run. `peer_offset_s` shifts the emulated peer's clock for
    time-request exchanges.
    """

    fwd_delay_s: float = 0.0
    bwd_delay_s: float = 0.0
    jitter_s: float = 0.0  # uniform [0, jitter) added per leg
    rtt_lognorm_median_s: Optional[float] = None
    rtt_lognorm_sigma: float = 0.5
    capacity_hz: Optional[float] = None
    buffer: Optional[int] = None
    loss_p: float = 0.0
    # load-threshold loss schedule (queuesim.regime_loss_p): once the
    # observed send rate passes loss_onset_load * capacity the channel
    # drops busy_loss_p of the packets, and panicked_loss_p at or
    # beyond capacity; loss therefore rises before queueing delay does
    loss_onset_load: Optional[float] = None
    busy_loss_p: float = BUSY_LOSS_P
    panicked_loss_p: float = PANICKED_LOSS_P
    capacity_step_at_s: Optional[float] = None
    capacity_step_factor: float = 1.0
    peer_offset_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(d) and d >= 0
                   for d in (self.fwd_delay_s, self.bwd_delay_s, self.jitter_s)):
            raise ConfigError("delays must be finite and non-negative")
        if not math.isfinite(self.peer_offset_s):
            raise ConfigError("peer offset must be finite")
        if not (0.0 <= self.loss_p < 1.0):
            raise ConfigError("loss probability must be in [0, 1)")
        if self.capacity_hz is not None and not (
                math.isfinite(self.capacity_hz) and self.capacity_hz > 0):
            raise ConfigError("capacity must be finite and positive")
        if self.buffer is not None and self.buffer < 0:
            raise ConfigError("buffer cannot be negative")
        if self.capacity_step_at_s is not None and not (
                math.isfinite(self.capacity_step_at_s)
                and self.capacity_step_at_s >= 0):
            raise ConfigError("capacity step time must be finite and non-negative")
        if not (math.isfinite(self.capacity_step_factor)
                and self.capacity_step_factor > 0):
            raise ConfigError("capacity step factor must be finite and positive")
        if self.rtt_lognorm_median_s is not None and not (
                math.isfinite(self.rtt_lognorm_median_s)
                and self.rtt_lognorm_median_s > 0):
            raise ConfigError("lognormal median must be finite and positive")
        if not (math.isfinite(self.rtt_lognorm_sigma) and self.rtt_lognorm_sigma >= 0):
            raise ConfigError("lognormal sigma must be finite and non-negative")
        if self.rtt_lognorm_median_s is not None and (
                self.fwd_delay_s or self.bwd_delay_s or self.jitter_s):
            raise ConfigError("lognormal round trips take no fixed delays or jitter")
        if self.capacity_hz is None and not (
                self.buffer is None and self.capacity_step_at_s is None
                and self.loss_onset_load is None):
            raise ConfigError("buffer, capacity step and loss schedule need a capacity")
        if self.loss_onset_load is not None and not (0.0 < self.loss_onset_load <= 1.0):
            raise ConfigError("loss onset load must be in (0, 1]")
        check_regime_loss_p(self.busy_loss_p, self.panicked_loss_p)
        # each of these keys acts only beside the one that switches it on
        if self.loss_onset_load is None and (
                (self.busy_loss_p, self.panicked_loss_p) != (BUSY_LOSS_P, PANICKED_LOSS_P)):
            raise ConfigError("busy and panicked loss need a loss onset load")
        if self.capacity_step_at_s is None and self.capacity_step_factor != 1.0:
            raise ConfigError("capacity step factor needs a capacity step time")

    @classmethod
    def fixed_rtt(cls, rtt_s: float, **kw) -> "EmulatedChannelSpec":
        return cls(fwd_delay_s=rtt_s / 2.0, bwd_delay_s=rtt_s / 2.0, **kw)


@dataclass
class ChannelTransit:
    """Outcome of one data packet through the channel, all on the
    sender's virtual clock."""

    send_s: float
    arrive_fwd_s: Optional[float]  # None if lost
    ack_s: Optional[float]


class EmulatedChannel:
    """Stateful channel instance: carries the bottleneck backlog and
    the seeded draw streams."""

    def __init__(self, spec: EmulatedChannelSpec):
        self.spec = spec
        ss = np.random.SeedSequence(spec.seed).spawn(2)
        delay_rng = np.random.Generator(np.random.PCG64(ss[0]))
        loss_rng = np.random.Generator(np.random.PCG64(ss[1]))
        # the delay stream draws either lognormal round trips or uniform
        # per-leg jitter, never both; the loss stream draws only coins
        self._rtts = self._jitters = None
        if spec.rtt_lognorm_median_s is not None:
            mu = math.log(spec.rtt_lognorm_median_s)
            self._rtts = _draws(
                lambda n: delay_rng.lognormal(mu, spec.rtt_lognorm_sigma, n))
        elif spec.jitter_s > 0:
            self._jitters = _draws(lambda n: delay_rng.uniform(0, spec.jitter_s, n))
        self._coins = _draws(loss_rng.random)
        self._server_free_at = 0.0
        # bottleneck departure times, non-decreasing (FIFO service)
        self._in_system: deque[float] = deque()
        self._last_send_s: Optional[float] = None
        self._send_rate_hz = EwmaEstimator(0.2)

    def _capacity_at(self, t_s: float) -> Optional[float]:
        c = self.spec.capacity_hz
        if c is None:
            return None
        if (
            self.spec.capacity_step_at_s is not None
            and t_s >= self.spec.capacity_step_at_s
        ):
            return c * self.spec.capacity_step_factor
        return c

    def _leg_delays(self) -> tuple[float, float]:
        if self._rtts is not None:
            rtt = next(self._rtts)
            return rtt / 2.0, rtt / 2.0
        fwd = self.spec.fwd_delay_s
        bwd = self.spec.bwd_delay_s
        if self._jitters is not None:
            fwd += next(self._jitters)
            bwd += next(self._jitters)
        return fwd, bwd

    def _loss_probability(self, send_s: float) -> float:
        spec = self.spec
        p = spec.loss_p
        if spec.loss_onset_load is not None:
            if self._last_send_s is not None and send_s > self._last_send_s:
                self._send_rate_hz.update(1.0 / (send_s - self._last_send_s))
            self._last_send_s = send_s
            if self._send_rate_hz.value is not None:
                p = max(p, regime_loss_p(
                    self._send_rate_hz.value / self._capacity_at(send_s),
                    spec.loss_onset_load, spec.busy_loss_p, spec.panicked_loss_p,
                ))
        return p

    def transit(self, send_s: float) -> ChannelTransit:
        """Route one data packet; must be called in send-time order."""
        spec = self.spec
        loss_p = self._loss_probability(send_s)
        # bottleneck stage
        depart = send_s
        if spec.capacity_hz is not None:
            while self._in_system and self._in_system[0] <= send_s:
                self._in_system.popleft()
            if spec.buffer is not None and len(self._in_system) > spec.buffer:
                return ChannelTransit(send_s, None, None)
            start = max(send_s, self._server_free_at)
            cap = self._capacity_at(start)
            depart = start + 1.0 / cap
            self._server_free_at = depart
            self._in_system.append(depart)
        if loss_p > 0 and next(self._coins) < loss_p:
            return ChannelTransit(send_s, None, None)
        fwd, bwd = self._leg_delays()
        arrive = depart + fwd
        return ChannelTransit(send_s, arrive, arrive + bwd)

    def ping(self, send_s: float) -> tuple[Optional[float], Optional[float]]:
        """Time-request exchange: returns (peer stamp on the peer's
        clock, ack arrival time) or (None, None) on loss. Pings skip
        the bottleneck: they are small and sent before loading the
        path."""
        if self.spec.loss_p > 0 and next(self._coins) < self.spec.loss_p:
            return None, None
        fwd, bwd = self._leg_delays()
        arrive = send_s + fwd
        peer_stamp = arrive + self.spec.peer_offset_s
        return peer_stamp, arrive + bwd


# -------------------------------------------------------------- sampling


@dataclass
class EmulatedSamplerResult:
    trace: AgeTrace  # send -> echo ack, sender clock
    truth_trace: AgeTrace  # send -> forward delivery, common clock
    sent: int
    received: int


def check_schedule(schedule: list[tuple[float, float]]) -> None:
    """Refuse a (rate, duration) schedule a sampler could not finish:
    it must be non-empty, every duration positive and finite, and every
    rate positive with a send period 1/rate of at least 1 ns."""
    if not schedule:
        raise ConfigError("empty rate schedule")
    for rate, duration in schedule:
        if not 0 < rate <= 1e9:  # also refuses nan
            raise ConfigError(f"rate must be positive and at most 1e9 Hz, not {rate:g}")
        if not 0 < duration < math.inf:
            raise ConfigError(f"duration must be positive and finite, not {duration:g}")


def run_sampler_emulated(
    spec: EmulatedChannelSpec,
    schedule: list[tuple[float, float]],
    size_bytes: int = 1058,
) -> EmulatedSamplerResult:
    """Constant-rate (piecewise) sampling over the emulated channel in
    virtual time. The echo trace carries sender-clock ack stamps; the
    truth trace carries the forward delivery stamps the remote end
    actually saw, for oracle comparisons."""
    check_schedule(schedule)
    channel = EmulatedChannel(spec)
    send_times: list[float] = []
    t = 0.0
    for rate, duration in schedule:
        k = 0
        start = t
        while start + (k + 1) / rate <= start + duration + 1e-12:
            send_times.append(start + (k + 1) / rate)
            k += 1
        t = start + duration
    gen, ack, fwd = [], [], []
    received = 0
    for s in send_times:
        tr = channel.transit(s)
        gen.append(seconds_to_ns(s))
        fwd.append(None if tr.arrive_fwd_s is None else seconds_to_ns(tr.arrive_fwd_s))
        ack.append(None if tr.ack_s is None else seconds_to_ns(tr.ack_s))
        if tr.ack_s is not None:
            received += 1
    ids = np.arange(len(gen), dtype=np.int64)
    sizes = np.full(len(gen), size_bytes, dtype=np.int64)
    trace = AgeTrace.from_arrays(ids, gen, ack, sizes, t_start_ns=0)
    truth = AgeTrace.from_arrays(ids, gen, fwd, sizes, t_start_ns=0)
    return EmulatedSamplerResult(trace, truth, len(gen), received)


# ------------------------------------------------------- offset estimation


@dataclass
class OffsetEstimate:
    offset_ns: int
    rtt_samples_s: list[float]
    confidence_s: float  # sample standard deviation of the per-ping offsets
    n: int


def offset_from_exchanges(samples: list[tuple[int, int, float]]) -> OffsetEstimate:
    """Combine ping exchanges into one offset estimate.

    Each sample is (local send stamp ns, peer stamp ns, rtt seconds);
    the peer is assumed to have stamped at the midpoint of the round
    trip, so each ping contributes peer - (send + rtt/2).
    """
    if len(samples) < 10:
        raise ConfigError(f"need >= 10 ping exchanges, have {len(samples)}")
    offsets = np.array(
        [peer - (send + rtt / 2.0 * 1e9) for send, peer, rtt in samples],
        dtype=float,
    )
    conf = float(np.std(offsets, ddof=1)) / 1e9 if len(offsets) > 1 else 0.0
    return OffsetEstimate(
        offset_ns=int(round(float(np.mean(offsets)))),
        rtt_samples_s=[rtt for _, _, rtt in samples],
        confidence_s=conf,
        n=len(samples),
    )


def estimate_offset_emulated(
    spec: EmulatedChannelSpec, n_pings: int = 100, spacing_s: float = 0.01
) -> OffsetEstimate:
    channel = EmulatedChannel(spec)
    samples = []
    t = 0.0
    attempts = 0
    while len(samples) < n_pings and attempts < 10 * n_pings:
        attempts += 1
        peer_stamp, ack = channel.ping(t)
        if ack is not None:
            samples.append((seconds_to_ns(t), seconds_to_ns(peer_stamp), ack - t))
        t += spacing_s
    return offset_from_exchanges(samples)


# ------------------------------------------------------ closed-loop runner


@dataclass(slots=True)
class DecisionRow:
    epoch: int
    action: str
    target_backlog: float
    rate_hz: float
    avg_age_s: float
    backlog: int
    t_s: float = 0.0  # epoch end time; not part of the CSV contract


DECISION_HEADER = "epoch,action,target_backlog,rate_hz,avg_age_s,backlog"


def decision_csv(rows: list[DecisionRow]) -> str:
    return "\n".join([DECISION_HEADER] + [
        f"{r.epoch},{r.action},{r.target_backlog:.6g},{r.rate_hz:.6g},"
        f"{r.avg_age_s:.6g},{r.backlog}" for r in rows]) + "\n"


@dataclass
class PolicyRunResult:
    trace: AgeTrace
    decisions: list[DecisionRow]
    mean_inflight: float
    mean_rate_hz: float
    final_rate_hz: float
    median_age_s: float
    sent: int
    acked: int


_PROBE, _SEND, _ACK, _EPOCH = 0, 1, 2, 3
_PROBE_SPACING_S = 0.05
_MAX_PROBES = 10
_MEDIAN_GRID_S = 0.01  # age sampling step of the reported median


def run_rate_policy(
    policy: str,
    spec: EmulatedChannelSpec,
    duration_s: float,
    acp: Optional[AcpState] = None,
    ewma_alpha: float = 0.125,
) -> PolicyRunResult:
    """Drive the closed-loop sender `policies.rate_policy(policy, acp)`
    over the emulated channel in virtual time.

    The loop bootstraps with probe packets (a single one for an unpaced
    sender) until the first acknowledgement initializes the smoothed
    rtt; then epochs of max(epoch floor, smoothed rtt) start, and a
    paced sender sends at its current rate.
    """
    sender = rate_policy(policy, acp)
    if not 0 < duration_s < math.inf:
        raise ConfigError(f"duration must be positive and finite, not {duration_s:g}")
    if (spec.fwd_delay_s + spec.bwd_delay_s == 0 and spec.jitter_s == 0
            and spec.rtt_lognorm_median_s is None and spec.capacity_hz is None):
        raise ConfigError("closed-loop policies need a positive round trip")
    if not sender.paced and (spec.loss_p > 0 or spec.loss_onset_load is not None):
        raise ConfigError(f"{policy} waits for every ack and has no loss timeout; "
                          "it needs a loss-free channel")

    channel = EmulatedChannel(spec)
    ewma_rtt = EwmaEstimator(ewma_alpha)
    # (time, insertion seq, kind, packet index); acks can overtake each
    # other under jitter or lognormal delay
    heap: list[tuple[float, int, int, int]] = [(0.0, 0, _PROBE, -1)]
    seq = 1
    send_s: list[float] = []
    ack_s: list[float] = []  # nan until acknowledged
    acked = 0
    newest_acked_send: Optional[float] = None
    clock = 0.0  # the integrals below run up to here
    backlog_area = epoch_backlog_area = epoch_age_area = 0.0
    epoch_acks = 0
    epoch_started = 0.0
    decisions: list[DecisionRow] = []
    rate_hz: Optional[float] = None
    rate_area = 0.0
    rate_clock = 0.0

    def push(t: float, kind: int, packet: int = -1):
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, packet))
        seq += 1

    def set_rate(now: float, new_rate: Optional[float]):
        nonlocal rate_hz, rate_area, rate_clock
        if rate_hz is not None:
            rate_area += rate_hz * (now - rate_clock)
        rate_clock = now
        rate_hz = new_rate

    def start_epoch(now: float):
        nonlocal epoch_started, epoch_age_area, epoch_backlog_area, epoch_acks
        epoch_started = now
        epoch_age_area = epoch_backlog_area = 0.0
        epoch_acks = 0
        push(now + max(sender.epoch_floor_s, ewma_rtt.value), _EPOCH)

    while heap:
        now, _, kind, packet = heapq.heappop(heap)
        if now > duration_s:
            break
        dt = now - clock
        if dt > 0:
            backlog = len(send_s) - acked
            backlog_area += backlog * dt
            epoch_backlog_area += backlog * dt
            if newest_acked_send is not None:
                epoch_age_area += (clock - newest_acked_send) * dt + dt * dt / 2.0
            clock = now
        if kind == _ACK:
            sent_at = send_s[packet]
            ack_s[packet] = now
            acked += 1
            epoch_acks += 1
            ewma_rtt.update(now - sent_at)
            if newest_acked_send is None or sent_at > newest_acked_send:
                newest_acked_send = sent_at
            first_ack = acked == 1
            new_rate = sender.on_ack(ewma_rtt.value, first_ack)
            if new_rate is not None:
                set_rate(now, new_rate)
            if first_ack or (not sender.paced and len(send_s) == acked):
                push(now, _SEND)
            if first_ack:
                start_epoch(now)
        elif kind == _EPOCH:
            epoch_s = now - epoch_started
            obs = PolicyObservation(
                ewma_rtt_s=ewma_rtt.value,
                epoch_s=epoch_s,
                avg_age_epoch_s=epoch_age_area / epoch_s if epoch_s > 0 else 0.0,
                avg_backlog_epoch=epoch_backlog_area / epoch_s if epoch_s > 0 else 0.0,
                epoch_acks=epoch_acks,
            )
            action, target, logged_rate, new_rate = sender.on_epoch(obs, rate_hz)
            if new_rate is not None:
                set_rate(now, new_rate)
            decisions.append(DecisionRow(
                len(decisions) + 1, action, target, logged_rate,
                obs.avg_age_epoch_s, len(send_s) - acked, now,
            ))
            start_epoch(now)
        else:  # a send; probes stop once the first ack is in
            if kind == _PROBE and acked:
                continue
            tr = channel.transit(now)
            send_s.append(now)
            ack_s.append(math.nan)
            if tr.ack_s is not None and tr.ack_s <= duration_s:
                push(tr.ack_s, _ACK, len(send_s) - 1)
            if kind == _PROBE:
                if sender.paced and len(send_s) < _MAX_PROBES:
                    push(now + _PROBE_SPACING_S, _PROBE)
            elif sender.paced:
                push(now + 1.0 / rate_hz, _SEND)

    if duration_s > clock:
        backlog_area += (len(send_s) - acked) * (duration_s - clock)
    set_rate(duration_s, rate_hz)

    trace = AgeTrace.from_seconds(send_s, ack_s, t_end_ns=seconds_to_ns(duration_s))
    return PolicyRunResult(
        trace=trace,
        decisions=decisions,
        mean_inflight=backlog_area / duration_s,
        mean_rate_hz=(rate_area if sender.paced else len(send_s)) / duration_s,
        final_rate_hz=rate_hz if rate_hz is not None else 0.0,
        median_age_s=_median_age(trace, _MEDIAN_GRID_S),
        sent=len(send_s),
        acked=acked,
    )


_MEDIAN_CHUNK = 65_536  # grid points per chunk


def _median_age(trace: AgeTrace, grid_s: float) -> float:
    """Median of the age sampled every `grid_s` from the first to the
    last delivery, equal to `np.median` of the float ages. It holds one
    int64 age per grid point: the ages are filled in chunks, and only
    the middle rank or two are converted to seconds, which keeps their
    order."""
    gen, recv = trace.delivered()
    if len(gen) < 2:
        return float("nan")
    t0, t1 = int(recv[0]), int(recv[-1])
    step = max(1, seconds_to_ns(grid_s))
    n = (t1 - t0) // step + 1
    ages = np.empty(n, dtype=np.int64)
    for i in range(0, n, _MEDIAN_CHUNK):
        ts = t0 + step * np.arange(i, min(i + _MEDIAN_CHUNK, n), dtype=np.int64)
        ages[i:i + len(ts)] = ts - gen[np.searchsorted(recv, ts, side="right") - 1]
    mid = n // 2
    if n % 2:
        ages.partition(mid)
        return float(ages[mid] / 1e9)
    ages.partition((mid - 1, mid))
    return float((ages[mid - 1] / 1e9 + ages[mid] / 1e9) / 2)
