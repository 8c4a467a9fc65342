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
from .policies import (
    AcpState,
    EwmaEstimator,
    PolicyObservation,
    acp_epoch_update,
)
from .queuesim import regime_loss_p
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
    # load-threshold loss schedule (queuesim.load_regime): once the
    # observed send rate passes loss_onset_load * capacity the channel
    # drops busy_loss_p of the packets, and panicked_loss_p at or
    # beyond capacity; loss therefore rises before queueing delay does
    loss_onset_load: Optional[float] = None
    busy_loss_p: float = 0.02
    panicked_loss_p: float = 0.15
    capacity_step_at_s: Optional[float] = None
    capacity_step_factor: float = 1.0
    peer_offset_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.fwd_delay_s < 0 or self.bwd_delay_s < 0 or self.jitter_s < 0:
            raise ConfigError("delays cannot be negative")
        if not (0.0 <= self.loss_p < 1.0):
            raise ConfigError("loss probability must be in [0, 1)")
        if self.capacity_hz is not None and self.capacity_hz <= 0:
            raise ConfigError("capacity must be positive")
        if self.rtt_lognorm_median_s is not None and self.rtt_lognorm_median_s <= 0:
            raise ConfigError("lognormal median must be positive")
        if self.loss_onset_load is not None:
            if self.capacity_hz is None:
                raise ConfigError("loss schedule needs a capacity")
            if not (0.0 < self.loss_onset_load <= 1.0):
                raise ConfigError("loss onset load must be in (0, 1]")

    @classmethod
    def fixed_rtt(cls, rtt_s: float, **kw) -> "EmulatedChannelSpec":
        return cls(fwd_delay_s=rtt_s / 2.0, bwd_delay_s=rtt_s / 2.0, **kw)

    @property
    def nominal_rtt_s(self) -> float:
        if self.rtt_lognorm_median_s is not None:
            return self.rtt_lognorm_median_s
        return self.fwd_delay_s + self.bwd_delay_s


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
        self._delay_rng = np.random.Generator(np.random.PCG64(ss[0]))
        self._loss_rng = np.random.Generator(np.random.PCG64(ss[1]))
        self._server_free_at = 0.0
        # bottleneck departure times, non-decreasing (FIFO service)
        self._in_system: deque[float] = deque()
        self._last_send_s: Optional[float] = None
        self._rate_est_hz: Optional[float] = None  # smoothed send rate

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
        s = self.spec
        if s.rtt_lognorm_median_s is not None:
            rtt = float(
                self._delay_rng.lognormal(
                    math.log(s.rtt_lognorm_median_s), s.rtt_lognorm_sigma
                )
            )
            return rtt / 2.0, rtt / 2.0
        fwd = s.fwd_delay_s
        bwd = s.bwd_delay_s
        if s.jitter_s > 0:
            fwd += float(self._delay_rng.uniform(0, s.jitter_s))
            bwd += float(self._delay_rng.uniform(0, s.jitter_s))
        return fwd, bwd

    def _loss_probability(self, send_s: float) -> float:
        spec = self.spec
        p = spec.loss_p
        if spec.loss_onset_load is not None:
            if self._last_send_s is not None and send_s > self._last_send_s:
                inst = 1.0 / (send_s - self._last_send_s)
                if self._rate_est_hz is None:
                    self._rate_est_hz = inst
                else:
                    self._rate_est_hz += 0.2 * (inst - self._rate_est_hz)
            self._last_send_s = send_s
            if self._rate_est_hz is not None:
                p = max(p, regime_loss_p(
                    self._rate_est_hz / self._capacity_at(send_s),
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
        if loss_p > 0 and self._loss_rng.random() < loss_p:
            return ChannelTransit(send_s, None, None)
        fwd, bwd = self._leg_delays()
        arrive = depart + fwd
        return ChannelTransit(send_s, arrive, arrive + bwd)

    def ping(self, send_s: float) -> tuple[Optional[float], Optional[float]]:
        """Time-request exchange: returns (peer stamp on the peer's
        clock, ack arrival time) or (None, None) on loss. Pings skip
        the bottleneck: they are small and sent before loading the
        path."""
        if self.spec.loss_p > 0 and self._loss_rng.random() < self.spec.loss_p:
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


def run_sampler_emulated(
    spec: EmulatedChannelSpec,
    schedule: list[tuple[float, float]],
    size_bytes: int = 1058,
) -> EmulatedSamplerResult:
    """Constant-rate (piecewise) sampling over the emulated channel in
    virtual time. The echo trace carries sender-clock ack stamps; the
    truth trace carries the forward delivery stamps the remote end
    actually saw, for oracle comparisons."""
    if not schedule:
        raise ConfigError("empty rate schedule")
    channel = EmulatedChannel(spec)
    send_times: list[float] = []
    t = 0.0
    for rate, duration in schedule:
        if rate <= 0 or duration <= 0:
            raise ConfigError("rates and durations must be positive")
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


@dataclass
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
    out = [DECISION_HEADER]
    for r in rows:
        out.append(
            f"{r.epoch},{r.action},{r.target_backlog:.6g},{r.rate_hz:.6g},"
            f"{r.avg_age_s:.6g},{r.backlog}"
        )
    return "\n".join(out) + "\n"


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


_SEND, _ACK, _EPOCH = 0, 1, 2


class _LoopState:
    """Bookkeeping shared by the closed-loop policies."""

    def __init__(self, ewma_alpha: float):
        self.ewma_rtt = EwmaEstimator(ewma_alpha)
        self.ewma_inter_ack = EwmaEstimator(ewma_alpha)
        self.last_ack_t: Optional[float] = None
        self.last_rtt: float = 0.0
        self.newest_acked_gen: Optional[float] = None
        self.sent = 0
        self.acked = 0
        # time integrals
        self.area_clock = 0.0  # last time the integrals were advanced
        self.age_area = 0.0
        self.backlog_area = 0.0
        self.epoch_age_area = 0.0
        self.epoch_backlog_area = 0.0
        self.epoch_acks = 0

    def advance(self, now: float):
        dt = now - self.area_clock
        if dt <= 0:
            return
        backlog = self.sent - self.acked
        self.backlog_area += backlog * dt
        self.epoch_backlog_area += backlog * dt
        if self.newest_acked_gen is not None:
            a0 = self.area_clock - self.newest_acked_gen
            self.age_area += a0 * dt + dt * dt / 2.0
            self.epoch_age_area += a0 * dt + dt * dt / 2.0
        self.area_clock = now


def run_rate_policy(
    policy: str,
    spec: EmulatedChannelSpec,
    duration_s: float,
    acp: Optional[AcpState] = None,
    ewma_alpha: float = 0.125,
    median_grid_s: float = 0.01,
) -> PolicyRunResult:
    """Drive a rate policy over the emulated channel in virtual time.

    Supported policies: "lazy" (rate = 1/smoothed rtt), "acp" (epoch
    backlog controller), "zero-wait" (send on ack). The loop
    bootstraps with a single probe packet; rate policies start pacing
    once the first acknowledgement initializes the estimators.
    """
    if policy not in ("lazy", "acp", "zero-wait"):
        raise ConfigError(f"unknown rate policy {policy!r}")
    if duration_s <= 0:
        raise ConfigError("duration must be positive")
    if policy == "acp" and acp is None:
        acp = AcpState()

    channel = EmulatedChannel(spec)
    st = _LoopState(ewma_alpha)
    heap: list[tuple[float, int, int, float, float]] = []
    seq = 0

    def push(t: float, kind: int, a: float = 0.0, b: float = 0.0):
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, a, b))
        seq += 1

    gen_ns: list[int] = []
    ack_ns: list[Optional[int]] = []

    rate_hz: Optional[float] = None
    pacing = False
    epoch_no = 0
    epoch_started = 0.0
    decisions: list[DecisionRow] = []
    rate_time_product = 0.0
    rate_clock = 0.0
    PROBE_SPACING_S = 0.05
    MAX_PROBES = 10

    def send_packet(now: float):
        st.sent += 1
        tr = channel.transit(now)
        gen_ns.append(seconds_to_ns(now))
        ack_ns.append(None)
        if tr.ack_s is not None and tr.ack_s <= duration_s:
            push(tr.ack_s, _ACK, now, float(len(gen_ns) - 1))

    def note_rate(now: float, new_rate: Optional[float]):
        nonlocal rate_hz, rate_time_product, rate_clock
        if rate_hz is not None:
            rate_time_product += rate_hz * (now - rate_clock)
        rate_clock = now
        rate_hz = new_rate

    # bootstrap probe; a=1 marks probe sends so stale ones are ignored
    # once the first acknowledgement has started regular pacing
    push(0.0, _SEND, 1.0)

    while heap:
        now, _, kind, a, b = heapq.heappop(heap)
        if now > duration_s:
            break
        st.advance(now)
        if kind == _SEND:
            is_probe = a == 1.0
            if is_probe and (pacing or st.acked > 0):
                continue  # pacing took over; drop leftover probes
            send_packet(now)
            if is_probe and st.acked == 0 and st.sent < MAX_PROBES \
                    and policy != "zero-wait":
                push(now + PROBE_SPACING_S, _SEND, 1.0)
            if not is_probe and rate_hz is not None and rate_hz > 0:
                push(now + 1.0 / rate_hz, _SEND)
        elif kind == _ACK:
            sent_at, idx = a, int(b)
            ack_ns[idx] = seconds_to_ns(now)
            st.acked += 1
            st.epoch_acks += 1
            st.last_rtt = now - sent_at
            st.ewma_rtt.update(st.last_rtt)
            if st.last_ack_t is not None:
                st.ewma_inter_ack.update(now - st.last_ack_t)
            st.last_ack_t = now
            if st.newest_acked_gen is None or sent_at > st.newest_acked_gen:
                st.newest_acked_gen = sent_at
            first_ack = st.acked == 1
            if policy == "zero-wait":
                if st.sent == st.acked:
                    push(now, _SEND)
            elif policy == "lazy":
                note_rate(now, 1.0 / st.ewma_rtt.value)
            else:  # acp
                if first_ack:
                    note_rate(now, acp.target_backlog / st.ewma_rtt.value)
            if first_ack:
                pacing = True
                if policy != "zero-wait":
                    push(now, _SEND)
                epoch_started = now
                st.epoch_age_area = 0.0
                st.epoch_backlog_area = 0.0
                st.epoch_acks = 0
                floor = acp.epoch_floor_s if acp is not None else 0.010
                push(now + max(floor, st.ewma_rtt.value), _EPOCH)
        else:  # epoch boundary
            epoch_len = now - epoch_started
            avg_age = st.epoch_age_area / epoch_len if epoch_len > 0 else 0.0
            avg_backlog = (
                st.epoch_backlog_area / epoch_len if epoch_len > 0 else 0.0
            )
            backlog = st.sent - st.acked
            if policy == "acp":
                obs = PolicyObservation(
                    now_ns=seconds_to_ns(now),
                    last_ack_rtt_s=st.last_rtt,
                    ewma_rtt_s=st.ewma_rtt.value,
                    ewma_inter_ack_s=st.ewma_inter_ack.value,
                    backlog=backlog,
                    avg_age_epoch_s=avg_age,
                    avg_backlog_epoch=avg_backlog,
                    epoch_acks=st.epoch_acks,
                )
                action, new_rate = acp_epoch_update(acp, obs)
                target = acp.target_backlog
                note_rate(now, new_rate)
                next_epoch = acp.epoch_len_s
            elif policy == "lazy":
                action, target = "RATE", 1.0
                new_rate = rate_hz if rate_hz is not None else 0.0
                next_epoch = max(0.010, st.ewma_rtt.value or 0.010)
            else:  # zero-wait: log the observed ack rate
                action, target = "SEND-ON-ACK", 1.0
                new_rate = st.epoch_acks / epoch_len if epoch_len > 0 else 0.0
                next_epoch = max(0.010, st.ewma_rtt.value or 0.010)
            epoch_no += 1
            decisions.append(
                DecisionRow(
                    epoch=epoch_no,
                    action=action,
                    target_backlog=target,
                    rate_hz=new_rate,
                    avg_age_s=avg_age,
                    backlog=backlog,
                    t_s=now,
                )
            )
            st.epoch_age_area = 0.0
            st.epoch_backlog_area = 0.0
            st.epoch_acks = 0
            epoch_started = now
            push(now + next_epoch, _EPOCH)

    st.advance(duration_s)
    note_rate(duration_s, rate_hz)

    ids = np.arange(len(gen_ns), dtype=np.int64)
    trace = AgeTrace.from_arrays(
        ids, gen_ns, ack_ns, t_start_ns=0, t_end_ns=seconds_to_ns(duration_s)
    )

    median = _median_age(trace, median_grid_s)
    if policy == "zero-wait":
        mean_rate = st.sent / duration_s
    else:
        mean_rate = rate_time_product / duration_s
    return PolicyRunResult(
        trace=trace,
        decisions=decisions,
        mean_inflight=st.backlog_area / duration_s,
        mean_rate_hz=mean_rate,
        final_rate_hz=rate_hz if rate_hz is not None else 0.0,
        median_age_s=median,
        sent=st.sent,
        acked=st.acked,
    )


def _median_age(trace: AgeTrace, grid_s: float) -> float:
    gen, recv = trace.delivered()
    if len(gen) < 2:
        return float("nan")
    t0, t1 = int(recv[0]), int(recv[-1])
    step = max(1, seconds_to_ns(grid_s))
    ts = np.arange(t0, t1 + 1, step, dtype=np.int64)
    idx = np.searchsorted(recv, ts, side="right") - 1
    ages = (ts - gen[idx]).astype(float) / 1e9
    return float(np.median(ages))
