"""In-process emulated channel and virtual-time closed-loop runners.

The emulated channel stands in for a physical echo path: configurable
forward/backward propagation (fixed or lognormal), an optional
bottleneck with finite service rate and buffer, independent loss, and
a peer clock offset for time exchanges. Everything runs in virtual
time from a seeded generator, so runs are deterministic and finish in
milliseconds regardless of the emulated duration.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .policies import (
    EWMA_ALPHA,
    Q_ACTIONS,
    EwmaEstimator,
    PolicyObservation,
    QTrainResult,
)
from .queuesim import (
    BUSY_LOSS_P,
    PANICKED_LOSS_P,
    _draws,
    check_regime_loss_p,
    regime_loss_p,
)
from .records import FrozenRecord, Record
from .trace import AgeTrace, seconds_to_ns


class EmulatedChannelSpec(FrozenRecord):
    """Impairments of the emulated echo path.

    Either give fixed per-leg propagation delays (fwd/bwd), or a
    lognormal round-trip distribution (split evenly between the legs).
    `jitter_s` adds a uniform [0, jitter) delay per leg. A bottleneck
    is modelled as a single FIFO server of `capacity_hz` packets per
    second with `buffer` waiting slots (None = infinite);
    `capacity_step_at_s`/`capacity_step_factor` rescale the service
    rate mid-run. `peer_offset_s` shifts the emulated peer's clock for
    time-request exchanges.

    The load-threshold loss schedule (queuesim.regime_loss_p): once the
    observed send rate passes `loss_onset_load` * capacity the channel
    drops `busy_loss_p` of the packets, and `panicked_loss_p` at or
    beyond capacity; loss therefore rises before queueing delay does.
    """

    _fields = ("fwd_delay_s", "bwd_delay_s", "jitter_s", "rtt_lognorm_median_s",
               "rtt_lognorm_sigma", "capacity_hz", "buffer", "loss_p", "loss_onset_load",
               "busy_loss_p", "panicked_loss_p", "capacity_step_at_s",
               "capacity_step_factor", "peer_offset_s", "seed")

    def __init__(self, fwd_delay_s: float = 0.0, bwd_delay_s: float = 0.0,
                 jitter_s: float = 0.0, rtt_lognorm_median_s: Optional[float] = None,
                 rtt_lognorm_sigma: float = 0.5, capacity_hz: Optional[float] = None,
                 buffer: Optional[int] = None, loss_p: float = 0.0,
                 loss_onset_load: Optional[float] = None, busy_loss_p: float = BUSY_LOSS_P,
                 panicked_loss_p: float = PANICKED_LOSS_P,
                 capacity_step_at_s: Optional[float] = None,
                 capacity_step_factor: float = 1.0, peer_offset_s: float = 0.0,
                 seed: int = 0):
        vars(self).update(
            fwd_delay_s=fwd_delay_s, bwd_delay_s=bwd_delay_s, jitter_s=jitter_s,
            rtt_lognorm_median_s=rtt_lognorm_median_s, rtt_lognorm_sigma=rtt_lognorm_sigma,
            capacity_hz=capacity_hz, buffer=buffer, loss_p=loss_p,
            loss_onset_load=loss_onset_load, busy_loss_p=busy_loss_p,
            panicked_loss_p=panicked_loss_p, capacity_step_at_s=capacity_step_at_s,
            capacity_step_factor=capacity_step_factor, peer_offset_s=peer_offset_s,
            seed=seed)
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


class ChannelTransit(Record):
    """Outcome of one packet through the channel, all on the sender's
    virtual clock: the forward arrival and the acknowledgement, both
    None if the packet was lost. A slotted record with a written
    `__init__`, built once per send. Every dropped packet gets the one
    shared `_DROPPED`, so no caller may change what it is given."""

    __slots__ = _fields = ("arrive_fwd_s", "ack_s")

    def __init__(self, arrive_fwd_s: Optional[float], ack_s: Optional[float]):
        self.arrive_fwd_s = arrive_fwd_s
        self.ack_s = ack_s


_DROPPED = ChannelTransit(None, None)


class EmulatedChannel:
    """Stateful channel instance: carries the bottleneck backlog and
    the seeded draw streams."""

    def __init__(self, spec: EmulatedChannelSpec):
        self.spec = spec
        self._server_free_at = 0.0
        # bottleneck departure times, non-decreasing (FIFO service),
        # kept only for a finite buffer, the one thing that reads them
        self._in_system: Optional[deque[float]] = (
            None if spec.buffer is None else deque())
        self._last_send_s: Optional[float] = None
        self._send_rate_hz = EwmaEstimator(0.2)
        # the delay stream draws either lognormal round trips or uniform
        # per-leg jitter, never both; the loss stream draws only coins.
        # Only a stream the spec draws from is built, so a channel that
        # draws nothing never loads numpy.random
        self._rtts = self._jitters = self._coins = None
        delays = spec.rtt_lognorm_median_s is not None or spec.jitter_s > 0
        lossy = spec.loss_p > 0 or spec.loss_onset_load is not None
        self._draw_free = not (delays or lossy)
        if self._draw_free:
            return
        from numpy.random import PCG64, Generator, SeedSequence

        delay_seed, loss_seed = SeedSequence(spec.seed).spawn(2)
        if delays:
            delay_rng = Generator(PCG64(delay_seed))
            if spec.rtt_lognorm_median_s is not None:
                mu = math.log(spec.rtt_lognorm_median_s)
                self._rtts = _draws(
                    lambda n: delay_rng.lognormal(mu, spec.rtt_lognorm_sigma, n))
            else:
                self._jitters = _draws(lambda n: delay_rng.uniform(0, spec.jitter_s, n))
        if lossy:
            self._coins = _draws(Generator(PCG64(loss_seed)).random)

    def _loss_probability(self, send_s: float) -> float:
        """The loss probability at a send under the load-driven loss
        regime: the smoothed send rate over the capacity at the send
        picks the regime."""
        spec = self.spec
        p = spec.loss_p
        if self._last_send_s is not None and send_s > self._last_send_s:
            self._send_rate_hz.update(1.0 / (send_s - self._last_send_s))
        self._last_send_s = send_s
        if self._send_rate_hz.value is not None:
            cap = spec.capacity_hz
            if spec.capacity_step_at_s is not None and send_s >= spec.capacity_step_at_s:
                cap = cap * spec.capacity_step_factor
            p = max(p, regime_loss_p(self._send_rate_hz.value / cap, spec.loss_onset_load,
                                     spec.busy_loss_p, spec.panicked_loss_p))
        return p

    def transit(self, send_s: float) -> ChannelTransit:
        """Route one packet; must be called in send-time order.
        The packet queues at the bottleneck, is lost with the loss
        probability at its send, then takes the forward leg; its ack
        takes the backward leg."""
        spec = self.spec
        loss_p = (spec.loss_p if spec.loss_onset_load is None
                  else self._loss_probability(send_s))
        # bottleneck stage
        depart = send_s
        cap = spec.capacity_hz
        if cap is not None:
            in_system = self._in_system
            if in_system is not None:
                while in_system and in_system[0] <= send_s:
                    in_system.popleft()
                if len(in_system) > spec.buffer:
                    return _DROPPED
            free_at = self._server_free_at
            start = free_at if free_at > send_s else send_s
            step_at = spec.capacity_step_at_s
            if step_at is not None and start >= step_at:
                cap = cap * spec.capacity_step_factor
            depart = start + 1.0 / cap
            self._server_free_at = depart
            if in_system is not None:
                in_system.append(depart)
        fwd = spec.fwd_delay_s
        if self._draw_free:
            arrive = depart + fwd
            return ChannelTransit(arrive, arrive + spec.bwd_delay_s)
        if loss_p > 0 and next(self._coins) < loss_p:
            return _DROPPED
        rtts, jitters = self._rtts, self._jitters
        if rtts is not None:
            fwd = bwd = next(rtts) / 2.0
        else:
            bwd = spec.bwd_delay_s
            if jitters is not None:
                fwd += next(jitters)
                bwd += next(jitters)
        arrive = depart + fwd
        return ChannelTransit(arrive, arrive + bwd)


# -------------------------------------------------------------- sampling


class EmulatedSamplerResult(Record):
    _fields = ("trace", "truth_trace", "sent", "received")

    def __init__(self, trace: AgeTrace, truth_trace: AgeTrace, sent: int, received: int):
        self.trace = trace  # send -> echo ack, sender clock
        self.truth_trace = truth_trace  # send -> forward delivery, common clock
        self.sent = sent
        self.received = received


MAX_RATE_HZ = 1e9  # a send period of 1 ns, the trace's resolution
# sends and epochs per run, and pings per offset estimate: far beyond any
# run that finishes in reasonable time. A run of a million sends and a
# million epochs takes a few seconds and peaks near 145 MB; a
# million-ping offset estimate, which keeps every exchange in three
# typed columns, near 75 MB
MAX_SENDS = 1_000_000


def check_schedule(schedule: list[tuple[float, float]]) -> None:
    """Refuse a (rate, duration) schedule a sampler could not finish:
    it must be non-empty, every duration positive and finite, every
    rate positive with a send period 1/rate of at least 1 ns, and the
    planned sends, the sum of rate * duration, at most `MAX_SENDS`."""
    if not schedule:
        raise ConfigError("empty rate schedule")
    for rate, duration in schedule:
        if not 0 < rate <= MAX_RATE_HZ:  # also refuses nan
            raise ConfigError(f"rate must be positive and at most 1e9 Hz, not {rate!r}")
        if not 0 < duration < math.inf:
            raise ConfigError(f"duration must be positive and finite, not {duration:g}")
    planned = sum(rate * duration for rate, duration in schedule)
    if planned > MAX_SENDS:
        raise ConfigError(f"the schedule plans {planned:.6g} sends, more than "
                          f"the bound of {MAX_SENDS} per run")


def run_sampler_emulated(
    spec: EmulatedChannelSpec,
    schedule: list[tuple[float, float]],
    size_bytes: int = 1058,
) -> EmulatedSamplerResult:
    """Constant-rate (piecewise) sampling over the emulated channel in
    virtual time. The echo trace carries sender-clock ack stamps; the
    truth trace carries the forward delivery stamps the remote end
    actually saw, for oracle comparisons."""
    from array import array  # loaded on first use

    check_schedule(schedule)
    transit, nan = EmulatedChannel(spec).transit, math.nan
    send_times = array("d")
    t = 0.0
    for rate, duration in schedule:
        start, k = t, 1
        end = start + duration + 1e-12
        while (s := start + k / rate) <= end:
            send_times.append(s)
            k += 1
        t = start + duration
    fwd_s = array("d")  # nan where the channel dropped the packet
    ack_s = array("d")
    for s in send_times:
        tr = transit(s)
        fwd_s.append(nan if tr.arrive_fwd_s is None else tr.arrive_fwd_s)
        ack_s.append(nan if tr.ack_s is None else tr.ack_s)
    trace = AgeTrace.from_seconds(send_times, ack_s, size_bytes=size_bytes)
    truth = AgeTrace.from_seconds(send_times, fwd_s, size_bytes=size_bytes)
    sent = len(send_times)
    return EmulatedSamplerResult(trace, truth, sent, sent - trace.loss_count)


# ------------------------------------------------------- offset estimation


class OffsetEstimate(Record):
    _fields = ("offset_ns", "rtt_samples_s", "confidence_s", "n")

    def __init__(self, offset_ns: int, rtt_samples_s: Sequence[float],
                 confidence_s: float, n: int):
        self.offset_ns = offset_ns
        self.rtt_samples_s = rtt_samples_s  # an array('d'), one rtt per exchange
        self.confidence_s = confidence_s  # sample standard deviation of the per-ping offsets
        self.n = n


def offset_from_exchanges(send_ns: Sequence[int], peer_ns: Sequence[float],
                          rtt_s: Sequence[float]) -> OffsetEstimate:
    """Combine ping exchanges into one offset estimate.

    Exchange i is the local send stamp `send_ns[i]`, the peer's stamp
    `peer_ns[i]` (nanoseconds, as float: a peer's clock may read beyond
    int64) and the round trip `rtt_s[i]` in seconds, in typed columns
    such as `array`s. The peer is assumed to have stamped at the
    midpoint of the round trip, so each ping contributes
    peer - (send + rtt/2).
    """
    n = len(rtt_s)
    if n < 10:
        raise ConfigError(f"need >= 10 ping exchanges, have {n}")
    # peer - (send + rtt / 2.0 * 1e9), in float, one operation at a time
    offsets = np.divide(rtt_s, 2.0)
    offsets *= 1e9
    offsets += np.asarray(send_ns, dtype=np.int64)
    np.subtract(peer_ns, offsets, out=offsets)
    return OffsetEstimate(
        offset_ns=int(round(float(np.mean(offsets)))),
        rtt_samples_s=rtt_s,
        confidence_s=float(np.std(offsets, ddof=1)) / 1e9,
        n=n,
    )


def estimate_offset_emulated(
    spec: EmulatedChannelSpec, n_pings: int = 100, spacing_s: float = 0.01
) -> OffsetEstimate:
    """Offset from `n_pings` emulated exchanges, at most `MAX_SENDS`,
    sent `spacing_s` apart in virtual time. Time requests take the data
    path's legs and loss but skip its bottleneck: a capacity is refused."""
    from array import array  # loaded on first use

    if n_pings > MAX_SENDS:
        raise ConfigError(f"{n_pings} pings are more than the bound of {MAX_SENDS} per run")
    if spec.capacity_hz is not None:
        raise ConfigError("time requests skip the bottleneck; an offset estimate "
                          "takes a channel without capacity")
    transit = EmulatedChannel(spec).transit
    send_ns, peer_ns, rtt_s = array("q"), array("d"), array("d")
    t = 0.0
    attempts = 0
    while len(rtt_s) < n_pings and attempts < 10 * n_pings:
        attempts += 1
        tr = transit(t)
        if tr.ack_s is not None:
            send_ns.append(seconds_to_ns(t))
            peer_ns.append(seconds_to_ns(tr.arrive_fwd_s + spec.peer_offset_s))
            rtt_s.append(tr.ack_s - t)
        t += spacing_s
    return offset_from_exchanges(send_ns, peer_ns, rtt_s)


# ------------------------------------------------------ closed-loop runner


class DecisionLog:
    """One closed-loop run's epoch decisions, a typed column each; row
    i is epoch i + 1, and `len()` counts the epochs. `action` holds the
    sender's shared action strings, `backlog` the packets in flight at
    the epoch end, and `t_s`, which the CSV leaves out, the end time."""

    __slots__ = ("action", "target_backlog", "rate_hz", "avg_age_s", "backlog", "t_s")

    def __init__(self):
        from array import array  # loaded on first use

        self.action: list[str] = []
        self.target_backlog = array("d")
        self.rate_hz = array("d")
        self.avg_age_s = array("d")
        self.backlog = array("q")
        self.t_s = array("d")

    def __len__(self) -> int:
        return len(self.action)


DECISION_HEADER = "epoch,action,target_backlog,rate_hz,avg_age_s,backlog"


_LOG_BLOCK = 4096  # log rows formatted per write


def _write_rows(f, rows: Iterator[str]) -> None:
    """Write DECISION_HEADER and then `rows`, each a line, to the text
    file `f`, `_LOG_BLOCK` rows per write: no more than one block of
    the log's text is held at a time."""
    from itertools import islice

    f.write(DECISION_HEADER + "\n")
    while block := "".join(islice(rows, _LOG_BLOCK)):
        f.write(block)


def write_decision_csv(f, log: DecisionLog) -> None:
    """Write the decision log as CSV to the text file `f`, a block of
    rows at a time, each row as the %-format `logcodec.DECISION_ROW` of
    its columns would spell it."""
    from .logcodec import decision_blocks  # loaded on first use

    f.write(DECISION_HEADER + "\n")
    for block in decision_blocks(log):
        f.write(block)


def write_qlearn_csv(f, res: QTrainResult) -> None:
    """Write a Q-learning run's steps to the text file `f` in the
    decision log's columns: step i is epoch i, and every step of one
    action logs the same row after its epoch number."""
    tails = [f",{Q_ACTIONS[a]},0,0,{age:.6g},0\n" for a, age in enumerate(res.action_ages)]
    _write_rows(f, (f"{i}{tails[a]}" for i, a in enumerate(res.action_history, 1)))


class PolicyRunResult(Record):
    _fields = ("trace", "decisions", "mean_inflight", "mean_rate_hz", "final_rate_hz",
               "median_age_s", "sent", "acked")

    def __init__(self, trace: AgeTrace, decisions: DecisionLog, mean_inflight: float,
                 mean_rate_hz: float, final_rate_hz: float, median_age_s: float,
                 sent: int, acked: int):
        self.trace = trace
        self.decisions = decisions
        self.mean_inflight = mean_inflight
        self.mean_rate_hz = mean_rate_hz
        self.final_rate_hz = final_rate_hz
        self.median_age_s = median_age_s
        self.sent = sent
        self.acked = acked


# what a pending event sends or does, in place of an acked packet index
_PROBE, _SEND, _EPOCH = -1, -2, -3
_PROBE_SPACING_S = 0.05
_MAX_PROBES = 10
_MEDIAN_GRID_S = 0.01  # age sampling step of the reported median


def run_rate_policy(
    sender,
    spec: EmulatedChannelSpec,
    duration_s: float,
    ewma_alpha: float = EWMA_ALPHA,
) -> PolicyRunResult:
    """Drive a closed-loop sender (`policies.Lazy`, `AcpState` or
    `ZeroWait`) over the emulated channel in virtual time.

    The loop bootstraps with probe packets (a single one for an unpaced
    sender) until the first acknowledgement initializes the smoothed
    rtt; then epochs of max(epoch floor, smoothed rtt) start, and a
    paced sender sends at its current rate.

    A run that would send more than `MAX_SENDS` packets, or end more
    than `MAX_SENDS` epochs, is refused when it reaches the bound.

    Only acknowledgements can overtake each other (under jitter or
    lognormal delay), so only on such a channel do they wait in a heap;
    elsewhere they come back in send order and wait in a FIFO. The one
    pending send, the one pending epoch and the one pending probe, whose
    time may run ahead of later acks, are (time, sequence) slots. Every
    event takes the next insertion sequence number when it is scheduled,
    and equal times fire in that order.

    A sender whose `observes` is false (Lazy, which reads none of it)
    gets None in place of each epoch's `PolicyObservation`.
    """
    if not 0 < duration_s < math.inf:
        raise ConfigError(f"duration must be positive and finite, not {duration_s:g}")
    if (spec.fwd_delay_s + spec.bwd_delay_s == 0 and spec.jitter_s == 0
            and spec.rtt_lognorm_median_s is None and spec.capacity_hz is None):
        raise ConfigError("closed-loop policies need a positive round trip")
    paced = sender.paced
    if not paced and (spec.loss_p > 0 or spec.loss_onset_load is not None):
        # zero-wait is the one unpaced sender
        raise ConfigError("zero-wait waits for every ack and has no loss timeout; "
                          "it needs a loss-free channel")

    from array import array  # loaded on first use

    transit = EmulatedChannel(spec).transit
    EwmaEstimator(ewma_alpha)  # refuses an alpha outside (0, 1]
    on_ack, on_epoch = sender.on_ack, sender.on_epoch
    observes = getattr(sender, "observes", True)
    epoch_floor_s = sender.epoch_floor_s
    max_sends = MAX_SENDS
    inf, nan = math.inf, math.nan
    # (time, insertion seq, packet index), taken by push(acks, ack) and
    # pop(acks). Without jitter or lognormal draws every packet takes the
    # same legs after the FIFO bottleneck, so acks come back in send order;
    # the FIFO takes about 6% off the runner time of ACP's 3,000 s `capacity_step` run
    if spec.jitter_s == 0 and spec.rtt_lognorm_median_s is None:
        acks, push, pop = deque(), deque.append, deque.popleft
    else:
        import heapq  # loaded on first use

        acks, push, pop = [], heapq.heappush, heapq.heappop
    send_at = epoch_at = inf  # inf while nothing is pending
    send_seq = epoch_seq = 0
    probe_at, probe_seq = 0.0, 0
    seq = 1
    send_s = array("d")
    ack_s = array("d")  # nan until acknowledged
    append_send, append_ack = send_s.append, ack_s.append
    sent = acked = epochs = 0
    rtt: Optional[float] = None  # the smoothed rtt, an EWMA of ewma_alpha
    newest_acked_send: Optional[float] = None
    clock = 0.0  # the integrals below run up to here
    backlog_area = epoch_backlog_area = epoch_age_area = 0.0
    epoch_acks = 0
    epoch_started = 0.0
    decisions = DecisionLog()
    log_action, log_target = decisions.action.append, decisions.target_backlog.append
    log_rate, log_age = decisions.rate_hz.append, decisions.avg_age_s.append
    log_backlog, log_t = decisions.backlog.append, decisions.t_s.append
    rate_hz: Optional[float] = None
    rate_area = 0.0
    rate_clock = 0.0

    while True:
        if send_at < epoch_at or (send_at == epoch_at and send_seq < epoch_seq):
            now, event, event_seq = send_at, _SEND, send_seq
        else:
            now, event, event_seq = epoch_at, _EPOCH, epoch_seq
        if probe_at < now or (probe_at == now and probe_seq < event_seq):
            now, event, event_seq = probe_at, _PROBE, probe_seq
        if acks:
            top = acks[0]
            if top[0] < now or (top[0] == now and top[1] < event_seq):
                now, _, event = pop(acks)
        if now > duration_s:
            break
        dt = now - clock
        if dt > 0:
            area = (sent - acked) * dt
            backlog_area += area
            epoch_backlog_area += area
            if newest_acked_send is not None:
                epoch_age_area += (clock - newest_acked_send) * dt + dt * dt / 2.0
            clock = now
        if event >= 0:  # the ack of packet `event`
            sent_at = send_s[event]
            ack_s[event] = now
            acked += 1
            epoch_acks += 1
            # EwmaEstimator.update, in its float order
            rtt = now - sent_at if rtt is None else rtt + ewma_alpha * (now - sent_at - rtt)
            if not rtt > 0.0:  # a first ack within the send time's resolution
                raise ConfigError(f"the smoothed round trip is {rtt:g} s at {now:g} s; "
                                  f"closed-loop policies need a positive round trip")
            if newest_acked_send is None or sent_at > newest_acked_send:
                newest_acked_send = sent_at
            restart = acked == 1  # the first ack starts the epochs
            new_rate = on_ack(rtt, restart)
            if restart or (not paced and sent == acked):
                send_at, send_seq = now, seq
                seq += 1
        elif event == _EPOCH:
            if epochs == max_sends:
                raise ConfigError(f"the run reached the bound of {max_sends} epochs "
                                  f"at {now:g} s of {duration_s:g} s")
            epochs += 1
            epoch_s = now - epoch_started
            avg_age = epoch_age_area / epoch_s if epoch_s > 0 else 0.0
            # ewma_rtt_s, epoch_s, avg_age_epoch_s, avg_backlog_epoch, epoch_acks
            action, target, logged_rate, new_rate = on_epoch(PolicyObservation(
                rtt, epoch_s, avg_age,
                epoch_backlog_area / epoch_s if epoch_s > 0 else 0.0,
                epoch_acks) if observes else None, rate_hz)
            log_action(action)
            log_target(target)
            log_rate(logged_rate)
            log_age(avg_age)
            log_backlog(sent - acked)
            log_t(now)
            restart = True
        else:  # a send; probes stop once the first ack is in
            if event == _PROBE:
                probe_at = inf
                if acked:
                    continue
            if sent == max_sends:
                raise ConfigError(f"the run reached the bound of {max_sends} sends "
                                  f"at {now:g} s of {duration_s:g} s")
            ack_at = transit(now).ack_s
            append_send(now)
            append_ack(nan)
            sent += 1
            if ack_at is not None and ack_at <= duration_s:
                push(acks, (ack_at, seq, sent - 1))
                seq += 1
            if event == _PROBE:
                if paced and sent < _MAX_PROBES:
                    probe_at, probe_seq = now + _PROBE_SPACING_S, seq
                    seq += 1
            elif paced:
                send_at, send_seq = now + 1.0 / rate_hz, seq
                seq += 1
            else:
                send_at = inf
            continue
        # an ack or an epoch end: a new rate, and the next epoch
        if new_rate is not None:
            if not new_rate <= MAX_RATE_HZ:  # also refuses inf and nan
                raise ConfigError(f"the sender's rate must be at most 1e9 Hz, "
                                  f"not {new_rate!r} (at {now:g} s)")
            if rate_hz is not None:
                rate_area += rate_hz * (now - rate_clock)
            rate_clock = now
            rate_hz = new_rate
        if restart:
            epoch_started = now
            epoch_age_area = epoch_backlog_area = 0.0
            epoch_acks = 0
            epoch_at = now + (rtt if rtt > epoch_floor_s else epoch_floor_s)
            epoch_seq = seq
            seq += 1

    if duration_s > clock:
        backlog_area += (sent - acked) * (duration_s - clock)
    if rate_hz is not None:
        rate_area += rate_hz * (duration_s - rate_clock)

    trace = AgeTrace.from_seconds(send_s, ack_s, t_end_ns=seconds_to_ns(duration_s))
    del send_s, ack_s, append_send, append_ack  # the trace holds the stamps now
    return PolicyRunResult(
        trace=trace,
        decisions=decisions,
        mean_inflight=backlog_area / duration_s,
        mean_rate_hz=(rate_area if paced else sent) / duration_s,
        final_rate_hz=rate_hz if rate_hz is not None else 0.0,
        median_age_s=_median_age(trace, _MEDIAN_GRID_S),
        sent=sent,
        acked=acked,
    )


_MEDIAN_CHUNK = 8_192  # deliveries per step of the median's passes


def _median_age(trace: AgeTrace, grid_s: float) -> float:
    """Median of the age sampled every `grid_s` from the first to the
    last delivery, equal to `np.median` of the float ages, without the
    grid: it holds two int64 values per delivery that owns a grid point.

    A grid point takes its age from the newest delivery at or before it,
    so each delivery owns a run of consecutive points, whose ages rise
    by the grid step `step` from the first. Age a lies in bucket
    a // step, and a run gives one age to each of its buckets. The
    bucket of a rank is the last with at most that rank of ages below
    it, found by bisection on those counts, and the age within it is the
    runs' that cover it, in order. Only the middle rank or two are
    converted to seconds, which keeps their order."""
    gen, recv = trace.delivered()
    if len(gen) < 2:
        return float("nan")
    t0, t1 = int(recv[0]), int(recv[-1])
    step = max(1, seconds_to_ns(grid_s))
    n = (t1 - t0) // step + 1
    # each owner's first age and its count of points, in chunks
    size = min(len(recv), n)  # a delivery kept owns a point
    first_age, count = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    kept = 0
    for lo in range(0, len(recv), _MEDIAN_CHUNK):
        hi = lo + _MEDIAN_CHUNK
        # the first grid point of each delivery and of the next one,
        # ceil((recv - t0) / step), or the grid's end after the last
        first = recv[lo:hi + 1] - (t0 + 1)
        first //= step
        first += 1
        if hi >= len(recv):
            first = np.append(first, n)
        owned = first[1:] - first[:-1]
        owns = owned > 0
        k = kept + int(np.count_nonzero(owns))
        age = first_age[kept:k]
        np.multiply(first[:-1][owns], step, out=age)
        age += t0
        age -= gen[lo:hi][owns]
        count[kept:k] = owned[owns]
        kept = k
    first_age, count = first_age[:kept], count[:kept]
    chunks = [slice(lo, lo + _MEDIAN_CHUNK) for lo in range(0, kept, _MEDIAN_CHUNK)]
    buckets = np.empty(min(kept, _MEDIAN_CHUNK), dtype=np.int64)

    def first_buckets(c: slice) -> np.ndarray:
        return np.floor_divide(first_age[c], step, out=buckets[:len(first_age[c])])

    def below(bucket: int) -> int:
        """The count of ages in buckets below `bucket`."""
        total = 0
        for c in chunks:
            owned = np.subtract(bucket, first_buckets(c), out=buckets[:len(first_age[c])])
            total += int(np.minimum(np.maximum(owned, 0, out=owned), count[c], out=owned).sum())
        return total

    lowest = int(first_age.min()) // step
    highest = max(int((first_buckets(c) + count[c]).max()) for c in chunks)

    def rank(k: int) -> int:
        """The age of rank k, 0-based."""
        lo, hi = lowest, highest  # no age lies below lo, more than k below hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if below(mid) <= k:
                lo = mid
            else:
                hi = mid
        k -= below(lo)
        ages = []  # in bucket lo: each covering run's age after lo - q steps
        for c in chunks:
            steps = lo - first_buckets(c)
            covers = (steps >= 0) & (steps < count[c])
            ages.append(first_age[c][covers] + steps[covers] * step)
        return int(np.partition(np.concatenate(ages), k)[k])

    mid = n // 2
    if n % 2:
        return rank(mid) / 1e9
    return (rank(mid - 1) / 1e9 + rank(mid) / 1e9) / 2
