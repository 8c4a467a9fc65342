import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoikit import emulate
from aoikit.cli import parse_emulated
from aoikit.emulate import (
    MAX_SENDS,
    ChannelTransit,
    EmulatedChannel,
    EmulatedChannelSpec,
    _median_age,
    check_schedule,
    estimate_offset_emulated,
    offset_from_exchanges,
    run_rate_policy,
    run_sampler_emulated,
)
from aoikit.errors import ConfigError
from aoikit.metrics import age_floor, average_age_by_reception, mean_delay
from aoikit.policies import SENDERS, AcpState, Lazy, ZeroWait
from aoikit.trace import AgeTrace

from helpers import decision_text, reference_median_age, sha256_of


def test_zero_impairment_channel_is_transparent():
    ch = EmulatedChannel(EmulatedChannelSpec())
    previous = -1.0
    for t in (0.0, 0.5, 1.25, 2.0):
        tr = ch.transit(t)
        assert tr.arrive_fwd_s == t
        assert tr.ack_s == t
        assert tr.ack_s > previous
        previous = tr.ack_s


def test_dropped_transit_has_no_arrival():
    # callers, the benchmark's drop counter among them, tell a drop by
    # arrive_fwd_s and ack_s being None
    full = EmulatedChannel(EmulatedChannelSpec.fixed_rtt(0.01, capacity_hz=10.0,
                                                         buffer=0))
    lossy = EmulatedChannel(EmulatedChannelSpec.fixed_rtt(0.01, loss_p=0.5, seed=3))
    first = full.transit(0.0)
    assert first.arrive_fwd_s == pytest.approx(0.105)
    outcomes = {"overflow": [(0.01, full.transit(0.01))],  # the first is still in service
                "loss": [(0.01 * i, lossy.transit(0.01 * i)) for i in range(40)]}
    for cause, transits in outcomes.items():
        drops = [tr for _, tr in transits if tr.arrive_fwd_s is None]
        assert drops, cause
        for tr in drops:
            assert isinstance(tr, ChannelTransit)
            assert tr.ack_s is None
        for send_s, tr in transits:
            if tr.arrive_fwd_s is not None:
                assert send_s < tr.arrive_fwd_s < tr.ack_s


@pytest.mark.parametrize("kw, message", [
    (dict(capacity_hz=100.0, capacity_step_at_s=1.0, capacity_step_factor=0.0),
     "step factor"),
    (dict(capacity_hz=100.0, capacity_step_at_s=1.0, capacity_step_factor=-1.0),
     "step factor"),
    (dict(capacity_step_factor=math.inf), "step factor"),
    (dict(capacity_step_factor=math.nan), "step factor"),
    (dict(capacity_hz=100.0, buffer=-1), "buffer"),
    (dict(rtt_lognorm_median_s=0.1, rtt_lognorm_sigma=-1.0), "sigma"),
    (dict(rtt_lognorm_median_s=0.1, rtt_lognorm_sigma=math.nan), "sigma"),
    (dict(rtt_lognorm_sigma=math.inf), "sigma"),
    (dict(rtt_lognorm_median_s=math.nan), "median"),
    (dict(capacity_hz=math.nan), "capacity"),
    (dict(capacity_hz=math.inf), "capacity"),
    (dict(capacity_hz=0.0), "capacity"),
    (dict(fwd_delay_s=math.nan), "delays"),
    (dict(jitter_s=math.inf), "delays"),
    (dict(bwd_delay_s=-0.001), "delays"),
    (dict(peer_offset_s=math.nan), "offset"),
    (dict(busy_loss_p=1.5), "busy loss"),
    (dict(busy_loss_p=1.0), "busy loss"),
    (dict(busy_loss_p=-0.1), "busy loss"),
    (dict(busy_loss_p=math.nan), "busy loss"),
    (dict(panicked_loss_p=-3.0), "panicked loss"),
    (dict(panicked_loss_p=1.0), "panicked loss"),
    (dict(panicked_loss_p=math.nan), "panicked loss"),
    (dict(capacity_hz=100.0, capacity_step_at_s=math.nan), "step time"),
    (dict(capacity_hz=100.0, capacity_step_at_s=math.inf), "step time"),
    (dict(capacity_hz=100.0, capacity_step_at_s=-1.0), "step time"),
    (dict(buffer=3), "need a capacity"),
    (dict(capacity_step_at_s=1.0), "need a capacity"),
    (dict(loss_onset_load=0.5), "need a capacity"),
    (dict(rtt_lognorm_median_s=0.1, fwd_delay_s=0.01), "lognormal"),
    (dict(rtt_lognorm_median_s=0.1, jitter_s=0.001), "lognormal"),
    (dict(capacity_hz=100.0, busy_loss_p=0.1), "loss onset"),
    (dict(capacity_hz=100.0, panicked_loss_p=0.5), "loss onset"),
    (dict(capacity_hz=100.0, capacity_step_factor=0.5), "step time"),
])
def test_spec_refuses_unusable_impairments(kw, message):
    with pytest.raises(ConfigError, match=message):
        EmulatedChannelSpec(**kw)


def test_spec_accepts_range_edges():
    spec = EmulatedChannelSpec(fwd_delay_s=0.01, capacity_hz=100.0, buffer=0,
                               capacity_step_at_s=0.5, capacity_step_factor=1e-3)
    assert run_sampler_emulated(spec, [(10.0, 1.0)]).received > 0
    EmulatedChannelSpec(capacity_hz=100.0, capacity_step_at_s=0.0,
                        loss_onset_load=0.5, busy_loss_p=0.0, panicked_loss_p=0.0)
    spec = EmulatedChannelSpec(rtt_lognorm_median_s=0.02, rtt_lognorm_sigma=0.0)
    res = run_sampler_emulated(spec, [(10.0, 1.0)])
    assert set((res.trace.recv_ns - res.trace.gen_ns).tolist()) == {20_000_000}


def test_fixed_rtt_sampler_matches_minimum_age_formula():
    spec = EmulatedChannelSpec.fixed_rtt(0.0125)
    for rate in (10.0, 100.0, 140.0, 300.0):
        res = run_sampler_emulated(spec, [(rate, 5.0)])
        measured = average_age_by_reception(res.trace)
        assert measured == pytest.approx(age_floor(0.0125, rate), rel=1e-6)


def test_age_flat_over_mid_range_rates():
    # with the round trip dominating, the age barely moves across a
    # wide band of sampling rates
    spec = EmulatedChannelSpec.fixed_rtt(0.0125)
    ages = [
        average_age_by_reception(run_sampler_emulated(spec, [(r, 5.0)]).trace)
        for r in (100.0, 160.0, 220.0, 280.0, 340.0)
    ]
    mean = sum(ages) / len(ages)
    assert max(ages) <= 1.15 * mean
    assert min(ages) >= 0.85 * mean


def test_bottleneck_sampler_sweep_is_u_shaped():
    # narrowband bottleneck: 130 kbit/s moves ~15 of the default-size
    # packets per second
    cap = 130_000.0 / (8 * 1058)
    ages = []
    for rate in (0.1 * cap, 0.3 * cap, 0.8 * cap, 1.5 * cap, 3.0 * cap):
        spec = EmulatedChannelSpec(
            fwd_delay_s=0.005, bwd_delay_s=0.005, capacity_hz=cap, seed=0
        )
        res = run_sampler_emulated(spec, [(rate, 120.0)])
        ages.append(average_age_by_reception(res.trace))
    k = ages.index(min(ages))
    assert 0 < k < len(ages) - 1
    assert ages[0] > ages[k] and ages[-1] > ages[k]


# the emulated bottleneck against queuesim's, into 100 packets/s; sends
# are the sampler's, k / rate for k = 1, 2, ...
AGREEMENT_CAPACITY_HZ = 100.0
AGREEMENT_SENDS = 20_000


def _transits(rate_hz: float, n: int, **kw) -> list:
    spec = EmulatedChannelSpec(capacity_hz=AGREEMENT_CAPACITY_HZ, **kw)
    transit = EmulatedChannel(spec).transit
    return [transit(k / rate_hz) for k in range(1, n + 1)]


@pytest.mark.parametrize("rate_hz", [80.0, 137.3, 300.0, 99.99])
def test_bottleneck_departures_equal_the_busy_period_recurrence(rate_hz):
    # both compute t_k = max(A_k, t_{k-1}) + 1/cap in one float order
    from aoikit.busy_periods import departures

    n = AGREEMENT_SENDS
    want = departures(np.arange(1, n + 1) / rate_hz,
                      np.full(n, 1.0 / AGREEMENT_CAPACITY_HZ))
    got = np.array([tr.arrive_fwd_s for tr in _transits(rate_hz, n)])
    assert want is not None
    assert got.tobytes() == want.tobytes()


def _drops(rate_hz: float, k: int, n: int) -> tuple[list[int], list[int]]:
    """The 0-based indices of the packets, of n, that a buffer of k
    waiting slots drops: in the emulated channel, and in queuesim at
    capacity k."""
    from aoikit.queuesim import ArrivalSpec, ServiceSpec, SimConfig, simulate

    emulated = [i for i, tr in enumerate(_transits(rate_hz, n, buffer=k))
                if tr.arrive_fwd_s is None]
    run = simulate(SimConfig(ArrivalSpec("deterministic", rate_hz),
                             ServiceSpec("deterministic", AGREEMENT_CAPACITY_HZ),
                             capacity=k, horizon=n))
    return emulated, np.flatnonzero(run.trace.recv_ns < 0).tolist()


@pytest.mark.parametrize("rate_hz, k, n, dropped", [
    # 137.3 Hz first splits a tie the two ways near 50 s, at packet
    # 6,865; 6,800 sends stop short of it
    (137.3, 1, 6_800, 1_847),
    (101.3, 1, AGREEMENT_SENDS, 256),
    (199.1, 2, AGREEMENT_SENDS, 9_953),
    (99.1, 2, AGREEMENT_SENDS, 0),  # below capacity nothing waits
])
def test_buffer_drops_the_packets_queuesim_drops_at_capacity(rate_hz, k, n, dropped):
    # while no send coincides with a departure, both models drop alike
    emulated, simulated = _drops(rate_hz, k, n)
    assert len(emulated) == dropped
    assert emulated == simulated


def test_buffer_and_capacity_split_a_tie_the_opposite_ways():
    # at 101 Hz a send lands on a departure in exact arithmetic about
    # once a second; the two float orders put such a send on opposite
    # sides of its departure, so the models drop neighbouring packets,
    # as many as each other
    emulated, simulated = _drops(101.0, 1, AGREEMENT_SENDS)
    assert emulated[:2] == [101, 202] and simulated[:2] == [102, 203]
    assert len(emulated) == len(simulated) == 198
    split = sorted(set(emulated) ^ set(simulated))
    assert len(split) == 174
    for i, j in zip(split[::2], split[1::2]):
        assert j == i + 1 and (i in emulated) != (j in emulated)


def test_sampler_age_vanishes_at_high_rate_on_zero_rtt():
    spec = EmulatedChannelSpec()
    ages = [
        average_age_by_reception(run_sampler_emulated(spec, [(r, 2.0)]).trace)
        for r in (10.0, 100.0, 1000.0)
    ]
    assert ages[0] > ages[1] > ages[2]
    assert ages[2] == pytest.approx(1.0 / 2000.0, rel=1e-6)


def test_sampler_stats_ignore_peer_clock():
    # echo topology: both stamps are the sender's, so any peer offset
    # leaves the trace bit-identical
    base = dict(fwd_delay_s=0.01, bwd_delay_s=0.01, seed=3)
    a = run_sampler_emulated(EmulatedChannelSpec(**base), [(50.0, 4.0)])
    b = run_sampler_emulated(
        EmulatedChannelSpec(peer_offset_s=123.0, **base), [(50.0, 4.0)]
    )
    assert np.array_equal(a.trace.recv_ns, b.trace.recv_ns)


def test_deterministic_per_seed():
    spec = EmulatedChannelSpec(rtt_lognorm_median_s=0.05, seed=9, loss_p=0.1)
    a = run_sampler_emulated(spec, [(100.0, 3.0)])
    b = run_sampler_emulated(spec, [(100.0, 3.0)])
    assert np.array_equal(a.trace.recv_ns, b.trace.recv_ns)


def test_loss_schedule_rises_before_delay():
    results = []
    for rate in (30.0, 50.0, 80.0, 120.0):
        spec = EmulatedChannelSpec(
            fwd_delay_s=0.005, bwd_delay_s=0.005,
            capacity_hz=100.0, loss_onset_load=0.6, seed=4,
        )
        res = run_sampler_emulated(spec, [(rate, 20.0)])
        lost = res.sent - res.received
        delay = mean_delay(res.trace)
        results.append((rate, lost, delay))
    base_delay = results[0][2]
    assert results[0][1] == 0 and results[1][1] == 0  # relaxed
    assert results[2][1] > 0  # busy: loss present
    assert results[2][2] == pytest.approx(base_delay, rel=0.05)  # no queueing yet
    assert results[3][2] > 2 * base_delay  # panicked: queueing delay grows


# ------------------------------------------------------------------ offsets


def test_offset_recovered_on_symmetric_channel():
    spec = EmulatedChannelSpec.fixed_rtt(0.02, peer_offset_s=0.005)
    est = estimate_offset_emulated(spec, 100)
    assert est.offset_ns == pytest.approx(5_000_000, abs=100_000)


def test_offset_zero_on_zero_delay_channel():
    est = estimate_offset_emulated(EmulatedChannelSpec(), 20)
    assert est.offset_ns == 0
    assert est.confidence_s == 0.0


def test_offset_bias_equals_half_leg_asymmetry():
    # three quarters of the delay on the forward path biases the
    # estimate by (fwd - bwd) / 2 exactly
    spec = EmulatedChannelSpec(
        fwd_delay_s=0.015, bwd_delay_s=0.005, peer_offset_s=0.005
    )
    est = estimate_offset_emulated(spec, 50)
    assert est.offset_ns == pytest.approx(10_000_000, abs=1_000)


def test_offset_requires_ten_pings():
    with pytest.raises(ConfigError):
        offset_from_exchanges([0] * 9, [0.0] * 9, [0.01] * 9)


def test_offset_variance_shrinks_like_one_over_n():
    def spread(n_pings, n_trials=40):
        vals = []
        for seed in range(n_trials):
            spec = EmulatedChannelSpec.fixed_rtt(
                0.02, jitter_s=0.004, peer_offset_s=0.005, seed=seed
            )
            vals.append(estimate_offset_emulated(spec, n_pings).offset_ns)
        return np.var(vals)

    v_small, v_big = spread(12), spread(48)
    ratio = v_small / v_big
    assert 2.0 < ratio < 8.0  # nominal 4x with sampling slack


# ---------------------------------------------------------------- rtt bound
# The echo trace's age resets to the full round trip at each ack, so
# on a one-way flow it bounds the forward-path (truth) age from above.


def test_rtt_bound_equals_truth_with_zero_return_delay():
    spec = EmulatedChannelSpec(fwd_delay_s=0.01, bwd_delay_s=0.0)
    res = run_sampler_emulated(spec, [(50.0, 4.0)])
    assert average_age_by_reception(res.trace) == pytest.approx(
        average_age_by_reception(res.truth_trace), rel=1e-9
    )


def test_rtt_bound_exceeds_truth_by_return_leg_on_fixed_channel():
    spec = EmulatedChannelSpec(fwd_delay_s=0.01, bwd_delay_s=0.01)
    res = run_sampler_emulated(spec, [(50.0, 4.0)])
    est = average_age_by_reception(res.trace)
    truth = average_age_by_reception(res.truth_trace)
    assert est - truth == pytest.approx(0.01, rel=1e-6)


def test_rtt_bound_never_undershoots_truth():
    for seed in range(20):
        spec = EmulatedChannelSpec(
            rtt_lognorm_median_s=0.03, rtt_lognorm_sigma=0.6, seed=seed
        )
        res = run_sampler_emulated(spec, [(60.0, 5.0)])
        assert average_age_by_reception(res.trace) >= average_age_by_reception(
            res.truth_trace
        )


# -------------------------------------------------------------- closed loop


def test_zero_wait_steady_state_age():
    res = run_rate_policy(ZeroWait(), EmulatedChannelSpec.fixed_rtt(0.08), 30.0)
    assert average_age_by_reception(res.trace) == pytest.approx(0.12, rel=1e-3)
    # sends exactly back to back
    assert res.mean_rate_hz == pytest.approx(1 / 0.08, rel=0.01)


def test_lazy_keeps_one_packet_in_flight():
    res = run_rate_policy(Lazy(), EmulatedChannelSpec.fixed_rtt(0.1), 60.0)
    assert 0.8 <= res.mean_inflight <= 1.2
    assert res.mean_rate_hz == pytest.approx(10.0, rel=0.05)
    assert res.final_rate_hz == pytest.approx(10.0, rel=1e-6)


def test_acp_rate_positive_and_finite_after_init():
    res = run_rate_policy(AcpState(), EmulatedChannelSpec.fixed_rtt(0.05, seed=2), 20.0)
    assert len(res.decisions)
    for rate_hz, target_backlog in zip(res.decisions.rate_hz, res.decisions.target_backlog):
        assert np.isfinite(rate_hz) and rate_hz > 0
        assert 1.0 <= target_backlog <= 64.0


def test_decision_log_holds_typed_columns():
    res = run_rate_policy(Lazy(), EmulatedChannelSpec.fixed_rtt(0.05), 2.0)
    log = res.decisions
    epochs = len(decision_text(log).splitlines()) - 1
    assert epochs > 0 and len(log) == epochs
    assert log.action == ["RATE"] * epochs
    for name, typecode in (("target_backlog", "d"), ("rate_hz", "d"), ("avg_age_s", "d"),
                           ("backlog", "q"), ("t_s", "d")):
        column = getattr(log, name)
        assert isinstance(column, array) and column.typecode == typecode
        assert len(column) == epochs
    # a run with no epoch logs the header alone
    assert decision_text(emulate.DecisionLog()) == emulate.DECISION_HEADER + "\n"


def test_decision_log_is_written_a_block_at_a_time(tmp_path):
    import tracemalloc

    n = 200_000
    log = emulate.DecisionLog()
    log.action.extend(["RATE"] * n)
    for column in (log.target_backlog, log.rate_hz, log.avg_age_s):
        column.extend(i / 7.0 for i in range(n))
    log.backlog.extend(range(n))
    path = tmp_path / "d.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        tracemalloc.start()
        try:
            emulate.write_decision_csv(f, log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = path.read_text()
    assert text.count("\n") == n + 1
    assert text.endswith(f"{n},RATE,28571.3,28571.3,28571.3,{n - 1}\n")
    # the text is over 8 MB, and a list of its rows more than twice that;
    # one block of rows and its joined text take well under 2 MB
    assert len(text) > 8_000_000
    assert peak < 2_000_000


def test_offset_refuses_more_pings_than_the_send_bound(monkeypatch):
    spec = EmulatedChannelSpec.fixed_rtt(0.01)
    monkeypatch.setattr(emulate, "MAX_SENDS", 20)
    assert estimate_offset_emulated(spec, 20).n == 20
    with pytest.raises(ConfigError, match="^21 pings are more than the bound of 20 per run$"):
        estimate_offset_emulated(spec, 21)


def test_offset_sends_every_time_request_through_transit(monkeypatch):
    # time requests take the data path's legs and loss, one transit each
    calls = []
    transit = EmulatedChannel.transit

    def counting(self, send_s):
        calls.append(send_s)
        return transit(self, send_s)

    monkeypatch.setattr(EmulatedChannel, "transit", counting)
    spec = EmulatedChannelSpec.fixed_rtt(0.02, loss_p=0.3, peer_offset_s=0.005, seed=1)
    est = estimate_offset_emulated(spec, 50)
    assert est.n == 50 < len(calls)
    assert calls == pytest.approx([0.01 * k for k in range(len(calls))])


def test_offset_refuses_a_bottleneck():
    # time requests skip the bottleneck, so its settings would be ignored
    with pytest.raises(ConfigError, match="skip the bottleneck"):
        estimate_offset_emulated(EmulatedChannelSpec.fixed_rtt(0.02, capacity_hz=50.0), 20)


@pytest.mark.parametrize("schedule", [
    [], [(math.inf, 1.0)], [(math.nan, 1.0)], [(1e10, 1.0)], [(0.0, 1.0)],
    [(10.0, math.inf)], [(10.0, math.nan)], [(10.0, 0.0)], [(10.0, 1.0), (1e10, 1.0)],
    # more planned sends than MAX_SENDS
    [(1e9, 100.0)], [(1000.0, MAX_SENDS / 1000.0 + 0.5)],
    [(MAX_SENDS / 100.0, 60.0), (MAX_SENDS / 100.0, 50.0)],
])
def test_unfinishable_schedules_rejected(schedule):
    with pytest.raises(ConfigError):
        check_schedule(schedule)
    with pytest.raises(ConfigError):
        run_sampler_emulated(EmulatedChannelSpec.fixed_rtt(0.01), schedule)


def test_schedule_of_exactly_the_send_bound_accepted():
    check_schedule([(1000.0, MAX_SENDS / 1000.0)])


@pytest.mark.parametrize("policy", list(SENDERS))
def test_rate_policy_refuses_a_run_past_the_send_bound(monkeypatch, policy):
    spec = EmulatedChannelSpec.fixed_rtt(0.1)
    sent = run_rate_policy(SENDERS[policy](), spec, 5.0).sent
    monkeypatch.setattr(emulate, "MAX_SENDS", sent)
    assert run_rate_policy(SENDERS[policy](), spec, 5.0).sent == sent
    monkeypatch.setattr(emulate, "MAX_SENDS", sent - 1)
    with pytest.raises(ConfigError, match=f"^the run reached the bound of {sent - 1} "
                                          r"sends at [0-9.]+ s of 5 s$"):
        run_rate_policy(SENDERS[policy](), spec, 5.0)


@pytest.mark.parametrize("duration", [math.inf, math.nan, 0.0])
def test_rate_policy_refuses_unfinishable_duration(duration):
    with pytest.raises(ConfigError, match="duration"):
        run_rate_policy(Lazy(), EmulatedChannelSpec.fixed_rtt(0.01), duration)


def test_zero_round_trip_rejected():
    # 1/rtt is undefined; zero-wait, which would never leave time 0, is
    # tested as a CLI subprocess with a timeout
    for spec in (EmulatedChannelSpec(), EmulatedChannelSpec.fixed_rtt(0.0, peer_offset_s=1.0)):
        for sender in (Lazy(), AcpState()):
            with pytest.raises(ConfigError, match="positive round trip"):
                run_rate_policy(sender, spec, 1.0)
    # any jitter, lognormal delay or bottleneck makes the round trip positive
    for spec in (EmulatedChannelSpec(jitter_s=0.001),
                 EmulatedChannelSpec(rtt_lognorm_median_s=0.01),
                 EmulatedChannelSpec(capacity_hz=100.0)):
        assert run_rate_policy(Lazy(), spec, 1.0).acked > 0


def test_zero_wait_needs_loss_free_channel():
    # a lost packet would stall zero-wait for the rest of the run
    for spec in (EmulatedChannelSpec.fixed_rtt(0.05, loss_p=0.05),
                 EmulatedChannelSpec.fixed_rtt(0.01, capacity_hz=100.0,
                                               loss_onset_load=0.6)):
        with pytest.raises(ConfigError, match="loss-free"):
            run_rate_policy(ZeroWait(), spec, 60.0)
    # a finite buffer cannot drop it: the previous packet has left
    res = run_rate_policy(ZeroWait(), EmulatedChannelSpec.fixed_rtt(
        0.01, capacity_hz=100.0, buffer=0), 5.0)
    assert res.acked == res.sent - 1 > 0


@pytest.mark.parametrize("policy, spec", [
    # a 0.4 s round trip: a paced sender probes several times before
    # the first ack, and loses some packets on the way
    ("acp", EmulatedChannelSpec.fixed_rtt(0.4, loss_p=0.1, seed=3)),
    ("lazy", EmulatedChannelSpec.fixed_rtt(0.4, jitter_s=0.05, loss_p=0.1, seed=3)),
    ("zero-wait", EmulatedChannelSpec.fixed_rtt(0.4, capacity_hz=4.0, buffer=0)),
])
def test_rate_policy_routes_every_send_through_transit(monkeypatch, policy, spec):
    # the traced benchmark times the channel by wrapping this method, so
    # a runner that routed a send around it would empty those figures
    calls = []
    transit = EmulatedChannel.transit

    def counting(self, send_s):
        calls.append(send_s)
        return transit(self, send_s)

    monkeypatch.setattr(EmulatedChannel, "transit", counting)
    res = run_rate_policy(SENDERS[policy](), spec, 20.0)
    assert len(calls) == res.sent > 20
    probes = [t for t in calls if t < 0.4]
    assert probes == pytest.approx([0.05 * k for k in range(len(probes))])
    if policy == "zero-wait":  # an unpaced sender probes once
        assert len(probes) == 1
    else:
        assert len(probes) > 5


# --------------------------------------------------------------- median age


@settings(max_examples=80, deadline=None)
@given(
    packets=st.lists(st.tuples(st.integers(1, 20_000), st.integers(0, 100_000),
                               st.booleans()), max_size=30),
    step_ns=st.one_of(st.just(0), st.integers(1, 40)),
)
@example(packets=[], step_ns=1)
@example(packets=[(5, 3, False), (7, 1, True)], step_ns=1)
# 65,536, 65,537 and 131,073 grid points: one full chunk, one more
# point, and a third chunk of one
@example(packets=[(1, 0, False), (65_535, 0, False)], step_ns=1)
@example(packets=[(1, 0, False), (65_536, 0, False)], step_ns=1)
@example(packets=[(1, 0, False), (65_536, 7, True), (65_536, 0, False)], step_ns=1)
def test_median_age_equals_reference(packets, step_ns):
    gen = np.cumsum([gap for gap, _, _ in packets], dtype=np.int64)
    recv = [None if lost else int(g) + delay
            for g, (_, delay, lost) in zip(gen, packets)]
    trace = AgeTrace.from_arrays(np.arange(len(packets)), gen, recv)
    got = _median_age(trace, step_ns / 1e9)
    want = reference_median_age(trace, step_ns / 1e9)
    if len(trace.delivered()[0]) < 2:
        assert math.isnan(got) and math.isnan(want)
    else:
        assert got == want


def test_median_age_equals_reference_on_random_traces():
    # longer traces than the property draws, so the ranks next to the
    # median hold distinct ages
    rng = np.random.default_rng(0)
    for _ in range(150):
        n = int(rng.integers(2, 120))
        gen = np.cumsum(rng.integers(1, 3_000, n))
        recv = gen + rng.integers(0, 20_000, n)
        lost = rng.random(n) < 0.1
        trace = AgeTrace.from_arrays(np.arange(n), gen,
                                     [None if x else int(r) for r, x in zip(recv, lost)])
        for step_ns in (1, 2, 7, 1_000):
            got = _median_age(trace, step_ns / 1e9)
            want = reference_median_age(trace, step_ns / 1e9)
            assert got == want or (math.isnan(got) and math.isnan(want))


# ------------------------------------------------------------ golden digests


def _golden_sampler_runs():
    # a 100 packets/s bottleneck loaded past capacity in every run, so
    # the backlog grows, overflows or switches loss regime
    bottleneck = dict(fwd_delay_s=0.01, bwd_delay_s=0.01, capacity_hz=100.0, seed=1)
    return {
        "infinite": (EmulatedChannelSpec(**bottleneck), [(300.0, 3.0)]),
        "buffer": (EmulatedChannelSpec(buffer=5, jitter_s=0.002, **bottleneck),
                   [(150.0, 3.0)]),
        "loss-schedule": (EmulatedChannelSpec(loss_onset_load=0.6, **bottleneck),
                          [(40.0, 2.0), (80.0, 2.0), (150.0, 2.0), (50.0, 2.0)]),
        "capacity-step": (EmulatedChannelSpec(capacity_step_at_s=1.5,
                                              capacity_step_factor=0.25,
                                              loss_p=0.05, **bottleneck),
                          [(60.0, 4.0)]),
    }


def test_emulated_golden_digests():
    # sha256 of the echo and truth traces, pinned before the bottleneck
    # backlog was rewritten
    got = {}
    for name, (spec, schedule) in _golden_sampler_runs().items():
        res = run_sampler_emulated(spec, schedule)
        got[name] = sha256_of(res.trace.gen_ns, res.trace.recv_ns,
                              res.truth_trace.recv_ns, f"{res.sent},{res.received}")
    preset = parse_emulated("capacity_step", 0, "acp")
    res = run_rate_policy(AcpState(), preset, 30.0)
    got["acp/capacity_step"] = sha256_of(res.trace.gen_ns, res.trace.recv_ns,
                                         decision_text(res.decisions))
    assert got == EMULATED_GOLDEN


EMULATED_GOLDEN = {
    "infinite":
        "b311e7620f4f9c1220cd0bbb5efed40063bd1d13b4252e308fe28604d328515c",
    "buffer":
        "3e0c4e49249e024a4c50d5011682fc2a9afb9fb4e2997f057c5e1a3d9e52edf1",
    "loss-schedule":
        "9738a62b3ee5ee685b00e069dcc0a8272de5b20a089bc2b0b072fa216d77e6e2",
    "capacity-step":
        "dde31eb5da8905cecb939e1c18cee16e913668bcd7807712ff72c47372bdffe8",
    "acp/capacity_step":
        "c8072bd00829eb1bce0e15cedd708bb851f9974f019ebfc857243b13d9acb75a",
}


def _golden_policy_channels():
    # the grid every closed-loop policy is pinned on; zero-wait runs
    # only on the loss-free ones
    return {
        "fixed-50ms": EmulatedChannelSpec.fixed_rtt(0.05, seed=1),
        "jitter-5ms": EmulatedChannelSpec.fixed_rtt(0.005, jitter_s=0.001, seed=1),
        "lognormal": EmulatedChannelSpec(rtt_lognorm_median_s=0.1,
                                         rtt_lognorm_sigma=0.4, seed=1),
        "capacity-step": parse_emulated("capacity_step", 1, "acp"),
        "loss": EmulatedChannelSpec.fixed_rtt(0.05, loss_p=0.05, seed=1),
        "buffer": EmulatedChannelSpec.fixed_rtt(0.01, capacity_hz=100.0, buffer=3,
                                                jitter_s=0.002, seed=1),
        "loss-schedule": EmulatedChannelSpec.fixed_rtt(0.01, capacity_hz=100.0,
                                                       loss_onset_load=0.6, seed=1),
    }


def _golden_policy_runs():
    channels = _golden_policy_channels()
    lossless = ("fixed-50ms", "jitter-5ms", "lognormal", "capacity-step", "buffer")
    for duration in (0.3, 30.0):  # 0.3 s ends inside the probe phase on some
        for name, spec in channels.items():
            yield f"lazy/{name}/{duration}", Lazy(), spec, duration
            yield f"acp/{name}/{duration}", AcpState(), spec, duration
        for name in lossless:
            yield f"zero-wait/{name}/{duration}", ZeroWait(), channels[name], duration
        yield (f"acp-slow/capacity-step/{duration}",
               AcpState(kappa=0.5, epoch_floor_s=0.02), channels["capacity-step"],
               duration)
    # dyadic round trips, service times and epoch floors: send, ack and
    # epoch times coincide exactly in floating point, so these runs pin
    # the rule that equal times fire in the order they were scheduled
    dyadic = {
        "dyadic": EmulatedChannelSpec.fixed_rtt(2**-6, seed=1),
        "dyadic-bottleneck": EmulatedChannelSpec.fixed_rtt(2**-7, capacity_hz=64.0,
                                                           seed=1),
    }
    for duration in (0.25, 4.0):
        for name, spec in dyadic.items():
            yield f"lazy/{name}/{duration}", Lazy(), spec, duration
            yield f"acp/{name}/{duration}", AcpState(epoch_floor_s=2**-6), spec, duration
            yield f"zero-wait/{name}/{duration}", ZeroWait(), spec, duration
    # a probe skipped after the first ack still advances the integrals'
    # clock: dropping that step changes the last bit of mean_inflight here
    early = EmulatedChannelSpec(rtt_lognorm_median_s=0.1, rtt_lognorm_sigma=0.4, seed=0)
    yield "lazy/lognormal-seed0/0.2", Lazy(), early, 0.2
    yield "acp/lognormal-seed0/0.2", AcpState(), early, 0.2


def test_policy_golden_digests():
    # sha256 of traces, decision log and every result figure, pinned
    # before the policies moved behind one interface (the dyadic runs:
    # before the runner kept only acks in its heap)
    got = {}
    for key, sender, spec, duration in _golden_policy_runs():
        res = run_rate_policy(sender, spec, duration)
        figures = (res.mean_inflight, res.mean_rate_hz, res.final_rate_hz,
                   res.median_age_s, res.sent, res.acked,
                   list(res.decisions.t_s))
        got[key] = sha256_of(res.trace.gen_ns, res.trace.recv_ns,
                             decision_text(res.decisions), repr(figures))
    assert got == POLICY_GOLDEN


POLICY_GOLDEN = {
    "lazy/fixed-50ms/0.3":
        "454e142012cb72359d7492d0a040d745853a37213da3f238849f7f19587dd667",
    "acp/fixed-50ms/0.3":
        "e7702161bd7154d3d489727d011e7b59e6b6794274899d1d7303d8356d1880db",
    "lazy/jitter-5ms/0.3":
        "cd44e8e8da1bbe78a6916c483ac45cba051f05eb34dd014f038ec4286269bfb8",
    "acp/jitter-5ms/0.3":
        "9e49b836c8725acdbe031728e558676e5bfd927b30bebb0fab59eb4025e79ad0",
    "lazy/lognormal/0.3":
        "8284a6a544124b72218a7738abebba2457a72455e102913e6f569af31da69252",
    "acp/lognormal/0.3":
        "56bb8ce78d7a2cf76f2474a89b65cc6dec5b2c00c0f5db358d1f6417605ec096",
    "lazy/capacity-step/0.3":
        "a205ae5cf0c79250868e7283dd2cc4ec83dbc8b97b87a62f68916259ae034502",
    "acp/capacity-step/0.3":
        "a80c2b136a4490e9292f4ffe8dfa97b4eeb314d398536e7435d84dc49e27b40d",
    "lazy/loss/0.3":
        "454e142012cb72359d7492d0a040d745853a37213da3f238849f7f19587dd667",
    "acp/loss/0.3":
        "e7702161bd7154d3d489727d011e7b59e6b6794274899d1d7303d8356d1880db",
    "lazy/buffer/0.3":
        "b9e98e0db80f7a9bce9766e8d9417ee62f4cfb466f10568bf448796b5b5a7df0",
    "acp/buffer/0.3":
        "e187c108fa3ab9dfbc547951440a345b84c21f170371b92a330d49bca20d31f0",
    "lazy/loss-schedule/0.3":
        "d2b19d64f4301fa63ad2afefabf4a33e8e659f70ae40f5625bf14e91bfe85356",
    "acp/loss-schedule/0.3":
        "4a24aa031f0f5009a06bf5647d470145cacbe3af827e0a84c0eb32329360a5df",
    "zero-wait/fixed-50ms/0.3":
        "ce77cc1a76a67053dedc7be6818e82da7d63536e66fb7b25744eff649648e01b",
    "zero-wait/jitter-5ms/0.3":
        "63670a9a79a8f9efc720d25f350aa845daccd78e82eb5cb6f7deebd6c372e751",
    "zero-wait/lognormal/0.3":
        "49f9d80d907f9c5e022be709117cad48843538677941f2698ebc54917397cda4",
    "zero-wait/capacity-step/0.3":
        "3e38be15558b0da8e74bf3500040612d1f3659f54ce13e6ba724f1a8e97297c1",
    "zero-wait/buffer/0.3":
        "97b122c4093f269d88a2c32210b353bea55240aa29c92e742e007b509b710059",
    "acp-slow/capacity-step/0.3":
        "451c2d2205a746ca09ef54abd95ca3a4ae4dd387c03452c85503203336b57030",
    "lazy/fixed-50ms/30.0":
        "2f07c019fc5f5d516396aabfdc3f5a2c01c66c4957aba22c2116bb2cb4f49f21",
    "acp/fixed-50ms/30.0":
        "77249860dc65b4644d7422952e8600ec86a85b0fa140000e5c0b927456c1d744",
    "lazy/jitter-5ms/30.0":
        "f1797af0428665e6592be2d088505a618c25fb8c16a4a30318e4fee4554cde6d",
    "acp/jitter-5ms/30.0":
        "2c2661dade281ac75dbb3562d05cdc11f8b2f99518a323fffe5541cc3d445f58",
    "lazy/lognormal/30.0":
        "696e87b10484828f5c249e5833abb39f53c5bd73d04409c53a4ac33a6ae35ef5",
    "acp/lognormal/30.0":
        "0ad2de084078da0164db52fde524eab3c92e55e2fd280910ec6c9940ae8cdea3",
    "lazy/capacity-step/30.0":
        "cae77dc364215a4032b8cf7ea66f9d802120ee010e1763c0a1e82b1e553d06e9",
    "acp/capacity-step/30.0":
        "f389ffda301ff88a84dae9cef58dd18e824864829f897a23443b488de45f9622",
    "lazy/loss/30.0":
        "deff15c7bd2936e809fe7c1f66bc317e6605f5907ff5643d9345394666e65747",
    "acp/loss/30.0":
        "83e8d5a99012e5b49a8b2cba457ab28fac09740269b30cc093350f5caf9dee73",
    "lazy/buffer/30.0":
        "0f97a138f5c7f832543f759dc9736080acbf13ac68ec3515f41d4ac90dfb9c90",
    "acp/buffer/30.0":
        "bb6f0ee6d5d563afb4d87ef061c65ed8168020899d275f51cf89face5087024e",
    "lazy/loss-schedule/30.0":
        "87aaadb9fc0ee5c5ac6d98f8aef39a8c46510af6c8593d4fed34bb2f31cd131f",
    "acp/loss-schedule/30.0":
        "4bc91d9c86e15d30c6fc2a441388b467b94784f7b0e1f3cbc4de05874e00be57",
    "zero-wait/fixed-50ms/30.0":
        "e18df87acfa9594ebcfa51e5597ba57809d130119eb5a729ed8ebbceed930d2c",
    "zero-wait/jitter-5ms/30.0":
        "d2accb870ca8ae4dc5260516a9a9b076dbc693abdd8b3c18e35d5c08a786ed7a",
    "zero-wait/lognormal/30.0":
        "4a2d791f98257d1761c69fc2e0b997c895cc22ff0c80321a9960b4db00d10753",
    "zero-wait/capacity-step/30.0":
        "0fe0db3f2b4717ccdcb07077f58f3722b130f51d89c5ed08a0ba7fecae77f229",
    "zero-wait/buffer/30.0":
        "0543f231a5cd3615397eb722c8d5114886e39266b229467b4c8aeaf3fa8d1cc9",
    "acp-slow/capacity-step/30.0":
        "80fb6c94b32024d46d7bb4359944e926d23660cf73a8c9f815759f0d56180ef9",
    # pinned before the runner kept only acks in its heap
    "lazy/dyadic/0.25":
        "6af80d3618aa04856d30b67e633a5c78f09915e304fc3584cd41ad149fe7606f",
    "acp/dyadic/0.25":
        "3c1d417055cdb8f302a710ddd0a1e3449032b0ac3c1ea8c2899122e4e0dd160a",
    "zero-wait/dyadic/0.25":
        "46129e6aad5b7c9d14653e6d2593f4f8388c9b5de8e2ef21ba886dc1f7eddb79",
    "lazy/dyadic-bottleneck/0.25":
        "8ae26705db057b3179117e2d81812fd043d72d584fa0d1825e07656b26cc892d",
    "acp/dyadic-bottleneck/0.25":
        "201e0ba6b448928a3ebf6c78b97474b6b53f28c00f507aeb11e79e12d260b979",
    "zero-wait/dyadic-bottleneck/0.25":
        "da12a2902d6bb839fe7caf1048fec2b0ca12f8e56c632ffbeed9b7d14e997222",
    "lazy/dyadic/4.0":
        "d22d89b8b2b41bf2cbf9ae6e27381fe2369f2ba6996986ead2392b118c12ef97",
    "acp/dyadic/4.0":
        "b5559f0756c28ad78df063bb65a7b1e5bca7dfa1db853c29234d815584b1aea2",
    "zero-wait/dyadic/4.0":
        "43f58b2716ca68330424a749f37ac268925a8511c3b93d135b3cd459af5556f1",
    "lazy/dyadic-bottleneck/4.0":
        "3a15460da706c962630ede374b5718b236638d059073001e476430c092242f71",
    "acp/dyadic-bottleneck/4.0":
        "b94df8c1e959da004d6250c8d5825ca7e81bf9989d179218053e331050acc946",
    "zero-wait/dyadic-bottleneck/4.0":
        "a0d4417e52246ffe684317c91338ea9126573914289f3c34b79712982255a5e7",
    # also recorded with the runner before the ack-only heap
    "lazy/lognormal-seed0/0.2":
        "5ed1724c59c720a85170ec791f8e05ece6d5b33770fb42a8c86d2338e013ce52",
    "acp/lognormal-seed0/0.2":
        "408296153a15e8f4bbe9924dd694e912694fdd6c44d3b3a44787c8d74c31c4f7",
}


def _golden_draw_runs():
    # every run draws more than one 4096-value block from the jitter,
    # lognormal or loss stream
    lossy_jitter = EmulatedChannelSpec.fixed_rtt(0.02, jitter_s=0.004, loss_p=0.2,
                                                 peer_offset_s=0.005, seed=2)
    lognormal = EmulatedChannelSpec(rtt_lognorm_median_s=0.03, rtt_lognorm_sigma=0.6,
                                    peer_offset_s=-0.002, loss_p=0.05, seed=4)
    yield "offset/lossy-jitter", estimate_offset_emulated, lossy_jitter, 4_000
    yield "offset/lognormal", estimate_offset_emulated, lognormal, 4_500
    yield ("sampler/lognormal-loss", run_sampler_emulated,
           EmulatedChannelSpec(rtt_lognorm_median_s=0.05, rtt_lognorm_sigma=0.5,
                               loss_p=0.1, seed=7), [(1000.0, 5.0)])
    yield ("sampler/jitter-loss", run_sampler_emulated,
           EmulatedChannelSpec.fixed_rtt(0.01, jitter_s=0.003, loss_p=0.03,
                                         capacity_hz=2000.0, buffer=2, seed=8),
           [(1500.0, 2.0), (2500.0, 2.0)])


def test_channel_draw_golden_digests():
    # sha256 of ping offset estimates and sampler traces, pinned before
    # the channel drew its impairments in blocks
    got = {}
    for key, run, spec, arg in _golden_draw_runs():
        res = run(spec, arg)
        if run is estimate_offset_emulated:
            got[key] = sha256_of(np.array(res.rtt_samples_s),
                                 repr((res.offset_ns, res.confidence_s, res.n)))
        else:
            got[key] = sha256_of(res.trace.gen_ns, res.trace.recv_ns,
                                 res.truth_trace.recv_ns, f"{res.sent},{res.received}")
    assert got == DRAW_GOLDEN


DRAW_GOLDEN = {
    "offset/lossy-jitter":
        "0b2f2d5b11052ec8d69d2ae1eed313a3260b754dc0bcf9ce7d91ee0bf9948031",
    "offset/lognormal":
        "ea3fcdc3d8cfa1964645104ee315e1af5a234ccc4b4a07c1b86d3b74c03299f2",
    "sampler/lognormal-loss":
        "b586a48c4ae799d03bd45c99a6e32fd6af1553840c77e8160c1a137094ea9d7e",
    "sampler/jitter-loss":
        "b2b84c212805540d3ede7a6ff9a33b048423668037e48c006bd7dc4f41be4ad3",
}


# the benchmark's closed-loop policy commands (bench/workloads.py) with
# their channels and lengths; bench/golden.json pins them at seed 0 only
BENCH_POLICY_COMMANDS = {
    "acp": ["--name", "acp", "--emulated", "capacity_step", "--duration", "3000"],
    "lazy": ["--name", "lazy", "--emulated", "fixed_rtt=5ms,jitter=1ms",
             "--duration", "300"],
    "zero-wait": ["--name", "zero-wait", "--emulated", "fixed_rtt=5ms",
                  "--duration", "150"],
    "qlearn": ["--name", "qlearn", "--emulated", "fixed_delay=1s", "--iters", "50000"],
}


def test_benchmark_policy_commands_golden_digests_past_seed_0(tmp_path, capsys,
                                                               monkeypatch):
    # sha256 of stdout, the trace CSV and the decision log, pinned
    # before the decision log was formatted in one pass
    from aoikit.cli import main

    monkeypatch.chdir(tmp_path)
    got = {}
    for seed in (1, 2):
        for name, argv in BENCH_POLICY_COMMANDS.items():
            assert main(["policy", *argv, "--seed", str(seed), "--out", "p"]) == 0
            files = ("p.decisions.csv",) if name == "qlearn" else (
                "p.trace.csv", "p.decisions.csv")
            got[f"{name}/seed{seed}"] = sha256_of(
                capsys.readouterr().out, *((tmp_path / f).read_text() for f in files))
    assert got == BENCH_POLICY_GOLDEN


# acp's and zero-wait's channels draw nothing, so their seeds agree
BENCH_POLICY_GOLDEN = {
    "acp/seed1":
        "246b5c2ed7121443b2f7990169cf6f51b5fd292b698ea5db732512475ba9f403",
    "lazy/seed1":
        "576f1dc2ea63bc4865a0223a23b4c7bdc0bb4c3bc5f76125106944e9bb6fcfc8",
    "zero-wait/seed1":
        "ab0d53f6e369725f1bef93e277f0539ba6079f34fb4474b1459eecc350f2fd04",
    "qlearn/seed1":
        "88d0b0b7dac0359f7eda49e4678bd62a89a741461aaf60292aa935ac106d9394",
    "acp/seed2":
        "246b5c2ed7121443b2f7990169cf6f51b5fd292b698ea5db732512475ba9f403",
    "lazy/seed2":
        "975e85ade7ed782d7f6c008b37c91a54c3585dc28b303df367e7a2a01ae617bd",
    "zero-wait/seed2":
        "ab0d53f6e369725f1bef93e277f0539ba6079f34fb4474b1459eecc350f2fd04",
    "qlearn/seed2":
        "948085ee243bf5c1431ce252ded86f09b8100a7cc97b268cdff61082c82d3018",
}
