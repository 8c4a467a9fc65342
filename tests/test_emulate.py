import numpy as np
import pytest

from aoikit.cli import parse_emulated
from aoikit.emulate import (
    EmulatedChannel,
    EmulatedChannelSpec,
    decision_csv,
    estimate_offset_emulated,
    offset_from_exchanges,
    run_rate_policy,
    run_sampler_emulated,
)
from aoikit.errors import ConfigError
from aoikit.metrics import age_floor, average_age_by_reception, mean_delay
from aoikit.policies import AcpState

from helpers import sha256_of


def test_zero_impairment_channel_is_transparent():
    ch = EmulatedChannel(EmulatedChannelSpec())
    previous = -1.0
    for t in (0.0, 0.5, 1.25, 2.0):
        tr = ch.transit(t)
        assert tr.arrive_fwd_s == t
        assert tr.ack_s == t
        assert tr.ack_s > previous
        previous = tr.ack_s


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
        offset_from_exchanges([(0, 0, 0.01)] * 9)


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
    res = run_rate_policy("zero-wait", EmulatedChannelSpec.fixed_rtt(0.08), 30.0)
    assert average_age_by_reception(res.trace) == pytest.approx(0.12, rel=1e-3)
    # sends exactly back to back
    assert res.mean_rate_hz == pytest.approx(1 / 0.08, rel=0.01)


def test_lazy_keeps_one_packet_in_flight():
    res = run_rate_policy("lazy", EmulatedChannelSpec.fixed_rtt(0.1), 60.0)
    assert 0.8 <= res.mean_inflight <= 1.2
    assert res.mean_rate_hz == pytest.approx(10.0, rel=0.05)
    assert res.final_rate_hz == pytest.approx(10.0, rel=1e-6)


def test_acp_rate_positive_and_finite_after_init():
    res = run_rate_policy(
        "acp", EmulatedChannelSpec.fixed_rtt(0.05, seed=2), 20.0,
        acp=AcpState(),
    )
    assert res.decisions
    for row in res.decisions:
        assert np.isfinite(row.rate_hz) and row.rate_hz > 0
        assert 1.0 <= row.target_backlog <= 64.0


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError):
        run_rate_policy("bang", EmulatedChannelSpec(), 1.0)


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
    preset = parse_emulated("capacity_step", 0)
    res = run_rate_policy("acp", preset, 30.0, acp=AcpState())
    got["acp/capacity_step"] = sha256_of(res.trace.gen_ns, res.trace.recv_ns,
                                         decision_csv(res.decisions))
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
