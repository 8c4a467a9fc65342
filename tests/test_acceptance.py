"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with `pytest tests/test_acceptance.py -v -s`).
Budgets are asserted where stated.
"""

import math
import time

import numpy as np
import pytest

from aoikit.emulate import (
    EmulatedChannelSpec,
    estimate_offset_emulated,
    run_rate_policy,
    run_sampler_emulated,
)
from aoikit.metrics import (
    BiasModel,
    PenaltySpec,
    age_floor,
    apply_bias,
    average_age_by_generation,
    average_age_by_reception,
    mean_delay,
    peak_age,
    penalty_bias,
    summary,
)
from aoikit.policies import (
    ACTION_RESUME,
    AcpState,
    Lazy,
    QAgent,
    train_pause_resume,
)
from aoikit.queuesim import (
    ArrivalSpec,
    ChannelModel,
    ServiceSpec,
    SimConfig,
    analytic_mm1_age,
    bottleneck_sweep,
    geometric_rates,
    simulate,
    sweep_rate,
)
from aoikit.scheduler import SchedulerConfig, simulate_scheduler
from aoikit.trace import read_csv
from aoikit.udp import EchoServer, run_sampler

from gridcheck import grid_penalty_average
from helpers import echo_ratio, random_inorder_trace, total_avg_age

S = 1_000_000_000


def _report(num: int, name: str, started: float, budget_s: float | None):
    elapsed = time.monotonic() - started
    print(f"\n[ACCEPTANCE] criterion {num:2d} ({name}): PASS ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def _sized_rng_traces(rng, count, lo, hi):
    for _ in range(count):
        n = int(round(10 ** rng.uniform(math.log10(lo), math.log10(hi))))
        yield random_inorder_trace(rng, max(lo, min(n, hi)))


def test_criterion_1_dual_form_identity():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for trace in _sized_rng_traces(rng, 1000, 2, 10_000):
        q = average_age_by_generation(trace)
        h = average_age_by_reception(trace)
        assert abs(q - h) <= 1e-9 * q
    _report(1, "dual-form identity", started, 10.0)


def test_criterion_2_bias_theorems():
    started = time.monotonic()
    rng = np.random.default_rng(1002)
    biases_s = (-10.0, 0.0, 1.0, 1000.0)
    for _ in range(100):
        trace = random_inorder_trace(rng, int(rng.integers(3, 300)))
        avg = average_age_by_reception(trace)
        peak = peak_age(trace)
        for b_s in biases_s:
            bias = BiasModel(int(b_s * S))
            shifted = apply_bias(trace, bias)
            want_avg = avg + b_s
            want_peak = peak + b_s
            assert abs(average_age_by_reception(shifted) - want_avg) \
                <= 1e-9 * abs(want_avg)
            assert abs(peak_age(shifted) - want_peak) <= 1e-9 * abs(want_peak)
            for alpha in (0.5, 3.0):
                got = penalty_bias(trace, bias, PenaltySpec("linear", alpha))
                assert got == alpha * b_s
    _report(2, "bias shift theorems", started, 10.0)


def test_criterion_3_nonlinear_penalty_bias_vs_grid():
    started = time.monotonic()
    rng = np.random.default_rng(1003)
    bias = BiasModel(int(0.05 * S))
    for _ in range(100):
        trace = random_inorder_trace(rng, int(rng.integers(5, 60)))
        shifted = apply_bias(trace, bias)
        for kind in ("exponential", "logarithmic"):
            for alpha in (0.1, 1.0):
                spec = PenaltySpec(kind, alpha)
                closed = penalty_bias(trace, bias, spec)
                oracle = grid_penalty_average(shifted, spec) \
                    - grid_penalty_average(trace, spec)
                assert closed == pytest.approx(oracle, rel=1e-6)
    _report(3, "nonlinear penalty bias vs grid oracle", started, 60.0)


def test_criterion_4_mm1_reproduction():
    started = time.monotonic()
    for rho in (0.3, 0.53, 0.8):
        cfg = SimConfig(
            ArrivalSpec("poisson", rho), ServiceSpec("exponential", 1.0),
            horizon=1_000_000, seed=42,
        )
        emp = average_age_by_reception(simulate(cfg).trace)
        assert emp == pytest.approx(analytic_mm1_age(rho, 1.0), rel=0.02)

    # 20-point load sweep, resolved more finely around the optimum
    rhos = np.concatenate([
        np.linspace(0.05, 0.42, 6),
        np.linspace(0.48, 0.58, 9),
        np.linspace(0.65, 0.95, 5),
    ])
    template = SimConfig(
        ArrivalSpec("poisson", 0.5), ServiceSpec("exponential", 1.0),
        horizon=1_000_000, seed=42,
    )
    rows = sweep_rate(template, rhos)
    k = int(np.argmin([r.avg_age_s for r in rows]))
    best_rho = float(rhos[k])
    assert 0.48 <= best_rho <= 0.58

    # empirical mean packets in system at the empirical optimum
    child = int(np.random.SeedSequence((42, k)).generate_state(1)[0])
    run = simulate(SimConfig(
        ArrivalSpec("poisson", best_rho), ServiceSpec("exponential", 1.0),
        horizon=1_000_000, seed=child,
    ))
    gen, _ = run.trace.delivered()
    lam_emp = (len(gen) - 1) / ((int(gen[-1]) - int(gen[0])) / 1e9)
    n_mean = lam_emp * mean_delay(run.trace)
    assert 1.05 <= n_mean <= 1.25
    _report(4, "memoryless-queue age reproduction", started, 300.0)


def test_criterion_5_minimum_age_formula():
    started = time.monotonic()
    spec = EmulatedChannelSpec.fixed_rtt(0.0125)
    for rate in (10.0, 140.0, 300.0):
        res = run_sampler_emulated(spec, [(rate, 10.0)])
        measured = average_age_by_reception(res.trace)
        assert measured == pytest.approx(age_floor(0.0125, rate), rel=0.02)
        if rate == 140.0:
            assert measured == pytest.approx(0.016071, rel=0.02)
    _report(5, "minimum-age formula on fixed-rtt channel", started, 120.0)


def test_criterion_6_u_shape():
    started = time.monotonic()
    model = ChannelModel()  # 130 kbit/s bottleneck
    cap = model.capacity_hz
    rates = geometric_rates(0.1 * cap, 3.0 * cap, 12)
    rows = bottleneck_sweep(model, rates, horizon=20_000, seed=1)
    ages = [r.avg_age_s for r in rows]
    k = ages.index(min(ages))
    assert 0 < k < len(ages) - 1, "minimum must be interior"
    assert ages[0] >= 2.0 * ages[k]
    assert ages[-1] >= 2.0 * ages[k]
    _report(6, "u-shaped age vs rate at a bottleneck", started, 120.0)


def test_criterion_7_q_learning_fixed_point():
    started = time.monotonic()
    agent = QAgent(seed=11)
    res = train_pause_resume(agent, 1.0, 10_000)
    target = 1 - math.exp(-1)
    assert res.values[ACTION_RESUME] == pytest.approx(target, abs=0.02)
    assert int(np.argmin(res.values)) == ACTION_RESUME
    _report(7, "pause/resume value fixed point", started, 60.0)


def test_criterion_8_lazy_invariant():
    started = time.monotonic()
    res = run_rate_policy(Lazy(), EmulatedChannelSpec.fixed_rtt(0.1), 60.0)
    assert 0.8 <= res.mean_inflight <= 1.2
    assert res.mean_rate_hz == pytest.approx(10.0, rel=0.05)
    _report(8, "lazy keeps one packet in flight", started, None)


def test_criterion_9_acp_properties():
    started = time.monotonic()
    # (a) responsiveness: capacity collapses fourfold mid-run; the
    # controller's rate must fall below the new capacity within 10
    # epochs of the step
    spec = EmulatedChannelSpec(
        fwd_delay_s=0.02, bwd_delay_s=0.02, capacity_hz=80.0,
        capacity_step_at_s=10.0, capacity_step_factor=0.25, seed=1,
    )
    state = AcpState()
    res = run_rate_policy(state, spec, 40.0)
    pre = [r for r in res.decisions if r.t_s < 10.0]
    post = [r for r in res.decisions if r.t_s >= 10.0]
    assert post, "no epochs after the step"
    assert max(r.rate_hz for r in pre) > 20.0, "step test must start hot"
    below = next((i for i, r in enumerate(post) if r.rate_hz < 20.0), None)
    assert below is not None and below < 10

    # (b) the backlog target never leaves [floor, cap]
    for r in res.decisions:
        assert state.kappa <= r.target_backlog <= state.backlog_cap

    # (c) stochastic path: the epoch controller must not trail the
    # fixed 1/rtt policy by more than 25% in median age on any seed
    for seed in range(10):
        ch = dict(rtt_lognorm_median_s=0.1, rtt_lognorm_sigma=0.4, seed=seed)
        acp = run_rate_policy(AcpState(), EmulatedChannelSpec(**ch), 30.0)
        lazy = run_rate_policy(Lazy(), EmulatedChannelSpec(**ch), 30.0)
        assert acp.median_age_s <= 1.25 * lazy.median_age_s
    _report(9, "epoch controller properties", started, 180.0)


def test_criterion_10_scheduler_ordering():
    started = time.monotonic()
    p = (0.9, 0.9, 0.3, 0.3)
    for seed in range(10):
        mw = simulate_scheduler(SchedulerConfig(4, p, policy="max-weight"), 100_000,
                                seed=seed)
        rr = simulate_scheduler(SchedulerConfig(4, p, policy="round-robin"), 100_000,
                                seed=seed)
        assert total_avg_age(mw) < total_avg_age(rr)
    totals = []
    for policy in ("round-robin", "greedy", "max-weight"):
        cfg = SchedulerConfig(4, (0.95,) * 4, policy=policy)
        totals.append(
            total_avg_age(simulate_scheduler(cfg, 100_000, seed=3))
        )
    assert max(totals) <= min(totals) * 1.05
    _report(10, "poll scheduling policy ordering", started, 60.0)


def test_criterion_11_loopback_integration(tmp_path):
    started = time.monotonic()
    srv = EchoServer().start()
    try:
        res = run_sampler(("127.0.0.1", srv.port), [(300.0, 30.0)])
    finally:
        srv.stop()
    assert res.sent == 9000
    assert echo_ratio(res) >= 0.99

    path = tmp_path / "loopback.csv"
    res.trace.write_csv(str(path))
    parsed = read_csv(str(path))
    stats = summary(parsed)
    assert stats["avg_age_recv_form_s"] > 0

    est = estimate_offset_emulated(
        EmulatedChannelSpec.fixed_rtt(0.02, peer_offset_s=0.005), 100
    )
    assert abs(est.offset_ns - 5_000_000) <= 100_000
    _report(11, "loopback echo integration", started, None)
