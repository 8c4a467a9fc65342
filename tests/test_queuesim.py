from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoikit import busy_periods, queuesim
from aoikit.errors import ConfigError
from aoikit.metrics import average_age_by_reception
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

from helpers import sha256_of


def mm1(rho, n=100_000, seed=0, **kw):
    return SimConfig(
        ArrivalSpec("poisson", rho),
        ServiceSpec("exponential", 1.0),
        horizon=n,
        seed=seed,
        **kw,
    )


def test_deterministic_no_queue_average_age():
    cfg = SimConfig(
        ArrivalSpec("deterministic", 1.0),
        ServiceSpec("deterministic", 2.0),
        horizon=4000,
    )
    run = simulate(cfg)
    # service delay D plus half the sampling period
    assert average_age_by_reception(run.trace) == pytest.approx(1.0, rel=1e-9)


def test_identical_seed_gives_bit_identical_trace():
    for cfg in (
        mm1(0.7, n=20_000, seed=9),
        mm1(2.0, n=20_000, seed=9, discipline="lcfs1"),
        mm1(0.7, n=20_000, seed=9, capacity=3, loss_p=0.1),
    ):
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.trace.gen_ns, b.trace.gen_ns)
        assert np.array_equal(a.trace.recv_ns, b.trace.recv_ns)
        assert a.meta == b.meta


def test_different_seed_changes_trace():
    a = simulate(mm1(0.7, n=1000, seed=1))
    b = simulate(mm1(0.7, n=1000, seed=2))
    assert not np.array_equal(a.trace.recv_ns, b.trace.recv_ns)


def test_fcfs_preserves_order_and_never_overlaps_service():
    run = simulate(mm1(0.8, n=50_000, seed=3))
    gen, recv = run.trace.delivered()
    assert run.trace.obsolete_count == 0
    assert len(gen) == 50_000
    assert np.all(np.diff(gen) > 0)
    assert np.all(np.diff(recv) >= 0)
    # departures spaced by at least the service times' support (>0)
    assert np.all(recv >= gen)


def test_conservation_with_bounded_buffer_and_loss():
    cfg = mm1(1.5, n=30_000, seed=4, capacity=2, loss_p=0.05)
    run = simulate(cfg)
    m = run.meta
    assert m["delivered"] + m["loss"] + m["still_queued"] == m["arrivals"]
    assert m["lost_overflow"] > 0
    assert m["lost_channel"] > 0
    assert run.trace.loss_count == m["loss"]


def test_lcfs1_keeps_only_freshest():
    cfg = SimConfig(
        ArrivalSpec("poisson", 5.0),
        ServiceSpec("deterministic", 1.0),
        discipline="lcfs1",
        horizon=20_000,
        seed=5,
    )
    run = simulate(cfg)
    assert run.trace.obsolete_count == 0  # deliveries already in gen order
    assert run.meta["discarded"] > 0
    assert run.meta["max_waiting"] <= 1  # single-slot queue
    gen, recv = run.trace.delivered()
    # deterministic service: each delivered packet was the newest
    # generation present when its service started
    starts = recv - int(1e9)
    all_gens = run.trace.gen_ns
    for g, s in zip(gen[1:50], starts[1:50]):
        newest = all_gens[all_gens <= s].max()
        assert g == newest


def test_lcfs1_age_monotone_in_rate():
    ages = []
    for lam in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        run = simulate(mm1(lam, n=150_000, seed=7, discipline="lcfs1"))
        ages.append(average_age_by_reception(run.trace))
    assert all(b <= a * 1.01 for a, b in zip(ages, ages[1:]))
    # service-limited floor for unit-rate memoryless service is 2.0
    assert ages[-1] == pytest.approx(2.0, rel=0.05)


def test_unstable_config_is_flagged_and_age_grows():
    run = simulate(mm1(1.2, n=20_000, seed=8))
    assert run.meta["unstable"] == 1
    ages = [
        average_age_by_reception(simulate(mm1(1.2, n=n, seed=8)).trace)
        for n in (5_000, 20_000, 80_000)
    ]
    assert ages[0] < ages[1] < ages[2]
    assert simulate(mm1(0.5, n=1000)).meta["unstable"] == 0


def test_mm1_analytic_values():
    assert analytic_mm1_age(0.5, 1.0) == pytest.approx(3.5)
    # optimum sits near 0.53 with about 1.13 packets in the system
    rhos = np.linspace(0.4, 0.7, 2001)
    ages = [analytic_mm1_age(r, 1.0) for r in rhos]
    best = rhos[int(np.argmin(ages))]
    assert best == pytest.approx(0.531, abs=0.002)
    assert best / (1 - best) == pytest.approx(1.13, abs=0.01)
    with pytest.raises(ConfigError):
        analytic_mm1_age(1.0, 1.0)
    with pytest.raises(ConfigError):
        analytic_mm1_age(-0.1, 1.0)


def test_simulation_tracks_analytic_oracle():
    run = simulate(mm1(0.53, n=200_000, seed=42))
    emp = average_age_by_reception(run.trace)
    assert emp == pytest.approx(analytic_mm1_age(0.53, 1.0), rel=0.05)


def test_zero_wait_arrivals():
    cfg = SimConfig(
        ArrivalSpec("zero-wait"),
        ServiceSpec("deterministic", 2.0),
        horizon=4000,
    )
    run = simulate(cfg)
    assert average_age_by_reception(run.trace) == pytest.approx(0.75, rel=1e-6)


def test_at_will_hook_controls_waiting():
    cfg = SimConfig(
        ArrivalSpec("at-will", hook=lambda i, t: 0.5),
        ServiceSpec("deterministic", 2.0),
        horizon=2000,
    )
    run = simulate(cfg)
    gen, recv = run.trace.delivered()
    gaps = np.diff(gen) / 1e9
    assert gaps == pytest.approx(np.full(len(gaps), 1.0), rel=1e-9)


@pytest.mark.parametrize("wait", [float("inf"), float("nan")])
def test_at_will_hook_refuses_a_wait_that_is_not_a_number_or_infinite(wait):
    # inf used to end the run after one arrival, and nan counted as zero
    cfg = SimConfig(
        ArrivalSpec("at-will", hook=lambda i, t: 0.5 if i < 3 else wait),
        ServiceSpec("deterministic", 2.0),
        horizon=100,
    )
    with pytest.raises(ConfigError, match=rf"wait of {wait!r} after packet 3"):
        simulate(cfg)


def test_at_will_hook_negative_waits_count_as_zero():
    def run(wait):
        return simulate(SimConfig(ArrivalSpec("at-will", hook=lambda i, t: wait),
                                  ServiceSpec("deterministic", 2.0), horizon=100))
    zero = run(0.0)
    for wait in (-1.0, float("-inf")):
        got = run(wait)
        assert got.meta == zero.meta
        assert np.array_equal(got.trace.recv_ns, zero.trace.recv_ns)


def test_sweep_single_rate_matches_simulate():
    cfg = mm1(0.5, n=5000, seed=11)
    rows = sweep_rate(cfg, [0.5])
    assert len(rows) == 1
    assert rows[0].rate_hz == 0.5
    assert rows[0].loss == 0
    assert rows[0].avg_age_s > 0


def test_sweep_requires_rates():
    with pytest.raises(ConfigError):
        sweep_rate(mm1(0.5), [])


def test_lcfs1_high_rate_tail_below_fcfs():
    model = ChannelModel()
    rates = [2.5 * model.capacity_hz, 3.0 * model.capacity_hz]
    fcfs = bottleneck_sweep(model, rates, horizon=15_000, seed=2)
    lcfs = bottleneck_sweep(model, rates, horizon=15_000, seed=2,
                            discipline="lcfs1")
    for f_row, l_row in zip(fcfs, lcfs):
        assert l_row.avg_age_s <= f_row.avg_age_s


def test_channel_regimes_loss_rises_before_delay():
    model = ChannelModel()
    cap = model.capacity_hz
    # relaxed below the loss onset, busy below load 1, panicked beyond
    assert model.loss_for_rate(0.3 * cap) == 0.0
    assert model.loss_for_rate(0.8 * cap) == model.busy_loss_p
    assert model.loss_for_rate(1.5 * cap) == model.panicked_loss_p
    rows = bottleneck_sweep(model, geometric_rates(0.2 * cap, 2.0 * cap, 10),
                            horizon=15_000, seed=3)
    base_delay = rows[0].avg_delay_s
    loss_onset = min(r.rate_hz for r in rows if r.loss > 0)
    delay_onset = min(
        (r.rate_hz for r in rows if r.avg_delay_s > 2 * base_delay),
        default=float("inf"),
    )
    assert loss_onset < delay_onset


def test_channel_threshold_ordering_enforced():
    # the loss onset must come at or before load 1, where delay starts
    with pytest.raises(ConfigError):
        ChannelModel(loss_onset_load=1.5)
    with pytest.raises(ConfigError):
        ChannelModel(loss_onset_load=0.0)


@pytest.mark.parametrize("kw, message", [
    (dict(busy_loss_p=1.5), "busy loss"),
    (dict(busy_loss_p=1.0), "busy loss"),
    (dict(busy_loss_p=-0.1), "busy loss"),
    (dict(busy_loss_p=float("nan")), "busy loss"),
    (dict(panicked_loss_p=-3.0), "panicked loss"),
    (dict(panicked_loss_p=1.0), "panicked loss"),
    (dict(panicked_loss_p=float("nan")), "panicked loss"),
])
def test_channel_loss_probabilities_must_be_in_unit_interval(kw, message):
    with pytest.raises(ConfigError, match=message):
        ChannelModel(**kw)


def test_retransmission_preset_ages_blow_up_versus_plain_loss():
    model = ChannelModel(busy_loss_p=0.3, panicked_loss_p=0.3)
    rate = 0.9 * model.capacity_hz
    plain = bottleneck_sweep(model, [rate], horizon=20_000, seed=6)[0]
    retx = bottleneck_sweep(model, [rate], horizon=20_000, seed=6,
                            retransmit=True)[0]
    # re-serving failed packets pushes the queue past capacity and the
    # age grows without bound, unlike the drop-and-forget channel
    assert retx.avg_age_s > 5 * plain.avg_age_s
    assert retx.loss == 0


def test_bad_configs_rejected():
    with pytest.raises(ConfigError):
        ArrivalSpec("poisson", 0.0)
    with pytest.raises(ConfigError):
        ServiceSpec("exponential", -1.0)
    with pytest.raises(ConfigError):
        SimConfig(ArrivalSpec("poisson", 1.0), ServiceSpec("exponential", 1.0),
                  discipline="lifo")
    with pytest.raises(ConfigError):
        ArrivalSpec("at-will")
    # an infinite rate, or one whose mean time 1/rate overflows
    for rate in (float("inf"), 1e-320, float("nan")):
        with pytest.raises(ConfigError):
            ArrivalSpec("deterministic", rate)
        with pytest.raises(ConfigError):
            ServiceSpec("deterministic", rate)
    # more arrivals than the bound, refused before any column is made
    arrival, service = ArrivalSpec("poisson", 1.0), ServiceSpec("exponential", 1.0)
    SimConfig(arrival, service, horizon=queuesim.MAX_ARRIVALS)
    for horizon in (queuesim.MAX_ARRIVALS + 1, 2**62, 2**70):
        with pytest.raises(ConfigError, match=f"^{horizon} arrivals are more than "
                                              f"the bound of 1000000000 per run$"):
            SimConfig(arrival, service, capacity=3, horizon=horizon)


@pytest.mark.parametrize("arrival,capacity", [
    (ArrivalSpec("poisson", 2.0), 5),
    # the golden grid's hook: waits of -0.3, 0, 0.3 and 0.6 s in turn
    (ArrivalSpec("at-will", hook=lambda i, t: 0.3 * (i % 4 - 1)), None),
], ids=["capacity-5", "at-will"])
def test_event_loop_holds_few_columns(arrival, capacity):
    import tracemalloc

    n = 50_000
    cfg = SimConfig(arrival, ServiceSpec("exponential", 1.0), capacity=capacity,
                    loss_p=0.1, horizon=n, seed=3)
    queuesim._simulate_events(cfg)  # numpy's first-call set-up
    tracemalloc.start()
    try:
        run = queuesim._simulate_events(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.meta["arrivals"] == n
    # two float columns through the loop, then the trace's ids, gen_ns
    # and recv_ns, each converted a block at a time; lists of every
    # arrival time and reception, and whole-column conversion
    # temporaries, took about 12 columns
    assert peak < 7 * 8 * n


# ------------------------------------------------------- busy-period path


def _same_run(a, b) -> bool:
    return (np.array_equal(a.trace.gen_ns, b.trace.gen_ns)
            and np.array_equal(a.trace.recv_ns, b.trace.recv_ns)
            and a.meta_lines() == b.meta_lines())


@settings(max_examples=60, deadline=None)
@given(
    arrival=st.sampled_from(["poisson", "deterministic"]),
    service=st.sampled_from(["exponential", "deterministic"]),
    load=st.floats(0.1, 3.0),
    discipline=st.sampled_from(["fcfs", "lcfs1"]),
    loss_p=st.sampled_from([0.0, 0.1, 0.3]),
    retransmit=st.booleans(),
    offset=st.sampled_from([0.0, 0.0125]),
    horizon=st.sampled_from([1, 2, 37, 1500, 6000]),
    seed=st.integers(0, 2**32 - 1),
)
@example("poisson", "exponential", 0.9, "fcfs", 0.3, True, 0.0125, 6000, 1)
@example("deterministic", "exponential", 1.7, "fcfs", 0.1, True, 0.0, 6000, 2)
@example("poisson", "deterministic", 0.4, "lcfs1", 0.3, True, 0.0, 6000, 3)
@example("deterministic", "deterministic", 2.9, "fcfs", 0.3, False, 0.0125, 6000, 4)
def test_busy_period_path_equals_the_event_loop(arrival, service, load, discipline,
                                                loss_p, retransmit, offset, horizon,
                                                seed):
    # 6000 arrivals with retransmission at loss 0.1 or 0.3 draw more than
    # 4096 coins and services, past one block of the loop's draws
    cfg = SimConfig(ArrivalSpec(arrival, 2.0 * load), ServiceSpec(service, 2.0),
                    discipline=discipline, loss_p=loss_p, retransmit=retransmit,
                    delivery_offset_s=offset, horizon=horizon, seed=seed)
    loop = queuesim._simulate_events(cfg)
    fast = queuesim._simulate_busy_periods(cfg)
    if fast is None:
        # only lcfs1 above capacity, an lcfs1 discard or an exact tie
        # hands a run back; ties need both times on a grid
        assert (discipline == "lcfs1" and cfg.load > 1.0 or loop.meta["discarded"] > 0
                or arrival == service == "deterministic")
    else:
        assert _same_run(fast, loop)


@pytest.mark.parametrize("rate, mu", [(2.0, 4.0), (2.0, 2.0), (4.0, 2.0), (1.0, 4.0),
                                      (0.5, 1.0), (8.0, 4.0)])
@pytest.mark.parametrize("discipline", ["fcfs", "lcfs1"])
@pytest.mark.parametrize("loss_p, retransmit", [(0.0, True), (0.25, False), (0.25, True)])
def test_dyadic_ties_take_the_event_loop_order(rate, mu, discipline, loss_p, retransmit):
    # arrivals and completions on one dyadic grid meet exactly; the loop's
    # tie order then sets max_waiting, and simulate must still equal it
    cfg = SimConfig(ArrivalSpec("deterministic", rate), ServiceSpec("deterministic", mu),
                    discipline=discipline, loss_p=loss_p, retransmit=retransmit,
                    horizon=5000, seed=3)
    run, loop = simulate(cfg), queuesim._simulate_events(cfg)
    run.meta = {k: run.meta[k] for k in loop.meta}
    assert _same_run(run, loop)


def test_dyadic_grid_reaches_both_paths():
    def fast(rate, mu, retransmit):
        cfg = SimConfig(ArrivalSpec("deterministic", rate), ServiceSpec("deterministic", mu),
                        loss_p=0.25, retransmit=retransmit, horizon=5000, seed=3)
        return queuesim._simulate_busy_periods(cfg) is not None
    assert fast(2.0, 4.0, False)
    # a retransmission ends at the next arrival, and an equal rate ties
    # every completion with an arrival
    assert not fast(2.0, 4.0, True)
    assert not fast(2.0, 2.0, False)


def test_lcfs1_hands_back_a_run_with_one_discard():
    # at seed 14 one of 200 arrivals finds a packet waiting: FCFS queues
    # it second in line, lcfs1 discards the one waiting
    cfg = SimConfig(ArrivalSpec("deterministic", 1.0), ServiceSpec("exponential", 2.0),
                    discipline="lcfs1", horizon=200, seed=14)
    fcfs = queuesim._simulate_busy_periods(replace(cfg, discipline="fcfs", loss_p=0.1))
    assert fcfs.meta["max_waiting"] == 2
    assert queuesim._simulate_busy_periods(cfg) is None
    assert simulate(cfg).meta["discarded"] == 1


def test_lcfs1_above_capacity_takes_the_event_loop_at_once():
    # even a run too short to discard; fcfs at the same load does not
    cfg = SimConfig(ArrivalSpec("deterministic", 3.0), ServiceSpec("deterministic", 2.0),
                    discipline="lcfs1", loss_p=0.1, horizon=1)
    assert queuesim._simulate_busy_periods(cfg) is None
    assert queuesim._simulate_busy_periods(replace(cfg, discipline="fcfs")) is not None


def _scalar_departures(release, svc):
    out, prev = [], -np.inf
    for r, s in zip(release.tolist(), svc.tolist()):
        prev = max(r, prev) + s
        out.append(prev)
    return np.array(out)


@pytest.mark.parametrize("start, k, release", [
    # seven services of 0.1 from 1.0 end at 1.7000000000000006, but the
    # Lindley guess reads 1.7: a release at 1.7000000000000002 looks like
    # a busy-period start and is not
    (1.0, 7, 1.7000000000000002),
    # ten from 100.1 end at 101.09999999999994 and the guess reads 101.1:
    # a release at 101.09999999999997 starts a period the guess misses
    (100.1, 10, 101.09999999999997),
])
def test_departures_refuse_a_misplaced_busy_period_start(start, k, release):
    rel = np.array([start] * k + [release, release, 200.0, 200.0])
    svc = np.full(len(rel), 0.1)
    assert busy_periods.departures(rel, svc) is None
    # released well clear of the completion before it, the same attempts
    # are summed as the scalar recurrence sums them
    rel[k:k + 2] = 150.0
    assert np.array_equal(busy_periods.departures(rel, svc), _scalar_departures(rel, svc))


def test_a_misplaced_busy_period_start_runs_the_event_loop(monkeypatch):
    # arrivals a few ulps slower than a fixed service: the Lindley guess
    # misplaces a busy-period start, and the loop runs the config
    cfg = SimConfig(ArrivalSpec("deterministic", 3.0 * (1 - 1e-14)),
                    ServiceSpec("deterministic", 3.0), loss_p=0.1, horizon=200, seed=1)
    loop, real, refused = queuesim._simulate_events(cfg), busy_periods.departures, []

    def departures(release, svc):
        t = real(release, svc)
        refused.append(t is None)
        return t
    monkeypatch.setattr(busy_periods, "departures", departures)
    taken = _paths(monkeypatch)
    run = simulate(cfg)
    assert refused == [True]
    assert taken == ["events"]
    run.meta = {k: run.meta[k] for k in loop.meta}
    assert _same_run(run, loop)


def _paths(monkeypatch):
    """Record which of simulate's three paths produced each run."""
    taken = []
    for name, label in (("_simulate_fcfs_lindley", "lindley"),
                        ("_simulate_busy_periods", "vector"),
                        ("_simulate_events", "events")):
        def spy(cfg, real=getattr(queuesim, name), label=label):
            run = real(cfg)
            if run is not None:
                taken.append(label)
            return run
        monkeypatch.setattr(queuesim, name, spy)
    return taken


# the golden configs the busy-period path runs; the loss-free fcfs ones
# with exogenous arrivals and an infinite buffer take the Lindley path
# and every other one the event loop
VECTOR_GOLDEN = {
    "poisson/fcfs/cap=None/loss", "poisson/fcfs/cap=None/retx",
    "deterministic/fcfs/cap=None/loss", "deterministic/fcfs/cap=None/retx",
    "offset/events", "bottleneck/0.3/lcfs1", "bottleneck/0.3/retx",
    "bottleneck/0.8/fcfs", "bottleneck/0.8/lcfs1",
}


def test_golden_configs_take_their_pinned_path(monkeypatch):
    configs = _golden_sim_configs()
    taken = _paths(monkeypatch)
    for name, cfg in configs.items():
        simulate(cfg)
        want = "lindley" if cfg.lindley else "vector" if name in VECTOR_GOLDEN else "events"
        assert taken.pop() == want, name


def test_benchmark_sweeps_take_their_pinned_path(monkeypatch):
    # the event-sweep workload's points: 12 rates from 1.5 to 46 Hz into
    # 130 kbit/s (15.36 packets/s) per discipline, and a Poisson sweep
    # into a capacity-5 buffer
    model = ChannelModel(bandwidth_bps=130_000.0, packet_bytes=1058)
    rates = geometric_rates(1.5, 46.0, 12)
    taken = _paths(monkeypatch)
    bottleneck_sweep(model, rates, horizon=15_000, seed=0)
    # loss-free below the loss onset
    assert taken == ["vector" if model.loss_for_rate(r) else "lindley" for r in rates]
    assert taken.count("lindley") == 6
    taken.clear()
    bottleneck_sweep(model, rates, horizon=15_000, seed=0, retransmit=True)
    assert taken == ["vector"] * 12
    taken.clear()
    bottleneck_sweep(model, rates, horizon=15_000, seed=0, discipline="lcfs1")
    # lcfs1 discards above the bottleneck's capacity
    assert taken == ["vector" if r < model.capacity_hz else "events" for r in rates]
    assert taken.count("events") == 4
    taken.clear()
    sweep_rate(mm1(1.0, n=20_000, capacity=5), [0.5, 0.8, 0.95, 1.1, 1.5, 2.0])
    assert taken == ["events"] * 6


# ------------------------------------------------------------ golden digests


def _golden_sim_configs(horizon: int = 1500) -> dict[str, SimConfig]:
    """A grid that reaches every branch of the simulator: each arrival
    kind, discipline, buffer size and loss mode, a delivery offset, and
    bottleneck points on each side of the loss onset and of load 1."""
    arrivals = {
        "poisson": ArrivalSpec("poisson", 1.3),
        "deterministic": ArrivalSpec("deterministic", 0.9),
        "zero-wait": ArrivalSpec("zero-wait"),
        # waits of -0.3 (clamped to 0), 0, 0.3 and 0.6 s in turn
        "at-will": ArrivalSpec("at-will", hook=lambda i, t: 0.3 * (i % 4 - 1)),
    }
    losses = {"clean": (0.0, False), "loss": (0.2, False), "retx": (0.2, True)}
    configs = {}
    for a_name, arrival in arrivals.items():
        for discipline in ("fcfs", "lcfs1"):
            for capacity in (None, 0, 3):
                for l_name, (loss_p, retransmit) in losses.items():
                    name = f"{a_name}/{discipline}/cap={capacity}/{l_name}"
                    configs[name] = SimConfig(
                        arrival, ServiceSpec("exponential", 1.0),
                        discipline=discipline, capacity=capacity,
                        loss_p=loss_p, retransmit=retransmit,
                        horizon=horizon, seed=17,
                    )
    for name, loss_p in (("lindley", 0.0), ("events", 0.1)):
        configs[f"offset/{name}"] = SimConfig(
            ArrivalSpec("poisson", 0.7), ServiceSpec("deterministic", 1.0),
            loss_p=loss_p, delivery_offset_s=0.0125, horizon=horizon, seed=5,
        )
    model = ChannelModel(base_rtt_s=0.02)
    for load in (0.3, 0.8, 1.0, 1.5):
        rate = load * model.capacity_hz
        for variant, kw in (("fcfs", {}), ("lcfs1", {"discipline": "lcfs1"}),
                            ("retx", {"retransmit": True})):
            configs[f"bottleneck/{load}/{variant}"] = model.sim_config(
                rate, horizon, 23, **kw)
    return configs


def test_simulate_golden_digests():
    # sha256 of gen_ns, recv_ns and the .meta text, pinned before the
    # event loop was rewritten: any change to a trace shows here
    got = {}
    for name, cfg in _golden_sim_configs().items():
        run = simulate(cfg)
        got[name] = sha256_of(run.trace.gen_ns, run.trace.recv_ns, run.meta_lines())
    assert got == SIM_GOLDEN


SIM_GOLDEN = {
    "poisson/fcfs/cap=None/clean":
        "8fb885cd7253f49676d9a5e2af549db708ad019b6030ca1de25f5caff75c1fb9",
    "poisson/fcfs/cap=None/loss":
        "21c62d01c583ed41ba5b1c1ffc4205fb47ac15219f7db7a4643dadd5caef3578",
    "poisson/fcfs/cap=None/retx":
        "66b1a2800779276c6340fb8d517fb546aa75dea09980d6f978b544bd6d6134ad",
    "poisson/fcfs/cap=0/clean":
        "ed02f0ecc2eae4da180d5ae1d5ac9ed4d5d17be45763f672eb93934830caab23",
    "poisson/fcfs/cap=0/loss":
        "751401b02ccd7ce2ddb049542c617e3757a46946e179d8e5442eb4354df5db39",
    "poisson/fcfs/cap=0/retx":
        "fd708fb7be688be92c83c68f80ecc654732e2238f0457647d81888e1b58d2ae1",
    "poisson/fcfs/cap=3/clean":
        "441a220883ef02c181bb83e4dc9b9bd5bbaaa94bf030a922ee2385ecefc3613d",
    "poisson/fcfs/cap=3/loss":
        "08fb2b041ec95e86e88a6b01c3bab5fab5fa6b09e2ea80b62bf2383c73fc11f4",
    "poisson/fcfs/cap=3/retx":
        "57128e89bd648892d95fbdf8fdd61026d722e60c8141cb2bed35cd6b070cf827",
    "poisson/lcfs1/cap=None/clean":
        "0d69fa3384561da9abe9d86abdc37325499564bd2ea9b950b69114db73352492",
    "poisson/lcfs1/cap=None/loss":
        "4cffff77633ce9da6788e5a64936185cd839bbf376928056e1f20ddbbc009802",
    "poisson/lcfs1/cap=None/retx":
        "3c708c3655306c973c12d26bbfe8c29d451eff4f57adeaf0d7142f8449eb8c33",
    "poisson/lcfs1/cap=0/clean":
        "a74ab33b6602cb39aa5502c4a811a21d470f23a084ef255ec0c2f1e8c2bbc15f",
    "poisson/lcfs1/cap=0/loss":
        "c5cfafeff320613c7a4e06b806bdd3e0c26a6a1eb49897926d94f1fa4295dbf1",
    "poisson/lcfs1/cap=0/retx":
        "d4842770aa80771963644d849b6ff0e8a22c1a4d66544e56cb7f897f7d778e20",
    "poisson/lcfs1/cap=3/clean":
        "1b2ffba3c6cb53013a9514d96fbf7ea90ae1c28ff97d587930dee662573ffc9e",
    "poisson/lcfs1/cap=3/loss":
        "a8bda1db8ec5281cc9125066ebeb4306b43666b74b101dedfe599802c50fed1b",
    "poisson/lcfs1/cap=3/retx":
        "859a8e5d54daae99d707cda9b48097095323bc851673abd6f1dcc5f3e08c42ba",
    "deterministic/fcfs/cap=None/clean":
        "d7ce1e9ddc5de819b5f5b4898a0fd749e7f3d10c743c89677e502d1aed8bc29e",
    "deterministic/fcfs/cap=None/loss":
        "9ee23e4477d03adcfe6dd419fa10540ac81f67dfa433913bba514e5350737c33",
    "deterministic/fcfs/cap=None/retx":
        "065feea31c967450c6baed727db9b5596625775eef9a2a894320ed7528a98a15",
    "deterministic/fcfs/cap=0/clean":
        "586fdbc7961cf4faba7c09286013ac2e3d739d92a472b430e059c32004ca6d8f",
    "deterministic/fcfs/cap=0/loss":
        "680ea15b223354823cdeba85444e4f40d6da525af44f83de187db16f94a514c6",
    "deterministic/fcfs/cap=0/retx":
        "6c92fba8b68ba15b5f78bd54711661566c525c9d6dbde399517888134cfbf2cd",
    "deterministic/fcfs/cap=3/clean":
        "09233dcfa74c78384c47ced81fe578370795302a4d55144a7c9c5aed8f60338a",
    "deterministic/fcfs/cap=3/loss":
        "3ba24de6486e381c21044d2c1f8bd14d61af4dadb4b8f34aa31cbfbce9473976",
    "deterministic/fcfs/cap=3/retx":
        "2a5b616911471a120dc4e9f193ffac4b7af8b8ef7465dd8c1d820d3063955fd2",
    "deterministic/lcfs1/cap=None/clean":
        "a10547081da842754dec8f47bf4fbc6fb9588d53e1c955c660b08d097e655b2c",
    "deterministic/lcfs1/cap=None/loss":
        "9b78f5ccc599b710cf359bd5c0098df09bd841298578f508b135727281ed79fc",
    "deterministic/lcfs1/cap=None/retx":
        "ce554a255716d14e4d535d8047f7fb6a6ffe6d7d554f9adac50ee26424b55669",
    "deterministic/lcfs1/cap=0/clean":
        "704e7a21d824cf1ffdab8f75e944b1f46f9e3ca88c8bdd01c62d71290a0ede91",
    "deterministic/lcfs1/cap=0/loss":
        "0b0bb7ac3b6a81fc5edce1aee29db48517e1aa616e14ba85b466b5ab82e31a0c",
    "deterministic/lcfs1/cap=0/retx":
        "39ab8292ba66bc1acbab2f17d5b9d842ad3d54a37561a42697c9faa878a4d81c",
    "deterministic/lcfs1/cap=3/clean":
        "efb6fcc635051199f1ecce00423a5fb99c1f3e30c25fda1ce0978f6d74f23bbe",
    "deterministic/lcfs1/cap=3/loss":
        "ad7de75c21a8ad2e5f9855f9f5c54bb889ad8cf9020014a4d93d02eb2b0ae06f",
    "deterministic/lcfs1/cap=3/retx":
        "2240fd2bb2975169e9c72bdc31f60f73c020979cc7ec22e1998e04c615b73f6a",
    "zero-wait/fcfs/cap=None/clean":
        "ef1680b30c9e309e50005181c800360f5145211819d8d1a8055488f01ebb5ee5",
    "zero-wait/fcfs/cap=None/loss":
        "22145bd6116f2e55916bfb05e5b748e7ce7eb681ae47d199e6a37a0a7d476ab6",
    "zero-wait/fcfs/cap=None/retx":
        "6d52666ecf966e6e8a3e62a6ff2f9b73ee311896de03fe465ab0bf16e4a5187d",
    "zero-wait/fcfs/cap=0/clean":
        "c388b494cf39d5b64342ca059bdc74554548125e01f10c983a27744c0ef18ba4",
    "zero-wait/fcfs/cap=0/loss":
        "f0162ff6d2738f138089755a0c0d9ba06a4c9f5c2083275a7b4c89be5780adbe",
    "zero-wait/fcfs/cap=0/retx":
        "71817391bfd36a9dd5988d92b5e5dfdd659206e693bc31cf1d7606111eab6c28",
    "zero-wait/fcfs/cap=3/clean":
        "756bcd90c73eb4698a026f2391dd6b9ab53036455bd0f9b2f7f81b321a366cad",
    "zero-wait/fcfs/cap=3/loss":
        "a50afbaacc3c989546bbe745c27fac59b31f777193973d98feb36960948336d8",
    "zero-wait/fcfs/cap=3/retx":
        "43b745c4ef7854baecefd502955998482f9c74fb51c2b8ef49c2b5f2d1b56f73",
    "zero-wait/lcfs1/cap=None/clean":
        "4d8c1026aae78af7c4d2249cb7d4af0a76d2d047f023d921de3d5d56c5fdf311",
    "zero-wait/lcfs1/cap=None/loss":
        "58ba34db8473b960cb1a07af7e4810adbb3186a4d3bdc0da814298194303b1af",
    "zero-wait/lcfs1/cap=None/retx":
        "b9541a981719f091069329d521c67c88539fb9455f0e62c0ecf6f8c0f945fe15",
    "zero-wait/lcfs1/cap=0/clean":
        "924dd57b3712901fe640b6f25308268648426fc69bdcd10018ee76dcb31d0782",
    "zero-wait/lcfs1/cap=0/loss":
        "284090d420912fe2a3889fa0ae8519938f6ac83281f1e67298d51d4845231668",
    "zero-wait/lcfs1/cap=0/retx":
        "6200404b9253c810457eadedb5beb62dd320756231174237a0aa312533fcbc9b",
    "zero-wait/lcfs1/cap=3/clean":
        "fbffa4c4836cae68cbaaa2e02744118d699474bdc2add2aa56c91e07f9e06040",
    "zero-wait/lcfs1/cap=3/loss":
        "2e3b6d455d04afe738740912ce4e906716260b24fda2481980ebf24df544d4f0",
    "zero-wait/lcfs1/cap=3/retx":
        "85b5f4d598b02c4a0458805ee8115f7bf3f1a9cea06ac63c0c1f4282760caf6a",
    "at-will/fcfs/cap=None/clean":
        "2c5c0220aefceaff7dbb7d9a15cba36e22633b719ce5073b10827c2a8ec622da",
    "at-will/fcfs/cap=None/loss":
        "6b57921bfb91c8f8e02d56bbcbbf4f16bca031ffc2ce43e836ee131f6c67e38f",
    "at-will/fcfs/cap=None/retx":
        "2dc43ba64daa87759b138204f0e4584082c2b571b83ec0c85503b487a981a51b",
    "at-will/fcfs/cap=0/clean":
        "7fca3050f063e0a244549025013274cc691d74d73db7654d164d17d75f6dffde",
    "at-will/fcfs/cap=0/loss":
        "21a773bc30408d5dba7cfc3ff2a7b6dcc9e37f21f4d02072660a7fabb85fc659",
    "at-will/fcfs/cap=0/retx":
        "9cbab5cc13cac1af470a0c79858811b4d3e7ca5be89eee9cc90e35568fa5b5fa",
    "at-will/fcfs/cap=3/clean":
        "d69adbd57aafeb60813e676192c9dde0b8ffbb87b30175c19343cf76aa527e1e",
    "at-will/fcfs/cap=3/loss":
        "fc98dffe64c47752a4d87c1977a2519ff4593155bc9b90e9263bba0b4c59879d",
    "at-will/fcfs/cap=3/retx":
        "f5ac2af7a8306ccaa83b807925338b068b4d264befbb1bea0ad3756c26e88860",
    "at-will/lcfs1/cap=None/clean":
        "67f24d6ed5aef8a9c706ecde48f5eac128e34b325d3d5b0d31e396181125fb80",
    "at-will/lcfs1/cap=None/loss":
        "83f8767b4a6707a7a86ef7ec41e3db473312bdbc840917e6952f1ca7f40c8e31",
    "at-will/lcfs1/cap=None/retx":
        "ac4f9fe35675faad560601bbf03333a053c8744913822dc794414ff04d8df029",
    "at-will/lcfs1/cap=0/clean":
        "1dc8c4b92fddad4d2a84bc25163ddbcaa320e98d2c17b0c5d71044cc355defd2",
    "at-will/lcfs1/cap=0/loss":
        "227013fc1a9bb8ffc4735f57024f0a86532b1daa4f567e4a9bf9ebe24c1a7c04",
    "at-will/lcfs1/cap=0/retx":
        "13fbf7ac3bcdf2b13abd8bdfb0320944de81c4598479a8ae5c7ffbd5e8ad02ac",
    "at-will/lcfs1/cap=3/clean":
        "8bd3244e4dc62c758151afe0e33f4a115dbc96f7e8ccebdf2a25b53a3155d210",
    "at-will/lcfs1/cap=3/loss":
        "8fa99437079677313c9b9a3dd5458caebdcf35838d7cb1a965f0661ed394de9f",
    "at-will/lcfs1/cap=3/retx":
        "a2dce1d5e7c23474b9967675f62ce3b5ce6a85bccfbf91c583b908d9e00bf8c6",
    "offset/lindley":
        "7791e290b2e8442da46628d7163685127a2675abe7e71b5cd929d1e8b9ebb548",
    "offset/events":
        "acd51abb0da08caf773315770d0db98dc8de6bd6fe4f85aad3c4915c776384cd",
    "bottleneck/0.3/fcfs":
        "79a786fe5df0e919c037a541e39f8cca0a97ffa705860071ebc47acb54fb01c5",
    "bottleneck/0.3/lcfs1":
        "1317931e33fbd676bef4accda51a7b0767feb87b85bf8f317b79aca133097c34",
    "bottleneck/0.3/retx":
        "e025445bc4df0481de4cf72787a7eec66b791f9bbb0b7c7e4e43d107661d301c",
    "bottleneck/0.8/fcfs":
        "2c1507652d7b0b4c5b1a4f931191d6f64df81a3f7dcd5bafb151f9c72aeb70ae",
    "bottleneck/0.8/lcfs1":
        "c60b8849577d4cc499d22652b05b9673e50bd2e07f30de2b8df387cbb44bace6",
    "bottleneck/0.8/retx":
        "f4247d2529badd49acb857b785dc115b95f1552426afe475968e4eb7ef98f915",
    "bottleneck/1.0/fcfs":
        "e4993e660ba6157a2c87d12cd2af3b682d28c01a12ff4dbc96b05e50e67f30e4",
    "bottleneck/1.0/lcfs1":
        "8a6005ed6ff184ad87264c49853b6641cbfac5ca6670634a8e907efa7fb12dfa",
    "bottleneck/1.0/retx":
        "1f0298107dcc8c0e5c22c1fb4d9f0375acbf0974d5e3cf835e854a9cf6e1dc4a",
    "bottleneck/1.5/fcfs":
        "d6b493e25960f001e44dab3906c2fa22866e8ab98809d942fb7ca3a473aa842b",
    "bottleneck/1.5/lcfs1":
        "1b71261ab8273204cc67c63e7a1f0954baa1c34e60e437a9a678a2d4c7f993af",
    "bottleneck/1.5/retx":
        "6d27a55e312d848fda42f3c987d5f7f12b7f470a8d16c72e1ad70eacea3fb53d",
}


def test_simulate_golden_digests_past_the_draw_block():
    # the same grid at a horizon where every config completes more than
    # 4096 services, so each service and loss-coin stream it draws from
    # runs past one 4096-value block; pinned before the event loop drew
    # in blocks
    got = {}
    for name, cfg in _golden_sim_configs(horizon=10_000).items():
        run = simulate(cfg)
        m = run.meta
        assert m["delivered"] + m["lost_channel"] + m["retransmissions"] > 4096, name
        got[name] = sha256_of(run.trace.gen_ns, run.trace.recv_ns, run.meta_lines())
    assert got == SIM_GOLDEN_10K


SIM_GOLDEN_10K = {
    "poisson/fcfs/cap=None/clean":
        "302f2d85b31b8fd5880c873c58be3b363b2e7f46c89ee9f6d895ad93af204291",
    "poisson/fcfs/cap=None/loss":
        "430b4ba576cc322ff86e70b6e452933a7347a53f1a055ea42f574101553f94db",
    "poisson/fcfs/cap=None/retx":
        "0c94ca9b5ee569a18b8006f24205cb97561cf63cd86fafccf80379e19dc51b9b",
    "poisson/fcfs/cap=0/clean":
        "1af708f48c96bd7cc4610313e00be145ba9facdfd59a48bf3cbc52fc88497ff3",
    "poisson/fcfs/cap=0/loss":
        "ae1aa5806c24cdf3fde88bac5c2fe4bc80dc90d095c744b85bad0b74a90621d1",
    "poisson/fcfs/cap=0/retx":
        "39d17b8447aa49c721e8124dee0e0cbd76e685c27bde03f726c1fcbb204d9af6",
    "poisson/fcfs/cap=3/clean":
        "b039d285ed473f239fce0a07693aeec02827ab04fffb348d482ac7aee05c302b",
    "poisson/fcfs/cap=3/loss":
        "26bb169d740299a84c80c192c9446d2017bb10de01d06b3800454137545a15ec",
    "poisson/fcfs/cap=3/retx":
        "7ebde4112258a085f47f5ac8f4718d5d8eeb83b4cf85c451af126bc1e66bcfbc",
    "poisson/lcfs1/cap=None/clean":
        "0286cc29781986e1bff14203eca90ad68db52517024211aa580d8b259d52e77b",
    "poisson/lcfs1/cap=None/loss":
        "9ed70c45204aef1f917a8a517fc1f0c90c5b04b4f1f3871c8e3e8437bb60f652",
    "poisson/lcfs1/cap=None/retx":
        "0c7ca40288f359dc2b8cd54d5b93e0dbac414079232a7a7727f157263f6800ea",
    "poisson/lcfs1/cap=0/clean":
        "4b072359f45a7eb71dd3fe65d5e2c4e12a61bd20691590a68c9540164aa9442d",
    "poisson/lcfs1/cap=0/loss":
        "dc18895f7dfc733fee49ca7d4d8010aa356c8954c22258b9f28a0b1ac1356c00",
    "poisson/lcfs1/cap=0/retx":
        "c347db9433fa53ff3d8ab8efd18fb37fa62fd6e76c83d23cd607efba3898e6a3",
    "poisson/lcfs1/cap=3/clean":
        "4d2d0c4fce4ba029fbb4097087b78ffd59f5587987e30252bf685835933b6e0b",
    "poisson/lcfs1/cap=3/loss":
        "acd98b0d24c5446ba53a896bb4b13ebceb38a2eaef038360e189403b86d627d6",
    "poisson/lcfs1/cap=3/retx":
        "c4374808aba00d48d989d27b0fe2e9af12157ec4449e0abd12efefe363f4824b",
    "deterministic/fcfs/cap=None/clean":
        "41844650cb5e34d5871e97786acdaa1742653cbdf4ea1afac13b9080c18b8e88",
    "deterministic/fcfs/cap=None/loss":
        "6fb063b44aff7e47f37e208494d43e556d02ba4397b2eae63c1fccba14cc4f07",
    "deterministic/fcfs/cap=None/retx":
        "d6e2e5c6628fe1612e0d3d5030aeae78fb759eee4d475b1a43351031db69145f",
    "deterministic/fcfs/cap=0/clean":
        "594e577cdbe2e28d132c47b4627227507d978ce2e338ae3a359de5ce610bc7d1",
    "deterministic/fcfs/cap=0/loss":
        "a25679c41b7bfc0c2a6aad7ee1e11fdfce1d343f5b8de89124e2a8fc24b777bb",
    "deterministic/fcfs/cap=0/retx":
        "bdf964406fb12973ad647e4b9f3992ac50208ad057546abd753facb53089af06",
    "deterministic/fcfs/cap=3/clean":
        "047d488cda28f9ef3d8295a1653514666ae2bd08d888f30cea69f5f5df39c9b4",
    "deterministic/fcfs/cap=3/loss":
        "6da8d5e75562a2dacf5885d9f3e56e240f09273f3be8e22340db2fc83a6e7d76",
    "deterministic/fcfs/cap=3/retx":
        "8d9826d0d576d20375191ffd5167d4a3f5f777e069a9b88362e253bbabf2eebc",
    "deterministic/lcfs1/cap=None/clean":
        "0531b4b6b669f5974f3c51958bb925458e49db18fac3052b3aa7574558d357d3",
    "deterministic/lcfs1/cap=None/loss":
        "ebdb0060c1a93ca3fa17e073343fe4da43e1bbca0fe2d658754ac2e82fc96c2f",
    "deterministic/lcfs1/cap=None/retx":
        "43ef4c3154d6d54b09fb4b9b575a2f8b7867d4a8dba65a76248229cca7ebee9b",
    "deterministic/lcfs1/cap=0/clean":
        "8345b5338daf941d8c8bff5aa5f29e7fd7139a4025f229d44ab186858d16fd57",
    "deterministic/lcfs1/cap=0/loss":
        "27b742e749e3bdc729f886ad617ba01afd843ba248a81674b9174b0fccf68647",
    "deterministic/lcfs1/cap=0/retx":
        "a7a4babd417bc70c4caf7c3de1686994332c260e2324c0b6498340bda3c3bb1a",
    "deterministic/lcfs1/cap=3/clean":
        "c294ae7415ee36b7ff791fe3c2754ae1c159d0b24ab32398b89ed3be32618faf",
    "deterministic/lcfs1/cap=3/loss":
        "799ec110309bb1a23e799a59ad4bbaaac0d2e40ce13712c5b6a26b5fd793dba7",
    "deterministic/lcfs1/cap=3/retx":
        "2691bb869a1367ba6b2b16a3e9ce2cc436acc2e9e5f44ba537dedfe4c0112a0f",
    "zero-wait/fcfs/cap=None/clean":
        "ae69b27aa0764392a373ae8266c06bb2323994bcbb1a5873366955bf81398b9b",
    "zero-wait/fcfs/cap=None/loss":
        "89ffcd3c1e0ac7ba11ad5c3af46ac71382f2cb569f66f479843fc20aa29abb1f",
    "zero-wait/fcfs/cap=None/retx":
        "2f48830b0b28b549acad0e55c3c41f3dcbc311556fcbf0a255d1ebc024eb50ca",
    "zero-wait/fcfs/cap=0/clean":
        "6cca49931eecc9923557d4a4566c4379db65a59e77c4d9b9a81c4ce0012d2bd3",
    "zero-wait/fcfs/cap=0/loss":
        "4268e1a49841e86a6058746870fcc89a6c9ab2c343b8aeb831997837af33a230",
    "zero-wait/fcfs/cap=0/retx":
        "565cc62192d50e756c3d811c62dc22e2b5592744d0b9a5154eeb771ed9e745d7",
    "zero-wait/fcfs/cap=3/clean":
        "e067be41e1e9236739884f032e9d5c55e6a7030a8bd916b3604f028de97c7a25",
    "zero-wait/fcfs/cap=3/loss":
        "1ed6729f2b6813a1d78323fabe63a8d92f0926dfac4faa891e358f3afc59c319",
    "zero-wait/fcfs/cap=3/retx":
        "5e676e9de7c6159c2e4ae9607cbf360fb32898e0dee780245690f16a763e8d94",
    "zero-wait/lcfs1/cap=None/clean":
        "4f12bc8ecc320c928377edf7e845a13399d339ae4dcd81b3a552b537cf080245",
    "zero-wait/lcfs1/cap=None/loss":
        "0913e61dead075b6085ba7906ad6d33b2640321659c72ab96af2726687cb7726",
    "zero-wait/lcfs1/cap=None/retx":
        "751af9f204d8e08081dc2e6787a648b60ba5b212f8ffedddc02ccdf85fb6242f",
    "zero-wait/lcfs1/cap=0/clean":
        "fb3670e5246bbfada986d7c18dcefdde60c8680f5c3455a453292c7556008921",
    "zero-wait/lcfs1/cap=0/loss":
        "c3b111fba73c431bc3dd6d817ade470f5cba9bfd7572d54def42f9c643ebaa05",
    "zero-wait/lcfs1/cap=0/retx":
        "19369c4f89ddaae0a9b9b2dd839a25f61a93a97d421584ca683fa7313f7ba1a7",
    "zero-wait/lcfs1/cap=3/clean":
        "a4f9fd398809dabe525023104873769c874ca56cef02298f85b6142ab01de7f7",
    "zero-wait/lcfs1/cap=3/loss":
        "8964742b24a0ab773601b1ed57993dd97694b4edf5e211ba9b903aa3077de832",
    "zero-wait/lcfs1/cap=3/retx":
        "c04d2b69e77829b662e884ba8678decbeed5eb37db95c8428b76dd0c670a97f2",
    "at-will/fcfs/cap=None/clean":
        "662eb335d2d94fc717fd576a397581f17a64488725b7c9cba7d1e356a7d257cf",
    "at-will/fcfs/cap=None/loss":
        "f4755504ce1b3e24808993439d6d25186cbec86aa88be1e463ebe3c5a15a65e6",
    "at-will/fcfs/cap=None/retx":
        "5b4ddc4aca4d1a04bc9a42803bc8d64018abf791fde7581c2d75c1863a6db695",
    "at-will/fcfs/cap=0/clean":
        "b71933a4abd5ea7d01f347ba84cfa645ebe11c2bc51fa5a283b4298da2a2f5e5",
    "at-will/fcfs/cap=0/loss":
        "63e990689b9c434f48bc56b08a01075262d6b908ef10e1dc6798c769c32fa930",
    "at-will/fcfs/cap=0/retx":
        "50048f4870c1730ca0bd17234283004ce6970d746dfa69475490a14e6151632a",
    "at-will/fcfs/cap=3/clean":
        "c3e70f4ba22d7a8c3aa17a1ab1c867167dc6155c5854ede36156b7af793b1dad",
    "at-will/fcfs/cap=3/loss":
        "d07528135d75b4a3f22bdba3bd49fdf8220272641db09f8011ece69d92d02a53",
    "at-will/fcfs/cap=3/retx":
        "aaaf072ab056886dbced939f8c49aa4d1b06b0a21b4ac1f3dd222918b7750577",
    "at-will/lcfs1/cap=None/clean":
        "a787611cd20b9325e391ef918a8a1b4ee7b7944c465d0eb0b47157a5fa88b7a8",
    "at-will/lcfs1/cap=None/loss":
        "0cad6c2eae34ae7bfa61a365d62c80bf68e227efa9362f65795972decbfd273b",
    "at-will/lcfs1/cap=None/retx":
        "a060e842a5d0df0ee4cdf148547e4434f6b1039cea3491f260e384a25383a367",
    "at-will/lcfs1/cap=0/clean":
        "62aaaddc5605a83bf98a72359497217de2774ca5520b2d0f04dc0a5204b8c528",
    "at-will/lcfs1/cap=0/loss":
        "5faa0c2ecf31179b3a3c5d7f3f8e1dcec36bac8864c4595b6721c09d2dcd92b9",
    "at-will/lcfs1/cap=0/retx":
        "7c3c02184a9ad49a84ad1d12329a10cc440ab6838c1977354226e91739b167c0",
    "at-will/lcfs1/cap=3/clean":
        "1eb3e3468ba20279694b9bb6715ecc2d3e68a02da4a5a549f28ccfa7b9e505c8",
    "at-will/lcfs1/cap=3/loss":
        "a7b2572c6d4f9b6ec6a84dab9405984224b22f58734bf6a6a4f6bb8d55c200bb",
    "at-will/lcfs1/cap=3/retx":
        "e81b2ea544db29b1a0bd41f0e2422c1f9992c6b42c9143892c45f64b240941d7",
    "offset/lindley":
        "e7a1fdb355d008b695be8f44c7c2c20ab989a2a60a02d1e003c8d9497a5bf56b",
    "offset/events":
        "b49ca8fcfe99869dc747d655a73fc36b28c13a08f2b2843bd474b93a993a561d",
    "bottleneck/0.3/fcfs":
        "bbc8bc00ccfa5490402fbf6473afb966d54c4c9bc8dc20259f500f9ec188ba10",
    "bottleneck/0.3/lcfs1":
        "99ff65ba69e83e1e7942b87d86700fb32631080cefe7fe7d820c9bdd07272a76",
    "bottleneck/0.3/retx":
        "42ff55809d635f6923222f0b3c26f5dd5e7d103a2d06f0872e84fc9a2dc84f7a",
    "bottleneck/0.8/fcfs":
        "776edf2ec3f92d5fc6a606ec31166645cae7025b43495ff681b1384ea3f3a711",
    "bottleneck/0.8/lcfs1":
        "62f9af54d76420fb89dbcf42e70d9744cf2473550110b34e35ec7d1f7c761c22",
    "bottleneck/0.8/retx":
        "4edeea71d23b5e4e8bb1ea0e703d78983f031c907c5c8d37b8c7c3d007904c3c",
    "bottleneck/1.0/fcfs":
        "8ed3b7729495cba50c5b378463d13ad47036c7206f19fe1e0f3a089bdf429b5a",
    "bottleneck/1.0/lcfs1":
        "3c2dbba358d138947198778c6efbba6a2bca98c2612976ca4d3d86b2c256062f",
    "bottleneck/1.0/retx":
        "9a8cd500aa2b94d3082ee8428d1059d84b89d64f24d3f3b083bff21a5ce2a1c8",
    "bottleneck/1.5/fcfs":
        "270191f50fd706f299ed50fd4b2f8f90ae1206fa754fe37d8b32e22d6cd759f0",
    "bottleneck/1.5/lcfs1":
        "3b00de8caeb63452ac5bdf1085fe1ef2a58de579ad34f46bf36db28fcebc4608",
    "bottleneck/1.5/retx":
        "b85caa9548a01f6701f5dcaf1e7cc8ae6e8db91baeed437b7234cb623b615d99",
}
