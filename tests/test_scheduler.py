import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoikit import scheduler
from aoikit.errors import ConfigError
from aoikit.metrics import average_age_by_reception
from aoikit.scheduler import (
    POLICIES,
    SchedulerConfig,
    analytic_avg_age_per_source,
    simulate_scheduler,
)

from helpers import (
    polling_age_lower_bound,
    reference_simulate_scheduler,
    sha256_of,
    total_avg_age,
)


def test_single_source_perfect_polls_is_frame_sawtooth():
    cfg = SchedulerConfig(1, (1.0,), frame_s=1.0)
    run = simulate_scheduler(cfg, 10_000, seed=0)
    # age drops to one frame at every boundary and climbs to two
    assert run.avg_age_per_source[0] == pytest.approx(1.5, rel=0.01)
    trace = run.traces[0]
    gen, recv = trace.delivered()
    assert np.all(recv - gen == 1_000_000_000)
    assert average_age_by_reception(trace) == pytest.approx(1.5, rel=0.01)


def test_deterministic_per_seed():
    cfg = SchedulerConfig(4, (0.9, 0.9, 0.3, 0.3), policy="max-weight")
    a = simulate_scheduler(cfg, 5000, seed=7)
    b = simulate_scheduler(cfg, 5000, seed=7)
    assert a.avg_age_per_source == b.avg_age_per_source
    assert a.successes == b.successes


def test_round_robin_skips_no_one():
    cfg = SchedulerConfig(3, (0.5, 0.5, 0.5), policy="round-robin")
    run = simulate_scheduler(cfg, 9000, seed=1)
    assert run.polls == [3000, 3000, 3000]


def test_symmetric_sources_all_policies_close():
    totals = {}
    for policy in ("round-robin", "greedy", "max-weight"):
        cfg = SchedulerConfig(4, (0.95,) * 4, policy=policy)
        totals[policy] = total_avg_age(simulate_scheduler(cfg, 100_000, seed=3))
    vals = list(totals.values())
    assert max(vals) <= min(vals) * 1.05


def test_max_weight_beats_round_robin_on_asymmetric_sources():
    p = (0.9, 0.9, 0.3, 0.3)
    wins = 0
    for seed in range(5):
        mw = simulate_scheduler(SchedulerConfig(4, p, policy="max-weight"), 50_000,
                                seed=seed)
        rr = simulate_scheduler(SchedulerConfig(4, p, policy="round-robin"), 50_000,
                                seed=seed)
        wins += total_avg_age(mw) < total_avg_age(rr)
    assert wins == 5


def test_weight_exponent_knob():
    cfg = SchedulerConfig(2, (0.9, 0.2), policy="max-weight",
                          weight_exponent=2.0)
    run = simulate_scheduler(cfg, 2000, seed=5)
    assert sum(run.polls) == 2000


def test_config_validation():
    with pytest.raises(ConfigError):
        SchedulerConfig(2, (0.5,))
    with pytest.raises(ConfigError):
        SchedulerConfig(1, (0.0,))
    with pytest.raises(ConfigError):
        SchedulerConfig(1, (0.5,), policy="random")
    for frame_s in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="frame"):
            SchedulerConfig(1, (0.5,), frame_s=frame_s)
    # trace stamps past int64: a frame beyond it, and a last frame end
    # beyond it (1e9 s x 10 frames); the run is fine until its traces
    # are read
    for frame_s in (1e10, 1e9):
        cfg = SchedulerConfig(1, (0.5,), frame_s=frame_s)
        run = simulate_scheduler(cfg, 10)
        assert run.frames == 10 and sum(run.polls) == 10
        with pytest.raises(ConfigError, match="int64"):
            run.traces
    # a negative exponent divides by zero at age 0, and nan makes every
    # score nan, which silently polls source 0 in every frame
    for w in (-1.0, -1e-300, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="weight exponent"):
            SchedulerConfig(2, (0.5, 0.5), policy="max-weight", weight_exponent=w)


# ------------------------------------------------ renewal-reward closed forms

ORACLE_SEEDS = range(8)
ORACLE_Z = 4.0  # standard errors of the mean across seeds


@pytest.mark.parametrize("policy, probs, frames", [
    ("round-robin", (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), 200_000),
    ("greedy", (0.6,) * 5, 200_000),
    ("greedy", (0.3,) * 8, 200_000),
    ("greedy", (0.25, 0.5, 0.9, 0.4), 200_000),
    ("max-weight", (0.5,) * 4, 50_000),
])
def test_closed_forms_match_simulated_means(policy, probs, frames):
    cfg = SchedulerConfig(len(probs), probs, frame_s=0.01, policy=policy)
    ages = np.array([
        simulate_scheduler(cfg, frames, seed=seed).avg_age_per_source
        for seed in ORACLE_SEEDS])
    se = ages.std(axis=0, ddof=1) / np.sqrt(len(ORACLE_SEEDS))
    want = np.array(analytic_avg_age_per_source(cfg))
    assert np.all(np.abs(ages.mean(axis=0) - want) <= ORACLE_Z * se)


def test_closed_forms_in_frames():
    # round-robin: N/p - N/2 + 1; greedy and equal-p max-weight:
    # (N + 1 - p) / (2p) + 1
    rr = SchedulerConfig(2, (1.0, 0.5), frame_s=2.0)
    assert analytic_avg_age_per_source(rr) == [4.0, 8.0]
    for policy in ("greedy", "max-weight"):
        cfg = SchedulerConfig(5, (0.6,) * 5, policy=policy, weight_exponent=2.0)
        assert analytic_avg_age_per_source(cfg) == pytest.approx([5.5] * 5)


def test_no_closed_form_for_max_weight_on_unequal_sources_or_zero_exponent():
    assert analytic_avg_age_per_source(
        SchedulerConfig(2, (0.5, 0.6), policy="max-weight")) is None
    for policy in ("greedy", "max-weight"):
        assert analytic_avg_age_per_source(
            SchedulerConfig(2, (0.5, 0.5), policy=policy, weight_exponent=0.0)) is None


# ------------------------------------------------ a lower bound for any policy

BOUND_FRAMES = 20_000
BOUND_PROBS = {
    "uniform8": tuple(round(float(p), 6) for p in
                      np.random.default_rng([0, 2, 8]).uniform(0.2, 1.0, 8)),
    "spaced8": (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    "rare4": (0.02, 0.9, 0.5, 0.7),
    "four-values16": (0.3, 0.5, 0.7, 0.9) * 4,
    "perfect4": (1.0,) * 4,
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", BOUND_PROBS)
def test_every_policy_stays_above_the_lower_bound(policy, name):
    # the bound holds for the expected age of a run of this length, so
    # the seeds' mean may sit below it by sampling error alone; at
    # p = 1 every run is the same and the error is zero
    probs = BOUND_PROBS[name]
    cfg = SchedulerConfig(len(probs), probs, frame_s=0.01, policy=policy)
    ages = [total_avg_age(simulate_scheduler(cfg, BOUND_FRAMES, seed=seed)) / len(probs)
            for seed in ORACLE_SEEDS]
    se = np.std(ages, ddof=1) / np.sqrt(len(ages))
    assert np.mean(ages) >= polling_age_lower_bound(cfg, BOUND_FRAMES) - ORACLE_Z * se


def test_lower_bound_is_round_robins_age_at_perfect_polls():
    # tight in the long run: round-robin at p = 1 reads N/2 + 1 frames,
    # and a run that starts at age zero reads a little below it
    cfg = SchedulerConfig(4, (1.0,) * 4, frame_s=2.0)
    assert polling_age_lower_bound(cfg) == analytic_avg_age_per_source(cfg)[0] == 6.0
    short = total_avg_age(simulate_scheduler(cfg, 1000)) / 4
    assert polling_age_lower_bound(cfg, 1000) <= short < 6.0
    assert polling_age_lower_bound(cfg, 10**12) == pytest.approx(6.0, rel=1e-11)


# ------------------------------------------------ equivalence and golden digests


def _assert_same_run(got, want):
    assert got.polls == want.polls
    assert got.successes == want.successes
    assert repr(got.avg_age_per_source) == repr(want.avg_age_per_source)
    assert len(got.traces) == len(want.traces)
    for a, b in zip(got.traces, want.traces):
        for name in ("ids", "gen_ns", "recv_ns", "sizes"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.t_start_ns, a.t_end_ns) == (b.t_start_ns, b.t_end_ns)


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    probs=st.lists(st.one_of(st.just(1.0), st.floats(0.01, 1.0)), min_size=1, max_size=9),
    frames=st.one_of(st.just(1), st.integers(1, 400)),
    seed=st.integers(0, 2**32 - 1),
    frame_s=st.sampled_from([1.0, 0.01, 0.0037, 2.5]),
    w=st.one_of(st.sampled_from([0.0, 1.0, 2.0, 80.0]), st.floats(0.0, 80.0)),
)
def test_matches_reference_loop(policy, probs, frames, seed, frame_s, w):
    cfg = SchedulerConfig(len(probs), tuple(probs), frame_s=frame_s,
                          policy=policy, weight_exponent=w)
    _assert_same_run(
        simulate_scheduler(cfg, frames, seed=seed),
        reference_simulate_scheduler(cfg, frames, seed=seed),
    )


def test_large_exponent_runs_while_every_age_power_is_finite():
    # the oldest age reaches 5200 frames; 5200.0**80 is finite, but
    # 7132.0**80 is not, so powers beyond the oldest age must not be
    # computed up front
    cfg = SchedulerConfig(3, (0.0005, 0.5, 0.9), policy="greedy",
                          weight_exponent=80.0)
    run = simulate_scheduler(cfg, 25_000, seed=4)
    _assert_same_run(run, reference_simulate_scheduler(cfg, 25_000, seed=4))
    assert run.polls == [24965, 23, 12]


@pytest.mark.parametrize("policy", ["greedy", "max-weight"])
def test_exponent_overflow_raises_like_the_reference(policy):
    cfg = SchedulerConfig(2, (1e-9, 1e-9), policy=policy,
                          weight_exponent=80.0)
    with pytest.raises(OverflowError):
        reference_simulate_scheduler(cfg, 8000)
    with pytest.raises(OverflowError):
        simulate_scheduler(cfg, 8000)


def _assert_same_outcome(cfg, frames, seed):
    """simulate_scheduler returns the reference's run, or raises the
    reference's OverflowError."""
    try:
        want = reference_simulate_scheduler(cfg, frames, seed=seed)
    except OverflowError:
        with pytest.raises(OverflowError):
            simulate_scheduler(cfg, frames, seed=seed)
    else:
        _assert_same_run(simulate_scheduler(cfg, frames, seed=seed), want)


# w = 0 ties every score; 1e-300 ties every age past 0; 1e-12 ties
# neighbouring ages in the thousands; 80 overflows past age 7131, which
# the rare sources reach
@pytest.mark.parametrize("policy", ["greedy", "max-weight"])
@pytest.mark.parametrize("w", [0.0, 1e-300, 1e-12, 80.0])
@pytest.mark.parametrize("probs, frames", [
    ((0.31, 0.9, 0.55, 0.2, 0.74), 3000),
    ((0.0004, 0.0007, 0.5), 20_000),
])
def test_exponent_edges_match_the_reference(policy, w, probs, frames):
    cfg = SchedulerConfig(len(probs), probs, policy=policy, weight_exponent=w)
    _assert_same_outcome(cfg, frames, seed=2)


@pytest.mark.parametrize("policy", ["greedy", "max-weight"])
@pytest.mark.parametrize("probs", [
    (0.3,),  # one source
    (1.0, 0.4, 0.7),  # source 0 succeeds at frame 0, where its age stays 0
])
def test_small_cases_match_the_reference(policy, probs):
    for seed in range(3):
        cfg = SchedulerConfig(len(probs), probs, policy=policy)
        _assert_same_outcome(cfg, 2000, seed)


# a small pool, so that sources share p and scores tie exactly (0.5 at
# age 4 ties 1.0 at age 2 under w = 1); 5e-324 is subnormal and 1e-300
# is just above 2**-1000, the smallest p max-weight's front scores
TIE_POOL = [5e-324, 1e-300, 0.125, 0.25, 0.5, 0.5000000000000001, 0.75, 1.0]


@settings(max_examples=80, deadline=None)
@given(
    probs=st.lists(st.sampled_from(TIE_POOL), min_size=1, max_size=12),
    frames=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    w=st.sampled_from([0.0, 1e-300, 1e-12, 0.5, 1.0, 2.0, 80.0]),
)
def test_max_weight_ties_and_repeated_p_match_the_reference(probs, frames, seed, w):
    cfg = SchedulerConfig(len(probs), tuple(probs), policy="max-weight",
                          weight_exponent=w)
    _assert_same_outcome(cfg, frames, seed)


@pytest.fixture
def argmax_calls(monkeypatch):
    """The weights every per-frame argmax of this test was called with."""
    calls = []
    argmax = scheduler._max_weight_picks

    def recorded(weights, p, coins, w):
        calls.append(weights)
        return argmax(weights, p, coins, w)

    monkeypatch.setattr(scheduler, "_max_weight_picks", recorded)
    return calls


@pytest.mark.parametrize("probs, w, frames", [
    ((0.5, 0.9, 0.7), 0.0, 100),  # no power margin at any age
    ((0.0004, 0.0007, 0.5), 1e-12, 20_000),  # a margin that ends past age 1,000
    ((0.5, 1e-310, 0.9), 1.0, 100),  # a subnormal p
])
def test_max_weight_falls_back_to_the_argmax(argmax_calls, probs, w, frames):
    cfg = SchedulerConfig(len(probs), probs, policy="max-weight", weight_exponent=w)
    _assert_same_outcome(cfg, frames, seed=2)
    assert len(argmax_calls) == 1 and argmax_calls[0] is not None


def test_max_weight_falls_back_to_the_argmax_on_overflow(argmax_calls):
    cfg = SchedulerConfig(2, (1e-9, 1e-9), policy="max-weight", weight_exponent=80.0)
    with pytest.raises(OverflowError):
        simulate_scheduler(cfg, 8000)
    assert len(argmax_calls) == 1 and argmax_calls[0] is not None


@pytest.mark.parametrize("w", [1.0, 2.0, 80.0])
def test_max_weight_scores_the_front_without_the_argmax(argmax_calls, w):
    cfg = SchedulerConfig(5, (0.31, 0.9, 0.55, 0.2, 0.74), policy="max-weight",
                          weight_exponent=w)
    _assert_same_outcome(cfg, 3000, seed=2)
    assert argmax_calls == []


def _golden_scheduler_runs():
    for policy in POLICIES:
        for n in (1, 3, 8, 64):
            probs = tuple(round(float(x), 3) for x in
                          np.random.default_rng([7, n]).uniform(0.1, 1.0, n))
            if n > 1:
                probs = (1.0,) + probs[1:]
            for w in (0.0, 1.0, 2.0):
                cfg = SchedulerConfig(n, probs, frame_s=0.01, policy=policy,
                                      weight_exponent=w)
                yield f"{policy}/{n}/{w:g}", cfg


def _run_digest(run) -> str:
    parts = [np.array(run.polls, dtype=np.int64),
             np.array(run.successes, dtype=np.int64),
             repr(run.avg_age_per_source)]
    for t in run.traces:
        parts += [t.ids, t.gen_ns, t.recv_ns, t.sizes, f"{t.t_start_ns},{t.t_end_ns}"]
    return sha256_of(*parts)


def test_scheduler_golden_digests():
    # sha256 of polls, successes, ages and traces, pinned before the
    # frame loop was vectorised
    got = {name: _run_digest(simulate_scheduler(cfg, 2000, seed=11))
           for name, cfg in _golden_scheduler_runs()}
    assert got == SCHEDULER_GOLDEN


def _benchmark_scale_digests(policy):
    # 25,000 frames with p ~ U(0.2, 1.0), drawn as the benchmark's
    # polling workload draws them
    got = {}
    for seed in (0, 1):
        for n in (8, 64):
            rng = np.random.default_rng([seed, 2, n])
            probs = tuple(round(float(p), 6) for p in rng.uniform(0.2, 1.0, n))
            cfg = SchedulerConfig(n, probs, policy=policy)
            got[f"{seed}/{n}"] = _run_digest(simulate_scheduler(cfg, 25_000, seed=seed))
    return got


def test_greedy_golden_digests_at_benchmark_scale():
    # pinned before greedy's picks became a rotation pointer
    assert _benchmark_scale_digests("greedy") == GREEDY_GOLDEN_25K


def test_max_weight_golden_digests_at_benchmark_scale():
    # pinned before max-weight scored only its dominance front
    assert _benchmark_scale_digests("max-weight") == MAX_WEIGHT_GOLDEN_25K


GREEDY_GOLDEN_25K = {
    "0/8": "03fdd4d0fc9c6e970185162fcb26100a68c7218bb09e0d43eba801a3596576a4",
    "0/64": "78d91c6d64a1099df0d595be8bc82177c59b0a3219b529e5d64d6d2a8749df88",
    "1/8": "7dd039c22b337b01dd4a5011a5fc6a3c8d536d246a94eef763b82997d0e399f9",
    "1/64": "3ca4c0623dbc7ee950f91355495762a8befcd6597cac0239cf1391670317dce7",
}


MAX_WEIGHT_GOLDEN_25K = {
    "0/8": "75b70b9458fb800e2108c9b440fa78290d8a8a288163676c451c16e414d50c08",
    "0/64": "012c3cc444616a8c21d3d50c8de2dd5d3bdb4ac3167e57ce78d4b3d0997dafea",
    "1/8": "373844d20dc29d5ce7eba382173a6a5a16ae8f19902c8877d0ea33cb47462a59",
    "1/64": "11714dea9ceece8e3923f66678e831d04bbc74958d3d1b1b18d75da18e8ba58a",
}


SCHEDULER_GOLDEN = {
    "round-robin/1/0":
        "68d9ce5a95a21f2a21a5cae44da9cdcd09754f847ece9e4df2806c9ccbb7995e",
    "round-robin/1/1":
        "68d9ce5a95a21f2a21a5cae44da9cdcd09754f847ece9e4df2806c9ccbb7995e",
    "round-robin/1/2":
        "68d9ce5a95a21f2a21a5cae44da9cdcd09754f847ece9e4df2806c9ccbb7995e",
    "round-robin/3/0":
        "106d44d695c65b7d766dc9f811b7fb16573331ac04e2e7b66bffcf2a3d92f05d",
    "round-robin/3/1":
        "106d44d695c65b7d766dc9f811b7fb16573331ac04e2e7b66bffcf2a3d92f05d",
    "round-robin/3/2":
        "106d44d695c65b7d766dc9f811b7fb16573331ac04e2e7b66bffcf2a3d92f05d",
    "round-robin/8/0":
        "f67a71dc94f16a82c63f52a455e00f1ab53919fdc69e1c9baf8205aeeb43dcd7",
    "round-robin/8/1":
        "f67a71dc94f16a82c63f52a455e00f1ab53919fdc69e1c9baf8205aeeb43dcd7",
    "round-robin/8/2":
        "f67a71dc94f16a82c63f52a455e00f1ab53919fdc69e1c9baf8205aeeb43dcd7",
    "round-robin/64/0":
        "1f7adcce2497e650551bf73a97063bc9702b833ed60be46c68d2d2a4a7f2fd43",
    "round-robin/64/1":
        "1f7adcce2497e650551bf73a97063bc9702b833ed60be46c68d2d2a4a7f2fd43",
    "round-robin/64/2":
        "1f7adcce2497e650551bf73a97063bc9702b833ed60be46c68d2d2a4a7f2fd43",
    "greedy/1/0":
        "68d9ce5a95a21f2a21a5cae44da9cdcd09754f847ece9e4df2806c9ccbb7995e",
    "greedy/1/1":
        "68d9ce5a95a21f2a21a5cae44da9cdcd09754f847ece9e4df2806c9ccbb7995e",
    "greedy/1/2":
        "68d9ce5a95a21f2a21a5cae44da9cdcd09754f847ece9e4df2806c9ccbb7995e",
    "greedy/3/0":
        "2e108b647a418a0f0e6296a883949a1c4b1ba8e3e3beba6e6204b88a69070721",
    "greedy/3/1":
        "2202872cead7cc36dc4d9c42e4e712ed3031b554e138a5fc4b364c64092d9d14",
    "greedy/3/2":
        "2202872cead7cc36dc4d9c42e4e712ed3031b554e138a5fc4b364c64092d9d14",
    "greedy/8/0":
        "2e3fd6f73c4e52b2cdc5a0f7d495595ee7a10597a355810eb2b0f57aa54a6ad0",
    "greedy/8/1":
        "59212e76fbba0edfe05f540904c963b6cc5f35fe4531cdc56084540264b6d96c",
    "greedy/8/2":
        "59212e76fbba0edfe05f540904c963b6cc5f35fe4531cdc56084540264b6d96c",
    "greedy/64/0":
        "5e2a84c2c5ee3a32085cde782023c15f5ac6fde29232b66591f378f4991f36f9",
    "greedy/64/1":
        "59c62b0ca19fb0af56cffff340fd0d9360f02ae22908f8a2b98ef92647aaae81",
    "greedy/64/2":
        "59c62b0ca19fb0af56cffff340fd0d9360f02ae22908f8a2b98ef92647aaae81",
    "max-weight/1/0":
        "68d9ce5a95a21f2a21a5cae44da9cdcd09754f847ece9e4df2806c9ccbb7995e",
    "max-weight/1/1":
        "68d9ce5a95a21f2a21a5cae44da9cdcd09754f847ece9e4df2806c9ccbb7995e",
    "max-weight/1/2":
        "68d9ce5a95a21f2a21a5cae44da9cdcd09754f847ece9e4df2806c9ccbb7995e",
    "max-weight/3/0":
        "2e108b647a418a0f0e6296a883949a1c4b1ba8e3e3beba6e6204b88a69070721",
    "max-weight/3/1":
        "7f063102f82b3ac6690a832b440ace986c201e3037b93ae3cc662fc0f00b437c",
    "max-weight/3/2":
        "1f705909b64fbbbe4279e36ff3580ecf729b09e1583b5af46089b10b563b2765",
    "max-weight/8/0":
        "2e3fd6f73c4e52b2cdc5a0f7d495595ee7a10597a355810eb2b0f57aa54a6ad0",
    "max-weight/8/1":
        "a147287ed2b3b086c353061d24b370d6106adcad1246c2eaf8642c89b86e23cf",
    "max-weight/8/2":
        "897f6b12912c1b7b2ee3752f3bf6d9d29d73f54c4e612b2609a8d2f7f5dbf391",
    "max-weight/64/0":
        "5e2a84c2c5ee3a32085cde782023c15f5ac6fde29232b66591f378f4991f36f9",
    "max-weight/64/1":
        "d5db32233181ac76686f78d0bd709c5ff797ec5b827c329577feb39f19400783",
    "max-weight/64/2":
        "7bdf9b6db5d8fa24925594cddaf0f07da07baa1f2e2c81af8ea04db0b7cf8d26",
}
