import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoikit.errors import ConfigError
from aoikit.metrics import average_age_by_reception
from aoikit.scheduler import POLICIES, SchedulerConfig, simulate_scheduler

from helpers import reference_simulate_scheduler, sha256_of


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
        totals[policy] = simulate_scheduler(
            cfg, 100_000, seed=3, keep_traces=False
        ).total_avg_age
    vals = list(totals.values())
    assert max(vals) <= min(vals) * 1.05


def test_max_weight_beats_round_robin_on_asymmetric_sources():
    p = (0.9, 0.9, 0.3, 0.3)
    wins = 0
    for seed in range(5):
        mw = simulate_scheduler(
            SchedulerConfig(4, p, policy="max-weight"), 50_000, seed=seed,
            keep_traces=False,
        )
        rr = simulate_scheduler(
            SchedulerConfig(4, p, policy="round-robin"), 50_000, seed=seed,
            keep_traces=False,
        )
        wins += mw.total_avg_age < rr.total_avg_age
    assert wins == 5


def test_weight_exponent_knob():
    cfg = SchedulerConfig(2, (0.9, 0.2), policy="max-weight",
                          weight_exponent=2.0)
    run = simulate_scheduler(cfg, 2000, seed=5, keep_traces=False)
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
    # beyond it (1e9 s x 10 frames); without traces the run is fine
    for frame_s in (1e10, 1e9):
        cfg = SchedulerConfig(1, (0.5,), frame_s=frame_s)
        with pytest.raises(ConfigError, match="int64"):
            simulate_scheduler(cfg, 10, keep_traces=True)
        assert simulate_scheduler(cfg, 10, keep_traces=False).frames == 10
    # a negative exponent divides by zero at age 0, and nan makes every
    # score nan, which silently polls source 0 in every frame
    for w in (-1.0, -1e-300, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="weight exponent"):
            SchedulerConfig(2, (0.5, 0.5), policy="max-weight", weight_exponent=w)


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
    keep_traces=st.booleans(),
)
def test_matches_reference_loop(policy, probs, frames, seed, frame_s, w, keep_traces):
    cfg = SchedulerConfig(len(probs), tuple(probs), frame_s=frame_s,
                          policy=policy, weight_exponent=w)
    _assert_same_run(
        simulate_scheduler(cfg, frames, seed=seed, keep_traces=keep_traces),
        reference_simulate_scheduler(cfg, frames, seed=seed, keep_traces=keep_traces),
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


def test_exponent_overflow_raises_like_the_reference():
    cfg = SchedulerConfig(2, (1e-9, 1e-9), policy="max-weight",
                          weight_exponent=80.0)
    with pytest.raises(OverflowError):
        reference_simulate_scheduler(cfg, 8000)
    with pytest.raises(OverflowError):
        simulate_scheduler(cfg, 8000)


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
