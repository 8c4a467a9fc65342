import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoikit.errors import ConfigError, InsufficientDataError, RangeError
from aoikit.metrics import (
    BiasModel,
    PenaltySpec,
    apply_bias,
    average_age_by_generation,
    average_age_by_reception,
    instantaneous_age,
    mean_delay,
    peak_age,
    penalty_average,
    penalty_bias,
    summary,
)
from aoikit.trace import AgeTrace

from gridcheck import grid_average_age, grid_peak_age, grid_penalty_average
from helpers import (
    closed_loop_trace,
    periodic_trace,
    random_inorder_trace,
    reference_summary,
    statistics_trace,
    trace_from_seconds,
)

S = 1_000_000_000  # ns per second


def two_packet_trace():
    return trace_from_seconds([0.0, 1.0], [1.0, 2.0])


# ---------------------------------------------------------------- sawtooth


def test_instantaneous_age_before_first_delivery():
    trace = AgeTrace.from_arrays(
        [0], [0], [S], t_start_ns=0, t_end_ns=2 * S,
        initial_age_ns=S // 2,
    )
    assert instantaneous_age(trace, S // 2) == pytest.approx(1.0)


def test_instantaneous_age_single_delivery_sawtooth():
    trace = AgeTrace.from_arrays(
        [0], [0], [S], t_start_ns=0, t_end_ns=2 * S,
        initial_age_ns=S // 2,
    )
    assert instantaneous_age(trace, 3 * S // 2) == pytest.approx(1.5)


def test_instantaneous_age_drops_to_system_time_at_delivery():
    trace = two_packet_trace()
    assert instantaneous_age(trace, 2 * S) == pytest.approx(1.0)


def test_instantaneous_age_rejects_out_of_window():
    trace = two_packet_trace()
    with pytest.raises(RangeError):
        instantaneous_age(trace, 5 * S)


def test_sawtooth_slope_is_one_between_deliveries():
    rng = np.random.default_rng(3)
    trace = random_inorder_trace(rng, 50)
    gen, recv = trace.delivered()
    for i in range(1, 6):
        lo, hi = int(recv[i - 1]), int(recv[i])
        t1 = lo + (hi - lo) // 3
        t2 = lo + 2 * (hi - lo) // 3
        a1 = instantaneous_age(trace, t1)
        a2 = instantaneous_age(trace, t2)
        assert a2 - a1 == pytest.approx((t2 - t1) * 1e-9, rel=1e-12)
    # drop lands exactly on the just-delivered system time
    for i in range(len(recv)):
        expected = (int(recv[i]) - int(gen[i])) * 1e-9
        assert instantaneous_age(trace, int(recv[i])) == pytest.approx(expected)


# ---------------------------------------------------------------- averages


def test_average_age_two_packet_hand_value():
    trace = two_packet_trace()
    assert average_age_by_generation(trace) == pytest.approx(1.5)
    assert average_age_by_reception(trace) == pytest.approx(1.5)


def test_average_age_periodic_steady_state():
    trace = periodic_trace(2000, period_s=1.0, delay_s=0.5)
    assert average_age_by_generation(trace) == pytest.approx(1.0, rel=1e-12)
    assert average_age_by_reception(trace) == pytest.approx(1.0, rel=1e-12)


def test_average_age_matches_grid_integration():
    rng = np.random.default_rng(11)
    for _ in range(100):
        trace = random_inorder_trace(rng, int(rng.integers(3, 80)))
        oracle = grid_average_age(trace)
        assert average_age_by_generation(trace) == pytest.approx(oracle, rel=1e-6)
        assert average_age_by_reception(trace) == pytest.approx(oracle, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400))
def test_two_forms_agree_to_1e9_relative(seed, n):
    trace = random_inorder_trace(np.random.default_rng(seed), n)
    q = average_age_by_generation(trace)
    h = average_age_by_reception(trace)
    assert abs(q - h) <= 1e-9 * q


def test_too_few_deliveries_is_an_error():
    trace = AgeTrace.from_arrays([0], [0], [S])
    with pytest.raises(InsufficientDataError):
        average_age_by_reception(trace)
    with pytest.raises(InsufficientDataError):
        peak_age(trace)


# ---------------------------------------------------------------- peak age


def test_peak_age_periodic():
    trace = periodic_trace(1000, period_s=1.0, delay_s=0.5)
    assert peak_age(trace) == pytest.approx(1.5, rel=1e-12)


def test_peak_age_two_packet():
    assert peak_age(two_packet_trace()) == pytest.approx(2.0)


def test_peak_age_matches_sample_path_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        trace = random_inorder_trace(rng, int(rng.integers(3, 200)))
        assert peak_age(trace) == pytest.approx(grid_peak_age(trace), rel=1e-9)


# ---------------------------------------------------------------- penalties


def test_linear_penalty_is_alpha_times_average_age():
    trace = periodic_trace(500)
    spec = PenaltySpec("linear", 2.0)
    assert penalty_average(trace, spec) == pytest.approx(2.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.01, 10.0))
def test_linear_penalty_homogeneity(seed, alpha):
    trace = random_inorder_trace(np.random.default_rng(seed), 60)
    spec = PenaltySpec("linear", alpha)
    assert penalty_average(trace, spec) == pytest.approx(
        alpha * average_age_by_reception(trace), rel=1e-9
    )


def test_exponential_penalty_small_alpha_limit():
    trace = periodic_trace(300)
    alpha = 1e-6
    got = penalty_average(trace, PenaltySpec("exponential", alpha))
    want = alpha * average_age_by_reception(trace)
    assert got == pytest.approx(want, rel=1e-4)


def test_logarithmic_penalty_matches_grid():
    rng = np.random.default_rng(31)
    spec = PenaltySpec("logarithmic", 1.0)
    for _ in range(15):
        trace = random_inorder_trace(rng, int(rng.integers(5, 60)))
        assert penalty_average(trace, spec) == pytest.approx(
            grid_penalty_average(trace, spec), rel=1e-6
        )


def test_non_finite_penalty_raises_naming_the_interval():
    # exp(900) overflows a double: the 900 s gap between the second
    # and third receptions makes the exponential penalty infinite
    trace = trace_from_seconds([0.0, 1.0, 901.0, 902.0], [0.5, 1.5, 901.5, 902.5])
    spec = PenaltySpec("exponential", 1.0)
    with pytest.raises(RangeError, match="interval 1, between the receptions at "
                                         "1500000000 ns and 901500000000 ns"):
        penalty_average(trace, spec)
    with pytest.raises(RangeError, match="interval 1,"):
        penalty_bias(trace, BiasModel(S // 1000), spec)


def test_unknown_penalty_kind_rejected():
    with pytest.raises(ConfigError):
        PenaltySpec("cubic", 1.0)
    with pytest.raises(ConfigError):
        PenaltySpec("linear", 0.0)


# ---------------------------------------------------------------- clock bias


def test_zero_bias_is_identity():
    trace = two_packet_trace()
    assert apply_bias(trace, BiasModel(0)) is trace


def test_bias_shifts_two_packet_average():
    biased = apply_bias(two_packet_trace(), BiasModel(1000 * S))
    assert average_age_by_reception(biased) == pytest.approx(1001.5, rel=1e-12)


def test_negative_bias_on_periodic_trace():
    trace = periodic_trace(800, period_s=1.0, delay_s=0.5)
    biased = apply_bias(trace, BiasModel(-S // 5))
    assert average_age_by_reception(biased) == pytest.approx(0.8, rel=1e-9)


def test_bias_to_negative_timestamps_rejected():
    with pytest.raises(RangeError):
        apply_bias(two_packet_trace(), BiasModel(-10 * S))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bias_s=st.sampled_from([-10.0, -0.2, 0.5, 1.0, 1000.0]),
)
def test_bias_shift_theorem(seed, bias_s):
    trace = random_inorder_trace(np.random.default_rng(seed), 80)
    bias = BiasModel(int(bias_s * S))
    biased = apply_bias(trace, bias)
    assert average_age_by_reception(biased) == pytest.approx(
        average_age_by_reception(trace) + bias_s, rel=1e-9
    )
    assert average_age_by_generation(biased) == pytest.approx(
        average_age_by_generation(trace) + bias_s, rel=1e-9
    )
    assert peak_age(biased) == pytest.approx(peak_age(trace) + bias_s, rel=1e-9)


def test_linear_penalty_bias_is_alpha_times_bias_exactly():
    trace = two_packet_trace()
    got = penalty_bias(trace, BiasModel(S // 10), PenaltySpec("linear", 3.0))
    assert got == 3.0 * 0.1


def test_exponential_zero_bias_is_zero():
    trace = two_packet_trace()
    assert penalty_bias(trace, BiasModel(0), PenaltySpec("exponential", 1.0)) == 0.0


@pytest.mark.parametrize("kind,alpha", [("exponential", 0.5), ("logarithmic", 1.0)])
def test_nonlinear_penalty_bias_matches_grid_difference(kind, alpha):
    rng = np.random.default_rng(41)
    spec = PenaltySpec(kind, alpha)
    bias = BiasModel(int(0.05 * S))
    for _ in range(10):
        trace = random_inorder_trace(rng, int(rng.integers(5, 50)))
        closed = penalty_bias(trace, bias, spec)
        shifted = apply_bias(trace, bias)
        oracle = grid_penalty_average(shifted, spec) - grid_penalty_average(trace, spec)
        assert closed == pytest.approx(oracle, rel=1e-6)


def test_argmin_rate_invariant_under_bias():
    # rate-parameterized family of periodic traces; the best rate must
    # not move when a constant bias is applied
    rates = [0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
    plain, biased = [], []
    bias = BiasModel(7 * S)
    for r in rates:
        trace = periodic_trace(400, period_s=1.0 / r, delay_s=0.4)
        plain.append(average_age_by_reception(trace))
        biased.append(average_age_by_reception(apply_bias(trace, bias)))
    assert int(np.argmin(plain)) == int(np.argmin(biased))


# ---------------------------------------------------------------- bounds


def test_average_age_exceeds_reception_weighted_system_time():
    # exact per-trace bound: the average age is the reception-gap
    # weighted mean system time plus a strictly positive growth term
    rng = np.random.default_rng(53)
    for _ in range(30):
        trace = random_inorder_trace(rng, int(rng.integers(3, 120)))
        gen, recv = trace.delivered()
        gaps = (recv[1:] - recv[:-1]).astype(float)
        beta = (recv[:-1] - gen[:-1]).astype(float)
        weighted = float(np.sum(gaps * beta) / np.sum(gaps)) * 1e-9
        assert average_age_by_reception(trace) > weighted


def test_average_age_exceeds_mean_delay_on_long_stationary_traces():
    # steady-state form of the bound; it does not hold for adversarial
    # short traces, so test it on long i.i.d. traces only
    rng = np.random.default_rng(59)
    for _ in range(10):
        trace = random_inorder_trace(rng, 2000)
        assert average_age_by_reception(trace) >= mean_delay(trace)


# --------------------------------------------------- in-place statistics


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
       kind=st.sampled_from(["in-order", "reordered", "lossy", "in-flight tail", "wide"]),
       penalty=st.sampled_from([None, ("linear", 0.5), ("exponential", 0.01),
                                ("logarithmic", 2.0)]))
def test_summary_equals_the_reference_bit_for_bit(seed, n, kind, penalty):
    # the same float operations in the same order: every value equal,
    # also where spans exceed 2**53 ns and a float subtraction of the
    # stamps would round differently
    trace = statistics_trace(np.random.default_rng(seed), n, kind)
    spec = None if penalty is None else PenaltySpec(*penalty)
    try:
        want = reference_summary(trace, spec)
    except (InsufficientDataError, RangeError) as exc:
        with pytest.raises(type(exc)):
            summary(trace, spec)
        return
    assert summary(trace, spec) == want


def test_summary_makes_no_column_sized_copy():
    import tracemalloc

    summary(closed_loop_trace(100))  # numpy's first-call set-up
    n = 200_000
    trace = closed_loop_trace(n)
    tracemalloc.start()
    try:
        summary(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the delivered stamps are views of the leading rows and each
    # statistic holds at most two float arrays of the n - 1 intervals;
    # whole copies of the stamps, integer differences or product arrays
    # took 6 columns
    assert peak < 2.5 * 8 * n
