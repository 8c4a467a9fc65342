import math

import numpy as np
import pytest

from aoikit.errors import ConfigError, NotReadyError
from aoikit.policies import (
    ACTION_DEC,
    ACTION_INC,
    ACTION_MDEC,
    ACTION_PAUSE,
    ACTION_RESUME,
    AcpState,
    EwmaEstimator,
    PauseResumeEnv,
    PolicyObservation,
    QAgent,
    acp_epoch_update,
    age_cost,
    rate_policy,
    train_pause_resume,
)


def obs(**kw):
    defaults = dict(ewma_rtt_s=0.1, epoch_acks=5)
    defaults.update(kw)
    return PolicyObservation(**defaults)


def test_ewma_estimator():
    e = EwmaEstimator(0.125)
    assert e.update(1.0) == 1.0
    assert e.update(2.0) == pytest.approx(1.125)
    with pytest.raises(ConfigError):
        EwmaEstimator(0.0)


# --------------------------------------------------------------------- acp


def primed_state(**kw) -> AcpState:
    st = AcpState(**kw)
    st.prev_age = 1.0
    st.prev_backlog = 4.0
    return st


def test_acp_congestion_triggers_escalating_mdec():
    st = primed_state(target_backlog=8.0)
    action, _ = acp_epoch_update(
        st, obs(avg_age_epoch_s=2.0, avg_backlog_epoch=6.0)
    )
    assert action == ACTION_MDEC
    assert st.target_backlog == pytest.approx(4.0)  # first streak halves
    st.prev_age, st.prev_backlog = 2.0, 6.0
    action, _ = acp_epoch_update(
        st, obs(avg_age_epoch_s=3.5, avg_backlog_epoch=9.0)
    )
    assert action == ACTION_MDEC
    assert st.mdec_streak == 2
    assert st.target_backlog == pytest.approx(1.0)  # then quarters


def test_acp_streak_resets_on_other_actions():
    st = primed_state(target_backlog=8.0)
    acp_epoch_update(st, obs(avg_age_epoch_s=2.0, avg_backlog_epoch=6.0))
    assert st.mdec_streak == 1
    acp_epoch_update(st, obs(avg_age_epoch_s=0.5, avg_backlog_epoch=2.0))
    assert st.mdec_streak == 0


def test_acp_decision_table_cells():
    # age up, backlog flat -> INC (starving)
    st = primed_state(target_backlog=3.0)
    action, _ = acp_epoch_update(
        st, obs(avg_age_epoch_s=2.0, avg_backlog_epoch=4.0)
    )
    assert action == ACTION_INC
    # age flat, backlog up -> DEC (backlog buys nothing)
    st = primed_state(target_backlog=3.0)
    action, _ = acp_epoch_update(
        st, obs(avg_age_epoch_s=1.0, avg_backlog_epoch=6.0)
    )
    assert action == ACTION_DEC
    # both flat or falling -> INC
    st = primed_state(target_backlog=3.0)
    action, _ = acp_epoch_update(
        st, obs(avg_age_epoch_s=0.9, avg_backlog_epoch=3.5)
    )
    assert action == ACTION_INC


def test_acp_inc_arithmetic_example():
    st = primed_state(kappa=1.0, target_backlog=3.0)
    action, rate = acp_epoch_update(
        st, obs(avg_age_epoch_s=0.5, avg_backlog_epoch=3.0, ewma_rtt_s=0.1)
    )
    assert action == ACTION_INC
    assert st.target_backlog == pytest.approx(4.0)
    assert rate == pytest.approx(40.0)


def test_acp_zero_ack_epoch_forces_mdec():
    st = primed_state(target_backlog=4.0)
    action, _ = acp_epoch_update(st, obs(epoch_acks=0))
    assert action == ACTION_MDEC


def test_acp_target_stays_in_bounds():
    st = primed_state(kappa=1.0, target_backlog=1.0, backlog_cap=4.0)
    for _ in range(10):  # hammer MDEC
        st.prev_age, st.prev_backlog = 1.0, 4.0
        acp_epoch_update(
            st, obs(avg_age_epoch_s=5.0, avg_backlog_epoch=9.0)
        )
        assert st.target_backlog >= st.kappa
    for _ in range(10):  # hammer INC
        st.prev_age, st.prev_backlog = 1.0, 4.0
        acp_epoch_update(
            st, obs(avg_age_epoch_s=0.5, avg_backlog_epoch=3.0)
        )
        assert st.target_backlog <= st.backlog_cap


def test_acp_not_ready_without_rtt():
    with pytest.raises(NotReadyError):
        acp_epoch_update(AcpState(), obs(ewma_rtt_s=None))


# ---------------------------------------------------- closed-loop senders


def test_rate_policy_senders():
    lazy, acp, zero_wait = (rate_policy(n) for n in ("lazy", "acp", "zero-wait"))
    assert (lazy.paced, acp.paced, zero_wait.paced) == (True, True, False)
    assert rate_policy("acp", AcpState(epoch_floor_s=0.02)).epoch_floor_s == 0.02
    # lazy follows 1/rtt on every ack and only logs its rate at epochs
    assert lazy.on_ack(0.1, first=False) == pytest.approx(10.0)
    assert lazy.on_epoch(obs(), 10.0) == ("RATE", 1.0, 10.0, None)
    # acp sets target/rtt on the first ack, then moves only at epochs
    assert acp.on_ack(0.1, first=True) == pytest.approx(10.0)
    assert acp.on_ack(0.1, first=False) is None
    action, target, logged, new = acp.on_epoch(obs(avg_age_epoch_s=0.5), 10.0)
    assert (action, target) == (ACTION_INC, 2.0) and logged == new == pytest.approx(20.0)
    # zero-wait never sets a rate and logs the epoch's ack rate
    assert zero_wait.on_ack(0.1, first=True) is None
    assert zero_wait.on_epoch(obs(epoch_s=0.5, epoch_acks=5), None) == (
        "SEND-ON-ACK", 1.0, 10.0, None)
    with pytest.raises(ConfigError, match="unknown rate policy"):
        rate_policy("bang")


# --------------------------------------------------------------- q-learning


def test_age_cost_range_and_monotonicity():
    ages = np.linspace(0, 30, 2000)
    costs = np.array([age_cost(a) for a in ages])
    assert costs[0] == 0.0
    assert np.all(costs >= 0.0)
    # strictly below one until float64 saturates around age 37
    assert np.all(costs < 1.0)
    assert np.all(np.diff(costs) > 0)
    assert age_cost(100.0) <= 1.0


def test_terminal_target_is_bare_cost():
    agent = QAgent(lr=1.0, epsilon=0.0, seed=0)
    target = agent.step(2.0, ACTION_RESUME, 1.0, done=True)
    assert target == pytest.approx(1 - math.exp(-1))
    assert agent.q_table[agent.bin_of(2.0), ACTION_RESUME] == pytest.approx(target)


def test_one_step_reaches_bellman_target_exactly():
    agent = QAgent(lr=1.0, epsilon=0.0, seed=0)
    s_next = 0.5
    expected = age_cost(s_next) + agent.gamma * float(
        np.min(agent.q_table[agent.bin_of(s_next)])
    )
    agent.step(1.0, ACTION_PAUSE, s_next, done=False)
    assert agent.q_table[agent.bin_of(1.0), ACTION_PAUSE] == expected


def test_bin_clamping():
    agent = QAgent()
    assert agent.bin_of(1e-9) == 0
    assert agent.bin_of(1e6) == agent.n_bins - 1


def test_greedy_action_picks_cheaper():
    agent = QAgent(epsilon=0.0, seed=0)
    b = agent.bin_of(1.0)
    agent.q_table[b, ACTION_PAUSE] = 0.9
    agent.q_table[b, ACTION_RESUME] = 0.1
    assert agent.act(1.0) == ACTION_RESUME


def test_full_exploration_is_uniform():
    agent = QAgent(epsilon=1.0, seed=123)
    n = 10_000
    resumes = sum(agent.act(1.0) == ACTION_RESUME for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(resumes - n / 2) <= 3 * sigma


def test_epsilon_decays_per_episode():
    agent = QAgent(epsilon=1.0, epsilon_decay=0.5)
    agent.end_episode()
    agent.end_episode()
    assert agent.epsilon == pytest.approx(0.25)


def test_training_converges_to_boundary_value():
    agent = QAgent(seed=11)
    env = PauseResumeEnv(delay_s=1.0, step_s=0.1)
    res = train_pause_resume(agent, env, 10_000)
    target = 1 - math.exp(-1)
    assert res.visited_bins
    for b, value in res.final_resume_values.items():
        assert value == pytest.approx(target, abs=0.02)
        assert int(agent.q_table[b].argmin()) == ACTION_RESUME


def test_agent_validation():
    with pytest.raises(ConfigError):
        QAgent(epsilon=1.5)
    with pytest.raises(ConfigError):
        QAgent(gamma=1.0)
    with pytest.raises(ConfigError):
        QAgent(lr=0.0)
    with pytest.raises(ConfigError):
        PauseResumeEnv(delay_s=0.0)
