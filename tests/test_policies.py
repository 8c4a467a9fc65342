import inspect
import math

import numpy as np
import pytest

from aoikit import policies
from aoikit.errors import ConfigError, NotReadyError
from aoikit.policies import (
    ACTION_DEC,
    ACTION_INC,
    ACTION_MDEC,
    ACTION_PAUSE,
    ACTION_RESUME,
    EPOCH_FLOOR_S,
    PAUSE_STEP_S,
    Q_AGE_HI_S,
    Q_AGE_LO_S,
    Q_INIT,
    SENDERS,
    AcpState,
    EwmaEstimator,
    Lazy,
    PolicyObservation,
    QAgent,
    ZeroWait,
    acp_epoch_update,
    age_cost,
    train_pause_resume,
)

from helpers import sha256_of


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


def primed_state(target_backlog, **kw) -> AcpState:
    st = AcpState(**kw)
    st.target_backlog = target_backlog
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


@pytest.mark.parametrize("kw", [
    dict(kappa=0.0), dict(kappa=math.nan), dict(kappa=math.inf, backlog_cap=math.inf),
    dict(backlog_cap=0.5), dict(backlog_cap=math.nan), dict(backlog_cap=math.inf),
    dict(epoch_floor_s=-0.005), dict(epoch_floor_s=math.nan),
    dict(epoch_floor_s=math.inf),
], ids=repr)
def test_acp_refuses_settings_no_run_could_use(kw):
    # an infinite rate sends every packet at one instant and a nan epoch
    # never ends; a nan cap never applies and a negative floor acts as 0
    with pytest.raises(ConfigError):
        AcpState(**kw)


# ---------------------------------------------------- closed-loop senders


def test_rate_policy_senders():
    assert SENDERS == {"lazy": Lazy, "acp": AcpState, "zero-wait": ZeroWait}
    lazy, acp, zero_wait = Lazy(), AcpState(), ZeroWait()
    assert (lazy.paced, acp.paced, zero_wait.paced) == (True, True, False)
    assert lazy.epoch_floor_s == acp.epoch_floor_s == zero_wait.epoch_floor_s == EPOCH_FLOOR_S
    assert AcpState(epoch_floor_s=0.02).epoch_floor_s == 0.02
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


def test_constructors_take_only_settings():
    # every constructor parameter is an argument a policy config key sets
    # (the runner's ewma_alpha aside), plus the agent's run seed, so that
    # controller state starts inside the object and never poses as a
    # setting
    from aoikit.cli import POLICY_KEYS

    for name, cls in [*SENDERS.items(), ("qlearn", QAgent)]:
        settings = {arg for arg, _ in POLICY_KEYS[name].values()} - {"ewma_alpha"}
        if cls is QAgent:
            settings.add("seed")
        assert set(inspect.signature(cls).parameters) == settings, name


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
    # a full-rate step sets the value to the cost of the age produced:
    # the delay on resume, the delay plus the pause step on pause
    agent = QAgent(lr=1.0, epsilon=0.0, seed=0)
    res = train_pause_resume(agent, 1.0, 1)  # a tie pauses, as argmin
    assert res.values == (age_cost(1.0 + PAUSE_STEP_S), Q_INIT)
    agent.values[ACTION_PAUSE] = 2.0
    res = train_pause_resume(agent, 1.0, 1)
    assert res.action_history == [ACTION_RESUME]
    assert res.values[ACTION_RESUME] == pytest.approx(1 - math.exp(-1))
    assert agent.values[ACTION_RESUME] == age_cost(1.0)


def delay_bin(delay_s: float, n_bins: int) -> int:
    # training bins the path delay once, after its steps
    return train_pause_resume(QAgent(n_bins=n_bins), delay_s, 1).resume_bin


@pytest.mark.parametrize("n_bins", [2, 16, 64])
def test_bin_clamping(n_bins):
    assert delay_bin(1e-9, n_bins) == 0
    assert delay_bin(1e6, n_bins) == n_bins - 1


@pytest.mark.parametrize("n_bins", [2, 16, 64])
def test_bin_equals_clamped_searchsorted(n_bins):
    edges = np.geomspace(Q_AGE_LO_S, Q_AGE_HI_S, n_bins + 1)
    ages = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [1e-12, 1e9, np.inf], np.random.default_rng(1).uniform(0, 60, 500),
    ])
    for age in ages.tolist():
        idx = int(np.searchsorted(edges, age, side="right")) - 1
        assert delay_bin(age, n_bins) == min(max(idx, 0), n_bins - 1)


def test_greedy_action_picks_first_cheapest():
    agent = QAgent(epsilon=0.0, seed=0)
    assert agent.act() == ACTION_PAUSE  # a tie goes to the first action, as argmin


def test_greedy_action_picks_cheaper():
    agent = QAgent(epsilon=0.0, seed=0)
    agent.values[ACTION_PAUSE] = 0.9
    agent.values[ACTION_RESUME] = 0.1
    assert agent.act() == ACTION_RESUME


def test_full_exploration_is_uniform():
    agent = QAgent(epsilon=1.0, seed=123)
    n = 10_000
    resumes = sum(agent.act() == ACTION_RESUME for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(resumes - n / 2) <= 3 * sigma


def test_epsilon_decays_per_episode():
    # every step is a one-step episode
    agent = QAgent(epsilon=1.0, epsilon_decay=0.5)
    train_pause_resume(agent, 1.0, 2)
    assert agent.epsilon == 0.25


def test_training_converges_to_boundary_value():
    agent = QAgent(seed=11)
    res = train_pause_resume(agent, 1.0, 10_000)
    target = 1 - math.exp(-1)
    assert res.resume_bin == 38  # 1 s among 64 bins from 1 ms to 100 s
    assert res.values[ACTION_RESUME] == pytest.approx(target, abs=0.02)
    assert int(np.argmin(res.values)) == ACTION_RESUME


@pytest.mark.parametrize("seed, lr, steps", [(11, 0.1, 1000), (3, 0.3, 50_000),
                                             (5, 0.01, 20_000)])
def test_training_values_follow_their_closed_form(seed, lr, steps):
    # every step is terminal and its cost fixed, so after n updates an
    # action's value is c + (Q_INIT - c)(1 - lr)^n, c the cost of the
    # age the action produces
    res = train_pause_resume(QAgent(lr=lr, seed=seed), 1.0, steps)
    for a in (ACTION_PAUSE, ACTION_RESUME):
        c = age_cost(res.action_ages[a])
        n = res.action_history.count(a)
        assert res.values[a] == pytest.approx(c + (Q_INIT - c) * (1 - lr) ** n, abs=1e-12)


@pytest.mark.parametrize("epsilon, decay, seed, steps", [
    (1.0, 0.995, 0, 20_000),  # the default schedule, as the benchmark runs it
    (0.009, 1.0, 1, 30_000),  # below the block threshold throughout: 261 explorations
    (0.02, 0.9999, 2, 20_000),  # crosses the threshold at step 6,932, then explores 78 times
    (0.5, 0.9, 3, 9_000),
    (0.0, 0.995, 4, 5_000),  # never explores
    (1.0, 1.0, 5, 3_000),  # always above the threshold
])
def test_training_equals_one_act_per_step(epsilon, decay, seed, steps):
    # the training loop as first written: `act()` draws each coin and
    # any action draw from the agent's stream, one at a time
    def reference(agent):
        cost = [age_cost(age) for age in (1.0 + PAUSE_STEP_S, 1.0)]
        actions = []
        for _ in range(steps):
            a = agent.act()
            agent.values[a] += agent.lr * (cost[a] - agent.values[a])
            agent.epsilon *= agent.epsilon_decay
            actions.append(a)
        return actions

    want = QAgent(epsilon=epsilon, epsilon_decay=decay, seed=seed)
    got = QAgent(epsilon=epsilon, epsilon_decay=decay, seed=seed)
    assert train_pause_resume(got, 1.0, steps).action_history == reference(want)
    assert (got.values, got.epsilon) == (want.values, want.epsilon)
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


def test_agent_validation():
    with pytest.raises(ConfigError):
        QAgent(epsilon=1.5)
    with pytest.raises(ConfigError):
        QAgent(lr=0.0)
    with pytest.raises(ConfigError):
        QAgent(n_bins=1)
    for decay in (1.5, -1.0, math.nan):  # epsilon would leave [0, 1]
        with pytest.raises(ConfigError, match="decay"):
            QAgent(epsilon_decay=decay)
    for delay_s in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="delay"):
            train_pause_resume(QAgent(), delay_s, 10)
    with pytest.raises(ConfigError, match="iterations"):
        train_pause_resume(QAgent(), 1.0, 0)


def test_training_refuses_more_steps_than_the_bound(monkeypatch):
    monkeypatch.setattr(policies, "MAX_ITERATIONS", 10)
    assert len(train_pause_resume(QAgent(), 1.0, 10).action_history) == 10
    with pytest.raises(ConfigError, match="^11 iterations are more than the bound of 10 per run$"):
        train_pause_resume(QAgent(), 1.0, 11)


# ------------------------------------------------------------ golden digests


def test_q_learning_golden_digests():
    # sha256 of the Q-table, histories, visited bins and resume values
    # over 20k steps at a 1 s delay, pinned while the learner kept a
    # table of every bin; the table is rebuilt from the one state's
    # values, every other row at its initial value
    got = {}
    for seed in (0, 11):
        agent = QAgent(seed=seed)
        res = train_pause_resume(agent, 1.0, 20_000)
        table = np.full((agent.n_bins, 2), Q_INIT)
        table[res.resume_bin] = res.values
        got[f"default/seed{seed}"] = sha256_of(
            table, np.array([res.action_ages[a] for a in res.action_history]),
            np.array(res.action_history, dtype=np.int64),
            repr(([res.resume_bin], {res.resume_bin: res.values[ACTION_RESUME]},
                  agent.epsilon)))
    assert got == Q_GOLDEN


def test_qlearn_cli_golden_digest(tmp_path, capsys, monkeypatch):
    from aoikit.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.cfg").write_text("bins=16\nepsilon0=0.6\n")
    got = {}
    for key, extra in (("default", []), ("config", ["--config", "q.cfg"])):
        code = main(["policy", "--name", "qlearn", "--emulated", "fixed_delay=250ms",
                     "--iters", "6000", "--seed", "3", "--out", "ql", *extra])
        assert code == 0
        got[key] = sha256_of(capsys.readouterr().out,
                             (tmp_path / "ql.decisions.csv").read_text())
    assert got == QLEARN_CLI_GOLDEN


Q_GOLDEN = {
    "default/seed0":
        "a497f7817cc1946bc5fa3ac15011feda8d03a1666d7d0497d81b190f1d2224e7",
    "default/seed11":
        "f04a3f4d567bdb474012cd7b88e1939f71c71c1e6fc99d2fb7d94b9ade3a09c4",
}

QLEARN_CLI_GOLDEN = {
    "default":
        "ca403e82d698d33482a140c4a070426426421a183a8bc8760b74d686bcdf8798",
    "config":
        "eec74eb7c0f9951d017db8c31d5d0ecff9d6e751e83b2a9ca55e79c0d9d21fcd",
}
