"""Rate-control and sampling policies driven by live age, RTT, and
backlog observations.

All policies are single-caller state machines: feed observations in
event order, read decisions out. None of them is safe for concurrent
mutation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NotReadyError

EWMA_ALPHA = 0.125  # classic transport smoothing constant

ACTION_INC = "INC"
ACTION_DEC = "DEC"
ACTION_MDEC = "MDEC"


@dataclass(frozen=True)
class PolicyObservation:
    """What a closed-loop sender sees at an epoch end: the smoothed
    rtt, the epoch's length and acknowledgements, and its time-averaged
    age and packets in flight."""

    ewma_rtt_s: Optional[float] = None
    epoch_s: float = 0.0
    avg_age_epoch_s: float = 0.0
    avg_backlog_epoch: float = 0.0
    epoch_acks: int = 0


class EwmaEstimator:
    """Exponentially weighted moving average with first-sample
    initialization."""

    def __init__(self, alpha: float = EWMA_ALPHA):
        if not (0.0 < alpha <= 1.0):
            raise ConfigError("smoothing factor must be in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)
        return self.value


# ------------------------------------------------------------------ epochs

# significance bands of `acp_epoch_update`: a delta counts as "up" only
# beyond them
AGE_BAND_FRAC = 0.5  # of the smoothed rtt
BACKLOG_BAND = 0.75  # packets


@dataclass
class AcpState:
    """Epoch-level controller state for the backlog-target sender.

    At each epoch end the controller compares the epoch's average age
    and backlog with the previous epoch's and picks one of three
    actions: additive increase, additive decrease, or multiplicative
    decrease of the backlog target. Consecutive multiplicative
    decreases escalate: the k-th one in a row multiplies the target by
    2**-k. The decision table (see `acp_epoch_update`) is a local
    convention in the additive-increase/multiplicative-decrease
    tradition; only the action vocabulary is inherited.

    A delta only counts as "up" when it clears a significance band
    (`AGE_BAND_FRAC` of the smoothed rtt for age, `BACKLOG_BAND`
    packets for backlog); on stochastic paths the raw epoch-to-epoch
    signs are dominated by sampling noise and would fire
    multiplicative decreases continually.
    """

    kappa: float = 1.0
    target_backlog: float = 1.0
    backlog_cap: float = 64.0
    mdec_streak: int = 0
    prev_age: Optional[float] = None
    prev_backlog: Optional[float] = None
    epoch_floor_s: float = 0.010  # epochs never shorter than this

    def __post_init__(self):
        if not (self.kappa > 0):
            raise ConfigError("step size must be positive")
        if self.backlog_cap < self.kappa:
            raise ConfigError("backlog cap below the floor")
        self.target_backlog = min(max(self.target_backlog, self.kappa),
                                  self.backlog_cap)


def acp_epoch_update(
    state: AcpState, obs: PolicyObservation
) -> tuple[str, float]:
    """Apply one epoch of feedback; returns (action, new rate in
    packets per second) and mutates the state in place.

    Decision table on (age delta, backlog delta):
        age up,   backlog up   -> MDEC  (congestion: punish hard)
        age up,   backlog down -> INC   (starving: feed the pipe)
        age down, backlog up   -> DEC   (paying backlog for nothing)
        age down, backlog down -> INC   (room to improve)
    An epoch with zero acknowledgements is treated as a congestion
    signal and forces MDEC.
    """
    if obs.ewma_rtt_s is None or obs.ewma_rtt_s <= 0:
        raise NotReadyError("round-trip estimator not initialized")

    if obs.epoch_acks == 0:
        action = ACTION_MDEC
    else:
        if state.prev_age is None:
            age_up, backlog_up = False, False  # first epoch: optimistic
        else:
            age_up = (obs.avg_age_epoch_s - state.prev_age) \
                > AGE_BAND_FRAC * obs.ewma_rtt_s
            backlog_up = (obs.avg_backlog_epoch - state.prev_backlog) \
                > BACKLOG_BAND
        if age_up and backlog_up:
            action = ACTION_MDEC
        elif age_up:
            action = ACTION_INC
        elif backlog_up:
            action = ACTION_DEC
        else:
            action = ACTION_INC

    if action == ACTION_MDEC:
        state.mdec_streak += 1
        state.target_backlog *= 2.0 ** (-state.mdec_streak)
    else:
        state.mdec_streak = 0
        if action == ACTION_INC:
            state.target_backlog += state.kappa
        else:
            state.target_backlog -= state.kappa
    state.target_backlog = min(
        max(state.target_backlog, state.kappa), state.backlog_cap
    )

    if obs.epoch_acks > 0:
        state.prev_age = obs.avg_age_epoch_s
        state.prev_backlog = obs.avg_backlog_epoch
    rate = state.target_backlog / obs.ewma_rtt_s
    return action, rate


# ------------------------------------------------------ closed-loop senders
# `emulate.run_rate_policy` drives any of these without knowing which.
# A `paced` sender probes until the first ack, then sends at its rate;
# an unpaced one sends only when nothing is in flight. `on_ack` returns
# a new rate or None; `on_epoch` returns (action, target backlog, rate
# to log, new rate or None). None keeps the rate, and its time
# integral, as it is.


class _Lazy:
    """About one packet in flight: the rate is 1/smoothed rtt, reset on
    every ack; epochs only log it."""

    paced = True
    epoch_floor_s = 0.010

    def on_ack(self, ewma_rtt_s: float, first: bool) -> Optional[float]:
        return 1.0 / ewma_rtt_s

    def on_epoch(self, obs: PolicyObservation, rate_hz: Optional[float]):
        return "RATE", 1.0, rate_hz, None


class _Acp:
    """The backlog-target controller: the first ack sets the rate to
    target/rtt, and every epoch end applies `acp_epoch_update`."""

    paced = True

    def __init__(self, state: AcpState):
        self.state = state
        self.epoch_floor_s = state.epoch_floor_s

    def on_ack(self, ewma_rtt_s: float, first: bool) -> Optional[float]:
        return self.state.target_backlog / ewma_rtt_s if first else None

    def on_epoch(self, obs: PolicyObservation, rate_hz: Optional[float]):
        action, rate = acp_epoch_update(self.state, obs)
        return action, self.state.target_backlog, rate, rate


class _ZeroWait:
    """Send on ack; epochs log the observed ack rate."""

    paced = False
    epoch_floor_s = 0.010

    def on_ack(self, ewma_rtt_s: float, first: bool) -> Optional[float]:
        return None

    def on_epoch(self, obs: PolicyObservation, rate_hz: Optional[float]):
        ack_rate = obs.epoch_acks / obs.epoch_s if obs.epoch_s > 0 else 0.0
        return "SEND-ON-ACK", 1.0, ack_rate, None


def rate_policy(name: str, acp: Optional[AcpState] = None):
    """The closed-loop sender `name`: "lazy", "acp" (controlled by `acp`,
    a default AcpState if None) or "zero-wait"."""
    if name == "lazy":
        return _Lazy()
    if name == "acp":
        return _Acp(AcpState() if acp is None else acp)
    if name == "zero-wait":
        return _ZeroWait()
    raise ConfigError(f"unknown rate policy {name!r}")


# ------------------------------------------------------------- Q-learning


ACTION_PAUSE = 0
ACTION_RESUME = 1
Q_ACTIONS = ("pause", "resume")
# Q-values start at the supremum of the cost range and converge
# downward, so an action never looks good merely for being
# under-sampled
Q_INIT = 1.0


def age_cost(age_s: float) -> float:
    """Cost of sitting at a given age: 1 - exp(-age). Zero at zero age,
    monotone increasing, bounded below one."""
    return -math.expm1(-age_s)


@dataclass
class QAgent:
    """Tabular pause/resume learner over geometric age bins.

    The table maps an age bin to a value per action; decisions pick
    the action with the smallest expected cost. Exploration follows a
    decaying epsilon-greedy schedule (decay applied once per episode
    via `end_episode`).
    """

    n_bins: int = 64
    age_lo_s: float = 1e-3
    age_hi_s: float = 100.0
    gamma: float = 0.99
    lr: float = 0.1
    epsilon: float = 1.0
    epsilon_decay: float = 0.995
    seed: int = 0
    bins: np.ndarray = field(init=False)
    q_table: np.ndarray = field(init=False)
    rng: np.random.Generator = field(init=False)
    _edges: list[float] = field(init=False, repr=False)  # bins, as floats

    def __post_init__(self):
        if not (0.0 <= self.epsilon <= 1.0):
            raise ConfigError("epsilon must be in [0, 1]")
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError("discount must be in [0, 1)")
        if not (0.0 < self.lr <= 1.0):
            raise ConfigError("learning rate must be in (0, 1]")
        if self.n_bins < 2 or not (0 < self.age_lo_s < self.age_hi_s):
            raise ConfigError("bad age binning")
        self.bins = np.geomspace(self.age_lo_s, self.age_hi_s, self.n_bins + 1)
        self._edges = self.bins.tolist()
        self.q_table = np.full((self.n_bins, len(Q_ACTIONS)), Q_INIT)
        self.rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed))
        )

    def bin_of(self, age_s: float) -> int:
        """Ages above the top edge clamp into the last bin; below the
        bottom edge into the first."""
        # searching the inner edges only is what clamps
        return bisect_right(self._edges, age_s, 1, self.n_bins) - 1

    def step(self, s_age_s: float, action: int, s_next_age_s: float,
             done: bool) -> float:
        """Temporal-difference update toward cost + discounted best
        next value, or toward the bare cost at a terminal transition.
        The cost is charged for the age the action produced. Returns
        the update target."""
        s = self.bin_of(s_age_s)
        target = age_cost(s_next_age_s)
        if not done:
            target += self.gamma * min(self.q_table[self.bin_of(s_next_age_s)].tolist())
        q = self.q_table.item(s, action)
        self.q_table[s, action] = q + self.lr * (target - q)
        return target

    def act(self, age_s: float) -> int:
        if self.rng.random() < self.epsilon:
            return int(self.rng.integers(len(Q_ACTIONS)))
        values = self.q_table[self.bin_of(age_s)].tolist()
        return values.index(min(values))  # the first minimum, as argmin

    def end_episode(self) -> None:
        self.epsilon *= self.epsilon_decay


class PauseResumeEnv:
    """Minimal age dynamics for the pause/resume learner: on resume a
    fresh sample arrives after the fixed path delay, pinning the age
    at that delay; on pause the age keeps growing by the step length.
    Every episode starts at the path delay, since the first sample
    cannot arrive sooner. Bandwidth is unlimited, so resume is never
    penalized by queueing and the optimal policy is to always resume.
    """

    def __init__(self, delay_s: float = 1.0, step_s: float = 0.1):
        if delay_s <= 0 or step_s <= 0:
            raise ConfigError("delay and step must be positive")
        self.delay_s = delay_s
        self.step_s = step_s
        self.age_s = delay_s

    def reset(self) -> float:
        self.age_s = self.delay_s
        return self.age_s

    def step(self, action: int) -> float:
        if action == ACTION_RESUME:
            self.age_s = self.delay_s
        else:
            self.age_s += self.step_s
        return self.age_s


@dataclass
class QTrainResult:
    iterations: int
    visited_bins: list[int]
    final_resume_values: dict[int, float]
    age_history: list[float]
    action_history: list[int]


def train_pause_resume(
    agent: QAgent,
    env: PauseResumeEnv,
    iterations: int,
    episode_len: int = 1,
    record_history: bool = False,
) -> QTrainResult:
    """Drive the learner against the environment.

    Episodes default to a single step, so every update is terminal and
    the learned value of each (bin, action) pair converges to the bare
    cost of the age that action produces; with a fixed path delay that
    fixed point for resume is 1 - exp(-delay).
    """
    if iterations < 1 or episode_len < 1:
        raise ConfigError("iterations and episode length must be >= 1")
    visited: set[int] = set()
    ages: list[float] = []
    actions: list[int] = []
    done_mod = episode_len
    s = env.reset()
    step_in_episode = 0
    for _ in range(iterations):
        a = agent.act(s)
        s_next = env.step(a)
        step_in_episode += 1
        done = step_in_episode >= done_mod
        agent.step(s, a, s_next, done)
        visited.add(agent.bin_of(s))
        if record_history:
            ages.append(s_next)
            actions.append(a)
        if done:
            agent.end_episode()
            s = env.reset()
            step_in_episode = 0
        else:
            s = s_next
    resume_vals = {
        b: float(agent.q_table[b, ACTION_RESUME]) for b in sorted(visited)
    }
    return QTrainResult(iterations, sorted(visited), resume_vals,
                        ages, actions)
