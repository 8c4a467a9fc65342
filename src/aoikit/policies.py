"""Rate-control and sampling policies driven by live age, RTT, and
backlog observations.

All policies are single-caller state machines: feed observations in
event order, read decisions out. None of them is safe for concurrent
mutation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional

import numpy as np

from .errors import ConfigError, NotReadyError
from .records import Record

EWMA_ALPHA = 0.125  # classic transport smoothing constant
EPOCH_FLOOR_S = 0.010  # closed-loop epochs are never shorter than this

ACTION_INC = "INC"
ACTION_DEC = "DEC"
ACTION_MDEC = "MDEC"


class PolicyObservation(Record):
    """What a closed-loop sender sees at an epoch end: the smoothed
    rtt, the epoch's length and acknowledgements, and its time-averaged
    age and packets in flight. A slotted record with a written
    `__init__`, not a tuple: the runner builds one per epoch for a
    sender that observes, and this is the cheaper kind to build."""

    __slots__ = _fields = ("ewma_rtt_s", "epoch_s", "avg_age_epoch_s",
                           "avg_backlog_epoch", "epoch_acks")

    def __init__(self, ewma_rtt_s: Optional[float] = None, epoch_s: float = 0.0,
                 avg_age_epoch_s: float = 0.0, avg_backlog_epoch: float = 0.0,
                 epoch_acks: int = 0):
        self.ewma_rtt_s = ewma_rtt_s
        self.epoch_s = epoch_s
        self.avg_age_epoch_s = avg_age_epoch_s
        self.avg_backlog_epoch = avg_backlog_epoch
        self.epoch_acks = epoch_acks


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


class AcpState(Record):
    """The backlog-target sender and its epoch-level controller state.

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

    As a closed-loop sender (see below) the first ack sets the rate to
    target/rtt, and every epoch end applies `acp_epoch_update`. The
    constructor takes only settings; the controller state starts inside.
    """

    paced = True
    _fields = ("kappa", "backlog_cap", "epoch_floor_s", "target_backlog", "mdec_streak",
               "prev_age", "prev_backlog")

    def __init__(self, kappa: float = 1.0, backlog_cap: float = 64.0,
                 epoch_floor_s: float = EPOCH_FLOOR_S):
        # an infinite rate sends every packet at one instant, and a nan
        # epoch time never ends: neither run would finish
        if not (0 < kappa < math.inf):
            raise ConfigError("step size must be positive and finite")
        if not (kappa <= backlog_cap < math.inf):
            raise ConfigError("backlog cap must be finite and at least the step size")
        if not (0 <= epoch_floor_s < math.inf):
            raise ConfigError("epoch floor must be finite and non-negative")
        self.kappa = kappa
        self.backlog_cap = backlog_cap
        self.epoch_floor_s = epoch_floor_s
        self.target_backlog = min(max(1.0, kappa), backlog_cap)
        self.mdec_streak = 0
        self.prev_age: Optional[float] = None
        self.prev_backlog: Optional[float] = None

    def on_ack(self, ewma_rtt_s: float, first: bool) -> Optional[float]:
        return self.target_backlog / ewma_rtt_s if first else None

    def on_epoch(self, obs: PolicyObservation, rate_hz: Optional[float]):
        # the module global, looked up per call, so that a wrapper put
        # in its place sees every update
        action, rate = acp_epoch_update(self, obs)
        return action, self.target_backlog, rate, rate


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
# a new rate or None; `on_epoch` takes the epoch's `PolicyObservation`,
# or None for a sender whose `observes` is false, and returns (action,
# target backlog, rate to log, new rate or None). None keeps the rate,
# and its time integral, as it is. `AcpState` above is the third sender.


class Lazy:
    """About one packet in flight: the rate is 1/smoothed rtt, reset on
    every ack; epochs only log it."""

    paced = True
    observes = False  # its epochs read no observation
    epoch_floor_s = EPOCH_FLOOR_S

    def on_ack(self, ewma_rtt_s: float, first: bool) -> Optional[float]:
        return 1.0 / ewma_rtt_s

    def on_epoch(self, obs: PolicyObservation, rate_hz: Optional[float]):
        return "RATE", 1.0, rate_hz, None


class ZeroWait:
    """Send on ack; epochs log the observed ack rate."""

    paced = False
    epoch_floor_s = EPOCH_FLOOR_S

    def on_ack(self, ewma_rtt_s: float, first: bool) -> Optional[float]:
        return None

    def on_epoch(self, obs: PolicyObservation, rate_hz: Optional[float]):
        ack_rate = obs.epoch_acks / obs.epoch_s if obs.epoch_s > 0 else 0.0
        return "SEND-ON-ACK", 1.0, ack_rate, None


# policy name -> its closed-loop sender
SENDERS = {"lazy": Lazy, "acp": AcpState, "zero-wait": ZeroWait}


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


# the learner's age bins span these edges; ages outside clamp into the
# end bins
Q_AGE_LO_S = 1e-3
Q_AGE_HI_S = 100.0
PAUSE_STEP_S = 0.1  # how much older a pause leaves the age
# steps per training run, as `emulate.MAX_SENDS` bounds the sends of one
# run; every step logs one action
MAX_ITERATIONS = 1_000_000
Q_BLOCK_EPSILON, Q_BLOCK = 0.01, 4096  # below this epsilon, coins come in blocks


class QAgent(Record):
    """Pause/resume learner of the one age state every step starts in.

    It keeps that state's value per action, and the state's age bin
    among `n_bins` names it; decisions pick the cheaper action.
    Exploration follows a decaying epsilon-greedy schedule
    (`train_pause_resume` decays it after every step).
    """

    _fields = ("n_bins", "lr", "epsilon", "epsilon_decay", "seed", "values", "rng")

    def __init__(self, n_bins: int = 64, lr: float = 0.1, epsilon: float = 1.0,
                 epsilon_decay: float = 0.995, seed: int = 0):
        if not (0.0 <= epsilon <= 1.0):
            raise ConfigError("epsilon must be in [0, 1]")
        if not (0.0 <= epsilon_decay <= 1.0):  # keeps epsilon in [0, 1]
            raise ConfigError("epsilon decay must be in [0, 1]")
        if not (0.0 < lr <= 1.0):
            raise ConfigError("learning rate must be in (0, 1]")
        if n_bins < 2:
            raise ConfigError("need at least two age bins")
        self.n_bins = n_bins
        self.lr = lr
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.seed = seed
        self.values = [Q_INIT] * len(Q_ACTIONS)  # by action
        self.rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def act(self) -> int:
        if self.rng.random() < self.epsilon:
            return int(self.rng.integers(len(Q_ACTIONS)))
        values = self.values
        return values.index(min(values))  # the first minimum, as argmin


class QTrainResult(Record):
    _fields = ("iterations", "resume_bin", "values", "action_ages", "action_history")

    def __init__(self, iterations: int, resume_bin: int, values: tuple[float, float],
                 action_ages: tuple[float, float], action_history: list[int]):
        self.iterations = iterations
        self.resume_bin = resume_bin  # the age bin of the path delay, where every step starts
        self.values = values  # its value per action after the last step
        self.action_ages = action_ages  # the age each action produces, by action
        self.action_history = action_history


def train_pause_resume(agent: QAgent, delay_s: float,
                       iterations: int) -> QTrainResult:
    """Train the learner on one-step episodes over a fixed path delay.

    Every episode starts at the delay, since the first sample cannot
    arrive sooner. Resume pins the age at the delay; pause lets it grow
    by `PAUSE_STEP_S`. Each update is terminal: the action's value
    moves toward the cost of the age the action produced, so the resume
    value converges to 1 - exp(-delay). Bandwidth is unlimited, so
    resume is never penalized by queueing and always resuming is
    optimal.
    """
    if not delay_s > 0:
        raise ConfigError("path delay must be positive")
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if iterations > MAX_ITERATIONS:
        raise ConfigError(f"{iterations} iterations are more than the bound of "
                          f"{MAX_ITERATIONS} per run")
    next_age = (delay_s + PAUSE_STEP_S, delay_s)  # by action
    cost = [age_cost(age) for age in next_age]
    q, lr, decay, rng = agent.values, agent.lr, agent.epsilon_decay, agent.rng
    eps = agent.epsilon
    actions = []
    # each step is `agent.act()`; below Q_BLOCK_EPSILON the coins come
    # Q_BLOCK at a time, and a step that explores rewinds the stream to
    # just after its coin for its action draw, which ends the block
    while len(actions) < iterations:
        if eps >= Q_BLOCK_EPSILON:
            saved, coins = None, [rng.random()]
        else:
            saved = rng.bit_generator.state
            coins = rng.random(min(Q_BLOCK, iterations - len(actions))).tolist()
        for j, coin in enumerate(coins, 1):
            explores = coin < eps
            if explores:
                if saved is not None:
                    rng.bit_generator.state = saved
                    rng.random(j)
                a = int(rng.integers(len(Q_ACTIONS)))
            else:
                a = 1 if q[1] < q[0] else 0  # the first minimum, as act()
            q[a] += lr * (cost[a] - q[a])
            eps *= decay
            actions.append(a)
            if explores:
                break
    agent.epsilon = eps
    edges = np.geomspace(Q_AGE_LO_S, Q_AGE_HI_S, agent.n_bins + 1).tolist()
    b = bisect_right(edges, delay_s, 1, agent.n_bins) - 1  # the inner edges: clamps
    return QTrainResult(iterations, b, tuple(q), next_age, actions)
