"""Every record class against a `@dataclass` twin with the same fields:
the records write their methods in source, and must construct, print,
compare and hash as the generated ones do."""

import dataclasses
import inspect
from dataclasses import field

import numpy as np
import pytest

from aoikit import emulate, manifest, metrics, policies, queuesim, scheduler, udp, wire
from aoikit.errors import ConfigError
from aoikit.queuesim import ArrivalSpec, ServiceSpec

# (class, frozen, slots, twin fields as (name, default or field) or name
# alone, sample constructor arguments, how many of them are required)
CASES = [
    (emulate.EmulatedChannelSpec, True, False,
     [("fwd_delay_s", 0.0), ("bwd_delay_s", 0.0), ("jitter_s", 0.0),
      ("rtt_lognorm_median_s", None), ("rtt_lognorm_sigma", 0.5), ("capacity_hz", None),
      ("buffer", None), ("loss_p", 0.0), ("loss_onset_load", None),
      ("busy_loss_p", queuesim.BUSY_LOSS_P), ("panicked_loss_p", queuesim.PANICKED_LOSS_P),
      ("capacity_step_at_s", None), ("capacity_step_factor", 1.0), ("peer_offset_s", 0.0),
      ("seed", 0)],
     (0.01, 0.02, 0.001, None, 0.4, 100.0, 3, 0.05, 0.5, 0.03, 0.2, 10.0, 0.5, 0.004, 7), 0),
    (emulate.ChannelTransit, False, True, ["arrive_fwd_s", "ack_s"], (1.5, 2.5), 2),
    (emulate.EmulatedSamplerResult, False, False,
     ["trace", "truth_trace", "sent", "received"], ("trace", "truth", 10, 9), 4),
    (emulate.OffsetEstimate, False, False, ["offset_ns", "rtt_samples_s", "confidence_s", "n"],
     (123, [0.01, 0.02], 0.001, 10), 4),
    (emulate.PolicyRunResult, False, False,
     ["trace", "decisions", "mean_inflight", "mean_rate_hz", "final_rate_hz",
      "median_age_s", "sent", "acked"],
     ("trace", "log", 1.5, 20.0, 19.0, 0.05, 100, 98), 8),
    (manifest.RunManifest, False, False,
     ["subcommand", "argv", "config", "seed", ("outputs", field(default_factory=list)),
      ("version", manifest.__version__),
      ("started_utc", field(default_factory=lambda: manifest._utcnow())),
      ("finished_utc", "")],
     ("sim", ["sim", "--seed", "1"], {"rho": "0.5"}, 1, ["out.csv"], "9.9", "S", "F"), 4),
    (metrics.PenaltySpec, True, False, ["kind", "alpha"], ("exponential", 0.5), 2),
    (metrics.BiasModel, True, False, ["bias_ns"], (-5,), 1),
    (policies.PolicyObservation, False, True,
     [("ewma_rtt_s", None), ("epoch_s", 0.0), ("avg_age_epoch_s", 0.0),
      ("avg_backlog_epoch", 0.0), ("epoch_acks", 0)],
     (0.02, 0.05, 0.3, 2.5, 4), 0),
    (policies.AcpState, False, False,
     [("kappa", 1.0), ("backlog_cap", 64.0), ("epoch_floor_s", policies.EPOCH_FLOOR_S),
      ("target_backlog", field(init=False)), ("mdec_streak", field(init=False, default=0)),
      ("prev_age", field(init=False, default=None)),
      ("prev_backlog", field(init=False, default=None))],
     (2.0, 32.0, 0.02), 0),
    (policies.QAgent, False, False,
     [("n_bins", 64), ("lr", 0.1), ("epsilon", 1.0), ("epsilon_decay", 0.995), ("seed", 0),
      ("values", field(init=False)), ("rng", field(init=False))],
     (16, 0.2, 0.5, 0.9, 3), 0),
    (policies.QTrainResult, False, False,
     ["iterations", "resume_bin", "values", "action_ages", "action_history"],
     (100, 3, (0.1, 0.2), (1.1, 1.0), [0, 1, 1]), 5),
    (ArrivalSpec, True, False, ["kind", ("rate", 0.0), ("hook", None)],
     ("zero-wait", 2.0, abs), 1),
    (ServiceSpec, True, False, ["kind", "mu"], ("exponential", 3.0), 2),
    (queuesim.SimConfig, True, False,
     ["arrival", "service", ("discipline", "fcfs"), ("capacity", None), ("loss_p", 0.0),
      ("retransmit", False), ("delivery_offset_s", 0.0), ("horizon", 1000), ("seed", 0)],
     (ArrivalSpec("poisson", 0.5), ServiceSpec("exponential", 1.0), "lcfs1", 4, 0.1, True,
      0.25, 500, 9), 2),
    (queuesim.SimRun, False, False, ["trace", "meta"], ("trace", {"loss": 1}), 2),
    (queuesim.SweepRow, True, False,
     ["rate_hz", "avg_age_s", "peak_age_s", "loss", "avg_delay_s"], (1.5, 2.0, 3.0, 4, 0.5), 5),
    (queuesim.ChannelModel, True, False,
     [("base_rtt_s", 0.0), ("bandwidth_bps", 130_000.0), ("packet_bytes", 1058),
      ("loss_onset_load", 0.6), ("busy_loss_p", queuesim.BUSY_LOSS_P),
      ("panicked_loss_p", queuesim.PANICKED_LOSS_P)],
     (0.02, 200_000.0, 500, 0.7, 0.05, 0.25), 0),
    (scheduler.SchedulerConfig, True, False,
     ["n_sources", "success_prob", ("frame_s", 1.0), ("policy", "round-robin"),
      ("weight_exponent", 1.0)],
     (2, (0.5, 0.9), 0.5, "max-weight", 2.0), 2),
    (scheduler.SchedulerRun, False, False,
     ["config", "frames", "seed", "avg_age_per_source", "polls", "successes",
      ("delivery_frames", field(repr=False, compare=False))],
     (scheduler.SchedulerConfig(2, (0.5, 0.9)), 10, 1, [1.0, 2.0], [5, 5], [3, 4],
      [np.array([1, 2]), np.array([3])]), 7),
    (udp.SamplerResult, False, False,
     ["trace", "sent", "received", "duplicates", "unmatched", ("aborted", False)],
     ("trace", 10, 9, 1, 2, True), 5),
    (wire.WirePacket, True, False,
     ["msg_type", "id", "gen_ts_ns", ("extra_ts_ns", 0), ("payload", b"")],
     (wire.MSG_DATA, 7, 123, 456, b"xy"), 3),
]


def twin_of(cls, frozen, slots, fields):
    specs = [(f, object) if isinstance(f, str) else (f[0], object, f[1]) for f in fields]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen, slots=slots)


def built(cls, twin, args, kwargs):
    """One record and its twin from the same arguments; the twin takes
    the record's values of the fields its constructor does not set."""
    real, copy = cls(*args, **kwargs), twin(*args, **kwargs)
    for f in dataclasses.fields(twin):
        if not f.init:
            setattr(copy, f.name, getattr(real, f.name))
    return real, copy


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def signature(c):
    """The constructor's parameters; a record's default of None stands
    for a dataclass default factory."""
    return [(p.name, p.kind, None if repr(p.default) == "<factory>" else p.default)
            for p in inspect.signature(c).parameters.values()]


@pytest.mark.parametrize("cls, frozen, slots, fields, args, required", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_behaves_as_its_dataclass_twin(monkeypatch, cls, frozen, slots, fields,
                                              args, required):
    monkeypatch.setattr(manifest, "_utcnow", lambda: "2024-01-01T00:00:00+00:00")
    twin = twin_of(cls, frozen, slots, fields)
    names = [f.name for f in dataclasses.fields(twin) if f.init]
    assert len(names) == len(args)
    assert signature(cls) == signature(twin)

    pairs = [built(cls, twin, args, {}),  # by position
             built(cls, twin, (), dict(zip(names, args))),  # by keyword
             built(cls, twin, args[:required], {})]  # with defaults
    for real, copy in pairs:
        assert repr(real) == repr(copy)
        assert hash_or_error(real) == hash_or_error(copy)
        assert (real == copy) is False and (real != copy) is True
        assert hasattr(real, "__dict__") == hasattr(copy, "__dict__")
    for real_a, copy_a in pairs:
        for real_b, copy_b in pairs:
            assert (real_a == real_b) == (copy_a == copy_b)
            assert (real_a != real_b) == (copy_a != copy_b)

    real, copy = pairs[0]
    if frozen:
        for name in names:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(real, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(real, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(copy, name, None)
        assert repr(real) == repr(copy)
        changed = pairs[2][0].replace(**dict(zip(names, args)))
        assert repr(changed) == repr(dataclasses.replace(pairs[2][1], **dict(zip(names, args))))
        assert changed == real and hash(changed) == hash(real)


def test_replace_refuses_what_the_constructor_refuses():
    cfg = queuesim.SimConfig(ArrivalSpec("poisson", 0.5), ServiceSpec("exponential", 1.0))
    with pytest.raises(TypeError, match="rate"):
        cfg.replace(rate=2.0)
    with pytest.raises(ConfigError, match="loss probability"):
        cfg.replace(loss_p=1.0)
    assert cfg.replace(seed=3) == queuesim.SimConfig(cfg.arrival, cfg.service, seed=3)
    assert cfg.seed == 0
