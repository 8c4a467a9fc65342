"""Age-of-information toolkit: exact age statistics from timestamp
traces, queue and scheduler simulation, rate-control policies, and a
UDP echo measurement harness.

Each exported name is imported from its submodule on first use
(PEP 562), so a process loads only the modules it touches."""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["AoiError", "ConfigError", "InsufficientDataError",
                     "MalformedPacketError", "NotReadyError", "RangeError",
                     "TraceFormatError"], "errors"),
    **dict.fromkeys(["AgeTrace", "read_csv"], "trace"),
    **dict.fromkeys(["BiasModel", "PenaltySpec", "age_floor", "apply_bias",
                     "average_age_by_generation", "average_age_by_reception",
                     "instantaneous_age", "mean_delay", "peak_age",
                     "penalty_average", "penalty_bias"], "metrics"),
    **dict.fromkeys(["ArrivalSpec", "ChannelModel", "ServiceSpec", "SimConfig",
                     "analytic_mm1_age", "simulate", "sweep_rate"], "queuesim"),
    **dict.fromkeys(["SchedulerConfig", "analytic_avg_age_per_source",
                     "simulate_scheduler"], "scheduler"),
    **dict.fromkeys(["AcpState", "Lazy", "QAgent", "ZeroWait", "acp_epoch_update"],
                    "policies"),
    **dict.fromkeys(["EmulatedChannelSpec", "estimate_offset_emulated",
                     "run_rate_policy", "run_sampler_emulated"], "emulate"),
    **dict.fromkeys(["EchoServer", "estimate_offset", "run_sampler"], "udp"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
