"""Age-of-information toolkit: exact age statistics from timestamp
traces, queue and scheduler simulation, rate-control policies, and a
UDP echo measurement harness."""

from .errors import (
    AoiError,
    ConfigError,
    InsufficientDataError,
    MalformedPacketError,
    NotReadyError,
    RangeError,
    TraceFormatError,
)
from .metrics import (
    BiasModel,
    PenaltySpec,
    age_floor,
    apply_bias,
    average_age_by_generation,
    average_age_by_reception,
    instantaneous_age,
    mean_delay,
    peak_age,
    penalty_average,
    penalty_bias,
)
from .trace import AgeTrace, read_csv
from .queuesim import (
    ArrivalSpec,
    ChannelModel,
    ServiceSpec,
    SimConfig,
    analytic_mm1_age,
    simulate,
    sweep_rate,
)
from .scheduler import SchedulerConfig, simulate_scheduler
from .policies import AcpState, QAgent, acp_epoch_update
from .emulate import (
    EmulatedChannelSpec,
    estimate_offset_emulated,
    run_rate_policy,
    run_sampler_emulated,
)
from .udp import EchoServer, estimate_offset, run_sampler

__version__ = "0.1.0"

__all__ = [
    "AoiError",
    "ConfigError",
    "InsufficientDataError",
    "MalformedPacketError",
    "NotReadyError",
    "RangeError",
    "TraceFormatError",
    "AgeTrace",
    "read_csv",
    "BiasModel",
    "PenaltySpec",
    "age_floor",
    "apply_bias",
    "average_age_by_generation",
    "average_age_by_reception",
    "instantaneous_age",
    "mean_delay",
    "peak_age",
    "penalty_average",
    "penalty_bias",
    "ArrivalSpec",
    "ChannelModel",
    "ServiceSpec",
    "SimConfig",
    "analytic_mm1_age",
    "simulate",
    "sweep_rate",
    "SchedulerConfig",
    "simulate_scheduler",
    "AcpState",
    "QAgent",
    "acp_epoch_update",
    "EmulatedChannelSpec",
    "estimate_offset_emulated",
    "run_rate_policy",
    "run_sampler_emulated",
    "EchoServer",
    "estimate_offset",
    "run_sampler",
    "__version__",
]
