"""The benchmark's workloads: the commands each one runs and the inputs
the benchmark generates for them from the workload seed.

Each workload is a closed loop of commands run one at a time. Commands
write their outputs into a per-run work directory; argv paths are
relative to the checkout root, where the children run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("trace-io", "event-sweep", "closed-loop", "polling")

# run lengths: every command takes about a second or less, so that a
# run holds many passes (see run.measure)
MM1_ARRIVALS = 300_000
LOSSY_ROWS = 300_000
LOSSY_LOSS_SHARE = 0.05
LOSSY_REORDER_SHARE = 0.02
BOTTLENECK_ARRIVALS = 15_000
MM1K_ARRIVALS = 20_000
ACP_DURATION_S = 3000
LAZY_DURATION_S = 300
ZERO_WAIT_DURATION_S = 150
QLEARN_ITERS = 50_000
SAMPLER_RATE_HZ = 300
SAMPLER_DURATION_S = 30
POLLING_FRAMES = 25_000
POLLING_SOURCES = (8, 64)
POLLING_POLICIES = ("round-robin", "greedy", "max-weight")

BOTTLENECK = ["sweep", "--bottleneck-kbps", "130", "--rate-min", "1.5",
              "--rate-max", "46", "--points", "12",
              "--arrivals", str(BOTTLENECK_ARRIVALS)]


@dataclass
class Command:
    """One child process of a workload pass.

    `name` + "_s" is the name its wall time is reported under. `argv`
    is passed to `python -m aoikit.cli`, or to the benchmark's polling
    driver when `polling` is set. `outputs` are the files (relative to
    the work directory) whose bytes are checked.
    """

    name: str
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    polling: bool = False


@dataclass
class Workload:
    name: str
    commands: list[Command]
    planted_lost: int = 0  # rows the generated lossy trace leaves empty
    planted_obsolete: int = 0  # rows it delivers out of order


def build(name: str, seed: int, work: Path, rel: Path) -> Workload:
    """Generate the workload's inputs into `work` and return its
    commands. `rel` is `work` as seen from the checkout root, where
    the children run."""
    s = str(seed)

    def out(file: str) -> str:
        return str(rel / file)

    if name == "trace-io":
        lost, obsolete = write_lossy_trace(work / "lossy.csv", seed)
        return Workload(name, [
            Command("sim", ["sim", "--model", "mm1", "--rho", "0.53", "--mu", "1",
                            "--arrivals", str(MM1_ARRIVALS), "--seed", s,
                            "--out", out("mm1.csv")],
                    ["mm1.csv", "mm1.csv.meta"]),
            Command("analyze", ["analyze", out("mm1.csv")]),
            Command("analyze_lossy", ["analyze", out("lossy.csv"),
                                      "--penalty", "logarithmic", "--alpha", "1"]),
        ], lost, obsolete)
    if name == "event-sweep":
        return Workload(name, [
            Command("sweep_bottleneck",
                    BOTTLENECK + ["--seed", s, "--out", out("bottleneck.csv")],
                    ["bottleneck.csv"]),
            Command("sweep_lcfs1",
                    BOTTLENECK + ["--discipline", "lcfs1", "--seed", s,
                                  "--out", out("lcfs1.csv")],
                    ["lcfs1.csv"]),
            Command("sweep_retransmit",
                    BOTTLENECK + ["--retransmit", "--seed", s,
                                  "--out", out("retransmit.csv")],
                    ["retransmit.csv"]),
            Command("sweep_mm1k",
                    ["sweep", "--rates", "0.5,0.8,0.95,1.1,1.5,2",
                     "--arrival", "poisson", "--service", "exponential",
                     "--mu", "1", "--capacity", "5",
                     "--arrivals", str(MM1K_ARRIVALS), "--seed", s,
                     "--out", out("mm1k.csv")],
                    ["mm1k.csv"]),
        ])
    if name == "closed-loop":
        def policy(metric, policy_name, channel, length, prefix):
            outputs = [f"{prefix}.decisions.csv"]
            if policy_name != "qlearn":
                outputs.insert(0, f"{prefix}.trace.csv")
            return Command(metric, ["policy", "--name", policy_name,
                                    "--emulated", channel, *length,
                                    "--seed", s, "--out", out(prefix)],
                           outputs)
        return Workload(name, [
            policy("policy_acp", "acp", "capacity_step",
                   ["--duration", str(ACP_DURATION_S)], "acp"),
            policy("policy_lazy", "lazy", "fixed_rtt=5ms,jitter=1ms",
                   ["--duration", str(LAZY_DURATION_S)], "lazy"),
            policy("policy_zero_wait", "zero-wait", "fixed_rtt=5ms",
                   ["--duration", str(ZERO_WAIT_DURATION_S)], "zero_wait"),
            policy("policy_qlearn", "qlearn", "fixed_delay=1s",
                   ["--iters", str(QLEARN_ITERS)], "qlearn"),
            Command("sampler_overload",
                    ["measure", "sampler", "--emulated",
                     "capacity=100,fixed_rtt=20ms",
                     "--rate", str(SAMPLER_RATE_HZ),
                     "--duration", str(SAMPLER_DURATION_S),
                     "--seed", s, "--out", out("sampler.csv")],
                    ["sampler.csv"]),
        ])
    if name == "polling":
        commands = []
        for n in POLLING_SOURCES:
            write_polling_input(work / f"polling_{n}_in.json", seed, n)
            commands.append(Command(f"polling_{n}",
                                    ["--input", out(f"polling_{n}_in.json"),
                                     "--out", out(f"polling_{n}_out.json")],
                                    [f"polling_{n}_out.json"], polling=True))
        return Workload(name, commands)
    raise ValueError(f"unknown workload {name!r}")


def write_lossy_trace(path: Path, seed: int) -> tuple[int, int]:
    """Write a trace CSV with a planted share of lost rows (empty
    recv_ns) and of receptions delayed past the next packet's, which
    the obsolete filter must drop. Returns (lost, obsolete) counts.

    In-order receptions are non-decreasing in packet id and ids have
    strictly increasing generation stamps, so a packet is obsolete
    exactly when it was planted: it is received after packet id + 1,
    which is delivered and not itself planted.
    """
    rng = np.random.default_rng([seed, 1])
    n = LOSSY_ROWS
    gen = np.cumsum(rng.integers(200_000, 1_800_000, n))
    recv = np.maximum.accumulate(gen + rng.integers(5_000_000, 15_000_000, n))
    sizes = rng.integers(64, 1500, n)
    lost = rng.random(n) < LOSSY_LOSS_SHARE
    planted = (rng.random(n) < LOSSY_REORDER_SHARE) & ~lost
    planted[-1] = False
    planted[:-1] &= ~lost[1:]
    planted[:-1] &= ~planted[1:]
    late = np.flatnonzero(planted)
    recv[late] = recv[late + 1] + rng.integers(1, 5_000_000, len(late))
    g, r, sz, lo = gen.tolist(), recv.tolist(), sizes.tolist(), lost.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("id,gen_ns,recv_ns,size_bytes\n")
        f.writelines(f"{i},{g[i]},{'' if lo[i] else r[i]},{sz[i]}\n"
                     for i in range(n))
    return int(lost.sum()), len(late)


def write_polling_input(path: Path, seed: int, n_sources: int) -> None:
    """Per-source poll success probabilities for every scheduler
    policy the polling driver runs at this source count."""
    rng = np.random.default_rng([seed, 2, n_sources])
    probs = [round(float(p), 6) for p in rng.uniform(0.2, 1.0, n_sources)]
    configs = [{"policy": p, "success_prob": probs} for p in POLLING_POLICIES]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"frames": POLLING_FRAMES, "seed": seed, "configs": configs}, f)
