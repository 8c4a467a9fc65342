"""Differential check of the simulator's busy-period path against its
event loop, by sha256 of each run's gen_ns, recv_ns and .meta text.

    PYTHONPATH=src python tests/diffgrid.py

Every config has poisson or deterministic arrivals and an infinite
buffer, at 20,000 arrivals: both arrival and service kinds, fcfs (and
lcfs1 where both are deterministic), loss 0, 0.1 and 0.3 with and
without retransmission, with and without a delivery offset, loads from
0.3 to 3, and bottleneck sweeps of each discipline and of
retransmission at 130 kbit/s from 1.5 Hz up to 46 Hz, three times the
bottleneck's capacity. A config the busy-period path leaves to the loop
(lcfs1 above capacity, an lcfs1 discard, an arrival at exactly a
completion time, or a misplaced busy-period start) is counted, not
compared.

It then times the event loop alone, which still runs at-will and
finite-capacity configs and every run handed back, at 25,000 and
100,000 arrivals of two configs: a lossy 46 Hz sampler into the 130
kbit/s bottleneck, whose queue grows with the run, and the benchmark's
finite buffer, poisson arrivals at 2.0 into exponential service at 1.0
with 5 waiting slots. A linear loop reads a 4n/n ratio near 4 and a
quadratic one near 16.

Exits 1 on any mismatch, if fewer than 500 configs were compared, or
if either loop ratio is above 4.5. pytest does not collect this file;
CI runs it as a step of the tests job.
"""

from __future__ import annotations

import itertools
import sys
import time

from aoikit import queuesim
from aoikit.queuesim import ArrivalSpec, ChannelModel, ServiceSpec, SimConfig

from helpers import lowest_scaling_ratio, sha256_of

HORIZON = 20_000
MIN_COMPARED = 500
SCALING_ARRIVALS = 25_000
MAX_SCALING_RATIO = 4.5


def configs():
    """(name, config) pairs of the grid."""
    kinds = itertools.product(("poisson", "deterministic"), ("exponential", "deterministic"))
    losses = ((0.0, True), (0.1, False), (0.1, True), (0.3, False), (0.3, True))
    loads = (0.3, 0.6, 0.9, 0.99, 1.2, 3.0)
    seed = itertools.count(1)
    for (arrival, service), (loss_p, retransmit), load, offset, _ in itertools.product(
            kinds, losses, loads, (0.0, 0.0125), range(2)):
        # over 20,000 arrivals lcfs1 discards unless both times are fixed
        for discipline in ("fcfs", "lcfs1") if arrival == service == "deterministic" \
                else ("fcfs",):
            k = next(seed)
            name = (f"{arrival}/{service}/{discipline}/loss={loss_p}/"
                    f"retx={int(retransmit)}/load={load}/offset={offset}/seed={k}")
            yield name, SimConfig(
                ArrivalSpec(arrival, 2.0 * load), ServiceSpec(service, 2.0),
                discipline=discipline, loss_p=loss_p, retransmit=retransmit,
                delivery_offset_s=offset, horizon=HORIZON, seed=k)
    # 46 Hz is three times the 15.36 packets/s of 130 kbit/s
    model = ChannelModel(bandwidth_bps=130_000.0, base_rtt_s=0.02)
    rates = queuesim.geometric_rates(1.5, 46.0, 12)
    for variant, kw in (("fcfs", {}), ("lcfs1", {"discipline": "lcfs1"}),
                        ("retx", {"retransmit": True})):
        for k, rate in enumerate(rates):
            for s in range(2):
                yield (f"bottleneck/{variant}/{rate:.4g}Hz/seed={s}",
                       model.sim_config(rate, HORIZON, 100 * k + s, **kw))


def digest(run) -> str:
    return sha256_of(run.trace.gen_ns, run.trace.recv_ns, run.meta_lines())


def scaling_configs():
    """(name, build) pairs of the timed loop configs, `build(n)` giving
    the config at n arrivals."""
    model = ChannelModel(bandwidth_bps=130_000.0)
    yield "bottleneck 46 Hz", lambda n: model.sim_config(46.0, n, 0)
    yield "capacity 5 at load 2", lambda n: SimConfig(
        ArrivalSpec("poisson", 2.0), ServiceSpec("exponential", 1.0),
        capacity=5, horizon=n, seed=0)


def main() -> int:
    start = time.perf_counter()
    compared = handed_back = lindley = 0
    mismatches = []
    for name, cfg in configs():
        if cfg.lindley:
            lindley += 1
            continue
        fast = queuesim._simulate_busy_periods(cfg)
        if fast is None:
            handed_back += 1
            continue
        compared += 1
        if digest(fast) != digest(queuesim._simulate_events(cfg)):
            mismatches.append(name)
    for name in mismatches:
        print(f"mismatch: {name}")
    print(f"compared={compared} handed_back={handed_back} lindley={lindley} "
          f"mismatches={len(mismatches)} seconds={time.perf_counter() - start:.1f}")
    failed = bool(mismatches)
    if compared < MIN_COMPARED:
        print(f"error: only {compared} configs took the busy-period path, "
              f"fewer than {MIN_COMPARED}")
        failed = True
    for name, build in scaling_configs():
        ratio = lowest_scaling_ratio(lambda n: queuesim._simulate_events(build(n)),
                                     SCALING_ARRIVALS)
        print(f"event loop 4n/n at n={SCALING_ARRIVALS}, {name}: {ratio:.2f}")
        if ratio > MAX_SCALING_RATIO:
            print(f"error: the event loop's time on {name} grew {ratio:.2f} "
                  f"times from n to 4n, above {MAX_SCALING_RATIO}")
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
