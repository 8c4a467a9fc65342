"""Scaling probe: times the two paths that are super-linear today at n,
2n and 4n and prints the times and the 4n/n ratios as one JSON line.
A linear path gives a ratio near 4, a quadratic one near 16.

    PYTHONPATH=src python bench/scaling.py SEED

- queuesim: a 46 Hz sampler into the 130 kbit/s bottleneck (three
  times its capacity), fcfs with an infinite buffer, n = 25k arrivals;
- emulate: the emulated sampler at 300 Hz into a 100 packets/s
  bottleneck with an infinite buffer, n = 10 s of virtual time.
"""

from __future__ import annotations

import json
import sys
import time

from aoikit.emulate import EmulatedChannelSpec, run_sampler_emulated
from aoikit.queuesim import ChannelModel, simulate

QUEUE_ARRIVALS = 25_000
SAMPLER_SECONDS = 10.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(seed: int) -> int:
    model = ChannelModel(bandwidth_bps=130_000.0)
    spec = EmulatedChannelSpec.fixed_rtt(0.02, capacity_hz=100.0, seed=seed)
    times = {"queuesim": [], "emulate": []}
    for k in (1, 2, 4):
        times["queuesim"].append(_timed(lambda: simulate(
            model.sim_config(46.0, k * QUEUE_ARRIVALS, seed))))
        times["emulate"].append(_timed(lambda: run_sampler_emulated(
            spec, [(300.0, k * SAMPLER_SECONDS)])))
    print(json.dumps({"times_s": times,
                      "ratio_4n_over_n": {k: t[2] / t[0] for k, t in times.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
