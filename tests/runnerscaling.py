"""Scaling check of the closed-loop runner, `emulate.run_rate_policy`.

    PYTHONPATH=src python tests/runnerscaling.py

Times whole runs, median age included, of two of the benchmark's
closed-loop commands at a quarter of their length and at their full
length: ACP on the `capacity_step` preset, 750 and 3,000 s, and Lazy on
`fixed_rtt=5ms,jitter=1ms`, 75 and 300 s. Sends, acks and epochs grow
in proportion to the duration, so a linear runner reads a 4n/n ratio
near 4 and a quadratic one near 16.

Exits 1 if either ratio, the lowest of five, is above 4.5. pytest does
not collect this file; CI runs it as a step of the tests job.
"""

from __future__ import annotations

import sys

from aoikit.cli import parse_emulated
from aoikit.emulate import run_rate_policy
from aoikit.policies import AcpState, Lazy

from helpers import lowest_scaling_ratio

MAX_SCALING_RATIO = 4.5

# name, sender class, channel, the quarter duration in seconds
RUNS = (("acp", AcpState, "capacity_step", 750),
        ("lazy", Lazy, "fixed_rtt=5ms,jitter=1ms", 75))


def main() -> int:
    failed = False
    for name, sender, channel, duration in RUNS:
        spec = parse_emulated(channel, 0, name)
        ratio = lowest_scaling_ratio(lambda d: run_rate_policy(sender(), spec, d), duration)
        print(f"runner 4n/n at {duration} s, {name} on {channel}: {ratio:.2f}")
        if ratio > MAX_SCALING_RATIO:
            print(f"error: the runner's time on {name} grew {ratio:.2f} times "
                  f"from {duration} s to {4 * duration} s, above {MAX_SCALING_RATIO}")
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
