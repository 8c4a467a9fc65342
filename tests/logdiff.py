"""Differential check of the closed-loop decision log writer against
the "%" rows it replaces, by sha256 of each log's text.

    PYTHONPATH=src python tests/logdiff.py

Runs the benchmark's closed-loop policy commands (`bench/workloads.py`)
through the library at seeds 0-19: ACP on `capacity_step` for 3,000 s,
Lazy on `fixed_rtt=5ms,jitter=1ms` for 300 s and zero-wait on
`fixed_rtt=5ms` for 150 s, then one Lazy run of 5,000 s (about 500,000
rows). Each log, written by `write_decision_csv`, must equal the
one-format-a-row text of `helpers.reference_decision_text`. It also counts the blocks that the
word tables handed to "%", which is allowed but reported.

Exits 1 on any mismatch. pytest does not collect this file; CI runs it
as a step of the tests job. About 11 s and 150 MB on a 2-CPU machine.
"""

from __future__ import annotations

import hashlib
import sys

from aoikit import logcodec
from aoikit.cli import parse_emulated
from aoikit.emulate import run_rate_policy
from aoikit.policies import SENDERS

from helpers import decision_text, reference_decision_text

SEEDS = range(20)
# name, channel, duration in seconds
COMMANDS = (("acp", "capacity_step", 3000), ("lazy", "fixed_rtt=5ms,jitter=1ms", 300),
            ("zero-wait", "fixed_rtt=5ms", 150))
LONG_LAZY_S = 5000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def logs(name: str, channel: str, duration: int, seed: int) -> tuple[str, str]:
    """The written log and its reference."""
    log = run_rate_policy(SENDERS[name](), parse_emulated(channel, seed, name),
                          duration).decisions
    return decision_text(log), reference_decision_text(log)


def main() -> int:
    fallbacks = []
    spell = logcodec._decision_block

    def counted(*args):
        block = spell(*args)
        if block is None:
            fallbacks.append(args[0])
        return block

    logcodec._decision_block = counted
    runs = [(name, channel, duration, seed)
            for seed in SEEDS for name, channel, duration in COMMANDS]
    runs.append(("lazy", "fixed_rtt=5ms,jitter=1ms", LONG_LAZY_S, 0))
    mismatches = rows = 0
    for name, channel, duration, seed in runs:
        written, reference = logs(name, channel, duration, seed)
        rows += written.count("\n") - 1
        if digest(written) != digest(reference):
            mismatches += 1
            print(f"error: the {name} log on {channel} ({duration} s, seed {seed}) "
                  f"differs from its reference")
    print(f"logs compared: {len(runs)}, rows: {rows}, mismatches: {mismatches}, "
          f"decision blocks written with %: {len(fallbacks)}")
    return int(mismatches > 0)


if __name__ == "__main__":
    sys.exit(main())
