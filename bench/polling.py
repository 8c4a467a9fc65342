"""Scheduler workload driver: the scheduler has no CLI, so the benchmark
runs `simulate_scheduler` through this script, as a child process.

    PYTHONPATH=src python bench/polling.py --input IN.json --out OUT.json

IN.json holds `frames`, `seed` and a list of `configs`, each a
`policy` and one `success_prob` per source. OUT.json gets, per config,
the per-source average ages, polls and successes.
"""

from __future__ import annotations

import argparse
import json
import sys

from aoikit import scheduler


def run(input_path: str, output_path: str) -> None:
    with open(input_path, encoding="utf-8") as f:
        spec = json.load(f)
    results = []
    for c in spec["configs"]:
        probs = tuple(c["success_prob"])
        cfg = scheduler.SchedulerConfig(len(probs), probs, policy=c["policy"])
        # looked up on the module at call time so a traced run sees it
        r = scheduler.simulate_scheduler(cfg, spec["frames"], seed=spec["seed"])
        results.append({
            "policy": c["policy"],
            "n_sources": len(probs),
            "avg_age_per_source": r.avg_age_per_source,
            "polls": r.polls,
            "successes": r.successes,
        })
    with open(output_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump({"frames": spec["frames"], "results": results}, f, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    run(args.input, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
