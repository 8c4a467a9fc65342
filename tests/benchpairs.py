"""Alternating benchmark pairs between two checkouts of aoikit.

    python tests/benchpairs.py PARENT_DIR CHANGE_DIR --workload event-sweep \
        --pairs 10 [--seconds 30] [--first-seed 1000] [--json BENCH_<n>.json]

Runs `bench/run.py --trace 0` in each checkout in turn, once per pair,
on the seeds FIRST_SEED, FIRST_SEED + 1, ... (one per pair, fixed
before the first run); the side that runs first swaps from pair to
pair. Prints each pair; each side's median and quartiles of every
end-to-end metric; the pairs the change won; and the gap between the
medians beside the parent's interquartile range (IQR). Then each
command's measured time, the interquartile mean of its children that
bench/run.py reports before scaling, as a median over the pairs.

`--json PATH` writes all of that, with each run's `meta` line, under
the workload's name in PATH, keeping the workloads already there. A
pair takes a little over twice `--seconds`, so this is not a CI step.
It edits nothing in either checkout; bench/run.py removes its own work
directory.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

# bench/run.py's report line for one command's measured time
COMMAND_LINE = re.compile(r"(\w+)_s ([0-9.]+) s \(interquartile mean of \d+ passes")


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench/run.py run in `checkout`: its metrics, each
    command's measured time and its meta line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: seed {seed} not correct\n{proc.stdout}")
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "commands_measured_s": {m[1]: float(m[2]) for m in map(COMMAND_LINE.match, lines)
                                if m},
        "meta": json.loads(next(line for line in lines if line.startswith("meta "))[5:]),
    }


def spread(xs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: each side's spread, the pairs the change
    won, the median gap (change - parent) and whether it exceeds the
    parent's IQR in the better direction."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        sign = 1 if better.get(name, "lower") == "lower" else -1
        side = {s: [p[s]["metrics"][name] for p in pairs] for s in ("parent", "change")}
        parent, change = spread(side["parent"]), spread(side["change"])
        gap = change["median"] - parent["median"]
        out[name] = {
            "parent": parent, "change": change,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(*side.values())),
            "median_gap": gap,
            "gap_beyond_parent_iqr": -sign * gap > parent["iqr"],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--json", type=Path, default=None)
    args = p.parse_args(argv)
    config = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in config["end_to_end"]}

    seeds = [args.first_seed + k for k in range(args.pairs)]
    pairs = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = bench(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"pair {k + 1} seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {pair['parent']['metrics'][name]:.4f} -> "
            f"{pair['change']['metrics'][name]:.4f}" for name in pair["parent"]["metrics"]),
            flush=True)

    summary = summarize(pairs, better)
    for name, s in summary.items():
        print(f"{name}: parent median {s['parent']['median']:.4f} "
              f"[{s['parent']['q1']:.4f}, {s['parent']['q3']:.4f}], change median "
              f"{s['change']['median']:.4f} [{s['change']['q1']:.4f}, "
              f"{s['change']['q3']:.4f}]; change better in {s['change_wins']} of "
              f"{len(pairs)}; median gap {s['median_gap']:+.4f}, parent IQR "
              f"{s['parent']['iqr']:.4f}"
              + (" (beyond it)" if s["gap_beyond_parent_iqr"] else ""))
    commands = {
        name: {side: statistics.median(p[side]["commands_measured_s"][name] for p in pairs)
               for side in ("parent", "change")}
        for name in pairs[0]["parent"]["commands_measured_s"]}
    for name, c in commands.items():
        print(f"{name}_s measured, median over pairs: {c['parent']:.4f} -> {c['change']:.4f}")

    if args.json is not None:
        record = json.loads(args.json.read_text(encoding="utf-8")) if args.json.exists() else {}
        record.setdefault("workloads", {})[args.workload] = {
            "command": f"bench/run.py --workload {args.workload} --trace 0 "
                       f"--seconds {args.seconds:g} --seed SEED",
            "seeds": seeds, "pairs": pairs, "summary": summary,
            "commands_measured_s_median": commands,
        }
        args.json.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
