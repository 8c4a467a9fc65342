"""aoikit benchmark: wall time of the CLI runs users make, and, in a
separate traced run, where that time goes layer by layer.

    python3 bench/run.py --workload trace-io --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout. Every command is a child
process running the checkout's own `src` (`python -m aoikit.cli` with
PYTHONPATH=src), started only after the previous one exited. Passes of
the workload's command sequence start while one more fits in
`--seconds` (at least two passes), and their outputs are checked. The last
line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, which holds the end-to-end metrics with `--trace 0` and
the per-layer metrics with `--trace 1`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import layers
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PER_PASS = 2
TRACE_ROUNDS = 2
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # children still running this long after start are killed
# The reference child: interpreter start and `import numpy`, which no
# aoikit change touches. Its time tracks the machine's speed, which on a
# shared virtual machine drifts by up to 1.5x over minutes.
REFERENCE = ["-c", "import numpy"]
REFERENCE_S = 0.15  # scaled times read as seconds where the reference child takes this long
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    rc: int
    stdout: str


class Runner:
    """Runs children one at a time from the checkout root and counts
    children attempted and failures."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("AOI_SEED", None)
        self.attempted = 0
        self.failures: list[str] = []
        self.kill_at = time.perf_counter() + RUN_LIMIT_S

    def run(self, args: list[str], tag: str, commands: int = 1) -> Child:
        """Run `python args...`; `commands` is how many workload commands
        the child runs."""
        self.attempted += commands
        out, err = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
            timer = threading.Timer(max(0.0, self.kill_at - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{tag}: exit {proc.returncode} {' '.join(tail)}")
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                     out.read_text(encoding="utf-8", errors="replace"))

    def command(self, cmd) -> Child:
        if cmd.polling:
            return self.run([str(HERE / "polling.py"), *cmd.argv], cmd.name)
        return self.run(["-m", "aoikit.cli", *cmd.argv], cmd.name)


class PassChecks:
    """Checks a pass's outputs: the first against the workload's oracles
    and, for the golden seed, the golden digests; every later one for
    byte-identical output files and stdout."""

    def __init__(self, w, seed: int, work: Path, record_golden: bool = False):
        self.w, self.seed, self.work, self.record = w, seed, work, record_golden
        self.first = None

    def __call__(self, tag: str, stdout: dict[str, str]) -> list[str]:
        got = checks.digests(self.work, self.w.commands)
        if self.first is None:
            self.first = (got, stdout)
            return (checks.outputs(self.w, stdout, self.work)
                    + _golden(self.w.name, self.seed, got, self.record))
        return (checks.compare(f"{tag} outputs", self.first[0], got)
                + checks.compare(f"{tag} stdout", self.first[1], stdout))


def measure(runner: Runner, w, seconds: float, check: PassChecks) -> tuple[dict, list[str]]:
    """Untraced run: whole passes of the workload, each after a few
    set-up children, with a reference child before every command. A pass
    starts only if one more of average length ends by `seconds`.

    Times are reported at the reference speed (see README.md): the
    interquartile mean of each command's passes, multiplied by
    REFERENCE_S over the interquartile mean of the reference children."""
    setup: list[float] = []
    reference: list[float] = []
    passes: list[dict[str, Child]] = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES or time.perf_counter()
           + (time.perf_counter() - start) / len(passes) <= start + seconds):
        setup += [runner.run(["-m", "aoikit.cli", "--version"], "setup").wall_s
                  for _ in range(SETUP_PER_PASS)]
        results = {}
        for c in w.commands:
            reference.append(runner.run(REFERENCE, "reference").wall_s)
            results[c.name] = runner.command(c)
        runner.failures += check(f"pass {len(passes) + 1}",
                                 {k: r.stdout for k, r in results.items()})
        passes.append(results)
    speed = REFERENCE_S / interquartile_mean(reference)
    mid = {c.name: interquartile_mean([p[c.name].wall_s for p in passes])
           for c in w.commands}
    raw_setup, raw_wall = interquartile_mean(setup), sum(mid.values())
    metrics = {
        "setup_s": raw_setup * speed,
        "wall_s": raw_wall * speed,
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p.values()),
    }
    report = [f"reference child {REFERENCE_S / speed:.4f} s (interquartile mean of "
              f"{len(reference)}); times below are measured, and the metrics "
              f"are scaled by {speed:.4f}"]
    report.append(f"setup_s {raw_setup:.4f} s measured (interquartile mean of "
                  f"{len(setup)} `aoikit --version` children; median "
                  f"{statistics.median(setup):.4f} s)")
    for c in w.commands:
        walls = [p[c.name].wall_s for p in passes]
        report.append(f"{c.name}_s {mid[c.name]:.4f} s (interquartile mean of "
                      f"{len(walls)} passes; median {statistics.median(walls):.4f} s, "
                      f"fastest {min(walls):.4f} s)")
    report.append(f"wall_s {raw_wall:.4f} s measured (sum of the commands' "
                  "interquartile means); passes "
                  + " ".join(f"{sum(r.wall_s for r in p.values()):.4f}" for p in passes))
    report.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB "
                  f"(largest of {len(passes) * len(w.commands)} children)")
    return metrics, report


def interquartile_mean(xs: list[float]) -> float:
    """Mean of `xs` without its lowest and highest quarter."""
    xs = sorted(xs)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def traced(runner: Runner, w, seed: int, work: Path,
           check: PassChecks) -> tuple[dict, list[str]]:
    """Traced run: the workload in one process, alternately without and
    with timing wrappers, twice each; the faster run of each kind is
    reported. Then the scaling probe."""
    best: dict[str, dict] = {}
    for i in range(TRACE_ROUNDS):
        for mode in ("plain", "traced"):
            tag = f"{mode}{i}"
            plan = work / f"{tag}.plan.json"
            plan.write_text(json.dumps({
                "commands": [asdict(c) for c in w.commands],
                "trace": mode == "traced",
                "out": str(work / f"{tag}.json"),
            }), encoding="utf-8")
            child = runner.run([str(HERE / "inproc.py"), str(plan)], tag, len(w.commands))
            if child.rc != 0:
                return {}, []
            with open(work / f"{tag}.json", encoding="utf-8") as f:
                run = json.load(f)
            runner.failures += [f"{tag} {c['name']}: exit {c['rc']}"
                                for c in run["commands"] if c["rc"] != 0]
            runner.failures += check(tag, {c["name"]: c["stdout"] for c in run["commands"]})
            if mode not in best or run["wall_s"] < best[mode]["wall_s"]:
                best[mode] = run
    probe = runner.run([str(HERE / "scaling.py"), str(seed)], "scaling")
    if probe.rc != 0:
        return {}, []
    scaling = json.loads(probe.stdout.strip().splitlines()[-1])
    metrics = layers.per_layer(best["traced"], best["plain"], scaling,
                               (w.planted_lost, w.planted_obsolete))
    report = [f"scaling times (n, 2n, 4n): {json.dumps(scaling['times_s'])}",
              f"traced wall {metrics['traced.wall_s']:.4f} s, untraced "
              f"{metrics['traced.untraced_wall_s']:.4f} s, overhead "
              f"{metrics['traced.overhead_ratio']:+.1%}; self times account for "
              f"{metrics['traced.accounted_share']:.1%} of the traced wall"]
    return metrics, report


def _golden(workload: str, seed: int, got: dict, record: bool) -> list[str]:
    if seed != checks.GOLDEN_SEED:
        return []
    if record:
        table = json.loads(checks.GOLDEN_PATH.read_text(encoding="utf-8")) \
            if checks.GOLDEN_PATH.exists() else {}
        table[workload] = got
        checks.GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return checks.compare("golden sha256", checks.golden(workload), got)


def run_metadata() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _check_config(units: dict[str, str], key: str) -> str | None:
    """BENCHMARK.json, when present, must list exactly the metrics this
    script reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    listed = {m["name"]: m["unit"] for m in json.loads(path.read_text())[key]}
    return None if listed == units else f"BENCHMARK.json {key} differs from run.py"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so the work directory is removed
    p = argparse.ArgumentParser(description="aoikit benchmark")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=checks.GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help=f"store this run's output digests as the seed-"
                        f"{checks.GOLDEN_SEED} golden ones")
    args = p.parse_args(argv)
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    problem = _check_config(units, "per_layer" if args.trace else "end_to_end")
    if not (ROOT / "src" / "aoikit" / "cli.py").is_file():
        problem = f"no aoikit source under {ROOT / 'src'}; run from a checkout"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    meta = run_metadata()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        w = wl.build(args.workload, args.seed, work, work.relative_to(ROOT))
        check = PassChecks(w, args.seed, work, args.record_golden)
        if args.trace:
            metrics, report = traced(runner, w, args.seed, work, check)
        else:
            metrics, report = measure(runner, w, args.seconds, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if not metrics:
        print("error: a benchmark child failed: " + "; ".join(runner.failures),
              file=sys.stderr)
        return 3
    meta["loadavg_end"] = os.getloadavg()
    failed = min(len(runner.failures), runner.attempted)
    print("meta " + json.dumps(meta))
    for line in report + [f"check failed: {f}" for f in runner.failures]:
        print(line)
    print(f"failed_ratio {failed / runner.attempted:.4f} "
          f"({failed} of {runner.attempted} children)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
