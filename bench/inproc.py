"""In-process runner for the benchmark's traced run.

    PYTHONPATH=src python bench/inproc.py PLAN.json

PLAN.json holds `commands` (each a `name`, an `argv` and a `polling`
flag, as in workloads.Command), `trace` and `out`. Every command runs
in this one process: `aoikit.cli.main(argv)` with stdout captured, or
the polling driver. With `trace` set, timing wrappers are installed on
the program's layer boundaries first; spans are kept in memory and
written to `out` with the per-command results at the end.

A span is `[name, start_ns, end_ns, parent, attrs]`: `name` is
`<layer>.<function>` (the layer is the aoikit module), times count
from process start, `parent` is the index of the enclosing span (-1
for a command's root span) and `attrs` holds counts read from the
wrapped call's arguments and result, or None.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import sys
import time
import traceback

T0 = time.perf_counter_ns()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _enter(self, name: str) -> list:
        span = [name, time.perf_counter_ns() - T0, 0,
                self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter_ns() - T0
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span."""
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def wrap(self, fn, name: str, label=None, note=None):
        """Return `fn` timed as a span. `label(*args)` adds a suffix
        to the span name; `note(result, *args)` returns its attrs."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self._enter(name if label is None
                               else f"{name}[{label(*args, **kwargs)}]")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if note is not None:
                span[4] = note(result, *args, **kwargs)
            return result

        return timed


def _is_lindley(cfg) -> bool:
    """Configs the single-server waiting-time recurrence solves:
    loss-free, infinite-buffer FCFS with exogenous arrivals."""
    return (cfg.arrival.kind in ("poisson", "deterministic")
            and cfg.discipline == "fcfs" and cfg.capacity is None
            and cfg.loss_p == 0.0 and not cfg.retransmit)


def _simulate_note(run, cfg):
    m = run.meta
    attrs = {k: int(m[k]) for k in ("arrivals", "lost_overflow", "lost_channel",
                                    "discarded", "retransmissions", "max_waiting")}
    attrs["lindley"] = _is_lindley(cfg)
    if not attrs["lindley"]:
        # one event per arrival and one per service completion, which
        # ends in a delivery, a channel loss or a retransmission
        attrs["events"] = (attrs["arrivals"] + int(m["delivered"])
                           + attrs["lost_channel"] + attrs["retransmissions"])
    return attrs


def _path_size(path) -> int:
    if isinstance(path, (str, bytes, os.PathLike)):
        return os.path.getsize(path)
    return 0


_POLICY_KEYS = {"round-robin": "rr", "greedy": "greedy", "max-weight": "maxweight"}

LABELS = {
    "simulate": lambda cfg: ("lindley" if _is_lindley(cfg) else "events")
    + f":{cfg.discipline}",
    "simulate_scheduler": lambda cfg, *a, **k:
        f"{_POLICY_KEYS[cfg.policy]}_{cfg.n_sources}",
}

NOTES = {
    "simulate": _simulate_note,
    "read_csv": lambda t, *a, **k: {"rows": len(t), "lost": t.loss_count},
    "write_csv": lambda _, t, path: {"rows": len(t), "bytes": _path_size(path)},
    "transit": lambda tr, *a: None if tr.arrive_fwd_s is not None else {"drop": 1},
    "acp_epoch_update": lambda res, *a: {"action": res[0]},
    "run_rate_policy": lambda res, *a, **k: {
        "sent": res.sent, "acked": res.acked, "epochs": len(res.decisions)},
    "run_sampler_emulated": lambda res, *a, **k: {"sent": res.sent},
    "train_pause_resume": lambda res, *a, **k: {"iterations": res.iterations},
    "simulate_scheduler": lambda res, cfg, frames, *a, **k: {"frames": frames},
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions `aoikit.cli` imports, the metrics
    functions sweeps import at call time, the ACP update, the
    scheduler, and four methods, wherever a module holds them."""
    import aoikit.cli as cli
    from aoikit import emulate, manifest, metrics, policies, scheduler, trace

    functions = [v for v in vars(cli).values()
                 if inspect.isfunction(v) and v.__module__.startswith("aoikit.")
                 and v.__module__ != cli.__name__]
    functions += [metrics.average_age_by_reception, metrics.average_age_by_generation,
                  metrics.peak_age, metrics.mean_delay, metrics.penalty_average,
                  policies.acp_epoch_update, scheduler.simulate_scheduler]
    modules = [m for k, m in sys.modules.items() if k.startswith("aoikit")]
    for fn in dict.fromkeys(functions):
        layer = fn.__module__.rsplit(".", 1)[-1]
        timed = tracer.wrap(fn, f"{layer}.{fn.__name__}",
                            LABELS.get(fn.__name__), NOTES.get(fn.__name__))
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, timed)
    for cls, layer, method in ((trace.AgeTrace, "trace", "write_csv"),
                               (trace.AgeTrace, "trace", "delivered"),
                               (emulate.EmulatedChannel, "emulate", "transit"),
                               (manifest.RunManifest, "manifest", "write")):
        setattr(cls, method, tracer.wrap(getattr(cls, method), f"{layer}.{method}",
                                         None, NOTES.get(method)))


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    import aoikit.cli
    import polling

    import_ns = time.perf_counter_ns() - T0
    tracer = Tracer()
    if plan["trace"]:
        install(tracer)
    results = []
    for cmd in plan["commands"]:
        run = polling.main if cmd["polling"] else aoikit.cli.main
        root = f"bench.polling[{cmd['name']}]" if cmd["polling"] else \
            f"cli.main[{cmd['name']}]"
        buf = io.StringIO()
        start = time.perf_counter_ns()
        try:
            with tracer.span(root), contextlib.redirect_stdout(buf):
                rc = run(cmd["argv"])
        except Exception:  # a crash is a failed command, reported below
            traceback.print_exc()
            rc = 1
        results.append({"name": cmd["name"], "rc": rc, "stdout": buf.getvalue(),
                        "wall_s": (time.perf_counter_ns() - start) / 1e9})
    wall_ns = time.perf_counter_ns() - T0
    with open(plan["out"], "w", encoding="utf-8") as f:
        json.dump({"import_s": import_ns / 1e9, "wall_s": wall_ns / 1e9,
                   "commands": results, "spans": tracer.spans}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
