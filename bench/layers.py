"""Per-layer metrics from the traced run's spans (see inproc.py).

A span's self time is its duration minus that of its child spans. A
layer's metric covers every span of that layer in the workload; a layer
that does no work on a workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict

SCHEDULER_KEYS = [f"{p}_{n}" for n in (8, 64) for p in ("rr", "greedy", "maxweight")]
COMMANDS = ["sim", "analyze", "analyze_lossy",
            "sweep_bottleneck", "sweep_lcfs1", "sweep_retransmit", "sweep_mm1k",
            "policy_acp", "policy_lazy", "policy_zero_wait", "policy_qlearn",
            "sampler_overload", "polling_8", "polling_64"]
SELF_LAYERS = ["trace", "metrics", "queuesim", "scheduler", "emulate", "policies", "bench"]

PER_LAYER = [
    ("cli.import_s", "s"), ("cli.self_s", "s"), ("manifest.write_s", "s"),
    ("trace.write_csv_s", "s"), ("trace.write_rows_per_s", "rows/s"),
    ("trace.write_bytes", "B"), ("trace.read_csv_s", "s"),
    ("trace.read_csv_lossy_s", "s"), ("trace.read_rows_per_s", "rows/s"),
    ("trace.lost_rows", "count"), ("trace.obsolete_count", "count"),
    ("trace.delivered_s", "s"),
    ("queuesim.lindley_s", "s"), ("queuesim.lindley_arrivals_per_s", "1/s"),
    ("queuesim.events_s", "s"), ("queuesim.events", "count"),
    ("queuesim.events_per_s", "1/s"), ("queuesim.lost_overflow", "count"),
    ("queuesim.lost_channel", "count"), ("queuesim.discarded", "count"),
    ("queuesim.retransmissions", "count"), ("queuesim.max_waiting", "count"),
    ("queuesim.scaling_4n_over_n", "ratio"),
    ("metrics.summary_s", "s"), ("metrics.penalty_average_s", "s"),
    ("metrics.sweep_stats_s", "s"),
    ("emulate.transit_calls", "count"), ("emulate.transit_s", "s"),
    ("emulate.transit_drops", "count"), ("emulate.sampler_pkts_per_s", "1/s"),
    ("emulate.policy_loop_self_s", "s"), ("emulate.epochs", "count"),
    ("emulate.ack_ratio", "ratio"), ("emulate.scaling_4n_over_n", "ratio"),
    ("policies.acp_update_calls", "count"), ("policies.acp_update_s", "s"),
    ("policies.mdec_share", "ratio"), ("policies.qlearn_steps_per_s", "1/s"),
    *[(f"scheduler.{k}_frames_per_s", "1/s") for k in SCHEDULER_KEYS],
    *[(f"{layer}.self_s", "s") for layer in SELF_LAYERS],
    ("traced.wall_s", "s"), ("traced.accounted_share", "ratio"),
    ("traced.untraced_wall_s", "s"), ("traced.overhead_ratio", "ratio"),
    *[(f"cmd.{c}_s", "s") for c in COMMANDS],
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(traced: dict, plain: dict, scaling: dict,
              planted: tuple[int, int]) -> dict[str, float]:
    """`traced` and `plain` are inproc.py outputs with and without
    wrappers, `scaling` is scaling.py's output and `planted` the
    (lost, obsolete) rows of the generated lossy trace."""
    spans = traced["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    # per function: (duration s, self s, attrs, parent function)
    calls = defaultdict(list)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        func = name.split("[", 1)[0]
        parent_func = spans[parent][0].split("[", 1)[0] if parent >= 0 else ""
        calls[func].append(((end - start) / 1e9, (end - start - child_ns[i]) / 1e9,
                            attrs or {}, parent_func))

    def total(func, pick=lambda c: c[0], where=lambda c: True) -> float:
        return sum(pick(c) for c in calls[func] if where(c))

    def attr(func, key, where=lambda c: True) -> int:
        return total(func, lambda c: c[2].get(key, 0), where)

    m: dict[str, float] = {}
    self_by_layer = defaultdict(float)
    for func, cs in calls.items():
        self_by_layer[func.split(".", 1)[0]] += sum(c[1] for c in cs)
    m["cli.import_s"] = traced["import_s"]
    m["cli.self_s"] = self_by_layer["cli"]
    m["manifest.write_s"] = total("manifest.write")

    m["trace.write_csv_s"] = total("trace.write_csv")
    m["trace.write_rows_per_s"] = _ratio(attr("trace.write_csv", "rows"),
                                         m["trace.write_csv_s"])
    m["trace.write_bytes"] = attr("trace.write_csv", "bytes")
    lossy = lambda c: c[2].get("lost", 0) > 0
    m["trace.read_csv_s"] = total("trace.read_csv", where=lambda c: not lossy(c))
    m["trace.read_csv_lossy_s"] = total("trace.read_csv", where=lossy)
    m["trace.read_rows_per_s"] = _ratio(attr("trace.read_csv", "rows"),
                                        total("trace.read_csv"))
    m["trace.lost_rows"], m["trace.obsolete_count"] = planted
    m["trace.delivered_s"] = total("trace.delivered")

    lindley = lambda c: c[2]["lindley"]
    events = lambda c: not c[2]["lindley"]
    m["queuesim.lindley_s"] = total("queuesim.simulate", where=lindley)
    m["queuesim.lindley_arrivals_per_s"] = _ratio(
        attr("queuesim.simulate", "arrivals", lindley), m["queuesim.lindley_s"])
    m["queuesim.events_s"] = total("queuesim.simulate", where=events)
    m["queuesim.events"] = attr("queuesim.simulate", "events")
    m["queuesim.events_per_s"] = _ratio(m["queuesim.events"], m["queuesim.events_s"])
    for key in ("lost_overflow", "lost_channel", "discarded", "retransmissions"):
        m[f"queuesim.{key}"] = attr("queuesim.simulate", key)
    m["queuesim.max_waiting"] = max(
        (c[2]["max_waiting"] for c in calls["queuesim.simulate"]), default=0)
    m["queuesim.scaling_4n_over_n"] = scaling["ratio_4n_over_n"]["queuesim"]

    m["metrics.summary_s"] = total("metrics.summary")
    m["metrics.penalty_average_s"] = total("metrics.penalty_average")
    in_sweep = lambda c: c[3] in ("queuesim.bottleneck_sweep", "queuesim.sweep_rate")
    m["metrics.sweep_stats_s"] = sum(
        total(f, where=in_sweep) for f in calls if f.startswith("metrics."))

    m["emulate.transit_calls"] = len(calls["emulate.transit"])
    m["emulate.transit_s"] = total("emulate.transit")
    m["emulate.transit_drops"] = attr("emulate.transit", "drop")
    m["emulate.sampler_pkts_per_s"] = _ratio(attr("emulate.run_sampler_emulated", "sent"),
                                             total("emulate.run_sampler_emulated"))
    m["emulate.policy_loop_self_s"] = total("emulate.run_rate_policy", lambda c: c[1])
    m["emulate.epochs"] = attr("emulate.run_rate_policy", "epochs")
    m["emulate.ack_ratio"] = _ratio(attr("emulate.run_rate_policy", "acked"),
                                    attr("emulate.run_rate_policy", "sent"))
    m["emulate.scaling_4n_over_n"] = scaling["ratio_4n_over_n"]["emulate"]

    acp = calls["policies.acp_epoch_update"]
    m["policies.acp_update_calls"] = len(acp)
    m["policies.acp_update_s"] = total("policies.acp_epoch_update")
    m["policies.mdec_share"] = _ratio(sum(c[2]["action"] == "MDEC" for c in acp), len(acp))
    m["policies.qlearn_steps_per_s"] = _ratio(
        attr("policies.train_pause_resume", "iterations"),
        total("policies.train_pause_resume"))

    for name, start, end, _, attrs in spans:
        if name.startswith("scheduler.simulate_scheduler["):
            key = name[len("scheduler.simulate_scheduler["):-1]
            m[f"scheduler.{key}_frames_per_s"] = attrs["frames"] / ((end - start) / 1e9)
    for key in SCHEDULER_KEYS:
        m.setdefault(f"scheduler.{key}_frames_per_s", 0.0)

    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    roots = sum(c[0] for cs in calls.values() for c in cs if not c[3])
    m["traced.wall_s"] = traced["wall_s"]
    m["traced.accounted_share"] = (traced["import_s"] + roots) / traced["wall_s"]
    m["traced.untraced_wall_s"] = plain["wall_s"]
    m["traced.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
    walls = {c["name"]: c["wall_s"] for c in plain["commands"]}
    for c in COMMANDS:
        m[f"cmd.{c}_s"] = walls.get(c, 0.0)
    return m
