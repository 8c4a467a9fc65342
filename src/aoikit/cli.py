"""Command-line entry point.

Subcommands: sim, sweep, analyze, measure {echo-server|sampler|sync},
policy. All runs are non-interactive; stdout carries data and
summaries, stderr diagnostics. Exit codes: 0 ok, 2 configuration
error, 3 runtime or network error. The environment variable AOI_SEED
is used when --seed is not given.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

import numpy as np

from . import __version__
from .emulate import (
    DECISION_HEADER,
    EmulatedChannelSpec,
    decision_csv,
    estimate_offset_emulated,
    run_rate_policy,
    run_sampler_emulated,
)
from .errors import AoiError, ConfigError, NotReadyError, TraceFormatError
from .manifest import RunManifest
from .metrics import PenaltySpec, BiasModel, apply_bias, summary
from .policies import AcpState, PauseResumeEnv, QAgent, Q_ACTIONS, train_pause_resume
from .queuesim import (
    ArrivalSpec,
    ChannelModel,
    ServiceSpec,
    SimConfig,
    analytic_mm1_age,
    bottleneck_sweep,
    geometric_rates,
    simulate,
    sweep_csv,
    sweep_rate,
)
from .trace import read_csv, seconds_to_ns
from . import udp, wire

_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_seconds(text: str) -> float:
    """'12.5ms' -> 0.0125; bare numbers are seconds."""
    t = text.strip().lower()
    for suffix in ("ns", "us", "ms", "s"):
        if t.endswith(suffix):
            return float(t[: -len(suffix)]) * _UNITS[suffix]
    return float(t)


CAPACITY_STEP_PRESET = dict(
    fwd_delay_s=0.02, bwd_delay_s=0.02,
    capacity_hz=80.0, capacity_step_at_s=10.0, capacity_step_factor=0.25,
)


def parse_emulated(spec_text: str, seed: int) -> EmulatedChannelSpec:
    """Parse a comma-separated key=value channel description, e.g.
    'fixed_rtt=12.5ms,loss=0.01'. The bare token 'capacity_step' is a
    preset bottleneck whose capacity drops fourfold mid-run."""
    kw: dict = {"seed": seed}
    for item in spec_text.split(","):
        item = item.strip()
        if not item:
            continue
        if item == "capacity_step":
            kw.update(CAPACITY_STEP_PRESET)
            continue
        if "=" not in item:
            raise ConfigError(f"bad channel spec item {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key == "fixed_rtt":
            rtt = parse_seconds(value)
            kw["fwd_delay_s"] = rtt / 2.0
            kw["bwd_delay_s"] = rtt / 2.0
        elif key == "fixed_delay":  # one-way delay, instant return
            kw["fwd_delay_s"] = parse_seconds(value)
            kw["bwd_delay_s"] = 0.0
        elif key in ("fwd_delay", "bwd_delay", "jitter"):
            kw[key + "_s"] = parse_seconds(value)
        elif key == "offset":
            kw["peer_offset_s"] = parse_seconds(value)
        elif key == "lognormal_median":
            kw["rtt_lognorm_median_s"] = parse_seconds(value)
        elif key == "lognormal_sigma":
            kw["rtt_lognorm_sigma"] = float(value)
        elif key == "capacity":
            kw["capacity_hz"] = float(value)
        elif key == "buffer":
            kw["buffer"] = int(value)
        elif key == "loss":
            kw["loss_p"] = float(value)
        elif key == "loss_onset":
            kw["loss_onset_load"] = float(value)
        elif key == "busy_loss":
            kw["busy_loss_p"] = float(value)
        elif key == "panicked_loss":
            kw["panicked_loss_p"] = float(value)
        elif key == "step_at":
            kw["capacity_step_at_s"] = parse_seconds(value)
        elif key == "step_factor":
            kw["capacity_step_factor"] = float(value)
        elif key == "seed":
            kw["seed"] = int(value)
        else:
            raise ConfigError(f"unknown channel spec key {key!r}")
    return EmulatedChannelSpec(**kw)


def resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("AOI_SEED")
    return int(env) if env else 0


def read_policy_config(path: str) -> dict:
    """Line-oriented key=value policy configuration."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _print_kv(pairs, out=None):
    for k, v in pairs:
        print(f"{k}={v}", file=out or sys.stdout, flush=True)


def _write_trace_outputs(trace, out_path: str, meta_text: str | None,
                         manifest: RunManifest) -> None:
    trace.write_csv(out_path)
    manifest.outputs.append(out_path)
    if meta_text is not None:
        meta_path = out_path + ".meta"
        with open(meta_path, "w", encoding="utf-8") as f:
            f.write(meta_text)
        manifest.outputs.append(meta_path)
    manifest.finish().write(out_path)


def _gnuplot_hint(kind: str, path: str) -> str:
    if kind == "sweep":
        return (
            "# gnuplot\n"
            "set datafile separator ','\n"
            "set logscale x\n"
            f"plot '{path}' every ::1 using 1:2 with linespoints title 'avg age (s)'\n"
        )
    return (
        "# gnuplot\n"
        "set datafile separator ','\n"
        f"plot '{path}' every ::1 using 2:($3-2ドル)/1e9 with points title 'delay (s)'\n"
    )


# ----------------------------------------------------------------- sim


def cmd_sim(args, argv) -> int:
    seed = resolve_seed(args.seed)
    if args.model == "mm1":
        if args.rho is None:
            raise ConfigError("--model mm1 needs --rho")
        arrival = ArrivalSpec("poisson", args.rho * args.mu)
        service = ServiceSpec("exponential", args.mu)
    else:
        arrival = ArrivalSpec(args.arrival, args.rate or 0.0)
        service = ServiceSpec(args.service, args.mu)
    cfg = SimConfig(
        arrival=arrival,
        service=service,
        discipline=args.discipline,
        capacity=args.capacity,
        loss_p=args.loss,
        retransmit=args.retransmit,
        horizon=args.arrivals,
        seed=seed,
    )
    run = simulate(cfg)
    manifest = RunManifest("sim", argv, {k: str(v) for k, v in run.meta.items()},
                           seed)
    _write_trace_outputs(run.trace, args.out, run.meta_lines(), manifest)
    stats = summary(run.trace)
    _print_kv([("trace", args.out)] + [(k, f"{v:.9g}") for k, v in stats.items()])
    # the closed form holds only for the loss-free infinite-buffer FCFS queue
    if (args.model == "mm1" and 0 < args.rho < 1 and cfg.discipline == "fcfs"
            and cfg.capacity is None and cfg.loss_p == 0.0 and not cfg.retransmit):
        _print_kv([("analytic_avg_age_s",
                    f"{analytic_mm1_age(args.rho, args.mu):.9g}")])
    if args.gnuplot_hints:
        print(_gnuplot_hint("trace", args.out))
    return 0


def cmd_sweep(args, argv) -> int:
    seed = resolve_seed(args.seed)
    if args.rates:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    elif args.rate_min is not None and args.rate_max is not None:
        rates = geometric_rates(args.rate_min, args.rate_max, args.points)
    else:
        raise ConfigError("give --rates or --rate-min/--rate-max")
    if args.bottleneck_kbps is not None:
        if args.capacity is not None or args.loss:
            # the bottleneck model sets the loss and keeps an infinite buffer
            raise ConfigError("--bottleneck-kbps takes neither --capacity nor --loss")
        model = ChannelModel(
            bandwidth_bps=args.bottleneck_kbps * 1000.0,
            packet_bytes=args.packet_bytes,
        )
        rows = bottleneck_sweep(
            model, rates, horizon=args.arrivals, seed=seed,
            retransmit=args.retransmit, discipline=args.discipline,
        )
    else:
        # the template's rate is a placeholder: each point sets its own
        cfg = SimConfig(
            arrival=ArrivalSpec(args.arrival, 1.0),
            service=ServiceSpec(args.service, args.mu),
            discipline=args.discipline,
            capacity=args.capacity,
            loss_p=args.loss,
            retransmit=args.retransmit,
            horizon=args.arrivals,
            seed=seed,
        )
        rows = sweep_rate(cfg, rates)
    text = sweep_csv(rows)
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    manifest = RunManifest(
        "sweep", argv,
        {"rates": ",".join(f"{r:g}" for r in rates), "points": str(len(rates))},
        seed, outputs=[args.out],
    )
    manifest.finish().write(args.out)
    best = min(rows, key=lambda r: r.avg_age_s)
    _print_kv([
        ("sweep", args.out),
        ("points", len(rows)),
        ("best_rate_hz", f"{best.rate_hz:.9g}"),
        ("best_avg_age_s", f"{best.avg_age_s:.9g}"),
    ])
    if args.gnuplot_hints:
        print(_gnuplot_hint("sweep", args.out))
    return 0


def cmd_analyze(args, argv) -> int:
    trace = read_csv(args.trace)
    if args.bias is not None:
        trace = apply_bias(trace, BiasModel(seconds_to_ns(args.bias)))
    spec = None
    if args.penalty is not None:
        spec = PenaltySpec(args.penalty, args.alpha)
    stats = summary(trace, spec)
    _print_kv((k, f"{v:.9g}") for k, v in stats.items())
    return 0


# ------------------------------------------------------------- measure


def cmd_measure_echo_server(args, argv) -> int:
    srv = udp.EchoServer(args.bind, args.port)
    _print_kv([("port", srv.port)])
    stopper = lambda *_: srv.stop()
    signal.signal(signal.SIGTERM, stopper)
    signal.signal(signal.SIGINT, stopper)
    try:
        srv.serve_forever(stats_every_s=args.stats_interval)
    finally:
        print(srv.stats_line(), flush=True)
    return 0


def _parse_schedule(args) -> list[tuple[float, float]]:
    if args.schedule:
        segments = []
        for part in args.schedule.split(","):
            rate, duration = part.split(":")
            segments.append((float(rate), parse_seconds(duration)))
        return segments
    if args.rate is None or args.duration is None:
        raise ConfigError("give --rate and --duration, or --schedule")
    return [(args.rate, args.duration)]


def cmd_measure_sampler(args, argv) -> int:
    seed = resolve_seed(args.seed)
    schedule = _parse_schedule(args)
    if args.emulated:
        spec = parse_emulated(args.emulated, seed)
        res = run_sampler_emulated(spec, schedule, args.size)
        manifest_cfg = {"emulated": args.emulated}
        aborted = False  # the emulated channel raises no socket errors
    else:
        if not args.dest:
            raise ConfigError("give --dest host:port or --emulated SPEC")
        host, _, port = args.dest.partition(":")
        res = udp.run_sampler((host, int(port)), schedule, args.size)
        manifest_cfg = {"dest": args.dest}
        aborted = res.aborted
    manifest = RunManifest("measure-sampler", argv, manifest_cfg, seed)
    _write_trace_outputs(res.trace, args.out, None, manifest)
    pairs = [("trace", args.out), ("sent", res.sent), ("received", res.received)]
    try:
        stats = summary(res.trace)
        pairs += [(k, f"{v:.9g}") for k, v in stats.items()]
    except AoiError:
        pairs.append(("note", "too few deliveries for age statistics"))
    _print_kv(pairs)
    if args.gnuplot_hints:
        print(_gnuplot_hint("trace", args.out))
    if aborted:  # the partial trace is kept, but the run did not finish
        print(f"error: sampler aborted after {res.sent} packets", file=sys.stderr)
        return 3
    return 0


def cmd_measure_sync(args, argv) -> int:
    seed = resolve_seed(args.seed)
    if args.emulated:
        spec = parse_emulated(args.emulated, seed)
        est = estimate_offset_emulated(spec, args.pings)
    else:
        if not args.peer:
            raise ConfigError("give --peer host:port or --emulated SPEC")
        host, _, port = args.peer.partition(":")
        est = udp.estimate_offset((host, int(port)), args.pings)
    _print_kv([
        ("offset_ns", est.offset_ns),
        ("offset_ms", f"{est.offset_ns / 1e6:.6g}"),
        ("confidence_ms", f"{est.confidence_s * 1e3:.6g}"),
        ("pings", est.n),
        ("mean_rtt_ms", f"{np.mean(est.rtt_samples_s) * 1e3:.6g}"),
    ])
    return 0


# -------------------------------------------------------------- policy


def _acp_from_config(cfg: dict) -> AcpState:
    return AcpState(
        kappa=float(cfg.get("kappa", 1.0)),
        backlog_cap=float(cfg.get("backlog_cap", 64.0)),
        epoch_floor_s=float(cfg.get("epoch_ms", 10.0)) / 1e3,
    )


def cmd_policy(args, argv) -> int:
    seed = resolve_seed(args.seed)
    cfg = read_policy_config(args.config) if args.config else {}
    trace_path = args.out + ".trace.csv"
    log_path = args.out + ".decisions.csv"
    manifest = RunManifest("policy", argv,
                           {"name": args.name, "emulated": args.emulated,
                            **cfg}, seed)
    if args.name == "qlearn":
        spec = parse_emulated(args.emulated, seed)
        delay = spec.fwd_delay_s + spec.bwd_delay_s
        if delay <= 0:
            raise ConfigError("qlearn needs a fixed_delay channel")
        agent = QAgent(
            n_bins=int(cfg.get("bins", 64)),
            gamma=float(cfg.get("gamma", 0.99)),
            lr=float(cfg.get("lr", 0.1)),
            epsilon=float(cfg.get("epsilon0", 1.0)),
            epsilon_decay=float(cfg.get("epsilon_decay", 0.995)),
            seed=seed,
        )
        env = PauseResumeEnv(delay_s=delay)
        res = train_pause_resume(agent, env, args.iters, record_history=True)
        lines = [
            f"{i + 1},{Q_ACTIONS[a]},0,0,{age:.6g},0"
            for i, (a, age) in enumerate(zip(res.action_history,
                                             res.age_history))
        ]
        with open(log_path, "w", encoding="utf-8", newline="\n") as f:
            f.write(DECISION_HEADER + "\n")
            f.write("\n".join(lines) + "\n")
        manifest.outputs.append(log_path)
        manifest.finish().write(log_path)
        pairs = [("decisions", log_path), ("iterations", res.iterations)]
        for b, v in res.final_resume_values.items():
            pairs.append((f"q_resume_bin{b}", f"{v:.4f}"))
            pairs.append((f"q_pause_bin{b}", f"{agent.q_table[b, 0]:.4f}"))
            pairs.append(
                (f"greedy_bin{b}",
                 Q_ACTIONS[int(agent.q_table[b].argmin())])
            )
        _print_kv(pairs)
        return 0

    spec = parse_emulated(args.emulated, seed)
    acp = _acp_from_config(cfg) if args.name == "acp" else None
    res = run_rate_policy(
        args.name, spec, args.duration, acp=acp,
        ewma_alpha=float(cfg.get("ewma_alpha", 0.125)),
    )
    res.trace.write_csv(trace_path)
    with open(log_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(decision_csv(res.decisions))
    manifest.outputs += [trace_path, log_path]
    manifest.finish().write(trace_path)
    pairs = [
        ("trace", trace_path),
        ("decisions", log_path),
        ("sent", res.sent),
        ("acked", res.acked),
        ("mean_rate_hz", f"{res.mean_rate_hz:.6g}"),
        ("final_rate_hz", f"{res.final_rate_hz:.6g}"),
        ("mean_inflight", f"{res.mean_inflight:.6g}"),
        ("median_age_s", f"{res.median_age_s:.6g}"),
    ]
    try:
        stats = summary(res.trace)
        pairs += [(k, f"{v:.9g}") for k, v in stats.items()]
    except AoiError:
        pass
    _print_kv(pairs)
    if args.gnuplot_hints:
        print(_gnuplot_hint("trace", trace_path))
    return 0


# -------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aoikit",
        description="Age-of-information measurement, simulation, and control",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="simulate one flow through a queue")
    sim.add_argument("--model", choices=["mm1"], default=None)
    sim.add_argument("--rho", type=float, default=None, help="offered load")
    sim.add_argument("--mu", type=float, default=1.0, help="service rate")
    sim.add_argument("--arrival", choices=["poisson", "deterministic",
                                           "zero-wait"], default="poisson")
    sim.add_argument("--rate", type=float, default=None)
    sim.add_argument("--service", choices=["exponential", "deterministic"],
                     default="exponential")
    sim.add_argument("--discipline", choices=["fcfs", "lcfs1"], default="fcfs")
    sim.add_argument("--capacity", type=int, default=None,
                     help="waiting slots (default infinite)")
    sim.add_argument("--loss", type=float, default=0.0)
    sim.add_argument("--retransmit", action="store_true")
    sim.add_argument("--arrivals", type=int, required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--gnuplot-hints", action="store_true")
    sim.set_defaults(func=cmd_sim)

    sw = sub.add_parser("sweep", help="age vs sampling rate table")
    sw.add_argument("--rates", default=None, help="comma-separated rates")
    sw.add_argument("--rate-min", type=float, default=None)
    sw.add_argument("--rate-max", type=float, default=None)
    sw.add_argument("--points", type=int, default=10)
    sw.add_argument("--arrival", choices=["poisson", "deterministic"],
                    default="deterministic")
    sw.add_argument("--service", choices=["exponential", "deterministic"],
                    default="deterministic")
    sw.add_argument("--mu", type=float, default=1.0)
    sw.add_argument("--bottleneck-kbps", type=float, default=None)
    sw.add_argument("--packet-bytes", type=int, default=wire.DEFAULT_DATA_SIZE)
    sw.add_argument("--discipline", choices=["fcfs", "lcfs1"], default="fcfs")
    sw.add_argument("--capacity", type=int, default=None)
    sw.add_argument("--loss", type=float, default=0.0)
    sw.add_argument("--retransmit", action="store_true")
    sw.add_argument("--arrivals", type=int, default=20000)
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--out", required=True)
    sw.add_argument("--gnuplot-hints", action="store_true")
    sw.set_defaults(func=cmd_sweep)

    an = sub.add_parser("analyze", help="age statistics of a trace file")
    an.add_argument("trace")
    an.add_argument("--penalty", choices=["linear", "exponential",
                                          "logarithmic"], default=None)
    an.add_argument("--alpha", type=float, default=1.0)
    an.add_argument("--bias", type=float, default=None,
                    help="clock bias to apply, seconds")
    an.set_defaults(func=cmd_analyze)

    me = sub.add_parser("measure", help="live or emulated measurement")
    mesub = me.add_subparsers(dest="measure_command", required=True)

    es = mesub.add_parser("echo-server", help="run the UDP echo server")
    es.add_argument("--bind", default="127.0.0.1")
    es.add_argument("--port", type=int, default=0)
    es.add_argument("--stats-interval", type=float, default=1.0)
    es.set_defaults(func=cmd_measure_echo_server)

    sa = mesub.add_parser("sampler", help="paced sampler-transceiver")
    sa.add_argument("--dest", default=None, help="host:port of echo server")
    sa.add_argument("--emulated", default=None, help="channel spec")
    sa.add_argument("--rate", type=float, default=None)
    sa.add_argument("--duration", type=float, default=None)
    sa.add_argument("--schedule", default=None, help="rate:dur,rate:dur,...")
    sa.add_argument("--size", type=int, default=wire.DEFAULT_DATA_SIZE)
    sa.add_argument("--seed", type=int, default=None)
    sa.add_argument("--out", required=True)
    sa.add_argument("--gnuplot-hints", action="store_true")
    sa.set_defaults(func=cmd_measure_sampler)

    sy = mesub.add_parser("sync", help="estimate the peer clock offset")
    sy.add_argument("--peer", default=None)
    sy.add_argument("--emulated", default=None)
    sy.add_argument("--pings", type=int, default=100)
    sy.add_argument("--seed", type=int, default=None)
    sy.set_defaults(func=cmd_measure_sync)

    po = sub.add_parser("policy", help="closed-loop rate control run")
    po.add_argument("--name", choices=["lazy", "acp", "zero-wait", "qlearn"],
                    required=True)
    po.add_argument("--emulated", required=True, help="channel spec")
    po.add_argument("--duration", type=float, default=30.0)
    po.add_argument("--iters", type=int, default=10000)
    po.add_argument("--config", default=None, help="key=value policy config")
    po.add_argument("--seed", type=int, default=None)
    po.add_argument("--out", required=True, help="output path prefix")
    po.add_argument("--gnuplot-hints", action="store_true")
    po.set_defaults(func=cmd_policy)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, argv)
    except (ConfigError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotReadyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AoiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer stopped reading (e.g. piped into head);
        # silence interpreter-shutdown noise and bow out
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
