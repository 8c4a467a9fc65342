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
import sys

import numpy as np

from . import __version__
from .emulate import (
    DecisionRow,
    EmulatedChannelSpec,
    decision_csv,
    estimate_offset_emulated,
    run_rate_policy,
    run_sampler_emulated,
)
from .errors import AoiError, ConfigError, TraceFormatError
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
from . import wire

_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def _number(text: str, item: str, kind=float):
    """The one conversion of user text to a number. `kind` is float,
    int, or "s" for seconds with an optional ns/us/ms/s suffix.
    Malformed text raises ConfigError naming `item`."""
    digits, unit = text, None
    if kind == "s":
        kind, digits = float, text.strip().lower()
        unit = next((u for u in _UNITS if digits.endswith(u)), None)
        digits = digits[: len(digits) - len(unit or "")]
    try:
        value = kind(digits)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{item} is not {noun}: {text!r}") from None
    return value if unit is None else value * _UNITS[unit]


def parse_seconds(text: str) -> float:
    """'12.5ms' -> 0.0125; bare numbers are seconds."""
    return _number(text, "duration", "s")


CAPACITY_STEP_PRESET = dict(
    fwd_delay_s=0.02, bwd_delay_s=0.02,
    capacity_hz=80.0, capacity_step_at_s=10.0, capacity_step_factor=0.25,
)

# channel spec key -> (the EmulatedChannelSpec fields it sets, the kind
# of its value); a value that sets two fields is split evenly
CHANNEL_KEYS = {
    "fixed_rtt": (("fwd_delay_s", "bwd_delay_s"), "s"),
    "fixed_delay": (("fwd_delay_s",), "s"),  # one-way delay, instant return
    "fwd_delay": (("fwd_delay_s",), "s"),
    "bwd_delay": (("bwd_delay_s",), "s"),
    "jitter": (("jitter_s",), "s"),
    "offset": (("peer_offset_s",), "s"),
    "lognormal_median": (("rtt_lognorm_median_s",), "s"),
    "lognormal_sigma": (("rtt_lognorm_sigma",), float),
    "capacity": (("capacity_hz",), float),
    "buffer": (("buffer",), int),
    "loss": (("loss_p",), float),
    "loss_onset": (("loss_onset_load",), float),
    "busy_loss": (("busy_loss_p",), float),
    "panicked_loss": (("panicked_loss_p",), float),
    "step_at": (("capacity_step_at_s",), "s"),
    "step_factor": (("capacity_step_factor",), float),
    "seed": (("seed",), int),
}


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
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in CHANNEL_KEYS:
            raise ConfigError(f"unknown channel spec key {key!r}")
        fields, kind = CHANNEL_KEYS[key]
        value = _number(value, f"channel spec {key}", kind)
        kw.update(dict.fromkeys(fields, value / 2.0 if len(fields) == 2 else value))
        if key == "fixed_delay":
            kw["bwd_delay_s"] = 0.0
    return EmulatedChannelSpec(**kw)


def resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("AOI_SEED")
    return _number(env, "AOI_SEED", int) if env else 0


# policy config key -> its default, whose type is the kind of its value
POLICY_DEFAULTS = {
    "kappa": 1.0, "epoch_ms": 10.0, "ewma_alpha": 0.125, "gamma": 0.99,
    "lr": 0.1, "epsilon0": 1.0, "epsilon_decay": 0.995, "bins": 64,
    "backlog_cap": 64.0,
}


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
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in POLICY_DEFAULTS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            out[key] = value
    return out


def _address(text: str, flag: str) -> tuple[str, int]:
    host, _, port = text.partition(":")
    port = _number(port, f"{flag} port", int)
    if not 0 <= port <= 65535:
        raise ConfigError(f"{flag} port must be in 0-65535, not {port}")
    return host, port


def _print_kv(pairs):
    for k, v in pairs:
        print(f"{k}={v}", flush=True)


def _write_outputs(manifest: RunManifest, outputs: list) -> None:
    """Write (path, content) pairs in order, an AgeTrace as its CSV and
    text with LF line ends; list each path in the manifest and write the
    manifest next to the first."""
    for path, content in outputs:
        if isinstance(content, str):
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(content)
        else:
            content.write_csv(path)
        manifest.outputs.append(path)
    manifest.finish().write(outputs[0][0])


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


def _queue_config(args, arrival: ArrivalSpec, service: ServiceSpec) -> SimConfig:
    """The queue `sim` and `sweep` simulate, from their shared flags."""
    return SimConfig(arrival, service, discipline=args.discipline,
                     capacity=args.capacity, loss_p=args.loss,
                     retransmit=args.retransmit, horizon=args.arrivals,
                     seed=args.seed)


def cmd_sim(args, argv) -> int:
    if args.model == "mm1":
        if args.rho is None:
            raise ConfigError("--model mm1 needs --rho")
        if args.arrival is not None or args.rate is not None or args.service is not None:
            # the M/M/1 model fixes Poisson arrivals at rho * mu and
            # exponential service
            raise ConfigError("--model mm1 takes neither --arrival, --rate nor --service")
        arrival = ArrivalSpec("poisson", args.rho * args.mu)
        service = ServiceSpec("exponential", args.mu)
    else:
        if args.rho is not None:
            raise ConfigError("--rho needs --model mm1")
        arrival = ArrivalSpec(args.arrival or "poisson", args.rate or 0.0)
        service = ServiceSpec(args.service or "exponential", args.mu)
    cfg = _queue_config(args, arrival, service)
    run = simulate(cfg)
    manifest = RunManifest("sim", argv, {k: str(v) for k, v in run.meta.items()},
                           args.seed)
    _write_outputs(manifest, [(args.out, run.trace),
                              (args.out + ".meta", run.meta_lines())])
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
    if args.rates is not None:
        if args.rate_min is not None or args.rate_max is not None:
            raise ConfigError("--rates takes neither --rate-min nor --rate-max")
        rates = [_number(r, "--rates", float) for r in args.rates.split(",")
                 if r.strip()]
    elif args.rate_min is not None and args.rate_max is not None:
        rates = geometric_rates(args.rate_min, args.rate_max, args.points)
    else:
        raise ConfigError("give --rates or --rate-min/--rate-max")
    if args.bottleneck_kbps is not None:
        if (args.capacity is not None or args.loss or args.arrival is not None
                or args.service is not None or args.mu is not None):
            # the bottleneck model samples at a constant rate, serves at its
            # capacity, sets the loss and keeps an infinite buffer
            raise ConfigError("--bottleneck-kbps takes neither --capacity, --loss, "
                              "--arrival, --service nor --mu")
        model = ChannelModel(
            bandwidth_bps=args.bottleneck_kbps * 1000.0,
            packet_bytes=args.packet_bytes,
        )
        rows = bottleneck_sweep(
            model, rates, horizon=args.arrivals, seed=args.seed,
            retransmit=args.retransmit, discipline=args.discipline,
        )
    else:
        # the template's rate is a placeholder: each point sets its own
        cfg = _queue_config(args, ArrivalSpec(args.arrival or "deterministic", 1.0),
                            ServiceSpec(args.service or "deterministic",
                                        1.0 if args.mu is None else args.mu))
        rows = sweep_rate(cfg, rates)
    manifest = RunManifest(
        "sweep", argv,
        {"rates": ",".join(f"{r:g}" for r in rates), "points": str(len(rates))},
        args.seed,
    )
    _write_outputs(manifest, [(args.out, sweep_csv(rows))])
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
    import signal

    from . import udp

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
    if args.schedule is None:
        if args.rate is None or args.duration is None:
            raise ConfigError("give --rate and --duration, or --schedule")
        return [(args.rate, args.duration)]
    if args.rate is not None or args.duration is not None:
        raise ConfigError("--schedule takes neither --rate nor --duration")
    segments = []
    for part in args.schedule.split(","):
        rate, colon, duration = part.partition(":")
        if not colon:
            raise ConfigError(f"--schedule segment {part!r} is not rate:duration")
        segments.append((_number(rate, "--schedule rate", float),
                         _number(duration, "--schedule duration", "s")))
    return segments


def cmd_measure_sampler(args, argv) -> int:
    schedule = _parse_schedule(args)
    if args.emulated is not None:
        spec = parse_emulated(args.emulated, args.seed)
        res = run_sampler_emulated(spec, schedule, args.size)
        manifest_cfg = {"emulated": args.emulated}
        aborted = False  # the emulated channel raises no socket errors
    else:
        from . import udp

        res = udp.run_sampler(_address(args.dest, "--dest"), schedule, args.size)
        manifest_cfg = {"dest": args.dest}
        aborted = res.aborted
    manifest = RunManifest("measure-sampler", argv, manifest_cfg, args.seed)
    _write_outputs(manifest, [(args.out, res.trace)])
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
    if args.emulated is not None:
        est = estimate_offset_emulated(parse_emulated(args.emulated, args.seed),
                                       args.pings)
    else:
        from . import udp

        est = udp.estimate_offset(_address(args.peer, "--peer"), args.pings)
    _print_kv([
        ("offset_ns", est.offset_ns),
        ("offset_ms", f"{est.offset_ns / 1e6:.6g}"),
        ("confidence_ms", f"{est.confidence_s * 1e3:.6g}"),
        ("pings", est.n),
        ("mean_rtt_ms", f"{np.mean(est.rtt_samples_s) * 1e3:.6g}"),
    ])
    return 0


# -------------------------------------------------------------- policy


def cmd_policy(args, argv) -> int:
    cfg = read_policy_config(args.config) if args.config else {}
    params = {key: _number(cfg[key], f"{args.config}: {key}", type(default))
              if key in cfg else default
              for key, default in POLICY_DEFAULTS.items()}
    spec = parse_emulated(args.emulated, args.seed)
    log_path = args.out + ".decisions.csv"
    manifest = RunManifest("policy", argv,
                           {"name": args.name, "emulated": args.emulated,
                            **cfg}, args.seed)
    if args.name == "qlearn":
        if args.duration is not None:
            raise ConfigError("qlearn runs --iters steps and takes no --duration")
        # the agent sees only the path delay; other impairments would be ignored
        delay = spec.fwd_delay_s + spec.bwd_delay_s
        if delay <= 0 or spec != EmulatedChannelSpec(spec.fwd_delay_s,
                                                     spec.bwd_delay_s, seed=spec.seed):
            raise ConfigError("qlearn needs a channel of positive fixed delays "
                              "and at most a seed")
        if spec.seed != args.seed:
            # the agent draws from the run seed; the channel draws nothing
            raise ConfigError(f"qlearn takes its seed from --seed, not the channel "
                              f"spec (seed={spec.seed}, run seed {args.seed})")
        agent = QAgent(n_bins=params["bins"], gamma=params["gamma"], lr=params["lr"],
                       epsilon=params["epsilon0"], epsilon_decay=params["epsilon_decay"],
                       seed=args.seed)
        env = PauseResumeEnv(delay_s=delay)
        res = train_pause_resume(agent, env, 10000 if args.iters is None else args.iters,
                                 record_history=True)
        rows = [DecisionRow(i + 1, Q_ACTIONS[a], 0, 0, age, 0)
                for i, (a, age) in enumerate(zip(res.action_history,
                                                 res.age_history))]
        _write_outputs(manifest, [(log_path, decision_csv(rows))])
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

    if args.iters is not None:
        raise ConfigError(f"{args.name} runs for --duration and takes no --iters")
    acp = AcpState(kappa=params["kappa"], backlog_cap=params["backlog_cap"],
                   epoch_floor_s=params["epoch_ms"] / 1e3) if args.name == "acp" else None
    duration = 30.0 if args.duration is None else args.duration
    res = run_rate_policy(args.name, spec, duration, acp=acp,
                          ewma_alpha=params["ewma_alpha"])
    trace_path = args.out + ".trace.csv"
    _write_outputs(manifest, [(trace_path, res.trace),
                              (log_path, decision_csv(res.decisions))])
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

    # flags shared by several subcommands, declared once
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None)
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument("--out", required=True,
                         help="output path (policy: output path prefix)")
    written.add_argument("--gnuplot-hints", action="store_true")
    queued = argparse.ArgumentParser(add_help=False)
    queued.add_argument("--discipline", choices=["fcfs", "lcfs1"], default="fcfs")
    queued.add_argument("--capacity", type=int, default=None,
                        help="waiting slots (default infinite)")
    queued.add_argument("--loss", type=float, default=0.0)
    queued.add_argument("--retransmit", action="store_true")

    sim = sub.add_parser("sim", help="simulate one flow through a queue",
                         parents=[queued, seeded, written])
    sim.add_argument("--model", choices=["mm1"], default=None)
    sim.add_argument("--rho", type=float, default=None, help="offered load")
    sim.add_argument("--mu", type=float, default=1.0, help="service rate")
    # without --model: poisson and exponential
    sim.add_argument("--arrival", choices=["poisson", "deterministic",
                                           "zero-wait"], default=None)
    sim.add_argument("--rate", type=float, default=None)
    sim.add_argument("--service", choices=["exponential", "deterministic"],
                     default=None)
    sim.add_argument("--arrivals", type=int, required=True)
    sim.set_defaults(func=cmd_sim)

    sw = sub.add_parser("sweep", help="age vs sampling rate table",
                        parents=[queued, seeded, written])
    sw.add_argument("--rates", default=None, help="comma-separated rates")
    sw.add_argument("--rate-min", type=float, default=None)
    sw.add_argument("--rate-max", type=float, default=None)
    sw.add_argument("--points", type=int, default=10)
    # without --bottleneck-kbps: deterministic, deterministic and 1.0
    sw.add_argument("--arrival", choices=["poisson", "deterministic"],
                    default=None)
    sw.add_argument("--service", choices=["exponential", "deterministic"],
                    default=None)
    sw.add_argument("--mu", type=float, default=None)
    sw.add_argument("--bottleneck-kbps", type=float, default=None)
    sw.add_argument("--packet-bytes", type=int, default=wire.DEFAULT_DATA_SIZE)
    sw.add_argument("--arrivals", type=int, default=20000)
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

    sa = mesub.add_parser("sampler", help="paced sampler-transceiver",
                          parents=[seeded, written])
    path = sa.add_mutually_exclusive_group(required=True)
    path.add_argument("--dest", help="host:port of echo server")
    path.add_argument("--emulated", help="channel spec")
    sa.add_argument("--rate", type=float, default=None)
    sa.add_argument("--duration", type=float, default=None)
    sa.add_argument("--schedule", default=None, help="rate:dur,rate:dur,...")
    sa.add_argument("--size", type=int, default=wire.DEFAULT_DATA_SIZE)
    sa.set_defaults(func=cmd_measure_sampler)

    sy = mesub.add_parser("sync", help="estimate the peer clock offset",
                          parents=[seeded])
    path = sy.add_mutually_exclusive_group(required=True)
    path.add_argument("--peer", help="host:port of echo server")
    path.add_argument("--emulated", help="channel spec")
    sy.add_argument("--pings", type=int, default=100)
    sy.set_defaults(func=cmd_measure_sync)

    po = sub.add_parser("policy", help="closed-loop rate control run",
                        parents=[seeded, written])
    po.add_argument("--name", choices=["lazy", "acp", "zero-wait", "qlearn"],
                    required=True)
    po.add_argument("--emulated", required=True, help="channel spec")
    po.add_argument("--duration", type=float, default=None,
                    help="virtual seconds (lazy, acp, zero-wait; default 30)")
    po.add_argument("--iters", type=int, default=None,
                    help="training steps (qlearn; default 10000)")
    po.add_argument("--config", default=None, help="key=value policy config")
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
        if "seed" in args:
            args.seed = resolve_seed(args.seed)
        return args.func(args, argv)
    except (ConfigError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
