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
    EmulatedChannelSpec,
    estimate_offset_emulated,
    run_rate_policy,
    run_sampler_emulated,
    write_decision_csv,
    write_qlearn_csv,
)
from .errors import AoiError, ConfigError, TraceFormatError
from .manifest import RunManifest
from .metrics import PenaltySpec, BiasModel, apply_bias, summary
from .policies import SENDERS, QAgent, Q_ACTIONS, train_pause_resume
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
    int, "s" for seconds with an optional ns/us/ms/s suffix, or "ms"
    for a bare number of milliseconds, returned in seconds. Malformed
    text raises ConfigError naming `item`."""
    if kind == "ms":
        return _number(text, item) / 1e3
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
}

# emulated command -> the EmulatedChannelSpec fields it reads, and a key
# that sets any other field is refused: time requests skip the bottleneck
# and alone read the peer's clock, and qlearn learns the path delay alone
_LEGS = ("fwd_delay_s", "bwd_delay_s")
_PATH = _LEGS + ("jitter_s", "rtt_lognorm_median_s", "rtt_lognorm_sigma", "loss_p")
_BOTTLENECK = ("capacity_hz", "buffer", "loss_onset_load", "busy_loss_p",
               "panicked_loss_p", "capacity_step_at_s", "capacity_step_factor")
CHANNEL_READS = {"sync": _PATH + ("peer_offset_s",), "qlearn": _LEGS,
                 **dict.fromkeys(["sampler", *SENDERS], _PATH + _BOTTLENECK)}


def parse_emulated(spec_text: str, seed: int, command: str) -> EmulatedChannelSpec:
    """Parse a comma-separated key=value channel description for an
    emulated `command`, e.g. 'fixed_rtt=12.5ms,loss=0.01'; the run seed
    is the channel's. The bare token 'capacity_step' is a preset
    bottleneck whose capacity drops fourfold mid-run. A key that sets a
    field the command does not read is refused, and so is a field that
    two items set, so that no result depends on their order."""
    kw: dict = {}
    set_by: dict = {}  # field -> the item that set it
    for item in spec_text.split(","):
        item = item.strip()
        if not item:
            continue
        if item == "capacity_step":
            key, given = item, CAPACITY_STEP_PRESET
        else:
            if "=" not in item:
                raise ConfigError(f"bad channel spec item {item!r}")
            key, value = (part.strip() for part in item.split("=", 1))
            if key not in CHANNEL_KEYS:
                raise ConfigError(f"unknown channel spec key {key!r}")
            fields, kind = CHANNEL_KEYS[key]
            value = _number(value, f"channel spec {key}", kind)
            given = dict.fromkeys(fields, value / 2.0 if len(fields) == 2 else value)
            if key == "fixed_delay":
                given["bwd_delay_s"] = 0.0
        for field in given:
            if field not in CHANNEL_READS[command]:
                raise ConfigError(f"{command} does not read channel spec key {key!r}")
            if field in set_by:
                raise ConfigError(f"channel spec {key!r} sets {field}, "
                                  f"already set by {set_by[field]!r}")
            set_by[field] = key
        kw.update(given)
    return EmulatedChannelSpec(seed=seed, **kw)


# policy -> {config key it reads: (the argument the key sets, the kind
# of its value)}; `ewma_alpha` sets the runner's, every other key the
# sender's or the agent's constructor argument, and an absent key
# leaves the library's default
_RUNNER_KEYS = {"ewma_alpha": ("ewma_alpha", float)}
POLICY_KEYS = {
    "acp": {"kappa": ("kappa", float), "backlog_cap": ("backlog_cap", float),
            "epoch_ms": ("epoch_floor_s", "ms"), **_RUNNER_KEYS},
    "lazy": _RUNNER_KEYS,
    "zero-wait": _RUNNER_KEYS,
    "qlearn": {"lr": ("lr", float), "epsilon0": ("epsilon", float),
               "epsilon_decay": ("epsilon_decay", float), "bins": ("n_bins", int)},
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
            if not any(key in keys for keys in POLICY_KEYS.values()):
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            if key in out:
                raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
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
    """Write (path, content) pairs in order: an AgeTrace as its CSV, and
    a string, or a function that writes text to an open file, with LF
    line ends; list each path in the manifest and write the manifest
    next to the first."""
    for path, content in outputs:
        if hasattr(content, "write_csv"):
            content.write_csv(path)
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                if isinstance(content, str):
                    f.write(content)
                else:
                    content(f)
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
    if args.discipline == "lcfs1" and args.capacity is not None:
        raise ConfigError("--discipline lcfs1 holds one waiting packet "
                          "and takes no --capacity")
    if args.retransmit and not args.loss:
        raise ConfigError("--retransmit resends lost packets and needs --loss")
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
        if args.arrival == "zero-wait" and args.rate is not None:
            # a zero-wait source sends when the previous packet leaves
            raise ConfigError("--arrival zero-wait takes no --rate")
        arrival = ArrivalSpec(args.arrival or "poisson", args.rate or 0.0)
        service = ServiceSpec(args.service or "exponential", args.mu)
    cfg = _queue_config(args, arrival, service)
    run = simulate(cfg)
    manifest = RunManifest("sim", argv, {k: str(v) for k, v in run.meta.items()},
                           args.seed)
    _write_outputs(manifest, [(args.out, run.trace),
                              (args.out + ".meta", run.meta_lines())])
    pairs = [("trace", args.out)]
    try:
        stats = summary(run.trace)
        pairs += [(k, f"{v:.9g}") for k, v in stats.items()]
    except AoiError:
        pairs.append(("note", "too few deliveries for age statistics"))
    _print_kv(pairs)
    # the closed form holds only for the queue the Lindley path solves
    if args.model == "mm1" and 0 < args.rho < 1 and cfg.lindley:
        _print_kv([("analytic_avg_age_s",
                    f"{analytic_mm1_age(args.rho, args.mu):.9g}")])
    if args.gnuplot_hints:
        print(_gnuplot_hint("trace", args.out))
    return 0


def cmd_sweep(args, argv) -> int:
    if args.rates is not None:
        if (args.rate_min is not None or args.rate_max is not None
                or args.points is not None):
            raise ConfigError("--rates takes neither --rate-min, --rate-max "
                              "nor --points")
        rates = [_number(r, "--rates", float) for r in args.rates.split(",")
                 if r.strip()]
    elif args.rate_min is not None and args.rate_max is not None:
        rates = geometric_rates(args.rate_min, args.rate_max,
                                10 if args.points is None else args.points)
    else:
        raise ConfigError("give --rates or --rate-min/--rate-max")
    if args.bottleneck_kbps is None and args.packet_bytes is not None:
        raise ConfigError("--packet-bytes needs --bottleneck-kbps")
    if args.bottleneck_kbps is not None:
        if (args.capacity is not None or args.loss or args.arrival is not None
                or args.service is not None or args.mu is not None):
            # the bottleneck model samples at a constant rate, serves at its
            # capacity, sets the loss and keeps an infinite buffer
            raise ConfigError("--bottleneck-kbps takes neither --capacity, --loss, "
                              "--arrival, --service nor --mu")
        model = ChannelModel(
            bandwidth_bps=args.bottleneck_kbps * 1000.0,
            packet_bytes=(wire.DEFAULT_DATA_SIZE if args.packet_bytes is None
                          else args.packet_bytes),
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
    spec = None
    if args.penalty is not None:
        spec = PenaltySpec(args.penalty, 1.0 if args.alpha is None else args.alpha)
    elif args.alpha is not None:
        raise ConfigError("--alpha scales a penalty and needs --penalty")
    trace = read_csv(args.trace)
    if args.bias is not None:
        trace = apply_bias(trace, BiasModel(seconds_to_ns(args.bias)))
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
    low, high = wire.HEADER_LEN, wire.HEADER_LEN + 0xFFFF  # the wire format's bounds
    if args.emulated is None:
        from . import udp

        high = udp.MAX_DATAGRAM  # what the live socket can send
    if not low <= args.size <= high:
        raise ConfigError(f"--size must be in {low}-{high} bytes, not {args.size}")
    if args.emulated is not None:
        spec = parse_emulated(args.emulated, args.seed, "sampler")
        res = run_sampler_emulated(spec, schedule, args.size)
        manifest_cfg = {"emulated": args.emulated}
        aborted = False  # the emulated channel raises no socket errors
    else:
        res = udp.run_sampler(_address(args.dest, "--dest"), schedule, args.size)
        aborted = res.aborted
        # what the live socket saw besides the trace; stdout leaves it out
        manifest_cfg = {"dest": args.dest, "duplicates": str(res.duplicates),
                        "unmatched": str(res.unmatched), "aborted": str(int(aborted))}
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
        est = estimate_offset_emulated(parse_emulated(args.emulated, args.seed, "sync"),
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
    keys = POLICY_KEYS[args.name]
    unread = [key for key in cfg if key not in keys]
    if unread:
        raise ConfigError(f"{args.config}: {args.name} does not read "
                          f"{', '.join(unread)}")
    params = {keys[key][0]: _number(text, f"{args.config}: {key}", keys[key][1])
              for key, text in cfg.items()}
    spec = parse_emulated(args.emulated, args.seed, args.name)
    log_path = args.out + ".decisions.csv"
    manifest = RunManifest("policy", argv,
                           {"name": args.name, "emulated": args.emulated,
                            **cfg}, args.seed)
    if args.name == "qlearn":
        if args.duration is not None:
            raise ConfigError("qlearn runs --iters steps and takes no --duration")
        if args.gnuplot_hints:
            raise ConfigError("qlearn writes no trace and takes no --gnuplot-hints")
        res = train_pause_resume(QAgent(seed=args.seed, **params),
                                 spec.fwd_delay_s + spec.bwd_delay_s,
                                 10000 if args.iters is None else args.iters)
        _write_outputs(manifest, [(log_path, lambda f: write_qlearn_csv(f, res))])
        b = res.resume_bin
        pause, resume = res.values
        _print_kv([
            ("decisions", log_path),
            ("iterations", res.iterations),
            (f"q_resume_bin{b}", f"{resume:.4f}"),
            (f"q_pause_bin{b}", f"{pause:.4f}"),
            (f"greedy_bin{b}", Q_ACTIONS[res.values.index(min(res.values))]),
        ])
        return 0

    if args.iters is not None:
        raise ConfigError(f"{args.name} runs for --duration and takes no --iters")
    runner = {"ewma_alpha": params.pop("ewma_alpha")} if "ewma_alpha" in params else {}
    sender = SENDERS[args.name](**params)
    duration = 30.0 if args.duration is None else args.duration
    res = run_rate_policy(sender, spec, duration, **runner)
    trace_path = args.out + ".trace.csv"
    _write_outputs(manifest, [(trace_path, res.trace),
                              (log_path, lambda f: write_decision_csv(f, res.decisions))])
    pairs = [
        ("trace", trace_path),
        ("decisions", log_path),
        ("sent", res.sent),
        ("acked", res.acked),
        ("mean_rate_hz", f"{res.mean_rate_hz:.6g}"),
        ("final_rate_hz", f"{res.final_rate_hz:.6g}"),
        ("mean_inflight", f"{res.mean_inflight:.6g}"),
    ]
    try:
        stats = summary(res.trace)
    except AoiError:  # the median and the summary both need two deliveries
        pairs.append(("note", "too few deliveries for age statistics"))
    else:
        pairs.append(("median_age_s", f"{res.median_age_s:.6g}"))
        pairs += [(k, f"{v:.9g}") for k, v in stats.items()]
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
    sw.add_argument("--points", type=int, default=None,
                    help="with --rate-min/--rate-max (default 10)")
    # without --bottleneck-kbps: deterministic, deterministic and 1.0
    sw.add_argument("--arrival", choices=["poisson", "deterministic"],
                    default=None)
    sw.add_argument("--service", choices=["exponential", "deterministic"],
                    default=None)
    sw.add_argument("--mu", type=float, default=None)
    sw.add_argument("--bottleneck-kbps", type=float, default=None)
    sw.add_argument("--packet-bytes", type=int, default=None,
                    help=f"with --bottleneck-kbps (default {wire.DEFAULT_DATA_SIZE})")
    sw.add_argument("--arrivals", type=int, default=20000)
    sw.set_defaults(func=cmd_sweep)

    an = sub.add_parser("analyze", help="age statistics of a trace file")
    an.add_argument("trace")
    an.add_argument("--penalty", choices=["linear", "exponential",
                                          "logarithmic"], default=None)
    an.add_argument("--alpha", type=float, default=None,
                    help="with --penalty (default 1)")
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
    po.add_argument("--name", choices=[*SENDERS, "qlearn"], required=True)
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
        if "seed" in args and args.seed is None:  # --seed, then AOI_SEED, then 0
            env = os.environ.get("AOI_SEED")
            args.seed = _number(env, "AOI_SEED", int) if env else 0
        return args.func(args, argv)
    except (ConfigError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AoiError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
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
