import gc
import inspect
import json
import os
from pathlib import Path

import pytest

from aoikit.cli import POLICY_KEYS, main, parse_emulated, read_policy_config
from aoikit.emulate import run_rate_policy
from aoikit.errors import ConfigError
from aoikit.policies import SENDERS, QAgent
from helpers import child_env, imported_by, own_peak_rss_mb, parse_seconds

GOLDEN_TWO_PACKET = (
    "id,gen_ns,recv_ns,size_bytes\n"
    "0,0,1000000000,100\n"
    "1,1000000000,2000000000,100\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("#"):
            k, _, v = line.partition("=")
            pairs[k] = v
    return pairs


def test_parse_seconds_units():
    assert parse_seconds("12.5ms") == pytest.approx(0.0125)
    assert parse_seconds("250us") == pytest.approx(2.5e-4)
    assert parse_seconds("1s") == 1.0
    assert parse_seconds("0.25") == 0.25


def test_parse_emulated_spec():
    # the run seed is the channel's
    spec = parse_emulated("fixed_rtt=100ms,loss=0.05", 7, "sampler")
    assert spec.fwd_delay_s == pytest.approx(0.05)
    assert spec.bwd_delay_s == pytest.approx(0.05)
    assert spec.loss_p == 0.05
    assert spec.seed == 7
    for text in ("warp=9", "seed=7"):
        with pytest.raises(ConfigError, match=f"^unknown channel spec key {text[:4]!r}$"):
            parse_emulated(text, 0, "sampler")


@pytest.mark.parametrize("text, earlier, later, field", [
    ("bwd_delay=1s,fixed_delay=2s", "bwd_delay", "fixed_delay", "bwd_delay_s"),
    ("fixed_delay=2s,bwd_delay=1s", "fixed_delay", "bwd_delay", "bwd_delay_s"),
    ("fixed_rtt=10ms,fwd_delay=1ms", "fixed_rtt", "fwd_delay", "fwd_delay_s"),
    ("loss=0.1,loss=0.2", "loss", "loss", "loss_p"),
    ("capacity=50,capacity_step", "capacity", "capacity_step", "capacity_hz"),
    ("capacity_step,capacity=50", "capacity_step", "capacity", "capacity_hz"),
    ("capacity_step,capacity_step", "capacity_step", "capacity_step", "fwd_delay_s"),
])
def test_parse_emulated_refuses_a_field_set_twice(text, earlier, later, field):
    # the last item used to win, so the channel depended on item order
    with pytest.raises(ConfigError) as e:
        parse_emulated(text, 0, "sampler")
    assert str(e.value) == f"channel spec {later!r} sets {field}, already set by {earlier!r}"



def test_sim_writes_trace_meta_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    code, stdout, _ = run_cli(
        capsys, "sim", "--model", "mm1", "--rho", "0.5", "--mu", "1",
        "--arrivals", "5000", "--seed", "1", "--out", out,
    )
    assert code == 0
    stats = kv(stdout)
    assert float(stats["avg_age_recv_form_s"]) > 0
    assert os.path.exists(out)
    meta = dict(
        line.split("=", 1)
        for line in Path(out + ".meta").read_text().splitlines()
    )
    assert meta["seed"] == "1"
    assert meta["unstable"] == "0"
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["subcommand"] == "sim"
    assert out in manifest["outputs"]
    assert manifest["seed"] == 1


def test_sim_repeats_are_byte_identical(tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    for out in (a, b):
        code, _, _ = run_cli(
            capsys, "sim", "--model", "mm1", "--rho", "0.53", "--mu", "1",
            "--arrivals", "20000", "--seed", "42", "--out", out,
        )
        assert code == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_unstable_run_flagged_in_metadata(tmp_path, capsys):
    out = str(tmp_path / "u.csv")
    code, _, _ = run_cli(
        capsys, "sim", "--model", "mm1", "--rho", "1.2", "--mu", "1",
        "--arrivals", "5000", "--seed", "3", "--out", out,
    )
    assert code == 0
    assert "unstable=1" in Path(out + ".meta").read_text()


@pytest.mark.parametrize("extra, oracle", [
    ([], True),
    (["--discipline", "lcfs1"], False),
    (["--capacity", "0"], False),
    (["--capacity", "3"], False),
    (["--loss", "0.2"], False),
    (["--loss", "0.2", "--retransmit"], False),
])
def test_sim_mm1_prints_the_closed_form_only_for_its_queue(tmp_path, capsys,
                                                           extra, oracle):
    # the M/M/1 closed form is the age of the loss-free infinite-buffer
    # FCFS queue; any other queue must not print it as its oracle
    code, stdout, _ = run_cli(
        capsys, "sim", "--model", "mm1", "--rho", "0.8", "--mu", "1",
        "--arrivals", "2000", "--seed", "1", "--out", str(tmp_path / "t.csv"),
        *extra,
    )
    assert code == 0
    assert ("analytic_avg_age_s" in kv(stdout)) == oracle


@pytest.mark.parametrize("extra", [
    ["--rate", "1", "--service", "deterministic", "--mu", "1e-320",
     "--capacity", "3"],
    ["--rate", "inf"],
])
def test_sim_rate_with_overflowing_mean_time_exits_2(tmp_path, capsys, extra):
    # an infinite rate, or a mean time 1/rate that overflows, is a bad
    # configuration, not a run that fails later on its timestamps
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(
        capsys, "sim", "--arrival", "deterministic", "--arrivals", "10",
        "--out", str(out), *extra,
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_aoi_seed_env_fallback(tmp_path, capsys, monkeypatch):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    monkeypatch.setenv("AOI_SEED", "99")
    code, _, _ = run_cli(
        capsys, "sim", "--model", "mm1", "--rho", "0.5", "--mu", "1",
        "--arrivals", "2000", "--out", a,
    )
    assert code == 0
    monkeypatch.delenv("AOI_SEED")
    code, _, _ = run_cli(
        capsys, "sim", "--model", "mm1", "--rho", "0.5", "--mu", "1",
        "--arrivals", "2000", "--seed", "99", "--out", b,
    )
    assert code == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_analyze_golden_trace(tmp_path, capsys):
    path = tmp_path / "g.csv"
    path.write_text(GOLDEN_TWO_PACKET)
    code, stdout, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    stats = kv(stdout)
    assert float(stats["avg_age_recv_form_s"]) == pytest.approx(1.5)
    assert float(stats["avg_age_gen_form_s"]) == pytest.approx(1.5)
    assert float(stats["peak_age_s"]) == pytest.approx(2.0)


def test_analyze_with_bias_and_penalty(tmp_path, capsys):
    path = tmp_path / "g.csv"
    path.write_text(GOLDEN_TWO_PACKET)
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--bias", "1000")
    assert kv(stdout)["avg_age_recv_form_s"] == "1001.5"
    code, stdout, _ = run_cli(
        capsys, "analyze", str(path), "--penalty", "linear", "--alpha", "2"
    )
    assert float(kv(stdout)["penalty_avg"]) == pytest.approx(3.0)


def test_analyze_non_finite_penalty_exits_3(tmp_path, capsys):
    # a 900 s gap overflows the exponential penalty at alpha = 1
    path = tmp_path / "gap.csv"
    path.write_text(GOLDEN_TWO_PACKET + "2,901000000000,902000000000,100\n")
    code, stdout, err = run_cli(
        capsys, "analyze", str(path), "--penalty", "exponential", "--alpha", "1"
    )
    assert code == 3
    assert "penalty_avg" not in stdout
    # numpy's overflow warnings must not reach stderr ahead of the error
    (line,) = err.splitlines()
    assert line.startswith("error: penalty is not finite over interval 1,")


def test_analyze_malformed_row_reports_line_and_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,gen_ns,recv_ns,size_bytes\n0,0,10,0\n1,oops,20,0\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line 3" in err


def test_sweep_single_point(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    code, stdout, _ = run_cli(
        capsys, "sweep", "--rates", "0.5", "--arrival", "poisson",
        "--service", "exponential", "--mu", "1", "--arrivals", "5000",
        "--seed", "2", "--out", out,
    )
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "rate_hz,avg_age_s,peak_age_s,loss,avg_delay_s"
    assert len(lines) == 2
    assert kv(stdout)["points"] == "1"


def test_sweep_bottleneck_u_shape(tmp_path, capsys):
    out = str(tmp_path / "u.csv")
    code, stdout, _ = run_cli(
        capsys, "sweep", "--bottleneck-kbps", "130", "--rate-min", "1.5",
        "--rate-max", "46", "--points", "10", "--arrivals", "15000",
        "--seed", "5", "--out", out, "--gnuplot-hints",
    )
    assert code == 0
    assert "# gnuplot" in stdout
    rows = [line.split(",") for line in Path(out).read_text().splitlines()[1:]]
    ages = [float(r[1]) for r in rows]
    k = ages.index(min(ages))
    assert 0 < k < len(ages) - 1


def test_sweep_discipline_comparison_high_rate_tail(tmp_path, capsys):
    # freshest-only queue must not blow up where the FIFO does
    outs = {}
    for disc in ("fcfs", "lcfs1"):
        out = str(tmp_path / f"{disc}.csv")
        code, _, _ = run_cli(
            capsys, "sweep", "--bottleneck-kbps", "130", "--rates", "38,46",
            "--discipline", disc, "--arrivals", "10000", "--seed", "4",
            "--out", out,
        )
        assert code == 0
        rows = [line.split(",") for line in Path(out).read_text().splitlines()[1:]]
        outs[disc] = [float(r[1]) for r in rows]
    for lc, fc in zip(outs["lcfs1"], outs["fcfs"]):
        assert lc <= fc


def test_sweep_without_rates_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("extra", [[], ["--bottleneck-kbps", "130"]])
def test_sweep_empty_rate_list_is_config_error(tmp_path, capsys, extra):
    code, _, err = run_cli(
        capsys, "sweep", "--rates", ",", "--out", str(tmp_path / "x.csv"), *extra
    )
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("extra", [["--capacity", "2"], ["--loss", "0.5"],
                                   ["--capacity", "0", "--loss", "0.1"],
                                   ["--arrival", "poisson"],
                                   ["--service", "exponential"], ["--mu", "7"]])
def test_sweep_bottleneck_refuses_capacity_and_loss(tmp_path, capsys, extra):
    # the bottleneck model sets its own arrivals, service, loss and
    # buffer, so these flags would be ignored
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--bottleneck-kbps", "130", "--rates", "5,20",
        "--out", str(out), *extra,
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: --bottleneck-kbps takes neither")
    assert not out.exists()


@pytest.mark.parametrize("argv,point", [
    (["--rates", "1,2", "--arrivals", "1"], "sweep point 0 at 1 Hz"),
    (["--rates", "0.5,1e300", "--mu", "1e300", "--capacity", "1", "--arrivals", "50"],
     "sweep point 1 at 1e+300 Hz"),
    (["--bottleneck-kbps", "130", "--rates", "3,4", "--arrivals", "1"],
     "sweep point 0 at 3 Hz"),
])
def test_sweep_point_with_too_few_deliveries_names_itself(tmp_path, capsys, argv, point):
    # a sweep row needs age statistics, so unlike `sim` it writes nothing
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "sweep", *argv, "--out", str(out))
    assert code == 3
    assert stdout == ""
    assert err.splitlines() == [f"error: {point}: need >= 2 deliveries "
                                "after obsolete filtering, have 1"]
    assert list(tmp_path.iterdir()) == []


def test_measure_sampler_emulated(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    code, stdout, _ = run_cli(
        capsys, "measure", "sampler", "--emulated", "fixed_rtt=12.5ms",
        "--rate", "140", "--duration", "10", "--out", out,
    )
    assert code == 0
    stats = kv(stdout)
    assert float(stats["avg_age_recv_form_s"]) == pytest.approx(0.016071, rel=0.02)
    assert os.path.exists(out + ".manifest.json")


@pytest.mark.parametrize("channel, message", [
    ("capacity=100,fixed_rtt=20ms,step_at=1s,step_factor=0", "capacity step factor"),
    ("capacity=100,fixed_rtt=20ms,step_at=1s,step_factor=-1", "capacity step factor"),
    ("capacity=100,fixed_rtt=20ms,buffer=-1", "buffer"),
    ("lognormal_median=100ms,lognormal_sigma=-1", "lognormal sigma"),
    ("capacity=nan,fixed_rtt=20ms", "capacity"),
    ("capacity=100,fixed_rtt=20ms,loss_onset=0.5,busy_loss=1.5", "busy loss probability"),
    ("capacity=100,fixed_rtt=20ms,loss_onset=0.5,panicked_loss=-3",
     "panicked loss probability"),
    ("capacity=100,fixed_rtt=20ms,step_at=nan", "capacity step time"),
    ("fixed_rtt=abc", "channel spec fixed_rtt is not a number: 'abc'"),
    ("capacity=100,fixed_rtt=20ms,buffer=1.5",
     "channel spec buffer is not an integer: '1.5'"),
    ("fixed_rtt=20ms,buffer=3", "buffer, capacity step and loss schedule need"),
    ("fixed_rtt=20ms,step_at=1s", "buffer, capacity step and loss schedule need"),
    ("lognormal_median=100ms,fixed_rtt=20ms", "lognormal round trips take no"),
    ("lognormal_median=100ms,jitter=1ms", "lognormal round trips take no"),
    ("capacity=50,fixed_rtt=20ms,busy_loss=0.9", "busy and panicked loss need"),
    ("capacity=50,fixed_rtt=20ms,panicked_loss=0.9", "busy and panicked loss need"),
    ("capacity=50,fixed_rtt=20ms,step_factor=0.1", "capacity step factor needs"),
    ("capacity=50,fixed_rtt=20ms,busy_loss=0.9,panicked_loss=0.9,step_factor=0.1",
     "busy and panicked loss need"),
])
def test_measure_sampler_unusable_channel_exits_2(tmp_path, capsys, channel, message):
    out = tmp_path / "m.csv"
    code, stdout, err = run_cli(
        capsys, "measure", "sampler", "--emulated", channel,
        "--rate", "300", "--duration", "2", "--out", str(out),
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_measure_sampler_schedule_sends_each_segment(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "measure", "sampler", "--emulated", "fixed_rtt=10ms",
        "--schedule", "50:1,100:1", "--out", str(tmp_path / "m.csv"),
    )
    assert code == 0
    assert kv(stdout)["sent"] == "150"


SAMPLER = ["measure", "sampler", "--rate", "10", "--duration", "1"]
EMULATED_SAMPLER = ["measure", "sampler", "--emulated", "fixed_rtt=10ms"]
POLICY = ["policy", "--emulated", "fixed_rtt=10ms"]


@pytest.mark.parametrize("argv, config, aoi_seed", [
    # malformed numbers
    (["sweep", "--rates", "1,abc"], None, None),
    (EMULATED_SAMPLER + ["--schedule", "10"], None, None),
    (EMULATED_SAMPLER + ["--schedule", "10:xx"], None, None),
    (SAMPLER + ["--dest", "127.0.0.1"], None, None),
    (["measure", "sync", "--peer", "127.0.0.1:99999"], None, None),
    (POLICY + ["--name", "acp"], "kappa=abc", None),
    (["sim", "--model", "mm1", "--rho", "0.5", "--arrivals", "10"], None, "abc"),
    (POLICY + ["--name", "lazy", "--duration", "nan"], None, None),
    # runs that would never finish, or send nothing
    (EMULATED_SAMPLER + ["--rate", "inf", "--duration", "1"], None, None),
    (EMULATED_SAMPLER + ["--rate", "1e10", "--duration", "1"], None, None),
    (EMULATED_SAMPLER + ["--rate", "10", "--duration", "inf"], None, None),
    (EMULATED_SAMPLER + ["--rate", "nan", "--duration", "1"], None, None),
    (POLICY + ["--name", "lazy", "--duration", "inf"], None, None),
    # a channel field set twice, which the last item used to win
    (["policy", "--name", "acp", "--emulated", "capacity=50,capacity_step"], None, None),
    (EMULATED_SAMPLER[:3] + ["loss=0.1,fixed_rtt=10ms,loss=0.2", "--rate", "10",
                             "--duration", "1"], None, None),
    # flags and keys that would be ignored
    (EMULATED_SAMPLER + ["--schedule", "50:1", "--rate", "10"], None, None),
    (EMULATED_SAMPLER + ["--schedule", "50:1", "--duration", "1"], None, None),
    (["sweep", "--rates", "1,2", "--rate-min", "1"], None, None),
    (["sweep", "--rates", "1,2", "--rate-max", "9"], None, None),
    (["sweep", "--rates", "1,2", "--points", "5"], None, None),
    (["sweep", "--rates", "1,2", "--packet-bytes", "500"], None, None),
    (["sweep", "--rate-min", "1", "--rate-max", "2", "--packet-bytes", "500"],
     None, None),
    (SAMPLER + ["--dest", "127.0.0.1:9", "--emulated", "fixed_rtt=10ms"], None, None),
    (["measure", "sync", "--peer", "127.0.0.1:9", "--emulated", "offset=5ms"],
     None, None),
    (POLICY + ["--name", "acp"], "kapa=5", None),
    (POLICY + ["--name", "acp"], "kappa=1\nkappa=3", None),
    (POLICY + ["--name", "lazy"], "bogus=1", None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s,loss=0.5"],
     None, None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s,capacity=3"],
     None, None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s,jitter=40ms"],
     None, None),
    (["policy", "--name", "qlearn", "--emulated", "capacity_step"], None, None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s,seed=5",
      "--iters", "300", "--seed", "1"], None, None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s,seed=5",
      "--iters", "300"], None, "1"),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s,jitter=0"], None, None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s",
      "--iters", "300", "--duration", "5"], None, None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s",
      "--iters", "300", "--gnuplot-hints"], None, None),
    # channel keys the command does not read, and the channel seed,
    # which is the run seed
    (["measure", "sync", "--emulated", "fixed_rtt=10ms,capacity=5,buffer=0"], None, None),
    (["measure", "sync", "--emulated", "capacity_step"], None, None),
    (EMULATED_SAMPLER[:3] + ["fixed_rtt=10ms,offset=5ms", "--rate", "10",
                             "--duration", "1"], None, None),
    (POLICY[:2] + ["fixed_rtt=10ms,offset=5ms", "--name", "lazy"], None, None),
    (EMULATED_SAMPLER[:3] + ["fixed_rtt=10ms,seed=3", "--rate", "10",
                             "--duration", "1"], None, None),
    (["measure", "sync", "--emulated", "offset=5ms,seed=3"], None, None),
    (POLICY[:2] + ["capacity_step,seed=3", "--name", "acp"], None, None),
    # packet sizes outside the wire format, on both paths
    (EMULATED_SAMPLER + ["--rate", "10", "--duration", "1", "--size", "5"], None, None),
    (EMULATED_SAMPLER + ["--rate", "10", "--duration", "1", "--size", "-1"], None, None),
    (EMULATED_SAMPLER + ["--rate", "10", "--duration", "1", "--size", "65567"],
     None, None),
    (SAMPLER + ["--dest", "127.0.0.1:9", "--size", "30"], None, None),
    # a datagram larger than an IPv4 UDP socket can send
    (SAMPLER + ["--dest", "127.0.0.1:9", "--size", "65508"], None, None),
    # a penalty scale without a penalty, on a well-formed trace
    (["analyze", "--alpha", "7"], None, None),
    (POLICY + ["--name", "lazy", "--iters", "5"], None, None),
    (POLICY + ["--name", "acp", "--iters", "5"], None, None),
    (POLICY + ["--name", "zero-wait", "--iters", "5"], None, None),
    (["sim", "--model", "mm1", "--rho", "0.5", "--arrivals", "10",
      "--arrival", "poisson"], None, None),
    (["sim", "--model", "mm1", "--rho", "0.5", "--arrivals", "10",
      "--rate", "2"], None, None),
    (["sim", "--model", "mm1", "--rho", "0.5", "--arrivals", "10",
      "--service", "exponential"], None, None),
    (["sim", "--rho", "0.5", "--rate", "1", "--arrivals", "10"], None, None),
    (["sim", "--rate", "0.5", "--arrivals", "10", "--discipline", "lcfs1",
      "--capacity", "5"], None, None),
    (["sim", "--rate", "0.5", "--arrivals", "10", "--discipline", "lcfs1",
      "--capacity", "0"], None, None),
    (["sweep", "--rates", "0.5,1", "--discipline", "lcfs1", "--capacity", "5"],
     None, None),
    (["sim", "--rate", "0.5", "--arrivals", "10", "--retransmit"], None, None),
    (["sim", "--model", "mm1", "--rho", "0.5", "--arrivals", "10", "--retransmit"],
     None, None),
    (["sweep", "--rates", "0.5,1", "--retransmit", "--loss", "0"], None, None),
    (["sim", "--arrival", "zero-wait", "--rate", "2", "--arrivals", "10"], None, None),
    (POLICY + ["--name", "acp"], "gamma=0.5", None),
    (POLICY + ["--name", "lazy"], "kappa=2", None),
    (POLICY + ["--name", "zero-wait"], "ewma_alpha=0.2\nepoch_ms=20", None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s", "--iters", "300"],
     "backlog_cap=8", None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s", "--iters", "300"],
     "gamma=0.9", None),
    (POLICY + ["--name", "bang"], None, None),
    # policy settings a run could not use: a nan cap never applies, a
    # negative epoch floor acts as 0 and epsilon would leave [0, 1]
    (POLICY + ["--name", "acp"], "backlog_cap=nan", None),
    (POLICY + ["--name", "acp"], "epoch_ms=-5", None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s", "--iters", "300"],
     "epsilon_decay=1.5", None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s", "--iters", "300"],
     "epsilon_decay=-1", None),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s", "--iters", "300"],
     "epsilon_decay=nan", None),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_cli_refuses_malformed_ignored_or_endless_input(tmp_path, capsys, monkeypatch,
                                                        argv, config, aoi_seed):
    # exit 2 with one error line and no output, instead of a traceback,
    # a silently ignored flag or a run that never ends
    if config is not None:
        (tmp_path / "p.cfg").write_text(config + "\n")
        argv = argv + ["--config", str(tmp_path / "p.cfg")]
    if aoi_seed is not None:
        monkeypatch.setenv("AOI_SEED", aoi_seed)
    if argv[0] == "analyze":
        (tmp_path / "a.csv").write_text(GOLDEN_TWO_PACKET)
        argv = argv[:1] + [str(tmp_path / "a.csv")] + argv[1:]
    elif argv[1] != "sync":
        argv = argv + ["--out", str(tmp_path / "out")]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert [line for line in err.splitlines() if "error: " in line] == \
        err.splitlines()[-1:]
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("argv, config", [
    # the bottleneck sets the loss that --retransmit resends
    (["sweep", "--bottleneck-kbps", "130", "--rates", "30", "--arrivals", "300",
      "--retransmit"], None),
    (["sim", "--rate", "0.5", "--arrivals", "10", "--loss", "0.1", "--retransmit"], None),
    (["sweep", "--bottleneck-kbps", "130", "--rate-min", "20", "--rate-max", "40",
      "--points", "3", "--packet-bytes", "500", "--arrivals", "300"], None),
    (["sweep", "--rate-min", "0.5", "--rate-max", "1", "--points", "3",
      "--arrivals", "300"], None),
    (["sim", "--arrival", "zero-wait", "--arrivals", "10"], None),
    (POLICY + ["--name", "acp", "--duration", "1"],
     "kappa=2\nbacklog_cap=8\nepoch_ms=20\newma_alpha=0.2"),
    (POLICY + ["--name", "lazy", "--duration", "1"], "ewma_alpha=0.2"),
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s", "--iters", "300"],
     "lr=0.2\nepsilon0=0.5\nepsilon_decay=0.99\nbins=16"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_cli_accepts_the_flags_and_keys_each_run_reads(tmp_path, capsys, argv, config):
    if config is not None:
        (tmp_path / "p.cfg").write_text(config + "\n")
        argv = argv + ["--config", str(tmp_path / "p.cfg")]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")


def library_default(name: str, key: str):
    """The library's default of the argument a policy config key sets,
    in the key's unit."""
    argument, kind = POLICY_KEYS[name][key]
    owner = (run_rate_policy if argument == "ewma_alpha"
             else QAgent if name == "qlearn" else SENDERS[name])
    default = inspect.signature(owner).parameters[argument].default
    return default * 1e3 if kind == "ms" else default


def policy_runs(tmp_path, capsys, name: str, config: str) -> list:
    """stdout and the output files of a policy run without a config
    and of one with `config`; the manifest records the config, so it
    is left out."""
    if name == "qlearn":
        argv = ["policy", "--name", name, "--emulated", "fixed_delay=250ms", "--iters", "2000"]
    else:
        argv = ["policy", "--name", name, "--emulated", "fixed_rtt=20ms,jitter=5ms",
                "--duration", "2"]
    (tmp_path / "p.cfg").write_text(config)
    runs = []
    for out, extra in (("default", []), ("keyed", ["--config", str(tmp_path / "p.cfg")])):
        code, stdout, err = run_cli(capsys, *argv, "--seed", "1",
                                    "--out", str(tmp_path / out), *extra)
        assert (code, err) == (0, "")
        files = sorted(tmp_path.glob(out + ".*.csv"))
        runs.append([stdout.replace(str(tmp_path / out), "OUT")]
                    + [f.read_bytes() for f in files])
    return runs


# a value each key can act on: the cap at the floor clamps every
# target, and epochs longer than the 20 ms round trip end on acks
POLICY_KEY_VALUES = {"backlog_cap": "1", "epoch_ms": "50"}


@pytest.mark.parametrize("name, key", [(name, key) for name, keys in POLICY_KEYS.items()
                                       for key in keys])
def test_every_policy_key_a_run_reads_changes_its_outputs(tmp_path, capsys, name, key):
    # a key the policy accepts but ignores would leave stdout and every
    # output file as the default run's
    default = library_default(name, key)
    runs = policy_runs(tmp_path, capsys, name,
                       f"{key}={POLICY_KEY_VALUES.get(key, type(default)(default / 2))}\n")
    assert runs[0] != runs[1]


@pytest.mark.parametrize("name", list(POLICY_KEYS))
def test_policy_config_of_the_library_defaults_changes_nothing(tmp_path, capsys, name):
    # the CLI holds no default of its own: a config that sets every key
    # the policy reads to the library's default is the run without one
    config = "".join(f"{key}={library_default(name, key)!r}\n" for key in POLICY_KEYS[name])
    runs = policy_runs(tmp_path, capsys, name, config)
    assert runs[0] == runs[1]


def test_readme_lists_every_channel_spec_key():
    import re

    from aoikit.cli import CHANNEL_KEYS

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Emulated channel specs", 1)[1].split("\n\n| key |", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]
    keys = {k for row in rows for k in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert keys == set(CHANNEL_KEYS)


def test_measure_sampler_abort_exits_3_and_keeps_the_partial_trace(
        tmp_path, capsys, monkeypatch):
    from aoikit import udp
    from aoikit.trace import AgeTrace

    partial = AgeTrace.from_arrays([0, 1, 2], [0, 10**8, 2 * 10**8],
                                   [5 * 10**7, 15 * 10**7, None])

    def aborted_run(dest, schedule, size):
        return udp.SamplerResult(partial, sent=3, received=2, duplicates=0,
                                 unmatched=0, aborted=True)

    monkeypatch.setattr(udp, "run_sampler", aborted_run)
    out = str(tmp_path / "m.csv")
    code, stdout, err = run_cli(
        capsys, "measure", "sampler", "--dest", "127.0.0.1:9",
        "--rate", "10", "--duration", "1", "--out", out,
    )
    assert code == 3
    assert err == "error: sampler aborted after 3 packets\n"
    stats = kv(stdout)
    assert stats["sent"] == "3" and stats["received"] == "2"
    assert "avg_age_recv_form_s" in stats
    assert Path(out).read_text().splitlines()[1:] == [
        "0,0,50000000,0", "1,100000000,150000000,0", "2,200000000,,0"]
    assert os.path.exists(out + ".manifest.json")


def test_measure_sync_emulated(capsys):
    code, stdout, _ = run_cli(
        capsys, "measure", "sync", "--emulated", "offset=5ms", "--pings", "100"
    )
    assert code == 0
    stats = kv(stdout)
    assert abs(int(stats["offset_ns"]) - 5_000_000) <= 100_000
    assert stats["pings"] == "100"


def test_policy_lazy_run(tmp_path, capsys):
    prefix = str(tmp_path / "lazy")
    code, stdout, _ = run_cli(
        capsys, "policy", "--name", "lazy", "--emulated", "fixed_rtt=100ms",
        "--duration", "20", "--out", prefix,
    )
    assert code == 0
    stats = kv(stdout)
    assert float(stats["mean_rate_hz"]) == pytest.approx(10.0, rel=0.05)
    log = Path(prefix + ".decisions.csv").read_text().splitlines()
    assert log[0] == "epoch,action,target_backlog,rate_hz,avg_age_s,backlog"
    assert len(log) > 10
    assert os.path.exists(prefix + ".trace.csv")


def test_policy_config_file(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("kappa=2.0\nepoch_ms=20\nbacklog_cap=8\n# comment\n")
    parsed = read_policy_config(str(cfg))
    assert parsed == {"kappa": "2.0", "epoch_ms": "20", "backlog_cap": "8"}
    prefix = str(tmp_path / "acp")
    code, stdout, _ = run_cli(
        capsys, "policy", "--name", "acp", "--emulated", "fixed_rtt=50ms",
        "--duration", "10", "--config", str(cfg), "--out", prefix,
    )
    assert code == 0
    rows = Path(prefix + ".decisions.csv").read_text().splitlines()[1:]
    targets = [float(r.split(",")[2]) for r in rows]
    assert all(2.0 <= t <= 8.0 for t in targets)


def test_policy_config_refuses_a_key_given_twice(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("kappa=1\n# comment\nkappa=3\n")
    with pytest.raises(ConfigError) as e:
        read_policy_config(str(cfg))
    assert str(e.value) == f"{cfg}:3: duplicate key 'kappa'"


def test_policy_qlearn_run(tmp_path, capsys):
    prefix = str(tmp_path / "ql")
    code, stdout, _ = run_cli(
        capsys, "policy", "--name", "qlearn", "--emulated", "fixed_delay=1s",
        "--iters", "10000", "--out", prefix,
    )
    assert code == 0
    stats = kv(stdout)
    resume_vals = [float(v) for k, v in stats.items()
                   if k.startswith("q_resume_bin")]
    assert resume_vals
    assert all(abs(v - 0.632) <= 0.02 for v in resume_vals)
    greedy = [v for k, v in stats.items() if k.startswith("greedy_bin")]
    assert set(greedy) == {"resume"}


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, "sim", "--frobnicate")
    assert code == 2


def test_sim_million_arrivals_matches_oracle_through_analyze(tmp_path, capsys):
    out = str(tmp_path / "big.csv")
    code, stdout, _ = run_cli(
        capsys, "sim", "--model", "mm1", "--rho", "0.53", "--mu", "1",
        "--arrivals", "1000000", "--seed", "42", "--out", out,
    )
    assert code == 0
    analytic = float(kv(stdout)["analytic_avg_age_s"])
    code, stdout, _ = run_cli(capsys, "analyze", out)
    assert code == 0
    measured = float(kv(stdout)["avg_age_recv_form_s"])
    assert measured == pytest.approx(analytic, rel=0.02)


def test_policy_acp_capacity_step_preset(tmp_path, capsys):
    prefix = str(tmp_path / "acp")
    code, stdout, _ = run_cli(
        capsys, "policy", "--name", "acp", "--emulated", "capacity_step",
        "--duration", "30", "--out", prefix,
    )
    assert code == 0
    rows = Path(prefix + ".decisions.csv").read_text().splitlines()[1:]
    assert any(r.split(",")[1] == "MDEC" for r in rows)


def test_policy_zero_round_trip_exits_2(tmp_path):
    # a subprocess with a timeout, so a loop stuck at virtual time 0
    # fails instead of hanging the suite
    import subprocess
    import sys

    for name, channel in (("zero-wait", "fixed_rtt=0"), ("lazy", ""), ("acp", "loss=0")):
        proc = subprocess.run(
            [sys.executable, "-m", "aoikit.cli", "policy", "--name", name,
             "--emulated", channel, "--duration", "5",
             "--out", str(tmp_path / name)],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: closed-loop policies need a positive round trip\n"


@pytest.mark.parametrize("config", ["epoch_ms=nan", "kappa=inf\nbacklog_cap=inf",
                                    "kappa=1e308\nbacklog_cap=1e308"],
                         ids=["nan-epoch", "infinite-rate", "overflowing-rate"])
def test_policy_config_that_never_ends_exits_2(tmp_path, config):
    # a nan epoch time never ends, and an infinite rate (also one that
    # overflows from finite settings) sends every packet at one instant;
    # a child with a timeout and an address-space limit fails instead of
    # hanging the suite or filling memory with rows
    import resource
    import subprocess
    import sys

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    (tmp_path / "p.cfg").write_text(config + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "aoikit.cli", "policy", "--name", "acp",
         "--emulated", "fixed_rtt=50ms", "--duration", "5",
         "--config", str(tmp_path / "p.cfg"), "--out", str(tmp_path / "acp")],
        capture_output=True, text=True, timeout=20, env=child_env(),
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not list(tmp_path.glob("acp*"))


@pytest.mark.parametrize("path", [["--emulated", "fixed_rtt=1ms"], ["--dest", "127.0.0.1:9"]],
                         ids=["emulated", "live"])
@pytest.mark.parametrize("argv, planned", [
    (["--rate", "1e9", "--duration", "100"], "1e+11"),
    (["--schedule", "1e6:0.5,1e3:1000"], "1.5e+06"),
], ids=["rate", "schedule"])
def test_measure_sampler_past_the_send_bound_exits_2_before_sending(tmp_path, path, argv,
                                                                    planned):
    # a child with a timeout and an address-space limit, so a sampler
    # that set out on its sends fails instead of hanging the suite or
    # filling memory with send times
    import resource
    import subprocess
    import sys

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "aoikit.cli", "measure", "sampler", *path, *argv,
         "--out", str(tmp_path / "m.csv")],
        capture_output=True, text=True, timeout=20, env=child_env(),
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: the schedule plans {planned} sends, "
                           f"more than the bound of 1000000 per run\n")
    assert not list(tmp_path.glob("m.csv*"))


@pytest.mark.parametrize("argv, error", [
    (["policy", "--name", "qlearn", "--emulated", "fixed_delay=1s",
      "--iters", "1000000000"],
     "1000000000 iterations are more than the bound of 1000000 per run"),
    (["measure", "sync", "--emulated", "fixed_rtt=1ms", "--pings", "100000000"],
     "100000000 pings are more than the bound of 1000000 per run"),
], ids=["qlearn-iters", "sync-pings"])
def test_runaway_step_counts_exit_2_before_the_first_step(tmp_path, argv, error):
    # a child with a timeout and an address-space limit, so a run that
    # set out on its steps fails instead of hanging the suite
    import resource
    import subprocess
    import sys

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    out = ["--out", str(tmp_path / "q")] if argv[0] == "policy" else []
    proc = subprocess.run(
        [sys.executable, "-m", "aoikit.cli", *argv, *out],
        capture_output=True, text=True, timeout=20, env=child_env(),
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {error}\n"
    assert not list(tmp_path.iterdir())


def test_policy_past_the_send_bound_exits_2(tmp_path, capsys, monkeypatch):
    from aoikit import emulate

    monkeypatch.setattr(emulate, "MAX_SENDS", 100)
    code, out, err = run_cli(capsys, "policy", "--name", "zero-wait", "--emulated",
                             "fixed_rtt=10ms", "--duration", "30",
                             "--out", str(tmp_path / "zw"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: the run reached the bound of 100 sends at ")
    assert err.endswith(" s of 30 s\n") and err.count("\n") == 1
    assert not list(tmp_path.glob("zw*"))


def test_policy_past_the_epoch_bound_exits_2(tmp_path, capsys, monkeypatch):
    # epochs of a 1 us round trip at a rate that sends twice a run
    from aoikit import emulate

    monkeypatch.setattr(emulate, "MAX_SENDS", 100)
    (tmp_path / "p.cfg").write_text("kappa=1e-9\nbacklog_cap=1e-9\nepoch_ms=0\n")
    code, out, err = run_cli(capsys, "policy", "--name", "acp", "--emulated", "fixed_rtt=1us",
                             "--duration", "1000", "--config", str(tmp_path / "p.cfg"),
                             "--out", str(tmp_path / "acp"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: the run reached the bound of 100 epochs at ")
    assert err.endswith(" s of 1000 s\n") and err.count("\n") == 1
    assert not list(tmp_path.glob("acp*"))


@pytest.mark.parametrize("argv, code, error", [
    (["policy", "--name", "acp", "--emulated", "fixed_rtt=1us", "--duration", "1000",
      "--config", "CONFIG", "--out", "OUT"],
     2, "the run reached the bound of 1000000 epochs at 1 s of 1000 s"),
    (["sim", "--model", "mm1", "--rho", "0.5", "--arrivals", "1000000000", "--out", "OUT"],
     3, "Unable to allocate"),
    (["sweep", "--rate-min", "1", "--rate-max", "2", "--points", "1000000000",
      "--out", "OUT"],
     3, "Unable to allocate"),
], ids=["acp-epochs", "sim-memory", "sweep-memory"])
def test_runs_too_large_for_memory_or_time_end_with_one_error_line(tmp_path, argv, code,
                                                                   error):
    # a child with a timeout and an address-space limit: a closed-loop
    # run at a million epochs per virtual second stops at the bound, and
    # arrays larger than the limit exit 3 instead of with a traceback
    import resource
    import subprocess
    import sys

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    (tmp_path / "p.cfg").write_text("kappa=1e-9\nbacklog_cap=1e-9\nepoch_ms=0\n")
    files = {"CONFIG": str(tmp_path / "p.cfg"), "OUT": str(tmp_path / "out")}
    proc = subprocess.run(
        [sys.executable, "-m", "aoikit.cli", *(files.get(a, a) for a in argv)],
        capture_output=True, text=True, timeout=20, env=child_env(),
        preexec_fn=limit_memory,
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {error}") and proc.stderr.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_rate_errors_show_the_rate_that_failed(tmp_path, capsys):
    # formatted with :g, both rates printed as the bound they exceed
    code, _, err = run_cli(capsys, "policy", "--name", "lazy", "--emulated",
                           "fixed_rtt=1ns", "--duration", "1", "--out", str(tmp_path / "l"))
    assert code == 2
    assert "at most 1e9 Hz, not 1000000000.0000001 (at " in err
    code, _, err = run_cli(capsys, *EMULATED_SAMPLER, "--rate", "1000000000.5",
                           "--duration", "1", "--out", str(tmp_path / "m.csv"))
    assert code == 2
    assert err == "error: rate must be positive and at most 1e9 Hz, not 1000000000.5\n"


def test_policy_zero_wait_on_lossy_channel_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "policy", "--name", "zero-wait", "--emulated",
        "fixed_rtt=50ms,loss=0.05", "--duration", "60",
        "--out", str(tmp_path / "zw"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: zero-wait waits for every ack") and err.count("\n") == 1
    assert not (tmp_path / "zw.trace.csv").exists()


def test_measure_echo_server_lifecycle():
    import signal
    import subprocess
    import sys
    import time

    proc = subprocess.Popen(
        [sys.executable, "-m", "aoikit.cli", "measure", "echo-server",
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("port=")
        assert int(line.split("=")[1]) > 0
        time.sleep(0.3)
        assert proc.poll() is None  # still serving
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=5)
        assert proc.returncode == 0
        assert "rx=" in out and "malformed=" in out
    finally:
        if proc.poll() is None:
            proc.kill()


@pytest.mark.parametrize("args", [["-m", "aoikit.cli", "--version"],
                                  ["-c", "import aoikit.cli"]])
def test_cli_loads_no_socket_layer_outside_measure(args):
    # only the live measure commands import udp, and with it socket and
    # selectors; nothing in the CLI uses the scheduler, the trace CSV
    # codec loads on a trace's first write or read, and the log codec on
    # a closed-loop log's first write
    loaded = imported_by(*args)
    assert "aoikit.emulate" in loaded  # the report lists the CLI's imports
    assert loaded & {"aoikit.udp", "aoikit.scheduler", "aoikit.csvcodec",
                     "aoikit.logcodec", "socket", "selectors"} == set()


def test_measure_echo_server_bind_failure_exits_3(capsys):
    import socket

    taken = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    taken.bind(("127.0.0.1", 0))
    port = taken.getsockname()[1]
    try:
        code, _, err = run_cli(
            capsys, "measure", "echo-server", "--port", str(port)
        )
    finally:
        taken.close()
    assert code == 3
    assert "error" in err


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_measure_echo_server_bind_failure_closes_its_socket(capsys):
    # a socket left open is reported as a ResourceWarning when it is
    # collected, which these filters turn into a failure
    test_measure_echo_server_bind_failure_exits_3(capsys)
    gc.collect()


def test_measure_sync_unanswered_peer_exits_3(capsys):
    import socket

    silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    silent.bind(("127.0.0.1", 0))
    port = silent.getsockname()[1]
    try:
        code, _, err = run_cli(
            capsys, "measure", "sync", "--peer", f"127.0.0.1:{port}",
            "--pings", "1",
        )
    finally:
        silent.close()
    assert code == 3
    assert "error" in err


def test_live_sampler_sends_the_largest_udp_datagram_and_refuses_one_byte_more(
        tmp_path, capsys):
    from aoikit.udp import MAX_DATAGRAM, EchoServer

    assert MAX_DATAGRAM == 65_507
    server = EchoServer().start()
    try:
        runs = {size: run_cli(capsys, *SAMPLER, "--dest", f"127.0.0.1:{server.port}",
                              "--size", str(size), "--out", str(tmp_path / f"{size}.csv"))
                for size in (65_507, 65_508)}
    finally:
        server.stop()
    code, stdout, err = runs[65_507]
    assert code == 0 and err == ""
    assert kv(stdout)["sent"] == "10" and int(kv(stdout)["received"]) > 0
    code, stdout, err = runs[65_508]
    assert code == 2 and stdout == ""
    assert err == "error: --size must be in 31-65507 bytes, not 65508\n"
    assert not (tmp_path / "65508.csv").exists()


def test_policy_with_too_few_deliveries_prints_a_note_in_place_of_age_statistics(
        tmp_path, capsys):
    # a 20 s round trip acks one packet in 30 s, as `measure sampler`
    # reports a run with too few deliveries
    code, stdout, err = run_cli(
        capsys, "policy", "--name", "zero-wait", "--emulated", "fixed_rtt=20s",
        "--duration", "30", "--out", str(tmp_path / "zw"))
    assert code == 0 and err == ""
    stats = kv(stdout)
    assert stats["acked"] == "1"
    assert stats["note"] == "too few deliveries for age statistics"
    assert "nan" not in stdout
    assert not {"median_age_s", "avg_age_recv_form_s", "peak_age_s"} & set(stats)


def test_sim_with_too_few_deliveries_prints_a_note_in_place_of_age_statistics(
        tmp_path, capsys):
    # every arrival lands at one instant, so the one-slot queue serves a
    # single packet: the outputs stay and stdout says why no statistics
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(
        capsys, "sim", "--rate", "1e300", "--mu", "1e300", "--arrivals", "50",
        "--capacity", "1", "--out", str(out))
    assert code == 0 and err == ""
    assert kv(stdout) == {"trace": str(out),
                          "note": "too few deliveries for age statistics"}
    assert out.exists() and Path(f"{out}.meta").exists()
    assert Path(f"{out}.manifest.json").exists()


@pytest.mark.parametrize("argv, draws", [
    (["policy", "--name", "acp", "--emulated", "capacity_step", "--duration", "30"],
     False),
    (["measure", "sampler", "--emulated", "capacity=100,fixed_rtt=20ms",
      "--rate", "300", "--duration", "2"], False),
    (["policy", "--name", "lazy", "--emulated", "fixed_rtt=5ms,jitter=1ms",
      "--duration", "2"], True),
    (["measure", "sampler", "--emulated", "fixed_rtt=20ms,loss=0.1",
      "--rate", "100", "--duration", "2"], True),
], ids=["acp-capacity-step", "sampler-capacity", "lazy-jitter", "sampler-loss"])
def test_only_a_channel_that_draws_loads_numpy_random(tmp_path, argv, draws):
    loaded = imported_by("-m", "aoikit.cli", *argv, "--out", str(tmp_path / "out"))
    assert "aoikit.emulate" in loaded
    assert ("numpy.random" in loaded) == draws


def test_million_step_qlearn_child_stays_small(tmp_path):
    # the step log streams to its file: no line per step is held, so a
    # run at the step bound peaks near a short one
    peak_mb = own_peak_rss_mb("-m", "aoikit.cli", "policy", "--name", "qlearn",
                              "--emulated", "fixed_delay=1s", "--iters", "1000000",
                              "--out", str(tmp_path / "q"))
    with open(tmp_path / "q.decisions.csv", "rb") as f:
        assert sum(1 for _ in f) == 1_000_001
    assert peak_mb < 80


@pytest.mark.parametrize("argv", [
    ["sim", "--rate", "1"],
    ["sim", "--rate", "1", "--capacity", "3"],
    ["sweep", "--rates", "1,2"],
], ids=["sim-lindley", "sim-event-loop", "sweep"])
def test_arrivals_above_the_bound_exit_2(tmp_path, capsys, monkeypatch, argv):
    from aoikit import queuesim

    def no_run(seed):
        raise AssertionError("a run started")

    # the bound is checked when the config is built, before any draw
    monkeypatch.setattr(queuesim, "_rngs", no_run)
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, *argv, "--arrivals", str(2**62),
                                "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == (f"error: {2**62} arrivals are more than the bound of "
                   f"{queuesim.MAX_ARRIVALS} per run\n")
    assert not list(tmp_path.iterdir())


def test_million_arrival_event_loop_child_stays_small(tmp_path):
    # the event loop keeps two float columns and converts them a block
    # at a time; lists of every stamp peaked near 145 MB
    out = tmp_path / "k.csv"
    peak_mb = own_peak_rss_mb("-m", "aoikit.cli", "sim", "--arrival", "poisson",
                              "--rate", "1.5", "--mu", "1", "--capacity", "5",
                              "--arrivals", "1000000", "--out", str(out))
    meta = dict(line.split("=", 1) for line in (tmp_path / "k.csv.meta").read_text().splitlines())
    assert meta["arrivals"] == "1000000"
    assert int(meta["lost_overflow"]) > 0
    assert peak_mb < 110


@pytest.mark.parametrize("argv, time", [
    # 20 arrivals 1e9 s apart end past 2**63 ns
    (["sim", "--arrival", "deterministic", "--rate", "1e-9", "--arrivals", "20",
      "--out", "OUT"], "9999999999.999998"),
    (["measure", "sampler", "--emulated", "fixed_rtt=1e300", "--rate", "10",
      "--duration", "1", "--out", "OUT"], "1e+300"),
    (["measure", "sync", "--emulated", "fixed_rtt=1ms,offset=1e300", "--pings", "20"],
     "1e+300"),
], ids=["sim", "sampler", "sync"])
def test_stamps_past_the_trace_range_exit_2(tmp_path, capsys, argv, time):
    # a cast of such a stamp to int64 warned and wrapped to a negative
    # one, and a Python int of one overflowed
    out = str(tmp_path / "x.csv")
    code, stdout, err = run_cli(capsys, *(out if a == "OUT" else a for a in argv))
    assert code == 2
    assert stdout == ""
    assert err == (f"error: a time of {time} s is outside the int64 nanosecond "
                   f"range of a trace (2**63 ns, about 292 years)\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bias", ["nan", "inf", "-inf", "1e300", "1e10"])
def test_analyze_bias_past_the_trace_range_exits_2(tmp_path, capsys, bias):
    path = tmp_path / "g.csv"
    path.write_text(GOLDEN_TWO_PACKET)
    code, stdout, err = run_cli(capsys, "analyze", str(path), f"--bias={bias}")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: a time of ") and err.count("\n") == 1


def test_analyze_bias_past_the_largest_stamp_exits_3(tmp_path, capsys):
    # a bias within range that moves the last reception of a 200 s trace
    # past 2**63 - 1 ns, which wrapped to a negative stamp
    path = tmp_path / "t.csv"
    assert run_cli(capsys, "sim", "--rate", "0.5", "--arrivals", "100",
                   "--out", str(path))[0] == 0
    code, stdout, err = run_cli(capsys, "analyze", str(path), "--bias", "9.223372e9")
    assert code == 3
    assert stdout == ""
    assert err.startswith("error: bias shift would move a reception stamp to ")
    assert err.endswith(" ns, past the 2**63 - 1 ns a trace can carry\n")


@pytest.mark.parametrize("name", ["lazy", "acp"])
@pytest.mark.parametrize("seed, at", [(10, "0.15"), (37, "0.05")])
def test_policy_first_round_trip_below_the_clock_resolution_exits_2(
        tmp_path, capsys, name, seed, at):
    # the first ack's lognormal delay is too small to move the send time,
    # so its round trip is 0 and 1/rtt divided by zero
    code, stdout, err = run_cli(
        capsys, "policy", "--name", name,
        "--emulated", "lognormal_median=1ms,lognormal_sigma=20",
        "--duration", "2", "--seed", str(seed), "--out", str(tmp_path / "p"))
    assert code == 2
    assert stdout == ""
    assert err == (f"error: the smoothed round trip is 0 s at {at} s; "
                   f"closed-loop policies need a positive round trip\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("aborted", [False, True])
def test_live_sampler_counts_go_into_the_manifest(tmp_path, capsys, monkeypatch, aborted):
    from aoikit import udp
    from aoikit.trace import AgeTrace

    trace = AgeTrace.from_arrays([0, 1, 2], [0, 10**8, 2 * 10**8],
                                 [5 * 10**7, 15 * 10**7, None])

    def live_run(dest, schedule, size):
        return udp.SamplerResult(trace, sent=3, received=2, duplicates=4,
                                 unmatched=5, aborted=aborted)

    monkeypatch.setattr(udp, "run_sampler", live_run)
    out = str(tmp_path / "m.csv")
    code, stdout, _ = run_cli(capsys, "measure", "sampler", "--dest", "127.0.0.1:9",
                              "--rate", "10", "--duration", "1", "--out", out)
    assert code == (3 if aborted else 0)
    # stdout keeps its keys; the counts go to the manifest alone
    assert list(kv(stdout))[:3] == ["trace", "sent", "received"]
    assert not {"duplicates", "unmatched", "aborted"} & set(kv(stdout))
    config = json.loads(Path(out + ".manifest.json").read_text())["config"]
    assert config == {"dest": "127.0.0.1:9", "duplicates": "4", "unmatched": "5",
                      "aborted": str(int(aborted))}
