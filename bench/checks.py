"""Output checks. Each returns a list of failure messages; every
failure counts against the run's `failed`."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 0

# M/M/1 oracle: batch means over the sawtooth areas of the 1M-packet
# trace; the estimate must lie within Z standard errors of the closed
# form (two-sided false-alarm probability about 6e-7 per run)
MM1_BATCHES = 100
MM1_Z = 5.0
# the two average-age forms are equal in exact arithmetic; the CLI
# prints 9 significant digits
FORMS_RTOL = 1e-7
BOTTLENECK_CAPACITY_HZ = 130_000.0 / (8.0 * 1058)
RELAXED_LOAD = 0.6  # below this load the bottleneck model has no loss


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(work: Path, commands) -> dict[str, str]:
    return {f: sha256(work / f) if (work / f).exists() else "missing"
            for c in commands for f in c.outputs}


def golden(workload: str) -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)[workload]


def compare(what: str, expected: dict, got: dict) -> list[str]:
    return [f"{what}: {k} differs" for k in sorted(set(expected) | set(got))
            if expected.get(k) != got.get(k)]


def parse_kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _forms_agree(name: str, kv: dict) -> list[str]:
    r, g = float(kv["avg_age_recv_form_s"]), float(kv["avg_age_gen_form_s"])
    if abs(r - g) <= FORMS_RTOL * abs(r):
        return []
    return [f"{name}: reception form {r} != generation form {g}"]


def outputs(w: wl.Workload, stdout: dict[str, str], work: Path) -> list[str]:
    """Check one pass's outputs against the workload's oracles."""
    try:
        return _CHECKS[w.name](w, {k: parse_kv(v) for k, v in stdout.items()}, work)
    except (KeyError, ValueError, OSError) as exc:
        return [f"{w.name}: output unreadable: {exc!r}"]


def _trace_io(w, kv, work) -> list[str]:
    sim, an, lossy = kv["sim"], kv["analyze"], kv["analyze_lossy"]
    fails = []
    shared = sorted(set(sim) & set(an))
    if not shared:
        fails.append("sim and analyze print no shared key")
    fails += [f"sim and analyze disagree on {k}" for k in shared if sim[k] != an[k]]
    for name in ("sim", "analyze", "analyze_lossy"):
        fails += _forms_agree(name, kv[name])
    if float(lossy["loss_count"]) != w.planted_lost:
        fails.append(f"lossy loss_count {lossy['loss_count']} != planted {w.planted_lost}")
    if float(lossy["obsolete_count"]) != w.planted_obsolete:
        fails.append(f"lossy obsolete_count {lossy['obsolete_count']} "
                     f"!= planted {w.planted_obsolete}")
    if not math.isfinite(float(lossy["penalty_avg"])):
        fails.append("lossy penalty_avg is not finite")
    estimate, analytic = float(sim["avg_age_recv_form_s"]), float(sim["analytic_avg_age_s"])
    se = _mm1_standard_error(work / "mm1.csv")
    if se is None:
        fails.append("M/M/1 trace is not in reception order")
    elif not abs(estimate - analytic) <= MM1_Z * se:
        fails.append(f"M/M/1 average age {estimate} is more than {MM1_Z} standard "
                     f"errors ({se:.3g}) from the closed form {analytic}")
    return fails


def _mm1_standard_error(path: Path) -> float | None:
    gen, recv = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2),
                           dtype=np.int64).T
    if np.any(np.diff(recv) < 0):
        return None  # an FCFS queue delivers in generation order
    gap = np.diff(recv) / 1e9
    area = gap * (recv[:-1] - gen[:-1]) / 1e9 + gap * gap / 2.0
    k = len(gap) // MM1_BATCHES * MM1_BATCHES
    means = (area[:k].reshape(MM1_BATCHES, -1).sum(axis=1)
             / gap[:k].reshape(MM1_BATCHES, -1).sum(axis=1))
    return float(np.std(means, ddof=1) / math.sqrt(MM1_BATCHES))


def _event_sweep(w, kv, work) -> list[str]:
    """Below the loss onset the bottleneck is a D/D/1 queue without
    waiting, so every discipline's average age is exactly one service
    time plus half the sampling period."""
    fails = []
    service = 1.0 / BOTTLENECK_CAPACITY_HZ
    for name in ("bottleneck", "lcfs1", "retransmit"):
        lines = (work / f"{name}.csv").read_text(encoding="utf-8").splitlines()[1:]
        if len(lines) != 12:
            fails.append(f"{name}: {len(lines)} sweep rows, expected 12")
        for line in lines:
            rate, age, _, loss, _ = (float(x) for x in line.split(","))
            if rate >= RELAXED_LOAD * BOTTLENECK_CAPACITY_HZ:
                continue
            expected = service + 0.5 / rate
            if loss != 0 or abs(age - expected) > 1e-6:
                fails.append(f"{name}: rate {rate:g} age {age} loss {loss:g}, "
                             f"D/D/1 gives {expected:.10g} and no loss")
    return fails


def _closed_loop(w, kv, work) -> list[str]:
    fails = []
    for name in ("policy_acp", "policy_lazy", "policy_zero_wait"):
        p = kv[name]
        if not 0 < int(p["acked"]) <= int(p["sent"]):
            fails.append(f"{name}: acked {p['acked']} of sent {p['sent']}")
        fails += _forms_agree(name, p)
    if int(kv["policy_qlearn"]["iterations"]) != wl.QLEARN_ITERS:
        fails.append("policy_qlearn: wrong iteration count")
    s = kv["sampler_overload"]
    if int(s["sent"]) != wl.SAMPLER_RATE_HZ * wl.SAMPLER_DURATION_S:
        fails.append(f"sampler_overload: sent {s['sent']}")
    if not 0 < int(s["received"]) <= int(s["sent"]):
        fails.append(f"sampler_overload: received {s['received']} of {s['sent']}")
    fails += _forms_agree("sampler_overload", s)
    return fails


def _polling(w, kv, work) -> list[str]:
    """Every frame polls one source; round-robin's pick sequence is
    fixed."""
    fails = []
    for c in w.commands:
        with open(work / c.outputs[0], encoding="utf-8") as f:
            out = json.load(f)
        frames = out["frames"]
        for r in out["results"]:
            n, polls = r["n_sources"], r["polls"]
            tag = f"polling {r['policy']}/{n}"
            if sum(polls) != frames or any(s > p for s, p in zip(r["successes"], polls)):
                fails.append(f"{tag}: poll or success counts inconsistent")
            if r["policy"] == "round-robin" and \
                    polls != [len(range(i, frames, n)) for i in range(n)]:
                fails.append(f"{tag}: round-robin polls unbalanced")
    return fails


_CHECKS = {
    "trace-io": _trace_io,
    "event-sweep": _event_sweep,
    "closed-loop": _closed_loop,
    "polling": _polling,
}
