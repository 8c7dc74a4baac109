#!/usr/bin/env python3
"""The repository benchmark: whole EPRONS days, end to end and per layer.

    python3 daybench/run.py --workload replay-k16 --seed 2018 --seconds 55 --trace 0

Builds `daybench/` in release mode, then starts one fresh
`eprons-daybench` process per sample so process-global caches start cold
in every day. `--trace 0` times whole days back to back (closed loop,
one day at a time) for about `--seconds` and reports the end-to-end
metrics;
`--trace 1` runs one day and then the traced per-layer sweep over that
day's epochs and reports the per-layer metrics. The last line of stdout
is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
"""

import argparse
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASE_SEED = 2018
# The workloads BENCHMARK.json names; `rebuild-k16` also runs on request
# (see NOTES.md for why it is left out of the benchmark's set).
WORKLOADS = ("replay-k16", "paper-day-k4")
EXTRA_WORKLOADS = ("rebuild-k16",)
# Set-up takes well under a millisecond and its speed shifts within
# seconds, so an untraced run times it in a few processes before each
# day, repeated in each, and reports the median of all repetitions.
SETUP_PROCS = 3
SETUP_REPS = 25
# Inputs per untraced run: each day of a run simulates one of this many
# inputs generated from --seed, so a run's figures average over them.
# Every untraced run also repeats input 0 once, so the check that a
# day's outcome is the same in every process runs in every run.
ENSEMBLE = {"replay-k16": 2, "paper-day-k4": 8, "rebuild-k16": 2}
EPOCHS = {"replay-k16": 6, "paper-day-k4": 12, "rebuild-k16": 6}
# Per-process cap on the thread budget: the day's shard and pod fan-outs
# run on this many threads (or fewer, on a smaller host).
MAX_THREADS = 2

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

# (name, unit) of every metric, in the order BENCHMARK.json lists them.
END_TO_END = (
    ("day_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("energy_mj", "MJ"),
    ("sla_met_frac", "1"),
    ("switch_toggles", "count"),
)
PER_LAYER = (
    ("workload.load_s", "s"),
    ("topo.fattree_s", "s"),
    ("scenario.context_s", "s"),
    ("scenario.context.calls", "count"),
    ("scenario.context.hit_ratio", "1"),
    ("optimizer.bounds_s", "s"),
    ("optimizer.bounds.calls", "count"),
    ("net.plan_s", "s"),
    ("net.plan.calls", "count"),
    ("net.plan.fail", "count"),
    ("net.plan.fail_s", "s"),
    ("net.plan.ok_ratio", "1"),
    ("server.eval_s", "s"),
    ("server.eval.calls", "count"),
    ("server.isn_s", "s"),
    ("sweep.wall_s", "s"),
    ("sweep.epochs", "count"),
    ("sweep.covered_frac", "1"),
    ("scenario.share", "1"),
    ("optimizer.share", "1"),
    ("net.share", "1"),
    ("server.share", "1"),
)


def sub_seed(seed, i):
    """The seed of a run's i-th input."""
    return (seed * 1009 + i) % 2**64


def rank(n, p):
    """1-based nearest rank of percentile `p` in `n` samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail_percentile(n):
    """The highest reported percentile with at least ten of `n` samples
    beyond it, or None when even the median has fewer than ten."""
    fits = [p for p in PERCENTILES if n - rank(n, p) >= 10]
    return max(fits, default=None)


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    return sorted(values)[rank(len(values), p) - 1]


def timing_summary(values):
    """`median … (n=…)`, plus the tail percentile the sample supports."""
    text = f"median {statistics.median(values):.6g} s (n={len(values)})"
    p = tail_percentile(len(values))
    if p is not None and p > 50.0:
        text += f", p{p:g} {percentile(values, p):.6g} s"
    return text


def metric_block(pairs, values):
    """The `metrics` object: every named metric with its unit."""
    return {name: {"value": values[name], "unit": unit} for name, unit in pairs}


def per_layer_metrics(sw):
    """Per-layer metric values from one sweep sample."""
    ctx, bounds, ok, fail, ev = (sw[k] for k in ("context", "bounds", "plan_ok", "plan_fail", "eval"))
    wall = sw["wall_s"]
    plan_calls = len(ok) + len(fail)
    layer_s = {
        "scenario": sum(ctx),
        "optimizer": sum(bounds),
        "net": sum(ok) + sum(fail),
        "server": sum(ev),
    }
    m = {
        "workload.load_s": sw["load_s"],
        "topo.fattree_s": sw["fattree_s"],
        "scenario.context_s": layer_s["scenario"],
        "scenario.context.calls": len(ctx),
        "scenario.context.hit_ratio": sw["context_hits"] / len(ctx),
        "optimizer.bounds_s": layer_s["optimizer"],
        "optimizer.bounds.calls": len(bounds),
        "net.plan_s": layer_s["net"],
        "net.plan.calls": plan_calls,
        "net.plan.fail": len(fail),
        "net.plan.fail_s": sum(fail),
        "net.plan.ok_ratio": len(ok) / plan_calls,
        "server.eval_s": layer_s["server"],
        "server.eval.calls": len(ev),
        "server.isn_s": layer_s["server"] / max(1, len(ev) * sw["servers"]),
        "sweep.wall_s": wall,
        "sweep.epochs": sw["epochs"],
        "sweep.covered_frac": sum(layer_s.values()) / wall,
    }
    for layer, secs in layer_s.items():
        m[f"{layer}.share"] = secs / wall
    return m


def sweep_counts(sw):
    """The sweep's deterministic counts (compared across runs)."""
    return {
        "epochs": sw["epochs"],
        "context_calls": len(sw["context"]),
        "context_hits": sw["context_hits"],
        "bounds_calls": len(sw["bounds"]),
        "plan_ok": len(sw["plan_ok"]),
        "plan_fail": len(sw["plan_fail"]),
        "eval_calls": len(sw["eval"]),
    }


def day_outcome(d):
    """The deterministic part of one day sample."""
    return {
        "epochs": d["epochs"],
        "energy_bits": d["energy_bits"],
        "sla_misses": d["sla_misses"],
        "switch_toggles": d["switch_toggles"],
    }


def git_revision():
    """The checkout's commit, read from `.git` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


CHILD = None


def stop_child(signum, _frame):
    """Stops the running sample process, then exits."""
    if CHILD is not None and CHILD.poll() is None:
        CHILD.kill()
        CHILD.wait()
    sys.exit(128 + signum)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    global CHILD
    try:
        CHILD = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        rc = CHILD.wait(timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        if CHILD is not None:
            CHILD.kill()
            CHILD.wait()
        print(f"error: build failed: {e}", file=sys.stderr)
        return None
    binary = target / "release" / "eprons-daybench"
    if rc != 0 or not binary.exists():
        print(f"error: build failed (exit {rc})", file=sys.stderr)
        return None
    return binary


def sample(binary, mode, workload, seed, threads, stdin_text=""):
    """Runs one sample process; returns (JSON result, epoch lines) or
    raises RuntimeError with the process's error."""
    global CHILD
    cmd = [str(binary), mode, "--workload", workload, "--seed", str(seed),
           "--threads", str(threads)]
    if mode == "setup":
        cmd += ["--reps", str(SETUP_REPS)]
    CHILD = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        out, err = CHILD.communicate(stdin_text, timeout=170)
    except subprocess.TimeoutExpired:
        CHILD.kill()
        CHILD.wait()
        raise RuntimeError(f"{mode} sample ran over 170 s")
    if CHILD.returncode != 0:
        raise RuntimeError(f"{mode} sample exited {CHILD.returncode}: {err.strip()}")
    lines = out.strip().splitlines()
    epochs = [l for l in lines if l.startswith("epoch ")]
    return json.loads(lines[-1]), epochs


def check_expected(binary, workload, seed, kind, counts):
    """Compares deterministic counts with an earlier run of the same
    binary and seed (kept next to the build); returns a mismatch message
    or None."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    store = binary.parent / "daybench-expect"
    store.mkdir(exist_ok=True)
    path = store / f"{digest}-{workload}-{seed}-{kind}.json"
    if path.exists():
        want = json.loads(path.read_text())
        if want != counts:
            return f"{kind} differs from an earlier run with this seed: {counts} vs {want}"
        return None
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(path)
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS)
    ap.add_argument("--seed", type=int, default=BASE_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    binary = build()
    if binary is None:
        return 1
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    print(f"# run: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"threads={threads} nproc={os.cpu_count()} profile=release "
          f"git_rev={git_revision()} telemetry=off")

    errors = []
    days = []
    setup_s = []
    first = {}
    attempted = 0
    epoch_lines = []
    inputs = ENSEMBLE[args.workload] if args.trace == 0 else 1
    t0 = time.monotonic()
    # Closed loop: the next day starts when the previous one has ended.
    # An untraced run passes once over its inputs and repeats input 0,
    # then goes on repeating them while another day is expected to end
    # within --seconds.
    must = inputs + 1 if args.trace == 0 else 1
    while len(days) < must or (args.trace == 0 and
                               time.monotonic() - t0 + days[-1]["day_s"] <= args.seconds):
        k = len(days) % inputs
        try:
            for _ in range(SETUP_PROCS if args.trace == 0 else 0):
                setup_s += sample(binary, "setup", args.workload, sub_seed(args.seed, k),
                                  threads)[0]["setup_s"]
            d, lines = sample(binary, "day", args.workload, sub_seed(args.seed, k), threads)
        except (RuntimeError, ValueError) as e:
            errors.append(str(e))
            attempted += EPOCHS[args.workload]
            break
        attempted += d["epochs"]
        epoch_lines = epoch_lines or lines
        if d["telemetry"]:
            errors.append("telemetry was on during a timed day")
        if d["threads"] != threads:
            errors.append(f"day ran on {d['threads']} threads, not {threads}")
        if day_outcome(d) != day_outcome(first.setdefault(k, d)):
            errors.append(f"input {k}: day outcome differs between processes: "
                          f"{day_outcome(d)} vs {day_outcome(first[k])}")
        days.append(d)
    if not errors:
        outcomes = [day_outcome(first[k]) for k in range(inputs)]
        err = check_expected(binary, args.workload, args.seed, f"day{inputs}", outcomes)
        if err:
            errors.append(err)

    metrics = {}
    if args.trace == 0 and not errors:
        day_s = [d["day_s"] for d in days]
        per_input = list(first.values())
        epochs = sum(d["epochs"] for d in per_input)
        values = {
            "day_s": statistics.median(day_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in days),
            "energy_mj": statistics.fmean(d["energy_j"] for d in per_input) / 1e6,
            "sla_met_frac": (epochs - sum(d["sla_misses"] for d in per_input)) / epochs,
            "switch_toggles": statistics.fmean(d["switch_toggles"] for d in per_input),
        }
        print(f"# {inputs} inputs, {len(days)} days; day_s: {timing_summary(day_s)}; "
              f"setup_s: {timing_summary(setup_s)}")
        print("# day_s samples: " + " ".join(f"{x:.4f}" for x in day_s))
        print(f"# {epochs} epochs over the inputs, SLA missed in "
              f"{sum(d['sla_misses'] for d in per_input)}")
        metrics = metric_block(END_TO_END, values)
    elif not errors:
        try:
            sw, _ = sample(binary, "sweep", args.workload, sub_seed(args.seed, 0), threads,
                           "\n".join(epoch_lines) + "\n")
        except (RuntimeError, ValueError) as e:
            errors.append(str(e))
        else:
            attempted += sw["epochs"]
            err = check_expected(binary, args.workload, args.seed, "sweep", sweep_counts(sw))
            if err:
                errors.append(err)
            values = per_layer_metrics(sw)
            print(f"# sweep: {sw['epochs']} epochs, {sw['servers']} servers")
            for key, layer in (("context", "scenario"), ("bounds", "optimizer"),
                               ("plan_ok", "net (routable)"), ("plan_fail", "net (unroutable)"),
                               ("eval", "server")):
                if sw[key]:
                    print(f"#   {layer:<18} {timing_summary(sw[key])} per call, "
                          f"total {sum(sw[key]):.4g} s")
            metrics = metric_block(PER_LAYER, values)

    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>16.6g} {m['unit']}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    correct = bool(metrics) and not errors
    if not correct:
        metrics = {}
    failed = 0 if correct else max(1, attempted)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
