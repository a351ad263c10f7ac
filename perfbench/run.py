#!/usr/bin/env python3
"""Repository benchmark for the RDP simulator (see perfbench/BENCHMARK.md).

Builds perfbench/ (the simulator libraries from src/ plus the
rdp_perfbench program) into .bench_build/perfbench, then measures one workload:

    python3 perfbench/run.py --workload campus_causal --seed 1 --seconds 20 --trace 0

Each timed repetition is a fresh rdp_perfbench process, so every sample pays
the cold start a user's experiment pays.  A run is: one reference run of the
harness's own experiment runner (the cross-check), SETUP_SAMPLES setup-only
processes, then repetitions until --seconds have passed (at least
MIN_REPS), each followed by setup-only processes for SETUP_STEP_S (at least
one).  With --trace 1 every repetition is an untraced process followed by a
traced one, and the run reports the per-layer metrics instead of the
end-to-end ones.

Standard output is a table of every metric with its unit and sample count,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics.  The full record, with provenance, is appended to
.bench_build/perfbench/records.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "rdp_perfbench")
RECORDS = os.path.join(BUILD_DIR, "records.jsonl")

WORKLOADS = ("campus_causal", "metro_sharded", "lossy_arq")
BUILD_TYPE = "RelWithDebInfo"
MIN_REPS = 3
SETUP_SAMPLES = 10
SETUP_STEP_S = 0.5
PROCESS_TIMEOUT_S = 150

# Keys of a repetition's simulated outputs that the harness runner reports
# too; the first repetition must match the reference run on every one.
SHARED_SIM_KEYS = (
    "issued", "completed", "lost", "results_delivered", "app_duplicates",
    "result_forwards", "retransmissions", "handoffs", "proxies_created",
    "migrations", "kernel_events", "wired_messages", "wired_bytes",
    "causal_delayed", "invariant_violations", "latency_p50_ms",
    "latency_p99_ms", "counters_digest",
)


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds rdp_perfbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "rdp_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_perfbench(*args):
    """Runs one rdp_perfbench process; returns its JSON lines by kind."""
    proc = subprocess.run([BINARY, *args], capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"rdp_perfbench {' '.join(args)} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            lines.setdefault(record["kind"], []).append(record)
    return lines


def source_digest():
    """SHA-256 over src/ and perfbench/: identifies the code measured even in
    a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def domain(rep, name, field="self_s"):
    row = rep["profile"]["domains"].get(name)
    return row[field] if row else 0


def end_to_end(reps, setups, rss):
    """The nine end-to-end metrics, from untraced repetitions only."""
    sim = reps[0]["sim"]
    completed = sim["completed"]
    rates = [r["sim"]["completed"] /
             (r["phases"]["run_s"] + r["phases"]["drain_s"]) for r in reps]
    n = len(reps)
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "wall_s": (median(r["phases"]["wall_s"] for r in reps), "s", n),
        "requests_per_s": (median(rates), "1/s", n),
        "peak_rss_mb": (median(rss), "MB", len(rss)),
        "delivery_ratio": (completed / sim["issued"], "ratio", sim["issued"]),
        "latency_p50_ms": (sim["latency_p50_ms"], "sim_ms",
                           sim["latency_samples"]),
        "latency_p999_ms": (sim["latency_p999_ms"], "sim_ms",
                            sim["latency_samples"]),
        "radio_bytes_per_req": (sim["radio_bytes"] / completed, "B", completed),
        "wired_bytes_per_req": (sim["wired_bytes"] / completed, "B", completed),
    }


def per_layer(untraced, traced):
    """Per-layer metrics: harness phases and public counters from the
    untraced repetitions, profiler domains and stages from the traced ones."""
    sim = untraced[0]["sim"]
    kernel = untraced[0]["kernel"]
    n_u, n_t = len(untraced), len(traced)
    m = {}

    def phase(name):
        return median(r["phases"][name] for r in untraced)

    for name in ("build_s", "drivers_s", "run_s", "drain_s", "collect_s",
                 "teardown_s"):
        m[f"harness.{name}"] = (phase(name), "s", n_u)

    def traced_median(fn):
        return median(fn(r) for r in traced)

    def self_s(name):
        return (traced_median(lambda r: domain(r, name)), "s", n_t)

    m["sim.events"] = (sim["kernel_events"], "count", 1)
    m["sim.events_per_s"] = (median(
        r["sim"]["kernel_events"] / (r["phases"]["run_s"] + r["phases"]["drain_s"])
        for r in untraced), "1/s", n_u)
    m["sim.windows"] = (kernel["windows"], "count", 1)
    m["sim.observer_barriers"] = (kernel["observer_barriers"], "count", 1)
    m["sim.barrier_wait_s"] = self_s("barrier_wait")
    m["sim.outbox_drain_s"] = self_s("outbox_drain")

    def busy_frac(r):
        p = r["profile"]
        total = p["shard_busy_s"] + p["shard_stall_s"]
        return p["shard_busy_s"] / total if total > 0 else 0

    m["sim.shard_busy_frac"] = (traced_median(busy_frac), "ratio", n_t)
    m["sim.kernel.self_s"] = self_s("kernel")
    m["sim.timer_slab.self_s"] = self_s("timer_slab")

    m["net.wireless.frames"] = (sim["radio_frames"], "count", 1)
    m["net.wireless.dropped"] = (sim["radio_dropped"], "count", 1)
    m["net.wireless.bytes"] = (sim["radio_bytes"], "B", 1)
    m["net.wireless.self_s"] = self_s("net.wireless")
    m["net.wired.messages"] = (sim["wired_messages"], "count", 1)
    m["net.wired.bytes"] = (sim["wired_bytes"], "B", 1)
    m["net.wired.self_s"] = self_s("net.wired")

    m["causal.delayed"] = (sim["causal_delayed"], "count", 1)
    m["causal.self_s"] = self_s("causal")
    m["causal.allocs"] = (traced_median(lambda r: domain(r, "causal", "allocs")),
                          "count", n_t)

    m["arq.frames_sent"] = (sim["arq_frames_sent"], "count", 1)
    m["arq.retransmits"] = (sim["arq_retransmits"], "count", 1)
    m["arq.duplicates_dropped"] = (sim["arq_duplicates_dropped"], "count", 1)
    m["arq.self_s"] = self_s("arq")

    m["core.proxies_created"] = (sim["proxies_created"], "count", 1)
    m["core.handoffs"] = (sim["handoffs"], "count", 1)
    m["core.result_forwards"] = (sim["result_forwards"], "count", 1)
    m["core.retransmissions"] = (sim["retransmissions"], "count", 1)
    m["core.result_cache_retries"] = (sim["result_cache_retries"], "count", 1)
    m["core.registration_retries"] = (sim["registration_retries"], "count", 1)
    m["core.reissues"] = (sim["reissues"], "count", 1)
    m["core.duplicate_results"] = (sim["app_duplicates"], "count", 1)

    m["obs.ledger.self_s"] = self_s("ledger")
    m["obs.ledger.allocs"] = (traced_median(lambda r: domain(r, "ledger", "allocs")),
                              "count", n_t)
    m["obs.hook_fanout.self_s"] = self_s("hook_fanout")
    m["obs.hooks.self_s"] = (traced_median(lambda r: sum(
        row["self_s"] for name, row in r["profile"]["domains"].items()
        if name.startswith("hook:"))), "s", n_t)
    m["allocs_per_event"] = (traced_median(
        lambda r: r["profile"]["total_allocs"] / r["sim"]["kernel_events"]),
        "allocs/event", n_t)

    stages = traced[0]["stages"]
    for stage in ("uplink_ms", "service_ms", "downlink_ms", "ack_ms",
                  "handoff_ms"):
        for q in ("p50", "p999"):
            m[f"stage.{stage}.{q}"] = (stages[stage][q], "sim_ms",
                                       stages[stage]["n"])
    m["stage.reissued"] = (traced[0]["stage_reissued"], "count", 1)
    m["trace_overhead"] = (
        median(r["phases"]["wall_s"] for r in traced) /
        median(r["phases"]["wall_s"] for r in untraced), "ratio", n_t)
    return m


def top_domain(traced):
    domains = traced[0]["profile"]["domains"]
    return max(domains, key=lambda name: domains[name]["self_s"])


def measure(args):
    build()
    seed = str(args.seed)
    base = ["--workload", args.workload, "--seed", seed]

    reference = run_perfbench(*base, "--reference")
    config = reference["config"][0]
    def setup_samples(count, budget_s=0.0):
        """At least count setup-only processes, more while budget_s lasts."""
        samples = []
        until = time.monotonic() + budget_s
        while len(samples) < count or time.monotonic() < until:
            samples += [s["setup_s"]
                        for s in run_perfbench(*base, "--setup-only")["setup"]]
        return samples

    setups = setup_samples(SETUP_SAMPLES)
    untraced, traced, rss = [], [], []
    start = time.monotonic()
    step_s = 0.0
    while len(untraced) < MIN_REPS or \
            time.monotonic() - start + step_s <= args.seconds:
        step_start = time.monotonic()
        out = run_perfbench(*base, "--trace", "0")
        untraced += out["rep"]
        rss.append(out["process"][0]["peak_rss_mb"])
        if args.trace:
            traced += run_perfbench(*base, "--trace", "1")["rep"]
        # Setup samples spread over the whole run, not taken at one moment:
        # the host's speed drifts within a run.
        setups += setup_samples(1, SETUP_STEP_S)
        step_s = time.monotonic() - step_start
    setups += [r["phases"]["build_s"] + r["phases"]["drivers_s"]
               for r in untraced]

    # Correctness gate: each repetition passes its own checks, every
    # repetition (traced or not) reproduces the first bit for bit, and the
    # first matches the harness runner's result for the same params.
    reps = untraced + traced
    expected = reps[0]["digest"]
    ref_sim = reference["reference"][0]["sim"]
    crosscheck = [k for k in SHARED_SIM_KEYS
                  if reps[0]["sim"][k] != ref_sim[k]]
    failures = []
    for rep in reps:
        why = [rep["gate"]] if rep["gate"] else []
        if rep["digest"] != expected:
            why.append("nondeterministic")
        if crosscheck:
            why.append("crosscheck:" + "/".join(crosscheck))
        rep["failure"] = ",".join(why)
        if why:
            failures.append(rep["failure"])
    attempted = sum(r["sim"]["issued"] for r in reps)
    failed = sum(r["sim"]["issued"] if r["failure"] else
                 r["sim"]["issued"] - r["sim"]["completed"] for r in reps)

    # Timings come from repetitions that passed the gate (all of them, in a
    # correct run); a run with none left still reports, marked incorrect.
    good_untraced = [r for r in untraced if not r["failure"]] or untraced
    good_traced = [r for r in traced if not r["failure"]] or traced
    if args.trace:
        metrics = per_layer(good_untraced, good_traced)
    else:
        metrics = end_to_end(good_untraced, setups, rss)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "host_cores": config["host_cores"],
        "build_type": config["build_type"],
        "rdp_profile": config["rdp_profile"],
        "shards": config["shards"],
        "threads": config["threads"],
        "untraced_reps": len(untraced),
        "traced_reps": len(traced),
        "setup_samples": len(setups),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "raw": {
            "setup_s": setups,
            "peak_rss_mb": rss,
            "untraced_wall_s": [r["phases"]["wall_s"] for r in untraced],
            "traced_wall_s": [r["phases"]["wall_s"] for r in traced],
        },
    }
    if traced:
        record["top_self_time_domain"] = top_domain(good_traced)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(RECORDS, "a") as f:
        f.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed={args.seed} host_cores={config['host_cores']} "
          f"build={config['build_type']} rdp_profile={config['rdp_profile']} "
          f"shards={config['shards']} threads={config['threads']} "
          f"reps={len(untraced)}+{len(traced)} traced "
          f"commit={record['commit'][:12]} src={record['source_sha256'][:12]}")
    if traced:
        print(f"# top self-time domain: {record['top_self_time_domain']}")
    for why in sorted(set(failures)):
        print(f"# FAILED: {why}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<28} {value:>16.6g} {unit:<13} n={samples}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        measure(args)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as err:
        log(f"perfbench: {err}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
