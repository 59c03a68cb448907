#!/usr/bin/env python3
"""Wall-clock benchmark for pmnetd and the simulator: one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (with the library
sources in src/) into $CARGO_TARGET_DIR or .bench_build, runs one
workload in its own process, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics (README.md lists both, with their clocks and formulas).
Scratch files live under .bench_work/ and are removed afterwards.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gw_durable_mixed", "gw_volatile_read",
             "sim_cached_replicated", "sim_sharded_lossy")
RUN_LIMIT_S = 170

END_TO_END = {
    "ops_per_s": "1/s",
    "cpu_us_per_op": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "update_p50_us": "us",
    "read_p50_us": "us",
}

PER_LAYER = {
    "gateway.daemon_cpu_us_per_op": "us",
    "gateway.daemon_busy_ratio": "ratio",
    "gateway.client_cpu_us_per_op": "us",
    "gateway.loop_wakeups_per_op": "count",
    "gateway.datagrams_per_op": "count",
    "gateway.wire_bytes_per_op": "B",
    "gateway.send_ns": "ns",
    "gateway.drain_ns_per_datagram": "ns",
    "gateway.journal_append_ns": "ns",
    "gateway.journal_bytes_per_update": "B",
    "gateway.file_writes_per_update": "count",
    "gateway.file_bytes_per_user_byte": "ratio",
    "gateway.restart_s": "s",
    "stack.client_resends_per_op": "count",
    "stack.server_duplicates_per_op": "count",
    "stack.early_ack_ratio": "ratio",
    "stack.update_p99_us": "us",
    "stack.read_p99_us": "us",
    "pmnet.reforwards_per_update": "count",
    "pmnet.log_high_water": "count",
    "pmnet.updates_bypassed_per_update": "ratio",
    "pmnet.cache_hit_ratio": "ratio",
    "pm.heap_construct_s": "s",
    "pm.heap_rss_mib": "MiB",
    "pm.backed_fence_ns": "ns",
    "kv.exec_ns": "ns",
    "net.codec_ns": "ns",
    "net.packets_per_op": "count",
    "net.pool_reuse_ratio": "ratio",
    "sim.events_per_op": "count",
    "sim.wall_ns_per_event": "ns",
    "sim.engine_windows_per_op": "count",
    "testbed.construct_s": "s",
    "testbed.warmup_s": "s",
    "obs.device_persist_us": "us",
    "obs.server_us": "us",
    "obs.tracing_overhead_ratio": "ratio",
}

DEVICE_BYPASS = ("bypassCollision", "bypassQueueFull", "bypassStoreRace",
                 "bypassTooLarge", "bypassBadHash")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, deadline):
    """Configure (once) and build the perfbench binary; return its path."""
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1, deadline - time.time())).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=max(1, deadline - time.time())).returncode:
        return None
    return os.path.join(build_dir, "perfbench")


def flatten(tree, prefix=""):
    out = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            out.update(flatten(value, f"{prefix}.{key}" if prefix else key))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        out[prefix] = tree
    return out


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw):
    """Per-layer figures: the binary's own plus counter-delta ratios."""
    layer = raw["layer"]
    delta, after = {}, {}
    for tree, pair in raw["counters"].items():
        a = flatten(pair["after"], tree)
        b = flatten(pair["before"], tree)
        after.update(a)
        delta.update({p: v - b.get(p, 0) for p, v in a.items()})

    def total(name, src=delta):
        return sum(v for p, v in src.items() if p.endswith("." + name))

    ops = layer.get("ops", 0)
    updates_done = total("updatesCompleted")
    pool = total("packetPool.allocated") + total("packetPool.reused")
    gw_events = total("gateway.loop.eventsFired") + layer.get(
        "client_events", 0)
    hits, misses = total("cache.hits"), total("cache.misses")
    derived = {
        "gateway.loop_wakeups_per_op": ratio(total("gateway.loop.wakeups"),
                                             ops),
        "gateway.datagrams_per_op": ratio(
            total("gateway.transport.datagramsSent") +
            total("gateway.transport.datagramsReceived"), ops),
        "gateway.wire_bytes_per_op": ratio(
            total("gateway.transport.bytesSent") +
            total("gateway.transport.bytesReceived"), ops),
        "stack.client_resends_per_op": ratio(total("packetsResent"), ops),
        "stack.server_duplicates_per_op": ratio(total("duplicatesDropped"),
                                                ops),
        "stack.early_ack_ratio": ratio(total("completedByPmnetAck"),
                                       updates_done),
        "pmnet.reforwards_per_update": ratio(total("reforwarded"),
                                             updates_done),
        "pmnet.log_high_water": max(
            [v for p, v in after.items() if p.endswith(".log.highWater")],
            default=0),
        "pmnet.updates_bypassed_per_update": ratio(
            sum(total(n) for n in DEVICE_BYPASS), total("updatesSeen")),
        "pmnet.cache_hit_ratio": ratio(hits, hits + misses),
        "net.packets_per_op": ratio(pool, ops),
        "net.pool_reuse_ratio": ratio(total("packetPool.reused"), pool),
        "obs.tracing_overhead_ratio": ratio(
            layer.get("traced_cpu_us_per_op", 0),
            layer.get("untraced_cpu_us_per_op", 0)),
    }
    if "sim.events_per_op" not in layer:  # gateway: embedded simulators
        derived["sim.events_per_op"] = ratio(gw_events, ops)
        derived["sim.wall_ns_per_event"] = ratio(layer.get("wall_ns", 0),
                                                 gw_events)
    metrics = {}
    for name, unit in PER_LAYER.items():
        value = layer.get(name, derived.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-expectation", action="store_true",
                        help="self-test: plant one wrong expectation")
    args = parser.parse_args()

    root = os.getcwd()
    deadline = time.time() + 880
    binary = build(root, deadline)
    if not binary:
        log("perfbench: build failed")
        return 1

    work = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.wrong_expectation:
        cmd.append("--wrong-expectation")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_LIMIT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench: workload exited with %d" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    for check in raw["checks"]:
        log("check %-20s %s  %s" % (check["name"],
                                    "ok  " if check["ok"] else "FAIL",
                                    check["detail"]))

    if args.trace:
        metrics = layer_metrics(raw)
    else:
        metrics = {name: {"value": raw["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
