#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload serve|join-large|ingest \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds fsqld and perfbench/bench.exe from source (dune, release profile),
runs the workload, echoes the measuring program's lines (every metric by
name, unit and sample count) and prints, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. The metrics are the
end_to_end ones of BENCHMARK.json, or its per_layer ones with --trace 1.
Exits non-zero when an answer is wrong, an op fails, or the build fails.

--self-test runs every workload for 2 s (join-large on 512-tuple
relations), traced and untraced, checks that each prints every named
metric, and checks that a deliberately corrupted expected answer shows up
in failed_ratio and a non-zero exit.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
BENCH_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
FSQLD_EXE = os.path.join(ROOT, "_build", "default", "bin", "fsqld.exe")
WORKLOADS = ["serve", "join-large", "ingest"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Per-layer metrics each workload's traced run must print, beyond the
# per_layer list of BENCHMARK.json that every traced run prints.
LAYER_LINES = {
    "serve": [
        "server.wire.gap_ms", "server.wire.frames_per_query",
        "server.daemon.queue_wait_ms", "server.daemon.queue_wait_ms.p99",
        "server.daemon.plan_ms", "server.daemon.exec_ms",
        "server.daemon.exec_ms.p99", "server.daemon.stream_ms",
        "storage.sort_ms", "relational.sweep_ms",
        "fuzzysql.bind_ms", "fuzzysql.check_ms",
        "unnest.exec_ms.N", "unnest.exec_ms.J", "unnest.exec_ms.JX",
        "unnest.exec_ms.JA", "unnest.exec_ms.JALL", "unnest.exec_ms.chain",
    ],
    "join-large": [
        "storage.sort_s", "relational.sweep_s", "storage.page_reads",
        "storage.page_writes", "relational.comparisons", "fuzzy.ops",
        "gc.minor_mwords", "gc.major_collections",
        "fuzzysql.bind_ms", "fuzzysql.check_ms",
    ],
    "ingest": [
        "relational.insert_ms", "storage.commit_ms",
        "storage.wal.fsyncs_per_commit", "storage.wal.bytes_per_user_byte",
        "server.replication.ack_wait_ms",
        "server.replication.ack_wait_ms.p99",
        "server.replication.lag_bytes_max",
    ],
}
# Printed by every run (end to end) and every traced run.
E2E_LINES = ["ops_per_s", "p50_ms", "p90_ms", "p99_ms", "failed_ratio",
             "setup_s", "peak_rss_mb"]
TRACE_LINES = ["trace.overhead", "layers.share"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full checkout" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "./perfbench/bench.exe", "./bin/fsqld.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S, start_new_session=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed", 3)


def run_bench(args):
    """Run bench.exe in its own process group; return (code, stdout lines)."""
    proc = subprocess.Popen(
        [BENCH_EXE, "--fsqld", FSQLD_EXE, "--out", OUT] + args,
        cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, timed_out = b"", True
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        # bench.exe stops fsqld and removes its temp directories itself;
        # this also covers a crash or a timeout.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)
    code = 124 if timed_out else proc.returncode
    return code, out.decode(errors="replace").splitlines()


def parse(lines):
    metrics, verdict = {}, None
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] in ("metric", "layer"):
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts and parts[0] == "verdict":
            verdict = dict(p.split("=") for p in parts[1:])
    return metrics, verdict


def measure(workload, seed, seconds, trace, extra=()):
    """Run one workload; return (exit code, result dict or None, metrics)."""
    code, lines = run_bench(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)] + list(extra))
    for line in lines:
        print(line)
    metrics, verdict = parse(lines)
    if code != 0 or verdict is None:
        return 1, None, metrics
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = {}
    for m in wanted:
        if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]:
            print("perfbench: %s did not report %s in %s"
                  % (workload, m["name"], m["unit"]), file=sys.stderr)
            return 1, None, metrics
        value = metrics[m["name"]][0]
        result[m["name"]] = {"value": value if math.isfinite(value) else None,
                             "unit": m["unit"]}
    attempted, failed = int(verdict["attempted"]), int(verdict["failed"])
    correct = (failed == 0 and attempted >= 1
               and all(v["value"] is not None for v in result.values()))
    return (0 if correct else 1), {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": result}, metrics


def self_test():
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, metrics = measure(workload, 1, 2, trace, ["--tiny"])
            names = E2E_LINES + (LAYER_LINES[workload] + TRACE_LINES if trace else [])
            missing = [n for n in names if n not in metrics]
            if code != 0 or result is None or not result["correct"] or missing:
                problems.append("%s trace=%d: exit %d, missing %s"
                                % (workload, trace, code, missing))
        code, result, metrics = measure(workload, 1, 2, 0, ["--tiny", "--corrupt"])
        ratio = metrics.get("failed_ratio", (0.0, ""))[0]
        if code == 0 or ratio <= 0.0:
            problems.append("%s: a corrupted expected answer went unnoticed "
                            "(exit %d, failed_ratio %g)" % (workload, code, ratio))
    for p in problems:
        print("self-test: FAIL " + p)
    print("self-test: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main():
    # SIGTERM unwinds like Ctrl-C, so run_bench still kills the run's
    # process group (bench.exe and the fsqld it spawned) on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    started = time.time()
    build()
    print("note build checked in %.1f s" % (time.time() - started))
    if a.self_test:
        return self_test()
    code, result, _ = measure(a.workload, a.seed, a.seconds, a.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
