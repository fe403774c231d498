#!/usr/bin/env python3
"""Wall-clock benchmark of the HATtrick reproduction.

Usage (from the root of a checkout):
    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds wallbench/ (the repository's libraries plus the harness) with CMake
into $CARGO_TARGET_DIR/wallbench (default .bench_build/wallbench), runs one
workload, checks its outputs, and prints a report. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. Workloads, metrics and the layer table are
described in wallbench/README.md.

Exit status: 0 when a result was printed, 1 when the build or the run
failed, 2 on a usage error.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("sim_smoke", "htap_shared_sf10", "htap_hybrid_sf100")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# The whole run, build excluded, must stay below the driver's 180 s limit.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, capture=False):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it. Returns (returncode, stdout) — returncode None on
    timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else
                            sys.stderr, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    return proc.returncode, out or ""


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run_group(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                          BUILD_BUDGET_S)
        if rc != 0:
            return None
    rc, _ = run_group(["cmake", "--build", build_dir, "-j",
                       str(min(4, os.cpu_count() or 1))], BUILD_BUDGET_S)
    if rc != 0:
        return None
    return os.path.join(build_dir, "wallbench_harness")


def load_spec():
    with open("BENCHMARK.json", "r", encoding="utf-8") as f:
        return json.load(f)


def sha16(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_smoke_snapshot(files, checks):
    """sim_smoke: the snapshot-seed pass must pass bench_compare against
    the checked-in baseline; the workload-seed pass yields the digest."""
    rc, out = run_group([sys.executable, "scripts/bench_compare.py",
                         "bench/BENCH_smoke.json", files["check_snapshot"]],
                        60, capture=True)
    checks.append({"name": "bench_smoke_baseline", "ok": rc == 0,
                   "detail": (out.strip().splitlines() or ["no output"])[-1]})
    print(f"modeled_digest {sha16(files['snapshot'])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    spec = load_spec()
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "wallbench")
    harness = build(build_dir)
    if harness is None:
        log("wallbench: build failed")
        return 1
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    started = time.monotonic()
    rc, out = run_group([harness, "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--out", out_dir],
                        RUN_BUDGET_S, capture=True)
    if rc != 0:
        log(f"wallbench: harness failed (exit {rc})")
        return 1
    lines = out.strip().splitlines()
    if not lines:
        log("wallbench: harness printed no result")
        return 1
    result = json.loads(lines[-1])
    checks = result["checks"]
    if args.workload == "sim_smoke":
        check_smoke_snapshot(result["files"], checks)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    produced = {m["name"]: m for m in result["metrics"]}
    missing = [w["name"] for w in wanted if w["name"] not in produced]
    extra = sorted(set(produced) - {w["name"] for w in wanted})
    units = [w["name"] for w in wanted
             if w["name"] in produced and produced[w["name"]]["unit"] !=
             w["unit"]]
    if missing or extra or units:
        log(f"wallbench: metrics differ from BENCHMARK.json: missing "
            f"{missing}, extra {extra}, unit mismatch {units}")
        return 1

    ops = result["ops"]
    attempted = ops["txn_issued"] + ops["query_issued"]
    failed = ops["txn_failed"] + (ops["query_issued"] -
                                  ops["query_completed"])
    correct = all(c["ok"] for c in checks)

    print(f"workload {args.workload}  config {json.dumps(result['config'])}")
    print("operations: " + ", ".join(f"{k}={v}" for k, v in ops.items()))
    for c in checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: "
              f"{c['detail']}")
    for label, share in result["threads"].items():
        print(f"thread {label}: unattributed share {share:.4f}")
    if result["query_rows"]:
        print("result rows per query (fresh load): " + ", ".join(
            f"{q}={n}" for q, n in result["query_rows"].items()))
    for w in wanted:
        m = produced[w["name"]]
        shown = f"{m['value']:.6g}" if m["applicable"] else "n/a"
        print(f"  {w['name']:<40} {shown:>14} {w['unit']:<10} "
              f"({w['better']} is better)")
    for name, path in result["files"].items():
        print(f"file {name}: {path}")
    print(f"wall {time.monotonic() - started:.1f} s; correct={correct}")

    metrics = {w["name"]: {"value": produced[w["name"]]["value"],
                           "unit": w["unit"]} for w in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
