#!/usr/bin/env python3
"""The daemon benchmark's one command.

Builds sariadne_daemon and the benchmark's generator from source, runs one
workload and prints every metric by name with its unit, then, as the last
line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from the traced in-process replay. Exits non-zero on any
wrong answer, on a build failure, or when the repository's sources are
missing. Run from the repository root:

    python3 perfbench/run.py --workload zipf_5k --seed 7 --seconds 10 --trace 0
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_500", "zipf_5k", "churn_5k")

# Printed with every run but not gated: on a shared host their spread
# across seeds exceeds the largest bound the benchmark may set (see
# README.md).
UNGATED = ("query_p99_us", "publish_p50_us", "publish_p99_us")
# Hard limit for one measured run; the build has its own.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the daemon and the generator."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_gen",
         "sariadne_daemon"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def reap_session(child):
    """Kills what is left of the generator's session and waits it out."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if child.poll() is None:
            child.wait()
        time.sleep(0.05)
    child.wait()


def cache_value(build, key):
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_commit():
    """The git commit when run inside a clone, else a digest of the sources
    the benchmark builds (the benchmark may run from a plain export)."""
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def compiler_version(build):
    compiler = cache_value(build, "CMAKE_CXX_COMPILER")
    try:
        done = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True)
        return done.stdout.splitlines()[0]
    except (OSError, IndexError):
        return compiler


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/sariadne_daemon.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("perfbench: %s is missing; run from a full checkout" % needed)
            return 1
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: %s" % error)
        return 1

    spans = os.path.join(out, "spans-%s-%d.csv" % (args.workload, args.seed))
    command = [
        os.path.join(out, "perfbench_gen"),
        "--daemon", os.path.join(out, "sariadne_daemon"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        command += ["--spans", spans]
    started = time.monotonic()
    # Own session: whatever happens to the generator, its daemons go with
    # it, and the run waits until none is left.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        reap_session(child)
        return 1
    reap_session(child)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: generator failed (exit %d)" % child.returncode)
        return 1
    elapsed = time.monotonic() - started
    if not result["correct"]:
        log("perfbench: WRONG ANSWER (workload=%s seed=%d): %s" %
            (args.workload, args.seed, result["error"]))

    print("perfbench: workload=%s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: commit=%s compiler=%s build_type=%s nproc=%d host=%s "
          "(%s) seed=%d runs=1 wall_s=%.1f" %
          (source_commit(), compiler_version(out),
           cache_value(out, "CMAKE_BUILD_TYPE"), result["nproc"],
           result["host"], platform.platform(), args.seed, elapsed))
    print("accounting: attempted=%d acked=%d answered=%d failed=%d%s" %
          (result["attempted"], result["acked"], result["answered"],
           result["failed"],
           "" if result["correct"] else " ERROR: " + result["error"]))
    print("%-44s %14s %-6s %9s %7s %7s" % ("metric", "value", "unit",
                                            "samples", "repeats", "spread"))
    for name, metric in result["e2e"].items():
        print("%-44s %14.4f %-6s %9d %7d %7.3f%s" %
              (name, metric["value"], metric["unit"], metric["samples"],
               metric["repeats"], metric["spread"],
               "  (not gated)" if name in UNGATED else ""))
    print("%-44s %14.6f %-6s  (as failed/attempted)" %
          ("fail_frac", result["failed"] / max(1, result["attempted"]),
           "ratio"))
    if args.trace:
        for name, value in result["layers"].items():
            print("%-44s %14.4f" % (name, value))
        per_op = result["per_op_us"]
        print("cost ladder: closed-loop mean time per op = %.2f us" % per_op)
        for layer, micros in result["ladder"]:
            print("  %-46s %9.2f us  %6.1f%%" %
                  (layer, micros, 100.0 * micros / per_op if per_op else 0))
        print("spans: %s" % spans)
    else:
        for name in ("workload.distinct_requests",
                     "workload.memo_window_repeat_share",
                     "loadgen.late_p99_us"):
            print("%-44s %14.4f" % (name, result["layers"][name]))

    # BENCHMARK.json names the metrics each mode reports, with their units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        declared = json.load(spec)["per_layer" if args.trace else "end_to_end"]
    values = ({name: value for name, value in result["layers"].items()}
              if args.trace else
              {name: m["value"] for name, m in result["e2e"].items()})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] and child.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
