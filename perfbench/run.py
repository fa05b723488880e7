#!/usr/bin/env python3
"""Paper-pipeline benchmark: build, run, report.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is replay_local, replay_cluster, paced_local, paced_cluster or
paced_cluster_32x.

Run from the root of a checkout. Builds perfbench/ against the checkout's
src/ (Release, under .bench_build/perfbench), runs one measurement and prints
as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs the same
seed untraced and then traced, and reports the per-layer metrics plus the
tracing overhead. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pipeline_bench")
RUN_TIMEOUT_S = 160
WORKLOADS = ("replay_local", "replay_cluster", "paced_local", "paced_cluster",
             "paced_cluster_32x")
# End-to-end metric -> per-layer metric holding its traced/untraced change.
OVERHEAD = {
    "throughput_traces_per_s": "tracing.overhead.throughput_pct",
    "trace_latency_p50_us": "tracing.overhead.latency_p50_pct",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Build output goes to
    stderr so the last stdout line stays the result."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                             "--target", "pipeline_bench"], stdout=sys.stderr)
    return result.returncode == 0


def commit_id():
    """The git commit, or a content hash of the sources when the checkout
    is not a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def stop_group(proc):
    """Kills whatever is left of the run's process group (the supervisor's
    workers included) and waits until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(args, trace, spans):
    """One run of the binary in its own process group. Returns (exit code,
    stdout lines)."""
    tmp_root = os.path.join(BUILD, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--run-dir", run_dir]
    if spans:
        cmd += ["--spans", spans]
    if args.tasks:
        cmd += ["--tasks", str(args.tasks)]
    # One malloc arena: with glibc's default (up to eight per core) which
    # threads get an arena of their own depends on timing, and the peak RSS
    # of the same input then differs by 10-15% between runs.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        out = ""
    finally:
        stop_group(proc)
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def result_of(lines):
    if lines and lines[-1].startswith("{"):
        return json.loads(lines[-1])
    return None


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tasks", type=int, default=0,
                        help="tasks per program bolt (default: one per core)")
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2

    untraced = None
    spans = None
    if args.trace:
        code, lines = run_once(args, 0, None)
        untraced = tagged(lines, "end_to_end")
        if code not in (0, 1) or untraced is None:
            log("perfbench: untraced reference run failed")
            return 2
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))

    code, lines = run_once(args, args.trace, spans)
    result = result_of(lines)
    if code not in (0, 1) or result is None:
        for line in lines:
            print(line)
        log("perfbench: run failed (exit %s)" % code)
        return 2

    provenance = tagged(lines, "provenance") or {}
    provenance["commit"] = commit_id()
    for line in lines[:-1]:
        if line.startswith("provenance "):
            continue
        print(line)
    if args.trace:
        traced = tagged(lines, "end_to_end")
        print("\ntracing overhead (traced vs untraced run, same seed)")
        for name, metric in OVERHEAD.items():
            base, with_spans = untraced[name]["value"], traced[name]["value"]
            pct = 100.0 * (with_spans - base) / base if base else 0.0
            print("  %-26s untraced %12.1f  traced %12.1f  (%+.1f%%)"
                  % (name, base, with_spans, pct))
            result["metrics"][metric] = {"value": pct, "unit": "%"}
        print("spans: %s" % os.path.relpath(spans, ROOT))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
