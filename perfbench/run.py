#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds perfbench from source
into .bench_build/perfbench (CMake, the repository's own star_core library);
later runs only re-check the build.  The run drives one workload on a
single-process STAR cluster over TCP loopback, then validates the result
against BENCHMARK.json: every declared metric of the run's kind (end_to_end
with --trace 0, per_layer with --trace 1) must be present with its declared
unit and a finite value, and every end-to-end value must be nonzero.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Exit status: 0 when the output is valid and every output check passed;
1 when a check failed (the result line is still printed); 2 when the
benchmark could not be built or run, or its output is malformed (no result
line).
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# `--workload all` runs these in turn.  ycsb_durable is runnable but not
# declared in BENCHMARK.json: it is too unsteady to gate (see README.md).
ALL_WORKLOADS = ("ycsb_serve", "tpcc_closed", "ycsb_durable")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = 1
                log.write(str(e) + "\n")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-3000:])
                # A failed configure must not leave a cache behind that
                # skips the configure step next time.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def git_commit():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_hash():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    roots = [os.path.join(REPO, "src"), HERE]
    files = [os.path.join(REPO, "CMakeLists.txt")]
    for root in roots:
        for d, dirs, names in os.walk(root):
            dirs.sort()
            files.extend(os.path.join(d, n) for n in sorted(names))
    for path in files:
        if not os.path.isfile(path):
            continue
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def validate(result, declared, trace):
    """Returns a list of problems with the binary's result file."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append("missing key " + key)
    if problems:
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            problems.append(key + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    for d in declared:
        m = metrics.get(d["name"])
        if not isinstance(m, dict):
            problems.append("metric %s missing" % d["name"])
            continue
        if m.get("unit") != d["unit"]:
            problems.append("metric %s has unit %r, declared %r" %
                            (d["name"], m.get("unit"), d["unit"]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                not math.isfinite(v):
            problems.append("metric %s has no finite value" % d["name"])
        elif not trace and v == 0:
            problems.append("end-to-end metric %s is 0" % d["name"])
    return problems


def run_one(binary, workload, args, declared):
    """Runs one workload; returns (binary exit status, validated result)."""
    out_dir = os.path.join(BUILD_DIR, "out",
                           workload + ("-trace" if args.trace else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result_path = os.path.join(out_dir, "result.json")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--result", result_path,
           "--commit", git_commit(), "--source-hash", source_hash()]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("%s: run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    except OSError as e:
        fail("cannot run %s: %s" % (binary, e))
    if rc not in (0, 1):
        fail("%s: perfbench exited with status %d" % (workload, rc))
    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        fail("unreadable result %s: %s" % (result_path, e))
    problems = validate(result, declared, args.trace)
    if problems:
        fail("%s: malformed result: %s" % (workload, "; ".join(problems)))
    print("declared %s metrics:" % ("per-layer" if args.trace else
                                   "end-to-end"))
    for d in declared:
        m = result["metrics"][d["name"]]
        print("  %-34s %16.6g %-12s n=%d" %
              (d["name"], m["value"], m["unit"], m.get("samples", 0)))
    return rc, result


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the build or benchmark process it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            bench = json.load(f)
        declared = bench["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if not re.fullmatch(r"[a-z0-9_]+", args.workload):
        fail("bad workload name %r" % args.workload)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    names = ALL_WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [(name,) + run_one(binary, name, args, declared) for name in names]
    # One workload: the declared names.  `all`: prefixed by the workload.
    metrics = {}
    for name, _, result in runs:
        prefix = name + "." if len(runs) > 1 else ""
        for d in declared:
            metrics[prefix + d["name"]] = {
                "value": result["metrics"][d["name"]]["value"],
                "unit": d["unit"]}
    line = {
        "correct": all(rc == 0 and result["correct"]
                       for _, rc, result in runs),
        "attempted": sum(result["attempted"] for _, _, result in runs),
        "failed": sum(result["failed"] for _, _, result in runs),
        "metrics": metrics,
    }
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
