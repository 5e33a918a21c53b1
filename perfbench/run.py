#!/usr/bin/env python3
"""End-to-end benchmark of the LUBT stack (see perfbench/README.md).

    python3 perfbench/run.py --workload solve_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke             # every workload, tiny sizes
    python3 perfbench/run.py --record-reference  # regenerate reference.json

Run from the repository root. Builds perfbench/ (the lubt library from src/
plus the lubt_perfbench program) as an optimized build under .bench_build/,
runs one workload in a fresh private directory that is removed afterwards,
and prints a host/build header, the program's report line and, last, the
result object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lubt_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("solve_cold", "serve_eco", "search_topo")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build; compiler output goes to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_identity():
    """The commit when run from a git checkout, else a digest of src/."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
        if commit:
            return {"commit": commit}
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"commit": "unknown", "source_sha256": digest.hexdigest()}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run_program(args, trace_name=None):
    """Run lubt_perfbench in a fresh private directory; return its lines.
    A traced run's spans are kept as .bench_build/traces/<trace_name>."""
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.dirname(BUILD))
    try:
        proc = subprocess.run([BINARY] + args, cwd=workdir,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        spans = os.path.join(workdir, "trace.json")
        if trace_name and os.path.exists(spans):
            traces = os.path.join(os.path.dirname(BUILD), "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(traces, trace_name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("lubt_perfbench exited with %d" % proc.returncode)
    return proc.stdout.strip().splitlines()


def parse_result(lines, trace):
    """The program's last line, checked against BENCHMARK.json's metrics."""
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result keys: %s" % sorted(result))
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        raise RuntimeError("metric names differ from BENCHMARK.json: %s" %
                           sorted(set(metrics) ^ set(declared)))
    for name, entry in metrics.items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError("metric %s is not finite: %r" % (name, value))
        if entry["unit"] != declared[name]:
            raise RuntimeError("metric %s has unit %s, declared %s" %
                               (name, entry["unit"], declared[name]))
    if result["attempted"] < 1:
        raise RuntimeError("no operation attempted")
    return result


def run_workload(workload, seed, seconds, trace, smoke=False):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--reference", REFERENCE]
    if smoke:
        args.append("--smoke")
    lines = run_program(args, "%s-seed%d.json" % (workload, seed))
    return lines, parse_result(lines, trace)


def smoke():
    """Every workload, traced and untraced, at a tiny size: every declared
    metric is emitted, finite and carries its unit; every check passes."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_workload(workload, 1, 2, trace, smoke=True)
            if not result["correct"] or result["failed"]:
                raise RuntimeError("%s trace=%d failed %d of %d checks" %
                                   (workload, trace, result["failed"],
                                    result["attempted"]))
            log("smoke %s trace=%d: %d metrics, %d checks ok" %
                (workload, trace, len(result["metrics"]), result["attempted"]))
    print("smoke: OK")


def record_reference():
    """Re-solve every solve_cold net with the independent configuration."""
    doc = json.loads(run_program(["--record-reference"])[-1])
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.smoke:
            smoke()
            return 0
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        lines, result = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
    except (OSError, ValueError, RuntimeError, KeyError,
            subprocess.SubprocessError) as err:
        log("perfbench: %s" % err)
        return 1
    header = dict(source_identity())
    for line in lines[:-1]:
        kind, _, payload = line.partition(" ")
        if kind == "build":
            header.update(json.loads(payload))
        else:
            print(line)
    print("header " + json.dumps(header, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
