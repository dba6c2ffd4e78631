#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ (and the library under it)
from source, runs one workload or all four, checks the outputs, and prints
every metric by name with its unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --seed <n>      # all four workloads, both runs

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 gives the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics. Each run also
leaves a full record (provenance, sample counts, errors) under
<build dir>/results/, and a traced run its spans under <build dir>/spans/
(gzipped TSV). The build directory is $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench,
relative to the checkout root.
"""
import argparse
import fcntl
import gzip
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = [
    "train-large-batch",
    "train-small-batch-elastic",
    "serve-stream-elastic",
    "cluster-cosched",
]
SETUP_SPAWNS = 31  # set-up-only processes per run; setup_s is their median
RUN_LIMIT_S = 170.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(out):
    """Configures (once) and builds perfbench; returns the binary paths."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "vfbench"), os.path.join(out, "pb_arith_test")


def provenance_sha():
    """The commit, or a hash of the sources when the checkout has no git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()


def setup_seconds(binary, workload, seed):
    """Median time from spawning a workload process until its set-up is
    done: process start, library start-up and the workload's own set-up."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic_ns()
        proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                               "--setup-only"], capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail("set-up of %s failed: %s" % (workload, proc.stderr.strip()))
        done = [l for l in proc.stdout.splitlines() if l.startswith("setup_done_ns ")]
        if not done:
            fail("set-up of %s printed no completion stamp" % workload)
        samples.append((int(done[-1].split()[1]) - start) / 1e9)
    return statistics.median(samples), len(samples)


def run_one(binary, workload, seed, seconds, trace, out, deadline):
    """Runs one workload process; returns (record, human-readable output)."""
    start = time.monotonic()
    record = {"workload": workload, "seed": seed, "trace": trace}
    spawn_setup = None
    if not trace:
        spawn_setup, n = setup_seconds(binary, workload, seed)
        record["setup_spawns"] = n
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    spans = None
    if trace:
        os.makedirs(os.path.join(out, "spans"), exist_ok=True)
        spans = os.path.join(out, "spans", "%s-seed%d.tsv" % (workload, seed))
        cmd += ["--spans", spans]
    left = deadline - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s failed (exit %d): %s" % (workload, proc.returncode, proc.stderr.strip()))
    result = json.loads(lines[-1])
    if spans and os.path.exists(spans):
        with open(spans, "rb") as src, gzip.open(spans + ".gz", "wb", compresslevel=1) as dst:
            dst.write(src.read())
        os.remove(spans)
    if spawn_setup is not None:
        result["info"]["setup_in_process_s"] = result["metrics"]["setup_s"]["value"]
        result["metrics"]["setup_s"]["value"] = spawn_setup
    record.update(result)
    record["provenance"]["git_sha"] = provenance_sha()
    return record, "\n".join(lines[:-1])


def check_names(record, contract):
    """Every metric BENCHMARK.json lists for this kind of run is present."""
    key = "per_layer" if record["trace"] else "end_to_end"
    want = {m["name"] for m in contract.get(key, [])}
    missing = sorted(want - set(record["metrics"]))
    if missing:
        record["correct"] = False
        record.setdefault("errors", []).append("missing metrics: " + ", ".join(missing))
    record["metrics"] = {k: v for k, v in record["metrics"].items() if k in want} if want \
        else record["metrics"]


def show(record):
    print("  %s seed %d, %s run: correct=%s attempted=%d failed=%d" % (
        record["workload"], record["seed"], "traced" if record["trace"] else "untraced",
        record["correct"], record["attempted"], record["failed"]))
    for name, m in sorted(record["metrics"].items()):
        print("    %-36s %-22.10g %s" % (name, m["value"], m["unit"]))
    for e in record.get("errors", []):
        print("    CHECK FAILED: " + e)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    contract_path = os.path.join(ROOT, "BENCHMARK.json")
    contract = {}
    if os.path.exists(contract_path):
        with open(contract_path) as f:
            contract = json.load(f)
    seconds = a.seconds or contract.get("run_seconds", 10)

    out = build_dir()
    binary, arith = build(out)
    test = subprocess.run([arith], capture_output=True, text=True, timeout=60)
    if test.returncode != 0:
        fail("arithmetic self-test failed:\n" + test.stdout)

    runs = [(a.workload, a.trace)] if a.workload else \
        [(w, t) for w in WORKLOADS for t in (0, 1)]
    records = []
    for workload, trace in runs:
        record, text = run_one(binary, workload, a.seed, seconds, trace, out, RUN_LIMIT_S)
        check_names(record, contract)
        os.makedirs(os.path.join(out, "results"), exist_ok=True)
        name = "%s-seed%d-trace%d.json" % (workload, a.seed, trace)
        with open(os.path.join(out, "results", name), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        if trace or not a.workload:
            print(text)
        show(record)
        records.append(record)

    if a.workload:
        r = records[0]
        final = {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                 "metrics": r["metrics"]}
    else:
        final = {"correct": all(r["correct"] for r in records),
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "metrics": {"%s/%s" % (r["workload"], k): v
                             for r in records for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))


if __name__ == "__main__":
    main()
