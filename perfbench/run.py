#!/usr/bin/env python3
"""The repository benchmark (see BENCHMARK.json and perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. It builds perfbench_harness and
tupelo_serve into .bench_build/ (RelWithDebInfo), runs one workload and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it is a record of the
run's environment. Build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("synth_wide", "deepweb_batch", "apply_bulk")
# A seed kept out of tuning: claims made with this benchmark should also
# hold on it.
HELD_OUT_SEED = 20061
# Environment switches that change what the program executes. The
# benchmark measures the defaults, so they are removed for the harness.
PINNED_UNSET = ("TUPELO_COMPILED_EXPAND", "TUPELO_SIMD")
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def slo_ms():
    """The serve latency limit, fixed in BENCHMARK.json's deepweb_batch
    entry (its traced run serves the batch's problems as jobs)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    for w in spec.get("workloads", []):
        if w.get("name") == "deepweb_batch":
            match = re.search(r"latency limit (\d+) ms", w.get("why", ""))
            if match:
                return float(match.group(1))
    fail("BENCHMARK.json names no deepweb_batch latency limit")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no TUPELO sources next to perfbench/ (expected %s)"
             % os.path.join(ROOT, "src"))
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target",
              "perfbench_harness", "tupelo_serve"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 3)


def harness_path():
    return os.path.join(BUILD, "perfbench_harness")


def serve_path():
    return os.path.join(BUILD, "tupelo", "tools", "tupelo_serve")


def source_digest():
    """SHA-256 over the tracked source files; stands in for the git SHA
    when the tree is not a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_harness(args, env):
    work = os.path.join(BUILD, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "%s-%d-%d.raw.json"
                       % (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [harness_path(), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace, "--work-dir=" + work, "--out=" + out,
           "--serve-bin=" + serve_path()]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S, 4)
    if r.returncode != 0:
        fail("harness exited with %d" % r.returncode, 4)
    with open(out) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    limit = slo_ms()
    build()
    env = {k: v for k, v in os.environ.items() if k not in PINNED_UNSET}
    raw = run_harness(args, env)

    # The harness's own failures are all wrong outputs (a mapping that does
    # not verify, a compiled result that differs, a diverging traced run).
    failures = [(f["what"], f["cause"], True) for f in raw["failures"]]
    if "serve" in raw:
        failures += metrics.serve_failures(raw["serve"])
    attempted = raw["attempted"]
    if args.trace:
        values = metrics.per_layer(raw, limit)
        units = dict(metrics.PER_LAYER)
    else:
        values = metrics.end_to_end(raw)
        units = dict(metrics.END_TO_END)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": raw["build_type"],
        "simd_tier": raw["simd_tier"],
        "pinned_unset": list(PINNED_UNSET),
        "serve_latency_limit_ms": limit,
        "fail_frac": metrics.fail_frac(attempted, len(failures)),
        "failures": [{"what": w, "cause": c} for w, c, _ in failures[:50]],
    }
    if args.trace and "layers" in raw and "search_ns" in raw["layers"]:
        split = metrics.search_split(raw["layers"])
        wall = raw["layers"]["ref_discover_ns"]
        record["discover_split"] = {k: metrics.ratio(v, wall)
                                    for k, v in split.items()}
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not any(wrong for _, _, wrong in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
