#!/usr/bin/env python3
"""The repository benchmark: builds the runner program from source, runs one
workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload grid_small --seed 1 --seconds 45 \\
        --trace 0

Run from the root of the repository. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md). The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset.

    python3 perfbench/run.py --bless

re-records golden/digests.json from the current simulator; do that only
for a change meant to move simulated results, and check the diff.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = ("grid_small", "sim_remote", "sim_local", "serve_mix")
GOLDEN = os.path.join(HERE, "golden", "digests.json")
# A run must end within this many seconds of its build finishing.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build():
    """Configure (once) and build the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at %s; run from a full checkout"
             % os.path.join(ROOT, "src"), 2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "perfbench_runner"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_runner")


def run_bench(runner, workload, seed, seconds, trace):
    """Run the runner program in a private scratch directory; returns
    (raw, spans)."""
    scratch = os.path.join(os.path.dirname(runner), "runs",
                           "%d-%s" % (os.getpid(), workload))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        cmd = [runner, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--trace",
               "1" if trace else "0", "--out", "raw.json"]
        if trace:
            cmd += ["--spans", "spans.tsv"]
        try:
            p = subprocess.run(cmd, cwd=scratch, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("runner did not finish within %d s" % RUN_TIMEOUT_S)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            fail("runner exited with code %d" % p.returncode)
        with open(os.path.join(scratch, "raw.json")) as f:
            raw = json.load(f)
        spans = []
        if trace:
            with open(os.path.join(scratch, "spans.tsv")) as f:
                spans = harness.parse_spans(f.read())
        return raw, spans
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)


def bless(runner):
    """Record every sim cell's digest (and the probe cell's)."""
    golden = {}
    for w in ("grid_small", "sim_remote", "sim_local"):
        raw, _ = run_bench(runner, w, 1, 0, False)
        golden[w] = digests_of(raw, "main")
    raw, _ = run_bench(runner, "serve_mix", 1, 0, True)
    golden["probe"] = digests_of(raw, "probe")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded %d cells in %s" % (
        sum(len(v) for v in golden.values()), GOLDEN))


def digests_of(raw, role):
    for s in raw["sections"]:
        if s["kind"] == "sim" and s["role"] == role:
            out = {}
            for op in s["ops"]:
                if "error" in op:
                    fail("%s raised: %s" % (op["id"], op["error"]))
                out[op["id"]] = op["digest"]
            return out
    fail("no %s sim section" % role)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args(argv)
    if not args.bless and not args.workload:
        ap.error("--workload is required")

    t0 = time.time()
    runner = build()
    build_s = time.time() - t0
    if args.bless:
        bless(runner)
        return
    raw, spans = run_bench(runner, args.workload, args.seed, args.seconds,
                            args.trace)
    result, lines = harness.evaluate(raw, load_golden(), spans)
    print("perfbench %s  seed %d  seconds %g  trace %d  (build check %.1f s)"
          % (args.workload, args.seed, args.seconds, args.trace, build_s))
    for line in lines:
        print("  " + line)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
