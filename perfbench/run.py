#!/usr/bin/env python3
"""Build and run the specpersist host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
simulator and the benchmark from source into .bench_build/perfbench (a
Release -O2 build); later calls rebuild only what changed. The benchmark
binary then runs the workload single-threaded and prints its report; the
last line of stdout is the JSON result. Build output and simulator
warnings go to stderr.

--selftest runs the benchmark's own tests at tiny sizes and checks that the
metrics it prints are exactly those BENCHMARK.json lists, with their units.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("tree_setup", "fence_sim", "observed_sp", "fault_campaign")
# A run must finish within 180 s; leave room for the incremental build.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers under cmake, campaign children under the benchmark) and
    wait for it. Returns (returncode, stdout) or (None, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at " + os.path.join(ROOT, "src") +
             "; run the benchmark from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                      stderr=sys.stderr, env=env)
        if code is None:
            fail("build timed out: " + " ".join(cmd))
        if code != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    code, out = run([BINARY] + args, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                    stderr=sys.stderr, text=True)
    if code is None:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    return code, out


def selftest():
    code, out = run_binary(["--selftest"])
    sys.stdout.write(out)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    seen = set()
    ok = code == 0
    for line in out.splitlines():
        if not line.startswith("selftest-metrics "):
            continue
        _, workload, trace, listed = line.split(" ", 3)
        got = [tuple(item.split(":", 1)) for item in listed.split(",")]
        match = sorted(got) == sorted(expected[int(trace)])
        seen.add((workload, int(trace)))
        print("selftest %s: %s trace=%s prints exactly the BENCHMARK.json "
              "metrics with their units" % ("ok" if match else "FAILED",
                                            workload, trace))
        ok = ok and match
    missing = {(w, t) for w in WORKLOADS for t in (0, 1)} - seen
    if missing:
        print("selftest FAILED: no metrics printed for %s" % sorted(missing))
        ok = False
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    if args.selftest:
        return selftest()

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    code, out = run_binary(cmd)
    if code != 0:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % code)
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
