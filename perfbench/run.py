#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
galloper libraries and the perfbench binary (Release) under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Later calls only
re-check the build. The workload runs in its own process; its last line of
standard output is one JSON object, which this script checks against the
metric lists of BENCHMARK.json and prints again as its own last line.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def child_env(tmp):
    """Environment for the build and the run: the shipped runtime defaults
    (no GALLOPER_* overrides) and temporary files inside the build tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GALLOPER_")}
    env["TMPDIR"] = tmp
    env["CCACHE_DISABLE"] = "1"
    return env


def build(out):
    """Configures (once) and builds; build output goes to stderr."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = child_env(tmp)
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env, cwd=ROOT).returncode
        if rc != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def run(cmd, env):
    """Runs cmd to completion (killed after RUN_TIMEOUT_S) and returns
    (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run timed out\n")
        return 1, ""
    return proc.returncode, out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    if not build(out):
        return 1
    env = child_env(os.path.join(out, "tmp"))
    if args.self_test:
        rc, text = run([os.path.join(out, "perfbench_selftest")], env)
        sys.stdout.write(text)
        return rc

    want = expected_metrics(args.trace == 1)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "%g" % args.seconds,
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-%d.json" % (args.workload, args.seed))]
    rc, text = run(cmd, env)
    lines = text.rstrip("\n").split("\n") if text.strip() else []
    if rc != 0 or not lines:
        sys.stdout.write(text)
        sys.stderr.write("perfbench: workload run failed (exit %d)\n" % rc)
        return rc or 1
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: "
                         "missing %s, unexpected %s\n" % (
                             sorted(set(want) - set(got)),
                             sorted(set(got) - set(want))))
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
