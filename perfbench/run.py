#!/usr/bin/env python3
"""Build and run the urm end-to-end benchmark.

    python3 perfbench/run.py --workload <paper_methods|ranked_mix|hot_ingest>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Every call configures and builds
perfbench/CMakeLists.txt (the urm library from src/ plus urm_perfbench) in
Release mode under $CARGO_TARGET_DIR (default .bench_build); only the
first call compiles anything. Build output goes to stderr. The
program's report goes to stdout; its last line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 only
when every operation succeeded and every answer check passed.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_SECONDS = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds urm_perfbench (a no-op when it is current);
    returns its path."""
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out, "--target", "urm_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "urm_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def expected_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, or None
    when the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha()]
    if args.trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except ValueError:
        report = None
    if not isinstance(report, dict) or set(report) != {
            "correct", "attempted", "failed", "metrics"}:
        print("perfbench: urm_perfbench printed no result line", file=sys.stderr)
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and set(report["metrics"]) != expected:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(report['metrics']) ^ expected)}", file=sys.stderr)
        return 1
    if result.returncode != 0 or not report["correct"] or report["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
