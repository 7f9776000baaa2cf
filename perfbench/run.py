#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload expander_cover --seed 3 \
        --seconds 20 --trace 0

Run from the repository root. Builds cobra_perfbench (the library, the
registered experiments and perfbench/src, Release) into $CARGO_TARGET_DIR or
.bench_build, runs the workload in one child process, and prints that
process's result line — one JSON object with "correct", "attempted",
"failed" and "metrics" — as the last line of standard output. Build logs
go to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_registry", "expander_cover", "torus_bips")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def build():
    """Configures and builds cobra_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources next to perfbench/ "
                 "(run from a full checkout)")
    out = build_dir()
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "cobra_perfbench",
                    "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "cobra_perfbench")


def bench_args(workload, seed, seconds, trace, tiny=False, expected=None,
                record=None):
    """cobra_perfbench's command line for one run (without the binary)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", os.path.join(build_dir(), "work", workload)]
    if expected is None and not tiny:
        expected = os.path.join(HERE, "expected", workload + ".txt")
    if expected:
        args += ["--expected", expected]
    if record:
        args += ["--record", record]
    if tiny:
        args.append("--tiny")
    return args


def run_bench(binary, args):
    """Runs cobra_perfbench; returns (exit code, stdout). Kills it on timeout."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: cobra_perfbench timed out")
    finally:
        signal.signal(signal.SIGTERM, previous)
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    binary = build()
    code, stdout = run_bench(binary, bench_args(
        opts.workload, opts.seed, opts.seconds, opts.trace))
    lines = stdout.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write(stdout)
        sys.exit("perfbench: cobra_perfbench failed with exit code %d" % code)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
