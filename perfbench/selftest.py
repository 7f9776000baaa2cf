#!/usr/bin/env python3
"""Self-test of the repo benchmark, at a tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the
per-layer metrics, each with its unit; that a run compared against its own
recording passes; that a recording with one deliberately wrong result
makes that op count as failed instead of passing silently; that a busy
thread left running beside the workload fails the ops whose probes it
overlaps; and that a recording which cannot be read stops the run with
exit code 2. Exits non-zero on the first violation.
"""

import json
import os
import shutil
import sys

import run

ROOT = run.ROOT


def result_of(binary, args):
    code, stdout = run.run_bench(binary, args)
    lines = stdout.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.exit("selftest: cobra_perfbench exited %d: %s" % (code, stdout))
    return json.loads(lines[-1])


def expect(condition, message):
    if not condition:
        sys.exit("selftest: FAILED: " + message)
    print("ok   " + message)


def check_metrics(result, specs, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {spec["name"]: spec["unit"] for spec in specs}
    expect(got == want, "%s prints every metric with its unit" % label)
    expect(all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values()),
           "%s values are numbers" % label)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    scratch = os.path.join(run.build_dir(), "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)

    for spec in bench["workloads"]:
        name = spec["name"]
        recording = os.path.join(scratch, name + ".txt")
        plain = result_of(binary, run.bench_args(
            name, 1, 1, 0, tiny=True, record=recording))
        check_metrics(plain, bench["end_to_end"], name + " untraced")
        expect(plain["correct"] and plain["failed"] == 0
               and plain["attempted"] >= 10,
               "%s: %d ops, none failed" % (name, plain["attempted"]))

        traced = result_of(binary, run.bench_args(name, 1, 1, 1, tiny=True))
        check_metrics(traced, bench["per_layer"], name + " traced")

        again = result_of(binary, run.bench_args(
            name, 1, 1, 0, tiny=True, expected=recording))
        expect(again["failed"] == 0,
               "%s matches its own recording" % name)

        # One deliberately wrong expected result must be counted.
        wrong = os.path.join(scratch, name + ".wrong.txt")
        with open(recording) as f:
            lines = f.read().splitlines()
        index = next(i for i, line in enumerate(lines)
                     if line.startswith("op "))
        kind, digest, op = lines[index].split(" ", 2)
        lines[index] = " ".join((kind, "0" * len(digest), op))
        with open(wrong, "w") as f:
            f.write("\n".join(lines) + "\n")
        bad = result_of(binary, run.bench_args(
            name, 1, 1, 0, tiny=True, expected=wrong))
        expect(bad["failed"] >= 1 and not bad["correct"]
               and bad["metrics"]["ok_frac"]["value"] < 1.0,
               "%s counts a wrong expected result as failed (%d of %d)"
               % (name, bad["failed"], bad["attempted"]))

        # Program work running beside the probes must not pass as a
        # slower host: the quiescence guard fails the ops it overlaps.
        busy = result_of(binary, run.bench_args(name, 1, 1, 0, tiny=True)
                         + ["--background-spin"])
        expect(busy["failed"] >= 1 and not busy["correct"]
               and busy["metrics"]["ok_frac"]["value"] < 1.0,
               "%s fails ops overlapped by a busy thread (%d of %d)"
               % (name, busy["failed"], busy["attempted"]))

    # A recording that cannot be read is an error, not a silent fallback.
    missing = os.path.join(scratch, "missing.txt")
    code, stdout = run.run_bench(binary, run.bench_args(
        "torus_bips", 1, 1, 0, tiny=True, expected=missing))
    expect(code == 2 and "metrics" not in stdout,
           "an unreadable recording exits 2 without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
