#!/usr/bin/env python3
"""Regression-threshold checks for the committed benchmark baselines.

Six suites, selected with --suite (default: step). Each guards one
claim about a committed baseline:

  step      bench_results/BENCH_step.json, produced by micro_cobra. The
            guarded pair is dense vs reference for the steady-state COBRA
            round on the largest b = 2 random-regular graph
            (BM_CobraStep, regular_262144_r8).
  bips      bench_results/BENCH_bips.json, produced by micro_bips. The
            guarded pair is dense vs reference for the
            full-infection-trajectory BIPS round (BM_BipsRound,
            regular_65536_r8).
  graph_io  bench_results/BENCH_graph_io.json, produced by
            micro_graphgen. The guarded pair is mmap_open vs generate for
            regular_262144_r8 (BM_GraphIo*): opening a pre-baked .cgr
            must beat regenerating the graph in-process, the point of the
            out-of-core format.
  metrics   bench_results/BENCH_metrics.json, produced by micro_metrics.
            Inverted (overhead) semantics: the off-mode dense step
            (BM_MetricsStep, regular_262144_r8/dense/off) must stay
            within --max-overhead (default 0.02 = +2%) of the
            BM_CobraStep dense entry in the step baseline passed via
            --step-baseline — compiled-in telemetry behind a null check
            must be free when the mode is off. Both files must have been
            generated on the same machine (regenerate them together).
  step_threads / bips_threads
            The in-round lane-scaling axes (BM_CobraStepThreads /
            BM_BipsRoundThreads, dense engine on the largest graph). Two
            claims: (a) the lane machinery at kernel_threads = 1 adds at
            most --max-overhead (default 0.02 = +2%) over the plain
            serial dense entry in the same file, always enforced; (b)
            threads_4 is at least --min-speedup times faster than
            threads_1 — enforced only when the file's context.num_cpus
            shows the generating machine had >= 4 CPUs, and loudly
            SKIPPED otherwise (a 1-CPU box cannot measure scaling; the
            overhead ceiling is the portable half of the gate).

Two modes:

  check_step_bench.py [--suite S] BASELINE.json
      Validates the committed baseline: the suite's fast variant must be
      at least --min-speedup (default 2.0) times faster than its slow
      variant on the guarded pair (runs in ctest as the
      `bench_*_baseline_check` tests).

  check_step_bench.py [--suite S] BASELINE.json FRESH.json [--tolerance 0.30]
      Compares a fresh benchmark JSON against the baseline: any shared
      benchmark whose per-iteration real_time regressed by more than the
      tolerance fails the check. Labelled rows are matched on (family,
      label), the family being the name up to its first '/', so a renamed
      registration (a /real_time suffix, a changed argument list) still
      meets its baseline row; unlabelled rows are matched on their full
      name. Only meaningful on hardware comparable to
      the baseline's; CI uses the single-file mode with a reduced
      --min-speedup instead, so heterogeneous runners compare engine
      ratios measured on the same box.

Regenerate the baselines with (a file recorded with repetitions is read
through its median rows):
  ./build/bench/micro_cobra --benchmark_repetitions=5 \
      --benchmark_out=bench_results/BENCH_step.json \
      --benchmark_out_format=json
  ./build/bench/micro_bips --benchmark_repetitions=5 \
      --benchmark_out=bench_results/BENCH_bips.json \
      --benchmark_out_format=json
  ./build/bench/micro_graphgen --benchmark_filter='BM_GraphIo' \
      --benchmark_out=bench_results/BENCH_graph_io.json \
      --benchmark_out_format=json
  ./build/bench/micro_metrics --benchmark_repetitions=5 \
      --benchmark_out=bench_results/BENCH_metrics.json \
      --benchmark_out_format=json
"""

import argparse
import json
import sys

# The guarded (bench prefix, graph label, slow/fast variant) per suite;
# the micro_* binaries keep these labels stable. Guarded pairs must share
# one time unit — the comparison uses real_time verbatim.
SUITES = {
    "step": {"prefix": "BM_CobraStep/", "graph": "regular_262144_r8",
             "slow": "reference", "fast": "dense"},
    "bips": {"prefix": "BM_BipsRound/", "graph": "regular_65536_r8",
             "slow": "reference", "fast": "dense"},
    "graph_io": {"prefix": "BM_GraphIo", "graph": "regular_262144_r8",
                 "slow": "generate", "fast": "mmap_open"},
    # The metrics suite is handled by check_metrics_overhead (inverted
    # semantics: an upper bound on a ratio, not a lower bound).
    "metrics": {"prefix": "BM_MetricsStep/", "graph": "regular_262144_r8"},
    # The *_threads suites are handled by check_thread_scaling: an
    # overhead ceiling against the serial entry plus a CPU-gated
    # threads_4-vs-threads_1 speedup floor.
    "step_threads": {"prefix": "BM_CobraStepThreads/",
                     "graph": "regular_262144_r8",
                     "serial_prefix": "BM_CobraStep/",
                     "serial_label": "regular_262144_r8/dense"},
    "bips_threads": {"prefix": "BM_BipsRoundThreads/",
                     "graph": "regular_65536_r8",
                     "serial_prefix": "BM_BipsRound/",
                     "serial_label": "regular_65536_r8/dense"},
}

THREAD_SUITES = ("step_threads", "bips_threads")
SCALING_THREADS = 4  # the gated lane count of the *_threads suites


def check_thread_scaling(benches, context, suite, min_speedup,
                         max_overhead):
    """Lane machinery must be free at 1 lane and scale when CPUs exist."""
    s = SUITES[suite]
    serial = step_time(benches, s["serial_prefix"], s["serial_label"])
    t1 = step_time(benches, s["prefix"], f"{s['graph']}/dense/threads_1")
    overhead = t1 / serial - 1.0
    print(
        f"[{suite}] {s['graph']} dense: serial {serial:.0f}, "
        f"threads_1 {t1:.0f}, overhead {overhead:+.1%} "
        f"(allowed <= +{max_overhead:.0%})"
    )
    for threads in (2, SCALING_THREADS, 8):
        label = f"{s['graph']}/dense/threads_{threads}"
        for b in benches:
            if b["name"].startswith(s["prefix"]) and b.get("label") == label:
                print(f"[{suite}]   threads_{threads}: "
                      f"{b['real_time']:.0f} "
                      f"({t1 / b['real_time']:.2f}x threads_1)")
    if overhead > max_overhead:
        sys.exit(f"FAIL: single-thread lane overhead {overhead:+.1%} "
                 f"> +{max_overhead:.0%}")
    num_cpus = context.get("num_cpus", 0)
    if num_cpus < SCALING_THREADS:
        print(f"[{suite}] SKIPPED scaling floor: generating machine had "
              f"{num_cpus} CPU(s) < {SCALING_THREADS} — a box that cannot "
              f"run {SCALING_THREADS} lanes in parallel cannot measure "
              f"their speedup (the overhead ceiling above still holds)")
        print("OK")
        return
    tN = step_time(benches, s["prefix"],
                   f"{s['graph']}/dense/threads_{SCALING_THREADS}")
    speedup = t1 / tN
    print(
        f"[{suite}] threads_{SCALING_THREADS} speedup over threads_1: "
        f"{speedup:.2f}x (required >= {min_speedup:.2f}x, "
        f"num_cpus {num_cpus})"
    )
    if speedup < min_speedup:
        sys.exit(f"FAIL: {SCALING_THREADS}-lane speedup {speedup:.2f}x "
                 f"< {min_speedup}x")
    print("OK")


def check_metrics_overhead(benches, step_benches, max_overhead):
    """Off-mode telemetry must be free on the dense steady-state step."""
    off = step_time(benches, "BM_MetricsStep/",
                    "regular_262144_r8/dense/off")
    base = step_time(step_benches, "BM_CobraStep/",
                     "regular_262144_r8/dense")
    overhead = off / base - 1.0
    print(
        f"[metrics] regular_262144_r8 dense step: off-mode {off:.0f}, "
        f"step baseline {base:.0f}, overhead {overhead:+.1%} "
        f"(allowed <= +{max_overhead:.0%})"
    )
    for mode in ("summary", "rounds"):
        t = step_time(benches, "BM_MetricsStep/",
                      f"regular_262144_r8/dense/{mode}")
        print(f"[metrics]   {mode} mode: {t:.0f} ({t / off:.2f}x off)")
    if overhead > max_overhead:
        sys.exit(f"FAIL: disabled-mode telemetry overhead {overhead:+.1%} "
                 f"> +{max_overhead:.0%}")
    print("OK")


def load_doc(path):
    """Returns (iteration benchmarks, context dict) of a benchmark JSON."""
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("benchmarks", [])
    # A file recorded with --benchmark_repetitions is read through its
    # median aggregates, renamed to their run name so they match the rows
    # of an unrepeated file.
    benches = [dict(b, name=b["run_name"]) for b in rows
               if b.get("aggregate_name") == "median"] or [
        b for b in rows if b.get("run_type", "iteration") == "iteration"]
    if not benches:
        sys.exit(f"{path}: no benchmark entries found")
    return benches, doc.get("context", {})


def load(path):
    return load_doc(path)[0]


def step_time(benches, prefix, label):
    for b in benches:
        if b["name"].startswith(prefix) and b.get("label") == label:
            return b["real_time"]
    sys.exit(f"missing {prefix}* entry labelled {label!r}")


def check_baseline(benches, suite, min_speedup):
    s = SUITES[suite]
    slow = step_time(benches, s["prefix"], f"{s['graph']}/{s['slow']}")
    fast = step_time(benches, s["prefix"], f"{s['graph']}/{s['fast']}")
    speedup = slow / fast
    print(
        f"[{suite}] {s['graph']}: {s['slow']} {slow:.0f}, "
        f"{s['fast']} {fast:.0f}, speedup {speedup:.2f}x "
        f"(required >= {min_speedup:.2f}x)"
    )
    if speedup < min_speedup:
        sys.exit(f"FAIL: {s['fast']} speedup over {s['slow']} "
                 f"{speedup:.2f}x < {min_speedup}x")
    print("OK")


def rows_by_key(benches, path):
    """Keys labelled rows on (family, label); the family is the name up to
    its first '/', so argument lists and suffixes like /real_time do not
    matter. Unlabelled rows key on their full name, as their arguments are
    all that tells them apart. Repeated rows of one name (repetitions) keep
    the last; two different names on one key are ambiguous and stop the
    check."""
    by_key = {}
    for b in benches:
        label = b.get("label", "")
        key = (b["name"].split("/", 1)[0] if label else b["name"], label)
        if key in by_key and by_key[key]["name"] != b["name"]:
            sys.exit(f"{path}: {by_key[key]['name']} and {b['name']} share "
                     f"family and label {key[1]!r}; give them distinct labels")
        by_key[key] = b
    return by_key


def check_regression(baseline, fresh, tolerance, paths):
    base_by_key = rows_by_key(baseline, paths[0])
    failures = []
    compared = 0
    for key, b in rows_by_key(fresh, paths[1]).items():
        if key not in base_by_key:
            continue
        compared += 1
        base_time = base_by_key[key]["real_time"]
        ratio = b["real_time"] / base_time
        if ratio > 1.0 + tolerance:
            failures.append(f"{b['name']} [{b.get('label', '')}]: "
                            f"{ratio:.2f}x baseline")
    print(f"compared {compared} benchmarks against baseline "
          f"(tolerance +{tolerance:.0%})")
    if compared == 0:
        sys.exit("FAIL: no overlapping benchmarks between the two files")
    if failures:
        print("\n".join("REGRESSED: " + f for f in failures))
        sys.exit(f"FAIL: {len(failures)} benchmark(s) regressed")
    print("OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", nargs="?",
                        help="fresh benchmark JSON to compare (optional)")
    parser.add_argument("--suite", choices=sorted(SUITES), default="step",
                        help="which guarded pair to validate (default step)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required dense/reference speedup (default 2.0)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed per-benchmark slowdown vs baseline "
                             "(default 0.30 = +30%%)")
    parser.add_argument("--step-baseline",
                        help="BENCH_step.json to compare against "
                             "(metrics suite only)")
    parser.add_argument("--max-overhead", type=float, default=0.02,
                        help="allowed off-mode overhead over the step "
                             "baseline (metrics suite; default 0.02 = +2%%)")
    args = parser.parse_args()

    baseline, context = load_doc(args.baseline)
    if args.suite == "metrics":
        if args.step_baseline is None:
            sys.exit("--suite metrics requires --step-baseline "
                     "BENCH_step.json")
        check_metrics_overhead(baseline, load(args.step_baseline),
                               args.max_overhead)
    elif args.suite in THREAD_SUITES:
        check_thread_scaling(baseline, context, args.suite,
                             args.min_speedup, args.max_overhead)
    elif args.fresh is None:
        check_baseline(baseline, args.suite, args.min_speedup)
    else:
        check_regression(baseline, load(args.fresh), args.tolerance,
                         (args.baseline, args.fresh))


if __name__ == "__main__":
    main()
