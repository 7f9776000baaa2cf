// cobra_perfbench: runs one benchmark workload in this process and
// prints its metrics as the last line of standard output.
//
//   cobra_perfbench --workload expander_cover --seed 3 --seconds 20
//                    --trace 0 --work-dir DIR
//                    [--expected FILE] [--record FILE] [--tiny]
//                    [--background-spin]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// print the per-layer metrics. --background-spin is for the self-test: it
// keeps a busy thread running beside the workload. perfbench/run.py builds
// this binary; see perfbench/README.md.
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "probe.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metrics;

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "cobra_perfbench: " << message << "\n";
  std::exit(2);
}

perfbench::Config parse(int argc, char** argv) {
  perfbench::Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      config.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value());
    } else if (flag == "--trace") {
      config.trace = value() != "0";
    } else if (flag == "--work-dir") {
      config.work_dir = value();
    } else if (flag == "--expected") {
      config.expected_path = value();
    } else if (flag == "--record") {
      config.record_path = value();
    } else if (flag == "--background-spin") {
      config.background_spin = true;
    } else if (flag == "--tiny") {
      config.tiny = true;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (config.workload != "paper_registry" &&
      config.workload != "expander_cover" && config.workload != "torus_bips")
    usage_error("unknown workload " + config.workload);
  if (config.work_dir.empty()) usage_error("--work-dir is required");
  if (!(config.seconds > 0.0)) usage_error("--seconds must be positive");
  return config;
}

// The program reads COBRA_* variables as session defaults; the benchmark
// pins every knob itself, so none may leak in from the calling shell.
void clear_cobra_environment() {
  for (const char* name :
       {"COBRA_SCALE", "COBRA_THREADS", "COBRA_SEED", "COBRA_ENGINE",
        "COBRA_GRAPHS", "COBRA_METRICS", "COBRA_KERNEL_THREADS",
        "COBRA_SWEEP_KILL_AFTER_CELLS"}) {
    unsetenv(name);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Config config = parse(argc, argv);
  clear_cobra_environment();
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);

  perfbench::Probe probe;
  perfbench::Tracer tracer(config.trace);
  perfbench::Outcome out;
  std::atomic<bool> spinning{config.background_spin};
  std::thread spinner;
  if (config.background_spin) {
    spinner = std::thread([&spinning] {
      volatile std::uint64_t x = 0;
      while (spinning.load(std::memory_order_relaxed)) x = x + 1;
    });
  }
  int code = 0;
  try {
    if (config.workload == "paper_registry") {
      out = perfbench::run_paper_registry(config, probe, tracer);
    } else if (config.workload == "expander_cover") {
      out = perfbench::run_expander_cover(config, probe, tracer);
    } else {
      out = perfbench::run_torus_bips(config, probe, tracer);
    }
  } catch (const perfbench::SetupError& ex) {
    std::cerr << "cobra_perfbench: " << ex.what() << "\n";
    code = 2;
  } catch (const std::exception& ex) {
    std::cerr << "cobra_perfbench: " << config.workload
              << " aborted: " << ex.what() << "\n";
    code = 1;
  }
  spinning.store(false, std::memory_order_relaxed);
  if (spinner.joinable()) spinner.join();
  if (code != 0) return code;
  if (config.trace) tracer.write(config.work_dir + "/spans.jsonl");

  using perfbench::median;
  using perfbench::quantile;
  const double setup_s = median(out.setup_cal_s);
  const double setup_raw_s = median(out.setup_raw_s);
  const double wall_s = setup_s + median(out.pass_cal_s);
  const double raw_wall_s = setup_raw_s + median(out.pass_raw_s);
  const double fail_frac = static_cast<double>(out.failed) /
                           static_cast<double>(out.attempted);

  const std::vector<double>& probes = probe.samples();
  const double probe_p50 = median(probes);
  const double probe_spread =
      quantile(probes, 0.9) / std::max(quantile(probes, 0.1), 1e-12);

  std::printf(
      "# %s seed=%llu ops=%zu setups=%zu passes=%zu attempted=%llu "
      "failed=%llu fail_frac=%.6g\n"
      "# raw_wall_s=%.6g wall_s=%.6g raw_setup_s=%.6g setup_s=%.6g "
      "raw_op_p50_ms=%.6g op_p50_ms=%.6g\n"
      "# probe_ms_p50=%.6g probe_spread=%.6g background_ms=%.6g "
      "probe_retries=%llu probe_unquiet=%llu\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      out.op_cal_s.size(), out.setup_cal_s.size(), out.pass_cal_s.size(),
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), fail_frac, raw_wall_s,
      wall_s, setup_raw_s, setup_s, median(out.op_raw_s) * 1e3,
      median(out.op_cal_s) * 1e3, probe_p50, probe_spread,
      probe.background_ms(),
      static_cast<unsigned long long>(probe.retries()),
      static_cast<unsigned long long>(probe.unquiet()));
  for (const std::string& why : out.failures)
    std::printf("# FAIL %s\n", why.c_str());

  Metrics metrics;
  if (config.trace) {
    metrics = out.layers;
    metrics["calib.probe_ms_p50"] = {probe_p50, "ms"};
    metrics["calib.probe_spread"] = {probe_spread, "ratio"};
    metrics["calib.raw_wall_s"] = {raw_wall_s, "s"};
    metrics["calib.background_ms"] = {probe.background_ms(), "ms"};
  } else {
    metrics["wall_s"] = {wall_s, "s"};
    metrics["setup_s"] = {setup_s, "s"};
    metrics["op_p50_ms"] = {quantile(out.op_cal_s, 0.5) * 1e3, "ms"};
    metrics["op_p90_ms"] = {quantile(out.op_cal_s, 0.9) * 1e3, "ms"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["ok_frac"] = {1.0 - fail_frac, "frac"};
  }

  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
