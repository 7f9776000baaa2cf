// The benchmark's workloads. Each drives the program only through the
// public functions of graph, core, sim, runner and rng, in one process,
// and returns raw samples; main.cpp turns them into the reported metrics.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "probe.hpp"
#include "trace.hpp"

namespace perfbench {

/// The benchmark seed whose expander_cover and torus_bips results are
/// recorded in perfbench/expected/. (paper_registry's results do not
/// depend on the seed; its recording holds for every seed.)
inline constexpr std::uint64_t kDefaultSeed = 1;

/// A run that cannot start as asked (e.g. an unreadable recording);
/// cobra_perfbench exits with code 2, like a usage error.
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Config {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;           ///< self-test size: seconds of work in total
  std::string work_dir;        ///< all files the run writes go here
  std::string expected_path;   ///< recorded results ("" = none)
  std::string record_path;     ///< write this run's results here ("" = no)
  /// Self-test only: keep one busy thread running beside the workload, so
  /// the quiescence guard must fail the ops it overlaps.
  bool background_spin = false;
};

/// Raw samples of one workload run. Op samples cover untraced passes only.
struct Outcome {
  std::vector<double> setup_cal_s, setup_raw_s;
  std::vector<double> op_cal_s, op_raw_s;
  std::vector<double> pass_cal_s, pass_raw_s;  ///< per-pass op sums
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  Metrics layers;                     ///< per-layer metrics (traced run)
};

/// Compares per-op results with recorded ones and records new ones.
///
/// The recording file is plain text: "seed N", "size S", then one
/// "op <digest> <name>" or "file <digest> <name>" per line (names may
/// hold spaces). It applies only when its seed equals the run's (`seed`;
/// 0 for results that hold at every seed); otherwise the checker falls
/// back to the checks that hold for every seed. A recording that cannot be
/// read or parsed, or whose size is not the run's, is a SetupError. The
/// constructor prints a "#" line saying whether the recording applies.
class Checker {
 public:
  Checker(const Config& config, std::uint64_t seed, const std::string& size);

  /// Checks op `name`'s digest against the recording and against the
  /// same op of the first pass. Returns false on a mismatch.
  bool op(const std::string& name, const std::string& digest,
          std::string* why);
  /// Checks a whole output file's digest against the recording.
  bool file(const std::string& name, const std::string& digest,
            std::string* why);
  /// Writes the recording, when the run was asked to record.
  void finish() const;

 private:
  const Config& config_;
  std::uint64_t seed_;
  std::string size_;
  bool active_ = false;
  std::map<std::string, std::string> expected_ops_;
  std::map<std::string, std::string> expected_files_;
  std::map<std::string, std::string> seen_ops_;
  std::map<std::string, std::string> seen_files_;
};

Outcome run_paper_registry(const Config& config, Probe& probe,
                           Tracer& tracer);
Outcome run_expander_cover(const Config& config, Probe& probe,
                           Tracer& tracer);
Outcome run_torus_bips(const Config& config, Probe& probe, Tracer& tracer);

/// The experiments the registry reports per-layer times for, in the
/// order BENCHMARK.json lists them.
const std::vector<std::string>& registry_experiments();

}  // namespace perfbench
