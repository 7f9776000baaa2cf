// Experiment harness of the bench/exp_* registrations, driven by the runner.
//
// Wraps a console Table plus a CSV archive (bench_results/<name>.csv) and
// standardises the banner (seed, scale, workers) so every experiment run is
// reproducible from its printout. The runner subsystem drives the same
// class with an explicit ExperimentOutput sink: a custom archive path,
// append mode (resumable sweeps continue an existing fragment), or console/
// CSV channels switched off individually.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace cobra::sim {

/// Where an Experiment's rows go. Defaults reproduce the historical
/// behaviour: truncate bench_results/<id>.csv and print the table on
/// finish().
struct ExperimentOutput {
  /// Archive path; empty means "bench_results/<id>.csv".
  std::string csv_path;
  /// When false no CSV is written at all (console-only rendering).
  bool write_csv = true;
  /// Reopen an existing archive instead of truncating it (resume state:
  /// rows already on disk are kept and new rows are appended).
  bool append = false;
  /// Print banner + table + notes to stdout on finish().
  bool console = true;
};

class Experiment {
 public:
  /// `id` names the experiment (e.g. "exp_hypercube"); `title` is the
  /// paper claim being reproduced; `columns` is the shared table/CSV header.
  Experiment(std::string id, std::string title,
             std::vector<std::string> columns);
  Experiment(std::string id, std::string title,
             std::vector<std::string> columns, const ExperimentOutput& out);

  /// Starts a new row (mirrored to CSV).
  Experiment& row();
  Experiment& add(const std::string& cell);
  Experiment& add(const char* cell);
  Experiment& add(double value, int decimals = 3);
  Experiment& add(std::int64_t value);
  Experiment& add(std::uint64_t value);
  Experiment& add(int value);

  /// Adds one cell with independent console and CSV representations. The
  /// runner uses this to replay buffered cell rows without re-deriving the
  /// per-column decimal formatting.
  Experiment& add_formatted(const std::string& console_text,
                            const std::string& csv_text);

  /// Horizontal rule in the console table.
  Experiment& rule();

  /// Free-form note printed under the table (e.g. fitted exponents).
  void note(const std::string& text);

  /// Prints banner + table + notes to stdout (unless the output sink
  /// disabled the console) and closes the CSV.
  void finish();

 private:
  std::string id_;
  std::string title_;
  util::Table table_;
  std::string csv_path_;
  std::unique_ptr<util::CsvWriter> csv_;
  std::vector<std::string> notes_;
  bool console_ = true;
  bool finished_ = false;
};

/// Default replicate count scaled by COBRA_SCALE.
std::uint64_t default_replicates(std::uint64_t base);

}  // namespace cobra::sim
