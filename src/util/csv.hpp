// Minimal CSV writing/reading for experiment result archiving.
//
// Every experiment run by `cobra run` writes its rows to
// bench_results/<name>.csv so EXPERIMENTS.md numbers are regenerable and
// plottable. The runner
// subsystem additionally appends to per-shard fragments (resume) and reads
// them back (merge), so the writer supports reopening an existing archive
// and a small reader understands the writer's quoting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cobra::util {

class CsvWriter {
 public:
  enum class Mode {
    kTruncate,  // start a fresh file (header is always written)
    kAppend,    // reopen an existing archive; validates the stored header
  };

  /// Opens `path` for writing (directories are created as needed) and emits
  /// the header line. In kAppend mode an existing non-empty file is
  /// continued instead: its header must equal `header` (COBRA_CHECK) and no
  /// second header line is written. Throws CheckError on I/O failure.
  CsvWriter(const std::string& path, std::vector<std::string> header,
            Mode mode = Mode::kTruncate);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  CsvWriter& row();
  CsvWriter& add(const std::string& cell);
  CsvWriter& add(double value);
  CsvWriter& add(std::int64_t value);
  CsvWriter& add(std::uint64_t value);
  CsvWriter& add(int value) { return add(static_cast<std::int64_t>(value)); }

  /// Writes one complete row of already-formatted cells (merge/replay).
  CsvWriter& add_row(const std::vector<std::string>& cells);

  /// Flushes buffered rows to disk without closing (resume journaling).
  void flush();

  /// Flushes and closes; further writes are invalid.
  void close();

 private:
  void end_row_if_open();

  struct Impl;
  Impl* impl_ = nullptr;
};

/// Quotes a CSV field if it contains separators/quotes/newlines.
std::string csv_escape(const std::string& field);

/// A parsed CSV file: header plus data rows of unescaped cell values.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::size_t num_rows() const { return rows.size(); }

  /// Index of a header column; throws CheckError when absent.
  [[nodiscard]] std::size_t column(const std::string& name) const;

  /// All values of one column, parsed as doubles.
  [[nodiscard]] std::vector<double> numeric_column(
      const std::string& name) const;
};

/// Parses a numeric CSV cell (0.0 on malformed input).
double csv_number(const std::string& cell);

/// Parses CSV text produced by CsvWriter (RFC-4180-style quoting, embedded
/// commas/quotes/newlines supported). The first record is the header.
CsvTable parse_csv(const std::string& text);

/// Reads and parses a CSV file. Throws CheckError if the file cannot be
/// opened.
CsvTable read_csv(const std::string& path);

}  // namespace cobra::util
