// In-memory spans for the traced run, plus the small statistics helpers
// every workload shares.
//
// A span is recorded by the benchmark around one public call into a layer
// (graph, rng, core, sim, spectral, runner). Spans stay in memory while
// the workload runs and are written as JSON lines when it ends, so the
// trace costs one clock read per boundary and no I/O inside timed work.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;        ///< "<layer>.<call>", e.g. "core.step"
  std::uint64_t op = 0;    ///< the op (request) the span belongs to
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = none
  double start_s = 0.0;    ///< monotonic clock
  double end_s = 0.0;
  double cal_s = 0.0;      ///< calibrated duration
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Records a finished span; returns its index (-1 when disabled).
  std::int64_t add(Span span);

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// 64-bit FNV-1a, chained through `seed`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);
/// SplitMix64 finalizer: derives op inputs from the benchmark seed.
std::uint64_t mix64(std::uint64_t x);
std::string hex64(std::uint64_t value);

/// Named metric values with units, printed as the result's "metrics".
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
