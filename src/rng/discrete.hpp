// Walker alias method for O(1) sampling from a fixed discrete distribution.
//
// Used by weighted-start experiments (sampling a start vertex proportional
// to degree, i.e. the random-walk stationary distribution), by the
// Barabasi-Albert generator, and as the construction behind the frontier
// kernel's lazy push slots (core/frontier_kernel.hpp), which copy each
// column's acceptance threshold and alias into one flat integer array and
// must pick what sample_word picks, word for word.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/rng.hpp"

namespace cobra::rng {

/// Immutable alias table over indices 0..n-1 with probabilities
/// proportional to the construction weights. Sampling is O(1), const and
/// lock-free, so one table may serve many threads.
class AliasTable {
 public:
  /// Builds the table from non-negative weights with a positive sum
  /// (Vose's numerically stable construction).
  explicit AliasTable(const std::vector<double>& weights);

  /// Samples an index with probability weight[i] / sum(weights), consuming
  /// two draws (column choice + acceptance test) from `rng`.
  [[nodiscard]] std::uint32_t sample(Rng& rng) const;

  /// Samples an index from a single uniform 64-bit word: the high 32 bits
  /// pick the column by fixed-point multiply, the low 32 bits run the
  /// acceptance test. Exact up to 2^-32 quantisation per draw — negligible
  /// against Monte-Carlo noise, and a pure function of `word`, which is
  /// what the counter-based COBRA engines need for replayable batched
  /// draws. Requires size() < 2^32.
  [[nodiscard]] std::uint32_t sample_word(std::uint64_t word) const {
    const auto column = static_cast<std::uint32_t>(
        ((word >> 32) * static_cast<std::uint64_t>(prob_.size())) >> 32);
    const double accept =
        static_cast<double>(word & 0xFFFFFFFFull) * 0x1.0p-32;
    return accept < prob_[column] ? column : alias_[column];
  }

  /// Number of indices in the distribution's support.
  [[nodiscard]] std::size_t size() const { return prob_.size(); }

  /// Acceptance threshold of `column` in [0, 1]: sample_word keeps the
  /// column when the low half of the word, read as a fraction of 2^32, is
  /// below it, and returns alias(column) otherwise.
  [[nodiscard]] double acceptance(std::uint32_t column) const {
    return prob_[column];
  }

  /// The index `column` falls back to when its acceptance test fails.
  [[nodiscard]] std::uint32_t alias(std::uint32_t column) const {
    return alias_[column];
  }

  /// Exact sampling probability of index i (for tests).
  [[nodiscard]] double probability(std::uint32_t i) const;

 private:
  std::vector<double> prob_;          // acceptance threshold per column
  std::vector<std::uint32_t> alias_;  // fallback index per column
  std::vector<double> weight_norm_;   // normalised input (for probability())
};

}  // namespace cobra::rng
