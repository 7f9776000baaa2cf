// The process-agnostic frontier kernel (docs/ARCHITECTURE.md, "Frontier
// kernel"): the engine machinery shared by every spreading process in the
// library — COBRA, BIPS and the baselines (flooding, push/pull gossip,
// random walks).
//
// Three building blocks, all engine-order-invariant by construction:
//
//   * NeighborSampler — maps one 64-bit word to a push destination in O(1)
//     by slot arithmetic: each neighbour of u with probability
//     (1 - laziness)/deg(u), u itself with probability `laziness`. At
//     laziness 0 the slot is a fixed-point multiply and nothing is stored;
//     with laziness > 0 one flat array holds integer-threshold alias slots
//     (from rng/discrete's Vose tables) for each distinct degree, built
//     once per graph and shared across replicates and threads (sampling is
//     const and lock-free).
//
//   * VertexDraws — a counter-based randomness stream for one (round,
//     entity) pair, where the entity is a vertex id (set processes) or a
//     particle index (walks). Word k is a pure function of (round_key,
//     entity, k) — two SplitMix64 finalizer rounds — so engines may
//     process entities in any order, or any frontier representation, and
//     still make identical random choices. This is what makes the engines
//     of one process bit-for-bit equivalent at a fixed seed.
//
//   * FrontierKernel — the dual sparse/dense frontier state machine: a
//     vector frontier with epoch-stamped O(1) membership, a bitset
//     frontier with word-parallel commit, the auto density switch (at
//     kDenseDensity · n, with 2x hysteresis), and the visited accumulator
//     with branch-free popcount merges. Processes express only their
//     per-entity policy (what an active vertex does with its draws); the
//     kernel owns representation, deduplication, mode transitions and
//     first-visit counting.
//
// Round protocol of a kernel process (see CobraProcess::step for the
// canonical use):
//   1. draw one 64-bit round key from the replicate stream;
//   2. dense = begin_round(score)  — pick this round's representation;
//   3. iterate (for_each_in_frontier / for_each_outside_frontier / a
//      process-owned entity range), derive randomness via draws(key,
//      entity), and emit next-frontier vertices into the matching sink;
//   4. commit(kReplace | kAccumulate) — swap or grow the frontier, merge
//      the visited set, return the number of first visits.
//
// Sink flavours (sparse rounds; dense rounds always use DenseSink):
//   * CoalescingSink — deduplicates within the round via epoch stamps
//     (COBRA's coalescing rule) and counts first visits;
//   * GrowthSink     — deduplicates against the visited set (monotone
//     processes: flooding layers, gossip);
//   * PlainSink      — no deduplication; for processes that emit each
//     vertex at most once per round by construction (BIPS).
//
// In-round parallelism (docs/ARCHITECTURE.md, "Frontier kernel"): dense
// rounds can fan their scans and the commit merge out over
// Config::kernel_threads worker lanes. The frontier bitset (or the active
// vector / vertex range) is partitioned into contiguous word ranges, each
// lane derives the same keyed per-vertex draws the serial kernel would and
// emits into lane-owned scratch words, and the scratch is OR-merged — all
// of which commutes, so results are bit-for-bit identical at every lane
// count. Lane telemetry goes to lane-local StepMetrics blocks folded after
// the join; the hot path never touches a shared counter.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "core/metrics.hpp"
#include "core/process.hpp"
#include "graph/graph.hpp"
#include "rng/splitmix64.hpp"
#include "util/bitset.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace cobra::core {

/// A contiguous range of indices [begin, end) — 64-bit words of a frontier
/// bitset, or plain vertex/slot indices, depending on the scan.
struct WordRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Deterministically partitions [0, words) into at most `lanes` contiguous,
/// non-empty ranges of near-equal size: the first `words % count` ranges
/// get one extra word, where count = min(lanes, words). Pure function of
/// (words, lanes) — the property tests assert the ranges tile [0, words)
/// exactly once for adversarial combinations. Returns no ranges when
/// `words` is 0.
std::vector<WordRange> partition_word_ranges(std::size_t words, int lanes);

/// O(1) push-destination sampler: one 64-bit word to one destination by
/// slot arithmetic.
///
/// The high half of the word picks a slot by fixed-point multiply (the
/// column pick of rng::AliasTable::sample_word). At laziness 0 the slot
/// is the neighbour index itself and no table exists. With laziness > 0 a
/// vertex of degree d has d + 1 slots (slot d = stay put), and each slot
/// carries an integer acceptance threshold for the low half of the word
/// plus an alias slot, taken from the Vose table of that push
/// distribution; the slots of every distinct degree sit in one flat
/// array. Destinations are bit-identical to an rng::AliasTable over the
/// same weights, word for word.
///
/// Immutable after construction; safe to share across threads and
/// replicates via ProcessOptions::sampler. A vertex of degree 0 (only legal
/// in the single-vertex graph) always "pushes" to itself.
class NeighborSampler {
 public:
  /// With laziness 0 builds nothing; with laziness > 0 builds the slots of
  /// every distinct degree of `g`. The sampler keeps a reference to the
  /// graph, which must outlive it.
  NeighborSampler(const graph::Graph& g, double laziness);

  /// Maps a uniform 64-bit `word` to the destination of one push from `u`:
  /// each neighbour with probability (1 - laziness)/deg(u), u itself with
  /// probability `laziness`, exact up to 2^-32 fixed-point quantisation —
  /// far below Monte-Carlo noise, and identical across engines by design.
  [[nodiscard]] graph::VertexId sample(graph::VertexId u,
                                       std::uint64_t word) const {
    const std::uint32_t degree = graph_->degree(u);
    if (degree == 0) return u;
    const std::uint64_t high = word >> 32;
    if (slots_.empty())  // laziness 0: the slot is the neighbour index
      return graph_->neighbor(
          u, static_cast<std::uint32_t>((high * degree) >> 32));
    const auto column =
        static_cast<std::uint32_t>((high * (degree + 1ull)) >> 32);
    const Slot& s = slots_[slot_offset_[degree] + column];
    const std::uint32_t slot =
        (word & 0xFFFFFFFFull) < s.threshold ? column : s.alias;
    return slot < degree ? graph_->neighbor(u, slot) : u;
  }

  /// The laziness the sampler was built for (validated against
  /// ProcessOptions::laziness when a shared sampler is injected).
  [[nodiscard]] double laziness() const { return laziness_; }

  /// The graph the sampler was built for.
  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }

  /// Number of lazy slots held, over all distinct degrees; 0 at laziness 0
  /// (introspection/tests).
  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }

 private:
  // One alias-table column: keep the column when the low half of the word
  // is below `threshold` = ceil(acceptance · 2^32) — exactly the double
  // test of AliasTable::sample_word, as scaling by 2^32 is exact — else
  // take `alias`.
  struct Slot {
    std::uint64_t threshold;
    std::uint32_t alias;
  };

  const graph::Graph* graph_;
  double laziness_;
  std::vector<std::size_t> slot_offset_;  // degree -> first slot in slots_
  std::vector<Slot> slots_;               // empty at laziness 0
};

/// Counter-based per-entity randomness for one round of a kernel process.
///
/// Produces an unlimited 64-bit word stream that is a pure function of
/// (round_key, entity, word index): word k = mix64(base + k·C2) with
/// base = mix64(round_key + (entity+1)·C1) — two SplitMix64 finalizer
/// rounds from inputs to output, Weyl-spaced in both the entity and the
/// word index (the same structure the SplitMix64 generator itself uses).
class VertexDraws {
 public:
  /// Binds the stream to this round's key and one entity (vertex id or
  /// particle index).
  VertexDraws(std::uint64_t round_key, std::uint32_t entity)
      : base_(rng::mix64(round_key +
                         (static_cast<std::uint64_t>(entity) + 1) *
                             0x9E3779B97F4A7C15ull)) {}

  /// The next 64-bit word of this entity's round stream.
  std::uint64_t next_word() {
    return rng::mix64(base_ + (counter_++) * 0xD1B54A32D192ED03ull);
  }

  /// Uniform double in [0, 1) with 53 bits (same mapping as rng::Rng).
  double uniform01() {
    return static_cast<double>(next_word() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial; consumes one word unless p <= 0 or p >= 1 (the same
  /// short-circuits as rng::Rng::bernoulli).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

 private:
  std::uint64_t base_;
  std::uint64_t counter_ = 0;
};

/// The dual sparse/dense frontier state machine shared by every spreading
/// process (see the file comment for the round protocol).
///
/// Not thread-safe; one kernel per process instance, one process per
/// replicate (sim/monte_carlo does this).
class FrontierKernel {
 public:
  /// kAuto's switch rule for density_score(): a round runs dense once the
  /// frontier reaches this fraction of n, and returns to sparse below half
  /// of it (2x hysteresis).
  static constexpr double kDenseDensity = 1.0 / 32.0;

  /// Construction parameters; `engine` must be resolved (not kDefault —
  /// callers run core::resolve_engine first so the session default is
  /// applied exactly once).
  struct Config {
    /// Resolved stepping engine (kReference behaves like kSparse at the
    /// representation level: the kernel never picks a dense round for it).
    Engine engine = Engine::kAuto;
    /// Laziness the sampler is built with (when the kernel builds one).
    double laziness = 0.0;
    /// Build a NeighborSampler when none is shared. Processes that never
    /// sample destinations (flooding) or draw sequentially (COBRA's legacy
    /// reference engine) skip the construction cost.
    bool build_sampler = true;
    /// Track the first-visit accumulator (visited set + count). BIPS turns
    /// this off: its infected set is not monotone and full infection is
    /// detected from the frontier size alone.
    bool track_visited = true;
    /// Resolved in-round worker-lane count (>= 1; processes run
    /// core::resolve_kernel_threads on ProcessOptions::kernel_threads
    /// first). 1 keeps every scan on the calling thread; above 1 the dense
    /// scans and the commit merge fan out over a kernel-owned thread pool
    /// of kernel_threads - 1 workers (the calling thread drives lane 0).
    /// Bit-for-bit identical results at every setting.
    int kernel_threads = 1;
    /// Optional pre-built sampler shared across replicates; must match the
    /// kernel's graph and laziness.
    std::shared_ptr<const NeighborSampler> sampler;
    /// Telemetry block (non-owning; must outlive the kernel). When null,
    /// the kernel attaches to the calling thread's session collector iff
    /// the session metrics mode is not "off" (core/metrics.hpp); when that
    /// is off too, every instrumented site reduces to one untaken branch.
    StepMetrics* metrics = nullptr;
  };

  /// The graph must outlive the kernel. Throws util::CheckError when a
  /// shared sampler does not match the graph/laziness.
  FrontierKernel(const graph::Graph& g, const Config& config);

  /// The graph the kernel walks on.
  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }

  /// The resolved stepping engine.
  [[nodiscard]] Engine engine() const { return engine_; }

  /// The destination sampler (only valid when built or shared).
  [[nodiscard]] const NeighborSampler& sampler() const { return *sampler_; }

  /// The shareable sampler handle (null when build_sampler was off and no
  /// sampler was shared).
  [[nodiscard]] std::shared_ptr<const NeighborSampler> shared_sampler()
      const {
    return sampler_;
  }

  /// The keyed word stream of `entity` for the round keyed by `round_key`.
  [[nodiscard]] VertexDraws draws(std::uint64_t round_key,
                                  std::uint32_t entity) const {
    if (metrics_ != nullptr) ++metrics_->draw_streams;
    return VertexDraws(round_key, entity);
  }

  /// The attached telemetry block (null when telemetry is off). Processes
  /// use this to add their own counters (e.g. COBRA's emissions) without
  /// re-deriving the session attachment.
  [[nodiscard]] StepMetrics* metrics() const { return metrics_; }

  // --- frontier lifecycle ------------------------------------------------

  /// Resets the kernel: frontier = deduplicated `starts` (sparse
  /// representation), visited = starts (when tracked), dense round counter
  /// cleared.
  void assign(std::span<const graph::VertexId> starts);

  /// |frontier| in O(1).
  [[nodiscard]] std::uint32_t frontier_size() const { return num_active_; }

  /// True iff u is in the current frontier (O(1) in either
  /// representation).
  [[nodiscard]] bool in_frontier(graph::VertexId u) const {
    return dense_repr_ ? frontier_.test(u) : stamp_[u] == epoch_;
  }

  /// The current frontier as a vector. Order is representation-dependent:
  /// insertion order after sparse rounds, ascending vertex id when the
  /// dense bitset produced it (materialised lazily — prefer
  /// frontier_size() when only the size is needed).
  [[nodiscard]] const std::vector<graph::VertexId>& frontier_vector() const;

  /// Calls fn(u) for every frontier vertex: insertion order in the sparse
  /// representation, ascending id in the dense one.
  template <typename Fn>
  void for_each_in_frontier(Fn&& fn) const {
    if (dense_repr_) {
      if (metrics_ != nullptr)
        metrics_->words_scanned += frontier_.words().size();
      frontier_.for_each_set(
          [&](std::size_t u) { fn(static_cast<graph::VertexId>(u)); });
    } else {
      for (const graph::VertexId u : active_) fn(u);
    }
  }

  /// Calls fn(u) for every vertex NOT in the frontier, ascending. Dense
  /// representation scans complement words (O(n/64 + output)); sparse
  /// falls back to a full stamp scan (O(n)) — pull-style processes switch
  /// to dense precisely to make this cheap.
  template <typename Fn>
  void for_each_outside_frontier(Fn&& fn) const {
    const std::size_t n = graph_->num_vertices();
    if (dense_repr_) {
      const auto& words = frontier_.words();
      if (metrics_ != nullptr) metrics_->words_scanned += words.size();
      for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = ~words[w];
        if ((w << 6) + 64 > n) bits &= (1ull << (n & 63)) - 1;  // tail
        while (bits != 0) {
          const auto tz = static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          fn(static_cast<graph::VertexId>((w << 6) + tz));
        }
      }
    } else {
      for (graph::VertexId u = 0; u < n; ++u)
        if (stamp_[u] != epoch_) fn(u);
    }
  }

  /// True iff the current frontier lives in the dense (bitset)
  /// representation.
  [[nodiscard]] bool dense_mode() const { return dense_repr_; }

  /// Rounds committed with the dense representation since assign() —
  /// introspection for tests and the auto-switch benchmarks.
  [[nodiscard]] std::uint64_t dense_rounds() const { return dense_rounds_; }

  // --- visited accumulator -----------------------------------------------

  /// True iff u was ever in a committed frontier (requires track_visited).
  [[nodiscard]] bool is_visited(graph::VertexId u) const {
    return visited_.test(u);
  }

  /// Number of distinct vertices ever in a frontier.
  [[nodiscard]] std::uint32_t num_visited() const { return visited_count_; }

  /// True iff every vertex has been visited.
  [[nodiscard]] bool all_visited() const {
    return visited_count_ == graph_->num_vertices();
  }

  // --- round transaction -------------------------------------------------

  /// The auto-switch score for a frontier of `count` vertices: count /
  /// (kDenseDensity · n), the rule COBRA uses. Processes with a different
  /// cost model (BIPS) pass their own score to begin_round.
  [[nodiscard]] double density_score(std::uint32_t count) const;

  /// Starts a round and returns true when it runs dense: always for
  /// kDense, never for kReference/kSparse, and for kAuto when `score`
  /// reaches 1 (entry) or stays above 0.5 while already dense (the 2x
  /// hysteresis that prevents representation thrash). Prepares the
  /// matching next-frontier buffer; emit only into the matching sink
  /// flavour until commit().
  bool begin_round(double score);

  /// Sparse-round sink with COBRA's coalescing rule: at most one copy of a
  /// vertex per round (epoch-stamp deduplication), first visits counted at
  /// emit time.
  class CoalescingSink {
   public:
    /// Adds v to the next frontier unless it already coalesced this round.
    void emit(graph::VertexId v) {
      if (k_->stamp_[v] == k_->epoch_ + 1) {
        if (k_->metrics_ != nullptr) ++k_->metrics_->dedup_hits;
        return;
      }
      k_->stamp_[v] = k_->epoch_ + 1;
      k_->next_.push_back(v);
      if (k_->track_visited_ && k_->visited_.set_and_test(v))
        ++k_->round_newly_;
    }

   private:
    friend class FrontierKernel;
    explicit CoalescingSink(FrontierKernel* k) : k_(k) {}
    FrontierKernel* k_;
  };

  /// Sparse-round sink for monotone processes: only never-visited vertices
  /// enter the next frontier (deduplication against the visited set).
  class GrowthSink {
   public:
    /// Adds v to the next frontier iff it was never visited before.
    void emit(graph::VertexId v) {
      if (!k_->visited_.set_and_test(v)) {
        if (k_->metrics_ != nullptr) ++k_->metrics_->dedup_hits;
        return;
      }
      ++k_->round_newly_;
      k_->next_.push_back(v);
    }

   private:
    friend class FrontierKernel;
    explicit GrowthSink(FrontierKernel* k) : k_(k) {}
    FrontierKernel* k_;
  };

  /// Sparse-round sink with no deduplication, for processes that emit each
  /// vertex at most once per round by construction (BIPS iterates every
  /// vertex exactly once).
  class PlainSink {
   public:
    /// Adds v to the next frontier unconditionally.
    void emit(graph::VertexId v) { k_->next_.push_back(v); }

   private:
    friend class FrontierKernel;
    explicit PlainSink(FrontierKernel* k) : k_(k) {}
    FrontierKernel* k_;
  };

  /// Dense-round sink: sets the vertex's bit in the next-frontier bitset
  /// (idempotent — the bitset is the deduplication).
  class DenseSink {
   public:
    /// Marks v in the next frontier.
    void emit(graph::VertexId v) { k_->next_frontier_.set(v); }

   private:
    friend class FrontierKernel;
    explicit DenseSink(FrontierKernel* k) : k_(k) {}
    FrontierKernel* k_;
  };

  /// The coalescing sink for the in-flight sparse round.
  [[nodiscard]] CoalescingSink coalescing_sink() {
    round_stamped_ = true;
    return CoalescingSink(this);
  }

  /// The growth sink for the in-flight sparse round.
  [[nodiscard]] GrowthSink growth_sink() { return GrowthSink(this); }

  /// The plain sink for the in-flight sparse round.
  [[nodiscard]] PlainSink plain_sink() { return PlainSink(this); }

  /// The dense sink for the in-flight dense round.
  [[nodiscard]] DenseSink dense_sink() { return DenseSink(this); }

  /// Mutable word storage of the next-frontier bitset for word-parallel
  /// writers (the dense BIPS round initialises whole complement words in
  /// one pass). Only valid during a dense round; callers must keep bits at
  /// positions >= n clear, like util::DynamicBitset::data().
  [[nodiscard]] std::uint64_t* next_words() { return next_frontier_.data(); }

  // --- lane-parallel round scans -----------------------------------------
  //
  // Determinism contract: a scan's body must derive all randomness from
  // lane.draws(round_key, entity) — a pure function of (round_key, entity)
  // — and fold per-lane tallies through lane.user. Emitted bits OR
  // together and uint64 sums commute, so the scan's outcome is identical
  // at every kernel_threads value; only the wall-clock changes. The body
  // runs concurrently on several threads: it may read the kernel's
  // committed state (in_frontier, is_visited, the graph) but must not
  // write anything shared.

  /// The resolved in-round lane count (>= 1; Config::kernel_threads).
  [[nodiscard]] int kernel_threads() const { return threads_; }

  /// Per-lane emission context for the dense parallel scans: emits bits
  /// into the lane's target words (the shared destination for lane 0 and
  /// local-write scans, a lane-owned scratch bitset otherwise), derives
  /// keyed draw streams, and buffers telemetry in a lane-local StepMetrics
  /// block folded into the kernel's after the join — the hot path never
  /// touches a shared counter.
  class DenseLane {
   public:
    /// Marks v in the lane's target bitset (idempotent, like DenseSink).
    void emit(graph::VertexId v) { words_[v >> 6] |= 1ull << (v & 63); }

    /// The keyed word stream of `entity` — identical to
    /// FrontierKernel::draws, with lane-local stream accounting.
    [[nodiscard]] VertexDraws draws(std::uint64_t round_key,
                                    std::uint32_t entity) {
      ++block_.draw_streams;
      return VertexDraws(round_key, entity);
    }

    /// The lane's telemetry block (folded after the join, in lane order,
    /// so session totals match the serial kernel's exactly).
    [[nodiscard]] StepMetrics& metrics() { return block_; }

    /// Process-owned tally (e.g. COBRA transmissions); the scan returns
    /// the lane-ordered sum over all lanes.
    std::uint64_t user = 0;

   private:
    friend class FrontierKernel;
    explicit DenseLane(std::uint64_t* words) : words_(words) {}
    std::uint64_t* words_;
    StepMetrics block_;
  };

  /// Per-lane emission context for plain_vertex_scan: emissions append to
  /// a lane-owned vector, concatenated in lane order after the join —
  /// reproducing the serial PlainSink emission order exactly.
  class SparseLane {
   public:
    /// Appends v to the lane's emission vector.
    void emit(graph::VertexId v) { out_->push_back(v); }

    /// The keyed word stream of `entity` (see DenseLane::draws).
    [[nodiscard]] VertexDraws draws(std::uint64_t round_key,
                                    std::uint32_t entity) {
      ++block_.draw_streams;
      return VertexDraws(round_key, entity);
    }

    /// The lane's telemetry block (folded after the join).
    [[nodiscard]] StepMetrics& metrics() { return block_; }

    /// Process-owned tally; the scan returns the lane-ordered sum.
    std::uint64_t user = 0;

   private:
    friend class FrontierKernel;
    explicit SparseLane(std::vector<graph::VertexId>* out) : out_(out) {}
    std::vector<graph::VertexId>* out_;
    StepMetrics block_;
  };

  /// Lane-parallel scatter scan of the current frontier during a dense
  /// round: body(lane, u) runs for every frontier vertex (word order in
  /// the dense representation, insertion order in the sparse one — the
  /// same orders the serial for_each_in_frontier uses) and may emit ANY
  /// vertex; per-lane scratch plus an OR merge makes scattered emissions
  /// race-free. Emits land in the round's next frontier. Returns the
  /// lane-ordered sum of lane.user.
  template <typename Body>
  std::uint64_t scatter_frontier_scan(Body&& body) {
    return scatter_frontier_scan(next_frontier_, std::forward<Body>(body));
  }

  /// As above, but emitting into a caller-owned bitset (the BIPS boundary
  /// marking pass targets its scratch, not the next frontier). `dest` must
  /// be sized to the graph and hold the caller's intended base state.
  template <typename Body>
  std::uint64_t scatter_frontier_scan(util::DynamicBitset& dest,
                                      Body&& body) {
    if (dense_repr_) {
      const auto& words = frontier_.words();
      const std::vector<WordRange> ranges =
          partition_word_ranges(words.size(), threads_);
      return run_dense_lanes(
          static_cast<int>(ranges.size()), dest, /*local_writes=*/false,
          [&](int li, DenseLane& lane) {
            const WordRange r = ranges[static_cast<std::size_t>(li)];
            lane.metrics().words_scanned += r.end - r.begin;
            for (std::size_t w = r.begin; w < r.end; ++w) {
              std::uint64_t bits = words[w];
              while (bits != 0) {
                const auto tz =
                    static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                body(lane, static_cast<graph::VertexId>((w << 6) + tz));
              }
            }
          });
    }
    const std::vector<WordRange> ranges =
        partition_word_ranges(active_.size(), threads_);
    return run_dense_lanes(
        static_cast<int>(ranges.size()), dest, /*local_writes=*/false,
        [&](int li, DenseLane& lane) {
          const WordRange r = ranges[static_cast<std::size_t>(li)];
          for (std::size_t i = r.begin; i < r.end; ++i) body(lane, active_[i]);
        });
  }

  /// Lane-parallel scatter scan of the complement of the frontier during a
  /// dense round (the pull-gossip contact pass), ascending vertex order
  /// within each lane. Emits land in the round's next frontier; the
  /// explicit-dest overload serves the BIPS boundary marking. Returns the
  /// lane-ordered sum of lane.user.
  template <typename Body>
  std::uint64_t scatter_complement_scan(Body&& body) {
    return scatter_complement_scan(next_frontier_, std::forward<Body>(body));
  }

  template <typename Body>
  std::uint64_t scatter_complement_scan(util::DynamicBitset& dest,
                                        Body&& body) {
    const std::size_t n = graph_->num_vertices();
    const std::size_t nwords = (n + 63) >> 6;
    const std::vector<WordRange> ranges =
        partition_word_ranges(nwords, threads_);
    if (dense_repr_) {
      const auto& words = frontier_.words();
      return run_dense_lanes(
          static_cast<int>(ranges.size()), dest, /*local_writes=*/false,
          [&](int li, DenseLane& lane) {
            const WordRange r = ranges[static_cast<std::size_t>(li)];
            lane.metrics().words_scanned += r.end - r.begin;
            for (std::size_t w = r.begin; w < r.end; ++w) {
              std::uint64_t bits = ~words[w];
              if ((w << 6) + 64 > n) bits &= (1ull << (n & 63)) - 1;  // tail
              while (bits != 0) {
                const auto tz =
                    static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                body(lane, static_cast<graph::VertexId>((w << 6) + tz));
              }
            }
          });
    }
    return run_dense_lanes(
        static_cast<int>(ranges.size()), dest, /*local_writes=*/false,
        [&](int li, DenseLane& lane) {
          const WordRange r = ranges[static_cast<std::size_t>(li)];
          const std::size_t end = std::min(r.end << 6, n);
          for (std::size_t u = r.begin << 6; u < end; ++u)
            if (stamp_[u] != epoch_)
              body(lane, static_cast<graph::VertexId>(u));
        });
  }

  /// Lane-parallel scan of every vertex during a dense round (push-pull
  /// gossip: everyone contacts every round), ascending order within each
  /// lane; emissions may scatter. Returns the lane-ordered sum of
  /// lane.user.
  template <typename Body>
  std::uint64_t scatter_vertex_scan(Body&& body) {
    const std::size_t n = graph_->num_vertices();
    const std::vector<WordRange> ranges = partition_word_ranges(n, threads_);
    return run_dense_lanes(
        static_cast<int>(ranges.size()), next_frontier_,
        /*local_writes=*/false, [&](int li, DenseLane& lane) {
          const WordRange r = ranges[static_cast<std::size_t>(li)];
          for (std::size_t u = r.begin; u < r.end; ++u)
            body(lane, static_cast<graph::VertexId>(u));
        });
  }

  /// Lane-parallel scan of `marked`'s set bits during a dense round, with
  /// LOCAL writes: the body may emit only the vertex it was called with
  /// (or nothing), so every lane writes next-frontier words it alone owns
  /// and no scratch or merge is needed — emissions land directly in the
  /// next frontier, including on top of words pre-filled through
  /// next_words() (the BIPS complement install). `marked` must be sized to
  /// the graph. Returns the lane-ordered sum of lane.user.
  template <typename Body>
  std::uint64_t local_marked_scan(const util::DynamicBitset& marked,
                                  Body&& body) {
    const auto& words = marked.words();
    const std::vector<WordRange> ranges =
        partition_word_ranges(words.size(), threads_);
    return run_dense_lanes(
        static_cast<int>(ranges.size()), next_frontier_,
        /*local_writes=*/true, [&](int li, DenseLane& lane) {
          const WordRange r = ranges[static_cast<std::size_t>(li)];
          for (std::size_t w = r.begin; w < r.end; ++w) {
            std::uint64_t bits = words[w];
            while (bits != 0) {
              const auto tz = static_cast<std::size_t>(std::countr_zero(bits));
              bits &= bits - 1;
              body(lane, static_cast<graph::VertexId>((w << 6) + tz));
            }
          }
        });
  }

  /// Lane-parallel full-vertex scan for SPARSE rounds of processes that
  /// emit each vertex at most once, in ascending order (the BIPS sampling
  /// round): lanes cover ascending index ranges and their emission vectors
  /// are concatenated in lane order into the next frontier, reproducing
  /// the serial PlainSink order exactly. Returns the lane-ordered sum of
  /// lane.user.
  template <typename Body>
  std::uint64_t plain_vertex_scan(Body&& body) {
    const std::size_t n = graph_->num_vertices();
    const std::vector<WordRange> ranges = partition_word_ranges(n, threads_);
    return run_sparse_lanes(
        static_cast<int>(ranges.size()), [&](int li, SparseLane& lane) {
          const WordRange r = ranges[static_cast<std::size_t>(li)];
          for (std::size_t u = r.begin; u < r.end; ++u)
            body(lane, static_cast<graph::VertexId>(u));
        });
  }

  /// What commit() does with the next frontier.
  enum class Commit : std::uint8_t {
    kReplace,     ///< frontier = next (transient frontiers: COBRA, BIPS)
    kAccumulate,  ///< frontier |= next (monotone sets: gossip)
  };

  /// Ends the round: installs the next frontier per `policy`, merges it
  /// into the visited set (word-parallel with popcount in dense rounds)
  /// and returns the number of first visits this round (0 when visited
  /// tracking is off).
  std::uint32_t commit(Commit policy);

 private:
  /// Drives one dense scan across `lanes` lanes: lane 0 runs inline on the
  /// calling thread, lanes 1..lanes-1 on the kernel's pool. With
  /// local_writes every lane targets `dest` directly (the body's emissions
  /// stay inside the lane's own words); otherwise lanes >= 1 target
  /// per-lane scratch bitsets, zeroed at task start and OR-merged into
  /// `dest` in lane order after the join. Returns the lane-ordered sum of
  /// lane.user and folds lane telemetry into the kernel block.
  template <typename Task>
  std::uint64_t run_dense_lanes(int lanes, util::DynamicBitset& dest,
                                bool local_writes, Task&& task) {
    if (lanes <= 0) return 0;
    if (lanes == 1) {
      DenseLane lane(dest.data());
      task(0, lane);
      fold_lane(lane.block_);
      return lane.user;
    }
    ensure_lane_pool();
    if (!local_writes) ensure_lane_scratch(lanes - 1);
    std::vector<DenseLane> lane_objs;
    lane_objs.reserve(static_cast<std::size_t>(lanes));
    lane_objs.push_back(DenseLane(dest.data()));
    for (int i = 1; i < lanes; ++i)
      lane_objs.push_back(DenseLane(
          local_writes
              ? dest.data()
              : lane_scratch_[static_cast<std::size_t>(i - 1)].data()));
    std::vector<std::future<void>> pending;
    pending.reserve(static_cast<std::size_t>(lanes - 1));
    for (int i = 1; i < lanes; ++i)
      pending.push_back(
          pool_->submit([this, i, local_writes, &lane_objs, &task] {
            if (!local_writes)
              lane_scratch_[static_cast<std::size_t>(i - 1)].reset_all();
            task(i, lane_objs[static_cast<std::size_t>(i)]);
          }));
    task(0, lane_objs[0]);
    for (auto& f : pending) f.get();
    std::uint64_t user = 0;
    const std::size_t merge_words = dest.words().size();
    for (int i = 0; i < lanes; ++i) {
      DenseLane& lane = lane_objs[static_cast<std::size_t>(i)];
      if (!local_writes && i > 0)
        util::simd::or_words(
            dest.data(),
            lane_scratch_[static_cast<std::size_t>(i - 1)].data(),
            merge_words);
      user += lane.user;
      fold_lane(lane.block_);
    }
    return user;
  }

  /// Drives one sparse plain scan across `lanes` lanes: lane 0 appends to
  /// next_ inline, lanes >= 1 to per-lane vectors concatenated in lane
  /// order after the join. Returns the lane-ordered sum of lane.user.
  template <typename Task>
  std::uint64_t run_sparse_lanes(int lanes, Task&& task) {
    if (lanes <= 0) return 0;
    if (lanes == 1) {
      SparseLane lane(&next_);
      task(0, lane);
      fold_lane(lane.block_);
      return lane.user;
    }
    ensure_lane_pool();
    if (lane_out_.size() < static_cast<std::size_t>(lanes - 1))
      lane_out_.resize(static_cast<std::size_t>(lanes - 1));
    std::vector<SparseLane> lane_objs;
    lane_objs.reserve(static_cast<std::size_t>(lanes));
    lane_objs.push_back(SparseLane(&next_));
    for (int i = 1; i < lanes; ++i)
      lane_objs.push_back(
          SparseLane(&lane_out_[static_cast<std::size_t>(i - 1)]));
    std::vector<std::future<void>> pending;
    pending.reserve(static_cast<std::size_t>(lanes - 1));
    for (int i = 1; i < lanes; ++i)
      pending.push_back(pool_->submit([i, &lane_objs, &task] {
        lane_objs[static_cast<std::size_t>(i)].out_->clear();
        task(i, lane_objs[static_cast<std::size_t>(i)]);
      }));
    task(0, lane_objs[0]);
    for (auto& f : pending) f.get();
    std::uint64_t user = 0;
    for (int i = 0; i < lanes; ++i) {
      SparseLane& lane = lane_objs[static_cast<std::size_t>(i)];
      if (i > 0) next_.insert(next_.end(), lane.out_->begin(), lane.out_->end());
      user += lane.user;
      fold_lane(lane.block_);
    }
    return user;
  }

  /// Folds a lane's telemetry block into the kernel's (no-op when
  /// telemetry is off).
  void fold_lane(const StepMetrics& block) {
    if (metrics_ != nullptr) metrics_->merge_from(block);
  }

  /// Spins up the lane pool (threads_ - 1 workers) on first parallel scan.
  void ensure_lane_pool();

  /// Sizes `count` per-lane scratch bitsets to the graph (lazily; a
  /// serial-only run never pays).
  void ensure_lane_scratch(int count);

  /// The dense-commit visited merge over the next frontier's words, SIMD
  /// within ranges and fanned out over the lane pool when the word count
  /// warrants it (never affects the counters — lane sums are exact).
  void merge_visited_parallel(std::size_t words, std::uint64_t* newly,
                              std::uint64_t* active);

  /// The dense-accumulate merge: ORs the next frontier into `dst_words`
  /// counting newly set bits, parallel like merge_visited_parallel.
  std::uint64_t or_count_parallel(std::uint64_t* dst_words,
                                  std::size_t words);

  /// Folds one committed round into the attached telemetry block (only
  /// called when metrics_ is non-null).
  void record_commit(std::uint32_t newly);

  /// Rebuilds active_ (ascending) from the dense frontier when stale.
  void materialize_active() const;

  /// Leaves the dense representation: restores the sparse invariants
  /// (active_ valid, stamp_[u] == epoch_ exactly for frontier vertices).
  void to_sparse_repr();

  /// Sizes the dense bitsets on first use (sparse-only runs never pay).
  void ensure_bitsets();

  const graph::Graph* graph_;
  Engine engine_;
  bool track_visited_;
  std::shared_ptr<const NeighborSampler> sampler_;

  // Sparse frontier: a vector with epoch-stamped membership (stamp_[u] ==
  // epoch_ means u in the frontier; avoids an O(n) clear per round).
  // active_ doubles as the lazily materialised view of the dense frontier,
  // hence mutable.
  mutable std::vector<graph::VertexId> active_;
  std::vector<graph::VertexId> next_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;

  // Dense frontier: a bitset (valid iff dense_repr_), sized lazily.
  util::DynamicBitset frontier_;
  util::DynamicBitset next_frontier_;
  bool dense_repr_ = false;
  mutable bool active_valid_ = true;  // active_ mirrors the frontier
  std::uint32_t num_active_ = 0;
  std::uint64_t dense_rounds_ = 0;
  std::uint64_t rounds_committed_ = 0;  // since assign(); trajectory index

  // Lane-parallel machinery (only materialised when threads_ > 1 and a
  // parallel scan actually runs): the kernel-owned pool of threads_ - 1
  // workers, per-lane next-frontier scratch for scatter scans, and
  // per-lane emission vectors for the sparse plain scan.
  int threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<util::DynamicBitset> lane_scratch_;
  std::vector<std::vector<graph::VertexId>> lane_out_;

  // Attached telemetry block (Config::metrics, else the thread's session
  // block, else null). Owned elsewhere; mutated from const scans, hence
  // the pointee is non-const.
  StepMetrics* metrics_ = nullptr;

  // In-flight round state (between begin_round and commit).
  bool round_dense_ = false;
  bool round_stamped_ = false;    // a CoalescingSink pre-stamped next_
  std::uint32_t round_newly_ = 0;  // first visits counted by sparse sinks

  util::DynamicBitset visited_;
  std::uint32_t visited_count_ = 0;
};

}  // namespace cobra::core
