// The cross-thread-count equivalence wall for in-round kernel
// parallelism (core/frontier_kernel.hpp): at a fixed seed, every
// observable of every frontier-kernel process is bit-for-bit identical
// at every kernel_threads setting — the lane count partitions work, it
// never partitions randomness. Checked here for COBRA, BIPS and the
// set-protocol baselines across the sparse/dense/auto engines, on
// fixtures that include the degenerate single-vertex graph, a graph
// whose bitset straddles a word boundary (n = 65), and a graph ingested
// from a .cgr file — the path production sweeps take.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/flooding.hpp"
#include "baselines/pull_gossip.hpp"
#include "baselines/push_gossip.hpp"
#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "core/frontier_kernel.hpp"
#include "graph/binary_io.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "graph/spec.hpp"
#include "rng/stream.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace cobra::core {
namespace {

constexpr int kLaneCounts[] = {2, 3, 8};
constexpr Engine kFastEngines[] = {Engine::kSparse, Engine::kDense,
                                   Engine::kAuto};

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<graph::Graph> fixture_graphs() {
  rng::Rng gen = rng::make_stream(7117, 0);
  std::vector<graph::Graph> graphs;
  {
    graph::GraphBuilder b(1);  // the degenerate n = 1 edge case
    graphs.push_back(std::move(b).build());
  }
  // 65 vertices: the frontier bitset spills one bit into a second word,
  // so every word-range partition has a ragged tail to get right.
  graphs.push_back(graph::cycle(65));
  graphs.push_back(graph::hypercube(7));
  graphs.push_back(graph::connected_random_regular(192, 6, gen));
  return graphs;
}

std::vector<graph::VertexId> sorted_active(const CobraProcess& p) {
  std::vector<graph::VertexId> v = p.active();
  std::sort(v.begin(), v.end());
  return v;
}

/// Lockstep bit-for-bit comparison of a serial process against a
/// lane-parallel one: every observable must agree every round.
void expect_cobra_lockstep(CobraProcess& serial, CobraProcess& lanes,
                           std::uint64_t seed, int max_rounds) {
  rng::Rng rng_a = rng::make_stream(seed, 0);
  rng::Rng rng_b = rng::make_stream(seed, 0);
  serial.reset(graph::VertexId{0});
  lanes.reset(graph::VertexId{0});
  for (int t = 0; t < max_rounds && !serial.all_visited(); ++t) {
    ASSERT_EQ(serial.step(rng_a), lanes.step(rng_b)) << "round " << t;
    ASSERT_EQ(serial.num_active(), lanes.num_active()) << "round " << t;
    ASSERT_EQ(serial.num_visited(), lanes.num_visited()) << "round " << t;
    ASSERT_EQ(serial.transmissions(), lanes.transmissions())
        << "round " << t;
    ASSERT_EQ(sorted_active(serial), sorted_active(lanes)) << "round " << t;
    for (graph::VertexId u = 0; u < serial.graph().num_vertices(); ++u) {
      ASSERT_EQ(serial.is_visited(u), lanes.is_visited(u)) << "round " << t;
      ASSERT_EQ(serial.is_active(u), lanes.is_active(u)) << "round " << t;
    }
  }
  EXPECT_EQ(serial.round(), lanes.round());
  EXPECT_EQ(serial.all_visited(), lanes.all_visited());
}

void expect_cobra_thread_invariant(const graph::Graph& g,
                                   ProcessOptions base,
                                   std::uint64_t seed) {
  ProcessOptions serial_opt = base;
  serial_opt.kernel_threads = 1;
  for (const int threads : kLaneCounts) {
    ProcessOptions lane_opt = base;
    lane_opt.kernel_threads = threads;
    CobraProcess serial(g, serial_opt);
    CobraProcess lanes(g, lane_opt);
    ASSERT_EQ(lanes.kernel_threads(), threads);
    expect_cobra_lockstep(serial, lanes, seed, 5000);
  }
}

TEST(KernelParallel, CobraBitForBitAcrossThreadCountsOnEveryEngine) {
  for (const graph::Graph& g : fixture_graphs()) {
    for (const Engine engine : kFastEngines) {
      ProcessOptions opt;
      opt.engine = engine;
      expect_cobra_thread_invariant(g, opt, 9100 + g.num_vertices());
    }
  }
}

TEST(KernelParallel, CobraThreadInvariantWithLazinessAndBranching) {
  const graph::Graph g = graph::hypercube(6);
  ProcessOptions opt;
  opt.engine = Engine::kDense;
  opt.laziness = 0.5;
  opt.branching = Branching::one_plus_rho(0.3);
  expect_cobra_thread_invariant(g, opt, 4711);
}

TEST(KernelParallel, CobraThreadInvariantAutoOnHypercube) {
  const graph::Graph g = graph::hypercube(6);
  ProcessOptions opt;
  opt.engine = Engine::kAuto;
  expect_cobra_thread_invariant(g, opt, 2222);
}

TEST(KernelParallel, CobraThreadInvariantOnIngestedGraph) {
  // The production path: a generated graph round-tripped through the
  // .cgr container and reloaded through the file: spec (mmap backend).
  const TempFile f("test_kernel_parallel_ingest.cgr");
  graph::write_cgr_file(graph::build_graph_spec("regular_128_r4"), f.path);
  const graph::Graph g = graph::build_graph_spec("file:" + f.path);
  for (const Engine engine : kFastEngines) {
    ProcessOptions opt;
    opt.engine = engine;
    expect_cobra_thread_invariant(g, opt, 31337);
  }
}

std::vector<graph::VertexId> sorted_infected(const BipsProcess& p) {
  std::vector<graph::VertexId> v = p.infected();
  std::sort(v.begin(), v.end());
  return v;
}

void expect_bips_lockstep(BipsProcess& serial, BipsProcess& lanes,
                          std::uint64_t seed, int max_rounds) {
  rng::Rng rng_a = rng::make_stream(seed, 0);
  rng::Rng rng_b = rng::make_stream(seed, 0);
  serial.reset(graph::VertexId{0});
  lanes.reset(graph::VertexId{0});
  for (int t = 0; t < max_rounds && !serial.fully_infected(); ++t) {
    ASSERT_EQ(serial.step(rng_a), lanes.step(rng_b)) << "round " << t;
    ASSERT_EQ(sorted_infected(serial), sorted_infected(lanes))
        << "round " << t;
    for (graph::VertexId u = 0; u < serial.graph().num_vertices(); ++u)
      ASSERT_EQ(serial.is_infected(u), lanes.is_infected(u))
          << "round " << t;
  }
  EXPECT_EQ(serial.round(), lanes.round());
  EXPECT_EQ(serial.fully_infected(), lanes.fully_infected());
}

TEST(KernelParallel, BipsBitForBitAcrossThreadCountsOnEveryEngine) {
  for (const graph::Graph& g : fixture_graphs()) {
    if (g.num_vertices() < 2) continue;  // BIPS needs min degree >= 1
    for (const Engine engine : kFastEngines) {
      for (const int threads : kLaneCounts) {
        BipsOptions serial_opt;
        serial_opt.process.engine = engine;
        serial_opt.process.kernel_threads = 1;
        BipsOptions lane_opt = serial_opt;
        lane_opt.process.kernel_threads = threads;
        BipsProcess serial(g, 0, serial_opt);
        BipsProcess lanes(g, 0, lane_opt);
        expect_bips_lockstep(serial, lanes, 5500 + g.num_vertices(), 5000);
      }
    }
  }
}

TEST(KernelParallel, BipsThreadInvariantWithLaziness) {
  // Laziness exercises the dense boundary-marking round's "self already
  // infected" determination, which runs through the marked local scan.
  const graph::Graph g = graph::hypercube(6);
  for (const int threads : kLaneCounts) {
    BipsOptions serial_opt;
    serial_opt.process.engine = Engine::kDense;
    serial_opt.process.laziness = 0.5;
    serial_opt.process.kernel_threads = 1;
    BipsOptions lane_opt = serial_opt;
    lane_opt.process.kernel_threads = threads;
    BipsProcess serial(g, 0, serial_opt);
    BipsProcess lanes(g, 0, lane_opt);
    expect_bips_lockstep(serial, lanes, 616, 5000);
  }
}

template <typename Result>
void expect_same_result(const Result& a, const Result& b,
                        const char* what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.transmissions, b.transmissions) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
}

TEST(KernelParallel, FloodingBitForBitAcrossThreadCounts) {
  for (const graph::Graph& g : fixture_graphs()) {
    for (const Engine engine : kFastEngines) {
      baselines::BaselineOptions serial_opt;
      serial_opt.engine = engine;
      serial_opt.kernel_threads = 1;
      const auto serial = baselines::flooding_cover(g, 0, 10000, serial_opt);
      for (const int threads : kLaneCounts) {
        baselines::BaselineOptions lane_opt = serial_opt;
        lane_opt.kernel_threads = threads;
        const auto lanes = baselines::flooding_cover(g, 0, 10000, lane_opt);
        expect_same_result(serial, lanes, g.name().c_str());
      }
    }
  }
}

TEST(KernelParallel, PushGossipBitForBitAcrossThreadCounts) {
  for (const graph::Graph& g : fixture_graphs()) {
    if (g.num_vertices() < 2) continue;  // gossip needs min degree >= 1
    for (const Engine engine : kFastEngines) {
      baselines::BaselineOptions serial_opt;
      serial_opt.engine = engine;
      serial_opt.kernel_threads = 1;
      rng::Rng rng_a = rng::make_stream(8118, g.num_vertices());
      const auto serial =
          baselines::push_gossip_cover(g, 0, rng_a, 100000, serial_opt);
      ASSERT_TRUE(serial.completed) << g.name();
      for (const int threads : kLaneCounts) {
        baselines::BaselineOptions lane_opt = serial_opt;
        lane_opt.kernel_threads = threads;
        rng::Rng rng_b = rng::make_stream(8118, g.num_vertices());
        const auto lanes =
            baselines::push_gossip_cover(g, 0, rng_b, 100000, lane_opt);
        expect_same_result(serial, lanes, g.name().c_str());
      }
    }
  }
}

TEST(KernelParallel, PullAndPushPullGossipBitForBitAcrossThreadCounts) {
  for (const graph::Graph& g : fixture_graphs()) {
    if (g.num_vertices() < 2) continue;
    for (const Engine engine : {Engine::kDense, Engine::kAuto}) {
      baselines::BaselineOptions serial_opt;
      serial_opt.engine = engine;
      serial_opt.kernel_threads = 1;
      rng::Rng pull_a = rng::make_stream(414, g.num_vertices());
      const auto pull_serial =
          baselines::pull_gossip_cover(g, 0, pull_a, 100000, serial_opt);
      rng::Rng pp_a = rng::make_stream(515, g.num_vertices());
      const auto pp_serial = baselines::push_pull_gossip_cover(
          g, 0, pp_a, 100000, serial_opt);
      for (const int threads : kLaneCounts) {
        baselines::BaselineOptions lane_opt = serial_opt;
        lane_opt.kernel_threads = threads;
        rng::Rng pull_b = rng::make_stream(414, g.num_vertices());
        expect_same_result(
            pull_serial,
            baselines::pull_gossip_cover(g, 0, pull_b, 100000, lane_opt),
            g.name().c_str());
        rng::Rng pp_b = rng::make_stream(515, g.num_vertices());
        expect_same_result(pp_serial,
                           baselines::push_pull_gossip_cover(
                               g, 0, pp_b, 100000, lane_opt),
                           g.name().c_str());
      }
    }
  }
}

TEST(KernelParallel, KernelThreadsResolvesFromSession) {
  util::clear_env_overrides();
  EXPECT_EQ(resolve_kernel_threads(0), 1);  // session default is serial
  util::set_kernel_threads_override(4);
  EXPECT_EQ(resolve_kernel_threads(0), 4);
  // An explicit option always wins over the session setting.
  EXPECT_EQ(resolve_kernel_threads(2), 2);
  util::clear_env_overrides();

  // The resolved count reaches the kernel through every process type.
  const graph::Graph g = graph::cycle(8);
  ProcessOptions opt;
  opt.kernel_threads = 3;
  EXPECT_EQ(CobraProcess(g, opt).kernel_threads(), 3);
  util::set_kernel_threads_override(2);
  EXPECT_EQ(CobraProcess(g).kernel_threads(), 2);
  util::clear_env_overrides();
  EXPECT_EQ(CobraProcess(g).kernel_threads(), 1);
}

TEST(KernelParallel, MoreLanesThanWordsOrVerticesIsSafe) {
  // 8 lanes against a 1-word bitset / a 2-vertex frontier: the partition
  // degenerates to fewer (non-empty) ranges and the results still match.
  const graph::Graph g = graph::path(2);
  for (const Engine engine : kFastEngines) {
    ProcessOptions opt;
    opt.engine = engine;
    expect_cobra_thread_invariant(g, opt, 77);
  }
}

}  // namespace
}  // namespace cobra::core
