#include "graph/random_generators.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/algorithms.hpp"
#include "graph/spec.hpp"
#include "rng/stream.hpp"
#include "util/assert.hpp"

namespace cobra::graph {
namespace {

rng::Rng test_rng(std::uint64_t salt) { return rng::make_stream(777, salt); }

TEST(ErdosRenyi, EdgeCountConcentrates) {
  auto rng = test_rng(1);
  const VertexId n = 400;
  const double p = 0.05;
  const double expected =
      p * static_cast<double>(n) * (n - 1) / 2.0;  // ~3990
  double total = 0.0;
  constexpr int kSamples = 20;
  for (int s = 0; s < kSamples; ++s)
    total += static_cast<double>(erdos_renyi_gnp(n, p, rng).num_edges());
  const double mean = total / kSamples;
  // sd of one sample ~ sqrt(expected) ~ 63; mean of 20 has sd ~ 14.
  EXPECT_NEAR(mean, expected, 5 * std::sqrt(expected / kSamples));
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  auto rng = test_rng(2);
  EXPECT_EQ(erdos_renyi_gnp(50, 0.0, rng).num_edges(), 0u);
  const Graph dense = erdos_renyi_gnp(50, 1.0, rng);
  EXPECT_EQ(dense.num_edges(), 50u * 49 / 2);
}

TEST(ErdosRenyi, NoSelfLoopsOrDuplicates) {
  auto rng = test_rng(3);
  // Graph construction itself validates simplicity; build a few.
  for (int i = 0; i < 5; ++i)
    EXPECT_NO_THROW(erdos_renyi_gnp(200, 0.1, rng));
}

TEST(ErdosRenyi, SmallProbabilityStillWorks) {
  auto rng = test_rng(4);
  const Graph g = erdos_renyi_gnp(1000, 1e-5, rng);
  EXPECT_LT(g.num_edges(), 60u);  // expected ~5
}

TEST(ConnectedErdosRenyi, ProducesConnectedGraph) {
  auto rng = test_rng(5);
  const Graph g = connected_erdos_renyi(300, 2.0, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_vertices(), 300u);
}

TEST(RandomRegular, ExactDegrees) {
  auto rng = test_rng(6);
  for (const std::uint32_t r : {1u, 2u, 3u, 4u, 8u, 16u}) {
    const VertexId n = (r % 2 == 0) ? 101 : 100;  // n*r must be even
    const Graph g = random_regular(n, r, rng);
    EXPECT_TRUE(g.is_regular()) << "r=" << r;
    EXPECT_EQ(g.max_degree(), r) << "r=" << r;
    EXPECT_EQ(g.num_edges(), static_cast<std::uint64_t>(n) * r / 2);
  }
}

TEST(RandomRegular, LargeDegreeUsesRepairPath) {
  auto rng = test_rng(7);
  // r = 24: pairing rejection would essentially never succeed, so this
  // exercises the switch-repair fallback.
  const Graph g = random_regular(200, 24, rng);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 24u);
}

TEST(RandomRegular, RejectsOddProduct) {
  auto rng = test_rng(8);
  EXPECT_THROW(random_regular(7, 3, rng), util::CheckError);
  EXPECT_THROW(random_regular(5, 5, rng), util::CheckError);
}

TEST(ConnectedRandomRegular, Connected) {
  auto rng = test_rng(9);
  const Graph g = connected_random_regular(150, 3, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(g.is_regular());
}

TEST(WattsStrogatz, PreservesEdgeCount) {
  auto rng = test_rng(10);
  const VertexId n = 120;
  const std::uint32_t k = 6;
  for (const double beta : {0.0, 0.1, 0.5, 1.0}) {
    const Graph g = watts_strogatz(n, k, beta, rng);
    EXPECT_EQ(g.num_edges(), static_cast<std::uint64_t>(n) * k / 2)
        << "beta=" << beta;
  }
}

TEST(WattsStrogatz, BetaZeroIsRingLattice) {
  auto rng = test_rng(11);
  const Graph g = watts_strogatz(30, 4, 0.0, rng);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 29));
  EXPECT_TRUE(g.has_edge(0, 28));
}

TEST(WattsStrogatz, RewiringShrinksDiameter) {
  auto rng = test_rng(12);
  const Graph lattice = watts_strogatz(256, 4, 0.0, rng);
  const Graph small_world = watts_strogatz(256, 4, 0.3, rng);
  ASSERT_TRUE(is_connected(lattice));
  if (is_connected(small_world)) {
    EXPECT_LT(*exact_diameter(small_world), *exact_diameter(lattice));
  }
}

TEST(BarabasiAlbert, StructureAndConnectivity) {
  auto rng = test_rng(13);
  const Graph g = barabasi_albert(500, 3, rng);
  EXPECT_EQ(g.num_vertices(), 500u);
  // Seed star has 3 edges; each of the 496 later vertices adds 3.
  EXPECT_EQ(g.num_edges(), 3u + 496u * 3u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(g.min_degree(), 1u);
}

TEST(BarabasiAlbert, HubsEmerge) {
  auto rng = test_rng(14);
  const Graph g = barabasi_albert(800, 2, rng);
  // Preferential attachment produces a max degree far above the mean (~4).
  EXPECT_GT(g.max_degree(), 20u);
}

TEST(RandomGenerators, DeterministicGivenStream) {
  auto rng1 = test_rng(15);
  auto rng2 = test_rng(15);
  const Graph a = random_regular(60, 3, rng1);
  const Graph b = random_regular(60, 3, rng2);
  EXPECT_EQ(a.edges(), b.edges());
}

// Golden fingerprints recorded from the std::set-based generators. The
// pairing and rewiring code may change its data structures but never its
// RNG use, so every graph (and with it every archive and `file:` seed)
// must stay byte-identical.
TEST(RandomGenerators, GoldenRegularFingerprints) {
  const struct {
    const char* spec;
    std::uint64_t fingerprint;
  } cases[] = {
      {"regular_64_r3", 0xe0f7920724cb8c6eull},
      {"regular_512_r4", 0x99dc303f2de759f0ull},
      {"regular_1000_r5", 0x7f0b5749875cbec0ull},
      {"regular_1024_r8", 0x203729cf5d489d43ull},
      {"regular_4096_r8", 0xb3c39d9269dd225cull},
      // r > 8: shortened restart budget, then the repair path.
      {"regular_4096_r16", 0xf9d27ce29e70366aull},
      // r = 8 at scale: all restarts fail, the repair path builds it.
      {"regular_65536_r8", 0x8da53bc46ccdb929ull},
  };
  for (const auto& c : cases)
    EXPECT_EQ(build_graph_spec(c.spec).fingerprint(), c.fingerprint)
        << c.spec;
}

TEST(RandomGenerators, GoldenWattsStrogatzFingerprints) {
  const struct {
    VertexId n;
    std::uint32_t k;
    double beta;
    std::uint64_t seed;
    std::uint64_t fingerprint;
  } cases[] = {
      {64, 4, 0.0, 1, 0x5a81e5b3417eec5bull},
      {500, 6, 0.1, 2, 0xc02ea249a19ce960ull},
      {1000, 4, 0.5, 3, 0x138cd2b114a93febull},
      {4096, 10, 0.5, 4, 0x952e61e11d155073ull},
  };
  for (const auto& c : cases) {
    auto rng = rng::make_stream(c.seed, 0);
    EXPECT_EQ(watts_strogatz(c.n, c.k, c.beta, rng).fingerprint(),
              c.fingerprint)
        << "n=" << c.n << " k=" << c.k << " beta=" << c.beta;
  }
}

}  // namespace
}  // namespace cobra::graph
