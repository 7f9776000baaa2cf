// Equivalence and correctness guarantees of the COBRA stepping engines
// (core/frontier_kernel.hpp):
//   * sparse, dense and auto are bit-for-bit identical at a fixed seed —
//     same visit sequence, same frontier sets, same counters — because all
//     per-vertex randomness is a pure function of (round key, vertex);
//   * the reference engine agrees with them in distribution (checked by
//     the shared invariants, not draw by draw);
//   * the push sampler reproduces the push-destination distribution,
//     including laziness, and picks what an alias table over the same
//     weights picks, word for word.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "core/cobra.hpp"
#include "core/frontier_kernel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/discrete.hpp"
#include "rng/stream.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace cobra::core {
namespace {

rng::Rng test_rng(std::uint64_t salt) { return rng::make_stream(2024, salt); }

std::vector<graph::Graph> fixture_graphs() {
  rng::Rng gen = test_rng(999);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::path(48));
  graphs.push_back(graph::cycle(64));
  graphs.push_back(graph::hypercube(7));
  graphs.push_back(graph::connected_random_regular(256, 6, gen));
  graphs.push_back(graph::complete(96));
  return graphs;
}

std::vector<graph::VertexId> sorted_active(const CobraProcess& p) {
  std::vector<graph::VertexId> v = p.active();
  std::sort(v.begin(), v.end());
  return v;
}

/// Steps `a` and `b` in lockstep on identically seeded streams and asserts
/// every observable agrees each round: the bit-for-bit claim.
void expect_lockstep_identical(CobraProcess& a, CobraProcess& b,
                               std::uint64_t seed, int max_rounds) {
  rng::Rng rng_a = rng::make_stream(seed, 0);
  rng::Rng rng_b = rng::make_stream(seed, 0);
  a.reset(graph::VertexId{0});
  b.reset(graph::VertexId{0});
  for (int t = 0; t < max_rounds && !a.all_visited(); ++t) {
    const std::uint32_t new_a = a.step(rng_a);
    const std::uint32_t new_b = b.step(rng_b);
    ASSERT_EQ(new_a, new_b) << "round " << t;
    ASSERT_EQ(a.num_active(), b.num_active()) << "round " << t;
    ASSERT_EQ(a.num_visited(), b.num_visited()) << "round " << t;
    ASSERT_EQ(a.transmissions(), b.transmissions()) << "round " << t;
    ASSERT_EQ(sorted_active(a), sorted_active(b)) << "round " << t;
    for (graph::VertexId u = 0; u < a.graph().num_vertices(); ++u) {
      ASSERT_EQ(a.is_visited(u), b.is_visited(u)) << "round " << t;
      ASSERT_EQ(a.is_active(u), b.is_active(u)) << "round " << t;
    }
  }
  EXPECT_EQ(a.round(), b.round());
  EXPECT_EQ(a.all_visited(), b.all_visited());
}

TEST(CobraEngines, SparseDenseAutoBitForBitOnFixtures) {
  for (const graph::Graph& g : fixture_graphs()) {
    for (const Engine forced : {Engine::kDense, Engine::kAuto}) {
      ProcessOptions sparse_opt;
      sparse_opt.engine = Engine::kSparse;
      ProcessOptions other_opt;
      other_opt.engine = forced;
      CobraProcess sparse(g, sparse_opt);
      CobraProcess other(g, other_opt);
      expect_lockstep_identical(sparse, other, 7000 + g.num_vertices(),
                                5000);
    }
  }
}

TEST(CobraEngines, BitForBitWithLazinessAndBernoulliBranching) {
  const graph::Graph g = graph::hypercube(6);
  for (double laziness : {0.0, 0.5}) {
    ProcessOptions sparse_opt;
    sparse_opt.engine = Engine::kSparse;
    sparse_opt.laziness = laziness;
    sparse_opt.branching = Branching::one_plus_rho(0.3);
    ProcessOptions dense_opt = sparse_opt;
    dense_opt.engine = Engine::kDense;
    dense_opt.sampler.reset();
    CobraProcess sparse(g, sparse_opt);
    CobraProcess dense(g, dense_opt);
    expect_lockstep_identical(sparse, dense, 31, 5000);
  }
}

TEST(CobraEngines, FirstVisitRoundsIdenticalAcrossFastEngines) {
  // The full visit sequence — the round at which each vertex is first
  // covered — must agree, not just the aggregate counts.
  const graph::Graph g = graph::cycle(96);
  std::map<Engine, std::vector<std::uint64_t>> first_visit;
  for (const Engine e : {Engine::kSparse, Engine::kDense, Engine::kAuto}) {
    ProcessOptions opt;
    opt.engine = e;
    CobraProcess p(g, opt);
    rng::Rng rng = rng::make_stream(555, 0);
    p.reset(graph::VertexId{0});
    std::vector<std::uint64_t> rounds(g.num_vertices(), ~0ull);
    rounds[0] = 0;
    while (!p.all_visited()) {
      ASSERT_LT(p.round(), 100000u);
      p.step(rng);
      for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
        if (rounds[u] == ~0ull && p.is_visited(u)) rounds[u] = p.round();
    }
    first_visit[e] = std::move(rounds);
  }
  EXPECT_EQ(first_visit[Engine::kSparse], first_visit[Engine::kDense]);
  EXPECT_EQ(first_visit[Engine::kSparse], first_visit[Engine::kAuto]);
}

TEST(CobraEngines, CoverAgreesAcrossFastEnginesOnRandomRegular) {
  rng::Rng gen = test_rng(3);
  const graph::Graph g = graph::connected_random_regular(512, 8, gen);
  std::map<Engine, std::vector<std::uint64_t>> covers;
  for (const Engine e : {Engine::kSparse, Engine::kDense, Engine::kAuto}) {
    ProcessOptions opt;
    opt.engine = e;
    CobraProcess p(g, opt);
    for (std::uint64_t rep = 0; rep < 8; ++rep) {
      rng::Rng rng = rng::make_stream(808, rep);
      p.reset(graph::VertexId{0});
      const auto cover = p.run_until_cover(rng, 100000);
      ASSERT_TRUE(cover.has_value());
      covers[e].push_back(*cover);
    }
  }
  EXPECT_EQ(covers[Engine::kSparse], covers[Engine::kDense]);
  EXPECT_EQ(covers[Engine::kSparse], covers[Engine::kAuto]);
}

TEST(CobraEngines, AutoSwitchesToDenseOnceFrontierSaturates) {
  const graph::Graph g = graph::complete(512);
  ProcessOptions opt;
  opt.engine = Engine::kAuto;
  CobraProcess p(g, opt);
  rng::Rng rng = test_rng(4);
  p.reset(graph::VertexId{0});
  p.step(rng);
  EXPECT_EQ(p.dense_rounds(), 0u);  // |C_0| = 1 is far below the threshold
  p.run_until_cover(rng, 1000);
  for (int t = 0; t < 10; ++t) p.step(rng);  // saturated steady state
  EXPECT_GT(p.dense_rounds(), 0u);
  CobraProcess forced(g, [] {
    ProcessOptions o;
    o.engine = Engine::kSparse;
    return o;
  }());
  forced.reset(graph::VertexId{0});
  rng::Rng rng2 = test_rng(4);
  forced.run_until_cover(rng2, 1000);
  EXPECT_EQ(forced.dense_rounds(), 0u);
}

TEST(CobraEngines, ReferenceEngineMatchesFastInDistributionBounds) {
  // Not bit-for-bit (different draw protocols) — but the structural
  // invariants must hold on every engine.
  const graph::Graph g = graph::complete(64);
  for (const Engine e :
       {Engine::kReference, Engine::kSparse, Engine::kDense, Engine::kAuto}) {
    ProcessOptions opt;
    opt.engine = e;
    CobraProcess p(g, opt);
    rng::Rng rng = test_rng(5);
    p.reset(graph::VertexId{0});
    std::size_t before = p.num_active();
    while (!p.all_visited() && p.round() < 200) {
      p.step(rng);
      EXPECT_LE(p.num_active(), 2 * before);  // b = 2 doubling bound
      before = p.num_active();
    }
    EXPECT_TRUE(p.all_visited()) << engine_name(e);
    EXPECT_GE(p.round(), 6u);  // log2(64): doubling lower bound
  }
}

TEST(CobraEngines, ActiveVectorMatchesBitsetViewAfterDenseRounds) {
  const graph::Graph g = graph::hypercube(8);
  ProcessOptions opt;
  opt.engine = Engine::kDense;
  CobraProcess p(g, opt);
  rng::Rng rng = test_rng(6);
  p.reset(graph::VertexId{17});
  for (int t = 0; t < 12; ++t) {
    p.step(rng);
    const auto& active = p.active();  // materialised lazily, ascending
    ASSERT_EQ(active.size(), p.num_active());
    EXPECT_TRUE(std::is_sorted(active.begin(), active.end()));
    for (const graph::VertexId u : active) EXPECT_TRUE(p.is_active(u));
  }
}

TEST(CobraEngines, SingleVertexGraphCoversAtRoundZeroOnEveryEngine) {
  graph::GraphBuilder b(1);
  const graph::Graph g = std::move(b).build();
  for (const Engine e :
       {Engine::kReference, Engine::kSparse, Engine::kDense, Engine::kAuto}) {
    ProcessOptions opt;
    opt.engine = e;
    CobraProcess p(g, opt);
    rng::Rng rng = test_rng(7);
    p.reset(graph::VertexId{0});
    EXPECT_TRUE(p.all_visited()) << engine_name(e);
    const auto cover = p.run_until_cover(rng, 10);
    ASSERT_TRUE(cover.has_value());
    EXPECT_EQ(*cover, 0u);
    // Stepping anyway keeps the lone particle in place.
    p.step(rng);
    EXPECT_EQ(p.num_active(), 1u);
    EXPECT_TRUE(p.is_active(0));
    EXPECT_EQ(p.transmissions(), 2u);
  }
}

TEST(CobraEngines, SharedSamplerReproducesPerProcessResults) {
  const graph::Graph g = graph::hypercube(6);
  const auto sampler = std::make_shared<const NeighborSampler>(g, 0.0);
  ProcessOptions own;
  own.engine = Engine::kAuto;
  ProcessOptions shared = own;
  shared.sampler = sampler;
  CobraProcess p_own(g, own);
  CobraProcess p_shared(g, shared);
  expect_lockstep_identical(p_own, p_shared, 99, 5000);
}

TEST(CobraEngines, SharedSamplerMustMatchGraphAndLaziness) {
  const graph::Graph g = graph::hypercube(5);
  const graph::Graph other = graph::cycle(32);
  ProcessOptions opt;
  opt.engine = Engine::kDense;
  opt.sampler = std::make_shared<const NeighborSampler>(other, 0.0);
  EXPECT_THROW(CobraProcess(g, opt), util::CheckError);
  ProcessOptions lazy;
  lazy.engine = Engine::kDense;
  lazy.laziness = 0.5;
  lazy.sampler = std::make_shared<const NeighborSampler>(g, 0.25);
  EXPECT_THROW(CobraProcess(g, lazy), util::CheckError);
}

TEST(CobraEngines, DefaultEngineResolvesFromSession) {
  const graph::Graph g = graph::cycle(8);
  util::clear_env_overrides();
  EXPECT_EQ(CobraProcess(g).engine(), Engine::kAuto);  // session default
  util::set_engine_override("reference");
  EXPECT_EQ(CobraProcess(g).engine(), Engine::kReference);
  util::set_engine_override("dense");
  EXPECT_EQ(CobraProcess(g).engine(), Engine::kDense);
  util::set_engine_override("fast");
  EXPECT_EQ(CobraProcess(g).engine(), Engine::kAuto);
  util::set_engine_override("bogus");
  EXPECT_THROW(CobraProcess{g}, util::CheckError);
  util::clear_env_overrides();
  // Explicit options always win over the session setting.
  util::set_engine_override("dense");
  ProcessOptions opt;
  opt.engine = Engine::kSparse;
  EXPECT_EQ(CobraProcess(g, opt).engine(), Engine::kSparse);
  util::clear_env_overrides();
}

TEST(CobraEngines, ParseAndNameRoundTrip) {
  for (const Engine e :
       {Engine::kReference, Engine::kSparse, Engine::kDense, Engine::kAuto}) {
    const auto parsed = parse_engine(engine_name(e));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, e);
  }
  EXPECT_EQ(parse_engine("fast"), Engine::kAuto);
  EXPECT_FALSE(parse_engine("default").has_value());
  EXPECT_FALSE(parse_engine("").has_value());
  EXPECT_FALSE(parse_engine("Reference").has_value());
}

TEST(CobraEngines, Mix64WordsLookUniform) {
  // Smoke statistics over the keyed word stream: 16-bin chi-square-style
  // bounds on uniform01 across many (vertex, word) pairs of one round.
  std::array<int, 16> bins{};
  int total = 0;
  for (std::uint32_t u = 0; u < 4096; ++u) {
    VertexDraws draws(0x1234ABCDu, u);
    for (int k = 0; k < 8; ++k) {
      const double x = draws.uniform01();
      ASSERT_GE(x, 0.0);
      ASSERT_LT(x, 1.0);
      bins[static_cast<std::size_t>(x * 16.0)]++;
      ++total;
    }
  }
  const double expected = total / 16.0;
  for (const int count : bins)
    EXPECT_NEAR(count, expected, 0.06 * expected);
}

TEST(CobraEngines, GoldenDrawStreams) {
  // Checked-in words of the keyed per-(round, entity) stream. Every engine
  // of every kernel process derives its randomness from these, so a
  // refactor that keeps them keeps every fixed-seed archive.
  struct Golden {
    std::uint64_t round_key;
    std::uint32_t entity;
    std::array<std::uint64_t, 4> words;
  };
  const Golden golden[] = {
      {0, 0,
       {0x46b73e79f0c37c00ull, 0x5c46c78d48c94041ull, 0xb3ddaf4eb890385cull,
        0x652843164a715fbaull}},
      {0x1234ABCDull, 7,
       {0x482013b5495ee956ull, 0xa220d70fdc9b2645ull, 0xfd83bd72a5ca69b2ull,
        0x63c2469d7ef59273ull}},
      {0xDEADBEEFCAFEF00Dull, 0xFFFFFFFFu,
       {0xc5257722362c31fbull, 0x1a0389f1e3a2ccc3ull, 0x296dc66cdf5242eaull,
        0x4b4c7343b712e37eull}},
  };
  for (const Golden& g : golden) {
    VertexDraws draws(g.round_key, g.entity);
    for (const std::uint64_t word : g.words)
      EXPECT_EQ(draws.next_word(), word)
          << "key " << g.round_key << " entity " << g.entity;
  }

  VertexDraws draws(42, 3);
  EXPECT_EQ(draws.uniform01(), 0.56791202136050156);
  EXPECT_EQ(draws.uniform01(), 0.28975091766661354);
  EXPECT_FALSE(draws.bernoulli(0.25));
  EXPECT_FALSE(draws.bernoulli(0.5));
  EXPECT_FALSE(draws.bernoulli(0.75));
  EXPECT_TRUE(draws.bernoulli(0.9));
  EXPECT_FALSE(draws.bernoulli(0.0));  // short-circuits: no word consumed
  EXPECT_TRUE(draws.bernoulli(1.0));
  EXPECT_EQ(draws.next_word(), 0x9bae17bf8b6e0025ull);
}

TEST(CobraEngines, GoldenNeighborSamples) {
  // Checked-in push destinations on a lollipop (clique vertices of degree
  // 4 and 5, tail end of degree 1), eight words of one keyed stream per
  // vertex, with and without laziness.
  const graph::Graph g = graph::lollipop(5, 3);
  const std::array<graph::VertexId, 3> sources = {0, 4, 7};
  const std::map<double, std::array<std::array<graph::VertexId, 8>, 3>>
      golden = {
          {0.0,
           {{{4, 4, 2, 4, 2, 4, 2, 2},
             {5, 2, 2, 1, 2, 2, 0, 3},
             {6, 6, 6, 6, 6, 6, 6, 6}}}},
          {0.5,
           {{{0, 0, 2, 0, 0, 0, 3, 0},
             {4, 3, 3, 2, 3, 4, 4, 5},
             {7, 7, 6, 7, 6, 6, 7, 6}}}},
      };
  for (const auto& [laziness, expected] : golden) {
    const NeighborSampler sampler(g, laziness);
    VertexDraws words(99, 1);
    for (std::size_t i = 0; i < sources.size(); ++i)
      for (const graph::VertexId dest : expected[i])
        EXPECT_EQ(sampler.sample(sources[i], words.next_word()), dest)
            << "laziness " << laziness << " source " << sources[i];
  }
}

// The push distribution of a vertex of degree `degree` as one alias
// table: `degree` neighbour slots plus a stay-put slot when lazy, or a
// lone stay-put slot at degree 0.
rng::AliasTable push_table(std::uint32_t degree, double laziness) {
  if (degree == 0) return rng::AliasTable({1.0});
  std::vector<double> weights(degree,
                              (1.0 - laziness) / static_cast<double>(degree));
  if (laziness > 0.0) weights.push_back(laziness);
  return rng::AliasTable(weights);
}

// Words on every decision boundary of `table`, plus the all-zero/all-one
// edge words: for each column, the first and last high halves that pick
// it, each with the low half at the column's acceptance threshold
// ceil(p * 2^32) and one either side of it.
std::vector<std::uint64_t> boundary_words(const rng::AliasTable& table) {
  std::vector<std::uint64_t> words = {0ull, ~0ull, 0xFFFFFFFFull,
                                      0xFFFFFFFF00000000ull};
  const std::uint64_t size = table.size();
  for (std::uint64_t c = 0; c < size; ++c) {
    const std::uint64_t first_hi = ((c << 32) + size - 1) / size;
    const std::uint64_t last_hi = (((c + 1) << 32) + size - 1) / size - 1;
    const auto threshold = static_cast<std::int64_t>(std::ceil(
        table.acceptance(static_cast<std::uint32_t>(c)) * 0x1.0p32));
    for (const std::uint64_t hi : {first_hi, last_hi})
      for (const std::int64_t lo :
           {threshold - 1, threshold, threshold + 1})
        if (lo >= 0 && lo <= 0xFFFFFFFF)
          words.push_back((hi << 32) | static_cast<std::uint64_t>(lo));
  }
  return words;
}

TEST(CobraEngines, NeighborSamplerMatchesAliasTableWordForWord) {
  // Every degree 1..64 (complete graphs), two mixed-degree graphs and the
  // single-vertex graph, at four laziness levels: each push destination
  // is the one an alias table over the push distribution picks for the
  // same word, on 10^5 keyed words and on every decision boundary.
  std::vector<graph::Graph> graphs;
  for (graph::VertexId d = 1; d <= 64; ++d)
    graphs.push_back(graph::complete(d + 1));
  graphs.push_back(graph::lollipop(5, 3));
  graphs.push_back(graph::path(4));
  graph::GraphBuilder single(1);
  graphs.push_back(std::move(single).build());
  for (const double laziness : {0.0, 0.1, 0.5, 0.9}) {
    for (const graph::Graph& g : graphs) {
      const NeighborSampler sampler(g, laziness);
      std::map<std::uint32_t, rng::AliasTable> tables;
      for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
        tables.try_emplace(g.degree(u), push_table(g.degree(u), laziness));
      int mismatches = 0;
      const auto check = [&](graph::VertexId u, std::uint64_t word) {
        const std::uint32_t degree = g.degree(u);
        const std::uint32_t slot = tables.at(degree).sample_word(word);
        const graph::VertexId expected =
            slot < degree ? g.neighbor(u, slot) : u;
        const graph::VertexId got = sampler.sample(u, word);
        if (got != expected && ++mismatches == 1)
          ADD_FAILURE() << "n " << g.num_vertices() << " laziness "
                        << laziness << " u " << u << " word " << std::hex
                        << word << ": got " << std::dec << got
                        << ", alias table gives " << expected;
      };
      VertexDraws words(2024, g.num_vertices());
      for (std::uint32_t i = 0; i < 100000; ++i)
        check(i % g.num_vertices(), words.next_word());
      for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
        for (const std::uint64_t word : boundary_words(tables.at(g.degree(u))))
          check(u, word);
      EXPECT_EQ(mismatches, 0)
          << "n " << g.num_vertices() << " laziness " << laziness;
    }
  }
}

TEST(CobraEngines, NeighborSamplerMatchesUniformDistribution) {
  const graph::Graph g = graph::path(4);
  const NeighborSampler sampler(g, 0.0);
  EXPECT_EQ(sampler.num_slots(), 0u);  // uniform slots need no table
  rng::Rng rng = test_rng(8);
  std::map<graph::VertexId, int> counts;
  const int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) counts[sampler.sample(1, rng.next_u64())]++;
  // Vertex 1's neighbours are 0 and 2, each with probability 1/2.
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.5, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.5, 0.02);
}

TEST(CobraEngines, NeighborSamplerHonoursLaziness) {
  const graph::Graph g = graph::cycle(6);
  const NeighborSampler sampler(g, 0.5);
  EXPECT_DOUBLE_EQ(sampler.laziness(), 0.5);
  EXPECT_EQ(sampler.num_slots(), 3u);  // degree 2: two neighbours + stay
  rng::Rng rng = test_rng(9);
  const int kDraws = 60000;
  int self = 0, left = 0, right = 0;
  for (int i = 0; i < kDraws; ++i) {
    const graph::VertexId dest = sampler.sample(2, rng.next_u64());
    if (dest == 2) ++self;
    else if (dest == 1) ++left;
    else if (dest == 3) ++right;
    else FAIL() << "impossible destination " << dest;
  }
  EXPECT_NEAR(self / static_cast<double>(kDraws), 0.5, 0.02);
  EXPECT_NEAR(left / static_cast<double>(kDraws), 0.25, 0.02);
  EXPECT_NEAR(right / static_cast<double>(kDraws), 0.25, 0.02);
}

}  // namespace
}  // namespace cobra::core
