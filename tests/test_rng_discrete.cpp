#include "rng/discrete.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace cobra::rng {
namespace {

TEST(AliasTable, NormalisesProbabilities) {
  AliasTable t({1.0, 3.0});
  EXPECT_DOUBLE_EQ(t.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(t.probability(1), 0.75);
}

TEST(AliasTable, SingleOutcome) {
  AliasTable t({5.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(t.sample(rng), 0u);
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  AliasTable t({0.0, 1.0, 0.0, 2.0});
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const auto s = t.sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTable, EmpiricalFrequenciesMatchWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable t(weights);
  Rng rng(3);
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[t.sample(rng)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / 10.0;
    const double observed = static_cast<double>(counts[i]) / kDraws;
    EXPECT_NEAR(observed, expected, 0.01) << "outcome " << i;
  }
}

TEST(AliasTable, UniformWeightsAreUniform) {
  AliasTable t(std::vector<double>(10, 1.0));
  Rng rng(4);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[t.sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c, kDraws / 10, 600);
}

TEST(AliasTable, RejectsBadInput) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), util::CheckError);
  EXPECT_THROW(AliasTable({0.0, 0.0}), util::CheckError);
  EXPECT_THROW(AliasTable({1.0, -1.0}), util::CheckError);
}

TEST(AliasTable, SampleWordIsDeterministic) {
  AliasTable t({1.0, 2.0, 3.0});
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t word = rng.next_u64();
    const std::uint32_t first = t.sample_word(word);
    EXPECT_LT(first, 3u);
    EXPECT_EQ(t.sample_word(word), first);  // pure function of the word
  }
}

TEST(AliasTable, SampleWordFrequenciesMatchWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable t(weights);
  Rng rng(7);
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[t.sample_word(rng.next_u64())];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / 10.0;
    const double observed = static_cast<double>(counts[i]) / kDraws;
    EXPECT_NEAR(observed, expected, 0.01) << "outcome " << i;
  }
}

TEST(AliasTable, SampleWordUniformCoversAllColumns) {
  // With uniform weights every acceptance threshold is 1, so sample_word
  // reduces to the fixed-point column pick — check the edges map sanely.
  AliasTable t(std::vector<double>(7, 1.0));
  EXPECT_EQ(t.sample_word(0ull), 0u);
  EXPECT_EQ(t.sample_word(~0ull), 6u);
  Rng rng(8);
  std::vector<int> counts(7, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) ++counts[t.sample_word(rng.next_u64())];
  for (const int c : counts) EXPECT_NEAR(c, kDraws / 7, 700);
}

TEST(AliasTable, GoldenSampleWord) {
  // Checked-in columns of a skewed table (one column accepts with
  // probability 1, the rest fall back to an alias) and the words that
  // pick them: the edge words, then keyed words from one stream.
  AliasTable t({1.0, 2.0, 3.0, 4.0, 0.5});
  const std::uint32_t aliases[] = {3, 3, 0, 2, 3};
  for (std::uint32_t c = 0; c < t.size(); ++c)
    EXPECT_EQ(t.alias(c), aliases[c]) << "column " << c;
  EXPECT_EQ(t.acceptance(2), 1.0);
  EXPECT_EQ(t.acceptance(0), 0.47619047619047616);
  const std::pair<std::uint64_t, std::uint32_t> golden[] = {
      {0x0000000000000000ull, 0}, {0xffffffffffffffffull, 3},
      {0x00000000ffffffffull, 3}, {0xffffffff00000000ull, 4},
      {0xe075eb7a7abcf7e0ull, 3}, {0x6f055d1b1589dce2ull, 2},
      {0xb95329dd5fa51682ull, 3}, {0x513f97e6e1277f11ull, 1},
      {0x0b17d6310ef89c96ull, 0}, {0xb06ad5f0657bd17aull, 3},
      {0x59a7bb38aca472e9ull, 1}, {0x3403aa4f5d951342ull, 1},
  };
  for (const auto& [word, column] : golden)
    EXPECT_EQ(t.sample_word(word), column) << std::hex << word;
}

TEST(AliasTable, HighlySkewedWeights) {
  AliasTable t({1e-6, 1.0});
  Rng rng(5);
  int rare = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i)
    if (t.sample(rng) == 0) ++rare;
  // Expected ~0.1 hits; allow a small count but not a systematic excess.
  EXPECT_LT(rare, 10);
}

}  // namespace
}  // namespace cobra::rng
