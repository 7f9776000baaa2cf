#include "rng/philox.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "rng/stream.hpp"

namespace cobra::rng {
namespace {

// Known-answer vectors from the Random123 distribution (kat_vectors,
// philox4x32 with 10 rounds).
TEST(Philox, KnownAnswerZeros) {
  const PhiloxBlock out = philox4x32({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(out.x[0], 0x6627e8d5u);
  EXPECT_EQ(out.x[1], 0xe169c58du);
  EXPECT_EQ(out.x[2], 0xbc57ac4cu);
  EXPECT_EQ(out.x[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerAllOnes) {
  const PhiloxBlock out = philox4x32(
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(out.x[0], 0x408f276du);
  EXPECT_EQ(out.x[1], 0x41c83b0eu);
  EXPECT_EQ(out.x[2], 0xa20bc7c6u);
  EXPECT_EQ(out.x[3], 0x6d5451fdu);
}

TEST(Philox, KnownAnswerPiDigits) {
  const PhiloxBlock out = philox4x32(
      {0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
      {0xa4093822u, 0x299f31d0u});
  EXPECT_EQ(out.x[0], 0xd16cfe09u);
  EXPECT_EQ(out.x[1], 0x94fdccebu);
  EXPECT_EQ(out.x[2], 0x5001e420u);
  EXPECT_EQ(out.x[3], 0x24126ea1u);
}

TEST(Philox, IsAFunctionOfInputs) {
  const PhiloxBlock a = philox4x32({1, 2, 3, 4}, {5, 6});
  const PhiloxBlock b = philox4x32({1, 2, 3, 4}, {5, 6});
  EXPECT_EQ(a.x, b.x);
  const PhiloxBlock c = philox4x32({1, 2, 3, 5}, {5, 6});
  EXPECT_NE(a.x, c.x);
}

TEST(PhiloxRng, DeterministicPerStream) {
  PhiloxRng a(123, 7), b(123, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(PhiloxRng, StreamsAreDisjoint) {
  PhiloxRng a(123, 0), b(123, 1);
  std::set<std::uint64_t> from_a;
  for (int i = 0; i < 4096; ++i) from_a.insert(a.next());
  int collisions = 0;
  for (int i = 0; i < 4096; ++i)
    if (from_a.count(b.next()) != 0) ++collisions;
  EXPECT_EQ(collisions, 0);
}

TEST(PhiloxRng, DifferentSeedsDiffer) {
  PhiloxRng a(1, 0), b(2, 0);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(MakeStream, ReproducibleAndStreamDependent) {
  Rng a = make_stream(42, 3);
  Rng b = make_stream(42, 3);
  Rng c = make_stream(42, 4);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MakeStream, GoldenWords) {
  // Checked-in replicate streams: every Monte-Carlo replicate draws from
  // make_stream, so these words fix every fixed-seed archive.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t stream_id;
    std::array<std::uint64_t, 4> words;
  };
  const Golden golden[] = {
      {0, 0,
       {0xcbdced7a81f6ba4bull, 0x994aee7a3cc20617ull, 0xc60c3b1abb046637ull,
        0x64e0feac3113a2c0ull}},
      {42, 3,
       {0xce2dbf682d26a605ull, 0xf054fa5ed3197e2bull, 0x81e97381243b6443ull,
        0x7f6e08b94fee87b1ull}},
      {20170724, 1,
       {0x93262564b345e648ull, 0x52d93a1a4cf6a512ull, 0xce393828a91c9f03ull,
        0x64a597a2788a2d26ull}},
      {~0ull, 7,
       {0xe6cfce2bdadf2857ull, 0xc125ce7b0396acbcull, 0x916a0e3e445e4113ull,
        0x61708a648bc35b3aull}},
  };
  for (const Golden& g : golden) {
    Rng rng = make_stream(g.seed, g.stream_id);
    for (const std::uint64_t word : g.words)
      EXPECT_EQ(rng.next_u64(), word)
          << "seed " << g.seed << " stream " << g.stream_id;
  }
}

TEST(MakeStream, MeanOfManyStreamsIsUnbiased) {
  // First output of 10k distinct streams should average ~2^63.
  long double sum = 0.0L;
  constexpr int kStreams = 10000;
  for (int s = 0; s < kStreams; ++s) {
    Rng rng = make_stream(99, static_cast<std::uint64_t>(s));
    sum += static_cast<long double>(rng.next_u64());
  }
  const long double mean = sum / kStreams;
  const long double half = 9.2233720368547758e18L;  // 2^63
  EXPECT_NEAR(static_cast<double>(mean / half), 1.0, 0.05);
}

TEST(DeriveSeed, DistinctSaltsGiveDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t salt = 0; salt < 1000; ++salt)
    seeds.insert(derive_seed(12345, salt));
  EXPECT_EQ(seeds.size(), 1000u);
}

}  // namespace
}  // namespace cobra::rng
