#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "hash/kwise.h"
#include "hash/rng.h"

namespace cyclestream {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(13), 13u);
  }
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 5 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, BinomialSmallNExactPath) {
  Rng rng(13);
  double total = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    total += static_cast<double>(rng.Binomial(20, 0.25));
  }
  EXPECT_NEAR(total / trials, 5.0, 0.1);
}

TEST(RngTest, BinomialLargeNNormalPath) {
  Rng rng(17);
  double total = 0.0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    const auto draw = rng.Binomial(100000, 0.5);
    EXPECT_LE(draw, 100000u);
    total += static_cast<double>(draw);
  }
  EXPECT_NEAR(total / trials, 50000.0, 100.0);
}

TEST(RngTest, NormalMeanAndVariance) {
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, ForkStreamsAreIndependent) {
  Rng parent(99);
  Rng f1 = parent.Fork(1);
  Rng f2 = parent.Fork(2);
  Rng f1_again = parent.Fork(1);
  EXPECT_EQ(f1.Next(), f1_again.Next());
  EXPECT_NE(f1.Next(), f2.Next());
}

TEST(KWiseHashTest, DeterministicAndInRange) {
  KWiseHash h(4, 1234);
  for (std::uint64_t x = 0; x < 1000; ++x) {
    const auto v = h(x);
    EXPECT_LT(v, KWiseHash::kPrime);
    EXPECT_EQ(v, h(x));
  }
}

TEST(KWiseHashTest, DifferentSeedsGiveDifferentFunctions) {
  KWiseHash a(4, 1), b(4, 2);
  int same = 0;
  for (std::uint64_t x = 0; x < 256; ++x) same += (a(x) == b(x)) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(KWiseHashTest, ToUnitIsRoughlyUniform) {
  KWiseHash h(4, 77);
  double sum = 0.0;
  const int n = 100000;
  for (int x = 0; x < n; ++x) sum += h.ToUnit(static_cast<std::uint64_t>(x));
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(KWiseHashTest, KeepMatchesRate) {
  KWiseHash h(2, 13);
  int kept = 0;
  const int n = 100000;
  for (int x = 0; x < n; ++x) {
    kept += h.Keep(static_cast<std::uint64_t>(x), 0.2) ? 1 : 0;
  }
  EXPECT_NEAR(kept / static_cast<double>(n), 0.2, 0.01);
}

TEST(KWiseHashTest, SignsAreBalancedAndPairwiseUncorrelated) {
  KWiseHash h(4, 2024);
  const int n = 20000;
  double sum = 0.0;
  for (int x = 0; x < n; ++x) sum += h.Sign(static_cast<std::uint64_t>(x));
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  // Pairwise products should also average to ~0 (2-wise independence).
  double pair_sum = 0.0;
  for (int x = 0; x < n; ++x) {
    pair_sum += h.Sign(static_cast<std::uint64_t>(x)) *
                h.Sign(static_cast<std::uint64_t>(x + n));
  }
  EXPECT_NEAR(pair_sum / n, 0.0, 0.03);
}

// Statistical spot-check of 4-wise independence: for 4-wise independent
// signs, E[s(a)s(b)s(c)s(d)] = 0 over distinct keys. Average over many
// quadruples and many functions.
TEST(KWiseHashTest, FourWiseProductVanishes) {
  double total = 0.0;
  const int functions = 64;
  const int quads = 256;
  for (int f = 0; f < functions; ++f) {
    KWiseHash h(4, 1000 + static_cast<std::uint64_t>(f));
    double acc = 0.0;
    for (int q = 0; q < quads; ++q) {
      const std::uint64_t base = static_cast<std::uint64_t>(q) * 4;
      acc += h.Sign(base) * h.Sign(base + 1) * h.Sign(base + 2) *
             h.Sign(base + 3);
    }
    total += acc / quads;
  }
  EXPECT_NEAR(total / functions, 0.0, 0.02);
}

}  // namespace
}  // namespace cyclestream
