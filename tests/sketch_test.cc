#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "hash/rng.h"
#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "sketch/l2_sampler.h"
#include "sketch/median_of_means.h"
#include "sketch/reservoir.h"

namespace cyclestream {
namespace {

TEST(MedianOfMeansTest, SingleGroupIsMean) {
  EXPECT_DOUBLE_EQ(MedianOfMeans({1.0, 2.0, 3.0, 4.0}, 1), 2.5);
}

TEST(MedianOfMeansTest, MedianKillsOutlierGroup) {
  // Three groups of two: means 1, 2, 1000 -> median 2.
  EXPECT_DOUBLE_EQ(MedianOfMeans({1.0, 1.0, 2.0, 2.0, 1000.0, 1000.0}, 3),
                   2.0);
}

TEST(AmsF2Test, ExactOnPointMass) {
  AmsF2 sketch(5, 40, 1);
  sketch.Update(123, 7.0);
  // A single coordinate: every basic estimator returns exactly 49.
  EXPECT_NEAR(sketch.Estimate(), 49.0, 1e-9);
}

TEST(AmsF2Test, ApproximatesF2OfRandomVector) {
  Rng rng(2);
  std::map<std::uint64_t, double> x;
  for (int i = 0; i < 500; ++i) {
    x[static_cast<std::uint64_t>(i)] = static_cast<double>(rng.UniformInt(9)) + 1.0;
  }
  double f2 = 0.0;
  AmsF2 sketch(9, 200, 3);
  for (const auto& [key, value] : x) {
    sketch.Update(key, value);
    f2 += value * value;
  }
  EXPECT_NEAR(sketch.Estimate(), f2, 0.25 * f2);
}

TEST(AmsF2Test, TurnstileDeletesCancel) {
  AmsF2 sketch(5, 20, 4);
  for (int i = 0; i < 100; ++i) sketch.Update(i, 5.0);
  for (int i = 0; i < 100; ++i) sketch.Update(i, -5.0);
  EXPECT_NEAR(sketch.Estimate(), 0.0, 1e-9);
}

TEST(AmsF2Test, UnbiasednessOverSeeds) {
  // Average many independent single-estimator sketches of a known vector.
  std::map<std::uint64_t, double> x = {{1, 3.0}, {2, -4.0}, {3, 1.0}};
  const double f2 = 9.0 + 16.0 + 1.0;
  double total = 0.0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    AmsF2 sketch(1, 1, 100 + static_cast<std::uint64_t>(t));
    for (const auto& [key, value] : x) sketch.Update(key, value);
    total += sketch.Estimate();
  }
  EXPECT_NEAR(total / trials, f2, 0.1 * f2);
}

TEST(CountSketchTest, PointQueriesOnSparseVector) {
  CountSketch sketch(5, 256, 7);
  sketch.Update(10, 100.0);
  sketch.Update(20, -50.0);
  sketch.Update(30, 25.0);
  EXPECT_NEAR(sketch.Query(10), 100.0, 1e-9);
  EXPECT_NEAR(sketch.Query(20), -50.0, 1e-9);
  EXPECT_NEAR(sketch.Query(99), 0.0, 1e-9);
}

TEST(CountSketchTest, HeavyHitterSurvivesNoise) {
  Rng rng(8);
  CountSketch sketch(7, 512, 9);
  sketch.Update(424242, 1000.0);
  for (int i = 0; i < 2000; ++i) {
    sketch.Update(static_cast<std::uint64_t>(i), 1.0);
  }
  EXPECT_NEAR(sketch.Query(424242), 1000.0, 100.0);
}

TEST(CountSketchTest, TurnstileDeletesCancel) {
  CountSketch sketch(5, 128, 10);
  sketch.Update(5, 10.0);
  sketch.Update(5, -10.0);
  EXPECT_NEAR(sketch.Query(5), 0.0, 1e-9);
}

TEST(ReservoirTest, KeepsEverythingUnderCapacity) {
  Reservoir<int> res(10, Rng(11));
  for (int i = 0; i < 7; ++i) res.Add(i);
  EXPECT_EQ(res.items().size(), 7u);
}

TEST(ReservoirTest, CapacityNeverExceeded) {
  Reservoir<int> res(10, Rng(12));
  for (int i = 0; i < 1000; ++i) res.Add(i);
  EXPECT_EQ(res.items().size(), 10u);
  EXPECT_EQ(res.seen(), 1000u);
}

TEST(ReservoirTest, InclusionProbabilityIsUniform) {
  // Each of 50 items should survive in a size-10 reservoir w.p. 1/5.
  std::vector<int> hits(50, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    Reservoir<int> res(10, Rng(100 + t));
    for (int i = 0; i < 50; ++i) res.Add(i);
    for (int kept : res.items()) ++hits[kept];
  }
  for (int h : hits) {
    EXPECT_NEAR(h / static_cast<double>(trials), 0.2, 0.02);
  }
}

TEST(L2SamplerTest, FindsDominantCoordinate) {
  L2Sampler::Config config;
  config.copies = 32;
  config.sketch_width = 256;
  L2Sampler sampler(config, 13);
  sampler.Update(777, 100.0);  // Dominant: x² fraction ≈ 10000/10900.
  for (int i = 0; i < 100; ++i) {
    sampler.Update(static_cast<std::uint64_t>(i), 3.0);
  }
  const auto sample = sampler.Draw();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->key, 777u);
  EXPECT_NEAR(sample->value_estimate, 100.0, 25.0);
}

TEST(L2SamplerTest, F2EstimateIsSane) {
  L2Sampler::Config config;
  config.copies = 8;
  L2Sampler sampler(config, 14);
  double f2 = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double v = (i % 5) + 1.0;
    sampler.Update(static_cast<std::uint64_t>(i), v);
    f2 += v * v;
  }
  EXPECT_NEAR(sampler.EstimateF2(), f2, 0.3 * f2);
}

TEST(L2SamplerTest, SamplingDistributionTracksSquaredMass) {
  // Vector with x_a = 8, x_b = 4, many unit coordinates: over many sampler
  // instantiations, a should be drawn ≈ 4× as often as b.
  int count_a = 0, count_b = 0, total = 0;
  for (int t = 0; t < 400; ++t) {
    L2Sampler::Config config;
    config.copies = 8;
    config.sketch_width = 128;
    L2Sampler sampler(config, 500 + static_cast<std::uint64_t>(t));
    sampler.Update(1000001, 8.0);
    sampler.Update(1000002, 4.0);
    for (int i = 0; i < 40; ++i) {
      sampler.Update(static_cast<std::uint64_t>(i), 1.0);
    }
    for (const auto& s : sampler.DrawAll()) {
      ++total;
      if (s.key == 1000001u) ++count_a;
      if (s.key == 1000002u) ++count_b;
    }
  }
  ASSERT_GT(total, 50);
  // P[a]/P[b] should be near 64/16 = 4 (loose tolerance: this is a
  // statistical property of an approximate sampler).
  ASSERT_GT(count_b, 0);
  const double ratio = static_cast<double>(count_a) / count_b;
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 9.0);
}

}  // namespace
}  // namespace cyclestream
