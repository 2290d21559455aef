// Property tests for the flat open-addressing wedge map (graph/flat_map.h)
// and the parallel/serial determinism of ComputeWedgeVector. The flat map
// replaced std::unordered_map in the exact-counting hot path; these tests
// pin down that every derived quantity (wedge counts, F₂, capped F₁,
// 4-cycle totals, diamond histogram) is exactly what the unordered_map
// formulation produced.

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/edge_list.h"
#include "graph/exact.h"
#include "graph/flat_map.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "hash/rng.h"
#include "util/parallel.h"

namespace cyclestream {
namespace {

// Reference implementation: the historical unordered_map wedge vector.
std::unordered_map<std::uint64_t, std::uint32_t, Mix64Hash>
ReferenceWedgeVector(const Graph& g) {
  std::unordered_map<std::uint64_t, std::uint32_t, Mix64Hash> x;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto neighbors = g.Neighbors(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
        ++x[PairKey(neighbors[i], neighbors[j])];
      }
    }
  }
  return x;
}

std::vector<Graph> TestGraphs() {
  std::vector<Graph> graphs;
  Rng rng(2026);
  graphs.emplace_back(ErdosRenyiGnp(120, 0.08, rng));
  graphs.emplace_back(ErdosRenyiGnm(300, 900, rng));
  graphs.emplace_back(BarabasiAlbert(200, 4, rng));
  graphs.emplace_back(CompleteBipartite(9, 11));
  graphs.emplace_back(Grid2d(12, 12));
  EdgeList empty(5);
  empty.Finalize();
  graphs.emplace_back(empty);
  return graphs;
}

TEST(WedgeMapTest, FlatMapReproducesUnorderedMapEntries) {
  for (const Graph& g : TestGraphs()) {
    const WedgeVector flat = ComputeWedgeVector(g);
    const auto reference = ReferenceWedgeVector(g);
    ASSERT_EQ(flat.size(), reference.size());
    for (const auto& [key, count] : reference) {
      const std::uint32_t* found = flat.find(key);
      ASSERT_NE(found, nullptr) << "missing pair key " << key;
      ASSERT_EQ(*found, count);
    }
  }
}

TEST(WedgeMapTest, DerivedQuantitiesMatchReference) {
  for (const Graph& g : TestGraphs()) {
    const auto reference = ReferenceWedgeVector(g);

    std::uint64_t ref_f2 = 0, ref_capped_f1 = 0, ref_c4_twice = 0;
    const std::uint32_t cap = 3;
    for (const auto& [key, count] : reference) {
      ref_f2 += static_cast<std::uint64_t>(count) * count;
      ref_capped_f1 += std::min(count, cap);
      ref_c4_twice += static_cast<std::uint64_t>(count) * (count - 1) / 2;
    }

    const WedgeVector x = ComputeWedgeVector(g);
    EXPECT_EQ(WedgeVectorF2(x), ref_f2);
    EXPECT_EQ(WedgeVectorCappedF1(x, cap), ref_capped_f1);
    EXPECT_EQ(CountFourCyclesFromWedges(x), ref_c4_twice / 2);
    EXPECT_EQ(CountFourCycles(g), ref_c4_twice / 2);
  }
}

TEST(WedgeMapTest, DiamondHistogramMatchesReference) {
  for (const Graph& g : TestGraphs()) {
    std::map<std::uint32_t, std::uint64_t> reference;
    for (const auto& [key, count] : ReferenceWedgeVector(g)) {
      if (count >= 2) ++reference[count];
    }
    EXPECT_EQ(DiamondHistogram(g), reference);
  }
}

TEST(WedgeMapTest, PerEdgeFourCycleCountsSumToFourC4) {
  for (const Graph& g : TestGraphs()) {
    const auto per_edge = PerEdgeFourCycleCounts(g);
    std::uint64_t total = 0;
    for (std::uint64_t t : per_edge) total += t;
    EXPECT_EQ(total, 4 * CountFourCycles(g));
  }
}

TEST(WedgeMapTest, ParallelComputeWedgeVectorEqualsSerial) {
  // Determinism across thread counts: the parallel chunked merge must
  // produce a map with identical contents at 1 and 8 threads. Graphs big
  // enough to clear the parallel threshold (2^16 wedges).
  Rng rng(7);
  const Graph big(ErdosRenyiGnm(2000, 12000, rng));
  const Graph skewed(BarabasiAlbert(1500, 8, rng));

  const int saved = DefaultThreads();
  for (const Graph* g : {&big, &skewed}) {
    SetDefaultThreads(1);
    const WedgeVector serial = ComputeWedgeVector(*g);
    SetDefaultThreads(8);
    const WedgeVector parallel = ComputeWedgeVector(*g);
    SetDefaultThreads(saved);

    ASSERT_EQ(serial.size(), parallel.size());
    std::uint64_t checked = 0;
    for (const auto& [key, count] : serial) {
      const std::uint32_t* found = parallel.find(key);
      ASSERT_NE(found, nullptr);
      ASSERT_EQ(*found, count);
      ++checked;
    }
    EXPECT_EQ(checked, serial.size());
    EXPECT_EQ(WedgeVectorF2(serial), WedgeVectorF2(parallel));
  }
}

TEST(WedgeMapTest, ParallelDiamondHistogramEqualsSerial) {
  Rng rng(11);
  const Graph g(ErdosRenyiGnm(2000, 12000, rng));
  const int saved = DefaultThreads();
  SetDefaultThreads(1);
  const auto serial = DiamondHistogram(g);
  SetDefaultThreads(8);
  const auto parallel = DiamondHistogram(g);
  SetDefaultThreads(saved);
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// FlatMap64 unit behavior: growth, collisions, iteration.

TEST(FlatMap64Test, GrowthAndCollisionStress) {
  FlatMap64<std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  std::uint64_t s = 33;
  for (int i = 0; i < 20000; ++i) {
    // Cluster keys to force collisions and repeated increments.
    const std::uint64_t key = SplitMix64(s) % 4096;
    ++map[key];
    ++reference[key];
  }
  ASSERT_EQ(map.size(), reference.size());
  for (const auto& [key, count] : reference) {
    const std::uint32_t* found = map.find(key);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(*found, count);
    ASSERT_EQ(map.at(key), count);
    ASSERT_TRUE(map.contains(key));
  }
  EXPECT_FALSE(map.contains(1ULL << 40));
  EXPECT_EQ(map.find(1ULL << 40), nullptr);
  EXPECT_THROW(map.at(1ULL << 40), std::out_of_range);

  // Iteration visits each occupied slot exactly once.
  std::uint64_t visited = 0, total = 0;
  for (const auto& [key, value] : map) {
    ++visited;
    total += value;
    ASSERT_EQ(reference.at(key), value);
  }
  EXPECT_EQ(visited, reference.size());
  EXPECT_EQ(total, 20000u);
}

TEST(FlatMap64Test, ReserveAndClear) {
  FlatMap64<std::uint32_t> map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap * 3 / 4, 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) map[k] = static_cast<uint32_t>(k);
  EXPECT_EQ(map.capacity(), cap);  // No rehash within the reserve budget.
  EXPECT_EQ(map.size(), 1000u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.contains(5));
}

TEST(FlatMap64Test, VisitSlotRangeCoversAllEntriesOnce) {
  FlatMap64<std::uint32_t> map;
  std::uint64_t s = 5;
  for (int i = 0; i < 5000; ++i) ++map[SplitMix64(s) % 2000];

  std::unordered_map<std::uint64_t, std::uint32_t> seen;
  const std::size_t cap = map.capacity();
  const std::size_t step = cap / 7 + 1;
  for (std::size_t begin = 0; begin < cap; begin += step) {
    map.VisitSlotRange(begin, std::min(begin + step, cap),
                       [&seen](std::uint64_t key, std::uint32_t value) {
                         auto [it, inserted] = seen.emplace(key, value);
                         ASSERT_TRUE(inserted) << "slot visited twice";
                       });
  }
  ASSERT_EQ(seen.size(), map.size());
  for (const auto& [key, value] : seen) EXPECT_EQ(map.at(key), value);
}

TEST(FlatSet64Test, DuplicateInsertReturnsFalse) {
  FlatSet64 set;
  EXPECT_FALSE(set.contains(42));
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_TRUE(set.contains(42));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FlatSet64Test, ContainsSurvivesRehashes) {
  // 100k keys from capacity 16 is a dozen doublings; every key inserted so
  // far must stay findable across each, and no absent key may appear.
  FlatSet64 set;
  constexpr std::uint64_t kKeys = 100000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(set.insert(k * 0x9e3779b97f4a7c15ull));
  }
  EXPECT_EQ(set.size(), kKeys);
  EXPECT_GE(set.capacity() * 3, set.size() * 4);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(set.contains(k * 0x9e3779b97f4a7c15ull)) << k;
    ASSERT_FALSE(set.contains(k * 0x9e3779b97f4a7c15ull + 1)) << k;
  }
}

TEST(FlatSet64Test, AgreesWithUnorderedSet) {
  FlatSet64 set;
  std::unordered_set<std::uint64_t> reference;
  Rng rng(2027);
  // Keys drawn from a small range so that about half the inserts repeat.
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.UniformInt(15000);
    ASSERT_EQ(set.insert(key), reference.insert(key).second) << key;
  }
  EXPECT_EQ(set.size(), reference.size());
  for (std::uint64_t key = 0; key < 16000; ++key) {
    ASSERT_EQ(set.contains(key), reference.count(key) > 0) << key;
  }
}

}  // namespace
}  // namespace cyclestream
