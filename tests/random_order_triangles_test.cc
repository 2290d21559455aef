#include <gtest/gtest.h>

#include <cmath>

#include "core/random_order_triangles.h"
#include "gen/generators.h"
#include "graph/datasets.h"
#include "graph/exact.h"
#include "graph/graph.h"
#include "stream/order.h"
#include "tests/test_util.h"
#include "util/stats.h"

namespace cyclestream {
namespace {

using ::cyclestream::testing::Clique;

RandomOrderTriangleCounter::Params MakeParams(const EdgeList& graph,
                                              double t_guess, double epsilon,
                                              std::uint64_t seed,
                                              double c = 1.0) {
  RandomOrderTriangleCounter::Params params;
  params.base.epsilon = epsilon;
  params.base.c = c;
  params.base.t_guess = std::max(1.0, t_guess);
  params.base.seed = seed;
  params.num_vertices = graph.num_vertices();
  return params;
}

double MedianEstimate(const EdgeList& graph, double t_guess, double epsilon,
                      int trials, double c = 1.0, double level_rate = -1.0,
                      double prefix_rate = -1.0) {
  std::vector<double> estimates;
  for (int t = 0; t < trials; ++t) {
    Rng rng(9000 + t);
    const EdgeStream stream = MakeRandomOrderStream(graph, rng);
    auto params = MakeParams(graph, t_guess, epsilon, 40 + t, c);
    params.level_rate = level_rate;
    params.prefix_rate = prefix_rate;
    estimates.push_back(CountTrianglesRandomOrder(stream, params).value);
  }
  return Summarize(estimates).median;
}

TEST(RandomOrderTrianglesTest, ExactRegimeOnSmallGraphs) {
  // Oversampled regime: a large c saturates every sampling rate at 1 (the
  // whole stream is stored) and a large T-guess puts the heavy threshold
  // p·√T above every t_e, so the light term alone recovers the exact count.
  for (const EdgeList& graph :
       {Clique(5), KarateClub(), testing::CycleGraph(8)}) {
    const Graph g(graph);
    const double exact = static_cast<double>(CountTriangles(g));
    Rng rng(1);
    const EdgeStream stream = MakeRandomOrderStream(graph, rng);
    const Estimate est = CountTrianglesRandomOrder(
        stream, MakeParams(graph, /*t_guess=*/1e6, 0.1, 7, /*c=*/1e4));
    EXPECT_NEAR(est.value, exact, 1e-6);
  }
}

TEST(RandomOrderTrianglesTest, TriangleFreeGraphGivesZero) {
  Rng rng(2);
  const EdgeList graph = CompleteBipartite(20, 20);
  const EdgeStream stream = MakeRandomOrderStream(graph, rng);
  const Estimate est =
      CountTrianglesRandomOrder(stream, MakeParams(graph, 16.0, 0.2, 3));
  EXPECT_EQ(est.value, 0.0);
}

TEST(RandomOrderTrianglesTest, MedianAccurateOnPlantedTriangles) {
  Rng gen(3);
  EdgeList graph = ErdosRenyiGnm(3000, 9000, gen);
  graph = PlantTriangles(std::move(graph), 400, gen);
  const double exact = static_cast<double>(CountTriangles(Graph(graph)));
  const double median = MedianEstimate(graph, exact, 0.3, 15, /*c=*/2.0);
  EXPECT_NEAR(median, exact, 0.25 * exact);
}

TEST(RandomOrderTrianglesTest, MedianAccurateOnHeavyEdgeGraph) {
  // A "book": one edge in 500 triangles — the workload where heavy-edge
  // identification matters.
  Rng gen(4);
  EdgeList graph = ErdosRenyiGnm(2000, 6000, gen);
  graph = PlantBook(std::move(graph), 500, gen);
  const double exact = static_cast<double>(CountTriangles(Graph(graph)));
  const double median = MedianEstimate(graph, exact, 0.3, 15, /*c=*/2.0);
  EXPECT_NEAR(median, exact, 0.3 * exact);
}

TEST(RandomOrderTrianglesTest, SpaceShrinksWithT) {
  // Same m, growing T: peak space must drop (the m/√T law, E2's shape).
  Rng gen(5);
  const EdgeList base = ErdosRenyiGnm(4000, 12000, gen);
  std::vector<std::size_t> spaces;
  for (const std::size_t t : {16u, 256u, 4096u}) {
    Rng g2(6);
    EdgeList graph = base;
    graph = PlantTriangles(std::move(graph), t, g2);
    Rng rng(7);
    const EdgeStream stream = MakeRandomOrderStream(graph, rng);
    auto params = MakeParams(graph, static_cast<double>(t), 0.3, 8);
    params.level_rate = 4.0;  // Keep vertex rates off the clamp.
    const Estimate est = CountTrianglesRandomOrder(stream, params);
    spaces.push_back(est.space_words);
  }
  EXPECT_GT(spaces[0], spaces[1]);
  EXPECT_GT(spaces[1], spaces[2]);
}

TEST(RandomOrderTrianglesTest, OracleFlagsThePlantedHeavyEdge) {
  Rng gen(8);
  EdgeList graph = ErdosRenyiGnm(1500, 4000, gen);
  const VertexId spine_u = graph.num_vertices();
  const VertexId spine_v = spine_u + 1;
  graph = PlantBook(std::move(graph), 400, gen);
  const double t_guess = static_cast<double>(CountTriangles(Graph(graph)));

  Rng rng(9);
  const EdgeStream stream = MakeRandomOrderStream(graph, rng);
  RandomOrderTriangleCounter counter(MakeParams(graph, t_guess, 0.25, 10, 2.0));
  RunEdgeStream(counter, stream);
  // The spine edge carries 400 triangles ≫ √T ≈ 21: must classify heavy.
  EXPECT_TRUE(counter.IsHeavy(Edge(spine_u, spine_v)));
  // A random page edge carries exactly 1 triangle: light.
  EXPECT_FALSE(counter.IsHeavy(Edge(spine_u, spine_v + 1)));
}

TEST(RandomOrderTrianglesTest, DiagnosticsAreConsistent) {
  Rng gen(11);
  EdgeList graph = PlantTriangles(ErdosRenyiGnm(500, 1000, gen), 50, gen);
  Rng rng(12);
  const EdgeStream stream = MakeRandomOrderStream(graph, rng);
  RandomOrderTriangleCounter counter(MakeParams(graph, 50.0, 0.3, 13));
  RunEdgeStream(counter, stream);
  const auto& diag = counter.diagnostics();
  EXPECT_DOUBLE_EQ(counter.Result().value,
                   diag.light_term + diag.heavy_term);
  EXPECT_GE(diag.candidate_heavy_edges, diag.oracle_heavy_in_p);
}

TEST(RandomOrderTrianglesTest, RobustToTGuessMisestimates) {
  Rng gen(14);
  EdgeList graph = PlantTriangles(ErdosRenyiGnm(2000, 5000, gen), 300, gen);
  const double exact = static_cast<double>(CountTriangles(Graph(graph)));
  // 4x over- and under-estimates of T should still land in the ballpark.
  for (const double guess : {exact / 4.0, exact * 4.0}) {
    const double median = MedianEstimate(graph, guess, 0.3, 15, /*c=*/2.0);
    EXPECT_NEAR(median, exact, 0.4 * exact) << "guess=" << guess;
  }
}

// Seed-fixed outputs recorded before the counter's containers were
// replaced by flat open-addressing ones. Every set is used for membership
// only and both summation orders (P in stream order, oracle neighbours in
// insertion order) are kept, so a change of layout must leave every figure
// bit-identical.
struct PinnedRun {
  double value;
  double light_term;
  double heavy_term;
  std::size_t candidate_heavy_edges;
  std::size_t oracle_heavy_in_p;
  std::size_t rough_set_size;
  std::size_t space_words;
};

void ExpectPinned(const EdgeList& graph, RandomOrderTriangleCounter::Params params,
                  std::uint64_t order_seed, const PinnedRun& want) {
  Rng rng(order_seed);
  const EdgeStream stream = MakeRandomOrderStream(graph, rng);
  RandomOrderTriangleCounter counter(params);
  RunEdgeStream(counter, stream);
  const auto& diag = counter.diagnostics();
  EXPECT_EQ(counter.Result().value, want.value);
  EXPECT_EQ(diag.light_term, want.light_term);
  EXPECT_EQ(diag.heavy_term, want.heavy_term);
  EXPECT_EQ(diag.candidate_heavy_edges, want.candidate_heavy_edges);
  EXPECT_EQ(diag.oracle_heavy_in_p, want.oracle_heavy_in_p);
  EXPECT_EQ(diag.rough_set_size, want.rough_set_size);
  EXPECT_EQ(counter.Result().space_words, want.space_words);
}

TEST(RandomOrderTrianglesTest, SeedFixedEstimatesArePinned) {
  // Saturated: cv = ε⁻²·log₂n ≈ 97 ≥ 2^L = 8, so every p_i clamps to 1 and
  // every level stores its whole prefix. The K_15 gives P heavy edges.
  {
    Rng gen(21);
    const EdgeList graph = DisjointUnion(
        {PlantTriangles(ErdosRenyiGnm(400, 1500, gen), 60, gen), Clique(15)});
    auto params = MakeParams(graph, /*t_guess=*/60.0, 0.3, /*seed=*/22);
    ExpectPinned(graph, params, /*order_seed=*/23,
                 {0x1.c0cccccccccc8p+8, 0x1.119999999999ap+7,
                  0x1.37ffffffffffbp+8, 128, 72, 179, 8982});
  }
  // Sampled: level_rate 8 gives p_i = 8/2^i, so V_i sampling is active on
  // the upper levels (p_L = 1/8), and the K_40's triangles with three
  // oracle-heavy edges add ⅓ weights to the heavy term.
  {
    Rng gen(24);
    const EdgeList sparse =
        PlantBook(ErdosRenyiGnm(1500, 5000, gen), 300, gen);
    const EdgeList graph = DisjointUnion({sparse, Clique(40)});
    auto params = MakeParams(graph, /*t_guess=*/2000.0, 0.3, /*seed=*/25,
                             /*c=*/2.0);
    params.level_rate = 8.0;
    ExpectPinned(graph, params, /*order_seed=*/26,
                 {0x1.7f26aaaaaaabp+14, 0x1.dfffffffffffep+3,
                  0x1.7eeaaaaaaaabp+14, 619, 441, 472, 18062});
  }
}

}  // namespace
}  // namespace cyclestream
