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

TEST(RandomOrderTrianglesTest, SixtyFourLevelsFillTheMask) {
  // √(2^126) = 2^63: 64 levels, the top one at bit 63 of each level mask.
  EXPECT_EQ(RandomOrderTriangleCounter::NumLevels(0x1p126), 64);
  EXPECT_GT(RandomOrderTriangleCounter::NumLevels(0x1p128),
            RandomOrderTriangleCounter::kMaxLevels);
  EXPECT_GT(RandomOrderTriangleCounter::NumLevels(HUGE_VAL),
            RandomOrderTriangleCounter::kMaxLevels);
  EXPECT_EQ(RandomOrderTriangleCounter::NumLevels(1.0), 1);
  // level_rate 2^70 keeps every level saturated, so each edge is stored in
  // all the levels whose prefix it arrives in.
  const EdgeList graph = Clique(12);
  Rng rng(15);
  const EdgeStream stream = MakeRandomOrderStream(graph, rng);
  auto params = MakeParams(graph, 0x1p126, 0.3, 16);
  params.level_rate = 0x1p70;
  RandomOrderTriangleCounter counter(params);
  RunEdgeStream(counter, stream);
  EXPECT_TRUE(std::isfinite(counter.Result().value));
  EXPECT_EQ(counter.AuditSpace(), counter.space_tracker()->Peak());
  // The top level holds all 66 edges, the others only short prefixes.
  EXPECT_GE(counter.space_tracker()->Component("levels"), 2u * 66);
}

// Seed-fixed outputs. The first two were recorded before the counter's
// containers were replaced by flat open-addressing ones, the last two
// before the per-level samples became one level store. Every set is used
// for membership only and both summation orders (P in stream order, oracle
// neighbours in insertion order) are kept, so a change of layout must
// leave every figure bit-identical.
struct PinnedRun {
  double value;
  double light_term;
  double heavy_term;
  std::size_t candidate_heavy_edges;
  std::size_t oracle_heavy_in_p;
  std::size_t rough_set_size;
  std::size_t space_words;
};

void ExpectPinnedStream(const EdgeStream& stream,
                        const RandomOrderTriangleCounter::Params& params,
                        const PinnedRun& want) {
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

void ExpectPinned(const EdgeList& graph,
                  const RandomOrderTriangleCounter::Params& params,
                  std::uint64_t order_seed, const PinnedRun& want) {
  Rng rng(order_seed);
  ExpectPinnedStream(MakeRandomOrderStream(graph, rng), params, want);
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
  // Repeated edges: every 5th edge of the first 10% comes again right
  // after itself (inside S and every level prefix), and the first 300
  // edges come again at the end (after every prefix but the oracle's).
  // A repeat is linked into S again but never re-enters a level, C or P.
  {
    Rng gen(27);
    const EdgeList graph = DisjointUnion(
        {PlantTriangles(ErdosRenyiGnm(400, 1500, gen), 60, gen), Clique(15)});
    Rng rng(28);
    const EdgeStream order = MakeRandomOrderStream(graph, rng);
    EdgeStream stream;
    for (std::size_t i = 0; i < order.size(); ++i) {
      stream.push_back(order[i]);
      if (i < order.size() / 10 && i % 5 == 0) stream.push_back(order[i]);
    }
    stream.insert(stream.end(), order.begin(), order.begin() + 300);
    auto params = MakeParams(graph, /*t_guess=*/60.0, 0.3, /*seed=*/29);
    params.level_rate = 2.0;  // p = 1, 1, 1/2, 1/4: V_2 and V_3 sampled.
    ExpectPinnedStream(stream, params,
                       {0x1.38111111110fcp+9, 0x1.359999999999ap+7,
                        0x1.d55555555552cp+8, 137, 88, 187, 7064});
  }
  // Ten levels (√T ≈ 316, L = 9), so level masks reach past one byte;
  // level_rate 64 samples the top four (p_L = 1/8). The K_60's edges with
  // both ends in V_L carry 58 oracle triangles, above p·√T ≈ 39.5.
  {
    Rng gen(30);
    const EdgeList graph = DisjointUnion(
        {PlantTriangles(ErdosRenyiGnm(3000, 12000, gen), 200, gen),
         Clique(60)});
    auto params = MakeParams(graph, /*t_guess=*/1e5, 0.3, /*seed=*/31);
    params.level_rate = 64.0;
    ExpectPinned(graph, params, /*order_seed=*/32,
                 {0x1.e7eaaaaaaaaa2p+14, 0x1.1940000000001p+14,
                  0x1.9d55555555543p+13, 1566, 31, 6, 39784});
  }
  // Dense G(250, ½) with t_guess far below T: thousands of heavy P edges
  // whose oracle triangles mix the weights 1, ½ and ⅓, and a heavy-term
  // sum that crosses 2^18, so its summation order shows in the last bit.
  // With p_L = 1/16 a vertex's row holds lower-level edges the oracle
  // lacks; walking the shorter row instead of the one with fewer oracle
  // entries changes the heavy term.
  {
    Rng gen(1003);
    const EdgeList graph = ErdosRenyiGnp(250, 0.5, gen);
    auto params = MakeParams(graph, /*t_guess=*/1000.0, 0.3, /*seed=*/3,
                             /*c=*/2.0);
    params.level_rate = 2.0;
    ExpectPinned(graph, params, /*order_seed=*/3,
                 {0x1.0d65355555d6p+18, 0x1.fep+6, 0x1.0d45555555d6p+18, 11966,
                  11337, 14700, 77554});
  }
}

}  // namespace
}  // namespace cyclestream
