// Tests for the multi-query stream engine (src/engine): the broker's
// determinism contract (every query bit-identical to a standalone run of
// the same spec, at any thread count), the admission/budget layer's
// reject/queue semantics, the shared-pass accounting, and the manifest
// export.

#include <cstddef>
#include <string>
#include <vector>

#include "core/turnstile_f2.h"
#include "engine/broker.h"
#include "engine/budget.h"
#include "engine/query.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "stream/driver.h"
#include "stream/order.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace cyclestream::engine {
namespace {

// Restores the process-wide thread default on scope exit so tests don't
// leak their --threads choice into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { SetDefaultThreads(threads); }
  ~ScopedThreads() { SetDefaultThreads(0); }
};

// The ISSUE's flagship scenario: a 16-query sweep mixing every edge-stream
// kind, including multi-pass algorithms.
std::vector<QuerySpec> MixedEdgeSpecs(VertexId num_vertices) {
  const QueryKind kinds[] = {
      QueryKind::kRandomOrderTriangles, QueryKind::kTriest,
      QueryKind::kCormodeJowhari,       QueryKind::kArbF2,
      QueryKind::kArbThreePass,         QueryKind::kBeraChakrabarti,
  };
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 16; ++i) {
    QuerySpec spec;
    spec.kind = kinds[i % (sizeof(kinds) / sizeof(kinds[0]))];
    spec.name = std::string(QueryKindName(spec.kind)) + "-" +
                std::to_string(i);
    spec.base.epsilon = 0.4;
    spec.base.c = 1.0;
    spec.base.t_guess = 120.0;
    spec.base.seed = 900 + static_cast<std::uint64_t>(i);
    spec.num_vertices = num_vertices;
    spec.reservoir_capacity = 500;
    specs.push_back(std::move(spec));
  }
  return specs;
}

EdgeStream MixedSweepStream(EdgeList* graph_out) {
  Rng gen(21);
  EdgeList graph = PlantFourCycles(
      PlantTriangles(ErdosRenyiGnm(400, 1200, gen), 80, gen), 80, gen);
  Rng order(22);
  EdgeStream stream = MakeRandomOrderStream(graph, order);
  *graph_out = std::move(graph);
  return stream;
}

TEST(EngineTest, MixedSweepBitIdenticalToStandaloneAtAnyThreadCount) {
  EdgeList graph;
  const EdgeStream stream = MixedSweepStream(&graph);
  const std::vector<QuerySpec> specs = MixedEdgeSpecs(graph.num_vertices());

  // Ground truth: each spec standalone through the ordinary driver.
  std::vector<Estimate> standalone;
  for (const QuerySpec& spec : specs) {
    EdgeQuery query = MakeEdgeQuery(spec);
    RunEdgeStream(*query.algorithm, stream);
    standalone.push_back(query.result());
  }

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedThreads scoped(threads);
    StreamBroker broker;
    for (const QuerySpec& spec : specs) broker.AddQuery(spec);
    const std::vector<QueryOutcome> outcomes = broker.RunEdgeQueries(stream);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE(specs[i].name);
      EXPECT_EQ(outcomes[i].admission, AdmissionOutcome::kAdmitted);
      EXPECT_EQ(outcomes[i].wave, 0);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(outcomes[i].estimate.value, standalone[i].value);
      EXPECT_EQ(outcomes[i].estimate.space_words, standalone[i].space_words);
      EXPECT_EQ(outcomes[i].items_delivered,
                static_cast<std::uint64_t>(outcomes[i].passes) *
                    stream.size());
    }

    // Shared-pass accounting: one physical read per logical pass number —
    // the deepest query (arb-three-pass) sets the read count for the wave.
    const EngineStats& stats = broker.stats();
    EXPECT_EQ(stats.waves, 1u);
    EXPECT_EQ(stats.physical_passes, 3u);
    EXPECT_EQ(stats.source_items_read, 3 * stream.size());
    EXPECT_EQ(stats.queries_admitted, 16u);
    EXPECT_EQ(stats.queries_queued, 0u);
    EXPECT_EQ(stats.queries_rejected, 0u);
    std::uint64_t expected_delivered = 0;
    for (const QueryOutcome& out : outcomes) {
      expected_delivered += out.items_delivered;
    }
    EXPECT_EQ(stats.items_delivered, expected_delivered);
  }
}

TEST(EngineTest, AdjacencyQueriesBitIdenticalToStandalone) {
  Rng gen(31);
  const Graph g(PlantDiamonds(ErdosRenyiGnm(100, 300, gen),
                              {DiamondSpec{5, 6}}, gen));
  Rng order(32);
  const AdjacencyStream stream = MakeAdjacencyStream(g, order);

  const QueryKind kinds[] = {QueryKind::kAdjDiamond, QueryKind::kAdjF2,
                             QueryKind::kAdjL2, QueryKind::kAdjDiamond};
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 4; ++i) {
    QuerySpec spec;
    spec.kind = kinds[i];
    spec.name = std::string(QueryKindName(spec.kind)) + "-" +
                std::to_string(i);
    spec.base.epsilon = 0.6;
    spec.base.t_guess = 100.0;
    spec.base.seed = 50 + static_cast<std::uint64_t>(i);
    spec.num_vertices = g.num_vertices();
    specs.push_back(std::move(spec));
  }

  std::vector<Estimate> standalone;
  for (const QuerySpec& spec : specs) {
    AdjacencyQuery query = MakeAdjacencyQuery(spec);
    RunAdjacencyStream(*query.algorithm, stream);
    standalone.push_back(query.result());
  }

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedThreads scoped(threads);
    StreamBroker broker;
    for (const QuerySpec& spec : specs) broker.AddQuery(spec);
    const std::vector<QueryOutcome> outcomes =
        broker.RunAdjacencyQueries(stream);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE(specs[i].name);
      EXPECT_EQ(outcomes[i].estimate.value, standalone[i].value);
      EXPECT_EQ(outcomes[i].estimate.space_words, standalone[i].space_words);
    }
  }
}

TEST(EngineTest, SingleSharedReadForOnePassQueries) {
  EdgeList graph;
  const EdgeStream stream = MixedSweepStream(&graph);
  StreamBroker broker;
  for (int i = 0; i < 5; ++i) {
    QuerySpec spec;
    spec.name = "triest-" + std::to_string(i);
    spec.kind = QueryKind::kTriest;
    spec.base.seed = static_cast<std::uint64_t>(i);
    spec.reservoir_capacity = 100;
    broker.AddQuery(std::move(spec));
  }
  broker.RunEdgeQueries(stream);
  // Five one-pass queries, one physical read: the point of the engine.
  EXPECT_EQ(broker.stats().physical_passes, 1u);
  EXPECT_EQ(broker.stats().source_items_read, stream.size());
  EXPECT_EQ(broker.stats().items_delivered, 5 * stream.size());
}

QuerySpec BudgetedTriest(const std::string& name, std::uint64_t seed,
                         std::size_t budget_words) {
  QuerySpec spec;
  spec.name = name;
  spec.kind = QueryKind::kTriest;
  spec.base.seed = seed;
  spec.reservoir_capacity = 100;
  spec.space_budget_words = budget_words;
  return spec;
}

TEST(EngineTest, BudgetRejectsDeclarationOverPerQueryCap) {
  EdgeList graph;
  const EdgeStream stream = MixedSweepStream(&graph);
  BrokerOptions options;
  options.budget.per_query_words = 1000;
  StreamBroker broker(options);
  broker.AddQuery(BudgetedTriest("fits", 1, 800));
  broker.AddQuery(BudgetedTriest("too-big", 2, 5000));
  const auto outcomes = broker.RunEdgeQueries(stream);

  EXPECT_EQ(outcomes[0].admission, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(outcomes[0].wave, 0);
  EXPECT_GT(outcomes[0].estimate.space_words, 0u);

  EXPECT_EQ(outcomes[1].admission, AdmissionOutcome::kRejected);
  EXPECT_EQ(outcomes[1].wave, -1);
  EXPECT_EQ(outcomes[1].estimate.value, 0.0);
  EXPECT_EQ(outcomes[1].items_delivered, 0u);

  EXPECT_EQ(broker.stats().queries_admitted, 1u);
  EXPECT_EQ(broker.stats().queries_rejected, 1u);
  EXPECT_EQ(broker.stats().waves, 1u);
}

TEST(EngineTest, UnbudgetedQueryRejectedUnderAggregateCap) {
  // With an aggregate budget in force, a query that declares nothing can't
  // be admitted — the controller has no figure to reserve for it.
  EdgeList graph;
  const EdgeStream stream = MixedSweepStream(&graph);
  BrokerOptions options;
  options.budget.aggregate_words = 10000;
  StreamBroker broker(options);
  broker.AddQuery(BudgetedTriest("undeclared", 1, 0));
  const auto outcomes = broker.RunEdgeQueries(stream);
  EXPECT_EQ(outcomes[0].admission, AdmissionOutcome::kRejected);
  EXPECT_EQ(broker.stats().queries_rejected, 1u);
}

TEST(EngineTest, QueuedQueryRunsInLaterWaveWithIdenticalResult) {
  EdgeList graph;
  const EdgeStream stream = MixedSweepStream(&graph);

  // Standalone references for both specs.
  const QuerySpec first = BudgetedTriest("first", 7, 800);
  const QuerySpec second = BudgetedTriest("second", 8, 800);
  std::vector<Estimate> standalone;
  for (const QuerySpec* spec : {&first, &second}) {
    EdgeQuery query = MakeEdgeQuery(*spec);
    RunEdgeStream(*query.algorithm, stream);
    standalone.push_back(query.result());
  }

  // Aggregate headroom fits one 800-word reservation at a time, so the
  // second spec queues in wave 0 and runs alone in wave 1.
  BrokerOptions options;
  options.budget.aggregate_words = 1000;
  StreamBroker broker(options);
  broker.AddQuery(first);
  broker.AddQuery(second);
  const auto outcomes = broker.RunEdgeQueries(stream);

  EXPECT_EQ(outcomes[0].admission, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(outcomes[0].wave, 0);
  EXPECT_EQ(outcomes[1].admission, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(outcomes[1].wave, 1);

  // Queuing delays a query; it must not change its answer.
  EXPECT_EQ(outcomes[0].estimate.value, standalone[0].value);
  EXPECT_EQ(outcomes[1].estimate.value, standalone[1].value);

  const EngineStats& stats = broker.stats();
  EXPECT_EQ(stats.waves, 2u);
  EXPECT_EQ(stats.queries_admitted, 2u);
  EXPECT_EQ(stats.queries_queued, 1u);
  EXPECT_EQ(stats.queries_rejected, 0u);
  EXPECT_EQ(stats.budget_peak_words, 800u);
  // Two waves, one-pass queries: two physical reads of the stream.
  EXPECT_EQ(stats.source_items_read, 2 * stream.size());
}

TEST(EngineTest, LoneArbF2QueryBitIdenticalToStandalone) {
  // A lone query skips the broker's per-query ParallelFor; its blocks must
  // still reproduce, bit for bit, the plain per-edge driver's estimate.
  EdgeList graph;
  const EdgeStream stream = MixedSweepStream(&graph);

  QuerySpec spec;
  spec.name = "arb-f2-lone";
  spec.kind = QueryKind::kArbF2;
  spec.base.epsilon = 0.4;
  spec.base.t_guess = 120.0;
  spec.base.seed = 777;
  spec.num_vertices = graph.num_vertices();

  EdgeQuery standalone = MakeEdgeQuery(spec);
  RunEdgeStream(*standalone.algorithm, stream);
  const Estimate reference = standalone.result();

  ScopedThreads scoped(8);
  StreamBroker broker;
  broker.AddQuery(spec);
  const auto outcomes = broker.RunEdgeQueries(stream);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].admission, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(outcomes[0].estimate.value, reference.value);
  EXPECT_EQ(outcomes[0].estimate.space_words, reference.space_words);
}

// A windowed turnstile query's id names the window layer and the hosted
// estimator's own id. Snapshots are matched against it, so it must not
// drift.
static_assert(TurnstileF2FourCycleCounter::kCheckpointId == "turnstile-c4/3");
TEST(EngineTest, WindowedTurnstileCheckpointIdsArePinned) {
  QuerySpec spec;
  spec.name = "windowed";
  spec.base.epsilon = 0.4;
  spec.base.seed = 31;
  spec.num_vertices = 50;
  spec.window_edges = 8;
  spec.window_buckets = 2;
  spec.kind = QueryKind::kTurnstileF2C4;
  EXPECT_EQ(MakeTurnstileQuery(spec).algorithm->CheckpointId(),
            "window/1+" +
                std::string(TurnstileF2FourCycleCounter::kCheckpointId));
  spec.kind = QueryKind::kTurnstileF2Triangle;
  EXPECT_EQ(MakeTurnstileQuery(spec).algorithm->CheckpointId(),
            "window/1+turnstile-tri/1");
}

TEST(EngineTest, ManifestExportIsThreadCountInvariant) {
  EdgeList graph;
  const EdgeStream stream = MixedSweepStream(&graph);
  const std::vector<QuerySpec> specs = MixedEdgeSpecs(graph.num_vertices());

  std::vector<std::string> jsons;
  for (const int threads : {1, 4}) {
    ScopedThreads scoped(threads);
    StreamBroker broker;
    for (const QuerySpec& spec : specs) broker.AddQuery(spec);
    const auto outcomes = broker.RunEdgeQueries(stream);
    RunManifest manifest("engine_test");
    ExportToManifest(outcomes, broker.stats(), manifest);
    jsons.push_back(manifest.DeterministicJson());
  }
  EXPECT_EQ(jsons[0], jsons[1]);
  // The per-query sections must actually be there.
  EXPECT_NE(jsons[0].find("\"queries\""), std::string::npos);
  EXPECT_NE(jsons[0].find("\"triest-1\""), std::string::npos);
  EXPECT_NE(jsons[0].find("\"engine.source_items_read\""), std::string::npos);
}

TEST(AdmissionLedgerTest, TracksOutstandingReservations) {
  BudgetPolicy policy;
  policy.aggregate_words = 1000;
  AdmissionController controller(policy);
  EXPECT_EQ(controller.outstanding_reservations(), 0u);
  ASSERT_EQ(controller.Offer(400), AdmissionOutcome::kAdmitted);
  ASSERT_EQ(controller.Offer(400), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(controller.outstanding_reservations(), 2u);
  EXPECT_EQ(controller.reserved_words(), 800u);
  controller.Release(400);
  EXPECT_EQ(controller.outstanding_reservations(), 1u);
  controller.Release(400);
  EXPECT_EQ(controller.outstanding_reservations(), 0u);
  EXPECT_EQ(controller.reserved_words(), 0u);
  // Unbudgeted queries reserve nothing, so releasing 0 is always a no-op.
  controller.Release(0);
  EXPECT_EQ(controller.outstanding_reservations(), 0u);
}

// The admission plan's wave retirement (PlanWaves, DESIGN.md §14.1): a
// wave releases every admitted slot's reservation exactly once when it
// ends, completed or poisoned mid-flight (retry exhaustion) — and the
// queued tail must then admit against the *restored* headroom, not a
// leaked or double-counted one.
TEST(AdmissionLedgerTest, MidWaveRetirementRestoresHeadroomExactly) {
  BudgetPolicy policy;
  policy.aggregate_words = 1000;
  AdmissionController controller(policy);
  // Wave 0 admits two queries and queues a third.
  ASSERT_EQ(controller.Offer(400), AdmissionOutcome::kAdmitted);
  ASSERT_EQ(controller.Offer(400), AdmissionOutcome::kAdmitted);
  ASSERT_EQ(controller.Offer(600), AdmissionOutcome::kQueued);
  EXPECT_EQ(controller.outstanding_reservations(), 2u);

  // The wave is poisoned: its admitted slots are retired all the same.
  controller.Release(400);
  controller.Release(400);
  EXPECT_EQ(controller.outstanding_reservations(), 0u);
  EXPECT_EQ(controller.reserved_words(), 0u);

  // The queued query now admits into the full restored headroom, and the
  // peak still remembers the retired wave's high-water mark.
  EXPECT_EQ(controller.Offer(600), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(controller.reserved_words(), 600u);
  EXPECT_EQ(controller.peak_reserved_words(), 800u);
  controller.Release(600);
  EXPECT_EQ(controller.outstanding_reservations(), 0u);
}

// Regression: Release used to subtract blindly from the tracker, so a
// double release (or releasing a size that was never admitted) silently
// inflated the aggregate headroom every later wave admitted against. The
// ledger turns both into an immediate abort.
TEST(AdmissionLedgerDeathTest, DoubleReleaseAborts) {
  BudgetPolicy policy;
  policy.aggregate_words = 1000;
  AdmissionController controller(policy);
  ASSERT_EQ(controller.Offer(400), AdmissionOutcome::kAdmitted);
  controller.Release(400);
  EXPECT_DEATH(controller.Release(400), "no outstanding reservation");
}

TEST(AdmissionLedgerDeathTest, WrongSizeReleaseAborts) {
  BudgetPolicy policy;
  policy.aggregate_words = 1000;
  AdmissionController controller(policy);
  ASSERT_EQ(controller.Offer(400), AdmissionOutcome::kAdmitted);
  EXPECT_DEATH(controller.Release(300), "no outstanding reservation");
  // Queued and rejected offers reserve nothing, so they are not releasable.
  AdmissionController capped(policy);
  ASSERT_EQ(capped.Offer(900), AdmissionOutcome::kAdmitted);
  ASSERT_EQ(capped.Offer(900), AdmissionOutcome::kQueued);
  ASSERT_EQ(capped.Offer(2000), AdmissionOutcome::kRejected);
  capped.Release(900);
  EXPECT_DEATH(capped.Release(900), "no outstanding reservation");
}

}  // namespace
}  // namespace cyclestream::engine
