// E2 — Theorem 2.1 space shape: at fixed m and accuracy target, the §2.1
// algorithm's space should scale like m/√T. We sweep the planted triangle
// count T at fixed m and fit the log-log slope of space vs T (expect ≈ -1/2
// once rates are off their clamps), plus a row sweep of m at fixed T
// (expect slope ≈ +1).
//
// The trials of each configuration run as one engine batch: a StreamBroker
// runs every trial estimator over one shared random-order stream (the
// streaming model charges one pass per batch, not one per trial), with
// per-trial randomness carried entirely by the algorithm seeds. The
// manifest's engine.source_items_read counter documents the sharing.

#include <cstddef>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "engine/broker.h"
#include "engine/query.h"
#include "gen/generators.h"

namespace cyclestream {
namespace {

// Accumulated broker accounting across the sweep's configurations (each
// configuration is its own one-shot broker batch).
struct EngineTotals {
  std::uint64_t source_items_read = 0;
  std::uint64_t items_delivered = 0;
  std::uint64_t physical_passes = 0;

  void Add(const engine::EngineStats& stats) {
    source_items_read += stats.source_items_read;
    items_delivered += stats.items_delivered;
    physical_passes += stats.physical_passes;
  }
};

// Runs `trials` random-order-triangle estimators as one shared-pass engine
// batch over a single stream drawn with `stream_seed`; trial t uses
// algorithm seed seed_base + t.
bench::TrialStats RunEngineTrials(const EdgeList& graph, double t_exact,
                                  int trials, double epsilon,
                                  std::uint64_t stream_seed,
                                  std::uint64_t seed_base,
                                  EngineTotals* totals) {
  Rng rng(stream_seed);
  const EdgeStream stream = MakeRandomOrderStream(graph, rng);
  engine::StreamBroker broker;
  for (int trial = 0; trial < trials; ++trial) {
    engine::QuerySpec spec;
    spec.name = "trial-" + std::to_string(trial);
    spec.kind = engine::QueryKind::kRandomOrderTriangles;
    spec.base.epsilon = epsilon;
    spec.base.c = 1.0;
    spec.base.t_guess = t_exact;
    spec.base.seed = seed_base + static_cast<std::uint64_t>(trial);
    spec.num_vertices = graph.num_vertices();
    spec.level_rate = 4.0;  // Keep level rates off the p_i = 1 clamp.
    broker.AddQuery(std::move(spec));
  }
  std::vector<std::pair<double, std::size_t>> results;
  for (const engine::QueryOutcome& out : broker.RunEdgeQueries(stream)) {
    results.emplace_back(out.estimate.value, out.estimate.space_words);
  }
  totals->Add(broker.stats());
  return bench::SummarizeTrials(results, t_exact);
}

}  // namespace

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  bench::ExperimentContext ctx("E2", flags);
  const bool quick = flags.GetBool("quick", false);
  const int trials = static_cast<int>(flags.GetInt("trials", quick ? 3 : 7));
  const double epsilon = flags.GetDouble("epsilon", 0.25);

  bench::PrintHeader(
      "E2: space scaling of random-order triangle counting (Theorem 2.1)",
      "space = O~(eps^-2 m / sqrt(T)): log-log slope vs T ~ -1/2, vs m ~ +1",
      "ER base (fixed m) + planted triangles sweeping T; then m-sweep");

  const VertexId n = quick ? 6000 : 12000;
  const std::size_t m = quick ? 24000 : 48000;
  EngineTotals totals;

  Table t_table({"T", "med.space(w)", "med.err", "stream(w)"});
  std::vector<double> ts, spaces;
  // Start the sweep where cv ≪ √T, i.e. away from the p_i = 1 saturation
  // boundary — the asymptotic exponent only shows there.
  for (std::uint64_t t_plant :
       {std::uint64_t(m) / 100, std::uint64_t(m) / 25, std::uint64_t(m) / 6,
        3 * std::uint64_t(m) / 10}) {
    Rng gen(10);
    // Hold the total edge count at m: planted triangles bring 3 edges each,
    // so shrink the ER base accordingly.
    const std::size_t base_m = m - static_cast<std::size_t>(3 * t_plant);
    EdgeList graph = PlantTriangles(ErdosRenyiGnm(n, base_m, gen), t_plant, gen);
    const double t_exact = static_cast<double>(CountTriangles(Graph(graph)));
    const auto stats = RunEngineTrials(graph, t_exact, trials, epsilon,
                                       /*stream_seed=*/700, /*seed_base=*/7100,
                                       &totals);
    ts.push_back(t_exact);
    spaces.push_back(stats.space_words.median);
    t_table.AddRow({Table::Int(static_cast<std::int64_t>(t_exact)),
                    Table::Int(static_cast<std::int64_t>(stats.space_words.median)),
                    Table::Pct(stats.rel_error.median),
                    Table::Int(static_cast<std::int64_t>(2 * graph.num_edges()))});
  }
  t_table.set_title("space vs T at fixed m=" + std::to_string(m));
  t_table.Print(std::cout);
  ctx.RecordTable("space_vs_t", t_table);
  ctx.metrics().Set("slope.space_vs_t", bench::LogLogSlope(ts, spaces));
  std::cout << "fitted log-log slope (space vs T): "
            << Table::Num(bench::LogLogSlope(ts, spaces), 3)
            << "   [paper: -0.5; the log(sqrt T) level count and the\n"
               "   saturated low levels flatten it toward ~-0.4 at this scale]\n";

  Table m_table({"m", "med.space(w)", "med.err"});
  std::vector<double> ms, m_spaces;
  const std::uint64_t t_fixed = m / 25;
  for (const std::size_t m_sweep : {m / 4, m / 2, m, 2 * m}) {
    Rng gen(11);
    const std::size_t base_m =
        m_sweep - std::min(m_sweep / 2, static_cast<std::size_t>(3 * t_fixed));
    EdgeList graph =
        PlantTriangles(ErdosRenyiGnm(n, base_m, gen), t_fixed, gen);
    const double t_exact = static_cast<double>(CountTriangles(Graph(graph)));
    const auto stats = RunEngineTrials(graph, t_exact, trials, epsilon,
                                       /*stream_seed=*/800, /*seed_base=*/7200,
                                       &totals);
    ms.push_back(static_cast<double>(m_sweep));
    m_spaces.push_back(stats.space_words.median);
    m_table.AddRow({Table::Int(static_cast<std::int64_t>(m_sweep)),
                    Table::Int(static_cast<std::int64_t>(stats.space_words.median)),
                    Table::Pct(stats.rel_error.median)});
  }
  m_table.set_title("space vs m at fixed T~" + std::to_string(t_fixed));
  m_table.Print(std::cout);
  ctx.RecordTable("space_vs_m", m_table);
  ctx.metrics().Set("slope.space_vs_m", bench::LogLogSlope(ms, m_spaces));
  std::cout << "fitted log-log slope (space vs m): "
            << Table::Num(bench::LogLogSlope(ms, m_spaces), 3)
            << "   [paper: +1.0]\n";

  // One stream read per logical pass, shared by all trials: delivered =
  // read × trials when every query is admitted.
  ctx.metrics().SetInt("engine.source_items_read",
                       static_cast<std::int64_t>(totals.source_items_read));
  ctx.metrics().SetInt("engine.items_delivered",
                       static_cast<std::int64_t>(totals.items_delivered));
  ctx.metrics().SetInt("engine.physical_passes",
                       static_cast<std::int64_t>(totals.physical_passes));
  return ctx.Finish();
}

}  // namespace cyclestream

int main(int argc, char** argv) { return cyclestream::Main(argc, argv); }
