// cyclestream_cli — command-line front end for the library.
//
//   cyclestream_cli stats    --graph g.txt
//   cyclestream_cli count    --graph g.txt --target triangles
//                            [--algorithm exact|random-order|triest|cj]
//   cyclestream_cli count    --graph g.txt --target c4
//                            [--algorithm exact|diamonds|f2|l2|three-pass|
//                             arb-f2|bc|wedge]
//   cyclestream_cli generate --model er|gnp|ba|chung-lu|ws|grid
//                            --n 10000 [--m 50000 | --p 0.01 | --deg 6]
//                            --out g.txt
//   cyclestream_cli sweep    --graph g.txt|g.bin --algorithms a,b,c
//                            --queries 16 [--order shuffled|file]
//                            [--per-query-budget W] [--aggregate-budget W]
//   cyclestream_cli serve    --graph g.txt|g.bin --spec queries.txt
//   cyclestream_cli shard    --graph g.bin --shard-dir DIR --shards W
//
// Graphs are SNAP-format text edge lists, or binary edge streams (.bin,
// see graph/binary_io.h and tools/edge2bin). All estimators print the
// estimate, the exact count (unless --no-exact), and the peak space.
//
// `count` builds its one estimator from a QuerySpec, through the engine's
// factories. `sweep`, `serve`, `shard` and `serve --daemon` are one batch
// front end: the specs come from a --spec file of `key=value` lines or
// from a generated matrix (round-robin over --algorithms, seeds S, S+1,
// ...); the batch runs over one stream of the family its kinds consume;
// and it executes on the StreamBroker (each query run whole on one of the
// --threads broker threads) or on the supervised sharded wave loop.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/wedge_sampler.h"
#include "core/amplify.h"
#include "engine/broker.h"
#include "engine/budget.h"
#include "engine/coordinator.h"
#include "engine/query.h"
#include "engine/shard.h"
#include "engine/spec.h"
#include "engine/supervisor.h"
#include "gen/generators.h"
#include "graph/binary_io.h"
#include "graph/datasets.h"
#include "graph/dodg.h"
#include "graph/exact.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/dynamic/turnstile.h"
#include "stream/dynamic/turnstile_io.h"
#include "stream/order.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

namespace cyclestream {
namespace {

int Usage() {
  std::cerr <<
      "usage: cyclestream_cli "
      "<stats|count|exact|generate|sweep|serve|shard> [flags]\n"
      "  stats    --graph FILE | --karate\n"
      "  exact    --graph FILE [--target triangles|c4|both]\n"
      "           [--exact_backend naive|dodg] [--hub-range H]\n"
      "           .bin graphs mmap straight into the DODG CSR build\n"
      "  count    --graph FILE --target triangles|c4 [--algorithm NAME]\n"
      "           [--epsilon E] [--t-guess T] [--seed S] [--no-exact]\n"
      "           [--delta D]   amplify: median of ~2*ln(1/D) parallel copies\n"
      "           [--checkpoint_dir DIR --checkpoint_every K [--resume]\n"
      "            [--kill_after N]]   snapshot/resume (see DESIGN.md §10)\n"
      "  generate --model er|gnp|ba|chung-lu|ws|grid --n N\n"
      "           [--m M | --p P | --deg D] [--seed S] --out FILE\n"
      "  sweep, serve, shard and serve --daemon: one batch front end\n"
      "    --graph FILE [--order shuffled|file] [--seed S] [--no-exact]\n"
      "    [--per-query-budget W] [--aggregate-budget W] [--block-edges B]\n"
      "    specs: --spec FILE of QuerySpec lines (name= kind= [seed=]\n"
      "      [budget=] [epsilon=] [c=] [t_guess=] [level_rate=]\n"
      "      [prefix_rate=] [reservoir=] [num_vertices=] [window=]\n"
      "      [window_buckets=] [decay_epoch=] [decay_log2=]), else the\n"
      "      matrix --algorithms a,b,... --queries N, round-robin over the\n"
      "      kinds with seeds S, S+1, ...: [--epsilon E] [--c C]\n"
      "      [--t-guess T] [--budget-words W] [--reservoir M]\n"
      "      [--level-rate R] [--prefix-rate R], and for turnstile kinds\n"
      "      [--window W --window-buckets B] (the last W updates in B\n"
      "      merged buckets, B divides W) or [--decay-epoch K\n"
      "      --decay-log2 D] (the sketch times 2^-D every K updates)\n"
      "    stream: one batch = one stream, of the family all kinds share:\n"
      "      edge (random-order triest cormode-jowhari arb-f2\n"
      "      arb-three-pass bera-chakrabarti), adjacency (adj-diamond\n"
      "      adj-f2 adj-l2) or turnstile (turnstile-f2-triangle\n"
      "      turnstile-f2-c4; a .bin v2 file from `edge2bin --turnstile`\n"
      "      streams in file order, any insert-only graph is wrapped)\n"
      "    executor: sweep and serve run the broker, each query whole\n"
      "      on one of the --threads threads; shard and serve --daemon\n"
      "      run the supervised sharded loop\n"
      "  sweep    the matrix, default random-order,triest,cormode-jowhari x16\n"
      "  serve    --spec FILE (required)\n"
      "  shard    --shard-dir DIR [--shards W]; the matrix defaults to\n"
      "           arb-f2 x4. W workers each sketch one contiguous slice;\n"
      "           the merge is bit-identical to --shards 1 at any W; kinds\n"
      "           must be shard-mergeable (arb-f2)\n"
      "           [--launch inprocess|subprocess] [--worker-binary BIN]\n"
      "           (subprocess needs a .bin graph and --order file)\n"
      "           [--epoch-edges K] [--kill-shard I --kill-edges E]\n"
      "           [--max-retries N]   launch attempts per worker, the first\n"
      "           included (default 2) [--backoff-ms B] [--backoff-cap-ms C]\n"
      "           (default 0) [--shard-deadline-ms D] [--wave-deadline-ms D]\n"
      "           [--heartbeat-edges K] [--throttle-ms T]\n"
      "           [--hang-shard I --hang-edges E]   fault injection\n"
      "           SIGTERM/SIGINT drain at the next epoch boundary (exit 3);\n"
      "           --resume finishes a drained or crashed batch with a\n"
      "           byte-identical deterministic manifest\n"
      "  serve --daemon   always-on shard: the same flags, with defaults\n"
      "           --max-retries 3 --backoff-ms 50 --backoff-cap-ms 2000\n"
      "  common:  --threads N   worker threads (0 = all cores, 1 = serial)\n"
      "           --json_out FILE   write a structured run manifest\n"
      "           --json_det_out FILE   write the deterministic manifest\n"
      "           .bin graphs (tools/edge2bin) mmap in zero-copy\n";
  return 2;
}

bool IsBinaryGraphPath(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
}

// The input graph of a run: --karate, a text edge list, or a .bin edge
// stream. A .bin file stays mapped in `reader`, so a file-order edge batch
// streams straight from the mapping.
struct GraphInput {
  BinaryEdgeReader reader;
  EdgeList graph;
  bool binary = false;
};

bool LoadGraph(FlagParser& flags, GraphInput* input) {
  if (flags.GetBool("karate", false)) {
    input->graph = KarateClub();
    return true;
  }
  const std::string path = flags.GetString("graph", "");
  if (path.empty()) {
    std::cerr << "error: --graph FILE (or --karate) is required\n";
    return false;
  }
  if (IsBinaryGraphPath(path)) {
    std::string error;
    if (!input->reader.Open(path, &error)) {
      std::cerr << "error: " << error << "\n";
      return false;
    }
    input->binary = true;
    input->graph = input->reader.ToEdgeList();
    return true;
  }
  auto loaded = LoadEdgeListText(path);
  if (!loaded) {
    std::cerr << "error: cannot load " << path << "\n";
    return false;
  }
  input->graph = std::move(*loaded);
  return true;
}

int RunStats(FlagParser& flags, RunManifest& manifest) {
  GraphInput input;
  if (!LoadGraph(flags, &input)) return 1;
  const Graph g(input.graph);
  Table t({"statistic", "value"});
  t.AddRow({"vertices", Table::Int(g.num_vertices())});
  t.AddRow({"edges", Table::Int(static_cast<std::int64_t>(g.num_edges()))});
  t.AddRow({"max degree", Table::Int(static_cast<std::int64_t>(g.MaxDegree()))});
  t.AddRow({"wedges", Table::Int(static_cast<std::int64_t>(CountWedges(g)))});
  t.AddRow({"triangles", Table::Int(static_cast<std::int64_t>(CountTriangles(g)))});
  t.AddRow({"four-cycles", Table::Int(static_cast<std::int64_t>(CountFourCycles(g)))});
  t.AddRow({"transitivity", Table::Num(Transitivity(g), 4)});
  const auto hist = DiamondHistogram(g);
  std::uint32_t max_diamond = 0;
  for (const auto& [size, count] : hist) {
    (void)count;
    max_diamond = std::max(max_diamond, size);
  }
  t.AddRow({"largest diamond", Table::Int(max_diamond)});
  t.Print(std::cout);
  manifest.AddTable("stats", t);
  manifest.metrics().SetInt("graph.vertices", g.num_vertices());
  manifest.metrics().SetInt("graph.edges",
                            static_cast<std::int64_t>(g.num_edges()));
  return 0;
}

// Exact-count front end: the scale path for ground truth. With the dodg
// backend a .bin graph (tools/edge2bin) feeds the mmap'd edge array
// straight into the DODG CSR build — no text parse, no EdgeList. Counts,
// sizes, and the backend go into the deterministic manifest (identical
// across ISAs and thread counts); kernel choice and timings stay on stderr
// and in the timing section.
int RunExact(FlagParser& flags, RunManifest& manifest) {
  const std::string target = flags.GetString("target", "both");
  if (target != "triangles" && target != "c4" && target != "both") {
    std::cerr << "error: --target must be triangles, c4, or both\n";
    return Usage();
  }
  const ExactBackend backend = GetExactBackend();
  const bool want_triangles = target != "c4";
  const bool want_c4 = target != "triangles";

  VertexId num_vertices = 0;
  std::size_t num_edges = 0;
  std::uint64_t triangles = 0;
  std::uint64_t four_cycles = 0;
  double build_seconds = 0.0;
  double count_seconds = 0.0;

  if (backend == ExactBackend::kDodg) {
    DodgGraph::Options options;
    options.hub_range =
        static_cast<VertexId>(flags.GetInt("hub-range", 0));
    const std::string path = flags.GetString("graph", "");
    Timer build_timer;
    DodgGraph dodg;
    if (!flags.GetBool("karate", false) && IsBinaryGraphPath(path)) {
      BinaryEdgeReader reader;
      std::string error;
      if (!reader.Open(path, &error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      dodg = DodgGraph::Build(reader.edges(), reader.num_edges(),
                              reader.num_vertices(), options);
    } else {
      GraphInput input;
      if (!LoadGraph(flags, &input)) return 1;
      dodg = DodgGraph::Build(input.graph, options);
    }
    build_seconds = build_timer.Seconds();
    std::cerr << "exact backend: dodg (kernels: " << ActiveExactKernels()
              << ", hub range " << dodg.hub_range() << ")\n";
    num_vertices = dodg.num_vertices();
    num_edges = dodg.num_edges();
    Timer count_timer;
    if (want_triangles) triangles = dodg.CountTriangles();
    if (want_c4) four_cycles = dodg.CountFourCycles();
    count_seconds = count_timer.Seconds();
  } else {
    GraphInput input;
    if (!LoadGraph(flags, &input)) return 1;
    Timer build_timer;
    const Graph g(input.graph);
    build_seconds = build_timer.Seconds();
    std::cerr << "exact backend: naive\n";
    num_vertices = g.num_vertices();
    num_edges = g.num_edges();
    Timer count_timer;
    if (want_triangles) triangles = CountTriangles(g);
    if (want_c4) four_cycles = CountFourCycles(g);
    count_seconds = count_timer.Seconds();
  }

  Table t({"statistic", "value"});
  t.AddRow({"backend", ExactBackendName(backend)});
  t.AddRow({"vertices", Table::Int(num_vertices)});
  t.AddRow({"edges", Table::Int(static_cast<std::int64_t>(num_edges))});
  if (want_triangles) {
    t.AddRow({"triangles", Table::Int(static_cast<std::int64_t>(triangles))});
  }
  if (want_c4) {
    t.AddRow(
        {"four-cycles", Table::Int(static_cast<std::int64_t>(four_cycles))});
  }
  t.Print(std::cout);
  std::cerr << "build " << build_seconds << "s, count " << count_seconds
            << "s\n";
  manifest.AddTable("exact", t);
  manifest.metrics().SetInt("graph.vertices", num_vertices);
  manifest.metrics().SetInt("graph.edges",
                            static_cast<std::int64_t>(num_edges));
  if (want_triangles) {
    manifest.metrics().SetInt("exact.triangles",
                              static_cast<std::int64_t>(triangles));
  }
  if (want_c4) {
    manifest.metrics().SetInt("exact.c4",
                              static_cast<std::int64_t>(four_cycles));
  }
  manifest.metrics().SetTiming("exact.build_seconds", build_seconds);
  manifest.metrics().SetTiming("exact.count_seconds", count_seconds);
  return 0;
}

// `count`'s algorithm names and the QueryKind the engine's factory builds
// for each; the name's target must match --target. `wedge` (a baseline with
// no kind) and `exact` have their own branches.
struct CountAlgorithm {
  const char* name;
  engine::QueryKind kind;
};
constexpr CountAlgorithm kCountAlgorithms[] = {
    {"random-order", engine::QueryKind::kRandomOrderTriangles},
    {"triest", engine::QueryKind::kTriest},
    {"cj", engine::QueryKind::kCormodeJowhari},
    {"diamonds", engine::QueryKind::kAdjDiamond},
    {"f2", engine::QueryKind::kAdjF2},
    {"l2", engine::QueryKind::kAdjL2},
    {"three-pass", engine::QueryKind::kArbThreePass},
    {"arb-f2", engine::QueryKind::kArbF2},
    {"bc", engine::QueryKind::kBeraChakrabarti},
};

int RunCount(FlagParser& flags, RunManifest& manifest) {
  GraphInput input;
  if (!LoadGraph(flags, &input)) return 1;
  const EdgeList& graph = input.graph;
  const Graph g(graph);
  const std::string target = flags.GetString("target", "triangles");
  const std::string algo = flags.GetString("algorithm", "exact");
  ApproxConfig base;
  base.epsilon = flags.GetDouble("epsilon", 0.2);
  base.c = flags.GetDouble("c", 2.0);
  // The estimators CHECK these; refuse bad flags as a spec would be.
  base.t_guess = flags.GetDouble("t-guess", 1.0);
  std::string param_error;
  if (!engine::ValidateApproxConfig(base, &param_error)) {
    std::cerr << "error: " << param_error << "\n";
    return 1;
  }
  if (target != "triangles" && target != "c4") {
    std::cerr << "unknown target: " << target << "\n";
    return Usage();
  }
  std::optional<engine::QueryKind> kind;
  for (const CountAlgorithm& a : kCountAlgorithms) {
    if (algo == a.name && engine::QueryKindTarget(a.kind) == target) {
      kind = a.kind;
    }
  }
  const bool wedge = algo == "wedge" && target == "c4";
  if (algo != "exact" && !kind.has_value() && !wedge) {
    std::cerr << "unknown " << (target == "c4" ? "c4" : "triangle")
              << " algorithm: " << algo << "\n";
    return Usage();
  }
  const std::uint64_t seed = flags.GetCount("seed", 1);
  const bool show_exact = !flags.GetBool("no-exact", false);
  // --delta > 0 amplifies: median over ~2·ln(1/δ) copies, run in parallel
  // on the --threads budget; each copy replays the same materialized
  // stream with its own derived seed.
  const double delta = flags.GetDouble("delta", 0.0);

  double exact = -1.0;
  if (show_exact || algo == "exact" || flags.GetDouble("t-guess", 0) <= 0) {
    exact = target == "triangles"
                ? static_cast<double>(CountTriangles(g))
                : static_cast<double>(CountFourCycles(g));
  }
  const double t_guess =
      flags.GetDouble("t-guess", std::max(1.0, exact));

  base.t_guess = std::max(1.0, t_guess);
  base.seed = seed;

  Estimate est;
  // Set by the runner to the algorithm's NumPasses(); 0 for `exact`.
  std::atomic<int> passes = 0;
  // Each estimator becomes a seed -> Estimate runner over a stream that is
  // materialized once, up front, and shared read-only — so an amplified
  // count (--delta) can replay the same stream from many threads at once.
  std::function<Estimate(std::uint64_t)> runner;
  Rng order_rng(seed ^ 0x5eedULL);
  EdgeStream edge_stream;
  AdjacencyStream adj_stream;
  if (algo == "exact") {
    est.value = exact;
    est.space_words = 2 * g.num_edges();
  } else if (wedge) {
    adj_stream = MakeAdjacencyStream(g, order_rng);
    const double vertex_rate = flags.GetDouble("vertex-rate", 0.5);
    const double edge_rate = flags.GetDouble("edge-rate", 0.5);
    runner = [&, vertex_rate, edge_rate](std::uint64_t s) {
      WedgeSamplingFourCycleCounter::Params params;
      params.base = base;
      params.base.seed = s;
      params.num_vertices = g.num_vertices();
      params.vertex_rate = vertex_rate;
      params.edge_rate = edge_rate;
      WedgeSamplingFourCycleCounter counter(params);
      passes = counter.NumPasses();
      RunAdjacencyStream(counter, adj_stream);
      return counter.Result();
    };
  } else {
    engine::QuerySpec spec;
    spec.name = algo;
    spec.kind = *kind;
    spec.base = base;
    spec.num_vertices = g.num_vertices();
    if (spec.kind == engine::QueryKind::kTriest) {
      spec.reservoir_capacity = static_cast<std::size_t>(
          flags.GetCount("reservoir", g.num_edges() / 4));
    }
    std::string spec_error;
    if (!engine::ValidateSpec(spec, &spec_error)) {
      std::cerr << "error: " << spec_error << "\n";
      return 2;
    }
    const bool edge_kind = engine::IsEdgeKind(spec.kind);
    if (edge_kind) {
      edge_stream = MakeRandomOrderStream(graph, order_rng);
    } else {
      adj_stream = MakeAdjacencyStream(g, order_rng);
    }
    runner = [&, spec, edge_kind](std::uint64_t s) {
      engine::QuerySpec copy = spec;
      copy.base.seed = s;
      if (edge_kind) {
        const engine::EdgeQuery q = engine::MakeEdgeQuery(copy);
        passes = q.algorithm->NumPasses();
        RunEdgeStream(*q.algorithm, edge_stream);
        return q.result();
      }
      const engine::AdjacencyQuery q = engine::MakeAdjacencyQuery(copy);
      passes = q.algorithm->NumPasses();
      RunAdjacencyStream(*q.algorithm, adj_stream);
      return q.result();
    };
  }
  if (runner != nullptr) {
    est = delta > 0 ? AmplifyMedian(delta, seed, runner) : runner(seed);
  }

  Table t({"quantity", "value"});
  t.AddRow({"algorithm", algo});
  t.AddRow({"passes", Table::Int(passes)});
  if (delta > 0 && algo != "exact") {
    t.AddRow({"amplified copies", Table::Int(AmplifyCopies(delta))});
  }
  t.AddRow({"estimate", Table::Num(est.value, 1)});
  if (show_exact && exact >= 0 && algo != "exact") {
    t.AddRow({"exact", Table::Num(exact, 1)});
    t.AddRow({"relative error",
              Table::Pct(exact > 0 ? std::abs(est.value - exact) / exact
                                   : est.value)});
  }
  t.AddRow({"peak space (words)",
            Table::Int(static_cast<std::int64_t>(est.space_words))});
  t.AddRow({"stream size (words)",
            Table::Int(2 * static_cast<std::int64_t>(g.num_edges()))});
  t.Print(std::cout);
  manifest.AddTable("count", t);
  manifest.metrics().Set("estimate", est.value);
  if (show_exact && exact >= 0) manifest.metrics().Set("exact", exact);
  manifest.metrics().SetInt("space_words",
                            static_cast<std::int64_t>(est.space_words));
  manifest.metrics().SetInt("passes", passes);
  return 0;
}

// Exact counts computed lazily per target: the default t_guess, and the
// reference for the printed relative errors.
class ExactCache {
 public:
  explicit ExactCache(const Graph& g) : g_(g) {}

  double For(engine::QueryKind kind) {
    if (engine::QueryKindTarget(kind) == "triangles") {
      if (triangles_ < 0) triangles_ = static_cast<double>(CountTriangles(g_));
      return triangles_;
    }
    if (c4_ < 0) c4_ = static_cast<double>(CountFourCycles(g_));
    return c4_;
  }

  double triangles() const { return triangles_; }
  double c4() const { return c4_; }

 private:
  const Graph& g_;
  double triangles_ = -1.0;
  double c4_ = -1.0;
};

// The tail of the batch front end: the per-query outcome table plus the
// manifest export. One printer for both executors keeps the sharded
// engine's manifests comparable with the broker's.
void PrintEngineOutcomes(const std::vector<engine::QueryOutcome>& outcomes,
                         const engine::EngineStats& stats, bool show_exact,
                         ExactCache& exact, RunManifest& manifest) {
  Table t({"query", "kind", "admission", "wave", "estimate", "rel.err",
           "space(w)"});
  for (const engine::QueryOutcome& out : outcomes) {
    const bool ran =
        out.admission == engine::AdmissionOutcome::kAdmitted && !out.poisoned;
    std::string rel = "-";
    if (ran && show_exact) {
      const double truth = exact.For(out.spec.kind);
      rel = Table::Pct(truth > 0
                           ? std::abs(out.estimate.value - truth) / truth
                           : out.estimate.value);
    }
    t.AddRow({out.spec.name, std::string(engine::QueryKindName(out.spec.kind)),
              out.poisoned
                  ? std::string("poisoned")
                  : std::string(engine::AdmissionOutcomeName(out.admission)),
              Table::Int(out.wave),
              ran ? Table::Num(out.estimate.value, 1) : "-", rel,
              ran ? Table::Int(static_cast<std::int64_t>(
                        out.estimate.space_words))
                  : "-"});
  }
  t.set_title("engine batch: " + std::to_string(outcomes.size()) +
              " queries, " + std::to_string(stats.physical_passes) +
              " physical stream reads");
  t.Print(std::cout);
  manifest.AddTable("engine", t);
  engine::ExportToManifest(outcomes, stats, manifest);
  if (show_exact && exact.triangles() >= 0) {
    manifest.metrics().Set("exact.triangles", exact.triangles());
  }
  if (show_exact && exact.c4() >= 0) {
    manifest.metrics().Set("exact.c4", exact.c4());
  }
}

// The four batch subcommands differ only in these defaults: where the
// specs come from when there is no --spec file, and which executor runs
// the batch. `shard` and `serve --daemon` both run the supervised sharded
// loop; `shard`'s retry defaults are RunShardedBatch's policy (two
// attempts per worker, no backoff).
struct BatchFrontEnd {
  const char* name;                // Prefix of the supervised log lines.
  const char* default_algorithms;  // nullptr: --spec FILE is required.
  std::uint64_t default_queries;
  bool supervised;
  std::uint64_t default_attempts;
  std::uint64_t default_backoff_ms;
  std::uint64_t default_backoff_cap_ms;
};
constexpr BatchFrontEnd kSweepFrontEnd{
    "sweep", "random-order,triest,cormode-jowhari", 16, false, 0, 0, 0};
constexpr BatchFrontEnd kServeFrontEnd{"serve", nullptr, 0, false, 0, 0, 0};
constexpr BatchFrontEnd kShardFrontEnd{"shard", "arb-f2", 4, true, 2, 0, 0};
constexpr BatchFrontEnd kDaemonFrontEnd{"daemon", "arb-f2", 4, true,
                                        3, 50, 2000};

// The batch's specs: the --spec file (the engine's strict parser: trailing
// garbage and wrapped negatives are `file:line:` errors), else the matrix
// round-robin over --algorithms with seeds S, S+1, .... Returns -1 on
// success, else the exit code.
int BuildSpecs(FlagParser& flags, const BatchFrontEnd& front,
               std::vector<engine::QuerySpec>* specs) {
  engine::QuerySpec base;
  base.base.epsilon = flags.GetDouble("epsilon", 0.2);
  base.base.c = flags.GetDouble("c", 2.0);
  base.base.t_guess = flags.GetDouble("t-guess", 0.0);
  base.base.seed = flags.GetCount("seed", 1);
  const std::string spec_path = flags.GetString("spec", "");
  if (!spec_path.empty()) {
    std::string error;
    if (!engine::ParseSpecFile(spec_path, base, specs, &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    return -1;
  }
  if (front.default_algorithms == nullptr) {
    std::cerr << "error: --spec FILE is required\n";
    return Usage();
  }

  std::vector<engine::QueryKind> kinds;
  std::istringstream algos(
      flags.GetString("algorithms", front.default_algorithms));
  for (std::string name; std::getline(algos, name, ',');) {
    if (name.empty()) continue;
    const auto kind = engine::ParseQueryKind(name);
    if (!kind.has_value()) {
      std::cerr << "error: unknown algorithm '" << name << "'\n";
      return Usage();
    }
    kinds.push_back(*kind);
  }
  if (kinds.empty()) {
    std::cerr << "error: --algorithms must name at least one algorithm\n";
    return Usage();
  }

  const std::uint64_t num_queries =
      flags.GetCount("queries", front.default_queries);
  base.reservoir_capacity =
      static_cast<std::size_t>(flags.GetCount("reservoir", 1000));
  base.level_rate = flags.GetDouble("level-rate", -1.0);
  base.prefix_rate = flags.GetDouble("prefix-rate", -1.0);
  base.space_budget_words =
      static_cast<std::size_t>(flags.GetCount("budget-words", 0));
  base.window_edges = flags.GetCount("window", 0);
  base.window_buckets = flags.GetCount("window-buckets", 8);
  base.decay_epoch_edges = flags.GetCount("decay-epoch", 0);
  base.decay_log2 =
      static_cast<std::uint32_t>(flags.GetCount("decay-log2", 0));
  for (std::uint64_t i = 0; i < num_queries; ++i) {
    engine::QuerySpec spec = base;
    spec.kind = kinds[i % kinds.size()];
    spec.name =
        std::string(engine::QueryKindName(spec.kind)) + "-" + std::to_string(i);
    spec.base.seed = base.base.seed + i;
    std::string spec_error;
    if (!engine::ValidateSpec(spec, &spec_error)) {
      std::cerr << "error: " << spec_error << "\n";
      return 1;
    }
    specs->push_back(std::move(spec));
  }
  return -1;
}

// The supervised executor's options from the flags, with `front`'s retry
// defaults. Creates --shard-dir. Returns -1 on success, else the exit code.
int ReadSupervision(FlagParser& flags, const BatchFrontEnd& front,
                    engine::SupervisorOptions* opt) {
  engine::ShardPlanOptions& plan = opt->plan;
  plan.num_workers = static_cast<int>(flags.GetCount("shards", 1));
  if (plan.num_workers < 1) {
    std::cerr << "error: --shards must be >= 1\n";
    return 1;
  }
  plan.shard_dir = flags.GetString("shard-dir", "");
  if (plan.shard_dir.empty()) {
    std::cerr << "error: --shard-dir DIR is required\n";
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(plan.shard_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create --shard-dir " << plan.shard_dir << ": "
              << ec.message() << "\n";
    return 1;
  }
  const std::string launch = flags.GetString("launch", "inprocess");
  if (launch != "inprocess" && launch != "subprocess") {
    std::cerr << "error: --launch must be inprocess or subprocess\n";
    return 1;
  }
  plan.launch = launch == "subprocess" ? engine::ShardLaunch::kSubprocess
                                       : engine::ShardLaunch::kInProcess;
  plan.epoch_edges = flags.GetCount("epoch-edges", 0);
  plan.worker_binary = flags.GetString("worker-binary", "");
  plan.kill_worker = static_cast<int>(flags.GetInt("kill-shard", -1));
  plan.kill_after_edges = flags.GetCount("kill-edges", 0);

  opt->retry.max_attempts = static_cast<int>(std::max<std::uint64_t>(
      1, flags.GetCount("max-retries", front.default_attempts)));
  opt->retry.base_backoff_ms =
      flags.GetCount("backoff-ms", front.default_backoff_ms);
  opt->retry.backoff_cap_ms =
      flags.GetCount("backoff-cap-ms", front.default_backoff_cap_ms);
  opt->deadline.shard_deadline_ms = flags.GetCount("shard-deadline-ms", 0);
  opt->deadline.wave_deadline_ms = flags.GetCount("wave-deadline-ms", 0);
  opt->heartbeat_edges = flags.GetCount("heartbeat-edges", 0);
  opt->resume = flags.GetBool("resume", false);
  opt->hang_worker = static_cast<int>(flags.GetInt("hang-shard", -1));
  opt->hang_after_edges = flags.GetCount("hang-edges", 0);
  opt->throttle_ms_per_block = flags.GetCount("throttle-ms", 0);
  return -1;
}

// The three stream families; one batch = one stream, so every spec in a
// batch must consume the same one.
enum class StreamFamily { kEdge, kAdjacency, kTurnstile };

StreamFamily FamilyOf(engine::QueryKind kind) {
  if (engine::IsTurnstileKind(kind)) return StreamFamily::kTurnstile;
  return engine::IsEdgeKind(kind) ? StreamFamily::kEdge
                                  : StreamFamily::kAdjacency;
}

// One batch's stream, in its family, and the graph whose exact counts fill
// the default t_guess and score the estimates.
struct BatchStream {
  GraphInput input;
  std::optional<Graph> graph;
  std::uint32_t format_version = 0;  // Of a .bin input; 0 otherwise.
  EdgeStream shuffled;
  std::span<const Edge> edges;  // Edge family: the stream in --order.
  AdjacencyStream adjacency;
  TurnstileStream turnstile;
};

// Loads the stream of `family`. Edge order (--order): `shuffled` is one
// seeded permutation; `file` is the graph's canonical order, except that an
// edge batch streams a .bin straight from its mapping. A turnstile batch
// streams a .bin v2 file (edge2bin --turnstile) in file order, because its
// update order is semantic (a delete must follow a live insert), and wraps
// any insert-only source in the edge order; its graph is the live graph
// after every update, which is what the estimates approximate. An
// adjacency stream is grouped by vertex in a seeded vertex order.
bool LoadBatchStream(FlagParser& flags, StreamFamily family,
                     BatchStream* s) {
  const std::string order = flags.GetString("order", "shuffled");
  if (order != "shuffled" && order != "file") {
    std::cerr << "error: --order must be shuffled or file\n";
    return false;
  }
  Rng order_rng(flags.GetCount("seed", 1) ^ 0x5eedULL);
  const std::string path = flags.GetString("graph", "");
  VertexId num_vertices = 0;
  if (family == StreamFamily::kTurnstile && !flags.GetBool("karate", false) &&
      IsBinaryGraphPath(path) &&
      SniffBinaryFormatVersion(path) == kBinaryTurnstileVersion) {
    TurnstileBinaryReader reader;
    std::string error;
    if (!reader.Open(path, &error)) {
      std::cerr << "error: " << error << "\n";
      return false;
    }
    num_vertices = reader.num_vertices();
    s->format_version = reader.format_version();
    s->turnstile = reader.TakeStream();
  } else {
    if (!LoadGraph(flags, &s->input)) return false;
    const EdgeList& graph = s->input.graph;
    if (s->input.binary) s->format_version = s->input.reader.format_version();
    num_vertices = graph.num_vertices();
    if (family == StreamFamily::kAdjacency) {
      s->graph.emplace(graph);
      s->adjacency = MakeAdjacencyStream(*s->graph, order_rng);
      return true;
    }
    if (order == "shuffled") {
      s->shuffled = MakeRandomOrderStream(graph, order_rng);
      s->edges = s->shuffled;
    } else if (s->input.binary && family == StreamFamily::kEdge) {
      s->edges = {s->input.reader.edges(), s->input.reader.num_edges()};
    } else {
      s->edges = graph.edges();
    }
    if (family == StreamFamily::kEdge) {
      s->graph.emplace(graph);
      return true;
    }
    s->turnstile = TurnstileFromEdges(s->edges);
  }
  EdgeList live(num_vertices);
  for (const Edge& e : LiveEdges(s->turnstile)) live.Add(e.u, e.v);
  live.Finalize();
  s->graph.emplace(live);
  return true;
}

// Runs the batch on the supervised sharded loop. Returns -1 with the
// outcomes on success, else the exit code: 1 on a resume that does not
// match the batch, 3 on a drain (no manifest: partial results must never
// be mistaken for the batch's, so Main skips --json_out/--json_det_out).
int RunSupervised(const BatchFrontEnd& front,
                  const std::vector<engine::QuerySpec>& specs,
                  std::span<const Edge> edges,
                  const engine::SupervisorOptions& opt, RunManifest& manifest,
                  std::vector<engine::QueryOutcome>* outcomes,
                  engine::EngineStats* stats) {
  engine::InstallDrainHandlers();
  engine::SupervisedBatchResult result;
  std::string error;
  if (!engine::RunSupervisedBatch(specs, edges, opt, &result, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  const engine::SupervisorCounters& c = result.counters;
  engine::ExportSupervisorCounters(c, manifest);
  std::cerr << front.name << ": " << c.waves_completed
            << " wave(s) completed, " << c.retries << " retr(ies), "
            << c.deadline_kills << " deadline kill(s); "
            << opt.plan.num_workers << " worker(s), " << c.workers_launched
            << " launch(es), " << c.retries << " recovered\n";
  if (result.drained) {
    std::cerr << front.name
              << ": drained mid-batch; rerun with --resume to finish (state "
                 "in "
              << opt.plan.shard_dir << ")\n";
    return 3;
  }
  for (int wave : result.poisoned_waves) {
    std::cerr << front.name << ": wave " << wave
              << " poisoned (retry budget exhausted)\n";
  }
  *outcomes = std::move(result.outcomes);
  *stats = result.stats;
  return -1;
}

// The one batch front end behind `sweep`, `serve`, `shard` and
// `serve --daemon`: specs (BuildSpecs), the stream of the batch's family
// (LoadBatchStream), the spec defaults (n, and t_guess from the exact count
// of each query's target), then the broker or the supervised sharded loop,
// and the per-query outcome table and manifest export. Everything printed
// and exported is deterministic at any --threads, and the sharded loop's
// results are bit-identical to the broker's at any --shards.
int RunBatch(FlagParser& flags, RunManifest& manifest,
             const BatchFrontEnd& front) {
  engine::SupervisorOptions supervision;
  int rc = front.supervised ? ReadSupervision(flags, front, &supervision) : -1;
  if (rc >= 0) return rc;
  std::vector<engine::QuerySpec> specs;
  rc = BuildSpecs(flags, front, &specs);
  if (rc >= 0) return rc;
  if (specs.empty()) {
    std::cerr << "error: no queries to run\n";
    return 1;
  }
  const StreamFamily family = FamilyOf(specs[0].kind);
  for (const engine::QuerySpec& spec : specs) {
    const std::string what = "query '" + spec.name + "' (" +
                             std::string(engine::QueryKindName(spec.kind)) +
                             ")";
    if (front.supervised && engine::IsTurnstileKind(spec.kind)) {
      // Honest scoping, not an oversight: the shard slices, state files,
      // and resume protocol are built around the v1 edge stream.
      std::cerr << "error: " << what
                << " is a turnstile kind; the multi-process shard "
                   "coordinator and `serve --daemon` do not support "
                   "turnstile streams — use `serve` or `sweep`\n";
      return 1;
    }
    if (front.supervised && !engine::IsShardMergeableKind(spec.kind)) {
      std::cerr << "error: " << what
                << " is not shard-mergeable; `shard` supports arb-f2\n";
      return 1;
    }
    if (FamilyOf(spec.kind) != family) {
      std::cerr << "error: " << what
                << " mixes stream families; one batch = one stream\n";
      return 1;
    }
  }

  BatchStream stream;
  if (!LoadBatchStream(flags, family, &stream)) return 1;
  engine::ShardPlanOptions& plan = supervision.plan;
  if (front.supervised && plan.launch == engine::ShardLaunch::kSubprocess) {
    // Subprocess workers mmap the .bin themselves, so the loop must stream
    // the same bytes in the same order: binary file order only.
    if (!stream.input.binary || flags.GetString("order", "") != "file") {
      std::cerr << "error: --launch subprocess needs a .bin graph and "
                   "--order file (workers stream the file directly)\n";
      return 1;
    }
    plan.stream_path = flags.GetString("graph", "");
  }
  const bool show_exact = !flags.GetBool("no-exact", false);
  ExactCache exact(*stream.graph);
  for (engine::QuerySpec& spec : specs) {
    if (spec.num_vertices == 0) {
      spec.num_vertices = stream.graph->num_vertices();
    }
    if (spec.base.t_guess <= 1.0) {
      spec.base.t_guess = std::max(1.0, exact.For(spec.kind));
    }
  }

  const std::size_t block_edges = static_cast<std::size_t>(
      flags.GetCount("block-edges", kDefaultBlockSize));
  engine::BudgetPolicy budget;
  budget.per_query_words =
      static_cast<std::size_t>(flags.GetCount("per-query-budget", 0));
  budget.aggregate_words =
      static_cast<std::size_t>(flags.GetCount("aggregate-budget", 0));
  std::vector<engine::QueryOutcome> outcomes;
  engine::EngineStats stats;
  if (front.supervised) {
    plan.block_edges = block_edges;
    plan.budget = budget;
    rc = RunSupervised(front, specs, stream.edges, supervision, manifest,
                       &outcomes, &stats);
    if (rc >= 0) return rc;
  } else {
    engine::BrokerOptions options;
    options.block_size = block_edges;
    options.budget = budget;
    engine::StreamBroker broker(options);
    for (const engine::QuerySpec& spec : specs) broker.AddQuery(spec);
    if (family == StreamFamily::kEdge) {
      outcomes = broker.RunEdgeQueries(stream.edges);
    } else if (family == StreamFamily::kAdjacency) {
      outcomes = broker.RunAdjacencyQueries(stream.adjacency);
    } else {
      outcomes = broker.RunTurnstileQueries(stream.turnstile);
      manifest.metrics().SetInt(
          "stream.updates", static_cast<std::int64_t>(stream.turnstile.size()));
    }
    stats = broker.stats();
    if (stream.format_version != 0) {
      manifest.metrics().SetInt(
          "stream.format_version",
          static_cast<std::int64_t>(stream.format_version));
    }
  }
  PrintEngineOutcomes(outcomes, stats, show_exact, exact, manifest);
  return 0;
}

// `shard-worker`: the subprocess half of `shard --launch subprocess`. Not
// meant for direct use; it recomputes the stream and spec fingerprints
// from its input files (an end-to-end codec check — the coordinator
// rejects the state if either disagrees with its own).
int RunShardWorkerCommand(FlagParser& flags) {
  const std::string stream_path = flags.GetString("stream", "");
  const std::string spec_path = flags.GetString("spec-file", "");
  const std::string state_out = flags.GetString("state-out", "");
  if (stream_path.empty() || spec_path.empty() || state_out.empty()) {
    std::cerr << "error: shard-worker needs --stream, --spec-file, and "
                 "--state-out\n";
    return 1;
  }
  BinaryEdgeReader reader;
  std::string error;
  if (!reader.Open(stream_path, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  const std::span<const Edge> edges(reader.edges(), reader.num_edges());

  engine::ShardWorkerConfig config;
  // The coordinator's spec file is fully resolved (every key explicit), so
  // the defaults here never matter.
  if (!engine::ParseSpecFile(spec_path, engine::QuerySpec(), &config.specs,
                             &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  if (!engine::ParseShardRanges(flags.GetString("ranges", ""),
                                &config.ranges)) {
    std::cerr << "error: --ranges must be begin:end[,begin:end...]\n";
    return 1;
  }
  config.edges = edges;
  config.worker_id = static_cast<std::uint32_t>(flags.GetCount("worker", 0));
  config.num_workers =
      static_cast<std::uint32_t>(flags.GetCount("workers", 1));
  config.stream_fingerprint = FingerprintEdgeStream(edges);
  config.spec_fingerprint = engine::FingerprintSpecs(config.specs);
  config.block_edges =
      static_cast<std::size_t>(flags.GetCount("block-edges", 4096));
  config.epoch_edges = flags.GetCount("epoch-edges", 0);
  config.checkpoint_path = flags.GetString("checkpoint", "");
  config.resume = flags.GetBool("resume", false);
  config.die_after_edges =
      flags.GetCount("die-after-edges", engine::kNoDeath);
  config.hang_after_edges =
      flags.GetCount("hang-after-edges", engine::kNoDeath);
  config.heartbeat_edges = flags.GetCount("heartbeat-edges", 0);
  config.heartbeat_path = flags.GetString("heartbeat", "");
  config.throttle_ms_per_block = flags.GetCount("throttle-ms", 0);

  // A supervisor's SIGTERM must drain, not kill: the handler latches the
  // worker drain flag, the loop checkpoints at the next epoch boundary,
  // and the exit code acknowledges the drain.
  engine::IgnoreSigpipe();
  engine::InstallDrainHandlers();

  const engine::ShardWorkerOutcome outcome =
      engine::RunShardWorker(config, state_out, &error);
  if (outcome.drained) return engine::kDrainExitCode;
  if (!outcome.completed) {
    if (config.die_after_edges != engine::kNoDeath &&
        outcome.edges_done == config.die_after_edges) {
      // Injected death: die the way a real crash would (no state file, no
      // cleanup) so the coordinator's recovery path sees the real thing.
      std::_Exit(kKilledExitCode);
    }
    std::cerr << "error: " << (error.empty() ? "worker failed" : error)
              << "\n";
    return 1;
  }
  return 0;
}

int RunGenerate(FlagParser& flags, RunManifest& manifest) {
  const std::string model = flags.GetString("model", "er");
  const VertexId n = static_cast<VertexId>(flags.GetInt("n", 10000));
  const std::uint64_t seed = flags.GetInt("seed", 1);
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::cerr << "error: --out FILE is required\n";
    return Usage();
  }
  Rng rng(seed);
  EdgeList graph;
  if (model == "er") {
    graph = ErdosRenyiGnm(
        n, static_cast<std::size_t>(flags.GetInt("m", 4 * n)), rng);
  } else if (model == "gnp") {
    graph = ErdosRenyiGnp(n, flags.GetDouble("p", 0.001), rng);
  } else if (model == "ba") {
    graph = BarabasiAlbert(
        n, static_cast<std::size_t>(flags.GetInt("deg", 5)), rng);
  } else if (model == "chung-lu") {
    graph = ChungLuPowerLaw(n, flags.GetDouble("deg", 8.0),
                            flags.GetDouble("beta", 2.5), rng);
  } else if (model == "ws") {
    graph = WattsStrogatz(
        n, static_cast<std::uint32_t>(flags.GetInt("k", 6)),
        flags.GetDouble("rewire", 0.1), rng);
  } else if (model == "grid") {
    const VertexId side = static_cast<VertexId>(
        std::max<std::int64_t>(2, flags.GetInt("side", 100)));
    graph = Grid2d(side, side);
  } else {
    std::cerr << "unknown model: " << model << "\n";
    return Usage();
  }
  if (!SaveEdgeListText(graph, out)) {
    std::cerr << "error: cannot write " << out << "\n";
    return 1;
  }
  std::cout << "wrote " << out << ": n=" << graph.num_vertices()
            << " m=" << graph.num_edges() << "\n";
  manifest.metrics().SetInt("graph.vertices", graph.num_vertices());
  manifest.metrics().SetInt("graph.edges",
                            static_cast<std::int64_t>(graph.num_edges()));
  return 0;
}

// The snapshot flags drive the single-algorithm runs of `count`; every
// other subcommand would ignore them (the broker's waves hold several
// states, the sharded engine has its own durable epochs). Returns false,
// after a pointed error, if any of them is set.
bool RejectCheckpointFlags(const FlagParser& flags,
                           const std::string& command) {
  for (const char* name :
       {"checkpoint_dir", "checkpoint_every", "kill_after"}) {
    if (flags.values().count(name) == 0) continue;
    std::cerr << "error: --" << name << " applies only to `count` (and the "
              << "experiment binaries); `" << command
              << "` does not take it. `shard` and `serve --daemon` "
                 "checkpoint with --epoch-edges K and inject crashes with "
                 "--kill-shard I --kill-edges E.\n";
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  // Workers skip the manifest/teardown machinery: their only output is the
  // state file, and they may _Exit mid-stream under fault injection.
  if (flags.positional()[0] == "shard-worker") {
    return RunShardWorkerCommand(flags);
  }
  int threads = ApplyThreadsFlag(flags);
  const std::string command = flags.positional()[0];
  bool checkpointing = false;
  if (command == "count") {
    checkpointing = ApplyCheckpointFlags(flags, &threads);
  } else if (!RejectCheckpointFlags(flags, command)) {
    return 2;
  }
  ApplyExactBackendFlag(flags);
  const std::string json_out = flags.GetString("json_out", "");
  const std::string json_det_out = flags.GetString("json_det_out", "");
  RunManifest manifest("cli." + command);
  manifest.SetThreads(threads);
  ResetStreamStats();
  int rc;
  if (command == "stats") {
    rc = RunStats(flags, manifest);
  } else if (command == "exact") {
    rc = RunExact(flags, manifest);
  } else if (command == "count") {
    rc = RunCount(flags, manifest);
  } else if (command == "generate") {
    rc = RunGenerate(flags, manifest);
  } else if (command == "sweep") {
    rc = RunBatch(flags, manifest, kSweepFrontEnd);
  } else if (command == "serve") {
    rc = RunBatch(flags, manifest,
                  flags.GetBool("daemon", false) ? kDaemonFrontEnd
                                                 : kServeFrontEnd);
  } else if (command == "shard") {
    rc = RunBatch(flags, manifest, kShardFrontEnd);
  } else {
    return Usage();
  }
  const StreamStats stats = GlobalStreamStats();
  if (checkpointing || stats.checkpoints_written > 0 || stats.restores > 0 ||
      stats.checkpoint_failures > 0 || stats.restore_rejects > 0) {
    MetricsRegistry& m = manifest.metrics();
    m.SetExecution("stream.checkpoints_written",
                   static_cast<std::int64_t>(stats.checkpoints_written));
    m.SetExecution("stream.checkpoint_failures",
                   static_cast<std::int64_t>(stats.checkpoint_failures));
    m.SetExecution("stream.restores",
                   static_cast<std::int64_t>(stats.restores));
    m.SetExecution("stream.restore_rejects",
                   static_cast<std::int64_t>(stats.restore_rejects));
  }
  manifest.SetConfig(flags.values());
  WarnUnusedFlags(flags, std::cerr);
  if (rc == 0 && !json_out.empty()) {
    if (!manifest.WriteFile(json_out)) {
      std::cerr << "error: cannot write " << json_out << "\n";
      return 1;
    }
    std::cerr << "run manifest written to " << json_out << "\n";
  }
  if (rc == 0 && !json_det_out.empty()) {
    if (!manifest.WriteFile(json_det_out, /*deterministic_only=*/true)) {
      std::cerr << "error: cannot write " << json_det_out << "\n";
      return 1;
    }
    std::cerr << "deterministic manifest written to " << json_det_out << "\n";
  }
  return rc;
}

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) { return cyclestream::Main(argc, argv); }
