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
//
// Graphs are SNAP-format text edge lists, or binary edge streams (.bin,
// see graph/binary_io.h and tools/edge2bin). All estimators print the
// estimate, the exact count (unless --no-exact), and the peak space.
//
// `sweep` and `serve` run many estimators over ONE shared stream read per
// logical pass via the engine's StreamBroker: sweep generates a query
// matrix (round-robin over --algorithms, seeds S, S+1, ...), serve reads
// explicit QuerySpecs from a file of `key=value` lines.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/bera_chakrabarti.h"
#include "baselines/cormode_jowhari.h"
#include "baselines/triest.h"
#include "baselines/wedge_sampler.h"
#include "engine/broker.h"
#include "engine/budget.h"
#include "engine/coordinator.h"
#include "engine/query.h"
#include "engine/shard.h"
#include "engine/spec.h"
#include "engine/supervisor.h"
#include "core/adj_f2_counter.h"
#include "core/adj_l2_counter.h"
#include "core/amplify.h"
#include "core/arb_f2_counter.h"
#include "core/arb_three_pass.h"
#include "core/diamond_counter.h"
#include "core/random_order_triangles.h"
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
      "  sweep    --graph FILE --algorithms a,b,... --queries N\n"
      "           [--order shuffled|file] [--epsilon E] [--t-guess T]\n"
      "           [--seed S] [--budget-words W] [--per-query-budget W]\n"
      "           [--aggregate-budget W] [--block-edges B] [--no-exact]\n"
      "           one shared stream read serves all N queries per pass;\n"
      "           kinds: random-order triest cormode-jowhari arb-f2\n"
      "                  arb-three-pass bera-chakrabarti (edge family)\n"
      "                  adj-diamond adj-f2 adj-l2 (adjacency family)\n"
      "                  turnstile-f2-triangle turnstile-f2-c4 (turnstile\n"
      "                  family: dynamic insert/delete streams; a .bin v2\n"
      "                  file from `edge2bin --turnstile` streams in file\n"
      "                  order, any insert-only graph is wrapped)\n"
      "           turnstile-only time-decay knobs (mutually exclusive):\n"
      "           [--window W --window-buckets B]   estimate over the last\n"
      "           W updates via B merged sketch buckets (B divides W)\n"
      "           [--decay-epoch K --decay-log2 D]   multiply the sketch by\n"
      "           2^-D every K updates (exact power-of-two decay)\n"
      "  serve    --graph FILE --spec FILE   QuerySpecs from key=value lines\n"
      "           (name= kind= [seed=] [budget=] [epsilon=] [c=] [t_guess=]\n"
      "            [level_rate=] [prefix_rate=] [reservoir=]\n"
      "            [num_vertices=] [window=] [window_buckets=]\n"
      "            [decay_epoch=] [decay_log2=])\n"
      "           --daemon   supervised always-on mode over the sharded\n"
      "           engine (takes the `shard` flags, plus):\n"
      "           [--max-retries N] [--backoff-ms B] [--backoff-cap-ms C]\n"
      "           [--shard-deadline-ms D] [--wave-deadline-ms D]\n"
      "           [--heartbeat-edges K] [--throttle-ms T] [--resume]\n"
      "           [--hang-shard I --hang-edges E]   fault injection\n"
      "           SIGTERM/SIGINT drain at the next epoch boundary (exit 3);\n"
      "           --resume finishes a drained or crashed batch with a\n"
      "           byte-identical deterministic manifest\n"
      "  shard    --graph FILE --shard-dir DIR [--shards W]\n"
      "           [--spec FILE | --algorithms arb-f2 --queries N]\n"
      "           [--launch inprocess|subprocess] [--worker-binary BIN]\n"
      "           [--epoch-edges K] [--kill-shard I --kill-edges E]\n"
      "           [--order shuffled|file] [--per-query-budget W]\n"
      "           [--aggregate-budget W] [--block-edges B] [--no-exact]\n"
      "           multi-process engine: W workers each sketch one\n"
      "           contiguous stream slice; the coordinator merges the\n"
      "           shard states (bit-identical to --shards 1 at any W);\n"
      "           subprocess launch needs a .bin graph and --order file;\n"
      "           kinds must be shard-mergeable (arb-f2)\n"
      "  common:  --threads N   worker threads (0 = all cores, 1 = serial)\n"
      "           --json_out FILE   write a structured run manifest\n"
      "           --json_det_out FILE   write the deterministic manifest\n"
      "           .bin graphs (tools/edge2bin) mmap in zero-copy\n";
  return 2;
}

bool IsBinaryGraphPath(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
}

EdgeList LoadGraph(FlagParser& flags, bool* ok) {
  *ok = true;
  if (flags.GetBool("karate", false)) return KarateClub();
  const std::string path = flags.GetString("graph", "");
  if (path.empty()) {
    std::cerr << "error: --graph FILE (or --karate) is required\n";
    *ok = false;
    return EdgeList();
  }
  auto loaded = IsBinaryGraphPath(path) ? LoadEdgeListBinary(path)
                                        : LoadEdgeListText(path);
  if (!loaded) {
    std::cerr << "error: cannot load " << path << "\n";
    *ok = false;
    return EdgeList();
  }
  return std::move(*loaded);
}

int RunStats(FlagParser& flags, RunManifest& manifest) {
  bool ok = false;
  const EdgeList graph = LoadGraph(flags, &ok);
  if (!ok) return 1;
  const Graph g(graph);
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
    if (flags.GetBool("karate", false)) {
      dodg = DodgGraph::Build(KarateClub(), options);
    } else if (path.empty()) {
      std::cerr << "error: --graph FILE (or --karate) is required\n";
      return 1;
    } else if (IsBinaryGraphPath(path)) {
      BinaryEdgeReader reader;
      std::string error;
      if (!reader.Open(path, &error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      dodg = DodgGraph::Build(reader.edges(), reader.num_edges(),
                              reader.num_vertices(), options);
    } else {
      auto loaded = LoadEdgeListText(path);
      if (!loaded) {
        std::cerr << "error: cannot load " << path << "\n";
        return 1;
      }
      dodg = DodgGraph::Build(*loaded, options);
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
    bool ok = false;
    const EdgeList graph = LoadGraph(flags, &ok);
    if (!ok) return 1;
    Timer build_timer;
    const Graph g(graph);
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

int RunCount(FlagParser& flags, RunManifest& manifest) {
  bool ok = false;
  const EdgeList graph = LoadGraph(flags, &ok);
  if (!ok) return 1;
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
  const std::uint64_t seed = flags.GetCount("seed", 1);
  const bool show_exact = !flags.GetBool("no-exact", false);
  // --delta > 0 amplifies: median over ~2·ln(1/δ) copies, run in parallel
  // on the --threads budget; each copy replays the same materialized
  // stream with its own derived seed.
  const double delta = flags.GetDouble("delta", 0.0);

  double exact = -1.0;
  if (show_exact || flags.GetDouble("t-guess", 0) <= 0) {
    exact = target == "triangles"
                ? static_cast<double>(CountTriangles(g))
                : static_cast<double>(CountFourCycles(g));
  }
  const double t_guess =
      flags.GetDouble("t-guess", std::max(1.0, exact));

  base.t_guess = std::max(1.0, t_guess);
  base.seed = seed;

  Rng order_rng(seed ^ 0x5eedULL);
  Estimate est;
  int passes = 1;
  // Each estimator becomes a seed -> Estimate runner over a stream that is
  // materialized once, up front, and shared read-only — so an amplified
  // count (--delta) can replay the same stream from many threads at once.
  std::function<Estimate(std::uint64_t)> runner;
  EdgeStream edge_stream;
  AdjacencyStream adj_stream;
  const VertexId num_vertices = g.num_vertices();
  if (algo == "exact") {
    est.value = target == "triangles"
                    ? static_cast<double>(CountTriangles(g))
                    : static_cast<double>(CountFourCycles(g));
    est.space_words = 2 * g.num_edges();
    passes = 0;
  } else if (target == "triangles") {
    edge_stream = MakeRandomOrderStream(graph, order_rng);
    const EdgeStream& stream = edge_stream;
    if (algo == "random-order") {
      if (RandomOrderTriangleCounter::NumLevels(base.t_guess) >
          RandomOrderTriangleCounter::kMaxLevels) {
        std::cerr << "error: --t-guess " << base.t_guess
                  << " must be no larger than 2^126: random-order keeps one "
                     "mask bit per level, and at most "
                  << RandomOrderTriangleCounter::kMaxLevels
                  << " levels fit\n";
        return 2;
      }
      runner = [&stream, base, num_vertices](std::uint64_t s) {
        RandomOrderTriangleCounter::Params params;
        params.base = base;
        params.base.seed = s;
        params.num_vertices = num_vertices;
        return CountTrianglesRandomOrder(stream, params);
      };
    } else if (algo == "triest") {
      const std::size_t reservoir = static_cast<std::size_t>(
          flags.GetCount("reservoir", g.num_edges() / 4));
      runner = [&stream, reservoir](std::uint64_t s) {
        Triest::Params params;
        params.reservoir_capacity = reservoir;
        params.seed = s;
        Triest t(params);
        RunEdgeStream(t, stream);
        return t.Result();
      };
    } else if (algo == "cj") {
      runner = [&stream, base](std::uint64_t s) {
        CormodeJowhariCounter::Params params;
        params.base = base;
        params.base.seed = s;
        return CountTrianglesCormodeJowhari(stream, params);
      };
    } else {
      std::cerr << "unknown triangle algorithm: " << algo << "\n";
      return Usage();
    }
  } else if (target == "c4") {
    if (algo == "diamonds" || algo == "f2" || algo == "l2" ||
        algo == "wedge") {
      adj_stream = MakeAdjacencyStream(g, order_rng);
      const AdjacencyStream& stream = adj_stream;
      passes = algo == "diamonds" || algo == "wedge" ? 2 : 1;
      if (algo == "diamonds") {
        runner = [&stream, base, num_vertices](std::uint64_t s) {
          DiamondFourCycleCounter::Params params;
          params.base = base;
          params.base.seed = s;
          params.num_vertices = num_vertices;
          return CountFourCyclesDiamond(stream, params);
        };
      } else if (algo == "f2") {
        runner = [&stream, base, num_vertices](std::uint64_t s) {
          AdjF2FourCycleCounter::Params params;
          params.base = base;
          params.base.seed = s;
          params.num_vertices = num_vertices;
          return CountFourCyclesAdjF2(stream, params);
        };
      } else if (algo == "l2") {
        runner = [&stream, base, num_vertices](std::uint64_t s) {
          AdjL2FourCycleCounter::Params params;
          params.base = base;
          params.base.seed = s;
          params.num_vertices = num_vertices;
          return CountFourCyclesAdjL2(stream, params);
        };
      } else {
        const double vertex_rate = flags.GetDouble("vertex-rate", 0.5);
        const double edge_rate = flags.GetDouble("edge-rate", 0.5);
        runner = [&stream, base, num_vertices, vertex_rate,
                  edge_rate](std::uint64_t s) {
          WedgeSamplingFourCycleCounter::Params params;
          params.base = base;
          params.base.seed = s;
          params.num_vertices = num_vertices;
          params.vertex_rate = vertex_rate;
          params.edge_rate = edge_rate;
          return CountFourCyclesWedgeSampling(stream, params);
        };
      }
    } else {
      edge_stream = graph.edges();
      order_rng.Shuffle(edge_stream);
      const EdgeStream& stream = edge_stream;
      if (algo == "three-pass") {
        runner = [&stream, base, num_vertices](std::uint64_t s) {
          ArbThreePassFourCycleCounter::Params params;
          params.base = base;
          params.base.seed = s;
          params.num_vertices = num_vertices;
          return CountFourCyclesArbThreePass(stream, params);
        };
        passes = 3;
      } else if (algo == "arb-f2") {
        runner = [&stream, base, num_vertices](std::uint64_t s) {
          ArbF2FourCycleCounter::Params params;
          params.base = base;
          params.base.seed = s;
          params.num_vertices = num_vertices;
          return CountFourCyclesArbF2(stream, params);
        };
      } else if (algo == "bc") {
        runner = [&stream, base](std::uint64_t s) {
          BeraChakrabartiCounter::Params params;
          params.base = base;
          params.base.seed = s;
          return CountFourCyclesBeraChakrabarti(stream, params);
        };
        passes = 2;
      } else {
        std::cerr << "unknown c4 algorithm: " << algo << "\n";
        return Usage();
      }
    }
  } else {
    std::cerr << "unknown target: " << target << "\n";
    return Usage();
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

// Loads the batch graph for the engine front ends (text, .bin, or karate).
// On success `*graph` holds the edges, and when the source was a .bin file
// `*binary` is true and `*reader` keeps the mmap open so file-order
// streaming stays zero-copy.
bool LoadBatchGraph(FlagParser& flags, BinaryEdgeReader* reader,
                    EdgeList* graph, bool* binary) {
  const std::string path = flags.GetString("graph", "");
  const bool karate = flags.GetBool("karate", false);
  *binary = !karate && IsBinaryGraphPath(path);
  if (karate) {
    *graph = KarateClub();
  } else if (path.empty()) {
    std::cerr << "error: --graph FILE (or --karate) is required\n";
    return false;
  } else if (*binary) {
    std::string error;
    if (!reader->Open(path, &error)) {
      std::cerr << "error: " << error << "\n";
      return false;
    }
    *graph = reader->ToEdgeList();
  } else {
    auto loaded = LoadEdgeListText(path);
    if (!loaded) {
      std::cerr << "error: cannot load " << path << "\n";
      return false;
    }
    *graph = std::move(*loaded);
  }
  return true;
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

// The shared tail of every engine front end (`sweep`, `serve`, `shard`):
// the per-query outcome table plus the manifest export. Identical printing
// and export keep the sharded engine's manifests comparable with the
// broker's.
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

// Which of the three stream families a kind consumes (one batch = one
// stream, so every spec in a batch must agree).
int StreamFamily(engine::QueryKind kind) {
  if (engine::IsTurnstileKind(kind)) return 2;
  return engine::IsEdgeKind(kind) ? 0 : 1;
}

// Turnstile half of the engine-batch driver. A .bin v2 file (edge2bin
// --turnstile) streams its insert/delete records in file order — the update
// order is semantic (strict ingest requires every delete to follow a live
// insert), so --order does not apply to it. Any insert-only source (text,
// .bin v1, karate) is wrapped via TurnstileFromEdges with the usual --order
// handling. Ground truth is the *live* graph after every update (LiveEdges),
// which is what the estimates approximate.
int RunTurnstileBatch(FlagParser& flags, RunManifest& manifest,
                      std::vector<engine::QuerySpec> specs) {
  const std::string path = flags.GetString("graph", "");
  const bool karate = flags.GetBool("karate", false);
  const std::uint64_t seed = flags.GetCount("seed", 1);
  const std::string order = flags.GetString("order", "shuffled");
  if (order != "shuffled" && order != "file") {
    std::cerr << "error: --order must be shuffled or file\n";
    return 1;
  }

  TurnstileStream stream;
  VertexId stream_vertices = 0;
  std::uint32_t format_version = 0;
  if (!karate && !path.empty() && IsBinaryGraphPath(path) &&
      SniffBinaryFormatVersion(path) == kBinaryTurnstileVersion) {
    TurnstileBinaryReader turnstile_reader;
    std::string error;
    if (!turnstile_reader.Open(path, &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    stream_vertices = turnstile_reader.num_vertices();
    format_version = turnstile_reader.format_version();
    stream = turnstile_reader.TakeStream();
  } else {
    BinaryEdgeReader reader;
    EdgeList graph;
    bool binary = false;
    if (!LoadBatchGraph(flags, &reader, &graph, &binary)) return 1;
    if (binary) format_version = reader.format_version();
    stream_vertices = graph.num_vertices();
    if (order == "file") {
      stream = TurnstileFromEdges(graph.edges());
    } else {
      Rng order_rng(seed ^ 0x5eedULL);
      const EdgeStream shuffled = MakeRandomOrderStream(graph, order_rng);
      stream = TurnstileFromEdges(shuffled);
    }
  }
  if (format_version != 0) {
    manifest.metrics().SetInt("stream.format_version",
                              static_cast<std::int64_t>(format_version));
  }
  manifest.metrics().SetInt("stream.updates",
                            static_cast<std::int64_t>(stream.size()));

  const std::vector<Edge> live = LiveEdges(stream);
  EdgeList live_list(stream_vertices);
  for (const Edge& e : live) live_list.Add(e.u, e.v);
  live_list.Finalize();
  const Graph g(live_list);
  const bool show_exact = !flags.GetBool("no-exact", false);
  ExactCache exact(g);

  engine::BrokerOptions options;
  options.block_size = static_cast<std::size_t>(
      flags.GetCount("block-edges", kDefaultBlockSize));
  options.budget.per_query_words =
      static_cast<std::size_t>(flags.GetCount("per-query-budget", 0));
  options.budget.aggregate_words =
      static_cast<std::size_t>(flags.GetCount("aggregate-budget", 0));
  engine::StreamBroker broker(options);
  for (engine::QuerySpec& spec : specs) {
    if (spec.num_vertices == 0) spec.num_vertices = stream_vertices;
    if (spec.base.t_guess <= 1.0) {
      spec.base.t_guess = std::max(1.0, exact.For(spec.kind));
    }
    broker.AddQuery(spec);
  }

  const std::vector<engine::QueryOutcome> outcomes =
      broker.RunTurnstileQueries(stream);
  PrintEngineOutcomes(outcomes, broker.stats(), show_exact, exact, manifest);
  return 0;
}

// Shared engine-batch driver behind `sweep` and `serve`: loads the graph
// (text, .bin, or karate), fills spec defaults (n, t_guess from the exact
// count of each query's target), builds the stream of the batch's family,
// runs the broker, and prints/exports per-query outcomes. Everything
// printed and exported is deterministic at any --threads.
int RunEngineBatch(FlagParser& flags, RunManifest& manifest,
                   std::vector<engine::QuerySpec> specs) {
  if (specs.empty()) {
    std::cerr << "error: no queries to run\n";
    return 1;
  }
  const int family = StreamFamily(specs[0].kind);
  for (const engine::QuerySpec& spec : specs) {
    if (StreamFamily(spec.kind) != family) {
      std::cerr << "error: query '" << spec.name << "' ("
                << engine::QueryKindName(spec.kind)
                << ") mixes stream families; one batch = one stream\n";
      return 1;
    }
  }
  if (family == 2) return RunTurnstileBatch(flags, manifest, std::move(specs));
  const bool edge_family = family == 0;

  BinaryEdgeReader reader;
  EdgeList graph;
  bool binary = false;
  if (!LoadBatchGraph(flags, &reader, &graph, &binary)) return 1;
  if (binary) {
    manifest.metrics().SetInt("stream.format_version",
                              static_cast<std::int64_t>(reader.format_version()));
  }
  const Graph g(graph);

  const std::uint64_t seed = flags.GetCount("seed", 1);
  const std::string order = flags.GetString("order", "shuffled");
  if (order != "shuffled" && order != "file") {
    std::cerr << "error: --order must be shuffled or file\n";
    return 1;
  }
  const bool show_exact = !flags.GetBool("no-exact", false);
  ExactCache exact(g);

  engine::BrokerOptions options;
  options.block_size = static_cast<std::size_t>(
      flags.GetCount("block-edges", kDefaultBlockSize));
  options.budget.per_query_words =
      static_cast<std::size_t>(flags.GetCount("per-query-budget", 0));
  options.budget.aggregate_words =
      static_cast<std::size_t>(flags.GetCount("aggregate-budget", 0));
  engine::StreamBroker broker(options);
  for (engine::QuerySpec& spec : specs) {
    if (spec.num_vertices == 0) spec.num_vertices = g.num_vertices();
    if (spec.base.t_guess <= 1.0) {
      spec.base.t_guess = std::max(1.0, exact.For(spec.kind));
    }
    broker.AddQuery(spec);
  }

  std::vector<engine::QueryOutcome> outcomes;
  if (edge_family) {
    if (binary && order == "file") {
      // Zero-copy: blocks point straight into the mmap'd .bin payload.
      engine::BinaryEdgeSource source(reader);
      outcomes = broker.RunEdgeQueries(source);
    } else if (order == "file") {
      EdgeStream stream = graph.edges();
      outcomes = broker.RunEdgeQueries(stream);
    } else {
      Rng order_rng(seed ^ 0x5eedULL);
      const EdgeStream stream = MakeRandomOrderStream(graph, order_rng);
      outcomes = broker.RunEdgeQueries(stream);
    }
  } else {
    Rng order_rng(seed ^ 0x5eedULL);
    const AdjacencyStream stream = MakeAdjacencyStream(g, order_rng);
    outcomes = broker.RunAdjacencyQueries(stream);
  }

  PrintEngineOutcomes(outcomes, broker.stats(), show_exact, exact, manifest);
  return 0;
}

int RunSweep(FlagParser& flags, RunManifest& manifest) {
  const std::string algos =
      flags.GetString("algorithms", "random-order,triest,cormode-jowhari");
  std::vector<engine::QueryKind> kinds;
  std::size_t start = 0;
  while (start <= algos.size()) {
    std::size_t comma = algos.find(',', start);
    if (comma == std::string::npos) comma = algos.size();
    const std::string name = algos.substr(start, comma - start);
    if (!name.empty()) {
      const auto kind = engine::ParseQueryKind(name);
      if (!kind.has_value()) {
        std::cerr << "error: unknown algorithm '" << name << "'\n";
        return Usage();
      }
      kinds.push_back(*kind);
    }
    start = comma + 1;
  }
  if (kinds.empty()) {
    std::cerr << "error: --algorithms must name at least one algorithm\n";
    return Usage();
  }

  const int num_queries =
      static_cast<int>(flags.GetCount("queries", 16));
  engine::QuerySpec base;
  base.base.epsilon = flags.GetDouble("epsilon", 0.2);
  base.base.c = flags.GetDouble("c", 2.0);
  base.base.t_guess = flags.GetDouble("t-guess", 0.0);
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
  const std::uint64_t seed = flags.GetCount("seed", 1);

  std::vector<engine::QuerySpec> specs;
  for (int i = 0; i < num_queries; ++i) {
    engine::QuerySpec spec = base;
    spec.kind = kinds[static_cast<std::size_t>(i) % kinds.size()];
    spec.name =
        std::string(engine::QueryKindName(spec.kind)) + "-" + std::to_string(i);
    spec.base.seed = seed + static_cast<std::uint64_t>(i);
    std::string spec_error;
    if (!engine::ValidateSpec(spec, &spec_error)) {
      std::cerr << "error: " << spec_error << "\n";
      return 1;
    }
    specs.push_back(std::move(spec));
  }
  return RunEngineBatch(flags, manifest, std::move(specs));
}

// Spec-file front end shared by `serve` and `shard` (the engine's strict
// parser: trailing garbage and wrapped negatives are hard errors with a
// `file:line:` message, not silently mangled values).
bool LoadSpecFile(FlagParser& flags, const std::string& spec_path,
                  std::vector<engine::QuerySpec>* specs) {
  engine::QuerySpec defaults;
  defaults.base.epsilon = flags.GetDouble("epsilon", 0.2);
  defaults.base.c = flags.GetDouble("c", 2.0);
  defaults.base.t_guess = flags.GetDouble("t-guess", 0.0);
  defaults.base.seed = flags.GetCount("seed", 1);
  std::string error;
  if (!engine::ParseSpecFile(spec_path, defaults, specs, &error)) {
    std::cerr << "error: " << error << "\n";
    return false;
  }
  return true;
}

int RunDaemon(FlagParser& flags, RunManifest& manifest);

int RunServe(FlagParser& flags, RunManifest& manifest) {
  // --daemon: supervised always-on mode over the sharded engine (retries,
  // deadlines, drain/resume) — the shard front end handles --spec itself.
  if (flags.GetBool("daemon", false)) return RunDaemon(flags, manifest);
  const std::string spec_path = flags.GetString("spec", "");
  if (spec_path.empty()) {
    std::cerr << "error: --spec FILE is required\n";
    return Usage();
  }
  std::vector<engine::QuerySpec> specs;
  if (!LoadSpecFile(flags, spec_path, &specs)) return 1;
  return RunEngineBatch(flags, manifest, std::move(specs));
}

// Everything the sharded front ends (`shard`, `serve --daemon`) need
// prepared before execution: resolved specs, the stream (mmap'd .bin or
// materialized), the execution plan, and the exact-count cache for
// printing. Owns the graph/reader so `edges` stays valid.
struct ShardSetup {
  std::vector<engine::QuerySpec> specs;
  BinaryEdgeReader reader;
  EdgeList graph;
  std::optional<Graph> g;
  std::optional<ExactCache> exact;
  EdgeStream materialized;
  std::span<const Edge> edges;
  engine::ShardPlanOptions plan;
  bool show_exact = true;
};

// Shared `shard`/`serve --daemon` front end: parses the spec/graph/stream
// flags into `setup`. Returns -1 on success, else the exit code to return.
int PrepareShardRun(FlagParser& flags, ShardSetup* setup) {
  const int num_workers = static_cast<int>(flags.GetCount("shards", 1));
  if (num_workers < 1) {
    std::cerr << "error: --shards must be >= 1\n";
    return 1;
  }
  const std::string shard_dir = flags.GetString("shard-dir", "");
  if (shard_dir.empty()) {
    std::cerr << "error: --shard-dir DIR is required\n";
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(shard_dir, ec);

  const std::string launch = flags.GetString("launch", "inprocess");
  if (launch != "inprocess" && launch != "subprocess") {
    std::cerr << "error: --launch must be inprocess or subprocess\n";
    return 1;
  }

  // Specs: an explicit file, or a sweep-style generated matrix (defaults
  // to arb-f2, the shard-mergeable kind).
  std::vector<engine::QuerySpec>& specs = setup->specs;
  const std::string spec_path = flags.GetString("spec", "");
  if (!spec_path.empty()) {
    if (!LoadSpecFile(flags, spec_path, &specs)) return 1;
  } else {
    const int num_queries = static_cast<int>(flags.GetCount("queries", 4));
    engine::QuerySpec base;
    base.base.epsilon = flags.GetDouble("epsilon", 0.2);
    base.base.c = flags.GetDouble("c", 2.0);
    base.base.t_guess = flags.GetDouble("t-guess", 0.0);
    base.space_budget_words =
        static_cast<std::size_t>(flags.GetCount("budget-words", 0));
    const std::uint64_t seed = flags.GetCount("seed", 1);
    const std::string algos = flags.GetString("algorithms", "arb-f2");
    std::vector<engine::QueryKind> kinds;
    std::size_t start = 0;
    while (start <= algos.size()) {
      std::size_t comma = algos.find(',', start);
      if (comma == std::string::npos) comma = algos.size();
      const std::string name = algos.substr(start, comma - start);
      if (!name.empty()) {
        const auto kind = engine::ParseQueryKind(name);
        if (!kind.has_value()) {
          std::cerr << "error: unknown algorithm '" << name << "'\n";
          return Usage();
        }
        kinds.push_back(*kind);
      }
      start = comma + 1;
    }
    if (kinds.empty()) kinds.push_back(engine::QueryKind::kArbF2);
    for (int i = 0; i < num_queries; ++i) {
      engine::QuerySpec spec = base;
      spec.kind = kinds[static_cast<std::size_t>(i) % kinds.size()];
      spec.name = std::string(engine::QueryKindName(spec.kind)) + "-" +
                  std::to_string(i);
      spec.base.seed = seed + static_cast<std::uint64_t>(i);
      std::string spec_error;
      if (!engine::ValidateSpec(spec, &spec_error)) {
        std::cerr << "error: " << spec_error << "\n";
        return 1;
      }
      specs.push_back(std::move(spec));
    }
  }
  if (specs.empty()) {
    std::cerr << "error: no queries to run\n";
    return 1;
  }
  for (const engine::QuerySpec& spec : specs) {
    if (engine::IsTurnstileKind(spec.kind)) {
      // Honest scoping, not an oversight: the coordinator's slices, state
      // files, and resume protocol are built around the v1 edge stream.
      // Turnstile batches run single-process through `serve`/`sweep`.
      std::cerr << "error: query '" << spec.name << "' ("
                << engine::QueryKindName(spec.kind)
                << ") is a turnstile kind; the multi-process shard "
                   "coordinator and `serve --daemon` do not support "
                   "turnstile streams — use `serve` or `sweep`\n";
      return 1;
    }
    if (!engine::IsEdgeKind(spec.kind) ||
        !engine::IsShardMergeableKind(spec.kind)) {
      std::cerr << "error: query '" << spec.name << "' ("
                << engine::QueryKindName(spec.kind)
                << ") is not shard-mergeable; `shard` supports arb-f2\n";
      return 1;
    }
  }

  BinaryEdgeReader& reader = setup->reader;
  EdgeList& graph = setup->graph;
  bool binary = false;
  if (!LoadBatchGraph(flags, &reader, &graph, &binary)) return 1;
  setup->g.emplace(graph);
  const Graph& g = *setup->g;
  const std::uint64_t seed = flags.GetCount("seed", 1);
  const std::string order = flags.GetString("order", "shuffled");
  if (order != "shuffled" && order != "file") {
    std::cerr << "error: --order must be shuffled or file\n";
    return 1;
  }
  setup->show_exact = !flags.GetBool("no-exact", false);
  setup->exact.emplace(g);
  ExactCache& exact = *setup->exact;
  for (engine::QuerySpec& spec : specs) {
    if (spec.num_vertices == 0) spec.num_vertices = g.num_vertices();
    if (spec.base.t_guess <= 1.0) {
      spec.base.t_guess = std::max(1.0, exact.For(spec.kind));
    }
  }

  engine::ShardPlanOptions& options = setup->plan;
  options.num_workers = num_workers;
  options.block_edges =
      static_cast<std::size_t>(flags.GetCount("block-edges", 4096));
  options.budget.per_query_words =
      static_cast<std::size_t>(flags.GetCount("per-query-budget", 0));
  options.budget.aggregate_words =
      static_cast<std::size_t>(flags.GetCount("aggregate-budget", 0));
  options.epoch_edges = flags.GetCount("epoch-edges", 0);
  options.shard_dir = shard_dir;
  options.launch = launch == "subprocess" ? engine::ShardLaunch::kSubprocess
                                          : engine::ShardLaunch::kInProcess;
  options.worker_binary = flags.GetString("worker-binary", "");
  options.kill_worker = static_cast<int>(flags.GetInt("kill-shard", -1));
  options.kill_after_edges = flags.GetCount("kill-edges", 0);

  // The stream. Subprocess workers mmap the .bin themselves, so the
  // coordinator must stream the same bytes in the same order: binary
  // file-order only.
  if (options.launch == engine::ShardLaunch::kSubprocess) {
    if (!binary || order != "file") {
      std::cerr << "error: --launch subprocess needs a .bin graph and "
                   "--order file (workers stream the file directly)\n";
      return 1;
    }
    options.stream_path = flags.GetString("graph", "");
    setup->edges = std::span<const Edge>(reader.edges(), reader.num_edges());
  } else if (order == "file") {
    setup->materialized = graph.edges();
    setup->edges = setup->materialized;
  } else {
    Rng order_rng(seed ^ 0x5eedULL);
    setup->materialized = MakeRandomOrderStream(graph, order_rng);
    setup->edges = setup->materialized;
  }
  return -1;
}

// `shard`: the multi-process engine front end. Same spec preparation and
// output as `sweep`/`serve`, but execution goes through the sharded wave
// loop — results are bit-identical to --shards 1 at any worker
// count, so the deterministic manifest is too (the shard execution-policy
// flags are excluded from it like --threads).
int RunShard(FlagParser& flags, RunManifest& manifest) {
  ShardSetup setup;
  const int rc = PrepareShardRun(flags, &setup);
  if (rc >= 0) return rc;

  const engine::ShardBatchResult result =
      engine::RunShardedBatch(setup.specs, setup.edges, setup.plan);
  std::cerr << "shard: " << setup.plan.num_workers << " worker(s), "
            << result.workers_launched << " launch(es), "
            << result.workers_recovered << " recovered\n";
  manifest.metrics().SetExecution(
      "shard.workers_launched",
      static_cast<std::int64_t>(result.workers_launched));
  manifest.metrics().SetExecution(
      "shard.workers_recovered",
      static_cast<std::int64_t>(result.workers_recovered));
  PrintEngineOutcomes(result.outcomes, result.stats, setup.show_exact,
                      *setup.exact, manifest);
  return 0;
}

// `serve --daemon`: the supervised always-on serving mode (DESIGN.md §14).
// Same front end as `shard`, executed under engine/supervisor: per-worker
// retry with deterministic backoff, watchdog deadlines for hung
// subprocesses, graceful SIGTERM/SIGINT drain, and `--resume` to finish a
// drained or crashed batch with a byte-identical deterministic manifest.
int RunDaemon(FlagParser& flags, RunManifest& manifest) {
  ShardSetup setup;
  const int rc = PrepareShardRun(flags, &setup);
  if (rc >= 0) return rc;

  engine::SupervisorOptions opt;
  opt.plan = setup.plan;
  opt.retry.max_attempts =
      std::max(1, static_cast<int>(flags.GetCount("max-retries", 3)));
  opt.retry.base_backoff_ms = flags.GetCount("backoff-ms", 50);
  opt.retry.backoff_cap_ms = flags.GetCount("backoff-cap-ms", 2000);
  opt.deadline.shard_deadline_ms = flags.GetCount("shard-deadline-ms", 0);
  opt.deadline.wave_deadline_ms = flags.GetCount("wave-deadline-ms", 0);
  opt.heartbeat_edges = flags.GetCount("heartbeat-edges", 0);
  opt.resume = flags.GetBool("resume", false);
  opt.hang_worker = static_cast<int>(flags.GetInt("hang-shard", -1));
  opt.hang_after_edges = flags.GetCount("hang-edges", 0);
  opt.throttle_ms_per_block = flags.GetCount("throttle-ms", 0);

  engine::InstallDrainHandlers();
  engine::SupervisedBatchResult result;
  std::string error;
  if (!engine::RunSupervisedBatch(setup.specs, setup.edges, opt, &result,
                                  &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  ExportSupervisorCounters(result.counters, manifest);
  std::cerr << "daemon: " << result.counters.waves_completed
            << " wave(s) completed, " << result.counters.retries
            << " retr(ies), " << result.counters.deadline_kills
            << " deadline kill(s)\n";
  if (result.drained) {
    // No manifest on a drained run: partial results must never be mistaken
    // for the batch's. Exit 3 so Main skips --json_out/--json_det_out.
    std::cerr << "daemon: drained mid-batch; rerun with --resume to finish "
                 "(state in "
              << setup.plan.shard_dir << ")\n";
    return 3;
  }
  for (int wave : result.poisoned_waves) {
    std::cerr << "daemon: wave " << wave
              << " poisoned (retry budget exhausted)\n";
  }
  PrintEngineOutcomes(result.outcomes, result.stats, setup.show_exact,
                      *setup.exact, manifest);
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
    rc = RunSweep(flags, manifest);
  } else if (command == "serve") {
    rc = RunServe(flags, manifest);
  } else if (command == "shard") {
    rc = RunShard(flags, manifest);
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
    std::ofstream out(json_det_out);
    if (out) out << manifest.DeterministicJson();
    if (!out) {
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
