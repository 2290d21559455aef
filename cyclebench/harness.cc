// cyclebench_harness — one repetition of a cyclebench workload.
//
//   cyclebench_harness sweep|serve|shard <the cyclestream_cli flags>
//       [--mode run|setup|trace]
//
// The positional command and the flags are the ones `cyclestream_cli` takes
// for the same front end (run.py hands both programs one argument list), and
// the set-up mirrors the CLI's engine front ends step for step: ingest the
// fixture, build the graph, compute the exact reference counts (DODG
// backend), fill each spec's n and t_guess, order the stream, then make the
// one engine call (`StreamBroker::Run{Edge,Adjacency,Turnstile}Queries` or
// `RunShardedBatch`).
//
// --mode run (the default) times only that path: set-up and wall time from
// fixture open, plus the process's CPU time and peak RSS when the last
// result is in. --mode setup stops after the set-up, for extra set-up
// samples. --mode trace makes the engine call with every module call
// wrapped in a span, then replays each query standalone on the same blocks
// (construct, pass, finalize timed apart): the reference the engine's
// estimates must match bit for bit. On `shard` it also runs a StreamBroker
// over the same specs and re-runs the shard workers one at a time to time
// the worker loop, the state codec, the atomic write and the merge fold;
// both must agree with the replay too.
//
// Output: one JSON document on stdout. Errors go to stderr with exit 1.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/broker.h"
#include "engine/coordinator.h"
#include "engine/query.h"
#include "engine/shard.h"
#include "engine/spec.h"
#include "graph/binary_io.h"
#include "graph/dodg.h"
#include "graph/edge_list.h"
#include "graph/exact.h"
#include "graph/graph.h"
#include "hash/rng.h"
#include "sketch/sketch_backend.h"
#include "stream/checkpoint.h"
#include "stream/dynamic/turnstile.h"
#include "stream/dynamic/turnstile_io.h"
#include "stream/order.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/json.h"
#include "util/parallel.h"

namespace cyclestream::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

double Since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// In-memory span recorder. Spans are kept in start order with the index of
// the span that caused them; nothing is written until the run ends. When
// disabled, Time records nothing, so the timed path carries no tracing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;  // Relative to the tracer's origin.
    double end_s = 0.0;
  };

  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  // Times `fn` as a child of the innermost open span; returns the span's
  // duration in seconds (also when disabled, for callers that need it).
  double Time(const std::string& name, const std::function<void()>& fn) {
    const Clock::time_point start = Clock::now();
    int index = -1;
    if (enabled_) {
      index = static_cast<int>(spans_.size());
      spans_.push_back({name, open_.empty() ? -1 : open_.back(),
                        Since(origin_, start), 0.0});
      open_.push_back(index);
    }
    fn();
    const Clock::time_point end = Clock::now();
    if (enabled_) {
      open_.pop_back();
      spans_[static_cast<std::size_t>(index)].end_s = Since(origin_, end);
    }
    return Since(start, end);
  }

  // Sum of the durations of the top-level spans (coverage numerator).
  double TopLevelSeconds() const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0) total += s.end_s - s.start_s;
    }
    return total;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Which stream a batch consumes (one batch = one stream, as in the CLI).
enum class Family { kEdge, kAdjacency, kTurnstile };

Family FamilyOf(engine::QueryKind kind) {
  if (engine::IsTurnstileKind(kind)) return Family::kTurnstile;
  return engine::IsEdgeKind(kind) ? Family::kEdge : Family::kAdjacency;
}

// Per-query numbers from the standalone replay.
struct Replay {
  double construct_s = 0.0;
  double pass0_s = 0.0;
  double finalize_s = 0.0;
  std::uint64_t items = 0;
  Estimate estimate;
};

// Everything a workload needs between fixture open and the engine call.
struct Prepared {
  std::vector<engine::QuerySpec> specs;
  Family family = Family::kEdge;
  BinaryEdgeReader reader;
  EdgeList graph;
  std::optional<Graph> g;
  EdgeStream edges;          // Shuffled or materialized edge stream.
  bool zero_copy = false;    // Edge stream is the reader's mmap.
  AdjacencyStream lists;
  TurnstileStream updates;
  double exact_triangles = -1.0;
  double exact_c4 = -1.0;
  std::uint64_t fixture_bytes = 0;
};

// The sweep-style spec matrix (`sweep`, and `shard` without --spec):
// kinds cycle over --algorithms, name "<kind>-<i>", seed "seed + i".
bool GenerateSpecs(FlagParser& flags, const std::string& default_algos,
                   std::uint64_t default_queries,
                   std::vector<engine::QuerySpec>* specs) {
  const std::string algos = flags.GetString("algorithms", default_algos);
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
        return false;
      }
      kinds.push_back(*kind);
    }
    start = comma + 1;
  }
  if (kinds.empty()) {
    std::cerr << "error: --algorithms must name at least one algorithm\n";
    return false;
  }
  engine::QuerySpec base;
  base.base.epsilon = flags.GetDouble("epsilon", 0.2);
  base.base.c = flags.GetDouble("c", 2.0);
  base.base.t_guess = flags.GetDouble("t-guess", 0.0);
  const std::uint64_t seed = flags.GetCount("seed", 1);
  const std::uint64_t n = flags.GetCount("queries", default_queries);
  for (std::uint64_t i = 0; i < n; ++i) {
    engine::QuerySpec spec = base;
    spec.kind = kinds[i % kinds.size()];
    spec.name =
        std::string(engine::QueryKindName(spec.kind)) + "-" + std::to_string(i);
    spec.base.seed = seed + i;
    specs->push_back(std::move(spec));
  }
  return true;
}

bool LoadSpecs(FlagParser& flags, const std::string& command,
               std::vector<engine::QuerySpec>* specs) {
  const std::string spec_path = flags.GetString("spec", "");
  if (spec_path.empty()) {
    if (command == "serve") {
      std::cerr << "error: serve needs --spec FILE\n";
      return false;
    }
    return command == "sweep"
               ? GenerateSpecs(flags, "random-order,triest,cormode-jowhari",
                               16, specs)
               : GenerateSpecs(flags, "arb-f2", 4, specs);
  }
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
  return !specs->empty();
}

// Fixture open up to the first engine call, exactly as the CLI's engine
// front ends do it; each step is one span in the traced run.
bool Prepare(FlagParser& flags, const std::string& command, Tracer& tracer,
             Prepared* p) {
  if (!LoadSpecs(flags, command, &p->specs)) return false;
  p->family = FamilyOf(p->specs[0].kind);
  for (const engine::QuerySpec& spec : p->specs) {
    if (FamilyOf(spec.kind) != p->family) {
      std::cerr << "error: query '" << spec.name << "' mixes families\n";
      return false;
    }
  }
  const std::string path = flags.GetString("graph", "");
  const std::string order = flags.GetString("order", "shuffled");
  const std::uint64_t seed = flags.GetCount("seed", 1);
  std::error_code ec;
  p->fixture_bytes = std::filesystem::file_size(path, ec);
  if (ec) {
    std::cerr << "error: cannot stat " << path << "\n";
    return false;
  }

  std::string error;
  bool ok = true;
  VertexId n = 0;
  if (p->family == Family::kTurnstile) {
    if (SniffBinaryFormatVersion(path) != kBinaryTurnstileVersion) {
      std::cerr << "error: " << path << " is not a v2 turnstile .bin\n";
      return false;
    }
    tracer.Time("graph.ingest", [&] {
      TurnstileBinaryReader reader;
      ok = reader.Open(path, &error);
      n = reader.num_vertices();
      p->updates = reader.TakeStream();
    });
    if (!ok) {
      std::cerr << "error: " << error << "\n";
      return false;
    }
    std::vector<Edge> live;
    tracer.Time("stream.live_edges", [&] { live = LiveEdges(p->updates); });
    tracer.Time("graph.build", [&] {
      p->graph = EdgeList(n);
      for (const Edge& e : live) p->graph.Add(e.u, e.v);
      p->graph.Finalize();
      p->g.emplace(p->graph);
    });
  } else {
    tracer.Time("graph.ingest", [&] {
      ok = p->reader.Open(path, &error);
      if (ok) p->graph = p->reader.ToEdgeList();
    });
    if (!ok) {
      std::cerr << "error: " << error << "\n";
      return false;
    }
    tracer.Time("graph.build", [&] { p->g.emplace(p->graph); });
    n = p->g->num_vertices();
  }

  tracer.Time("graph.exact", [&] {
    for (engine::QuerySpec& spec : p->specs) {
      const bool triangles =
          engine::QueryKindTarget(spec.kind) == "triangles";
      double& exact = triangles ? p->exact_triangles : p->exact_c4;
      if (exact < 0) {
        exact = static_cast<double>(triangles ? CountTriangles(*p->g)
                                              : CountFourCycles(*p->g));
      }
      if (spec.num_vertices == 0) spec.num_vertices = n;
      if (spec.base.t_guess <= 1.0) spec.base.t_guess = std::max(1.0, exact);
    }
  });

  if (p->family == Family::kTurnstile) return true;  // File order.
  tracer.Time("stream.order", [&] {
    Rng order_rng(seed ^ 0x5eedULL);
    if (p->family == Family::kAdjacency) {
      p->lists = MakeAdjacencyStream(*p->g, order_rng);
    } else if (order == "shuffled") {
      p->edges = MakeRandomOrderStream(p->graph, order_rng);
    } else if (command == "shard") {
      p->edges = p->graph.edges();
    } else {
      p->zero_copy = true;  // BinaryEdgeSource over the mmap.
    }
  });
  return true;
}

engine::ShardPlanOptions ShardPlan(FlagParser& flags) {
  engine::ShardPlanOptions plan;
  plan.num_workers = static_cast<int>(flags.GetCount("shards", 1));
  plan.block_edges =
      static_cast<std::size_t>(flags.GetCount("block-edges", 4096));
  plan.epoch_edges = flags.GetCount("epoch-edges", 0);
  plan.shard_dir = flags.GetString("shard-dir", "");
  plan.launch = engine::ShardLaunch::kInProcess;
  return plan;
}

// The one engine call of the workload.
struct EngineResult {
  std::vector<engine::QueryOutcome> outcomes;
  engine::EngineStats stats;
  std::uint64_t workers_recovered = 0;
};

EngineResult RunBroker(Prepared& p, std::size_t block_size) {
  engine::BrokerOptions options;
  options.block_size = block_size;
  engine::StreamBroker broker(options);
  for (const engine::QuerySpec& spec : p.specs) broker.AddQuery(spec);
  EngineResult r;
  if (p.family == Family::kTurnstile) {
    r.outcomes = broker.RunTurnstileQueries(p.updates);
  } else if (p.family == Family::kAdjacency) {
    r.outcomes = broker.RunAdjacencyQueries(p.lists);
  } else if (p.zero_copy) {
    engine::BinaryEdgeSource source(p.reader);
    r.outcomes = broker.RunEdgeQueries(source);
  } else {
    r.outcomes = broker.RunEdgeQueries(p.edges);
  }
  r.stats = broker.stats();
  return r;
}

std::span<const Edge> EdgeSpan(const Prepared& p) {
  if (p.zero_copy) return {p.reader.edges(), p.reader.num_edges()};
  return p.edges;
}

// Standalone replay of one query: the broker's per-query call sequence
// (construct, StartPass, blocks in stream order, EndPass, result) on the
// same blocks, with no broker around it.
template <typename Query, typename Item, typename Feed>
Replay ReplayQuery(const std::function<Query()>& make, std::span<const Item> s,
                   std::size_t block, const Feed& feed) {
  Replay r;
  Clock::time_point t = Clock::now();
  Query q = make();
  Clock::time_point u = Clock::now();
  r.construct_s = Since(t, u);
  const int passes = q.algorithm->NumPasses();
  for (int pass = 0; pass < passes; ++pass) {
    q.algorithm->StartPass(pass, s.size());
    for (std::size_t base = 0; base < s.size(); base += block) {
      const std::size_t n = std::min(block, s.size() - base);
      feed(*q.algorithm, pass, s.subspan(base, n), base);
      r.items += n;
    }
    q.algorithm->EndPass(pass);
  }
  t = Clock::now();
  r.pass0_s = Since(u, t);  // Every benchmarked kind is one-pass.
  r.estimate = q.result();
  r.finalize_s = Since(t, Clock::now());
  return r;
}

Replay ReplayOne(const Prepared& p, const engine::QuerySpec& spec,
                 std::size_t block) {
  switch (p.family) {
    case Family::kEdge:
      return ReplayQuery<engine::EdgeQuery, Edge>(
          [&] { return engine::MakeEdgeQuery(spec); }, EdgeSpan(p), block,
          [](EdgeStreamAlgorithm& a, int pass, std::span<const Edge> b,
             std::size_t base) { a.ProcessEdgeBlock(pass, b, base); });
    case Family::kAdjacency:
      return ReplayQuery<engine::AdjacencyQuery, AdjacencyList>(
          [&] { return engine::MakeAdjacencyQuery(spec); },
          std::span<const AdjacencyList>(p.lists), block,
          [](AdjacencyStreamAlgorithm& a, int pass,
             std::span<const AdjacencyList> b, std::size_t base) {
            for (std::size_t i = 0; i < b.size(); ++i) {
              a.ProcessList(pass, b[i], base + i);
            }
          });
    case Family::kTurnstile:
      return ReplayQuery<engine::TurnstileQuery, TurnstileUpdate>(
          [&] { return engine::MakeTurnstileQuery(spec); },
          std::span<const TurnstileUpdate>(p.updates), block,
          [](TurnstileStreamAlgorithm& a, int pass,
             std::span<const TurnstileUpdate> b, std::size_t base) {
            a.ProcessUpdateBlock(pass, b, base);
          });
  }
  return {};
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Layer numbers from re-running the coordinator's in-process wave one
// worker at a time (the calls RunShardedBatch makes, timed apart).
struct ShardLayers {
  double worker_s_max = 0.0;
  double worker_s_sum = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double merge_s = 0.0;
  double write_atomic_s = 0.0;
  double crc32_mb_per_s = 0.0;
  double state_mb = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint32_t crc32 = 0;  // Of shard 0's state (the timed call's result).
  bool ok = true;
};

ShardLayers TimeShardLayers(const Prepared& p,
                            const engine::ShardPlanOptions& plan,
                            Tracer& tracer, std::vector<Estimate>* merged) {
  ShardLayers out;
  const std::span<const Edge> edges = EdgeSpan(p);
  const std::vector<engine::ShardRange> partition =
      engine::PartitionStream(edges.size(), plan.num_workers);
  const std::uint64_t stream_fp = FingerprintEdgeStream(edges);
  const std::uint64_t spec_fp = engine::FingerprintSpecs(p.specs);
  const std::string prefix = plan.shard_dir + "/layers";
  std::vector<engine::ShardState> states(partition.size());
  std::vector<std::string> encoded(partition.size());
  for (std::size_t i = 0; i < partition.size(); ++i) {
    engine::ShardWorkerConfig c;
    c.specs = p.specs;
    c.edges = edges;
    c.ranges = {partition[i]};
    c.worker_id = static_cast<std::uint32_t>(i);
    c.num_workers = static_cast<std::uint32_t>(plan.num_workers);
    c.stream_fingerprint = stream_fp;
    c.spec_fingerprint = spec_fp;
    c.block_edges = plan.block_edges;
    c.epoch_edges = plan.epoch_edges;
    if (plan.epoch_edges > 0) {
      c.checkpoint_path = prefix + "-s" + std::to_string(i) + ".ckpt";
    }
    const std::string state_path = prefix + "-s" + std::to_string(i) + ".state";
    std::string error;
    engine::ShardWorkerOutcome outcome;
    const double worker_s = tracer.Time("engine.shard.worker", [&] {
      outcome = engine::RunShardWorker(c, state_path, &error);
    });
    out.worker_s_max = std::max(out.worker_s_max, worker_s);
    out.worker_s_sum += worker_s;
    out.checkpoints += outcome.checkpoints_written;
    if (!outcome.completed ||
        !io::ReadFileToString(state_path, &encoded[i], &error)) {
      std::cerr << "error: shard worker " << i << ": " << error << "\n";
      out.ok = false;
      return out;
    }
    out.decode_s += tracer.Time("engine.shard.decode", [&] {
      out.ok &= engine::DecodeShardState(encoded[i], &states[i], &error);
    });
    std::string reencoded;
    out.encode_s += tracer.Time("engine.shard.encode", [&] {
      reencoded = engine::EncodeShardState(states[i]);
    });
    out.ok &= reencoded == encoded[i];  // The codec round-trips exactly.
  }
  out.state_mb = static_cast<double>(encoded[0].size()) / kMiB;
  std::string error;
  out.write_atomic_s = tracer.Time("util.io.write_atomic", [&] {
    out.ok &= io::WriteFileAtomic(prefix + ".rewrite", encoded[0], &error);
  });
  const double crc_s =
      tracer.Time("util.crc32", [&] { out.crc32 = Crc32(encoded[0]); });
  out.crc32_mb_per_s = static_cast<double>(encoded[0].size()) / kMiB / crc_s;
  std::vector<engine::EdgeQuery> folded;
  out.merge_s = tracer.Time("engine.shard.merge", [&] {
    folded = engine::MergeShardStates(p.specs, states, {});
  });
  for (engine::EdgeQuery& q : folded) merged->push_back(q.result());
  return out;
}

void WriteDouble(JsonWriter& w, const char* key, double value) {
  w.Key(key);
  w.Double(value);
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "error: cyclebench_harness was built without NDEBUG; "
               "rebuild with -DCMAKE_BUILD_TYPE=Release\n";
  return 1;
#endif
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) {
    std::cerr << "usage: cyclebench_harness sweep|serve|shard <cli flags> "
                 "[--mode run|setup|trace]\n";
    return 2;
  }
  const std::string command = flags.positional()[0];
  if (command != "sweep" && command != "serve" && command != "shard") {
    std::cerr << "error: unknown front end '" << command << "'\n";
    return 2;
  }
  const std::string mode = flags.GetString("mode", "run");
  if (mode != "run" && mode != "setup" && mode != "trace") {
    std::cerr << "error: --mode must be run, setup or trace\n";
    return 2;
  }
  const bool traced = mode == "trace";
  const bool run_engine = mode != "setup";
  SetDefaultThreads(static_cast<int>(flags.GetCount("threads", 1)));
  SetExactBackend(ExactBackend::kDodg);
  const std::size_t block =
      static_cast<std::size_t>(flags.GetCount("block-edges", 4096));

  engine::ShardPlanOptions plan;
  if (command == "shard") {
    plan = ShardPlan(flags);
    if (plan.shard_dir.empty()) {
      std::cerr << "error: shard needs --shard-dir DIR\n";
      return 2;
    }
    std::error_code ec;
    std::filesystem::remove_all(plan.shard_dir, ec);
    std::filesystem::create_directories(plan.shard_dir, ec);
  }

  const Clock::time_point t0 = Clock::now();
  Tracer tracer(traced, t0);
  Prepared p;
  if (!Prepare(flags, command, tracer, &p)) return 1;
  const double setup_s = Since(t0, Clock::now());

  EngineResult engine_result;
  if (run_engine) {
    tracer.Time("engine.run", [&] {
      if (command == "shard") {
        engine::ShardBatchResult r =
            engine::RunShardedBatch(p.specs, EdgeSpan(p), plan);
        engine_result.outcomes = std::move(r.outcomes);
        engine_result.stats = r.stats;
        engine_result.workers_recovered = r.workers_recovered;
      } else {
        engine_result = RunBroker(p, block);
      }
    });
  }
  const double wall_s = Since(t0, Clock::now());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu_s =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // Shard workload extras, measured before the replay so its files do not
  // count: what the engine call left in shard_dir.
  double shard_bytes_mb = 0.0;
  if (command == "shard") {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(plan.shard_dir, ec)) {
      if (entry.is_regular_file()) {
        shard_bytes_mb += static_cast<double>(entry.file_size()) / kMiB;
      }
    }
  }

  // Trace: standalone replays, cross-engine check, shard layers.
  std::vector<Replay> replays;
  std::vector<Estimate> broker_estimates;
  std::vector<Estimate> merged_estimates;
  std::optional<ShardLayers> layers;
  if (traced) {
    tracer.Time("replay", [&] {
      for (const engine::QuerySpec& spec : p.specs) {
        tracer.Time("core." + spec.name, [&] {
          replays.push_back(ReplayOne(p, spec, block));
        });
      }
    });
    if (command == "shard") {
      tracer.Time("replay.broker", [&] {
        for (const engine::QueryOutcome& o : RunBroker(p, block).outcomes) {
          broker_estimates.push_back(o.estimate);
        }
      });
      tracer.Time("replay.shard", [&] {
        layers = TimeShardLayers(p, plan, tracer, &merged_estimates);
      });
    }
  }
  const double traced_wall_s = Since(t0, Clock::now());

  JsonWriter w(std::cout);
  w.BeginObject();
  w.Key("mode");
  w.String(mode);
  WriteDouble(w, "wall_s", wall_s);
  WriteDouble(w, "setup_s", setup_s);
  WriteDouble(w, "cpu_s", cpu_s);
  WriteDouble(w, "peak_rss_mb", peak_rss_mb);
  WriteDouble(w, "fixture_mb", static_cast<double>(p.fixture_bytes) / kMiB);
  WriteDouble(w, "exact_triangles", p.exact_triangles);
  WriteDouble(w, "exact_c4", p.exact_c4);
  w.Key("stats");
  w.BeginObject();
  const engine::EngineStats& st = engine_result.stats;
  w.Key("items_delivered");
  w.Uint(st.items_delivered);
  w.Key("physical_passes");
  w.Uint(st.physical_passes);
  w.Key("queries_rejected");
  w.Uint(st.queries_rejected);
  w.Key("workers_recovered");
  w.Uint(engine_result.workers_recovered);
  WriteDouble(w, "shard_bytes_written_mb", shard_bytes_mb);
  w.EndObject();

  w.Key("queries");
  w.BeginArray();
  std::size_t mismatches = 0;
  const std::size_t threads = std::min<std::size_t>(
      p.specs.size(), static_cast<std::size_t>(DefaultThreads()));
  for (std::size_t i = 0; i < p.specs.size(); ++i) {
    const engine::QuerySpec& spec = p.specs[i];
    w.BeginObject();
    w.Key("name");
    w.String(spec.name);
    w.Key("kind");
    w.String(engine::QueryKindName(spec.kind));
    w.Key("target");
    w.String(engine::QueryKindTarget(spec.kind));
    if (run_engine) {
      const engine::QueryOutcome& o = engine_result.outcomes[i];
      w.Key("ran");
      w.Bool(o.admission == engine::AdmissionOutcome::kAdmitted &&
             !o.poisoned);
      WriteDouble(w, "estimate", o.estimate.value);
      WriteDouble(w, "state_mb",
                 static_cast<double>(o.estimate.space_words) * 8.0 / kMiB);
    }
    if (!replays.empty()) {
      const Replay& r = replays[i];
      const double reference = r.estimate.value;
      bool same =
          SameBits(engine_result.outcomes[i].estimate.value, reference);
      if (!broker_estimates.empty()) {
        same &= SameBits(broker_estimates[i].value, reference);
      }
      if (!merged_estimates.empty()) {
        same &= SameBits(merged_estimates[i].value, reference);
      }
      if (!same) ++mismatches;
      w.Key("replay_identical");
      w.Bool(same);
      WriteDouble(w, "replay_estimate", reference);
      WriteDouble(w, "replay_state_mb",
                 static_cast<double>(r.estimate.space_words) * 8.0 / kMiB);
      WriteDouble(w, "construct_s", r.construct_s);
      WriteDouble(w, "pass0_s", r.pass0_s);
      WriteDouble(w, "finalize_s", r.finalize_s);
      w.Key("items");
      w.Uint(r.items);
      w.Key("thread");  // The broker thread the query's pass runs on.
      w.Uint(i % threads);
    }
    w.EndObject();
  }
  w.EndArray();

  if (!replays.empty()) {
    w.Key("mismatches");
    w.Uint(mismatches);
  }
  if (traced) {
    WriteDouble(w, "traced_wall_s", traced_wall_s);
    WriteDouble(w, "top_level_s", tracer.TopLevelSeconds());
    if (layers.has_value()) {
      w.Key("shard_layers");
      w.BeginObject();
      w.Key("ok");
      w.Bool(layers->ok);
      WriteDouble(w, "worker_s_max", layers->worker_s_max);
      WriteDouble(w, "worker_s_sum", layers->worker_s_sum);
      WriteDouble(w, "encode_s", layers->encode_s);
      WriteDouble(w, "decode_s", layers->decode_s);
      WriteDouble(w, "merge_s", layers->merge_s);
      WriteDouble(w, "write_atomic_s", layers->write_atomic_s);
      WriteDouble(w, "crc32_mb_per_s", layers->crc32_mb_per_s);
      WriteDouble(w, "state_mb", layers->state_mb);
      w.Key("checkpoints");
      w.Uint(layers->checkpoints);
      w.EndObject();
    }
    w.Key("spans");
    w.BeginArray();
    for (const Tracer::Span& s : tracer.spans()) {
      w.BeginObject();
      w.Key("name");
      w.String(s.name);
      w.Key("parent");
      w.Int(s.parent);
      WriteDouble(w, "start_s", s.start_s);
      WriteDouble(w, "end_s", s.end_s);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace cyclestream::bench

int main(int argc, char** argv) {
  return cyclestream::bench::Main(argc, argv);
}
