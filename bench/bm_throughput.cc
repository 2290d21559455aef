// Microbenchmarks (google-benchmark): raw throughput of the substrates and
// of every streaming counter, in edges (or adjacency items) per second.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/triest.h"
#include "bench/bench_common.h"
#include "engine/broker.h"
#include "engine/query.h"
#include "graph/binary_io.h"
#include "graph/io.h"
#include "core/adj_f2_counter.h"
#include "core/amplify.h"
#include "core/arb_f2_counter.h"
#include "core/arb_three_pass.h"
#include "core/diamond_counter.h"
#include "core/random_order_triangles.h"
#include "gen/generators.h"
#include "graph/exact.h"
#include "graph/graph.h"
#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "stream/order.h"
#include "util/parallel.h"

namespace cyclestream {
namespace {

// Shared fixtures, built once.
const EdgeList& BaGraph() {
  static const EdgeList* graph = [] {
    Rng rng(1);
    return new EdgeList(BarabasiAlbert(20000, 5, rng));
  }();
  return *graph;
}

const Graph& BaCsr() {
  static const Graph* g = new Graph(BaGraph());
  return *g;
}

void BM_GenerateErdosRenyiGnm(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(ErdosRenyiGnm(10000, m, rng));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_GenerateErdosRenyiGnm)->Arg(10000)->Arg(100000);

void BM_GenerateBarabasiAlbert(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(BarabasiAlbert(10000, 5, rng));
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_GenerateBarabasiAlbert);

void BM_BuildCsr(benchmark::State& state) {
  const EdgeList& graph = BaGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Graph(graph));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_edges()));
}
BENCHMARK(BM_BuildCsr);

void BM_ExactTriangles(benchmark::State& state) {
  const Graph& g = BaCsr();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_ExactTriangles);

void BM_ExactFourCycles(benchmark::State& state) {
  Rng rng(2);
  const Graph g(ErdosRenyiGnm(4000, 20000, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountFourCycles(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_ExactFourCycles);

void BM_RandomOrderShuffle(benchmark::State& state) {
  const EdgeList& graph = BaGraph();
  std::uint64_t seed = 7;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(MakeRandomOrderStream(graph, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_edges()));
}
BENCHMARK(BM_RandomOrderShuffle);

// Arg 0: BA n=20k with a fixed T-guess scale. Arg 1: cyclebench's
// edge-sparse-ba shape, as `sweep` runs it: shuffled BA n=50k, deg 5,
// ε = 0.2, c = 2 and t_guess = the exact T, so every level is saturated.
void BM_TriangleCounterRandomOrder(benchmark::State& state) {
  const bool sparse_ba = state.range(0) == 1;
  static const EdgeList* ba50k = [] {
    Rng rng(1);
    return new EdgeList(BarabasiAlbert(50000, 5, rng));
  }();
  const EdgeList& graph = sparse_ba ? *ba50k : BaGraph();
  Rng rng(3);
  const EdgeStream stream = MakeRandomOrderStream(graph, rng);
  const double t =
      sparse_ba ? static_cast<double>(CountTriangles(Graph(graph)))
                : 60000;  // Guess scale only; throughput test.
  std::uint64_t seed = 0;
  for (auto _ : state) {
    RandomOrderTriangleCounter::Params params;
    params.base.epsilon = 0.2;
    params.base.t_guess = t;
    params.base.seed = seed++;
    if (sparse_ba) params.base.c = 2.0;
    params.num_vertices = graph.num_vertices();
    benchmark::DoNotOptimize(CountTrianglesRandomOrder(stream, params));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_TriangleCounterRandomOrder)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_Triest(benchmark::State& state) {
  const EdgeList& graph = BaGraph();
  Rng rng(4);
  const EdgeStream stream = MakeRandomOrderStream(graph, rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Triest::Params params;
    params.reservoir_capacity = static_cast<std::size_t>(state.range(0));
    params.seed = seed++;
    Triest algo(params);
    RunEdgeStream(algo, stream);
    benchmark::DoNotOptimize(algo.EstimateTriangles());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_Triest)->Arg(1000)->Arg(10000);

void BM_DiamondCounter(benchmark::State& state) {
  Rng gen(5);
  EdgeList base(1);
  base.Finalize();
  const Graph g(PlantDiamonds(ErdosRenyiGnm(3000, 9000, gen),
                              {DiamondSpec{8, 50}}, gen));
  Rng rng(6);
  const AdjacencyStream stream = MakeAdjacencyStream(g, rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    DiamondFourCycleCounter::Params params;
    params.base.epsilon = 0.25;
    params.base.t_guess = 1400;
    params.base.seed = seed++;
    params.num_vertices = g.num_vertices();
    params.max_shifts = 2;
    benchmark::DoNotOptimize(CountFourCyclesDiamond(stream, params));
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_DiamondCounter);

void BM_ArbThreePass(benchmark::State& state) {
  Rng gen(7);
  EdgeList graph = PlantFourCycles(ErdosRenyiGnm(3000, 9000, gen), 500, gen);
  Rng rng(8);
  EdgeStream stream = graph.edges();
  rng.Shuffle(stream);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ArbThreePassFourCycleCounter::Params params;
    params.base.epsilon = 0.3;
    params.base.t_guess = 500;
    params.base.seed = seed++;
    params.num_vertices = graph.num_vertices();
    benchmark::DoNotOptimize(CountFourCyclesArbThreePass(stream, params));
  }
  state.SetItemsProcessed(state.iterations() * 3 *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ArbThreePass);

// Args: copies per group (9 groups), vertices, edges per ProcessEdgeBlock
// call (one call per iteration). n = 200 is G(200, 0.3), whose rows stay in
// L2; n = 50000 is the edge-sparse-ba shape, shuffled BA deg 5 with C = 450
// in 4096-edge blocks, whose rows do not fit in L3. A row's bound grows by
// its degree per pass over the stream, so the counter is rebuilt, untimed,
// before one could reach 32,767: every run times int16 slots only.
// `bytes_per_edge` is the memory each edge's update touches (two rows and
// their sign bytes), to read the time per edge against.
void BM_ArbF2PerEdge(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(1));
  const auto block = static_cast<std::size_t>(state.range(2));
  Rng gen(9);
  EdgeStream stream = (n <= 200 ? ErdosRenyiGnp(n, 0.3, gen)
                                : BarabasiAlbert(n, 5, gen))
                          .edges();
  gen.Shuffle(stream);
  std::vector<std::size_t> degree(n, 0);
  for (const Edge& e : stream) {
    ++degree[e.u];
    ++degree[e.v];
  }
  const std::size_t passes_per_counter =
      32767 / *std::max_element(degree.begin(), degree.end());
  ArbF2FourCycleCounter::Params params;
  params.base.epsilon = 0.15;
  params.num_vertices = n;
  params.copies_per_group = static_cast<int>(state.range(0));
  const auto signs = ArbF2FourCycleCounter::MakeSigns(params);
  auto counter = std::make_unique<ArbF2FourCycleCounter>(params, signs);
  std::size_t delivered = 0;  // Edges into `counter`.
  std::int64_t items = 0;
  for (auto _ : state) {
    if (delivered + block > passes_per_counter * stream.size()) {
      state.PauseTiming();
      counter = std::make_unique<ArbF2FourCycleCounter>(params, signs);
      delivered = 0;
      state.ResumeTiming();
    }
    const std::size_t pos = delivered % stream.size();
    const std::size_t len = std::min(block, stream.size() - pos);
    counter->ProcessEdgeBlock(
        0, std::span<const Edge>(stream.data() + pos, len), pos);
    benchmark::ClobberMemory();
    delivered += len;
    items += static_cast<std::int64_t>(len);
  }
  state.SetItemsProcessed(items);
  state.counters["bytes_per_edge"] =
      bench::ArbF2BytesPerEdge(*counter, *signs, n);
}
BENCHMARK(BM_ArbF2PerEdge)
    ->Args({64, 200, 1})
    ->Args({512, 200, 1})
    ->Args({50, 50000, 4096});

void BM_AmsF2Update(benchmark::State& state) {
  AmsF2 sketch(9, static_cast<std::size_t>(state.range(0)), 1);
  std::uint64_t key = 0;
  for (auto _ : state) {
    sketch.Update(key++, 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AmsF2Update)->Arg(16)->Arg(128);

void BM_CountSketchUpdate(benchmark::State& state) {
  CountSketch sketch(5, 512, 2);
  std::uint64_t key = 0;
  for (auto _ : state) {
    sketch.Update(key++, 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchUpdate);

void BM_AdjF2List(benchmark::State& state) {
  Rng gen(10);
  const Graph g(ErdosRenyiGnp(200, 0.2, gen));
  const AdjacencyStream stream = MakeAdjacencyStreamById(g);
  AdjF2FourCycleCounter::Params params;
  params.base.epsilon = 0.2;
  params.base.t_guess = 1e5;
  params.num_vertices = g.num_vertices();
  params.copies_per_group = 64;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    params.base.seed = seed++;
    AdjF2FourCycleCounter counter(params);
    RunAdjacencyStream(counter, stream);
    benchmark::DoNotOptimize(counter.Result());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_AdjF2List);

// Engine batch: Arg Triest estimators over one stream, each run whole on
// its broker thread. items/s counts *delivered* edges (stream × queries),
// so flat items/s across Args means the broker adds no per-query overhead
// beyond the estimators themselves.
void BM_BrokerFanout(benchmark::State& state) {
  const EdgeList& graph = BaGraph();
  Rng rng(12);
  const EdgeStream stream = MakeRandomOrderStream(graph, rng);
  const int queries = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    engine::StreamBroker broker;
    for (int q = 0; q < queries; ++q) {
      engine::QuerySpec spec;
      spec.name = "triest-" + std::to_string(q);
      spec.kind = engine::QueryKind::kTriest;
      spec.base.seed = seed++;
      spec.reservoir_capacity = 1000;
      broker.AddQuery(std::move(spec));
    }
    benchmark::DoNotOptimize(broker.RunEdgeQueries(stream));
  }
  state.SetItemsProcessed(state.iterations() * queries *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_BrokerFanout)->Arg(1)->Arg(8)->Arg(16);

// Ingest formats: the same BA edge stream parsed from SNAP-style text vs
// opened from the binary format (mmap + full header/CRC/edge validation,
// zero-copy after that). items/s is edges ingested per second.
struct IngestFixture {
  std::string text_path;
  std::string bin_path;
  std::size_t edges = 0;

  IngestFixture() {
    const auto dir = std::filesystem::temp_directory_path();
    text_path = (dir / "cyclestream_bm_ingest.txt").string();
    bin_path = (dir / "cyclestream_bm_ingest.bin").string();
    const EdgeList& graph = BaGraph();
    edges = graph.num_edges();
    if (!SaveEdgeListText(graph, text_path) ||
        !WriteBinaryEdgeStream(graph, bin_path)) {
      std::fprintf(stderr, "BM_Ingest fixture: cannot write temp files\n");
      std::abort();
    }
  }
};

const IngestFixture& Ingest() {
  static const IngestFixture* fixture = new IngestFixture();
  return *fixture;
}

void BM_IngestText(benchmark::State& state) {
  const IngestFixture& fx = Ingest();
  for (auto _ : state) {
    auto loaded = LoadEdgeListText(fx.text_path);
    if (!loaded) std::abort();
    benchmark::DoNotOptimize(loaded->num_edges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.edges));
}
BENCHMARK(BM_IngestText);

void BM_IngestBinary(benchmark::State& state) {
  const IngestFixture& fx = Ingest();
  for (auto _ : state) {
    BinaryEdgeReader reader;
    std::string error;
    if (!reader.Open(fx.bin_path, &error)) std::abort();
    benchmark::DoNotOptimize(reader.edges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.edges));
}
BENCHMARK(BM_IngestBinary);

// Amplified run on the thread pool: Arg = thread count. The estimates are
// bit-identical across Args (the parallel layer's determinism contract);
// only the wall clock should change. delta = 1e-4 gives 19 copies.
void BM_AmplifyMedianThreads(benchmark::State& state) {
  SetDefaultThreads(static_cast<int>(state.range(0)));
  Rng gen(11);
  const EdgeList graph =
      PlantTriangles(ErdosRenyiGnm(4000, 16000, gen), 800, gen);
  const auto run = [&graph](std::uint64_t seed) {
    Rng rng(seed);
    const EdgeStream stream = MakeRandomOrderStream(graph, rng);
    RandomOrderTriangleCounter::Params params;
    params.base.epsilon = 0.2;
    params.base.t_guess = 800;
    params.base.seed = seed;
    params.num_vertices = graph.num_vertices();
    return CountTrianglesRandomOrder(stream, params);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(AmplifyMedian(1e-4, 42, run));
  }
  state.SetItemsProcessed(state.iterations() * AmplifyCopies(1e-4) *
                          static_cast<std::int64_t>(graph.num_edges()));
  SetDefaultThreads(0);
}
BENCHMARK(BM_AmplifyMedianThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) {
  cyclestream::bench::RequireOptimizedBuild("bm_throughput");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
