// Microbenchmarks (google-benchmark): the DODG/SIMD exact-counting backend
// (graph/dodg.h) against the naive oracles (graph/exact.h).
//
// Two fixture scales:
//   * Small — the exact fixtures bm_throughput uses for BM_ExactTriangles /
//     BM_ExactFourCycles (BA n=20000 deg=5 seed=1; ER n=4000 m=20000
//     seed=2). In-suite BM_Naive* reference runs make the comparison
//     self-contained.
//   * Big — ~10 M-edge graphs (BA n=2M deg=5; ER n=4M m=10M), the scale
//     the backend exists for. The naive references run a single pinned
//     iteration each: on the hub-heavy BA fixture the wedge-map 4-cycle
//     oracle needs minutes and tens of GB where DODG needs seconds — CI's
//     bench-smoke filters them out (--benchmark_filter='-BM_Naive.*Big'),
//     the committed baseline records them once.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench/bench_common.h"
#include "gen/generators.h"
#include "graph/dodg.h"
#include "graph/exact.h"
#include "graph/graph.h"
#include "hash/rng.h"

namespace cyclestream {
namespace {

// Shared fixtures, built once on first use.
const EdgeList& SmallBa() {
  static const EdgeList* graph = [] {
    Rng rng(1);
    return new EdgeList(BarabasiAlbert(20000, 5, rng));
  }();
  return *graph;
}

const EdgeList& SmallEr() {
  static const EdgeList* graph = [] {
    Rng rng(2);
    return new EdgeList(ErdosRenyiGnm(4000, 20000, rng));
  }();
  return *graph;
}

const EdgeList& BigBa() {
  static const EdgeList* graph = [] {
    Rng rng(11);
    return new EdgeList(BarabasiAlbert(2000000, 5, rng));
  }();
  return *graph;
}

const EdgeList& BigEr() {
  static const EdgeList* graph = [] {
    Rng rng(12);
    return new EdgeList(ErdosRenyiGnm(4000000, 10000000, rng));
  }();
  return *graph;
}

void SetEdgeItems(benchmark::State& state, const EdgeList& graph) {
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_edges()));
}

// --- Small fixtures: naive reference vs DODG, same inputs. ---------------

void BM_NaiveTrianglesSmall(benchmark::State& state) {
  const Graph g(SmallBa());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g));
  }
  SetEdgeItems(state, SmallBa());
}
BENCHMARK(BM_NaiveTrianglesSmall);

void BM_NaiveFourCyclesSmall(benchmark::State& state) {
  const Graph g(SmallEr());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountFourCycles(g));
  }
  SetEdgeItems(state, SmallEr());
}
BENCHMARK(BM_NaiveFourCyclesSmall);

void BM_DodgTrianglesSmall(benchmark::State& state) {
  const DodgGraph g = DodgGraph::Build(SmallBa());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.CountTriangles());
  }
  SetEdgeItems(state, SmallBa());
}
BENCHMARK(BM_DodgTrianglesSmall);

void BM_DodgFourCyclesSmall(benchmark::State& state) {
  const DodgGraph g = DodgGraph::Build(SmallEr());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.CountFourCycles());
  }
  SetEdgeItems(state, SmallEr());
}
BENCHMARK(BM_DodgFourCyclesSmall);

// --- Big fixtures: the 10 M-edge scale the backend exists for. -----------

void BM_NaiveTrianglesBig(benchmark::State& state) {
  const Graph g(BigBa());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g));
  }
  SetEdgeItems(state, BigBa());
}
BENCHMARK(BM_NaiveTrianglesBig)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_NaiveFourCyclesBig(benchmark::State& state) {
  const Graph g(BigBa());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountFourCycles(g));
  }
  SetEdgeItems(state, BigBa());
}
BENCHMARK(BM_NaiveFourCyclesBig)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Pairs with BM_NaiveFourCyclesBig (same BA fixture).
void BM_DodgFourCyclesBig(benchmark::State& state) {
  const DodgGraph g = DodgGraph::Build(BigBa());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.CountFourCycles());
  }
  SetEdgeItems(state, BigBa());
}
BENCHMARK(BM_DodgFourCyclesBig)->Unit(benchmark::kMillisecond);

void BM_DodgBuild(benchmark::State& state) {
  const EdgeList& graph = BigBa();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DodgGraph::Build(graph));
  }
  SetEdgeItems(state, graph);
}
BENCHMARK(BM_DodgBuild)->Unit(benchmark::kMillisecond);

// Pairs with BM_NaiveTrianglesBig (same BA fixture).
void BM_DodgTriangles(benchmark::State& state) {
  const DodgGraph g = DodgGraph::Build(BigBa());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.CountTriangles());
  }
  SetEdgeItems(state, BigBa());
}
BENCHMARK(BM_DodgTriangles)->Unit(benchmark::kMillisecond);

// The flat (non-power-law) large case: ER at the same edge count.
void BM_DodgFourCycles(benchmark::State& state) {
  const DodgGraph g = DodgGraph::Build(BigEr());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.CountFourCycles());
  }
  SetEdgeItems(state, BigEr());
}
BENCHMARK(BM_DodgFourCycles)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) {
  cyclestream::bench::RequireOptimizedBuild("bm_exact");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
