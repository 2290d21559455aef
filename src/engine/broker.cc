#include "engine/broker.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "stream/driver.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace cyclestream::engine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Runs one wave: thread t of min(slots, threads) runs slots t, t+T, ... in
// order, each whole (construct, every pass through the one pass loop,
// result) and releases it before building the next. The pass loop audits
// and credits each query; the caller fills the rest of the outcomes in
// registration order, and the read counters follow from the pass counts.
template <typename Item, typename Make>
void RunWave(std::span<const Item> stream, Make make,
             const BrokerOptions& options, const std::vector<QuerySpec>& specs,
             const std::vector<std::size_t>& slots, int wave,
             std::vector<QueryOutcome>& outcomes, EngineStats& stats) {
  const std::size_t threads =
      std::min(slots.size(), static_cast<std::size_t>(DefaultThreads()));
  ParallelFor(threads, [&](std::size_t t) {
    for (std::size_t i = t; i < slots.size(); i += threads) {
      QueryOutcome& out = outcomes[slots[i]];
      out.thread = static_cast<int>(t);
      auto start = std::chrono::steady_clock::now();
      auto q = make(specs[slots[i]]);
      out.construct_s = SecondsSince(start);
      start = std::chrono::steady_clock::now();
      RunPasses(*q.algorithm, stream, options.block_size);
      out.run_s = SecondsSince(start);
      start = std::chrono::steady_clock::now();
      out.estimate = q.result();
      out.passes = q.algorithm->NumPasses();
      if (const SpaceTracker* tracker = q.algorithm->space_tracker()) {
        out.space_peak_components = tracker->PeakComponents();
      }
      out.finalize_s = SecondsSince(start);
    }
  });

  int max_passes = 0;
  for (std::size_t slot : slots) {
    QueryOutcome& out = outcomes[slot];
    out.admission = AdmissionOutcome::kAdmitted;
    out.wave = wave;
    out.items_delivered =
        static_cast<std::uint64_t>(out.passes) * stream.size();
    max_passes = std::max(max_passes, out.passes);
    stats.items_delivered += out.items_delivered;
  }
  stats.physical_passes += static_cast<std::uint64_t>(max_passes);
  stats.source_items_read +=
      static_cast<std::uint64_t>(max_passes) * stream.size();
}

}  // namespace

StreamBroker::StreamBroker(const BrokerOptions& options) : options_(options) {
  CHECK_GT(options_.block_size, 0u) << "BrokerOptions::block_size must be > 0";
}

std::size_t StreamBroker::AddQuery(QuerySpec spec) {
  CHECK(!ran_) << "StreamBroker is one-shot; register before Run*Queries";
  CHECK(!spec.name.empty()) << "QuerySpec::name must be set";
  for (const QuerySpec& existing : specs_) {
    CHECK(existing.name != spec.name)
        << "duplicate query name '" << spec.name << "'";
  }
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

template <typename Item, typename Make>
std::vector<QueryOutcome> StreamBroker::RunBatch(std::span<const Item> stream,
                                                 Make make) {
  CHECK(!ran_) << "StreamBroker is one-shot; construct a new broker";
  ran_ = true;

  std::vector<QueryOutcome> outcomes(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) outcomes[i].spec = specs_[i];

  // Rejected slots keep their default (rejected) outcome.
  const WavePlan plan = PlanWaves(specs_, options_.budget);
  for (std::size_t wave = 0; wave < plan.waves.size(); ++wave) {
    const std::vector<std::size_t>& admitted = plan.waves[wave].admitted;
    RunWave(stream, make, options_, specs_, admitted, static_cast<int>(wave),
            outcomes, stats_);
    stats_.queries_admitted += admitted.size();
  }
  stats_.waves = plan.waves.size();
  stats_.queries_queued = plan.queries_queued;
  stats_.queries_rejected = plan.rejected.size();
  stats_.budget_peak_words = plan.budget_peak_words;
  return outcomes;
}

std::vector<QueryOutcome> StreamBroker::RunEdgeQueries(
    std::span<const Edge> stream) {
  for (const QuerySpec& spec : specs_) {
    CHECK(IsEdgeKind(spec.kind))
        << "RunEdgeQueries: query '" << spec.name << "' has adjacency kind "
        << QueryKindName(spec.kind);
  }
  return RunBatch(stream, MakeEdgeQuery);
}

std::vector<QueryOutcome> StreamBroker::RunAdjacencyQueries(
    std::span<const AdjacencyList> stream) {
  for (const QuerySpec& spec : specs_) {
    CHECK(!IsEdgeKind(spec.kind))
        << "RunAdjacencyQueries: query '" << spec.name << "' has edge kind "
        << QueryKindName(spec.kind);
  }
  return RunBatch(stream, MakeAdjacencyQuery);
}

std::vector<QueryOutcome> StreamBroker::RunTurnstileQueries(
    std::span<const TurnstileUpdate> stream) {
  for (const QuerySpec& spec : specs_) {
    CHECK(IsTurnstileKind(spec.kind))
        << "RunTurnstileQueries: query '" << spec.name
        << "' has non-turnstile kind " << QueryKindName(spec.kind);
  }
  return RunBatch(stream, MakeTurnstileQuery);
}

void ExportToManifest(const std::vector<QueryOutcome>& outcomes,
                      const EngineStats& stats, RunManifest& manifest) {
  MetricsRegistry& m = manifest.metrics();
  m.SetInt("engine.source_items_read",
           static_cast<std::int64_t>(stats.source_items_read));
  m.SetInt("engine.items_delivered",
           static_cast<std::int64_t>(stats.items_delivered));
  m.SetInt("engine.physical_passes",
           static_cast<std::int64_t>(stats.physical_passes));
  m.SetInt("engine.waves", static_cast<std::int64_t>(stats.waves));
  m.SetInt("engine.queries", static_cast<std::int64_t>(outcomes.size()));
  m.SetInt("engine.queries_admitted",
           static_cast<std::int64_t>(stats.queries_admitted));
  m.SetInt("engine.queries_queued",
           static_cast<std::int64_t>(stats.queries_queued));
  m.SetInt("engine.queries_rejected",
           static_cast<std::int64_t>(stats.queries_rejected));
  m.SetInt("engine.budget_peak_words",
           static_cast<std::int64_t>(stats.budget_peak_words));

  for (const QueryOutcome& out : outcomes) {
    MetricsRegistry q;
    q.SetStr("kind", std::string(QueryKindName(out.spec.kind)));
    q.SetStr("target", std::string(QueryKindTarget(out.spec.kind)));
    q.SetStr("admission", std::string(AdmissionOutcomeName(out.admission)));
    q.SetInt("wave", out.wave);
    q.SetInt("seed", static_cast<std::int64_t>(out.spec.base.seed));
    q.SetInt("budget_words",
             static_cast<std::int64_t>(out.spec.space_budget_words));
    // Window/decay knobs change results, so they belong in the
    // deterministic section.
    if (out.spec.window_edges > 0) {
      q.SetInt("window", static_cast<std::int64_t>(out.spec.window_edges));
      q.SetInt("window_buckets",
               static_cast<std::int64_t>(out.spec.window_buckets));
    }
    if (out.spec.decay_epoch_edges > 0) {
      q.SetInt("decay_epoch",
               static_cast<std::int64_t>(out.spec.decay_epoch_edges));
      q.SetInt("decay_log2", static_cast<std::int64_t>(out.spec.decay_log2));
    }
    if (out.thread >= 0) {
      // How the query ran, not what it computed: outside the deterministic
      // section.
      const std::string prefix = "query." + out.spec.name + ".";
      m.SetTiming(prefix + "construct_s", out.construct_s);
      m.SetTiming(prefix + "run_s", out.run_s);
      m.SetTiming(prefix + "finalize_s", out.finalize_s);
      m.SetExecution(prefix + "thread", out.thread);
    }
    if (out.poisoned) {
      // A poisoned wave has no trustworthy estimate; publish the marker and
      // nothing else, so a consumer can never mistake the zero-initialized
      // estimate for a result.
      q.SetInt("poisoned", 1);
    } else if (out.admission == AdmissionOutcome::kAdmitted) {
      q.Set("estimate", out.estimate.value);
      q.SetInt("space_words", static_cast<std::int64_t>(out.estimate.space_words));
      q.SetInt("passes", out.passes);
      q.SetInt("items_delivered",
               static_cast<std::int64_t>(out.items_delivered));
      for (const auto& [component, words] : out.space_peak_components) {
        q.SetInt("space." + component, static_cast<std::int64_t>(words));
      }
    }
    manifest.AddQuerySection(out.spec.name, std::move(q));
  }
}

}  // namespace cyclestream::engine
