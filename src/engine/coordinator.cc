#include "engine/coordinator.h"

#include <utility>

#include "engine/supervisor.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

// Restores one query's blob into a fresh instance of `spec`.
EdgeQuery RestoreQuery(const QuerySpec& spec, const std::string& blob) {
  EdgeQuery q = MakeEdgeQuery(spec);
  StateReader r(blob);
  CHECK(q.algorithm->RestoreState(r) && r.AtEnd())
      << "validated shard state rejected by RestoreState for query '"
      << spec.name << "' (codec bug)";
  return q;
}

}  // namespace

std::vector<EdgeQuery> MergeShardStates(
    const std::vector<QuerySpec>& wave_specs,
    const std::vector<ShardState>& states, std::vector<EdgeQuery> base) {
  std::vector<EdgeQuery> merged = std::move(base);
  const bool seeded = !merged.empty();
  CHECK(seeded || !states.empty());
  for (std::size_t qi = 0; qi < wave_specs.size(); ++qi) {
    std::size_t first = 0;
    if (!seeded) {
      if (qi == 0) merged.reserve(wave_specs.size());
      if (merged.size() <= qi) {
        merged.push_back(
            RestoreQuery(wave_specs[qi], states[0].query_states[qi].second));
      }
      first = 1;
    }
    for (std::size_t w = first; w < states.size(); ++w) {
      EdgeQuery scratch =
          RestoreQuery(wave_specs[qi], states[w].query_states[qi].second);
      CHECK(merged[qi].algorithm->MergeFrom(*scratch.algorithm))
          << "MergeFrom rejected a validated shard state for query '"
          << wave_specs[qi].name << "'";
    }
  }
  return merged;
}

ShardBatchResult RunShardedBatch(const std::vector<QuerySpec>& specs,
                                 std::span<const Edge> edges,
                                 const ShardPlanOptions& options) {
  SupervisorOptions supervised;
  supervised.plan = options;
  supervised.retry.max_attempts = 2;  // First launch + one recovery.
  supervised.retry.base_backoff_ms = 0;
  supervised.retry.backoff_cap_ms = 0;
  SupervisedBatchResult run;
  std::string error;
  CHECK(RunSupervisedBatch(specs, edges, supervised, &run, &error)) << error;
  CHECK(!run.drained) << "a drain request stopped the sharded batch; finish "
                         "it with `serve --daemon --resume`";
  ShardBatchResult result;
  result.outcomes = std::move(run.outcomes);
  result.stats = run.stats;
  result.workers_launched = run.counters.workers_launched;
  result.workers_recovered = run.counters.retries;
  return result;
}

}  // namespace cyclestream::engine
