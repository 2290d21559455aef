#include "engine/coordinator.h"

#include <utility>

#include "engine/supervisor.h"
#include "util/check.h"

namespace cyclestream::engine {

std::vector<EdgeQuery> MergeShardStates(
    const std::vector<QuerySpec>& wave_specs,
    const std::vector<ShardState>& states, std::vector<EdgeQuery> base) {
  std::vector<EdgeQuery> merged = std::move(base);
  CHECK(!merged.empty() || !states.empty());
  std::vector<EdgeQuery> scratch;
  for (const ShardState& state : states) {
    const bool seed = merged.empty();
    std::string why;
    CHECK(RestoreQueryStates(wave_specs, state, seed ? &merged : &scratch,
                             &why))
        << "validated shard state refused: " << why << " (codec bug)";
    if (!seed) MergeShardQueries(wave_specs, scratch, &merged);
  }
  return merged;
}

void MergeShardQueries(const std::vector<QuerySpec>& wave_specs,
                       const std::vector<EdgeQuery>& shard,
                       std::vector<EdgeQuery>* merged) {
  for (std::size_t q = 0; q < wave_specs.size(); ++q) {
    CHECK((*merged)[q].algorithm->MergeFrom(*shard[q].algorithm))
        << "MergeFrom rejected a restored shard state for query '"
        << wave_specs[q].name << "'";
  }
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
