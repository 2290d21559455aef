#ifndef CYCLESTREAM_ENGINE_COORDINATOR_H_
#define CYCLESTREAM_ENGINE_COORDINATOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/broker.h"
#include "engine/query.h"
#include "engine/shard.h"

namespace cyclestream::engine {

/// Coordinator half of the multi-process engine (DESIGN.md §14): partitions
/// the stream into W contiguous shard ranges, runs one worker per shard
/// (in-process for hermetic tests, or `cyclestream_cli shard-worker`
/// subprocesses), and folds the workers' serialized states in fixed shard
/// order with the exact-integer MergeFrom path. There is one sharded wave
/// loop, the supervisor's (engine/supervisor.h); RunShardedBatch is that
/// loop under its plainest failure policy.
///
/// Determinism contract: every query's merged state — and therefore every
/// estimate, space audit, and deterministic manifest field — is
/// bit-identical to the single-process StreamBroker run of the same specs
/// over the same stream, at any W. Shard states are sums of exact
/// integer deltas (each well under 2^53, held in doubles), the stream
/// partition is contiguous and exhaustive, and the fold visits shards in
/// fixed order 0..W−1 — so the merged accumulators receive exactly the
/// additions the unsharded pass performs, and integer addition is exact.
/// W = 1 is the oracle: one worker over the whole stream, merged with
/// nothing.
///
/// Fault tolerance: with an epoch cadence configured, each worker
/// checkpoints its state every epoch_edges slice-local edges (atomic
/// write). A worker that dies is relaunched once, alone, resuming from its
/// last checkpoint — live workers and finished shards are never re-run. A
/// worker that fails twice poisons its wave (its slots report `poisoned`)
/// and the batch goes on. The loop keeps `<shard_dir>/daemon.manifest`
/// current, so `serve --daemon --resume` can finish a batch whose process
/// died.

/// How workers are executed.
enum class ShardLaunch {
  kInProcess,   // Direct function calls, sequential: hermetic, no fork.
  kSubprocess,  // fork/exec `<worker_binary> shard-worker ...` per shard.
};

/// One sharded batch's execution plan.
struct ShardPlanOptions {
  int num_workers = 1;
  /// Edges per ProcessEdgeBlock inside each worker (throughput only).
  std::size_t block_edges = 4096;
  /// Admission policy — identical semantics to BrokerOptions::budget (both
  /// run the one PlanWaves schedule).
  BudgetPolicy budget;
  /// Worker checkpoint cadence in slice-local edges; 0 disables
  /// checkpoints (and with them, recovery).
  std::uint64_t epoch_edges = 0;
  /// Directory for spec files, worker state files, checkpoints, and the
  /// daemon manifest. Must exist. Required (CHECKed).
  std::string shard_dir;
  ShardLaunch launch = ShardLaunch::kInProcess;
  /// Worker executable for kSubprocess; empty resolves /proc/self/exe.
  std::string worker_binary;
  /// Binary edge-stream path handed to subprocess workers; required for
  /// kSubprocess (they map the stream themselves).
  std::string stream_path;
  /// Fault injection: worker `kill_worker` dies (exit kKilledExitCode)
  /// after `kill_after_edges` slice-local edges on its first launch of the
  /// first wave; the loop then recovers it. -1 disables.
  int kill_worker = -1;
  std::uint64_t kill_after_edges = 0;
};

/// Outcome of a sharded batch: the broker-shaped results plus recovery
/// accounting (execution-dependent — kept out of deterministic manifests).
struct ShardBatchResult {
  std::vector<QueryOutcome> outcomes;  // Slot order, like the broker's.
  EngineStats stats;
  std::uint64_t workers_launched = 0;
  std::uint64_t workers_recovered = 0;
};

/// Runs `specs` over `edges` under the sharded engine: RunSupervisedBatch
/// with two attempts per worker (first launch + one recovery), no backoff
/// and no deadlines. Every spec must be a shard-mergeable edge kind
/// (IsShardMergeableKind; CHECKed). Waves, outcomes, and stats match
/// StreamBroker::RunEdgeQueries exactly for every wave that completes.
ShardBatchResult RunShardedBatch(const std::vector<QuerySpec>& specs,
                                 std::span<const Edge> edges,
                                 const ShardPlanOptions& options);

/// Folds `states` (fixed order) into one merged query per spec. `base`
/// queries, when provided, seed the fold; otherwise shard 0's state is the
/// seed.
std::vector<EdgeQuery> MergeShardStates(
    const std::vector<QuerySpec>& wave_specs,
    const std::vector<ShardState>& states, std::vector<EdgeQuery> base);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_COORDINATOR_H_
