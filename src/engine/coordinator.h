#ifndef CYCLESTREAM_ENGINE_COORDINATOR_H_
#define CYCLESTREAM_ENGINE_COORDINATOR_H_

#include <sys/types.h>

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
/// order with the exact-integer MergeFrom path.
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
/// write), and the coordinator records an epoch manifest up front. A worker
/// that dies is relaunched alone, resuming from its last checkpoint — live
/// workers and finished shards are never re-run. A coordinator restart can
/// instead call ResumeShardedBatch, which folds the per-shard checkpoints
/// as a base state and re-partitions only the leftover ranges — among a
/// *different* worker count if desired (state linearity makes any
/// repartition of the unprocessed suffix merge to the same totals).

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
  /// Admission policy — identical semantics to BrokerOptions::budget (the
  /// coordinator replays the broker's exact offer sequence).
  BudgetPolicy budget;
  /// Worker checkpoint cadence in slice-local edges; 0 disables
  /// checkpoints (and with them, recovery).
  std::uint64_t epoch_edges = 0;
  /// Directory for spec files, worker state files, checkpoints, and the
  /// epoch manifest. Must exist. Required (CHECKed).
  std::string shard_dir;
  ShardLaunch launch = ShardLaunch::kInProcess;
  /// Worker executable for kSubprocess; empty resolves /proc/self/exe.
  std::string worker_binary;
  /// Binary edge-stream path handed to subprocess workers; required for
  /// kSubprocess (they map the stream themselves).
  std::string stream_path;
  /// Fault injection: worker `kill_worker` dies (exit kKilledExitCode)
  /// after `kill_after_edges` slice-local edges on its first launch of the
  /// first wave; the coordinator then recovers it. -1 disables.
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
  bool resumed = false;  // Result came from ResumeShardedBatch.
};

/// Runs `specs` over `edges` under the sharded engine. Every spec must be a
/// shard-mergeable edge kind (IsShardMergeableKind; CHECKed). Admission,
/// waves, outcomes, and stats replicate StreamBroker::RunEdgeQueries
/// exactly. When epoch_edges > 0 an epoch manifest for the first wave is
/// written to `<shard_dir>/epoch.manifest`.
ShardBatchResult RunShardedBatch(const std::vector<QuerySpec>& specs,
                                 std::span<const Edge> edges,
                                 const ShardPlanOptions& options);

// ---------------------------------------------------------------------------
// Coordinator epoch manifest + W-change restore
// ---------------------------------------------------------------------------

/// What a dead coordinator needs to finish the batch: the partition it
/// launched and where each shard's checkpoints live. Written once at the
/// start of the (first) wave; per-shard *progress* lives in each shard's
/// own checkpoint file, so the manifest never needs rewriting — there is no
/// global synchronized cut, and none is needed: state linearity lets the
/// restore fold whatever each shard's last checkpoint holds and re-run just
/// the leftover ranges.
struct EpochManifest {
  std::uint32_t num_workers = 1;
  std::uint64_t stream_fingerprint = 0;
  std::uint64_t stream_length = 0;
  std::uint64_t spec_fingerprint = 0;  // Of the wave's admitted specs.
  std::uint64_t epoch_edges = 0;
  std::vector<std::vector<ShardRange>> worker_ranges;
  /// Checkpoint file names, relative to the manifest's directory.
  std::vector<std::string> checkpoint_files;
};

/// CRC-framed save/load (same frame protocol as shard states; strict
/// validation, never a partial read).
bool SaveEpochManifest(const std::string& path, const EpochManifest& manifest,
                       std::string* error);
bool LoadEpochManifest(const std::string& path, EpochManifest* manifest,
                       std::string* error);

/// Coordinator-restart restore: reads `manifest_path` (+ the per-shard
/// checkpoints it names), folds the checkpointed states as the base,
/// re-partitions the unprocessed leftover ranges among
/// `options.num_workers` fresh workers (any W — it need not match the
/// original), runs them, and merges base + workers in fixed order. The
/// batch must have been single-wave (admission replay of `specs` under
/// `options.budget` must admit everything in wave 0 and match the
/// manifest's spec fingerprint) — multi-wave batches recover in-flight via
/// the coordinator's own worker relaunch instead. A shard checkpoint that
/// is missing, damaged, mismatched or holds a blob RestoreState refuses is
/// dropped whole and that shard's slice re-run. Returns false with
/// `*error` on any validation failure; aborts nothing.
bool ResumeShardedBatch(const std::string& manifest_path,
                        const std::vector<QuerySpec>& specs,
                        std::span<const Edge> edges,
                        const ShardPlanOptions& options,
                        ShardBatchResult* result, std::string* error);

// ---------------------------------------------------------------------------
// Worker-execution toolkit
// ---------------------------------------------------------------------------
// The launch/collect/merge/finalize primitives the coordinator's own wave
// loop is built from, exported so the supervision layer
// (engine/supervisor.h) can drive the *same* workers under a richer policy
// (retry budgets, backoff, deadlines, drain) without duplicating the
// determinism-critical state handling.

/// One worker's launch parameters for a wave.
struct WorkerLaunch {
  ShardWorkerConfig config;
  std::string state_path;
};

/// Resolves the worker executable: `configured` when non-empty, else
/// /proc/self/exe (aborts if that cannot be resolved).
std::string ResolveWorkerBinary(const std::string& configured);

/// Builds the `shard-worker` argv for a subprocess launch. The worker
/// recomputes the stream and spec fingerprints itself from the files — a
/// cheap end-to-end check that both codecs round-trip.
std::vector<std::string> BuildWorkerArgv(const std::string& binary,
                                         const std::string& stream_path,
                                         const std::string& spec_path,
                                         const WorkerLaunch& launch);

/// fork/execs one worker, returning its pid. A failed exec surfaces as the
/// child exiting 127 — the caller's wait loop treats it as a dead worker.
pid_t SpawnShardWorker(const std::vector<std::string>& argv);

/// Loads + validates one worker's final state. False (with a warning) on
/// any damage or mismatch — the caller treats the worker as dead and
/// relaunches it, so a stale or torn file can delay a run but never
/// corrupt a merge.
bool CollectWorkerState(const WorkerLaunch& launch,
                        const std::vector<QuerySpec>& wave_specs,
                        ShardState* state);

/// Folds `states` (fixed order) into one merged query per spec. `base`
/// queries, when provided, seed the fold (the checkpoint-restore paths);
/// otherwise shard 0's state is the seed.
std::vector<EdgeQuery> MergeShardStates(
    const std::vector<QuerySpec>& wave_specs,
    const std::vector<ShardState>& states, std::vector<EdgeQuery> base);

/// Fills the broker-shaped outcome/stats fields for one completed wave.
/// `merged` holds one query per admitted slot, in slot order.
void FinalizeShardWave(const std::vector<std::size_t>& admitted, int wave,
                       std::size_t stream_length,
                       std::vector<EdgeQuery>& merged,
                       std::vector<QueryOutcome>& outcomes,
                       EngineStats& stats);

/// CHECKs that `specs` is non-empty, unique-named, and every kind is a
/// shard-mergeable edge kind.
void CheckShardableSpecs(const std::vector<QuerySpec>& specs);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_COORDINATOR_H_
