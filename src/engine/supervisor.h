#ifndef CYCLESTREAM_ENGINE_SUPERVISOR_H_
#define CYCLESTREAM_ENGINE_SUPERVISOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/broker.h"
#include "engine/coordinator.h"
#include "engine/query.h"
#include "util/metrics.h"

namespace cyclestream::engine {

/// The sharded wave loop (DESIGN.md §14): every sharded batch — `shard`
/// through RunShardedBatch, `serve --daemon` directly — runs here. Waves
/// come from the one admission plan (PlanWaves); each wave launches one
/// worker per shard range, collects and validates their state files, and
/// merges them in fixed shard order.
///
/// Failure-handling ladder, mildest remedy first:
///
///   1. Worker retry: a worker that dies (crash, nonzero exit, torn state
///      file) is relaunched — resuming from its own epoch checkpoint — up
///      to RetryPolicy::max_attempts times, each relaunch gated by a
///      deterministic exponential backoff.
///   2. Deadline kill: a worker that stops making progress (no new
///      heartbeat past DeadlinePolicy::shard_deadline_ms, or the wave
///      exceeding wave_deadline_ms) is SIGKILLed by the watchdog and falls
///      back to rung 1 — a hang becomes an ordinary retryable death.
///   3. Wave poisoning: a worker exhausting its attempt budget poisons the
///      wave — its queries report `poisoned` instead of an estimate, the
///      wave's reservations are released, and the daemon proceeds to the
///      next wave. The daemon itself never crashes on worker failure.
///
/// Graceful drain: SIGTERM/SIGINT (see InstallDrainHandlers) stops the
/// batch at the next epoch boundary — running workers checkpoint and exit
/// (kDrainExitCode), the daemon manifest records the in-flight wave and
/// pending admission queue, and RunSupervisedBatch returns drained=true.
/// A later resume=true run completes the batch; because shard states are
/// exact-integer and merges associative, the resumed run's deterministic
/// manifest is byte-identical to an uninterrupted run's. The same resume
/// path recovers a SIGKILLed (crashed) daemon from the same files.
///
/// Everything the supervisor counts (retries, backoff, kills, drains) is
/// execution-dependent and exported via MetricsRegistry::SetExecution —
/// never into the deterministic payload.

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

/// Per-worker retry budget + backoff shape. Backoff is deterministic:
/// min(cap, base << (attempt-1)) plus a Mix64-seeded jitter in
/// [0, base/2] keyed on (seed, wave, worker, attempt) — reproducible
/// across runs, decorrelated across workers.
struct RetryPolicy {
  /// Total launch attempts per worker per wave (first launch included).
  int max_attempts = 3;
  std::uint64_t base_backoff_ms = 50;
  std::uint64_t backoff_cap_ms = 2000;
  std::uint64_t jitter_seed = 0x51ACED;
};

/// The backoff before retry attempt `attempt` (2-based: the first retry is
/// attempt 2). Exposed for tests — determinism is the point.
std::uint64_t ComputeBackoffMs(const RetryPolicy& policy, int wave,
                               std::uint32_t worker, int attempt);

/// Liveness deadlines, enforced only for subprocess launches (an
/// in-process hang would wedge the supervisor itself; deadlines on
/// in-process runs are warned about and ignored).
struct DeadlinePolicy {
  /// Kill a worker with no heartbeat progress for this long. 0 disables.
  std::uint64_t shard_deadline_ms = 0;
  /// Kill every still-running worker when one wave round outlives this
  /// (the timer restarts after each kill round). 0 disables.
  std::uint64_t wave_deadline_ms = 0;
  /// Watchdog / reap-loop polling cadence.
  std::uint64_t poll_interval_ms = 20;
};

struct SupervisorOptions {
  /// The sharded-execution plan (workers, budget, epoch cadence,
  /// shard_dir, launch mode, kill_worker fault injection).
  ShardPlanOptions plan;
  RetryPolicy retry;
  DeadlinePolicy deadline;
  /// Worker heartbeat cadence in worker-local edges; 0 auto-selects
  /// plan.block_edges whenever a shard deadline is set.
  std::uint64_t heartbeat_edges = 0;
  /// Resume a drained/crashed batch from shard_dir's daemon manifest.
  bool resume = false;
  /// Tests: account backoff without wall-clock sleeping.
  bool sleep_in_backoff = true;
  /// Fault injection: worker `hang_worker` hangs forever after
  /// `hang_after_edges` slice-local edges on its first launch of the first
  /// wave (subprocess only — the watchdog's prey). -1 disables.
  int hang_worker = -1;
  std::uint64_t hang_after_edges = 0;
  /// Slows every worker down (ShardWorkerConfig::throttle_ms_per_block);
  /// lets drain/deadline smoke tests reliably catch a run mid-wave.
  std::uint64_t throttle_ms_per_block = 0;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Execution-dependent accounting. Exported with ExportSupervisorCounters
/// (SetExecution — excluded from deterministic manifests by construction).
struct SupervisorCounters {
  std::uint64_t workers_launched = 0;
  std::uint64_t retries = 0;           // Relaunches after a failure.
  std::uint64_t backoff_ms_total = 0;  // Sum of scheduled backoffs.
  std::uint64_t deadline_kills = 0;    // Watchdog SIGKILLs (hang + wave).
  std::uint64_t waves_poisoned = 0;
  std::uint64_t drains = 0;            // Drain requests honored.
  std::uint64_t exit_fault_sentinel = 0;  // Workers dead with exit 86.
  std::uint64_t exit_nonzero = 0;         // Other nonzero exits (incl. 127).
  std::uint64_t deaths_by_signal = 0;
  std::uint64_t states_collected = 0;  // Valid state files accepted.
  std::uint64_t waves_completed = 0;
};

struct SupervisedBatchResult {
  std::vector<QueryOutcome> outcomes;  // Slot order, like the broker's.
  EngineStats stats;
  SupervisorCounters counters;
  /// The batch stopped early on a drain request; outcomes of unfinished
  /// waves keep their pre-run admission state, and the admission fields of
  /// `stats` already describe the whole plan. Resume to finish.
  bool drained = false;
  bool resumed = false;
  /// Waves abandoned after retry exhaustion (their slots are `poisoned`).
  std::vector<int> poisoned_waves;
};

// ---------------------------------------------------------------------------
// Drain control
// ---------------------------------------------------------------------------

/// Process-wide drain latch polled by the supervisor's wave/reap loops.
/// RequestSupervisorDrain is async-signal-safe.
void RequestSupervisorDrain();
bool SupervisorDrainRequested();
void ClearSupervisorDrainRequest();

/// Installs SIGTERM/SIGINT handlers that latch BOTH drain flags (the
/// supervisor's and the in-process worker's) — one signal drains whichever
/// role this process is playing. Subprocess workers receive a forwarded
/// SIGTERM from the supervisor and run their own handler.
void InstallDrainHandlers();

// ---------------------------------------------------------------------------
// Daemon manifest (drain/crash recovery root)
// ---------------------------------------------------------------------------

/// What a resume needs to finish a supervised batch, written atomically +
/// durably to `<shard_dir>/daemon.manifest` at every wave start and
/// rewritten on drain/completion. Per-shard progress lives in worker
/// checkpoint/state files; the manifest holds the batch identity and the
/// admission frontier.
struct DaemonManifest {
  std::uint64_t stream_fingerprint = 0;
  std::uint64_t stream_length = 0;
  /// FingerprintSpecs over the FULL batch (not one wave) — resume must see
  /// the identical query list to plan admission identically.
  std::uint64_t batch_spec_fingerprint = 0;
  std::uint32_t num_workers = 1;
  std::uint64_t epoch_edges = 0;
  std::uint64_t block_edges = 0;
  std::uint64_t aggregate_words = 0;  // Admission policy (plan guard).
  std::uint64_t per_query_words = 0;
  /// Waves whose workers have been launched (== last started wave + 1).
  std::uint32_t waves_started = 0;
  std::uint8_t drained = 0;    // Stopped on a drain request.
  std::uint8_t completed = 0;  // Batch ran to the end.
  /// Admission queue at the last started wave: slots still pending AFTER
  /// that wave's admissions. Resume cross-checks the planned queue
  /// against this — a mismatch means a different batch or policy.
  std::vector<std::uint64_t> pending_slots;
};

std::string DaemonManifestPath(const std::string& shard_dir);
bool SaveDaemonManifest(const std::string& path,
                        const DaemonManifest& manifest, std::string* error);
bool LoadDaemonManifest(const std::string& path, DaemonManifest* manifest,
                        std::string* error);

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs `specs` over `edges` under supervision. Every spec must be a
/// shard-mergeable edge kind (IsShardMergeableKind; CHECKed). Admission,
/// waves, merged estimates, and stats replicate the broker exactly for
/// every wave that completes. Returns false with `*error` on resume
/// validation failure (missing/mismatched daemon manifest); programmer
/// errors CHECK.
///
/// Resume semantics (`options.resume`): every wave is re-derived from the
/// admission plan, then collected before launched — workers whose state
/// files already validate are not re-run; the rest are relaunched with
/// checkpoint resume. A fully collected wave costs no subprocess at all,
/// so resuming a drained OR crashed daemon finishes exactly the work the
/// interruption left undone and produces the identical result.
bool RunSupervisedBatch(const std::vector<QuerySpec>& specs,
                        std::span<const Edge> edges,
                        const SupervisorOptions& options,
                        SupervisedBatchResult* result, std::string* error);

/// Publishes counters as `supervisor.*` execution metrics (timings/env
/// section of the manifest — never the deterministic payload).
void ExportSupervisorCounters(const SupervisorCounters& counters,
                              RunManifest& manifest);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_SUPERVISOR_H_
