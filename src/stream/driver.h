#ifndef CYCLESTREAM_STREAM_DRIVER_H_
#define CYCLESTREAM_STREAM_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "stream/order.h"
#include "stream/space.h"

namespace cyclestream {

class StateWriter;
class StateReader;
class FaultPlan;

/// Sentinel return of AuditSpace(): the algorithm does not implement the
/// audit walk.
inline constexpr std::size_t kNoSpaceAudit = static_cast<std::size_t>(-1);

/// Interface for algorithms over edge streams (arbitrary / random order).
/// The driver calls, for each pass p in [0, NumPasses()):
///   StartPass(p); ProcessEdge(e, position) for each stream element;
///   EndPass(p).
/// Positions are 0-based and identical across passes (the stream is fixed).
class EdgeStreamAlgorithm {
 public:
  virtual ~EdgeStreamAlgorithm() = default;

  virtual int NumPasses() const = 0;
  virtual void StartPass(int pass, std::size_t stream_length) = 0;
  virtual void ProcessEdge(int pass, const Edge& e, std::size_t position) = 0;
  virtual void EndPass(int pass) = 0;

  /// Batched delivery: edges[i] is the stream element at position
  /// base_position + i. The default forwards to ProcessEdge one element at
  /// a time, so overriding is purely an optimization hook — any override
  /// must leave the algorithm in exactly the state the per-edge loop would
  /// (the block/scalar bit-identity contract; see DESIGN.md §13). The pass
  /// loop (RunPasses) delivers every edge through this entry point; with
  /// checkpoints or faults on, it cuts blocks at the snapshot and kill
  /// points, so snapshot positions stay exact to one element.
  virtual void ProcessEdgeBlock(int pass, std::span<const Edge> edges,
                                std::size_t base_position) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      ProcessEdge(pass, edges[i], base_position + i);
    }
  }

  /// Space-audit hook: recomputes the algorithm's current footprint in
  /// words by walking its *actual stored state* (containers, not
  /// counters). In audit mode the driver cross-checks this walk against
  /// the self-reported SpaceTracker after the final pass; a mismatch is an
  /// accounting bug and aborts. Algorithms keep their tracker current at
  /// end of run, so the two must agree exactly. Return kNoSpaceAudit (the
  /// default) if the walk is not implemented.
  virtual std::size_t AuditSpace() const { return kNoSpaceAudit; }

  /// The algorithm's space tracker, or nullptr if it does not track space.
  /// Used by the audit cross-check and by the metrics layer to export the
  /// peak-space component breakdown.
  virtual const SpaceTracker* space_tracker() const { return nullptr; }

  /// Checkpoint identity: a stable tag naming the algorithm and its state
  /// schema (e.g. "arb3pass/1"). Bump the suffix whenever the SaveState
  /// layout changes. Empty (the default) means the algorithm does not
  /// support checkpointing and the driver skips snapshots for it.
  virtual std::string_view CheckpointId() const { return {}; }

  /// Serializes the stream-dependent mutable state into `w`. Returns false
  /// if unsupported. State derived purely from construction parameters
  /// (hash coefficients, sign caches) is not serialized — RestoreState
  /// verifies it via config fingerprints instead.
  virtual bool SaveState(StateWriter& w) const {
    (void)w;
    return false;
  }

  /// Restores state saved by SaveState into a *freshly constructed*
  /// algorithm with identical Params. Must validate before mutating: on a
  /// fingerprint or decode mismatch it returns false leaving the algorithm
  /// untouched, so the driver can fall back to a from-scratch run.
  virtual bool RestoreState(StateReader& r) {
    (void)r;
    return false;
  }

  /// Folds another instance's stream-dependent state into this one, as if
  /// this instance had also processed every element `other` did. Only
  /// *linear* algorithms can implement it (state = a sum over stream
  /// elements, so shard-local states over a partitioned stream combine by
  /// addition into exactly the single-machine state); the shard coordinator
  /// uses it to fold worker states in fixed shard order. An override must
  /// (a) verify `other` is the same algorithm with result-identical
  /// configuration (same CheckpointId, seed, dimensions — via the same
  /// fields RestoreState fingerprints) and return false otherwise, leaving
  /// this instance untouched, and (b) be exact: for the sketches here every
  /// accumulator slot is an exact integer well under 2^53, so the fold is
  /// integer addition (int32 or double slots) — associative, and
  /// bit-identical to the unsharded run at any shard count. Default: not
  /// mergeable.
  virtual bool MergeFrom(const EdgeStreamAlgorithm& other) {
    (void)other;
    return false;
  }
};

/// Interface for algorithms over adjacency-list streams. Position is the
/// index of the adjacency list (i.e. the vertex arrival index).
class AdjacencyStreamAlgorithm {
 public:
  virtual ~AdjacencyStreamAlgorithm() = default;

  virtual int NumPasses() const = 0;
  virtual void StartPass(int pass, std::size_t num_lists) = 0;
  virtual void ProcessList(int pass, const AdjacencyList& list,
                           std::size_t position) = 0;
  virtual void EndPass(int pass) = 0;

  /// See EdgeStreamAlgorithm::AuditSpace.
  virtual std::size_t AuditSpace() const { return kNoSpaceAudit; }

  /// See EdgeStreamAlgorithm::space_tracker.
  virtual const SpaceTracker* space_tracker() const { return nullptr; }

  /// See EdgeStreamAlgorithm::CheckpointId.
  virtual std::string_view CheckpointId() const { return {}; }

  /// See EdgeStreamAlgorithm::SaveState.
  virtual bool SaveState(StateWriter& w) const {
    (void)w;
    return false;
  }

  /// See EdgeStreamAlgorithm::RestoreState.
  virtual bool RestoreState(StateReader& r) {
    (void)r;
    return false;
  }
};

/// When and where the driver writes snapshots during a run.
struct CheckpointPolicy {
  std::string directory;  // Must exist; files are `<directory>/<stem>.ckpt`.
  /// Snapshot after every k processed elements (counted across passes).
  /// 0 disables the element trigger. A snapshot is also written at each
  /// pass boundary (recorded as pass+1, position 0).
  std::uint64_t every_elements = 0;
  std::string file_stem = "run";
};

/// Per-run driver options. All pointers are borrowed and may be null.
struct RunOptions {
  const CheckpointPolicy* checkpoint = nullptr;
  FaultPlan* faults = nullptr;
  /// Path of a snapshot to restore before running. Invalid or mismatched
  /// snapshots are rejected (with a warning) and the run restarts from
  /// scratch — never a partial restore.
  std::string resume_from;
};

/// What happened during a Run*Stream call with options.
struct RunOutcome {
  bool completed = true;        // False iff a FaultPlan kill stopped the run.
  bool resumed = false;         // A snapshot was successfully restored.
  bool resume_rejected = false; // resume_from was set but rejected.
  std::string checkpoint_path;  // Last successfully written snapshot.
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_failures = 0;
};

/// Items (edges, adjacency lists or turnstile updates) per delivered block:
/// the block size of the single-algorithm Run*Stream wrappers and the
/// default of the engine's BrokerOptions::block_size. Results never depend
/// on it (the Process*Block contract).
inline constexpr std::size_t kDefaultBlockSize = 4096;

/// The one pass loop behind every Run*Stream call and every engine broker
/// wave. For each pass p < max NumPasses() over `algs`: StartPass(p) on the
/// algorithms with more than p passes (the others have dropped out), then
/// the stream in blocks of at most `block_size` items, then EndPass(p).
/// With two or more active algorithms and DefaultThreads() > 1, each block
/// fans out over a ParallelFor of min(active, threads) shards, slot s on
/// shard s mod shards; every algorithm still sees its own stream order.
/// After the final pass each algorithm is audited and credited
/// (AuditAndCreditRun).
///
/// Checkpoint, resume and fault options need exactly one algorithm (a
/// Snapshot holds one state; CHECKed). Blocks are then also cut at every
/// snapshot point and at the FaultPlan's kill point. Resume semantics: the
/// restored snapshot records (pass, position) of the first unprocessed
/// element; the loop skips StartPass for a mid-pass resume (it already ran
/// before the snapshot) and replays the stream from the recorded position.
/// A resumed run that completes is bit-identical to an uninterrupted run of
/// a freshly constructed algorithm with the same Params over the same
/// stream.
RunOutcome RunPasses(std::span<EdgeStreamAlgorithm* const> algs,
                     std::span<const Edge> stream, std::size_t block_size,
                     const RunOptions& options = {});
RunOutcome RunPasses(std::span<AdjacencyStreamAlgorithm* const> algs,
                     std::span<const AdjacencyList> stream,
                     std::size_t block_size, const RunOptions& options = {});

/// Runs all passes of `alg` over `stream` (RunPasses with one algorithm and
/// kDefaultBlockSize, checkpointed per the process-wide configuration).
void RunEdgeStream(EdgeStreamAlgorithm& alg, const EdgeStream& stream);

/// Runs all passes of `alg` over the adjacency stream.
void RunAdjacencyStream(AdjacencyStreamAlgorithm& alg,
                        const AdjacencyStream& stream);

/// As above, with checkpoint/resume/fault-injection control (RunPasses'
/// resume semantics).
RunOutcome RunEdgeStream(EdgeStreamAlgorithm& alg, const EdgeStream& stream,
                         const RunOptions& options);
RunOutcome RunAdjacencyStream(AdjacencyStreamAlgorithm& alg,
                              const AdjacencyStream& stream,
                              const RunOptions& options);

/// Process-wide checkpoint configuration consumed by the plain (void)
/// Run*Stream overloads, letting experiment binaries checkpoint every
/// embedded run without plumbing RunOptions through the trial helpers.
/// When active, the Nth Run*Stream call of the process (a deterministic
/// index at --threads=1, which the experiment drivers enforce) snapshots to
/// `<directory>/run-<N>.ckpt` and, when `resume` is set, restores from
/// that file if present. `kill_after` > 0 terminates the process with
/// _Exit(kKilledExitCode) once that many elements have been processed
/// across all runs — the crash half of the crash/resume tests. Each run
/// gets the remaining count as a FaultPlan kill point. Engine broker waves
/// (several algorithms) do not read this configuration.
struct GlobalCheckpointOptions {
  std::string directory;
  std::uint64_t every_elements = 0;
  bool resume = false;
  std::uint64_t kill_after = 0;
};

/// Exit code of a kill_after-terminated process.
inline constexpr int kKilledExitCode = 86;

/// Installs (or, with an empty directory, clears) the process-wide
/// checkpoint configuration. Call once at startup, like SetSpaceAudit.
void SetGlobalCheckpoint(const GlobalCheckpointOptions& options);

class FlagParser;

/// Reads the robustness flags (--checkpoint_dir, --checkpoint_every,
/// --resume, --kill_after) and installs the process-wide checkpoint
/// configuration. Snapshot files are named by the order in which Run*Stream
/// calls start, so the run sequence must be deterministic: when
/// checkpointing is active the process is forced to serial execution and
/// `*threads` is rewritten to 1. Creates the checkpoint directory if
/// missing. Returns true when checkpointing is active for this process.
/// Called by `cyclestream_cli count` and the experiment binaries, whose
/// runs all go through the single-algorithm Run*Stream wrappers.
bool ApplyCheckpointFlags(FlagParser& flags, int* threads);

/// Enables the space audit: after the final pass of every run, the pass
/// loop cross-checks AuditSpace() against the algorithm's SpaceTracker
/// and aborts on any mismatch. The walk is O(state), so this is meant for
/// Debug / CI smoke runs (`--audit` on the experiment binaries), not
/// benchmarking. Also enabled by the environment variable
/// CYCLESTREAM_AUDIT_SPACE=1. Set once at startup, like SetDefaultThreads.
void SetSpaceAudit(bool enabled);

/// Whether the space audit is active (flag or environment).
bool SpaceAuditEnabled();

/// Process-wide driver counters, aggregated across every RunPasses call
/// (and every merged shard query) on any thread. Totals are sums of
/// per-run values, so they are deterministic at any thread count (per the
/// util/parallel.h contract the set of runs is scheduling-independent);
/// only the timing fields are wall-clock and excluded from deterministic
/// manifest comparisons.
struct StreamStats {
  std::uint64_t runs = 0;             // Completed algorithm runs.
  std::uint64_t passes = 0;           // Passes executed.
  std::uint64_t edges_processed = 0;  // Edges delivered.
  std::uint64_t lists_processed = 0;  // ProcessList calls.
  std::uint64_t updates_processed = 0;  // Turnstile updates delivered.
  std::uint64_t audits_passed = 0;    // Successful audit cross-checks.
  // Checkpoint/restore counters. Execution-dependent (they differ between a
  // killed+resumed process pair and an uninterrupted one), so the manifest
  // exports them outside the deterministic section.
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t restores = 0;         // Snapshots successfully restored.
  std::uint64_t restore_rejects = 0;  // Snapshots rejected on validation.
  double pass_seconds[4] = {0, 0, 0, 0};  // Wall time by pass index (3+ folded
                                          // into the last slot). Not
                                          // deterministic.
};

/// Snapshot of the process-wide counters.
StreamStats GlobalStreamStats();

/// Zeroes the process-wide counters (tests; experiment startup).
void ResetStreamStats();

/// The end of one completed run of `alg` over `stream_length` items per
/// pass: the space audit (when enabled; a mismatch aborts) and the credit
/// of one run, NumPasses() passes and NumPasses() × stream_length edges to
/// GlobalStreamStats(). RunPasses calls it for every algorithm it
/// finishes; the shard coordinator calls it for each merged query, whose
/// state is the single-process end-of-run state.
void AuditAndCreditRun(const EdgeStreamAlgorithm& alg,
                       std::size_t stream_length);

}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_DRIVER_H_
