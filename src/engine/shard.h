#ifndef CYCLESTREAM_ENGINE_SHARD_H_
#define CYCLESTREAM_ENGINE_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/query.h"
#include "graph/types.h"
#include "util/frame.h"

namespace cyclestream::engine {

/// Shard-side half of the multi-process engine (DESIGN.md §14): the frame
/// protocol worker states travel over, the contiguous stream partitioner,
/// and the worker loop itself. The coordinator half lives in
/// engine/coordinator.h and engine/supervisor.h.
///
/// A worker's output — and its epoch checkpoints — are sequences of CYSF
/// frames, framed blobs (util/frame.h, DESIGN.md §16) tagged with a
/// FrameType:
///
///   frame := magic "CYSF" | type(u32) | payload_size(u64) |
///            crc32(payload)(u32) | payload
///
/// A state file is exactly: one kHeader frame (who produced it, over which
/// slice of which stream, how far it got), one kQueryState frame per query
/// in spec order (name + SaveState blob), one kFooter frame (query count
/// again — a truncation tripwire). Every field is validated on load and
/// every payload is CRC-guarded; a file failing any check is rejected
/// whole — the coordinator never merges a partial or damaged state.

// ---------------------------------------------------------------------------
// Frame protocol
// ---------------------------------------------------------------------------

enum class FrameType : std::uint32_t {
  kHeader = 1,
  kQueryState = 2,
  kFooter = 3,
  /// Liveness beacon appended by a running worker (heartbeat file, not a
  /// state file): worker_id + edges_done + sequence number. The
  /// supervisor's watchdog reads the last valid one to decide whether a
  /// subprocess is making progress or has hung past its deadline.
  kHeartbeat = 4,
};

/// The CYSF family: every frame of a state file, manifest or heartbeat log.
inline constexpr FrameFormat kFrameFormat = {
    "CYSF", "frame", "type", static_cast<std::uint32_t>(FrameType::kHeader),
    static_cast<std::uint32_t>(FrameType::kHeartbeat)};

/// Appends one framed payload to `out`.
void AppendFrame(std::string* out, FrameType type, std::string_view payload);

/// Reads the frame starting at `data.substr(*pos)`. On success stores the
/// type and payload (a view into `data`), advances `*pos` past the frame,
/// and returns true. On any malformation (truncation, bad magic, CRC
/// mismatch) returns false with `*error` set; `*pos` is unspecified.
bool ReadFrame(std::string_view data, std::size_t* pos, FrameType* type,
               std::string_view* payload, std::string* error);

// ---------------------------------------------------------------------------
// Stream partitioning
// ---------------------------------------------------------------------------

/// A contiguous half-open slice [begin, end) of stream positions.
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const { return end - begin; }
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// Splits [0, stream_length) into `num_workers` contiguous ranges in shard
/// order: shard i gets length/W edges, the first length%W shards one extra.
/// Deterministic and exhaustive (ranges abut and cover the stream exactly);
/// when W exceeds the edge count the tail shards are empty ranges, which
/// workers and the merge handle as the identity.
std::vector<ShardRange> PartitionStream(std::uint64_t stream_length,
                                        int num_workers);

/// Total edges across `ranges`.
std::uint64_t TotalRangeEdges(const std::vector<ShardRange>& ranges);

/// The ranges left after a worker has processed its first `edges_done`
/// edges (ranges are consumed as one flat sequence): what a worker that
/// resumes from its checkpoint still has to stream.
std::vector<ShardRange> AdvanceRanges(const std::vector<ShardRange>& ranges,
                                      std::uint64_t edges_done);

// ---------------------------------------------------------------------------
// Shard state files (worker output + per-shard epoch checkpoints)
// ---------------------------------------------------------------------------

/// Header frame contents: identity + provenance of a shard state.
struct ShardHeader {
  std::uint32_t worker_id = 0;
  std::uint32_t num_workers = 1;
  /// Fingerprint/length of the *whole* stream (not the slice) — shard
  /// states are only mergeable when every worker saw slices of the same
  /// stream.
  std::uint64_t stream_fingerprint = 0;
  std::uint64_t stream_length = 0;
  /// FingerprintSpecs of the query set the worker ran, in order.
  std::uint64_t spec_fingerprint = 0;
  /// Progress through the flattened ranges: == TotalRangeEdges(ranges) in a
  /// final state, less in an epoch checkpoint.
  std::uint64_t edges_done = 0;
  /// Completed epochs (edges_done / epoch_edges for checkpoints; informative
  /// only in final states).
  std::uint64_t epoch = 0;
  std::vector<ShardRange> ranges;

  friend bool operator==(const ShardHeader&, const ShardHeader&) = default;
};

/// A decoded shard state file: header + (name, SaveState blob) per query in
/// spec order.
struct ShardState {
  ShardHeader header;
  std::vector<std::pair<std::string, std::string>> query_states;
};

/// Encodes to the frame sequence described above.
std::string EncodeShardState(const ShardState& state);

/// Strict decode: header/state/footer frame sequence, CRC per frame, footer
/// count must match, no trailing bytes. Returns false with `*error` set on
/// any damage; `*state` is untouched in that case.
bool DecodeShardState(std::string_view encoded, ShardState* state,
                      std::string* error);

/// Atomic write (tmp + rename, like SaveSnapshot): a crash mid-write never
/// leaves a torn file where a previous good checkpoint was.
bool SaveShardState(const std::string& path, const ShardState& state,
                    std::string* error);

/// Loads and strictly decodes. False with `*error` set if missing,
/// unreadable, or malformed.
bool LoadShardState(const std::string& path, ShardState* state,
                    std::string* error);

/// Restores each (name, blob) of `state` into a fresh instance of the
/// matching spec. All or nothing: if the names disagree with `specs` or
/// any RestoreState refuses its blob (a NaN slot behind a valid CRC),
/// returns false with `*why` set and leaves `*queries` untouched, so a
/// damaged checkpoint is never half-restored or half-merged.
bool RestoreShardQueries(const std::vector<QuerySpec>& specs,
                         const ShardState& state,
                         std::vector<EdgeQuery>* queries, std::string* why);

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

/// One liveness beacon. `seq` increments per beacon within one launch;
/// progress is any change in (edges_done, seq) — a relaunched worker
/// restarts seq, which still reads as progress.
struct HeartbeatRecord {
  std::uint32_t worker_id = 0;
  std::uint64_t edges_done = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const HeartbeatRecord&,
                         const HeartbeatRecord&) = default;
};

/// Appends one CRC-framed kHeartbeat record to `path` (O_APPEND,
/// EINTR-safe, best-effort — a failed beacon is logged, never fatal).
/// Returns false on I/O failure.
bool AppendHeartbeat(const std::string& path, const HeartbeatRecord& record);

/// Reads the last fully valid heartbeat frame in `path`. A torn tail (the
/// worker was killed mid-append) is tolerated: frames before the damage
/// still count. False if the file is missing or holds no valid heartbeat.
bool ReadLastHeartbeat(const std::string& path, HeartbeatRecord* record);

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

/// No fault injected.
inline constexpr std::uint64_t kNoDeath = ~std::uint64_t{0};

/// Exit code of a worker that stopped at an epoch boundary because drain
/// was requested (checkpoint written, no final state). Distinct from the
/// fault-injection sentinel kKilledExitCode (86, stream/driver.h).
inline constexpr int kDrainExitCode = 85;

/// Process-wide drain request consumed by RunShardWorker: when set, the
/// worker checkpoints at the next epoch boundary (immediately at the next
/// block boundary if checkpoints are off) and returns with drained=true.
/// RequestWorkerDrain is async-signal-safe — the CLI's SIGTERM/SIGINT
/// handler calls it directly.
void RequestWorkerDrain();
bool WorkerDrainRequested();
void ClearWorkerDrainRequest();  // Tests and post-drain resume paths.

/// Installs SIG_IGN for SIGPIPE once per process. Called by every
/// coordinator/supervisor/worker entry point: a worker whose parent died
/// must fail through its exit status, not die silently mid-write.
void IgnoreSigpipe();

/// Human-readable waitpid() status: distinguishes a normal exit, a nonzero
/// exit, the exit-86 fault-injection sentinel, the exit-85 drain
/// acknowledgement, and death by signal (with the signal name).
std::string DescribeWaitStatus(int status);

/// One worker's marching orders. Shared by the in-process launch (tests)
/// and the `shard-worker` CLI subcommand (subprocess launch) so both run
/// literally the same loop.
struct ShardWorkerConfig {
  /// The wave's admitted queries, in slot order. Every kind must satisfy
  /// IsShardMergeableKind (CHECKed): merge correctness rests on state
  /// linearity.
  std::vector<QuerySpec> specs;
  /// The whole stream; the worker touches only its ranges but needs global
  /// positions and the full length (StartPass contract).
  std::span<const Edge> edges;
  std::vector<ShardRange> ranges;
  std::uint32_t worker_id = 0;
  std::uint32_t num_workers = 1;
  /// Precomputed FingerprintEdgeStream(edges) — computed once by the
  /// coordinator, not per worker.
  std::uint64_t stream_fingerprint = 0;
  std::uint64_t spec_fingerprint = 0;
  /// Edges per block handed to ProcessEdgeBlock (bit-identity contract:
  /// results never depend on blocking).
  std::size_t block_edges = 4096;
  /// Checkpoint cadence in worker-local edges; 0 disables checkpoints.
  std::uint64_t epoch_edges = 0;
  /// Where epoch checkpoints go ("" = none even if epoch_edges > 0).
  std::string checkpoint_path;
  /// Resume from checkpoint_path if it holds a valid matching checkpoint;
  /// an invalid/missing one falls back to a from-scratch run (warned),
  /// mirroring the driver's never-partial-restore rule.
  bool resume = false;
  /// Fault injection: stop (reporting completed=false) after processing
  /// this many worker-local edges — epoch checkpoints up to that point are
  /// still written, so a multiple of epoch_edges kills at a boundary and
  /// anything else kills mid-epoch. kNoDeath disables.
  std::uint64_t die_after_edges = kNoDeath;
  /// Fault injection: hang forever (stop processing, stop heartbeating,
  /// never exit) after this many worker-local edges — the supervisor's
  /// deadline/watchdog prey. Only meaningful for subprocess workers; an
  /// in-process hang would wedge the caller. kNoDeath disables.
  std::uint64_t hang_after_edges = kNoDeath;
  /// Heartbeat cadence in worker-local edges; 0 disables. Beacons are
  /// appended to `heartbeat_path` (one at launch, then every cadence).
  std::uint64_t heartbeat_edges = 0;
  std::string heartbeat_path;
  /// Test/demo throttle: sleep this long after each processed block.
  /// Slows the worker without changing any result (drain/deadline smoke
  /// tests need a worker that is reliably mid-wave when the signal lands).
  std::uint64_t throttle_ms_per_block = 0;
};

struct ShardWorkerOutcome {
  bool completed = false;     // False iff a fault or drain stopped the run.
  bool resumed = false;       // A checkpoint was restored.
  bool drained = false;       // Stopped at an epoch boundary on drain
                              // request (checkpoint written if enabled).
  std::uint64_t edges_done = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t heartbeats_written = 0;
};

/// Runs the worker loop: construct (or restore) the queries, stream the
/// ranges through them in blocks, checkpoint each epoch, and — on
/// completion — EndPass and write the final state to `state_out_path`.
/// Aborts (CHECK) on programmer errors: non-mergeable kinds, ranges out of
/// bounds. I/O failures surface through `*error` with completed=false.
ShardWorkerOutcome RunShardWorker(const ShardWorkerConfig& config,
                                  const std::string& state_out_path,
                                  std::string* error);

/// Formats ranges as "begin:end[,begin:end...]" for the worker command
/// line; ParseShardRanges inverts it (strict — false on any malformation).
std::string FormatShardRanges(const std::vector<ShardRange>& ranges);
bool ParseShardRanges(std::string_view text, std::vector<ShardRange>* ranges);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_SHARD_H_
