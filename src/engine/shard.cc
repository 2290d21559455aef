#include "engine/shard.h"

#include <signal.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "stream/driver.h"
#include "util/check.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

// Process-wide drain flag. sig_atomic_t + volatile: written from signal
// handlers (RequestWorkerDrain is async-signal-safe), read in the worker
// loop at block/epoch granularity.
volatile std::sig_atomic_t g_drain_requested = 0;

void SleepMs(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

void RequestWorkerDrain() { g_drain_requested = 1; }
bool WorkerDrainRequested() { return g_drain_requested != 0; }
void ClearWorkerDrainRequest() { g_drain_requested = 0; }

void IgnoreSigpipe() {
  // A worker writing its state file while the coordinator is gone — or the
  // coordinator logging to a closed pipe — must surface as an error code,
  // not a silent SIGPIPE death that the supervisor then misclassifies.
  static const bool installed = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

std::string DescribeWaitStatus(int status) {
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    std::string out = "exited " + std::to_string(code);
    if (code == kKilledExitCode) out += " (fault-injection kill sentinel)";
    if (code == kDrainExitCode) out += " (drain acknowledged)";
    if (code == 127) out += " (exec failed)";
    return out;
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    std::string out = "killed by signal " + std::to_string(sig);
    if (name != nullptr) out += std::string(" (") + name + ")";
    return out;
  }
  return "unrecognized wait status " + std::to_string(status);
}

void AppendFrame(std::string* out, FrameType type, std::string_view payload) {
  AppendFrameParts(out, kFrameFormat, static_cast<std::uint32_t>(type),
                   {payload});
}

bool ReadFrame(std::string_view data, std::size_t* pos, FrameType* type,
               std::string_view* payload, std::string* error) {
  std::uint32_t tag = 0;
  if (!ParseFrame(kFrameFormat, data, pos, &tag, payload, error)) return false;
  *type = static_cast<FrameType>(tag);
  return true;
}

std::vector<ShardRange> PartitionStream(std::uint64_t stream_length,
                                        int num_workers) {
  CHECK_GT(num_workers, 0);
  const auto w = static_cast<std::uint64_t>(num_workers);
  const std::uint64_t base = stream_length / w;
  const std::uint64_t extra = stream_length % w;
  std::vector<ShardRange> ranges(static_cast<std::size_t>(w));
  std::uint64_t begin = 0;
  for (std::uint64_t i = 0; i < w; ++i) {
    const std::uint64_t len = base + (i < extra ? 1 : 0);
    ranges[static_cast<std::size_t>(i)] = {begin, begin + len};
    begin += len;
  }
  CHECK_EQ(begin, stream_length);
  return ranges;
}

std::uint64_t TotalRangeEdges(const std::vector<ShardRange>& ranges) {
  std::uint64_t total = 0;
  for (const ShardRange& r : ranges) {
    CHECK_LE(r.begin, r.end);
    total += r.size();
  }
  return total;
}

std::string EncodeShardState(const ShardState& state) {
  StateWriter h;
  h.U32(state.header.worker_id);
  h.U32(state.header.num_workers);
  h.U64(state.header.stream_fingerprint);
  h.U64(state.header.stream_length);
  h.U64(state.header.spec_fingerprint);
  h.U64(state.header.edges_done);
  h.U64(state.header.epoch);
  h.Size(state.header.ranges.size());
  for (const ShardRange& r : state.header.ranges) {
    h.U64(r.begin);
    h.U64(r.end);
  }
  h.Size(state.query_states.size());
  StateWriter f;
  f.Size(state.query_states.size());
  // Size `out` once: each query frame's payload is Str(name) then
  // Str(blob), and the blobs dominate.
  const std::size_t frame_header = kFrameFormat.header_size();
  std::size_t total = 2 * frame_header + h.str().size() + f.str().size();
  for (const auto& [name, blob] : state.query_states) {
    total += frame_header + 8 + name.size() + 8 + blob.size();
  }
  std::string out;
  out.reserve(total);
  AppendFrame(&out, FrameType::kHeader, h.str());
  for (const auto& [name, blob] : state.query_states) {
    StateWriter q;
    q.Str(name);
    q.Size(blob.size());
    AppendFrameParts(&out, kFrameFormat,
                     static_cast<std::uint32_t>(FrameType::kQueryState),
                     {q.str(), blob});
  }
  AppendFrame(&out, FrameType::kFooter, f.str());
  return out;
}

bool DecodeShardState(std::string_view encoded, ShardState* state,
                      std::string* error) {
  FrameCursor cursor(kFrameFormat, encoded, "shard state", error);
  std::string_view payload;
  if (!cursor.Expect(FrameType::kHeader, &payload)) return false;
  ShardState out;
  StateReader r(payload);
  out.header.worker_id = r.U32();
  out.header.num_workers = r.U32();
  out.header.stream_fingerprint = r.U64();
  out.header.stream_length = r.U64();
  out.header.spec_fingerprint = r.U64();
  out.header.edges_done = r.U64();
  out.header.epoch = r.U64();
  const std::size_t num_ranges = r.Size();
  if (!r.ok() || num_ranges > r.Remaining() / 16 + 1) {
    return cursor.Fail("header malformed (range count)");
  }
  out.header.ranges.reserve(num_ranges);
  for (std::size_t i = 0; i < num_ranges; ++i) {
    ShardRange range;
    range.begin = r.U64();
    range.end = r.U64();
    if (range.begin > range.end) {
      return cursor.Fail("header malformed (inverted range)");
    }
    out.header.ranges.push_back(range);
  }
  const std::size_t num_queries = r.Size();
  if (!r.AtEnd()) return cursor.Fail("header malformed (trailing bytes)");
  for (std::size_t i = 0; i < num_queries; ++i) {
    if (!cursor.Expect(FrameType::kQueryState, &payload)) return false;
    StateReader q(payload);
    std::string name = q.Str();
    std::string blob = q.Str();
    if (!q.AtEnd()) {
      return cursor.Fail("query-state frame malformed (trailing bytes)");
    }
    out.query_states.emplace_back(std::move(name), std::move(blob));
  }
  if (!cursor.Expect(FrameType::kFooter, &payload)) return false;
  StateReader f(payload);
  if (f.Size() != out.query_states.size() || !f.AtEnd()) {
    return cursor.Fail("footer count disagrees with the query-state frames "
                       "(truncated or spliced file)");
  }
  if (!cursor.Finish()) return false;
  *state = std::move(out);
  return true;
}

bool SaveShardState(const std::string& path, const ShardState& state,
                    std::string* error) {
  // Durable atomic write (util/io.h): EINTR-safe, file fsynced before the
  // rename, parent directory fsynced after — a crash right after the
  // rename cannot lose a checkpoint the supervisor is counting on.
  return io::WriteFileAtomic(path, EncodeShardState(state), error);
}

bool LoadShardState(const std::string& path, ShardState* state,
                    std::string* error) {
  std::string encoded;
  if (!io::ReadFileToString(path, &encoded, error)) return false;
  return DecodeShardState(encoded, state, error);
}

bool RestoreQueryStates(const std::vector<QuerySpec>& specs,
                        const ShardState& state,
                        std::vector<EdgeQuery>* queries, std::string* why) {
  if (state.query_states.size() != specs.size()) {
    *why = "query count does not match the spec count";
    return false;
  }
  for (std::size_t i = queries->size(); i < specs.size(); ++i) {
    queries->push_back(MakeEdgeQuery(specs[i]));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (state.query_states[i].first != specs[i].name) {
      *why = "query order does not match the spec order";
      return false;
    }
    StateReader r(state.query_states[i].second);
    if (!(*queries)[i].algorithm->RestoreState(r) || !r.AtEnd()) {
      *why = "state blob rejected for query '" + specs[i].name + "'";
      return false;
    }
  }
  return true;
}

bool RestoreShardQueries(const std::vector<QuerySpec>& specs,
                         const ShardState& state,
                         std::vector<EdgeQuery>* queries, std::string* why) {
  // Restore into fresh instances first so a blob that fails validation
  // midway never leaves the caller half-restored.
  std::vector<EdgeQuery> restored;
  if (!RestoreQueryStates(specs, state, &restored, why)) return false;
  *queries = std::move(restored);
  return true;
}

bool AppendHeartbeat(const std::string& path, const HeartbeatRecord& record) {
  StateWriter w;
  w.U32(record.worker_id);
  w.U64(record.edges_done);
  w.U64(record.seq);
  std::string frame;
  AppendFrame(&frame, FrameType::kHeartbeat, w.str());
  std::string error;
  if (!io::AppendToFile(path, frame, &error)) {
    LOG(WARNING) << "heartbeat append failed: " << error;
    return false;
  }
  return true;
}

bool ReadLastHeartbeat(const std::string& path, HeartbeatRecord* record) {
  std::string data;
  if (!io::ReadFileToString(path, &data, nullptr)) return false;
  bool found = false;
  HeartbeatRecord last;
  FrameCursor cursor(kFrameFormat, data, "heartbeat log", nullptr);
  std::uint32_t tag = 0;
  std::string_view payload;
  // Walk frames until the end or the first damage; a torn tail (killed
  // mid-append) invalidates only the beacons after the damage.
  while (!cursor.AtEnd() && cursor.Next(&tag, &payload)) {
    if (tag != static_cast<std::uint32_t>(FrameType::kHeartbeat)) continue;
    StateReader r(payload);
    HeartbeatRecord hb;
    hb.worker_id = r.U32();
    hb.edges_done = r.U64();
    hb.seq = r.U64();
    if (!r.AtEnd()) continue;
    last = hb;
    found = true;
  }
  if (found && record != nullptr) *record = last;
  return found;
}

namespace {

// Serializes the live query states into (name, blob) pairs, spec order.
std::vector<std::pair<std::string, std::string>> CollectQueryStates(
    const std::vector<QuerySpec>& specs, std::vector<EdgeQuery>& queries) {
  std::vector<std::pair<std::string, std::string>> states;
  states.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    StateWriter w;
    CHECK(queries[i].algorithm->SaveState(w))
        << "mergeable query '" << specs[i].name
        << "' must support SaveState";
    states.emplace_back(specs[i].name, w.Take());
  }
  return states;
}

// Validates that a checkpoint belongs to exactly this worker configuration
// and restores every query's state. Returns false (queries untouched — the
// caller rebuilds them) on any mismatch.
bool TryRestoreCheckpoint(const ShardWorkerConfig& config,
                          const ShardState& ckpt,
                          std::vector<EdgeQuery>& queries,
                          std::uint64_t total_edges, std::string* why) {
  const ShardHeader& h = ckpt.header;
  if (h.worker_id != config.worker_id ||
      h.num_workers != config.num_workers ||
      h.stream_fingerprint != config.stream_fingerprint ||
      h.stream_length != config.edges.size() ||
      h.spec_fingerprint != config.spec_fingerprint ||
      h.ranges != config.ranges || h.edges_done > total_edges) {
    *why = "checkpoint header does not match this worker configuration";
    return false;
  }
  return RestoreShardQueries(config.specs, ckpt, &queries, why);
}

}  // namespace

ShardWorkerOutcome RunShardWorker(const ShardWorkerConfig& config,
                                  const std::string& state_out_path,
                                  std::string* error) {
  ShardWorkerOutcome out;
  const std::uint64_t total = TotalRangeEdges(config.ranges);
  const std::size_t stream_length = config.edges.size();
  for (const ShardRange& r : config.ranges) {
    CHECK_LE(r.end, stream_length) << "shard range exceeds the stream";
  }

  std::vector<EdgeQuery> queries;
  queries.reserve(config.specs.size());
  for (const QuerySpec& spec : config.specs) {
    CHECK(IsEdgeKind(spec.kind) && IsShardMergeableKind(spec.kind))
        << "shard worker given non-mergeable kind "
        << QueryKindName(spec.kind) << " (query '" << spec.name << "')";
    EdgeQuery q = MakeEdgeQuery(spec);
    // The worker runs exactly one pass over its slice; a multi-pass
    // algorithm could not be merged from partial streams.
    CHECK_EQ(q.algorithm->NumPasses(), 1);
    queries.push_back(std::move(q));
  }

  std::uint64_t done = 0;
  if (config.resume && !config.checkpoint_path.empty()) {
    ShardState ckpt;
    std::string why;
    if (!LoadShardState(config.checkpoint_path, &ckpt, &why)) {
      LOG(WARNING) << "worker " << config.worker_id
                   << ": no usable checkpoint (" << why
                   << "); starting from scratch";
    } else if (!TryRestoreCheckpoint(config, ckpt, queries, total, &why)) {
      LOG(WARNING) << "worker " << config.worker_id
                   << ": checkpoint rejected (" << why
                   << "); starting from scratch";
    } else {
      done = ckpt.header.edges_done;
      out.resumed = true;
    }
  }
  if (!out.resumed) {
    // A resumed worker skips StartPass — it already ran before the
    // checkpoint (no-op for the mergeable kinds, but the contract is the
    // driver's).
    for (EdgeQuery& q : queries) q.algorithm->StartPass(0, stream_length);
  }

  const std::uint64_t epoch = config.epoch_edges;
  const bool checkpoints = epoch > 0 && !config.checkpoint_path.empty();
  std::uint64_t next_ckpt =
      checkpoints ? (done / epoch + 1) * epoch : kNoDeath;
  const std::uint64_t die_at = config.die_after_edges;
  const std::uint64_t hang_at = config.hang_after_edges;

  const bool heartbeats =
      config.heartbeat_edges > 0 && !config.heartbeat_path.empty();
  std::uint64_t hb_seq = 0;
  std::uint64_t next_hb = 0;
  auto beat = [&]() {
    if (!heartbeats) return;
    if (AppendHeartbeat(config.heartbeat_path,
                        {config.worker_id, done, hb_seq})) {
      ++out.heartbeats_written;
    }
    ++hb_seq;
    next_hb = done + config.heartbeat_edges;
  };
  beat();  // Launch beacon: the watchdog sees liveness before edge 1.

  auto write_checkpoint = [&]() -> bool {
    ShardState state;
    state.header.worker_id = config.worker_id;
    state.header.num_workers = config.num_workers;
    state.header.stream_fingerprint = config.stream_fingerprint;
    state.header.stream_length = stream_length;
    state.header.spec_fingerprint = config.spec_fingerprint;
    state.header.edges_done = done;
    state.header.epoch = epoch > 0 ? done / epoch : 0;
    state.header.ranges = config.ranges;
    state.query_states = CollectQueryStates(config.specs, queries);
    std::string why;
    if (!SaveShardState(config.checkpoint_path, state, &why)) {
      LOG(WARNING) << "worker " << config.worker_id
                   << ": checkpoint write failed (" << why << ")";
      return false;
    }
    ++out.checkpoints_written;
    return true;
  };

  std::uint64_t local_base = 0;  // Worker-local index of the range's start.
  for (const ShardRange& range : config.ranges) {
    const std::uint64_t r_size = range.size();
    // Resume support: skip the part of this range already processed.
    std::uint64_t offset = 0;
    if (done > local_base) offset = std::min(done - local_base, r_size);
    while (offset < r_size) {
      if (die_at != kNoDeath && done == die_at) {
        out.edges_done = done;
        return out;  // completed stays false: the injected kill fired.
      }
      if (hang_at != kNoDeath && done == hang_at) {
        // Injected hang: stop progressing AND stop heartbeating — the
        // shape of a wedged subprocess the watchdog must kill.
        for (;;) SleepMs(1000);
      }
      std::uint64_t n =
          std::min<std::uint64_t>(config.block_edges, r_size - offset);
      n = std::min(n, next_ckpt - done);
      if (die_at != kNoDeath && die_at > done) n = std::min(n, die_at - done);
      if (hang_at != kNoDeath && hang_at > done) {
        n = std::min(n, hang_at - done);
      }
      const std::size_t global = static_cast<std::size_t>(range.begin + offset);
      const std::span<const Edge> block =
          config.edges.subspan(global, static_cast<std::size_t>(n));
      // Each query sees the block at its stream positions, as in a
      // standalone run.
      for (EdgeQuery& q : queries) {
        q.algorithm->ProcessEdgeBlock(0, block, global);
      }
      offset += n;
      done += n;
      if (config.throttle_ms_per_block > 0) {
        SleepMs(config.throttle_ms_per_block);
      }
      if (heartbeats && done >= next_hb) beat();
      if (done == next_ckpt) {
        write_checkpoint();
        next_ckpt += epoch;
        if (WorkerDrainRequested()) {
          // Drain lands exactly at an epoch boundary: the checkpoint just
          // written is the resume point; no final state is produced.
          out.drained = true;
          out.edges_done = done;
          return out;
        }
      } else if (!checkpoints && WorkerDrainRequested()) {
        // No checkpoint cadence to align with: stop at the block boundary.
        // Progress is lost, but the resumed wave re-runs deterministically.
        out.drained = true;
        out.edges_done = done;
        return out;
      }
    }
    local_base += r_size;
  }
  if (die_at != kNoDeath && done == die_at && die_at == total) {
    // Killed after the final edge but before finalize/save.
    out.edges_done = done;
    return out;
  }
  CHECK_EQ(done, total);

  for (EdgeQuery& q : queries) q.algorithm->EndPass(0);

  ShardState final_state;
  final_state.header.worker_id = config.worker_id;
  final_state.header.num_workers = config.num_workers;
  final_state.header.stream_fingerprint = config.stream_fingerprint;
  final_state.header.stream_length = stream_length;
  final_state.header.spec_fingerprint = config.spec_fingerprint;
  final_state.header.edges_done = total;
  final_state.header.epoch = epoch > 0 ? total / epoch : 0;
  final_state.header.ranges = config.ranges;
  final_state.query_states = CollectQueryStates(config.specs, queries);
  if (!SaveShardState(state_out_path, final_state, error)) {
    out.edges_done = done;
    return out;
  }
  out.completed = true;
  out.edges_done = done;
  return out;
}

std::string FormatShardRanges(const std::vector<ShardRange>& ranges) {
  std::string out;
  for (const ShardRange& r : ranges) {
    if (!out.empty()) out += ",";
    out += std::to_string(r.begin) + ":" + std::to_string(r.end);
  }
  return out;
}

bool ParseShardRanges(std::string_view text, std::vector<ShardRange>* ranges) {
  std::vector<ShardRange> parsed;
  std::size_t pos = 0;
  auto parse_u64 = [&](char terminator, std::uint64_t* value) {
    const char* begin = text.data() + pos;
    if (pos >= text.size() || *begin < '0' || *begin > '9') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(begin, &end, 10);
    if (errno == ERANGE || end == begin) return false;
    pos = static_cast<std::size_t>(end - text.data());
    if (terminator == '\0') {
      if (pos != text.size() && text[pos] != ',') return false;
    } else {
      if (pos >= text.size() || text[pos] != terminator) return false;
      ++pos;
    }
    *value = static_cast<std::uint64_t>(v);
    return true;
  };
  while (pos < text.size()) {
    ShardRange r;
    if (!parse_u64(':', &r.begin) || !parse_u64('\0', &r.end) ||
        r.begin > r.end) {
      return false;
    }
    parsed.push_back(r);
    if (pos < text.size()) {
      ++pos;  // Skip the comma.
      if (pos == text.size()) return false;  // Trailing comma.
    }
  }
  if (parsed.empty()) return false;
  *ranges = std::move(parsed);
  return true;
}

}  // namespace cyclestream::engine
