#include "stream/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "stream/checkpoint.h"
#include "stream/dynamic/turnstile.h"
#include "stream/fault.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace cyclestream {
namespace {

// Audit flag: set once at startup (SetSpaceAudit / environment), read from
// every worker thread. Relaxed atomics keep TSan quiet without cost.
std::atomic<bool> g_audit_enabled{false};

bool AuditFromEnv() {
  const char* env = std::getenv("CYCLESTREAM_AUDIT_SPACE");
  return env != nullptr && env[0] == '1';
}

// Process-wide counters. Each field is a sum of per-run contributions, so
// the totals are scheduling-independent; atomics make the concurrent
// accumulation race-free.
struct AtomicStreamStats {
  std::atomic<std::uint64_t> runs{0};
  std::atomic<std::uint64_t> passes{0};
  std::atomic<std::uint64_t> edges_processed{0};
  std::atomic<std::uint64_t> lists_processed{0};
  std::atomic<std::uint64_t> updates_processed{0};
  std::atomic<std::uint64_t> audits_passed{0};
  std::atomic<std::uint64_t> checkpoints_written{0};
  std::atomic<std::uint64_t> checkpoint_failures{0};
  std::atomic<std::uint64_t> restores{0};
  std::atomic<std::uint64_t> restore_rejects{0};
  std::atomic<std::uint64_t> pass_nanos[4] = {};
};

AtomicStreamStats& Stats() {
  static AtomicStreamStats stats;
  return stats;
}

constexpr auto kRelaxed = std::memory_order_relaxed;

// Process-wide checkpoint configuration (SetGlobalCheckpoint), consumed by
// the plain Run*Stream overloads. run_seq names the snapshot file of each
// Run*Stream call; elements drives kill_after across all runs.
struct GlobalCheckpointState {
  std::atomic<bool> active{false};
  GlobalCheckpointOptions opts;
  std::atomic<std::uint64_t> run_seq{0};
  std::atomic<std::uint64_t> elements{0};
};

GlobalCheckpointState& GlobalCkpt() {
  static GlobalCheckpointState state;
  return state;
}

// The end of one completed run: the audit cross-check of the
// self-reported footprint against a fresh walk of the stored state (after
// the final pass every tracker is current), then the run's credit. The
// totals are the full-run ones, so a resumed run credits the same as an
// uninterrupted one and a killed run credits nothing.
template <typename Alg>
void FinishRun(const Alg& alg, std::uint64_t stream_length,
               std::atomic<std::uint64_t>& processed) {
  const SpaceTracker* tracker = alg.space_tracker();
  const std::size_t walked =
      SpaceAuditEnabled() ? alg.AuditSpace() : kNoSpaceAudit;
  if (tracker != nullptr && walked != kNoSpaceAudit) {
    CHECK_EQ(walked, tracker->Current())
        << "space audit failed: the state walk disagrees with the "
           "self-reported footprint (accounting bug)";
    CHECK_LE(walked, tracker->Peak())
        << "space audit failed: current footprint exceeds the recorded peak";
    Stats().audits_passed.fetch_add(1, kRelaxed);
  }
  const auto passes = static_cast<std::uint64_t>(alg.NumPasses());
  Stats().runs.fetch_add(1, kRelaxed);
  Stats().passes.fetch_add(passes, kRelaxed);
  processed.fetch_add(passes * stream_length, kRelaxed);
}

void AddPassTime(int pass, std::chrono::steady_clock::time_point start) {
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  const int slot = pass < 3 ? pass : 3;
  Stats().pass_nanos[slot].fetch_add(static_cast<std::uint64_t>(nanos),
                                     kRelaxed);
}

// Per-stream-kind plumbing for the pass loop.
struct EdgeKind {
  static constexpr std::uint8_t kTag = 0;
  using Alg = EdgeStreamAlgorithm;
  using Item = Edge;
  static std::uint64_t Fingerprint(std::span<const Item> s) {
    return FingerprintEdgeStream(s);
  }
  static void ProcessBlock(Alg& alg, int pass, std::span<const Item> block,
                           std::size_t base) {
    alg.ProcessEdgeBlock(pass, block, base);
  }
  static std::atomic<std::uint64_t>& Processed() {
    return Stats().edges_processed;
  }
};

struct AdjacencyKind {
  static constexpr std::uint8_t kTag = 1;
  using Alg = AdjacencyStreamAlgorithm;
  using Item = AdjacencyList;
  static std::uint64_t Fingerprint(std::span<const Item> s) {
    return FingerprintAdjacencyStream(s);
  }
  static void ProcessBlock(Alg& alg, int pass, std::span<const Item> block,
                           std::size_t base) {
    // Adjacency algorithms have no batched entry point; deliver per list.
    for (std::size_t j = 0; j < block.size(); ++j) {
      alg.ProcessList(pass, block[j], base + j);
    }
  }
  static std::atomic<std::uint64_t>& Processed() {
    return Stats().lists_processed;
  }
};

struct TurnstileKind {
  static constexpr std::uint8_t kTag = 2;
  using Alg = TurnstileStreamAlgorithm;
  using Item = TurnstileUpdate;
  static std::uint64_t Fingerprint(std::span<const Item> s) {
    return FingerprintTurnstileStream(s);
  }
  static void ProcessBlock(Alg& alg, int pass, std::span<const Item> block,
                           std::size_t base) {
    alg.ProcessUpdateBlock(pass, block, base);
  }
  static std::atomic<std::uint64_t>& Processed() {
    return Stats().updates_processed;
  }
};

// Writes one snapshot per the policy. Returns true if a file landed (even
// a deliberately damaged one — corruption faults must be caught on load,
// not hidden at write time); false on (possibly simulated) I/O failure.
template <typename Kind>
bool WriteCheckpoint(const typename Kind::Alg& alg,
                     const RunOptions& options, const std::string& path,
                     std::uint64_t fingerprint, std::uint64_t stream_length,
                     std::uint64_t pass, std::uint64_t position,
                     std::uint64_t elements_done, RunOutcome* out) {
  Snapshot snap;
  snap.algorithm_id = std::string(alg.CheckpointId());
  snap.stream_kind = Kind::kTag;
  snap.stream_fingerprint = fingerprint;
  snap.stream_length = stream_length;
  snap.pass = pass;
  snap.position = position;
  snap.elements_processed = elements_done;
  StateWriter w;
  if (!alg.SaveState(w)) return false;
  snap.state = w.Take();

  WriteFault fault;
  if (options.faults != nullptr) fault = options.faults->NextWriteFault();
  std::string error;
  if (!SaveSnapshot(path, snap, &error, &fault)) {
    LOG(WARNING) << "checkpoint write failed: " << error
                 << " (keeping previous snapshot, run continues)";
    ++out->checkpoint_failures;
    Stats().checkpoint_failures.fetch_add(1, kRelaxed);
    return false;
  }
  out->checkpoint_path = path;
  ++out->checkpoints_written;
  Stats().checkpoints_written.fetch_add(1, kRelaxed);
  return true;
}

// Attempts to restore `alg` from options.resume_from. On success sets the
// resume point; on any validation failure logs why and leaves the
// algorithm untouched (restart from scratch).
template <typename Kind>
void TryResume(typename Kind::Alg& alg, std::size_t stream_length,
               const RunOptions& options, std::uint64_t fingerprint,
               std::uint64_t* start_pass, std::uint64_t* start_pos,
               std::uint64_t* elements_done, RunOutcome* out) {
  std::string error;
  std::optional<Snapshot> snap = LoadSnapshot(options.resume_from, &error);
  bool ok = false;
  if (snap.has_value()) {
    if (snap->algorithm_id != alg.CheckpointId()) {
      error = "snapshot is for algorithm '" + snap->algorithm_id +
              "', expected '" + std::string(alg.CheckpointId()) + "'";
    } else if (snap->stream_kind != Kind::kTag) {
      error = "snapshot stream kind mismatch";
    } else if (snap->stream_length != stream_length ||
               snap->stream_fingerprint != fingerprint) {
      error = "snapshot was taken against a different stream";
    } else if (snap->pass >= static_cast<std::uint64_t>(alg.NumPasses()) ||
               snap->position > stream_length) {
      error = "snapshot resume point out of range";
    } else {
      StateReader r(snap->state);
      if (alg.RestoreState(r) && r.AtEnd()) {
        ok = true;
      } else {
        error = "algorithm state blob rejected";
      }
    }
  }
  if (ok) {
    *start_pass = snap->pass;
    *start_pos = snap->position;
    *elements_done = snap->elements_processed;
    out->resumed = true;
    Stats().restores.fetch_add(1, kRelaxed);
  } else {
    LOG(WARNING) << "resume from " << options.resume_from << " rejected: "
                 << error << "; restarting from scratch";
    out->resume_rejected = true;
    Stats().restore_rejects.fetch_add(1, kRelaxed);
  }
}

// The one pass loop (RunPasses in driver.h).
template <typename Kind>
RunOutcome RunPassLoop(std::span<typename Kind::Alg* const> algs,
                       std::span<const typename Kind::Item> stream,
                       std::size_t block_size, const RunOptions& options) {
  using Alg = typename Kind::Alg;
  CHECK_GT(block_size, 0u) << "block size must be > 0";
  CHECK(algs.size() == 1 || (options.checkpoint == nullptr &&
                             options.faults == nullptr &&
                             options.resume_from.empty()))
      << "checkpoint, resume and fault options need exactly one algorithm "
         "(a snapshot holds one state)";
  RunOutcome out;
  int num_passes = 0;
  for (const Alg* alg : algs) {
    num_passes = std::max(num_passes, alg->NumPasses());
  }

  // Snapshot state: set only for a lone algorithm that can checkpoint.
  Alg* const lone = algs.size() == 1 && !algs[0]->CheckpointId().empty()
                        ? algs[0]
                        : nullptr;
  const CheckpointPolicy* policy =
      lone != nullptr ? options.checkpoint : nullptr;
  const bool resume = lone != nullptr && !options.resume_from.empty();
  const std::uint64_t fingerprint =
      policy != nullptr || resume ? Kind::Fingerprint(stream) : 0;
  const std::uint64_t every = policy != nullptr ? policy->every_elements : 0;
  std::string path;
  if (policy != nullptr) {
    path = policy->directory + "/" + policy->file_stem + ".ckpt";
  }
  std::uint64_t start_pass = 0;
  std::uint64_t start_pos = 0;
  std::uint64_t elements_done = 0;
  if (resume) {
    TryResume<Kind>(*lone, stream.size(), options, fingerprint, &start_pass,
                      &start_pos, &elements_done, &out);
  }

  std::vector<Alg*> active;
  for (int pass = static_cast<int>(start_pass); pass < num_passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t begin =
        pass == static_cast<int>(start_pass)
            ? static_cast<std::size_t>(start_pos)
            : 0;
    // Algorithms with fewer passes drop out of later passes.
    active.clear();
    for (Alg* alg : algs) {
      if (pass < alg->NumPasses()) active.push_back(alg);
    }
    // A mid-pass resume skips StartPass: it already ran before the
    // snapshot was taken and its effects are part of the restored state.
    if (begin == 0) {
      for (Alg* alg : active) alg->StartPass(pass, stream.size());
    }
    // Slot s on shard s mod shards, each shard serial: every algorithm's
    // call sequence is its lone-run sequence, so the barrier per block only
    // bounds how far the algorithms drift apart in the stream.
    const std::size_t shards = std::min(
        active.size(), static_cast<std::size_t>(DefaultThreads()));
    for (std::size_t i = begin; i < stream.size();) {
      std::size_t n = std::min(block_size, stream.size() - i);
      if (every > 0) {
        n = std::min<std::uint64_t>(n, every - elements_done % every);
      }
      if (options.faults != nullptr) {
        n = std::min<std::uint64_t>(n, options.faults->ElementsBeforeKill());
      }
      const auto block = stream.subspan(i, n);
      if (shards <= 1) {
        for (Alg* alg : active) Kind::ProcessBlock(*alg, pass, block, i);
      } else {
        ParallelFor(shards, [&](std::size_t shard) {
          for (std::size_t s = shard; s < active.size(); s += shards) {
            Kind::ProcessBlock(*active[s], pass, block, i);
          }
        });
      }
      i += n;
      elements_done += n;
      if (every > 0 && elements_done % every == 0) {
        WriteCheckpoint<Kind>(*lone, options, path, fingerprint,
                                stream.size(),
                                static_cast<std::uint64_t>(pass), i,
                                elements_done, &out);
      }
      if (options.faults != nullptr && options.faults->OnElementsProcessed(n)) {
        out.completed = false;
        AddPassTime(pass, start);
        return out;
      }
    }
    for (Alg* alg : active) alg->EndPass(pass);
    AddPassTime(pass, start);
    if (policy != nullptr && pass + 1 < num_passes) {
      WriteCheckpoint<Kind>(*lone, options, path, fingerprint, stream.size(),
                              static_cast<std::uint64_t>(pass) + 1, 0,
                              elements_done, &out);
    }
  }
  for (const Alg* alg : algs) {
    FinishRun(*alg, stream.size(), Kind::Processed());
  }
  return out;
}

// A plain Run*Stream call. When the process-wide checkpoint configuration
// is active, the run snapshots to the file named by its sequence number,
// resumes from it if present, and carries the remaining --kill_after
// budget as a FaultPlan kill point: a killed run ends the process right
// after the loop returns (the snapshot due at that element is already on
// disk).
template <typename Kind>
void RunLone(typename Kind::Alg& alg,
             std::span<const typename Kind::Item> stream) {
  typename Kind::Alg* const algs[] = {&alg};
  GlobalCheckpointState& global = GlobalCkpt();
  if (!global.active.load(kRelaxed)) {
    RunPassLoop<Kind>(algs, stream, kDefaultBlockSize, RunOptions{});
    return;
  }
  const std::uint64_t seq = global.run_seq.fetch_add(1, kRelaxed);
  CheckpointPolicy policy;
  policy.directory = global.opts.directory;
  policy.every_elements = global.opts.every_elements;
  policy.file_stem = "run-" + std::to_string(seq);
  RunOptions options;
  options.checkpoint = &policy;
  if (global.opts.resume) {
    const std::string path =
        policy.directory + "/" + policy.file_stem + ".ckpt";
    std::ifstream probe(path, std::ios::binary);
    if (probe.good()) options.resume_from = path;
  }
  FaultPlan kill;
  if (global.opts.kill_after > 0) {
    kill.KillAfterElements(global.opts.kill_after -
                           global.elements.load(kRelaxed));
    options.faults = &kill;
  }
  const RunOutcome out =
      RunPassLoop<Kind>(algs, stream, kDefaultBlockSize, options);
  // Simulated crash: no cleanup, no further output.
  if (!out.completed) std::_Exit(kKilledExitCode);
  global.elements.fetch_add(kill.elements_seen(), kRelaxed);
}

}  // namespace

void SetSpaceAudit(bool enabled) {
  g_audit_enabled.store(enabled, kRelaxed);
}

bool SpaceAuditEnabled() {
  static const bool from_env = AuditFromEnv();
  return from_env || g_audit_enabled.load(kRelaxed);
}

void SetGlobalCheckpoint(const GlobalCheckpointOptions& options) {
  GlobalCheckpointState& global = GlobalCkpt();
  global.opts = options;
  global.run_seq.store(0, kRelaxed);
  global.elements.store(0, kRelaxed);
  global.active.store(!options.directory.empty(), kRelaxed);
}

bool ApplyCheckpointFlags(FlagParser& flags, int* threads) {
  GlobalCheckpointOptions options;
  options.directory = flags.GetString("checkpoint_dir", "");
  options.every_elements = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, flags.GetInt("checkpoint_every", 0)));
  options.resume = flags.GetBool("resume", false);
  options.kill_after = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, flags.GetInt("kill_after", 0)));
  if (options.directory.empty()) {
    if (options.every_elements > 0 || options.resume ||
        options.kill_after > 0) {
      LOG(WARNING) << "--checkpoint_every/--resume/--kill_after have no "
                      "effect without --checkpoint_dir";
    }
    SetGlobalCheckpoint(GlobalCheckpointOptions{});
    return false;
  }
  if (threads != nullptr && *threads != 1) {
    LOG(INFO) << "checkpointing needs a deterministic run sequence; "
                 "forcing --threads=1";
    SetDefaultThreads(1);
    *threads = 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.directory, ec);
  if (ec) {
    LOG(WARNING) << "cannot create checkpoint directory '"
                 << options.directory << "': " << ec.message();
  }
  SetGlobalCheckpoint(options);
  return true;
}

StreamStats GlobalStreamStats() {
  StreamStats out;
  AtomicStreamStats& stats = Stats();
  out.runs = stats.runs.load(kRelaxed);
  out.passes = stats.passes.load(kRelaxed);
  out.edges_processed = stats.edges_processed.load(kRelaxed);
  out.lists_processed = stats.lists_processed.load(kRelaxed);
  out.updates_processed = stats.updates_processed.load(kRelaxed);
  out.audits_passed = stats.audits_passed.load(kRelaxed);
  out.checkpoints_written = stats.checkpoints_written.load(kRelaxed);
  out.checkpoint_failures = stats.checkpoint_failures.load(kRelaxed);
  out.restores = stats.restores.load(kRelaxed);
  out.restore_rejects = stats.restore_rejects.load(kRelaxed);
  for (int i = 0; i < 4; ++i) {
    out.pass_seconds[i] =
        static_cast<double>(stats.pass_nanos[i].load(kRelaxed)) * 1e-9;
  }
  return out;
}

void ResetStreamStats() {
  AtomicStreamStats& stats = Stats();
  stats.runs.store(0, kRelaxed);
  stats.passes.store(0, kRelaxed);
  stats.edges_processed.store(0, kRelaxed);
  stats.lists_processed.store(0, kRelaxed);
  stats.updates_processed.store(0, kRelaxed);
  stats.audits_passed.store(0, kRelaxed);
  stats.checkpoints_written.store(0, kRelaxed);
  stats.checkpoint_failures.store(0, kRelaxed);
  stats.restores.store(0, kRelaxed);
  stats.restore_rejects.store(0, kRelaxed);
  for (auto& nanos : stats.pass_nanos) nanos.store(0, kRelaxed);
}

void AuditAndCreditRun(const EdgeStreamAlgorithm& alg,
                       std::size_t stream_length) {
  FinishRun(alg, stream_length, EdgeKind::Processed());
}

RunOutcome RunPasses(std::span<EdgeStreamAlgorithm* const> algs,
                     std::span<const Edge> stream, std::size_t block_size,
                     const RunOptions& options) {
  return RunPassLoop<EdgeKind>(algs, stream, block_size, options);
}

RunOutcome RunPasses(std::span<AdjacencyStreamAlgorithm* const> algs,
                     std::span<const AdjacencyList> stream,
                     std::size_t block_size, const RunOptions& options) {
  return RunPassLoop<AdjacencyKind>(algs, stream, block_size, options);
}

RunOutcome RunPasses(std::span<TurnstileStreamAlgorithm* const> algs,
                     std::span<const TurnstileUpdate> stream,
                     std::size_t block_size, const RunOptions& options) {
  return RunPassLoop<TurnstileKind>(algs, stream, block_size, options);
}

void RunEdgeStream(EdgeStreamAlgorithm& alg, const EdgeStream& stream) {
  RunLone<EdgeKind>(alg, stream);
}

void RunAdjacencyStream(AdjacencyStreamAlgorithm& alg,
                        const AdjacencyStream& stream) {
  RunLone<AdjacencyKind>(alg, stream);
}

void RunTurnstileStream(TurnstileStreamAlgorithm& alg,
                        const TurnstileStream& stream) {
  RunLone<TurnstileKind>(alg, stream);
}

RunOutcome RunEdgeStream(EdgeStreamAlgorithm& alg, const EdgeStream& stream,
                         const RunOptions& options) {
  EdgeStreamAlgorithm* const algs[] = {&alg};
  return RunPasses(algs, stream, kDefaultBlockSize, options);
}

RunOutcome RunAdjacencyStream(AdjacencyStreamAlgorithm& alg,
                              const AdjacencyStream& stream,
                              const RunOptions& options) {
  AdjacencyStreamAlgorithm* const algs[] = {&alg};
  return RunPasses(algs, stream, kDefaultBlockSize, options);
}

RunOutcome RunTurnstileStream(TurnstileStreamAlgorithm& alg,
                              const TurnstileStream& stream,
                              const RunOptions& options) {
  TurnstileStreamAlgorithm* const algs[] = {&alg};
  return RunPasses(algs, stream, kDefaultBlockSize, options);
}

}  // namespace cyclestream
