#include "engine/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "engine/spec.h"
#include "graph/types.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "util/check.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ElapsedMs(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
          .count());
}

// ---------------------------------------------------------------------------
// Drain latch
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_supervisor_drain = 0;

extern "C" void SupervisorDrainSignalHandler(int /*signum*/) {
  // Both latches: in-process workers poll the worker latch, the
  // supervisor's loops poll this one. Plain sig_atomic_t stores — safe.
  g_supervisor_drain = 1;
  RequestWorkerDrain();
}

// ---------------------------------------------------------------------------
// Watchdog: per-wave liveness monitor for subprocess workers
// ---------------------------------------------------------------------------

// Reads each tracked worker's heartbeat file on a polling cadence and
// SIGKILLs any worker whose (edges_done, seq) has not advanced within the
// shard deadline. The kill turns a hang into an ordinary waitpid-visible
// death, which the reap loop then retries like any crash. Lives for one
// wave run; the destructor joins the thread.
class Watchdog {
 public:
  Watchdog(std::uint64_t deadline_ms, std::uint64_t poll_ms)
      : deadline_ms_(deadline_ms), poll_ms_(poll_ms == 0 ? 1 : poll_ms) {
    thread_ = std::thread([this] { Run(); });
  }

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void Track(pid_t pid, std::string hb_path) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry e;
    e.hb_path = std::move(hb_path);
    e.last_progress = Clock::now();
    entries_[pid] = std::move(e);
  }

  void Untrack(pid_t pid) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(pid);
  }

  std::uint64_t kills() const { return kills_.load(); }

 private:
  struct Entry {
    std::string hb_path;
    HeartbeatRecord last;
    bool have_beat = false;
    Clock::time_point last_progress;
  };

  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(poll_ms_),
                   [this] { return stop_; });
      if (stop_) break;
      const Clock::time_point now = Clock::now();
      std::vector<pid_t> expired;
      for (auto& [pid, e] : entries_) {
        HeartbeatRecord hb;
        if (ReadLastHeartbeat(e.hb_path, &hb)) {
          if (!e.have_beat || hb.edges_done != e.last.edges_done ||
              hb.seq != e.last.seq) {
            e.have_beat = true;
            e.last = hb;
            e.last_progress = now;
          }
        }
        if (ElapsedMs(e.last_progress, now) > deadline_ms_) {
          expired.push_back(pid);
        }
      }
      for (pid_t pid : expired) {
        LOG(WARNING) << "watchdog: worker pid " << pid
                     << " made no heartbeat progress in " << deadline_ms_
                     << " ms; killing it";
        kill(pid, SIGKILL);
        ++kills_;
        entries_.erase(pid);  // The reap loop collects the corpse.
      }
    }
  }

  const std::uint64_t deadline_ms_;
  const std::uint64_t poll_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<pid_t, Entry> entries_;
  std::atomic<std::uint64_t> kills_{0};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Worker launches
// ---------------------------------------------------------------------------

// One worker's launch parameters for a wave.
struct WorkerLaunch {
  ShardWorkerConfig config;
  std::string state_path;
};

// The worker executable: `configured` when non-empty, else /proc/self/exe.
std::string ResolveWorkerBinary(const std::string& configured) {
  if (!configured.empty()) return configured;
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  CHECK_GT(n, 0) << "cannot resolve /proc/self/exe for the worker binary";
  return std::string(buf, static_cast<std::size_t>(n));
}

// The `shard-worker` argv for a subprocess launch. The worker recomputes
// the stream and spec fingerprints itself from the files — a cheap
// end-to-end check that both codecs round-trip.
std::vector<std::string> BuildWorkerArgv(const std::string& binary,
                                         const std::string& stream_path,
                                         const std::string& spec_path,
                                         const WorkerLaunch& launch) {
  const ShardWorkerConfig& c = launch.config;
  std::vector<std::string> argv = {
      binary,
      "shard-worker",
      "--stream",
      stream_path,
      "--spec-file",
      spec_path,
      "--worker",
      std::to_string(c.worker_id),
      "--workers",
      std::to_string(c.num_workers),
      "--ranges",
      FormatShardRanges(c.ranges),
      "--state-out",
      launch.state_path,
      "--block-edges",
      std::to_string(c.block_edges),
  };
  if (c.epoch_edges > 0 && !c.checkpoint_path.empty()) {
    argv.push_back("--epoch-edges");
    argv.push_back(std::to_string(c.epoch_edges));
    argv.push_back("--checkpoint");
    argv.push_back(c.checkpoint_path);
  }
  if (c.resume) argv.push_back("--resume");
  if (c.die_after_edges != kNoDeath) {
    argv.push_back("--die-after-edges");
    argv.push_back(std::to_string(c.die_after_edges));
  }
  if (c.hang_after_edges != kNoDeath) {
    argv.push_back("--hang-after-edges");
    argv.push_back(std::to_string(c.hang_after_edges));
  }
  if (c.heartbeat_edges > 0 && !c.heartbeat_path.empty()) {
    argv.push_back("--heartbeat-edges");
    argv.push_back(std::to_string(c.heartbeat_edges));
    argv.push_back("--heartbeat");
    argv.push_back(c.heartbeat_path);
  }
  if (c.throttle_ms_per_block > 0) {
    argv.push_back("--throttle-ms");
    argv.push_back(std::to_string(c.throttle_ms_per_block));
  }
  return argv;
}

// fork/execs one worker, returning its pid. A failed exec surfaces as the
// child exiting 127, which the reap loop treats as a dead worker.
pid_t SpawnShardWorker(const std::vector<std::string>& argv) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& a : argv) raw.push_back(const_cast<char*>(a.c_str()));
  raw.push_back(nullptr);
  const pid_t pid = fork();
  CHECK_GE(pid, 0) << "fork failed for shard worker";
  if (pid == 0) {
    execv(raw[0], raw.data());
    _exit(127);  // exec failed; the reap loop treats it as a dead worker.
  }
  return pid;
}

// Loads + validates one worker's final state. False (with a warning) on
// any damage or mismatch — the caller treats the worker as dead, so a
// stale or torn file can delay a run but never corrupt a merge.
bool CollectWorkerState(const WorkerLaunch& launch,
                        const std::vector<QuerySpec>& wave_specs,
                        ShardState* state) {
  const ShardWorkerConfig& c = launch.config;
  std::string error;
  if (!LoadShardState(launch.state_path, state, &error)) {
    LOG(WARNING) << "worker " << c.worker_id << ": state file rejected ("
                 << error << ")";
    return false;
  }
  const ShardHeader& h = state->header;
  if (h.worker_id != c.worker_id || h.num_workers != c.num_workers ||
      h.stream_fingerprint != c.stream_fingerprint ||
      h.stream_length != c.edges.size() ||
      h.spec_fingerprint != c.spec_fingerprint || h.ranges != c.ranges ||
      h.edges_done != TotalRangeEdges(c.ranges) ||
      state->query_states.size() != wave_specs.size()) {
    LOG(WARNING) << "worker " << c.worker_id
                 << ": state header does not match its launch (stale file?)";
    return false;
  }
  for (std::size_t i = 0; i < wave_specs.size(); ++i) {
    if (state->query_states[i].first != wave_specs[i].name) {
      LOG(WARNING) << "worker " << c.worker_id
                   << ": query order mismatch in state file";
      return false;
    }
  }
  return true;
}

// Fills the broker-shaped outcome/stats fields for one completed wave.
// `merged` holds one query per admitted slot, in slot order.
void FinalizeShardWave(const std::vector<std::size_t>& admitted, int wave,
                       std::size_t stream_length,
                       std::vector<EdgeQuery>& merged,
                       std::vector<QueryOutcome>& outcomes,
                       EngineStats& stats) {
  // One logical pass (mergeable kinds are single-pass, CHECKed in the
  // worker), read once across the workers collectively — the same counters
  // a broker wave would produce.
  ++stats.physical_passes;
  stats.source_items_read += stream_length;
  stats.items_delivered +=
      static_cast<std::uint64_t>(stream_length) * admitted.size();

  for (std::size_t i = 0; i < admitted.size(); ++i) {
    QueryOutcome& out = outcomes[admitted[i]];
    // The merged state IS the single-process end-of-run state, so the
    // pass loop's audit and credit apply to it unchanged.
    AuditAndCreditRun(*merged[i].algorithm, stream_length);
    out.admission = AdmissionOutcome::kAdmitted;
    out.wave = wave;
    out.estimate = merged[i].result();
    out.passes = merged[i].algorithm->NumPasses();
    out.items_delivered = stream_length;
    if (const SpaceTracker* tracker = merged[i].algorithm->space_tracker()) {
      out.space_peak_components = tracker->PeakComponents();
    }
  }
}

// CHECKs that `specs` is non-empty, unique-named, and every kind is a
// shard-mergeable edge kind.
void CheckShardableSpecs(const std::vector<QuerySpec>& specs) {
  CHECK(!specs.empty()) << "sharded batch needs at least one query";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CHECK(IsEdgeKind(specs[i].kind) && IsShardMergeableKind(specs[i].kind))
        << "query '" << specs[i].name << "' has kind "
        << QueryKindName(specs[i].kind)
        << ", which is not shard-mergeable (see IsShardMergeableKind)";
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      CHECK(specs[i].name != specs[j].name)
          << "duplicate query name '" << specs[i].name << "'";
    }
  }
}

// ---------------------------------------------------------------------------
// Wave runners
// ---------------------------------------------------------------------------

// A wave's worker states, folded in fixed shard order as soon as every
// earlier shard is in: an in-process wave holds one decoded state at a
// time instead of all W.
class WaveFold {
 public:
  WaveFold(const std::vector<QuerySpec>& wave_specs, std::size_t workers)
      : specs_(wave_specs), states_(workers), done_(workers, 0) {}

  bool done(std::size_t i) const { return done_[i] != 0; }
  bool complete() const { return folded_ == done_.size(); }

  // Loads and validates worker i's state file, then folds every shard
  // whose predecessors are all in. False leaves the worker not done.
  bool Collect(const WorkerLaunch& launch, std::size_t i) {
    if (!CollectWorkerState(launch, specs_, &states_[i])) {
      states_[i] = ShardState{};
      return false;
    }
    done_[i] = 1;
    for (; folded_ < done_.size() && done_[folded_]; ++folded_) {
      std::vector<ShardState> next;
      next.push_back(std::move(states_[folded_]));
      states_[folded_] = ShardState{};
      merged_ = MergeShardStates(specs_, next, std::move(merged_));
    }
    return true;
  }

  // One merged query per wave spec; valid once complete().
  std::vector<EdgeQuery> TakeMerged() {
    CHECK(complete());
    return std::move(merged_);
  }

 private:
  const std::vector<QuerySpec>& specs_;
  std::vector<ShardState> states_;  // Collected, waiting on an earlier shard.
  std::vector<char> done_;
  std::size_t folded_ = 0;
  std::vector<EdgeQuery> merged_;
};

enum class WaveStatus { kCompleted, kPoisoned, kDrained };

void SleepMs(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool FileExists(const std::string& path) {
  return access(path.c_str(), F_OK) == 0;
}

// Collects already-valid state files (resume fast path).
void CollectExisting(const std::vector<WorkerLaunch>& launches,
                     WaveFold* fold, SupervisorCounters* counters) {
  for (std::size_t i = 0; i < launches.size(); ++i) {
    if (fold->done(i) || !FileExists(launches[i].state_path)) continue;
    if (fold->Collect(launches[i], i)) ++counters->states_collected;
  }
}

// Prepares launch `i` for its next attempt: past the first launch of a
// fresh run, faults are cleared and the worker resumes from its own epoch
// checkpoint. The heartbeat file is removed so the watchdog only ever sees
// beacons from the live incarnation.
void PrepareAttempt(WorkerLaunch& launch, bool is_retry, bool batch_resume) {
  ShardWorkerConfig& c = launch.config;
  if (is_retry) {
    c.die_after_edges = kNoDeath;
    c.hang_after_edges = kNoDeath;
  }
  c.resume = (is_retry || batch_resume) && !c.checkpoint_path.empty();
  if (!c.heartbeat_path.empty()) std::remove(c.heartbeat_path.c_str());
}

// Classifies one reaped worker's wait status into counters.
void CountExit(int status, SupervisorCounters* counters) {
  if (WIFSIGNALED(status)) {
    ++counters->deaths_by_signal;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == kKilledExitCode) {
    ++counters->exit_fault_sentinel;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0 &&
             WEXITSTATUS(status) != kDrainExitCode) {
    ++counters->exit_nonzero;
  }
}

// Subprocess wave runner: launch workers, reap with WNOHANG, retry under
// the backoff policy, enforce deadlines, honor drain. `fold` is complete
// on kCompleted; partial on kPoisoned/kDrained.
WaveStatus RunWaveSubprocess(std::vector<WorkerLaunch>& launches,
                             const SupervisorOptions& options,
                             const std::string& spec_path, int wave,
                             bool batch_resume, WaveFold* fold,
                             SupervisorCounters* counters) {
  const std::size_t w = launches.size();
  if (batch_resume) CollectExisting(launches, fold, counters);

  const std::string binary =
      ResolveWorkerBinary(options.plan.worker_binary);
  const std::uint64_t poll_ms = options.deadline.poll_interval_ms == 0
                                    ? 1
                                    : options.deadline.poll_interval_ms;

  std::unique_ptr<Watchdog> watchdog;
  if (options.deadline.shard_deadline_ms > 0) {
    watchdog = std::make_unique<Watchdog>(options.deadline.shard_deadline_ms,
                                          poll_ms);
  }

  struct Track {
    pid_t pid = -1;
    bool running = false;
    int attempts = 0;
    Clock::time_point eligible = Clock::time_point::min();
  };
  std::vector<Track> track(w);

  auto reap_one = [&](std::size_t i, int wait_flags) -> bool {
    int status = 0;
    pid_t got;
    do {
      got = waitpid(track[i].pid, &status, wait_flags);
    } while (got < 0 && errno == EINTR);
    if (got == 0) return false;  // Still running (WNOHANG).
    CHECK_EQ(got, track[i].pid) << "waitpid failed for supervised worker";
    track[i].running = false;
    if (watchdog) watchdog->Untrack(track[i].pid);
    CountExit(status, counters);
    const bool exited_zero = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const bool drain_ack =
        WIFEXITED(status) && WEXITSTATUS(status) == kDrainExitCode;
    if (exited_zero && fold->Collect(launches[i], i)) {
      ++counters->states_collected;
    } else if (!drain_ack) {
      LOG(WARNING) << "wave " << wave << " worker " << i << ": "
                   << DescribeWaitStatus(status) << " (attempt "
                   << track[i].attempts << " of "
                   << options.retry.max_attempts << ")";
      if (track[i].attempts < options.retry.max_attempts) {
        const std::uint64_t backoff = ComputeBackoffMs(
            options.retry, wave, launches[i].config.worker_id,
            track[i].attempts + 1);
        counters->backoff_ms_total += backoff;
        track[i].eligible =
            Clock::now() + std::chrono::milliseconds(
                               options.sleep_in_backoff ? backoff : 0);
      }
    }
    return true;
  };

  auto kill_running = [&](int signum) {
    for (std::size_t i = 0; i < w; ++i) {
      if (track[i].running) kill(track[i].pid, signum);
    }
  };

  Clock::time_point round_start = Clock::now();
  for (;;) {
    if (fold->complete()) {
      if (watchdog) counters->deadline_kills += watchdog->kills();
      return WaveStatus::kCompleted;
    }

    if (SupervisorDrainRequested()) {
      // Forward the drain: workers checkpoint at their next epoch boundary
      // and exit kDrainExitCode. The watchdog stays armed — a worker that
      // hangs instead of draining is still killed and reaped.
      kill_running(SIGTERM);
      for (std::size_t i = 0; i < w; ++i) {
        while (track[i].running) {
          if (!reap_one(i, WNOHANG)) SleepMs(poll_ms);
        }
      }
      if (watchdog) counters->deadline_kills += watchdog->kills();
      return WaveStatus::kDrained;
    }

    // Launch every worker whose backoff has expired.
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < w; ++i) {
      if (fold->done(i) || track[i].running ||
          track[i].attempts >= options.retry.max_attempts ||
          now < track[i].eligible) {
        continue;
      }
      const bool is_retry = track[i].attempts > 0;
      PrepareAttempt(launches[i], is_retry, batch_resume);
      track[i].pid = SpawnShardWorker(BuildWorkerArgv(
          binary, options.plan.stream_path, spec_path, launches[i]));
      track[i].running = true;
      ++track[i].attempts;
      ++counters->workers_launched;
      if (is_retry) ++counters->retries;
      if (watchdog && !launches[i].config.heartbeat_path.empty()) {
        watchdog->Track(track[i].pid, launches[i].config.heartbeat_path);
      }
    }

    // Poison check: a worker with no attempts left and no valid state
    // condemns the wave. Remaining workers are killed — their output
    // cannot be used without the poisoned shard anyway.
    for (std::size_t i = 0; i < w; ++i) {
      if (!fold->done(i) && !track[i].running &&
          track[i].attempts >= options.retry.max_attempts) {
        LOG(ERROR) << "wave " << wave << " worker " << i << " failed "
                   << options.retry.max_attempts
                   << " times; poisoning the wave";
        kill_running(SIGKILL);
        for (std::size_t j = 0; j < w; ++j) {
          if (track[j].running) reap_one(j, 0);
        }
        if (watchdog) counters->deadline_kills += watchdog->kills();
        return WaveStatus::kPoisoned;
      }
    }

    // Reap.
    bool reaped = false;
    for (std::size_t i = 0; i < w; ++i) {
      if (track[i].running && reap_one(i, WNOHANG)) reaped = true;
    }

    // Wave deadline: one round outliving this kills every runner (the
    // reap pass above then schedules their retries). Timer restarts so
    // each retry round gets the full allowance.
    if (options.deadline.wave_deadline_ms > 0 &&
        ElapsedMs(round_start, Clock::now()) >
            options.deadline.wave_deadline_ms) {
      LOG(WARNING) << "wave " << wave << " exceeded its deadline of "
                   << options.deadline.wave_deadline_ms
                   << " ms; killing still-running workers";
      for (std::size_t i = 0; i < w; ++i) {
        if (track[i].running) {
          kill(track[i].pid, SIGKILL);
          ++counters->deadline_kills;
        }
      }
      round_start = Clock::now();
    }

    if (!reaped) SleepMs(poll_ms);
  }
}

// In-process wave runner: the same retry ladder, sequential (no deadlines
// — a hung in-process worker would wedge the supervisor itself, which is
// why DeadlinePolicy is subprocess-only).
WaveStatus RunWaveInProcess(std::vector<WorkerLaunch>& launches,
                            const SupervisorOptions& options, int wave,
                            bool batch_resume, WaveFold* fold,
                            SupervisorCounters* counters) {
  if (batch_resume) CollectExisting(launches, fold, counters);

  for (std::size_t i = 0; i < launches.size(); ++i) {
    if (fold->done(i)) continue;
    for (int attempt = 1; attempt <= options.retry.max_attempts; ++attempt) {
      if (SupervisorDrainRequested()) return WaveStatus::kDrained;
      if (attempt > 1) {
        const std::uint64_t backoff = ComputeBackoffMs(
            options.retry, wave, launches[i].config.worker_id, attempt);
        counters->backoff_ms_total += backoff;
        if (options.sleep_in_backoff) SleepMs(backoff);
        ++counters->retries;
      }
      PrepareAttempt(launches[i], /*is_retry=*/attempt > 1, batch_resume);
      ++counters->workers_launched;
      std::string error;
      const ShardWorkerOutcome outcome =
          RunShardWorker(launches[i].config, launches[i].state_path, &error);
      if (outcome.drained) return WaveStatus::kDrained;
      if (!outcome.completed && !error.empty()) {
        LOG(WARNING) << "wave " << wave << " worker " << i
                     << " failed in-process: " << error;
      }
      if (outcome.completed && fold->Collect(launches[i], i)) {
        ++counters->states_collected;
        break;
      }
    }
    if (!fold->done(i)) {
      LOG(ERROR) << "wave " << wave << " worker " << i << " failed "
                 << options.retry.max_attempts
                 << " times; poisoning the wave";
      return WaveStatus::kPoisoned;
    }
  }
  return WaveStatus::kCompleted;
}

// ---------------------------------------------------------------------------
// Daemon manifest codec
// ---------------------------------------------------------------------------

std::string EncodeDaemonManifest(const DaemonManifest& m) {
  StateWriter h;
  h.U64(m.stream_fingerprint);
  h.U64(m.stream_length);
  h.U64(m.batch_spec_fingerprint);
  h.U32(m.num_workers);
  h.U64(m.epoch_edges);
  h.U64(m.block_edges);
  h.U64(m.aggregate_words);
  h.U64(m.per_query_words);
  h.U32(m.waves_started);
  h.U8(m.drained);
  h.U8(m.completed);
  h.Size(m.pending_slots.size());
  for (std::uint64_t slot : m.pending_slots) h.U64(slot);
  std::string out;
  AppendFrame(&out, FrameType::kHeader, h.str());
  StateWriter f;
  f.U32(m.waves_started);
  AppendFrame(&out, FrameType::kFooter, f.str());
  return out;
}

}  // namespace

std::string DaemonManifestPath(const std::string& shard_dir) {
  return shard_dir + "/daemon.manifest";
}

bool SaveDaemonManifest(const std::string& path,
                        const DaemonManifest& manifest, std::string* error) {
  // Durable atomic write — this file is what a post-crash resume trusts.
  return io::WriteFileAtomic(path, EncodeDaemonManifest(manifest), error);
}

bool LoadDaemonManifest(const std::string& path, DaemonManifest* manifest,
                        std::string* error) {
  std::string encoded;
  if (!io::ReadFileToString(path, &encoded, error)) return false;
  FrameCursor cursor(kFrameFormat, encoded, "daemon manifest", error);
  std::string_view payload;
  if (!cursor.Expect(FrameType::kHeader, &payload)) return false;
  DaemonManifest out;
  StateReader r(payload);
  out.stream_fingerprint = r.U64();
  out.stream_length = r.U64();
  out.batch_spec_fingerprint = r.U64();
  out.num_workers = r.U32();
  out.epoch_edges = r.U64();
  out.block_edges = r.U64();
  out.aggregate_words = r.U64();
  out.per_query_words = r.U64();
  out.waves_started = r.U32();
  out.drained = r.U8();
  out.completed = r.U8();
  const std::size_t pending = r.Size();
  if (!r.ok() || pending > r.Remaining() / 8 + 1) {
    return cursor.Fail("malformed (pending count)");
  }
  for (std::size_t i = 0; i < pending; ++i) {
    out.pending_slots.push_back(r.U64());
  }
  if (!r.AtEnd()) return cursor.Fail("malformed (trailing header bytes)");
  if (!cursor.Expect(FrameType::kFooter, &payload)) return false;
  StateReader f(payload);
  if (f.U32() != out.waves_started || !f.AtEnd()) {
    return cursor.Fail("footer disagrees with the header");
  }
  if (!cursor.Finish()) return false;
  *manifest = std::move(out);
  return true;
}

// ---------------------------------------------------------------------------
// Public drain control
// ---------------------------------------------------------------------------

void RequestSupervisorDrain() { g_supervisor_drain = 1; }
bool SupervisorDrainRequested() { return g_supervisor_drain != 0; }
void ClearSupervisorDrainRequest() { g_supervisor_drain = 0; }

void InstallDrainHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = SupervisorDrainSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // No SA_RESTART: poll sleeps should wake immediately.
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

std::uint64_t ComputeBackoffMs(const RetryPolicy& policy, int wave,
                               std::uint32_t worker, int attempt) {
  CHECK_GE(attempt, 2) << "backoff precedes a retry, not the first launch";
  const int shift = attempt - 2;
  std::uint64_t base = policy.base_backoff_ms;
  // Saturating base << shift, clamped to the cap.
  if (shift >= 63 || (base != 0 && base > (policy.backoff_cap_ms >> shift))) {
    base = policy.backoff_cap_ms;
  } else {
    base = std::min(policy.backoff_cap_ms, base << shift);
  }
  const std::uint64_t span = policy.base_backoff_ms / 2 + 1;
  const std::uint64_t jitter =
      Mix64(policy.jitter_seed ^ Mix64(static_cast<std::uint64_t>(wave) ^
                                       (std::uint64_t{worker} << 20) ^
                                       (std::uint64_t(attempt) << 52))) %
      span;
  return base + jitter;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

bool RunSupervisedBatch(const std::vector<QuerySpec>& specs,
                        std::span<const Edge> edges,
                        const SupervisorOptions& options,
                        SupervisedBatchResult* result, std::string* error) {
  auto reject = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  CheckShardableSpecs(specs);
  IgnoreSigpipe();
  const ShardPlanOptions& plan = options.plan;
  CHECK_GT(plan.num_workers, 0);
  CHECK(!plan.shard_dir.empty())
      << "SupervisorOptions::plan.shard_dir is required";
  CHECK_GE(options.retry.max_attempts, 1);
  const bool subprocess = plan.launch == ShardLaunch::kSubprocess;
  if (subprocess) {
    CHECK(!plan.stream_path.empty())
        << "subprocess workers need --stream (a .bin path)";
  } else if (options.deadline.shard_deadline_ms > 0 ||
             options.deadline.wave_deadline_ms > 0) {
    LOG(WARNING) << "deadlines are subprocess-only; ignoring them for the "
                    "in-process launch";
  }

  std::uint64_t heartbeat_edges = options.heartbeat_edges;
  if (heartbeat_edges == 0 && options.deadline.shard_deadline_ms > 0) {
    heartbeat_edges = plan.block_edges;  // Beacon at least once per block.
  }

  SupervisedBatchResult out;
  out.resumed = options.resume;
  out.outcomes.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out.outcomes[i].spec = specs[i];
  }
  EngineStats& stats = out.stats;

  const std::uint64_t stream_fp = FingerprintEdgeStream(edges);
  const std::uint64_t batch_fp = FingerprintSpecs(specs);
  const std::string manifest_path = DaemonManifestPath(plan.shard_dir);

  DaemonManifest base;
  base.stream_fingerprint = stream_fp;
  base.stream_length = edges.size();
  base.batch_spec_fingerprint = batch_fp;
  base.num_workers = static_cast<std::uint32_t>(plan.num_workers);
  base.epoch_edges = plan.epoch_edges;
  base.block_edges = plan.block_edges;
  base.aggregate_words = plan.budget.aggregate_words;
  base.per_query_words = plan.budget.per_query_words;

  // Every engine runs the one admission plan, so waves match the broker's
  // with or without supervision, interrupted or not.
  const WavePlan schedule = PlanWaves(specs, plan.budget);

  if (options.resume) {
    DaemonManifest prev;
    if (!LoadDaemonManifest(manifest_path, &prev, error)) return false;
    if (prev.stream_fingerprint != stream_fp ||
        prev.stream_length != edges.size()) {
      return reject("daemon manifest is for a different stream");
    }
    if (prev.batch_spec_fingerprint != batch_fp) {
      return reject("daemon manifest is for a different query batch "
                    "(spec fingerprint mismatch)");
    }
    if (prev.num_workers != base.num_workers ||
        prev.epoch_edges != base.epoch_edges ||
        prev.block_edges != base.block_edges ||
        prev.aggregate_words != base.aggregate_words ||
        prev.per_query_words != base.per_query_words) {
      return reject("daemon manifest execution plan mismatch (resume must "
                    "reuse the original workers/epoch/block/budget)");
    }
    // The planned queue at the interruption frontier must match what the
    // interrupted run persisted.
    if (prev.waves_started > 0) {
      const std::size_t frontier = prev.waves_started - 1;
      if (frontier >= schedule.waves.size() ||
          !std::equal(schedule.waves[frontier].queue.begin(),
                      schedule.waves[frontier].queue.end(),
                      prev.pending_slots.begin(), prev.pending_slots.end())) {
        return reject("daemon manifest admission queue mismatch at wave " +
                      std::to_string(frontier) +
                      " (different batch or budget policy?)");
      }
    }
  }

  // Rejected slots keep their default (rejected) outcome.
  stats.queries_queued = schedule.queries_queued;
  stats.queries_rejected = schedule.rejected.size();
  stats.budget_peak_words = schedule.budget_peak_words;

  // Persists the frontier: waves started so far, the queue after the last.
  auto save_manifest = [&](int wave, bool drained) {
    DaemonManifest m = base;
    m.waves_started = static_cast<std::uint32_t>(wave) + 1;
    const std::vector<std::size_t>& queue = schedule.waves[wave].queue;
    m.pending_slots.assign(queue.begin(), queue.end());
    m.drained = drained ? 1 : 0;
    std::string werr;
    CHECK(SaveDaemonManifest(manifest_path, m, &werr)) << werr;
  };

  int wave = 0;
  for (; wave < static_cast<int>(schedule.waves.size()); ++wave) {
    const std::vector<std::size_t>& admitted = schedule.waves[wave].admitted;
    ++stats.waves;

    std::vector<QuerySpec> wave_specs;
    wave_specs.reserve(admitted.size());
    for (std::size_t slot : admitted) wave_specs.push_back(specs[slot]);
    const std::uint64_t spec_fp = FingerprintSpecs(wave_specs);

    const std::vector<ShardRange> partition =
        PartitionStream(edges.size(), plan.num_workers);
    const std::string prefix =
        plan.shard_dir + "/w" + std::to_string(wave);

    std::string spec_path;
    if (subprocess) {
      spec_path = prefix + ".specs";
      std::string werr;
      CHECK(WriteSpecFile(spec_path, wave_specs, &werr)) << werr;
    }

    std::vector<WorkerLaunch> launches(
        static_cast<std::size_t>(plan.num_workers));
    for (std::size_t i = 0; i < launches.size(); ++i) {
      ShardWorkerConfig& c = launches[i].config;
      c.specs = wave_specs;
      c.edges = edges;
      c.ranges = {partition[i]};
      c.worker_id = static_cast<std::uint32_t>(i);
      c.num_workers = static_cast<std::uint32_t>(plan.num_workers);
      c.stream_fingerprint = stream_fp;
      c.spec_fingerprint = spec_fp;
      c.block_edges = plan.block_edges;
      c.epoch_edges = plan.epoch_edges;
      c.throttle_ms_per_block = options.throttle_ms_per_block;
      if (plan.epoch_edges > 0) {
        c.checkpoint_path = prefix + "-s" + std::to_string(i) + ".ckpt";
      }
      if (subprocess && heartbeat_edges > 0) {
        c.heartbeat_edges = heartbeat_edges;
        c.heartbeat_path = prefix + "-s" + std::to_string(i) + ".hb";
      }
      if (wave == 0 && !options.resume) {
        if (plan.kill_worker >= 0 &&
            static_cast<std::size_t>(plan.kill_worker) == i) {
          c.die_after_edges = plan.kill_after_edges;
        }
        if (subprocess && options.hang_worker >= 0 &&
            static_cast<std::size_t>(options.hang_worker) == i) {
          c.hang_after_edges = options.hang_after_edges;
        }
      }
      launches[i].state_path = prefix + "-s" + std::to_string(i) + ".state";
    }

    // Persist the frontier BEFORE launching: a crash at any point after
    // this line resumes into exactly this wave.
    save_manifest(wave, /*drained=*/false);

    // A drain that lands between waves has nothing in flight.
    WaveStatus status = WaveStatus::kDrained;
    WaveFold fold(wave_specs, launches.size());
    if (!SupervisorDrainRequested()) {
      status = subprocess
                   ? RunWaveSubprocess(launches, options, spec_path, wave,
                                       options.resume, &fold, &out.counters)
                   : RunWaveInProcess(launches, options, wave,
                                      options.resume, &fold, &out.counters);
    }

    if (status == WaveStatus::kDrained) {
      save_manifest(wave, /*drained=*/true);
      out.drained = true;
      ++out.counters.drains;
      break;
    }

    if (status == WaveStatus::kPoisoned) {
      // The daemon outlives the wave.
      ++out.counters.waves_poisoned;
      out.poisoned_waves.push_back(wave);
      for (std::size_t slot : admitted) {
        out.outcomes[slot].admission = AdmissionOutcome::kAdmitted;
        out.outcomes[slot].wave = wave;
        out.outcomes[slot].poisoned = true;
      }
    } else {
      std::vector<EdgeQuery> merged = fold.TakeMerged();
      FinalizeShardWave(admitted, wave, edges.size(), merged, out.outcomes,
                        stats);
      ++out.counters.waves_completed;
    }
    stats.queries_admitted += admitted.size();
  }

  if (!out.drained) {
    DaemonManifest m = base;
    m.waves_started = static_cast<std::uint32_t>(wave);
    m.completed = 1;
    std::string werr;
    CHECK(SaveDaemonManifest(manifest_path, m, &werr)) << werr;
  }
  *result = std::move(out);
  return true;
}

void ExportSupervisorCounters(const SupervisorCounters& c,
                              RunManifest& manifest) {
  MetricsRegistry& m = manifest.metrics();
  auto put = [&m](const char* name, std::uint64_t v) {
    m.SetExecution(name, static_cast<std::int64_t>(v));
  };
  put("supervisor.workers_launched", c.workers_launched);
  put("supervisor.retries", c.retries);
  put("supervisor.backoff_ms_total", c.backoff_ms_total);
  put("supervisor.deadline_kills", c.deadline_kills);
  put("supervisor.waves_poisoned", c.waves_poisoned);
  put("supervisor.drains", c.drains);
  put("supervisor.exit_fault_sentinel", c.exit_fault_sentinel);
  put("supervisor.exit_nonzero", c.exit_nonzero);
  put("supervisor.deaths_by_signal", c.deaths_by_signal);
  put("supervisor.states_collected", c.states_collected);
  put("supervisor.waves_completed", c.waves_completed);
}

}  // namespace cyclestream::engine
