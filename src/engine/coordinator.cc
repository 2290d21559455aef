#include "engine/coordinator.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <numeric>
#include <utility>

#include "engine/spec.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "util/check.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

std::string DirName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

// Runs one worker in-process; returns completed.
bool LaunchInProcess(const WorkerLaunch& launch) {
  std::string error;
  const ShardWorkerOutcome outcome =
      RunShardWorker(launch.config, launch.state_path, &error);
  if (!outcome.completed && !error.empty()) {
    LOG(WARNING) << "in-process worker " << launch.config.worker_id
                 << " failed: " << error;
  }
  return outcome.completed;
}

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

std::string ResolveWorkerBinary(const std::string& configured) {
  if (!configured.empty()) return configured;
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  CHECK_GT(n, 0) << "cannot resolve /proc/self/exe for the worker binary";
  return std::string(buf, static_cast<std::size_t>(n));
}

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

pid_t SpawnShardWorker(const std::vector<std::string>& argv) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& a : argv) raw.push_back(const_cast<char*>(a.c_str()));
  raw.push_back(nullptr);
  const pid_t pid = fork();
  CHECK_GE(pid, 0) << "fork failed for shard worker";
  if (pid == 0) {
    execv(raw[0], raw.data());
    _exit(127);  // exec failed; the coordinator treats it as a dead worker.
  }
  return pid;
}

namespace {

bool WaitWorker(pid_t pid, std::uint32_t worker_id) {
  int status = 0;
  pid_t got;
  do {
    got = waitpid(pid, &status, 0);
  } while (got < 0 && errno == EINTR);
  CHECK_EQ(got, pid) << "waitpid failed for shard worker";
  const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!ok) {
    LOG(WARNING) << "worker " << worker_id << ": "
                 << DescribeWaitStatus(status);
  }
  return ok;
}

}  // namespace

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

namespace {

// Runs a set of worker launches to completion: first attempt (possibly
// with an injected kill), then one recovery relaunch — resuming from the
// worker's checkpoint — for any worker that died or left an unusable state
// file. Fills `states` in worker order.
void RunWorkersToCompletion(std::vector<WorkerLaunch>& launches,
                            const std::vector<QuerySpec>& wave_specs,
                            const ShardPlanOptions& options,
                            const std::string& spec_path,
                            std::vector<ShardState>* states,
                            std::uint64_t* launched, std::uint64_t* recovered) {
  const std::size_t w = launches.size();
  states->assign(w, ShardState{});
  std::vector<char> done(w, 0);

  auto run_round = [&](bool recovery) {
    std::vector<pid_t> pids(w, -1);
    std::vector<char> attempted(w, 0);
    for (std::size_t i = 0; i < w; ++i) {
      if (done[i]) continue;
      if (recovery) {
        // Recovery: resume from the shard's own checkpoint, fault cleared.
        launches[i].config.resume = !launches[i].config.checkpoint_path.empty();
        launches[i].config.die_after_edges = kNoDeath;
        ++*recovered;
      }
      attempted[i] = 1;
      ++*launched;
      if (options.launch == ShardLaunch::kInProcess) {
        LaunchInProcess(launches[i]);
      } else {
        pids[i] = SpawnShardWorker(
            BuildWorkerArgv(ResolveWorkerBinary(options.worker_binary),
                            options.stream_path, spec_path, launches[i]));
      }
    }
    for (std::size_t i = 0; i < w; ++i) {
      if (!attempted[i]) continue;
      if (pids[i] >= 0) WaitWorker(pids[i], launches[i].config.worker_id);
      // Exit status aside, the state file is the ground truth: a worker
      // only counts as finished if it left a fully valid state.
      if (CollectWorkerState(launches[i], wave_specs, &(*states)[i])) {
        done[i] = 1;
      }
    }
  };

  run_round(/*recovery=*/false);
  if (std::find(done.begin(), done.end(), 0) != done.end()) {
    run_round(/*recovery=*/true);
  }
  for (std::size_t i = 0; i < w; ++i) {
    CHECK(done[i]) << "shard worker " << i
                   << " failed twice (initial + recovery); giving up";
  }
}

}  // namespace

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

namespace {

// Splits a flat list of leftover ranges into `num_workers` contiguous
// assignments balanced by edge count (the same split PartitionStream uses).
// Workers with nothing left get one empty range so every assignment is
// representable on a command line.
std::vector<std::vector<ShardRange>> SplitRangesAcross(
    const std::vector<ShardRange>& flat, int num_workers) {
  const std::vector<ShardRange> targets =
      PartitionStream(TotalRangeEdges(flat), num_workers);
  std::vector<std::vector<ShardRange>> out(
      static_cast<std::size_t>(num_workers));
  std::size_t ri = 0;
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t need = targets[i].size();
    while (need > 0) {
      const std::uint64_t avail = flat[ri].size() - used;
      const std::uint64_t take = std::min(need, avail);
      out[i].push_back(
          {flat[ri].begin + used, flat[ri].begin + used + take});
      used += take;
      need -= take;
      if (used == flat[ri].size()) {
        ++ri;
        used = 0;
      }
    }
    if (out[i].empty()) out[i].push_back({0, 0});
  }
  return out;
}

}  // namespace

ShardBatchResult RunShardedBatch(const std::vector<QuerySpec>& specs,
                                 std::span<const Edge> edges,
                                 const ShardPlanOptions& options) {
  CheckShardableSpecs(specs);
  IgnoreSigpipe();
  CHECK_GT(options.num_workers, 0);
  CHECK(!options.shard_dir.empty())
      << "ShardPlanOptions::shard_dir is required (state files + "
         "checkpoints live there)";
  if (options.launch == ShardLaunch::kSubprocess) {
    CHECK(!options.stream_path.empty())
        << "subprocess workers need --stream (a .bin path)";
  }

  ShardBatchResult result;
  result.outcomes.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.outcomes[i].spec = specs[i];
  }
  EngineStats& stats = result.stats;

  const std::uint64_t stream_fp = FingerprintEdgeStream(edges);

  // The broker's exact admission loop (RunBatch): identical offer sequence
  // against an identical controller ⇒ identical waves, outcomes, and
  // budget accounting.
  AdmissionController controller(options.budget);
  std::vector<char> queued_before(specs.size(), 0);
  std::vector<std::size_t> pending(specs.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  int wave = 0;
  while (!pending.empty()) {
    std::vector<std::size_t> admitted;
    std::vector<std::size_t> queued;
    for (std::size_t slot : pending) {
      switch (controller.Offer(specs[slot].space_budget_words)) {
        case AdmissionOutcome::kAdmitted:
          admitted.push_back(slot);
          break;
        case AdmissionOutcome::kQueued:
          queued.push_back(slot);
          if (!queued_before[slot]) {
            queued_before[slot] = 1;
            ++stats.queries_queued;
          }
          break;
        case AdmissionOutcome::kRejected:
          result.outcomes[slot].admission = AdmissionOutcome::kRejected;
          ++stats.queries_rejected;
          break;
      }
    }
    if (admitted.empty()) {
      CHECK(queued.empty()) << "admission deadlock: queued queries with an "
                               "empty wave";
      break;
    }
    ++stats.waves;

    std::vector<QuerySpec> wave_specs;
    wave_specs.reserve(admitted.size());
    for (std::size_t slot : admitted) wave_specs.push_back(specs[slot]);
    const std::uint64_t spec_fp = FingerprintSpecs(wave_specs);

    const std::vector<ShardRange> partition =
        PartitionStream(edges.size(), options.num_workers);
    const std::string prefix =
        options.shard_dir + "/w" + std::to_string(wave);

    std::string spec_path;
    if (options.launch == ShardLaunch::kSubprocess) {
      spec_path = prefix + ".specs";
      std::string error;
      CHECK(WriteSpecFile(spec_path, wave_specs, &error)) << error;
    }

    std::vector<WorkerLaunch> launches(
        static_cast<std::size_t>(options.num_workers));
    for (std::size_t i = 0; i < launches.size(); ++i) {
      ShardWorkerConfig& c = launches[i].config;
      c.specs = wave_specs;
      c.edges = edges;
      c.ranges = {partition[i]};
      c.worker_id = static_cast<std::uint32_t>(i);
      c.num_workers = static_cast<std::uint32_t>(options.num_workers);
      c.stream_fingerprint = stream_fp;
      c.spec_fingerprint = spec_fp;
      c.block_edges = options.block_edges;
      c.epoch_edges = options.epoch_edges;
      if (options.epoch_edges > 0) {
        c.checkpoint_path = prefix + "-s" + std::to_string(i) + ".ckpt";
      }
      if (wave == 0 && options.kill_worker >= 0 &&
          static_cast<std::size_t>(options.kill_worker) == i) {
        c.die_after_edges = options.kill_after_edges;
      }
      launches[i].state_path = prefix + "-s" + std::to_string(i) + ".state";
    }

    if (wave == 0 && options.epoch_edges > 0) {
      EpochManifest manifest;
      manifest.num_workers = static_cast<std::uint32_t>(options.num_workers);
      manifest.stream_fingerprint = stream_fp;
      manifest.stream_length = edges.size();
      manifest.spec_fingerprint = spec_fp;
      manifest.epoch_edges = options.epoch_edges;
      for (const WorkerLaunch& launch : launches) {
        manifest.worker_ranges.push_back(launch.config.ranges);
        const std::string& ckpt = launch.config.checkpoint_path;
        manifest.checkpoint_files.push_back(
            ckpt.substr(DirName(ckpt).size() + 1));
      }
      std::string error;
      CHECK(SaveEpochManifest(options.shard_dir + "/epoch.manifest", manifest,
                              &error))
          << error;
    }

    std::vector<ShardState> states;
    RunWorkersToCompletion(launches, wave_specs, options, spec_path, &states,
                           &result.workers_launched,
                           &result.workers_recovered);

    std::vector<EdgeQuery> merged = MergeShardStates(wave_specs, states, {});
    FinalizeShardWave(admitted, wave, edges.size(), merged, result.outcomes,
                      stats);

    for (std::size_t slot : admitted) {
      controller.Release(specs[slot].space_budget_words);
      ++stats.queries_admitted;
    }
    pending = std::move(queued);
    ++wave;
  }
  stats.budget_peak_words = controller.peak_reserved_words();
  return result;
}

namespace {

std::string EncodeEpochManifest(const EpochManifest& manifest) {
  StateWriter h;
  h.U32(manifest.num_workers);
  h.U64(manifest.stream_fingerprint);
  h.U64(manifest.stream_length);
  h.U64(manifest.spec_fingerprint);
  h.U64(manifest.epoch_edges);
  h.Size(manifest.worker_ranges.size());
  for (const std::vector<ShardRange>& ranges : manifest.worker_ranges) {
    h.Size(ranges.size());
    for (const ShardRange& r : ranges) {
      h.U64(r.begin);
      h.U64(r.end);
    }
  }
  h.Size(manifest.checkpoint_files.size());
  for (const std::string& f : manifest.checkpoint_files) h.Str(f);
  std::string out;
  AppendFrame(&out, FrameType::kHeader, h.str());
  StateWriter f;
  f.U32(manifest.num_workers);
  AppendFrame(&out, FrameType::kFooter, f.str());
  return out;
}

}  // namespace

bool SaveEpochManifest(const std::string& path, const EpochManifest& manifest,
                       std::string* error) {
  // Durable atomic write (tmp + fsync + rename + parent-dir fsync): the
  // manifest is the recovery root — a crash must never leave it torn or
  // silently un-persisted.
  return io::WriteFileAtomic(path, EncodeEpochManifest(manifest), error);
}

bool LoadEpochManifest(const std::string& path, EpochManifest* manifest,
                       std::string* error) {
  std::string encoded;
  if (!io::ReadFileToString(path, &encoded, error)) return false;
  FrameCursor cursor(kFrameFormat, encoded, "epoch manifest", error);
  std::string_view payload;
  if (!cursor.Expect(FrameType::kHeader, &payload)) return false;
  EpochManifest out;
  StateReader r(payload);
  out.num_workers = r.U32();
  out.stream_fingerprint = r.U64();
  out.stream_length = r.U64();
  out.spec_fingerprint = r.U64();
  out.epoch_edges = r.U64();
  const std::size_t num_workers = r.Size();
  if (!r.ok() || num_workers != out.num_workers || num_workers == 0 ||
      num_workers > (std::size_t{1} << 20)) {
    return cursor.Fail("malformed (worker count)");
  }
  out.worker_ranges.resize(num_workers);
  for (std::vector<ShardRange>& ranges : out.worker_ranges) {
    const std::size_t n = r.Size();
    if (!r.ok() || n > r.Remaining() / 16 + 1) {
      return cursor.Fail("malformed (range count)");
    }
    for (std::size_t i = 0; i < n; ++i) {
      ShardRange range;
      range.begin = r.U64();
      range.end = r.U64();
      if (range.begin > range.end) {
        return cursor.Fail("malformed (inverted range)");
      }
      ranges.push_back(range);
    }
  }
  const std::size_t num_files = r.Size();
  if (!r.ok() || num_files != num_workers) {
    return cursor.Fail("malformed (checkpoint file count)");
  }
  for (std::size_t i = 0; i < num_files; ++i) {
    out.checkpoint_files.push_back(r.Str());
  }
  if (!r.AtEnd()) return cursor.Fail("malformed (trailing header bytes)");
  if (!cursor.Expect(FrameType::kFooter, &payload)) return false;
  StateReader f(payload);
  if (f.U32() != out.num_workers || !f.AtEnd()) {
    return cursor.Fail("footer disagrees with the header");
  }
  if (!cursor.Finish()) return false;
  *manifest = std::move(out);
  return true;
}

bool ResumeShardedBatch(const std::string& manifest_path,
                        const std::vector<QuerySpec>& specs,
                        std::span<const Edge> edges,
                        const ShardPlanOptions& options,
                        ShardBatchResult* result, std::string* error) {
  auto reject = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  CheckShardableSpecs(specs);
  IgnoreSigpipe();
  CHECK_GT(options.num_workers, 0);
  CHECK(!options.shard_dir.empty());

  EpochManifest manifest;
  if (!LoadEpochManifest(manifest_path, &manifest, error)) return false;
  if (manifest.stream_length != edges.size()) {
    return reject("epoch manifest is for a stream of " +
                  std::to_string(manifest.stream_length) + " edges, got " +
                  std::to_string(edges.size()));
  }
  const std::uint64_t stream_fp = FingerprintEdgeStream(edges);
  if (manifest.stream_fingerprint != stream_fp) {
    return reject("epoch manifest stream fingerprint mismatch");
  }

  ShardBatchResult out;
  out.resumed = true;
  out.outcomes.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) out.outcomes[i].spec = specs[i];

  // Replay admission. W-change restore is restricted to single-wave
  // batches: a queued query would belong to a wave whose workers never
  // started, and the manifest only describes wave 0.
  AdmissionController controller(options.budget);
  std::vector<std::size_t> admitted;
  for (std::size_t slot = 0; slot < specs.size(); ++slot) {
    switch (controller.Offer(specs[slot].space_budget_words)) {
      case AdmissionOutcome::kAdmitted:
        admitted.push_back(slot);
        break;
      case AdmissionOutcome::kQueued:
        return reject("batch is multi-wave (query '" + specs[slot].name +
                      "' queued); W-change restore only supports "
                      "single-wave batches");
      case AdmissionOutcome::kRejected:
        out.outcomes[slot].admission = AdmissionOutcome::kRejected;
        ++out.stats.queries_rejected;
        break;
    }
  }
  if (admitted.empty()) return reject("no queries admitted on resume");
  ++out.stats.waves;

  std::vector<QuerySpec> wave_specs;
  for (std::size_t slot : admitted) wave_specs.push_back(specs[slot]);
  const std::uint64_t spec_fp = FingerprintSpecs(wave_specs);
  if (spec_fp != manifest.spec_fingerprint) {
    return reject("epoch manifest was written for a different query set "
                  "(spec fingerprint mismatch)");
  }

  // Fold the surviving per-shard checkpoints (fixed shard order) as the
  // base state, and collect each shard's unprocessed leftover ranges.
  const std::string ckpt_dir = DirName(manifest_path);
  std::vector<EdgeQuery> base;
  for (const QuerySpec& spec : wave_specs) base.push_back(MakeEdgeQuery(spec));
  std::vector<ShardRange> leftovers;
  for (std::size_t s = 0; s < manifest.worker_ranges.size(); ++s) {
    const std::vector<ShardRange>& ranges = manifest.worker_ranges[s];
    std::uint64_t shard_done = 0;
    ShardState ckpt;
    std::string why;
    std::vector<EdgeQuery> restored;
    const std::string path = ckpt_dir + "/" + manifest.checkpoint_files[s];
    const ShardHeader& h = ckpt.header;
    if (!LoadShardState(path, &ckpt, &why)) {
      LOG(WARNING) << "shard " << s << ": no usable checkpoint (" << why
                   << "); its whole slice will be re-run";
    } else if (h.worker_id != s || h.num_workers != manifest.num_workers ||
               h.stream_fingerprint != stream_fp ||
               h.stream_length != edges.size() ||
               h.spec_fingerprint != spec_fp || h.ranges != ranges ||
               h.edges_done > TotalRangeEdges(ranges)) {
      LOG(WARNING) << "shard " << s
                   << ": checkpoint rejected on resume (header does not "
                      "match the manifest); its whole slice will be re-run";
    } else if (!RestoreShardQueries(wave_specs, ckpt, &restored, &why)) {
      // Every query restores before any merges: a blob RestoreState
      // refuses drops the whole checkpoint, never half of it.
      LOG(WARNING) << "shard " << s << ": checkpoint rejected on resume ("
                   << why << "); its whole slice will be re-run";
    } else {
      shard_done = h.edges_done;
      for (std::size_t qi = 0; qi < wave_specs.size(); ++qi) {
        CHECK(base[qi].algorithm->MergeFrom(*restored[qi].algorithm));
      }
    }
    const std::vector<ShardRange> left = AdvanceRanges(ranges, shard_done);
    leftovers.insert(leftovers.end(), left.begin(), left.end());
  }

  // Re-partition the leftovers among the new worker count; fresh
  // zero-state workers, no nested checkpointing. Merge order is fixed:
  // checkpoint base first, then workers 0..W'−1 — exact addition makes any
  // fixed order bit-identical to the unsharded run.
  const std::vector<std::vector<ShardRange>> assignments =
      SplitRangesAcross(leftovers, options.num_workers);

  std::string spec_path;
  if (options.launch == ShardLaunch::kSubprocess) {
    CHECK(!options.stream_path.empty());
    spec_path = options.shard_dir + "/resume.specs";
    std::string werr;
    CHECK(WriteSpecFile(spec_path, wave_specs, &werr)) << werr;
  }
  std::vector<WorkerLaunch> launches(assignments.size());
  for (std::size_t i = 0; i < launches.size(); ++i) {
    ShardWorkerConfig& c = launches[i].config;
    c.specs = wave_specs;
    c.edges = edges;
    c.ranges = assignments[i];
    c.worker_id = static_cast<std::uint32_t>(i);
    c.num_workers = static_cast<std::uint32_t>(options.num_workers);
    c.stream_fingerprint = stream_fp;
    c.spec_fingerprint = spec_fp;
    c.block_edges = options.block_edges;
    launches[i].state_path =
        options.shard_dir + "/resume-s" + std::to_string(i) + ".state";
  }
  std::vector<ShardState> states;
  RunWorkersToCompletion(launches, wave_specs, options, spec_path, &states,
                         &out.workers_launched, &out.workers_recovered);

  std::vector<EdgeQuery> merged =
      MergeShardStates(wave_specs, states, std::move(base));
  FinalizeShardWave(admitted, /*wave=*/0, edges.size(), merged, out.outcomes,
                    out.stats);
  for (std::size_t slot : admitted) {
    controller.Release(specs[slot].space_budget_words);
    ++out.stats.queries_admitted;
  }
  out.stats.budget_peak_words = controller.peak_reserved_words();
  *result = std::move(out);
  return true;
}

}  // namespace cyclestream::engine
