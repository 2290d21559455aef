// Tests for the supervision layer (src/engine/supervisor): deterministic
// retry backoff, the daemon manifest codec, heartbeat append/read
// (including torn tails), wait-status decoding, and the supervised batch's
// flagship contracts — bit-identity with the single-process broker at any
// worker count, identity preserved across kill-injection retries, retry
// exhaustion poisoning only the wave (never the daemon), and drain/crash
// resume completing to the byte-identical result.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "engine/broker.h"
#include "engine/coordinator.h"
#include "engine/query.h"
#include "engine/shard.h"
#include "engine/spec.h"
#include "engine/supervisor.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "stream/checkpoint.h"
#include "stream/order.h"

namespace cyclestream::engine {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "supervisor_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Clears both drain latches on entry and exit so a drain test can never
// leak its request into a later test (the latches are process-global).
class DrainLatchGuard {
 public:
  DrainLatchGuard() { Reset(); }
  ~DrainLatchGuard() { Reset(); }

 private:
  static void Reset() {
    ClearSupervisorDrainRequest();
    ClearWorkerDrainRequest();
  }
};

// An 8-query arb-f2 batch whose budgets, under SupervisedBudget(), split
// into multiple waves with one queued tail and one reject.
std::vector<QuerySpec> SupervisedSpecs(VertexId num_vertices) {
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 8; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kArbF2;
    spec.name = "arb-f2-" + std::to_string(i);
    spec.base.epsilon = 0.3 + 0.1 * (i % 3);
    spec.base.c = 1.0;
    spec.base.t_guess = 150.0;
    spec.base.seed = 900 + static_cast<std::uint64_t>(i);
    spec.num_vertices = num_vertices;
    spec.space_budget_words = i == 7 ? 5000 : 400 + 100 * (i % 3);
    specs.push_back(std::move(spec));
  }
  return specs;
}

BudgetPolicy SupervisedBudget() {
  BudgetPolicy budget;
  budget.per_query_words = 700;   // Rejects the 5000-word spec.
  budget.aggregate_words = 1100;  // ~2 queries per wave.
  return budget;
}

EdgeStream SupervisorStream(VertexId* num_vertices) {
  Rng gen(47);
  EdgeList graph = PlantFourCycles(ErdosRenyiGnm(180, 500, gen), 12, gen);
  *num_vertices = graph.num_vertices();
  Rng order(48);
  return MakeRandomOrderStream(graph, order);
}

std::vector<QueryOutcome> BrokerOracle(const std::vector<QuerySpec>& specs,
                                       const EdgeStream& stream,
                                       const BudgetPolicy& budget,
                                       EngineStats* stats) {
  BrokerOptions options;
  options.budget = budget;
  StreamBroker broker(options);
  for (const QuerySpec& spec : specs) broker.AddQuery(spec);
  std::vector<QueryOutcome> outcomes = broker.RunEdgeQueries(stream);
  *stats = broker.stats();
  return outcomes;
}

void ExpectOutcomesIdentical(const std::vector<QueryOutcome>& want,
                             const std::vector<QueryOutcome>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(want[i].spec.name);
    EXPECT_EQ(want[i].admission, got[i].admission);
    EXPECT_EQ(want[i].wave, got[i].wave);
    EXPECT_FALSE(got[i].poisoned);
    // Bit-identical: supervision must only add recovery around the
    // workers, never perturb a single merged addition.
    EXPECT_EQ(want[i].estimate.value, got[i].estimate.value);
    EXPECT_EQ(want[i].estimate.space_words, got[i].estimate.space_words);
    EXPECT_EQ(want[i].passes, got[i].passes);
    EXPECT_EQ(want[i].items_delivered, got[i].items_delivered);
  }
}

void ExpectStatsIdentical(const EngineStats& want, const EngineStats& got) {
  EXPECT_EQ(want.source_items_read, got.source_items_read);
  EXPECT_EQ(want.items_delivered, got.items_delivered);
  EXPECT_EQ(want.physical_passes, got.physical_passes);
  EXPECT_EQ(want.waves, got.waves);
  EXPECT_EQ(want.queries_admitted, got.queries_admitted);
  EXPECT_EQ(want.queries_queued, got.queries_queued);
  EXPECT_EQ(want.queries_rejected, got.queries_rejected);
  EXPECT_EQ(want.budget_peak_words, got.budget_peak_words);
}

SupervisorOptions InProcessOptions(const std::string& dir, int workers) {
  SupervisorOptions options;
  options.plan.num_workers = workers;
  options.plan.shard_dir = dir;
  options.plan.budget = SupervisedBudget();
  options.plan.block_edges = 64;
  options.plan.epoch_edges = 50;
  options.sleep_in_backoff = false;  // Account, don't wall-clock-sleep.
  return options;
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

TEST(BackoffTest, DeterministicAndWithinJitterSpan) {
  RetryPolicy policy;
  policy.base_backoff_ms = 100;
  policy.backoff_cap_ms = 10000;
  policy.jitter_seed = 42;
  for (int attempt = 2; attempt <= 9; ++attempt) {
    SCOPED_TRACE("attempt=" + std::to_string(attempt));
    const std::uint64_t ms = ComputeBackoffMs(policy, 3, 1, attempt);
    // Same inputs, same backoff: retries are reproducible by design.
    EXPECT_EQ(ms, ComputeBackoffMs(policy, 3, 1, attempt));
    const std::uint64_t floor =
        std::min(policy.backoff_cap_ms,
                 policy.base_backoff_ms << (attempt - 2));
    EXPECT_GE(ms, floor);
    EXPECT_LE(ms, floor + policy.base_backoff_ms / 2);
  }
}

TEST(BackoffTest, CapsSaturatingShift) {
  RetryPolicy policy;
  policy.base_backoff_ms = 100;
  policy.backoff_cap_ms = 1500;
  // attempt 70 would shift by 68 — far past any representable doubling.
  const std::uint64_t ms = ComputeBackoffMs(policy, 0, 0, 70);
  EXPECT_GE(ms, policy.backoff_cap_ms);
  EXPECT_LE(ms, policy.backoff_cap_ms + policy.base_backoff_ms / 2);
}

TEST(BackoffTest, JitterDecorrelatesWorkers) {
  RetryPolicy policy;
  policy.base_backoff_ms = 1000;  // Jitter span [0, 500]: room to differ.
  std::set<std::uint64_t> seen;
  for (std::uint32_t worker = 0; worker < 8; ++worker) {
    seen.insert(ComputeBackoffMs(policy, 0, worker, 2));
  }
  EXPECT_GT(seen.size(), 1u) << "every worker drew the same jitter";
}

TEST(BackoffDeathTest, FirstLaunchHasNoBackoff) {
  EXPECT_DEATH(ComputeBackoffMs(RetryPolicy{}, 0, 0, 1),
               "backoff precedes a retry");
}

// ---------------------------------------------------------------------------
// Daemon manifest codec
// ---------------------------------------------------------------------------

DaemonManifest SampleManifest() {
  DaemonManifest m;
  m.stream_fingerprint = 0xDEADBEEFCAFEF00D;
  m.stream_length = 500;
  m.batch_spec_fingerprint = 0x1234567890ABCDEF;
  m.num_workers = 4;
  m.epoch_edges = 50;
  m.block_edges = 64;
  m.aggregate_words = 1100;
  m.per_query_words = 700;
  m.waves_started = 3;
  m.drained = 1;
  m.pending_slots = {4, 5, 6};
  return m;
}

TEST(DaemonManifestTest, RoundTrips) {
  const std::string dir = TestDir("manifest_roundtrip");
  const std::string path = DaemonManifestPath(dir);
  const DaemonManifest want = SampleManifest();
  std::string error;
  ASSERT_TRUE(SaveDaemonManifest(path, want, &error)) << error;

  DaemonManifest got;
  ASSERT_TRUE(LoadDaemonManifest(path, &got, &error)) << error;
  EXPECT_EQ(got.stream_fingerprint, want.stream_fingerprint);
  EXPECT_EQ(got.stream_length, want.stream_length);
  EXPECT_EQ(got.batch_spec_fingerprint, want.batch_spec_fingerprint);
  EXPECT_EQ(got.num_workers, want.num_workers);
  EXPECT_EQ(got.epoch_edges, want.epoch_edges);
  EXPECT_EQ(got.block_edges, want.block_edges);
  EXPECT_EQ(got.aggregate_words, want.aggregate_words);
  EXPECT_EQ(got.per_query_words, want.per_query_words);
  EXPECT_EQ(got.waves_started, want.waves_started);
  EXPECT_EQ(got.drained, want.drained);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.pending_slots, want.pending_slots);
}

TEST(DaemonManifestTest, EveryTruncationAndByteFlipIsRejected) {
  const std::string dir = TestDir("manifest_damage");
  const std::string path = DaemonManifestPath(dir);
  std::string error;
  ASSERT_TRUE(SaveDaemonManifest(path, SampleManifest(), &error)) << error;
  std::string encoded;
  {
    std::ifstream in(path, std::ios::binary);
    encoded.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(encoded.empty());

  const std::string damaged_path = dir + "/damaged.manifest";
  auto rejects = [&](const std::string& bytes) {
    std::ofstream out(damaged_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    DaemonManifest m;
    std::string err;
    return !LoadDaemonManifest(damaged_path, &m, &err);
  };
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_TRUE(rejects(encoded.substr(0, cut))) << "truncation at " << cut;
  }
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string flipped = encoded;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_TRUE(rejects(flipped)) << "byte flip at " << i;
  }
  EXPECT_TRUE(rejects(encoded + "x")) << "trailing garbage accepted";
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

TEST(HeartbeatTest, ReadsTheLastBeacon) {
  const std::string path = TestDir("heartbeat") + "/w0-s0.hb";
  HeartbeatRecord none;
  EXPECT_FALSE(ReadLastHeartbeat(path, &none));

  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    HeartbeatRecord hb;
    hb.worker_id = 2;
    hb.edges_done = 100 * seq;
    hb.seq = seq;
    ASSERT_TRUE(AppendHeartbeat(path, hb));
  }
  HeartbeatRecord last;
  ASSERT_TRUE(ReadLastHeartbeat(path, &last));
  EXPECT_EQ(last.worker_id, 2u);
  EXPECT_EQ(last.edges_done, 300u);
  EXPECT_EQ(last.seq, 3u);
}

TEST(HeartbeatTest, ToleratesATornTail) {
  const std::string path = TestDir("heartbeat_torn") + "/w0-s1.hb";
  HeartbeatRecord hb;
  hb.worker_id = 1;
  hb.edges_done = 64;
  hb.seq = 1;
  ASSERT_TRUE(AppendHeartbeat(path, hb));
  hb.edges_done = 128;
  hb.seq = 2;
  ASSERT_TRUE(AppendHeartbeat(path, hb));
  {
    // A worker SIGKILLed mid-append leaves a torn frame at the tail.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("CYSF\x04\x00\x00", 7);
  }
  HeartbeatRecord last;
  ASSERT_TRUE(ReadLastHeartbeat(path, &last));
  EXPECT_EQ(last.edges_done, 128u);
  EXPECT_EQ(last.seq, 2u);
}

// ---------------------------------------------------------------------------
// Wait-status decoding (satellite: signal vs exit vs sentinel)
// ---------------------------------------------------------------------------

int WaitForChild(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

TEST(WaitStatusTest, DistinguishesExitSignalAndSentinel) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) _exit(0);
  EXPECT_EQ(DescribeWaitStatus(WaitForChild(pid)), "exited 0");

  pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) _exit(kKilledExitCode);
  EXPECT_EQ(DescribeWaitStatus(WaitForChild(pid)),
            "exited 86 (fault-injection kill sentinel)");

  pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) _exit(kDrainExitCode);
  EXPECT_EQ(DescribeWaitStatus(WaitForChild(pid)),
            "exited 85 (drain acknowledged)");

  pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    raise(SIGKILL);
    _exit(1);
  }
  const std::string described = DescribeWaitStatus(WaitForChild(pid));
  EXPECT_NE(described.find("killed by signal 9"), std::string::npos)
      << described;
}

// ---------------------------------------------------------------------------
// Supervised batch: bit-identity with the broker
// ---------------------------------------------------------------------------

TEST(SupervisedBatchTest, BitIdenticalToBrokerAtEveryWorkerCount) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, SupervisedBudget(), &broker_stats);
  ASSERT_GT(broker_stats.waves, 1u);
  ASSERT_GT(broker_stats.queries_rejected, 0u);

  for (int w : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    SupervisorOptions options =
        InProcessOptions(TestDir("oracle_w" + std::to_string(w)), w);
    SupervisedBatchResult result;
    std::string error;
    ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &result, &error))
        << error;
    EXPECT_FALSE(result.drained);
    EXPECT_TRUE(result.poisoned_waves.empty());
    EXPECT_EQ(result.counters.retries, 0u);
    EXPECT_EQ(result.counters.waves_completed, broker_stats.waves);
    ExpectOutcomesIdentical(oracle, result.outcomes);
    ExpectStatsIdentical(broker_stats, result.stats);

    // The supervisor marked the batch complete in its manifest.
    DaemonManifest m;
    ASSERT_TRUE(LoadDaemonManifest(
        DaemonManifestPath(options.plan.shard_dir), &m, &error))
        << error;
    EXPECT_EQ(m.completed, 1);
    EXPECT_EQ(m.drained, 0);
    EXPECT_TRUE(m.pending_slots.empty());
  }
}

TEST(SupervisedBatchTest, KillInjectionRetriesToTheIdenticalResult) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, SupervisedBudget(), &broker_stats);

  // Kill worker 1 of 3 mid-epoch on its first attempt; the retry resumes
  // from its last epoch checkpoint and must land on the same bits.
  SupervisorOptions options = InProcessOptions(TestDir("kill_retry"), 3);
  options.plan.kill_worker = 1;
  options.plan.kill_after_edges = 55;
  SupervisedBatchResult result;
  std::string error;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &result, &error))
      << error;
  EXPECT_EQ(result.counters.retries, 1u);
  EXPECT_GT(result.counters.backoff_ms_total, 0u);
  EXPECT_TRUE(result.poisoned_waves.empty());
  ExpectOutcomesIdentical(oracle, result.outcomes);
  ExpectStatsIdentical(broker_stats, result.stats);
}

// ---------------------------------------------------------------------------
// Retry exhaustion: poison the wave, never the daemon
// ---------------------------------------------------------------------------

TEST(SupervisedBatchTest, RetryExhaustionPoisonsOnlyTheWave) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, SupervisedBudget(), &broker_stats);
  ASSERT_GT(broker_stats.waves, 1u);

  // One attempt, a guaranteed kill: wave 0 exhausts its budget instantly.
  SupervisorOptions options = InProcessOptions(TestDir("poison"), 2);
  options.retry.max_attempts = 1;
  options.plan.kill_worker = 0;
  options.plan.kill_after_edges = 55;
  SupervisedBatchResult result;
  std::string error;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &result, &error))
      << error;

  ASSERT_EQ(result.poisoned_waves, std::vector<int>{0});
  EXPECT_EQ(result.counters.waves_poisoned, 1u);
  EXPECT_EQ(result.counters.waves_completed, broker_stats.waves - 1);
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    SCOPED_TRACE(oracle[i].spec.name);
    EXPECT_EQ(result.outcomes[i].admission, oracle[i].admission);
    EXPECT_EQ(result.outcomes[i].wave, oracle[i].wave);
    if (oracle[i].wave == 0 &&
        oracle[i].admission == AdmissionOutcome::kAdmitted) {
      // The poisoned wave's slots: admitted, no estimate.
      EXPECT_TRUE(result.outcomes[i].poisoned);
    } else if (oracle[i].admission == AdmissionOutcome::kAdmitted) {
      // Later waves completed normally — bit-identical to the oracle, so
      // the poisoned wave's released reservations were accounted exactly.
      EXPECT_FALSE(result.outcomes[i].poisoned);
      EXPECT_EQ(result.outcomes[i].estimate.value, oracle[i].estimate.value);
    }
  }
}

// ---------------------------------------------------------------------------
// Drain + resume
// ---------------------------------------------------------------------------

TEST(SupervisedBatchTest, DrainBeforeLaunchThenResumeIsBitIdentical) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, SupervisedBudget(), &broker_stats);

  const std::string dir = TestDir("drain_resume");
  SupervisorOptions options = InProcessOptions(dir, 2);
  RequestSupervisorDrain();  // Latched before the run: drains at wave 0.
  SupervisedBatchResult drained;
  std::string error;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &drained, &error))
      << error;
  EXPECT_TRUE(drained.drained);
  EXPECT_EQ(drained.counters.drains, 1u);
  EXPECT_EQ(drained.counters.waves_completed, 0u);

  DaemonManifest m;
  ASSERT_TRUE(LoadDaemonManifest(DaemonManifestPath(dir), &m, &error))
      << error;
  EXPECT_EQ(m.drained, 1);
  EXPECT_EQ(m.completed, 0);
  EXPECT_EQ(m.waves_started, 1u);

  ClearSupervisorDrainRequest();
  ClearWorkerDrainRequest();
  options.resume = true;
  SupervisedBatchResult resumed;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &resumed, &error))
      << error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.drained);
  ExpectOutcomesIdentical(oracle, resumed.outcomes);
  ExpectStatsIdentical(broker_stats, resumed.stats);
}

TEST(SupervisedBatchTest, ResumeOfACompletedBatchRelaunchesNothing) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, SupervisedBudget(), &broker_stats);

  const std::string dir = TestDir("resume_complete");
  SupervisorOptions options = InProcessOptions(dir, 2);
  SupervisedBatchResult first;
  std::string error;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &first, &error))
      << error;
  ExpectOutcomesIdentical(oracle, first.outcomes);

  // Every wave's state files already validate: the resume collects them
  // all and launches zero workers.
  options.resume = true;
  SupervisedBatchResult resumed;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &resumed, &error))
      << error;
  EXPECT_EQ(resumed.counters.workers_launched, 0u);
  EXPECT_EQ(resumed.counters.states_collected, broker_stats.waves * 2);
  ExpectOutcomesIdentical(oracle, resumed.outcomes);
  ExpectStatsIdentical(broker_stats, resumed.stats);
}

// Emulates a daemon crash (SIGKILL — no drain manifest rewrite) at every
// wave frontier: the completed prefix's state files survive, later waves'
// are deleted, and the manifest says wave k was started. Resume must
// finish the batch bit-identically, relaunching only the missing work.
TEST(SupervisedBatchTest, CrashAtEveryWaveFrontierResumesBitIdentical) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);
  const int workers = 2;

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, SupervisedBudget(), &broker_stats);
  const auto waves = static_cast<int>(broker_stats.waves);
  ASSERT_GT(waves, 1);

  // Pending slots after wave k = every slot the broker placed in a later
  // wave (ascending — the supervisor scans pending in slot order).
  auto pending_after = [&](int k) {
    std::vector<std::uint64_t> pending;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      if (oracle[i].admission == AdmissionOutcome::kAdmitted &&
          oracle[i].wave > k) {
        pending.push_back(i);
      }
    }
    return pending;
  };

  // A full golden run supplies the surviving state files.
  const std::string golden_dir = TestDir("crash_golden");
  SupervisorOptions golden_options = InProcessOptions(golden_dir, workers);
  SupervisedBatchResult golden;
  std::string error;
  ASSERT_TRUE(
      RunSupervisedBatch(specs, stream, golden_options, &golden, &error))
      << error;

  for (int crash_wave = 0; crash_wave < waves; ++crash_wave) {
    SCOPED_TRACE("crash at wave " + std::to_string(crash_wave));
    const std::string dir =
        TestDir("crash_w" + std::to_string(crash_wave));
    // State files for waves before the crash survive; the crashed wave
    // and everything later never ran.
    for (int wave = 0; wave < crash_wave; ++wave) {
      for (int s = 0; s < workers; ++s) {
        std::string name = "w";
        name += std::to_string(wave);
        name += "-s";
        name += std::to_string(s);
        name += ".state";
        std::filesystem::copy_file(golden_dir + "/" + name,
                                   dir + "/" + name);
      }
    }
    DaemonManifest crash;
    crash.stream_fingerprint = FingerprintEdgeStream(stream);
    crash.stream_length = stream.size();
    crash.batch_spec_fingerprint = FingerprintSpecs(specs);
    crash.num_workers = workers;
    crash.epoch_edges = golden_options.plan.epoch_edges;
    crash.block_edges = golden_options.plan.block_edges;
    crash.aggregate_words = golden_options.plan.budget.aggregate_words;
    crash.per_query_words = golden_options.plan.budget.per_query_words;
    crash.waves_started = static_cast<std::uint32_t>(crash_wave) + 1;
    crash.pending_slots = pending_after(crash_wave);
    ASSERT_TRUE(SaveDaemonManifest(DaemonManifestPath(dir), crash, &error))
        << error;

    SupervisorOptions options = InProcessOptions(dir, workers);
    options.resume = true;
    SupervisedBatchResult resumed;
    ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &resumed, &error))
        << error;
    EXPECT_TRUE(resumed.resumed);
    // Only the crashed-and-later waves launch workers.
    EXPECT_EQ(resumed.counters.workers_launched,
              static_cast<std::uint64_t>(waves - crash_wave) * workers);
    ExpectOutcomesIdentical(oracle, resumed.outcomes);
    ExpectStatsIdentical(broker_stats, resumed.stats);
  }
}

TEST(SupervisedBatchTest, ResumeRelaunchesOnlyTheMissingShard) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, SupervisedBudget(), &broker_stats);

  const std::string dir = TestDir("partial_wave");
  SupervisorOptions options = InProcessOptions(dir, 2);
  SupervisedBatchResult first;
  std::string error;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &first, &error))
      << error;

  // Lose one shard of wave 0: the resume recollects everything else and
  // re-runs just that slice.
  ASSERT_TRUE(std::filesystem::remove(dir + "/w0-s1.state"));
  options.resume = true;
  SupervisedBatchResult resumed;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &resumed, &error))
      << error;
  EXPECT_EQ(resumed.counters.workers_launched, 1u);
  ExpectOutcomesIdentical(oracle, resumed.outcomes);
  ExpectStatsIdentical(broker_stats, resumed.stats);
}

// Rewrites the shard state file at `path` with query 1's first accumulator
// slot forged to −32,768 in its int16 arb-f2 blob: frames and CRCs valid,
// but RestoreState refuses the blob. Query 0 restores fine, so a reader
// that restored query by query would take half the file.
void ForgeRefusedBlob(const std::string& path) {
  ShardState forged;
  std::string error;
  ASSERT_TRUE(LoadShardState(path, &forged, &error)) << error;
  ASSERT_GE(forged.query_states.size(), 2u);
  std::string& blob = forged.query_states[1].second;
  const std::size_t tag = 4 + 5 * 8;  // After the config fields.
  const std::size_t first_slot = tag + 1 + 8;  // After the slot count.
  ASSERT_GT(blob.size(), first_slot + 2);
  ASSERT_EQ(blob[tag], 0) << "expected an int16 blob";
  blob[first_slot] = 0x00;
  blob[first_slot + 1] = static_cast<char>(0x80);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << EncodeShardState(forged);
  ASSERT_TRUE(LoadShardState(path, &forged, &error)) << error;
}

TEST(SupervisedBatchTest, ResumeDropsACheckpointWhoseBlobIsRefused) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, SupervisedBudget(), &broker_stats);

  const std::string dir = TestDir("refused_blob");
  SupervisorOptions options = InProcessOptions(dir, 2);
  SupervisedBatchResult first;
  std::string error;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &first, &error))
      << error;

  // Lose shard 1's wave-0 state and forge its checkpoint: a worker that
  // restored query by query would resume half its queries mid-slice.
  ASSERT_TRUE(std::filesystem::remove(dir + "/w0-s1.state"));
  ShardState checkpoint;
  ASSERT_TRUE(LoadShardState(dir + "/w0-s1.ckpt", &checkpoint, &error))
      << error;
  ASSERT_GT(checkpoint.header.edges_done, 0u);
  ForgeRefusedBlob(dir + "/w0-s1.ckpt");

  options.resume = true;
  SupervisedBatchResult resumed;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &resumed, &error))
      << error;
  EXPECT_EQ(resumed.counters.workers_launched, 1u);
  ExpectOutcomesIdentical(oracle, resumed.outcomes);
  ExpectStatsIdentical(broker_stats, resumed.stats);
}

// A final state file whose header matches its launch but whose blob
// RestoreState refuses is not collected: the worker is relaunched (from
// its checkpoint) instead of the fold aborting on the blob.
TEST(SupervisedBatchTest, ResumeRelaunchesAWorkerWhoseFinalBlobIsRefused) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, SupervisedBudget(), &broker_stats);

  const std::string dir = TestDir("refused_final_blob");
  SupervisorOptions options = InProcessOptions(dir, 2);
  SupervisedBatchResult first;
  std::string error;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &first, &error))
      << error;
  ForgeRefusedBlob(dir + "/w0-s1.state");

  options.resume = true;
  SupervisedBatchResult resumed;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &resumed, &error))
      << error;
  EXPECT_EQ(resumed.counters.workers_launched, 1u);
  ExpectOutcomesIdentical(oracle, resumed.outcomes);
  ExpectStatsIdentical(broker_stats, resumed.stats);
}

TEST(SupervisedBatchTest, ResumeValidatesManifestAgainstTheBatch) {
  DrainLatchGuard guard;
  VertexId n = 0;
  const EdgeStream stream = SupervisorStream(&n);
  const std::vector<QuerySpec> specs = SupervisedSpecs(n);

  const std::string dir = TestDir("resume_reject");
  SupervisorOptions options = InProcessOptions(dir, 2);
  SupervisedBatchResult result;
  std::string error;
  ASSERT_TRUE(RunSupervisedBatch(specs, stream, options, &result, &error))
      << error;
  options.resume = true;

  {
    // A different stream under the same manifest.
    EdgeStream other = stream;
    other.pop_back();
    SupervisedBatchResult r;
    std::string err;
    EXPECT_FALSE(RunSupervisedBatch(specs, other, options, &r, &err));
    EXPECT_NE(err.find("different stream"), std::string::npos) << err;
  }
  {
    // A different query batch.
    std::vector<QuerySpec> other = specs;
    other[0].base.seed ^= 1;
    SupervisedBatchResult r;
    std::string err;
    EXPECT_FALSE(RunSupervisedBatch(other, stream, options, &r, &err));
    EXPECT_NE(err.find("spec fingerprint"), std::string::npos) << err;
  }
  {
    // A different execution plan (worker count).
    SupervisorOptions other = options;
    other.plan.num_workers = 3;
    SupervisedBatchResult r;
    std::string err;
    EXPECT_FALSE(RunSupervisedBatch(specs, stream, other, &r, &err));
    EXPECT_NE(err.find("execution plan mismatch"), std::string::npos) << err;
  }
  {
    // No manifest at all.
    SupervisorOptions other = options;
    other.plan.shard_dir = TestDir("resume_reject_empty");
    SupervisedBatchResult r;
    std::string err;
    EXPECT_FALSE(RunSupervisedBatch(specs, stream, other, &r, &err));
  }
}

}  // namespace
}  // namespace cyclestream::engine
