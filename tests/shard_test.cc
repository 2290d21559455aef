// Tests for the multi-process sharded engine (src/engine/shard,
// src/engine/coordinator): the frame protocol's strict decode, the
// contiguous partitioner, the worker loop's checkpoint/kill/resume
// behavior, and the coordinator's flagship contract — every estimate,
// outcome, and stats field bit-identical to the single-process broker at
// any worker count, including after killing a worker at every epoch
// boundary, and a worker that fails twice poisoning only its wave.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "engine/broker.h"
#include "engine/coordinator.h"
#include "engine/query.h"
#include "engine/shard.h"
#include "engine/spec.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "stream/checkpoint.h"
#include "stream/order.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "shard_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A 16-query arb-f2 sweep with mixed seeds, epsilons, and budgets (the
// budgets drive the admission edge cases under a capped controller).
std::vector<QuerySpec> MixedShardSpecs(VertexId num_vertices) {
  const double epsilons[] = {0.3, 0.4, 0.5, 0.6};
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 16; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kArbF2;
    spec.name = "arb-f2-" + std::to_string(i);
    spec.base.epsilon = epsilons[i % 4];
    spec.base.c = 1.0;
    spec.base.t_guess = 150.0;
    spec.base.seed = 300 + static_cast<std::uint64_t>(i);
    spec.num_vertices = num_vertices;
    spec.space_budget_words = 400 + 100 * static_cast<std::size_t>(i % 3);
    specs.push_back(std::move(spec));
  }
  return specs;
}

EdgeStream ShardStream(VertexId* num_vertices, std::size_t edges = 600) {
  Rng gen(31);
  EdgeList graph = PlantFourCycles(
      ErdosRenyiGnm(200, edges > 60 ? edges - 60 : edges, gen), 15, gen);
  *num_vertices = graph.num_vertices();
  Rng order(32);
  return MakeRandomOrderStream(graph, order);
}

// The oracle: the same specs through the single-process broker.
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
    // Bit-identical, not approximately equal: the merge path must perform
    // exactly the additions the unsharded pass performs.
    EXPECT_EQ(want[i].estimate.value, got[i].estimate.value);
    EXPECT_EQ(want[i].estimate.space_words, got[i].estimate.space_words);
    EXPECT_EQ(want[i].passes, got[i].passes);
    EXPECT_EQ(want[i].items_delivered, got[i].items_delivered);
    EXPECT_EQ(want[i].space_peak_components, got[i].space_peak_components);
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

// ---------------------------------------------------------------------------
// Frame protocol
// ---------------------------------------------------------------------------

TEST(FrameTest, RoundTripsMultipleFrames) {
  std::string buf;
  AppendFrame(&buf, FrameType::kHeader, "hdr");
  AppendFrame(&buf, FrameType::kQueryState, std::string("a\0b", 3));
  AppendFrame(&buf, FrameType::kFooter, "");

  std::size_t pos = 0;
  FrameType type;
  std::string_view payload;
  std::string error;
  ASSERT_TRUE(ReadFrame(buf, &pos, &type, &payload, &error)) << error;
  EXPECT_EQ(type, FrameType::kHeader);
  EXPECT_EQ(payload, "hdr");
  ASSERT_TRUE(ReadFrame(buf, &pos, &type, &payload, &error)) << error;
  EXPECT_EQ(type, FrameType::kQueryState);
  EXPECT_EQ(payload, std::string_view("a\0b", 3));
  ASSERT_TRUE(ReadFrame(buf, &pos, &type, &payload, &error)) << error;
  EXPECT_EQ(type, FrameType::kFooter);
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(pos, buf.size());
}

TEST(FrameTest, RejectsCorruptionEverywhere) {
  std::string clean;
  AppendFrame(&clean, FrameType::kHeader, "payload-bytes");

  // Flip every byte in turn: magic, type, size, CRC, and payload damage
  // must all be caught.
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string bad = clean;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    std::size_t pos = 0;
    FrameType type;
    std::string_view payload;
    std::string error;
    EXPECT_FALSE(ReadFrame(bad, &pos, &type, &payload, &error))
        << "byte " << i << " flipped but the frame still decoded";
    EXPECT_FALSE(error.empty());
  }

  // Truncation at every length.
  for (std::size_t len = 0; len < clean.size(); ++len) {
    std::size_t pos = 0;
    FrameType type;
    std::string_view payload;
    std::string error;
    EXPECT_FALSE(
        ReadFrame(std::string_view(clean).substr(0, len), &pos, &type,
                  &payload, &error))
        << "truncated to " << len << " bytes but still decoded";
  }
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

TEST(PartitionTest, ContiguousExhaustiveAndBalanced) {
  for (int w : {1, 2, 3, 7, 8}) {
    const std::vector<ShardRange> ranges = PartitionStream(100, w);
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(w));
    std::uint64_t expect_begin = 0;
    for (const ShardRange& r : ranges) {
      EXPECT_EQ(r.begin, expect_begin);
      expect_begin = r.end;
      EXPECT_GE(r.size(), 100u / static_cast<unsigned>(w));
      EXPECT_LE(r.size(), 100u / static_cast<unsigned>(w) + 1);
    }
    EXPECT_EQ(expect_begin, 100u);
  }
}

TEST(PartitionTest, MoreWorkersThanEdgesYieldsEmptyTails) {
  const std::vector<ShardRange> ranges = PartitionStream(5, 8);
  ASSERT_EQ(ranges.size(), 8u);
  EXPECT_EQ(TotalRangeEdges(ranges), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ranges[i].size(), 1u);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(ranges[i].size(), 0u);
}

TEST(PartitionTest, RangeListFormatRoundTrips) {
  const std::vector<ShardRange> ranges = {{0, 10}, {20, 25}, {30, 30}};
  std::vector<ShardRange> parsed;
  ASSERT_TRUE(ParseShardRanges(FormatShardRanges(ranges), &parsed));
  EXPECT_EQ(parsed, ranges);

  for (const char* bad :
       {"", "5", "5:", ":5", "5:4", "1:2,", ",1:2", "1:2,x:y", "1:2 ", "a"}) {
    std::vector<ShardRange> out;
    EXPECT_FALSE(ParseShardRanges(bad, &out)) << "'" << bad << "' parsed";
  }
}

// ---------------------------------------------------------------------------
// Shard state codec
// ---------------------------------------------------------------------------

ShardState SampleState() {
  ShardState state;
  state.header.worker_id = 2;
  state.header.num_workers = 4;
  state.header.stream_fingerprint = 0x1234567890abcdefULL;
  state.header.stream_length = 600;
  state.header.spec_fingerprint = 0xfeedfacecafef00dULL;
  state.header.edges_done = 150;
  state.header.epoch = 3;
  state.header.ranges = {{150, 300}};
  state.query_states.emplace_back("q0", std::string("\x01\x02\x03", 3));
  state.query_states.emplace_back("q1", std::string(200, 'z'));
  return state;
}

TEST(ShardStateTest, EncodeDecodeRoundTrips) {
  const ShardState state = SampleState();
  ShardState decoded;
  std::string error;
  ASSERT_TRUE(DecodeShardState(EncodeShardState(state), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.header, state.header);
  EXPECT_EQ(decoded.query_states, state.query_states);
}

TEST(ShardStateTest, EveryByteFlipIsRejectedWhole) {
  const std::string encoded = EncodeShardState(SampleState());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string bad = encoded;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    ShardState decoded;
    decoded.header.worker_id = 99;  // Sentinel: must stay untouched.
    std::string error;
    EXPECT_FALSE(DecodeShardState(bad, &decoded, &error))
        << "byte " << i << " flipped but the state still decoded";
    EXPECT_EQ(decoded.header.worker_id, 99u);
  }
}

TEST(ShardStateTest, RejectsTrailingBytesAndMissingFooter) {
  const ShardState state = SampleState();
  std::string encoded = EncodeShardState(state);
  ShardState decoded;
  std::string error;

  std::string trailing = encoded + "x";
  EXPECT_FALSE(DecodeShardState(trailing, &decoded, &error));

  // Drop the footer frame: truncation tripwire.
  std::string no_footer = encoded;
  StateWriter f;
  f.U32(2);
  std::string footer_frame;
  AppendFrame(&footer_frame, FrameType::kFooter, f.str());
  no_footer.resize(no_footer.size() - footer_frame.size());
  EXPECT_FALSE(DecodeShardState(no_footer, &decoded, &error));
}

TEST(ShardStateTest, SaveLoadIsAtomicAndStrict) {
  const std::string dir = TestDir("save_load");
  const std::string path = dir + "/state.bin";
  const ShardState state = SampleState();
  std::string error;
  ASSERT_TRUE(SaveShardState(path, state, &error)) << error;
  ShardState loaded;
  ASSERT_TRUE(LoadShardState(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.header, state.header);

  // A damaged file on disk is rejected, not half-loaded.
  std::string bytes = EncodeShardState(state);
  bytes[bytes.size() / 2] ^= 0x40;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_FALSE(LoadShardState(path, &loaded, &error));
  EXPECT_FALSE(LoadShardState(dir + "/missing.bin", &loaded, &error));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// "<length> bytes, crc <hex>" of an encoded artifact.
std::string Pin(std::string_view bytes) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(bytes));
  return std::to_string(bytes.size()) + " bytes, crc " + crc;
}

// The codec's output, pinned: shard 1 of a W = 2 run of two seeded
// arb-f2 queries over G(60, 0.2), with one epoch checkpoint, plus a
// CYCLSNP snapshot of query 0's final state. The frames were first pinned
// with a bytewise CRC-32 and a buffer-per-frame encoder, and the two state
// files' CRCs agree with zlib's crc32, so the lines hold the sliced CRC and
// the one-copy encode; ArbF2CounterTest pins the arbf2/2 blob inside them
// against a slot-by-slot encoder. Any change to a frame, the blob layout
// or the CRC changes one of these lines.
TEST(ShardStateTest, EncodedBytesArePinned) {
  Rng gen(41);
  const EdgeList graph = ErdosRenyiGnp(60, 0.2, gen);
  Rng order(42);
  const EdgeStream stream = MakeRandomOrderStream(graph, order);
  std::vector<QuerySpec> specs = MixedShardSpecs(graph.num_vertices());
  specs.resize(2);

  const std::string dir = TestDir("pinned");
  ShardWorkerConfig config;
  config.specs = specs;
  config.edges = stream;
  config.ranges = {PartitionStream(stream.size(), 2)[1]};
  config.worker_id = 1;
  config.num_workers = 2;
  config.stream_fingerprint = FingerprintEdgeStream(stream);
  config.spec_fingerprint = FingerprintSpecs(specs);
  config.epoch_edges = config.ranges[0].size() * 2 / 3;
  config.checkpoint_path = dir + "/w1.ckpt";
  std::string error;
  const ShardWorkerOutcome outcome =
      RunShardWorker(config, dir + "/w1.state", &error);
  ASSERT_TRUE(outcome.completed) << error;
  ASSERT_EQ(outcome.checkpoints_written, 1u);

  const std::string final_bytes = ReadBytes(dir + "/w1.state");
  ShardState final_state;
  ASSERT_TRUE(DecodeShardState(final_bytes, &final_state, &error)) << error;
  Snapshot snap;
  snap.algorithm_id = "arbf2/2";
  snap.stream_fingerprint = config.stream_fingerprint;
  snap.stream_length = stream.size();
  snap.pass = 1;
  snap.elements_processed = config.ranges[0].size();
  snap.state = final_state.query_states[0].second;

  EXPECT_EQ(stream.size(), 317u);
  EXPECT_EQ(Pin(ReadBytes(config.checkpoint_path)),
            "116962 bytes, crc 21125230");
  EXPECT_EQ(Pin(final_bytes), "116962 bytes, crc cd0bd315");
  EXPECT_EQ(Pin(EncodeSnapshot(snap)), "74661 bytes, crc dcc4249b");
}

// ---------------------------------------------------------------------------
// Coordinator: W=1 oracle and merge-order edge cases
// ---------------------------------------------------------------------------

ShardPlanOptions PlanFor(const std::string& dir, int workers) {
  ShardPlanOptions options;
  options.num_workers = workers;
  options.shard_dir = dir;
  return options;
}

TEST(CoordinatorTest, BitIdenticalToBrokerAtEveryWorkerCount) {
  VertexId n = 0;
  const EdgeStream stream = ShardStream(&n);
  const std::vector<QuerySpec> specs = MixedShardSpecs(n);

  // A capped controller so the 16-query sweep exercises queued waves and
  // rejects, not just a single wave.
  BudgetPolicy budget;
  budget.per_query_words = 550;   // Rejects the 600-word specs.
  budget.aggregate_words = 2000;  // Forces multiple waves.
  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, budget, &broker_stats);
  ASSERT_GT(broker_stats.waves, 1u);
  ASSERT_GT(broker_stats.queries_rejected, 0u);

  for (int w : {1, 2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    ShardPlanOptions options =
        PlanFor(TestDir("oracle_w" + std::to_string(w)), w);
    options.budget = budget;
    const ShardBatchResult result = RunShardedBatch(specs, stream, options);
    ExpectOutcomesIdentical(oracle, result.outcomes);
    ExpectStatsIdentical(broker_stats, result.stats);
    EXPECT_EQ(result.workers_recovered, 0u);
  }
}

TEST(CoordinatorTest, EmptyShardSlicesMergeAsIdentity) {
  // 5 edges, 8 workers: shards 5..7 process nothing and must merge as the
  // identity.
  VertexId n = 0;
  EdgeStream stream = ShardStream(&n);
  stream.resize(5);
  std::vector<QuerySpec> specs = MixedShardSpecs(n);
  specs.resize(3);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, BudgetPolicy(), &broker_stats);
  const ShardBatchResult result =
      RunShardedBatch(specs, stream, PlanFor(TestDir("empty_slice"), 8));
  ExpectOutcomesIdentical(oracle, result.outcomes);
  ExpectStatsIdentical(broker_stats, result.stats);
}

TEST(CoordinatorTest, EmptyStreamRuns) {
  VertexId n = 0;
  EdgeStream stream = ShardStream(&n);
  stream.clear();
  std::vector<QuerySpec> specs = MixedShardSpecs(n);
  specs.resize(2);

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, BudgetPolicy(), &broker_stats);
  const ShardBatchResult result =
      RunShardedBatch(specs, stream, PlanFor(TestDir("empty_stream"), 4));
  ExpectOutcomesIdentical(oracle, result.outcomes);
}

TEST(CoordinatorDeathTest, RejectsNonMergeableKinds) {
  VertexId n = 0;
  const EdgeStream stream = ShardStream(&n);
  QuerySpec spec;
  spec.kind = QueryKind::kTriest;
  spec.name = "t0";
  spec.reservoir_capacity = 100;
  EXPECT_DEATH(
      RunShardedBatch({spec}, stream, PlanFor(TestDir("nonmergeable"), 2)),
      "not shard-mergeable");
}

// ---------------------------------------------------------------------------
// Worker kill + in-wave recovery
// ---------------------------------------------------------------------------

TEST(CoordinatorTest, KilledWorkerRecoversAtEveryEpochBoundary) {
  VertexId n = 0;
  EdgeStream stream = ShardStream(&n);
  stream.resize(120);
  std::vector<QuerySpec> specs = MixedShardSpecs(n);
  specs.resize(4);
  for (QuerySpec& spec : specs) spec.space_budget_words = 0;

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, BudgetPolicy(), &broker_stats);

  const int workers = 3;  // 40 edges per shard.
  const std::uint64_t epoch = 16;
  for (int victim = 0; victim < workers; ++victim) {
    // Kill at every epoch boundary (multiples of `epoch`) and mid-epoch.
    for (std::uint64_t kill_at : {std::uint64_t{16}, std::uint64_t{32},
                                  std::uint64_t{7}, std::uint64_t{25}}) {
      SCOPED_TRACE("victim=" + std::to_string(victim) +
                   " kill_at=" + std::to_string(kill_at));
      ShardPlanOptions options = PlanFor(
          TestDir("kill_v" + std::to_string(victim) + "_e" +
                  std::to_string(kill_at)),
          workers);
      options.epoch_edges = epoch;
      options.kill_worker = victim;
      options.kill_after_edges = kill_at;
      const ShardBatchResult result = RunShardedBatch(specs, stream, options);
      EXPECT_EQ(result.workers_recovered, 1u);
      EXPECT_EQ(result.workers_launched,
                static_cast<std::uint64_t>(workers) + 1);
      ExpectOutcomesIdentical(oracle, result.outcomes);
      ExpectStatsIdentical(broker_stats, result.stats);
    }
  }
}

TEST(CoordinatorTest, KillWithoutCheckpointsRerunsTheShardFromScratch) {
  VertexId n = 0;
  EdgeStream stream = ShardStream(&n);
  stream.resize(90);
  std::vector<QuerySpec> specs = MixedShardSpecs(n);
  specs.resize(2);
  for (QuerySpec& spec : specs) spec.space_budget_words = 0;

  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, BudgetPolicy(), &broker_stats);

  ShardPlanOptions options = PlanFor(TestDir("kill_no_ckpt"), 3);
  options.kill_worker = 1;
  options.kill_after_edges = 11;  // No epoch cadence: recovery = full re-run.
  const ShardBatchResult result = RunShardedBatch(specs, stream, options);
  EXPECT_EQ(result.workers_recovered, 1u);
  ExpectOutcomesIdentical(oracle, result.outcomes);
}

TEST(CoordinatorTest, WorkerFailingTwicePoisonsOnlyItsWave) {
  VertexId n = 0;
  const EdgeStream stream = ShardStream(&n);
  const std::vector<QuerySpec> specs = MixedShardSpecs(n);
  BudgetPolicy budget;
  budget.aggregate_words = 2000;  // Several waves.
  EngineStats broker_stats;
  const std::vector<QueryOutcome> oracle =
      BrokerOracle(specs, stream, budget, &broker_stats);
  ASSERT_GT(broker_stats.waves, 1u);

  // A directory squats worker 1's wave-0 state path, so the atomic rename
  // fails on the first launch and on the recovery alike.
  const std::string dir = TestDir("fails_twice");
  std::filesystem::create_directories(dir + "/w0-s1.state/occupied");
  ShardPlanOptions options = PlanFor(dir, 2);
  options.budget = budget;
  const ShardBatchResult result = RunShardedBatch(specs, stream, options);
  EXPECT_EQ(result.workers_recovered, 1u);
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    SCOPED_TRACE(oracle[i].spec.name);
    EXPECT_EQ(result.outcomes[i].admission, oracle[i].admission);
    EXPECT_EQ(result.outcomes[i].wave, oracle[i].wave);
    if (oracle[i].admission != AdmissionOutcome::kAdmitted) continue;
    EXPECT_EQ(result.outcomes[i].poisoned, oracle[i].wave == 0);
    if (oracle[i].wave > 0) {
      EXPECT_EQ(result.outcomes[i].estimate.value, oracle[i].estimate.value);
    }
  }
}

// ---------------------------------------------------------------------------
// Worker loop details
// ---------------------------------------------------------------------------

TEST(ShardWorkerTest, WritesCheckpointsAtEveryEpochBoundary) {
  VertexId n = 0;
  EdgeStream stream = ShardStream(&n);
  stream.resize(100);
  std::vector<QuerySpec> specs = MixedShardSpecs(n);
  specs.resize(2);

  const std::string dir = TestDir("worker_epochs");
  ShardWorkerConfig config;
  config.specs = specs;
  config.edges = stream;
  config.ranges = {{0, 100}};
  config.stream_fingerprint = FingerprintEdgeStream(stream);
  config.spec_fingerprint = FingerprintSpecs(specs);
  config.block_edges = 7;  // Deliberately misaligned with the epoch.
  config.epoch_edges = 30;
  config.checkpoint_path = dir + "/w.ckpt";

  std::string error;
  const ShardWorkerOutcome outcome =
      RunShardWorker(config, dir + "/w.state", &error);
  ASSERT_TRUE(outcome.completed) << error;
  EXPECT_EQ(outcome.edges_done, 100u);
  EXPECT_EQ(outcome.checkpoints_written, 3u);  // At 30, 60, 90.

  ShardState ckpt;
  ASSERT_TRUE(LoadShardState(config.checkpoint_path, &ckpt, &error)) << error;
  EXPECT_EQ(ckpt.header.edges_done, 90u);
  EXPECT_EQ(ckpt.header.epoch, 3u);
  ShardState final_state;
  ASSERT_TRUE(LoadShardState(dir + "/w.state", &final_state, &error)) << error;
  EXPECT_EQ(final_state.header.edges_done, 100u);
}

TEST(ShardWorkerTest, ResumeFromRejectedCheckpointFallsBackToScratch) {
  VertexId n = 0;
  EdgeStream stream = ShardStream(&n);
  stream.resize(60);
  std::vector<QuerySpec> specs = MixedShardSpecs(n);
  specs.resize(2);

  const std::string dir = TestDir("worker_bad_resume");
  ShardWorkerConfig config;
  config.specs = specs;
  config.edges = stream;
  config.ranges = {{0, 60}};
  config.stream_fingerprint = FingerprintEdgeStream(stream);
  config.spec_fingerprint = FingerprintSpecs(specs);
  config.checkpoint_path = dir + "/w.ckpt";
  config.resume = true;

  // Garbage checkpoint on disk: the worker must warn, run from scratch,
  // and still complete.
  std::ofstream(config.checkpoint_path, std::ios::binary) << "not a frame";
  std::string error;
  const ShardWorkerOutcome outcome =
      RunShardWorker(config, dir + "/w.state", &error);
  ASSERT_TRUE(outcome.completed) << error;
  EXPECT_FALSE(outcome.resumed);
  EXPECT_EQ(outcome.edges_done, 60u);
}

// ---------------------------------------------------------------------------
// MergeFrom (the linearity primitive itself)
// ---------------------------------------------------------------------------

TEST(MergeFromTest, TwoHalvesMergeBitIdenticalToFullRun) {
  VertexId n = 0;
  const EdgeStream stream = ShardStream(&n);
  QuerySpec spec = MixedShardSpecs(n)[0];

  EdgeQuery full = MakeEdgeQuery(spec);
  full.algorithm->StartPass(0, stream.size());
  full.algorithm->ProcessEdgeBlock(0, stream, 0);
  full.algorithm->EndPass(0);

  const std::size_t half = stream.size() / 2;
  EdgeQuery lo = MakeEdgeQuery(spec);
  lo.algorithm->StartPass(0, stream.size());
  lo.algorithm->ProcessEdgeBlock(
      0, std::span<const Edge>(stream.data(), half), 0);
  lo.algorithm->EndPass(0);
  EdgeQuery hi = MakeEdgeQuery(spec);
  hi.algorithm->StartPass(0, stream.size());
  hi.algorithm->ProcessEdgeBlock(
      0, std::span<const Edge>(stream.data() + half, stream.size() - half),
      half);
  hi.algorithm->EndPass(0);

  ASSERT_TRUE(lo.algorithm->MergeFrom(*hi.algorithm));
  EXPECT_EQ(lo.result().value, full.result().value);
}

TEST(MergeFromTest, RejectsMismatchedConfigsAndForeignKinds) {
  VertexId n = 0;
  const EdgeStream stream = ShardStream(&n);
  const QuerySpec spec = MixedShardSpecs(n)[0];

  EdgeQuery a = MakeEdgeQuery(spec);
  QuerySpec other = spec;
  other.base.seed ^= 7;
  EdgeQuery b = MakeEdgeQuery(other);
  EXPECT_FALSE(a.algorithm->MergeFrom(*b.algorithm));

  QuerySpec triest;
  triest.kind = QueryKind::kTriest;
  triest.name = "t";
  triest.reservoir_capacity = 10;
  EdgeQuery c = MakeEdgeQuery(triest);
  EXPECT_FALSE(a.algorithm->MergeFrom(*c.algorithm));
  // The default implementation (non-mergeable kinds) always refuses.
  EXPECT_FALSE(c.algorithm->MergeFrom(*a.algorithm));
}

}  // namespace
}  // namespace cyclestream::engine
