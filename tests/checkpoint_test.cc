#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "baselines/triest.h"
#include "core/arb_f2_counter.h"
#include "core/arb_three_pass.h"
#include "core/diamond_counter.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "hash/rng.h"
#include "sketch/reservoir.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/fault.h"
#include "stream/order.h"
#include "tests/test_util.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

Snapshot SampleSnapshot() {
  Snapshot snap;
  snap.algorithm_id = "test/1";
  snap.stream_kind = 0;
  snap.stream_fingerprint = 0x1234567890abcdefULL;
  snap.stream_length = 100;
  snap.pass = 1;
  snap.position = 42;
  snap.elements_processed = 142;
  snap.state = std::string("\x01\x02\x03\x04 state bytes", 17);
  return snap;
}

TEST(Crc32Test, KnownVector) {
  // The IEEE 802.3 check value for the standard "123456789" test string.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(SnapshotCodecTest, RoundTrip) {
  const Snapshot snap = SampleSnapshot();
  const std::string encoded = EncodeSnapshot(snap);
  std::string error;
  auto decoded = DecodeSnapshot(encoded, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->algorithm_id, snap.algorithm_id);
  EXPECT_EQ(decoded->stream_kind, snap.stream_kind);
  EXPECT_EQ(decoded->stream_fingerprint, snap.stream_fingerprint);
  EXPECT_EQ(decoded->stream_length, snap.stream_length);
  EXPECT_EQ(decoded->pass, snap.pass);
  EXPECT_EQ(decoded->position, snap.position);
  EXPECT_EQ(decoded->elements_processed, snap.elements_processed);
  EXPECT_EQ(decoded->state, snap.state);
}

// The restore-safety contract: a snapshot with ANY byte damaged must be
// rejected. Header bytes are caught by field validation, payload bytes by
// the CRC; this sweep proves there is no undetected offset.
TEST(SnapshotCodecTest, EveryByteFlipIsRejected) {
  const std::string encoded = EncodeSnapshot(SampleSnapshot());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string damaged = encoded;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x5a);
    std::string error;
    EXPECT_FALSE(DecodeSnapshot(damaged, &error).has_value())
        << "byte flip at offset " << i << " was not detected";
    EXPECT_FALSE(error.empty());
  }
}

TEST(SnapshotCodecTest, EveryTruncationIsRejected) {
  const std::string encoded = EncodeSnapshot(SampleSnapshot());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    std::string error;
    EXPECT_FALSE(
        DecodeSnapshot(std::string_view(encoded).substr(0, len), &error)
            .has_value())
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST(SnapshotCodecTest, VersionMismatchIsRejected) {
  std::string encoded = EncodeSnapshot(SampleSnapshot());
  // The version field is the u32 after the 8-byte magic; it is validated
  // directly (not CRC-covered), so patch it in place.
  encoded[8] = static_cast<char>(kSnapshotVersion + 1);
  std::string error;
  EXPECT_FALSE(DecodeSnapshot(encoded, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SnapshotFileTest, FailedWriteKeepsPreviousSnapshot) {
  const std::string dir = MakeTempDir("ckpt_atomic");
  const std::string path = dir + "/snap.ckpt";
  Snapshot first = SampleSnapshot();
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, first, &error)) << error;

  Snapshot second = SampleSnapshot();
  second.position = 99;
  WriteFault fault;
  fault.fail_io = true;
  EXPECT_FALSE(SaveSnapshot(path, second, &error, &fault));

  auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->position, first.position);
}

TEST(SnapshotFileTest, CorruptAndTruncatedFilesAreRejected) {
  const std::string dir = MakeTempDir("ckpt_damage");
  std::string error;
  const std::string encoded = EncodeSnapshot(SampleSnapshot());
  for (std::size_t offset : {std::size_t{0}, std::size_t{9},
                             std::size_t{24}, encoded.size() - 1}) {
    const std::string path = dir + "/corrupt.ckpt";
    WriteFault fault;
    fault.corrupt_byte = static_cast<std::int64_t>(offset);
    ASSERT_TRUE(SaveSnapshot(path, SampleSnapshot(), &error, &fault));
    EXPECT_FALSE(LoadSnapshot(path, &error).has_value())
        << "corruption at byte " << offset << " was not detected";
  }
  for (std::size_t size : {std::size_t{0}, std::size_t{10},
                           encoded.size() / 2, encoded.size() - 1}) {
    const std::string path = dir + "/truncated.ckpt";
    WriteFault fault;
    fault.truncate_to = static_cast<std::int64_t>(size);
    ASSERT_TRUE(SaveSnapshot(path, SampleSnapshot(), &error, &fault));
    EXPECT_FALSE(LoadSnapshot(path, &error).has_value())
        << "truncation to " << size << " bytes was not detected";
  }
  EXPECT_FALSE(LoadSnapshot(dir + "/missing.ckpt", &error).has_value());
}

TEST(FaultPlanTest, KillPointIsDeterministicAndInRange) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const std::uint64_t a = FaultPlan::PickKillPoint(seed, 360);
    const std::uint64_t b = FaultPlan::PickKillPoint(seed, 360);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 1u);
    EXPECT_LE(a, 360u);
  }
}

TEST(ReservoirTest, OfferReportsEvictedItem) {
  // Capacity 1 makes the eviction observable: whenever Add evicts, the
  // evicted item must be the (single) previous occupant.
  Reservoir<int> res(1, Rng(17));
  auto first = res.Add(1000);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(first.evicted);
  EXPECT_FALSE(first.evicted_item.has_value());
  int current = 1000;
  bool saw_eviction = false;
  for (int v = 1001; v < 1100; ++v) {
    const auto offer = res.Add(v);
    EXPECT_EQ(offer.evicted, offer.evicted_item.has_value());
    if (offer.evicted) {
      saw_eviction = true;
      EXPECT_EQ(*offer.evicted_item, current);
      EXPECT_TRUE(offer.inserted);
      current = v;
    }
    ASSERT_EQ(res.items().size(), 1u);
    EXPECT_EQ(res.items()[0], current);
  }
  EXPECT_TRUE(saw_eviction);
}

TEST(ReservoirTest, SaveRestoreContinuesIdentically) {
  Reservoir<int> original(8, Rng(5));
  for (int v = 0; v < 50; ++v) original.Add(v);

  StateWriter w;
  original.SaveState(w, [](StateWriter& sw, int v) { sw.I64(v); });
  const std::string blob = w.Take();

  Reservoir<int> restored(8, Rng(5));
  StateReader r(blob);
  ASSERT_TRUE(restored.RestoreState(
      r, [](StateReader& sr) { return static_cast<int>(sr.I64()); }));
  ASSERT_TRUE(r.AtEnd());

  for (int v = 50; v < 200; ++v) {
    original.Add(v);
    restored.Add(v);
  }
  EXPECT_EQ(original.seen(), restored.seen());
  EXPECT_EQ(original.items(), restored.items());
}

TEST(ReservoirTest, RestoreRejectsCapacityMismatch) {
  Reservoir<int> original(8, Rng(5));
  original.Add(1);
  StateWriter w;
  original.SaveState(w, [](StateWriter& sw, int v) { sw.I64(v); });
  const std::string blob = w.Take();

  Reservoir<int> other(16, Rng(5));
  StateReader r(blob);
  EXPECT_FALSE(other.RestoreState(
      r, [](StateReader& sr) { return static_cast<int>(sr.I64()); }));
  EXPECT_EQ(other.items().size(), 0u);
}

// ---------------------------------------------------------------------------
// Crash/resume property tests
// ---------------------------------------------------------------------------

ArbThreePassFourCycleCounter::Params ArbParams(VertexId n) {
  ArbThreePassFourCycleCounter::Params params;
  params.base.epsilon = 0.5;
  params.base.t_guess = 64.0;
  params.base.seed = 11;
  params.num_vertices = n;
  return params;
}

// Sweeps EVERY kill point of a (small) E8-style three-pass run: kill after
// element k, resume from the last checkpoint, and require the resumed
// estimate and space audit to be bit-identical to the uninterrupted golden
// run. This is the in-process version of the CI crash-resume smoke job.
TEST(CrashResumeTest, EveryKillPointResumesBitIdenticalArbThreePass) {
  Rng gen_rng(7);
  const EdgeList graph = ErdosRenyiGnm(36, 90, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(9);
  order_rng.Shuffle(stream);

  ArbThreePassFourCycleCounter golden(ArbParams(graph.num_vertices()));
  RunEdgeStream(golden, stream);
  const double golden_value = golden.Result().value;
  const std::size_t golden_space = golden.Result().space_words;
  const std::size_t golden_audit = golden.AuditSpace();

  const std::string dir = MakeTempDir("crash_resume_arb3");
  const std::uint64_t total = 3 * stream.size();
  for (std::uint64_t kill = 1; kill < total; ++kill) {
    ArbThreePassFourCycleCounter victim(ArbParams(graph.num_vertices()));
    CheckpointPolicy policy;
    policy.directory = dir;
    policy.every_elements = 1;
    FaultPlan faults;
    faults.KillAfterElements(kill);
    RunOptions kill_options;
    kill_options.checkpoint = &policy;
    kill_options.faults = &faults;
    const RunOutcome killed = RunEdgeStream(victim, stream, kill_options);
    ASSERT_FALSE(killed.completed);
    // every_elements=1 writes one snapshot per element, plus one extra at
    // each pass boundary crossed (at_pass_end defaults on).
    ASSERT_GE(killed.checkpoints_written, kill);
    ASSERT_FALSE(killed.checkpoint_path.empty());

    ArbThreePassFourCycleCounter resumed(ArbParams(graph.num_vertices()));
    RunOptions resume_options;
    resume_options.resume_from = killed.checkpoint_path;
    const RunOutcome outcome = RunEdgeStream(resumed, stream, resume_options);
    ASSERT_TRUE(outcome.resumed) << "kill point " << kill;
    ASSERT_TRUE(outcome.completed);
    // EXPECT_EQ on doubles is exact (bitwise for non-NaN): the resumed run
    // must reproduce the golden estimate to the last bit, not approximately.
    EXPECT_EQ(resumed.Result().value, golden_value) << "kill point " << kill;
    EXPECT_EQ(resumed.Result().space_words, golden_space)
        << "kill point " << kill;
    EXPECT_EQ(resumed.AuditSpace(), golden_audit) << "kill point " << kill;
  }
}

DiamondFourCycleCounter::Params DiamondParams(VertexId n) {
  DiamondFourCycleCounter::Params params;
  params.base.epsilon = 0.5;
  params.base.t_guess = 64.0;
  params.base.seed = 23;
  params.num_vertices = n;
  return params;
}

// Same sweep for the adjacency-list model (E5-style diamond counter),
// covering the ProcessList driver path and the heavier diamond state.
TEST(CrashResumeTest, EveryKillPointResumesBitIdenticalDiamond) {
  Rng gen_rng(13);
  const EdgeList graph = ErdosRenyiGnm(24, 72, gen_rng);
  const Graph g(graph);
  Rng order_rng(15);
  const AdjacencyStream stream = MakeAdjacencyStream(g, order_rng);

  DiamondFourCycleCounter golden(DiamondParams(g.num_vertices()));
  RunAdjacencyStream(golden, stream);
  const double golden_value = golden.Result().value;
  const std::size_t golden_audit = golden.AuditSpace();

  const std::string dir = MakeTempDir("crash_resume_diamond");
  const std::uint64_t total = 2 * stream.size();
  for (std::uint64_t kill = 1; kill < total; ++kill) {
    DiamondFourCycleCounter victim(DiamondParams(g.num_vertices()));
    CheckpointPolicy policy;
    policy.directory = dir;
    policy.every_elements = 1;
    FaultPlan faults;
    faults.KillAfterElements(kill);
    RunOptions kill_options;
    kill_options.checkpoint = &policy;
    kill_options.faults = &faults;
    const RunOutcome killed = RunAdjacencyStream(victim, stream, kill_options);
    ASSERT_FALSE(killed.completed);
    ASSERT_FALSE(killed.checkpoint_path.empty());

    DiamondFourCycleCounter resumed(DiamondParams(g.num_vertices()));
    RunOptions resume_options;
    resume_options.resume_from = killed.checkpoint_path;
    const RunOutcome outcome =
        RunAdjacencyStream(resumed, stream, resume_options);
    ASSERT_TRUE(outcome.resumed) << "kill point " << kill;
    EXPECT_EQ(resumed.Result().value, golden_value) << "kill point " << kill;
    EXPECT_EQ(resumed.AuditSpace(), golden_audit) << "kill point " << kill;
  }
}

// Flips every byte of a real mid-run snapshot and requires the resume to be
// rejected — with the run falling back to a from-scratch execution that
// still produces the golden result. Never a partial or silent restore.
TEST(CrashResumeTest, CorruptSnapshotAlwaysRejectedWithScratchFallback) {
  Rng gen_rng(7);
  const EdgeList graph = ErdosRenyiGnm(20, 40, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(9);
  order_rng.Shuffle(stream);

  ArbThreePassFourCycleCounter golden(ArbParams(graph.num_vertices()));
  RunEdgeStream(golden, stream);
  const double golden_value = golden.Result().value;

  // Take one snapshot mid-pass-1 (after half the elements).
  const std::string dir = MakeTempDir("crash_resume_corrupt");
  ArbThreePassFourCycleCounter victim(ArbParams(graph.num_vertices()));
  CheckpointPolicy policy;
  policy.directory = dir;
  policy.every_elements = 1;
  FaultPlan faults;
  faults.KillAfterElements(stream.size() + stream.size() / 2);
  RunOptions kill_options;
  kill_options.checkpoint = &policy;
  kill_options.faults = &faults;
  const RunOutcome killed = RunEdgeStream(victim, stream, kill_options);
  ASSERT_FALSE(killed.completed);

  std::string encoded;
  {
    std::ifstream in(killed.checkpoint_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    encoded = buf.str();
  }
  ASSERT_FALSE(encoded.empty());

  // Sampling every byte keeps the test fast while still covering the
  // header, the length fields, the CRC, and the state blob.
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string damaged = encoded;
    damaged[i] = static_cast<char>(damaged[i] ^ 0xff);
    const std::string path = dir + "/damaged.ckpt";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(),
                static_cast<std::streamsize>(damaged.size()));
    }
    ArbThreePassFourCycleCounter resumed(ArbParams(graph.num_vertices()));
    RunOptions resume_options;
    resume_options.resume_from = path;
    const RunOutcome outcome = RunEdgeStream(resumed, stream, resume_options);
    ASSERT_TRUE(outcome.resume_rejected)
        << "byte flip at offset " << i << " was restored";
    ASSERT_FALSE(outcome.resumed);
    // Fallback ran from scratch and is still correct.
    ASSERT_EQ(resumed.Result().value, golden_value);
  }
}

// Cross-configuration rejects: a snapshot must only restore into the exact
// (algorithm, params, stream) it was taken from.
TEST(CrashResumeTest, MismatchedResumeIsRejected) {
  Rng gen_rng(7);
  const EdgeList graph = ErdosRenyiGnm(20, 40, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(9);
  order_rng.Shuffle(stream);

  const std::string dir = MakeTempDir("crash_resume_mismatch");
  ArbThreePassFourCycleCounter victim(ArbParams(graph.num_vertices()));
  CheckpointPolicy policy;
  policy.directory = dir;
  policy.every_elements = 1;
  FaultPlan faults;
  faults.KillAfterElements(stream.size() / 2);
  RunOptions kill_options;
  kill_options.checkpoint = &policy;
  kill_options.faults = &faults;
  const RunOutcome killed = RunEdgeStream(victim, stream, kill_options);
  ASSERT_FALSE(killed.completed);

  // Different seed: config fingerprint inside the state blob must reject.
  {
    auto params = ArbParams(graph.num_vertices());
    params.base.seed = 999;
    ArbThreePassFourCycleCounter other(params);
    RunOptions options;
    options.resume_from = killed.checkpoint_path;
    const RunOutcome outcome = RunEdgeStream(other, stream, options);
    EXPECT_TRUE(outcome.resume_rejected);
    EXPECT_FALSE(outcome.resumed);
  }
  // Different stream order: the stream fingerprint must reject.
  {
    EdgeStream other_stream = graph.edges();
    Rng other_rng(1234);
    other_rng.Shuffle(other_stream);
    ASSERT_NE(other_stream, stream);
    ArbThreePassFourCycleCounter other(ArbParams(graph.num_vertices()));
    RunOptions options;
    options.resume_from = killed.checkpoint_path;
    const RunOutcome outcome = RunEdgeStream(other, other_stream, options);
    EXPECT_TRUE(outcome.resume_rejected);
  }
  // Different algorithm: the algorithm id must reject.
  {
    Triest::Params params;
    params.reservoir_capacity = 16;
    params.seed = 11;
    Triest other(params);
    RunOptions options;
    options.resume_from = killed.checkpoint_path;
    const RunOutcome outcome = RunEdgeStream(other, stream, options);
    EXPECT_TRUE(outcome.resume_rejected);
  }
}

ArbF2FourCycleCounter::Params ArbF2Params(VertexId n) {
  ArbF2FourCycleCounter::Params params;
  params.base.epsilon = 0.5;
  params.base.t_guess = 64.0;
  params.base.seed = 29;
  params.num_vertices = n;
  return params;
}

// Kill-point sweep for arb-f2: every resumed estimate must match the
// uninterrupted golden run bit for bit.
TEST(CrashResumeTest, EveryKillPointResumesBitIdenticalArbF2) {
  Rng gen_rng(19);
  const EdgeList graph = ErdosRenyiGnm(24, 60, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(20);
  order_rng.Shuffle(stream);

  ArbF2FourCycleCounter golden(ArbF2Params(graph.num_vertices()));
  RunEdgeStream(golden, stream);
  const double golden_value = golden.Result().value;
  const std::size_t golden_space = golden.Result().space_words;

  const std::string dir = MakeTempDir("crash_resume_sharded_arbf2");
  for (std::uint64_t kill = 1; kill < stream.size(); ++kill) {
    ArbF2FourCycleCounter victim(ArbF2Params(graph.num_vertices()));
    CheckpointPolicy policy;
    policy.directory = dir;
    policy.every_elements = 1;
    FaultPlan faults;
    faults.KillAfterElements(kill);
    RunOptions kill_options;
    kill_options.checkpoint = &policy;
    kill_options.faults = &faults;
    const RunOutcome killed = RunEdgeStream(victim, stream, kill_options);
    ASSERT_FALSE(killed.completed);
    ASSERT_FALSE(killed.checkpoint_path.empty());

    ArbF2FourCycleCounter resumed(ArbF2Params(graph.num_vertices()));
    RunOptions resume_options;
    resume_options.resume_from = killed.checkpoint_path;
    const RunOutcome outcome = RunEdgeStream(resumed, stream, resume_options);
    ASSERT_TRUE(outcome.resumed) << "kill point " << kill;
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(resumed.Result().value, golden_value) << "kill point " << kill;
    EXPECT_EQ(resumed.Result().space_words, golden_space)
        << "kill point " << kill;
  }
}

// A snapshot whose CRC is valid but whose state carries a NaN or ±inf
// accumulator slot would silently poison every later estimate. Restore must
// reject it — leaving the counter untouched — and the run must fall back to
// a from-scratch execution that still produces the golden result.
TEST(CrashResumeTest, NonFiniteArbF2SlotIsRejectedWithScratchFallback) {
  Rng gen_rng(35);
  const EdgeList graph = ErdosRenyiGnm(24, 60, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(36);
  order_rng.Shuffle(stream);
  const auto params = ArbF2Params(graph.num_vertices());

  ArbF2FourCycleCounter golden(params);
  RunEdgeStream(golden, stream);
  const double golden_value = golden.Result().value;

  const std::string dir = MakeTempDir("crash_resume_nonfinite_arbf2");
  ArbF2FourCycleCounter victim(params);
  CheckpointPolicy policy;
  policy.directory = dir;
  policy.every_elements = 1;
  FaultPlan faults;
  faults.KillAfterElements(stream.size() / 2);
  RunOptions kill_options;
  kill_options.checkpoint = &policy;
  kill_options.faults = &faults;
  const RunOutcome killed = RunEdgeStream(victim, stream, kill_options);
  ASSERT_FALSE(killed.completed);
  std::string error;
  const std::optional<Snapshot> snap =
      LoadSnapshot(killed.checkpoint_path, &error);
  ASSERT_TRUE(snap.has_value()) << error;

  // arbf2/1 blob: a 44-byte config header, then the A, B and C arrays,
  // each a u64 length followed by n·C doubles.
  const std::size_t array_bytes = (snap->state.size() - 44) / 3;
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const double bad : kBad) {
    for (std::size_t array = 0; array < 3; ++array) {
      SCOPED_TRACE("value " + std::to_string(bad) + " in array " +
                   std::to_string(array));
      Snapshot poisoned = *snap;
      std::memcpy(poisoned.state.data() + 44 + array * array_bytes + 8, &bad,
                  sizeof(bad));
      const std::string path = dir + "/poisoned.ckpt";
      ASSERT_TRUE(SaveSnapshot(path, poisoned, &error)) << error;

      ArbF2FourCycleCounter resumed(params);
      RunOptions resume_options;
      resume_options.resume_from = path;
      const RunOutcome outcome =
          RunEdgeStream(resumed, stream, resume_options);
      EXPECT_TRUE(outcome.resume_rejected);
      EXPECT_FALSE(outcome.resumed);
      EXPECT_EQ(resumed.Result().value, golden_value);
    }
  }
}

// A simulated EIO on a checkpoint write must not disturb the run: the
// previous snapshot survives, the failure is counted, and the final result
// is unaffected.
TEST(CrashResumeTest, CheckpointWriteFailureDoesNotDisturbRun) {
  Rng gen_rng(7);
  const EdgeList graph = ErdosRenyiGnm(20, 40, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(9);
  order_rng.Shuffle(stream);

  ArbThreePassFourCycleCounter golden(ArbParams(graph.num_vertices()));
  RunEdgeStream(golden, stream);

  const std::string dir = MakeTempDir("crash_resume_eio");
  ArbThreePassFourCycleCounter counter(ArbParams(graph.num_vertices()));
  CheckpointPolicy policy;
  policy.directory = dir;
  policy.every_elements = 7;
  FaultPlan faults;
  faults.FailCheckpointWrite(1);  // Second write hits a simulated EIO.
  RunOptions options;
  options.checkpoint = &policy;
  options.faults = &faults;
  const RunOutcome outcome = RunEdgeStream(counter, stream, options);
  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.checkpoint_failures, 1u);
  EXPECT_GT(outcome.checkpoints_written, 0u);
  EXPECT_EQ(counter.Result().value, golden.Result().value);
}

}  // namespace
}  // namespace cyclestream
