#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/triest.h"
#include "core/adj_f2_counter.h"
#include "core/arb_f2_counter.h"
#include "core/arb_three_pass.h"
#include "core/turnstile_f2.h"
#include "core/diamond_counter.h"
#include "core/random_order_triangles.h"
#include "engine/query.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "hash/rng.h"
#include "sketch/reservoir.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/dynamic/turnstile.h"
#include "stream/fault.h"
#include "stream/order.h"
#include "stream/window/window.h"
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

// The textbook byte-at-a-time CRC-32, kept here as the reference the
// sliced implementation must reproduce.
std::uint32_t BytewiseCrc32(std::string_view data) {
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

std::string SeededBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.Next() & 0xff);
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  // Every length through two 16-byte steps past 256, at every alignment
  // of the start within a 16-byte block.
  const std::string buffer = SeededBytes(16 + 257, 7);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      ASSERT_EQ(Crc32(data), BytewiseCrc32(data))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32Test, AccumulatorSplitsAnywhere) {
  const std::string buffer = SeededBytes(100, 11);
  const std::uint32_t whole = Crc32(buffer);
  for (std::size_t cut = 0; cut <= buffer.size(); ++cut) {
    Crc32Accumulator crc;
    crc.Update(buffer.data(), cut);
    crc.Update(buffer.data() + cut, buffer.size() - cut);
    ASSERT_EQ(crc.Final(), whole) << "cut at " << cut;
  }
  // Three pieces whose middle one straddles a 16-byte step boundary.
  for (std::size_t a = 1; a < 32; ++a) {
    Crc32Accumulator crc;
    crc.Update(buffer.data(), a);
    crc.Update(buffer.data() + a, 17);
    crc.Update(buffer.data() + a + 17, buffer.size() - a - 17);
    ASSERT_EQ(crc.Final(), whole) << "pieces " << a << ", 17, rest";
  }
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
    // each pass boundary crossed.
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

// C = 120 copies: one full 64-copy sign word and a partial second one. The
// pair rate keeps a non-empty F₁(z) sample of about a quarter of the pairs.
AdjF2FourCycleCounter::Params AdjF2Params(VertexId n) {
  AdjF2FourCycleCounter::Params params;
  params.base.epsilon = 0.3;
  params.base.t_guess = 200.0;
  params.base.seed = 29;
  params.num_vertices = n;
  params.copies_per_group = 40;
  params.groups = 3;
  params.pair_rate = 0.25;
  return params;
}

AdjacencyStream AdjF2Stream() {
  Rng gen_rng(31);
  const Graph g(ErdosRenyiGnm(24, 80, gen_rng));
  Rng order_rng(32);
  return MakeAdjacencyStream(g, order_rng);
}

// Kills an adj-f2 run after half its lists and returns the snapshot file.
std::string AdjF2MidStreamSnapshot(const AdjacencyStream& stream,
                                   const std::string& dir) {
  AdjF2FourCycleCounter victim(AdjF2Params(24));
  CheckpointPolicy policy;
  policy.directory = dir;
  policy.every_elements = 1;
  FaultPlan faults;
  faults.KillAfterElements(stream.size() / 2);
  RunOptions kill_options;
  kill_options.checkpoint = &policy;
  kill_options.faults = &faults;
  const RunOutcome killed = RunAdjacencyStream(victim, stream, kill_options);
  EXPECT_FALSE(killed.completed);
  return killed.checkpoint_path;
}

// The §4.2 adj-f2 counter through the same adjacency kill-point sweep.
TEST(CrashResumeTest, EveryKillPointResumesBitIdenticalAdjF2) {
  const AdjacencyStream stream = AdjF2Stream();
  AdjF2FourCycleCounter golden(AdjF2Params(24));
  RunAdjacencyStream(golden, stream);
  const Estimate golden_result = golden.Result();
  const std::size_t golden_audit = golden.AuditSpace();

  const std::string dir = MakeTempDir("crash_resume_adjf2");
  for (std::uint64_t kill = 1; kill < stream.size(); ++kill) {
    AdjF2FourCycleCounter victim(AdjF2Params(24));
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

    AdjF2FourCycleCounter resumed(AdjF2Params(24));
    RunOptions resume_options;
    resume_options.resume_from = killed.checkpoint_path;
    const RunOutcome outcome =
        RunAdjacencyStream(resumed, stream, resume_options);
    ASSERT_TRUE(outcome.resumed) << "kill point " << kill;
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(resumed.Result().value, golden_result.value)
        << "kill point " << kill;
    EXPECT_EQ(resumed.Result().space_words, golden_result.space_words)
        << "kill point " << kill;
    EXPECT_EQ(resumed.F2Estimate(), golden.F2Estimate())
        << "kill point " << kill;
    EXPECT_EQ(resumed.F1Estimate(), golden.F1Estimate())
        << "kill point " << kill;
    EXPECT_EQ(resumed.AuditSpace(), golden_audit) << "kill point " << kill;
  }
}

// Every single-byte flip of a mid-stream adj-f2 snapshot file is rejected,
// and the run falls back to a fresh start with the golden result.
TEST(CrashResumeTest, CorruptAdjF2SnapshotAlwaysRejectedWithScratchFallback) {
  const AdjacencyStream stream = AdjF2Stream();
  AdjF2FourCycleCounter golden(AdjF2Params(24));
  RunAdjacencyStream(golden, stream);
  const double golden_value = golden.Result().value;

  const std::string dir = MakeTempDir("crash_resume_corrupt_adjf2");
  const std::string snapshot = AdjF2MidStreamSnapshot(stream, dir);
  ASSERT_FALSE(snapshot.empty());
  std::string encoded;
  {
    std::ifstream in(snapshot, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    encoded = buf.str();
  }
  ASSERT_FALSE(encoded.empty());

  const std::string path = dir + "/damaged.ckpt";
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string damaged = encoded;
    damaged[i] = static_cast<char>(damaged[i] ^ 0xff);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(),
                static_cast<std::streamsize>(damaged.size()));
    }
    AdjF2FourCycleCounter resumed(AdjF2Params(24));
    RunOptions resume_options;
    resume_options.resume_from = path;
    const RunOutcome outcome =
        RunAdjacencyStream(resumed, stream, resume_options);
    ASSERT_TRUE(outcome.resume_rejected)
        << "byte flip at offset " << i << " was restored";
    ASSERT_FALSE(outcome.resumed);
    ASSERT_EQ(resumed.Result().value, golden_value);
  }
}

// The adjf2/1 state bytes of a mid-stream snapshot, pinned by length and
// CRC-32: the running Z per copy and every sampled pair's observations
// must keep their wire layout whatever the in-memory layout.
TEST(CrashResumeTest, AdjF2SnapshotBytesArePinned) {
  const AdjacencyStream stream = AdjF2Stream();
  const std::string dir = MakeTempDir("crash_resume_pinned_adjf2");
  std::string error;
  const std::optional<Snapshot> snap =
      LoadSnapshot(AdjF2MidStreamSnapshot(stream, dir), &error);
  ASSERT_TRUE(snap.has_value()) << error;
  EXPECT_EQ(snap->algorithm_id, "adjf2/1");
  EXPECT_EQ(snap->state.size(), 3678u);
  EXPECT_EQ(Crc32(snap->state), 0x74e08882u)
      << std::hex << Crc32(snap->state);
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

// The driver of either stream family, so the helpers below take both.
RunOutcome Run(EdgeStreamAlgorithm& alg, const EdgeStream& stream,
               const RunOptions& options) {
  return RunEdgeStream(alg, stream, options);
}
RunOutcome Run(TurnstileStreamAlgorithm& alg, const TurnstileStream& stream,
               const RunOptions& options) {
  return RunTurnstileStream(alg, stream, options);
}

// Kills `victim` halfway through `stream` with a checkpoint after every
// element and returns the last snapshot.
template <typename Alg, typename Stream>
Snapshot KilledHalfwaySnapshot(Alg& victim, const Stream& stream,
                               const std::string& dir) {
  CheckpointPolicy policy;
  policy.directory = dir;
  policy.every_elements = 1;
  FaultPlan faults;
  faults.KillAfterElements(stream.size() / 2);
  RunOptions kill_options;
  kill_options.checkpoint = &policy;
  kill_options.faults = &faults;
  const RunOutcome killed = Run(victim, stream, kill_options);
  EXPECT_FALSE(killed.completed);
  std::string error;
  const std::optional<Snapshot> snap =
      LoadSnapshot(killed.checkpoint_path, &error);
  EXPECT_TRUE(snap.has_value()) << error;
  return snap.value_or(Snapshot{});
}

// Resumes a fresh counter from `snap` and expects the snapshot refused and
// the from-scratch result equal to `golden`.
template <typename Alg, typename Stream>
void ExpectResumeFallsBackToScratch(const Snapshot& snap,
                                    const std::string& dir,
                                    std::unique_ptr<Alg> resumed,
                                    const Stream& stream, double golden) {
  const std::string path = dir + "/poisoned.ckpt";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, snap, &error)) << error;
  RunOptions resume_options;
  resume_options.resume_from = path;
  const RunOutcome outcome = Run(*resumed, stream, resume_options);
  EXPECT_TRUE(outcome.resume_rejected);
  EXPECT_FALSE(outcome.resumed);
  EXPECT_EQ(resumed->Result().value, golden);
}

// A snapshot whose CRC is valid but whose state carries a slot RestoreState
// refuses would silently poison every later estimate: −32,768 in an int16
// arb-f2 blob, and NaN or ±inf in the double blob of a decayed
// turnstile-f2-c4, each at the head of row 0's A and B segments and in its
// D slot. Restore must reject it and the run must fall back to a
// from-scratch execution that still produces the golden result.
TEST(CrashResumeTest, NonFiniteArbF2SlotIsRejectedWithScratchFallback) {
  Rng gen_rng(35);
  const EdgeList graph = ErdosRenyiGnm(24, 60, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(36);
  order_rng.Shuffle(stream);
  const auto params = ArbF2Params(graph.num_vertices());
  // arbf2/3: 44 config bytes, the width tag, the u64 slot count
  // n·(2C+1), then row-major rows of A | B | D, C + C + 1 slots.
  constexpr std::size_t kTag = 44;
  constexpr std::size_t kSlots = kTag + 1 + 8;
  // C = 9 groups of ⌈2/ε²⌉ = 8 copies at ε = 0.5.
  constexpr std::size_t copies = 9 * 8;
  const std::size_t slot_count =
      ArbF2FourCycleCounter::SlotCount(graph.num_vertices(), copies);

  ArbF2FourCycleCounter golden(params);
  RunEdgeStream(golden, stream);
  const std::string dir = MakeTempDir("crash_resume_nonfinite_arbf2");
  {
    ArbF2FourCycleCounter victim(params);
    const Snapshot snap = KilledHalfwaySnapshot(victim, stream, dir);
    ASSERT_EQ(snap.state.size(), kSlots + slot_count * 2);
    ASSERT_EQ(snap.state[kTag], 0) << "expected an int16 blob";
    for (std::size_t segment = 0; segment < 3; ++segment) {
      SCOPED_TRACE("-32768 in segment " + std::to_string(segment));
      Snapshot poisoned = snap;
      const std::int16_t bad = -32768;
      std::memcpy(poisoned.state.data() + kSlots + segment * copies * 2, &bad,
                  sizeof(bad));
      ExpectResumeFallsBackToScratch(
          poisoned, dir, std::make_unique<ArbF2FourCycleCounter>(params),
          stream, golden.Result().value);
    }
  }

  // A decayed counter past its first rescale holds non-integral slots, so
  // its blob (after decay's u64 epoch and u32 log2) is at double width.
  const TurnstileStream updates = TurnstileFromEdges(stream);
  const auto decayed = [&] {
    return std::make_unique<DecayAlgorithm>(
        std::make_unique<TurnstileF2FourCycleCounter>(params),
        /*epoch_edges=*/8, /*decay_log2=*/1);
  };
  const auto golden_decayed = decayed();
  RunTurnstileStream(*golden_decayed, updates);
  const auto victim = decayed();
  const Snapshot snap = KilledHalfwaySnapshot(*victim, updates, dir);
  constexpr std::size_t kDecay = 8 + 4;
  ASSERT_EQ(snap.state.size(), kDecay + kSlots + slot_count * 8);
  ASSERT_EQ(snap.state[kDecay + kTag], 2) << "expected a double blob";
  {
    // Unpoisoned, the snapshot resumes (into double slots, while the
    // uninterrupted run keeps integer slots) to the same final bytes.
    const std::string path = dir + "/decayed.ckpt";
    std::string error;
    ASSERT_TRUE(SaveSnapshot(path, snap, &error)) << error;
    RunOptions resume_options;
    resume_options.resume_from = path;
    const auto resumed = decayed();
    const RunOutcome outcome =
        RunTurnstileStream(*resumed, updates, resume_options);
    EXPECT_TRUE(outcome.resumed);
    EXPECT_TRUE(outcome.completed);
    StateWriter golden_state, resumed_state;
    ASSERT_TRUE(golden_decayed->SaveState(golden_state));
    ASSERT_TRUE(resumed->SaveState(resumed_state));
    EXPECT_EQ(resumed_state.str(), golden_state.str());
    EXPECT_EQ(resumed->Result().value, golden_decayed->Result().value);
  }
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (std::size_t segment = 0; segment < 3; ++segment) {
      SCOPED_TRACE("value " + std::to_string(bad) + " in segment " +
                   std::to_string(segment));
      Snapshot poisoned = snap;
      std::memcpy(
          poisoned.state.data() + kDecay + kSlots + segment * copies * 8,
          &bad, sizeof(bad));
      ExpectResumeFallsBackToScratch(poisoned, dir, decayed(), updates,
                                     golden_decayed->Result().value);
    }
  }
}

// arb-f2 keeps no reader for an older layout (arbf2/1's double slots,
// arbf2/2's C block): a snapshot that carries an old id is refused by its
// id and the run starts from scratch. The current id is pinned here too:
// the tests elsewhere read it from the constant.
static_assert(ArbF2FourCycleCounter::kCheckpointId == "arbf2/3");
TEST(CrashResumeTest, OldArbF2SnapshotsFallBackToScratch) {
  Rng gen_rng(37);
  const EdgeList graph = ErdosRenyiGnm(24, 60, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(38);
  order_rng.Shuffle(stream);
  const auto params = ArbF2Params(graph.num_vertices());
  ArbF2FourCycleCounter golden(params);
  RunEdgeStream(golden, stream);
  const std::string dir = MakeTempDir("crash_resume_arbf2_v1");
  ArbF2FourCycleCounter victim(params);
  Snapshot snap = KilledHalfwaySnapshot(victim, stream, dir);
  ASSERT_EQ(snap.algorithm_id, ArbF2FourCycleCounter::kCheckpointId);
  for (const char* old_id : {"arbf2/1", "arbf2/2"}) {
    SCOPED_TRACE(old_id);
    Snapshot old = snap;
    old.algorithm_id = old_id;
    ExpectResumeFallsBackToScratch(
        old, dir, std::make_unique<ArbF2FourCycleCounter>(params), stream,
        golden.Result().value);
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

// --- randtri/3 decoder -------------------------------------------------------

RandomOrderTriangleCounter::Params RandTriParams(VertexId n, double t_guess) {
  RandomOrderTriangleCounter::Params params;
  params.base.epsilon = 0.3;
  params.base.t_guess = t_guess;
  params.base.seed = 61;
  params.num_vertices = n;
  params.level_rate = 2.0;
  params.prefix_rate = 0.5;
  return params;
}

bool Restores(const RandomOrderTriangleCounter::Params& params,
              std::string_view payload) {
  RandomOrderTriangleCounter counter(params);
  StateReader r(payload);
  return counter.RestoreState(r) && r.AtEnd();
}

using Rows = std::vector<std::pair<VertexId, std::vector<VertexId>>>;

// One level-store record: endpoints as written, arrival position, mask.
struct StoredEdge {
  VertexId u;
  VertexId v;
  std::uint64_t position;
  std::uint64_t mask;
};

// A hand-built randtri/3 payload for a stream of 100 edges: the fresh
// counter's config fingerprint, then the stream length, the level store's
// records, S's rows, C and P, wrapped in the length prefix and CRC-32.
std::string RandTriPayload(const RandomOrderTriangleCounter::Params& params,
                           const std::vector<StoredEdge>& stored,
                           const Rows& s, const std::vector<Edge>& c,
                           const std::vector<Edge>& p) {
  StateWriter fresh;
  RandomOrderTriangleCounter(params).SaveState(fresh);
  StateReader fresh_reader(fresh.str());
  const std::string_view fresh_body = fresh_reader.Bytes(fresh_reader.Size());
  // Fresh tail: stream length, no stored edges, no S rows, empty C and P.
  StateWriter body;
  body.Bytes(fresh_body.data(), fresh_body.size() - 5 * 8);
  body.Size(100);
  body.Size(stored.size());
  for (const StoredEdge& e : stored) {
    body.U32(e.u);
    body.U32(e.v);
    body.U64(e.position);
    body.U64(e.mask);
  }
  body.Size(s.size());
  for (const auto& [vertex, neighbors] : s) {
    body.U32(vertex);
    body.Vec(neighbors);
  }
  body.Vec(c);
  body.Vec(p);
  StateWriter w;
  w.Str(body.str());
  w.U32(Crc32(body.str()));
  return w.Take();
}

TEST(RandomOrderSnapshotTest, MalformedPayloadsAreRefused) {
  // t_guess = 16 gives three levels: p = 1, 1, 1/2 and, over 100 edges,
  // prefixes of 25, 50 and 100 edges.
  const auto params = RandTriParams(/*n=*/10, /*t_guess=*/16.0);
  auto restores = [&params](const std::vector<StoredEdge>& stored,
                            const Rows& s = {}) {
    return Restores(params, RandTriPayload(params, stored, s, {}, {}));
  };
  // Every level's prefix holds position 0; V_2 holds (a, b) or it does not,
  // so exactly one of the two masks is the arrival's.
  auto mask_at_zero = [&restores](VertexId a, VertexId b) -> std::uint64_t {
    const bool in_v2 = restores({{a, b, 0, 0b111}});
    EXPECT_NE(in_v2, restores({{a, b, 0, 0b011}})) << a << "-" << b;
    return in_v2 ? 0b111 : 0b011;
  };
  const std::uint64_t m01 = mask_at_zero(0, 1);

  // Well-formed controls: S may hold a repeated stream edge.
  const Rows edge01 = {{0, {1}}, {1, {0}}};
  const Rows edge01_twice = {{0, {1, 1}}, {1, {0, 0}}};
  EXPECT_TRUE(restores({{0, 1, 0, m01}}, edge01));
  EXPECT_TRUE(restores({{0, 1, 0, m01}}, edge01_twice));
  EXPECT_TRUE(restores({{0, 1, 0, m01}, {2, 3, 7, mask_at_zero(2, 3)}}));
  // Past level 0's prefix (25) the arrival mask loses bit 0.
  EXPECT_TRUE(restores({{0, 1, 30, m01 & ~1ull}}));

  const std::vector<std::pair<std::string, std::vector<StoredEdge>>> bad = {
      {"mask bit >= num_levels", {{0, 1, 0, m01 | 0b1000}}},
      {"mask bit 63", {{0, 1, 0, m01 | (1ull << 63)}}},
      {"bit of a level whose prefix the position is past",
       {{0, 1, 30, m01}}},
      {"bit of the top level's prefix past the stream", {{0, 1, 100, m01}}},
      {"missing bit", {{0, 1, 0, m01 & ~0b010ull}}},
      {"empty mask", {{0, 1, 0, 0}}},
      {"repeated edge", {{0, 1, 0, m01}, {0, 1, 1, m01}}},
      {"self-loop", {{3, 3, 0, 0b011}, {3, 3, 0, 0b111}}},
      {"vertex >= num_vertices", {{0, 10, 0, 0b011}, {0, 10, 0, 0b111}}},
      {"non-canonical endpoints", {{1, 0, 0, m01}}},
      {"positions out of order",
       {{0, 1, 5, m01}, {2, 3, 5, mask_at_zero(2, 3)}}},
  };
  for (const auto& [what, stored] : bad) {
    // The two-record self-loop and vertex cases cover both masks; each
    // record alone must be refused as well.
    EXPECT_FALSE(restores(stored)) << "stored edges: " << what;
    if (what == "self-loop" || what == "vertex >= num_vertices") {
      for (const StoredEdge& e : stored) {
        EXPECT_FALSE(restores({e})) << "stored edge: " << what;
      }
    }
  }
  // A level-2 bit on an edge that V_2 does not hold: find a pair with
  // neither endpoint in V_2 (p_2 = 1/2, so 10 vertices hold one).
  bool found = false;
  for (VertexId a = 0; a < 10 && !found; ++a) {
    for (VertexId b = a + 1; b < 10 && !found; ++b) {
      if (mask_at_zero(a, b) == 0b011) {
        found = true;
        EXPECT_FALSE(restores({{a, b, 0, 0b111}})) << a << "-" << b;
      }
    }
  }
  EXPECT_TRUE(found) << "every pair touches V_2";

  const std::vector<std::pair<std::string, Rows>> bad_rows = {
      {"row vertex >= num_vertices", {{0, {10}}, {10, {0}}}},
      {"neighbour >= num_vertices", {{0, {12}}}},
      {"repeated row vertex", {{0, {1}}, {1, {0}}, {0, {2}}, {2, {0}}}},
      {"self-loop neighbour", {{3, {3}}}},
      {"edge listed from one end only", {{0, {1}}}},
      {"empty row", {{0, {1}}, {1, {0}}, {4, {}}}},
  };
  for (const auto& [what, rows] : bad_rows) {
    EXPECT_FALSE(restores({}, rows)) << "S rows: " << what;
  }
  const std::vector<Edge> twice = {Edge(2, 5), Edge(2, 5)};
  EXPECT_FALSE(Restores(params, RandTriPayload(params, {}, {}, twice, {})));
  EXPECT_FALSE(Restores(params, RandTriPayload(params, {}, {}, {}, twice)));
  Edge flipped;  // Non-canonical u > v.
  flipped.u = 5;
  flipped.v = 2;
  EXPECT_FALSE(Restores(params, RandTriPayload(params, {}, {}, {flipped}, {})));
}

TEST(RandomOrderSnapshotTest, DamagedRealPayloadIsRefused) {
  Rng gen_rng(62);
  const EdgeList graph =
      PlantTriangles(ErdosRenyiGnm(30, 70, gen_rng), 8, gen_rng);
  const EdgeStream stream = graph.edges();
  const auto params = RandTriParams(graph.num_vertices(), /*t_guess=*/16.0);

  RandomOrderTriangleCounter golden(params);
  RunEdgeStream(golden, stream);

  // Snapshot past S and the lower level prefixes, with C and P non-empty.
  RandomOrderTriangleCounter victim(params);
  victim.StartPass(0, stream.size());
  const std::size_t cut = stream.size() * 4 / 5;
  for (std::size_t i = 0; i < cut; ++i) victim.ProcessEdge(0, stream[i], i);
  ASSERT_GT(victim.space_tracker()->Component("rough_c"), 0u);
  ASSERT_GT(victim.space_tracker()->Component("candidates_p"), 0u);
  StateWriter w;
  ASSERT_TRUE(victim.SaveState(w));
  const std::string payload = w.str();

  // The intact payload resumes to the uninterrupted result.
  {
    RandomOrderTriangleCounter resumed(params);
    StateReader r(payload);
    ASSERT_TRUE(resumed.RestoreState(r) && r.AtEnd());
    for (std::size_t i = cut; i < stream.size(); ++i) {
      resumed.ProcessEdge(0, stream[i], i);
    }
    resumed.EndPass(0);
    EXPECT_EQ(resumed.Result().value, golden.Result().value);
    EXPECT_EQ(resumed.Result().space_words, golden.Result().space_words);
  }
  for (std::size_t len = 0; len < payload.size(); ++len) {
    ASSERT_FALSE(Restores(params, std::string_view(payload).substr(0, len)))
        << "truncation to " << len << " bytes was restored";
  }
  for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
    std::string damaged = payload;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_FALSE(Restores(params, damaged))
        << "flip of bit " << bit << " was restored";
  }
}

// randtri/1 (node-based containers, bucket-order restore) and randtri/2
// (one row set per level) are not decoded: their snapshots fail the
// algorithm-id check and the run starts over.
TEST(RandomOrderSnapshotTest, RandTriV1SnapshotIsRefused) {
  Rng gen_rng(63);
  const EdgeList graph = ErdosRenyiGnm(30, 70, gen_rng);
  const EdgeStream stream = graph.edges();
  const auto params = RandTriParams(graph.num_vertices(), /*t_guess=*/16.0);
  RandomOrderTriangleCounter golden(params);
  RunEdgeStream(golden, stream);

  for (const std::string old_id : {"randtri/1", "randtri/2"}) {
    Snapshot snap;
    snap.algorithm_id = old_id;
    snap.stream_fingerprint = FingerprintEdgeStream(stream);
    snap.stream_length = stream.size();
    snap.position = stream.size() / 2;
    snap.elements_processed = stream.size() / 2;
    snap.state = "state";
    const std::string path = MakeTempDir("randtri_old") + "/old.ckpt";
    std::string error;
    ASSERT_TRUE(SaveSnapshot(path, snap, &error)) << error;

    RandomOrderTriangleCounter counter(params);
    RunOptions options;
    options.resume_from = path;
    ::testing::internal::CaptureStderr();
    const RunOutcome outcome = RunEdgeStream(counter, stream, options);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(outcome.resume_rejected) << old_id;
    EXPECT_FALSE(outcome.resumed) << old_id;
    EXPECT_NE(log.find("snapshot is for algorithm '" + old_id +
                       "', expected 'randtri/3'"),
              std::string::npos)
        << log;
    EXPECT_EQ(counter.Result().value, golden.Result().value) << old_id;
  }
}

// Kill points for the block-cut sweeps: both sides of the first two block
// edges (kDefaultBlockSize = 4096), then seeded ones up to 16 in total.
std::vector<std::uint64_t> BlockCutKillPoints(std::uint64_t total) {
  std::vector<std::uint64_t> kills = {4095, 4096, 4097, 8191, 8192, 8193};
  for (std::uint64_t seed = 1; kills.size() < 16; ++seed) {
    kills.push_back(FaultPlan::PickKillPoint(seed, total));
  }
  return kills;
}

// The pass loop cuts its blocks at snapshot and kill points. With a
// snapshot period that does not divide the block size, every cut lands
// inside a block, yet the resumed estimate must equal the uninterrupted
// one bit for bit, and the snapshot must sit exactly at the last period
// multiple at or before the kill.
template <typename Query, typename Item>
void ExpectBlockCutKillPointsResumeBitIdentical(
    const std::function<Query()>& make, std::span<const Item> stream,
    const std::string& dir) {
  using Alg = typename decltype(Query::algorithm)::element_type;
  constexpr std::uint64_t kPeriod = 2999;
  ASSERT_GT(stream.size(), 2 * kDefaultBlockSize + 1);
  auto run = [&](Query& q, const RunOptions& options) {
    Alg* const algs[] = {q.algorithm.get()};
    return RunPasses(algs, stream, kDefaultBlockSize, options);
  };
  Query golden = make();
  run(golden, RunOptions{});
  const Estimate golden_result = golden.result();

  for (const std::uint64_t kill : BlockCutKillPoints(stream.size())) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    CheckpointPolicy policy;
    policy.directory = dir;
    policy.every_elements = kPeriod;
    FaultPlan faults;
    faults.KillAfterElements(kill);
    RunOptions kill_options;
    kill_options.checkpoint = &policy;
    kill_options.faults = &faults;
    Query victim = make();
    const RunOutcome killed = run(victim, kill_options);
    ASSERT_FALSE(killed.completed);
    EXPECT_EQ(faults.elements_seen(), kill);

    const std::uint64_t snapshot_at = kill / kPeriod * kPeriod;
    RunOptions resume_options;
    if (snapshot_at == 0) {
      EXPECT_TRUE(killed.checkpoint_path.empty());
    } else {
      std::string error;
      const std::optional<Snapshot> snap =
          LoadSnapshot(killed.checkpoint_path, &error);
      ASSERT_TRUE(snap.has_value()) << error;
      EXPECT_EQ(snap->pass, 0u);
      EXPECT_EQ(snap->position, snapshot_at);
      EXPECT_EQ(snap->elements_processed, snapshot_at);
      resume_options.resume_from = killed.checkpoint_path;
    }
    Query resumed = make();
    const RunOutcome outcome = run(resumed, resume_options);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.resumed, snapshot_at > 0);
    EXPECT_EQ(resumed.result().value, golden_result.value);
    EXPECT_EQ(resumed.result().space_words, golden_result.space_words);
  }
}

// arb-f2 overrides ProcessEdgeBlock.
TEST(CrashResumeTest, BlockCutKillPointsResumeBitIdenticalArbF2) {
  Rng gen_rng(51);
  const EdgeList graph = ErdosRenyiGnm(200, 10000, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(52);
  order_rng.Shuffle(stream);
  engine::QuerySpec spec;
  spec.name = "arb-f2";
  spec.kind = engine::QueryKind::kArbF2;
  spec.base = ArbF2Params(graph.num_vertices()).base;
  spec.num_vertices = graph.num_vertices();
  ExpectBlockCutKillPointsResumeBitIdentical<engine::EdgeQuery, Edge>(
      [&] { return engine::MakeEdgeQuery(spec); }, stream,
      MakeTempDir("block_cut_arbf2"));
}

// random-order conditions on stream positions: with m = 12000, S ends at
// 4800 and the level prefixes at 269, 537, 1074, 2147, 4294 and 8587, so
// the snapshots at 2999, 5998 and 8997 fall inside S and the level
// prefixes, inside the last sampled prefix only, and after all of them.
TEST(CrashResumeTest, BlockCutKillPointsResumeBitIdenticalRandomOrder) {
  Rng gen_rng(55);
  const EdgeList graph = ErdosRenyiGnm(1000, 12000, gen_rng);
  EdgeStream stream = graph.edges();
  Rng order_rng(56);
  order_rng.Shuffle(stream);
  engine::QuerySpec spec;
  spec.name = "random-order";
  spec.kind = engine::QueryKind::kRandomOrderTriangles;
  spec.base.epsilon = 0.3;
  spec.base.t_guess = 2000.0;
  spec.base.seed = 57;
  spec.num_vertices = graph.num_vertices();
  spec.level_rate = 4.0;
  spec.prefix_rate = 0.4;
  ExpectBlockCutKillPointsResumeBitIdentical<engine::EdgeQuery, Edge>(
      [&] { return engine::MakeEdgeQuery(spec); }, stream,
      MakeTempDir("block_cut_random_order"));
}

// The windowed turnstile-f2-c4 query overrides ProcessUpdateBlock and
// splits blocks again at its bucket edges (every 750 updates).
TEST(CrashResumeTest, BlockCutKillPointsResumeBitIdenticalWindowedTurnstile) {
  Rng gen_rng(53);
  const EdgeList graph = ErdosRenyiGnm(200, 8000, gen_rng);
  TurnstileStream stream = TurnstileFromEdges(graph.edges());
  for (std::size_t i = 0; i < graph.num_edges(); i += 4) {
    stream.emplace_back(graph.edges()[i], TurnstileOp::kDelete);
  }
  engine::QuerySpec spec;
  spec.name = "turnstile-f2-c4";
  spec.kind = engine::QueryKind::kTurnstileF2C4;
  spec.base = ArbF2Params(graph.num_vertices()).base;
  spec.num_vertices = graph.num_vertices();
  spec.window_edges = 3000;
  spec.window_buckets = 4;
  ExpectBlockCutKillPointsResumeBitIdentical<engine::TurnstileQuery,
                                             TurnstileUpdate>(
      [&] { return engine::MakeTurnstileQuery(spec); }, stream,
      MakeTempDir("block_cut_window"));
}

}  // namespace
}  // namespace cyclestream
