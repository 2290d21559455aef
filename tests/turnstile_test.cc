#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/arb_f2_counter.h"
#include "core/turnstile_f2.h"
#include "engine/broker.h"
#include "engine/query.h"
#include "engine/spec.h"
#include "gen/generators.h"
#include "graph/binary_io.h"
#include "hash/rng.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/dynamic/turnstile.h"
#include "stream/dynamic/turnstile_io.h"
#include "stream/fault.h"
#include "stream/order.h"
#include "stream/window/window.h"
#include "tests/test_util.h"
#include "util/crc32.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace cyclestream {
namespace {

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Recomputes the header CRC over the (possibly patched) payload so a test
// can violate exactly one validation rule at a time.
void FixupCrc(std::string* bytes) {
  const std::uint32_t crc =
      Crc32(std::string_view(*bytes).substr(kTurnstileHeaderSize));
  std::memcpy(bytes->data() + 24, &crc, 4);
}

TurnstileStream SampleStream() {
  TurnstileStream s;
  s.emplace_back(Edge(0, 1), TurnstileOp::kInsert);
  s.emplace_back(Edge(1, 2), TurnstileOp::kInsert);
  s.emplace_back(Edge(0, 2), TurnstileOp::kInsert);
  s.emplace_back(Edge(1, 2), TurnstileOp::kDelete);
  s.emplace_back(Edge(1, 3), TurnstileOp::kInsert);
  return s;
}

TEST(TurnstileIoTest, RoundTripPreservesStream) {
  const std::string dir = MakeTempDir("turnstile_roundtrip");
  const std::string path = dir + "/s.bin";
  const TurnstileStream original = SampleStream();
  std::string error;
  ASSERT_TRUE(WriteTurnstileStream(original, 4, path, &error)) << error;

  TurnstileBinaryReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_EQ(reader.num_vertices(), 4u);
  EXPECT_EQ(reader.format_version(), kBinaryTurnstileVersion);
  EXPECT_EQ(reader.stream(), original);
}

TEST(TurnstileIoTest, SniffReportsVersions) {
  const std::string dir = MakeTempDir("turnstile_sniff");
  const std::string v2 = dir + "/v2.bin";
  ASSERT_TRUE(WriteTurnstileStream(SampleStream(), 4, v2));
  EXPECT_EQ(SniffBinaryFormatVersion(v2), kBinaryTurnstileVersion);

  const std::string v1 = dir + "/v1.bin";
  const std::vector<Edge> edges = {Edge(0, 1), Edge(1, 2)};
  ASSERT_TRUE(WriteBinaryEdgeStream(edges.data(), edges.size(), 3, v1));
  EXPECT_EQ(SniffBinaryFormatVersion(v1), kBinaryEdgeVersion);

  const std::string junk = dir + "/junk.bin";
  WriteFileBytes(junk, "not a cyclestream file");
  EXPECT_EQ(SniffBinaryFormatVersion(junk), 0u);
  EXPECT_EQ(SniffBinaryFormatVersion(dir + "/missing.bin"), 0u);
}

// Each reader must name the other's format instead of misparsing it.
TEST(TurnstileIoTest, ReadersRejectTheOtherVersionWithPointedErrors) {
  const std::string dir = MakeTempDir("turnstile_cross_version");
  const std::string v2 = dir + "/v2.bin";
  ASSERT_TRUE(WriteTurnstileStream(SampleStream(), 4, v2));
  const std::string v1 = dir + "/v1.bin";
  const std::vector<Edge> edges = {Edge(0, 1), Edge(1, 2)};
  ASSERT_TRUE(WriteBinaryEdgeStream(edges.data(), edges.size(), 3, v1));

  BinaryEdgeReader edge_reader;
  std::string error;
  EXPECT_FALSE(edge_reader.Open(v2, &error));
  EXPECT_NE(error.find("turnstile"), std::string::npos) << error;

  TurnstileBinaryReader turnstile_reader;
  error.clear();
  EXPECT_FALSE(turnstile_reader.Open(v1, &error));
  EXPECT_NE(error.find("insert-only"), std::string::npos) << error;
}

TEST(TurnstileIoTest, RejectsInvalidOpByte) {
  const std::string dir = MakeTempDir("turnstile_bad_op");
  const std::string path = dir + "/s.bin";
  ASSERT_TRUE(WriteTurnstileStream(SampleStream(), 4, path));
  std::string bytes = ReadFileBytes(path);
  // Second record's op byte; patch the CRC so only the op rule trips.
  bytes[kTurnstileHeaderSize + kTurnstileRecordSize] = 2;
  FixupCrc(&bytes);
  WriteFileBytes(path, bytes);

  TurnstileBinaryReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("op byte"), std::string::npos) << error;
}

TEST(TurnstileIoTest, RejectsCorruptPayloadTruncationAndConcatenation) {
  const std::string dir = MakeTempDir("turnstile_damage");
  const std::string path = dir + "/s.bin";
  ASSERT_TRUE(WriteTurnstileStream(SampleStream(), 4, path));
  const std::string good = ReadFileBytes(path);

  std::string error;
  {  // CRC catches payload corruption.
    std::string bad = good;
    bad[kTurnstileHeaderSize + 3] ^= 0x40;
    WriteFileBytes(path, bad);
    TurnstileBinaryReader reader;
    EXPECT_FALSE(reader.Open(path, &error));
  }
  {  // Exact-size check catches truncation...
    WriteFileBytes(path, good.substr(0, good.size() - 1));
    TurnstileBinaryReader reader;
    EXPECT_FALSE(reader.Open(path, &error));
  }
  {  // ...and concatenated streams (v2+v2 and v2+v1 alike).
    WriteFileBytes(path, good + good);
    TurnstileBinaryReader reader;
    EXPECT_FALSE(reader.Open(path, &error));
    EXPECT_NE(error.find("concatenated"), std::string::npos) << error;
  }
  {
    const std::string v1 = dir + "/v1.bin";
    const std::vector<Edge> edges = {Edge(0, 1)};
    ASSERT_TRUE(WriteBinaryEdgeStream(edges.data(), edges.size(), 2, v1));
    WriteFileBytes(path, good + ReadFileBytes(v1));
    TurnstileBinaryReader reader;
    EXPECT_FALSE(reader.Open(path, &error));
  }
}

TEST(TurnstileIoTest, StrictModeRejectsUnmatchedDelete) {
  const std::string dir = MakeTempDir("turnstile_unmatched");
  const std::string path = dir + "/s.bin";
  TurnstileStream s;
  s.emplace_back(Edge(0, 1), TurnstileOp::kInsert);
  s.emplace_back(Edge(1, 2), TurnstileOp::kDelete);  // Never inserted.
  ASSERT_TRUE(WriteTurnstileStream(s, 3, path));

  TurnstileBinaryReader strict;
  std::string error;
  EXPECT_FALSE(strict.Open(path, &error));
  EXPECT_NE(error.find("unmatched delete"), std::string::npos) << error;

  TurnstileBinaryReader lax;
  lax.set_strict(false);
  ASSERT_TRUE(lax.Open(path, &error)) << error;
  EXPECT_EQ(lax.stream(), s);
}

TEST(LiveEdgesTest, CountsMultiplicityAndPreservesFirstInsertionOrder) {
  TurnstileStream s;
  s.emplace_back(Edge(2, 3), TurnstileOp::kInsert);
  s.emplace_back(Edge(0, 1), TurnstileOp::kInsert);
  s.emplace_back(Edge(0, 1), TurnstileOp::kInsert);  // Multiplicity 2.
  s.emplace_back(Edge(2, 3), TurnstileOp::kDelete);
  s.emplace_back(Edge(0, 1), TurnstileOp::kDelete);  // Still live (1 left).
  s.emplace_back(Edge(4, 5), TurnstileOp::kDelete);  // Unmatched: clamped.
  s.emplace_back(Edge(2, 3), TurnstileOp::kInsert);  // Re-inserted.
  const std::vector<Edge> live = LiveEdges(s);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], Edge(2, 3));  // First-insertion order.
  EXPECT_EQ(live[1], Edge(0, 1));
}

TEST(TurnstileStreamTest, FingerprintIsSensitiveToOps) {
  const TurnstileStream a = SampleStream();
  TurnstileStream b = a;
  b[3].op = TurnstileOp::kInsert;  // Same edges, one op flipped.
  EXPECT_NE(FingerprintTurnstileStream(a), FingerprintTurnstileStream(b));
  const TurnstileStream inserts =
      TurnstileFromEdges(std::vector<Edge>{Edge(0, 1), Edge(1, 2)});
  EXPECT_NE(FingerprintTurnstileStream(a), FingerprintTurnstileStream(inserts));
}

ApproxConfig TestBase(std::uint64_t seed) {
  ApproxConfig base;
  base.epsilon = 0.3;
  base.c = 1.0;
  base.t_guess = 50.0;
  base.seed = seed;
  return base;
}

// On an insert-only stream the turnstile c4 wrapper must be bit-identical
// to the arb-f2 edge kind with the same Params — same seed chain, same
// update order, same accumulators.
TEST(TurnstileEquivalenceTest, InsertOnlyC4MatchesArbF2) {
  Rng gen_rng(11);
  const EdgeList graph = ErdosRenyiGnm(40, 160, gen_rng);
  EdgeStream edges = graph.edges();
  Rng order_rng(5);
  order_rng.Shuffle(edges);

  ArbF2FourCycleCounter::Params p;
  p.base = TestBase(21);
  p.num_vertices = graph.num_vertices();

  ArbF2FourCycleCounter reference(p);
  RunEdgeStream(reference, edges);

  TurnstileF2FourCycleCounter turnstile(p);
  RunTurnstileStream(turnstile, TurnstileFromEdges(edges));

  EXPECT_EQ(turnstile.Result().value, reference.Result().value);
}

// The headline cancellation contract: inserting A then B, then deleting B
// again, leaves estimates bit-identical to inserting A alone — for both
// turnstile kinds, at every thread count.
TEST(TurnstileCancellationTest, DeletesCancelExactlyAtAnyThreadCount) {
  Rng gen_rng(3);
  const EdgeList graph = ErdosRenyiGnm(50, 260, gen_rng);
  EdgeStream edges = graph.edges();
  Rng order_rng(9);
  order_rng.Shuffle(edges);
  const std::size_t half = edges.size() / 2;

  TurnstileStream cancelled = TurnstileFromEdges(edges);
  for (std::size_t i = edges.size(); i-- > half;) {
    cancelled.emplace_back(edges[i], TurnstileOp::kDelete);
  }
  const TurnstileStream insert_only = TurnstileFromEdges(
      std::span<const Edge>(edges.data(), half));

  const int saved_threads = DefaultThreads();
  for (int threads : {1, 8}) {
    SetDefaultThreads(threads);
    TurnstileF2TriangleCounter::Params tp;
    tp.base = TestBase(77);
    tp.num_vertices = graph.num_vertices();
    TurnstileF2TriangleCounter tri_cancelled(tp);
    RunTurnstileStream(tri_cancelled, cancelled);
    TurnstileF2TriangleCounter tri_inserts(tp);
    RunTurnstileStream(tri_inserts, insert_only);
    EXPECT_EQ(tri_cancelled.Result().value, tri_inserts.Result().value)
        << "triangle kind, threads=" << threads;

    TurnstileF2FourCycleCounter::Params cp;
    cp.base = TestBase(78);
    cp.num_vertices = graph.num_vertices();
    TurnstileF2FourCycleCounter c4_cancelled(cp);
    RunTurnstileStream(c4_cancelled, cancelled);
    TurnstileF2FourCycleCounter c4_inserts(cp);
    RunTurnstileStream(c4_inserts, insert_only);
    EXPECT_EQ(c4_cancelled.Result().value, c4_inserts.Result().value)
        << "c4 kind, threads=" << threads;
  }
  SetDefaultThreads(saved_threads);
}

// Full cancellation drives every estimate to the empty-graph value.
TEST(TurnstileCancellationTest, FullCancellationYieldsEmptyGraphEstimate) {
  const EdgeList graph = testing::Clique(8);
  TurnstileStream stream = TurnstileFromEdges(graph.edges());
  for (const Edge& e : graph.edges()) {
    stream.emplace_back(e, TurnstileOp::kDelete);
  }
  TurnstileF2TriangleCounter::Params p;
  p.base = TestBase(5);
  p.num_vertices = graph.num_vertices();
  TurnstileF2TriangleCounter alg(p);
  RunTurnstileStream(alg, stream);
  EXPECT_EQ(alg.Result().value, 0.0);
}

TurnstileAlgorithmFactory TriangleFactory(VertexId n, std::uint64_t seed) {
  TurnstileF2TriangleCounter::Params p;
  p.base = TestBase(seed);
  p.num_vertices = n;
  return [p] { return std::make_unique<TurnstileF2TriangleCounter>(p); };
}

// A window covering the whole stream (no bucket ever retired) folds back
// to exactly the unwindowed state — linearity in action.
TEST(WindowTest, WholeStreamWindowMatchesUnwindowed) {
  Rng gen_rng(17);
  const EdgeList graph = ErdosRenyiGnm(40, 160, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());

  auto factory = TriangleFactory(graph.num_vertices(), 101);
  std::unique_ptr<TurnstileStreamAlgorithm> plain = factory();
  RunTurnstileStream(*plain, stream);

  SlidingWindowAlgorithm windowed(factory, factory()->CheckpointId(),
                                  stream.size(), 4);
  ASSERT_EQ(stream.size() % 4, 0u) << "pick a stream length divisible by 4";
  RunTurnstileStream(windowed, stream);

  EXPECT_EQ(windowed.Result().value, plain->Result().value);
}

// The windowed estimate must equal a fresh instance replaying exactly the
// updates inside the live buckets — the suffix-replay oracle, on a stream
// three windows long (so retirement has happened repeatedly).
TEST(WindowTest, MatchesSuffixReplayOracle) {
  Rng gen_rng(23);
  const EdgeList graph = ErdosRenyiGnm(50, 240, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  const std::uint64_t kWindow = 80;
  const std::uint64_t kBuckets = 4;
  const std::uint64_t width = kWindow / kBuckets;

  auto factory = TriangleFactory(graph.num_vertices(), 55);
  SlidingWindowAlgorithm windowed(factory, factory()->CheckpointId(), kWindow,
                                  kBuckets);
  RunTurnstileStream(windowed, stream);

  // Live buckets after the run: the last position's bucket and its
  // kBuckets-1 predecessors.
  const std::uint64_t last_bucket = (stream.size() - 1) / width;
  const std::uint64_t first_live =
      last_bucket + 1 >= kBuckets ? (last_bucket + 1 - kBuckets) * width : 0;
  std::unique_ptr<TurnstileStreamAlgorithm> oracle = factory();
  const TurnstileStream suffix(stream.begin() + first_live, stream.end());
  RunTurnstileStream(*oracle, suffix);

  EXPECT_EQ(windowed.Result().value, oracle->Result().value);
}

// Bucket contents are fixed stream positions, so the estimate must not
// depend on how the driver batches updates into blocks.
TEST(WindowTest, BlockSizeInvariance) {
  Rng gen_rng(29);
  const EdgeList graph = ErdosRenyiGnm(40, 180, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());

  auto factory = TriangleFactory(graph.num_vertices(), 61);
  double reference = 0.0;
  bool have_reference = false;
  for (std::size_t block : {1, 3, 7, 64, 1024}) {
    SlidingWindowAlgorithm windowed(factory, factory()->CheckpointId(), 60, 3);
    windowed.StartPass(0, stream.size());
    for (std::size_t pos = 0; pos < stream.size(); pos += block) {
      const std::size_t n = std::min(block, stream.size() - pos);
      windowed.ProcessUpdateBlock(
          0, std::span<const TurnstileUpdate>(stream.data() + pos, n), pos);
    }
    windowed.EndPass(0);
    if (!have_reference) {
      reference = windowed.Result().value;
      have_reference = true;
    } else {
      EXPECT_EQ(windowed.Result().value, reference) << "block=" << block;
    }
  }
}

// Satellite (c): the checkpoint kill-point sweep for a windowed query.
// Kill + resume at every bucket boundary (and just off it) must reproduce
// the uninterrupted run's estimate bit-for-bit.
TEST(WindowCheckpointTest, KillPointSweepAtEveryBucketBoundary) {
  Rng gen_rng(41);
  const EdgeList graph = ErdosRenyiGnm(30, 120, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  const std::uint64_t kWindow = 40;
  const std::uint64_t kBuckets = 4;
  const std::uint64_t width = kWindow / kBuckets;

  auto factory = TriangleFactory(graph.num_vertices(), 71);
  SlidingWindowAlgorithm golden(factory, factory()->CheckpointId(), kWindow,
                                kBuckets);
  RunTurnstileStream(golden, stream);
  const double golden_value = golden.Result().value;

  const std::string dir = MakeTempDir("window_kill_sweep");
  std::vector<std::uint64_t> kill_points;
  for (std::uint64_t pos = width; pos < stream.size(); pos += width) {
    kill_points.push_back(pos);       // Exactly at a bucket boundary.
    kill_points.push_back(pos + 1);   // Just after (bucket freshly opened).
  }
  for (const std::uint64_t kill : kill_points) {
    CheckpointPolicy policy;
    policy.directory = dir;
    policy.every_elements = 1;
    FaultPlan faults;
    faults.KillAfterElements(kill);
    RunOptions kill_options;
    kill_options.checkpoint = &policy;
    kill_options.faults = &faults;
    SlidingWindowAlgorithm victim(factory, factory()->CheckpointId(), kWindow,
                                  kBuckets);
    const RunOutcome killed = RunTurnstileStream(victim, stream, kill_options);
    ASSERT_FALSE(killed.completed) << "kill point " << kill;
    ASSERT_FALSE(killed.checkpoint_path.empty()) << "kill point " << kill;

    SlidingWindowAlgorithm resumed(factory, factory()->CheckpointId(), kWindow,
                                   kBuckets);
    RunOptions resume_options;
    resume_options.resume_from = killed.checkpoint_path;
    const RunOutcome outcome =
        RunTurnstileStream(resumed, stream, resume_options);
    ASSERT_TRUE(outcome.completed);
    ASSERT_TRUE(outcome.resumed) << "kill point " << kill;
    EXPECT_EQ(resumed.Result().value, golden_value) << "kill point " << kill;
  }
}

// A snapshot from a different window geometry must be rejected, falling
// back to a from-scratch run that still matches the golden value.
TEST(WindowCheckpointTest, MismatchedWindowConfigRejectsResume) {
  Rng gen_rng(43);
  const EdgeList graph = ErdosRenyiGnm(30, 120, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  auto factory = TriangleFactory(graph.num_vertices(), 73);

  const std::string dir = MakeTempDir("window_mismatch");
  CheckpointPolicy policy;
  policy.directory = dir;
  policy.every_elements = 1;
  FaultPlan faults;
  faults.KillAfterElements(stream.size() / 2);
  RunOptions kill_options;
  kill_options.checkpoint = &policy;
  kill_options.faults = &faults;
  SlidingWindowAlgorithm victim(factory, factory()->CheckpointId(), 40, 4);
  const RunOutcome killed = RunTurnstileStream(victim, stream, kill_options);
  ASSERT_FALSE(killed.completed);

  SlidingWindowAlgorithm golden(factory, factory()->CheckpointId(), 40, 2);
  RunTurnstileStream(golden, stream);

  SlidingWindowAlgorithm other(factory, factory()->CheckpointId(), 40, 2);
  RunOptions options;
  options.resume_from = killed.checkpoint_path;
  const RunOutcome outcome = RunTurnstileStream(other, stream, options);
  EXPECT_TRUE(outcome.resume_rejected);
  EXPECT_FALSE(outcome.resumed);
  EXPECT_EQ(other.Result().value, golden.Result().value);
}

// A snapshot whose CRC is valid but whose Z counters hold a NaN or ±inf
// would silently poison the estimate: restore must reject it and fall back
// to a from-scratch run that matches the golden value.
TEST(TurnstileCheckpointTest, NonFiniteTriangleCounterIsRejected) {
  Rng gen_rng(45);
  const EdgeList graph = ErdosRenyiGnm(30, 120, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  auto factory = TriangleFactory(graph.num_vertices(), 75);
  std::unique_ptr<TurnstileStreamAlgorithm> golden = factory();
  RunTurnstileStream(*golden, stream);

  const std::string dir = MakeTempDir("turnstile_nonfinite");
  CheckpointPolicy policy;
  policy.directory = dir;
  policy.every_elements = 1;
  FaultPlan faults;
  faults.KillAfterElements(stream.size() / 2);
  RunOptions kill_options;
  kill_options.checkpoint = &policy;
  kill_options.faults = &faults;
  std::unique_ptr<TurnstileStreamAlgorithm> victim = factory();
  const RunOutcome killed = RunTurnstileStream(*victim, stream, kill_options);
  ASSERT_FALSE(killed.completed);
  std::string error;
  const std::optional<Snapshot> snap =
      LoadSnapshot(killed.checkpoint_path, &error);
  ASSERT_TRUE(snap.has_value()) << error;

  // turnstile-tri/1 blob: a 36-byte config header, a u64 length, then the
  // per-copy Z doubles. Poison the first and the last.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const std::size_t offset : {std::size_t{44}, snap->state.size() - 8}) {
      SCOPED_TRACE("value " + std::to_string(bad) + " at byte " +
                   std::to_string(offset));
      Snapshot poisoned = *snap;
      std::memcpy(poisoned.state.data() + offset, &bad, sizeof(bad));
      const std::string path = dir + "/poisoned.ckpt";
      ASSERT_TRUE(SaveSnapshot(path, poisoned, &error)) << error;

      std::unique_ptr<TurnstileStreamAlgorithm> resumed = factory();
      RunOptions options;
      options.resume_from = path;
      const RunOutcome outcome = RunTurnstileStream(*resumed, stream, options);
      EXPECT_TRUE(outcome.resume_rejected);
      EXPECT_FALSE(outcome.resumed);
      EXPECT_EQ(resumed->Result().value, golden->Result().value);
    }
  }
}

// Decay must equal the hand-driven oracle: process an epoch, rescale by
// 2^-k, process the next epoch — per the scheduled-rescale definition.
TEST(DecayTest, MatchesEpochBoundaryOracle) {
  Rng gen_rng(47);
  const EdgeList graph = ErdosRenyiGnm(40, 200, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  const std::uint64_t kEpoch = 64;
  const std::uint32_t kLog2 = 3;

  auto factory = TriangleFactory(graph.num_vertices(), 81);
  DecayAlgorithm decayed(factory(), kEpoch, kLog2);
  RunTurnstileStream(decayed, stream);

  std::unique_ptr<TurnstileStreamAlgorithm> oracle = factory();
  oracle->StartPass(0, stream.size());
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    if (pos > 0 && pos % kEpoch == 0) {
      ASSERT_TRUE(oracle->Rescale(std::ldexp(1.0, -static_cast<int>(kLog2))));
    }
    oracle->ProcessUpdate(0, stream[pos], pos);
  }
  oracle->EndPass(0);

  EXPECT_EQ(decayed.Result().value, oracle->Result().value);
}

TEST(DecayTest, BlockSizeInvariance) {
  Rng gen_rng(53);
  const EdgeList graph = ErdosRenyiGnm(40, 200, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());

  auto factory = TriangleFactory(graph.num_vertices(), 91);
  double reference = 0.0;
  bool have_reference = false;
  for (std::size_t block : {1, 5, 63, 64, 65, 512}) {
    DecayAlgorithm decayed(factory(), 64, 2);
    decayed.StartPass(0, stream.size());
    for (std::size_t pos = 0; pos < stream.size(); pos += block) {
      const std::size_t n = std::min(block, stream.size() - pos);
      decayed.ProcessUpdateBlock(
          0, std::span<const TurnstileUpdate>(stream.data() + pos, n), pos);
    }
    decayed.EndPass(0);
    if (!have_reference) {
      reference = decayed.Result().value;
      have_reference = true;
    } else {
      EXPECT_EQ(decayed.Result().value, reference) << "block=" << block;
    }
  }
}

// The broker's turnstile path must be bit-identical to standalone runs at
// any thread count (2 splits the three queries unevenly, 3 gives each its
// own thread) and export the window/decay knobs into the per-query
// manifest sections.
TEST(EngineTurnstileTest, BrokerMatchesStandaloneAndExportsKnobs) {
  Rng gen_rng(59);
  const EdgeList graph = ErdosRenyiGnm(40, 160, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());

  engine::QuerySpec windowed;
  windowed.name = "win";
  windowed.kind = engine::QueryKind::kTurnstileF2Triangle;
  windowed.base = TestBase(7);
  windowed.num_vertices = graph.num_vertices();
  windowed.window_edges = 80;
  windowed.window_buckets = 4;

  engine::QuerySpec decayed;
  decayed.name = "dec";
  decayed.kind = engine::QueryKind::kTurnstileF2C4;
  decayed.base = TestBase(8);
  decayed.num_vertices = graph.num_vertices();
  decayed.decay_epoch_edges = 50;
  decayed.decay_log2 = 2;

  engine::QuerySpec plain;
  plain.name = "plain";
  plain.kind = engine::QueryKind::kTurnstileF2C4;
  plain.base = TestBase(9);
  plain.num_vertices = graph.num_vertices();

  const std::vector<engine::QuerySpec> specs = {windowed, decayed, plain};
  std::vector<double> standalone;
  for (const engine::QuerySpec& spec : specs) {
    engine::TurnstileQuery query = engine::MakeTurnstileQuery(spec);
    RunTurnstileStream(*query.algorithm, stream);
    standalone.push_back(query.result().value);
  }

  const int saved_threads = DefaultThreads();
  std::vector<engine::QueryOutcome> outcomes;
  engine::EngineStats stats;
  for (int threads : {1, 2, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetDefaultThreads(threads);
    engine::StreamBroker broker;
    for (const engine::QuerySpec& spec : specs) broker.AddQuery(spec);
    outcomes = broker.RunTurnstileQueries(stream);
    stats = broker.stats();
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(outcomes[i].estimate.value, standalone[i]) << specs[i].name;
    }
  }
  SetDefaultThreads(saved_threads);

  RunManifest manifest("turnstile_test");
  engine::ExportToManifest(outcomes, stats, manifest);
  const std::string json = manifest.DeterministicJson();
  EXPECT_NE(json.find("\"window\""), std::string::npos);
  EXPECT_NE(json.find("\"window_buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"decay_epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"decay_log2\""), std::string::npos);
}

TEST(EngineTurnstileTest, RunTurnstileQueriesRejectsOtherFamilies) {
  engine::QuerySpec spec;
  spec.name = "edge";
  spec.kind = engine::QueryKind::kArbF2;
  spec.num_vertices = 8;
  engine::StreamBroker broker;
  broker.AddQuery(spec);
  EXPECT_DEATH(broker.RunTurnstileQueries(TurnstileStream{}),
               "non-turnstile");
}

// Spec-codec coverage for the windowing keys: strict parsing, the
// validation matrix, and the lossless Format -> Parse round trip.
TEST(TurnstileSpecTest, WindowingValidationAndRoundTrip) {
  const engine::QuerySpec defaults;
  auto parse = [&](const std::string& line, std::vector<engine::QuerySpec>* out,
                   std::string* error) {
    std::istringstream in(line);
    return engine::ParseSpecStream(in, "<spec>", defaults, out, error);
  };

  std::vector<engine::QuerySpec> specs;
  std::string error;
  ASSERT_TRUE(parse("name=q kind=turnstile-f2-triangle num_vertices=10 "
                    "window=40 window_buckets=4",
                    &specs, &error))
      << error;
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].window_edges, 40u);
  EXPECT_EQ(specs[0].window_buckets, 4u);

  // Round trip preserves every windowing field bit-for-bit.
  specs[0].decay_epoch_edges = 0;
  const std::string line = engine::FormatSpecLine(specs[0]);
  std::vector<engine::QuerySpec> reparsed;
  ASSERT_TRUE(parse(line, &reparsed, &error)) << error;
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0].window_edges, specs[0].window_edges);
  EXPECT_EQ(reparsed[0].window_buckets, specs[0].window_buckets);
  EXPECT_EQ(engine::FingerprintSpecs(reparsed),
            engine::FingerprintSpecs(specs));

  // Fingerprint changes when a result-affecting windowing knob changes.
  std::vector<engine::QuerySpec> other = specs;
  other[0].window_edges = 80;
  EXPECT_NE(engine::FingerprintSpecs(other), engine::FingerprintSpecs(specs));

  struct BadCase {
    const char* line;
    const char* needle;
  };
  const BadCase bad_cases[] = {
      {"name=q kind=arb-f2 window=40", "turnstile"},
      {"name=q kind=turnstile-f2-c4 window=40 window_buckets=7", "multiple"},
      {"name=q kind=turnstile-f2-c4 window=40 decay_epoch=10 decay_log2=2",
       "mutually exclusive"},
      {"name=q kind=turnstile-f2-c4 decay_epoch=10", "decay_log2"},
      {"name=q kind=turnstile-f2-c4 decay_epoch=10 decay_log2=33", "[0, 32]"},
      {"name=q kind=turnstile-f2-c4 decay_log2=2", "decay_epoch"},
  };
  for (const BadCase& c : bad_cases) {
    std::vector<engine::QuerySpec> ignored;
    error.clear();
    EXPECT_FALSE(parse(c.line, &ignored, &error)) << c.line;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.line << " -> " << error;
  }
}

}  // namespace
}  // namespace cyclestream
