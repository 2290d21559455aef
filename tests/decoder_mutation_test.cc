// Mutation sweep over every durable decoder: the v1 edge stream, the v2
// turnstile stream, CYCLSNP snapshots, shard states, daemon manifests and
// heartbeat logs. Each kind starts from a valid encoding and is fed
// seeded bit flips, every truncation, splices (two valid files
// concatenated, frames swapped between kinds) and forged counts and sizes,
// all through one entry point, Decode(). The snapshot and the shard state
// carry arb-f2 blobs at all three widths, restored once the frames
// decode, so a forgery behind a valid CRC also reaches RestoreState. A
// damaged file must be rejected with a non-empty error; a heartbeat log
// must instead yield the last beacon wholly before the damage. Forgeries
// behind a recomputed CRC may decode, but must never crash (the sanitizer
// builds run this too).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/arb_f2_counter.h"
#include "engine/shard.h"
#include "engine/supervisor.h"
#include "graph/binary_io.h"
#include "gtest/gtest.h"
#include "stream/checkpoint.h"
#include "stream/dynamic/turnstile_io.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

using engine::DaemonManifest;
using engine::HeartbeatRecord;
using engine::ShardState;

enum class Kind {
  kEdgeStream,
  kTurnstileStream,
  kSnapshot,
  kShardState,
  kDaemonManifest,
  kHeartbeatLog,
};

constexpr Kind kAllKinds[] = {
    Kind::kEdgeStream,     Kind::kTurnstileStream, Kind::kSnapshot,
    Kind::kShardState,     Kind::kDaemonManifest,  Kind::kHeartbeatLog,
};

const char* Name(Kind kind) {
  switch (kind) {
    case Kind::kEdgeStream: return "v1 edge stream";
    case Kind::kTurnstileStream: return "v2 turnstile stream";
    case Kind::kSnapshot: return "snapshot";
    case Kind::kShardState: return "shard state";
    case Kind::kDaemonManifest: return "daemon manifest";
    case Kind::kHeartbeatLog: return "heartbeat log";
  }
  return "?";
}

bool IsStream(Kind kind) {
  return kind == Kind::kEdgeStream || kind == Kind::kTurnstileStream;
}

// Width of a framed kind's magic: 8 for CYCLSNP, 4 for CYSF.
std::size_t MagicSize(Kind kind) { return kind == Kind::kSnapshot ? 8 : 4; }

// What a decoder made of some bytes. `content` describes what it decoded
// (for a heartbeat log, the last beacon); stream headers go in `header`,
// since the stream CRC covers only the records.
struct Verdict {
  bool ok = false;
  std::string error;
  std::string content;
  std::string header;
};

// One record of a valid encoding: the header of a stream file, or one
// frame of a framed file.
struct Span {
  std::size_t begin = 0;
  std::size_t header = 0;  // Header bytes before the payload.
  std::size_t end = 0;
};

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  // A fresh inode each time: truncating a file that holds data makes some
  // file systems flush it, which would dominate the sweep's run time.
  std::filesystem::remove(path);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutU64(std::string* bytes, std::size_t at, std::uint64_t v) {
  PutLE(bytes->data() + at, v, 8);
}

// The arb-f2 counter whose blobs the snapshot and shard state carry: 4
// vertices, 2 copies, 20 slots.
ArbF2FourCycleCounter::Params BlobParams() {
  ArbF2FourCycleCounter::Params params;
  params.base.epsilon = 0.5;
  params.base.seed = 3;
  params.num_vertices = 4;
  params.copies_per_group = 2;
  params.groups = 1;
  return params;
}

// A blob at `width`: a 4-cycle (int16), then 16,384 self-loops on vertex
// 0 whose A slots pass 32,767 (int32), or a rescale by 1/4 that leaves
// halves (double; every 4-cycle slot is a sum of two ±1 terms, so a
// rescale by 1/2 would leave integers). The blob's width tag follows the
// 44 bytes of config fields.
std::string ArbF2Blob(ArbF2FourCycleCounter::SlotWidth width) {
  using SlotWidth = ArbF2FourCycleCounter::SlotWidth;
  ArbF2FourCycleCounter counter(BlobParams());
  for (const Edge e : {Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3)}) {
    counter.Insert(e);
  }
  if (width == SlotWidth::kInt32) {
    for (int i = 0; i < 16384; ++i) counter.Insert(Edge(0, 0));
  } else if (width == SlotWidth::kDouble) {
    counter.Rescale(0.25);
  }
  StateWriter w;
  EXPECT_TRUE(counter.SaveState(w));
  std::string blob = w.Take();
  constexpr std::size_t kTagOffset = 4 + 5 * 8;
  EXPECT_GT(blob.size(), kTagOffset);
  EXPECT_EQ(blob[kTagOffset], static_cast<char>(width));
  return blob;
}

// Restores a decoded blob into a fresh counter. A refusal rejects the
// file; an accepted blob must re-save to its own bytes, since the arb-f2
// blob has one encoding per state.
bool RestoreArbF2(const std::string& blob, Verdict* v) {
  ArbF2FourCycleCounter counter(BlobParams());
  StateReader r(blob);
  if (!counter.RestoreState(r) || !r.AtEnd()) {
    v->error = "arb-f2 blob refused";
    return false;
  }
  StateWriter w;
  EXPECT_TRUE(counter.SaveState(w));
  EXPECT_EQ(w.str(), blob) << "an accepted blob re-saved differently";
  return true;
}

class DecoderMutationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = ::testing::TempDir() + "/decoder_mutation";
    std::filesystem::create_directories(dir_);
    for (Kind kind : kAllKinds) valid_[static_cast<int>(kind)] = Encode(kind);
  }

  static const std::string& Valid(Kind kind) {
    return valid_[static_cast<int>(kind)];
  }

  static std::string Path(const char* name) { return dir_ + "/" + name; }

  // The one entry point: decodes `bytes` as `kind`, going through a file
  // for the decoders that read one.
  static Verdict Decode(Kind kind, const std::string& bytes) {
    Verdict v;
    StateWriter w;
    const std::string path = Path("mutant");
    switch (kind) {
      case Kind::kEdgeStream: {
        WriteBytes(path, bytes);
        BinaryEdgeReader reader;
        v.ok = reader.Open(path, &v.error);
        if (v.ok) {
          w.Bytes(reader.edges(), reader.num_edges() * sizeof(Edge));
          v.header = std::to_string(reader.num_vertices());
        }
        break;
      }
      case Kind::kTurnstileStream: {
        WriteBytes(path, bytes);
        TurnstileBinaryReader reader;
        v.ok = reader.Open(path, &v.error);
        for (const TurnstileUpdate& u : reader.stream()) {
          char rec[kTurnstileRecordSize];
          EncodeTurnstileRecord(u, rec);
          w.Bytes(rec, sizeof(rec));
        }
        if (v.ok) v.header = std::to_string(reader.num_vertices());
        break;
      }
      case Kind::kSnapshot: {
        const auto snap = DecodeSnapshot(bytes, &v.error);
        v.ok = snap.has_value() && RestoreArbF2(snap->state, &v);
        if (v.ok) w.Str(EncodeSnapshot(*snap));
        break;
      }
      case Kind::kShardState: {
        ShardState state;
        v.ok = engine::DecodeShardState(bytes, &state, &v.error);
        for (const auto& [name, blob] : state.query_states) {
          v.ok = v.ok && RestoreArbF2(blob, &v);
        }
        if (v.ok) w.Str(engine::EncodeShardState(state));
        break;
      }
      case Kind::kDaemonManifest: {
        WriteBytes(path, bytes);
        DaemonManifest m;
        v.ok = engine::LoadDaemonManifest(path, &m, &v.error);
        if (!v.ok) break;
        for (std::uint64_t x :
             {m.stream_fingerprint, m.stream_length, m.batch_spec_fingerprint,
              m.epoch_edges, m.block_edges, m.aggregate_words,
              m.per_query_words}) {
          w.U64(x);
        }
        w.U32(m.num_workers);
        w.U32(m.waves_started);
        w.U8(m.drained);
        w.U8(m.completed);
        for (std::uint64_t slot : m.pending_slots) w.U64(slot);
        break;
      }
      case Kind::kHeartbeatLog: {
        WriteBytes(path, bytes);
        HeartbeatRecord hb;
        v.ok = engine::ReadLastHeartbeat(path, &hb);
        if (v.ok) {
          w.U32(hb.worker_id);
          w.U64(hb.edges_done);
          w.U64(hb.seq);
        }
        break;
      }
    }
    v.content = w.Take();
    return v;
  }

  // A valid encoding of `kind`, through its real writer.
  static std::string Encode(Kind kind) {
    const std::string path = Path("valid");
    std::string error;
    switch (kind) {
      case Kind::kEdgeStream: {
        const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 3}, {2, 3}};
        EXPECT_TRUE(
            WriteBinaryEdgeStream(edges.data(), edges.size(), 4, path, &error))
            << error;
        return ReadBytes(path);
      }
      case Kind::kTurnstileStream: {
        TurnstileStream s;
        for (const auto& [u, v, op] :
             std::vector<std::tuple<VertexId, VertexId, TurnstileOp>>{
                 {0, 1, TurnstileOp::kInsert}, {1, 2, TurnstileOp::kInsert},
                 {0, 1, TurnstileOp::kDelete}, {2, 3, TurnstileOp::kInsert},
                 {0, 1, TurnstileOp::kInsert}, {1, 2, TurnstileOp::kDelete}}) {
          s.emplace_back(Edge(u, v), op);
        }
        EXPECT_TRUE(WriteTurnstileStream(s, 4, path, &error)) << error;
        return ReadBytes(path);
      }
      case Kind::kSnapshot: {
        Snapshot snap;
        snap.algorithm_id = ArbF2FourCycleCounter::kCheckpointId;
        snap.stream_fingerprint = 0x1234567890abcdefULL;
        snap.stream_length = 100;
        snap.pass = 1;
        snap.position = 42;
        snap.elements_processed = 142;
        snap.state = ArbF2Blob(ArbF2FourCycleCounter::SlotWidth::kInt32);
        return EncodeSnapshot(snap);
      }
      case Kind::kShardState: {
        ShardState state;
        state.header = {1, 3, 0xfeedULL, 100, 0xbeefULL, 30, 2,
                        {{10, 40}, {70, 80}}};
        state.query_states = {
            {"q0", ArbF2Blob(ArbF2FourCycleCounter::SlotWidth::kInt16)},
            {"q1", ArbF2Blob(ArbF2FourCycleCounter::SlotWidth::kDouble)}};
        return engine::EncodeShardState(state);
      }
      case Kind::kDaemonManifest: {
        DaemonManifest m;
        m.stream_fingerprint = 0xabcULL;
        m.stream_length = 100;
        m.batch_spec_fingerprint = 0x123ULL;
        m.num_workers = 2;
        m.epoch_edges = 25;
        m.block_edges = 10;
        m.aggregate_words = 4000;
        m.per_query_words = 1000;
        m.waves_started = 3;
        m.drained = 1;
        m.pending_slots = {3, 5};
        EXPECT_TRUE(engine::SaveDaemonManifest(path, m, &error)) << error;
        return ReadBytes(path);
      }
      case Kind::kHeartbeatLog: {
        std::filesystem::remove(path);
        for (std::uint64_t seq = 0; seq < 3; ++seq) {
          EXPECT_TRUE(engine::AppendHeartbeat(path, {2, 100 * seq, seq}));
        }
        return ReadBytes(path);
      }
    }
    return {};
  }

  // The header and records of a stream file, or every frame of a framed
  // file, walking a valid encoding of `kind`.
  static std::vector<Span> Spans(Kind kind, const std::string& bytes) {
    if (IsStream(kind)) return {{0, kStreamHeaderSize, bytes.size()}};
    std::vector<Span> spans;
    const std::size_t header = MagicSize(kind) + 16;
    for (std::size_t at = 0; at < bytes.size();) {
      const std::size_t size = GetLE(bytes.data() + at + header - 12, 8);
      spans.push_back({at, header, at + header + size});
      at += header + size;
    }
    return spans;
  }

  // Recomputes the CRC of the span holding `at`, so only the decoder's
  // own payload checks stand between a forgery and acceptance.
  static void FixCrc(Kind kind, std::string* bytes, std::size_t at) {
    for (const Span& s : Spans(kind, *bytes)) {
      if (at < s.begin || at >= s.end) continue;
      const std::uint32_t crc = Crc32(std::string_view(*bytes).substr(
          s.begin + s.header, s.end - s.begin - s.header));
      PutLE(bytes->data() + (IsStream(kind) ? 24 : s.begin + s.header - 4),
            crc, 4);
    }
  }

  // Checks the verdict on `bytes`, a valid encoding of `kind` damaged at
  // byte offset `damage` and beyond: a clean rejection, or for a heartbeat
  // log the last beacon of the whole frames before `damage`.
  static void ExpectDamageCaught(Kind kind, const std::string& valid,
                                 const std::string& bytes, std::size_t damage,
                                 const std::string& mutation) {
    const Verdict v = Decode(kind, bytes);
    if (kind == Kind::kHeartbeatLog) {
      std::size_t intact = 0;
      for (const Span& s : Spans(kind, valid)) {
        if (s.end <= damage) intact = s.end;
      }
      const Verdict want = Decode(kind, valid.substr(0, intact));
      EXPECT_EQ(v.ok, want.ok) << mutation;
      EXPECT_EQ(v.content, want.content) << mutation;
      return;
    }
    EXPECT_FALSE(v.ok) << Name(kind) << ": " << mutation << " was accepted";
    EXPECT_FALSE(!v.ok && v.error.empty())
        << Name(kind) << ": " << mutation << " was rejected without an error";
  }

  static std::string dir_;
  static std::string valid_[std::size(kAllKinds)];
};

std::string DecoderMutationTest::dir_;
std::string DecoderMutationTest::valid_[std::size(kAllKinds)];

TEST_F(DecoderMutationTest, ValidEncodingsDecode) {
  for (Kind kind : kAllKinds) {
    const Verdict v = Decode(kind, Valid(kind));
    EXPECT_TRUE(v.ok) << Name(kind) << ": " << v.error;
    EXPECT_FALSE(v.content.empty()) << Name(kind);
  }
}

TEST_F(DecoderMutationTest, SeededBitFlipsAreRejected) {
  std::mt19937_64 rng(0x5eed);
  for (Kind kind : kAllKinds) {
    const std::string valid = Valid(kind);
    const Verdict clean = Decode(kind, valid);
    for (std::size_t i = 0; i < valid.size(); ++i) {
      std::string bytes = valid;
      const int bit = static_cast<int>(rng() % 8);
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      const std::string mutation =
          "bit " + std::to_string(bit) + " of byte " + std::to_string(i);
      if (IsStream(kind) && i >= 12 && i < 16) {
        // num_vertices is outside the stream CRC: a flip that keeps every
        // edge canonical only widens the vertex range (see DESIGN.md §16).
        const Verdict v = Decode(kind, bytes);
        if (v.ok) {
          EXPECT_EQ(v.content, clean.content) << mutation;
        }
        continue;
      }
      ExpectDamageCaught(kind, valid, bytes, i, mutation);
    }
  }
}

TEST_F(DecoderMutationTest, EveryTruncationIsRejected) {
  for (Kind kind : kAllKinds) {
    const std::string valid = Valid(kind);
    for (std::size_t len = 0; len < valid.size(); ++len) {
      ExpectDamageCaught(kind, valid, valid.substr(0, len), len,
                         "truncation to " + std::to_string(len));
    }
  }
}

TEST_F(DecoderMutationTest, SplicedFilesAreRejected) {
  for (Kind a : kAllKinds) {
    const std::string first = Valid(a);
    for (Kind b : kAllKinds) {
      const std::string second = Valid(b);
      const std::string spliced = first + second;
      const std::string mutation = std::string(Name(a)) + " + " + Name(b);
      if (a == Kind::kHeartbeatLog) {
        // Appending is how a log grows: the last beacon wins, and other
        // CYSF frames are skipped.
        const Verdict v = Decode(a, spliced);
        const Verdict want = Decode(a, b == a ? second : first);
        EXPECT_TRUE(v.ok) << mutation;
        EXPECT_EQ(v.content, want.content) << mutation;
        continue;
      }
      ExpectDamageCaught(a, first, spliced, first.size(), mutation);
    }
  }
}

TEST_F(DecoderMutationTest, FramesSwappedBetweenKindsAreRejected) {
  for (Kind a : kAllKinds) {
    if (a == Kind::kHeartbeatLog) continue;  // Skips foreign frames.
    const std::string valid = Valid(a);
    for (const Span& sa : Spans(a, valid)) {
      for (Kind b : kAllKinds) {
        if (b == a) continue;
        const std::string donor = Valid(b);
        for (const Span& sb : Spans(b, donor)) {
          // Swap whole frames, or for streams the 32-byte header.
          const std::size_t a_end = IsStream(a) ? sa.header : sa.end;
          const std::size_t b_end = IsStream(b) ? sb.header : sb.end;
          const std::string piece = donor.substr(sb.begin, b_end - sb.begin);
          if (piece == valid.substr(sa.begin, a_end - sa.begin)) continue;
          std::string bytes = valid;
          bytes.replace(sa.begin, a_end - sa.begin, piece);
          ExpectDamageCaught(a, valid, bytes, sa.begin,
                             std::string(Name(b)) + " record at " +
                                 std::to_string(sa.begin));
        }
      }
    }
  }
}

TEST_F(DecoderMutationTest, ForgedCountsAndSizesAreRejected) {
  for (Kind kind : kAllKinds) {
    const std::string valid = Valid(kind);
    for (const Span& s : Spans(kind, valid)) {
      // The declared record count of a stream, or a frame's payload size.
      const std::size_t field =
          IsStream(kind) ? 16 : s.begin + MagicSize(kind) + 4;
      const std::uint64_t declared = GetLE(valid.data() + field, 8);
      for (std::uint64_t forged :
           {std::uint64_t{0}, declared - 1, declared + 1,
            declared + (std::uint64_t{1} << 32),
            declared + (std::uint64_t{1} << 61), std::uint64_t{1} << 63,
            ~std::uint64_t{0}}) {
        std::string bytes = valid;
        PutU64(&bytes, field, forged);
        ExpectDamageCaught(kind, valid, bytes, s.begin,
                           "count/size " + std::to_string(forged) + " at " +
                               std::to_string(field));
      }
    }
    if (IsStream(kind)) {
      // A vertex count below an endpoint makes that edge non-canonical.
      for (std::uint32_t n : {0u, 3u}) {
        std::string bytes = valid;
        PutLE(bytes.data() + 12, n, 4);
        ExpectDamageCaught(kind, valid, bytes, 12,
                           "num_vertices " + std::to_string(n));
      }
    }
  }
}

// Counts and sizes inside the payloads, with the CRC recomputed so the
// decoders' bounds checks are all that stand between a forged count and a
// huge allocation or an out-of-range read. Anything may decode; nothing
// may crash, and a rejection names its reason.
TEST_F(DecoderMutationTest, ForgedPayloadFieldsBehindValidCrcsAreSafe) {
  for (Kind kind : kAllKinds) {
    const std::string valid = Valid(kind);
    for (const Span& s : Spans(kind, valid)) {
      for (std::size_t at = s.begin + s.header; at + 8 <= s.end; ++at) {
        for (std::uint64_t forged :
             {std::uint64_t{0}, std::uint64_t{0xffffffff},
              std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
          std::string bytes = valid;
          PutU64(&bytes, at, forged);
          FixCrc(kind, &bytes, at);
          const Verdict v = Decode(kind, bytes);
          EXPECT_TRUE(v.ok || !v.error.empty() || kind == Kind::kHeartbeatLog)
              << Name(kind) << ": forged " << forged << " at " << at;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cyclestream
