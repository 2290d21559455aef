#include "stream/checkpoint.h"

#include "graph/types.h"
#include "stream/space.h"
#include "util/frame.h"
#include "util/io.h"
#include "util/logging.h"

namespace cyclestream {
namespace {

// A snapshot file is one framed blob whose tag is the schema version.
constexpr FrameFormat kSnapshotFormat = {"CYCLSNP\x01", "snapshot",
                                         "schema version", kSnapshotVersion,
                                         kSnapshotVersion};

}  // namespace

std::string EncodeSnapshot(const Snapshot& snap) {
  StateWriter payload;
  payload.Str(snap.algorithm_id);
  payload.U8(snap.stream_kind);
  payload.U64(snap.stream_fingerprint);
  payload.U64(snap.stream_length);
  payload.U64(snap.pass);
  payload.U64(snap.position);
  payload.U64(snap.elements_processed);
  payload.Str(snap.state);

  std::string out;
  out.reserve(kSnapshotFormat.header_size() + payload.str().size());
  AppendFrameParts(&out, kSnapshotFormat, kSnapshotVersion, {payload.str()});
  return out;
}

std::optional<Snapshot> DecodeSnapshot(std::string_view encoded,
                                       std::string* error) {
  FrameCursor cursor(kSnapshotFormat, encoded, "snapshot", error);
  std::string_view payload;
  if (!cursor.Expect(kSnapshotVersion, &payload) || !cursor.Finish()) {
    return std::nullopt;
  }
  StateReader r(payload);
  Snapshot snap;
  snap.algorithm_id = r.Str();
  snap.stream_kind = r.U8();
  snap.stream_fingerprint = r.U64();
  snap.stream_length = r.U64();
  snap.pass = r.U64();
  snap.position = r.U64();
  snap.elements_processed = r.U64();
  snap.state = r.Str();
  if (!r.AtEnd()) {
    cursor.Fail("payload malformed (parse did not consume the declared "
                "payload exactly)");
    return std::nullopt;
  }
  return snap;
}

bool SaveSnapshot(const std::string& path, const Snapshot& snap,
                  std::string* error, const WriteFault* fault) {
  if (fault != nullptr && fault->fail_io) {
    if (error != nullptr) {
      *error = "simulated I/O error (EIO) writing " + path;
    }
    return false;
  }
  std::string encoded = EncodeSnapshot(snap);
  if (fault != nullptr && fault->corrupt_byte >= 0 &&
      static_cast<std::size_t>(fault->corrupt_byte) < encoded.size()) {
    encoded[static_cast<std::size_t>(fault->corrupt_byte)] ^= 0x01;
  }
  if (fault != nullptr && fault->truncate_to >= 0 &&
      static_cast<std::size_t>(fault->truncate_to) < encoded.size()) {
    encoded.resize(static_cast<std::size_t>(fault->truncate_to));
  }

  // EINTR-safe durable write: fsyncs the file before the rename and the
  // parent directory after it, so a crash right after the rename cannot
  // lose the snapshot (util/io.h).
  return io::WriteFileAtomic(path, encoded, error);
}

std::optional<Snapshot> LoadSnapshot(const std::string& path,
                                     std::string* error) {
  std::string encoded;
  if (!io::ReadFileToString(path, &encoded, error)) return std::nullopt;
  return DecodeSnapshot(encoded, error);
}

std::uint64_t FingerprintEdgeStream(std::span<const Edge> edges) {
  std::uint64_t h = Mix64(0x45444745u ^ edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    h = Mix64(h ^ edges[i].Key());
    h = Mix64(h ^ i);
  }
  return h;
}

std::uint64_t FingerprintAdjacencyStream(
    std::span<const AdjacencyList> lists) {
  std::uint64_t h = Mix64(0x41444a59u ^ lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    const AdjacencyList& list = lists[i];
    h = Mix64(h ^ static_cast<std::uint64_t>(list.vertex));
    h = Mix64(h ^ list.neighbors.size());
    for (VertexId v : list.neighbors) {
      h = Mix64(h ^ static_cast<std::uint64_t>(v));
    }
    h = Mix64(h ^ i);
  }
  return h;
}

void SpaceTracker::SaveState(StateWriter& w) const {
  auto write_entries = [&w](const std::vector<Entry>& entries) {
    w.Size(entries.size());
    for (const Entry& e : entries) {
      w.Str(e.name);
      w.Size(e.words);
    }
  };
  write_entries(components_);
  write_entries(peak_components_);
  w.Size(baseline_);
  w.Size(current_);
  w.Size(peak_);
}

bool SpaceTracker::RestoreState(StateReader& r) {
  auto read_entries = [&r](std::vector<Entry>* entries) {
    const std::size_t n = r.Size();
    if (!r.ok() || n > r.Remaining()) return r.Fail();
    entries->clear();
    entries->reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Entry e;
      e.name = r.Str();
      e.words = r.Size();
      entries->push_back(std::move(e));
    }
    return r.ok();
  };
  std::vector<Entry> components, peak_components;
  if (!read_entries(&components) || !read_entries(&peak_components)) {
    return false;
  }
  const std::size_t baseline = r.Size();
  const std::size_t current = r.Size();
  const std::size_t peak = r.Size();
  if (!r.ok()) return false;
  components_ = std::move(components);
  peak_components_ = std::move(peak_components);
  baseline_ = baseline;
  current_ = current;
  peak_ = peak;
  return true;
}

}  // namespace cyclestream
