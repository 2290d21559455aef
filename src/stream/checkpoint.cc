#include "stream/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "graph/types.h"
#include "stream/space.h"
#include "util/crc32.h"
#include "util/io.h"
#include "util/logging.h"

namespace cyclestream {
namespace {

constexpr char kMagic[8] = {'C', 'Y', 'C', 'L', 'S', 'N', 'P', '\x01'};
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;

void PutLE32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutLE64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t GetLE(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

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

  const std::string& body = payload.str();
  std::string out;
  out.reserve(kHeaderSize + body.size());
  out.append(kMagic, sizeof(kMagic));
  PutLE32(out, kSnapshotVersion);
  PutLE64(out, static_cast<std::uint64_t>(body.size()));
  PutLE32(out, Crc32(body));
  out.append(body);
  return out;
}

std::optional<Snapshot> DecodeSnapshot(std::string_view encoded,
                                       std::string* error) {
  auto reject = [error](const std::string& why) -> std::optional<Snapshot> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (encoded.size() < kHeaderSize) {
    return reject("snapshot truncated: " + std::to_string(encoded.size()) +
                  " bytes is smaller than the header");
  }
  if (std::memcmp(encoded.data(), kMagic, sizeof(kMagic)) != 0) {
    return reject("bad snapshot magic");
  }
  const auto version =
      static_cast<std::uint32_t>(GetLE(encoded.data() + 8, 4));
  if (version != kSnapshotVersion) {
    return reject("snapshot schema version mismatch: file has v" +
                  std::to_string(version) + ", this binary expects v" +
                  std::to_string(kSnapshotVersion));
  }
  const std::uint64_t payload_size = GetLE(encoded.data() + 12, 8);
  if (payload_size != encoded.size() - kHeaderSize) {
    return reject("snapshot size mismatch: header declares " +
                  std::to_string(payload_size) + " payload bytes, file has " +
                  std::to_string(encoded.size() - kHeaderSize));
  }
  const auto crc = static_cast<std::uint32_t>(GetLE(encoded.data() + 20, 4));
  const std::string_view payload = encoded.substr(kHeaderSize);
  if (Crc32(payload) != crc) {
    return reject("snapshot CRC mismatch (corrupt payload)");
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
    return reject("snapshot payload malformed (parse did not consume the "
                  "declared payload exactly)");
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
