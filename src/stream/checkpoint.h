#ifndef CYCLESTREAM_STREAM_CHECKPOINT_H_
#define CYCLESTREAM_STREAM_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "stream/order.h"
#include "util/serialize.h"

namespace cyclestream {

/// Checkpoint/restore for multi-pass stream algorithms.
///
/// A snapshot captures the *stream-dependent mutable state* of an algorithm
/// mid-run; everything derived purely from its Params (hash coefficients,
/// sign caches, derived rates) is reconstructed by the constructor and only
/// *verified* on restore via config fingerprints. A snapshot file is one
/// framed blob (util/frame.h, DESIGN.md §16) with magic "CYCLSNP\x01" and
/// the schema version as its tag:
///
///   magic(8) | version(u32) | payload_size(u64) | crc32(payload) | payload
///
/// payload = algorithm_id | stream_kind | stream_fingerprint |
///           stream_length | pass | position | elements_processed |
///           state blob (length-prefixed)
///
/// Every field of the header is validated on load, the CRC covers the whole
/// payload (any single-byte flip is detected), and the payload parse is
/// bounded and must consume the payload exactly. A snapshot that fails any
/// check is rejected with a descriptive error — never partially restored.
/// Writes are atomic: tmp file + std::rename.

// ---------------------------------------------------------------------------
// Snapshot format
// ---------------------------------------------------------------------------
//
// The state codec (StateWriter/StateReader and the unordered-container
// helpers) lives in util/serialize.h so hash/sketch classes can serialize
// themselves without a dependency on the stream library.

inline constexpr std::uint32_t kSnapshotVersion = 1;

struct Snapshot {
  std::string algorithm_id;  // Includes a per-algorithm schema tag.
  std::uint8_t stream_kind = 0;  // 0 = edge stream, 1 = adjacency stream.
  std::uint64_t stream_fingerprint = 0;
  std::uint64_t stream_length = 0;
  std::uint64_t pass = 0;      // Pass to resume in.
  std::uint64_t position = 0;  // First unprocessed element of that pass.
  std::uint64_t elements_processed = 0;  // Total across passes (cadence).
  std::string state;           // Algorithm state blob.
};

/// Fault hooks applied to a single snapshot write (see stream/fault.h).
struct WriteFault {
  bool fail_io = false;         // Simulated EIO: nothing is written.
  std::int64_t corrupt_byte = -1;  // Flip this byte of the encoded file.
  std::int64_t truncate_to = -1;   // Truncate the encoded file to this size.
};

/// Encodes `snap` to the full wire format (header + payload).
std::string EncodeSnapshot(const Snapshot& snap);

/// Decodes and strictly validates an encoded snapshot. Returns nullopt and
/// sets `*error` on any malformation (bad magic, version mismatch, size
/// mismatch, CRC failure, payload overrun/underrun).
std::optional<Snapshot> DecodeSnapshot(std::string_view encoded,
                                       std::string* error);

/// Atomically writes `snap` to `path` (tmp + rename). Returns false and
/// sets `*error` on I/O failure (or a simulated one via `fault`); the
/// previous file at `path`, if any, is left intact in that case.
bool SaveSnapshot(const std::string& path, const Snapshot& snap,
                  std::string* error, const WriteFault* fault = nullptr);

/// Loads and validates a snapshot. Returns nullopt with `*error` set if
/// the file is missing, unreadable, or fails any validation check.
std::optional<Snapshot> LoadSnapshot(const std::string& path,
                                     std::string* error);

/// Order-sensitive fingerprints binding a snapshot to one exact stream.
/// Spans, so mmap'd binary streams (BinaryEdgeReader::edges()) fingerprint
/// without a copy into a vector; the shard coordinator binds worker state
/// files and epoch checkpoints to the stream this way.
std::uint64_t FingerprintEdgeStream(std::span<const Edge> edges);
std::uint64_t FingerprintAdjacencyStream(std::span<const AdjacencyList> lists);

}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_CHECKPOINT_H_
