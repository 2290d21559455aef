#ifndef CYCLESTREAM_STREAM_DYNAMIC_TURNSTILE_IO_H_
#define CYCLESTREAM_STREAM_DYNAMIC_TURNSTILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/types.h"
#include "stream/dynamic/turnstile.h"

namespace cyclestream {

/// Binary turnstile-stream format v2 (".bin"): the dynamic-model sibling of
/// the v1 edge-stream format (graph/binary_io.h). Same magic prefix and
/// header shape, but records carry a per-update op byte and the version
/// byte in the magic/header is 2, so each reader rejects the other's files
/// with a descriptive error instead of misparsing them.
///
/// Wire layout (little-endian, 32-byte header):
///
///   offset  0  magic[8]      = "CYSBIN\x02\n"
///   offset  8  u32 version   = 2
///   offset 12  u32 num_vertices
///   offset 16  u64 num_updates
///   offset 24  u32 crc32     CRC-32 (IEEE) of the payload bytes
///   offset 28  u32 reserved  = 0
///   offset 32  payload       num_updates * 9 bytes:
///                              u8 op (0 = insert, 1 = delete), u32 u, u32 v
///
/// Records are 9 bytes and deliberately unaligned — the turnstile reader
/// materializes (decodes into a TurnstileStream) rather than aliasing the
/// mapping, because validation must walk every record anyway to check op
/// bytes and (in strict mode) delete matching. Every edge must satisfy
/// u < v < num_vertices; every op byte must be 0 or 1. The exact-size
/// check rejects concatenated streams (any trailing bytes after the
/// declared payload), same as v1.

inline constexpr std::size_t kTurnstileHeaderSize = 32;
inline constexpr std::size_t kTurnstileRecordSize = 9;

/// Writes `count` updates (order preserved) as a v2 turnstile stream.
/// Edges must be canonical (u < v < num_vertices); a violation aborts.
/// The file is written durably through io::WriteFileAtomic. Returns false
/// and sets `*error` on I/O failure.
bool WriteTurnstileStream(const TurnstileUpdate* updates, std::size_t count,
                          VertexId num_vertices, const std::string& path,
                          std::string* error = nullptr);

inline bool WriteTurnstileStream(const TurnstileStream& stream,
                                 VertexId num_vertices,
                                 const std::string& path,
                                 std::string* error = nullptr) {
  return WriteTurnstileStream(stream.data(), stream.size(), num_vertices,
                              path, error);
}

/// Validating reader for v2 turnstile streams. Open() maps the file
/// read-only, fully validates it (header, exact size, CRC, per-record op
/// byte and canonical edge; in strict mode every delete must have a live
/// matching insert at its stream position), decodes the records into an
/// owned TurnstileStream, and drops the mapping. Strict mode is the
/// default: an unmatched delete is almost always a mis-assembled stream,
/// and the linear sketches would silently absorb the negative count.
class TurnstileBinaryReader {
 public:
  TurnstileBinaryReader() = default;

  /// Reads and validates `path`. False (with `*error` set) on any problem;
  /// the reader is left empty in that case.
  bool Open(const std::string& path, std::string* error);

  /// Disables the unmatched-delete check for the next Open() — for tools
  /// (bin2edge round-trips) that must pass through any well-formed file.
  void set_strict(bool strict) { strict_ = strict; }

  bool is_open() const { return open_; }
  VertexId num_vertices() const { return num_vertices_; }
  std::size_t num_updates() const { return stream_.size(); }

  /// Format version of the open file (kBinaryTurnstileVersion; 0 when not
  /// open). Exported into run manifests as `stream.format_version`.
  std::uint32_t format_version() const { return format_version_; }

  /// The decoded stream, order preserved. Valid until the next Open().
  const TurnstileStream& stream() const { return stream_; }
  TurnstileStream TakeStream() { return std::move(stream_); }

 private:
  TurnstileStream stream_;
  VertexId num_vertices_ = 0;
  std::uint32_t format_version_ = 0;
  bool strict_ = true;
  bool open_ = false;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_DYNAMIC_TURNSTILE_IO_H_
