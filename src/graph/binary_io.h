#ifndef CYCLESTREAM_GRAPH_BINARY_IO_H_
#define CYCLESTREAM_GRAPH_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "graph/edge_list.h"
#include "graph/types.h"

namespace cyclestream {

/// Binary edge-stream format (".bin"): the stream-engine ingest path reads
/// raw `Edge` blocks straight out of a read-only mmap instead of re-parsing
/// text. The format is a *stream* format — edge order is preserved exactly
/// (an EdgeStream is a meaningful permutation), and duplicates are legal.
///
/// Wire layout (little-endian, 32-byte header):
///
///   offset  0  magic[8]      = "CYSBIN\x01\n"
///   offset  8  u32 version   = 1
///   offset 12  u32 num_vertices
///   offset 16  u64 num_edges
///   offset 24  u32 crc32     CRC-32 (IEEE) of the payload bytes
///   offset 28  u32 reserved  = 0
///   offset 32  payload       num_edges * 8 bytes: u32 u, u32 v per edge
///
/// Every edge must satisfy u < v < num_vertices (canonical form, no
/// self-loops). The reader validates the magic, version, exact file size,
/// payload CRC, and every edge before exposing anything; a corrupt or
/// truncated file is rejected with a descriptive error, never a silently
/// shorter stream. The payload starts at offset 32, so the mmap'd bytes are
/// suitably aligned to reinterpret as an Edge array (zero-copy).

inline constexpr std::uint32_t kBinaryEdgeVersion = 1;
inline constexpr std::size_t kBinaryEdgeHeaderSize = 32;

/// Version 2 is the turnstile (insert/delete) stream format; it shares the
/// "CYSBIN" magic prefix and 32-byte header shape but carries 9-byte
/// op-tagged records and is read by TurnstileBinaryReader
/// (stream/dynamic/turnstile_io.h), never by BinaryEdgeReader.
inline constexpr std::uint32_t kBinaryTurnstileVersion = 2;

/// Peeks at the magic of `path` without validating anything else: returns
/// the format version byte (1 for edge streams, 2 for turnstile streams)
/// when the file starts with a "CYSBIN" magic, 0 otherwise (missing,
/// short, or foreign file). Used to dispatch .bin inputs to the right
/// reader and to export `stream.format_version` into run manifests.
std::uint32_t SniffBinaryFormatVersion(const std::string& path);

/// Writes `count` edges (order preserved) as a binary edge stream. Edges
/// must already be canonical (u < v < num_vertices); a violation is a
/// programming error and aborts. The file is written durably through
/// io::WriteFileAtomic. Returns false and sets `*error` on I/O failure.
bool WriteBinaryEdgeStream(const Edge* edges, std::size_t count,
                           VertexId num_vertices, const std::string& path,
                           std::string* error = nullptr);

/// Convenience: writes a finalized EdgeList (its canonical edge order).
bool WriteBinaryEdgeStream(const EdgeList& edges, const std::string& path,
                           std::string* error = nullptr);

/// mmap-backed zero-copy reader. Open() maps the file read-only and fully
/// validates it (header, size, CRC, per-edge canonical form); afterwards
/// `edges()` is a borrowed pointer into the mapping, valid until the reader
/// is destroyed or reset by another Open().
class BinaryEdgeReader {
 public:
  BinaryEdgeReader() = default;
  ~BinaryEdgeReader();

  BinaryEdgeReader(const BinaryEdgeReader&) = delete;
  BinaryEdgeReader& operator=(const BinaryEdgeReader&) = delete;
  BinaryEdgeReader(BinaryEdgeReader&& other) noexcept;
  BinaryEdgeReader& operator=(BinaryEdgeReader&& other) noexcept;

  /// Maps and validates `path`. False (with `*error` set) on any problem;
  /// the reader is left empty in that case.
  bool Open(const std::string& path, std::string* error);

  bool is_open() const { return map_ != nullptr; }
  VertexId num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return num_edges_; }

  /// Format version of the open file (kBinaryEdgeVersion; 0 when not
  /// open). Exported into run manifests as `stream.format_version`.
  std::uint32_t format_version() const { return format_version_; }

  /// The full edge stream, zero-copy (nullptr when empty or not open).
  const Edge* edges() const { return edges_; }

  /// Materializes a validated EdgeList (canonicalized, deduplicated) — for
  /// consumers that need the interchange type rather than the raw stream.
  EdgeList ToEdgeList() const;

 private:
  void Close();

  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  const Edge* edges_ = nullptr;
  std::size_t num_edges_ = 0;
  VertexId num_vertices_ = 0;
  std::uint32_t format_version_ = 0;
};

/// Convenience: reads a binary edge stream into an EdgeList. Returns
/// nullopt (with a logged warning) on any validation failure.
std::optional<EdgeList> LoadEdgeListBinary(const std::string& path);

}  // namespace cyclestream

#endif  // CYCLESTREAM_GRAPH_BINARY_IO_H_
