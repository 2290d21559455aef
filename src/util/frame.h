#ifndef CYCLESTREAM_UTIL_FRAME_H_
#define CYCLESTREAM_UTIL_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

namespace cyclestream {

/// The two record shapes under every durable file (DESIGN.md §16). Each
/// on-disk format is a record type on one of them; all integers are
/// little-endian (PutLE/GetLE, util/serialize.h).
///
/// Framed blob:  magic | u32 tag | u64 size | u32 crc32(payload) | payload
///   - CYSF frames (engine/shard.h): magic "CYSF", tag = FrameType. Shard
///     states, epoch and daemon manifests are frame sequences; heartbeat
///     logs are appended frames.
///   - CYCLSNP snapshots (stream/checkpoint.h): magic "CYCLSNP\x01", tag =
///     the schema version, one frame per file.
///
/// Stream file:  32-byte header | `count` fixed-size records
///   magic "CYSBIN" <version byte> '\n' | u32 version | u32 num_vertices |
///   u64 count | u32 crc32(payload) | u32 reserved = 0
///   - v1 edge streams (graph/binary_io.h), 8-byte records;
///   - v2 turnstile streams (stream/dynamic/turnstile_io.h), 9-byte records.

// ---------------------------------------------------------------------------
// Framed blobs
// ---------------------------------------------------------------------------

/// One family of framed blobs: its magic and the tags it accepts.
struct FrameFormat {
  std::string_view magic;
  std::string_view noun;      // Names the family in errors ("frame").
  std::string_view tag_name;  // Names the tag in errors ("type").
  std::uint32_t min_tag = 0;
  std::uint32_t max_tag = 0;

  std::size_t header_size() const { return magic.size() + 4 + 8 + 4; }
};

/// Appends one frame whose payload is `parts` back to back. Each part is
/// copied once, straight into `out`, and the CRC runs over the same parts,
/// so a large blob never passes through a payload buffer.
void AppendFrameParts(std::string* out, const FrameFormat& format,
                      std::uint32_t tag,
                      std::initializer_list<std::string_view> parts);

/// Parses the frame at `data.substr(*pos)`: magic, a tag in the format's
/// range, a size that fits the bytes left, and the payload CRC. On success
/// stores the tag and payload (a view into `data`) and advances `*pos`
/// past the frame. False with `*error` set (when non-null) on any damage;
/// `*pos` is then unchanged.
bool ParseFrame(const FrameFormat& format, std::string_view data,
                std::size_t* pos, std::uint32_t* tag,
                std::string_view* payload, std::string* error);

/// Strict sequential reader over one file of frames, the decoders' shared
/// walk: Expect each frame in order, then Finish, which rejects trailing
/// bytes. Every error names the file (`what`, e.g. "shard state").
class FrameCursor {
 public:
  FrameCursor(const FrameFormat& format, std::string_view data,
              std::string_view what, std::string* error)
      : format_(format), data_(data), what_(what), error_(error) {}

  /// The next frame, whatever its tag. False (error set) on damage.
  bool Next(std::uint32_t* tag, std::string_view* payload);

  /// The next frame, which must carry `want` (an enum or integer tag).
  template <typename Tag>
  bool Expect(Tag want, std::string_view* payload) {
    return ExpectTag(static_cast<std::uint32_t>(want), payload);
  }

  /// True when every byte has been read; else a trailing-bytes error.
  bool Finish();

  bool AtEnd() const { return pos_ == data_.size(); }

  /// Sets the error to "<what>: <why>" and returns false, for the
  /// decoders' own checks on a payload.
  bool Fail(std::string_view why);

 private:
  bool ExpectTag(std::uint32_t want, std::string_view* payload);

  const FrameFormat& format_;
  std::string_view data_;
  std::string_view what_;
  std::string* error_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Stream files
// ---------------------------------------------------------------------------

inline constexpr std::size_t kStreamHeaderSize = 32;

/// The 32-byte header of a stream file of `version`.
std::string EncodeStreamHeader(std::uint32_t version,
                               std::uint32_t num_vertices, std::uint64_t count,
                               std::uint32_t payload_crc);

/// The version byte of a "CYSBIN" magic, given a file's first bytes; 0
/// when they are shorter than a magic or not one.
std::uint32_t StreamMagicVersion(std::string_view head);

/// One stream file version as its reader sees it: the record size, the
/// nouns its errors use, and the pointed error for the other version.
struct StreamFormat {
  std::uint32_t version = 0;
  std::size_t record_size = 0;
  std::string_view noun;     // "edge stream"
  std::string_view records;  // "edges"
  std::uint32_t sibling_version = 0;
  std::string_view sibling_error;
};

/// Unmaps a read-only file mapping (StreamFile's deleter).
struct Unmap {
  std::size_t size = 0;
  void operator()(void* base) const;
};

/// A validated stream file, mapped read-only. Move-only; the mapping, and
/// with it `payload`, lives until the object is destroyed or reassigned.
struct StreamFile {
  std::uint32_t num_vertices = 0;
  std::uint64_t count = 0;
  std::string_view payload;  // count * record_size bytes.
  std::unique_ptr<void, Unmap> mapping;
};

/// Maps `path` and validates its header against `format`: the magic (with
/// the pointed sibling-version error), the header version, a declared
/// count whose byte size is representable, the exact file size, the
/// reserved word and the payload CRC. Records are left to the caller.
/// False with `*error` set ("<path>: ...") on any problem.
bool OpenStreamFile(const std::string& path, const StreamFormat& format,
                    StreamFile* file, std::string* error);

}  // namespace cyclestream

#endif  // CYCLESTREAM_UTIL_FRAME_H_
