#ifndef CYCLESTREAM_UTIL_CRC32_H_
#define CYCLESTREAM_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cyclestream {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320 polynomial) over `data`.
/// Guards every durable file against torn writes and bit rot, through the
/// two record shapes of util/frame.h:
///   - framed blobs: CYSF frames (engine/shard.h: shard states and epoch
///     checkpoints, epoch and daemon manifests, heartbeat logs) and
///     CYCLSNP snapshots (stream/checkpoint.h), one CRC per frame payload;
///   - stream files: v1 edge streams (graph/binary_io.h) and v2 turnstile
///     streams (stream/dynamic/turnstile_io.h), one CRC over the records.
/// It is also the inner checksum of the `randtri/2` state blob
/// (core/random_order_triangles).
/// Computed slice-by-16 (16 table lookups per 16-byte step, then a byte
/// loop for the tail); the value is the standard one for any input.
std::uint32_t Crc32(std::string_view data);

/// Incremental CRC-32 for writers that stream their payload (edge2bin
/// converts arbitrarily large edge lists without buffering them):
///
///   Crc32Accumulator crc;
///   crc.Update(block, n); ...
///   header.payload_crc = crc.Final();
///
/// Final() does not consume the accumulator; further Update calls continue
/// the same running checksum.
class Crc32Accumulator {
 public:
  void Update(const void* data, std::size_t size);
  std::uint32_t Final() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_UTIL_CRC32_H_
