#include "stream/dynamic/turnstile_io.h"

#include <bit>
#include <string_view>
#include <utility>

#include "graph/flat_map.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/frame.h"
#include "util/io.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

static_assert(std::endian::native == std::endian::little,
              "binary turnstile streams assume a little-endian host");
static_assert(kTurnstileHeaderSize == kStreamHeaderSize);

constexpr StreamFormat kTurnstileFormat = {
    kBinaryTurnstileVersion, kTurnstileRecordSize, "turnstile stream",
    "updates", kBinaryEdgeVersion,
    "this is an insert-only (v1) edge stream, not a turnstile stream; wrap "
    "it with edge2bin --turnstile or feed it to an insert-only query kind"};

}  // namespace

void EncodeTurnstileRecord(const TurnstileUpdate& update, char* rec) {
  rec[0] = static_cast<char>(static_cast<std::uint8_t>(update.op));
  PutLE(rec + 1, update.edge.u, 4);
  PutLE(rec + 5, update.edge.v, 4);
}

bool WriteTurnstileStream(const TurnstileUpdate* updates, std::size_t count,
                          VertexId num_vertices, const std::string& path,
                          std::string* error) {
  std::string bytes(kTurnstileHeaderSize + count * kTurnstileRecordSize, '\0');
  char* rec = bytes.data() + kTurnstileHeaderSize;
  for (std::size_t i = 0; i < count; ++i, rec += kTurnstileRecordSize) {
    const TurnstileUpdate& u = updates[i];
    CHECK(u.edge.u < u.edge.v && u.edge.v < num_vertices)
        << "WriteTurnstileStream: update " << i << " (" << u.edge.u << ","
        << u.edge.v << ") is not canonical for n=" << num_vertices;
    EncodeTurnstileRecord(u, rec);
  }
  const std::string header = EncodeStreamHeader(
      kBinaryTurnstileVersion, num_vertices, count,
      Crc32(std::string_view(bytes).substr(kTurnstileHeaderSize)));
  bytes.replace(0, kTurnstileHeaderSize, header);
  return io::WriteFileAtomic(path, bytes, error);
}

bool TurnstileBinaryReader::Open(const std::string& path, std::string* error) {
  stream_.clear();
  num_vertices_ = 0;
  open_ = false;

  StreamFile file;
  if (!OpenStreamFile(path, kTurnstileFormat, &file, error)) return false;
  auto reject = [&](const std::string& message) {
    if (error != nullptr) *error = path + ": " + message;
    return false;
  };
  TurnstileStream stream;
  stream.reserve(static_cast<std::size_t>(file.count));
  // Live insert counts per edge, for the strict unmatched-delete check.
  // Edge keys have u < v, so none is FlatMap64's reserved ~0 key.
  FlatMap64<std::uint64_t> live;
  if (strict_) live.reserve(static_cast<std::size_t>(file.count));
  const char* rec = file.payload.data();
  for (std::uint64_t i = 0; i < file.count; ++i, rec += kTurnstileRecordSize) {
    const auto op_byte = static_cast<std::uint8_t>(rec[0]);
    if (op_byte > 1) {
      return reject("update " + std::to_string(i) + " has invalid op byte " +
                    std::to_string(static_cast<unsigned>(op_byte)) +
                    " (must be 0=insert or 1=delete)");
    }
    const auto u = static_cast<VertexId>(GetLE(rec + 1, 4));
    const auto v = static_cast<VertexId>(GetLE(rec + 5, 4));
    if (!(u < v && v < file.num_vertices)) {
      return reject("update " + std::to_string(i) + " (" + std::to_string(u) +
                    "," + std::to_string(v) + ") is not canonical for n=" +
                    std::to_string(file.num_vertices));
    }
    const auto op = static_cast<TurnstileOp>(op_byte);
    if (strict_) {
      const std::uint64_t key = Edge(u, v).Key();
      if (op == TurnstileOp::kInsert) {
        ++live[key];
      } else {
        std::uint64_t* count = live.find(key);
        if (count == nullptr || *count == 0) {
          return reject("update " + std::to_string(i) + " deletes edge (" +
                        std::to_string(u) + "," + std::to_string(v) +
                        ") which is not live at that point in the stream "
                        "(unmatched delete; strict mode)");
        }
        --*count;
      }
    }
    stream.emplace_back(Edge(u, v), op);
  }

  stream_ = std::move(stream);
  num_vertices_ = file.num_vertices;
  open_ = true;
  return true;
}

}  // namespace cyclestream
