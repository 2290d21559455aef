#include "stream/dynamic/turnstile_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "graph/binary_io.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/io.h"

namespace cyclestream {
namespace {

static_assert(std::endian::native == std::endian::little,
              "binary turnstile streams assume a little-endian host");

constexpr char kMagicV2[8] = {'C', 'Y', 'S', 'B', 'I', 'N', '\x02', '\n'};
constexpr char kMagicPrefix[6] = {'C', 'Y', 'S', 'B', 'I', 'N'};

void PutU32(char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }

std::uint32_t GetU32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

bool WriteTurnstileStream(const TurnstileUpdate* updates, std::size_t count,
                          VertexId num_vertices, const std::string& path,
                          std::string* error) {
  std::string payload;
  payload.reserve(count * kTurnstileRecordSize);
  for (std::size_t i = 0; i < count; ++i) {
    const TurnstileUpdate& u = updates[i];
    CHECK(u.edge.u < u.edge.v && u.edge.v < num_vertices)
        << "WriteTurnstileStream: update " << i << " (" << u.edge.u << ","
        << u.edge.v << ") is not canonical for n=" << num_vertices;
    char rec[kTurnstileRecordSize];
    rec[0] = static_cast<char>(static_cast<std::uint8_t>(u.op));
    PutU32(rec + 1, u.edge.u);
    PutU32(rec + 5, u.edge.v);
    payload.append(rec, kTurnstileRecordSize);
  }

  char header[kTurnstileHeaderSize] = {};
  std::memcpy(header, kMagicV2, sizeof(kMagicV2));
  PutU32(header + 8, kBinaryTurnstileVersion);
  PutU32(header + 12, num_vertices);
  PutU64(header + 16, static_cast<std::uint64_t>(count));
  PutU32(header + 24, Crc32(std::string_view(payload)));
  PutU32(header + 28, 0);

  payload.insert(0, header, sizeof(header));
  return io::WriteFileAtomic(path, payload, error);
}

bool TurnstileBinaryReader::Open(const std::string& path, std::string* error) {
  stream_.clear();
  num_vertices_ = 0;
  format_version_ = 0;
  open_ = false;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Fail(error, "cannot open: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Fail(error, "cannot stat: " + path);
  }
  const auto file_size = static_cast<std::size_t>(st.st_size);
  if (file_size < kTurnstileHeaderSize) {
    ::close(fd);
    return Fail(error, path + ": truncated (smaller than the 32-byte header)");
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (map == MAP_FAILED) return Fail(error, "mmap failed: " + path);

  const char* base = static_cast<const char*>(map);
  auto reject = [&](std::string message) {
    ::munmap(map, file_size);
    return Fail(error, path + ": " + std::move(message));
  };
  if (std::memcmp(base, kMagicV2, sizeof(kMagicV2)) != 0) {
    if (std::memcmp(base, kMagicPrefix, sizeof(kMagicPrefix)) == 0) {
      const auto magic_version =
          static_cast<unsigned>(static_cast<unsigned char>(base[6]));
      if (magic_version == kBinaryEdgeVersion) {
        return reject(
            "this is an insert-only (v1) edge stream, not a turnstile "
            "stream; wrap it with edge2bin --turnstile or feed it to an "
            "insert-only query kind");
      }
      return reject("unsupported cyclestream binary magic version " +
                    std::to_string(magic_version) + " (this reader handles v" +
                    std::to_string(kBinaryTurnstileVersion) + ")");
    }
    return reject("not a cyclestream binary turnstile stream (bad magic)");
  }
  const std::uint32_t version = GetU32(base + 8);
  if (version != kBinaryTurnstileVersion) {
    return reject("header version " + std::to_string(version) +
                  " disagrees with the v2 magic (corrupt header)");
  }
  const VertexId num_vertices = GetU32(base + 12);
  const std::uint64_t num_updates = GetU64(base + 16);
  const std::uint32_t crc = GetU32(base + 24);
  // Same forged-count overflow guard as the v1 reader: reject a declared
  // count whose byte size is not representable before computing it.
  constexpr std::uint64_t kMaxDeclaredUpdates =
      (~std::uint64_t{0} - kTurnstileHeaderSize) / kTurnstileRecordSize;
  if (num_updates > kMaxDeclaredUpdates) {
    return reject("header declares " + std::to_string(num_updates) +
                  " updates, which overflows the file-size computation "
                  "(forged or corrupt header)");
  }
  const std::uint64_t expected_size =
      kTurnstileHeaderSize + num_updates * kTurnstileRecordSize;
  if (file_size != expected_size) {
    return reject(
        "size mismatch: header declares " + std::to_string(num_updates) +
        " updates (" + std::to_string(expected_size) +
        " bytes) but the file has " + std::to_string(file_size) +
        " bytes (truncated, trailing garbage, or a concatenated stream)");
  }
  const char* payload = base + kTurnstileHeaderSize;
  const std::size_t payload_size = file_size - kTurnstileHeaderSize;
  if (Crc32(std::string_view(payload, payload_size)) != crc) {
    return reject("payload CRC mismatch (corrupt file)");
  }

  TurnstileStream stream;
  stream.reserve(static_cast<std::size_t>(num_updates));
  // Live insert counts per edge, for the strict unmatched-delete check.
  std::unordered_map<std::uint64_t, std::uint64_t> live;
  if (strict_) live.reserve(static_cast<std::size_t>(num_updates));
  for (std::uint64_t i = 0; i < num_updates; ++i) {
    const char* rec = payload + i * kTurnstileRecordSize;
    const auto op_byte = static_cast<std::uint8_t>(rec[0]);
    if (op_byte > 1) {
      return reject("update " + std::to_string(i) + " has invalid op byte " +
                    std::to_string(static_cast<unsigned>(op_byte)) +
                    " (must be 0=insert or 1=delete)");
    }
    const VertexId u = GetU32(rec + 1);
    const VertexId v = GetU32(rec + 5);
    if (!(u < v && v < num_vertices)) {
      return reject("update " + std::to_string(i) + " (" + std::to_string(u) +
                    "," + std::to_string(v) +
                    ") is not canonical for n=" + std::to_string(num_vertices));
    }
    const auto op = static_cast<TurnstileOp>(op_byte);
    if (strict_) {
      const std::uint64_t key = Edge(u, v).Key();
      if (op == TurnstileOp::kInsert) {
        ++live[key];
      } else {
        auto it = live.find(key);
        if (it == live.end() || it->second == 0) {
          return reject("update " + std::to_string(i) + " deletes edge (" +
                        std::to_string(u) + "," + std::to_string(v) +
                        ") which is not live at that point in the stream "
                        "(unmatched delete; strict mode)");
        }
        --it->second;
      }
    }
    stream.emplace_back(Edge(u, v), op);
  }
  ::munmap(map, file_size);

  stream_ = std::move(stream);
  num_vertices_ = num_vertices;
  format_version_ = version;
  open_ = true;
  return true;
}

}  // namespace cyclestream
