#include "graph/binary_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/crc32.h"
#include "util/io.h"
#include "util/logging.h"

namespace cyclestream {
namespace {

// The zero-copy reader reinterprets the mapped payload as an Edge array, so
// the on-disk layout must be exactly the in-memory layout.
static_assert(std::is_trivially_copyable_v<Edge>);
static_assert(sizeof(Edge) == 8, "Edge must pack to two u32 words");
static_assert(std::endian::native == std::endian::little,
              "binary edge streams assume a little-endian host");

constexpr char kMagic[8] = {'C', 'Y', 'S', 'B', 'I', 'N', '\x01', '\n'};
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

bool WriteBinaryEdgeStream(const Edge* edges, std::size_t count,
                           VertexId num_vertices, const std::string& path,
                           std::string* error) {
  for (std::size_t i = 0; i < count; ++i) {
    CHECK(edges[i].u < edges[i].v && edges[i].v < num_vertices)
        << "WriteBinaryEdgeStream: edge " << i << " (" << edges[i].u << ","
        << edges[i].v << ") is not canonical for n=" << num_vertices;
  }
  const char* payload = reinterpret_cast<const char*>(edges);
  const std::size_t payload_size = count * sizeof(Edge);

  char header[kBinaryEdgeHeaderSize] = {};
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutU32(header + 8, kBinaryEdgeVersion);
  PutU32(header + 12, num_vertices);
  PutU64(header + 16, static_cast<std::uint64_t>(count));
  PutU32(header + 24, Crc32(std::string_view(payload, payload_size)));
  PutU32(header + 28, 0);

  std::string bytes(header, sizeof(header));
  bytes.append(payload, payload_size);
  return io::WriteFileAtomic(path, bytes, error);
}

bool WriteBinaryEdgeStream(const EdgeList& edges, const std::string& path,
                           std::string* error) {
  return WriteBinaryEdgeStream(edges.edges().data(), edges.num_edges(),
                               edges.num_vertices(), path, error);
}

BinaryEdgeReader::~BinaryEdgeReader() { Close(); }

BinaryEdgeReader::BinaryEdgeReader(BinaryEdgeReader&& other) noexcept {
  *this = std::move(other);
}

BinaryEdgeReader& BinaryEdgeReader::operator=(
    BinaryEdgeReader&& other) noexcept {
  if (this != &other) {
    Close();
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    edges_ = std::exchange(other.edges_, nullptr);
    num_edges_ = std::exchange(other.num_edges_, 0);
    num_vertices_ = std::exchange(other.num_vertices_, 0);
    format_version_ = std::exchange(other.format_version_, 0);
  }
  return *this;
}

void BinaryEdgeReader::Close() {
  if (map_ != nullptr) {
    ::munmap(map_, map_size_);
    map_ = nullptr;
  }
  map_size_ = 0;
  edges_ = nullptr;
  num_edges_ = 0;
  num_vertices_ = 0;
  format_version_ = 0;
}

bool BinaryEdgeReader::Open(const std::string& path, std::string* error) {
  Close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Fail(error, "cannot open: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Fail(error, "cannot stat: " + path);
  }
  const auto file_size = static_cast<std::size_t>(st.st_size);
  if (file_size < kBinaryEdgeHeaderSize) {
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
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    // A sibling cyclestream format deserves a pointed error, not a generic
    // bad-magic one: a v2 (turnstile) stream fed to the v1 edge reader is
    // the classic cross-wiring mistake and must name the fix.
    if (std::memcmp(base, kMagicPrefix, sizeof(kMagicPrefix)) == 0) {
      const auto magic_version =
          static_cast<unsigned>(static_cast<unsigned char>(base[6]));
      if (magic_version == kBinaryTurnstileVersion) {
        return reject(
            "this is a turnstile (v2) stream; the v1 edge reader cannot "
            "ingest insert/delete records — use a turnstile-* query kind or "
            "the turnstile reader");
      }
      return reject("unsupported cyclestream binary magic version " +
                    std::to_string(magic_version) + " (this reader handles v" +
                    std::to_string(kBinaryEdgeVersion) + ")");
    }
    return reject("not a cyclestream binary edge stream (bad magic)");
  }
  const std::uint32_t version = GetU32(base + 8);
  if (version != kBinaryEdgeVersion) {
    return reject("unsupported format version " + std::to_string(version) +
                  " (expected " + std::to_string(kBinaryEdgeVersion) + ")");
  }
  const VertexId num_vertices = GetU32(base + 12);
  const std::uint64_t num_edges = GetU64(base + 16);
  const std::uint32_t crc = GetU32(base + 24);
  // A forged num_edges near 2^64 wraps the expected-size product modulo
  // 2^64, so a tiny file could slide past the exact-size check below and
  // send the per-edge validation loop reading far out of bounds. Reject any
  // count whose byte size is not even representable; ordinary mismatches
  // (truncation, trailing garbage) still fall through to the exact check
  // and keep its descriptive error.
  constexpr std::uint64_t kMaxDeclaredEdges =
      (~std::uint64_t{0} - kBinaryEdgeHeaderSize) / sizeof(Edge);
  if (num_edges > kMaxDeclaredEdges) {
    return reject("header declares " + std::to_string(num_edges) +
                  " edges, which overflows the file-size computation "
                  "(forged or corrupt header)");
  }
  const std::uint64_t expected_size =
      kBinaryEdgeHeaderSize + num_edges * sizeof(Edge);
  if (file_size != expected_size) {
    return reject("size mismatch: header declares " +
                  std::to_string(num_edges) + " edges (" +
                  std::to_string(expected_size) + " bytes) but the file has " +
                  std::to_string(file_size) +
                  " bytes (truncated or trailing garbage)");
  }
  const char* payload = base + kBinaryEdgeHeaderSize;
  const std::size_t payload_size = file_size - kBinaryEdgeHeaderSize;
  if (Crc32(std::string_view(payload, payload_size)) != crc) {
    return reject("payload CRC mismatch (corrupt file)");
  }
  const Edge* edges = reinterpret_cast<const Edge*>(payload);
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    if (!(edges[i].u < edges[i].v && edges[i].v < num_vertices)) {
      return reject("edge " + std::to_string(i) + " (" +
                    std::to_string(edges[i].u) + "," +
                    std::to_string(edges[i].v) +
                    ") is not canonical for n=" + std::to_string(num_vertices));
    }
  }

  map_ = map;
  map_size_ = file_size;
  edges_ = num_edges > 0 ? edges : nullptr;
  num_edges_ = static_cast<std::size_t>(num_edges);
  num_vertices_ = num_vertices;
  format_version_ = version;
  return true;
}

std::uint32_t SniffBinaryFormatVersion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic)) return 0;
  if (std::memcmp(magic, kMagicPrefix, sizeof(kMagicPrefix)) != 0) return 0;
  if (magic[7] != '\n') return 0;
  return static_cast<std::uint32_t>(static_cast<unsigned char>(magic[6]));
}

EdgeList BinaryEdgeReader::ToEdgeList() const {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(num_edges_);
  for (std::size_t i = 0; i < num_edges_; ++i) {
    pairs.emplace_back(edges_[i].u, edges_[i].v);
  }
  return EdgeList::FromPairs(num_vertices_, pairs);
}

std::optional<EdgeList> LoadEdgeListBinary(const std::string& path) {
  BinaryEdgeReader reader;
  std::string error;
  if (!reader.Open(path, &error)) {
    LOG(WARNING) << "cannot load binary edge stream: " << error;
    return std::nullopt;
  }
  return reader.ToEdgeList();
}

}  // namespace cyclestream
