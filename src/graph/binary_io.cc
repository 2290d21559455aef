#include "graph/binary_io.h"

#include <bit>
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
static_assert(kBinaryEdgeHeaderSize == kStreamHeaderSize);

constexpr StreamFormat kEdgeStreamFormat = {
    kBinaryEdgeVersion, sizeof(Edge), "edge stream", "edges",
    kBinaryTurnstileVersion,
    "this is a turnstile (v2) stream; the v1 edge reader cannot ingest "
    "insert/delete records — use a turnstile-* query kind or the turnstile "
    "reader"};

}  // namespace

bool WriteBinaryEdgeStream(const Edge* edges, std::size_t count,
                           VertexId num_vertices, const std::string& path,
                           std::string* error) {
  for (std::size_t i = 0; i < count; ++i) {
    CHECK(edges[i].u < edges[i].v && edges[i].v < num_vertices)
        << "WriteBinaryEdgeStream: edge " << i << " (" << edges[i].u << ","
        << edges[i].v << ") is not canonical for n=" << num_vertices;
  }
  const std::string_view payload(reinterpret_cast<const char*>(edges),
                                 count * sizeof(Edge));
  std::string bytes = EncodeStreamHeader(kBinaryEdgeVersion, num_vertices,
                                         count, Crc32(payload));
  bytes.append(payload);
  return io::WriteFileAtomic(path, bytes, error);
}

bool WriteBinaryEdgeStream(const EdgeList& edges, const std::string& path,
                           std::string* error) {
  return WriteBinaryEdgeStream(edges.edges().data(), edges.num_edges(),
                               edges.num_vertices(), path, error);
}

bool BinaryEdgeReader::Open(const std::string& path, std::string* error) {
  file_ = StreamFile();
  StreamFile file;
  if (!OpenStreamFile(path, kEdgeStreamFormat, &file, error)) return false;
  const auto* edges = reinterpret_cast<const Edge*>(file.payload.data());
  for (std::uint64_t i = 0; i < file.count; ++i) {
    if (!(edges[i].u < edges[i].v && edges[i].v < file.num_vertices)) {
      if (error != nullptr) {
        *error = path + ": edge " + std::to_string(i) + " (" +
                 std::to_string(edges[i].u) + "," +
                 std::to_string(edges[i].v) + ") is not canonical for n=" +
                 std::to_string(file.num_vertices);
      }
      return false;
    }
  }
  file_ = std::move(file);
  return true;
}

std::uint32_t SniffBinaryFormatVersion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char head[8] = {};
  in.read(head, sizeof(head));
  return StreamMagicVersion(std::string_view(head, in ? sizeof(head) : 0));
}

EdgeList BinaryEdgeReader::ToEdgeList() const {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(num_edges());
  const Edge* stream = edges();
  for (std::size_t i = 0; i < num_edges(); ++i) {
    pairs.emplace_back(stream[i].u, stream[i].v);
  }
  return EdgeList::FromPairs(num_vertices(), pairs);
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
