#include "util/frame.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "util/crc32.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

bool SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

constexpr std::string_view kStreamMagicPrefix = "CYSBIN";

}  // namespace

void AppendFrameParts(std::string* out, const FrameFormat& format,
                      std::uint32_t tag,
                      std::initializer_list<std::string_view> parts) {
  std::uint64_t size = 0;
  Crc32Accumulator crc;
  for (std::string_view part : parts) {
    size += part.size();
    crc.Update(part.data(), part.size());
  }
  char header[16];
  PutLE(header, tag, 4);
  PutLE(header + 4, size, 8);
  PutLE(header + 12, crc.Final(), 4);
  out->append(format.magic);
  out->append(header, sizeof(header));
  for (std::string_view part : parts) out->append(part);
}

bool ParseFrame(const FrameFormat& format, std::string_view data,
                std::size_t* pos, std::uint32_t* tag,
                std::string_view* payload, std::string* error) {
  auto reject = [&](const std::string& why) {
    return SetError(error, std::string(format.noun) + why);
  };
  const std::size_t left = data.size() - *pos;
  const std::size_t header_size = format.header_size();
  if (left < header_size) {
    return reject(" truncated: " + std::to_string(left) +
                  " bytes left, header needs " + std::to_string(header_size));
  }
  const char* p = data.data() + *pos;
  if (std::string_view(p, format.magic.size()) != format.magic) {
    return reject(": bad magic");
  }
  p += format.magic.size();
  const auto raw_tag = static_cast<std::uint32_t>(GetLE(p, 4));
  if (raw_tag < format.min_tag || raw_tag > format.max_tag) {
    std::string why = " ";
    why.append(format.tag_name)
        .append(" ")
        .append(std::to_string(raw_tag))
        .append(" is unsupported (this build reads ")
        .append(std::to_string(format.min_tag))
        .append("..")
        .append(std::to_string(format.max_tag))
        .append(")");
    return reject(why);
  }
  const std::uint64_t size = GetLE(p + 4, 8);
  const auto crc = static_cast<std::uint32_t>(GetLE(p + 12, 4));
  if (size > left - header_size) {
    return reject(" payload overruns the file: declares " +
                  std::to_string(size) + " bytes, " +
                  std::to_string(left - header_size) + " available");
  }
  const std::string_view body =
      data.substr(*pos + header_size, static_cast<std::size_t>(size));
  if (Crc32(body) != crc) return reject(" CRC mismatch (corrupt payload)");
  *tag = raw_tag;
  *payload = body;
  *pos += header_size + body.size();
  return true;
}

bool FrameCursor::Next(std::uint32_t* tag, std::string_view* payload) {
  std::string why;
  if (ParseFrame(format_, data_, &pos_, tag, payload,
                 error_ != nullptr ? &why : nullptr)) {
    return true;
  }
  return Fail(why);
}

bool FrameCursor::ExpectTag(std::uint32_t want, std::string_view* payload) {
  std::uint32_t tag = 0;
  if (!Next(&tag, payload)) return false;
  if (tag == want) return true;
  return Fail("expected " + std::string(format_.noun) + " " +
              std::string(format_.tag_name) + " " + std::to_string(want) +
              ", found " + std::to_string(tag));
}

bool FrameCursor::Finish() {
  if (AtEnd()) return true;
  return Fail(std::to_string(data_.size() - pos_) +
              " trailing bytes after the last " + std::string(format_.noun));
}

bool FrameCursor::Fail(std::string_view why) {
  return SetError(error_, std::string(what_) + ": " + std::string(why));
}

std::string EncodeStreamHeader(std::uint32_t version,
                               std::uint32_t num_vertices, std::uint64_t count,
                               std::uint32_t payload_crc) {
  std::string header(kStreamHeaderSize, '\0');
  char* p = header.data();
  std::memcpy(p, kStreamMagicPrefix.data(), kStreamMagicPrefix.size());
  p[6] = static_cast<char>(version);
  p[7] = '\n';
  PutLE(p + 8, version, 4);
  PutLE(p + 12, num_vertices, 4);
  PutLE(p + 16, count, 8);
  PutLE(p + 24, payload_crc, 4);  // The reserved word at 28 stays 0.
  return header;
}

std::uint32_t StreamMagicVersion(std::string_view head) {
  if (head.size() < 8 || head.substr(0, 6) != kStreamMagicPrefix ||
      head[7] != '\n') {
    return 0;
  }
  return static_cast<unsigned char>(head[6]);
}

void Unmap::operator()(void* base) const { ::munmap(base, size); }

bool OpenStreamFile(const std::string& path, const StreamFormat& format,
                    StreamFile* file, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return SetError(error, "cannot open: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return SetError(error, "cannot stat: " + path);
  }
  const auto file_size = static_cast<std::size_t>(st.st_size);
  if (file_size < kStreamHeaderSize) {
    ::close(fd);
    return SetError(error,
                    path + ": truncated (smaller than the 32-byte header)");
  }
  void* base = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (base == MAP_FAILED) return SetError(error, "mmap failed: " + path);
  std::unique_ptr<void, Unmap> mapping(base, Unmap{file_size});

  const std::string_view bytes(static_cast<const char*>(base), file_size);
  auto reject = [&](const std::string& message) {
    return SetError(error, path + ": " + message);
  };
  const std::string records(format.records);
  const std::uint32_t magic_version = StreamMagicVersion(bytes);
  if (magic_version != format.version) {
    // A sibling cyclestream format gets a pointed error, not a generic
    // bad-magic one: feeding one version to the other's reader is the
    // classic cross-wiring mistake and must name the fix.
    if (magic_version == 0) {
      return reject("not a cyclestream binary " + std::string(format.noun) +
                    " (bad magic)");
    }
    if (magic_version == format.sibling_version) {
      return reject(std::string(format.sibling_error));
    }
    return reject("unsupported cyclestream binary magic version " +
                  std::to_string(magic_version) + " (this reader handles v" +
                  std::to_string(format.version) + ")");
  }
  const auto version = static_cast<std::uint32_t>(GetLE(bytes.data() + 8, 4));
  if (version != format.version) {
    return reject("header version " + std::to_string(version) +
                  " disagrees with the v" + std::to_string(format.version) +
                  " magic (corrupt header)");
  }
  const std::uint64_t count = GetLE(bytes.data() + 16, 8);
  // A forged count near 2^64 wraps the expected-size product modulo 2^64,
  // so a tiny file could slide past the exact-size check below and send
  // the record walk far out of bounds. Reject any count whose byte size is
  // not representable; ordinary mismatches (truncation, trailing bytes)
  // fall through to the exact check and keep its descriptive error.
  if (count > (~std::uint64_t{0} - kStreamHeaderSize) / format.record_size) {
    return reject("header declares " + std::to_string(count) + " " +
                  records +
                  ", which overflows the file-size computation "
                  "(forged or corrupt header)");
  }
  const std::uint64_t expected_size =
      kStreamHeaderSize + count * format.record_size;
  if (file_size != expected_size) {
    return reject("size mismatch: header declares " + std::to_string(count) +
                  " " + records + " (" + std::to_string(expected_size) +
                  " bytes) but the file has " + std::to_string(file_size) +
                  " bytes (truncated, trailing garbage, or a concatenated "
                  "stream)");
  }
  if (GetLE(bytes.data() + 28, 4) != 0) {
    return reject("reserved header word is not zero (corrupt header)");
  }
  const std::string_view payload = bytes.substr(kStreamHeaderSize);
  if (Crc32(payload) != GetLE(bytes.data() + 24, 4)) {
    return reject("payload CRC mismatch (corrupt file)");
  }
  file->num_vertices =
      static_cast<std::uint32_t>(GetLE(bytes.data() + 12, 4));
  file->count = count;
  file->payload = payload;
  file->mapping = std::move(mapping);
  return true;
}

}  // namespace cyclestream
