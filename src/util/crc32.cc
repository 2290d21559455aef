#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace cyclestream {
namespace {

// The 16-byte step loads the input as little-endian words.
static_assert(std::endian::native == std::endian::little);

// Slice-by-16 tables: table[0] is the classic byte-at-a-time table of the
// reflected polynomial, and table[k][b] is the CRC of byte b followed by k
// zero bytes, so one step folds 16 input bytes with 16 independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

const CrcTables& Tables() {
  static const CrcTables tables = MakeCrcTables();
  return tables;
}

std::uint32_t Advance(std::uint32_t crc, const unsigned char* data,
                      std::size_t size) {
  const CrcTables& t = Tables();
  while (size >= 16) {
    std::uint32_t a, b, c, d;
    std::memcpy(&a, data, 4);
    std::memcpy(&b, data + 4, 4);
    std::memcpy(&c, data + 8, 4);
    std::memcpy(&d, data + 12, 4);
    a ^= crc;
    crc = t[15][a & 0xff] ^ t[14][(a >> 8) & 0xff] ^
          t[13][(a >> 16) & 0xff] ^ t[12][a >> 24] ^ t[11][b & 0xff] ^
          t[10][(b >> 8) & 0xff] ^ t[9][(b >> 16) & 0xff] ^ t[8][b >> 24] ^
          t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^ t[5][(c >> 16) & 0xff] ^
          t[4][c >> 24] ^ t[3][d & 0xff] ^ t[2][(d >> 8) & 0xff] ^
          t[1][(d >> 16) & 0xff] ^ t[0][d >> 24];
    data += 16;
    size -= 16;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  return Advance(0xffffffffu,
                 reinterpret_cast<const unsigned char*>(data.data()),
                 data.size()) ^
         0xffffffffu;
}

void Crc32Accumulator::Update(const void* data, std::size_t size) {
  state_ = Advance(state_, static_cast<const unsigned char*>(data), size);
}

}  // namespace cyclestream
