#include "storage/codec.h"

namespace recraft::storage {

namespace {

// Slicing-by-8 tables (Kounavis & Berry, ISCC '05) for the reflected
// 0xEDB88320 polynomial. t[0] is the classic byte-at-a-time table; t[k][b]
// is the CRC of byte b followed by k zero bytes, so eight lookups fold
// eight input bytes at once.
struct Crc32Tables {
  uint32_t t[8][256];
  constexpr Crc32Tables() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
      }
    }
  }
};
constexpr Crc32Tables kCrc{};

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const auto& t = kCrc.t;
  uint32_t c = 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = c ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace recraft::storage
