#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace tu::crc32c {

namespace {

// Slice-by-8 CRC32C (Castagnoli polynomial 0x82f63b78, reflected): eight
// lookup tables let the loop fold one 64-bit word per iteration instead of
// one byte. Table 0 is the classic byte-at-a-time table; table k maps a
// byte to its CRC contribution k positions further along, so the eight
// lookups of one word are independent and the checksum is bit-for-bit
// identical to the byte-at-a-time implementation (pinned by util_test's
// known-vector cases).
constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables[0][i];
    for (size_t k = 1; k < 8; ++k) {
      crc = tables[0][crc & 0xff] ^ (crc >> 8);
      tables[k][i] = crc;
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

// Endian-neutral 32-bit little-endian load; compiles to a single mov on
// little-endian targets.
inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes CRC32C (the Castagnoli
// polynomial) natively, one 64-bit word per step. The target attribute
// lets this one function use it without raising the whole build's ISA.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                        const char* data,
                                                        size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *p);
    ++p;
    --n;
  }
  return crc32 ^ 0xffffffffu;
}

// Probed on first use, not by a namespace-scope initializer: a static
// initializer in this file may run before libgcc has filled in the CPU
// model, so __builtin_cpu_init() is called explicitly first.
bool HaveSse42() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}
#endif

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);

  while (n >= 8) {
    const uint32_t lo = LoadLE32(p) ^ crc;
    const uint32_t hi = LoadLE32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
    ++p;
    --n;
  }
  return crc ^ 0xffffffffu;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__)
  if (HaveSse42()) return ExtendSse42(init_crc, data, n);
#endif
  return internal::ExtendPortable(init_crc, data, n);
}

}  // namespace tu::crc32c
