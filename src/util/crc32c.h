// CRC32C (Castagnoli) checksums for SSTable block, log-record, manifest
// and wire-frame integrity. Extend() runs the SSE4.2 `crc32` instruction
// when the CPU has it and a portable slice-by-8 loop otherwise; both
// produce identical checksums, so stored data never depends on the host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tu::crc32c {

/// Returns the CRC32C of data[0, n), extending `init_crc`.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masks a CRC before storing it alongside the data it covers (the
/// LevelDB trick: CRCs of CRCs are pathological otherwise).
inline uint32_t Mask(uint32_t crc) { return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul; }

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

namespace internal {
/// The slice-by-8 fallback Extend() uses when the CPU lacks SSE4.2.
/// Exposed so tests can check it against the hardware path on any host.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
}  // namespace internal

}  // namespace tu::crc32c
