// Bit-granular reader/writer over byte buffers: the substrate of the
// Gorilla codecs. The writer targets a caller-provided fixed-capacity
// buffer so compressed open chunks can live directly inside mmap slots
// (Fig. 9); callers must check Remaining() before multi-bit appends.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>

namespace tu::compress {

/// Appends bits MSB-first into a fixed-capacity byte buffer.
class BitWriter {
 public:
  BitWriter(char* buf, size_t capacity_bytes)
      : buf_(reinterpret_cast<uint8_t*>(buf)),
        capacity_bits_(capacity_bytes * 8) {}

  /// Bits still available.
  size_t RemainingBits() const { return capacity_bits_ - bit_pos_; }
  size_t BitsWritten() const { return bit_pos_; }
  size_t BytesUsed() const { return (bit_pos_ + 7) / 8; }

  /// Restores a previously saved position (for resuming an open chunk).
  void SetBitPos(size_t bit_pos) {
    assert(bit_pos <= capacity_bits_);
    bit_pos_ = bit_pos;
  }

  void WriteBit(bool bit) {
    assert(bit_pos_ < capacity_bits_);
    const size_t byte = bit_pos_ >> 3;
    const unsigned shift = 7 - (bit_pos_ & 7);
    if ((bit_pos_ & 7) == 0) buf_[byte] = 0;  // fresh byte: clear stale bits
    if (bit) buf_[byte] |= static_cast<uint8_t>(1u << shift);
    ++bit_pos_;
  }

  /// Writes the low `nbits` bits of `value`, MSB-first (this is the
  /// per-sample hot path). Tops up the partial byte, then stores whole
  /// bytes; it never touches a byte past the last bit written, and every
  /// byte it starts is cleared of stale bits first.
  void WriteBits(uint64_t value, unsigned nbits) {
    assert(nbits <= 64);
    assert(bit_pos_ + nbits <= capacity_bits_);
    if (nbits == 0) return;
    if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
    uint8_t* p = buf_ + (bit_pos_ >> 3);
    const unsigned used = bit_pos_ & 7;
    bit_pos_ += nbits;
    if (used != 0) {
      const unsigned space = 8 - used;
      if (nbits <= space) {
        *p |= static_cast<uint8_t>(value << (space - nbits));
        return;
      }
      nbits -= space;
      *p++ |= static_cast<uint8_t>(value >> nbits);
    }
    while (nbits >= 8) {
      nbits -= 8;
      *p++ = static_cast<uint8_t>(value >> nbits);
    }
    if (nbits > 0) *p = static_cast<uint8_t>(value << (8 - nbits));
  }

 private:
  uint8_t* buf_;
  size_t capacity_bits_;
  size_t bit_pos_ = 0;
};

/// Reads bits MSB-first from a byte buffer. A read past the end of the
/// buffer (a chunk whose count overstates its bit stream) never touches
/// memory beyond it: it yields zero bits, leaves the position at the end
/// and sets overrun(), which every decode entry point turns into
/// Corruption.
class BitReader {
 public:
  BitReader(const char* buf, size_t size_bytes)
      : buf_(reinterpret_cast<const uint8_t*>(buf)), size_bits_(size_bytes * 8) {}

  size_t RemainingBits() const { return size_bits_ - bit_pos_; }
  bool overrun() const { return overrun_; }

  /// Raw access for the bulk decode paths (compress/gorilla.cc): they run
  /// a register-resident cursor over the underlying bytes and sync the
  /// position (and any overrun) back, so bulk and per-sample reads
  /// interleave losslessly.
  const uint8_t* bytes() const { return buf_; }
  size_t size_bits() const { return size_bits_; }
  size_t bit_pos() const { return bit_pos_; }
  void set_bit_pos(size_t bit_pos) {
    assert(bit_pos <= size_bits_);
    bit_pos_ = bit_pos;
  }
  // Out of line, so the per-field read paths stay small enough to inline.
  [[gnu::cold, gnu::noinline]] void MarkOverrun() {
    overrun_ = true;
    bit_pos_ = size_bits_;
  }

  bool ReadBit() {
    if (bit_pos_ >= size_bits_) [[unlikely]] {
      MarkOverrun();
      return false;
    }
    const size_t byte = bit_pos_ >> 3;
    const unsigned shift = 7 - (bit_pos_ & 7);
    ++bit_pos_;
    return (buf_[byte] >> shift) & 1;
  }

  uint64_t ReadBits(unsigned nbits) {
    assert(nbits <= 64);
    if (nbits > size_bits_ - bit_pos_) [[unlikely]] {
      MarkOverrun();
      return 0;
    }
    uint64_t v = 0;
    while (nbits > 0) {
      const size_t byte = bit_pos_ >> 3;
      const unsigned bit_in_byte = bit_pos_ & 7;
      const unsigned space = 8 - bit_in_byte;
      const unsigned n = space < nbits ? space : nbits;
      const uint64_t chunk =
          (buf_[byte] >> (space - n)) & ((1ull << n) - 1);
      v = (v << n) | chunk;
      bit_pos_ += n;
      nbits -= n;
    }
    return v;
  }

 private:
  const uint8_t* buf_;
  size_t size_bits_;
  size_t bit_pos_ = 0;
  bool overrun_ = false;
};

/// Every sample takes at least one bit of each of its streams, so a count
/// above a stream's bit length is corrupt. Decoders check this before they
/// size anything by the count.
inline bool CountFitsBits(uint64_t count, size_t stream_bytes) {
  return count <= uint64_t{stream_bytes} * 8;
}

}  // namespace tu::compress
