#include "compress/gorilla.h"

#include <bit>
#include <cstring>

namespace tu::compress {

namespace {

uint64_t DoubleToBits(double d) {
  uint64_t bits;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d;
  memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Register-resident MSB-first bit cursor for the bulk decode loops: a
/// 64-bit accumulator refilled a whole word at a time, so the per-field
/// cost is a shift and a subtract instead of BitReader's per-byte loop.
/// Constructed from a BitReader's raw state and synced back with SyncTo(),
/// so bulk and per-sample decoding interleave losslessly. It never loads a
/// byte at or past `end_`; a read past the end yields zero bits and is
/// reported to the BitReader as an overrun.
class BulkBitCursor {
 public:
  BulkBitCursor(const uint8_t* buf, size_t size_bits, size_t bit_pos)
      : base_(buf), next_(buf + (bit_pos >> 3)), end_(buf + ((size_bits + 7) >> 3)) {
    const unsigned frac = bit_pos & 7;
    if (frac != 0 && next_ < end_) {
      // Start mid-byte: preload the partial byte with the consumed high
      // bits shifted out.
      acc_ = static_cast<uint64_t>(*next_++) << (56 + frac);
      n_ = 8 - frac;
    }
  }

  bool ReadBit() {
    if (n_ == 0) {
      Fill();
      if (n_ == 0) {
        overrun_ = true;
        return false;
      }
    }
    const bool bit = (acc_ >> 63) & 1;
    acc_ <<= 1;
    --n_;
    return bit;
  }

  /// Reads 0..57 bits. (Fill() tops the accumulator up to >= 57 bits
  /// whenever bytes remain, so a 57-bit read never splits.)
  uint64_t ReadSmall(unsigned nbits) {
    if (nbits == 0) return 0;
    if (n_ < nbits) {
      Fill();
      if (n_ < nbits) {
        overrun_ = true;
        n_ = nbits;  // the bits below the last byte are zero
      }
    }
    const uint64_t v = acc_ >> (64 - nbits);
    acc_ <<= nbits;
    n_ -= nbits;
    return v;
  }

  /// Reads up to 64 bits (raw timestamp/value fields).
  uint64_t ReadWide(unsigned nbits) {
    if (nbits <= 57) return ReadSmall(nbits);
    const uint64_t hi = ReadSmall(32);
    return (hi << (nbits - 32)) | ReadSmall(nbits - 32);
  }

  /// Flags a corrupt field (a value the encoder never writes): reported to
  /// the BitReader as an overrun, which the decode entry points turn into
  /// Corruption.
  void MarkCorrupt() { overrun_ = true; }

  /// Writes the cursor position back into the BitReader.
  void SyncTo(BitReader* r) const {
    if (overrun_) {
      r->MarkOverrun();
      return;
    }
    r->set_bit_pos(static_cast<size_t>(next_ - base_) * 8 - n_);
  }

 private:
  // Called with n_ <= 56. With 8 or more bytes left, one unaligned
  // big-endian word load tops acc_ up with every whole byte that fits
  // (n_ ends at 57..64). The word's extra low bits land below the valid
  // ones; they are the high bits of *next_, which the next fill ORs in
  // again at the same place, so they never disturb a read. The last 7
  // bytes are loaded one at a time so no load crosses end_.
  void Fill() {
    if (end_ - next_ >= 8) {
      uint64_t word;
      std::memcpy(&word, next_, sizeof(word));
      if constexpr (std::endian::native == std::endian::little) {
        word = __builtin_bswap64(word);
      }
      acc_ |= word >> n_;
      const unsigned take = (64 - n_) >> 3;
      next_ += take;
      n_ += take * 8;
      return;
    }
    while (n_ <= 56 && next_ < end_) {
      acc_ |= static_cast<uint64_t>(*next_++) << (56 - n_);
      n_ += 8;
    }
  }

  const uint8_t* base_;
  const uint8_t* next_;
  const uint8_t* end_;
  uint64_t acc_ = 0;  // left-aligned pending bits
  unsigned n_ = 0;    // valid bits in acc_
  bool overrun_ = false;
};

/// Streaming XOR-decode state shared by the plain and nullable bulk value
/// paths; mirrors ValueDecoder's members exactly.
struct XorState {
  uint32_t count;
  uint64_t prev_bits;
  unsigned leading;
  unsigned trailing;
};

/// One XOR-decoded value off the cursor (the steady-state body of
/// ValueDecoder::Next over BulkBitCursor).
inline double XorDecodeOne(BulkBitCursor& c, XorState& s) {
  if (s.count == 0) {
    s.prev_bits = c.ReadWide(64);
    s.leading = 64;  // no window yet (mirrors encoder)
    s.trailing = 0;
    ++s.count;
    return BitsToDouble(s.prev_bits);
  }
  ++s.count;
  if (!c.ReadBit()) return BitsToDouble(s.prev_bits);  // identical value
  if (!c.ReadBit()) {
    const unsigned sigbits = 64 - s.leading - s.trailing;
    s.prev_bits ^= c.ReadWide(sigbits) << s.trailing;
  } else {
    const unsigned leading = static_cast<unsigned>(c.ReadSmall(5));
    unsigned sigbits = static_cast<unsigned>(c.ReadSmall(6));
    if (sigbits == 0) sigbits = 64;  // 6-bit field wraps for full width
    if (leading + sigbits > 64) {
      // A window wider than the word: the trailing shift would reach 64.
      c.MarkCorrupt();
      return BitsToDouble(s.prev_bits);
    }
    const unsigned trailing = 64 - leading - sigbits;
    s.prev_bits ^= c.ReadWide(sigbits) << trailing;
    s.leading = leading;
    s.trailing = trailing;
  }
  return BitsToDouble(s.prev_bits);
}

}  // namespace

void TimestampEncoder::Append(BitWriter* w, int64_t ts) {
  if (count_ == 0) {
    w->WriteBits(static_cast<uint64_t>(ts), 64);
    prev_ts_ = ts;
  } else if (count_ == 1) {
    const int64_t delta = ts - prev_ts_;
    w->WriteBits(static_cast<uint64_t>(delta), 64);
    prev_delta_ = delta;
    prev_ts_ = ts;
  } else {
    const int64_t delta = ts - prev_ts_;
    const int64_t dod = delta - prev_delta_;
    if (dod == 0) {
      w->WriteBit(false);
    } else if (dod >= -63 && dod <= 64) {
      w->WriteBits(0b10, 2);
      w->WriteBits(static_cast<uint64_t>(dod + 63), 7);
    } else if (dod >= -255 && dod <= 256) {
      w->WriteBits(0b110, 3);
      w->WriteBits(static_cast<uint64_t>(dod + 255), 9);
    } else if (dod >= -2047 && dod <= 2048) {
      w->WriteBits(0b1110, 4);
      w->WriteBits(static_cast<uint64_t>(dod + 2047), 12);
    } else {
      w->WriteBits(0b1111, 4);
      w->WriteBits(static_cast<uint64_t>(dod), 64);
    }
    prev_delta_ = delta;
    prev_ts_ = ts;
  }
  ++count_;
}

void TimestampDecoder::DecodeAll(BitReader* r, size_t n, int64_t* out) {
  if (n == 0) return;
  BulkBitCursor c(r->bytes(), r->size_bits(), r->bit_pos());
  uint32_t count = count_;
  int64_t ts = prev_ts_;
  int64_t delta = prev_delta_;
  size_t i = 0;
  // Header samples: raw first timestamp, then a raw 64-bit delta.
  if (i < n && count == 0) {
    ts = static_cast<int64_t>(c.ReadWide(64));
    out[i++] = ts;
    ++count;
  }
  if (i < n && count == 1) {
    delta = static_cast<int64_t>(c.ReadWide(64));
    ts += delta;
    out[i++] = ts;
    ++count;
  }
  // Steady state: delta-of-delta buckets, cursor and deltas in registers.
  for (; i < n; ++i) {
    int64_t dod;
    if (!c.ReadBit()) {
      dod = 0;
    } else if (!c.ReadBit()) {
      dod = static_cast<int64_t>(c.ReadSmall(7)) - 63;
    } else if (!c.ReadBit()) {
      dod = static_cast<int64_t>(c.ReadSmall(9)) - 255;
    } else if (!c.ReadBit()) {
      dod = static_cast<int64_t>(c.ReadSmall(12)) - 2047;
    } else {
      dod = static_cast<int64_t>(c.ReadWide(64));
    }
    delta += dod;
    ts += delta;
    out[i] = ts;
  }
  count_ += static_cast<uint32_t>(n);
  prev_ts_ = ts;
  prev_delta_ = delta;
  c.SyncTo(r);
}

int64_t TimestampDecoder::Next(BitReader* r) {
  if (count_ == 0) {
    prev_ts_ = static_cast<int64_t>(r->ReadBits(64));
  } else if (count_ == 1) {
    prev_delta_ = static_cast<int64_t>(r->ReadBits(64));
    prev_ts_ += prev_delta_;
  } else {
    int64_t dod;
    if (!r->ReadBit()) {
      dod = 0;
    } else if (!r->ReadBit()) {
      dod = static_cast<int64_t>(r->ReadBits(7)) - 63;
    } else if (!r->ReadBit()) {
      dod = static_cast<int64_t>(r->ReadBits(9)) - 255;
    } else if (!r->ReadBit()) {
      dod = static_cast<int64_t>(r->ReadBits(12)) - 2047;
    } else {
      dod = static_cast<int64_t>(r->ReadBits(64));
    }
    prev_delta_ += dod;
    prev_ts_ += prev_delta_;
  }
  ++count_;
  return prev_ts_;
}

void ValueEncoder::Append(BitWriter* w, double value) {
  const uint64_t bits = DoubleToBits(value);
  if (count_ == 0) {
    w->WriteBits(bits, 64);
    prev_bits_ = bits;
    ++count_;
    return;
  }
  const uint64_t x = bits ^ prev_bits_;
  prev_bits_ = bits;
  ++count_;
  if (x == 0) {
    w->WriteBit(false);
    return;
  }
  unsigned leading = static_cast<unsigned>(std::countl_zero(x));
  unsigned trailing = static_cast<unsigned>(std::countr_zero(x));
  // Gorilla caps leading zeros at 31 so they fit in 5 bits.
  if (leading > 31) leading = 31;

  if (prev_leading_ != 64 && leading >= prev_leading_ &&
      trailing >= prev_trailing_) {
    // Fits inside the previous meaningful-bit window: '10' + bits.
    w->WriteBits(0b10, 2);
    const unsigned sigbits = 64 - prev_leading_ - prev_trailing_;
    w->WriteBits(x >> prev_trailing_, sigbits);
  } else {
    // New window: '11' + 5-bit leading + 6-bit length + bits.
    w->WriteBits(0b11, 2);
    w->WriteBits(leading, 5);
    const unsigned sigbits = 64 - leading - trailing;
    w->WriteBits(sigbits, 6);
    w->WriteBits(x >> trailing, sigbits);
    prev_leading_ = leading;
    prev_trailing_ = trailing;
  }
}

void ValueDecoder::DecodeAll(BitReader* r, size_t n, double* out) {
  if (n == 0) return;
  BulkBitCursor c(r->bytes(), r->size_bits(), r->bit_pos());
  XorState s{count_, prev_bits_, prev_leading_, prev_trailing_};
  for (size_t i = 0; i < n; ++i) out[i] = XorDecodeOne(c, s);
  count_ = s.count;
  prev_bits_ = s.prev_bits;
  prev_leading_ = s.leading;
  prev_trailing_ = s.trailing;
  c.SyncTo(r);
}

double ValueDecoder::Next(BitReader* r) {
  if (count_ == 0) {
    prev_bits_ = r->ReadBits(64);
    prev_leading_ = 64;  // no window yet (mirrors encoder)
    prev_trailing_ = 0;
    ++count_;
    return BitsToDouble(prev_bits_);
  }
  ++count_;
  if (!r->ReadBit()) {
    return BitsToDouble(prev_bits_);  // identical value
  }
  if (!r->ReadBit()) {
    // Previous window.
    const unsigned sigbits = 64 - prev_leading_ - prev_trailing_;
    const uint64_t meaningful = r->ReadBits(sigbits);
    prev_bits_ ^= meaningful << prev_trailing_;
  } else {
    const unsigned leading = static_cast<unsigned>(r->ReadBits(5));
    unsigned sigbits = static_cast<unsigned>(r->ReadBits(6));
    if (sigbits == 0) sigbits = 64;  // 6-bit field wraps for full width
    if (leading + sigbits > 64) {
      // A window wider than the word: the trailing shift would reach 64.
      r->MarkOverrun();
      return BitsToDouble(prev_bits_);
    }
    const unsigned trailing = 64 - leading - sigbits;
    const uint64_t meaningful = r->ReadBits(sigbits);
    prev_bits_ ^= meaningful << trailing;
    prev_leading_ = leading;
    prev_trailing_ = trailing;
  }
  return BitsToDouble(prev_bits_);
}

void NullableValueDecoder::DecodeAll(BitReader* r, size_t n, double* values,
                                     uint64_t* validity) {
  if (n == 0) return;
  BulkBitCursor c(r->bytes(), r->size_bits(), r->bit_pos());
  XorState s{inner_.count_, inner_.prev_bits_, inner_.prev_leading_,
             inner_.prev_trailing_};
  for (size_t i = 0; i < n; ++i) {
    if (c.ReadBit()) continue;  // NULL slot: no value bits follow
    values[i] = XorDecodeOne(c, s);
    validity[i >> 6] |= 1ull << (i & 63);
  }
  inner_.count_ = s.count;
  inner_.prev_bits_ = s.prev_bits;
  inner_.prev_leading_ = s.leading;
  inner_.prev_trailing_ = s.trailing;
  c.SyncTo(r);
}

}  // namespace tu::compress
