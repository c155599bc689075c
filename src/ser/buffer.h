#ifndef JARVIS_SER_BUFFER_H_
#define JARVIS_SER_BUFFER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace jarvis::ser {

/// Exact encoded length of an unsigned LEB128 varint, computed from the
/// value's bit width (no loop). Used by WireSize so byte accounting matches
/// serialization output exactly.
constexpr size_t VarIntSize(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v | 1) + 6) / 7;
}

/// Zigzag transform helpers (exposed for testing).
constexpr uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
constexpr int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Little-endian fixed-width store into a caller-provided buffer; gcc/clang
/// collapse the shift loop into a single unaligned store on LE targets.
/// Shared by BufferWriter's fixed-width puts and batch column emission so
/// the wire encoding of doubles/words has exactly one definition.
template <typename T>
inline void StoreLe(T v, uint8_t* p) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

/// Little-endian fixed-width load, the inverse of StoreLe; gcc/clang
/// collapse the shift loop into a single unaligned load on LE targets.
template <typename T>
inline T LoadLe(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

/// Longest valid LEB128 encoding of a 64-bit value.
inline constexpr size_t kMaxVarIntBytes = 10;

/// Encodes `v` as unsigned LEB128 into `p` (which must have >= 10 bytes of
/// room) and returns the number of bytes written. Exposed so batch
/// serialization can emit varints into a stack chunk and flush with one
/// memcpy instead of going through the writer per value.
inline size_t EncodeVarU64(uint64_t v, uint8_t* p) {
  size_t n = 0;
  while (v >= 0x80) {
    p[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  p[n++] = static_cast<uint8_t>(v);
  return n;
}

/// Append-only binary encoder with LEB128 varints and zigzag for signed
/// integers. This is the wire format used on the drain path between a data
/// source and its parent stream processor (the paper uses Kryo; we implement
/// an equivalent compact binary format so network byte counts are realistic).
///
/// All fixed-width and varint puts emit through a small stack buffer plus one
/// bulk append; nothing on the hot path appends byte-by-byte.
class BufferWriter {
 public:
  BufferWriter() = default;

  /// Pre-grows the backing buffer so the next `n` bytes of puts do not
  /// reallocate. Growth is geometric: an exact-size reserve would cap
  /// capacity at each request and make repeated batch appends into one
  /// writer quadratic.
  void Reserve(size_t n) {
    const size_t need = buf_.size() + n;
    if (need > buf_.capacity()) {
      buf_.reserve(std::max(need, buf_.capacity() * 2));
    }
  }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Unsigned LEB128.
  void PutVarU64(uint64_t v);
  /// Zigzag-encoded signed LEB128.
  void PutVarI64(int64_t v);
  void PutDouble(double v);
  /// Length-prefixed string.
  void PutString(std::string_view s);
  void PutBytes(const uint8_t* data, size_t len);

  /// Overwrites 4 already-written bytes at `pos` with a little-endian u32.
  /// Frame encoders reserve a checksum/length slot with PutU32(0), write the
  /// payload, then patch the real value here — no second buffer, no copy.
  void PatchU32(size_t pos, uint32_t v) { StoreLe(v, buf_.data() + pos); }

  const std::vector<uint8_t>& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

  /// Moves the encoded bytes out (the writer is left empty but usable).
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential decoder over a byte span; all getters fail with
/// SerializationError on truncated input instead of reading out of bounds
/// (a failed numeric getter leaves zero in its output).
///
/// The per-value getters every decoder calls in its inner loop (batch rows,
/// tagged values, column sections, checkpoint bodies, frame headers) are
/// inline: one bounds check per value, and on success the returned OK
/// Status folds away at the call site. Building an error Status, and the
/// byte-at-a-time varint tail near the end of the span, stay out of line.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out) {
    if (pos_ < size_) [[likely]] {
      *out = data_[pos_++];
      return Status::OK();
    }
    *out = 0;
    return Truncated();
  }
  Status GetU32(uint32_t* out) { return GetFixed(out); }
  Status GetU64(uint64_t* out) { return GetFixed(out); }
  /// Unsigned LEB128. With a full varint's worth of bytes left, no byte
  /// needs its own bounds check; closer to the end the slow path checks
  /// each byte.
  Status GetVarU64(uint64_t* out) {
    if (size_ - pos_ < kMaxVarIntBytes) [[unlikely]] {
      return GetVarU64Slow(out);
    }
    const uint8_t* p = data_ + pos_;
    uint64_t v = 0;
    for (size_t i = 0; i < kMaxVarIntBytes; ++i) {
      v |= static_cast<uint64_t>(p[i] & 0x7f) << (7 * i);
      if (!(p[i] & 0x80)) {
        pos_ += i + 1;
        *out = v;
        return Status::OK();
      }
    }
    *out = 0;
    return Overlong();
  }
  /// Zigzag-encoded signed LEB128.
  Status GetVarI64(int64_t* out) {
    uint64_t raw = 0;
    Status st = GetVarU64(&raw);
    *out = ZigZagDecode(raw);
    return st;
  }
  Status GetDouble(double* out) {
    uint64_t bits = 0;
    Status st = GetU64(&bits);
    std::memcpy(out, &bits, sizeof(*out));
    return st;
  }
  Status GetString(std::string* out);
  /// Length-prefixed string as a view into the span (valid while it is).
  Status GetStringView(std::string_view* out);

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ >= size_; }

  /// Raw cursor access for framed sections: a decoder hands the next
  /// length-checked bytes to a nested reader and advances past them. `n`
  /// must not exceed remaining().
  const uint8_t* cursor() const { return data_ + pos_; }
  void Advance(size_t n) { pos_ += n; }

 private:
  template <typename T>
  Status GetFixed(T* out) {
    if (size_ - pos_ >= sizeof(T)) [[likely]] {
      *out = LoadLe<T>(data_ + pos_);
      pos_ += sizeof(T);
      return Status::OK();
    }
    *out = 0;
    return Truncated();
  }
  Status GetVarU64Slow(uint64_t* out);
  static Status Truncated();
  static Status Overlong();

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

/// Fast 32-bit frame checksum over a byte span (multiply-rotate mix over
/// 8-byte words, wyhash-style). Not cryptographic: it exists to catch wire
/// corruption — bit flips, truncation, splices — with probability ~1-2^-32,
/// at memory-bandwidth speed. The length participates in the seed so a
/// truncated frame cannot collide with its own prefix.
uint32_t FrameChecksum(const uint8_t* data, size_t len);

inline uint32_t FrameChecksum(const std::vector<uint8_t>& buf) {
  return FrameChecksum(buf.data(), buf.size());
}

}  // namespace jarvis::ser

#endif  // JARVIS_SER_BUFFER_H_
