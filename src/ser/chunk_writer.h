#ifndef JARVIS_SER_CHUNK_WRITER_H_
#define JARVIS_SER_CHUNK_WRITER_H_

#include <cstdint>
#include <cstring>
#include <string_view>

#include "ser/buffer.h"

namespace jarvis::ser {

/// Accumulates encoded bytes in a stack chunk and flushes to the
/// BufferWriter in bulk: column emission costs one vector append per ~4KB of
/// payload instead of one per value. The schema-elided batch format's
/// encoder (stream/record.cc) writes through it.
class ChunkWriter {
 public:
  explicit ChunkWriter(BufferWriter* out) : out_(out) {}
  ~ChunkWriter() { Flush(); }

  ChunkWriter(const ChunkWriter&) = delete;
  ChunkWriter& operator=(const ChunkWriter&) = delete;

  void Byte(uint8_t b) {
    if (n_ + 1 > sizeof(buf_)) Flush();
    buf_[n_++] = b;
  }
  void VarU64(uint64_t v) {
    if (n_ + 10 > sizeof(buf_)) Flush();
    n_ += EncodeVarU64(v, buf_ + n_);
  }
  void VarI64(int64_t v) { VarU64(ZigZagEncode(v)); }
  /// One record's header row (flag byte + two time-delta varints),
  /// bounds-checked once.
  void Header(uint8_t flags, int64_t event_time_delta,
              int64_t window_start_delta) {
    if (n_ + 21 > sizeof(buf_)) Flush();
    buf_[n_++] = flags;
    n_ += EncodeVarU64(ZigZagEncode(event_time_delta), buf_ + n_);
    n_ += EncodeVarU64(ZigZagEncode(window_start_delta), buf_ + n_);
  }
  void Double(double v) {
    if (n_ + 8 > sizeof(buf_)) Flush();
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    StoreLe(bits, buf_ + n_);
    n_ += 8;
  }
  void Bytes(const uint8_t* p, size_t len) {
    if (len >= sizeof(buf_) / 2) {
      Flush();
      out_->PutBytes(p, len);
      return;
    }
    if (n_ + len > sizeof(buf_)) Flush();
    std::memcpy(buf_ + n_, p, len);
    n_ += len;
  }
  void String(std::string_view s) {
    VarU64(s.size());
    Bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  void Flush() {
    if (n_ > 0) {
      out_->PutBytes(buf_, n_);
      n_ = 0;
    }
  }

 private:
  BufferWriter* out_;
  size_t n_ = 0;
  uint8_t buf_[4096];
};

}  // namespace jarvis::ser

#endif  // JARVIS_SER_CHUNK_WRITER_H_
