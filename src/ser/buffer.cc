#include "ser/buffer.h"

namespace jarvis::ser {

namespace {

inline uint64_t MixWord(uint64_t h, uint64_t w) {
  h ^= w * 0x9e3779b97f4a7c15ull;
  h = (h << 29) | (h >> 35);
  return h * 0xbf58476d1ce4e5b9ull;
}

inline uint64_t LoadWord(const uint8_t* p, size_t n) {
  uint64_t w = 0;
  for (size_t i = 0; i < n; ++i) w |= static_cast<uint64_t>(p[i]) << (8 * i);
  return w;
}

}  // namespace

uint32_t FrameChecksum(const uint8_t* data, size_t len) {
  uint64_t h = 0x2545f4914f6cdd1dull ^ (static_cast<uint64_t>(len) *
                                        0x9e3779b97f4a7c15ull);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) h = MixWord(h, LoadWord(data + i, 8));
  if (i < len) h = MixWord(h, LoadWord(data + i, len - i));
  // fmix64 finalizer, folded to 32 bits.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void BufferWriter::PutU32(uint32_t v) {
  uint8_t tmp[4];
  StoreLe(v, tmp);
  buf_.insert(buf_.end(), tmp, tmp + sizeof(tmp));
}

void BufferWriter::PutU64(uint64_t v) {
  uint8_t tmp[8];
  StoreLe(v, tmp);
  buf_.insert(buf_.end(), tmp, tmp + sizeof(tmp));
}

void BufferWriter::PutVarU64(uint64_t v) {
  uint8_t tmp[10];
  const size_t n = EncodeVarU64(v, tmp);
  buf_.insert(buf_.end(), tmp, tmp + n);
}

void BufferWriter::PutVarI64(int64_t v) { PutVarU64(ZigZagEncode(v)); }

void BufferWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BufferWriter::PutString(std::string_view s) {
  PutVarU64(s.size());
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void BufferWriter::PutBytes(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

Status BufferReader::Truncated() {
  return Status::SerializationError("truncated buffer");
}

Status BufferReader::Overlong() {
  return Status::SerializationError("varint too long");
}

Status BufferReader::GetVarU64Slow(uint64_t* out) {
  // Fewer than kMaxVarIntBytes remain: bounds-check every byte.
  *out = 0;
  uint64_t v = 0;
  for (size_t i = 0; i < kMaxVarIntBytes; ++i) {
    if (pos_ + i >= size_) return Truncated();
    const uint8_t b = data_[pos_ + i];
    v |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if (!(b & 0x80)) {
      pos_ += i + 1;
      *out = v;
      return Status::OK();
    }
  }
  return Overlong();
}

Status BufferReader::GetString(std::string* out) {
  std::string_view v;
  JARVIS_RETURN_IF_ERROR(GetStringView(&v));
  out->assign(v);
  return Status::OK();
}

Status BufferReader::GetStringView(std::string_view* out) {
  uint64_t len;
  JARVIS_RETURN_IF_ERROR(GetVarU64(&len));
  // Compared against what is left, not as pos_ + len: a length read off the
  // wire near 2^64 would wrap that sum and pass.
  if (len > size_ - pos_) return Truncated();
  *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

}  // namespace jarvis::ser
