// NEON kernel table for aarch64, where Advanced SIMD is baseline so no
// extra compile flags are needed; CMake adds this translation unit only when
// targeting aarch64. Mirrors the AVX2 TU structure with 128-bit vectors.

#include "stream/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "ser/codec.h"

namespace jarvis::stream::kernels {

namespace {

// ---------------------------------------------------------------------------
// Delta + zigzag varint block codec
// ---------------------------------------------------------------------------

size_t DeltaVarintEncodeNeon(const int64_t* v, size_t n, uint64_t* prev,
                             uint8_t* out) {
  if (n == 0) return 0;
  size_t w = 0;
  w += ser::EncodeVarU64(
      ser::ZigZagEncode(static_cast<int64_t>(static_cast<uint64_t>(v[0]) -
                                             *prev)),
      out + w);
  size_t i = 1;
  alignas(16) uint64_t z[16];
  for (; i + 16 <= n; i += 16) {
    uint64x2_t acc = vdupq_n_u64(0);
    for (size_t b = 0; b < 16; b += 2) {
      const int64x2_t cur = vld1q_s64(v + i + b);
      const int64x2_t prv = vld1q_s64(v + i + b - 1);
      const int64x2_t d = vsubq_s64(cur, prv);
      const uint64x2_t zz = vreinterpretq_u64_s64(
          veorq_s64(vshlq_n_s64(d, 1), vshrq_n_s64(d, 63)));
      vst1q_u64(z + b, zz);
      acc = vorrq_u64(acc, zz);
    }
    if (((vgetq_lane_u64(acc, 0) | vgetq_lane_u64(acc, 1)) & ~0x7fULL) == 0) {
      for (size_t b = 0; b < 16; ++b) out[w + b] = static_cast<uint8_t>(z[b]);
      w += 16;
    } else {
      for (size_t b = 0; b < 16; ++b) w += ser::EncodeVarU64(z[b], out + w);
    }
  }
  for (; i < n; ++i) {
    w += ser::EncodeVarU64(
        ser::ZigZagEncode(static_cast<int64_t>(
            static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(v[i - 1]))),
        out + w);
  }
  *prev = static_cast<uint64_t>(v[n - 1]);
  return w;
}

size_t DeltaVarintDecodeNeon(const uint8_t* in, size_t avail, size_t n,
                             uint64_t* prev, int64_t* out) {
  uint64_t p = *prev;
  size_t pos = 0;
  size_t i = 0;
  const uint8x16_t high = vdupq_n_u8(0x80);
  while (i < n) {
    if (n - i >= 16 && avail - pos >= 16) {
      const uint8x16_t bytes = vld1q_u8(in + pos);
      if (vmaxvq_u8(vandq_u8(bytes, high)) == 0) {
        for (size_t b = 0; b < 16; ++b) {
          p += static_cast<uint64_t>(ser::ZigZagDecode(in[pos + b]));
          out[i + b] = static_cast<int64_t>(p);
        }
        pos += 16;
        i += 16;
        continue;
      }
    }
    uint64_t raw;
    if (!detail::DecodeVarU64Step(in, avail, &pos, &raw)) return 0;
    p += static_cast<uint64_t>(ser::ZigZagDecode(raw));
    out[i++] = static_cast<int64_t>(p);
  }
  *prev = p;
  return pos;
}

constexpr KernelTable kNeonTable = {
    DeltaVarintEncodeNeon,
    DeltaVarintDecodeNeon,
};

}  // namespace

const KernelTable* GetNeonKernels() { return &kNeonTable; }

}  // namespace jarvis::stream::kernels

#endif  // defined(__aarch64__)
