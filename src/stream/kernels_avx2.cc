// AVX2 kernel table. This translation unit is the only one compiled with
// -mavx2 (CMake adds it on x86-64 targets only), so the rest of the library
// stays at the baseline ISA and JARVIS_SIMD=scalar is a genuine fallback.
// Dispatch still checks CPUID at runtime before handing this table out.

#include "stream/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "ser/codec.h"

namespace jarvis::stream::kernels {

namespace {

// ---------------------------------------------------------------------------
// Delta + zigzag varint block codec
// ---------------------------------------------------------------------------

size_t DeltaVarintEncodeAvx2(const int64_t* v, size_t n, uint64_t* prev,
                             uint8_t* out) {
  if (n == 0) return 0;
  size_t w = 0;
  // The first delta is against the carried baseline; every later one is
  // against v[i-1], which lets the block loop use a shifted unaligned load.
  w += ser::EncodeVarU64(
      ser::ZigZagEncode(static_cast<int64_t>(static_cast<uint64_t>(v[0]) -
                                             *prev)),
      out + w);
  size_t i = 1;
  alignas(32) uint64_t z[32];
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i high = _mm256_set1_epi64x(~0x7fLL);
  for (; i + 32 <= n; i += 32) {
    __m256i acc = vzero;
    for (size_t b = 0; b < 32; b += 4) {
      const __m256i cur = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(v + i + b));
      const __m256i prv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(v + i + b - 1));
      const __m256i d = _mm256_sub_epi64(cur, prv);
      // zigzag: (d << 1) ^ (d >> 63); AVX2 lacks a 64-bit arithmetic right
      // shift, but cmpgt(0, d) is exactly the sign-fill.
      const __m256i zz = _mm256_xor_si256(_mm256_slli_epi64(d, 1),
                                          _mm256_cmpgt_epi64(vzero, d));
      _mm256_store_si256(reinterpret_cast<__m256i*>(z + b), zz);
      acc = _mm256_or_si256(acc, zz);
    }
    if (_mm256_testz_si256(acc, high)) {
      // Near-monotone columns land here: every zigzag delta fits one byte.
      for (size_t b = 0; b < 32; ++b) {
        out[w + b] = static_cast<uint8_t>(z[b]);
      }
      w += 32;
    } else {
      for (size_t b = 0; b < 32; ++b) w += ser::EncodeVarU64(z[b], out + w);
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

size_t DeltaVarintDecodeAvx2(const uint8_t* in, size_t avail, size_t n,
                             uint64_t* prev, int64_t* out) {
  uint64_t p = *prev;
  size_t pos = 0;
  size_t i = 0;
  while (i < n) {
    // A 32-byte window with no continuation bits is 32 one-byte varints —
    // the common case for delta-coded time/int64 columns.
    if (n - i >= 32 && avail - pos >= 32) {
      const __m256i bytes =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + pos));
      if (_mm256_movemask_epi8(bytes) == 0) {
        for (size_t b = 0; b < 32; ++b) {
          p += static_cast<uint64_t>(ser::ZigZagDecode(in[pos + b]));
          out[i + b] = static_cast<int64_t>(p);
        }
        pos += 32;
        i += 32;
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

constexpr KernelTable kAvx2Table = {
    DeltaVarintEncodeAvx2,
    DeltaVarintDecodeAvx2,
};

}  // namespace

const KernelTable* GetAvx2Kernels() { return &kAvx2Table; }

}  // namespace jarvis::stream::kernels

#else  // !defined(__AVX2__)

namespace jarvis::stream::kernels {
// Built without -mavx2 (e.g. a generic x86 toolchain): report the table as
// unavailable so dispatch falls back to scalar.
const KernelTable* GetAvx2Kernels() { return nullptr; }
}  // namespace jarvis::stream::kernels

#endif
