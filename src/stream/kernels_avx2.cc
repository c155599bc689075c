// AVX2 kernel table. This translation unit is the only one compiled with
// -mavx2 (CMake adds it on x86-64 targets only), so the rest of the library
// stays at the baseline ISA and JARVIS_SIMD=scalar is a genuine fallback.
// Dispatch still checks CPUID at runtime before handing this table out.

#include "stream/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "ser/codec.h"

namespace jarvis::stream::kernels {

namespace {

using detail::CmpApply;
using detail::kMaskExpand;

// ---------------------------------------------------------------------------
// Typed compare -> selection fills
// ---------------------------------------------------------------------------

/// 4-bit lane mask for one 4x i64 block under the comparison `kOp`. AVX2 has
/// only eq/gt for 64-bit integers; the other four derive by swapping
/// operands and complementing the mask.
template <CmpOp kOp>
inline uint32_t Mask4I64(const int64_t* p, __m256i c) {
  const __m256i x =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i m;
  uint32_t invert = 0;
  if constexpr (kOp == CmpOp::kEq) {
    m = _mm256_cmpeq_epi64(x, c);
  } else if constexpr (kOp == CmpOp::kNe) {
    m = _mm256_cmpeq_epi64(x, c);
    invert = 0xF;
  } else if constexpr (kOp == CmpOp::kGt) {
    m = _mm256_cmpgt_epi64(x, c);
  } else if constexpr (kOp == CmpOp::kLe) {
    m = _mm256_cmpgt_epi64(x, c);
    invert = 0xF;
  } else if constexpr (kOp == CmpOp::kLt) {
    m = _mm256_cmpgt_epi64(c, x);
  } else {  // kGe
    m = _mm256_cmpgt_epi64(c, x);
    invert = 0xF;
  }
  return static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_castsi256_pd(m))) ^
         invert;
}

/// The _mm256_cmp_pd predicates match the C++ operators for each CmpOp
/// (ordered compares except !=, so NaN operands select nothing except kNe).
/// The immediates are spelled literally in each branch — the intrinsic
/// requires a compile-time constant even in -O0 builds.
template <CmpOp kOp>
inline uint32_t Mask4F64(const double* p, __m256d c) {
  const __m256d x = _mm256_loadu_pd(p);
  __m256d m;
  if constexpr (kOp == CmpOp::kEq) {
    m = _mm256_cmp_pd(x, c, _CMP_EQ_OQ);
  } else if constexpr (kOp == CmpOp::kNe) {
    m = _mm256_cmp_pd(x, c, _CMP_NEQ_UQ);
  } else if constexpr (kOp == CmpOp::kLt) {
    m = _mm256_cmp_pd(x, c, _CMP_LT_OQ);
  } else if constexpr (kOp == CmpOp::kLe) {
    m = _mm256_cmp_pd(x, c, _CMP_LE_OQ);
  } else if constexpr (kOp == CmpOp::kGt) {
    m = _mm256_cmp_pd(x, c, _CMP_GT_OQ);
  } else {  // kGe
    m = _mm256_cmp_pd(x, c, _CMP_GE_OQ);
  }
  return static_cast<uint32_t>(_mm256_movemask_pd(m));
}

template <CmpOp kOp>
void CmpFillI64T(const int64_t* v, size_t n, int64_t c, uint8_t* sel) {
  const __m256i cc = _mm256_set1_epi64x(c);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint32_t m =
        Mask4I64<kOp>(v + i, cc) | (Mask4I64<kOp>(v + i + 4, cc) << 4);
    const uint64_t bytes = kMaskExpand[m];
    std::memcpy(sel + i, &bytes, 8);
  }
  for (; i < n; ++i) sel[i] = static_cast<uint8_t>(CmpApply(v[i], kOp, c));
}

template <CmpOp kOp>
void CmpFillF64T(const double* v, size_t n, double c, uint8_t* sel) {
  const __m256d cc = _mm256_set1_pd(c);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint32_t m =
        Mask4F64<kOp>(v + i, cc) | (Mask4F64<kOp>(v + i + 4, cc) << 4);
    const uint64_t bytes = kMaskExpand[m];
    std::memcpy(sel + i, &bytes, 8);
  }
  for (; i < n; ++i) sel[i] = static_cast<uint8_t>(CmpApply(v[i], kOp, c));
}

void CmpFillI64Avx2(const int64_t* v, size_t n, int64_t c, CmpOp op,
                    uint8_t* sel) {
  switch (op) {
    case CmpOp::kEq:
      return CmpFillI64T<CmpOp::kEq>(v, n, c, sel);
    case CmpOp::kNe:
      return CmpFillI64T<CmpOp::kNe>(v, n, c, sel);
    case CmpOp::kLt:
      return CmpFillI64T<CmpOp::kLt>(v, n, c, sel);
    case CmpOp::kLe:
      return CmpFillI64T<CmpOp::kLe>(v, n, c, sel);
    case CmpOp::kGt:
      return CmpFillI64T<CmpOp::kGt>(v, n, c, sel);
    case CmpOp::kGe:
      return CmpFillI64T<CmpOp::kGe>(v, n, c, sel);
  }
}

void CmpFillF64Avx2(const double* v, size_t n, double c, CmpOp op,
                    uint8_t* sel) {
  switch (op) {
    case CmpOp::kEq:
      return CmpFillF64T<CmpOp::kEq>(v, n, c, sel);
    case CmpOp::kNe:
      return CmpFillF64T<CmpOp::kNe>(v, n, c, sel);
    case CmpOp::kLt:
      return CmpFillF64T<CmpOp::kLt>(v, n, c, sel);
    case CmpOp::kLe:
      return CmpFillF64T<CmpOp::kLe>(v, n, c, sel);
    case CmpOp::kGt:
      return CmpFillF64T<CmpOp::kGt>(v, n, c, sel);
    case CmpOp::kGe:
      return CmpFillF64T<CmpOp::kGe>(v, n, c, sel);
  }
}

// ---------------------------------------------------------------------------
// Selection combines
// ---------------------------------------------------------------------------

void SelAndAvx2(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(a, b));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

void SelOrAvx2(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a, b));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

void SelNotAvx2(uint8_t* dst, const uint8_t* src, size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi8(1);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_and_si256(_mm256_cmpeq_epi8(b, zero), one));
  }
  for (; i < n; ++i) dst[i] = static_cast<uint8_t>(src[i] == 0);
}

uint64_t SelCountAvx2(const uint8_t* sel, size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    const uint32_t zeros = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(b, zero)));
    count += 32 - std::popcount(zeros);
  }
  for (; i < n; ++i) count += sel[i] != 0;
  return count;
}

// ---------------------------------------------------------------------------
// Shuffle-table compaction
// ---------------------------------------------------------------------------

/// Cross-lane permute indices for compacting 4x u64 under a 4-bit keep
/// mask: for each set bit j (in order), the pair of u32 indices {2j, 2j+1}.
alignas(32) constexpr auto kCompactPerm64 = [] {
  std::array<std::array<uint32_t, 8>, 16> t{};
  for (int m = 0; m < 16; ++m) {
    int w = 0;
    for (int j = 0; j < 4; ++j) {
      if (m & (1 << j)) {
        t[static_cast<size_t>(m)][static_cast<size_t>(w++)] =
            static_cast<uint32_t>(2 * j);
        t[static_cast<size_t>(m)][static_cast<size_t>(w++)] =
            static_cast<uint32_t>(2 * j + 1);
      }
    }
  }
  return t;
}();

size_t Compact64Avx2(void* data, const uint8_t* keep, size_t n) {
  uint8_t* base = static_cast<uint8_t*>(data);
  size_t w = 0;
  size_t i = 0;
  // The full 32-byte store at w*8 never overruns: w <= i, so the store ends
  // at w*8 + 32 <= i*8 + 32 <= n*8; any bytes past the kept prefix are
  // rewritten by later blocks or dead after the caller's resize.
  for (; i + 4 <= n; i += 4) {
    const uint32_t m = (keep[i] != 0 ? 1u : 0u) |
                       (keep[i + 1] != 0 ? 2u : 0u) |
                       (keep[i + 2] != 0 ? 4u : 0u) |
                       (keep[i + 3] != 0 ? 8u : 0u);
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i * 8));
    const __m256i idx = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompactPerm64[m].data()));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(base + w * 8),
                        _mm256_permutevar8x32_epi32(x, idx));
    w += static_cast<size_t>(std::popcount(m));
  }
  for (; i < n; ++i) {
    if (!keep[i]) continue;
    if (w != i) std::memcpy(base + w * 8, base + i * 8, 8);
    ++w;
  }
  return w;
}

/// Byte-shuffle indices for compacting 8 bytes under an 8-bit keep mask;
/// unused slots shuffle in zeros (0x80), which later stores overwrite.
alignas(16) constexpr auto kCompactShuffle8 = [] {
  std::array<std::array<uint8_t, 16>, 256> t{};
  for (int m = 0; m < 256; ++m) {
    int w = 0;
    for (int j = 0; j < 8; ++j) {
      if (m & (1 << j)) {
        t[static_cast<size_t>(m)][static_cast<size_t>(w++)] =
            static_cast<uint8_t>(j);
      }
    }
    for (; w < 16; ++w) t[static_cast<size_t>(m)][static_cast<size_t>(w)] = 0x80;
  }
  return t;
}();

size_t Compact8Avx2(uint8_t* data, const uint8_t* keep, size_t n) {
  const __m128i zero = _mm_setzero_si128();
  size_t w = 0;
  size_t i = 0;
  // Same overlap argument as Compact64Avx2, with 8-byte blocks.
  for (; i + 8 <= n; i += 8) {
    const __m128i kv =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(keep + i));
    const uint32_t m =
        ~static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(kv, zero))) &
        0xFFu;
    const __m128i d =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(data + i));
    const __m128i shuf = _mm_load_si128(
        reinterpret_cast<const __m128i*>(kCompactShuffle8[m].data()));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(data + w),
                     _mm_shuffle_epi8(d, shuf));
    w += static_cast<size_t>(std::popcount(m));
  }
  for (; i < n; ++i) {
    if (keep[i]) data[w++] = data[i];
  }
  return w;
}

// ---------------------------------------------------------------------------
// Density-bitmap expansion
// ---------------------------------------------------------------------------

void DensityExpandAvx2(const uint8_t* density, size_t n,
                       const uint8_t* keep_dense, const uint8_t* keep_fallback,
                       uint8_t* keep_rows) {
  const __m256i zero = _mm256_setzero_si256();
  size_t d = 0, f = 0;
  size_t r = 0;
  // Two-level uniformity: whole 32-row chunks (the overwhelmingly common
  // all-dense stretch) are one block copy from the matching keep mask;
  // mixed chunks retry at 8-row granularity so sparse interleaved fallback
  // rows only force the scalar interleave around the boundaries.
  for (; r + 32 <= n; r += 32) {
    const __m256i dv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(density + r));
    const uint32_t zeros = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(dv, zero)));
    if (zeros == 0) {
      std::memcpy(keep_rows + r, keep_dense + d, 32);
      d += 32;
      continue;
    }
    if (zeros == 0xFFFFFFFFu) {
      std::memcpy(keep_rows + r, keep_fallback + f, 32);
      f += 32;
      continue;
    }
    for (size_t g = r; g < r + 32; g += 8) {
      detail::ExpandDensityGroup8(density + g, keep_dense, keep_fallback,
                                  keep_rows + g, &d, &f);
    }
  }
  for (; r < n; ++r) {
    keep_rows[r] = density[r] ? keep_dense[d++] : keep_fallback[f++];
  }
}

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
    CmpFillI64Avx2,   CmpFillF64Avx2,        SelAndAvx2,
    SelOrAvx2,        SelNotAvx2,            SelCountAvx2,
    Compact64Avx2,    Compact8Avx2,          DensityExpandAvx2,
    DeltaVarintEncodeAvx2, DeltaVarintDecodeAvx2,
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
