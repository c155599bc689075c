#include "stream/kernels.h"

#include "common/env.h"
#include "ser/codec.h"

namespace jarvis::stream::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------
// These define the semantics every vector kernel must reproduce bit for bit.
// They are compiled with the build's baseline flags only (no -mavx2 etc.),
// so JARVIS_SIMD=scalar measures exactly what the compiler finds on its own
// — the honest baseline the explicit kernels are judged against.

size_t DeltaVarintEncodeScalar(const int64_t* v, size_t n, uint64_t* prev,
                               uint8_t* out) {
  ser::DeltaEncoder enc{*prev};
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    w += ser::EncodeVarU64(enc.ZigZagDelta(v[i]), out + w);
  }
  *prev = enc.prev;
  return w;
}

size_t DeltaVarintDecodeScalar(const uint8_t* in, size_t avail, size_t n,
                               uint64_t* prev, int64_t* out) {
  ser::DeltaDecoder dec{*prev};
  size_t p = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t raw;
    if (!detail::DecodeVarU64Step(in, avail, &p, &raw)) return 0;
    out[i] = dec.Next(ser::ZigZagDecode(raw));
  }
  *prev = dec.prev;
  return p;
}

constexpr KernelTable kScalarTable = {
    DeltaVarintEncodeScalar,
    DeltaVarintDecodeScalar,
};

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

struct Dispatch {
  const KernelTable* table;
  Isa isa;
};

Dispatch InitDispatch() {
  // Index 0 ("auto", also the unset default) keeps the auto-detected pick;
  // an unknown value aborts at startup instead of silently ignoring the
  // override.
  switch (jarvis::env::EnumOrDie("JARVIS_SIMD", 0,
                                 {"auto", "scalar", "avx2", "neon"})) {
    case 1: return {&kScalarTable, Isa::kScalar};
    case 2:
      if (const KernelTable* t = TableFor(Isa::kAvx2)) return {t, Isa::kAvx2};
      break;
    case 3:
      if (const KernelTable* t = TableFor(Isa::kNeon)) return {t, Isa::kNeon};
      break;
    default: break;
  }
  const Isa want = BestIsa();
  if (const KernelTable* t = TableFor(want)) return {t, want};
  return {&kScalarTable, Isa::kScalar};
}

Dispatch& ActiveDispatch() {
  static Dispatch d = InitDispatch();
  return d;
}

}  // namespace

std::string_view IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "?";
}

const KernelTable& Scalar() { return kScalarTable; }

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarTable;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      if (__builtin_cpu_supports("avx2")) return GetAvx2Kernels();
#endif
      return nullptr;
    case Isa::kNeon:
#if defined(__aarch64__)
      return GetNeonKernels();
#endif
      return nullptr;
  }
  return nullptr;
}

Isa BestIsa() {
  if (TableFor(Isa::kAvx2) != nullptr) return Isa::kAvx2;
  if (TableFor(Isa::kNeon) != nullptr) return Isa::kNeon;
  return Isa::kScalar;
}

const KernelTable& Active() { return *ActiveDispatch().table; }

Isa ActiveIsa() { return ActiveDispatch().isa; }

bool ForceIsa(Isa isa) {
  const KernelTable* t = TableFor(isa);
  if (t == nullptr) return false;
  ActiveDispatch() = {t, isa};
  return true;
}

#if !defined(__x86_64__) && !defined(_M_X64)
// The AVX2 TU is only compiled into x86-64 builds; satisfy the declaration
// elsewhere so TableFor never needs a link-time probe.
const KernelTable* GetAvx2Kernels() { return nullptr; }
#endif
#if !defined(__aarch64__)
const KernelTable* GetNeonKernels() { return nullptr; }
#endif

}  // namespace jarvis::stream::kernels
