#ifndef JARVIS_STREAM_KERNELS_H_
#define JARVIS_STREAM_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jarvis::stream::kernels {

/// The SIMD kernel layer of the columnar format (stream/columnar.h): the
/// delta + zigzag varint block steps behind its time and int64 columns are
/// reachable only through this table, so one dispatch decision (made once
/// at startup) switches every encoder and decoder between the reference
/// scalar loops and the per-ISA vector kernels.
///
/// Contracts shared by every implementation (the kernels_test fuzz suite
/// enforces them bit for bit across ISAs):
///  - every kernel is exact: byte streams and carried state are identical
///    across ISAs for identical inputs,
///  - n == 0 is valid for the encoder, and pointers may then be null,
///  - no kernel reads or writes outside its operands' stated bounds, so
///    misaligned heads and ragged tails are fine.
struct KernelTable {
  /// Delta + zigzag varint block encode (int64/time column step): emits
  /// varint(zigzag(v[i] - prev)) for each value into `out` (which must hold
  /// at least 10 * n bytes) and returns the bytes written. *prev carries
  /// the running baseline across blocks.
  size_t (*delta_varint_encode)(const int64_t* v, size_t n, uint64_t* prev,
                                uint8_t* out);

  /// Inverse block step: decodes exactly n delta varints from
  /// [in, in + avail) into out and returns the bytes consumed, or 0 when
  /// the input is truncated or a varint overruns 64 bits (n must be > 0;
  /// *prev is unspecified after a failure).
  size_t (*delta_varint_decode)(const uint8_t* in, size_t avail, size_t n,
                                uint64_t* prev, int64_t* out);
};

/// Instruction sets a kernel table can be built for.
enum class Isa : uint8_t { kScalar = 0, kAvx2, kNeon };

std::string_view IsaName(Isa isa);

/// The reference scalar table (always available; the equivalence baseline).
const KernelTable& Scalar();

/// The table for a specific ISA, or nullptr when this build/CPU lacks it.
const KernelTable* TableFor(Isa isa);

/// The ISA auto-detection would pick on this machine (CPUID on x86-64,
/// baseline NEON on aarch64, scalar otherwise).
Isa BestIsa();

/// The dispatched table. Selected once on first use: auto-detection,
/// overridable with JARVIS_SIMD=scalar|avx2|neon (an unavailable or unknown
/// value falls back to auto-detection's pick, never to a crash).
const KernelTable& Active();
Isa ActiveIsa();

/// Test/bench hook: repoints Active() at the given ISA's table. Returns
/// false (leaving dispatch untouched) when the ISA is unavailable.
bool ForceIsa(Isa isa);

// -- Internal: per-ISA translation-unit entry points ------------------------
// Defined in stream/kernels_avx2.cc / stream/kernels_neon.cc, which CMake
// compiles only for the matching target architecture (with -mavx2 on x86).
// Each returns nullptr when its TU was built without the ISA enabled.
const KernelTable* GetAvx2Kernels();
const KernelTable* GetNeonKernels();

namespace detail {

/// One LEB128 varint read, shared by the scalar decoder and every vector
/// decoder's slow path, so the acceptance set (BufferReader::GetVarU64's:
/// at most ten bytes, error once the continuation bit would shift past bit
/// 63) has exactly one definition. Advances *pos past the varint on
/// success; returns false on truncated or overlong input.
inline bool DecodeVarU64Step(const uint8_t* in, size_t avail, size_t* pos,
                             uint64_t* raw) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (*pos >= avail || shift > 63) return false;
    const uint8_t b = in[(*pos)++];
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
  }
  *raw = v;
  return true;
}

}  // namespace detail
}  // namespace jarvis::stream::kernels

#endif  // JARVIS_STREAM_KERNELS_H_
