#ifndef JARVIS_SER_CODEC_H_
#define JARVIS_SER_CODEC_H_

#include <cstdint>

#include "ser/buffer.h"

namespace jarvis::ser {

/// Streaming delta codec shared by the schema-elided batch format
/// (stream/record.cc), the columnar section format (stream/columnar.cc), and
/// the scalar reference kernels (stream/kernels.cc). Deltas are computed in
/// uint64_t so wraparound is well-defined and the decoder's addition inverts
/// the encoder exactly; the delta is then zigzag-varint encoded on the wire.
struct DeltaEncoder {
  uint64_t prev = 0;

  /// Returns the signed delta to the previous value (the varint payload
  /// before zigzag) and advances the baseline.
  int64_t Delta(int64_t v) {
    const uint64_t u = static_cast<uint64_t>(v);
    const int64_t d = static_cast<int64_t>(u - prev);
    prev = u;
    return d;
  }

  /// Same step, already zigzag-transformed (what block encoders emit).
  uint64_t ZigZagDelta(int64_t v) { return ZigZagEncode(Delta(v)); }
};

/// Inverse of DeltaEncoder: feeds decoded deltas back into the running sum.
struct DeltaDecoder {
  uint64_t prev = 0;

  /// Applies one decoded (post-zigzag) delta and returns the value.
  int64_t Next(int64_t delta) {
    prev += static_cast<uint64_t>(delta);
    return static_cast<int64_t>(prev);
  }
};

}  // namespace jarvis::ser

#endif  // JARVIS_SER_CODEC_H_
