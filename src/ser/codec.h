#ifndef JARVIS_SER_CODEC_H_
#define JARVIS_SER_CODEC_H_

#include <cstdint>

namespace jarvis::ser {

/// Streaming delta codec of the schema-elided batch format's time varints
/// (stream/record.cc). Deltas are computed in uint64_t so wraparound is
/// well-defined and the decoder's addition inverts the encoder exactly; the
/// delta is then zigzag-varint encoded on the wire.
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
