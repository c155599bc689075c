#ifndef JARVIS_CORE_DRAIN_WIRE_H_
#define JARVIS_CORE_DRAIN_WIRE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/source_executor.h"
#include "stream/record.h"

namespace jarvis::core {

// ---------------------------------------------------------------------------
// Drain wire frames
// ---------------------------------------------------------------------------
// The drain path ships each DrainChunk as one self-contained frame a stream
// processor can verify, deduplicate, and NACK independently:
//
//   v1: [u8 1][u32 header_crc][varint seq][varint entry_op][u8 lane][payload]
//   v2: [u8 2][u32 header_crc][varint seq][varint entry_op][u8 lane]
//       [u8 codec][varint raw_len][compressed payload]
//
// The header checksum covers everything between it and the payload, so a
// flipped routing byte (or a flipped codec/length byte on a compressed
// frame) is caught before any decode work touches the payload. The v1
// payload is a v2 batch frame (row lane) or a v4 sealed checkpoint payload
// (checkpoint lane), each carrying its own payload checksum; a v2 frame
// wraps the same payload in an LZ4 block (codec 1) whose decompressed size
// must equal `raw_len` exactly — after decompression the inner payload
// checksum is verified as usual, so corruption inside the compressed block
// surfaces as SerializationError either at the LZ4 layer (malformed stream)
// or at the payload layer (checksum mismatch), never as UB.
//
// Compression is store-wins: the encoder emits a v2 frame only when the
// compressed payload is strictly smaller, so incompressible chunks (and all
// traffic when compression is off or the codec is not built in) travel as
// bit-identical v1 frames. `seq` is a per-source monotone sequence number —
// the SP delivers frames exactly once in order, detects gaps and duplicates
// by sequence, and asks the source to retransmit from its retained copies.

inline constexpr uint8_t kWireFrameVersion = 1;
inline constexpr uint8_t kWireFrameVersionCompressed = 2;

/// Payload codec of a frame. v1 frames are implicitly kStore; v2 frames
/// carry the codec byte explicitly (kLz4 is the only defined compressed
/// codec).
enum class WireCodec : uint8_t { kStore = 0, kLz4 = 1 };

/// kRows carries a drain chunk's records as a batch frame. kCheckpoint (the
/// wire's v4 addition) carries an epoch-aligned checkpoint payload (see
/// core/checkpoint.h) instead of records: same header, same sequence
/// numbering, same retransmit path, zero records for delivery accounting.
/// The values are explicit and fixed by the wire: byte 0 names no lane, and
/// the header check rejects it like any other unknown lane.
enum class WireLane : uint8_t { kRows = 1, kCheckpoint = 2 };

/// One drain chunk, encoded. `seq` and `records` are control-plane metadata
/// (the authoritative seq also rides inside the checksummed header; `records`
/// feeds delivery accounting and is not serialized).
struct WireFrame {
  uint32_t seq = 0;
  uint32_t records = 0;
  std::vector<uint8_t> bytes;
};

/// Decoded and checksum-verified frame header.
struct WireFrameHeader {
  uint32_t seq = 0;
  size_t entry_op = 0;
  WireLane lane = WireLane::kRows;
  /// Payload codec: kStore for v1 frames, kLz4 for v2.
  WireCodec codec = WireCodec::kStore;
  /// Decompressed payload size (== the stored size for kStore frames).
  size_t raw_len = 0;
  /// Offset of the (possibly compressed) payload within WireFrame::bytes.
  size_t payload_offset = 0;
};

/// One epoch's drain on the wire. `first_seq`/`frame_count` are the epoch
/// manifest: transferred reliably (like a transport-level length header), so
/// the receiver knows when trailing frames were dropped and can NACK them
/// even though no later frame exposes the gap.
struct WireDrain {
  std::vector<WireFrame> frames;
  uint32_t first_seq = 0;
  uint32_t frame_count = 0;
  uint64_t wire_bytes = 0;
  uint64_t records = 0;
};

/// Wire encoder knobs, cached per BuildingBlock (see WireCodecFromEnv).
struct WireCodecOptions {
  /// Request LZ4 block compression of frame payloads (store-wins; a no-op
  /// when the codec was built out via -DJARVIS_WITH_LZ4=OFF).
  bool compress = false;
  /// Payloads below this size always store: the token/offset overhead of a
  /// tiny block cannot win, so skip the compressor call entirely.
  size_t min_bytes = 64;
};

/// Measured modeled-vs-wire byte accounting for one epoch's drain, keyed by
/// SP entry operator. `modeled` is the record-format byte volume the LP's
/// bandwidth term has always priced (WireSize sums); `wire`
/// is what the encoded frames actually occupy. Their ratio is the measured
/// bandwidth correction fed back into the planner (OperatorProfile::
/// wire_ratio).
struct WireByteProfile {
  struct Entry {
    uint64_t modeled = 0;
    uint64_t wire = 0;
  };
  std::vector<Entry> per_entry;  // indexed by sp_entry_op; grown on demand
  uint64_t modeled_total = 0;
  uint64_t wire_total = 0;
};

/// Encodes every drain chunk of `out` into wire frames, consuming the
/// chunks; `*next_seq` is the source's running sequence counter and advances
/// by one per frame. When `profile` is non-null the per-entry modeled and
/// wire byte totals of this drain are accumulated into it (profiling epochs
/// only — the modeled sizing pass is not free).
WireDrain SerializeDrain(SourceEpochOutput* out, uint32_t* next_seq,
                         const WireCodecOptions& codec = {},
                         WireByteProfile* profile = nullptr);

/// Encodes a sealed checkpoint payload (core/checkpoint.h) as a wire frame
/// on the checkpoint lane. Rides the same sequence space, manifest, and
/// retransmit machinery as data frames; `records` is 0 (checkpoints are
/// accounting-neutral).
WireFrame MakeCheckpointFrame(uint32_t seq, std::vector<uint8_t> payload,
                              const WireCodecOptions& codec = {});

/// Verifies and decodes a frame's header only — the cheap first step that
/// lets the receiver drop duplicates and detect misrouted/corrupt frames
/// before paying for payload decode. SerializationError on any mismatch.
Result<WireFrameHeader> PeekFrameHeader(const WireFrame& frame);

/// Resolves a frame's decompressed payload: v1 frames are viewed in place
/// (zero copy), v2 frames decompress into *scratch. SerializationError on a
/// malformed or implausibly sized compressed block.
Result<std::pair<const uint8_t*, size_t>> FramePayload(
    const WireFrame& frame, const WireFrameHeader& hdr,
    std::vector<uint8_t>* scratch);

/// Decodes one data frame back into a DrainChunk. The batch payload carries
/// its own checksum, so corruption surfaces as SerializationError, never as
/// UB or silently wrong records. Checkpoint frames are rejected.
Status DecodeDrainChunk(const WireFrame& frame, const WireFrameHeader& hdr,
                        DrainChunk* chunk, std::vector<uint8_t>* scratch);

/// Decodes a whole epoch drain back into chunks (checkpoint frames are
/// skipped), for callers that consume chunks rather than frames; the
/// BuildingBlock's SP decodes frame by frame in SpExecutor::ConsumeFrame.
Status DecodeDrain(const WireDrain& wire, std::vector<DrainChunk>* to_sp);

/// Wire codec selection from the environment: JARVIS_WIRE_COMPRESS=1 (or
/// "on"/"true"/"yes") turns LZ4 payload compression on; default off.
WireCodecOptions WireCodecFromEnv();

}  // namespace jarvis::core

#endif  // JARVIS_CORE_DRAIN_WIRE_H_
