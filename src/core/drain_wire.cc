#include "core/drain_wire.h"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/env.h"
#include "ser/buffer.h"

#ifdef JARVIS_HAVE_LZ4
#include "third_party/lz4/lz4_block.h"
#endif

namespace jarvis::core {

namespace {

/// Decompressed payloads above this are implausible for one drain chunk and
/// rejected before any allocation (DoS guard on the header's raw_len).
constexpr size_t kMaxRawPayload = size_t{1} << 30;

/// Wraps a fully serialized payload in one wire frame. Compression is
/// store-wins: the v2 compressed framing is emitted only when the LZ4 block
/// is strictly smaller than the raw payload, so incompressible chunks (and
/// everything when compression is off) stay bit-identical to the v1 wire.
WireFrame BuildFrame(uint32_t seq, uint64_t entry_op, WireLane lane,
                     uint32_t records, const uint8_t* payload, size_t len,
                     const WireCodecOptions& codec) {
  WireFrame f;
  f.seq = seq;
  f.records = records;
#ifdef JARVIS_HAVE_LZ4
  if (codec.compress && len >= codec.min_bytes) {
    std::vector<uint8_t> packed(lz4::CompressBound(len));
    const size_t clen =
        lz4::Compress(payload, len, packed.data(), packed.size());
    if (clen != 0 && clen < len) {
      ser::BufferWriter w;
      w.PutU8(kWireFrameVersionCompressed);
      const size_t crc_pos = w.size();
      w.PutU32(0);
      const size_t header_start = w.size();
      w.PutVarU64(seq);
      w.PutVarU64(entry_op);
      w.PutU8(static_cast<uint8_t>(lane));
      w.PutU8(static_cast<uint8_t>(WireCodec::kLz4));
      w.PutVarU64(len);
      w.PatchU32(crc_pos, ser::FrameChecksum(w.data().data() + header_start,
                                             w.size() - header_start));
      w.PutBytes(packed.data(), clen);
      f.bytes = w.Release();
      return f;
    }
  }
#else
  (void)codec;
#endif
  ser::BufferWriter w;
  w.PutU8(kWireFrameVersion);
  const size_t crc_pos = w.size();
  w.PutU32(0);
  const size_t header_start = w.size();
  w.PutVarU64(seq);
  w.PutVarU64(entry_op);
  w.PutU8(static_cast<uint8_t>(lane));
  w.PatchU32(crc_pos, ser::FrameChecksum(w.data().data() + header_start,
                                         w.size() - header_start));
  w.PutBytes(payload, len);
  f.bytes = w.Release();
  return f;
}

/// Record-format wire bytes of one chunk — the byte volume the LP's
/// bandwidth term models.
uint64_t ModeledChunkBytes(const DrainChunk& chunk) {
  uint64_t total = 0;
  for (const stream::Record& rec : chunk.rows) total += stream::WireSize(rec);
  return total;
}

}  // namespace

WireDrain SerializeDrain(SourceEpochOutput* out, uint32_t* next_seq,
                         const WireCodecOptions& codec,
                         WireByteProfile* profile) {
  WireDrain wire;
  wire.first_seq = *next_seq;
  wire.frames.reserve(out->to_sp.size());
  ser::BufferWriter payload;
  for (DrainChunk& chunk : out->to_sp) {
    payload.Clear();
    // Row-lane frames pack by the first row's field types: raw rows and
    // kPartial accumulator rows ship as schema-elided columns, and only
    // rows of another shape take the inline-tagged fallback section.
    stream::SerializeBatch(chunk.rows, stream::FirstRowSchema(chunk.rows),
                           &payload);
    WireFrame f = BuildFrame((*next_seq)++, chunk.sp_entry_op, WireLane::kRows,
                             static_cast<uint32_t>(chunk.rows.size()),
                             payload.data().data(), payload.size(), codec);
    if (profile != nullptr) {
      if (chunk.sp_entry_op >= profile->per_entry.size()) {
        profile->per_entry.resize(chunk.sp_entry_op + 1);
      }
      const uint64_t modeled = ModeledChunkBytes(chunk);
      profile->per_entry[chunk.sp_entry_op].modeled += modeled;
      profile->per_entry[chunk.sp_entry_op].wire += f.bytes.size();
      profile->modeled_total += modeled;
      profile->wire_total += f.bytes.size();
    }
    wire.wire_bytes += f.bytes.size();
    wire.records += f.records;
    wire.frames.push_back(std::move(f));
  }
  out->to_sp.clear();
  wire.frame_count = static_cast<uint32_t>(wire.frames.size());
  return wire;
}

WireFrame MakeCheckpointFrame(uint32_t seq, std::vector<uint8_t> payload,
                              const WireCodecOptions& codec) {
  // entry_op is meaningless for the checkpoint lane; records is 0
  // (checkpoints are accounting-neutral).
  return BuildFrame(seq, 0, WireLane::kCheckpoint, 0, payload.data(),
                    payload.size(), codec);
}

Result<WireFrameHeader> PeekFrameHeader(const WireFrame& frame) {
  ser::BufferReader r(frame.bytes);
  uint8_t version;
  JARVIS_RETURN_IF_ERROR(r.GetU8(&version));
  if (version != kWireFrameVersion &&
      version != kWireFrameVersionCompressed) {
    return Status::SerializationError("bad wire frame version");
  }
  uint32_t crc;
  JARVIS_RETURN_IF_ERROR(r.GetU32(&crc));
  const size_t header_start = r.position();
  uint64_t seq, entry;
  JARVIS_RETURN_IF_ERROR(r.GetVarU64(&seq));
  JARVIS_RETURN_IF_ERROR(r.GetVarU64(&entry));
  uint8_t lane;
  JARVIS_RETURN_IF_ERROR(r.GetU8(&lane));
  uint8_t codec = static_cast<uint8_t>(WireCodec::kStore);
  uint64_t raw_len = 0;
  if (version == kWireFrameVersionCompressed) {
    JARVIS_RETURN_IF_ERROR(r.GetU8(&codec));
    JARVIS_RETURN_IF_ERROR(r.GetVarU64(&raw_len));
  }
  const size_t header_end = r.position();
  if (ser::FrameChecksum(frame.bytes.data() + header_start,
                         header_end - header_start) != crc) {
    return Status::SerializationError("wire frame header checksum mismatch");
  }
  if (seq > std::numeric_limits<uint32_t>::max() ||
      lane < static_cast<uint8_t>(WireLane::kRows) ||
      lane > static_cast<uint8_t>(WireLane::kCheckpoint)) {
    return Status::SerializationError("bad wire frame header");
  }
  if (version == kWireFrameVersionCompressed &&
      (codec != static_cast<uint8_t>(WireCodec::kLz4) ||
       raw_len > kMaxRawPayload)) {
    return Status::SerializationError("bad wire frame codec header");
  }
  WireFrameHeader hdr;
  hdr.seq = static_cast<uint32_t>(seq);
  hdr.entry_op = static_cast<size_t>(entry);
  hdr.lane = static_cast<WireLane>(lane);
  hdr.codec = static_cast<WireCodec>(codec);
  hdr.payload_offset = header_end;
  hdr.raw_len = version == kWireFrameVersionCompressed
                    ? static_cast<size_t>(raw_len)
                    : frame.bytes.size() - header_end;
  return hdr;
}

Result<std::pair<const uint8_t*, size_t>> FramePayload(
    const WireFrame& frame, const WireFrameHeader& hdr,
    std::vector<uint8_t>* scratch) {
  const uint8_t* stored = frame.bytes.data() + hdr.payload_offset;
  const size_t stored_len = frame.bytes.size() - hdr.payload_offset;
  if (hdr.codec == WireCodec::kStore) {
    return std::make_pair(stored, stored_len);
  }
#ifdef JARVIS_HAVE_LZ4
  // LZ4 expands at most ~256x, so a raw_len far beyond that bound is corrupt
  // even though it passed the header checksum — reject before allocating.
  if (hdr.raw_len > kMaxRawPayload ||
      hdr.raw_len / 256 > stored_len + 64) {
    return Status::SerializationError("implausible compressed payload size");
  }
  scratch->resize(hdr.raw_len);
  if (!lz4::Decompress(stored, stored_len, scratch->data(), hdr.raw_len)) {
    return Status::SerializationError("corrupt compressed wire payload");
  }
  return std::make_pair(
      static_cast<const uint8_t*>(scratch->data()), hdr.raw_len);
#else
  return Status::SerializationError(
      "compressed wire frame but LZ4 support is not built in");
#endif
}

Status DecodeDrainChunk(const WireFrame& frame, const WireFrameHeader& hdr,
                        DrainChunk* chunk, std::vector<uint8_t>* scratch) {
  if (hdr.lane == WireLane::kCheckpoint) {
    return Status::SerializationError(
        "checkpoint frames carry no record payload");
  }
  chunk->sp_entry_op = hdr.entry_op;
  JARVIS_ASSIGN_OR_RETURN(auto payload, FramePayload(frame, hdr, scratch));
  ser::BufferReader r(payload.first, payload.second);
  chunk->rows.clear();
  JARVIS_RETURN_IF_ERROR(stream::DeserializeBatch(&r, &chunk->rows));
  if (!r.AtEnd()) {
    return Status::SerializationError("trailing bytes after frame payload");
  }
  return Status::OK();
}

Status DecodeDrain(const WireDrain& wire, std::vector<DrainChunk>* to_sp) {
  std::vector<uint8_t> scratch;
  for (const WireFrame& frame : wire.frames) {
    JARVIS_ASSIGN_OR_RETURN(WireFrameHeader hdr, PeekFrameHeader(frame));
    if (hdr.lane == WireLane::kCheckpoint) continue;
    DrainChunk chunk;
    JARVIS_RETURN_IF_ERROR(DecodeDrainChunk(frame, hdr, &chunk, &scratch));
    to_sp->push_back(std::move(chunk));
  }
  return Status::OK();
}

WireCodecOptions WireCodecFromEnv() {
  WireCodecOptions codec;
  // An unrecognized token (e.g. JARVIS_WIRE_COMPRESS=lz4) aborts at startup
  // instead of silently shipping the uncompressed wire.
  codec.compress = env::FlagOrDie("JARVIS_WIRE_COMPRESS", false);
  return codec;
}

}  // namespace jarvis::core
