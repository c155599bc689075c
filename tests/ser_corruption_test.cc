// Adversarial decode hardening for the wire formats: every decode path must
// return a Status — never assert, crash, over-read, or silently accept wrong
// bytes — on truncated or bit-flipped input. The suite runs a corpus of
// batch frames (v3: the drain's row lane and G+R checkpoint sections)
// through exhaustive truncation and seeded bit-flips; the ASan/UBSan CI leg
// is the real judge of the "no UB" half of the contract. Only the
// checksummed version decodes: a flipped version byte is rejected outright.
// The header's length and checksum stop those sweeps before the body
// decoder runs, so a further sweep re-seals corrupt batch bodies to reach
// the decoder's own checks.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/drain_wire.h"
#include "core/source_executor.h"
#include "core/sp_executor.h"
#include "query/compile.h"
#include "query/query_builder.h"
#include "ser/buffer.h"
#include "ser/codec.h"
#include "stream/group_aggregate.h"
#include "stream/join.h"
#include "stream/ops.h"
#include "stream/record.h"
#include "testing/test_util.h"

namespace jarvis::stream {
namespace {

using jarvis::testing::FuzzSeeds;
using jarvis::testing::KvSchema;
using jarvis::testing::MakeRecord;
using jarvis::testing::MakeWindowedRecord;
using jarvis::testing::SealBatchBody;

/// One corpus entry: a row batch plus the schema it is serialized by.
struct Corpus {
  std::string name;
  RecordBatch rows;
  Schema schema;
};

std::vector<Corpus> BuildCorpus() {
  std::vector<Corpus> corpus;
  corpus.push_back({"empty", RecordBatch{}, KvSchema()});

  Corpus kv{"kv", {}, KvSchema()};
  for (int i = 0; i < 24; ++i) {
    kv.rows.push_back(MakeRecord(Seconds(i), int64_t{i * 7}, i * 0.5));
  }
  corpus.push_back(std::move(kv));

  const Schema host_lat =
      Schema::Of({{"host", ValueType::kString}, {"lat", ValueType::kDouble}});
  Corpus strings{"strings", {}, host_lat};
  // Five hosts over 16 rows: the string column takes the dictionary layout.
  for (int i = 0; i < 16; ++i) {
    strings.rows.push_back(MakeRecord(
        Seconds(i), "host-" + std::string(1 + i % 5, 'x'), i * 1.25));
  }
  corpus.push_back(std::move(strings));

  // Distinct ids: the dictionary would be larger, so the plain layout.
  Corpus unique{"unique_strings", {}, host_lat};
  for (int i = 0; i < 16; ++i) {
    unique.rows.push_back(MakeRecord(
        Seconds(i), std::string("id-").append(std::to_string(i * 7919)),
        i * 0.75));
  }
  corpus.push_back(std::move(unique));

  Corpus mixed{"mixed", {}, KvSchema()};
  for (int i = 0; i < 12; ++i) {
    Record r = MakeWindowedRecord(Seconds(i), Seconds(i - i % 3),
                                  int64_t{i}, 2.0 * i);
    if (i % 4 == 0) r.kind = RecordKind::kPartial;
    mixed.rows.push_back(std::move(r));
  }
  // A non-conforming row exercises the inline-tagged lane.
  mixed.rows.push_back(MakeRecord(Seconds(99), "stray", int64_t{1}, 3.5));
  corpus.push_back(std::move(mixed));
  return corpus;
}

std::vector<uint8_t> EncodeBatch(const Corpus& c) {
  ser::BufferWriter w;
  SerializeBatch(c.rows, c.schema, &w);
  return w.Release();
}

Status DecodeBytes(const std::vector<uint8_t>& bytes, RecordBatch* out) {
  ser::BufferReader r(bytes.data(), bytes.size());
  return DeserializeBatch(&r, out);
}

// ---------------------------------------------------------------------------
// Round trips and framing
// ---------------------------------------------------------------------------

TEST(SerCorruptionTest, RoundTripsAndStopsAtFrameBoundary) {
  for (const Corpus& c : BuildCorpus()) {
    SCOPED_TRACE(c.name);
    std::vector<uint8_t> bytes = EncodeBatch(c);
    RecordBatch out;
    ASSERT_TRUE(DecodeBytes(bytes, &out).ok());
    EXPECT_EQ(out, c.rows);
    // The checksummed frame knows its own length: trailing bytes after the
    // frame belong to the next frame, not to this decode.
    bytes.push_back(0xAB);
    ser::BufferReader r(bytes.data(), bytes.size());
    RecordBatch again;
    ASSERT_TRUE(DeserializeBatch(&r, &again).ok());
    EXPECT_EQ(again, c.rows);
    EXPECT_EQ(r.remaining(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Truncation: every prefix must fail cleanly
// ---------------------------------------------------------------------------

TEST(SerCorruptionTest, EveryTruncationFailsWithStatus) {
  for (const Corpus& c : BuildCorpus()) {
    SCOPED_TRACE(c.name);
    const std::vector<uint8_t> bytes = EncodeBatch(c);
    for (size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
      RecordBatch out;
      const Status st = DecodeBytes(prefix, &out);
      EXPECT_FALSE(st.ok()) << "prefix length " << len << " of "
                            << bytes.size() << " decoded";
    }
  }
}

// ---------------------------------------------------------------------------
// Bit flips: detected by checksum or rejected by a bounds check, never UB
// ---------------------------------------------------------------------------

TEST(SerCorruptionTest, SingleBitFlipsNeverCrash) {
  for (const Corpus& c : BuildCorpus()) {
    SCOPED_TRACE(c.name);
    const std::vector<uint8_t> bytes = EncodeBatch(c);
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (const int bit : {0, 3, 7}) {
        std::vector<uint8_t> bad = bytes;
        bad[i] ^= static_cast<uint8_t>(1u << bit);
        RecordBatch out;
        // The contract under sanitizers: a Status comes back — ok only in
        // the astronomically unlikely event of a checksum collision or when
        // the flip lands in redundant header space — and the process
        // neither crashes nor reads out of bounds. The version byte has no
        // redundant space: every flip of it is rejected.
        const Status st = DecodeBytes(bad, &out);
        if (i == 0) {
          EXPECT_FALSE(st.ok()) << "version flip bit " << bit << " decoded";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Re-sealed batch bodies: corruption past the integrity header
// ---------------------------------------------------------------------------

/// The batch frame's integrity header: [u8 version][u32 len][u32 checksum].
constexpr size_t kBatchHeaderBytes = 9;

Status DecodeResealed(const std::vector<uint8_t>& body, size_t width,
                      RecordBatch* out) {
  const std::vector<uint8_t> frame = SealBatchBody(body);
  ser::BufferReader r(frame.data(), frame.size());
  return DeserializeBatch(&r, out, width);
}

TEST(SerCorruptionTest, ResealedBodyCorruptionReachesTheDecoder) {
  // Eleven continuation bytes, one more than any 64-bit varint holds; a
  // string length of 2^64 - 3, which wraps `position + length` below the
  // span end; a dictionary entry count of 256, one past the largest; and a
  // dictionary code no dictionary reaches. Each decode below returns a
  // Status or rows; a throw fails the test, and the sanitizer legs judge
  // the rest.
  const std::vector<uint8_t> overlong(ser::kMaxVarIntBytes + 1, 0x80);
  ser::BufferWriter len_writer;
  len_writer.PutVarU64(~uint64_t{2});
  const std::vector<uint8_t> huge_len = len_writer.Release();
  const std::vector<uint8_t> dict_count = {0x80, 0x02};
  const std::vector<uint8_t> dict_code = {0xFF};
  for (const Corpus& c : BuildCorpus()) {
    SCOPED_TRACE(c.name);
    const std::vector<uint8_t> frame = EncodeBatch(c);
    const std::vector<uint8_t> body(frame.begin() + kBatchHeaderBytes,
                                    frame.end());
    ASSERT_EQ(SealBatchBody(body), frame);
    for (const size_t width : {size_t{0}, size_t{8}}) {
      RecordBatch out;
      ASSERT_TRUE(DecodeResealed(body, width, &out).ok());
      EXPECT_EQ(out, c.rows);
    }
    // A whole body's decode reads every byte, so every proper prefix runs
    // out of bytes somewhere.
    for (size_t len = 0; len < body.size(); ++len) {
      const std::vector<uint8_t> prefix(body.begin(), body.begin() + len);
      RecordBatch out;
      EXPECT_FALSE(DecodeResealed(prefix, 8, &out).ok())
          << "body prefix " << len << " of " << body.size() << " decoded";
    }
    // Splices at every offset, written over the body and clipped to it
    // (within ten bytes of the end only the byte-checked varint path can
    // read them) and inserted whole (the inline path).
    for (const std::vector<uint8_t>* splice :
         {&overlong, &huge_len, &dict_count, &dict_code}) {
      for (size_t at = 0; at <= body.size(); ++at) {
        std::vector<uint8_t> over = body;
        for (size_t k = 0; k < splice->size() && at + k < over.size(); ++k) {
          over[at + k] = (*splice)[k];
        }
        RecordBatch out;
        (void)DecodeResealed(over, 8, &out);
        std::vector<uint8_t> inserted = body;
        inserted.insert(inserted.begin() + static_cast<ptrdiff_t>(at),
                        splice->begin(), splice->end());
        (void)DecodeResealed(inserted, 0, &out);
      }
    }
    // Seeded multi-byte flips, half of them also cut short.
    for (const uint64_t seed : FuzzSeeds()) {
      Rng rng(seed ^ 0x5ea1ed);
      std::vector<uint8_t> bad = body;
      const size_t flips = 1 + rng.NextBounded(8);
      for (size_t f = 0; f < flips; ++f) {
        bad[rng.NextBounded(bad.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBounded(255));
      }
      if (rng.NextBounded(2) == 0) bad.resize(rng.NextBounded(bad.size()));
      RecordBatch out;
      (void)DecodeResealed(bad, rng.NextBounded(2) == 0 ? 0 : 8, &out);
    }
  }
}

/// Offset in an encoded frame of the first column's first byte: past the
/// integrity header, the counts and type tags, and one header row (flag
/// byte, two time-delta varints) per record.
size_t FirstColumnOffset(const Corpus& c) {
  size_t at = kBatchHeaderBytes + ser::VarIntSize(c.rows.size()) +
              ser::VarIntSize(c.schema.num_fields()) + c.schema.num_fields();
  ser::DeltaEncoder et, ws;
  for (const Record& r : c.rows) {
    at += 1 + ser::VarIntSize(ser::ZigZagEncode(et.Delta(r.event_time))) +
          ser::VarIntSize(ser::ZigZagEncode(ws.Delta(r.window_start)));
  }
  return at;
}

TEST(SerCorruptionTest, StringDictionaryCountAndCodesAreOutsideInput) {
  const std::vector<Corpus> corpus = BuildCorpus();
  const Corpus& dict = corpus[2];
  const Corpus& plain = corpus[3];
  ASSERT_EQ(dict.name, "strings");
  ASSERT_EQ(plain.name, "unique_strings");
  // Both entries' first column is the string column: its encoding byte is
  // 1 (dictionary) for five hosts and 0 (plain) for distinct ids.
  EXPECT_EQ(EncodeBatch(plain)[FirstColumnOffset(plain)], 0);
  const std::vector<uint8_t> frame = EncodeBatch(dict);
  const std::vector<uint8_t> body(frame.begin() + kBatchHeaderBytes,
                                  frame.end());
  const size_t column = FirstColumnOffset(dict) - kBatchHeaderBytes;
  ASSERT_EQ(body[column], 1);
  ASSERT_EQ(body[column + 1], 5);  // entries, then one code per row
  size_t codes = column + 2;
  for (int e = 0; e < 5; ++e) codes += 1 + body[codes];
  RecordBatch out;
  ASSERT_TRUE(DecodeResealed(body, 0, &out).ok());

  // 255 entries is a legal count, but more than the bytes left can hold:
  // the decoder rejects it before reading an entry.
  std::vector<uint8_t> too_many = body;
  too_many[column + 1] = 0xFF;
  too_many.insert(too_many.begin() + static_cast<ptrdiff_t>(column + 2), 0x01);
  ASSERT_GT(255u, too_many.size() - (column + 3));
  EXPECT_EQ(DecodeResealed(too_many, 0, &out).code(),
            StatusCode::kSerializationError);
  std::vector<uint8_t> empty = body;
  empty[column + 1] = 0;
  EXPECT_EQ(DecodeResealed(empty, 0, &out).code(),
            StatusCode::kSerializationError);
  // A code equal to the entry count names no entry, first row or last.
  for (const size_t at : {codes, codes + dict.rows.size() - 1}) {
    std::vector<uint8_t> bad_code = body;
    bad_code[at] = 5;
    EXPECT_EQ(DecodeResealed(bad_code, 0, &out).code(),
              StatusCode::kSerializationError)
        << at;
  }
  std::vector<uint8_t> bad_encoding = body;
  bad_encoding[column] = 2;
  EXPECT_EQ(DecodeResealed(bad_encoding, 0, &out).code(),
            StatusCode::kSerializationError);
}

// ---------------------------------------------------------------------------
// Checkpoint payload envelope (drain wire v4, WireLane::kCheckpoint)
// ---------------------------------------------------------------------------

/// A representative checkpoint body: the operator state-delta grammar
/// ([varint tombstones]... [varint sections][section]...), as a source's
/// ExportCheckpointBody would emit it.
std::vector<uint8_t> SampleCheckpointBody() {
  ser::BufferWriter body;
  body.PutVarU64(1);          // one tombstone
  body.PutVarI64(Seconds(10));
  body.PutVarU64(1);          // one section
  body.PutVarI64(Seconds(20));
  ser::BufferWriter section;
  section.PutVarU64(2);
  section.PutDouble(3.25);
  section.PutDouble(-1.5);
  body.PutVarU64(section.size());
  body.PutBytes(section.data().data(), section.size());
  return body.Release();
}

TEST(SerCorruptionTest, CheckpointPayloadRoundTrips) {
  const std::vector<uint8_t> body = SampleCheckpointBody();
  for (const bool full : {false, true}) {
    const std::vector<uint8_t> payload =
        core::SealCheckpointPayload(full, /*epoch=*/7, /*fence=*/41, body);
    auto hdr = core::PeekCheckpointHeader(payload.data(), payload.size());
    ASSERT_TRUE(hdr.ok()) << hdr.status().message();
    EXPECT_EQ(hdr->full, full);
    EXPECT_EQ(hdr->epoch, 7);
    EXPECT_EQ(hdr->fence, 41u);
    ASSERT_LE(hdr->body_offset, payload.size());
    EXPECT_EQ(std::vector<uint8_t>(payload.begin() + hdr->body_offset,
                                   payload.end()),
              body);
  }
}

TEST(SerCorruptionTest, EveryCheckpointTruncationFailsWithStatus) {
  const std::vector<uint8_t> payload = core::SealCheckpointPayload(
      true, /*epoch=*/3, /*fence=*/17, SampleCheckpointBody());
  for (size_t len = 0; len < payload.size(); ++len) {
    const Status st = core::PeekCheckpointHeader(payload.data(), len).status();
    EXPECT_FALSE(st.ok()) << "prefix length " << len << " of "
                          << payload.size() << " validated";
  }
}

TEST(SerCorruptionTest, CheckpointBitFlipsAreDetectedNeverUB) {
  const std::vector<uint8_t> pristine = core::SealCheckpointPayload(
      false, /*epoch=*/12, /*fence=*/99, SampleCheckpointBody());
  for (size_t i = 0; i < pristine.size(); ++i) {
    for (const int bit : {0, 3, 7}) {
      std::vector<uint8_t> bad = pristine;
      bad[i] ^= static_cast<uint8_t>(1u << bit);
      // The CRC covers flags, epoch, fence, AND the body, so every single-
      // bit flip past the version byte must be caught (no redundant header
      // space to hide in); a version-byte flip fails the version check.
      auto hdr = core::PeekCheckpointHeader(bad.data(), bad.size());
      EXPECT_FALSE(hdr.ok()) << "flip at byte " << i << " bit " << bit
                             << " validated";
    }
  }
}

using OpFactory = std::function<std::unique_ptr<Operator>()>;

/// Restores the first `len` bytes of `body` into a fresh operator from
/// `make`, after the whole of `base` when it is non-null.
Status RestoreInto(const OpFactory& make, const std::vector<uint8_t>* base,
                   const std::vector<uint8_t>& body, size_t len) {
  std::unique_ptr<Operator> op = make();
  if (base != nullptr) {
    ser::BufferReader br(base->data(), base->size());
    EXPECT_TRUE(op->RestoreState(&br).ok());
  }
  ser::BufferReader r(body.data(), len);
  return op->RestoreState(&r);
}

/// The state-delta corruption sweep: `body` restores (after `base`), every
/// strict prefix of it comes back as an error, and flipped bytes come back
/// as a Status, never a crash.
void SweepStateBody(const OpFactory& make, const std::vector<uint8_t>* base,
                    const std::vector<uint8_t>& body) {
  ASSERT_TRUE(RestoreInto(make, base, body, body.size()).ok());
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(RestoreInto(make, base, body, len).ok())
        << "prefix length " << len << " of " << body.size() << " restored";
  }
  // Flips land in counts, keys, section lengths or a section's body (for
  // G+R a checksummed row batch): a Status comes back, and sanitizers
  // judge the no-UB half.
  for (size_t i = 0; i < body.size(); ++i) {
    for (const int bit : {0, 3, 7}) {
      std::vector<uint8_t> bad = body;
      bad[i] ^= static_cast<uint8_t>(1u << bit);
      (void)RestoreInto(make, base, bad, bad.size());
    }
  }
  for (const uint64_t seed : FuzzSeeds()) {
    Rng rng(seed ^ 0x6a7e);
    std::vector<uint8_t> bad = body;
    const size_t flips = 1 + rng.NextBounded(8);
    for (size_t f = 0; f < flips; ++f) {
      bad[rng.NextBounded(bad.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    (void)RestoreInto(make, base, bad, bad.size());
  }
}

std::vector<uint8_t> ExportState(Operator& op, StateExport mode) {
  ser::BufferWriter w;
  EXPECT_TRUE(op.ExportStateDelta(&w, mode).ok());
  return w.Release();
}

/// G+R over (host, id) keys, whose checkpoint bodies the sweep below
/// corrupts.
std::unique_ptr<GroupAggregateOp> MakeHostAgg() {
  return std::make_unique<GroupAggregateOp>(
      "g",
      Schema::Of({{"host", ValueType::kString},
                  {"id", ValueType::kInt64},
                  {"v", ValueType::kDouble}}),
      std::vector<size_t>{0, 1},
      std::vector<AggSpec>{{AggKind::kCount, 0, "cnt"},
                           {AggKind::kSum, 2, "sum"},
                           {AggKind::kMax, 2, "max"}},
      Seconds(10), /*emit_partials=*/false);
}

/// Real G+R checkpoint bodies: a keyframe, and a delta after it that holds
/// a tombstone, a reopened window, a partly updated window, and a group
/// whose id key is a double (it rides the section's inline-tagged lane).
std::pair<std::vector<uint8_t>, std::vector<uint8_t>> HostAggBodies() {
  std::unique_ptr<GroupAggregateOp> op = MakeHostAgg();
  RecordBatch rows;
  for (int i = 0; i < 12; ++i) {
    const Micros ws = Seconds(10) * (i % 3);
    rows.push_back(MakeWindowedRecord(ws + i, ws,
                                      "host-" + std::to_string(i % 4),
                                      int64_t{i % 5}, 0.5 * i));
  }
  rows.push_back(
      MakeWindowedRecord(Seconds(21), Seconds(20), "stray", 2.5, 1.0));
  EXPECT_TRUE(op->ProcessBatch(&rows).ok());
  std::vector<uint8_t> key = ExportState(*op, StateExport::kFull);
  RecordBatch out;
  EXPECT_TRUE(op->OnWatermark(Seconds(10), &out).ok());
  EXPECT_TRUE(
      op->Process(MakeWindowedRecord(5, 0, "late", int64_t{9}, 4.0), &out)
          .ok());
  EXPECT_TRUE(op->Process(MakeWindowedRecord(Seconds(11), Seconds(10),
                                             "host-1", int64_t{1}, 8.0),
                          &out)
                  .ok());
  return {std::move(key), ExportState(*op, StateExport::kDelta)};
}

TEST(SerCorruptionTest, GroupAggregateStateSurvivesTruncationAndFlips) {
  const auto [key, delta] = HostAggBodies();
  {
    SCOPED_TRACE("keyframe");
    SweepStateBody(MakeHostAgg, nullptr, key);
  }
  SCOPED_TRACE("delta");
  SweepStateBody(MakeHostAgg, &key, delta);
}

TEST(SerCorruptionTest, WindowKeyframeSurvivesTruncationAndFlips) {
  const OpFactory make = [] {
    return std::make_unique<WindowOp>("w", KvSchema(), Seconds(10));
  };
  SweepStateBody(make, nullptr, ExportState(*make(), StateExport::kFull));
}

TEST(SerCorruptionTest, JoinMissCounterDeltaSurvivesTruncationAndFlips) {
  auto table = std::make_shared<StaticTable>(
      "k", Schema::Field{"t", ValueType::kInt64});
  table->Insert(1, Value(int64_t{10}));
  const OpFactory make = [table] {
    return std::make_unique<JoinOp>("j", KvSchema(), table, 0);
  };
  std::unique_ptr<Operator> op = make();
  const std::vector<uint8_t> key = ExportState(*op, StateExport::kFull);
  RecordBatch rows;
  for (int64_t k = 0; k < 300; ++k) {
    rows.push_back(MakeRecord(Seconds(k), k, 1.0));
  }
  ASSERT_TRUE(op->ProcessBatch(&rows).ok());
  // 299 misses: a two-byte varint in a one-section delta.
  SweepStateBody(make, &key, ExportState(*op, StateExport::kDelta));
}

TEST(SerCorruptionTest, StatelessOperatorRefusesAnyStateButEmpty) {
  const OpFactory make = [] {
    return std::make_unique<FilterOp>(
        "f", KvSchema(), [](const Record&) { return true; });
  };
  SweepStateBody(make, nullptr, ExportState(*make(), StateExport::kFull));
  // A window keyframe (one section) and a lone tombstone are state a
  // stateless operator does not have.
  WindowOp window("w", KvSchema(), Seconds(10));
  ser::BufferWriter tombstone;
  tombstone.PutVarU64(1);
  tombstone.PutVarI64(0);
  tombstone.PutVarU64(0);
  for (const std::vector<uint8_t>& body :
       {ExportState(window, StateExport::kFull), tombstone.Release()}) {
    EXPECT_FALSE(RestoreInto(make, nullptr, body, body.size()).ok());
  }
}

/// Corruption of the SP's retained ring: PlanRestore re-verifies every
/// entry, so a corrupt newest entry degrades to the previous epoch's chain
/// while a corrupt keyframe invalidates the whole ring.
TEST(SerCorruptionTest, CheckpointStoreFallsBackPastCorruptEntries) {
  const std::vector<uint8_t> body = SampleCheckpointBody();
  core::CheckpointStore store;
  store.set_retain(4);
  for (int64_t e = 0; e < 3; ++e) {
    store.Add(/*full=*/e == 0, e, static_cast<uint32_t>(10 + e),
              core::SealCheckpointPayload(e == 0, e,
                                          static_cast<uint32_t>(10 + e),
                                          body));
  }
  ASSERT_EQ(store.size(), 3u);
  auto plan = store.PlanRestore();
  ASSERT_TRUE(plan.valid);
  EXPECT_EQ(plan.epoch, 2);
  EXPECT_EQ(plan.chain.size(), 3u);
  EXPECT_EQ(plan.skipped, 0u);

  // Corrupt the newest delta: the chain shortens by one, restore roots at
  // the previous epoch, and the skip is reported for fallback accounting.
  store.mutable_entry(2).payload.back() ^= 0x01;
  plan = store.PlanRestore();
  ASSERT_TRUE(plan.valid);
  EXPECT_EQ(plan.epoch, 1);
  EXPECT_EQ(plan.fence, 11u);
  EXPECT_EQ(plan.chain.size(), 2u);
  EXPECT_EQ(plan.skipped, 1u);

  // Corrupt the keyframe: no chain can root, the whole ring is unusable.
  store.mutable_entry(0).payload.back() ^= 0x01;
  plan = store.PlanRestore();
  EXPECT_FALSE(plan.valid);
  EXPECT_TRUE(plan.chain.empty());
  EXPECT_EQ(plan.skipped, 3u);
}

// ---------------------------------------------------------------------------
// Compressed wire frames (drain wire v2/LZ4): truncation and flips surface
// as Status — the NACK that triggers retransmission — never as UB
// ---------------------------------------------------------------------------

/// An epoch drain with redundant-but-distinct strings (so LZ4 does real
/// work), plus a second chunk of another shape.
core::SourceEpochOutput MakeCompressibleDrain() {
  core::SourceEpochOutput out;
  RecordBatch rows;
  for (int i = 0; i < 96; ++i) {
    rows.push_back(MakeRecord(
        Seconds(i), "GET /api/v1/users/" + std::to_string(i * 37) +
                        "/profile HTTP/1.1 response_served_from=edge-cache",
        int64_t{200 + i % 3}));
  }
  out.AppendDrainRows(0, std::move(rows));
  RecordBatch tail;
  for (int i = 0; i < 8; ++i) {
    tail.push_back(MakeRecord(Seconds(100 + i), int64_t{i}, 0.5 * i));
  }
  out.AppendDrainRows(1, std::move(tail));
  return out;
}

RecordBatch FlattenChunks(std::vector<core::DrainChunk>&& chunks) {
  RecordBatch rows;
  for (core::DrainChunk& c : chunks) {
    for (Record& r : c.rows) rows.push_back(std::move(r));
    c.rows.clear();
  }
  return rows;
}

TEST(SerCorruptionTest, CompressedDrainRoundTripsAndMatchesUncompressed) {
  core::SourceEpochOutput plain_out = MakeCompressibleDrain();
  core::SourceEpochOutput lz4_out = MakeCompressibleDrain();
  uint32_t seq_plain = 0, seq_lz4 = 0;
  const core::WireDrain plain =
      core::SerializeDrain(&plain_out, &seq_plain, {.compress = false});
  const core::WireDrain lz4 =
      core::SerializeDrain(&lz4_out, &seq_lz4, {.compress = true});
  ASSERT_EQ(plain.frame_count, lz4.frame_count);
  std::vector<core::DrainChunk> plain_chunks, lz4_chunks;
  ASSERT_TRUE(core::DecodeDrain(plain, &plain_chunks).ok());
  ASSERT_TRUE(core::DecodeDrain(lz4, &lz4_chunks).ok());
  const RecordBatch want = FlattenChunks(std::move(plain_chunks));
  const RecordBatch got = FlattenChunks(std::move(lz4_chunks));
  EXPECT_EQ(got, want);
  EXPECT_EQ(want.size(), 104u);
#ifdef JARVIS_HAVE_LZ4
  // The redundant string payload must actually compress (store-wins means
  // a v2 frame exists only when it shrank).
  EXPECT_LT(lz4.wire_bytes, plain.wire_bytes);
  EXPECT_EQ(lz4.frames[0].bytes[0], core::kWireFrameVersionCompressed);
#endif
}

TEST(SerCorruptionTest, EveryCompressedFrameTruncationFailsWithStatus) {
  core::SourceEpochOutput out = MakeCompressibleDrain();
  uint32_t seq = 0;
  const core::WireDrain wire =
      core::SerializeDrain(&out, &seq, {.compress = true});
  std::vector<uint8_t> scratch;
  for (const core::WireFrame& f : wire.frames) {
    for (size_t len = 0; len < f.bytes.size(); ++len) {
      core::WireFrame cut;
      cut.seq = f.seq;
      cut.bytes.assign(f.bytes.begin(), f.bytes.begin() + len);
      auto hdr = core::PeekFrameHeader(cut);
      if (!hdr.ok()) continue;  // caught at the header layer
      core::DrainChunk chunk;
      EXPECT_FALSE(core::DecodeDrainChunk(cut, *hdr, &chunk, &scratch).ok())
          << "prefix length " << len << " of " << f.bytes.size()
          << " decoded";
    }
  }
}

TEST(SerCorruptionTest, CompressedFrameBitFlipsAreStatusNeverUB) {
  core::SourceEpochOutput out = MakeCompressibleDrain();
  uint32_t seq = 0;
  const core::WireDrain wire =
      core::SerializeDrain(&out, &seq, {.compress = true});
  std::vector<uint8_t> scratch;
  for (const core::WireFrame& f : wire.frames) {
    // Pristine control: the frame decodes before we start flipping.
    {
      auto hdr = core::PeekFrameHeader(f);
      ASSERT_TRUE(hdr.ok());
      core::DrainChunk chunk;
      ASSERT_TRUE(core::DecodeDrainChunk(f, *hdr, &chunk, &scratch).ok());
    }
    for (size_t i = 0; i < f.bytes.size(); ++i) {
      for (const int bit : {0, 3, 7}) {
        core::WireFrame bad = f;
        bad.bytes[i] ^= static_cast<uint8_t>(1u << bit);
        auto hdr = core::PeekFrameHeader(bad);
        if (!hdr.ok()) continue;  // header CRC caught it: NACK, retransmit
        core::DrainChunk chunk;
        // A surviving header means the flip landed in the payload: the LZ4
        // layer or the inner payload checksum must reject it (kCorrupt ->
        // NACK -> retransmit upstream), and sanitizers judge the no-UB half.
        (void)core::DecodeDrainChunk(bad, *hdr, &chunk, &scratch);
      }
    }
  }
}

TEST(SerCorruptionTest, MixedCompressedAndLegacyFramesDecodeTogether) {
  // A receiver sees v1 (legacy/uncompressed) and v2 (compressed) frames
  // interleaved in one drain — exactly what a store-wins encoder emits, and
  // what a rolling upgrade of sources would produce.
  core::SourceEpochOutput a = MakeCompressibleDrain();
  core::SourceEpochOutput b = MakeCompressibleDrain();
  uint32_t seq = 0;
  core::WireDrain mixed = core::SerializeDrain(&a, &seq, {.compress = true});
  core::WireDrain tail = core::SerializeDrain(&b, &seq, {.compress = false});
  for (core::WireFrame& f : tail.frames) {
    mixed.frames.push_back(std::move(f));
  }
  mixed.frame_count += tail.frame_count;
  mixed.wire_bytes += tail.wire_bytes;
  mixed.records += tail.records;
  std::vector<core::DrainChunk> chunks;
  ASSERT_TRUE(core::DecodeDrain(mixed, &chunks).ok());
  const RecordBatch rows = FlattenChunks(std::move(chunks));
  EXPECT_EQ(rows.size(), 208u);
#ifdef JARVIS_HAVE_LZ4
  EXPECT_EQ(mixed.frames.front().bytes[0], core::kWireFrameVersionCompressed);
#endif
  EXPECT_EQ(mixed.frames.back().bytes[0], core::kWireFrameVersion);
}

TEST(SerCorruptionTest, CompressedCheckpointFrameVerifiesEndToEnd) {
  const std::vector<uint8_t> sealed = core::SealCheckpointPayload(
      true, /*epoch=*/5, /*fence=*/23, SampleCheckpointBody());
  const core::WireFrame frame =
      core::MakeCheckpointFrame(7, sealed, {.compress = true, .min_bytes = 0});
  auto hdr = core::PeekFrameHeader(frame);
  ASSERT_TRUE(hdr.ok());
  EXPECT_EQ(hdr->lane, core::WireLane::kCheckpoint);
  std::vector<uint8_t> scratch;
  auto payload = core::FramePayload(frame, *hdr, &scratch);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(std::vector<uint8_t>(payload->first,
                                 payload->first + payload->second),
            sealed);
  // Truncations and flips of the checkpoint frame fail at the frame header,
  // the LZ4 layer, or the sealed payload CRC — never UB, never garbage.
  for (size_t len = 0; len < frame.bytes.size(); ++len) {
    core::WireFrame cut;
    cut.seq = frame.seq;
    cut.bytes.assign(frame.bytes.begin(), frame.bytes.begin() + len);
    auto h = core::PeekFrameHeader(cut);
    if (!h.ok()) continue;
    auto p = core::FramePayload(cut, *h, &scratch);
    if (!p.ok()) continue;
    EXPECT_FALSE(core::PeekCheckpointHeader(p->first, p->second).ok())
        << "prefix length " << len << " validated";
  }
  for (size_t i = 0; i < frame.bytes.size(); ++i) {
    for (const int bit : {0, 3, 7}) {
      core::WireFrame bad = frame;
      bad.bytes[i] ^= static_cast<uint8_t>(1u << bit);
      auto h = core::PeekFrameHeader(bad);
      if (!h.ok()) continue;
      auto p = core::FramePayload(bad, *h, &scratch);
      if (!p.ok()) continue;
      EXPECT_FALSE(core::PeekCheckpointHeader(p->first, p->second).ok())
          << "flip at byte " << i << " bit " << bit << " validated";
    }
  }
}

/// A stored data frame with an arbitrary lane byte and a valid header
/// checksum (seq 0, entry operator 0).
core::WireFrame FrameWithLane(uint8_t lane, const std::vector<uint8_t>& payload,
                              uint32_t records) {
  ser::BufferWriter w;
  w.PutU8(core::kWireFrameVersion);
  const size_t crc_pos = w.size();
  w.PutU32(0);
  const size_t header_start = w.size();
  w.PutVarU64(0);
  w.PutVarU64(0);
  w.PutU8(lane);
  w.PatchU32(crc_pos, ser::FrameChecksum(w.data().data() + header_start,
                                         w.size() - header_start));
  w.PutBytes(payload.data(), payload.size());
  core::WireFrame f;
  f.records = records;
  f.bytes = w.Release();
  return f;
}

TEST(SerCorruptionTest, RetiredLaneZeroIsRejected) {
  // Lane byte 0 named the retired columnar lane. A frame carrying it, with
  // a valid header checksum and a well-formed payload, must fail the header
  // check and be NACKed as corrupt, never decoded.
  const Corpus kv = BuildCorpus()[1];
  const auto n = static_cast<uint32_t>(kv.rows.size());
  const core::WireFrame lane0 = FrameWithLane(0, EncodeBatch(kv), n);
  const Result<core::WireFrameHeader> hdr = core::PeekFrameHeader(lane0);
  ASSERT_FALSE(hdr.ok());
  EXPECT_EQ(hdr.status().code(), StatusCode::kSerializationError);
  // Control: the same header on the row lane, with a batch payload.
  const core::WireFrame lane1 = FrameWithLane(1, EncodeBatch(kv), n);
  ASSERT_TRUE(core::PeekFrameHeader(lane1).ok());

  query::QueryBuilder q(KvSchema());
  q.Window(Seconds(1));
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  ASSERT_TRUE(compiled.ok());
  core::SpExecutor sp(*compiled, 1);
  ASSERT_TRUE(sp.Init().ok());
  RecordBatch results;
  Result<core::FrameDisposition> d = sp.ConsumeFrame(0, lane0, &results);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, core::FrameDisposition::kCorrupt);
  EXPECT_EQ(sp.expected_seq(0), 0u);
  EXPECT_EQ(sp.records_consumed(), 0u);
  d = sp.ConsumeFrame(0, lane1, &results);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, core::FrameDisposition::kDelivered);
  EXPECT_EQ(sp.expected_seq(0), 1u);
  EXPECT_EQ(sp.records_consumed(), n);
}

TEST(SerCorruptionTest, RandomMultiByteCorruptionIsSafe) {
  for (const uint64_t seed : FuzzSeeds()) {
    Rng rng(seed ^ 0xc0ffee);
    for (const Corpus& c : BuildCorpus()) {
      std::vector<uint8_t> bytes = EncodeBatch(c);
      const size_t flips = 1 + rng.NextBounded(8);
      for (size_t f = 0; f < flips; ++f) {
        bytes[rng.NextBounded(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBounded(255));
      }
      RecordBatch out;
      (void)DecodeBytes(bytes, &out);  // Status; sanitizers judge
    }
  }
}

}  // namespace
}  // namespace jarvis::stream
