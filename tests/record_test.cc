#include <gtest/gtest.h>

#include "common/rng.h"
#include "stream/record.h"
#include "testing/test_util.h"

namespace jarvis::stream {
namespace {

using jarvis::testing::SealBatchBody;

Record MakeRecord() {
  Record r;
  r.event_time = 1234567;
  r.window_start = 1000000;
  r.fields = {Value(int64_t{42}), Value(2.5), Value(std::string("srv-1"))};
  return r;
}

TEST(ValueTest, TypeOf) {
  EXPECT_EQ(TypeOf(Value(int64_t{1})), ValueType::kInt64);
  EXPECT_EQ(TypeOf(Value(1.0)), ValueType::kDouble);
  EXPECT_EQ(TypeOf(Value(std::string("x"))), ValueType::kString);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(ValueToString(Value(int64_t{7})), "7");
  EXPECT_EQ(ValueToString(Value(std::string("abc"))), "abc");
}

TEST(RecordTest, TypedAccessors) {
  Record r = MakeRecord();
  EXPECT_EQ(r.i64(0), 42);
  EXPECT_DOUBLE_EQ(r.f64(1), 2.5);
  EXPECT_EQ(r.str(2), "srv-1");
}

TEST(RecordTest, AsDoubleWidensInt) {
  Record r = MakeRecord();
  EXPECT_DOUBLE_EQ(r.AsDouble(0), 42.0);
  EXPECT_DOUBLE_EQ(r.AsDouble(1), 2.5);
}

TEST(RecordTest, DefaultsAreData) {
  Record r;
  EXPECT_EQ(r.kind, RecordKind::kData);
  EXPECT_EQ(r.window_start, -1);
}

TEST(SchemaTest, IndexOf) {
  Schema s = Schema::Of({{"a", ValueType::kInt64}, {"b", ValueType::kDouble}});
  ASSERT_TRUE(s.IndexOf("a").ok());
  EXPECT_EQ(s.IndexOf("a").value(), 0u);
  EXPECT_EQ(s.IndexOf("b").value(), 1u);
  EXPECT_EQ(s.IndexOf("c").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, AppendAndSelect) {
  Schema s = Schema::Of({{"a", ValueType::kInt64}, {"b", ValueType::kDouble}});
  Schema appended = s.Append({"c", ValueType::kString});
  EXPECT_EQ(appended.num_fields(), 3u);
  EXPECT_EQ(appended.field(2).name, "c");

  Schema selected = appended.Select({2, 0});
  EXPECT_EQ(selected.num_fields(), 2u);
  EXPECT_EQ(selected.field(0).name, "c");
  EXPECT_EQ(selected.field(1).name, "a");
}

TEST(SchemaTest, ToStringFormat) {
  Schema s = Schema::Of({{"a", ValueType::kInt64}, {"s", ValueType::kString}});
  EXPECT_EQ(s.ToString(), "{a:i64, s:str}");
}

TEST(SerdeTest, RoundTripPreservesEverything) {
  Record r = MakeRecord();
  r.kind = RecordKind::kPartial;
  ser::BufferWriter w;
  SerializeRecord(r, &w);
  ser::BufferReader reader(w.data());
  Record out;
  ASSERT_TRUE(DeserializeRecord(&reader, &out).ok());
  EXPECT_EQ(out, r);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerdeTest, WireSizeMatchesSerializedSize) {
  Record r = MakeRecord();
  ser::BufferWriter w;
  SerializeRecord(r, &w);
  EXPECT_EQ(WireSize(r), w.size());
}

TEST(SerdeTest, BadKindRejected) {
  ser::BufferWriter w;
  w.PutU8(99);
  ser::BufferReader reader(w.data());
  Record out;
  EXPECT_EQ(DeserializeRecord(&reader, &out).code(),
            StatusCode::kSerializationError);
}

TEST(SerdeTest, FieldCountBeyondTheBytesIsRejectedBeforeReserving) {
  // A field count read from a few bytes must not reserve 2^20 Values
  // (40 MB): every tagged value takes at least two bytes.
  for (const uint64_t count : {uint64_t{1} << 20, uint64_t{3}}) {
    ser::BufferWriter w;
    w.PutU8(static_cast<uint8_t>(RecordKind::kData));
    w.PutVarI64(5);
    w.PutVarI64(0);
    w.PutVarU64(count);
    w.PutU8(static_cast<uint8_t>(ValueType::kInt64));
    w.PutVarI64(1);
    w.PutU8(static_cast<uint8_t>(ValueType::kInt64));  // 5 bytes: 2 values
    ser::BufferReader reader(w.data());
    Record out;
    EXPECT_EQ(DeserializeRecord(&reader, &out).code(),
              StatusCode::kSerializationError)
        << count;
    EXPECT_EQ(out.fields.capacity(), 0u) << count;
  }
}

TEST(SerdeTest, TruncatedRecordRejected) {
  Record r = MakeRecord();
  ser::BufferWriter w;
  SerializeRecord(r, &w);
  ser::BufferReader reader(w.data().data(), w.size() - 3);
  Record out;
  EXPECT_FALSE(DeserializeRecord(&reader, &out).ok());
}

class SerdePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdePropertyTest, RandomRecordsRoundTripAndSizeMatches) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    Record r;
    r.event_time = static_cast<Micros>(rng.NextBounded(1ull << 40));
    r.window_start =
        rng.NextBernoulli(0.5)
            ? -1
            : static_cast<Micros>(rng.NextBounded(1ull << 40));
    r.kind = rng.NextBernoulli(0.2) ? RecordKind::kPartial : RecordKind::kData;
    const size_t nfields = rng.NextBounded(10);
    for (size_t f = 0; f < nfields; ++f) {
      switch (rng.NextBounded(3)) {
        case 0:
          r.fields.emplace_back(
              static_cast<int64_t>(rng.NextU64() >> rng.NextBounded(64)) -
              1000);
          break;
        case 1:
          r.fields.emplace_back(rng.NextGaussian() * 1e4);
          break;
        default: {
          std::string s(rng.NextBounded(30), ' ');
          for (char& c : s) c = static_cast<char>('A' + rng.NextBounded(26));
          r.fields.emplace_back(std::move(s));
        }
      }
    }
    ser::BufferWriter w;
    SerializeRecord(r, &w);
    EXPECT_EQ(WireSize(r), w.size());
    ser::BufferReader reader(w.data());
    Record out;
    ASSERT_TRUE(DeserializeRecord(&reader, &out).ok());
    EXPECT_EQ(out, r);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdePropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Schema-elided batch wire format (deterministic cases; fuzz coverage lives
// in batch_equivalence_test)
// ---------------------------------------------------------------------------

Schema TestSchema() {
  return Schema::Of({{"k", ValueType::kInt64},
                     {"v", ValueType::kDouble},
                     {"h", ValueType::kString}});
}

RecordBatch MakeConformingBatch() {
  RecordBatch b;
  for (int64_t i = 0; i < 5; ++i) {
    Record r;
    r.event_time = 1000000 + i * 100;
    r.window_start = 1000000;
    r.fields = {Value(i), Value(0.5 * static_cast<double>(i)),
                Value(std::string("h-") + std::to_string(i))};
    b.push_back(std::move(r));
  }
  return b;
}

TEST(BatchSerdeTest, ConformingBatchRoundTrips) {
  const Schema schema = TestSchema();
  RecordBatch batch = MakeConformingBatch();
  ser::BufferWriter w;
  const size_t bytes = SerializeBatch(batch, schema, &w);
  EXPECT_EQ(bytes, w.size());
  ser::BufferReader r(w.data());
  RecordBatch out;
  ASSERT_TRUE(DeserializeBatch(&r, &out).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(out, batch);
}

TEST(BatchSerdeTest, SchemaElisionBeatsRecordFormat) {
  const Schema schema = TestSchema();
  RecordBatch batch = MakeConformingBatch();
  ser::BufferWriter w_rec;
  for (const Record& rec : batch) SerializeRecord(rec, &w_rec);
  ser::BufferWriter w_bat;
  SerializeBatch(batch, schema, &w_bat);
  // Five 3-field records: per-record tags + counts outweigh the one-time
  // batch header.
  EXPECT_LT(w_bat.size(), w_rec.size());
}

TEST(BatchSerdeTest, PartialAndDivergentRecordsRoundTrip) {
  const Schema schema = TestSchema();
  RecordBatch batch = MakeConformingBatch();
  Record partial;
  partial.kind = RecordKind::kPartial;
  partial.event_time = 2000000;
  partial.window_start = 1000000;
  partial.fields = {Value(int64_t{7}), Value(int64_t{3}), Value(21.0),
                    Value(5.0), Value(9.0)};  // arity diverges from schema
  batch.insert(batch.begin() + 2, partial);
  Record empty_fields;
  empty_fields.event_time = -12345;  // negative times must zigzag fine
  batch.push_back(empty_fields);

  ser::BufferWriter w;
  SerializeBatch(batch, schema, &w);
  ser::BufferReader r(w.data());
  RecordBatch out;
  ASSERT_TRUE(DeserializeBatch(&r, &out).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(out, batch);
  EXPECT_EQ(out[2].kind, RecordKind::kPartial);
}

TEST(BatchSerdeTest, FirstRowSchemaPacksPartialRowsWithoutTags) {
  // A drained window: kPartial accumulator rows of one shape, then a row of
  // another. Packed by the first row's field types, the partial rows ship
  // without inline tags, and the odd row still round-trips.
  RecordBatch batch;
  for (int i = 0; i < 8; ++i) {
    Record p;
    p.kind = RecordKind::kPartial;
    p.event_time = 2000000;
    p.window_start = 1000000;
    p.fields = {Value(std::string("t") + std::to_string(i)),
                Value(int64_t{i}), Value(1.5 * i), Value(0.5), Value(9.0)};
    batch.push_back(std::move(p));
  }
  batch.push_back(MakeRecord());
  const Schema schema = FirstRowSchema(batch);
  ASSERT_EQ(schema.num_fields(), 5u);
  EXPECT_EQ(schema.field(0).type, ValueType::kString);
  EXPECT_EQ(schema.field(1).type, ValueType::kInt64);
  EXPECT_EQ(schema.field(4).type, ValueType::kDouble);
  EXPECT_EQ(FirstRowSchema(RecordBatch{}).num_fields(), 0u);

  ser::BufferWriter typed, tagged;
  SerializeBatch(batch, schema, &typed);
  SerializeBatch(batch, Schema(), &tagged);
  EXPECT_LT(typed.size(), tagged.size());
  ser::BufferReader r(typed.data());
  RecordBatch out;
  ASSERT_TRUE(DeserializeBatch(&r, &out).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(out, batch);
}

/// A low-cardinality string column ships as a dictionary: each distinct
/// string once, then one byte per value.
TEST(BatchSerdeTest, DictionaryEncodingShrinksLowCardinalityStrings) {
  const Schema schema =
      Schema::Of({{"host", ValueType::kString}, {"k", ValueType::kInt64}});
  // The same rows twice but for the strings, all six bytes long: four
  // hosts, or 300 distinct ids (past the 255-entry cap, so plain).
  RecordBatch hosts, ids;
  for (int i = 0; i < 300; ++i) {
    hosts.push_back(jarvis::testing::MakeRecord(
        i * 100, std::string("host-").append(std::to_string(i % 4)), i));
    ids.push_back(jarvis::testing::MakeRecord(
        i * 100, std::string("h").append(std::to_string(100000 + i), 1), i));
  }
  ser::BufferWriter hosts_w, ids_w;
  SerializeBatch(hosts, schema, &hosts_w);
  SerializeBatch(ids, schema, &ids_w);
  // Plain: a length byte and six bytes per row. Dictionary: the entry
  // count, four length-prefixed entries, a code per row.
  EXPECT_EQ(ids_w.size() - hosts_w.size(), 300u * 7 - (1 + 4 * 7 + 300));

  ser::BufferReader r(hosts_w.data());
  RecordBatch decoded;
  ASSERT_TRUE(DeserializeBatch(&r, &decoded).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded, hosts);
}

/// Distinct strings keep the plain layout, whether there are too many for
/// a dictionary (400) or a dictionary would not be smaller (100).
TEST(BatchSerdeTest, UniqueStringsUsePlainLayout) {
  const Schema schema = Schema::Of({{"id", ValueType::kString}});
  for (const int n : {100, 400}) {
    RecordBatch rows;
    size_t string_bytes = 0;
    for (int i = 0; i < n; ++i) {
      rows.push_back(jarvis::testing::MakeRecord(
          i, std::string("unique-id-").append(std::to_string(i * 7919))));
      string_bytes += 1 + rows.back().str(0).size();
    }
    ser::BufferWriter w;
    SerializeBatch(rows, schema, &w);
    // Integrity header, counts and the tag, a three-byte header row per
    // record, the encoding byte, then each string after its length.
    const size_t rows_n = static_cast<size_t>(n);
    EXPECT_EQ(w.size(),
              9 + ser::VarIntSize(n) + 2 + 3 * rows_n + 1 + string_bytes)
        << n;
    ser::BufferReader r(w.data());
    RecordBatch decoded;
    ASSERT_TRUE(DeserializeBatch(&r, &decoded).ok());
    EXPECT_EQ(decoded, rows);
  }
}

TEST(BatchSerdeTest, EmptyBatchRoundTrips) {
  const Schema schema = TestSchema();
  ser::BufferWriter w;
  const size_t bytes = SerializeBatch(RecordBatch{}, schema, &w);
  EXPECT_EQ(bytes, w.size());
  ser::BufferReader r(w.data());
  RecordBatch out = MakeConformingBatch();  // must be cleared by decode
  ASSERT_TRUE(DeserializeBatch(&r, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BatchSerdeTest, BadVersionRejected) {
  ser::BufferWriter w;
  w.PutU8(99);
  w.PutVarU64(0);
  ser::BufferReader r(w.data());
  RecordBatch out;
  EXPECT_EQ(DeserializeBatch(&r, &out).code(),
            StatusCode::kSerializationError);
}


TEST(BatchSerdeTest, TruncatedBatchRejected) {
  const Schema schema = TestSchema();
  RecordBatch batch = MakeConformingBatch();
  ser::BufferWriter w;
  SerializeBatch(batch, schema, &w);
  RecordBatch out;
  for (size_t cut : {w.size() - 1, w.size() / 2, size_t{3}}) {
    ser::BufferReader r(w.data().data(), cut);
    EXPECT_FALSE(DeserializeBatch(&r, &out).ok()) << cut;
  }
}

TEST(BatchSerdeTest, ImplausibleRecordCountRejected) {
  ser::BufferWriter body;
  body.PutVarU64(1u << 30);  // far more records than remaining bytes
  body.PutVarU64(0);
  const std::vector<uint8_t> frame = SealBatchBody(body.data());
  ser::BufferReader r(frame.data(), frame.size());
  RecordBatch out;
  EXPECT_EQ(DeserializeBatch(&r, &out).code(),
            StatusCode::kSerializationError);
  EXPECT_TRUE(out.empty());
}

TEST(BatchSerdeTest, BadFlagsRejected) {
  ser::BufferWriter body;
  body.PutVarU64(1);  // one record
  body.PutVarU64(0);  // zero schema fields
  body.PutU8(0x80);   // unknown flag bit
  body.PutVarI64(0);
  body.PutVarI64(0);
  body.PutVarU64(0);  // no tagged fields
  const std::vector<uint8_t> frame = SealBatchBody(body.data());
  ser::BufferReader r(frame.data(), frame.size());
  RecordBatch out;
  EXPECT_EQ(DeserializeBatch(&r, &out).code(),
            StatusCode::kSerializationError);
}

TEST(BatchSerdeTest, TaggedCountBeyondTheBytesIsRejectedBeforeReserving) {
  ser::BufferWriter body;
  body.PutVarU64(1);  // one record
  body.PutVarU64(0);  // no schema fields: the record rides the tagged lane
  body.PutU8(0);      // flags: kData, non-conforming
  body.PutVarI64(5);
  body.PutVarI64(0);
  body.PutVarU64(uint64_t{1} << 20);  // field count
  body.PutU8(static_cast<uint8_t>(ValueType::kInt64));
  body.PutVarI64(1);
  const std::vector<uint8_t> frame = SealBatchBody(body.data());
  for (const size_t width : {size_t{0}, size_t{8}}) {
    ser::BufferReader r(frame.data(), frame.size());
    RecordBatch out;
    EXPECT_EQ(DeserializeBatch(&r, &out, width).code(),
              StatusCode::kSerializationError);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_LE(out[0].fields.capacity(), width) << width;
  }
}

TEST(BatchSerdeTest, ColumnsBeyondTheBytesAreRejectedBeforeReserving) {
  // Each conforming row reserves the schema's field count, so schema
  // fields times conforming rows beyond the bytes left (one at least per
  // column value) is rejected before a row reserves.
  constexpr int kFields = 64, kRows = 8;
  ser::BufferWriter body;
  body.PutVarU64(kRows);
  body.PutVarU64(kFields);
  for (int j = 0; j < kFields; ++j) {
    body.PutU8(static_cast<uint8_t>(ValueType::kInt64));
  }
  for (int i = 0; i < kRows; ++i) {
    body.PutU8(0x02);  // conforming
    body.PutVarI64(1);
    body.PutVarI64(0);
  }
  for (int v = 0; v < kRows; ++v) body.PutVarI64(v);  // 8 of 512 values
  const std::vector<uint8_t> frame = SealBatchBody(body.data());
  ser::BufferReader r(frame.data(), frame.size());
  RecordBatch out;
  EXPECT_EQ(DeserializeBatch(&r, &out).code(),
            StatusCode::kSerializationError);
  for (const Record& rec : out) EXPECT_EQ(rec.fields.capacity(), 0u);
}

TEST(BatchSerdeTest, WidthReservesRoomForAppendsAndKeepsTheRows) {
  const Schema schema = TestSchema();
  RecordBatch batch = MakeConformingBatch();
  batch.push_back(MakeRecord());  // conforms too
  Record partial;
  partial.kind = RecordKind::kPartial;
  partial.fields = {Value(int64_t{7}), Value(2.0)};  // tagged lane
  batch.push_back(partial);
  ser::BufferWriter w;
  SerializeBatch(batch, schema, &w);
  for (const size_t width : {size_t{0}, size_t{2}, size_t{8}}) {
    ser::BufferReader r(w.data());
    RecordBatch out;
    ASSERT_TRUE(DeserializeBatch(&r, &out, width).ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(out, batch);
    for (const Record& rec : out) {
      EXPECT_GE(rec.fields.capacity(), std::max(rec.fields.size(), width));
    }
  }
}

TEST(BatchSerdeTest, ConformsToSchemaChecksArityAndTypes) {
  const Schema schema = TestSchema();
  Record r = MakeConformingBatch()[0];
  EXPECT_TRUE(ConformsToSchema(r, schema));
  r.fields.pop_back();
  EXPECT_FALSE(ConformsToSchema(r, schema));  // arity
  r.fields.emplace_back(int64_t{1});
  EXPECT_FALSE(ConformsToSchema(r, schema));  // type
}

}  // namespace
}  // namespace jarvis::stream
