// Deterministic unit coverage for ColumnarBatch, the container of
// GroupAggregate's checkpoint sections: row<->column conversion, column-born
// appends, and the column-wise wire format (RLE flags, delta varints,
// dictionary strings); plus typed-predicate semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ser/buffer.h"
#include "stream/columnar.h"
#include "stream/predicate.h"
#include "stream/record.h"
#include "testing/test_util.h"

namespace jarvis::stream {
namespace {

using jarvis::testing::DeserializeColumnarRows;
using jarvis::testing::MakeRecord;
using jarvis::testing::ToColumns;

Schema KvsSchema() {
  return Schema::Of({{"k", ValueType::kInt64},
                     {"v", ValueType::kDouble},
                     {"s", ValueType::kString}});
}

Record Partial(Micros t) {
  Record r = MakeRecord(t, 1, 2);
  r.kind = RecordKind::kPartial;
  return r;
}

/// Mixed batch: dense rows, a kPartial row, and a schema-divergent row.
RecordBatch MixedBatch() {
  RecordBatch batch;
  batch.push_back(MakeRecord(100, 1, 1.5, "a"));
  batch.push_back(Partial(150));
  batch.push_back(MakeRecord(200, 2, 2.5, "b"));
  batch.push_back(MakeRecord(250, "divergent"));  // wrong arity/types
  batch.push_back(MakeRecord(300, 3, 3.5, "a"));
  return batch;
}

TEST(ColumnarBatchTest, AppendRowSplitsDenseAndFallback) {
  ColumnarBatch cb = ToColumns(MixedBatch(), KvsSchema());
  EXPECT_EQ(cb.num_rows(), 5u);
  EXPECT_EQ(cb.num_dense(), 3u);
  EXPECT_EQ(cb.num_fallback(), 2u);
  EXPECT_EQ(cb.column(0).i64, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(cb.column(1).f64, (std::vector<double>{1.5, 2.5, 3.5}));
  EXPECT_EQ(cb.column(2).str, (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_EQ(cb.event_times(), (std::vector<Micros>{100, 200, 300}));
  EXPECT_EQ(cb.density(), (std::vector<uint8_t>{1, 0, 1, 0, 1}));
}

TEST(ColumnarBatchTest, MoveToRowsRestoresOriginalOrderExactly) {
  const RecordBatch original = MixedBatch();
  ColumnarBatch cb = ToColumns(original, KvsSchema());
  RecordBatch back;
  cb.MoveToRows(&back);
  EXPECT_EQ(back, original);
  EXPECT_TRUE(cb.empty());
}

TEST(ColumnarBatchTest, ColumnBornAppendMatchesRowAppend) {
  // Direct column writes (the checkpoint exporter's path) must build the
  // exact batch AppendRow would.
  RecordBatch rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(MakeRecord(100 * i, int64_t{i}, i * 0.5,
                              std::string("s") + std::to_string(i % 3)));
  }
  const RecordBatch original = rows;
  ColumnarBatch by_rows = ToColumns(std::move(rows), KvsSchema());

  ColumnarBatch by_columns(KvsSchema());
  for (int i = 0; i < 20; ++i) {
    by_columns.column_mut(0).i64.push_back(i);
    by_columns.column_mut(1).f64.push_back(i * 0.5);
    by_columns.column_mut(2).str.push_back(std::string("s") +
                                           std::to_string(i % 3));
    by_columns.event_times().push_back(100 * i);
    by_columns.window_starts().push_back(-1);
  }
  by_columns.CommitDenseRows(20);

  EXPECT_EQ(by_columns.num_rows(), by_rows.num_rows());
  RecordBatch a, b;
  by_columns.MoveToRows(&a);
  by_rows.MoveToRows(&b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, original);
}

// ---------------------------------------------------------------------------
// Typed predicates
// ---------------------------------------------------------------------------

TEST(TypedPredicateTest, RowEvalComparisonSemantics) {
  const Record r = MakeRecord(0, 5, 2.5, "m");
  EXPECT_TRUE(EvalPredicate(PredI64(0, CmpOp::kEq, 5), r));
  EXPECT_FALSE(EvalPredicate(PredI64(0, CmpOp::kNe, 5), r));
  EXPECT_TRUE(EvalPredicate(PredI64(0, CmpOp::kLt, 6), r));
  EXPECT_FALSE(EvalPredicate(PredI64(0, CmpOp::kLt, 5), r));
  EXPECT_TRUE(EvalPredicate(PredI64(0, CmpOp::kLe, 5), r));
  EXPECT_TRUE(EvalPredicate(PredI64(0, CmpOp::kGt, 4), r));
  EXPECT_TRUE(EvalPredicate(PredI64(0, CmpOp::kGe, 5), r));
  EXPECT_TRUE(EvalPredicate(PredF64(1, CmpOp::kLt, 3.0), r));
  EXPECT_TRUE(EvalPredicate(PredStr(2, CmpOp::kGe, "a"), r));
}

TEST(TypedPredicateTest, MismatchedLeavesFailClosed) {
  const Record r = MakeRecord(0, 5, 2.5, "m");
  // Field index out of range and type mismatch both evaluate false, never
  // error: divergent rows must fall out of a filter, not crash it.
  EXPECT_FALSE(EvalPredicate(PredI64(9, CmpOp::kEq, 5), r));
  EXPECT_FALSE(EvalPredicate(PredF64(0, CmpOp::kEq, 5.0), r));
  EXPECT_FALSE(EvalPredicate(PredStr(0, CmpOp::kEq, "5"), r));
}

TEST(TypedPredicateTest, CompositionSemantics) {
  const Record r = MakeRecord(0, 5, 2.5, "m");
  EXPECT_TRUE(EvalPredicate(PredAnd({PredI64(0, CmpOp::kEq, 5),
                                     PredF64(1, CmpOp::kLt, 3.0)}),
                            r));
  EXPECT_FALSE(EvalPredicate(PredAnd({PredI64(0, CmpOp::kEq, 5),
                                      PredF64(1, CmpOp::kGt, 3.0)}),
                             r));
  EXPECT_TRUE(EvalPredicate(PredOr({PredI64(0, CmpOp::kEq, 7),
                                    PredStr(2, CmpOp::kEq, "m")}),
                            r));
  EXPECT_TRUE(EvalPredicate(PredAnd({}), r));
  EXPECT_FALSE(EvalPredicate(PredOr({}), r));
}

TEST(TypedPredicateTest, ValidateChecksFieldsAndTypes) {
  const Schema schema = KvsSchema();
  EXPECT_TRUE(ValidatePredicate(PredI64(0, CmpOp::kEq, 1), schema).ok());
  EXPECT_TRUE(ValidatePredicate(
                  PredAnd({PredF64(1, CmpOp::kLt, 1.0),
                           PredOr({PredStr(2, CmpOp::kEq, "x")})}),
                  schema)
                  .ok());
  EXPECT_EQ(ValidatePredicate(PredI64(3, CmpOp::kEq, 1), schema).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidatePredicate(PredF64(0, CmpOp::kEq, 1.0), schema).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ValidatePredicate(PredAnd({PredStr(1, CmpOp::kEq, "x")}), schema).code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Columnar wire format
// ---------------------------------------------------------------------------

TEST(ColumnarWireTest, RoundTripsMixedBatch) {
  const RecordBatch original = MixedBatch();
  ColumnarBatch cb = ToColumns(original, KvsSchema());
  ser::BufferWriter w;
  w.PutU8(0xEE);  // sentinel: encoded bytes must be position-exact
  const size_t bytes = SerializeColumnar(cb, &w);
  EXPECT_EQ(bytes, w.size() - 1);

  ser::BufferReader r(w.data());
  uint8_t sentinel = 0;
  ASSERT_TRUE(r.GetU8(&sentinel).ok());
  ColumnarBatch decoded;
  ASSERT_TRUE(DeserializeColumnarBatch(&r, &decoded).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.num_dense(), 3u);
  EXPECT_EQ(decoded.density(), cb.density());
  RecordBatch rows;
  decoded.MoveToRows(&rows);
  EXPECT_EQ(rows, original);
}

TEST(ColumnarWireTest, RoundTripsEmptyBatch) {
  ColumnarBatch cb(KvsSchema());
  ser::BufferWriter w;
  SerializeColumnar(cb, &w);
  ser::BufferReader r(w.data());
  ColumnarBatch decoded = ToColumns(MixedBatch(), KvsSchema());
  ASSERT_TRUE(DeserializeColumnarBatch(&r, &decoded).ok());
  EXPECT_TRUE(decoded.empty());  // the decoder resets its target
  EXPECT_TRUE(r.AtEnd());
}

/// Low-cardinality string columns must dictionary-encode below both the
/// plain columnar layout and the schema-elided batch format.
TEST(ColumnarWireTest, DictionaryEncodingShrinksLowCardinalityStrings) {
  const Schema schema =
      Schema::Of({{"host", ValueType::kString}, {"k", ValueType::kInt64}});
  RecordBatch rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(MakeRecord(i * 100, std::string("host-") +
                                           std::to_string(i % 4),
                              i));
  }
  const RecordBatch original = rows;
  ser::BufferWriter batch_w;
  SerializeBatch(original, schema, &batch_w);

  ColumnarBatch cb = ToColumns(std::move(rows), schema);
  ser::BufferWriter col_w;
  SerializeColumnar(cb, &col_w);
  EXPECT_LT(col_w.size(), batch_w.size());

  ser::BufferReader r(col_w.data());
  RecordBatch decoded;
  ASSERT_TRUE(DeserializeColumnarRows(&r, &decoded).ok());
  EXPECT_EQ(decoded, original);
}

/// High-cardinality strings must fall back to the plain layout (and still
/// round-trip).
TEST(ColumnarWireTest, UniqueStringsUsePlainLayout) {
  const Schema schema = Schema::Of({{"id", ValueType::kString}});
  RecordBatch rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back(MakeRecord(i, std::string("unique-id-") +
                                     std::to_string(i * 7919)));
  }
  const RecordBatch original = rows;
  ColumnarBatch cb = ToColumns(std::move(rows), schema);
  ser::BufferWriter w;
  SerializeColumnar(cb, &w);
  ser::BufferReader r(w.data());
  RecordBatch decoded;
  ASSERT_TRUE(DeserializeColumnarRows(&r, &decoded).ok());
  EXPECT_EQ(decoded, original);
}

TEST(ColumnarWireTest, TruncatedInputFailsCleanly) {
  ColumnarBatch cb = ToColumns(MixedBatch(), KvsSchema());
  ser::BufferWriter w;
  SerializeColumnar(cb, &w);
  ColumnarBatch decoded;
  for (size_t cut = 0; cut < w.size(); ++cut) {
    ser::BufferReader r(w.data().data(), cut);
    // The integrity header's exact payload length makes every strict
    // prefix fail; the ASan/UBSan build verifies no out-of-bounds access.
    EXPECT_FALSE(DeserializeColumnarBatch(&r, &decoded).ok()) << cut;
  }
}

TEST(ColumnarWireTest, BadVersionRejected) {
  ser::BufferWriter w;
  w.PutU8(0x7F);
  ser::BufferReader r(w.data());
  ColumnarBatch decoded;
  EXPECT_EQ(DeserializeColumnarBatch(&r, &decoded).code(),
            StatusCode::kSerializationError);
}

}  // namespace
}  // namespace jarvis::stream
