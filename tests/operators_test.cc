#include <gtest/gtest.h>

#include "stream/ops.h"
#include "stream/predicate.h"
#include "testing/test_util.h"

namespace jarvis::stream {
namespace {

using jarvis::testing::KvSchema;
using jarvis::testing::MakeRecord;

TEST(WindowOpTest, AssignsTumblingWindowStart) {
  WindowOp op("w", KvSchema(), Seconds(10));
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeRecord(Seconds(13), 1, 2.0), &out).ok());
  ASSERT_TRUE(op.Process(MakeRecord(Seconds(20), 1, 2.0), &out).ok());
  ASSERT_TRUE(op.Process(MakeRecord(Seconds(29.999), 1, 2.0), &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].window_start, Seconds(10));
  EXPECT_EQ(out[1].window_start, Seconds(20));
  EXPECT_EQ(out[2].window_start, Seconds(20));
}

TEST(WindowOpTest, PartialRecordsKeepTheirWindow) {
  WindowOp op("w", KvSchema(), Seconds(10));
  Record partial = MakeRecord(Seconds(25), 1, 2.0);
  partial.kind = RecordKind::kPartial;
  partial.window_start = Seconds(10);
  RecordBatch out;
  ASSERT_TRUE(op.Process(std::move(partial), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].window_start, Seconds(10));
}

TEST(WindowOpTest, ZeroWidthIsError) {
  WindowOp op("w", KvSchema(), 0);
  RecordBatch out;
  EXPECT_FALSE(op.Process(MakeRecord(1, 1, 1.0), &out).ok());
}

TEST(FilterOpTest, DropsNonMatching) {
  FilterOp op("f", KvSchema(),
              [](const Record& r) { return r.i64(0) % 2 == 0; });
  RecordBatch out;
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(op.Process(MakeRecord(k, k, 1.0), &out).ok());
  }
  EXPECT_EQ(out.size(), 5u);
  for (const Record& r : out) EXPECT_EQ(r.i64(0) % 2, 0);
}

TEST(FilterOpTest, StatsTrackSelectivity) {
  FilterOp op("f", KvSchema(),
              [](const Record& r) { return r.i64(0) < 3; });
  RecordBatch out;
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(op.Process(MakeRecord(k, k, 1.0), &out).ok());
  }
  EXPECT_EQ(op.stats().records_in, 10u);
  EXPECT_EQ(op.stats().records_out, 3u);
  EXPECT_NEAR(op.stats().RelayRatioRecords(), 0.3, 1e-9);
}

TEST(FilterOpTest, PartialRecordsPassThrough) {
  FilterOp op("f", KvSchema(), [](const Record&) { return false; });
  Record partial = MakeRecord(1, 1, 1.0);
  partial.kind = RecordKind::kPartial;
  RecordBatch out;
  ASSERT_TRUE(op.Process(std::move(partial), &out).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(MapOpTest, OneToMany) {
  MapOp op("m", KvSchema(), [](Record&& rec, RecordBatch* out) {
    for (int i = 0; i < 3; ++i) out->push_back(rec);
    return Status::OK();
  });
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeRecord(1, 1, 1.0), &out).ok());
  EXPECT_EQ(out.size(), 3u);
  EXPECT_NEAR(op.stats().RelayRatioRecords(), 3.0, 1e-9);
}

TEST(MapOpTest, CanDropRecords) {
  MapOp op("m", KvSchema(),
           [](Record&&, RecordBatch*) { return Status::OK(); });
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeRecord(1, 1, 1.0), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(MapOpTest, ErrorsPropagate) {
  MapOp op("m", KvSchema(), [](Record&&, RecordBatch*) {
    return Status::Internal("boom");
  });
  RecordBatch out;
  EXPECT_EQ(op.Process(MakeRecord(1, 1, 1.0), &out).code(), StatusCode::kInternal);
}

TEST(ProjectOpTest, KeepsSelectedFieldsInOrder) {
  ProjectOp op("p", KvSchema(), {1});
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeRecord(5, 7, 2.5), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].fields.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].f64(0), 2.5);
  EXPECT_EQ(out[0].event_time, 5);
  EXPECT_EQ(op.output_schema().field(0).name, "v");
}

TEST(ProjectOpTest, ReordersFields) {
  ProjectOp op("p", KvSchema(), {1, 0});
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeRecord(5, 7, 2.5), &out).ok());
  EXPECT_DOUBLE_EQ(out[0].f64(0), 2.5);
  EXPECT_EQ(out[0].i64(1), 7);
}

TEST(ProjectOpTest, OutOfRangeIndexFails) {
  ProjectOp op("p", KvSchema(), {5});
  RecordBatch out;
  EXPECT_EQ(op.Process(MakeRecord(1, 1, 1.0), &out).code(),
            StatusCode::kOutOfRange);
}

TEST(ProjectOpTest, ReducesWireBytes) {
  ProjectOp op("p", KvSchema(), {0});
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeRecord(1, 1, 1.0), &out).ok());
  EXPECT_LT(op.stats().bytes_out, op.stats().bytes_in);
  EXPECT_LT(op.stats().RelayRatioBytes(), 1.0);
}

TEST(OperatorTest, ResetStatsClearsCounters) {
  FilterOp op("f", KvSchema(), [](const Record&) { return true; });
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeRecord(1, 1, 1.0), &out).ok());
  EXPECT_GT(op.stats().records_in, 0u);
  op.ResetStats();
  EXPECT_EQ(op.stats().records_in, 0u);
  EXPECT_EQ(op.stats().bytes_in, 0u);
}

TEST(OperatorTest, KindToString) {
  EXPECT_EQ(OpKindToString(OpKind::kWindow), "Window");
  EXPECT_EQ(OpKindToString(OpKind::kFilter), "Filter");
  EXPECT_EQ(OpKindToString(OpKind::kMap), "Map");
  EXPECT_EQ(OpKindToString(OpKind::kJoin), "Join");
  EXPECT_EQ(OpKindToString(OpKind::kGroupAggregate), "GroupAggregate");
  EXPECT_EQ(OpKindToString(OpKind::kProject), "Project");
}

TEST(OperatorTest, EmptyStatsRelayIsOne) {
  OperatorStats st;
  EXPECT_DOUBLE_EQ(st.RelayRatioBytes(), 1.0);
  EXPECT_DOUBLE_EQ(st.RelayRatioRecords(), 1.0);
}

TEST(OperatorTest, EmptyBatchThroughOperatorsIsANoOp) {
  // An empty input batch must not disturb stats, emit records, or error.
  WindowOp w("w", KvSchema(), Seconds(10));
  FilterOp f("f", KvSchema(), [](const Record&) { return true; });
  ProjectOp p("p", KvSchema(), {0});
  RecordBatch empty;
  for (Operator* op : std::initializer_list<Operator*>{&w, &f, &p}) {
    RecordBatch out;
    for (Record& r : empty) {
      ASSERT_TRUE(op->Process(std::move(r), &out).ok());
    }
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(op->stats().records_in, 0u);
    EXPECT_DOUBLE_EQ(op->stats().RelayRatioRecords(), 1.0);
  }
}

TEST(OperatorTest, WatermarkWithNoBufferedDataEmitsNothing) {
  WindowOp w("w", KvSchema(), Seconds(10));
  FilterOp f("f", KvSchema(), [](const Record&) { return true; });
  MapOp m("m", KvSchema(),
          [](Record&& rec, RecordBatch* out) {
            out->push_back(std::move(rec));
            return Status::OK();
          });
  RecordBatch out;
  EXPECT_TRUE(w.OnWatermark(Seconds(10), &out).ok());
  EXPECT_TRUE(f.OnWatermark(Seconds(10), &out).ok());
  EXPECT_TRUE(m.OnWatermark(Seconds(10), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(OperatorTest, StatelessOpsExportNoPartialState) {
  FilterOp f("f", KvSchema(), [](const Record&) { return true; });
  ProjectOp p("p", KvSchema(), {0});
  RecordBatch out;
  EXPECT_TRUE(f.ExportPartialState(&out).ok());
  EXPECT_TRUE(p.ExportPartialState(&out).ok());
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Typed predicates
// ---------------------------------------------------------------------------

Schema KvsSchema() {
  return Schema::Of({{"k", ValueType::kInt64},
                     {"v", ValueType::kDouble},
                     {"s", ValueType::kString}});
}

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

}  // namespace
}  // namespace jarvis::stream
