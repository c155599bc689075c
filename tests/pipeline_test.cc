#include <gtest/gtest.h>

#include "stream/group_aggregate.h"
#include "stream/join.h"
#include "stream/ops.h"
#include "stream/pipeline.h"
#include "testing/test_util.h"

namespace jarvis::stream {
namespace {

using jarvis::testing::KvSchema;
using jarvis::testing::MakeRecord;

Pipeline MakeWindowFilterAgg() {
  Pipeline p;
  p.Add(std::make_unique<WindowOp>("w", KvSchema(), Seconds(10)));
  p.Add(std::make_unique<FilterOp>(
      "f", KvSchema(), [](const Record& r) { return r.i64(0) != 0; }));
  p.Add(std::make_unique<GroupAggregateOp>(
      "g", KvSchema(), std::vector<size_t>{0},
      std::vector<AggSpec>{{AggKind::kCount, 0, "cnt"},
                           {AggKind::kSum, 1, "sum"}},
      Seconds(10), false));
  return p;
}

TEST(PipelineTest, PushCascades) {
  Pipeline p = MakeWindowFilterAgg();
  RecordBatch out;
  ASSERT_TRUE(p.Push(MakeRecord(Seconds(1), 1, 2.0), &out).ok());
  ASSERT_TRUE(p.Push(MakeRecord(Seconds(2), 0, 9.0), &out).ok());  // filtered
  ASSERT_TRUE(p.Push(MakeRecord(Seconds(3), 1, 3.0), &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(p.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].i64(0), 1);
  EXPECT_EQ(out[0].i64(1), 2);
  EXPECT_DOUBLE_EQ(out[0].f64(2), 5.0);
}

TEST(PipelineTest, PushFromSkipsPrefix) {
  Pipeline p = MakeWindowFilterAgg();
  // Entering after the filter: even the k==0 record reaches the aggregate.
  Record r = MakeRecord(Seconds(1), 0, 1.0);
  r.window_start = 0;
  RecordBatch out;
  ASSERT_TRUE(p.PushFrom(2, std::move(r), &out).ok());
  ASSERT_TRUE(p.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].i64(0), 0);
}

TEST(PipelineTest, PushFromPastEndIsPassThrough) {
  Pipeline p = MakeWindowFilterAgg();
  RecordBatch out;
  ASSERT_TRUE(p.PushFrom(3, MakeRecord(1, 5, 5.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].i64(0), 5);
}

TEST(PipelineTest, WatermarkEmissionsFlowDownstream) {
  // Aggregate followed by a filter on the aggregate output: window emissions
  // must pass through the downstream filter.
  Pipeline p;
  p.Add(std::make_unique<WindowOp>("w", KvSchema(), Seconds(10)));
  p.Add(std::make_unique<GroupAggregateOp>(
      "g", KvSchema(), std::vector<size_t>{0},
      std::vector<AggSpec>{{AggKind::kCount, 0, "cnt"}}, Seconds(10), false));
  Schema agg_schema = Schema::Of({{"k", ValueType::kInt64},
                                  {"cnt", ValueType::kInt64}});
  p.Add(std::make_unique<FilterOp>(
      "f2", agg_schema, [](const Record& r) { return r.i64(1) >= 2; }));

  RecordBatch out;
  ASSERT_TRUE(p.Push(MakeRecord(1, 1, 0.0), &out).ok());
  ASSERT_TRUE(p.Push(MakeRecord(2, 1, 0.0), &out).ok());
  ASSERT_TRUE(p.Push(MakeRecord(3, 2, 0.0), &out).ok());
  ASSERT_TRUE(p.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 1u);  // k=2 has count 1 and is filtered out
  EXPECT_EQ(out[0].i64(0), 1);
}

TEST(PipelineTest, FlushExportsState) {
  Pipeline p = MakeWindowFilterAgg();
  RecordBatch out;
  ASSERT_TRUE(p.Push(MakeRecord(Seconds(1), 1, 2.0), &out).ok());
  ASSERT_TRUE(p.Flush(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, RecordKind::kPartial);
}

TEST(PipelineTest, ResetStatsClearsAllOperators) {
  Pipeline p = MakeWindowFilterAgg();
  RecordBatch out;
  ASSERT_TRUE(p.Push(MakeRecord(1, 1, 1.0), &out).ok());
  EXPECT_GT(p.op(0).stats().records_in, 0u);
  p.ResetStats();
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.op(i).stats().records_in, 0u);
  }
}

TEST(PipelineTest, OutputSchemaIsLastOperators) {
  Pipeline p = MakeWindowFilterAgg();
  EXPECT_EQ(p.output_schema().field(1).name, "cnt");
}

TEST(PipelineTest, InPlaceWidthsStopAtMapAndGroupAggregate) {
  // window(2) join(3) join(4) project(1) map(2) filter(2) g+r: a row
  // entering before the joins reaches 4 fields in place; the Map and the
  // G+R hand on rows of their own, so the walk ends there.
  auto table = std::make_shared<StaticTable>(
      "k", Schema::Field{"t", ValueType::kInt64});
  const Schema kv = KvSchema();
  const Schema one = kv.Append({"t1", ValueType::kInt64});
  const Schema two = one.Append({"t2", ValueType::kInt64});
  Pipeline p;
  p.Add(std::make_unique<WindowOp>("w", kv, Seconds(10)));
  p.Add(std::make_unique<JoinOp>("j1", kv, table, 0));
  p.Add(std::make_unique<JoinOp>("j2", one, table, 0));
  p.Add(std::make_unique<ProjectOp>("p", two, std::vector<size_t>{3}));
  p.Add(std::make_unique<MapOp>(
      "m", kv, [](Record&& rec, RecordBatch* out) {
        out->push_back(std::move(rec));
        return Status::OK();
      }));
  p.Add(std::make_unique<FilterOp>(
      "f", kv, [](const Record& r) { return r.i64(0) != 0; }));
  p.Add(std::make_unique<GroupAggregateOp>(
      "g", kv, std::vector<size_t>{0},
      std::vector<AggSpec>{{AggKind::kCount, 0, "cnt"}}, Seconds(10), false));
  EXPECT_EQ(p.InPlaceWidths(),
            (std::vector<size_t>{4, 4, 4, 1, 0, 2, 0, 0}));
  EXPECT_EQ(Pipeline().InPlaceWidths(), std::vector<size_t>{0});
}

}  // namespace
}  // namespace jarvis::stream
