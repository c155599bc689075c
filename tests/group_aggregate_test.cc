#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "stream/group_aggregate.h"
#include "testing/test_util.h"

namespace jarvis::stream {
namespace {

using jarvis::testing::BatchNear;
using jarvis::testing::MakeWindowedRecord;

Schema InSchema() { return jarvis::testing::KvSchema("key", "val"); }

std::vector<AggSpec> AllAggs() {
  return {{AggKind::kCount, 0, "cnt"},
          {AggKind::kSum, 1, "sum"},
          {AggKind::kAvg, 1, "avg"},
          {AggKind::kMin, 1, "min"},
          {AggKind::kMax, 1, "max"}};
}


TEST(GroupAggregateTest, OutputSchemaLayout) {
  Schema out = GroupAggregateOp::MakeOutputSchema(InSchema(), {0}, AllAggs());
  ASSERT_EQ(out.num_fields(), 6u);
  EXPECT_EQ(out.field(0).name, "key");
  EXPECT_EQ(out.field(1).name, "cnt");
  EXPECT_EQ(out.field(1).type, ValueType::kInt64);
  EXPECT_EQ(out.field(2).type, ValueType::kDouble);
}

TEST(GroupAggregateTest, BasicAggregation) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10),
                      /*emit_partials=*/false);
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, 1, 2.0), &out).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(2, 0, 1, 4.0), &out).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(3, 0, 2, 10.0), &out).ok());
  EXPECT_TRUE(out.empty());  // emission only on window close
  EXPECT_EQ(op.open_windows(), 1u);

  ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(op.open_windows(), 0u);

  // Groups are emitted in encoded-key order (key 1, then key 2).
  const Record& g1 = out[0];
  EXPECT_EQ(g1.i64(0), 1);
  EXPECT_EQ(g1.i64(1), 2);            // count
  EXPECT_DOUBLE_EQ(g1.f64(2), 6.0);   // sum
  EXPECT_DOUBLE_EQ(g1.f64(3), 3.0);   // avg
  EXPECT_DOUBLE_EQ(g1.f64(4), 2.0);   // min
  EXPECT_DOUBLE_EQ(g1.f64(5), 4.0);   // max

  const Record& g2 = out[1];
  EXPECT_EQ(g2.i64(0), 2);
  EXPECT_EQ(g2.i64(1), 1);
  EXPECT_DOUBLE_EQ(g2.f64(3), 10.0);
}

TEST(GroupAggregateTest, EmissionCarriesWindowTimes) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(Seconds(12), Seconds(10), 1, 1.0), &out).ok());
  ASSERT_TRUE(op.OnWatermark(Seconds(20), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].window_start, Seconds(10));
  EXPECT_EQ(out[0].event_time, Seconds(20));
}

TEST(GroupAggregateTest, WatermarkOnlyClosesDueWindows) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(Seconds(5), 0, 1, 1.0), &out).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(Seconds(15), Seconds(10), 1, 1.0), &out).ok());
  ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
  EXPECT_EQ(out.size(), 1u);  // only window [0,10) closed
  EXPECT_EQ(op.open_windows(), 1u);
  ASSERT_TRUE(op.OnWatermark(Seconds(20), &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(GroupAggregateTest, UnwindowedInputIsError) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  Record r = MakeWindowedRecord(1, -1, 1, 1.0);
  r.window_start = -1;
  RecordBatch out;
  EXPECT_EQ(op.Process(std::move(r), &out).code(),
            StatusCode::kFailedPrecondition);
}

TEST(GroupAggregateTest, PartialModeEmitsPartialRecords) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10),
                      /*emit_partials=*/true);
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, 1, 2.0), &out).ok());
  ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, RecordKind::kPartial);
  // keys + 4 accumulator slots per agg.
  EXPECT_EQ(out[0].fields.size(), 1u + 4u * 5u);
}

using GroupAggregateSeededTest = jarvis::testing::SeededTest;

TEST_F(GroupAggregateSeededTest, PartialMergeEqualsDirectAggregation) {
  // Split a stream between two "source" operators in partial mode; merging
  // their exports on a third operator must equal aggregating everything
  // directly. This is the paper's losslessness claim in miniature.
  RecordBatch all;
  for (int i = 0; i < 500; ++i) {
    all.push_back(MakeWindowedRecord(i, 0,
                                     static_cast<int64_t>(rng().NextBounded(7)),
                                     rng().NextGaussian() * 10));
  }

  GroupAggregateOp direct("d", InSchema(), {0}, AllAggs(), Seconds(10), false);
  GroupAggregateOp src_a("a", InSchema(), {0}, AllAggs(), Seconds(10), true);
  GroupAggregateOp src_b("b", InSchema(), {0}, AllAggs(), Seconds(10), true);
  GroupAggregateOp merge("m", InSchema(), {0}, AllAggs(), Seconds(10), false);

  RecordBatch sink;
  for (size_t i = 0; i < all.size(); ++i) {
    Record copy = all[i];
    ASSERT_TRUE(direct.Process(std::move(copy), &sink).ok());
    Record split = all[i];
    ASSERT_TRUE((i % 2 ? src_a : src_b).Process(std::move(split), &sink).ok());
  }
  ASSERT_TRUE(sink.empty());

  RecordBatch partials;
  ASSERT_TRUE(src_a.OnWatermark(Seconds(10), &partials).ok());
  ASSERT_TRUE(src_b.OnWatermark(Seconds(10), &partials).ok());
  for (Record& p : partials) {
    ASSERT_EQ(p.kind, RecordKind::kPartial);
    ASSERT_TRUE(merge.Process(std::move(p), &sink).ok());
  }

  RecordBatch direct_out, merged_out;
  ASSERT_TRUE(direct.OnWatermark(Seconds(10), &direct_out).ok());
  ASSERT_TRUE(merge.OnWatermark(Seconds(10), &merged_out).ok());
  EXPECT_TRUE(BatchNear(merged_out, direct_out, 1e-9));
}

TEST(GroupAggregateTest, PartialArityMismatchRejected) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  Record bad;
  bad.kind = RecordKind::kPartial;
  bad.window_start = 0;
  bad.fields = {Value(int64_t{1})};  // too few accumulator fields
  RecordBatch out;
  EXPECT_EQ(op.Process(std::move(bad), &out).code(),
            StatusCode::kSerializationError);
}

TEST(GroupAggregateTest, ExportPartialStateDrainsEverything) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  RecordBatch out;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, 1, 1.0), &out).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(11, Seconds(10), 2, 2.0), &out).ok());
  RecordBatch exported;
  ASSERT_TRUE(op.ExportPartialState(&exported).ok());
  EXPECT_EQ(exported.size(), 2u);
  for (const Record& r : exported) {
    EXPECT_EQ(r.kind, RecordKind::kPartial);
  }
  EXPECT_EQ(op.open_windows(), 0u);
}

TEST(GroupAggregateTest, MultiKeyGrouping) {
  Schema schema = Schema::Of({{"a", ValueType::kInt64},
                              {"b", ValueType::kString},
                              {"v", ValueType::kDouble}});
  GroupAggregateOp op("g", schema, {0, 1}, {{AggKind::kCount, 0, "cnt"}},
                      Seconds(10), false);
  RecordBatch out;
  auto make = [](int64_t a, const char* b) {
    Record r;
    r.event_time = 1;
    r.window_start = 0;
    r.fields = {Value(a), Value(std::string(b)), Value(1.0)};
    return r;
  };
  ASSERT_TRUE(op.Process(make(1, "x"), &out).ok());
  ASSERT_TRUE(op.Process(make(1, "y"), &out).ok());
  ASSERT_TRUE(op.Process(make(1, "x"), &out).ok());
  ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  std::map<std::string, int64_t> counts;
  for (const Record& r : out) counts[r.str(1)] = r.i64(2);
  EXPECT_EQ(counts["x"], 2);
  EXPECT_EQ(counts["y"], 1);
}

TEST(GroupAggregateTest, NoAggregatesEmitsDistinctKeys) {
  GroupAggregateOp op("g", InSchema(), {0}, {}, Seconds(10), false);
  RecordBatch out;
  for (const int64_t k : {3, 1, 3, 2, 1}) {
    ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, k, 0.5), &out).ok());
  }
  ser::BufferWriter keyframe;
  ASSERT_TRUE(op.ExportStateDelta(&keyframe, StateExport::kFull).ok());
  ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].fields.size(), 1u);
    EXPECT_EQ(out[i].i64(0), static_cast<int64_t>(i + 1));
  }
}

TEST(GroupAggregateTest, SectionWithOffTypeKeyRoundTrips) {
  // The key is declared int64, but two groups' keys are a double and a
  // string: their rows ride the section's inline-tagged lane, restore
  // checks them row by row, and the restored operator emits what the
  // original does.
  auto make = [] {
    return GroupAggregateOp("g", InSchema(), {0}, AllAggs(), Seconds(10),
                            /*emit_partials=*/false);
  };
  GroupAggregateOp op = make();
  RecordBatch sink;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, 1, 2.0), &sink).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(2, 0, 2.5, 4.0), &sink).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(3, 0, "x", 8.0), &sink).ok());
  ser::BufferWriter w;
  ASSERT_TRUE(op.ExportStateDelta(&w, StateExport::kFull).ok());
  GroupAggregateOp restored = make();
  ser::BufferReader r(w.data().data(), w.size());
  ASSERT_TRUE(restored.RestoreState(&r).ok());
  EXPECT_TRUE(r.AtEnd());

  RecordBatch want, got;
  ASSERT_TRUE(op.OnWatermark(Seconds(10), &want).ok());
  ASSERT_TRUE(restored.OnWatermark(Seconds(10), &got).ok());
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(got, want);
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 15];
  }
  return s;
}

// Groups leave the operator in encoded-key order: [type tag][little-endian
// payload] for numbers, [tag][varint length][bytes] for strings, compared
// as unsigned bytes with a shorter prefix first. That order is not value
// order, so a table that iterates in hash or insertion order fails here:
// 256 (00 01 ..) sorts before 1 (01 00 ..) and -1 (ff ff ..) last; "b"
// (length 1) sorts before "ab" (length 2); 0.0 sorts before -0.0 (sign
// bit in the last byte). The keyframe and delta bytes are pinned too: each
// window section is one row batch of the groups' kPartial rows.
struct OrderCase {
  ValueType type;
  std::vector<Value> inserted;  // first-touch order
  std::vector<Value> emitted;   // expected emission order
  std::vector<Value> touched;   // updated again after the keyframe
  const char* keyframe_hex;
  const char* delta_hex;
};

TEST(GroupAggregateTest, EmitsGroupsInEncodedKeyOrder) {
  const std::vector<OrderCase> cases = {
      {ValueType::kInt64,
       {Value(int64_t{-1}), Value(int64_t{255}), Value(int64_t{1}),
        Value(int64_t{256})},
       {Value(int64_t{256}), Value(int64_t{1}), Value(int64_t{255}),
        Value(int64_t{-1})},
       {Value(int64_t{-1}), Value(int64_t{1})},
       "00010089010380000000f21974a2040500000101010380dac409000300000300"
       "00030000800402fe030102020202000000000000104000000000000008400000"
       "000000000040000000000000f03f000000000000104000000000000008400000"
       "000000000040000000000000f03f000000000000104000000000000008400000"
       "000000000040000000000000f03f",
       "0001004d03440000007ca2bffe020500000101010380dac40900030000020104"
       "04000000000000224000000000000018400000000000000840000000000000f0"
       "3f00000000000018400000000000001440"},
      {ValueType::kString,
       {Value(std::string("ab")), Value(std::string("b")),
        Value(std::string("a"))},
       {Value(std::string("a")), Value(std::string("b")),
        Value(std::string("ab"))},
       {Value(std::string("ab")), Value(std::string("a"))},
       "0001006f036600000013368f48030502000101010380dac40900030000030000"
       "0001610162026162020202000000000000084000000000000000400000000000"
       "00f03f00000000000008400000000000000040000000000000f03f0000000000"
       "0008400000000000000040000000000000f03f",
       "000100510348000000cb6b5716020502000101010380dac40900030000000161"
       "0261620404000000000000204000000000000014400000000000000840000000"
       "000000f03f00000000000014400000000000001040"},
      {ValueType::kDouble,
       {Value(-0.0), Value(0.0)},
       {Value(0.0), Value(-0.0)},
       {Value(-0.0)},
       "0001005b0352000000ecd9219d020501000101010380dac40900030000000000"
       "0000000000000000000000008002020000000000000040000000000000f03f00"
       "00000000000040000000000000f03f0000000000000040000000000000f03f",
       "00010037032e00000009aa2b4c010501000101010380dac40900000000000000"
       "0080040000000000001040000000000000f03f0000000000000840"},
  };
  for (const OrderCase& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "key type " << static_cast<int>(c.type));
    const Schema schema =
        Schema::Of({{"k", c.type}, {"v", ValueType::kDouble}});
    const std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "sum"}};
    auto row = [](const Value& key, double v) {
      Record r;
      r.event_time = 1;
      r.window_start = 0;
      r.fields = {key, Value(v)};
      return r;
    };
    for (const bool partials : {false, true}) {
      GroupAggregateOp op("g", schema, {0}, aggs, Seconds(10), partials);
      RecordBatch sink;
      double v = 1.0;
      for (const Value& key : c.inserted) {
        ASSERT_TRUE(op.Process(row(key, v++), &sink).ok());
      }
      ser::BufferWriter keyframe;
      ASSERT_TRUE(op.ExportStateDelta(&keyframe, StateExport::kFull).ok());
      for (const Value& key : c.touched) {
        ASSERT_TRUE(op.Process(row(key, v++), &sink).ok());
      }
      ser::BufferWriter delta;
      ASSERT_TRUE(op.ExportStateDelta(&delta, StateExport::kDelta).ok());
      EXPECT_EQ(Hex(keyframe.data()), c.keyframe_hex);
      EXPECT_EQ(Hex(delta.data()), c.delta_hex);

      RecordBatch out;
      ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
      ASSERT_EQ(out.size(), c.emitted.size());
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].kind,
                  partials ? RecordKind::kPartial : RecordKind::kData);
        const Value& key = out[i].fields[0];
        ASSERT_EQ(key, c.emitted[i]) << "row " << i;
        if (c.type == ValueType::kDouble) {
          EXPECT_EQ(std::signbit(std::get<double>(key)),
                    std::signbit(std::get<double>(c.emitted[i])))
              << "row " << i;
        }
      }
    }
  }
}

TEST(GroupAggregateTest, AggKindNames) {
  EXPECT_EQ(AggKindToString(AggKind::kCount), "count");
  EXPECT_EQ(AggKindToString(AggKind::kSum), "sum");
  EXPECT_EQ(AggKindToString(AggKind::kAvg), "avg");
  EXPECT_EQ(AggKindToString(AggKind::kMin), "min");
  EXPECT_EQ(AggKindToString(AggKind::kMax), "max");
}

// Property: for any interleaving split into k partial operators, merged
// results equal direct aggregation.
class PartialMergePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PartialMergePropertyTest, AnySplitIsLossless) {
  const int k = GetParam();
  Rng rng(1000 + k);
  std::vector<AggSpec> aggs = AllAggs();

  GroupAggregateOp direct("d", InSchema(), {0}, aggs, Seconds(10), false);
  std::vector<std::unique_ptr<GroupAggregateOp>> sources;
  for (int i = 0; i < k; ++i) {
    // std::string("s").append(...) sidesteps a gcc-12 -Wrestrict false
    // positive on operator+(const char*, std::string&&).
    sources.push_back(std::make_unique<GroupAggregateOp>(
        std::string("s").append(std::to_string(i)), InSchema(),
        std::vector<size_t>{0}, aggs, Seconds(10), true));
  }
  GroupAggregateOp merge("m", InSchema(), {0}, aggs, Seconds(10), false);

  RecordBatch sink;
  for (int i = 0; i < 300; ++i) {
    const Micros window = Seconds(10) * static_cast<Micros>(rng.NextBounded(3));
    Record r = MakeWindowedRecord(window + 1, window, static_cast<int64_t>(rng.NextBounded(5)),
                   rng.NextGaussian());
    Record copy = r;
    ASSERT_TRUE(direct.Process(std::move(copy), &sink).ok());
    ASSERT_TRUE(
        sources[rng.NextBounded(k)]->Process(std::move(r), &sink).ok());
  }
  RecordBatch partials;
  for (auto& s : sources) {
    ASSERT_TRUE(s->OnWatermark(Seconds(30), &partials).ok());
  }
  for (Record& p : partials) {
    ASSERT_TRUE(merge.Process(std::move(p), &sink).ok());
  }
  RecordBatch direct_out, merged_out;
  ASSERT_TRUE(direct.OnWatermark(Seconds(30), &direct_out).ok());
  ASSERT_TRUE(merge.OnWatermark(Seconds(30), &merged_out).ok());
  EXPECT_TRUE(BatchNear(merged_out, direct_out, 1e-9)) << "split k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Splits, PartialMergePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace jarvis::stream
