#include <gtest/gtest.h>

#include "core/sp_executor.h"
#include "query/query_builder.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::core {
namespace {

query::CompiledQuery CompileS2S() {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  return std::move(compiled).value();
}

SourceEpochOutput RawEpoch(const stream::RecordBatch& records, Micros wm) {
  SourceEpochOutput out;
  stream::RecordBatch copy = records;
  out.AppendDrainRows(0, std::move(copy));
  out.watermark = wm;
  return out;
}

stream::RecordBatch Probes(int n, Micros t0, uint64_t seed = 42) {
  workloads::PingmeshConfig cfg;
  cfg.num_pairs = n;
  cfg.probe_interval = Seconds(1);
  cfg.seed = seed;
  workloads::PingmeshGenerator gen(cfg);
  return gen.Generate(t0, t0 + Seconds(1));
}

TEST(SpExecutorTest, SingleSourceEndToEnd) {
  query::CompiledQuery q = CompileS2S();
  SpExecutor sp(q, 1);
  ASSERT_TRUE(sp.Init().ok());
  stream::RecordBatch results;
  ASSERT_TRUE(sp.Consume(0, RawEpoch(Probes(50, 0), Seconds(1)), &results).ok());
  ASSERT_TRUE(sp.EndEpoch(&results).ok());
  EXPECT_TRUE(results.empty());  // window still open
  ASSERT_TRUE(sp.Consume(0, RawEpoch({}, Seconds(10)), &results).ok());
  ASSERT_TRUE(sp.EndEpoch(&results).ok());
  EXPECT_FALSE(results.empty());  // window [0, 10s) closed
  for (const stream::Record& r : results) {
    EXPECT_EQ(r.kind, stream::RecordKind::kData);
    EXPECT_EQ(r.fields.size(), 5u);  // srcIp, dstIp, avg, max, min
  }
}

TEST(SpExecutorTest, WindowHeldOpenUntilAllSourcesAdvance) {
  query::CompiledQuery q = CompileS2S();
  SpExecutor sp(q, 2);
  ASSERT_TRUE(sp.Init().ok());
  stream::RecordBatch results;
  // Source 0 advances past the window; source 1 lags.
  ASSERT_TRUE(
      sp.Consume(0, RawEpoch(Probes(10, 0), Seconds(12)), &results).ok());
  ASSERT_TRUE(sp.EndEpoch(&results).ok());
  EXPECT_TRUE(results.empty());  // source 1 has not reported yet

  ASSERT_TRUE(
      sp.Consume(1, RawEpoch(Probes(10, 0, 43), Seconds(5)), &results).ok());
  ASSERT_TRUE(sp.EndEpoch(&results).ok());
  EXPECT_TRUE(results.empty());  // min watermark is 5s < window end

  ASSERT_TRUE(sp.Consume(1, RawEpoch({}, Seconds(11)), &results).ok());
  ASSERT_TRUE(sp.EndEpoch(&results).ok());
  EXPECT_FALSE(results.empty());  // both sources past 10s
}

TEST(SpExecutorTest, DrainedRecordsResumeAtTaggedOperator) {
  query::CompiledQuery q = CompileS2S();
  SpExecutor sp(q, 1);
  ASSERT_TRUE(sp.Init().ok());
  stream::RecordBatch results;
  // A record with errCode != 0 drained *after* the filter (entry 2) must
  // not be filtered again: it reaches the aggregate.
  stream::Record bad = Probes(1, 0)[0];
  bad.fields[workloads::PingmeshGenerator::kErrCode] =
      stream::Value(int64_t{1});
  bad.window_start = 0;
  SourceEpochOutput out;
  out.AppendDrainRows(2, stream::RecordBatch{bad});
  out.watermark = Seconds(11);
  ASSERT_TRUE(sp.Consume(0, std::move(out), &results).ok());
  ASSERT_TRUE(sp.EndEpoch(&results).ok());
  ASSERT_EQ(results.size(), 1u);

  // The same record entering at 0 goes through the filter and is dropped.
  SpExecutor sp2(q, 1);
  stream::RecordBatch results2;
  SourceEpochOutput out2;
  out2.AppendDrainRows(0, stream::RecordBatch{bad});
  out2.watermark = Seconds(11);
  ASSERT_TRUE(sp2.Consume(0, std::move(out2), &results2).ok());
  ASSERT_TRUE(sp2.EndEpoch(&results2).ok());
  EXPECT_TRUE(results2.empty());
}

TEST(SpExecutorTest, UnknownSourceRejected) {
  query::CompiledQuery q = CompileS2S();
  SpExecutor sp(q, 1);
  stream::RecordBatch results;
  EXPECT_EQ(sp.Consume(5, RawEpoch({}, 0), &results).code(),
            StatusCode::kOutOfRange);
}

TEST(SpExecutorTest, BadEntryOperatorRejected) {
  query::CompiledQuery q = CompileS2S();
  SpExecutor sp(q, 1);
  stream::RecordBatch results;
  SourceEpochOutput out;
  out.AppendDrainRows(17, stream::RecordBatch{stream::Record{}});
  out.watermark = 0;
  EXPECT_EQ(sp.Consume(0, std::move(out), &results).code(),
            StatusCode::kOutOfRange);
}

TEST(SpExecutorTest, FlushEmitsRemainingState) {
  query::CompiledQuery q = CompileS2S();
  SpExecutor sp(q, 1);
  stream::RecordBatch results;
  ASSERT_TRUE(sp.Consume(0, RawEpoch(Probes(5, 0), Seconds(1)), &results).ok());
  ASSERT_TRUE(sp.EndEpoch(&results).ok());
  ASSERT_TRUE(results.empty());
  ASSERT_TRUE(sp.Flush(&results).ok());
  EXPECT_FALSE(results.empty());
}

TEST(SpExecutorTest, FramesMatchInMemoryChunks) {
  // ConsumeFrame's decode-and-push must produce exactly the results Consume
  // gets from the same chunks in memory: raw input at entry 0 plus a run
  // resuming past the filter, shipped as compressed frames.
  query::QueryBuilder builder(workloads::PingmeshGenerator::Schema());
  builder.Window(Seconds(1)).FilterI64Eq("errCode", 0);
  builder.Project({"srcIp", "dstIp", "rtt"});
  auto plan = builder.Build();
  ASSERT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  ASSERT_TRUE(compiled.ok());

  SpExecutor mem_sp(*compiled, 1), wire_sp(*compiled, 1);
  ASSERT_TRUE(mem_sp.Init().ok());
  ASSERT_TRUE(wire_sp.Init().ok());
  SourceEpochOutput out = RawEpoch(Probes(120, 0), Seconds(2));
  stream::RecordBatch tail = Probes(30, Seconds(1), 99);
  for (stream::Record& r : tail) r.window_start = Seconds(1);
  out.AppendDrainRows(2, std::move(tail));

  SourceEpochOutput copy = out;
  uint32_t seq = 0;
  const WireDrain wire =
      SerializeDrain(&copy, &seq, WireCodecOptions{.compress = true});
  ASSERT_EQ(wire.frame_count, 2u);
  stream::RecordBatch mem_results, wire_results;
  for (const WireFrame& f : wire.frames) {
    Result<FrameDisposition> d = wire_sp.ConsumeFrame(0, f, &wire_results);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, FrameDisposition::kDelivered);
  }
  wire_sp.ConsumeWatermark(0, out.watermark);
  ASSERT_TRUE(mem_sp.Consume(0, std::move(out), &mem_results).ok());
  ASSERT_TRUE(mem_sp.EndEpoch(&mem_results).ok());
  ASSERT_TRUE(wire_sp.EndEpoch(&wire_results).ok());
  EXPECT_FALSE(mem_results.empty());
  EXPECT_EQ(wire_results, mem_results);
  EXPECT_EQ(wire_sp.records_consumed(), mem_sp.records_consumed());
}

TEST(SpExecutorTest, T2TEntryWidthsCoverBothJoins) {
  // The SP's T2T chain: window filter join join project g+r. Rows entering
  // at or before the second join reach 8 fields in place, the projection
  // keeps 3, and rows entering at the G+R (or past the end) keep their own
  // arity.
  auto src = workloads::MakeIpToTorTable(0, 1000, 10, "srcToR");
  auto dst = workloads::MakeIpToTorTable(0, 1000, 10, "dstToR");
  auto plan = workloads::MakeT2TProbeQuery(src, dst);
  ASSERT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  ASSERT_TRUE(compiled.ok());
  auto pipeline = compiled->MakeSpPipeline();
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ((*pipeline)->InPlaceWidths(),
            (std::vector<size_t>{8, 8, 8, 8, 3, 0, 0}));
}

TEST(SpExecutorTest, JoinsAppendToDecodedRowsInPlace) {
  // A chain that ends at its joins hands back the decoded rows themselves.
  // Decoded at the joined width, each holds exactly its 8 fields: reserve
  // allocates what it is asked for, and an append past a row decoded at its
  // 6-field wire arity would have doubled the capacity instead.
  auto src = workloads::MakeIpToTorTable(0, 1000, 10, "srcToR");
  auto dst = workloads::MakeIpToTorTable(0, 1000, 10, "dstToR");
  query::QueryBuilder builder(workloads::PingmeshGenerator::Schema());
  builder.Window(Seconds(1)).FilterI64Eq("errCode", 0);
  builder.Join(src, "srcIp");
  builder.Join(dst, "dstIp");
  auto plan = builder.Build();
  ASSERT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  ASSERT_TRUE(compiled.ok());

  SpExecutor mem_sp(*compiled, 1), wire_sp(*compiled, 1);
  ASSERT_TRUE(mem_sp.Init().ok());
  ASSERT_TRUE(wire_sp.Init().ok());
  SourceEpochOutput out = RawEpoch(Probes(200, 0), Seconds(2));
  SourceEpochOutput copy = out;
  uint32_t seq = 0;
  const WireDrain wire = SerializeDrain(&copy, &seq, WireCodecOptions{});
  stream::RecordBatch mem_results, wire_results;
  for (const WireFrame& f : wire.frames) {
    Result<FrameDisposition> d = wire_sp.ConsumeFrame(0, f, &wire_results);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, FrameDisposition::kDelivered);
  }
  ASSERT_TRUE(mem_sp.Consume(0, std::move(out), &mem_results).ok());
  ASSERT_FALSE(wire_results.empty());
  EXPECT_EQ(wire_results, mem_results);
  for (const stream::Record& rec : wire_results) {
    ASSERT_EQ(rec.fields.size(), 8u);
    EXPECT_EQ(rec.fields.capacity(), 8u);
  }
}

TEST(SpExecutorTest, WatermarkNeverRegresses) {
  query::CompiledQuery q = CompileS2S();
  SpExecutor sp(q, 1);
  stream::RecordBatch results;
  ASSERT_TRUE(sp.Consume(0, RawEpoch({}, Seconds(20)), &results).ok());
  ASSERT_TRUE(sp.EndEpoch(&results).ok());
  EXPECT_EQ(sp.merged_watermark(), Seconds(20));
  ASSERT_TRUE(sp.Consume(0, RawEpoch({}, Seconds(15)), &results).ok());
  EXPECT_EQ(sp.merged_watermark(), Seconds(20));
}

}  // namespace
}  // namespace jarvis::core
