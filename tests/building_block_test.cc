#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/building_block.h"
#include "workloads/loganalytics.h"
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

BuildingBlock::SourceSpec MakeSpec(uint64_t seed, double budget,
                                   int pairs = 100) {
  BuildingBlock::SourceSpec spec;
  spec.cost_model = std::make_shared<FixedCostModel>(
      std::vector<double>{1e-6, 2e-6, 1e-5});
  spec.options.cpu_budget_fraction = budget;
  workloads::PingmeshConfig cfg;
  cfg.seed = seed;
  cfg.source_ip = static_cast<int64_t>(seed) * 100000;
  cfg.num_pairs = pairs;
  cfg.probe_interval = Seconds(1);
  auto gen = std::make_shared<workloads::PingmeshGenerator>(cfg);
  spec.generate = [gen](Micros from, Micros to) {
    return gen->Generate(from, to);
  };
  return spec;
}

TEST(BuildingBlockTest, SingleSourceEndToEnd) {
  query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  specs.push_back(MakeSpec(1, 1.0));
  BuildingBlock block(q, std::move(specs));
  ASSERT_TRUE(block.Init().ok());
  stream::RecordBatch results;
  for (int e = 0; e < 25; ++e) {
    ASSERT_TRUE(block.RunEpoch(&results).ok());
  }
  EXPECT_FALSE(results.empty());
  // The runtime adapted at least once and converged.
  EXPECT_GT(block.runtime(0).adaptations_completed(), 0);
}

TEST(BuildingBlockTest, MultipleSourcesMergeAtTheStreamProcessor) {
  query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 3; ++s) specs.push_back(MakeSpec(s, 1.0, 50));
  BuildingBlock block(q, std::move(specs));
  ASSERT_TRUE(block.Init().ok());
  stream::RecordBatch results;
  for (int e = 0; e < 15; ++e) {
    ASSERT_TRUE(block.RunEpoch(&results).ok());
  }
  ASSERT_TRUE(block.Finish(&results).ok());
  // 3 sources x 50 distinct (src,dst) pairs must all appear.
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const stream::Record& r : results) {
    pairs.insert({r.i64(0), r.i64(1)});
  }
  EXPECT_EQ(pairs.size(), 150u);
}

TEST(BuildingBlockTest, FailedSourceDoesNotBlockSurvivors) {
  // A permanent failure is a scripted crash with re-admission off. With
  // checkpoints off or on, its quarantine releases the dead source's
  // watermark input, so the survivor's windows keep closing.
  query::CompiledQuery q = CompileS2S();
  for (const int ckpt_interval : {-1, 1}) {
    SCOPED_TRACE(ckpt_interval);
    std::vector<BuildingBlock::SourceSpec> specs;
    specs.push_back(MakeSpec(11, 1.0, 30));
    specs.push_back(MakeSpec(12, 1.0, 30));
    BuildingBlock block(q, std::move(specs));
    ASSERT_TRUE(block.Init().ok());
    FaultToleranceOptions ft;
    ft.readmit_after_epochs = -1;
    ft.checkpoint_interval = ckpt_interval;
    block.EnableFaultTolerance(ft);
    auto plan = FaultPlan::Parse("crash@3:0");
    ASSERT_TRUE(plan.ok());
    block.SetFaultPlan(*plan);
    stream::RecordBatch results;
    for (int e = 0; e < 4; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
    ASSERT_EQ(block.health(0), SourceHealth::kQuarantined);
    const size_t before = results.size();
    for (int e = 4; e < 15; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
    EXPECT_GT(results.size(), before);
    EXPECT_EQ(block.health(0), SourceHealth::kQuarantined);
    const FaultStats& st = block.fault_stats();
    EXPECT_EQ(st.crashes, 1u);
    EXPECT_EQ(st.readmissions, 0u);
    EXPECT_EQ(st.records_sent, st.records_delivered + st.records_lost +
                                   st.records_shed + block.records_in_flight());
  }
}

TEST(BuildingBlockTest, BindingBudgetMatchesUnboundBudget) {
  // Under a binding budget, records a stage could not afford wait in its
  // queue across epochs. No window may close at the source ahead of them,
  // or they reach the stream processor after it and emit a second row.
  auto plan = workloads::MakeLogAnalyticsQuery();
  ASSERT_TRUE(plan.ok());
  auto q = query::Compile(std::move(plan).value());
  ASSERT_TRUE(q.ok());
  std::vector<double> costs(q->num_source_ops());
  for (size_t i = 0; i < costs.size(); ++i) costs[i] = 4e-4 * (1 + i % 3);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    auto run = [&](double budget) {
      std::vector<BuildingBlock::SourceSpec> specs(2);
      for (size_t s = 0; s < specs.size(); ++s) {
        specs[s].cost_model = std::make_shared<FixedCostModel>(costs);
        specs[s].options.cpu_budget_fraction = budget;
        workloads::LogAnalyticsConfig cfg;
        cfg.seed = 2 * seed + s;
        cfg.lines_per_sec = 150;
        cfg.num_tenants = 6;
        auto gen = std::make_shared<workloads::LogAnalyticsGenerator>(cfg);
        specs[s].generate = [gen](Micros from, Micros to) {
          return gen->Generate(from, to);
        };
      }
      BuildingBlock block(*q, std::move(specs));
      EXPECT_TRUE(block.Init().ok());
      stream::RecordBatch results;
      for (int e = 0; e < 33; ++e) EXPECT_TRUE(block.RunEpoch(&results).ok());
      EXPECT_TRUE(block.Finish(&results).ok());
      std::sort(results.begin(), results.end(),
                [](const stream::Record& a, const stream::Record& b) {
                  return std::tie(a.window_start, a.fields) <
                         std::tie(b.window_start, b.fields);
                });
      return results;
    };
    const stream::RecordBatch unbound = run(1e9);
    ASSERT_FALSE(unbound.empty());
    const stream::RecordBatch bound = run(0.35);
    EXPECT_EQ(bound.size(), unbound.size());
    EXPECT_TRUE(bound == unbound);
  }
}

TEST(BuildingBlockTest, PlainBlockBooksItsWire) {
  // No EnableFaultTolerance, no fault plan: the block still ships every
  // drain as sequenced frames the SP acks, and the books balance.
  query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  specs.push_back(MakeSpec(21, 0.4, 60));
  specs.push_back(MakeSpec(22, 1.0, 60));
  BuildingBlock block(q, std::move(specs));
  ASSERT_TRUE(block.Init().ok());
  stream::RecordBatch results;
  for (int e = 0; e < 12; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
  ASSERT_TRUE(block.Finish(&results).ok());
  EXPECT_FALSE(results.empty());
  const FaultStats& st = block.fault_stats();
  EXPECT_GT(st.records_sent, 0u);
  EXPECT_GT(st.frames_sent, 0u);
  EXPECT_GT(st.wire_bytes_sent, 0u);
  EXPECT_EQ(st.retransmits, 0u);
  EXPECT_EQ(st.records_sent, st.records_delivered + st.records_lost +
                                 st.records_shed + block.records_in_flight());
}

TEST(BuildingBlockTest, FinishBooksItsFlush) {
  // Finish's final flush closes the windows still open at the sources. Their
  // partial state ships as frames the wire tap sees, and it is booked like
  // any epoch's drain.
  query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  specs.push_back(MakeSpec(31, 1.0, 40));
  specs.push_back(MakeSpec(32, 1.0, 40));
  BuildingBlock block(q, std::move(specs));
  ASSERT_TRUE(block.Init().ok());
  uint64_t tapped_frames = 0;
  uint64_t tapped_bytes = 0;
  block.SetWireTap(
      [&](size_t, uint32_t, const std::vector<uint8_t>& bytes) {
        ++tapped_frames;
        tapped_bytes += bytes.size();
      });
  stream::RecordBatch results;
  // Window [10 s, 20 s) is still open after 15 epochs.
  for (int e = 0; e < 15; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
  const FaultStats before = block.fault_stats();
  const uint64_t frames_before = tapped_frames;
  const uint64_t bytes_before = tapped_bytes;
  const size_t rows_before = results.size();
  ASSERT_TRUE(block.Finish(&results).ok());
  EXPECT_GT(results.size(), rows_before);

  const FaultStats& st = block.fault_stats();
  const uint64_t flush_frames = tapped_frames - frames_before;
  EXPECT_GT(flush_frames, 0u);
  EXPECT_EQ(st.frames_sent - before.frames_sent, flush_frames);
  EXPECT_EQ(st.frames_delivered - before.frames_delivered, flush_frames);
  EXPECT_EQ(st.wire_bytes_sent - before.wire_bytes_sent,
            tapped_bytes - bytes_before);
  EXPECT_GT(st.records_sent, before.records_sent);
  EXPECT_EQ(st.records_delivered - before.records_delivered,
            st.records_sent - before.records_sent);
  EXPECT_EQ(st.records_sent, st.records_delivered + st.records_lost +
                                 st.records_shed + block.records_in_flight());
}

}  // namespace
}  // namespace jarvis::core
