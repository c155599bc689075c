// Churn stress for the multithreaded executor runtime: sources failing and
// joining mid-run. Asserts the determinism contract the paper's deployment
// story needs: no deadlock, monotone watermarks, and bit-identical results
// between threads=1 and threads=N under the same churn script.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/building_block.h"
#include "stream/watermark.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::core {
namespace {

// ---------------------------------------------------------------------------
// BuildingBlock churn: the real executors under join/leave, with the
// multithreaded run held bit-identical to the serial reference.
// ---------------------------------------------------------------------------

query::CompiledQuery CompileS2S() {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  return std::move(compiled).value();
}

BuildingBlock::SourceSpec MakeSpec(uint64_t seed, int pairs) {
  BuildingBlock::SourceSpec spec;
  spec.cost_model = std::make_shared<FixedCostModel>(
      std::vector<double>{1e-6, 2e-6, 1e-5});
  spec.options.cpu_budget_fraction = 0.4;  // leaves a backlog under churn
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

/// Runs the scripted churn (source 1 crashes for good in epoch 3, a source
/// joins after epoch 4) at the given thread count and returns the full
/// result batch; also asserts the merged watermark is monotone and the
/// epoch loop never errors or hangs.
stream::RecordBatch RunScriptedChurn(const query::CompiledQuery& q,
                                     int threads,
                                     std::vector<Micros>* watermarks) {
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 4; ++s) specs.push_back(MakeSpec(s, 40));
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), threads);
  EXPECT_TRUE(block.Init().ok());
  FaultToleranceOptions ft;
  ft.readmit_after_epochs = -1;  // the crash is a permanent leave
  block.EnableFaultTolerance(ft);
  auto plan = FaultPlan::Parse("crash@3:1");
  EXPECT_TRUE(plan.ok());
  block.SetFaultPlan(*plan);
  stream::RecordBatch results;
  Micros last = stream::WatermarkMerger::kUninitialized;
  for (int e = 0; e < 12; ++e) {
    EXPECT_TRUE(block.RunEpoch(&results).ok()) << "epoch " << e;
    if (e == 4) {
      auto id = block.AddSource(MakeSpec(99, 40));
      EXPECT_TRUE(id.ok());
      EXPECT_EQ(*id, 4u);
    }
    const Micros merged = block.stream_processor().merged_watermark();
    if (merged != stream::WatermarkMerger::kUninitialized) {
      EXPECT_TRUE(last == stream::WatermarkMerger::kUninitialized ||
                  merged >= last)
          << "watermark regressed at epoch " << e;
      last = merged;
    }
    watermarks->push_back(merged);
  }
  EXPECT_TRUE(block.Finish(&results).ok());
  return results;
}

TEST(ChurnStressTest, ScriptedChurnIsThreadCountInvariant) {
  const query::CompiledQuery q = CompileS2S();
  std::vector<Micros> wm_serial, wm_mt;
  const stream::RecordBatch serial = RunScriptedChurn(q, 1, &wm_serial);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 4}) {
    wm_mt.clear();
    const stream::RecordBatch mt = RunScriptedChurn(q, threads, &wm_mt);
    // Bit-identical results and watermark trajectory: churn does not erode
    // the cross-thread determinism contract.
    EXPECT_EQ(mt, serial) << "threads=" << threads;
    EXPECT_EQ(wm_mt, wm_serial) << "threads=" << threads;
  }
}

TEST(ChurnStressTest, JoinerParticipatesAndHoldsThenReleasesWatermark) {
  const query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  specs.push_back(MakeSpec(5, 30));
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), 2);
  ASSERT_TRUE(block.Init().ok());
  stream::RecordBatch results;
  for (int e = 0; e < 3; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
  const Micros before_join = block.stream_processor().merged_watermark();
  ASSERT_NE(before_join, stream::WatermarkMerger::kUninitialized);

  ASSERT_TRUE(block.AddSource(MakeSpec(6, 30)).ok());
  // The joiner has not reported yet: the merged watermark must hold (not
  // regress, not advance past the newcomer).
  EXPECT_EQ(block.stream_processor().merged_watermark(),
            stream::WatermarkMerger::kUninitialized);
  ASSERT_TRUE(block.RunEpoch(&results).ok());
  const Micros after_join = block.stream_processor().merged_watermark();
  EXPECT_GE(after_join, before_join);
  for (int e = 0; e < 8; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
  ASSERT_TRUE(block.Finish(&results).ok());
  // Both sources' pairs appear in the results: the joiner really ran.
  std::set<int64_t> src_ips;
  for (const stream::Record& r : results) src_ips.insert(r.i64(0));
  EXPECT_GE(src_ips.size(), 2u);
}

}  // namespace
}  // namespace jarvis::core
