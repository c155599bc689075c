#include <gtest/gtest.h>

#include "core/source_executor.h"
#include "core/stepwise_adapt.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::core {
namespace {

constexpr double kCostW = 1e-5;
constexpr double kCostF = 2e-5;
constexpr double kCostG = 1e-4;

query::CompiledQuery CompileS2S() {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  return std::move(compiled).value();
}

std::shared_ptr<const CostModel> S2SCosts() {
  return std::make_shared<FixedCostModel>(
      std::vector<double>{kCostW, kCostF, kCostG});
}

stream::RecordBatch ProbeBatch(int n, Micros t0 = 0) {
  workloads::PingmeshConfig cfg;
  cfg.num_pairs = n;
  cfg.probe_interval = Seconds(1);
  workloads::PingmeshGenerator gen(cfg);
  stream::RecordBatch batch = gen.Generate(t0, t0 + Seconds(1));
  EXPECT_EQ(batch.size(), static_cast<size_t>(n));
  return batch;
}

TEST(SourceExecutorTest, AllLoadFactorsZeroDrainsRawInput) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({0, 0, 0});
  exec.Ingest(ProbeBatch(100));
  auto out = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->DrainedRecords(), 100u);
  for (const DrainRecord& dr : out->FlattenDrain()) {
    EXPECT_EQ(dr.sp_entry_op, 0u);
    EXPECT_EQ(dr.record.kind, stream::RecordKind::kData);
  }
  EXPECT_NEAR(out->observation.cpu_spent_seconds, 0.0, 1e-12);
}

TEST(SourceExecutorTest, FullLoadProcessesLocallyAndEmitsPartials) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(100));
  auto out = exec.RunEpoch(Seconds(20), false);
  ASSERT_TRUE(out.ok());
  // Everything processed locally; G+R exports partial rows on window close.
  ASSERT_GT(out->DrainedRecords(), 0u);
  for (const DrainRecord& dr : out->FlattenDrain()) {
    EXPECT_EQ(dr.record.kind, stream::RecordKind::kPartial);
    EXPECT_EQ(dr.sp_entry_op, 2u);  // merged into the SP's G+R
  }
  EXPECT_GT(out->observation.cpu_spent_seconds, 0.0);
}

TEST(SourceExecutorTest, PartialLoadFactorSplitsAtTheRightProxy) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 0.5});
  exec.Ingest(ProbeBatch(200));
  auto out = exec.RunEpoch(Seconds(20), false);
  ASSERT_TRUE(out.ok());
  size_t drained_at_2 = 0, partials = 0;
  for (const DrainRecord& dr : out->FlattenDrain()) {
    if (dr.record.kind == stream::RecordKind::kData) {
      EXPECT_EQ(dr.sp_entry_op, 2u);  // drained before the G+R operator
      ++drained_at_2;
    } else {
      ++partials;
    }
  }
  // The filter keeps ~86%, half of which is drained.
  const auto& proxies = out->observation.proxies;
  EXPECT_EQ(proxies[2].drained, drained_at_2);
  EXPECT_NEAR(static_cast<double>(drained_at_2),
              0.5 * static_cast<double>(proxies[2].arrived), 1.0);
  EXPECT_GT(partials, 0u);
}

TEST(SourceExecutorTest, BudgetExhaustionLeavesPendingRecords) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutorOptions opts;
  // Budget fits W+F for 1000 records but only a fraction of G+R:
  // 1000*(1e-5+2e-5) = 0.03; G+R needs ~860*1e-4 = 0.086.
  opts.cpu_budget_fraction = 0.05;
  SourceExecutor exec(q, S2SCosts(), opts);
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(1000));
  auto out = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->observation.proxies[2].pending, 0u);
  EXPECT_LE(out->observation.cpu_spent_seconds, 0.05 + 1e-9);
  EXPECT_EQ(ClassifyQueryState(out->observation, StepwiseConfig{}),
            QueryState::kCongested);
}

TEST(SourceExecutorTest, PendingRecordsCarryOverToNextEpoch) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = 0.05;
  SourceExecutor exec(q, S2SCosts(), opts);
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(1000));
  auto first = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(first.ok());
  const uint64_t pending = first->observation.proxies[2].pending;
  ASSERT_GT(pending, 0u);
  // No new input: the backlog drains in the next epoch.
  auto second = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->observation.proxies[2].pending, pending);
  EXPECT_GT(second->observation.cpu_spent_seconds, 0.0);
}

TEST(SourceExecutorTest, ProfileModeProducesProfiles) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(1000));
  auto out = exec.RunEpoch(Seconds(1), true);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->observation.profiles_valid);
  ASSERT_EQ(out->observation.profiles.size(), 3u);
  // Relay of the filter is the 14% error drop.
  EXPECT_NEAR(out->observation.profiles[1].relay_records, 0.86, 0.05);
  // Full coverage => exact costs.
  EXPECT_NEAR(out->observation.profiles[0].cost_per_record, kCostW, 1e-12);
}

TEST(SourceExecutorTest, UndersampledProfileUnderestimatesCost) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = 0.05;  // cannot process everything
  opts.profile_error_magnitude = 0.4;
  SourceExecutor exec(q, S2SCosts(), opts);
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(2000));
  auto out = exec.RunEpoch(Seconds(1), true);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->observation.profiles_valid);
  // G+R could not see all records: its estimate is biased low.
  EXPECT_LT(out->observation.profiles[2].cost_per_record, kCostG);
}

TEST(SourceExecutorTest, DrainedBytesAccounted) {
  // Everything drained at entry 0, then drains split across entries: the
  // chunks are maximal same-entry runs and the bytes are exactly theirs.
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  const std::vector<std::vector<double>> plans = {{0, 0, 0}, {1, 0.5, 0.25}};
  for (size_t e = 0; e < plans.size(); ++e) {
    exec.SetLoadFactors(plans[e]);
    exec.Ingest(ProbeBatch(40, Seconds(e)));
    auto out = exec.RunEpoch(Seconds(e + 1), false);
    ASSERT_TRUE(out.ok());
    ASSERT_FALSE(out->to_sp.empty());
    for (size_t c = 1; c < out->to_sp.size(); ++c) {
      EXPECT_NE(out->to_sp[c].sp_entry_op, out->to_sp[c - 1].sp_entry_op);
    }
    const uint64_t reported = out->drained_bytes;
    uint64_t expected = 0;
    for (const DrainRecord& dr : out->FlattenDrain()) {
      expected += stream::WireSize(dr.record);
    }
    EXPECT_EQ(reported, expected) << "plan " << e;
  }
}

TEST(SourceExecutorTest, SetCpuBudgetTakesEffect) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = 0.05;
  SourceExecutor exec(q, S2SCosts(), opts);
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(1000));
  auto constrained = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(constrained.ok());
  EXPECT_GT(constrained->observation.proxies[2].pending, 0u);

  exec.SetCpuBudget(1.0);
  exec.Ingest(ProbeBatch(1000, Seconds(1)));
  auto relaxed = exec.RunEpoch(Seconds(2), false);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->observation.proxies[2].pending, 0u);
}

TEST(SourceExecutorTest, ObservationInputRecordsMatchesIngest) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.Ingest(ProbeBatch(123));
  auto out = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->observation.input_records, 123u);
}

}  // namespace
}  // namespace jarvis::core
