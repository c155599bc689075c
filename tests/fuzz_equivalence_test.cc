// Randomized end-to-end equivalence: for each of the paper's three queries,
// random load-factor plans and CPU budgets must produce exactly the same
// final results as fully centralized execution, for multiple epochs of
// generated data — the strongest form of the paper's "no accuracy loss"
// claim, exercised across the real executor, the drain path, partial-state
// merge, and watermark handling at once.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/rng.h"
#include "core/source_executor.h"
#include "core/sp_executor.h"
#include "query/compile.h"
#include "testing/test_util.h"
#include "workloads/loganalytics.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis {
namespace {

using core::FixedCostModel;
using core::SourceExecutor;
using core::SourceExecutorOptions;
using core::SpExecutor;

std::multiset<std::string> Canonical(const stream::RecordBatch& results) {
  std::multiset<std::string> out;
  for (const stream::Record& r : results) {
    std::ostringstream os;
    os.precision(9);
    os << r.window_start << "|";
    for (const stream::Value& v : r.fields) {
      os << stream::ValueToString(v) << ",";
    }
    out.insert(os.str());
  }
  return out;
}

/// Per-record cost multiplier of the binding-budget cases: drawn costs of
/// 0.1-1.1 us become 0.2-2.2 ms, so the 0.2-1.2 core budgets bind and
/// records wait in stage queues across epochs.
constexpr double kBindingCostScale = 2000.0;

/// Runs `epochs` one-second epochs with the given plan; mid-run the plan is
/// re-randomized and a flush is requested (mimicking live adaptation).
std::multiset<std::string> ExecuteRun(
    const query::CompiledQuery& q,
    const std::function<stream::RecordBatch(Micros, Micros)>& gen,
    Rng* rng, bool centralized, int epochs, double cost_scale) {
  const size_t m = q.num_source_ops();
  std::vector<double> costs(m);
  for (double& c : costs) c = (1e-7 + rng->NextDouble() * 1e-6) * cost_scale;
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = centralized ? 1e9 : 0.2 + rng->NextDouble();
  SourceExecutor source(q, std::make_shared<FixedCostModel>(costs), opts);
  EXPECT_TRUE(source.Init().ok());
  SpExecutor sp(q, 1);

  auto random_plan = [&] {
    std::vector<double> lfs(m);
    for (double& lf : lfs) {
      const double u = rng->NextDouble();
      lf = u < 0.2 ? 0.0 : (u > 0.8 ? 1.0 : rng->NextDouble());
    }
    return lfs;
  };
  source.SetLoadFactors(centralized ? std::vector<double>(m, 0.0)
                                    : random_plan());

  stream::RecordBatch results;
  for (int e = 0; e < epochs; ++e) {
    if (!centralized && e == epochs / 2) {
      source.SetLoadFactors(random_plan());
      source.RequestFlush();
    }
    source.Ingest(gen(Seconds(e), Seconds(e + 1)));
    auto out = source.RunEpoch(Seconds(e + 1), false);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(sp.Consume(0, std::move(out).value(), &results).ok());
    EXPECT_TRUE(sp.EndEpoch(&results).ok());
  }
  // Final flush: ship the stage queues, close every window at the source,
  // then close all windows at the SP.
  source.RequestFlush();
  auto flush = source.RunEpoch(Seconds(epochs + 3600), false);
  EXPECT_TRUE(flush.ok());
  EXPECT_TRUE(sp.Consume(0, std::move(flush).value(), &results).ok());
  EXPECT_TRUE(sp.EndEpoch(&results).ok());
  return Canonical(results);
}

void CheckS2SProbe(uint64_t seed, double cost_scale) {
  Rng rng(seed);
  auto plan = workloads::MakeS2SProbeQuery();
  ASSERT_TRUE(plan.ok());
  auto q = query::Compile(std::move(plan).value());
  ASSERT_TRUE(q.ok());
  workloads::PingmeshConfig cfg;
  cfg.seed = seed;
  cfg.num_pairs = 25;
  cfg.probe_interval = Seconds(1);
  auto gen = std::make_shared<workloads::PingmeshGenerator>(cfg);
  auto source = [gen](Micros a, Micros b) { return gen->Generate(a, b); };
  auto reference = ExecuteRun(*q, source, &rng, /*centralized=*/true, 23,
                              cost_scale);
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_EQ(reference, ExecuteRun(*q, source, &rng, false, 23, cost_scale))
        << trial;
  }
}

void CheckT2TProbe(uint64_t seed, double cost_scale) {
  Rng rng(seed * 31);
  // Covers the generator's IP range (source_ip 5000, peers 5001..5030).
  auto src_table = workloads::MakeIpToTorTable(0, 10000, 10, "srcToR");
  auto dst_table = workloads::MakeIpToTorTable(0, 10000, 10, "dstToR");
  auto plan = workloads::MakeT2TProbeQuery(src_table, dst_table);
  ASSERT_TRUE(plan.ok());
  auto q = query::Compile(std::move(plan).value());
  ASSERT_TRUE(q.ok());
  workloads::PingmeshConfig cfg;
  cfg.seed = seed * 7;
  cfg.source_ip = 5000;
  cfg.num_pairs = 30;
  cfg.probe_interval = Seconds(1);
  auto gen = std::make_shared<workloads::PingmeshGenerator>(cfg);
  auto source = [gen](Micros a, Micros b) { return gen->Generate(a, b); };
  auto reference = ExecuteRun(*q, source, &rng, true, 23, cost_scale);
  ASSERT_FALSE(reference.empty());
  for (int trial = 0; trial < 2; ++trial) {
    EXPECT_EQ(reference, ExecuteRun(*q, source, &rng, false, 23, cost_scale))
        << trial;
  }
}

void CheckLogAnalytics(uint64_t seed, double cost_scale) {
  Rng rng(seed * 1337);
  auto plan = workloads::MakeLogAnalyticsQuery();
  ASSERT_TRUE(plan.ok());
  auto q = query::Compile(std::move(plan).value());
  ASSERT_TRUE(q.ok());
  workloads::LogAnalyticsConfig cfg;
  cfg.seed = seed;
  cfg.lines_per_sec = 150;
  cfg.num_tenants = 6;
  auto gen = std::make_shared<workloads::LogAnalyticsGenerator>(cfg);
  auto source = [gen](Micros a, Micros b) { return gen->Generate(a, b); };
  auto reference = ExecuteRun(*q, source, &rng, true, 23, cost_scale);
  ASSERT_FALSE(reference.empty());
  for (int trial = 0; trial < 2; ++trial) {
    EXPECT_EQ(reference, ExecuteRun(*q, source, &rng, false, 23, cost_scale))
        << trial;
  }
}

class FuzzEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEquivalenceTest, S2SProbeAnyPlanMatchesCentralized) {
  CheckS2SProbe(GetParam(), 1.0);
}

TEST_P(FuzzEquivalenceTest, T2TProbeAnyPlanMatchesCentralized) {
  CheckT2TProbe(GetParam(), 1.0);
}

TEST_P(FuzzEquivalenceTest, LogAnalyticsAnyPlanMatchesCentralized) {
  CheckLogAnalytics(GetParam(), 1.0);
}

// Binding budgets: records a stage could not afford wait in its queue
// across epochs, and no window may close ahead of them.
TEST_P(FuzzEquivalenceTest, S2SProbeBindingBudgetMatchesCentralized) {
  CheckS2SProbe(GetParam(), kBindingCostScale);
}

TEST_P(FuzzEquivalenceTest, T2TProbeBindingBudgetMatchesCentralized) {
  CheckT2TProbe(GetParam(), kBindingCostScale);
}

TEST_P(FuzzEquivalenceTest, LogAnalyticsBindingBudgetMatchesCentralized) {
  CheckLogAnalytics(GetParam(), kBindingCostScale);
}

// Seeds are pinned (1..N) so every run and every CI shard sees the same
// sequences; JARVIS_FUZZ_ITERS=<n> widens the sweep for deep local runs.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::ValuesIn(jarvis::testing::FuzzSeeds()));

}  // namespace
}  // namespace jarvis
