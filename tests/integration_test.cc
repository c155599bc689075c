#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "core/runtime.h"
#include "core/source_executor.h"
#include "core/sp_executor.h"
#include "query/query_builder.h"
#include "workloads/loganalytics.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis {
namespace {

using core::DrainRecord;
using core::FixedCostModel;
using core::SourceEpochOutput;
using core::SourceExecutor;
using core::SourceExecutorOptions;
using core::SpExecutor;
using stream::Record;
using stream::RecordBatch;

/// Renders results to comparable strings with doubles rounded to 6 digits
/// (partial-aggregate merge reorders float additions).
std::multiset<std::string> Canonicalize(const RecordBatch& results) {
  std::multiset<std::string> out;
  for (const Record& r : results) {
    std::ostringstream os;
    os << r.window_start << "|";
    for (const stream::Value& v : r.fields) {
      switch (stream::TypeOf(v)) {
        case stream::ValueType::kInt64:
          os << std::get<int64_t>(v);
          break;
        case stream::ValueType::kDouble: {
          os.precision(9);
          os << std::get<double>(v);
          break;
        }
        case stream::ValueType::kString:
          os << std::get<std::string>(v);
          break;
      }
      os << ",";
    }
    out.insert(os.str());
  }
  return out;
}

/// Runs a compiled query end to end on the real engine: `epochs` one-second
/// epochs of generated data, a data source with the given load factors, and
/// a stream processor that merges. Returns the canonicalized final results.
std::multiset<std::string> RunEndToEnd(
    const query::CompiledQuery& q, const std::vector<double>& lfs,
    const std::function<RecordBatch(Micros, Micros)>& generate, int epochs,
    double budget = 1e9 /* effectively unconstrained */) {
  auto costs = std::make_shared<FixedCostModel>(
      std::vector<double>(q.num_source_ops(), 1e-7));
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = budget;
  SourceExecutor source(q, costs, opts);
  EXPECT_TRUE(source.Init().ok());
  source.SetLoadFactors(lfs);
  SpExecutor sp(q, 1);
  EXPECT_TRUE(sp.Init().ok());

  RecordBatch results;
  for (int e = 0; e < epochs; ++e) {
    source.Ingest(generate(Seconds(e), Seconds(e + 1)));
    auto out = source.RunEpoch(Seconds(e + 1), false);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(sp.Consume(0, std::move(out).value(), &results).ok());
    EXPECT_TRUE(sp.EndEpoch(&results).ok());
  }
  // Flush the tail: advance far and export any remaining state.
  auto tail = source.RunEpoch(Seconds(epochs + 100), false);
  EXPECT_TRUE(tail.ok());
  EXPECT_TRUE(sp.Consume(0, std::move(tail).value(), &results).ok());
  EXPECT_TRUE(sp.EndEpoch(&results).ok());
  return Canonicalize(results);
}

query::CompiledQuery CompileS2S() {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  return std::move(compiled).value();
}

std::function<RecordBatch(Micros, Micros)> PingmeshSource(int pairs) {
  workloads::PingmeshConfig cfg;
  cfg.num_pairs = pairs;
  cfg.probe_interval = Seconds(1);
  auto gen = std::make_shared<workloads::PingmeshGenerator>(cfg);
  return [gen](Micros from, Micros to) { return gen->Generate(from, to); };
}

TEST(IntegrationTest, S2SAllSpProducesAggregates) {
  query::CompiledQuery q = CompileS2S();
  auto results = RunEndToEnd(q, {0, 0, 0}, PingmeshSource(20), 25);
  // 25s of data, 10s windows: at least two full windows of 20 pairs each.
  EXPECT_GE(results.size(), 40u);
}

// The paper's central accuracy claim: *any* data-level split produces the
// same query output as centralized execution.
class SplitEquivalenceTest
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(SplitEquivalenceTest, ResultsMatchAllSpExecution) {
  query::CompiledQuery q = CompileS2S();
  auto reference = RunEndToEnd(q, {0, 0, 0}, PingmeshSource(30), 22);
  auto split = RunEndToEnd(q, GetParam(), PingmeshSource(30), 22);
  EXPECT_EQ(reference, split);
}

INSTANTIATE_TEST_SUITE_P(
    LoadFactorGrid, SplitEquivalenceTest,
    ::testing::Values(std::vector<double>{1, 1, 1},
                      std::vector<double>{1, 1, 0.5},
                      std::vector<double>{1, 0.5, 0.5},
                      std::vector<double>{0.3, 0.7, 0.9},
                      std::vector<double>{1, 1, 0},
                      std::vector<double>{0.5, 0, 1},
                      std::vector<double>{0.9, 0.1, 0.6}));

TEST(IntegrationTest, T2TEndToEndAggregatesByTorPair) {
  auto src_table = workloads::MakeIpToTorTable(0, 200, 10, "srcToR");
  auto dst_table = workloads::MakeIpToTorTable(0, 200, 10, "dstToR");
  auto plan = workloads::MakeT2TProbeQuery(src_table, dst_table);
  ASSERT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  ASSERT_TRUE(compiled.ok());

  auto reference =
      RunEndToEnd(*compiled, std::vector<double>(6, 0.0), PingmeshSource(50),
                  22);
  auto split = RunEndToEnd(*compiled, {1, 1, 1, 0.5, 1, 0.5},
                           PingmeshSource(50), 22);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(reference, split);
}

TEST(IntegrationTest, LogAnalyticsEndToEndHistograms) {
  auto plan = workloads::MakeLogAnalyticsQuery();
  ASSERT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->num_source_ops(), 6u);

  workloads::LogAnalyticsConfig cfg;
  cfg.lines_per_sec = 200;
  cfg.num_tenants = 5;
  auto gen = std::make_shared<workloads::LogAnalyticsGenerator>(cfg);
  auto source = [gen](Micros from, Micros to) {
    return gen->Generate(from, to);
  };

  auto reference = RunEndToEnd(*compiled, std::vector<double>(6, 0.0),
                               source, 22);
  auto split = RunEndToEnd(*compiled, {1, 1, 1, 1, 0.5, 0.5}, source, 22);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(reference, split);
}

TEST(IntegrationTest, JarvisRuntimeDrivesRealExecutorToStability) {
  query::CompiledQuery q = CompileS2S();
  // Costs such that the full query needs ~0.9 cores at 2000 records/s.
  auto costs = std::make_shared<FixedCostModel>(
      std::vector<double>{0.02 / 2000, 0.13 / 2000, 0.75 / (2000 * 0.86)});
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = 0.6;
  opts.profile_error_magnitude = 0.3;
  SourceExecutor source(q, costs, opts);
  ASSERT_TRUE(source.Init().ok());
  SpExecutor sp(q, 1);
  core::JarvisRuntime runtime(3, core::RuntimeConfig{});

  workloads::PingmeshConfig pcfg;
  pcfg.num_pairs = 2000;
  pcfg.probe_interval = Seconds(1);
  workloads::PingmeshGenerator gen(pcfg);

  RecordBatch results;
  bool profile = false;
  int stable_streak = 0;
  for (int e = 0; e < 40; ++e) {
    source.Ingest(gen.Generate(Seconds(e), Seconds(e + 1)));
    auto out = source.RunEpoch(Seconds(e + 1), profile);
    ASSERT_TRUE(out.ok());
    const auto obs = out->observation;
    ASSERT_TRUE(sp.Consume(0, std::move(out).value(), &results).ok());
    ASSERT_TRUE(sp.EndEpoch(&results).ok());
    auto decision = runtime.OnEpochEnd(obs);
    source.SetLoadFactors(decision.load_factors);
    profile = decision.request_profile;
    if (decision.flush_pending) source.RequestFlush();
    if (runtime.phase() == core::Phase::kProbe &&
        runtime.last_state() == core::QueryState::kStable &&
        runtime.adaptations_completed() > 0) {
      if (++stable_streak >= 5) break;
    } else {
      stable_streak = 0;
    }
  }
  EXPECT_GE(stable_streak, 5);
  // The converged plan keeps some processing local (not all-zero).
  EXPECT_GT(runtime.load_factors()[0], 0.0);
  // Advance event time far enough to close any open windows, then check the
  // query produced output.
  auto tail = source.RunEpoch(Seconds(1000), false);
  ASSERT_TRUE(tail.ok());
  ASSERT_TRUE(sp.Consume(0, std::move(tail).value(), &results).ok());
  ASSERT_TRUE(sp.EndEpoch(&results).ok());
  EXPECT_FALSE(results.empty());
}

TEST(IntegrationTest, DrainedRecordsSurviveSerialization) {
  // The wire format carries drained records faithfully: serialize the drain
  // stream, deserialize at the SP, and compare results to direct handoff.
  query::CompiledQuery q = CompileS2S();
  auto costs = std::make_shared<FixedCostModel>(
      std::vector<double>{1e-7, 1e-7, 1e-7});
  SourceExecutor source(q, costs, SourceExecutorOptions{});
  ASSERT_TRUE(source.Init().ok());
  source.SetLoadFactors({1, 1, 0.5});
  SpExecutor sp(q, 1);

  workloads::PingmeshConfig pcfg;
  pcfg.num_pairs = 40;
  pcfg.probe_interval = Seconds(1);
  workloads::PingmeshGenerator gen(pcfg);

  RecordBatch results;
  for (int e = 0; e < 12; ++e) {
    source.Ingest(gen.Generate(Seconds(e), Seconds(e + 1)));
    auto out = source.RunEpoch(Seconds(e + 1), false);
    ASSERT_TRUE(out.ok());
    // Round-trip every drained record through the record format.
    SourceEpochOutput rebuilt;
    rebuilt.watermark = out->watermark;
    for (core::DrainChunk& chunk : out->to_sp) {
      for (const Record& rec : chunk.rows) {
        ser::BufferWriter w;
        stream::SerializeRecord(rec, &w);
        ser::BufferReader r(w.data());
        Record decoded;
        ASSERT_TRUE(stream::DeserializeRecord(&r, &decoded).ok());
        rebuilt.AppendDrainRows(chunk.sp_entry_op,
                                RecordBatch{std::move(decoded)});
      }
    }
    ASSERT_TRUE(sp.Consume(0, std::move(rebuilt), &results).ok());
    ASSERT_TRUE(sp.EndEpoch(&results).ok());
  }
  EXPECT_FALSE(results.empty());
}

TEST(IntegrationTest, StatelessDrainSurvivesTheWire) {
  // Same round-trip guarantee for a stateless query through the real drain
  // wire: SerializeDrain -> DecodeDrain must carry every chunk to the SP
  // with results identical to direct handoff.
  query::QueryBuilder builder(workloads::PingmeshGenerator::Schema());
  builder.Window(Seconds(1)).FilterI64Eq("errCode", 0);
  builder.Project({"srcIp", "dstIp", "rtt"});
  auto plan = builder.Build();
  ASSERT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  ASSERT_TRUE(compiled.ok());
  auto costs = std::make_shared<FixedCostModel>(
      std::vector<double>{1e-7, 1e-7, 1e-7});
  SourceExecutor source(*compiled, costs, SourceExecutorOptions{});
  ASSERT_TRUE(source.Init().ok());
  source.SetLoadFactors({1, 0.5, 0.5});
  SpExecutor direct_sp(*compiled, 1), wire_sp(*compiled, 1);

  workloads::PingmeshConfig pcfg;
  pcfg.num_pairs = 60;
  pcfg.probe_interval = Seconds(1);
  workloads::PingmeshGenerator gen(pcfg);

  RecordBatch direct_results, wire_results;
  for (int e = 0; e < 6; ++e) {
    source.Ingest(gen.Generate(Seconds(e), Seconds(e + 1)));
    auto out = source.RunEpoch(Seconds(e + 1), false);
    ASSERT_TRUE(out.ok());

    SourceEpochOutput copy = *out;
    uint32_t seq = 0;
    const core::WireDrain wire = core::SerializeDrain(&copy, &seq);
    EXPECT_GT(wire.frame_count, 0u);
    SourceEpochOutput rebuilt;
    rebuilt.watermark = out->watermark;
    ASSERT_TRUE(core::DecodeDrain(wire, &rebuilt.to_sp).ok());
    ASSERT_EQ(rebuilt.DrainedRecords(), out->DrainedRecords());
    ASSERT_TRUE(wire_sp.Consume(0, std::move(rebuilt), &wire_results).ok());
    ASSERT_TRUE(
        direct_sp.Consume(0, std::move(out).value(), &direct_results).ok());
    ASSERT_TRUE(wire_sp.EndEpoch(&wire_results).ok());
    ASSERT_TRUE(direct_sp.EndEpoch(&direct_results).ok());
  }
  EXPECT_FALSE(direct_results.empty());
  EXPECT_EQ(wire_results, direct_results);
}

}  // namespace
}  // namespace jarvis
