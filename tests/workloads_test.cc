#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "workloads/cost_profiles.h"
#include "workloads/loganalytics.h"
#include "workloads/pingmesh.h"

namespace jarvis::workloads {
namespace {

TEST(PingmeshTest, SchemaMatchesPaperLayout) {
  stream::Schema s = PingmeshGenerator::Schema();
  ASSERT_EQ(s.num_fields(), 6u);
  EXPECT_EQ(s.field(PingmeshGenerator::kSrcIp).name, "srcIp");
  EXPECT_EQ(s.field(PingmeshGenerator::kRttUs).name, "rtt");
  EXPECT_EQ(s.field(PingmeshGenerator::kErrCode).name, "errCode");
}

TEST(PingmeshTest, ProbeCountMatchesFanOutAndInterval) {
  PingmeshConfig cfg;
  cfg.num_pairs = 100;
  cfg.probe_interval = Seconds(5);
  PingmeshGenerator gen(cfg);
  // 10 seconds => 2 probe rounds of 100 pairs.
  EXPECT_EQ(gen.Generate(0, Seconds(10)).size(), 200u);
  // Half-open interval: a round at t=10 belongs to the next batch.
  EXPECT_EQ(gen.Generate(Seconds(10), Seconds(11)).size(), 100u);
}

TEST(PingmeshTest, ErrorRateNearConfigured) {
  PingmeshConfig cfg;
  cfg.num_pairs = 5000;
  cfg.probe_interval = Seconds(5);
  cfg.error_rate = 0.14;
  PingmeshGenerator gen(cfg);
  auto batch = gen.Generate(0, Seconds(5));
  int errors = 0;
  for (const auto& r : batch) {
    errors += r.i64(PingmeshGenerator::kErrCode) != 0;
  }
  EXPECT_NEAR(static_cast<double>(errors) / batch.size(), 0.14, 0.02);
}

TEST(PingmeshTest, DeterministicAcrossInstances) {
  PingmeshConfig cfg;
  cfg.num_pairs = 50;
  PingmeshGenerator a(cfg), b(cfg);
  EXPECT_EQ(a.Generate(0, Seconds(10)), b.Generate(0, Seconds(10)));
}

TEST(PingmeshTest, DifferentSeedsDiffer) {
  PingmeshConfig cfg;
  cfg.num_pairs = 50;
  PingmeshConfig cfg2 = cfg;
  cfg2.seed = 777;
  PingmeshGenerator a(cfg), b(cfg2);
  EXPECT_NE(a.Generate(0, Seconds(5)), b.Generate(0, Seconds(5)));
}

TEST(PingmeshTest, AnomalousProbesAreElevated) {
  PingmeshConfig cfg;
  cfg.num_pairs = 2000;
  cfg.anomaly_pair_fraction = 0.1;
  cfg.episode_period = Seconds(10);
  cfg.episode_duration = Seconds(10);  // always in-episode
  PingmeshGenerator gen(cfg);
  int anomalous = 0;
  for (int64_t pair = 0; pair < cfg.num_pairs; ++pair) {
    if (gen.PairAnomalous(pair, 0)) {
      ++anomalous;
      EXPECT_GE(gen.ProbeRtt(pair, 0), cfg.anomaly_rtt_us_lo);
      EXPECT_LE(gen.ProbeRtt(pair, 0), cfg.anomaly_rtt_us_hi);
    } else {
      // Healthy or moderately congested: always below the alert threshold.
      EXPECT_LT(gen.ProbeRtt(pair, 0), 5000.0);
    }
  }
  EXPECT_NEAR(static_cast<double>(anomalous) / cfg.num_pairs, 0.1, 0.03);
}

TEST(PingmeshTest, EpisodesAreTimeBounded) {
  PingmeshConfig cfg;
  cfg.anomaly_pair_fraction = 1.0;  // every pair anomalous during episodes
  cfg.episode_period = Seconds(120);
  cfg.episode_duration = Seconds(50);
  PingmeshGenerator gen(cfg);
  EXPECT_TRUE(gen.PairAnomalous(1, Seconds(10)));   // inside episode
  EXPECT_TRUE(gen.PairAnomalous(1, Seconds(49)));   // still inside
  EXPECT_FALSE(gen.PairAnomalous(1, Seconds(60)));  // between episodes
  EXPECT_TRUE(gen.PairAnomalous(1, Seconds(130)));  // next episode
}

TEST(PingmeshTest, RecordStreamMatchesGroundTruthHelpers) {
  PingmeshConfig cfg;
  cfg.num_pairs = 20;
  cfg.probe_interval = Seconds(5);
  PingmeshGenerator gen(cfg);
  auto batch = gen.Generate(0, Seconds(5));
  for (int64_t pair = 0; pair < 20; ++pair) {
    const auto& rec = batch[pair];
    EXPECT_DOUBLE_EQ(rec.f64(PingmeshGenerator::kRttUs),
                     gen.ProbeRtt(pair, 0));
    EXPECT_EQ(rec.i64(PingmeshGenerator::kErrCode) != 0,
              gen.ProbeError(pair, 0));
  }
}

/// Portable FNV-1a digest over every record's times, kind and field values
/// (doubles by bit pattern), so a generator change that reorders, drops or
/// perturbs a single record moves it.
uint64_t RowsDigest(const stream::RecordBatch& rows) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const stream::Record& r : rows) {
    mix(static_cast<uint64_t>(r.event_time));
    mix(static_cast<uint64_t>(r.window_start));
    mix(static_cast<uint64_t>(r.kind));
    mix(r.fields.size());
    for (const stream::Value& f : r.fields) {
      mix(f.index());
      if (const int64_t* i = std::get_if<int64_t>(&f)) {
        mix(static_cast<uint64_t>(*i));
      } else if (const double* d = std::get_if<double>(&f)) {
        uint64_t bits = 0;
        std::memcpy(&bits, d, sizeof(bits));
        mix(bits);
      } else {
        const std::string& str = std::get<std::string>(f);
        mix(str.size());
        for (char c : str) mix(static_cast<uint8_t>(c));
      }
    }
  }
  return h;
}

TEST(PingmeshTest, GenerateIsPinned) {
  // The constant pins Generate's output: any change to the records, their
  // order or a value's bits moves the digest.
  PingmeshConfig cfg;
  cfg.num_pairs = 120;
  cfg.probe_interval = Seconds(2);
  PingmeshGenerator gen(cfg);
  const stream::RecordBatch rows = gen.Generate(Seconds(1), Seconds(7));
  ASSERT_EQ(rows.size(), 360u);
  EXPECT_EQ(RowsDigest(rows), 0x4cec7f97e67c54b8ull);
}

TEST(LogAnalyticsTest, GenerateIsPinned) {
  LogAnalyticsConfig cfg;
  cfg.lines_per_sec = 700;
  LogAnalyticsGenerator gen(cfg);
  const stream::RecordBatch rows = gen.Generate(Seconds(3), Seconds(5));
  ASSERT_EQ(rows.size(), 1400u);
  EXPECT_EQ(RowsDigest(rows), 0xb47ec9bfc10ca0bbull);
}

TEST(LogAnalyticsTest, LineRateRespected) {
  LogAnalyticsConfig cfg;
  cfg.lines_per_sec = 100;
  LogAnalyticsGenerator gen(cfg);
  EXPECT_NEAR(gen.Generate(0, Seconds(10)).size(), 1000u, 2);
}

TEST(LogAnalyticsTest, NoiseFractionRespected) {
  LogAnalyticsConfig cfg;
  cfg.noise_fraction = 0.10;
  LogAnalyticsGenerator gen(cfg);
  int noise = 0;
  const int n = 10000;
  for (uint64_t i = 0; i < n; ++i) noise += gen.LineIsNoise(i);
  EXPECT_NEAR(static_cast<double>(noise) / n, 0.10, 0.02);
}

TEST(LogAnalyticsTest, LinesCarryAllStats) {
  LogAnalyticsConfig cfg;
  LogAnalyticsGenerator gen(cfg);
  for (uint64_t i = 0; i < 200; ++i) {
    if (gen.LineIsNoise(i)) continue;
    const std::string line = gen.LineAt(i);
    EXPECT_NE(line.find("Tenant Name=t"), std::string::npos);
    EXPECT_NE(line.find("Job Running Time="), std::string::npos);
    EXPECT_NE(line.find("Cpu Util="), std::string::npos);
    EXPECT_NE(line.find("Memory Util="), std::string::npos);
  }
}

TEST(LogAnalyticsTest, TenantsWithinRange) {
  LogAnalyticsConfig cfg;
  cfg.num_tenants = 7;
  LogAnalyticsGenerator gen(cfg);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_GE(gen.LineTenant(i), 0);
    EXPECT_LT(gen.LineTenant(i), 7);
  }
}

TEST(CostProfilesTest, PaperOperatingPoints) {
  // S2S: filter 13% of a core at 26.2 Mbps (Fig. 3); full query ~85%
  // (Section VI-B); LogAnalytics 31%; T2T exceeds one core.
  auto s2s = MakeS2SModel();
  EXPECT_NEAR(s2s.ops[1].cost_per_record * s2s.input_records_per_sec, 0.13,
              1e-6);
  EXPECT_NEAR(s2s.FullCpuFraction(), 0.85, 0.01);
  EXPECT_NEAR(MakeLogAnalyticsModel().FullCpuFraction(), 0.31, 0.01);
  EXPECT_GT(MakeT2TModel().FullCpuFraction(), 1.0);
  // Fig. 3 calibration: G+R requires 80% on filter output.
  auto fig3 = MakeS2SModel(1.0, 0.80);
  EXPECT_NEAR(fig3.FullCpuFraction(), 0.95, 0.01);
}

TEST(CostProfilesTest, T2TTableSizeScalesJoinCost) {
  auto small = MakeT2TModel(1.0, 50);
  auto large = MakeT2TModel(1.0, 500);
  EXPECT_LT(small.FullCpuFraction(), large.FullCpuFraction());
}

}  // namespace
}  // namespace jarvis::workloads
