// The centralized JARVIS_* knob parser: every runtime environment variable
// goes through env::{Int,Flag}, so a typo'd knob is one loud startup
// error naming the variable and the accepted form — never a silent fallback.
// Also covers the BuildingBlock contract: a malformed JARVIS_FAULTS,
// JARVIS_TRAFFIC or JARVIS_OVERLOAD surfaces as an Init() error naming the
// variable, not a quietly unshaped run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "core/building_block.h"
#include "core/overload.h"
#include "testing/test_util.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis {
namespace {

using testing::ScopedEnv;

constexpr char kVar[] = "JARVIS_ENV_TEST_KNOB";

TEST(EnvTest, RawTreatsUnsetAndEmptyAlike) {
  ::unsetenv(kVar);
  EXPECT_FALSE(env::Raw(kVar).has_value());
  ScopedEnv empty(kVar, "");
  EXPECT_FALSE(env::Raw(kVar).has_value());
}

TEST(EnvTest, IntParsesClampsAndRejects) {
  ::unsetenv(kVar);
  auto unset = env::Int(kVar, 7, 1, 64);
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(*unset, 7);

  {
    ScopedEnv e(kVar, "12");
    auto v = env::Int(kVar, 7, 1, 64);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 12);
  }
  for (const char* bad : {"fuor", "12x", "4 ", " 4", "0", "65", "-3", "1e3"}) {
    ScopedEnv e(kVar, bad);
    auto v = env::Int(kVar, 7, 1, 64);
    EXPECT_FALSE(v.ok()) << "value: '" << bad << "'";
    // The error must name the variable: it is the user's only breadcrumb.
    EXPECT_NE(v.status().message().find(kVar), std::string::npos);
  }
}

TEST(EnvTest, FlagAcceptsSpellingsRejectsNoise) {
  ::unsetenv(kVar);
  auto unset = env::Flag(kVar, true);
  ASSERT_TRUE(unset.ok());
  EXPECT_TRUE(*unset);

  for (const char* yes : {"1", "on", "true", "yes", "TRUE", "On"}) {
    ScopedEnv e(kVar, yes);
    auto v = env::Flag(kVar, false);
    ASSERT_TRUE(v.ok()) << yes;
    EXPECT_TRUE(*v) << yes;
  }
  for (const char* no : {"0", "off", "false", "no", "FALSE", "Off"}) {
    ScopedEnv e(kVar, no);
    auto v = env::Flag(kVar, true);
    ASSERT_TRUE(v.ok()) << no;
    EXPECT_FALSE(*v) << no;
  }
  for (const char* bad : {"2", "enable", "y", "tru"}) {
    ScopedEnv e(kVar, bad);
    EXPECT_FALSE(env::Flag(kVar, false).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Malformed knobs fail Init(), loudly
// ---------------------------------------------------------------------------

query::CompiledQuery CompileS2S() {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto q = query::Compile(std::move(plan).value());
  EXPECT_TRUE(q.ok());
  return std::move(q).value();
}

std::vector<core::BuildingBlock::SourceSpec> MakeSpecs() {
  std::vector<core::BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 2; ++s) {
    core::BuildingBlock::SourceSpec spec;
    spec.cost_model = std::make_shared<core::FixedCostModel>(
        std::vector<double>{1e-6, 2e-6, 1e-5});
    workloads::PingmeshConfig cfg;
    cfg.seed = s;
    cfg.source_ip = static_cast<int64_t>(s) * 100000;
    cfg.num_pairs = 8;
    auto gen = std::make_shared<workloads::PingmeshGenerator>(cfg);
    spec.generate = [gen](Micros from, Micros to) {
      return gen->Generate(from, to);
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(EnvTest, MalformedTrafficPlanFailsInit) {
  ScopedEnv e("JARVIS_TRAFFIC", "seed=7;tsunami@1:0");
  const query::CompiledQuery q = CompileS2S();
  core::BuildingBlock block(q, MakeSpecs());
  const Status s = block.Init();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("JARVIS_TRAFFIC"), std::string::npos)
      << s.message();
}

TEST(EnvTest, MalformedFaultPlanFailsInit) {
  ScopedEnv e("JARVIS_FAULTS", "seed=5;meteor@1:0");
  const query::CompiledQuery q = CompileS2S();
  core::BuildingBlock block(q, MakeSpecs());
  const Status s = block.Init();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("JARVIS_FAULTS"), std::string::npos)
      << s.message();
}

TEST(EnvTest, MalformedOverloadFlagFailsInit) {
  ScopedEnv e("JARVIS_OVERLOAD", "maybe");
  const query::CompiledQuery q = CompileS2S();
  core::BuildingBlock block(q, MakeSpecs());
  const Status s = block.Init();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("JARVIS_OVERLOAD"), std::string::npos)
      << s.message();
}

TEST(EnvTest, WellFormedTrafficEnvShapesTheRun) {
  // A parseable plan wires a shaper in from the environment alone.
  ScopedEnv t("JARVIS_TRAFFIC", "seed=3;leave@0:0x64");
  ScopedEnv o("JARVIS_OVERLOAD", "1");
  const query::CompiledQuery q = CompileS2S();
  core::BuildingBlock block(q, MakeSpecs());
  ASSERT_TRUE(block.Init().ok());
  EXPECT_TRUE(block.overload_enabled());
  stream::RecordBatch out;
  for (int e = 0; e < 3; ++e) ASSERT_TRUE(block.RunEpoch(&out).ok());
  ASSERT_TRUE(block.Finish(&out).ok());
  // Source 0 left at epoch 0 and never rejoined: only source 1 produced.
  EXPECT_EQ(block.pressure_sample(0).offered, 0u);
}

}  // namespace
}  // namespace jarvis
