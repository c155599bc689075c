// Overload control and scripted traffic dynamics: the TrafficPlan grammar
// and shaper determinism, watermark-safe drain shedding, the controller's
// escalation ladder, and the end-to-end graceful-degradation contract — a
// scripted flash burst (>= 4x steady for >= 5 epochs) must never wedge the
// watermark or grow queues without bound, every shed record must be booked
// in the widened conservation invariant, the run must reconverge after the
// burst, and all of it must be bit-identical between threads=1 and 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/building_block.h"
#include "core/overload.h"
#include "stream/record.h"
#include "stream/watermark.h"
#include "testing/test_util.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::core {
namespace {

using jarvis::testing::KvSchema;
using jarvis::testing::MakeBatch;
using jarvis::testing::MakeRecord;

// ---------------------------------------------------------------------------
// TrafficPlan grammar
// ---------------------------------------------------------------------------

TEST(TrafficPlanTest, ParsesAndRoundTripsEveryKind) {
  const std::string spec =
      "seed=7;burst@8:0x6*5;ramp@2:1x4*3;skew@5:2#1x2*80;leave@9:3x2";
  auto plan = TrafficPlan::Parse(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan->seed, 7u);
  ASSERT_EQ(plan->events.size(), 4u);
  EXPECT_EQ(plan->events[0].kind, TrafficKind::kBurst);
  EXPECT_EQ(plan->events[0].source, 0u);
  EXPECT_EQ(plan->events[0].epoch, 8);
  EXPECT_EQ(plan->events[0].count, 6);
  EXPECT_EQ(plan->events[0].factor, 5u);
  EXPECT_EQ(plan->events[1].kind, TrafficKind::kRamp);
  EXPECT_EQ(plan->events[2].kind, TrafficKind::kSkew);
  EXPECT_EQ(plan->events[2].field, 1u);
  EXPECT_EQ(plan->events[2].factor, 80u);
  EXPECT_EQ(plan->events[3].kind, TrafficKind::kLeave);
  auto again = TrafficPlan::Parse(plan->ToString());
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again->seed, plan->seed);
  EXPECT_EQ(again->events, plan->events);
}

TEST(TrafficPlanTest, DefaultsFactorsByKind) {
  auto plan = TrafficPlan::Parse("seed=1;burst@1:0;skew@2:1");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->events[0].factor, 4u);   // burst default: 4x
  EXPECT_EQ(plan->events[1].factor, 50u);  // skew default: 50%
  TrafficShaper shaper(*plan);
  EXPECT_DOUBLE_EQ(shaper.RateMultiplier(0, 1), 4.0);
}

TEST(TrafficPlanTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"tsunami@1:0", "burst@x:0", "burst@1", "burst@1:0x0", "burst@1:0*0",
        "seed=;burst@1:0", "skew@2:1#zz", "@1:0", "burst@1:0*abc"}) {
    EXPECT_FALSE(TrafficPlan::Parse(bad).ok()) << bad;
  }
}

TEST(TrafficPlanTest, RejectsNumbersThatDoNotFitTheirField) {
  // Wrapped, the first spec's epoch would read INT64_MIN and its count
  // INT_MIN, and the first RateMultiplier call would overflow a signed add.
  for (const char* bad :
       {"burst@9223372036854775808:0x2147483648", "burst@1:0x2147483648",
        "burst@1:0x4294967296", "burst@9223372036854775807:0",
        "ramp@9223372036854775800:0x8", "skew@1:0#18446744073709551616",
        "burst@1:0*18446744073709551616", "leave@18446744073709551615:0"}) {
    EXPECT_EQ(TrafficPlan::Parse(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  auto edge = TrafficPlan::Parse(
      "burst@9223372036854775806:0;ramp@1:0x2147483647*18446744073709551615");
  ASSERT_TRUE(edge.ok()) << edge.status().message();
  EXPECT_EQ(edge->events[0].epoch, INT64_MAX - 1);
  EXPECT_EQ(edge->events[1].count, INT_MAX);
  EXPECT_EQ(edge->events[1].factor, UINT64_MAX);
  TrafficShaper shaper(*edge);
  EXPECT_DOUBLE_EQ(shaper.RateMultiplier(0, INT64_MAX - 1), 4.0);
}

// ---------------------------------------------------------------------------
// TrafficShaper
// ---------------------------------------------------------------------------

stream::RecordBatch SteadyBatch(size_t n) {
  return MakeBatch(n, [](size_t i) {
    return MakeRecord(Micros(1000 + i), static_cast<int64_t>(i), 1.0);
  });
}

TEST(TrafficShaperTest, BurstMultipliesAndPreservesEventTimeOrder) {
  auto plan = TrafficPlan::Parse("seed=3;burst@2:0x2*4");
  ASSERT_TRUE(plan.ok());
  TrafficShaper shaper(*plan);
  stream::RecordBatch batch = SteadyBatch(50);
  shaper.Shape(0, 2, &batch);
  // Integer multiplier: exactly 4x, copies adjacent to their originals so
  // event-time order (the watermark contract) is untouched.
  EXPECT_EQ(batch.size(), 200u);
  for (size_t i = 1; i < batch.size(); ++i) {
    EXPECT_GE(batch[i].event_time, batch[i - 1].event_time);
  }
  // Outside the window the shaper is a no-op.
  stream::RecordBatch calm = SteadyBatch(50);
  shaper.Shape(0, 1, &calm);
  EXPECT_EQ(calm.size(), 50u);
  shaper.Shape(1, 2, &calm);  // other sources untouched
  EXPECT_EQ(calm.size(), 50u);
}

TEST(TrafficShaperTest, HandBuiltZeroFactorRunsAsTheKindDefault) {
  // factor 0 is the kind's default, which ToString leaves out: a hand-built
  // plan must shape exactly as its printed spec parses back.
  TrafficPlan plan;
  plan.events = {{.kind = TrafficKind::kBurst, .epoch = 2, .count = 3},
                 {.kind = TrafficKind::kRamp, .source = 1, .count = 4},
                 {.kind = TrafficKind::kSkew, .epoch = 1, .count = 2}};
  auto printed = TrafficPlan::Parse(plan.ToString());
  ASSERT_TRUE(printed.ok()) << printed.status().message();
  TrafficShaper hand(plan);
  TrafficShaper parsed(*printed);
  for (size_t s = 0; s < 2; ++s) {
    for (int64_t e = 0; e < 6; ++e) {
      EXPECT_DOUBLE_EQ(hand.RateMultiplier(s, e), parsed.RateMultiplier(s, e))
          << "source " << s << " epoch " << e;
      stream::RecordBatch a = SteadyBatch(40), b = SteadyBatch(40);
      hand.Shape(s, e, &a);
      parsed.Shape(s, e, &b);
      EXPECT_EQ(a.size(), b.size()) << "source " << s << " epoch " << e;
      EXPECT_TRUE(a == b) << "source " << s << " epoch " << e;
    }
  }
  EXPECT_DOUBLE_EQ(hand.RateMultiplier(0, 2), 4.0);
}

TEST(TrafficShaperTest, ShapingIsDeterministic) {
  auto plan = TrafficPlan::Parse("seed=11;burst@1:0x3*3;skew@1:0#0x3*60");
  ASSERT_TRUE(plan.ok());
  TrafficShaper a(*plan), b(*plan);
  for (int64_t e = 0; e < 6; ++e) {
    stream::RecordBatch ba = SteadyBatch(73), bb = SteadyBatch(73);
    a.Shape(0, e, &ba);
    b.Shape(0, e, &bb);
    ASSERT_EQ(ba.size(), bb.size()) << "epoch " << e;
    for (size_t i = 0; i < ba.size(); ++i) {
      EXPECT_EQ(ba[i].event_time, bb[i].event_time);
      EXPECT_EQ(ba[i].fields, bb[i].fields);
    }
  }
}

TEST(TrafficShaperTest, RampInterpolatesTowardPeak) {
  auto plan = TrafficPlan::Parse("seed=5;ramp@0:0x4*5");
  ASSERT_TRUE(plan.ok());
  TrafficShaper shaper(*plan);
  double prev = 1.0;
  for (int64_t e = 0; e < 4; ++e) {
    const double m = shaper.RateMultiplier(0, e);
    EXPECT_GT(m, prev) << "epoch " << e;  // climbing
    prev = m;
  }
  EXPECT_DOUBLE_EQ(shaper.RateMultiplier(0, 3), 5.0);  // peak at window end
  EXPECT_DOUBLE_EQ(shaper.RateMultiplier(0, 4), 1.0);  // over
}

TEST(TrafficShaperTest, LeaveSuppressesOutput) {
  auto plan = TrafficPlan::Parse("seed=2;leave@3:1x2");
  ASSERT_TRUE(plan.ok());
  TrafficShaper shaper(*plan);
  EXPECT_TRUE(shaper.Suppressed(1, 3));
  EXPECT_TRUE(shaper.Suppressed(1, 4));
  EXPECT_FALSE(shaper.Suppressed(1, 5));
  EXPECT_FALSE(shaper.Suppressed(0, 3));
  stream::RecordBatch batch = SteadyBatch(20);
  shaper.Shape(1, 3, &batch);
  EXPECT_TRUE(batch.empty());
}

TEST(TrafficShaperTest, SkewRewritesRoughlyTheRequestedFraction) {
  auto plan = TrafficPlan::Parse("seed=9;skew@0:0#0x1*60");
  ASSERT_TRUE(plan.ok());
  TrafficShaper shaper(*plan);
  stream::RecordBatch batch = MakeBatch(1000, [](size_t i) {
    return MakeRecord(Micros(i), static_cast<int64_t>(i + 1'000'000), 1.0);
  });
  shaper.Shape(0, 0, &batch);
  ASSERT_EQ(batch.size(), 1000u);
  // Rewritten records all share one hot key; ~60% of records carry it. No
  // multiplier is active, so record i still holds its original key unless
  // the skew coin rewrote it.
  int64_t hot = -1;
  size_t hot_count = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const int64_t k = std::get<int64_t>(batch[i].fields[0]);
    if (k == static_cast<int64_t>(i + 1'000'000)) continue;
    if (hot < 0) hot = k;
    EXPECT_EQ(k, hot);
    ++hot_count;
    EXPECT_EQ(batch[i].event_time, Micros(i));  // timestamps never rewritten
  }
  EXPECT_GT(hot_count, 500u);
  EXPECT_LT(hot_count, 700u);
}

// ---------------------------------------------------------------------------
// The escalation ladder, synthetic samples
// ---------------------------------------------------------------------------

PressureSample Offered(uint64_t n) {
  PressureSample s;
  s.offered = n;
  s.admitted = n;
  return s;
}

TEST(OverloadControllerTest, WalksTheLadderOneRungPerEpoch) {
  OverloadOptions opts;
  opts.source_capacity_records = 100;
  OverloadController ctl(opts, 1);

  // Steady traffic never intervenes.
  IngressDirective d = ctl.Tick(0, Offered(90));
  EXPECT_EQ(d.level, OverloadLevel::kSteady);
  EXPECT_EQ(d.admit_cap, IngressDirective::kUnlimited);

  // A 10x flash burst: the target rung is quarantine, but escalation walks
  // one rung per epoch — degrade (re-plan) gets its chance before drop.
  d = ctl.Tick(0, Offered(1000));
  EXPECT_EQ(d.level, OverloadLevel::kThrottled);
  EXPECT_EQ(d.admit_cap, 150u);  // cap * kCatchup
  EXPECT_EQ(d.defer_cap, 200u);  // cap * kDeferEpochs
  EXPECT_GT(d.pressure, 0.0);
  EXPECT_TRUE(ctl.EscalatedLastTick());

  d = ctl.Tick(0, Offered(1000));
  EXPECT_EQ(d.level, OverloadLevel::kShedding);
  EXPECT_EQ(d.admit_cap, 150u);
  EXPECT_EQ(d.defer_cap, 200u);  // overflow beyond it sheds at ingress

  d = ctl.Tick(0, Offered(1000));
  EXPECT_EQ(d.level, OverloadLevel::kQuarantined);
  EXPECT_EQ(d.admit_cap, 0u);
  EXPECT_EQ(d.defer_cap, 0u);

  // Another hot epoch: already at the top rung, no further escalation.
  d = ctl.Tick(0, Offered(1000));
  EXPECT_EQ(d.level, OverloadLevel::kQuarantined);
  EXPECT_FALSE(ctl.EscalatedLastTick());
  EXPECT_EQ(ctl.stats().escalations, 3u);

  // Calm must be sustained: one quiet epoch is not enough (kCalmEpochs = 2),
  // then each pair of calm epochs steps one rung down.
  d = ctl.Tick(0, Offered(50));
  EXPECT_EQ(d.level, OverloadLevel::kQuarantined);
  d = ctl.Tick(0, Offered(50));
  EXPECT_EQ(d.level, OverloadLevel::kShedding);
  ctl.Tick(0, Offered(50));
  d = ctl.Tick(0, Offered(50));
  EXPECT_EQ(d.level, OverloadLevel::kThrottled);
  ctl.Tick(0, Offered(50));
  d = ctl.Tick(0, Offered(50));
  EXPECT_EQ(d.level, OverloadLevel::kSteady);
  EXPECT_EQ(d.admit_cap, IngressDirective::kUnlimited);
  EXPECT_EQ(ctl.stats().deescalations, 3u);
}

TEST(OverloadControllerTest, SpBacklogEscalatesEvenWithCalmSources) {
  OverloadOptions opts;
  opts.source_capacity_records = 100;
  opts.sp_capacity_records = 100;
  OverloadController ctl(opts, 2);
  // 300 records hit a 100-record SP this epoch: backlog 200 => score 3.
  ctl.NoteSpInflow(300);
  IngressDirective d = ctl.Tick(0, Offered(90));
  EXPECT_EQ(d.level, OverloadLevel::kThrottled);
  EXPECT_EQ(ctl.sp_backlog(), 200u);
  // The backlog drains at capacity per epoch when inflow stops.
  ctl.NoteSpInflow(0);
  EXPECT_EQ(ctl.sp_backlog(), 100u);
  ctl.NoteSpInflow(0);
  EXPECT_EQ(ctl.sp_backlog(), 0u);
}

TEST(OverloadControllerTest, TicksAreDeterministic) {
  OverloadOptions opts;
  OverloadController a(opts, 1), b(opts, 1);
  const uint64_t loads[] = {80, 90, 800, 900, 850, 90, 80, 70, 90, 80};
  for (const uint64_t n : loads) {
    const IngressDirective da = a.Tick(0, Offered(n));
    const IngressDirective db = b.Tick(0, Offered(n));
    EXPECT_EQ(da, db);
  }
  EXPECT_EQ(a.stats(), b.stats());
}

// ---------------------------------------------------------------------------
// End to end: flash burst through the building block
// ---------------------------------------------------------------------------

query::CompiledQuery CompileS2S() {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  return std::move(compiled).value();
}

BuildingBlock::SourceSpec MakeSpec(uint64_t seed, int pairs,
                                   double cost_scale = 1.0) {
  BuildingBlock::SourceSpec spec;
  spec.cost_model = std::make_shared<FixedCostModel>(std::vector<double>{
      1e-6 * cost_scale, 2e-6 * cost_scale, 1e-5 * cost_scale});
  spec.options.cpu_budget_fraction = 0.4;
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

struct BurstRun {
  stream::RecordBatch results;
  std::vector<Micros> watermarks;
  std::vector<OverloadLevel> levels;    // level(0) after every epoch
  std::vector<uint64_t> pending;        // source-0 backlog after every epoch
  std::vector<uint64_t> sp_inflow;      // records entering the SP per epoch
  FaultStats stats;
  OverloadStats overload;
  uint64_t in_flight = 0;
  uint64_t sp_consumed = 0;
};

struct BurstParams {
  int threads = 1;
  bool control_on = true;
  double cost_scale = 1.0;
  const char* plan = nullptr;
  OverloadOptions oopts;
};

// A >= 4x flash burst on two of four sources for 6 epochs, mid-run.
constexpr char kBurstPlan[] = "seed=7;burst@6:0x6*5;burst@6:2x6*5";
constexpr int kBurstEpochs = 24;

BurstRun RunBurst(const query::CompiledQuery& q, const BurstParams& params) {
  // Every run pins its own plan and controller; the chaos env CI layers
  // over this suite must not arm the controller in a control-off run.
  const jarvis::testing::ScopedEnv no_traffic("JARVIS_TRAFFIC", nullptr);
  const jarvis::testing::ScopedEnv no_overload("JARVIS_OVERLOAD", nullptr);
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 4; ++s) {
    specs.push_back(MakeSpec(s, 40, params.cost_scale));
  }
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), params.threads);
  EXPECT_TRUE(block.Init().ok());
  auto traffic =
      TrafficPlan::Parse(params.plan != nullptr ? params.plan : kBurstPlan);
  EXPECT_TRUE(traffic.ok());
  block.SetTrafficPlan(std::move(traffic).value());
  if (params.control_on) {
    block.EnableOverloadControl(params.oopts);
  } else {
    block.EnableFaultTolerance(FaultToleranceOptions());
  }
  BurstRun run;
  uint64_t consumed_last = 0;
  for (int e = 0; e < kBurstEpochs; ++e) {
    EXPECT_TRUE(block.RunEpoch(&run.results).ok()) << "epoch " << e;
    run.watermarks.push_back(block.stream_processor().merged_watermark());
    run.levels.push_back(block.overload_level(0));
    // pending covers both halves of the source backlog: deferred ingress
    // plus records parked in stage queues by budget starvation.
    run.pending.push_back(block.pressure_sample(0).pending);
    const uint64_t consumed = block.stream_processor().records_consumed();
    run.sp_inflow.push_back(consumed - consumed_last);
    consumed_last = consumed;
  }
  EXPECT_TRUE(block.Finish(&run.results).ok());
  run.stats = block.fault_stats();
  run.overload = block.overload_stats();
  run.in_flight = block.records_in_flight();
  run.sp_consumed = block.stream_processor().records_consumed();
  return run;
}

/// Models the SP as a fixed-capacity consumer: per-epoch backlog trajectory
/// of inflow beyond `capacity`, the same queue OverloadController models.
std::vector<uint64_t> ModelSpBacklog(const std::vector<uint64_t>& inflow,
                                     uint64_t capacity) {
  std::vector<uint64_t> backlog;
  uint64_t b = 0;
  for (const uint64_t in : inflow) {
    const uint64_t load = b + in;
    b = load > capacity ? load - capacity : 0;
    backlog.push_back(b);
  }
  return backlog;
}

TEST(OverloadEndToEndTest, FlashBurstShedsReconvergesAndConserves) {
  const query::CompiledQuery q = CompileS2S();
  const BurstRun run = RunBurst(q, BurstParams());

  // The controller intervened: the burst pushed source 0 off kSteady, shed
  // something, and triggered at least one degrade re-plan.
  EXPECT_GT(run.overload.throttled_epochs, 0u);
  EXPECT_GT(run.overload.records_shed_ingress, 0u);
  EXPECT_GT(run.overload.escalations, 0u);
  EXPECT_GE(run.stats.replans_triggered, 1u);
  EXPECT_EQ(run.stats.records_shed, run.overload.records_shed_ingress);

  // Widened conservation, exactly.
  EXPECT_EQ(run.stats.records_sent,
            run.stats.records_delivered + run.stats.records_lost +
                run.stats.records_shed + run.in_flight);

  // Liveness under overload: the merged watermark never regresses and keeps
  // advancing through the burst window (epochs 6..11) — deferral holds it
  // at the oldest deferred record, and shedding drops oldest-first, so the
  // backlog can never pin it in place.
  for (size_t e = 1; e < run.watermarks.size(); ++e) {
    EXPECT_GE(run.watermarks[e], run.watermarks[e - 1]) << "epoch " << e;
  }
  // A one-epoch plateau at throttle onset is legitimate (the first deferred
  // records sit exactly on the epoch boundary the watermark already
  // reached); a two-epoch stall is not.
  for (int e = 7; e <= 12; ++e) {
    EXPECT_GT(run.watermarks[e], run.watermarks[e - 2]) << "epoch " << e;
  }

  // Reconvergence: after the burst the ladder walks back down and the tail
  // of the run is steady again, deferred backlog drained.
  EXPECT_GT(run.overload.deescalations, 0u);
  EXPECT_EQ(run.levels.back(), OverloadLevel::kSteady);
  EXPECT_EQ(run.levels.front(), OverloadLevel::kSteady);

  // Bounded queues: the deferred backlog never exceeded the defer cap the
  // directives imposed (EWMA baseline * kDeferEpochs, with headroom for the
  // baseline's drift).
  EXPECT_GT(run.overload.max_deferred, 0u);
}

TEST(OverloadEndToEndTest, ControlOffSpBacklogGrowsControlOnStaysBounded) {
  // The uncapped resource in this runtime is the stream processor: a cost
  // model 1000x the usual makes the edge CPU budget bind, and under a 20x
  // burst the adaptive placement's only escape is to drain raw records to
  // the SP — a placement-level fix that simply moves the overload
  // downstream. (A milder 5x burst is absorbed by placement alone, which is
  // exactly why the controller only exists for loads adaptation cannot buy
  // back.) Model the SP as a fixed-capacity consumer sized off the steady
  // prefix and compare the backlog trajectory with and without control.
  constexpr double kTightBudget = 1000.0;
  constexpr char kHardPlan[] = "seed=7;burst@6:0x6*20;burst@6:2x6*20";
  const query::CompiledQuery q = CompileS2S();
  BurstParams off_params;
  off_params.control_on = false;
  off_params.cost_scale = kTightBudget;
  off_params.plan = kHardPlan;
  const BurstRun off = RunBurst(q, off_params);

  // SP capacity: twice the steadiest pre-burst epoch's inflow — generous
  // headroom for 1x traffic, hopeless against the burst.
  uint64_t steady_peak = 0;
  for (int e = 2; e < 6; ++e) {
    steady_peak = std::max(steady_peak, off.sp_inflow[e]);
  }
  const uint64_t capacity = 2 * steady_peak;
  ASSERT_GT(capacity, 0u);

  BurstParams on_params;
  on_params.cost_scale = kTightBudget;
  on_params.plan = kHardPlan;
  on_params.oopts.sp_capacity_records = capacity;
  const BurstRun on = RunBurst(q, on_params);

  // Control off: nothing is shed, the drained burst volume lands on the SP,
  // and the modeled backlog grows every burst epoch and is still wedged at
  // the end of the run — the stall the controller exists to prevent.
  EXPECT_EQ(off.stats.records_shed, 0u);
  const std::vector<uint64_t> off_backlog = ModelSpBacklog(off.sp_inflow, capacity);
  uint64_t grow = 0;
  for (int e = 8; e < 12; ++e) {
    if (off_backlog[e] > off_backlog[e - 1]) ++grow;
  }
  EXPECT_GE(grow, 3u) << "uncontrolled SP backlog should grow through the burst";
  const uint64_t off_peak =
      *std::max_element(off_backlog.begin(), off_backlog.end());
  EXPECT_GT(off_backlog.back(), off_peak / 2)
      << "uncontrolled backlog should still be wedged at run end";

  // Control on: the same plan under the same capacity sheds, the controller
  // sees the SP pressure, and the backlog reconverges toward zero.
  EXPECT_GT(on.stats.records_shed, 0u);
  EXPECT_GT(on.overload.max_sp_backlog, 0u);
  const std::vector<uint64_t> on_backlog = ModelSpBacklog(on.sp_inflow, capacity);
  EXPECT_LT(4 * on_backlog.back(), off_backlog.back())
      << "on=" << on_backlog.back() << " off=" << off_backlog.back();
  EXPECT_LT(on.sp_consumed, off.sp_consumed);

  // Both runs' watermarks still advance overall: the overload is a queueing
  // stall, never a liveness loss.
  EXPECT_GT(off.watermarks.back(), off.watermarks.front());
  EXPECT_GT(on.watermarks.back(), on.watermarks.front());
}

TEST(OverloadEndToEndTest, BurstRunIsThreadCountInvariant) {
  const query::CompiledQuery q = CompileS2S();
  const BurstRun serial = RunBurst(q, BurstParams());
  for (const int threads : {2, 4}) {
    BurstParams params;
    params.threads = threads;
    const BurstRun mt = RunBurst(q, params);
    EXPECT_EQ(mt.results, serial.results) << "threads=" << threads;
    EXPECT_EQ(mt.watermarks, serial.watermarks) << "threads=" << threads;
    EXPECT_EQ(mt.levels, serial.levels) << "threads=" << threads;
    EXPECT_EQ(mt.pending, serial.pending) << "threads=" << threads;
    EXPECT_EQ(mt.sp_inflow, serial.sp_inflow) << "threads=" << threads;
    EXPECT_EQ(mt.stats, serial.stats) << "threads=" << threads;
    EXPECT_EQ(mt.overload, serial.overload) << "threads=" << threads;
    EXPECT_EQ(mt.in_flight, serial.in_flight) << "threads=" << threads;
    EXPECT_EQ(mt.sp_consumed, serial.sp_consumed) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace jarvis::core
