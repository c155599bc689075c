// Scripted chaos for the fault-tolerant epoch runtime: seeded fault plans
// (crash / straggle / drop / dup / flip / stall) drive the BuildingBlock's
// detection and recovery machinery, and every schedule asserts the paper's
// robustness contract — zero record loss or duplication past the recovery
// fence for recoverable faults, checksum-detected corruption recovered via
// bounded retransmission, quarantined sources never blocking the epoch
// barrier or the merged watermark, and the whole recovery bit-identical
// across thread counts (the chaos extension of the determinism harness).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/building_block.h"
#include "core/fault.h"
#include "core/overload.h"
#include "stream/record.h"
#include "stream/watermark.h"
#include "testing/test_util.h"
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

BuildingBlock::SourceSpec MakeSpec(uint64_t seed, int pairs) {
  BuildingBlock::SourceSpec spec;
  spec.cost_model = std::make_shared<FixedCostModel>(
      std::vector<double>{1e-6, 2e-6, 1e-5});
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

/// Everything one faulty run produces, for fingerprint comparison.
struct FaultRun {
  stream::RecordBatch results;
  std::vector<Micros> watermarks;
  std::vector<SourceHealth> health_trace;  // health(s) after every epoch
  FaultStats stats;
  uint64_t wire_fnv = 0;       // FNV-1a over every delivered frame's bytes
  uint64_t in_flight = 0;      // after Finish
  bool duplicate_delivery = false;  // any (source, seq) consumed twice
};

void HashBytes(uint64_t* h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

/// Runs `epochs` fault-tolerant epochs of the 4-source pingmesh block under
/// the given plan spec ("" = clean FT run) and returns the full fingerprint.
FaultRun RunWithPlan(const query::CompiledQuery& q, const std::string& spec,
                     int threads, int epochs,
                     FaultToleranceOptions opts = FaultToleranceOptions()) {
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 4; ++s) specs.push_back(MakeSpec(s, 40));
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), threads);
  EXPECT_TRUE(block.Init().ok());
  block.EnableFaultTolerance(opts);
  if (!spec.empty()) {
    auto plan = FaultPlan::Parse(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().message();
    block.SetFaultPlan(std::move(plan).value());
  }

  FaultRun run;
  std::map<std::pair<size_t, uint32_t>, int> seen;
  block.SetWireTap([&](size_t s, uint32_t seq,
                       const std::vector<uint8_t>& bytes) {
    if (++seen[{s, seq}] > 1) run.duplicate_delivery = true;
    HashBytes(&run.wire_fnv, bytes.data(), bytes.size());
  });
  run.wire_fnv = 1469598103934665603ull;

  for (int e = 0; e < epochs; ++e) {
    EXPECT_TRUE(block.RunEpoch(&run.results).ok()) << "epoch " << e;
    run.watermarks.push_back(block.stream_processor().merged_watermark());
    for (size_t s = 0; s < block.num_sources(); ++s) {
      run.health_trace.push_back(block.health(s));
    }
  }
  EXPECT_TRUE(block.Finish(&run.results).ok());
  run.stats = block.fault_stats();
  run.in_flight = block.records_in_flight();
  return run;
}

/// Sorted string rendering of a batch: multiset equality for runs whose
/// emission *order* legitimately differs (held watermarks) but whose content
/// must not.
std::vector<std::string> SortedRepr(const stream::RecordBatch& batch) {
  std::vector<std::string> repr;
  repr.reserve(batch.size());
  for (const stream::Record& r : batch) {
    std::string s = std::to_string(r.event_time) + "|" +
                    std::to_string(r.window_start) + "|";
    for (const stream::Value& v : r.fields) {
      s += stream::ValueToString(v) + ",";
    }
    repr.push_back(std::move(s));
  }
  std::sort(repr.begin(), repr.end());
  return repr;
}

void ExpectConservation(const FaultRun& run) {
  EXPECT_EQ(run.stats.records_sent,
            run.stats.records_delivered + run.stats.records_lost +
                run.stats.records_shed + run.in_flight);
  EXPECT_FALSE(run.duplicate_delivery);
}

// ---------------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesAndRoundTripsEveryKind) {
  const std::string spec =
      "seed=9;crash@3:1;straggle@4:2x2;drop@5:0#1;dup@6:3;flip@7:1#2x4;"
      "stall@8:0";
  auto plan = FaultPlan::Parse(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan->seed, 9u);
  ASSERT_EQ(plan->events.size(), 6u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan->events[1].count, 2);
  EXPECT_EQ(plan->events[2].chunk, 1u);
  EXPECT_EQ(plan->events[4].kind, FaultKind::kFlip);
  EXPECT_EQ(plan->events[4].chunk, 2u);
  EXPECT_EQ(plan->events[4].count, 4);
  // ToString round-trips through Parse to the same plan.
  auto again = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->seed, plan->seed);
  EXPECT_EQ(again->events, plan->events);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"explode@1:0", "crash@x:0", "crash@1", "crash@1:0#", "crash@1:0x0",
        "seed=;crash@1:0", "flip@2:1#zz", "@1:0"}) {
    EXPECT_FALSE(FaultPlan::Parse(bad).ok()) << bad;
  }
}

TEST(FaultPlanTest, RejectsNumbersThatDoNotFitTheirField) {
  // Nothing wraps: an epoch past INT64_MAX, a count past INT_MAX, an event
  // window ending past INT64_MAX or a number past UINT64_MAX is an error,
  // not a different plan. Fault events take no factor.
  for (const char* bad :
       {"crash@18446744073709551615:0", "crash@9223372036854775808:0",
        "straggle@1:0x4294967296", "straggle@1:0x2147483648",
        "crash@9223372036854775807:0", "straggle@9223372036854775800:0x8",
        "drop@1:18446744073709551616", "drop@1:0#18446744073709551616",
        "seed=18446744073709551616;crash@1:0", "crash@1:0*2"}) {
    EXPECT_EQ(FaultPlan::Parse(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  // The largest numbers that fit still parse.
  auto edge = FaultPlan::Parse(
      "seed=18446744073709551615;crash@9223372036854775806:0;"
      "flip@1:18446744073709551615#18446744073709551615x2147483647");
  ASSERT_TRUE(edge.ok()) << edge.status().message();
  EXPECT_EQ(edge->seed, UINT64_MAX);
  EXPECT_EQ(edge->events[0].epoch, INT64_MAX - 1);
  EXPECT_EQ(edge->events[1].source, SIZE_MAX);
  EXPECT_EQ(edge->events[1].chunk, SIZE_MAX);
  EXPECT_EQ(edge->events[1].count, INT_MAX);
}

TEST(FaultPlanTest, InjectorTamperingIsDeterministic) {
  auto plan = FaultPlan::Parse("seed=21;flip@0:0#0x3;drop@0:0#2;dup@0:0#1");
  ASSERT_TRUE(plan.ok());
  auto make_wire = [] {
    WireDrain wire;
    for (uint32_t i = 0; i < 4; ++i) {
      WireFrame f;
      f.seq = 10 + i;
      f.records = 5;
      f.bytes.assign(64 + i, static_cast<uint8_t>(i));
      wire.frames.push_back(std::move(f));
    }
    wire.first_seq = 10;
    wire.frame_count = 4;
    return wire;
  };
  FaultInjector a(*plan), b(*plan);
  WireDrain wa = make_wire(), wb = make_wire();
  a.TamperTransmission(0, 0, &wa);
  b.TamperTransmission(0, 0, &wb);
  // drop #2 and dup #1: 4 - 1 + 1 frames remain, bit-for-bit identical
  // across injector instances (the flip is a pure function of the seed).
  ASSERT_EQ(wa.frames.size(), 4u);
  ASSERT_EQ(wb.frames.size(), 4u);
  for (size_t i = 0; i < wa.frames.size(); ++i) {
    EXPECT_EQ(wa.frames[i].seq, wb.frames[i].seq);
    EXPECT_EQ(wa.frames[i].bytes, wb.frames[i].bytes);
  }
  // The flipped frame differs from pristine in exactly one bit.
  WireDrain clean = make_wire();
  int diff_bits = 0;
  for (size_t i = 0; i < wa.frames[0].bytes.size(); ++i) {
    diff_bits +=
        __builtin_popcount(wa.frames[0].bytes[i] ^ clean.frames[0].bytes[i]);
  }
  EXPECT_EQ(diff_bits, 1);
  // Retransmit tampering burns the remaining budget (x3 => 2 retransmit
  // corruptions), then passes copies through clean.
  WireFrame retry = clean.frames[0];
  a.TamperRetransmit(0, 10, &retry);
  EXPECT_NE(retry.bytes, clean.frames[0].bytes);
  retry = clean.frames[0];
  a.TamperRetransmit(0, 10, &retry);
  EXPECT_NE(retry.bytes, clean.frames[0].bytes);
  retry = clean.frames[0];
  a.TamperRetransmit(0, 10, &retry);
  EXPECT_EQ(retry.bytes, clean.frames[0].bytes);
}

// ---------------------------------------------------------------------------
// Recovery semantics, scripted
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, CleanFaultTolerantRunDeliversEverything) {
  const query::CompiledQuery q = CompileS2S();
  const FaultRun run = RunWithPlan(q, "", 1, 10);
  ASSERT_FALSE(run.results.empty());
  EXPECT_GT(run.stats.records_sent, 0u);
  EXPECT_EQ(run.stats.records_lost, 0u);
  EXPECT_EQ(run.stats.retransmits, 0u);
  EXPECT_EQ(run.stats.checksum_failures, 0u);
  EXPECT_EQ(run.stats.quarantines, 0u);
  EXPECT_EQ(run.in_flight, 0u);
  ExpectConservation(run);
}

TEST(FaultInjectionTest, FlipDropDupRecoverBitExactly) {
  const query::CompiledQuery q = CompileS2S();
  const FaultRun clean = RunWithPlan(q, "", 1, 12);
  // Faults target the startup epochs (every source drains a frame per epoch
  // there; once the runtimes converge, sources aggregate locally and many
  // epochs ship no frames at all, so a fault scripted there is a no-op).
  const FaultRun faulty = RunWithPlan(
      q, "seed=7;flip@1:1;drop@2:2;dup@2:0;flip@3:3;drop@3:1;dup@1:2", 1, 12);
  // Corruption detected by checksum, loss detected by sequence gap, both
  // recovered by retransmission; duplicates deduplicated by sequence.
  EXPECT_GT(faulty.stats.checksum_failures, 0u);
  EXPECT_GT(faulty.stats.gaps, 0u);
  EXPECT_GT(faulty.stats.duplicates_dropped, 0u);
  EXPECT_GT(faulty.stats.retransmits, 0u);
  EXPECT_EQ(faulty.stats.records_lost, 0u);
  EXPECT_EQ(faulty.stats.quarantines, 0u);
  EXPECT_EQ(faulty.in_flight, 0u);
  ExpectConservation(faulty);
  // Past the recovery fence the run is indistinguishable from the clean
  // one: results, watermark trajectory, and delivered wire bytes.
  EXPECT_EQ(faulty.results, clean.results);
  EXPECT_EQ(faulty.watermarks, clean.watermarks);
  EXPECT_EQ(faulty.wire_fnv, clean.wire_fnv);
}

TEST(FaultInjectionTest, CrashQuarantinesReplansAndReadmits) {
  const query::CompiledQuery q = CompileS2S();
  FaultToleranceOptions opts;
  opts.readmit_after_epochs = 2;
  // The lossy contract (re-plan on quarantine) is what this asserts; with
  // checkpoints on a crash replays instead (checkpoint_recovery_test).
  opts.checkpoint_interval = -1;
  const int kEpochs = 12;
  const FaultRun run = RunWithPlan(q, "seed=3;crash@3:1", 1, kEpochs, opts);
  EXPECT_EQ(run.stats.crashes, 1u);
  EXPECT_EQ(run.stats.quarantines, 1u);
  EXPECT_EQ(run.stats.readmissions, 1u);
  EXPECT_GE(run.stats.replans_triggered, 1u);
  ExpectConservation(run);

  auto health_at = [&](int epoch, size_t s) {
    return run.health_trace[static_cast<size_t>(epoch) * 4 + s];
  };
  // Quarantined right at the crash epoch, healthy again after the backoff
  // (crash at 3 -> readmit at epoch 6), and never quarantined elsewhere.
  EXPECT_EQ(health_at(3, 1), SourceHealth::kQuarantined);
  EXPECT_EQ(health_at(4, 1), SourceHealth::kQuarantined);
  EXPECT_EQ(health_at(6, 1), SourceHealth::kHealthy);
  for (int e = 0; e < kEpochs; ++e) {
    for (size_t s : {0u, 2u, 3u}) {
      EXPECT_EQ(health_at(e, s), SourceHealth::kHealthy)
          << "epoch " << e << " source " << s;
    }
  }
  // Degraded mode keeps serving: the merged watermark advances during the
  // quarantine epochs instead of wedging on the dead source.
  EXPECT_GT(run.watermarks[5], run.watermarks[2]);
  // And the run still produced results.
  EXPECT_FALSE(run.results.empty());
}

TEST(FaultInjectionTest, StragglerIsSuspectedThenDeliversLate) {
  const query::CompiledQuery q = CompileS2S();
  FaultToleranceOptions opts;
  opts.quarantine_after_misses = 3;  // one straggle must not quarantine
  const FaultRun clean = RunWithPlan(q, "", 1, 12, opts);
  const FaultRun run = RunWithPlan(q, "seed=5;straggle@3:2", 1, 12, opts);
  EXPECT_EQ(run.stats.straggles, 1u);
  EXPECT_EQ(run.stats.suspects, 1u);
  EXPECT_EQ(run.stats.quarantines, 0u);
  EXPECT_EQ(run.stats.records_lost, 0u);
  EXPECT_EQ(run.in_flight, 0u);
  ExpectConservation(run);
  // Suspect at the straggle epoch, healthy again once the late delivery
  // lands the next epoch.
  EXPECT_EQ(run.health_trace[3 * 4 + 2], SourceHealth::kSuspect);
  EXPECT_EQ(run.health_trace[4 * 4 + 2], SourceHealth::kHealthy);
  // Late, not lost: the same records come out, even if window-emission
  // order shifted while the watermark was held.
  EXPECT_EQ(SortedRepr(run.results), SortedRepr(clean.results));
}

TEST(FaultInjectionTest, ExhaustedRetransmitsQuarantineThenRecover) {
  const query::CompiledQuery q = CompileS2S();
  FaultToleranceOptions opts;
  opts.max_retransmits = 2;
  opts.readmit_after_epochs = 2;
  // Loss is the checkpoints-off contract; with checkpoints on the epoch is
  // replayed instead (checkpoint_recovery_test).
  opts.checkpoint_interval = -1;
  // Flip budget of 10 outlasts the 2-retransmit bound: the epoch is
  // undeliverable and the source must be quarantined with loss.
  const FaultRun run = RunWithPlan(q, "seed=11;flip@3:1#0x10", 1, 12, opts);
  EXPECT_GE(run.stats.checksum_failures, 3u);  // original + 2 retransmits
  EXPECT_EQ(run.stats.retransmits, 2u);
  EXPECT_EQ(run.stats.retransmit_failures, 1u);
  EXPECT_EQ(run.stats.quarantines, 1u);
  EXPECT_GT(run.stats.records_lost, 0u);
  EXPECT_EQ(run.stats.readmissions, 1u);
  ExpectConservation(run);
  // Post-recovery the source serves again: more records delivered after
  // re-admission than were lost in the poisoned epoch.
  EXPECT_GT(run.stats.records_delivered, run.stats.records_lost);
}

TEST(FaultInjectionTest, StallDefersDeliveryWithoutLoss) {
  const query::CompiledQuery q = CompileS2S();
  const FaultRun clean = RunWithPlan(q, "", 1, 12);
  const FaultRun run = RunWithPlan(q, "seed=13;stall@2:0;stall@5:3", 1, 12);
  EXPECT_EQ(run.stats.stalls, 2u);
  EXPECT_EQ(run.stats.records_lost, 0u);
  EXPECT_EQ(run.in_flight, 0u);
  ExpectConservation(run);
  EXPECT_EQ(SortedRepr(run.results), SortedRepr(clean.results));
}

// ---------------------------------------------------------------------------
// Flap damping
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, FlappingStragglerIsDampened) {
  const query::CompiledQuery q = CompileS2S();
  FaultToleranceOptions opts;
  opts.quarantine_after_misses = 1000;  // flapping, never quarantined
  const std::string flappy = "seed=17;straggle@2:1;straggle@4:1;straggle@6:1";

  // Undamped (the seed default): each straggle suspects the source and the
  // very next on-time epoch clears it — three full flap cycles.
  const FaultRun undamped = RunWithPlan(q, flappy, 1, 12, opts);
  EXPECT_EQ(undamped.stats.suspects, 3u);

  // Damped: three consecutive on-time epochs are required for demotion, so
  // one good epoch between straggles proves nothing and the detector holds
  // one continuous suspicion window instead of flapping.
  opts.demote_after_ontime = 3;
  const FaultRun damped = RunWithPlan(q, flappy, 1, 12, opts);
  EXPECT_EQ(damped.stats.suspects, 1u);
  auto health_at = [&](int epoch, size_t s) {
    return damped.health_trace[static_cast<size_t>(epoch) * 4 + s];
  };
  for (int e = 2; e <= 8; ++e) {
    EXPECT_EQ(health_at(e, 1), SourceHealth::kSuspect) << "epoch " << e;
  }
  // On-time at 7, 8, 9 completes the probation: healthy again at epoch 9.
  EXPECT_EQ(health_at(9, 1), SourceHealth::kHealthy);
  // Damping changes detector bookkeeping, never the data: no loss, and the
  // same records come out as in the undamped run.
  EXPECT_EQ(damped.stats.records_lost, 0u);
  ExpectConservation(damped);
  EXPECT_EQ(SortedRepr(damped.results), SortedRepr(undamped.results));
}

TEST(FaultInjectionTest, RepeatedQuarantineBackoffDoubles) {
  const query::CompiledQuery q = CompileS2S();
  FaultToleranceOptions opts;
  opts.readmit_after_epochs = 1;
  const std::string spec = "seed=19;crash@2:1;crash@8:1";
  const int kEpochs = 14;

  const FaultRun run = RunWithPlan(q, spec, 1, kEpochs, opts);
  EXPECT_EQ(run.stats.crashes, 2u);
  EXPECT_EQ(run.stats.quarantines, 2u);
  EXPECT_EQ(run.stats.readmissions, 2u);
  ExpectConservation(run);
  auto health_at = [&](const FaultRun& r, int epoch, size_t s) {
    return r.health_trace[static_cast<size_t>(epoch) * 4 + s];
  };
  // First crash: base backoff (crash at 2 -> readmit at 4). Second crash of
  // the same source: the backoff doubles (crash at 8 -> readmit at 11, not
  // 10), so a crash-readmit-crash cycle stops churning the merge.
  EXPECT_EQ(health_at(run, 3, 1), SourceHealth::kQuarantined);
  EXPECT_EQ(health_at(run, 4, 1), SourceHealth::kHealthy);
  EXPECT_EQ(health_at(run, 10, 1), SourceHealth::kQuarantined);
  EXPECT_EQ(health_at(run, 11, 1), SourceHealth::kHealthy);

  // With doubling off, the second re-admission uses the base backoff again.
  opts.double_readmit_backoff = false;
  const FaultRun flat = RunWithPlan(q, spec, 1, kEpochs, opts);
  EXPECT_EQ(flat.stats.readmissions, 2u);
  EXPECT_EQ(health_at(flat, 10, 1), SourceHealth::kHealthy);
  ExpectConservation(flat);
}

// ---------------------------------------------------------------------------
// Cross-thread determinism of recovery itself
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, RecoveryIsThreadCountInvariant) {
  const query::CompiledQuery q = CompileS2S();
  FaultToleranceOptions opts;
  opts.readmit_after_epochs = 3;
  const std::string spec =
      "seed=9;flip@2:1;drop@3:2;crash@4:3;straggle@5:0;dup@6:1;stall@7:2";
  const FaultRun serial = RunWithPlan(q, spec, 1, 14, opts);
  ASSERT_FALSE(serial.results.empty());
  ExpectConservation(serial);
  for (const int threads : {2, 4}) {
    const FaultRun mt = RunWithPlan(q, spec, threads, 14, opts);
    // The entire recovery is a deterministic computation: results,
    // watermark trajectory, health transitions, every counter, and the
    // delivered wire bytes are bit-identical across thread counts.
    EXPECT_EQ(mt.results, serial.results) << "threads=" << threads;
    EXPECT_EQ(mt.watermarks, serial.watermarks) << "threads=" << threads;
    EXPECT_EQ(mt.health_trace, serial.health_trace) << "threads=" << threads;
    EXPECT_EQ(mt.stats, serial.stats) << "threads=" << threads;
    EXPECT_EQ(mt.wire_fnv, serial.wire_fnv) << "threads=" << threads;
    EXPECT_EQ(mt.in_flight, serial.in_flight) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Wall-clock deadline detection (non-fingerprinted: real time is involved)
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, WallClockDeadlineSuspectsAndRecovers) {
  // Wall-clock deadline detection assumes unshaped steady traffic and no
  // shedding; pin out the chaos env CI layers over this suite.
  const jarvis::testing::ScopedEnv no_traffic("JARVIS_TRAFFIC", nullptr);
  const jarvis::testing::ScopedEnv no_overload("JARVIS_OVERLOAD", nullptr);
  const query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 3; ++s) specs.push_back(MakeSpec(s, 20));
  // Source 1 sleeps through its first epoch: a genuine wall-clock straggler.
  auto slow = std::make_shared<std::atomic<bool>>(false);
  auto inner = std::move(specs[1].generate);
  specs[1].generate = [slow, inner](Micros from, Micros to) {
    if (!slow->exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return inner(from, to);
  };
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), 3);
  ASSERT_TRUE(block.Init().ok());
  FaultToleranceOptions opts;
  opts.take_deadline_ms = 20;
  opts.quarantine_after_misses = 1000;  // detection only, no quarantine
  block.EnableFaultTolerance(opts);
  stream::RecordBatch results;
  for (int e = 0; e < 30; ++e) {
    ASSERT_TRUE(block.RunEpoch(&results).ok()) << "epoch " << e;
    if (e > 3 && block.fault_stats().deadline_misses > 0 &&
        block.health(1) == SourceHealth::kHealthy &&
        block.records_in_flight() == 0) {
      break;
    }
  }
  ASSERT_TRUE(block.Finish(&results).ok());
  const FaultStats& stats = block.fault_stats();
  // The sleeping source missed at least one deadline, was suspected, and
  // everything it produced still arrived: late, never lost.
  EXPECT_GE(stats.deadline_misses, 1u);
  EXPECT_GE(stats.suspects, 1u);
  EXPECT_EQ(stats.records_lost, 0u);
  EXPECT_EQ(stats.records_sent, stats.records_delivered);
  EXPECT_NE(block.stream_processor().merged_watermark(),
            stream::WatermarkMerger::kUninitialized);
}

// ---------------------------------------------------------------------------
// Plan grammar fuzz: valid fault and traffic specs with flipped bytes,
// spliced together, or with a boundary number in one numeric slot. Each
// spec parses or fails with InvalidArgument under both plans; an accepted
// plan round-trips through ToString, and the injector and shaper run on it
// over epochs 0..64 (the sanitizer legs judge those queries).
// ---------------------------------------------------------------------------

constexpr std::string_view kFaultKinds[] = {"crash", "straggle", "drop",
                                            "dup",   "flip",     "stall"};
constexpr std::string_view kTrafficKinds[] = {"burst", "ramp", "skew",
                                              "leave"};
constexpr std::string_view kBoundaryNumbers[] = {
    "0",
    "1",
    "2147483647",
    "2147483648",
    "4294967295",
    "4294967296",
    "9223372036854775806",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999"};

std::string ValidSpec(Rng* rng, bool traffic) {
  const std::span<const std::string_view> kinds =
      traffic ? std::span<const std::string_view>(kTrafficKinds)
              : std::span<const std::string_view>(kFaultKinds);
  std::string spec = "seed=" + std::to_string(rng->NextBounded(1000));
  const uint64_t events = 1 + rng->NextBounded(4);
  for (uint64_t i = 0; i < events; ++i) {
    spec += ';';
    spec += kinds[rng->NextBounded(kinds.size())];
    spec += '@' + std::to_string(rng->NextBounded(64)) + ':' +
            std::to_string(rng->NextBounded(4));
    if (rng->NextBounded(2)) spec += '#' + std::to_string(rng->NextBounded(3));
    if (rng->NextBounded(2)) {
      spec += 'x' + std::to_string(1 + rng->NextBounded(8));
    }
    if (traffic && rng->NextBounded(2)) {
      spec += '*' + std::to_string(1 + rng->NextBounded(100));
    }
  }
  return spec;
}

std::string Mutate(Rng* rng, std::string spec, const std::string& other) {
  switch (rng->NextBounded(3)) {
    case 0: {  // flip bytes, some into grammar characters
      constexpr std::string_view kGrammar = "0123456789@:#x*;=-+ ";
      const uint64_t flips = 1 + rng->NextBounded(3);
      for (uint64_t i = 0; i < flips && !spec.empty(); ++i) {
        char& c = spec[rng->NextBounded(spec.size())];
        c = rng->NextBounded(2)
                ? kGrammar[rng->NextBounded(kGrammar.size())]
                : static_cast<char>(c ^ (1u << rng->NextBounded(8)));
      }
      return spec;
    }
    case 1:  // splice a prefix onto another spec's suffix
      return spec.substr(0, rng->NextBounded(spec.size() + 1)) +
             other.substr(rng->NextBounded(other.size() + 1));
    default: {  // one numeric slot takes a boundary number
      std::vector<std::pair<size_t, size_t>> slots;
      for (size_t i = 0; i < spec.size();) {
        if (spec[i] < '0' || spec[i] > '9') {
          ++i;
          continue;
        }
        size_t j = i;
        while (j < spec.size() && spec[j] >= '0' && spec[j] <= '9') ++j;
        slots.emplace_back(i, j - i);
        i = j;
      }
      const auto [at, len] = slots[rng->NextBounded(slots.size())];
      return spec.replace(
          at, len,
          kBoundaryNumbers[rng->NextBounded(std::size(kBoundaryNumbers))]);
    }
  }
}

/// Runs every injector query over epochs 0..64 for the plan's sources.
void DriveInjector(const FaultPlan& plan) {
  FaultInjector injector(plan);
  std::vector<size_t> sources = {0};
  for (const FaultEvent& ev : plan.events) sources.push_back(ev.source);
  for (const size_t s : sources) {
    for (int64_t e = 0; e <= 64; ++e) {
      injector.ShouldCrash(s, e);
      injector.StraggleEpochs(s, e);
      injector.ShouldStall(s, e);
      WireDrain wire;
      for (uint32_t f = 0; f < 3; ++f) {
        wire.frames.push_back(
            {static_cast<uint32_t>(e) * 3 + f, 1, {1, 2, 3, 4}});
      }
      injector.TamperTransmission(s, e, &wire);
      for (WireFrame& f : wire.frames) injector.TamperRetransmit(s, f.seq, &f);
    }
  }
}

/// Runs every shaper query over epochs 0..64 for the plan's sources.
void DriveShaper(const TrafficPlan& plan) {
  TrafficShaper shaper(plan);
  std::vector<size_t> sources = {0};
  for (const TrafficEvent& ev : plan.events) sources.push_back(ev.source);
  for (const size_t s : sources) {
    for (int64_t e = 0; e <= 64; ++e) {
      const double m = shaper.RateMultiplier(s, e);
      EXPECT_GE(m, 1.0);
      EXPECT_LE(m, 64.0);
      shaper.Suppressed(s, e);
      stream::RecordBatch batch = {stream::Record(Seconds(e), {int64_t{7}, 1.5})};
      shaper.Shape(s, e, &batch);
      EXPECT_LE(batch.size(), 64u);
    }
  }
}

class PlanGrammarFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanGrammarFuzzTest, SpecsParseOrFailCleanlyAndRoundTrip) {
  Rng rng(GetParam() * 6151);
  for (int round = 0; round < 4; ++round) {
    const bool traffic = round % 2 == 1;
    // Drawn in sequence: argument evaluation order is unspecified, and a
    // seed must name the same spec under every compiler.
    const std::string valid = ValidSpec(&rng, traffic);
    const std::string other = ValidSpec(&rng, !traffic);
    const std::string spec = Mutate(&rng, valid, other);
    SCOPED_TRACE(spec);
    const Result<FaultPlan> fault = FaultPlan::Parse(spec);
    if (fault.ok()) {
      const Result<FaultPlan> again = FaultPlan::Parse(fault->ToString());
      ASSERT_TRUE(again.ok()) << fault->ToString();
      EXPECT_EQ(again->seed, fault->seed);
      EXPECT_EQ(again->events, fault->events);
      DriveInjector(*fault);
    } else {
      EXPECT_EQ(fault.status().code(), StatusCode::kInvalidArgument);
    }
    const Result<TrafficPlan> shaped = TrafficPlan::Parse(spec);
    if (shaped.ok()) {
      const Result<TrafficPlan> again = TrafficPlan::Parse(shaped->ToString());
      ASSERT_TRUE(again.ok()) << shaped->ToString();
      EXPECT_EQ(again->seed, shaped->seed);
      EXPECT_EQ(again->events, shaped->events);
      DriveShaper(*shaped);
    } else {
      EXPECT_EQ(shaped.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanGrammarFuzzTest,
                         ::testing::ValuesIn(jarvis::testing::FuzzSeeds()));

}  // namespace
}  // namespace jarvis::core
