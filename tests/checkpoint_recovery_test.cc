// Epoch-aligned operator checkpointing: zero-loss crash recovery for
// stateful queries. Three layers under test: (1) the operator state-delta
// API round-trips every stateful operator's state through export/restore;
// (2) the BuildingBlock's checkpoint-aware recovery — crash faults lose
// zero records and post-recovery results are bit-identical to a fault-free
// run, because replay regenerates the discarded epochs under the recorded
// decision trace; (3) corruption fallbacks — a corrupt newest checkpoint
// falls back to an older retained epoch (still zero loss), a corrupt
// keyframe falls back to the accounted lossy path (conservation holds).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/building_block.h"
#include "core/checkpoint.h"
#include "core/fault.h"
#include "ser/buffer.h"
#include "stream/group_aggregate.h"
#include "stream/join.h"
#include "stream/ops.h"
#include "stream/record.h"
#include "testing/test_util.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::core {
namespace {

using jarvis::testing::FuzzSeeds;
using jarvis::testing::KvSchema;
using jarvis::testing::MakeWindowedRecord;
using stream::AggKind;
using stream::AggSpec;
using stream::GroupAggregateOp;
using stream::JoinOp;
using stream::RecordBatch;
using stream::Schema;
using stream::StateExport;
using stream::StaticTable;
using stream::ValueType;
using stream::WindowOp;

// ---------------------------------------------------------------------------
// Operator state round trips
// ---------------------------------------------------------------------------

std::vector<AggSpec> AllAggs() {
  return {{AggKind::kCount, 0, "cnt"},
          {AggKind::kSum, 1, "sum"},
          {AggKind::kAvg, 1, "avg"},
          {AggKind::kMin, 1, "min"},
          {AggKind::kMax, 1, "max"}};
}

GroupAggregateOp MakeAgg() {
  return GroupAggregateOp("g", KvSchema(), {0}, AllAggs(), Seconds(10),
                          /*emit_partials=*/false);
}

/// Flush everything and render the emissions: the operator-state equality
/// oracle (two operators with equal state emit equal rows forever).
RecordBatch FlushAll(stream::Operator* op) {
  RecordBatch out;
  EXPECT_TRUE(op->OnWatermark(Seconds(1000000), &out).ok());
  return out;
}

TEST(OperatorStateTest, GroupAggregateFullRoundTrip) {
  GroupAggregateOp op = MakeAgg();
  RecordBatch sink;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, 1, 2.0), &sink).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(2, 0, 1, 4.0), &sink).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(3, 0, 2, 10.0), &sink).ok());
  ASSERT_TRUE(
      op.Process(MakeWindowedRecord(Seconds(12), Seconds(10), 1, 7.0), &sink)
          .ok());

  ser::BufferWriter w;
  ASSERT_TRUE(op.ExportStateDelta(&w, StateExport::kFull).ok());
  GroupAggregateOp restored = MakeAgg();
  ser::BufferReader r(w.data().data(), w.size());
  ASSERT_TRUE(restored.RestoreState(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.open_windows(), 2u);
  EXPECT_EQ(FlushAll(&restored), FlushAll(&op));
}

TEST(OperatorStateTest, GroupAggregateDeltaCarriesOnlyChanges) {
  GroupAggregateOp op = MakeAgg();
  RecordBatch sink;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, 1, 2.0), &sink).ok());
  // First export is a keyframe (delta tracking starts here) — apply it to
  // the replica so both sides share a base.
  ser::BufferWriter base;
  ASSERT_TRUE(op.ExportStateDelta(&base, StateExport::kFull).ok());
  GroupAggregateOp replica = MakeAgg();
  ser::BufferReader rb(base.data().data(), base.size());
  ASSERT_TRUE(replica.RestoreState(&rb).ok());

  // Mutate one window, open another, and flush the first via watermark.
  ASSERT_TRUE(
      op.Process(MakeWindowedRecord(Seconds(12), Seconds(10), 2, 5.0), &sink)
          .ok());
  RecordBatch flushed;
  ASSERT_TRUE(op.OnWatermark(Seconds(10), &flushed).ok());
  ASSERT_EQ(flushed.size(), 1u);  // window [0,10) closed: one group (key 1)

  // The delta names the flushed window as a tombstone and ships only the
  // dirty window's section; applying it brings the replica into lockstep.
  ser::BufferWriter delta;
  ASSERT_TRUE(op.ExportStateDelta(&delta, StateExport::kDelta).ok());
  ser::BufferReader rd(delta.data().data(), delta.size());
  ASSERT_TRUE(replica.RestoreState(&rd).ok());
  EXPECT_TRUE(rd.AtEnd());
  EXPECT_EQ(replica.open_windows(), op.open_windows());
  EXPECT_EQ(FlushAll(&replica), FlushAll(&op));
}

TEST(OperatorStateTest, GroupAggregateEmptyDeltaAfterQuiescence) {
  GroupAggregateOp op = MakeAgg();
  RecordBatch sink;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, 1, 2.0), &sink).ok());
  ser::BufferWriter first;
  ASSERT_TRUE(op.ExportStateDelta(&first, StateExport::kFull).ok());
  // Nothing changed since: the delta is the empty grammar (two zero counts).
  ser::BufferWriter quiet;
  ASSERT_TRUE(op.ExportStateDelta(&quiet, StateExport::kDelta).ok());
  EXPECT_EQ(quiet.size(), 2u);
}

/// Restores `bytes` (one ExportStateDelta body) onto `op`, consuming all of
/// it.
void Restore(const ser::BufferWriter& bytes, stream::Operator* op) {
  ser::BufferReader r(bytes.data().data(), bytes.size());
  ASSERT_TRUE(op->RestoreState(&r).ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(OperatorStateTest, GroupAggregateDeltaShipsOnlyChangedGroups) {
  GroupAggregateOp op = MakeAgg();
  RecordBatch sink;
  for (int64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, k, 1.0 * k), &sink).ok());
  }
  ser::BufferWriter key;
  ASSERT_TRUE(op.ExportStateDelta(&key, StateExport::kFull).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(2, 0, 5, 9.0), &sink).ok());
  ser::BufferWriter delta;
  ASSERT_TRUE(op.ExportStateDelta(&delta, StateExport::kDelta).ok());

  // On its own the delta holds the one updated group, whole: restored
  // alone it rebuilds exactly that group, accumulator included.
  GroupAggregateOp alone = MakeAgg();
  Restore(delta, &alone);
  const RecordBatch rows = FlushAll(&alone);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].i64(0), 5);
  EXPECT_EQ(rows[0].i64(1), 2);       // count
  EXPECT_EQ(rows[0].f64(2), 14.0);    // sum
  EXPECT_EQ(rows[0].f64(4), 5.0);     // min

  // On top of the keyframe it overwrites that group and keeps the others.
  GroupAggregateOp chained = MakeAgg();
  Restore(key, &chained);
  Restore(delta, &chained);
  EXPECT_EQ(FlushAll(&chained), FlushAll(&op));
}

TEST(OperatorStateTest, GroupAggregateRestoreRejectsOtherKeyTypes) {
  GroupAggregateOp by_id = MakeAgg();  // keyed on an int64 field
  RecordBatch sink;
  ASSERT_TRUE(by_id.Process(MakeWindowedRecord(1, 0, 7, 2.0), &sink).ok());
  ser::BufferWriter w;
  ASSERT_TRUE(by_id.ExportStateDelta(&w, StateExport::kFull).ok());

  // Same key arity and aggregates, but the key is a string field.
  GroupAggregateOp by_host(
      "g",
      Schema::Of({{"host", ValueType::kString}, {"v", ValueType::kDouble}}),
      {0}, AllAggs(), Seconds(10), /*emit_partials=*/false);
  ser::BufferReader r(w.data().data(), w.size());
  const Status st = by_host.RestoreState(&r);
  EXPECT_EQ(st.code(), StatusCode::kSerializationError) << st.message();
}

TEST(OperatorStateTest, GroupAggregateDeltaRebuildsAReopenedWindow) {
  GroupAggregateOp op = MakeAgg();
  RecordBatch sink;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, 1, 2.0), &sink).ok());
  ASSERT_TRUE(op.Process(MakeWindowedRecord(2, 0, 2, 3.0), &sink).ok());
  ser::BufferWriter key;
  ASSERT_TRUE(op.ExportStateDelta(&key, StateExport::kFull).ok());
  GroupAggregateOp replica = MakeAgg();
  Restore(key, &replica);

  // The source ships its partial state (window [0,10) flushes), then a
  // record reopens the same window with a new group.
  RecordBatch partials;
  ASSERT_TRUE(op.ExportPartialState(&partials).ok());
  ASSERT_EQ(partials.size(), 2u);
  ASSERT_TRUE(op.Process(MakeWindowedRecord(3, 0, 3, 4.0), &sink).ok());

  // The delta names the window as a tombstone, then rebuilds it.
  ser::BufferWriter delta;
  ASSERT_TRUE(op.ExportStateDelta(&delta, StateExport::kDelta).ok());
  ser::BufferReader d(delta.data().data(), delta.size());
  uint64_t n = 0;
  int64_t start = -1;
  ASSERT_TRUE(d.GetVarU64(&n).ok());
  EXPECT_EQ(n, 1u);
  ASSERT_TRUE(d.GetVarI64(&start).ok());
  EXPECT_EQ(start, 0);
  ASSERT_TRUE(d.GetVarU64(&n).ok());
  EXPECT_EQ(n, 1u);
  ASSERT_TRUE(d.GetVarI64(&start).ok());
  EXPECT_EQ(start, 0);

  Restore(delta, &replica);
  const RecordBatch rows = FlushAll(&replica);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].i64(0), 3);
  EXPECT_EQ(rows, FlushAll(&op));
}

TEST(OperatorStateTest, GroupAggregateRestoredOperatorExportsDeltas) {
  // A recovered source replays from its restored state, and its next
  // checkpoint is a delta against that state: the windows replay flushes
  // must be tombstoned, or a later restore would resurrect them.
  GroupAggregateOp op = MakeAgg();
  RecordBatch sink;
  ASSERT_TRUE(op.Process(MakeWindowedRecord(1, 0, 1, 2.0), &sink).ok());
  ASSERT_TRUE(
      op.Process(MakeWindowedRecord(Seconds(12), Seconds(10), 2, 5.0), &sink)
          .ok());
  ser::BufferWriter key;
  ASSERT_TRUE(op.ExportStateDelta(&key, StateExport::kFull).ok());

  GroupAggregateOp recovered = MakeAgg();
  Restore(key, &recovered);
  RecordBatch flushed;
  ASSERT_TRUE(recovered.OnWatermark(Seconds(10), &flushed).ok());
  ASSERT_EQ(flushed.size(), 1u);
  ser::BufferWriter delta;
  ASSERT_TRUE(recovered.ExportStateDelta(&delta, StateExport::kDelta).ok());

  GroupAggregateOp chain = MakeAgg();
  Restore(key, &chain);
  Restore(delta, &chain);
  EXPECT_EQ(chain.open_windows(), 1u);
  EXPECT_EQ(FlushAll(&chain), FlushAll(&recovered));
}

/// kPartial row for MakeAgg's layout: key, then count/sum/min/max per agg.
stream::Record PartialRow(Micros window_start, int64_t key, double v) {
  stream::Record r = MakeWindowedRecord(window_start + Seconds(10),
                                        window_start, key);
  r.kind = stream::RecordKind::kPartial;
  for (size_t i = 0; i < AllAggs().size(); ++i) {
    r.fields.emplace_back(int64_t{2});
    r.fields.emplace_back(2.0 * v);
    r.fields.emplace_back(v);
    r.fields.emplace_back(v);
  }
  return r;
}

TEST(OperatorStateTest, GroupAggregateDeltaLockstepFuzz) {
  // Keys come from 4,096 values and batches run up to 48 records, so a
  // window collects hundreds of groups and its table grows several times.
  constexpr uint64_t kKeys = 4096;
  for (const uint64_t seed : FuzzSeeds()) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    GroupAggregateOp op = MakeAgg();
    auto replica = std::make_unique<GroupAggregateOp>(
        "g", KvSchema(), std::vector<size_t>{0}, AllAggs(), Seconds(10),
        /*emit_partials=*/false);
    RecordBatch out;
    Micros wm = 0;
    // Lockstep check: equal state encodes to equal keyframes. Nothing
    // changed since the caller's last export, so this probe leaves the
    // operator's delta baseline where it was.
    auto expect_lockstep = [&](int step) {
      ASSERT_EQ(replica->open_windows(), op.open_windows()) << "step " << step;
      ser::BufferWriter mine, theirs;
      ASSERT_TRUE(op.ExportStateDelta(&mine, StateExport::kFull).ok());
      ASSERT_TRUE(replica->ExportStateDelta(&theirs, StateExport::kFull).ok());
      ASSERT_EQ(mine.data(), theirs.data()) << "step " << step;
    };
    for (int step = 0; step < 200; ++step) {
      const uint64_t action = rng.NextBounded(20);
      if (action < 12) {
        // A batch of updates across three windows at or past the
        // watermark's window, with an occasional late (reopening) record
        // and partial-state merge.
        RecordBatch batch;
        const uint64_t n = 1 + rng.NextBounded(48);
        for (uint64_t i = 0; i < n; ++i) {
          Micros ws =
              wm + Seconds(10) * static_cast<Micros>(rng.NextBounded(3));
          if (wm > 0 && rng.NextBounded(8) == 0) ws = wm - Seconds(10);
          const int64_t k = static_cast<int64_t>(rng.NextBounded(kKeys));
          const double v = static_cast<double>(rng.NextBounded(1000)) / 7.0;
          batch.push_back(rng.NextBounded(5) == 0
                              ? PartialRow(ws, k, v)
                              : MakeWindowedRecord(ws + 1, ws, k, v));
        }
        ASSERT_TRUE(op.ProcessBatch(&batch).ok());
      } else if (action < 14) {
        wm += Seconds(10);
        ASSERT_TRUE(op.OnWatermark(wm, &out).ok());
      } else if (action < 15) {
        ASSERT_TRUE(op.ExportPartialState(&out).ok());
      } else if (action < 17) {
        // Restore into a live window of the replica, over a group it has
        // just updated itself, then update that group twice more. The
        // replica's next delta, taken against what restore left, must equal
        // the operator's byte for byte.
        ser::BufferWriter sync;
        ASSERT_TRUE(op.ExportStateDelta(&sync, StateExport::kDelta).ok());
        Restore(sync, replica.get());
        const Micros ws = wm + Seconds(10) *
                                   static_cast<Micros>(rng.NextBounded(3));
        const int64_t k = static_cast<int64_t>(rng.NextBounded(kKeys));
        auto update_twice = [&] {
          RecordBatch twice;
          for (int i = 0; i < 2; ++i) {
            const double v = static_cast<double>(rng.NextBounded(1000)) / 7.0;
            twice.push_back(MakeWindowedRecord(ws + 1, ws, k, v));
          }
          RecordBatch copy = twice;
          ASSERT_TRUE(op.ProcessBatch(&twice).ok());
          ASSERT_TRUE(replica->ProcessBatch(&copy).ok());
        };
        update_twice();
        ser::BufferWriter overwrite;
        ASSERT_TRUE(op.ExportStateDelta(&overwrite, StateExport::kDelta).ok());
        Restore(overwrite, replica.get());
        update_twice();
        ser::BufferWriter mine, theirs;
        ASSERT_TRUE(op.ExportStateDelta(&mine, StateExport::kDelta).ok());
        ASSERT_TRUE(
            replica->ExportStateDelta(&theirs, StateExport::kDelta).ok());
        ASSERT_EQ(mine.data(), theirs.data()) << "step " << step;
        expect_lockstep(step);
      } else {
        const StateExport mode = rng.NextBounded(4) == 0 ? StateExport::kFull
                                                         : StateExport::kDelta;
        ser::BufferWriter w;
        ASSERT_TRUE(op.ExportStateDelta(&w, mode).ok());
        // A keyframe starts a new chain on a fresh operator.
        if (mode == StateExport::kFull) {
          replica = std::make_unique<GroupAggregateOp>(
              "g", KvSchema(), std::vector<size_t>{0}, AllAggs(), Seconds(10),
              /*emit_partials=*/false);
        }
        Restore(w, replica.get());
        expect_lockstep(step);
      }
      out.clear();
    }
    ser::BufferWriter last;
    ASSERT_TRUE(op.ExportStateDelta(&last, StateExport::kDelta).ok());
    Restore(last, replica.get());
    EXPECT_EQ(FlushAll(replica.get()), FlushAll(&op));
  }
}

TEST(OperatorStateTest, JoinRoundTripsMissCounter) {
  auto table = std::make_shared<StaticTable>(
      "ip", Schema::Field{"torId", ValueType::kInt64});
  for (int64_t ip = 100; ip < 105; ++ip) table->Insert(ip, stream::Value(ip));
  JoinOp op("j", KvSchema("ip", "rtt"), table, 0);
  RecordBatch sink;
  ASSERT_TRUE(
      op.Process(jarvis::testing::MakeRecord(1, int64_t{100}, 1.0), &sink)
          .ok());
  ASSERT_TRUE(
      op.Process(jarvis::testing::MakeRecord(2, int64_t{999}, 1.0), &sink)
          .ok());
  ASSERT_TRUE(
      op.Process(jarvis::testing::MakeRecord(3, int64_t{998}, 1.0), &sink)
          .ok());
  ASSERT_EQ(op.misses(), 2u);

  ser::BufferWriter w;
  ASSERT_TRUE(op.ExportStateDelta(&w, StateExport::kFull).ok());
  JoinOp restored("j", KvSchema("ip", "rtt"), table, 0);
  ser::BufferReader r(w.data().data(), w.size());
  ASSERT_TRUE(restored.RestoreState(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.misses(), 2u);

  // Unchanged counter -> empty delta; changed counter -> one section.
  ser::BufferWriter quiet;
  ASSERT_TRUE(op.ExportStateDelta(&quiet, StateExport::kDelta).ok());
  EXPECT_EQ(quiet.size(), 2u);
  ASSERT_TRUE(
      op.Process(jarvis::testing::MakeRecord(4, int64_t{997}, 1.0), &sink)
          .ok());
  ser::BufferWriter dirty;
  ASSERT_TRUE(op.ExportStateDelta(&dirty, StateExport::kDelta).ok());
  EXPECT_GT(dirty.size(), 2u);
}

TEST(OperatorStateTest, WindowWidthGuardsRestore) {
  WindowOp op("w", KvSchema(), Seconds(10));
  ser::BufferWriter w;
  ASSERT_TRUE(op.ExportStateDelta(&w, StateExport::kFull).ok());
  WindowOp same("w", KvSchema(), Seconds(10));
  ser::BufferReader r1(w.data().data(), w.size());
  EXPECT_TRUE(same.RestoreState(&r1).ok());
  // A differently-shaped plan must refuse the checkpoint, not drift.
  WindowOp other("w", KvSchema(), Seconds(5));
  ser::BufferReader r2(w.data().data(), w.size());
  EXPECT_FALSE(other.RestoreState(&r2).ok());
}

/// A stateful operator that "forgot" to implement the checkpoint API: the
/// base class must refuse to silently export nothing (that would be a
/// correctness trap — its state would vanish on every restore).
class ForgetfulOp : public stream::Operator {
 public:
  ForgetfulOp() : Operator("forgetful", KvSchema()) {}
  stream::OpKind kind() const override {
    return stream::OpKind::kGroupAggregate;
  }
  bool IsStateful() const override { return true; }

 protected:
  Status DoProcess(stream::Record&& rec, RecordBatch* out) override {
    out->push_back(std::move(rec));
    return Status::OK();
  }
  Status DoProcessBatch(RecordBatch* batch) override {
    (void)batch;
    return Status::OK();
  }
};

TEST(OperatorStateTest, StatefulOperatorWithoutOverrideIsAnError) {
  ForgetfulOp op;
  ser::BufferWriter w;
  EXPECT_FALSE(op.ExportStateDelta(&w, StateExport::kFull).ok());
  ser::BufferWriter empty;
  empty.PutVarU64(0);
  empty.PutVarU64(0);
  ser::BufferReader r(empty.data().data(), empty.size());
  EXPECT_FALSE(op.RestoreState(&r).ok());
}

// ---------------------------------------------------------------------------
// End-to-end crash recovery
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

struct CkptRun {
  RecordBatch results;
  FaultStats stats;
  uint64_t in_flight = 0;
  bool duplicate_delivery = false;
  Micros final_watermark = -1;
};

/// Runs `epochs` FT epochs under `spec` with an explicit checkpoint
/// interval (so the environment never decides the mode under test). The
/// plan string is always installed — a no-op event past the horizon keeps
/// clean runs clean even on the chaos CI legs, where JARVIS_FAULTS would
/// otherwise inject its own plan.
CkptRun RunCkpt(const query::CompiledQuery& q, const std::string& spec,
                int threads, int epochs, int ckpt_interval,
                int ckpt_retain = 0) {
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 4; ++s) specs.push_back(MakeSpec(s, 40));
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), threads);
  EXPECT_TRUE(block.Init().ok());
  FaultToleranceOptions opts;
  opts.readmit_after_epochs = 2;
  opts.checkpoint_interval = ckpt_interval;
  opts.checkpoint_retain = ckpt_retain;
  block.EnableFaultTolerance(opts);
  const std::string effective =
      spec.empty() ? "seed=1;stall@100000:0" : spec;
  auto plan = FaultPlan::Parse(effective);
  EXPECT_TRUE(plan.ok()) << plan.status().message();
  block.SetFaultPlan(std::move(plan).value());

  CkptRun run;
  std::map<std::pair<size_t, uint32_t>, int> seen;
  block.SetWireTap(
      [&](size_t s, uint32_t seq, const std::vector<uint8_t>& bytes) {
        (void)bytes;
        if (++seen[{s, seq}] > 1) run.duplicate_delivery = true;
      });
  for (int e = 0; e < epochs; ++e) {
    EXPECT_TRUE(block.RunEpoch(&run.results).ok()) << "epoch " << e;
  }
  run.final_watermark = block.stream_processor().merged_watermark();
  EXPECT_TRUE(block.Finish(&run.results).ok());
  run.stats = block.fault_stats();
  run.in_flight = block.records_in_flight();
  return run;
}

void ExpectConservation(const CkptRun& run) {
  EXPECT_EQ(run.stats.records_sent,
            run.stats.records_delivered + run.stats.records_lost +
                run.in_flight);
  EXPECT_FALSE(run.duplicate_delivery);
}

TEST(CheckpointRecoveryTest, CrashLosesNothingAndResultsAreBitIdentical) {
  const query::CompiledQuery q = CompileS2S();
  const CkptRun clean = RunCkpt(q, "", 1, 14, /*ckpt_interval=*/1);
  EXPECT_EQ(clean.stats.records_lost, 0u);
  EXPECT_GT(clean.stats.checkpoints_emitted, 0u);
  const CkptRun crashed = RunCkpt(q, "seed=3;crash@3:1", 1, 14, 1);
  EXPECT_EQ(crashed.stats.crashes, 1u);
  EXPECT_EQ(crashed.stats.quarantines, 1u);
  EXPECT_EQ(crashed.stats.readmissions, 1u);
  EXPECT_EQ(crashed.stats.checkpoint_restores, 1u);
  // The contract under test: zero loss, and the final result stream is
  // bit-identical to the run without the fault — replay reproduced the
  // crashed source's trajectory exactly (state, frames, and decisions).
  EXPECT_EQ(crashed.stats.records_lost, 0u);
  EXPECT_EQ(crashed.in_flight, 0u);
  ExpectConservation(crashed);
  EXPECT_EQ(crashed.results, clean.results);
  EXPECT_EQ(crashed.final_watermark, clean.final_watermark);
  // Checkpoint recovery does not churn the survivors' plans.
  EXPECT_EQ(crashed.stats.replans_triggered, clean.stats.replans_triggered);
}

TEST(CheckpointRecoveryTest, EveryScriptedCrashPlanLosesNothing) {
  const query::CompiledQuery q = CompileS2S();
  const CkptRun clean = RunCkpt(q, "", 1, 16, 1);
  const char* kPlans[] = {
      "seed=2;crash@1:0",
      "seed=4;crash@2:3;crash@6:1",          // two sources, staggered
      "seed=5;crash@2:2;crash@7:2",          // same source crashes twice
      "seed=6;crash@3:1;flip@2:1;drop@4:0",  // crash amid wire faults
      "seed=8;crash@4:0;stall@3:0",          // crash right after a stall
  };
  for (const char* spec : kPlans) {
    SCOPED_TRACE(spec);
    const CkptRun run = RunCkpt(q, spec, 1, 16, 1);
    EXPECT_GT(run.stats.crashes, 0u);
    EXPECT_EQ(run.stats.records_lost, 0u);
    EXPECT_EQ(run.in_flight, 0u);
    ExpectConservation(run);
    EXPECT_EQ(run.results, clean.results);
  }
}

TEST(CheckpointRecoveryTest, ExhaustedRetransmitsRecoverLosslessly) {
  const query::CompiledQuery q = CompileS2S();
  // The PR7 lossy scenario (flip budget outlasts the retransmit bound),
  // now with checkpoints: the undeliverable epoch is replayed instead of
  // declared lost.
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 4; ++s) specs.push_back(MakeSpec(s, 40));
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), 1);
  ASSERT_TRUE(block.Init().ok());
  FaultToleranceOptions opts;
  opts.max_retransmits = 2;
  opts.readmit_after_epochs = 2;
  opts.checkpoint_interval = 1;
  block.EnableFaultTolerance(opts);
  auto plan = FaultPlan::Parse("seed=11;flip@3:1#0x10");
  ASSERT_TRUE(plan.ok());
  block.SetFaultPlan(std::move(plan).value());
  RecordBatch results;
  for (int e = 0; e < 12; ++e) {
    ASSERT_TRUE(block.RunEpoch(&results).ok()) << "epoch " << e;
  }
  ASSERT_TRUE(block.Finish(&results).ok());
  const FaultStats& stats = block.fault_stats();
  EXPECT_EQ(stats.retransmit_failures, 1u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.checkpoint_restores, 1u);
  EXPECT_EQ(stats.records_lost, 0u);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_EQ(stats.records_sent,
            stats.records_delivered + block.records_in_flight());
}

TEST(CheckpointRecoveryTest, GenesisReplayCoversCrashBeforeFirstCheckpoint) {
  const query::CompiledQuery q = CompileS2S();
  const CkptRun clean = RunCkpt(q, "", 1, 14, /*ckpt_interval=*/4);
  // Crash at epoch 1: no checkpoint barrier has passed yet (interval 4), so
  // recovery replays from genesis under the decision trace.
  const CkptRun run = RunCkpt(q, "seed=9;crash@1:2", 1, 14, 4);
  EXPECT_EQ(run.stats.crashes, 1u);
  EXPECT_EQ(run.stats.checkpoint_restores, 1u);
  EXPECT_EQ(run.stats.records_lost, 0u);
  ExpectConservation(run);
  EXPECT_EQ(run.results, clean.results);
}

TEST(CheckpointRecoveryTest, IntervalAndRetainShapeTheRing) {
  const query::CompiledQuery q = CompileS2S();
  for (const auto& [interval, retain] : std::vector<std::pair<int, int>>{
           {1, 2}, {2, 3}, {3, 1}}) {
    SCOPED_TRACE("interval=" + std::to_string(interval) +
                 " retain=" + std::to_string(retain));
    const CkptRun clean = RunCkpt(q, "", 1, 16, interval, retain);
    const CkptRun run =
        RunCkpt(q, "seed=7;crash@5:1", 1, 16, interval, retain);
    EXPECT_GT(run.stats.checkpoints_emitted, 0u);
    EXPECT_EQ(run.stats.records_lost, 0u);
    ExpectConservation(run);
    EXPECT_EQ(run.results, clean.results);
  }
}

TEST(CheckpointRecoveryTest, RecoveryIsThreadCountInvariant) {
  const query::CompiledQuery q = CompileS2S();
  const std::string spec = "seed=13;crash@3:1;flip@2:2;crash@7:0";
  const CkptRun serial = RunCkpt(q, spec, 1, 16, 1);
  ASSERT_FALSE(serial.results.empty());
  EXPECT_EQ(serial.stats.records_lost, 0u);
  ExpectConservation(serial);
  for (const int threads : {2, 4}) {
    const CkptRun mt = RunCkpt(q, spec, threads, 16, 1);
    EXPECT_EQ(mt.results, serial.results) << "threads=" << threads;
    EXPECT_EQ(mt.stats, serial.stats) << "threads=" << threads;
    EXPECT_EQ(mt.in_flight, serial.in_flight) << "threads=" << threads;
    EXPECT_EQ(mt.final_watermark, serial.final_watermark)
        << "threads=" << threads;
  }
}

TEST(CheckpointRecoveryTest, CheckpointsOffCrashDropsTheQuarantineWindow) {
  const query::CompiledQuery q = CompileS2S();
  // Guard for the guard: with checkpointing force-disabled the same crash
  // resyncs past the hole instead of replaying it, so the crashed source's
  // quarantine-window records never reach the SP and the results diverge
  // from the fault-free run — proving the bit-identity above comes from the
  // checkpoint machinery, not a vacuous scenario. (A crashed source never
  // *sent* those records, so they are skipped, not "lost": loss accounting
  // is reserved for sent-but-undeliverable data, tested below.)
  const CkptRun clean = RunCkpt(q, "", 1, 14, /*ckpt_interval=*/-1);
  const CkptRun run =
      RunCkpt(q, "seed=3;crash@3:1", 1, 14, /*ckpt_interval=*/-1);
  EXPECT_EQ(run.stats.crashes, 1u);
  EXPECT_EQ(run.stats.checkpoint_restores, 0u);
  EXPECT_EQ(run.stats.checkpoints_emitted, 0u);
  EXPECT_NE(run.results, clean.results);
  ExpectConservation(run);
}

TEST(CheckpointRecoveryTest, CheckpointsOffExhaustedRetransmitsStayLossy) {
  const query::CompiledQuery q = CompileS2S();
  // The PR7 lossy contract must survive unchanged when checkpointing is
  // forced off: an undeliverable epoch is declared lost, not replayed.
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 4; ++s) specs.push_back(MakeSpec(s, 40));
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), 1);
  ASSERT_TRUE(block.Init().ok());
  FaultToleranceOptions opts;
  opts.max_retransmits = 2;
  opts.readmit_after_epochs = 2;
  opts.checkpoint_interval = -1;
  block.EnableFaultTolerance(opts);
  auto plan = FaultPlan::Parse("seed=11;flip@3:1#0x10");
  ASSERT_TRUE(plan.ok());
  block.SetFaultPlan(std::move(plan).value());
  RecordBatch results;
  for (int e = 0; e < 12; ++e) {
    ASSERT_TRUE(block.RunEpoch(&results).ok()) << "epoch " << e;
  }
  ASSERT_TRUE(block.Finish(&results).ok());
  const FaultStats& stats = block.fault_stats();
  EXPECT_EQ(stats.retransmit_failures, 1u);
  EXPECT_GT(stats.records_lost, 0u);
  EXPECT_EQ(stats.checkpoint_restores, 0u);
  EXPECT_EQ(stats.checkpoints_emitted, 0u);
  EXPECT_EQ(stats.records_sent, stats.records_delivered + stats.records_lost +
                                    block.records_in_flight());
}

// ---------------------------------------------------------------------------
// Corruption fallbacks on the retained ring
// ---------------------------------------------------------------------------

/// Epoch-loop harness that corrupts the SP's retained checkpoints mid-run,
/// right before a scripted crash forces a restore through them.
CkptRun RunWithStoreCorruption(const query::CompiledQuery& q,
                               const char* plan_spec, int corrupt_at,
                               bool corrupt_keyframe) {
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 4; ++s) specs.push_back(MakeSpec(s, 40));
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), 1);
  EXPECT_TRUE(block.Init().ok());
  FaultToleranceOptions opts;
  opts.max_retransmits = 2;
  opts.readmit_after_epochs = 2;
  opts.checkpoint_interval = 1;
  opts.checkpoint_retain = 8;  // keep the whole run in one keyframe chain
  block.EnableFaultTolerance(opts);
  auto plan = FaultPlan::Parse(plan_spec);
  EXPECT_TRUE(plan.ok());
  block.SetFaultPlan(std::move(plan).value());

  CkptRun run;
  for (int e = 0; e < 14; ++e) {
    if (e == corrupt_at) {
      // The ring for source 1 holds checkpoints of epochs 0..corrupt_at-1.
      // Flip a payload byte past the envelope header so the CRC check
      // catches it at PlanRestore time.
      CheckpointStore& store =
          block.stream_processor().mutable_checkpoint_store(1);
      EXPECT_GT(store.size(), 1u);
      const size_t idx = corrupt_keyframe ? 0 : store.size() - 1;
      std::vector<uint8_t>& payload = store.mutable_entry(idx).payload;
      EXPECT_GT(payload.size(), 8u);
      payload[payload.size() - 1] ^= 0x40;
    }
    EXPECT_TRUE(block.RunEpoch(&run.results).ok()) << "epoch " << e;
  }
  run.final_watermark = block.stream_processor().merged_watermark();
  EXPECT_TRUE(block.Finish(&run.results).ok());
  run.stats = block.fault_stats();
  run.in_flight = block.records_in_flight();
  return run;
}

TEST(CheckpointRecoveryTest, CorruptNewestFallsBackToOlderEpochZeroLoss) {
  const query::CompiledQuery q = CompileS2S();
  const CkptRun clean = RunCkpt(q, "", 1, 14, 1, 8);
  const CkptRun run =
      RunWithStoreCorruption(q, "seed=17;crash@5:1", /*corrupt_at=*/5,
                             /*corrupt_keyframe=*/false);
  // The corrupt newest entry is skipped; restore roots at an older epoch
  // and replay regenerates the difference — still zero loss, still
  // bit-identical results.
  EXPECT_EQ(run.stats.checkpoint_restores, 1u);
  EXPECT_GT(run.stats.checkpoint_fallbacks, 0u);
  EXPECT_EQ(run.stats.records_lost, 0u);
  ExpectConservation(run);
  EXPECT_EQ(run.results, clean.results);
}

TEST(CheckpointRecoveryTest, CorruptKeyframeFallsBackToLossyPath) {
  const query::CompiledQuery q = CompileS2S();
  // The exhausted-retransmit fault leaves sent-but-undeliverable records
  // outstanding (a crash sends nothing, so it would have nothing to lose);
  // with the keyframe corrupted no restore chain survives, so recovery
  // degrades to the accounted lossy re-admission — records are declared
  // lost, never silently dropped.
  // Epoch 3 carries records (the pingmesh burst pattern leaves some later
  // epochs empty, and an undeliverable empty epoch would have nothing to
  // lose — vacuous for this test).
  const CkptRun run = RunWithStoreCorruption(q, "seed=17;flip@3:1#0x10",
                                             /*corrupt_at=*/3,
                                             /*corrupt_keyframe=*/true);
  EXPECT_EQ(run.stats.checkpoint_restores, 0u);
  EXPECT_GT(run.stats.checkpoint_fallbacks, 0u);
  EXPECT_GT(run.stats.records_lost, 0u);
  ExpectConservation(run);
}

}  // namespace
}  // namespace jarvis::core
