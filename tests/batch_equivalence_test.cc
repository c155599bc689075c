// Batch-vs-record equivalence: for every operator kind, the in-place
// ProcessBatch must produce exactly the outputs AND stats counters of
// record-at-a-time Process, for fuzzed batches (including kPartial records
// and awkward chunk boundaries); Pipeline::PushBatch must match Push; and
// the schema-elided batch wire format must round-trip arbitrary batches —
// empty, partial-bearing, and schema-divergent — byte-exactly. The final
// section extends the same discipline across threads: a BuildingBlock
// workload at threads=1 and threads=N must be bit-identical in results,
// drain wire bytes, stats, and observations.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/building_block.h"
#include "core/exec_pool.h"
#include "core/source_executor.h"
#include "core/sp_executor.h"
#include "query/compile.h"
#include "query/query_builder.h"
#include "stream/group_aggregate.h"
#include "stream/join.h"
#include "stream/ops.h"
#include "stream/pipeline.h"
#include "stream/predicate.h"
#include "stream/record.h"
#include "testing/test_util.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::stream {
namespace {

using OpFactory = std::function<std::unique_ptr<Operator>()>;

Value RandomValueOfType(Rng& rng, ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return Value(
          static_cast<int64_t>(rng.NextU64() >> rng.NextBounded(64)) - 500);
    case ValueType::kDouble:
      return Value(rng.NextGaussian() * 1e3);
    case ValueType::kString: {
      std::string s(rng.NextBounded(12), ' ');
      for (char& c : s) c = static_cast<char>('a' + rng.NextBounded(26));
      return Value(std::move(s));
    }
  }
  return Value(int64_t{0});
}

/// {i64 key in [0,8), f64 value} data record, optionally windowed.
Record RandomKvRecord(Rng& rng, bool windowed) {
  Record r;
  r.event_time = static_cast<Micros>(rng.NextBounded(1 << 20)) * 100;
  if (windowed) r.window_start = r.event_time - r.event_time % Seconds(1);
  r.fields.emplace_back(static_cast<int64_t>(rng.NextBounded(8)));
  r.fields.emplace_back(rng.NextDouble() * 100.0);
  return r;
}

/// Opaque partial-state record (stateless operators forward these untouched).
Record RandomOpaquePartial(Rng& rng) {
  Record r;
  r.kind = RecordKind::kPartial;
  r.event_time = static_cast<Micros>(rng.NextBounded(1 << 20));
  r.window_start =
      rng.NextBernoulli(0.5) ? -1 : static_cast<Micros>(rng.NextBounded(1000));
  const size_t nf = rng.NextBounded(5);
  for (size_t i = 0; i < nf; ++i) {
    r.fields.push_back(
        RandomValueOfType(rng, static_cast<ValueType>(rng.NextBounded(3))));
  }
  return r;
}

RecordBatch RandomKvBatch(Rng& rng, size_t n, bool windowed,
                          double partial_p) {
  RecordBatch batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBernoulli(partial_p)) {
      batch.push_back(RandomOpaquePartial(rng));
    } else {
      batch.push_back(RandomKvRecord(rng, windowed));
    }
  }
  return batch;
}

/// Valid GroupAggregate partial-state row for nk keys / naggs aggregations.
Record RandomGaPartial(Rng& rng, size_t nk, size_t naggs) {
  Record r;
  r.kind = RecordKind::kPartial;
  r.window_start = static_cast<Micros>(rng.NextBounded(3)) * Seconds(1);
  r.event_time = r.window_start + Seconds(1);
  for (size_t k = 0; k < nk; ++k) {
    r.fields.emplace_back(static_cast<int64_t>(rng.NextBounded(4)));
  }
  for (size_t a = 0; a < naggs; ++a) {
    const double x = rng.NextDouble() * 10.0;
    r.fields.emplace_back(static_cast<int64_t>(1 + rng.NextBounded(5)));
    r.fields.emplace_back(x * 3);
    r.fields.emplace_back(x);
    r.fields.emplace_back(x * 2);
  }
  return r;
}

std::vector<RecordBatch> SliceInto(RecordBatch&& input, size_t chunk_size) {
  std::vector<RecordBatch> chunks;
  RecordBatch chunk;
  for (Record& r : input) {
    chunk.push_back(std::move(r));
    if (chunk.size() == chunk_size) {
      chunks.push_back(std::move(chunk));
      chunk = RecordBatch();
    }
  }
  if (!chunk.empty()) chunks.push_back(std::move(chunk));
  return chunks;
}

void ExpectStatsEq(const OperatorStats& got, const OperatorStats& want,
                   const char* what) {
  EXPECT_EQ(got.records_in, want.records_in) << what;
  EXPECT_EQ(got.records_out, want.records_out) << what;
  EXPECT_EQ(got.bytes_in, want.bytes_in) << what;
  EXPECT_EQ(got.bytes_out, want.bytes_out) << what;
}

/// Feeds `input` through a fresh operator record by record, or in
/// `chunk_size` batches, then flushes via watermark + ExportPartialState;
/// returns all outputs in order.
RecordBatch RunOp(Operator& op, RecordBatch&& input, bool batched,
                  size_t chunk_size) {
  RecordBatch out;
  if (batched) {
    for (RecordBatch& chunk : SliceInto(std::move(input), chunk_size)) {
      EXPECT_TRUE(op.ProcessBatch(&chunk).ok());
      for (Record& r : chunk) out.push_back(std::move(r));
    }
  } else {
    for (Record& r : input) {
      EXPECT_TRUE(op.Process(std::move(r), &out).ok());
    }
  }
  EXPECT_TRUE(op.OnWatermark(Seconds(1e9), &out).ok());
  EXPECT_TRUE(op.ExportPartialState(&out).ok());
  return out;
}

void CheckOperatorEquivalence(const OpFactory& make, const RecordBatch& input,
                              size_t chunk_size) {
  auto ref_op = make();
  RecordBatch ref_in = input;
  const RecordBatch ref_out =
      RunOp(*ref_op, std::move(ref_in), /*batched=*/false, chunk_size);

  auto batch_op = make();
  RecordBatch batch_in = input;
  const RecordBatch batch_out =
      RunOp(*batch_op, std::move(batch_in), /*batched=*/true, chunk_size);
  EXPECT_EQ(batch_out, ref_out) << "ProcessBatch output diverges";
  ExpectStatsEq(batch_op->stats(), ref_op->stats(), "ProcessBatch stats");
}

Schema KvSchema() {
  return Schema::Of(
      {{"k", ValueType::kInt64}, {"v", ValueType::kDouble}});
}

class BatchEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchEquivalenceTest, WindowMatchesRecordPath) {
  Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    const size_t n = rng.NextBounded(200);
    const size_t chunk = 1 + rng.NextBounded(17);
    CheckOperatorEquivalence(
        [&] {
          return std::make_unique<WindowOp>("w", KvSchema(), Seconds(1));
        },
        RandomKvBatch(rng, n, false, 0.15), chunk);
  }
}

TEST_P(BatchEquivalenceTest, FilterMatchesRecordPath) {
  Rng rng(GetParam() * 31);
  for (int round = 0; round < 4; ++round) {
    const size_t n = rng.NextBounded(200);
    const size_t chunk = 1 + rng.NextBounded(17);
    CheckOperatorEquivalence(
        [&] {
          return std::make_unique<FilterOp>(
              "f", KvSchema(),
              [](const Record& r) { return r.i64(0) % 3 != 0; });
        },
        RandomKvBatch(rng, n, false, 0.15), chunk);
  }
}

TEST_P(BatchEquivalenceTest, MapMatchesRecordPath) {
  Rng rng(GetParam() * 97);
  for (int round = 0; round < 4; ++round) {
    const size_t n = rng.NextBounded(200);
    const size_t chunk = 1 + rng.NextBounded(17);
    // 1->N map: key 0 drops, key 1 duplicates, others transform in place.
    CheckOperatorEquivalence(
        [&] {
          return std::make_unique<MapOp>(
              "m", KvSchema(), [](Record&& r, RecordBatch* out) {
                const int64_t k = r.i64(0);
                if (k == 0) return Status::OK();
                if (k == 1) {
                  out->push_back(r);
                  out->push_back(std::move(r));
                  return Status::OK();
                }
                r.fields[1] = Value(r.f64(1) * 2.0);
                out->push_back(std::move(r));
                return Status::OK();
              });
        },
        RandomKvBatch(rng, n, false, 0.15), chunk);
  }
}

TEST_P(BatchEquivalenceTest, ProjectMatchesRecordPath) {
  Rng rng(GetParam() * 131);
  for (int round = 0; round < 4; ++round) {
    const size_t n = rng.NextBounded(200);
    const size_t chunk = 1 + rng.NextBounded(17);
    CheckOperatorEquivalence(
        [&] {
          return std::make_unique<ProjectOp>("p", KvSchema(),
                                             std::vector<size_t>{1, 0});
        },
        RandomKvBatch(rng, n, false, 0.0), chunk);
  }
}

TEST_P(BatchEquivalenceTest, JoinMatchesRecordPath) {
  Rng rng(GetParam() * 173);
  auto table = std::make_shared<StaticTable>(
      "k", Schema::Field{"t", ValueType::kString});
  for (int64_t k = 0; k < 5; ++k) {
    table->Insert(k, Value(std::string("tor-") + std::to_string(k)));
  }
  for (int round = 0; round < 4; ++round) {
    const size_t n = rng.NextBounded(200);
    const size_t chunk = 1 + rng.NextBounded(17);
    const RecordBatch input = RandomKvBatch(rng, n, false, 0.15);
    CheckOperatorEquivalence(
        [&] { return std::make_unique<JoinOp>("j", KvSchema(), table, 0); },
        input, chunk);
    // misses() must agree as well (keys in [0,8) vs table keys [0,5)).
    auto a = std::make_unique<JoinOp>("j", KvSchema(), table, 0);
    auto b = std::make_unique<JoinOp>("j", KvSchema(), table, 0);
    RecordBatch in_a = input, in_b = input, out;
    for (Record& r : in_a) ASSERT_TRUE(a->Process(std::move(r), &out).ok());
    ASSERT_TRUE(b->ProcessBatch(&in_b).ok());
    EXPECT_EQ(a->misses(), b->misses());
  }
}

TEST_P(BatchEquivalenceTest, GroupAggregateMatchesRecordPath) {
  Rng rng(GetParam() * 211);
  const std::vector<AggSpec> aggs = {{AggKind::kCount, 0, "cnt"},
                                     {AggKind::kSum, 1, "sum_v"},
                                     {AggKind::kMin, 1, "min_v"},
                                     {AggKind::kAvg, 1, "avg_v"}};
  for (const bool emit_partials : {false, true}) {
    for (int round = 0; round < 3; ++round) {
      const size_t n = rng.NextBounded(200);
      const size_t chunk = 1 + rng.NextBounded(17);
      RecordBatch input;
      input.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextBernoulli(0.2)) {
          input.push_back(RandomGaPartial(rng, 1, aggs.size()));
        } else {
          input.push_back(RandomKvRecord(rng, true));
        }
      }
      CheckOperatorEquivalence(
          [&] {
            return std::make_unique<GroupAggregateOp>(
                "g", KvSchema(), std::vector<size_t>{0}, aggs, Seconds(1),
                emit_partials);
          },
          input, chunk);
    }
  }
}

TEST_P(BatchEquivalenceTest, PipelinePushBatchMatchesPush) {
  Rng rng(GetParam() * 257);
  const Schema schema = KvSchema();
  auto make_pipeline = [&] {
    auto p = std::make_unique<Pipeline>();
    p->Add(std::make_unique<WindowOp>("w", schema, Seconds(1)));
    p->Add(std::make_unique<FilterOp>(
        "f", schema, [](const Record& r) { return r.i64(0) % 4 != 0; }));
    // Map stage swaps a fresh batch in mid-chain.
    p->Add(std::make_unique<MapOp>(
        "m", schema, [](Record&& r, RecordBatch* out) {
          r.fields[1] = Value(r.f64(1) + 1.0);
          out->push_back(std::move(r));
          return Status::OK();
        }));
    p->Add(std::make_unique<ProjectOp>("p", schema,
                                       std::vector<size_t>{1, 0}));
    return p;
  };
  for (int round = 0; round < 4; ++round) {
    const size_t n = rng.NextBounded(300);
    const size_t chunk = 1 + rng.NextBounded(33);
    RecordBatch input = RandomKvBatch(rng, n, false, 0.1);

    auto pipe_a = make_pipeline();
    RecordBatch in_a = input, out_a;
    for (Record& r : in_a) {
      ASSERT_TRUE(pipe_a->Push(std::move(r), &out_a).ok());
    }

    auto pipe_b = make_pipeline();
    RecordBatch out_b;
    for (RecordBatch& c : SliceInto(std::move(input), chunk)) {
      ASSERT_TRUE(pipe_b->PushBatch(std::move(c), &out_b).ok());
    }

    EXPECT_EQ(out_b, out_a);
    for (size_t i = 0; i < pipe_a->size(); ++i) {
      ExpectStatsEq(pipe_b->op(i).stats(), pipe_a->op(i).stats(),
                    "pipeline op stats");
    }
  }
}

// ---------------------------------------------------------------------------
// Schema-elided batch wire format round trips
// ---------------------------------------------------------------------------

Schema RandomSchema(Rng& rng) {
  std::vector<Schema::Field> fields;
  const size_t nf = rng.NextBounded(6);
  for (size_t i = 0; i < nf; ++i) {
    fields.push_back({std::string("f") + std::to_string(i),
                      static_cast<ValueType>(rng.NextBounded(3))});
  }
  return Schema(std::move(fields));
}

Record RandomRecordForSchema(Rng& rng, const Schema& schema) {
  Record r;
  r.event_time = static_cast<Micros>(rng.NextBounded(1ull << 40));
  r.window_start =
      rng.NextBernoulli(0.4) ? -1
                             : static_cast<Micros>(rng.NextBounded(1ull << 40));
  r.kind = rng.NextBernoulli(0.25) ? RecordKind::kPartial : RecordKind::kData;
  if (rng.NextBernoulli(0.7)) {
    // Conforming: fields match the schema exactly.
    for (size_t j = 0; j < schema.num_fields(); ++j) {
      r.fields.push_back(RandomValueOfType(rng, schema.field(j).type));
    }
  } else {
    // Divergent arity/types: must still round-trip via the exception path.
    const size_t nf = rng.NextBounded(8);
    for (size_t j = 0; j < nf; ++j) {
      r.fields.push_back(
          RandomValueOfType(rng, static_cast<ValueType>(rng.NextBounded(3))));
    }
  }
  return r;
}

TEST_P(BatchEquivalenceTest, BatchSerdeRoundTripsFuzzedBatches) {
  Rng rng(GetParam() * 313);
  RecordBatch decoded;  // reused across rounds to exercise buffer reuse
  for (int round = 0; round < 8; ++round) {
    const Schema schema = RandomSchema(rng);
    RecordBatch batch;
    const size_t n = rng.NextBounded(60);  // 0 == empty batch
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(RandomRecordForSchema(rng, schema));
    }
    ser::BufferWriter w;
    w.PutU8(0xEE);  // leading sentinel: batch bytes must be position-exact
    const size_t before = w.size();
    const size_t bytes = SerializeBatch(batch, schema, &w);
    EXPECT_EQ(bytes, w.size() - before);

    ser::BufferReader r(w.data());
    uint8_t sentinel = 0;
    ASSERT_TRUE(r.GetU8(&sentinel).ok());
    EXPECT_EQ(sentinel, 0xEE);
    ASSERT_TRUE(DeserializeBatch(&r, &decoded).ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(decoded, batch);
  }
}

// ---------------------------------------------------------------------------
// Typed filters: kPartial and schema-divergent rows must fail the typed
// leaves closed, exactly as the function form does.
// ---------------------------------------------------------------------------

/// kData record that does NOT conform to KvSchema: randomized arity (at
/// least `min_fields`) and types, so typed leaves see mismatched fields.
Record RandomDivergentData(Rng& rng, size_t min_fields) {
  Record r;
  r.event_time = static_cast<Micros>(rng.NextBounded(1 << 20)) * 100;
  const size_t nf = min_fields + rng.NextBounded(4);
  for (size_t i = 0; i < nf; ++i) {
    r.fields.push_back(
        RandomValueOfType(rng, static_cast<ValueType>(rng.NextBounded(3))));
  }
  return r;
}

/// Kv batch with kPartial rows AND schema-divergent kData rows mixed in.
RecordBatch RandomMixedKvBatch(Rng& rng, size_t n, bool windowed,
                               size_t divergent_min_fields) {
  RecordBatch batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t pick = rng.NextBounded(10);
    if (pick == 0) {
      batch.push_back(RandomOpaquePartial(rng));
    } else if (pick == 1) {
      batch.push_back(RandomDivergentData(rng, divergent_min_fields));
    } else {
      batch.push_back(RandomKvRecord(rng, windowed));
    }
  }
  return batch;
}

/// Random typed predicate over KvSchema ({i64 k, f64 v}): leaves compare
/// either field (occasionally an unbound index, which must fail closed),
/// composed with And/Or up to depth 2.
TypedPredicate RandomTypedPredicate(Rng& rng, int depth) {
  if (depth > 0 && rng.NextBernoulli(0.4)) {
    std::vector<TypedPredicate> children;
    const size_t nc = 1 + rng.NextBounded(3);
    for (size_t c = 0; c < nc; ++c) {
      children.push_back(RandomTypedPredicate(rng, depth - 1));
    }
    return rng.NextBernoulli(0.5) ? PredAnd(std::move(children))
                                  : PredOr(std::move(children));
  }
  const CmpOp cmp = static_cast<CmpOp>(rng.NextBounded(6));
  switch (rng.NextBounded(8)) {
    case 0:  // unbound field index: always false on kv rows
      return PredI64(2 + rng.NextBounded(3), cmp,
                     static_cast<int64_t>(rng.NextBounded(8)));
    case 1:  // type-mismatched leaf: always false on kv rows
      return PredF64(0, cmp, rng.NextDouble() * 8.0);
    default:
      return rng.NextBernoulli(0.5)
                 ? PredI64(0, cmp, static_cast<int64_t>(rng.NextBounded(8)))
                 : PredF64(1, cmp, rng.NextDouble() * 100.0);
  }
}

TEST_P(BatchEquivalenceTest, TypedFilterMatchesEquivalentFunctionFilter) {
  Rng rng(GetParam() * 569);
  for (int round = 0; round < 4; ++round) {
    const size_t n = rng.NextBounded(200);
    const size_t chunk = 1 + rng.NextBounded(17);
    const TypedPredicate pred = RandomTypedPredicate(rng, 2);
    const RecordBatch input = RandomMixedKvBatch(rng, n, false, 0);
    // The function form wraps the same tree, so every row path of the two
    // operators must agree; this pins the typed ctor's fallback honesty.
    auto typed = std::make_unique<FilterOp>("f", KvSchema(), pred);
    auto fn = std::make_unique<FilterOp>(
        "f", KvSchema(),
        [&pred](const Record& r) { return EvalPredicate(pred, r); });
    RecordBatch in_a = input, in_b = input;
    ASSERT_TRUE(typed->ProcessBatch(&in_a).ok());
    ASSERT_TRUE(fn->ProcessBatch(&in_b).ok());
    EXPECT_EQ(in_a, in_b);
    ExpectStatsEq(typed->stats(), fn->stats(), "typed vs function stats");
    (void)chunk;
  }
}

TEST_P(BatchEquivalenceTest, TruncatedBatchFailsCleanly) {
  Rng rng(GetParam() * 401);
  const Schema schema = RandomSchema(rng);
  RecordBatch batch;
  for (size_t i = 0; i < 20; ++i) {
    batch.push_back(RandomRecordForSchema(rng, schema));
  }
  ser::BufferWriter w;
  SerializeBatch(batch, schema, &w);
  ASSERT_GT(w.size(), 4u);
  RecordBatch decoded;
  for (int i = 0; i < 16; ++i) {
    const size_t cut = rng.NextBounded(w.size());
    ser::BufferReader r(w.data().data(), cut);
    // Must fail (or in rare prefix-valid cases succeed) without UB; ASan/
    // UBSan builds verify no out-of-bounds access.
    (void)DeserializeBatch(&r, &decoded);
  }
}

// ---------------------------------------------------------------------------
// Cross-thread equivalence: the same workload at threads=1 and threads=N
// must be bit-identical — final results, per-epoch per-source drain wire
// bytes, stats, and observations — across backpressure, flush, checkpoint,
// and profile epochs. This is the multithreaded executor's determinism
// contract (threads=1 runs every source task inline and is the reference
// semantics; the pool is purely an execution strategy).
// ---------------------------------------------------------------------------

/// One source-epoch fingerprint: everything the SP (and the control plane)
/// sees from a source. The EpochTap supplies the observation and the
/// watermark; the WireTap folds in every frame the SP accepted for the
/// epoch, both as delivered (codec-specific bytes) and as its decompressed
/// payload (the same under every codec).
struct EpochFingerprint {
  size_t source = 0;
  Micros watermark = 0;
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  uint64_t wire_hash = 14695981039346656037ull;     // frame bytes
  uint64_t payload_hash = 14695981039346656037ull;  // routing + payload
  uint64_t input_records = 0;
  double cpu_spent_seconds = 0.0;
  uint64_t proxy_counts = 0;  // folded arrived/forwarded/drained counters
  bool profiles_valid = false;

  bool operator==(const EpochFingerprint&) const = default;
};

uint64_t Fnv1a(const uint8_t* p, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

EpochFingerprint Fingerprint(size_t source, const core::EpochObservation& obs,
                             Micros watermark) {
  EpochFingerprint fp;
  fp.source = source;
  fp.watermark = watermark;
  fp.input_records = obs.input_records;
  fp.cpu_spent_seconds = obs.cpu_spent_seconds;
  for (const auto& p : obs.proxies) {
    fp.proxy_counts = fp.proxy_counts * 1000003 + p.arrived;
    fp.proxy_counts = fp.proxy_counts * 1000003 + p.forwarded;
    fp.proxy_counts = fp.proxy_counts * 1000003 + p.drained;
    fp.proxy_counts = fp.proxy_counts * 1000003 + p.pending;
  }
  fp.profiles_valid = obs.profiles_valid;
  return fp;
}

/// Folds one accepted frame into its epoch's fingerprint.
void FoldFrame(const std::vector<uint8_t>& bytes, EpochFingerprint* fp) {
  ++fp->frames;
  fp->wire_bytes += bytes.size();
  fp->wire_hash = Fnv1a(bytes.data(), bytes.size(), fp->wire_hash);
  core::WireFrame frame;
  frame.bytes = bytes;
  auto hdr = core::PeekFrameHeader(frame);
  ASSERT_TRUE(hdr.ok()) << hdr.status().ToString();
  std::vector<uint8_t> scratch;
  auto payload = core::FramePayload(frame, *hdr, &scratch);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const uint8_t route[] = {static_cast<uint8_t>(hdr->entry_op),
                           static_cast<uint8_t>(hdr->lane)};
  fp->payload_hash = Fnv1a(route, sizeof(route), fp->payload_hash);
  fp->payload_hash =
      Fnv1a(payload->first, payload->second, fp->payload_hash);
}

/// The fingerprint without its codec-specific fields: what must match
/// between a compressed and an uncompressed run.
EpochFingerprint CodecFree(EpochFingerprint fp) {
  fp.wire_bytes = 0;
  fp.wire_hash = 0;
  return fp;
}

uint64_t TotalFrames(const std::vector<EpochFingerprint>& trace) {
  uint64_t n = 0;
  for (const EpochFingerprint& fp : trace) n += fp.frames;
  return n;
}

core::BuildingBlock::SourceSpec PingmeshSpec(uint64_t seed, int pairs,
                                             double budget) {
  core::BuildingBlock::SourceSpec spec;
  spec.cost_model = std::make_shared<core::FixedCostModel>(
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

/// Runs the full scripted workload (tight budgets => backpressure and drain;
/// default RuntimeConfig => profile epochs and adaptation flushes; on even
/// seeds, an epoch-aligned checkpoint frame every second epoch) at the given
/// thread count. Returns the final results and fills `trace` with each
/// (epoch, source) fingerprint in consume order.
RecordBatch RunWorkloadAt(int threads, uint64_t seed, size_t num_sources,
                          int epochs, std::vector<EpochFingerprint>* trace,
                          bool compress = false) {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  std::vector<core::BuildingBlock::SourceSpec> specs;
  for (size_t s = 0; s < num_sources; ++s) {
    // Uneven budgets: some sources drain heavily, some relay — the planes
    // where thread interleaving could plausibly leak in.
    specs.push_back(
        PingmeshSpec(seed * 100 + s + 1, 30 + static_cast<int>(s) * 10,
                     s % 2 == 0 ? 0.3 : 1.0));
  }
  core::BuildingBlock block(*compiled, std::move(specs), core::RuntimeConfig(),
                            threads);
  EXPECT_TRUE(block.Init().ok());
  EXPECT_EQ(block.threads(), threads);
  if (seed % 2 == 0) {
    // Checkpoint frames are wire frames like any other: they enter the
    // fingerprint through the wire tap.
    core::FaultToleranceOptions ft;
    ft.checkpoint_interval = 2;
    block.EnableFaultTolerance(ft);
  }
  // Pin the codec explicitly so the test means the same thing whether or
  // not the environment (CI's compression-on leg) sets JARVIS_WIRE_COMPRESS.
  block.SetWireCodec(core::WireCodecOptions{.compress = compress});
  block.SetEpochTap([trace](size_t source, const core::EpochObservation& obs,
                            Micros watermark) {
    trace->push_back(Fingerprint(source, obs, watermark));
  });
  // Every frame is delivered right after its epoch is tapped, so it folds
  // into the newest fingerprint.
  block.SetWireTap([trace](size_t source, uint32_t,
                           const std::vector<uint8_t>& bytes) {
    ASSERT_FALSE(trace->empty());
    ASSERT_EQ(trace->back().source, source);
    FoldFrame(bytes, &trace->back());
  });
  RecordBatch results;
  for (int e = 0; e < epochs; ++e) {
    EXPECT_TRUE(block.RunEpoch(&results).ok()) << "epoch " << e;
  }
  EXPECT_TRUE(block.Finish(&results).ok());
  return results;
}

TEST_P(BatchEquivalenceTest, CrossThreadRunsAreBitIdentical) {
  const uint64_t seed = GetParam();
  const size_t num_sources = 3 + seed % 3;
  const int epochs = 8 + static_cast<int>(seed % 5);

  std::vector<EpochFingerprint> ref_trace;
  const RecordBatch ref =
      RunWorkloadAt(1, seed, num_sources, epochs, &ref_trace);
  ASSERT_FALSE(ref_trace.empty());
  ASSERT_GT(TotalFrames(ref_trace), 0u);

  std::vector<int> thread_counts = {2, 4};
  const int hw = core::HardwareThreads();
  if (hw != 2 && hw != 4) thread_counts.push_back(hw);
  for (const int threads : thread_counts) {
    std::vector<EpochFingerprint> trace;
    const RecordBatch got =
        RunWorkloadAt(threads, seed, num_sources, epochs, &trace);
    EXPECT_EQ(got, ref) << "results diverge at threads=" << threads;
    ASSERT_EQ(trace.size(), ref_trace.size()) << "threads=" << threads;
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i], ref_trace[i])
          << "threads=" << threads << " trace entry " << i << " (source "
          << ref_trace[i].source << ")";
    }
  }
}

/// The bytes-path determinism contract under compression: LZ4-compressed
/// drains at threads=1 and threads=N are bit-identical to each other, and
/// match the uncompressed run in everything but the frame bytes — the
/// fingerprint hashes each frame's decompressed payload, so any
/// codec-induced difference in what the SP consumed would surface as a
/// payload-hash mismatch.
TEST_P(BatchEquivalenceTest, CompressedWireCrossThreadRunsAreBitIdentical) {
  const uint64_t seed = GetParam();
  const size_t num_sources = 3 + seed % 3;
  const int epochs = 8 + static_cast<int>(seed % 5);

  std::vector<EpochFingerprint> plain_trace;
  const RecordBatch plain =
      RunWorkloadAt(1, seed, num_sources, epochs, &plain_trace,
                    /*compress=*/false);
  std::vector<EpochFingerprint> ref_trace;
  const RecordBatch ref =
      RunWorkloadAt(1, seed, num_sources, epochs, &ref_trace,
                    /*compress=*/true);
  EXPECT_EQ(ref, plain) << "compression changed the consumed records";
  ASSERT_FALSE(ref_trace.empty());
  ASSERT_GT(TotalFrames(ref_trace), 0u);
  ASSERT_EQ(ref_trace.size(), plain_trace.size());
  for (size_t i = 0; i < ref_trace.size(); ++i) {
    EXPECT_EQ(CodecFree(ref_trace[i]), CodecFree(plain_trace[i]))
        << "trace entry " << i;
  }

  for (const int threads : {2, 4}) {
    std::vector<EpochFingerprint> trace;
    const RecordBatch got = RunWorkloadAt(threads, seed, num_sources, epochs,
                                          &trace, /*compress=*/true);
    EXPECT_EQ(got, ref) << "results diverge at threads=" << threads;
    ASSERT_EQ(trace.size(), ref_trace.size()) << "threads=" << threads;
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i], ref_trace[i])
          << "threads=" << threads << " trace entry " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalenceTest,
                         ::testing::ValuesIn(jarvis::testing::FuzzSeeds()));

}  // namespace
}  // namespace jarvis::stream
