// fig12: data-plane microbenchmark — batch-at-a-time vs record-at-a-time,
// measured in the same binary so the speedup is attributable to the batch
// API and the schema-elided wire format, not compiler or flag drift.
//
// Sections:
//   (a) per-operator micro-throughput: Process loop vs ProcessBatch
//   (b) stateless pipeline push: Pipeline::Push vs Pipeline::PushBatch
//   (c) wire format: per-record SerializeRecord/DeserializeRecord vs
//       SerializeBatch/DeserializeBatch (MB/s of record-format payload
//       bytes, so both paths are normalized to the same data volume)
//   (g) wire_compress: the LZ4 drain wire (v5 compressed framing) — raw vs
//       compressed bytes per record on numeric and log-text row-lane
//       drains, codec throughput, and the measured wire ratios fed to the
//       LP's bandwidth term.
//
// Output lines are machine-parseable ("op ...", "pipeline ...", "wire ...",
// "wire_compress ..."); scripts/run_benches.sh folds them into the
// BENCH_<label>.json snapshot.
//
// Usage: fig12_dataplane [--smoke] [--wire]
//   --smoke     1 tiny trial, for CI
//   --wire      run only section (g)'s wire_compress rows (the CI
//               compressed-wire smoke step)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <algorithm>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/building_block.h"
#include "core/drain_wire.h"
#include "query/compile.h"
#include "ser/buffer.h"
#include "stream/group_aggregate.h"
#include "stream/join.h"
#include "stream/ops.h"
#include "stream/pipeline.h"
#include "stream/record.h"
#include "workloads/loganalytics.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace {

using namespace jarvis;
using stream::AggKind;
using stream::FilterOp;
using stream::GroupAggregateOp;
using stream::JoinOp;
using stream::MapOp;
using stream::Operator;
using stream::Pipeline;
using stream::ProjectOp;
using stream::Record;
using stream::RecordBatch;
using stream::Schema;
using stream::StaticTable;
using stream::Value;
using stream::ValueType;
using stream::WindowOp;

struct Config {
  size_t records = 200000;
  size_t batch_size = 1024;
  int trials = 5;
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Schema ProbeSchema() {
  return Schema::Of({{"src", ValueType::kInt64},
                     {"dst", ValueType::kInt64},
                     {"rtt", ValueType::kDouble},
                     {"host", ValueType::kString}});
}

/// The paper's canonical drain payload: a numeric Pingmesh probe record.
Schema NumericProbeSchema() {
  return Schema::Of({{"src", ValueType::kInt64},
                     {"dst", ValueType::kInt64},
                     {"rtt", ValueType::kDouble},
                     {"seq", ValueType::kInt64},
                     {"ttl", ValueType::kInt64}});
}

RecordBatch MakeNumericInput(Rng* rng, size_t n) {
  RecordBatch batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.event_time = static_cast<Micros>(i) * 100;
    r.window_start = r.event_time - r.event_time % Seconds(1);
    r.fields.reserve(5);
    r.fields.emplace_back(static_cast<int64_t>(rng->NextBounded(4096)));
    r.fields.emplace_back(static_cast<int64_t>(rng->NextBounded(4096)));
    r.fields.emplace_back(0.1 + rng->NextDouble() * 40.0);
    r.fields.emplace_back(static_cast<int64_t>(i));
    r.fields.emplace_back(static_cast<int64_t>(rng->NextBounded(256)));
    batch.push_back(std::move(r));
  }
  return batch;
}

/// Pingmesh-like probe records: small int keys, one double metric, a short
/// host string. `windowed` pre-assigns tumbling windows (for operators that
/// require windowed input).
RecordBatch MakeInput(Rng* rng, size_t n, bool windowed) {
  RecordBatch batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.event_time = static_cast<Micros>(i) * 100;
    if (windowed) r.event_time = r.event_time - r.event_time % Seconds(1);
    if (windowed) r.window_start = r.event_time;
    r.fields.reserve(4);
    r.fields.emplace_back(static_cast<int64_t>(rng->NextBounded(64)));
    r.fields.emplace_back(static_cast<int64_t>(rng->NextBounded(1024)));
    r.fields.emplace_back(0.1 + rng->NextDouble() * 40.0);
    r.fields.emplace_back(std::string("h-") +
                          std::to_string(rng->NextBounded(64)));
    batch.push_back(std::move(r));
  }
  return batch;
}

std::vector<RecordBatch> Slice(RecordBatch&& input, size_t batch_size) {
  std::vector<RecordBatch> chunks;
  chunks.reserve(input.size() / batch_size + 1);
  RecordBatch chunk;
  chunk.reserve(batch_size);
  for (Record& r : input) {
    chunk.push_back(std::move(r));
    if (chunk.size() == batch_size) {
      chunks.push_back(std::move(chunk));
      chunk = RecordBatch();
      chunk.reserve(batch_size);
    }
  }
  if (!chunk.empty()) chunks.push_back(std::move(chunk));
  return chunks;
}

/// Per-path times are the *best* trial (min), which rejects scheduler and
/// frequency noise on shared machines; both paths see identical data.
struct PathResult {
  double record_s = 1e300;
  double batch_s = 1e300;
  size_t records = 0;
};

/// Times `records` through one freshly made operator per path per trial; the
/// same generated data is fed to both paths.
PathResult BenchOperator(
    const std::function<std::unique_ptr<Operator>()>& make, Rng* rng,
    const Config& cfg, bool windowed) {
  PathResult res;
  for (int t = 0; t < cfg.trials; ++t) {
    RecordBatch input = MakeInput(rng, cfg.records, windowed);
    RecordBatch input_copy = input;

    auto op_a = make();
    op_a->set_byte_accounting(false);  // steady-state (non-profile) config
    RecordBatch out;
    out.reserve(input.size());
    double t0 = NowSeconds();
    for (Record& r : input) {
      if (!op_a->Process(std::move(r), &out).ok()) std::abort();
    }
    res.record_s = std::min(res.record_s, NowSeconds() - t0);
    // Flush stateful operators outside the timed region.
    out.clear();
    (void)op_a->OnWatermark(Seconds(1e9), &out);

    auto op_b = make();
    op_b->set_byte_accounting(false);
    std::vector<RecordBatch> chunks =
        Slice(std::move(input_copy), cfg.batch_size);
    out.clear();
    out.reserve(cfg.records);
    t0 = NowSeconds();
    for (RecordBatch& chunk : chunks) {
      if (!op_b->ProcessBatch(&chunk).ok()) std::abort();
      MoveAppend(std::move(chunk), &out);
    }
    res.batch_s = std::min(res.batch_s, NowSeconds() - t0);
    out.clear();
    (void)op_b->OnWatermark(Seconds(1e9), &out);

    res.records = cfg.records;
  }
  return res;
}

void PrintRps(const char* prefix, const char* name, const PathResult& r) {
  const double rec_rps = static_cast<double>(r.records) / r.record_s;
  const double bat_rps = static_cast<double>(r.records) / r.batch_s;
  std::printf("%s %s record_rps %.6g batch_rps %.6g speedup %.2f\n", prefix,
              name, rec_rps, bat_rps, rec_rps > 0 ? bat_rps / rec_rps : 0.0);
}

std::unique_ptr<Pipeline> MakeStatelessPipeline() {
  const Schema schema = ProbeSchema();
  auto pipe = std::make_unique<Pipeline>();
  pipe->Add(std::make_unique<WindowOp>("window", schema, Seconds(1)));
  pipe->Add(std::make_unique<FilterOp>("filter_src", schema,
                                       [](const Record& r) {
                                         return r.i64(0) % 4 != 0;  // ~75%
                                       }));
  pipe->Add(std::make_unique<FilterOp>("filter_rtt", schema,
                                       [](const Record& r) {
                                         return r.f64(2) < 30.0;  // ~75%
                                       }));
  pipe->Add(std::make_unique<ProjectOp>("project", schema,
                                        std::vector<size_t>{0, 1, 2}));
  return pipe;
}

/// Per-path byte accounting: the seed data plane always walked WireSize per
/// record (there was no toggle), so the "before this PR" configuration is
/// record-at-a-time with accounting on; the shipped steady state is
/// batch-at-a-time with accounting off (profiling epochs turn it back on).
void BenchPipeline(Rng* rng, const Config& cfg, bool record_accounting,
                   bool batch_accounting, const char* label) {
  PathResult res;
  for (int t = 0; t < cfg.trials; ++t) {
    RecordBatch input = MakeInput(rng, cfg.records, false);
    RecordBatch input_copy = input;

    auto pipe_a = MakeStatelessPipeline();
    pipe_a->SetByteAccounting(record_accounting);
    RecordBatch out;
    out.reserve(input.size());
    double t0 = NowSeconds();
    for (Record& r : input) {
      if (!pipe_a->Push(std::move(r), &out).ok()) std::abort();
    }
    res.record_s = std::min(res.record_s, NowSeconds() - t0);

    auto pipe_b = MakeStatelessPipeline();
    pipe_b->SetByteAccounting(batch_accounting);
    std::vector<RecordBatch> chunks =
        Slice(std::move(input_copy), cfg.batch_size);
    out.clear();
    out.reserve(cfg.records);
    t0 = NowSeconds();
    for (RecordBatch& chunk : chunks) {
      if (!pipe_b->PushBatch(std::move(chunk), &out).ok()) std::abort();
    }
    res.batch_s = std::min(res.batch_s, NowSeconds() - t0);

    res.records = cfg.records;
  }
  PrintRps("pipeline", label, res);
}

// Both paths ship drain batches of cfg.batch_size records (the real drain
// granularity) that the pipeline just produced, so batches are cache-warm
// exactly as on the executor's drain path; a WireSize pass re-warms each
// chunk before timing and the path order alternates per chunk to cancel
// ordering bias. Throughput is normalized to the record-format byte volume
// so both paths divide the same numerator; the best trial is reported.
void BenchWireFormat(Rng* rng, const Config& cfg, const Schema& schema,
                     bool numeric, const char* suffix) {
  double best_ser_rec = 0, best_ser_bat = 0, best_de_rec = 0, best_de_bat = 0;
  size_t record_wire_bytes = 0, batch_wire_bytes = 0, total_records = 0;
  for (int t = 0; t < cfg.trials; ++t) {
    std::vector<RecordBatch> chunks =
        Slice(numeric ? MakeNumericInput(rng, cfg.records)
                      : MakeInput(rng, cfg.records, true),
              cfg.batch_size);
    double ser_rec = 0, ser_bat = 0, de_rec = 0, de_bat = 0;
    size_t rec_bytes = 0, bat_bytes = 0;
    ser::BufferWriter w_rec, w_bat;
    RecordBatch decoded;
    size_t warm_sink = 0;
    for (size_t c = 0; c < chunks.size(); ++c) {
      const RecordBatch& chunk = chunks[c];
      for (const Record& r : chunk) warm_sink += stream::WireSize(r);
      w_rec.Clear();
      w_bat.Clear();
      const auto ser_record_path = [&] {
        const double t0 = NowSeconds();
        for (const Record& r : chunk) stream::SerializeRecord(r, &w_rec);
        ser_rec += NowSeconds() - t0;
      };
      const auto ser_batch_path = [&] {
        const double t0 = NowSeconds();
        if (stream::SerializeBatch(chunk, schema, &w_bat) != w_bat.size()) {
          std::abort();
        }
        ser_bat += NowSeconds() - t0;
      };
      if (c % 2 == 0) {
        ser_record_path();
        ser_batch_path();
      } else {
        ser_batch_path();
        ser_record_path();
      }
      rec_bytes += w_rec.size();
      bat_bytes += w_bat.size();

      const auto de_record_path = [&] {
        const double t0 = NowSeconds();
        ser::BufferReader r(w_rec.data());
        decoded.resize(chunk.size());
        for (size_t i = 0; i < chunk.size(); ++i) {
          if (!stream::DeserializeRecord(&r, &decoded[i]).ok()) std::abort();
        }
        if (!r.AtEnd()) std::abort();
        de_rec += NowSeconds() - t0;
      };
      const auto de_batch_path = [&] {
        const double t0 = NowSeconds();
        ser::BufferReader r(w_bat.data());
        if (!stream::DeserializeBatch(&r, &decoded).ok()) std::abort();
        if (decoded.size() != chunk.size() || !r.AtEnd()) std::abort();
        de_bat += NowSeconds() - t0;
      };
      if (c % 2 == 0) {
        de_record_path();
        de_batch_path();
      } else {
        de_batch_path();
        de_record_path();
      }
    }
    if (warm_sink == 0) std::abort();
    const double mb = static_cast<double>(rec_bytes) / 1e6;
    best_ser_rec = std::max(best_ser_rec, mb / ser_rec);
    best_ser_bat = std::max(best_ser_bat, mb / ser_bat);
    best_de_rec = std::max(best_de_rec, mb / de_rec);
    best_de_bat = std::max(best_de_bat, mb / de_bat);
    record_wire_bytes += rec_bytes;
    batch_wire_bytes += bat_bytes;
    total_records += cfg.records;
  }
  std::printf(
      "wire serialize%s record_mbps %.6g batch_mbps %.6g speedup %.2f\n",
      suffix, best_ser_rec, best_ser_bat, best_ser_bat / best_ser_rec);
  std::printf(
      "wire deserialize%s record_mbps %.6g batch_mbps %.6g speedup %.2f\n",
      suffix, best_de_rec, best_de_bat, best_de_bat / best_de_rec);
  std::printf(
      "wire bytes_per_record%s record %.2f batch %.2f ratio %.3f\n", suffix,
      static_cast<double>(record_wire_bytes) / total_records,
      static_cast<double>(batch_wire_bytes) / total_records,
      static_cast<double>(batch_wire_bytes) / record_wire_bytes);
}

// ---------------------------------------------------------------------------
// (g) wire_compress: the LZ4 drain wire (v5 compressed framing)
// ---------------------------------------------------------------------------

/// One epoch drain holding `rows` as a single row-lane chunk for SP
/// entry 0.
jarvis::core::SourceEpochOutput MakeDrain(RecordBatch&& rows) {
  jarvis::core::SourceEpochOutput out;
  out.AppendDrainRows(0, std::move(rows));
  return out;
}

/// Raw vs LZ4 wire bytes and codec throughput for one drain stream.
/// `make_batch(r)` must be deterministic in `r` — both codecs serialize the
/// identical per-round payload, and the compressed side is decoded and
/// flat-compared so the ratio can never come from dropping data.
void BenchWireCompressConfig(
    const char* name, int rounds, const Config& cfg,
    const std::function<RecordBatch(int)>& make_batch) {
  namespace core = jarvis::core;
  uint64_t raw_bytes = 0, lz4_bytes = 0, records = 0;
  double best_enc_plain = 0, best_enc_lz4 = 0;
  double best_dec_plain = 0, best_dec_lz4 = 0;
  for (int t = 0; t < cfg.trials; ++t) {
    uint64_t plain_total = 0, comp_total = 0, recs = 0, payload_bytes = 0;
    double enc_plain_s = 0, enc_lz4_s = 0, dec_plain_s = 0, dec_lz4_s = 0;
    uint32_t seq_plain = 0, seq_lz4 = 0;
    for (int r = 0; r < rounds; ++r) {
      core::SourceEpochOutput plain = MakeDrain(make_batch(r));
      core::SourceEpochOutput comp = MakeDrain(make_batch(r));
      recs += plain.DrainedRecords();

      double t0 = NowSeconds();
      core::WireDrain wire_plain =
          core::SerializeDrain(&plain, &seq_plain, {.compress = false});
      enc_plain_s += NowSeconds() - t0;
      t0 = NowSeconds();
      core::WireDrain wire_lz4 =
          core::SerializeDrain(&comp, &seq_lz4, {.compress = true});
      enc_lz4_s += NowSeconds() - t0;
      plain_total += wire_plain.wire_bytes;
      comp_total += wire_lz4.wire_bytes;
      payload_bytes += wire_plain.wire_bytes;

      std::vector<core::DrainChunk> out_plain, out_lz4;
      t0 = NowSeconds();
      if (!core::DecodeDrain(wire_plain, &out_plain).ok()) std::abort();
      dec_plain_s += NowSeconds() - t0;
      t0 = NowSeconds();
      if (!core::DecodeDrain(wire_lz4, &out_lz4).ok()) std::abort();
      dec_lz4_s += NowSeconds() - t0;
      RecordBatch rows_plain, rows_lz4;
      for (core::DrainChunk& c : out_plain) {
        MoveAppend(std::move(c.rows), &rows_plain);
      }
      for (core::DrainChunk& c : out_lz4) {
        MoveAppend(std::move(c.rows), &rows_lz4);
      }
      if (rows_plain != rows_lz4) std::abort();  // codec must be lossless
    }
    raw_bytes = plain_total;  // deterministic per trial
    lz4_bytes = comp_total;
    records = recs;
    const double mb = static_cast<double>(payload_bytes) / 1e6;
    best_enc_plain = std::max(best_enc_plain, mb / enc_plain_s);
    best_enc_lz4 = std::max(best_enc_lz4, mb / enc_lz4_s);
    best_dec_plain = std::max(best_dec_plain, mb / dec_plain_s);
    best_dec_lz4 = std::max(best_dec_lz4, mb / dec_lz4_s);
  }
  std::printf(
      "wire_compress %s raw_bytes_per_record %.2f lz4_bytes_per_record %.2f "
      "ratio %.3f\n",
      name, static_cast<double>(raw_bytes) / static_cast<double>(records),
      static_cast<double>(lz4_bytes) / static_cast<double>(records),
      static_cast<double>(lz4_bytes) / static_cast<double>(raw_bytes));
  std::printf(
      "wire_compress %s_codec encode_plain_mbps %.6g encode_lz4_mbps %.6g "
      "decode_plain_mbps %.6g decode_lz4_mbps %.6g\n",
      name, best_enc_plain, best_enc_lz4, best_dec_plain, best_dec_lz4);
}

/// Measured bandwidth ratios reaching the planner: a small S2S deployment
/// with compression on, reporting the folded OperatorProfile::wire_ratio of
/// the last profiling epoch — exactly the numbers WirePrices feeds the LP's
/// bandwidth term and stepwise_adapt's priority order.
void BenchLpWireRatio(const Config& cfg) {
  namespace core = jarvis::core;
  auto plan_or = workloads::MakeS2SProbeQuery();
  if (!plan_or.ok()) std::abort();
  auto q_or = query::Compile(std::move(plan_or).value());
  if (!q_or.ok()) std::abort();
  const query::CompiledQuery q = std::move(q_or).value();

  std::vector<core::BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 2; ++s) {
    core::BuildingBlock::SourceSpec spec;
    spec.cost_model = std::make_shared<core::FixedCostModel>(
        std::vector<double>{1e-6, 2e-6, 1e-5});
    spec.options.cpu_budget_fraction = 0.4;
    workloads::PingmeshConfig pcfg;
    pcfg.seed = s;
    pcfg.source_ip = static_cast<int64_t>(s) * 100000;
    pcfg.num_pairs = 200;
    pcfg.probe_interval = Seconds(1);
    auto gen = std::make_shared<workloads::PingmeshGenerator>(pcfg);
    spec.generate = [gen](Micros from, Micros to) {
      return gen->Generate(from, to);
    };
    specs.push_back(std::move(spec));
  }
  core::BuildingBlock block(q, std::move(specs), core::RuntimeConfig(),
                            /*threads=*/1);
  if (!block.Init().ok()) std::abort();
  block.SetWireCodec({.compress = true});
  std::vector<double> ratios;
  block.SetEpochTap([&ratios](size_t source, const core::EpochObservation& obs,
                              Micros) {
    if (source != 0 || !obs.profiles_valid) return;
    ratios.clear();
    for (const auto& p : obs.profiles) ratios.push_back(p.wire_ratio);
  });
  RecordBatch results;
  const int epochs = cfg.trials <= 1 ? 4 : 8;
  for (int e = 0; e < epochs; ++e) {
    if (!block.RunEpoch(&results).ok()) std::abort();
  }
  if (!block.Finish(&results).ok()) std::abort();
  if (ratios.empty()) std::abort();  // no profiling epoch observed
  for (size_t i = 0; i < ratios.size(); ++i) {
    std::printf("wire_compress lp_wire_ratio op_%zu %.4f\n", i, ratios[i]);
  }
}

void RunWireCompressSection(const Config& cfg) {
  std::printf(
      "\n(g) wire_compress: LZ4 drain wire (v5 compressed framing,\n"
      "    store-wins; JARVIS_WIRE_COMPRESS=1 at runtime). Bytes per record\n"
      "    raw (v1 frames) vs compressed, codec MB/s, and the measured\n"
      "    wire ratios the LP's bandwidth term prices.\n");
  const bool smoke = cfg.trials <= 1;
  const int rounds = smoke ? 2 : 8;

  // Numeric probes: the row lane's packed varint columns are already
  // tight, so LZ4 buys less — printed to show the honest win.
  {
    workloads::PingmeshConfig pcfg;
    pcfg.num_pairs = static_cast<int64_t>(cfg.batch_size);
    pcfg.probe_interval = Seconds(1);
    auto gen = std::make_shared<workloads::PingmeshGenerator>(pcfg);
    BenchWireCompressConfig("numeric", rounds, cfg, [gen](int r) {
      return gen->Generate(Seconds(r), Seconds(r + 1));
    });
  }
  // LogAnalytics text lines: mostly-distinct templated strings, which is
  // where the LZ4 layer earns its keep.
  {
    workloads::LogAnalyticsConfig lcfg;
    lcfg.lines_per_sec = smoke ? 500.0 : 2000.0;
    auto gen = std::make_shared<workloads::LogAnalyticsGenerator>(lcfg);
    BenchWireCompressConfig("loganalytics_str", rounds, cfg, [gen](int r) {
      return gen->Generate(Seconds(r), Seconds(r + 1));
    });
  }
  BenchLpWireRatio(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool wire_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.records = 2000;
      cfg.trials = 1;
    } else if (std::strcmp(argv[i], "--wire") == 0) {
      wire_only = true;
    }
  }
  Rng rng(20220707);

  bench::PrintHeader(
      "fig12: batch-at-a-time data plane vs record-at-a-time (same build)");
  std::printf("records/trial %zu  batch_size %zu  trials %d\n\n",
              cfg.records, cfg.batch_size, cfg.trials);

  if (wire_only) {
    RunWireCompressSection(cfg);
    return 0;
  }

  std::printf("(a) operator micro-throughput (records/sec)\n");
  const Schema schema = ProbeSchema();
  PrintRps("op", "Window", BenchOperator([&] {
    return std::make_unique<WindowOp>("w", schema, Seconds(1));
  }, &rng, cfg, false));
  PrintRps("op", "Filter", BenchOperator([&] {
    return std::make_unique<FilterOp>("f", schema, [](const Record& r) {
      return r.i64(0) % 4 != 0;
    });
  }, &rng, cfg, false));
  PrintRps("op", "Map", BenchOperator([&] {
    return std::make_unique<MapOp>("m", schema,
                                   [](Record&& r, RecordBatch* out) {
                                     r.fields[2] = Value(
                                         std::get<double>(r.fields[2]) * 2.0);
                                     out->push_back(std::move(r));
                                     return Status::OK();
                                   });
  }, &rng, cfg, false));
  PrintRps("op", "Project", BenchOperator([&] {
    return std::make_unique<ProjectOp>("p", schema,
                                       std::vector<size_t>{0, 1, 2});
  }, &rng, cfg, false));
  auto table = std::make_shared<StaticTable>(
      "dst", Schema::Field{"tor", ValueType::kInt64});
  for (int64_t k = 0; k < 1024; ++k) table->Insert(k, Value(k / 40));
  PrintRps("op", "Join", BenchOperator([&] {
    return std::make_unique<JoinOp>("j", schema, table, 1);
  }, &rng, cfg, false));
  PrintRps("op", "GroupAggregate", BenchOperator([&] {
    return std::make_unique<GroupAggregateOp>(
        "g", schema, std::vector<size_t>{0},
        std::vector<stream::AggSpec>{{AggKind::kCount, 0, "cnt"},
                                     {AggKind::kAvg, 2, "avg_rtt"}},
        Seconds(1), /*emit_partials=*/false);
  }, &rng, cfg, true));

  std::printf(
      "\n(b) stateless pipeline push (Window -> 2x Filter -> Project)\n"
      "    stateless:          seed config (record-at-a-time, byte stats "
      "always on)\n"
      "                        vs shipped steady state (batch, byte stats "
      "off)\n"
      "    stateless_api:      batch API effect alone (byte stats off on "
      "both)\n"
      "    stateless_profiled: profiling epochs (byte stats on on both)\n");
  BenchPipeline(&rng, cfg, /*record_accounting=*/true,
                /*batch_accounting=*/false, "stateless");
  BenchPipeline(&rng, cfg, false, false, "stateless_api");
  BenchPipeline(&rng, cfg, true, true, "stateless_profiled");

  std::printf(
      "\n(c) wire format: schema-elided batch vs per-record "
      "(MB/s of record-format payload)\n");
  BenchWireFormat(&rng, cfg, NumericProbeSchema(), /*numeric=*/true, "");
  BenchWireFormat(&rng, cfg, ProbeSchema(), /*numeric=*/false, "_str");

  RunWireCompressSection(cfg);
  return 0;
}
