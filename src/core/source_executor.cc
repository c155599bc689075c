#include "core/source_executor.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "ser/buffer.h"

namespace jarvis::core {

size_t SourceEpochOutput::DrainedRecords() const {
  size_t n = 0;
  for (const DrainChunk& c : to_sp) n += c.size();
  return n;
}

void SourceEpochOutput::AppendDrainRows(size_t entry_op,
                                        stream::RecordBatch&& rows) {
  if (rows.empty()) return;
  if (!to_sp.empty() && to_sp.back().sp_entry_op == entry_op) {
    stream::MoveAppend(std::move(rows), &to_sp.back().rows);
    return;
  }
  DrainChunk chunk;
  chunk.sp_entry_op = entry_op;
  chunk.rows = std::move(rows);
  to_sp.push_back(std::move(chunk));
}

void SourceEpochOutput::AppendDrainRow(size_t entry_op, stream::Record&& rec) {
  if (to_sp.empty() || to_sp.back().sp_entry_op != entry_op) {
    DrainChunk chunk;
    chunk.sp_entry_op = entry_op;
    to_sp.push_back(std::move(chunk));
  }
  to_sp.back().rows.push_back(std::move(rec));
}

std::vector<DrainRecord> SourceEpochOutput::FlattenDrain() {
  std::vector<DrainRecord> flat;
  flat.reserve(DrainedRecords());
  for (DrainChunk& chunk : to_sp) {
    for (stream::Record& rec : chunk.rows) {
      flat.push_back(DrainRecord{chunk.sp_entry_op, std::move(rec)});
    }
    chunk.rows.clear();
  }
  to_sp.clear();
  return flat;
}

SourceExecutor::SourceExecutor(const query::CompiledQuery& query,
                               std::shared_ptr<const CostModel> cost_model,
                               SourceExecutorOptions options)
    : cost_model_(std::move(cost_model)),
      options_(options),
      total_ops_(query.num_total_ops()) {
  auto pipeline = query.MakeSourcePipeline();
  if (!pipeline.ok()) {
    init_status_ = pipeline.status();
    return;
  }
  pipeline_ = std::move(pipeline).value();
  proxies_.reserve(pipeline_->size());
  for (size_t i = 0; i < pipeline_->size(); ++i) {
    proxies_.emplace_back(i);
  }
}

void SourceExecutor::Ingest(stream::RecordBatch batch) {
  stream::MoveAppend(std::move(batch), &input_buffer_);
}

Micros SourceExecutor::OldestBufferedEventTime() const {
  Micros oldest = -1;
  for (const stream::Record& r : input_buffer_) {
    if (oldest < 0 || r.event_time < oldest) oldest = r.event_time;
  }
  return oldest;
}

void SourceExecutor::SetLoadFactors(const std::vector<double>& lfs) {
  for (size_t i = 0; i < proxies_.size() && i < lfs.size(); ++i) {
    proxies_[i].set_load_factor(lfs[i]);
  }
}

void SourceExecutor::Drain(size_t entry_op, stream::Record&& rec,
                           SourceEpochOutput* out) {
  out->drained_bytes += stream::WireSize(rec);
  out->AppendDrainRow(entry_op, std::move(rec));
}

void SourceExecutor::DrainBatch(size_t entry_op, stream::RecordBatch&& batch,
                                SourceEpochOutput* out) {
  if (batch.empty()) return;
  uint64_t bytes = 0;
  for (const stream::Record& rec : batch) {
    bytes += stream::WireSize(rec);
  }
  out->drained_bytes += bytes;
  out->AppendDrainRows(entry_op, std::move(batch));
}

void SourceExecutor::RouteOutputs(size_t emitter, stream::RecordBatch&& batch,
                                  SourceEpochOutput* out) {
  if (batch.empty()) return;
  const size_t next = emitter + 1;
  if (next < proxies_.size()) {
    drained_scratch_.clear();
    proxies_[next].RouteBatch(std::move(batch), &drained_scratch_);
    DrainBatch(next, std::move(drained_scratch_), out);
    drained_scratch_.clear();
    return;
  }
  // Output of the last source operator. Partial-state records re-enter the
  // stream processor *at* the replicated emitting operator (state merge);
  // data records continue at the next operator.
  for (stream::Record& rec : batch) {
    const size_t entry = rec.kind == stream::RecordKind::kPartial
                             ? emitter
                             : std::min(next, total_ops_);
    Drain(entry, std::move(rec), out);
  }
}

Status SourceExecutor::ProcessStage(size_t i, double* budget_left,
                                    double* spent, SourceEpochOutput* out) {
  const double cost = cost_model_->CostPerRecord(i);
  ControlProxy& proxy = proxies_[i];
  auto& queue = proxy.queue();
  // Count the affordable run with the same per-record budget arithmetic the
  // record-at-a-time loop used, so borderline epochs process identical
  // record counts; then run the whole chunk through the operator as one
  // batch. Outputs of stage i only ever feed stage i+1, so one pass drains
  // everything affordable.
  size_t n = 0;
  while (n < queue.size() && *budget_left >= cost) {
    *budget_left -= cost;
    *spent += cost;
    ++n;
  }
  if (n == 0) return Status::OK();
  // The affordable run is popped and processed as one batch. On an operator
  // error the in-flight chunk (and its partial outputs) is dropped — but the
  // whole epoch fails and its output is discarded in that case, exactly as
  // with the old per-record loop, so nothing observable changes.
  stage_input_.clear();
  stage_input_.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    stage_input_.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  JARVIS_RETURN_IF_ERROR(pipeline_->op(i).ProcessBatch(&stage_input_));
  proxy.CountProcessed(n);
  RouteOutputs(i, std::move(stage_input_), out);
  return Status::OK();
}

void SourceExecutor::DrainPendingStage(size_t i, SourceEpochOutput* out) {
  ControlProxy& p = proxies_[i];
  while (!p.queue().empty()) {
    stream::Record rec = std::move(p.queue().front());
    p.queue().pop_front();
    Drain(i, std::move(rec), out);
  }
}

Result<SourceEpochOutput> SourceExecutor::RunEpoch(Micros watermark,
                                                   bool profile_mode) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  SourceEpochOutput out;

  for (ControlProxy& p : proxies_) p.BeginEpoch();
  pipeline_->ResetStats();
  // Relay-byte ratios are only consumed by profiling epochs; steady-state
  // epochs skip the per-record WireSize stats walks (drain-byte accounting
  // below stays exact regardless).
  pipeline_->SetByteAccounting(profile_mode);

  if (flush_pending_) {
    // Reconfiguration: ship backlog accumulated under the old plan to the
    // stream processor (resumed at each record's tagged operator).
    for (size_t i = 0; i < proxies_.size(); ++i) {
      DrainPendingStage(i, &out);
    }
    flush_pending_ = false;
  }

  // Ingress admission (overload control): admit the oldest `admit` buffered
  // records this epoch, shed the next-oldest overflow beyond the defer cap,
  // defer the newest remainder in the epoch buffer. With the default limits
  // everything is admitted and this is the pre-overload path unchanged.
  const uint64_t buffered = input_buffer_.size();
  const uint64_t admit = std::min(buffered, ingress_.admit_cap);
  const uint64_t overflow = buffered - admit;
  const uint64_t shed =
      overflow > ingress_.defer_cap ? overflow - ingress_.defer_cap : 0;
  out.ingress_offered = buffered;
  out.ingress_admitted = admit;
  out.ingress_shed = shed;
  out.ingress_deferred = overflow - shed;

  // Route the epoch's input through the first proxy as one batch.
  stream::RecordBatch* epoch_input = &input_buffer_;
  if (admit < buffered) {
    row_admit_.clear();
    row_admit_.insert(
        row_admit_.end(), std::make_move_iterator(input_buffer_.begin()),
        std::make_move_iterator(input_buffer_.begin() +
                                static_cast<ptrdiff_t>(admit)));
    input_buffer_.erase(
        input_buffer_.begin(),
        input_buffer_.begin() + static_cast<ptrdiff_t>(admit + shed));
    epoch_input = &row_admit_;
  }
  if (!epoch_input->empty()) {
    if (proxies_.empty()) {
      DrainBatch(0, std::move(*epoch_input), &out);
    } else {
      drained_scratch_.clear();
      proxies_[0].RouteBatch(std::move(*epoch_input), &drained_scratch_);
      DrainBatch(0, std::move(drained_scratch_), &out);
      drained_scratch_.clear();
    }
    epoch_input->clear();
  }
  const uint64_t input_records = admit;

  // Deferred records are still to come: the reported watermark must not
  // pass the oldest deferred event time, or deferral would turn into a
  // late-data lie downstream. Clamping to exactly `oldest` is safe (a
  // record at ts == wm still lands in an open window: windows close on
  // end <= wm) and keeps the reported watermark monotone — the oldest
  // buffered record's timestamp never moves backwards across epochs, and
  // it is always at or past the previous epoch's reported value.
  if (out.ingress_deferred > 0) {
    const Micros oldest = OldestBufferedEventTime();
    if (oldest >= 0 && oldest < watermark) watermark = oldest;
  }

  const double budget =
      options_.cpu_budget_fraction * options_.epoch_seconds;
  double spent = 0.0;

  if (profile_mode && !proxies_.empty()) {
    // Profile phase: execute one operator at a time on an equal slice of
    // the budget; relay ratios are measured, costs are estimated with
    // coverage-dependent error.
    const double slice = budget / static_cast<double>(proxies_.size());
    for (size_t i = 0; i < proxies_.size(); ++i) {
      double slice_left = slice;
      JARVIS_RETURN_IF_ERROR(ProcessStage(i, &slice_left, &spent, &out));
    }
  } else {
    double budget_left = budget;
    for (size_t i = 0; i < proxies_.size(); ++i) {
      JARVIS_RETURN_IF_ERROR(ProcessStage(i, &budget_left, &spent, &out));
    }
  }

  // Advance event time: window closures cascade through downstream
  // operators. Emission volume is a handful of aggregate rows per window, so
  // their processing cost is not accounted against the budget. Records still
  // queued hold event time back (MillWheel's low watermark): operator i
  // advances only to the oldest event time queued at stages <= i, scanned
  // after the earlier stages' emissions were routed, and the reported
  // watermark is that minimum over every stage. Rule R-2 keeps G+R the last
  // source operator, so a queued record is a kData row whose window follows
  // from its event time.
  for (size_t i = 0; i < proxies_.size(); ++i) {
    for (const stream::Record& rec : proxies_[i].queue()) {
      watermark = std::min(watermark, rec.event_time);
    }
    stage_emitted_.clear();
    JARVIS_RETURN_IF_ERROR(
        pipeline_->op(i).OnWatermark(watermark, &stage_emitted_));
    RouteOutputs(i, std::move(stage_emitted_), &out);
  }
  out.watermark = watermark;

  // Control-plane observation.
  EpochObservation& obs = out.observation;
  obs.proxies.reserve(proxies_.size());
  for (const ControlProxy& p : proxies_) {
    obs.proxies.push_back(p.Observe());
  }
  obs.cpu_budget_seconds = budget;
  obs.cpu_spent_seconds = spent;
  obs.input_records = input_records;
  obs.epoch_seconds = options_.epoch_seconds;

  if (profile_mode) {
    obs.profiles_valid = true;
    obs.profiles.resize(proxies_.size());
    for (size_t i = 0; i < proxies_.size(); ++i) {
      const stream::OperatorStats& st = pipeline_->op(i).stats();
      OperatorProfile& prof = obs.profiles[i];
      prof.relay_records = st.RelayRatioRecords();
      prof.relay_bytes = st.RelayRatioBytes();
      prof.sampled = st.records_in;
      const uint64_t available = st.records_in + obs.proxies[i].pending;
      const double coverage =
          available == 0 ? 1.0
                         : static_cast<double>(st.records_in) /
                               static_cast<double>(available);
      // Under-sampled operators are underestimated (optimistic), which is
      // the failure mode that makes a pure model-based plan over-subscribe.
      prof.cost_per_record = cost_model_->CostPerRecord(i) *
                             (1.0 - options_.profile_error_magnitude *
                                        (1.0 - coverage));
    }
  }
  return out;
}

Status SourceExecutor::ExportCheckpointBody(ser::BufferWriter* w,
                                            stream::StateExport mode) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  w->PutU8(flush_pending_ ? 1 : 0);
  w->PutVarU64(proxies_.size());
  for (const ControlProxy& p : proxies_) w->PutDouble(p.load_factor());
  w->PutVarU64(proxies_.size());
  ser::BufferWriter scratch;
  stream::RecordBatch rows;
  for (size_t i = 0; i < proxies_.size(); ++i) {
    // Pending row queue, snapshotted non-destructively. Queue sections pack
    // by their first row's field types, like row-lane drain frames; rows of
    // another shape still round-trip through the inline-tagged fallback.
    rows.assign(proxies_[i].queue().begin(), proxies_[i].queue().end());
    scratch.Clear();
    stream::SerializeBatch(rows, stream::FirstRowSchema(rows), &scratch);
    w->PutVarU64(scratch.size());
    w->PutBytes(scratch.data().data(), scratch.size());
    rows.clear();
    JARVIS_RETURN_IF_ERROR(pipeline_->op(i).ExportStateDelta(w, mode));
  }
  // Trailing section: the deferred epoch-input backlog (records held back by
  // ingress throttling). Empty on unthrottled runs; snapshotting it keeps
  // crash replay exact when a checkpointed source is recovering mid-burst.
  rows.assign(input_buffer_.begin(), input_buffer_.end());
  scratch.Clear();
  stream::SerializeBatch(rows, stream::FirstRowSchema(rows), &scratch);
  w->PutVarU64(scratch.size());
  w->PutBytes(scratch.data().data(), scratch.size());
  return Status::OK();
}

Status SourceExecutor::RestoreCheckpointBody(ser::BufferReader* r) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  uint8_t flush = 0;
  JARVIS_RETURN_IF_ERROR(r->GetU8(&flush));
  if (flush > 1) {
    return Status::SerializationError("bad flush flag in checkpoint body");
  }
  uint64_t n_lfs = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_lfs));
  if (n_lfs != proxies_.size()) {
    return Status::SerializationError(
        "checkpoint load-factor count does not match the deployed plan");
  }
  std::vector<double> lfs(n_lfs);
  for (double& lf : lfs) JARVIS_RETURN_IF_ERROR(r->GetDouble(&lf));
  uint64_t n_stages = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_stages));
  if (n_stages != proxies_.size()) {
    return Status::SerializationError(
        "checkpoint stage count does not match the deployed plan");
  }
  flush_pending_ = flush != 0;
  SetLoadFactors(lfs);
  stream::RecordBatch rows;
  for (size_t i = 0; i < proxies_.size(); ++i) {
    // Row queue replaces wholesale.
    uint64_t len = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarU64(&len));
    if (len > r->remaining()) {
      return Status::SerializationError("row queue overruns checkpoint body");
    }
    ser::BufferReader qr(r->cursor(), len);
    r->Advance(len);
    rows.clear();
    JARVIS_RETURN_IF_ERROR(stream::DeserializeBatch(&qr, &rows));
    if (!qr.AtEnd()) {
      return Status::SerializationError("trailing bytes in row queue");
    }
    std::deque<stream::Record>& q = proxies_[i].queue();
    q.clear();
    for (stream::Record& rec : rows) q.push_back(std::move(rec));
    rows.clear();
    JARVIS_RETURN_IF_ERROR(pipeline_->op(i).RestoreState(r));
  }
  // Deferred epoch-input backlog replaces wholesale (last write wins, like
  // the stage queues).
  uint64_t len = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&len));
  if (len > r->remaining()) {
    return Status::SerializationError(
        "deferred input overruns checkpoint body");
  }
  ser::BufferReader ir(r->cursor(), len);
  r->Advance(len);
  rows.clear();
  JARVIS_RETURN_IF_ERROR(stream::DeserializeBatch(&ir, &rows));
  if (!ir.AtEnd()) {
    return Status::SerializationError("trailing bytes in deferred input");
  }
  input_buffer_ = std::move(rows);
  return Status::OK();
}

}  // namespace jarvis::core
