#include "replica.h"

#include <algorithm>
#include <utility>

#include "core/checkpoint.h"
#include "core/drain_wire.h"
#include "ser/buffer.h"
#include "trace.h"

namespace blockbench {

namespace core = jarvis::core;
using jarvis::Micros;
using jarvis::Result;
using jarvis::Seconds;
using jarvis::Status;
using jarvis::stream::RecordBatch;

namespace {

/// BuildingBlock::FoldWireRatios (private there, copied here because the
/// LP prices the measured wire_ratio: without it the replica's plans, and
/// so its results, would drift from the block's).
void FoldWireRatios(const core::WireByteProfile& profile, uint64_t ckpt_bytes,
                    core::EpochObservation* obs) {
  if (!obs->profiles_valid || obs->profiles.empty()) return;
  const double overall =
      profile.modeled_total > 0
          ? static_cast<double>(profile.wire_total) /
                static_cast<double>(profile.modeled_total)
          : 1.0;
  const double ckpt_mult =
      profile.wire_total > 0
          ? static_cast<double>(profile.wire_total + ckpt_bytes) /
                static_cast<double>(profile.wire_total)
          : 1.0;
  const size_t m = obs->profiles.size();
  std::vector<core::WireByteProfile::Entry> per(m);
  for (size_t e = 0; e < profile.per_entry.size(); ++e) {
    core::WireByteProfile::Entry& slot = per[std::min(e, m - 1)];
    slot.modeled += profile.per_entry[e].modeled;
    slot.wire += profile.per_entry[e].wire;
  }
  for (size_t i = 0; i < m; ++i) {
    const double ratio = per[i].modeled > 0
                             ? static_cast<double>(per[i].wire) /
                                   static_cast<double>(per[i].modeled)
                             : overall;
    obs->profiles[i].wire_ratio = std::clamp(ratio * ckpt_mult, 0.0, 64.0);
  }
}

void Book(const core::SourceEpochOutput& out, EpochCounters* c) {
  for (const core::ProxyObservation& p : out.observation.proxies) {
    c->records_local += p.processed;
    c->pending += p.pending;
  }
  c->records_drained += out.DrainedRecords();
  c->modeled_bytes += out.drained_bytes;
  c->profile_sources += out.observation.profiles_valid ? 1 : 0;
}

int32_t Id(size_t s) { return static_cast<int32_t>(s); }

}  // namespace

EpochCounters& EpochCounters::operator+=(const EpochCounters& x) {
  records_local += x.records_local;
  records_drained += x.records_drained;
  pending += x.pending;
  modeled_bytes += x.modeled_bytes;
  frames += x.frames;
  wire_bytes += x.wire_bytes;
  ckpt_bytes += x.ckpt_bytes;
  sp_records += x.sp_records;
  pool_tasks += x.pool_tasks;
  profile_sources += x.profile_sources;
  return *this;
}

Replica::Replica(const Workload& w, const Inputs& in)
    : w_(w),
      generate_(in.generate),
      shaper_(core::TrafficPlan{}),
      codec_{.compress = w.fault_tolerant},
      ft_(FaultOptions()) {
  const size_t n = w.sources;
  sp_ = std::make_unique<core::SpExecutor>(*in.query, n);
  init_ = sp_->Init();
  if (!init_.ok()) return;
  for (size_t s = 0; s < n; ++s) {
    core::SourceExecutorOptions opts;
    opts.cpu_budget_fraction = BudgetAt(w, 0);
    auto ex = std::make_unique<core::SourceExecutor>(*in.query, in.cost, opts);
    init_ = ex->Init();
    if (!init_.ok()) return;
    sources_.push_back(std::move(ex));
    runtimes_.push_back(std::make_unique<core::JarvisRuntime>(
        in.query->num_source_ops(), core::RuntimeConfig()));
  }
  next_seq_.assign(n, 0);
  profile_next_.assign(n, 0);
  last_input_records_.assign(n, UINT64_MAX);
  counts_.assign(n, EpochCounters{});
  retained_.resize(n);
  handoff_ = std::make_unique<core::ShardedHandoff<Envelope>>(n);
  pool_ = std::make_unique<core::ExecPool>(static_cast<size_t>(kWorkers));
}

Replica::~Replica() {
  if (pool_) pool_->Stop();
}

void Replica::SetCpuBudget(double fraction) {
  for (auto& s : sources_) s->SetCpuBudget(fraction);
}

Status Replica::RunEpoch(RecordBatch* results, EpochCounters* c) {
  JARVIS_RETURN_IF_ERROR(init_);
  for (EpochCounters& x : counts_) x = EpochCounters{};
  *c = EpochCounters{};
  Status st;
  {
    ScopedSpan root(Layer::kEpoch, epoch_, 0);
    st = w_.fault_tolerant ? RunFaultTolerant(results, root.id(), c)
                           : RunParallel(results, root.id(), c);
  }
  for (const EpochCounters& x : counts_) *c += x;
  ++epoch_;
  return st;
}

RecordBatch Replica::Generate(size_t s, Micros from, Micros to,
                              uint64_t parent) {
  ScopedSpan span(Layer::kGen, epoch_, parent, Id(s));
  RecordBatch batch = generate_[s](from, to);
  shaper_.Shape(s, from / Seconds(1), &batch);
  return batch;
}

Result<core::SourceEpochOutput> Replica::RunSource(size_t s, Micros from,
                                                   Micros to,
                                                   uint64_t parent) {
  RecordBatch batch = Generate(s, from, to, parent);
  ScopedSpan span(Layer::kSource, epoch_, parent, Id(s));
  sources_[s]->Ingest(std::move(batch));
  return sources_[s]->RunEpoch(to, profile_next_[s] != 0);
}

void Replica::Decide(size_t s, const core::EpochObservation& obs) {
  core::JarvisRuntime::Decision d = runtimes_[s]->OnEpochEnd(obs);
  sources_[s]->SetLoadFactors(d.load_factors);
  if (d.flush_pending) sources_[s]->RequestFlush();
  profile_next_[s] = d.request_profile ? 1 : 0;
}

void Replica::SourceTask(size_t s, Micros from, Micros to, uint64_t parent) {
  Envelope env;
  Result<core::SourceEpochOutput> out = RunSource(s, from, to, parent);
  if (!out.ok()) {
    env.status = out.status();
    handoff_->Put(s, std::move(env));
    return;
  }
  Book(*out, &counts_[s]);
  core::WireByteProfile profile;
  const bool profiled = out->observation.profiles_valid;
  Status wire_st;
  {
    core::WireDrain wire;
    {
      ScopedSpan span(Layer::kWireEncode, epoch_, parent, Id(s));
      wire = core::SerializeDrain(&*out, &next_seq_[s], codec_,
                                  profiled ? &profile : nullptr);
    }
    counts_[s].frames += wire.frame_count;
    counts_[s].wire_bytes += wire.wire_bytes;
    ScopedSpan span(Layer::kWireDecode, epoch_, parent, Id(s));
    wire_st = core::DecodeDrain(wire, &out->to_sp);
  }
  if (!wire_st.ok()) {
    env.status = wire_st;
    handoff_->Put(s, std::move(env));
    return;
  }
  core::EpochObservation obs;
  {
    ScopedSpan span(Layer::kControl, epoch_, parent, Id(s));
    FoldWireRatios(profile, 0, &out->observation);
    obs = out->observation;
  }
  {
    ScopedSpan span(Layer::kPoolHandoff, epoch_, parent, Id(s));
    env.out = std::move(*out);
    handoff_->Put(s, std::move(env));
  }
  ScopedSpan span(Layer::kControl, epoch_, parent, Id(s));
  Decide(s, obs);
}

Status Replica::RunParallel(RecordBatch* results, uint64_t root,
                            EpochCounters* c) {
  const Micros from = now_;
  const Micros to = now_ + Seconds(1);
  now_ = to;
  const size_t n = sources_.size();
  handoff_->Reset(n);
  // BuildingBlock::RunEpochParallel's tiny-source grouping: consecutive
  // sources whose previous epoch stayed under 1,024 input records share one
  // pool task, up to 32 per task.
  constexpr uint64_t kSmallSourceRecords = 1024;
  constexpr size_t kMaxGroup = 32;
  for (size_t s = 0; s < n;) {
    size_t end = s;
    while (end < n && end - s < kMaxGroup &&
           last_input_records_[end] < kSmallSourceRecords) {
      ++end;
    }
    if (end - s < 2) end = s + 1;
    ++c->pool_tasks;
    pool_->Submit(s, [this, s, end, from, to, root] {
      ScopedSpan task(Layer::kTask, epoch_, root);
      for (size_t x = s; x < end; ++x) SourceTask(x, from, to, task.id());
    });
    s = end;
  }
  Status st;
  for (size_t s = 0; s < n; ++s) {
    Envelope env;
    {
      ScopedSpan span(Layer::kPoolWait, epoch_, root, Id(s));
      env = handoff_->Take(s);
    }
    if (!st.ok()) continue;
    if (!env.status.ok()) {
      st = env.status;
      continue;
    }
    last_input_records_[s] = env.out.observation.input_records;
    c->sp_records += env.out.DrainedRecords();
    ScopedSpan span(Layer::kSpConsume, epoch_, root, Id(s));
    st = sp_->Consume(s, std::move(env.out), results);
    // Freeing what the SP leaves of the envelope (buffers a worker
    // allocated) is part of consuming it.
    env = Envelope();
  }
  {
    ScopedSpan span(Layer::kPoolBarrier, epoch_, root);
    pool_->WaitIdle();
  }
  JARVIS_RETURN_IF_ERROR(st);
  ScopedSpan span(Layer::kSpEndEpoch, epoch_, root);
  return sp_->EndEpoch(results);
}

void Replica::SourceTaskFT(size_t s, Micros from, Micros to,
                           uint64_t parent) {
  Envelope env;
  sources_[s]->SetIngressLimits(core::IngressLimits());
  Result<core::SourceEpochOutput> out = RunSource(s, from, to, parent);
  if (!out.ok()) {
    env.status = out.status();
    handoff_->Put(s, std::move(env));
    return;
  }
  Book(*out, &counts_[s]);
  env.watermark = out->watermark;
  const bool profiled = out->observation.profiles_valid;
  core::WireByteProfile profile;
  {
    ScopedSpan span(Layer::kWireEncode, epoch_, parent, Id(s));
    env.wire = core::SerializeDrain(&*out, &next_seq_[s], codec_,
                                    profiled ? &profile : nullptr);
  }
  counts_[s].frames += env.wire.frame_count;
  counts_[s].wire_bytes += env.wire.wire_bytes;
  // BuildingBlock::MaybeBuildCheckpointFrame: every interval-th barrier
  // appends the sealed state frame; every retain-th one is a keyframe.
  uint64_t ckpt_bytes = 0;
  const int interval = ft_.checkpoint_interval;
  if ((epoch_ + 1) % interval == 0) {
    ScopedSpan span(Layer::kCkptExport, epoch_, parent, Id(s));
    const int64_t index = (epoch_ + 1) / interval - 1;
    const bool full = index % ft_.checkpoint_retain == 0;
    jarvis::ser::BufferWriter body;
    Status st = sources_[s]->ExportCheckpointBody(
        &body, full ? jarvis::stream::StateExport::kFull
                    : jarvis::stream::StateExport::kDelta);
    if (!st.ok()) {
      env.status = st;
      handoff_->Put(s, std::move(env));
      return;
    }
    const uint32_t seq = next_seq_[s]++;
    env.ckpt_fence = seq + 1;
    core::WireFrame frame = core::MakeCheckpointFrame(
        seq, core::SealCheckpointPayload(full, epoch_, env.ckpt_fence,
                                         body.data()),
        codec_);
    ckpt_bytes = frame.bytes.size();
    env.wire.wire_bytes += ckpt_bytes;
    ++env.wire.frame_count;
    env.wire.frames.push_back(std::move(frame));
  }
  counts_[s].ckpt_bytes += ckpt_bytes;
  {
    ScopedSpan span(Layer::kControl, epoch_, parent, Id(s));
    FoldWireRatios(profile, ckpt_bytes, &out->observation);
  }
  env.pristine = env.wire.frames;
  {
    ScopedSpan span(Layer::kControl, epoch_, parent, Id(s));
    Decide(s, out->observation);
    env.profile_next = profile_next_[s] != 0;
  }
  ScopedSpan span(Layer::kPoolHandoff, epoch_, parent, Id(s));
  handoff_->Put(s, std::move(env));
}

Status Replica::Deliver(size_t s, Envelope* env, RecordBatch* results,
                        uint64_t root, EpochCounters* c) {
  JARVIS_RETURN_IF_ERROR(env->status);
  profile_next_[s] = env->profile_next ? 1 : 0;
  for (core::WireFrame& f : env->pristine) {
    retained_[s].emplace(f.seq, std::move(f));
  }
  for (const core::WireFrame& f : env->wire.frames) {
    const bool ckpt = env->ckpt_fence > 0 && f.seq + 1 == env->ckpt_fence;
    Result<core::FrameDisposition> disp = [&] {
      ScopedSpan span(ckpt ? Layer::kCkptStore : Layer::kSpConsume, epoch_,
                      root, Id(s));
      return sp_->ConsumeFrame(s, f, results);
    }();
    if (!disp.ok()) return disp.status();
    if (*disp != core::FrameDisposition::kDelivered) {
      return Status::Internal("replica: a clean-channel frame was refused");
    }
    c->sp_records += f.records;
  }
  if (env->ckpt_fence > 0) {
    const core::CheckpointStore& store = sp_->checkpoint_store(s);
    if (store.size() > 0) {
      retained_[s].erase(retained_[s].begin(),
                         retained_[s].lower_bound(store.entry(0).fence));
    }
  }
  sp_->ConsumeWatermark(s, env->watermark);
  return Status::OK();
}

Status Replica::RunFaultTolerant(RecordBatch* results, uint64_t root,
                                 EpochCounters* c) {
  const Micros from = now_;
  const Micros to = now_ + Seconds(1);
  now_ = to;
  const size_t n = sources_.size();
  sp_->SetCheckpointRetain(
      static_cast<size_t>(std::max(1, ft_.checkpoint_retain)));
  handoff_->EnsureCapacity(n);
  for (size_t s = 0; s < n; ++s) {
    handoff_->ClearSlot(s);
    ++c->pool_tasks;
    pool_->Submit(s, [this, s, from, to, root] {
      ScopedSpan task(Layer::kTask, epoch_, root);
      SourceTaskFT(s, from, to, task.id());
    });
  }
  Status st;
  for (size_t s = 0; s < n; ++s) {
    Envelope env;
    {
      ScopedSpan span(Layer::kPoolWait, epoch_, root, Id(s));
      env = handoff_->Take(s);
    }
    if (!st.ok()) continue;
    st = Deliver(s, &env, results, root, c);
  }
  {
    ScopedSpan span(Layer::kPoolBarrier, epoch_, root);
    pool_->WaitIdle();
  }
  JARVIS_RETURN_IF_ERROR(st);
  ScopedSpan span(Layer::kSpEndEpoch, epoch_, root);
  return sp_->EndEpoch(results);
}

}  // namespace blockbench
