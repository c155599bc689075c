#include "core/building_block.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <utility>

#include "common/env.h"
#include "core/checkpoint.h"
#include "ser/buffer.h"

namespace jarvis::core {

namespace {

/// Modeled exponential backoff base per retransmission, booked in
/// FaultStats::backoff_ms_total: the in-process wire has no real latency to
/// wait out, and sleeping would break determinism.
constexpr uint64_t kBackoffBaseMs = 1;

}  // namespace

BuildingBlock::BuildingBlock(const query::CompiledQuery& query,
                             std::vector<SourceSpec> specs,
                             RuntimeConfig runtime_config, int threads)
    : runtime_config_(runtime_config),
      query_(query),
      threads_(ResolveThreads(threads)) {
  // JARVIS_FAULTS installs a scripted fault plan in every building block —
  // the chaos CI legs run the whole suite this way without any test opting
  // in.
  auto injector = FaultInjector::FromEnv();
  if (!injector.ok()) {
    init_status_ = injector.status();
    return;
  }
  if (*injector != nullptr) injector_ = std::move(*injector);
  // JARVIS_TRAFFIC layers a scripted traffic plan over every generator;
  // JARVIS_OVERLOAD=1 arms the overload controller. Both reject malformed
  // values loudly instead of running a benign shape the operator did not
  // ask for.
  auto shaper = TrafficShaper::FromEnv();
  if (!shaper.ok()) {
    init_status_ = shaper.status();
    return;
  }
  if (*shaper != nullptr) shaper_ = std::move(*shaper);
  Result<bool> overload_on = env::Flag("JARVIS_OVERLOAD", false);
  if (!overload_on.ok()) {
    init_status_ = overload_on.status();
    return;
  }
  // Environment knobs are read once here; worker tasks consult the cached
  // values through CkptInterval()/CkptRetain() (no getenv off-thread).
  env_ckpt_interval_ = CheckpointIntervalFromEnv();
  env_ckpt_retain_ = CheckpointRetainFromEnv();
  if (env_ckpt_retain_ <= 0) env_ckpt_retain_ = 4;
  wire_codec_ = WireCodecFromEnv();
  sp_ = std::make_unique<SpExecutor>(query, specs.size());
  if (!sp_->Init().ok()) {
    init_status_ = sp_->Init();
    return;
  }
  for (SourceSpec& spec : specs) {
    PerSource ps;
    // Spec copies stashed before the executor construction consumes the
    // spec: crash recovery rebuilds the executor from them.
    ps.cost_model = spec.cost_model;
    ps.options = spec.options;
    auto executor = std::make_unique<SourceExecutor>(
        query, std::move(spec.cost_model), spec.options);
    if (!executor->Init().ok()) {
      init_status_ = executor->Init();
      return;
    }
    epoch_length_ = Seconds(spec.options.epoch_seconds);
    sources_.push_back(std::move(executor));
    runtimes_.push_back(std::make_unique<JarvisRuntime>(
        query.num_source_ops(), runtime_config));
    ps.generate = std::move(spec.generate);
    state_.push_back(std::move(ps));
  }
  if (*overload_on) EnableOverloadControl(OverloadOptions());
}

void BuildingBlock::EnableOverloadControl(OverloadOptions opts) {
  overload_ = std::make_unique<OverloadController>(opts, state_.size());
}

const OverloadStats& BuildingBlock::overload_stats() const {
  static const OverloadStats kEmpty;
  return overload_ ? overload_->stats() : kEmpty;
}

OverloadLevel BuildingBlock::overload_level(size_t i) const {
  return overload_ ? overload_->level(i) : OverloadLevel::kSteady;
}

stream::RecordBatch BuildingBlock::GenerateShaped(size_t s, Micros from,
                                                  Micros to) {
  stream::RecordBatch batch = state_[s].generate(from, to);
  if (shaper_) {
    // Epoch index from event time, not the epoch counter: crash replay
    // re-generates by interval and must reshape identically.
    shaper_->Shape(s, static_cast<int64_t>(from / epoch_length_), &batch);
  }
  return batch;
}

BuildingBlock::~BuildingBlock() {
  if (pool_) pool_->Stop();
}

void BuildingBlock::FoldWireRatios(const WireByteProfile& profile,
                                   uint64_t ckpt_bytes,
                                   EpochObservation* obs) {
  if (!obs->profiles_valid || obs->profiles.empty()) return;
  // Drain-wide ratio backs entries that shipped nothing this epoch; the
  // checkpoint frame is amortized over the whole drain as a multiplier
  // (it is epoch overhead, not attributable to one operator).
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
  // Records drained at operator i enter the SP tagged entry i; entries past
  // the last profiled operator (finished records) accumulate into the last
  // slot so their bytes are still priced somewhere.
  std::vector<WireByteProfile::Entry> per(m);
  for (size_t e = 0; e < profile.per_entry.size(); ++e) {
    WireByteProfile::Entry& slot = per[std::min(e, m - 1)];
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

Result<size_t> BuildingBlock::AddSource(SourceSpec spec) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  // Growing sources_/state_ reallocates vectors an in-flight epoch task
  // still indexes into; only the barrier (all envelopes collected)
  // guarantees quiescence.
  for (const PerSource& ps : state_) {
    if (ps.outstanding) {
      return Status::FailedPrecondition(
          "cannot add a source while an epoch task is still in flight");
    }
  }
  PerSource ps;
  ps.cost_model = spec.cost_model;
  ps.options = spec.options;
  auto executor = std::make_unique<SourceExecutor>(
      query_, std::move(spec.cost_model), spec.options);
  JARVIS_RETURN_IF_ERROR(executor->Init());
  const size_t id = sources_.size();
  sp_->AddSource();
  if (overload_) overload_->AddSource();
  sources_.push_back(std::move(executor));
  runtimes_.push_back(std::make_unique<JarvisRuntime>(
      query_.num_source_ops(), runtime_config_));
  ps.generate = std::move(spec.generate);
  state_.push_back(std::move(ps));
  return id;
}

Status BuildingBlock::Finish(stream::RecordBatch* results) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  // Land every straggling or stalled delivery before the final flush. A
  // quarantined source's in-flight stays unconsumed (it is counted in
  // records_in_flight, not lost — nothing forced its loss).
  for (size_t s = 0; s < sources_.size(); ++s) {
    PerSource& ps = state_[s];
    if (ps.health == SourceHealth::kQuarantined) continue;
    if (ps.outstanding) {
      std::optional<EpochEnvelope> env = handoff_->TryTakeFor(
          s, std::chrono::milliseconds(std::max(1, ft_.take_deadline_ms) * 64));
      if (!env.has_value()) continue;  // still wedged: give up on it
      ps.outstanding = false;
      JARVIS_RETURN_IF_ERROR(
          ProcessEnvelope(s, epoch_, std::move(*env), results));
    }
    JARVIS_RETURN_IF_ERROR(
        DeliverReleasable(s, std::numeric_limits<int64_t>::max(), results));
  }
  for (const auto& [qs, keep] : pending_quarantine_) {
    ApplyQuarantine(qs, epoch_, keep);
  }
  pending_quarantine_.clear();
  // End-of-run recovery: a source still waiting out its checkpoint
  // re-admission backoff recovers now — the final flush must not close
  // windows missing records that replay can still deliver.
  for (size_t s = 0; s < sources_.size(); ++s) {
    PerSource& ps = state_[s];
    if (!ps.ckpt_recover) continue;
    JARVIS_RETURN_IF_ERROR(RestoreAndReplay(s, epoch_, results));
    ps.health = SourceHealth::kHealthy;
    ps.misses = 0;
    ps.readmit_at = -1;
    ++stats_.readmissions;
  }
  const Micros far = now_ + Seconds(3600);
  for (size_t s = 0; s < sources_.size(); ++s) {
    PerSource& ps = state_[s];
    // A source whose task is still wedged keeps its executor and sequence
    // counter: flushing it here would race that task.
    if (ps.health == SourceHealth::kQuarantined || ps.outstanding) continue;
    // Lift any standing ingress caps: the final flush must admit and drain
    // everything the throttle deferred — deferral is late, never lost.
    sources_[s]->SetIngressLimits(IngressLimits());
    JARVIS_ASSIGN_OR_RETURN(SourceEpochOutput out,
                            sources_[s]->RunEpoch(far, false));
    // The flush ships and is booked like every epoch's drain: tapped as
    // one more epoch, then sequenced frames, counted as sent and delivered
    // and seen by the wire tap.
    if (tap_) tap_(s, out.observation, out.watermark);
    Delivery d;
    d.release_epoch = epoch_;
    d.watermark = out.watermark;
    d.records = out.DrainedRecords();
    d.wire = SerializeDrain(&out, &ps.next_seq, wire_codec_);
    stats_.frames_sent += d.wire.frame_count;
    stats_.records_sent += d.records;
    stats_.wire_bytes_sent += d.wire.wire_bytes;
    ps.inbox.push_back(std::move(d));
    JARVIS_RETURN_IF_ERROR(
        DeliverReleasable(s, std::numeric_limits<int64_t>::max(), results));
  }
  JARVIS_RETURN_IF_ERROR(sp_->EndEpoch(results));
  return sp_->Flush(results);
}

// ---------------------------------------------------------------------------
// The epoch loop
// ---------------------------------------------------------------------------

Status BuildingBlock::ProduceEpoch(size_t s, int64_t epoch, bool profile,
                                   const IngressDirective& ing,
                                   EpochEnvelope* env) {
  const Micros from = static_cast<Micros>(epoch) * epoch_length_;
  const Micros to = from + epoch_length_;
  env->epoch = epoch;
  // The overload directive decided at the last barrier governs this epoch:
  // admission and deferral caps apply inside RunEpoch — no cross-thread
  // controller access.
  sources_[s]->SetIngressLimits({ing.admit_cap, ing.defer_cap});
  sources_[s]->Ingest(GenerateShaped(s, from, to));
  JARVIS_ASSIGN_OR_RETURN(SourceEpochOutput out,
                          sources_[s]->RunEpoch(to, profile));
  env->watermark = out.watermark;
  env->records = out.DrainedRecords();
  env->shed = out.ingress_shed;
  env->sample.offered = out.ingress_offered;
  env->sample.admitted = out.ingress_admitted;
  env->sample.deferred = out.ingress_deferred;
  env->sample.shed = out.ingress_shed;
  env->sample.drained = env->records;
  // Pending = deferred ingress plus records parked in stage queues when the
  // epoch's CPU budget ran out — the budget-starvation half of the backlog,
  // which admission caps alone cannot see.
  env->sample.pending = sources_[s]->buffered_input();
  for (const ProxyObservation& po : out.observation.proxies) {
    env->sample.pending += po.pending;
  }
  const bool profiled = out.observation.profiles_valid;
  WireByteProfile wire_profile;
  env->wire = SerializeDrain(&out, &state_[s].next_seq, wire_codec_,
                             profiled ? &wire_profile : nullptr);
  // Checkpoint barriers append the sealed state frame as the epoch's last
  // wire frame — before the pristine copy (so it is retransmittable) and
  // before the injector's pass (so faults get a shot at it like any frame).
  CkptFrameOut ck;
  JARVIS_RETURN_IF_ERROR(
      MaybeBuildCheckpointFrame(s, epoch, &state_[s].next_seq, &ck));
  if (ck.emitted) {
    env->ckpt_fence = ck.fence;
    env->ckpt_bytes = ck.frame.bytes.size();
    env->wire.wire_bytes += ck.frame.bytes.size();
    ++env->wire.frame_count;
    env->wire.frames.push_back(std::move(ck.frame));
  }
  // Fold the measured wire bytes (checkpoint frame included) into this
  // epoch's profiles before the adaptation decision sees them: the LP's
  // bandwidth term prices the frames that actually ship.
  FoldWireRatios(wire_profile, env->ckpt_bytes, &out.observation);
  // Degrade before dropping: overload pressure inflates the LP's bandwidth
  // price, so a profiling epoch under pressure re-plans toward the source
  // before (or while) the shedder fires.
  if (ing.pressure > 0.0 && out.observation.profiles_valid) {
    for (OperatorProfile& p : out.observation.profiles) {
      p.pressure = ing.pressure;
    }
  }
  env->observation = std::move(out.observation);
  return Status::OK();
}

void BuildingBlock::RunSourceTask(size_t s, int64_t epoch, bool profile,
                                  IngressDirective ing) {
  EpochEnvelope env;
  if (injector_ && injector_->ShouldCrash(s, epoch)) {
    // The epoch task dies before producing anything: no ingest, no drain,
    // no decision — the generator's records for this interval are gone.
    env.crashed = true;
    handoff_->Put(s, std::move(env));
    return;
  }
  env.status = ProduceEpoch(s, epoch, profile, ing, &env);
  if (env.status.ok()) {
    // The retransmit buffer travels in the envelope: the consumer owns the
    // retained copies outright, so a late (straggling) Put never races the
    // consumer's NACK handling.
    env.pristine = env.wire.frames;
    if (injector_) {
      env.late = injector_->StraggleEpochs(s, epoch);
      injector_->TamperTransmission(s, epoch, &env.wire);
    }
    JarvisRuntime::Decision d = runtimes_[s]->OnEpochEnd(env.observation);
    sources_[s]->SetLoadFactors(d.load_factors);
    if (d.flush_pending) sources_[s]->RequestFlush();
    env.profile_next = d.request_profile;
    if (CkptInterval() > 0) {
      // Entry conditions of the *next* epoch, bound for the decision trace
      // so crash replay reproduces the original frame boundaries bit-exactly.
      env.decided_lfs = std::move(d.load_factors);
      env.decided_flush = d.flush_pending;
    }
  }
  handoff_->Put(s, std::move(env));
}

Status BuildingBlock::RunEpoch(stream::RecordBatch* results) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  now_ += epoch_length_;
  const int64_t e = epoch_++;

  if (CkptInterval() > 0) {
    sp_->SetCheckpointRetain(static_cast<size_t>(std::max(1, CkptRetain())));
  }
  JARVIS_RETURN_IF_ERROR(MaybeReadmit(e, results));

  if (!handoff_) {
    handoff_ =
        std::make_unique<ShardedHandoff<EpochEnvelope>>(sources_.size());
  }
  handoff_->EnsureCapacity(sources_.size());
  const bool parallel = threads_ > 1 && sources_.size() > 1;
  if (parallel && !pool_) pool_ = std::make_unique<ExecPool>(threads_);

  // Schedule every non-quarantined source with no epoch still in flight.
  // A wedged source's slot is left untouched so its eventual Put lands;
  // everyone else's slot is recycled per key (no quiescent Reset).
  for (size_t s = 0; s < sources_.size(); ++s) {
    PerSource& ps = state_[s];
    if (ps.health == SourceHealth::kQuarantined || ps.outstanding) continue;
    handoff_->ClearSlot(s);
    ps.outstanding = true;
    const bool profile = ps.profile_next;
    // The directive is captured here, on the consumer thread, at the same
    // deterministic point profile_next is — the task never reads shared
    // controller state.
    const IngressDirective ing = ps.ingress_next;
    if (parallel) {
      pool_->Submit(s, [this, s, e, profile, ing] {
        RunSourceTask(s, e, profile, ing);
      });
    } else {
      RunSourceTask(s, e, profile, ing);
    }
  }

  // Collect in ascending source order — the stable merge order. With a
  // wall-clock deadline configured, a missed Take is a straggler signal,
  // not a wedge; the default (deterministic) mode keeps the blocking take.
  Status st;
  bool all_collected = true;
  for (size_t s = 0; s < sources_.size(); ++s) {
    PerSource& ps = state_[s];
    if (!ps.outstanding) continue;
    std::optional<EpochEnvelope> env;
    if (ft_.take_deadline_ms > 0) {
      env = handoff_->TryTakeFor(
          s, std::chrono::milliseconds(ft_.take_deadline_ms));
    } else {
      env = handoff_->Take(s);
    }
    if (!env.has_value()) {
      ++stats_.deadline_misses;
      NoteMiss(s);
      all_collected = false;
      continue;
    }
    ps.outstanding = false;
    if (!st.ok()) continue;
    st = ProcessEnvelope(s, e, std::move(*env), results);
  }
  // The epoch barrier runs only when every envelope was collected; the
  // tasks made all their side effects before the hand-off, so a collected
  // envelope means its task is effectively done and only a straggler's own
  // task can still be running when the barrier is skipped.
  if (parallel && all_collected) pool_->WaitIdle();
  JARVIS_RETURN_IF_ERROR(st);

  // Quarantines apply at this deterministic point — after the collect loop
  // and the barrier — so detection order cannot depend on interleaving.
  for (const auto& [qs, keep] : pending_quarantine_) {
    ApplyQuarantine(qs, e, keep);
  }
  pending_quarantine_.clear();

  // Overload pass last: every live source's fresh pressure sample is in,
  // the quarantine set is settled, and the directives issued here govern
  // epoch e+1 — captured at its schedule time above.
  if (overload_) TickOverload(e);

  return sp_->EndEpoch(results);
}

void BuildingBlock::TickOverload(int64_t e) {
  // Modeled SP-side congestion: what entered the SP this epoch beyond its
  // per-epoch consume capacity accumulates as backlog.
  const uint64_t consumed = sp_->records_consumed();
  overload_->NoteSpInflow(consumed - sp_consumed_last_);
  sp_consumed_last_ = consumed;
  bool escalated = false;
  for (size_t s = 0; s < state_.size(); ++s) {
    PerSource& ps = state_[s];
    if (ps.outstanding || ps.health == SourceHealth::kQuarantined) continue;
    const IngressDirective dir = overload_->Tick(s, ps.sample);
    if (overload_->EscalatedLastTick()) escalated = true;
    ps.ingress_next = dir;
    if (CkptInterval() > 0) {
      // The trace entry for e+1 was booked by ProcessEnvelope; bind the
      // directive so crash replay reproduces the shed boundaries exactly.
      if (auto it = ps.trace.find(e + 1); it != ps.trace.end()) {
        it->second.directive = dir;
      }
    }
  }
  if (!escalated) return;
  // A rung was climbed somewhere: re-profile and re-plan every serving
  // source so placement adapts (degrade) before the next rung (drop) is
  // needed. Same survivor rule as the quarantine replan.
  bool any = false;
  for (size_t x = 0; x < state_.size(); ++x) {
    if (state_[x].outstanding) continue;
    if (state_[x].health == SourceHealth::kQuarantined) continue;
    runtimes_[x]->TriggerReplan();
    state_[x].profile_next = true;
    any = true;
  }
  if (any) ++stats_.replans_triggered;
}

Status BuildingBlock::ProcessEnvelope(size_t s, int64_t e,
                                      EpochEnvelope&& env,
                                      stream::RecordBatch* results) {
  PerSource& ps = state_[s];
  if (env.crashed) {
    // The crashed task produced nothing, and a crashed source's process
    // state (its retransmit history) is gone with it: quarantine discards
    // the in-flight and re-syncs sequences at re-admission.
    ++stats_.crashes;
    pending_quarantine_.emplace_back(s, /*keep_inflight=*/false);
    return Status::OK();
  }
  // A genuine pipeline error is a bug, not an injected fault — propagate.
  JARVIS_RETURN_IF_ERROR(env.status);
  if (tap_) tap_(s, env.observation, env.watermark);
  ps.profile_next = env.profile_next;
  stats_.frames_sent += env.wire.frame_count;
  stats_.records_sent += env.records;
  BookShed(s, env);
  ps.sample = env.sample;
  stats_.wire_bytes_sent += env.wire.wire_bytes;
  if (env.ckpt_bytes > 0) {
    ++stats_.checkpoints_emitted;
    stats_.checkpoint_bytes += env.ckpt_bytes;
  }
  if (CkptInterval() > 0) {
    // Decision trace entry for epoch e+1, and pruning below the oldest
    // restorable checkpoint — replay can never start before the ring base.
    TraceEntry t;
    t.lfs = std::move(env.decided_lfs);
    t.flush = env.decided_flush;
    t.profile = env.profile_next;
    ps.trace[e + 1] = std::move(t);
    const int64_t base = sp_->checkpoint_store(s).base_epoch();
    if (base >= 0) {
      ps.trace.erase(ps.trace.begin(), ps.trace.lower_bound(base + 1));
    }
  }
  for (WireFrame& f : env.pristine) {
    ps.retained.emplace(f.seq, std::move(f));
  }
  Delivery d;
  d.release_epoch = e + env.late;
  d.wire = std::move(env.wire);
  d.watermark = env.watermark;
  d.records = env.records;
  d.ckpt_fence = env.ckpt_fence;
  ps.inbox.push_back(std::move(d));
  if (env.late > 0) {
    ++stats_.straggles;
    NoteMiss(s);
  } else {
    ps.misses = 0;
    // Flap damping: a suspect earns back its healthy badge only after
    // demote_after_ontime consecutive on-time epochs (1 = the undamped
    // seed behavior), so one good epoch amid flapping proves nothing.
    if (ps.health == SourceHealth::kSuspect &&
        ++ps.ontime_streak >= ft_.demote_after_ontime) {
      ps.health = SourceHealth::kHealthy;
      ps.ontime_streak = 0;
    }
  }
  // A quarantined source's output stays in its inbox until re-admission
  // revives its watermark input.
  if (ps.health == SourceHealth::kQuarantined) return Status::OK();
  if (injector_ && injector_->ShouldStall(s, e)) {
    // The SP sits on this source's drain this epoch; the inbox holds it
    // and the next epoch's delivery pass catches up.
    ++stats_.stalls;
    return Status::OK();
  }
  return DeliverReleasable(s, e, results);
}

void BuildingBlock::BookShed(size_t s, const EpochEnvelope& env) {
  PerSource& ps = state_[s];
  // Shed records are first-class: they count as sent and as shed, widening
  // conservation to sent == delivered + lost + shed + in_flight. Crash
  // replay re-runs already-booked epochs, and re-sheds the same records
  // (replay is bit-identical); the fence records how far the books go.
  if (env.epoch < ps.shed_counted_until) return;
  ps.shed_counted_until = env.epoch + 1;
  stats_.records_sent += env.shed;
  stats_.records_shed += env.shed;
  if (overload_) overload_->mutable_stats().records_shed_ingress += env.shed;
}

Status BuildingBlock::DeliverReleasable(size_t s, int64_t e,
                                        stream::RecordBatch* results) {
  PerSource& ps = state_[s];
  while (!ps.inbox.empty() && ps.inbox.front().release_epoch <= e) {
    Delivery d = std::move(ps.inbox.front());
    ps.inbox.pop_front();
    bool exhausted = false;
    JARVIS_RETURN_IF_ERROR(DeliverWire(s, &d, results, &exhausted));
    if (exhausted) {
      if (ZeroLossRecovery()) {
        // Zero-loss path: the interrupted delivery's remainder stays in
        // flight until checkpoint replay re-delivers it.
        ps.replay_outstanding += d.records - d.delivered;
      } else {
        stats_.records_lost += d.records - d.delivered;
      }
      pending_quarantine_.emplace_back(s, /*keep_inflight=*/false);
      return Status::OK();
    }
  }
  return Status::OK();
}

Status BuildingBlock::DeliverWire(size_t s, Delivery* d,
                                  stream::RecordBatch* results,
                                  bool* exhausted) {
  *exhausted = false;
  PerSource& ps = state_[s];
  std::deque<WireFrame> pending(
      std::make_move_iterator(d->wire.frames.begin()),
      std::make_move_iterator(d->wire.frames.end()));
  d->wire.frames.clear();
  const uint32_t seq_end = d->wire.first_seq + d->wire.frame_count;
  int attempts = 0;
  // NACK answer: fetch the expected frame's pristine copy (it rides the
  // same faulty link, so the injector gets another shot at it) and account
  // one modeled exponential-backoff round.
  auto retransmit = [&](uint32_t want, WireFrame* out_frame) -> bool {
    auto it = ps.retained.find(want);
    if (it == ps.retained.end()) return false;
    WireFrame copy = it->second;
    if (injector_) injector_->TamperRetransmit(s, want, &copy);
    ++stats_.retransmits;
    stats_.backoff_ms_total += kBackoffBaseMs << std::min(attempts - 1, 20);
    *out_frame = std::move(copy);
    return true;
  };
  // With checkpointing on, delivery does not release the retained copy:
  // frames stay retransmittable back to the oldest restorable checkpoint
  // fence and are pruned in bulk once a newer checkpoint lands (below).
  const bool ckpt_on = CkptInterval() > 0;
  auto ack = [&](const WireFrame& f) {
    ++stats_.frames_delivered;
    stats_.records_delivered += f.records;
    d->delivered += f.records;
    if (!ckpt_on) ps.retained.erase(f.seq);
    if (wire_tap_) wire_tap_(s, f.seq, f.bytes);
  };
  while (!pending.empty()) {
    JARVIS_ASSIGN_OR_RETURN(FrameDisposition disp,
                            sp_->ConsumeFrame(s, pending.front(), results));
    switch (disp) {
      case FrameDisposition::kDelivered:
        ack(pending.front());
        pending.pop_front();
        attempts = 0;
        break;
      case FrameDisposition::kDuplicate:
        ++stats_.duplicates_dropped;
        pending.pop_front();
        attempts = 0;
        break;
      case FrameDisposition::kCorrupt:
      case FrameDisposition::kGap: {
        if (disp == FrameDisposition::kCorrupt) {
          ++stats_.checksum_failures;
        } else {
          ++stats_.gaps;
        }
        const uint32_t want = sp_->expected_seq(s);
        if (want >= seq_end) {
          // Every real frame of this epoch already delivered: the offender
          // is leftover garbage (e.g. a corrupted duplicate) — drop it
          // rather than retransmitting toward a seq the SP will never want.
          ++stats_.duplicates_dropped;
          pending.pop_front();
          attempts = 0;
          break;
        }
        WireFrame copy;
        if (++attempts > ft_.max_retransmits || !retransmit(want, &copy)) {
          ++stats_.retransmit_failures;
          *exhausted = true;
          return Status::OK();
        }
        if (disp == FrameDisposition::kCorrupt) {
          pending.front() = std::move(copy);   // replace the bad frame
        } else {
          pending.push_front(std::move(copy));  // fill the gap, then retry
        }
        break;
      }
    }
  }
  // Trailing gaps: a dropped tail frame exposes no gap through a later
  // frame, but the epoch manifest (first_seq + frame_count) names exactly
  // what is still missing.
  while (sp_->expected_seq(s) < seq_end) {
    // A fresh missing seq (attempts carries within one seq's retry chain).
    if (attempts == 0) ++stats_.gaps;
    WireFrame copy;
    if (++attempts > ft_.max_retransmits ||
        !retransmit(sp_->expected_seq(s), &copy)) {
      ++stats_.retransmit_failures;
      *exhausted = true;
      return Status::OK();
    }
    JARVIS_ASSIGN_OR_RETURN(FrameDisposition disp,
                            sp_->ConsumeFrame(s, copy, results));
    if (disp == FrameDisposition::kDelivered) {
      ack(copy);
      attempts = 0;
    } else if (disp == FrameDisposition::kCorrupt) {
      ++stats_.checksum_failures;
    }
    // kDuplicate/kGap are impossible here: the copy carries exactly the
    // expected sequence number (unless its header was corrupted, which
    // reads as kCorrupt).
  }
  // This epoch's checkpoint landed whole: retained frames below the ring's
  // base fence can never be needed again (replay regenerates frames, and
  // the live NACK window starts at the oldest restorable checkpoint).
  if (ckpt_on && d->ckpt_fence > 0) {
    const CheckpointStore& store = sp_->checkpoint_store(s);
    if (store.size() > 0) {
      ps.retained.erase(ps.retained.begin(),
                        ps.retained.lower_bound(store.entry(0).fence));
    }
  }
  // Watermark last: event time advances only once the epoch has delivered
  // whole — a partially delivered epoch must not promise progress.
  sp_->ConsumeWatermark(s, d->watermark);
  return Status::OK();
}

void BuildingBlock::NoteMiss(size_t s) {
  PerSource& ps = state_[s];
  ++ps.misses;
  ps.ontime_streak = 0;  // flap damping: a miss restarts the probation clock
  if (ps.health == SourceHealth::kQuarantined) return;
  if (ps.misses >= ft_.quarantine_after_misses) {
    // Straggler quarantine keeps the in-flight: the source is slow, not
    // gone, and its deliveries land after re-admission (late, not lost).
    pending_quarantine_.emplace_back(s, /*keep_inflight=*/true);
  } else if (ps.health == SourceHealth::kHealthy) {
    ps.health = SourceHealth::kSuspect;
    ++stats_.suspects;
  }
}

void BuildingBlock::ApplyQuarantine(size_t s, int64_t e, bool keep_inflight) {
  PerSource& ps = state_[s];
  if (ps.health == SourceHealth::kQuarantined) return;
  // Checkpoint recovery holds the source's watermark input instead of
  // releasing it: replay will re-deliver every discarded record, and the
  // windows they belong to must not close without them. (The lossy path
  // trades exactly this — degraded mode keeps serving — for the loss.)
  const bool ckpt_recovery = !keep_inflight && ZeroLossRecovery();
  if (!ckpt_recovery) sp_->RemoveSource(s);  // s < num_sources by construction
  ps.health = SourceHealth::kQuarantined;
  ps.misses = 0;
  ps.ontime_streak = 0;
  // Flap damping: every repeat quarantine doubles the re-admission backoff
  // (capped at 64x), so a source that crashes right back after each
  // re-admission stops churning the watermark merge and the replan cadence.
  ++ps.quarantine_count;
  int64_t backoff = ft_.readmit_after_epochs;
  if (ft_.double_readmit_backoff && backoff > 0 && ps.quarantine_count > 1) {
    backoff <<= std::min<uint32_t>(ps.quarantine_count - 1, 6);
  }
  ps.readmit_at = ft_.readmit_after_epochs >= 0 ? e + 1 + backoff : -1;
  if (!keep_inflight) {
    if (ckpt_recovery) {
      // Nothing is lost: undelivered in-flight transfers to the replay
      // ledger, and the retained pristine frames stay — they remain the
      // NACK answer for the post-recovery live window.
      for (const Delivery& d : ps.inbox) {
        ps.replay_outstanding += d.records - d.delivered;
      }
      ps.inbox.clear();
      ps.crash_next_seq = ps.next_seq;
      ps.ckpt_recover = true;
    } else {
      for (const Delivery& d : ps.inbox) {
        stats_.records_lost += d.records - d.delivered;
      }
      ps.inbox.clear();
      ps.retained.clear();
      // Delivery history is gone; at re-admission the SP's expected sequence
      // jumps to the source's counter instead of NACKing forever.
      ps.resync_on_readmit = true;
    }
  }
  ++stats_.quarantines;
  if (ckpt_recovery) return;
  // The source set changed: every survivor's plan is stale. Re-profile and
  // re-plan over the surviving configuration (degraded mode keeps serving
  // in the meantime). A wedged survivor is skipped — its runtime object is
  // still owned by its running task — and catches the next re-plan.
  // Checkpoint recoveries skip the replan entirely (the early return
  // above): the source returns with identical state, so survivors keep
  // their fault-free trajectory — which is what makes post-recovery results
  // bit-identical to a run without the fault.
  bool any_survivor = false;
  for (size_t x = 0; x < state_.size(); ++x) {
    if (x == s || state_[x].outstanding) continue;
    if (state_[x].health == SourceHealth::kQuarantined) continue;
    runtimes_[x]->TriggerReplan();
    state_[x].profile_next = true;
    any_survivor = true;
  }
  if (any_survivor) ++stats_.replans_triggered;
}

Status BuildingBlock::MaybeReadmit(int64_t e, stream::RecordBatch* results) {
  for (size_t s = 0; s < sources_.size(); ++s) {
    PerSource& ps = state_[s];
    if (ps.health != SourceHealth::kQuarantined) continue;
    if (ps.readmit_at < 0 || e < ps.readmit_at) continue;
    std::optional<EpochEnvelope> stale;
    if (ps.outstanding) {
      // A wedged task must surface before re-admission; give it one
      // bounded chance per epoch and stay quarantined otherwise.
      stale = handoff_->TryTakeFor(
          s, std::chrono::milliseconds(std::max(1, ft_.take_deadline_ms)));
      if (!stale.has_value()) continue;
      ps.outstanding = false;
    }
    if (ps.ckpt_recover) {
      // Zero-loss re-admission: no join rule, no resync — the watermark
      // input was never released, and replay re-delivers the hole.
      JARVIS_RETURN_IF_ERROR(RestoreAndReplay(s, e, results));
      ps.health = SourceHealth::kHealthy;
      ps.misses = 0;
      ps.readmit_at = -1;
      ++stats_.readmissions;
      continue;
    }
    JARVIS_RETURN_IF_ERROR(sp_->ReadmitSource(s));
    if (ps.resync_on_readmit) {
      sp_->ResyncSequence(s, ps.next_seq);
      ps.resync_on_readmit = false;
    }
    ps.health = SourceHealth::kHealthy;
    ps.misses = 0;
    ps.readmit_at = -1;
    ++stats_.readmissions;
    // The quarantine-held inbox delivers now that the watermark input is
    // revived; a just-collected stale envelope books behind it in order.
    if (stale.has_value()) {
      JARVIS_RETURN_IF_ERROR(
          ProcessEnvelope(s, e, std::move(*stale), results));
    } else {
      JARVIS_RETURN_IF_ERROR(DeliverReleasable(s, e, results));
    }
  }
  return Status::OK();
}

uint64_t BuildingBlock::records_in_flight() const {
  uint64_t n = 0;
  for (const PerSource& ps : state_) {
    for (const Delivery& d : ps.inbox) n += d.records - d.delivered;
    n += ps.replay_outstanding;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Epoch-aligned checkpointing
// ---------------------------------------------------------------------------

Status BuildingBlock::MaybeBuildCheckpointFrame(size_t s, int64_t epoch,
                                                uint32_t* next_seq,
                                                CkptFrameOut* out) {
  out->emitted = false;
  const int interval = CkptInterval();
  if (interval <= 0 || (epoch + 1) % interval != 0) return Status::OK();
  // Barrier index of this checkpoint; every retain-th one is a full
  // keyframe that compacts the SP's ring. Replay recomputes the same
  // cadence, so regenerated frames occupy the same sequence numbers.
  const uint64_t ckpt_index =
      static_cast<uint64_t>((epoch + 1) / interval) - 1;
  const uint64_t retain = static_cast<uint64_t>(std::max(1, CkptRetain()));
  const bool full = ckpt_index % retain == 0;
  ser::BufferWriter body;
  JARVIS_RETURN_IF_ERROR(sources_[s]->ExportCheckpointBody(
      &body,
      full ? stream::StateExport::kFull : stream::StateExport::kDelta));
  const uint32_t seq = (*next_seq)++;
  out->fence = seq + 1;
  out->frame = MakeCheckpointFrame(
      seq, SealCheckpointPayload(full, epoch, out->fence, body.data()),
      wire_codec_);
  out->emitted = true;
  return Status::OK();
}

Status BuildingBlock::RestoreAndReplay(size_t s, int64_t e,
                                       stream::RecordBatch* results) {
  PerSource& ps = state_[s];
  ps.ckpt_recover = false;
  const CheckpointStore& store = sp_->checkpoint_store(s);
  const CheckpointRestorePlan plan = store.PlanRestore();
  if (plan.skipped > 0) ++stats_.checkpoint_fallbacks;
  int64_t from_epoch = 0;
  if (plan.valid) {
    from_epoch = plan.epoch + 1;
  } else if (store.size() > 0) {
    // Retained checkpoints exist but none is restorable (corrupt keyframe).
    // The decision trace was pruned against them, so genesis replay is off
    // the table too: fall back to the lossy resync re-admission.
    stats_.records_lost += ps.replay_outstanding;
    ps.replay_outstanding = 0;
    ps.crash_next_seq = 0;
    ps.retained.clear();
    ps.trace.clear();
    sp_->ResyncSequence(s, ps.next_seq);
    return Status::OK();
  }
  // else: no checkpoint ever landed — genesis replay (fresh executor, full
  // trace, wire sequences from zero).
  ++stats_.checkpoint_restores;

  // Rebuild the executor from its spec and apply the checkpoint chain,
  // keyframe first, deltas in epoch order. The control-plane runtime is
  // deliberately NOT rebuilt: its state is the decision history, and the
  // replayed epochs below feed it exactly the observations the crash
  // swallowed.
  auto fresh =
      std::make_unique<SourceExecutor>(query_, ps.cost_model, ps.options);
  JARVIS_RETURN_IF_ERROR(fresh->Init());
  sources_[s] = std::move(fresh);
  if (plan.valid) {
    for (size_t idx : plan.chain) {
      const CheckpointStore::Entry& entry = store.entry(idx);
      JARVIS_ASSIGN_OR_RETURN(
          CheckpointHeader hdr,
          PeekCheckpointHeader(entry.payload.data(), entry.payload.size()));
      ser::BufferReader r(entry.payload.data() + hdr.body_offset,
                          entry.payload.size() - hdr.body_offset);
      JARVIS_RETURN_IF_ERROR(sources_[s]->RestoreCheckpointBody(&r));
    }
  }
  ps.next_seq = plan.valid ? plan.fence : 0;
  ps.retained.clear();  // superseded: replay regenerates pristine frames

  // Deterministically re-run every epoch past the checkpoint. Epochs the
  // original run completed replay under their traced decisions, so their
  // frames are bit-identical and the SP's sequence dedup drops what it
  // already consumed; epochs the crash and the quarantine window swallowed
  // run their decisions live on the preserved runtime — exactly the
  // decisions the fault-free run would have made. Delivery rides the clean
  // channel: the injector already had its shot at these epochs.
  for (int64_t r = from_epoch; r < e; ++r) {
    bool profile = ps.profile_next;
    // The overload directive that governed epoch r originally; untraced
    // epochs (the crash window never decided) reuse the last issued
    // directive — frozen at a deterministic point, identical in replay.
    IngressDirective ing = ps.ingress_next;
    if (auto it = ps.trace.find(r); it != ps.trace.end()) {
      sources_[s]->SetLoadFactors(it->second.lfs);
      if (it->second.flush) sources_[s]->RequestFlush();
      profile = it->second.profile;
      ing = it->second.directive;
    }
    EpochEnvelope env;
    JARVIS_RETURN_IF_ERROR(ProduceEpoch(s, r, profile, ing, &env));
    BookShed(s, env);
    for (WireFrame& f : env.wire.frames) {
      const bool resend = f.seq < ps.crash_next_seq;
      const bool is_ckpt = env.ckpt_fence > 0 && f.seq + 1 == env.ckpt_fence;
      JARVIS_ASSIGN_OR_RETURN(FrameDisposition disp,
                              sp_->ConsumeFrame(s, f, results));
      switch (disp) {
        case FrameDisposition::kDelivered:
          ++stats_.frames_delivered;
          stats_.records_delivered += f.records;
          if (resend) {
            // Re-delivery of a frame the crash stranded in flight.
            ++stats_.frames_replayed;
            stats_.records_replayed += f.records;
            ps.replay_outstanding -=
                std::min<uint64_t>(ps.replay_outstanding, f.records);
          } else {
            // The quarantine window's first-ever delivery of this frame.
            ++stats_.frames_sent;
            stats_.records_sent += f.records;
            stats_.wire_bytes_sent += f.bytes.size();
            if (is_ckpt) {
              ++stats_.checkpoints_emitted;
              stats_.checkpoint_bytes += f.bytes.size();
            }
          }
          if (wire_tap_) wire_tap_(s, f.seq, f.bytes);
          break;
        case FrameDisposition::kDuplicate:
          ++stats_.duplicates_dropped;
          break;
        case FrameDisposition::kCorrupt:
        case FrameDisposition::kGap:
          // The replay channel is clean and in order by construction.
          return Status::Internal("checkpoint replay frame rejected");
      }
      ps.retained.emplace(f.seq, std::move(f));
    }
    sp_->ConsumeWatermark(s, env.watermark);
    if (ps.trace.find(r + 1) == ps.trace.end()) {
      // The original run never decided for epoch r+1 (it was dead): decide
      // now, exactly as the fault-free run would have, and extend the trace
      // so a later crash can replay through this window too.
      JarvisRuntime::Decision d = runtimes_[s]->OnEpochEnd(env.observation);
      sources_[s]->SetLoadFactors(d.load_factors);
      if (d.flush_pending) sources_[s]->RequestFlush();
      ps.profile_next = d.request_profile;
      TraceEntry t;
      t.lfs = std::move(d.load_factors);
      t.flush = d.flush_pending;
      t.profile = d.request_profile;
      // The controller never ticked during the outage: the frozen directive
      // governs the whole window, and the trace must say so or a second
      // crash would replay these epochs under different caps.
      t.directive = ps.ingress_next;
      ps.trace[r + 1] = std::move(t);
    }
  }
  // Conservation safety valve: anything replay could not re-deliver (it
  // should re-deliver everything) is accounted as loss, never leaked.
  stats_.records_lost += ps.replay_outstanding;
  ps.replay_outstanding = 0;
  ps.crash_next_seq = 0;
  // Prune regenerated retained frames below the oldest restorable fence,
  // the same bound the live delivery path maintains.
  if (store.size() > 0) {
    ps.retained.erase(ps.retained.begin(),
                      ps.retained.lower_bound(store.entry(0).fence));
  }
  return Status::OK();
}

}  // namespace jarvis::core
