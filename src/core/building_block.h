#ifndef JARVIS_CORE_BUILDING_BLOCK_H_
#define JARVIS_CORE_BUILDING_BLOCK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/drain_wire.h"
#include "core/exec_pool.h"
#include "core/fault.h"
#include "core/overload.h"
#include "core/runtime.h"
#include "core/source_executor.h"
#include "core/sp_executor.h"
#include "query/compile.h"

namespace jarvis::core {

/// Failure-detector view of one source.
enum class SourceHealth : uint8_t {
  kHealthy = 0,
  /// Missed an epoch deadline (or delivered late); still serving.
  kSuspect = 1,
  /// Removed from the epoch barrier and the watermark merge; its drain is
  /// not consumed until re-admission.
  kQuarantined = 2,
};

/// Fault-tolerance knobs of the epoch runtime (all detection and recovery is
/// driven by these; nothing is wall-clock-random).
struct FaultToleranceOptions {
  /// Retransmission bound per delivery: a frame that cannot be delivered
  /// within this many NACK rounds quarantines its source.
  int max_retransmits = 3;
  /// Consecutive missed epoch deadlines before a source is quarantined; a
  /// miss short of that marks it suspect.
  int quarantine_after_misses = 2;
  /// Epochs a quarantined source sits out before re-admission through the
  /// AddSource join path; < 0 disables re-admission, which makes a crash a
  /// permanent failure: the source's watermark input is released and its
  /// in-flight records are lost, checkpoints on or off.
  int readmit_after_epochs = 3;
  /// Wall-clock per-source epoch deadline in milliseconds; 0 keeps the
  /// deterministic barrier (scripted straggles only). When > 0, a source
  /// that misses the deadline is suspected and its output collected late —
  /// the runtime path never blocks indefinitely on one wedged source.
  int take_deadline_ms = 0;
  /// Epoch-aligned checkpointing (zero-loss crash recovery). > 0: every Nth
  /// epoch barrier each source appends a checkpoint frame — its operator
  /// state deltas and pending stage queues — to the epoch's wire drain; a
  /// crashed source restores from the newest retained checkpoint chain and
  /// replays forward instead of resyncing past the hole. 0 reads the
  /// JARVIS_CKPT_INTERVAL environment variable (unset/invalid -> off);
  /// < 0 forces checkpointing off regardless of the environment.
  int checkpoint_interval = 0;
  /// Checkpoint ring size K: every Kth checkpoint is a full keyframe and
  /// resets the SP's retained ring, so at most K payloads are ever kept per
  /// source. > 0 explicit; 0 reads JARVIS_CKPT_RETAIN (unset/invalid -> 4).
  int checkpoint_retain = 0;
  /// Flap damping: consecutive on-time epochs a suspect source must deliver
  /// before it is demoted back to healthy. 1 keeps the seed behavior (one
  /// on-time epoch clears suspicion); larger values stop a flapping source
  /// from oscillating the detector every other epoch.
  int demote_after_ontime = 1;
  /// Flap damping for re-admission: each repeated quarantine of the same
  /// source doubles its readmit backoff (readmit_after_epochs << n, capped),
  /// so a source that keeps crashing right after re-admission stops churning
  /// the watermark merge.
  bool double_readmit_backoff = true;
};

/// Counters of everything the epoch runtime detected and did.
/// Deterministic under scripted fault plans: part of the recovery
/// fingerprint the chaos tests compare across thread counts.
struct FaultStats {
  uint64_t crashes = 0;
  uint64_t straggles = 0;
  uint64_t stalls = 0;
  uint64_t deadline_misses = 0;
  uint64_t suspects = 0;
  uint64_t quarantines = 0;
  uint64_t readmissions = 0;
  uint64_t checksum_failures = 0;
  uint64_t gaps = 0;
  uint64_t duplicates_dropped = 0;
  uint64_t retransmits = 0;
  uint64_t retransmit_failures = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_delivered = 0;
  uint64_t records_sent = 0;
  uint64_t records_delivered = 0;
  uint64_t records_lost = 0;
  /// Records deliberately dropped by the overload controller (ingress
  /// admission shed). Widens the
  /// conservation invariant:
  ///   records_sent == records_delivered + records_lost + records_shed
  ///                   + records_in_flight.
  uint64_t records_shed = 0;
  uint64_t replans_triggered = 0;
  uint64_t backoff_ms_total = 0;
  // --- epoch-aligned checkpointing ---
  uint64_t checkpoints_emitted = 0;  ///< checkpoint frames shipped
  uint64_t checkpoint_bytes = 0;     ///< wire bytes of those frames
  uint64_t checkpoint_restores = 0;  ///< recoveries that applied a chain
  uint64_t checkpoint_fallbacks = 0; ///< restores that skipped corrupt tails
                                     ///< or fell back to the lossy path
  uint64_t frames_replayed = 0;      ///< regenerated frames re-delivered
  uint64_t records_replayed = 0;     ///< records in those frames
  uint64_t wire_bytes_sent = 0;      ///< all frame bytes shipped (overhead
                                     ///< denominator for checkpoint_bytes)

  bool operator==(const FaultStats&) const = default;
};

/// One *core building block* of the monitoring pipeline (Figure 4b): N data
/// sources, each with its own executor and fully decentralized Jarvis
/// runtime, feeding one parent stream processor. This is the deployment
/// object the query manager creates per query; examples and tests use it to
/// avoid hand-wiring the epoch loop.
///
/// Threading model: one epoch loop at every thread count. Each source's
/// epoch — generate, stage pipeline, drain encode, checkpoint frame, and its
/// runtime's adaptation decision — is one task on the source's ExecPool
/// queue, run inline on the caller's thread when `threads` == 1 or there is
/// one source. The task hands an envelope (sequenced, checksummed wire
/// frames, the watermark, the observation) to the stream processor through a
/// mutex-sharded channel; the SP verifies, acks and consumes the frames on
/// the caller's thread in ascending source order (the stable merge order),
/// and one idle barrier per epoch keeps the adaptation round's boundary
/// consistent. Because every source is deterministic in isolation (own
/// generator, own RNG, own runtime) and the merge order is fixed, results,
/// stats, observations and wire bytes are bit-identical at every thread
/// count; the cross-thread equivalence fuzz suite asserts exactly this. The
/// failure detector, retransmission, checkpointing and overload control all
/// ride this one loop.
class BuildingBlock {
 public:
  struct SourceSpec {
    std::shared_ptr<const CostModel> cost_model;
    SourceExecutorOptions options;
    /// Produces this source's records for event-time interval [from, to).
    /// Runs on a pool worker when threads > 1, so it must not share mutable
    /// state with other sources' generators (give each source its own
    /// seeded generator — determinism depends on it).
    std::function<stream::RecordBatch(Micros, Micros)> generate;
  };

  /// `threads` < 0 (default) reads the JARVIS_THREADS environment variable
  /// (unset -> 1: every source's task runs inline on the caller's thread;
  /// 0 -> all hardware threads); >= 0 is explicit with the same convention.
  BuildingBlock(const query::CompiledQuery& query,
                std::vector<SourceSpec> sources,
                RuntimeConfig runtime_config = RuntimeConfig(),
                int threads = -1);

  ~BuildingBlock();

  Status Init() const { return init_status_; }

  /// Runs one epoch across all sources and the stream processor; closed
  /// windows' results are appended to `results`.
  Status RunEpoch(stream::RecordBatch* results);

  /// Adds a source mid-run (churn). It participates from the next epoch;
  /// until its first epoch output lands, the merged watermark holds — the
  /// same one-epoch stall any newly reporting input causes. Returns the new
  /// source id.
  Result<size_t> AddSource(SourceSpec spec);

  /// End-of-run flush of all remaining state. The flush drains over the
  /// wire like an epoch: framed, delivered and booked in fault_stats().
  Status Finish(stream::RecordBatch* results);

  /// Test/diagnostic tap: called once per source per collected epoch, on
  /// the consuming thread as the envelope is booked, in ascending source
  /// order (the same order at every thread count), with the epoch's
  /// observation — profiles carrying the folded wire ratios — and its
  /// watermark. Epochs a crash replay regenerates are not tapped; Finish's
  /// final flush is tapped as one more epoch. The epoch's drained bytes
  /// reach SetWireTap as the SP accepts its frames. The cross-thread
  /// equivalence suite compares both across thread counts.
  using EpochTap = std::function<void(
      size_t source_id, const EpochObservation& obs, Micros watermark)>;
  void SetEpochTap(EpochTap tap) { tap_ = std::move(tap); }

  /// Sets the fault-tolerance knobs: retransmission bound, failure-detector
  /// thresholds, re-admission backoff and checkpointing. Every block runs
  /// the same checksummed, acked wire loop; these only tune how it detects
  /// and recovers. Call before the first epoch.
  void EnableFaultTolerance(FaultToleranceOptions opts) { ft_ = opts; }

  /// Installs a scripted fault plan. The constructor installs one
  /// automatically when JARVIS_FAULTS is set.
  void SetFaultPlan(FaultPlan plan) {
    injector_ = std::make_unique<FaultInjector>(std::move(plan));
  }

  const FaultStats& fault_stats() const { return stats_; }
  SourceHealth health(size_t i) const { return state_[i].health; }

  /// Switches the overload controller on. Each epoch the controller samples
  /// per-source pressure — offered load, deferred backlog, modeled SP inflow
  /// backlog — and walks the escalation ladder steady -> throttled ->
  /// shedding -> quarantined; directives apply from the *next* epoch, on the
  /// source's own task, so threads 1 and 4 stay bit-identical. Call before
  /// the first epoch. The constructor enables it automatically when
  /// JARVIS_OVERLOAD is set.
  void EnableOverloadControl(OverloadOptions opts);

  /// Installs a scripted traffic plan (diurnal ramps, flash bursts, key-skew
  /// flips, leave churn) that reshapes every source's generated batches
  /// deterministically. The constructor installs one automatically when
  /// JARVIS_TRAFFIC is set.
  void SetTrafficPlan(TrafficPlan plan) {
    shaper_ = std::make_unique<TrafficShaper>(std::move(plan));
  }

  bool overload_enabled() const { return overload_ != nullptr; }
  /// Aggregate overload-controller counters (part of the cross-thread
  /// determinism fingerprint, like FaultStats).
  const OverloadStats& overload_stats() const;
  /// Current escalation rung of one source (kSteady when control is off).
  OverloadLevel overload_level(size_t i) const;
  /// Most recent pressure sample the controller saw for source `i`.
  const PressureSample& pressure_sample(size_t i) const {
    return state_[i].sample;
  }

  /// Records queued for delivery but not yet consumed by the SP (straggling
  /// or stalled epochs, quarantine-held inboxes, crash replay pending).
  /// Conservation invariant the chaos tests assert after the recovery fence:
  ///   records_sent == records_delivered + records_lost + records_shed
  ///                   + records_in_flight.
  uint64_t records_in_flight() const;

  /// Diagnostic tap over every wire frame the SP accepted (verification and
  /// dedup already passed), called on the consuming thread in delivery
  /// order. The chaos suite fingerprints delivered bytes through it and
  /// asserts no sequence number is ever consumed twice.
  using WireTap = std::function<void(size_t source_id, uint32_t seq,
                                     const std::vector<uint8_t>& bytes)>;
  void SetWireTap(WireTap tap) { wire_tap_ = std::move(tap); }

  /// Overrides the drain wire codec (the constructor reads the
  /// JARVIS_WIRE_COMPRESS environment variable). Call before the first
  /// epoch: frames already retained for retransmission keep their encoding.
  void SetWireCodec(const WireCodecOptions& codec) { wire_codec_ = codec; }

  size_t num_sources() const { return sources_.size(); }
  SourceExecutor& source(size_t i) { return *sources_[i]; }
  JarvisRuntime& runtime(size_t i) { return *runtimes_[i]; }
  SpExecutor& stream_processor() { return *sp_; }
  Micros now() const { return now_; }
  int threads() const { return threads_; }

 private:
  /// One epoch's wire drain waiting to be consumed by the SP. Held in the
  /// source's inbox while it straggles (release_epoch > current) or while a
  /// stall fault defers consumption; `delivered` tracks how many of its
  /// records landed so conservation survives partial deliveries.
  struct Delivery {
    int64_t release_epoch = 0;
    WireDrain wire;
    Micros watermark = -1;
    uint64_t records = 0;
    uint64_t delivered = 0;
    /// Nonzero when this epoch carried a checkpoint frame: the sequence
    /// number right after it. Once the whole delivery lands, retained
    /// frames below the SP store's oldest restorable fence are pruned.
    uint32_t ckpt_fence = 0;
  };

  /// One epoch's adaptation-decision entry conditions, recorded consumer-
  /// side from the envelope so crash replay reproduces the original frame
  /// boundaries bit-exactly (the decision for epoch e+1 is made at the end
  /// of epoch e; replay re-applies it before re-running e+1).
  struct TraceEntry {
    std::vector<double> lfs;
    bool flush = false;
    bool profile = false;
    /// Ingress directive that governed this epoch (overload control);
    /// replay re-applies it so shed/admit boundaries reproduce bit-exactly.
    IngressDirective directive;
  };

  struct PerSource {
    std::function<stream::RecordBatch(Micros, Micros)> generate;
    /// Spec copies kept for crash recovery: RestoreAndReplay rebuilds the
    /// executor from scratch before applying the checkpoint chain.
    std::shared_ptr<const CostModel> cost_model;
    SourceExecutorOptions options;
    bool profile_next = false;
    // --- failure-detector and wire state (consumer thread only, except
    // next_seq which the source's own serial task increments) ---
    SourceHealth health = SourceHealth::kHealthy;
    int misses = 0;            ///< consecutive missed/late epochs
    int64_t readmit_at = -1;   ///< epoch at which quarantine may lift
    bool outstanding = false;  ///< task submitted, envelope not collected
    bool resync_on_readmit = false;  ///< in-flight history was discarded
    uint32_t next_seq = 0;     ///< task-side wire sequence counter
    /// Consumer-owned retransmit buffer: pristine copies of every frame not
    /// yet acked by the SP (ack == delivered, erased on delivery). With
    /// checkpointing on, delivery does not erase — frames are pruned below
    /// the oldest restorable checkpoint fence instead.
    std::map<uint32_t, WireFrame> retained;
    /// Epoch drains not yet consumed, in epoch order.
    std::deque<Delivery> inbox;
    // --- checkpoint recovery (consumer thread only) ---
    /// Records whose delivery was interrupted by a crash quarantine; they
    /// stay in flight until replay re-delivers them (zero-loss accounting).
    uint64_t replay_outstanding = 0;
    /// Sequence horizon at quarantine time: replayed frames below it are
    /// resends of already-sent frames, at/above it are brand new.
    uint32_t crash_next_seq = 0;
    /// Quarantined with checkpoint recovery pending (watermark held, no
    /// resync; MaybeReadmit runs RestoreAndReplay instead of the join rule).
    bool ckpt_recover = false;
    /// Per-epoch decision trace, pruned below the store's restorable base.
    std::map<int64_t, TraceEntry> trace;
    // --- overload control (consumer thread only) ---
    /// Directive the controller issued for this source's *next* epoch; the
    /// epoch task captures it at schedule time.
    IngressDirective ingress_next;
    /// Latest pressure sample collected from this source's envelope.
    PressureSample sample;
    /// Flap damping: consecutive on-time epochs while suspect, and how many
    /// times this source has been quarantined (drives the doubling backoff).
    int ontime_streak = 0;
    uint32_t quarantine_count = 0;
    /// Replay re-runs epochs whose shed was already counted; envelopes from
    /// epochs below this fence do not re-book shed/sent records.
    int64_t shed_counted_until = 0;
  };

  /// What one source epoch hands the consumer: the drain as wire frames plus
  /// everything the consumer books about it.
  struct EpochEnvelope {
    Status status;
    bool crashed = false;      ///< scripted crash: task died, no output
    int late = 0;              ///< scripted straggle: epochs of lateness
    WireDrain wire;            ///< possibly tampered in-flight copy
    std::vector<WireFrame> pristine;  ///< clean copies for retransmission
    Micros watermark = -1;
    uint64_t records = 0;
    /// The epoch's observation, wire ratios folded in; the decision reads it
    /// in place before the hand-off, and the EpochTap sees it after.
    EpochObservation observation;
    bool profile_next = false;  ///< the decision, made before the hand-off
    // --- epoch-aligned checkpoint (interval barriers only) ---
    uint32_t ckpt_fence = 0;   ///< seq after the checkpoint frame; 0 = none
    uint64_t ckpt_bytes = 0;   ///< wire bytes of the checkpoint frame
    /// Decision entry conditions for the *next* epoch, recorded into the
    /// trace so crash replay reproduces the original execution bit-exactly.
    std::vector<double> decided_lfs;
    bool decided_flush = false;
    // --- overload control ---
    int64_t epoch = -1;        ///< which epoch this envelope carries
    uint64_t shed = 0;         ///< ingress records shed this epoch
    PressureSample sample;     ///< pressure signals for the controller
  };

  /// Folds one profiling epoch's measured wire bytes into the observation's
  /// operator profiles as wire_ratio multipliers — per-entry measured ratios
  /// where the entry shipped bytes, the drain-wide ratio elsewhere, all
  /// scaled by the epoch's checkpoint-frame overhead. No-op unless the
  /// observation carries valid profiles.
  static void FoldWireRatios(const WireByteProfile& profile,
                             uint64_t ckpt_bytes, EpochObservation* obs);

  /// The body of one source epoch, shared by the live task and crash replay
  /// so the two cannot drift: shaped ingest under `ing`'s caps, the stage
  /// pipeline, drain encode, the checkpoint frame at checkpoint
  /// barriers, the wire-ratio fold and the pressure price. Fills everything
  /// in `env` but the fault and decision fields.
  Status ProduceEpoch(size_t s, int64_t epoch, bool profile,
                      const IngressDirective& ing, EpochEnvelope* env);
  /// One source's epoch task: ProduceEpoch, the pristine retransmit copies,
  /// scripted transmission faults, and the adaptation decision — all before
  /// the hand-off, so a collected envelope means the task has nothing left
  /// to touch and the detector may skip the global barrier while a peer
  /// straggles. Everything it touches is owned by source `s` except the
  /// hand-off.
  void RunSourceTask(size_t s, int64_t epoch, bool profile,
                     IngressDirective ing);
  /// Books an envelope's shed records (sent and shed) unless an earlier run
  /// of the same epoch already did: crash replay re-runs booked epochs.
  void BookShed(size_t s, const EpochEnvelope& env);
  /// Books a collected envelope: retains pristine frames, queues the
  /// delivery, updates the failure detector, and delivers what is releasable.
  Status ProcessEnvelope(size_t s, int64_t epoch, EpochEnvelope&& env,
                         stream::RecordBatch* results);
  /// Delivers every inbox entry whose release epoch has arrived.
  Status DeliverReleasable(size_t s, int64_t epoch,
                           stream::RecordBatch* results);
  /// Drives one epoch drain through the SP frame by frame, answering NACKs
  /// (gap/corrupt dispositions) with bounded retransmission from the
  /// retained copies. Sets *exhausted when the retry budget ran out or a
  /// needed frame has no retained copy.
  Status DeliverWire(size_t s, Delivery* d, stream::RecordBatch* results,
                     bool* exhausted);
  /// Failure-detector tick for a missed deadline or late delivery.
  void NoteMiss(size_t s);
  /// Removes a source from the barrier and the watermark merge, schedules
  /// its re-admission, and triggers a re-plan on the survivors. The only
  /// way a source leaves the block.
  void ApplyQuarantine(size_t s, int64_t epoch, bool keep_inflight);
  /// Lifts quarantines whose backoff expired (the AddSource join path:
  /// revived watermark input holds the merge until the first delivery).
  Status MaybeReadmit(int64_t epoch, stream::RecordBatch* results);

  // --- epoch-aligned checkpointing ---
  /// Effective checkpoint interval/ring size after environment resolution
  /// (see FaultToleranceOptions); interval <= 0 means checkpointing is off.
  int CkptInterval() const {
    return ft_.checkpoint_interval != 0 ? ft_.checkpoint_interval
                                        : env_ckpt_interval_;
  }
  int CkptRetain() const {
    return ft_.checkpoint_retain > 0 ? ft_.checkpoint_retain
                                     : env_ckpt_retain_;
  }
  /// A crash recovers through checkpoint replay only when the source will
  /// be re-admitted: holding a never-readmitted source's watermark input
  /// would keep every window open until Finish.
  bool ZeroLossRecovery() const {
    return CkptInterval() > 0 && ft_.readmit_after_epochs >= 0;
  }
  struct CkptFrameOut {
    bool emitted = false;
    WireFrame frame;
    uint32_t fence = 0;
  };
  /// When `epoch` is a checkpoint barrier, exports source `s`'s state and
  /// builds the sealed checkpoint frame (consumes one sequence number).
  /// Runs on whichever thread owns the source at the time — the epoch task
  /// on the live path, the consumer during replay.
  Status MaybeBuildCheckpointFrame(size_t s, int64_t epoch,
                                   uint32_t* next_seq, CkptFrameOut* out);
  /// Zero-loss crash re-admission: rebuilds the executor, applies the
  /// newest complete checkpoint chain, and deterministically re-runs every
  /// epoch past the checkpoint fence — regenerated frames re-deliver the
  /// discarded in-flight records (SP sequence dedup drops the duplicates)
  /// and the quarantine window's records are produced for the first time.
  /// Falls back to the lossy resync path when no restorable chain exists.
  Status RestoreAndReplay(size_t s, int64_t epoch,
                          stream::RecordBatch* results);

  RuntimeConfig runtime_config_;
  query::CompiledQuery query_;  // kept for AddSource's executor construction
  std::vector<std::unique_ptr<SourceExecutor>> sources_;
  std::vector<std::unique_ptr<JarvisRuntime>> runtimes_;
  std::vector<PerSource> state_;
  std::unique_ptr<SpExecutor> sp_;
  Micros now_ = 0;
  Micros epoch_length_ = Seconds(1);
  Status init_status_;
  int threads_ = 1;
  EpochTap tap_;
  // The executor kernel, created on the first epoch with threads > 1 and
  // kept across epochs; the sharded hand-off carries each source's epoch
  // envelope to the consuming thread.
  std::unique_ptr<ExecPool> pool_;
  std::unique_ptr<ShardedHandoff<EpochEnvelope>> handoff_;

  // --- fault tolerance ---
  FaultToleranceOptions ft_;
  FaultStats stats_;
  std::unique_ptr<FaultInjector> injector_;
  WireTap wire_tap_;
  int64_t epoch_ = 0;  ///< index of the next epoch (drives the fault script)
  /// JARVIS_CKPT_INTERVAL / JARVIS_CKPT_RETAIN, read once at construction
  /// (worker tasks consult CkptInterval() — no getenv off the main thread).
  int env_ckpt_interval_ = 0;
  int env_ckpt_retain_ = 4;
  /// Drain wire codec (JARVIS_WIRE_COMPRESS), read once at construction;
  /// worker tasks use this cached copy.
  WireCodecOptions wire_codec_;
  /// Quarantines detected during the consume pass, applied at the epoch's
  /// deterministic end point (after the barrier): (source, keep_inflight).
  std::vector<std::pair<size_t, bool>> pending_quarantine_;

  // --- overload control & scripted traffic dynamics ---
  /// Shapes every generate call (JARVIS_TRAFFIC or SetTrafficPlan); null
  /// when no plan is installed. Shaping is a pure function of
  /// (plan seed, source, epoch index), so live and replay agree.
  std::unique_ptr<TrafficShaper> shaper_;
  /// The controller itself (EnableOverloadControl / JARVIS_OVERLOAD); all
  /// Tick calls happen on the consumer thread at the epoch's deterministic
  /// end point, in ascending source order.
  std::unique_ptr<OverloadController> overload_;
  /// SP records_consumed() at the last controller pass (inflow delta).
  uint64_t sp_consumed_last_ = 0;
  /// Runs `generate` for source `s` through the traffic shaper.
  stream::RecordBatch GenerateShaped(size_t s, Micros from, Micros to);
  /// End-of-epoch controller pass: folds fresh pressure samples, ticks every
  /// live source in ascending order, stores next-epoch directives, and
  /// triggers a re-plan when any source escalated.
  void TickOverload(int64_t epoch);
};

}  // namespace jarvis::core

#endif  // JARVIS_CORE_BUILDING_BLOCK_H_
