#ifndef JARVIS_CORE_SOURCE_EXECUTOR_H_
#define JARVIS_CORE_SOURCE_EXECUTOR_H_

#include <memory>
#include <vector>

#include "core/control_proxy.h"
#include "core/cost_model.h"
#include "core/types.h"
#include "query/compile.h"
#include "stream/pipeline.h"

namespace jarvis::core {

/// Executor options. The CPU budget is the fraction of one core the
/// monitoring query may use (the compute budget of Section II); epochs are
/// the refinement granularity (one second in the paper).
struct SourceExecutorOptions {
  double cpu_budget_fraction = 1.0;
  double epoch_seconds = 1.0;
  /// Maximum relative error injected into a profiled operator cost when the
  /// profiling epoch could not process all available records (estimates
  /// degrade as coverage drops; Section VI-C attributes the extra Jarvis
  /// convergence epochs and the LP-only oscillation to exactly this).
  double profile_error_magnitude = 0.0;
};

/// Everything a data source ships to its parent stream processor for one
/// epoch, plus the control-plane observation. The drain is a sequence of
/// entry-tagged row runs (see DrainChunk). `drained_bytes` is the modeled
/// record-format wire volume — the number the LP's bandwidth term
/// consumes.
struct SourceEpochOutput {
  std::vector<DrainChunk> to_sp;
  uint64_t drained_bytes = 0;
  Micros watermark = -1;
  EpochObservation observation;
  /// Ingress admission accounting (overload control; see IngressLimits).
  /// offered = admitted + deferred + ingress_shed, always.
  uint64_t ingress_offered = 0;
  uint64_t ingress_admitted = 0;
  uint64_t ingress_deferred = 0;
  uint64_t ingress_shed = 0;

  /// Total records across all drain chunks.
  size_t DrainedRecords() const;

  /// Appends a row run, merging into the tail chunk when it is a row chunk
  /// with the same entry operator (keeps runs maximal for the SP's
  /// batch-at-a-time resume).
  void AppendDrainRows(size_t entry_op, stream::RecordBatch&& rows);

  /// Single-record form of AppendDrainRows (same merge rule, no scratch).
  void AppendDrainRow(size_t entry_op, stream::Record&& rec);

  /// Materializes the chunked drain into the flat (entry, record) sequence
  /// in drain order and leaves the chunks empty. Tests, diagnostics, and
  /// row-format relays use this; the data plane itself never does.
  std::vector<DrainRecord> FlattenDrain();
};

/// Per-epoch ingress admission limits (overload control). RunEpoch admits
/// the oldest `admit_cap` buffered records, sheds the next-oldest overflow
/// beyond `defer_cap` (so the watermark can keep advancing under a bounded
/// backlog), and defers the newest remainder to later epochs — clamping the
/// reported watermark below the oldest deferred event time so deferral is
/// never a late-data lie. Sticky until changed; the defaults admit
/// everything, which is the pre-overload behavior bit for bit.
struct IngressLimits {
  uint64_t admit_cap = UINT64_MAX;
  uint64_t defer_cap = UINT64_MAX;
};

/// The data-source side of the deployed query (Figure 5): the
/// source-placeable operator prefix, each operator fronted by a control
/// proxy, executed under a CPU budget with cost accounting. Records that a
/// proxy drains — and final outputs — are tagged with the stream-processor
/// operator that must continue their processing.
class SourceExecutor {
 public:
  SourceExecutor(const query::CompiledQuery& query,
                 std::shared_ptr<const CostModel> cost_model,
                 SourceExecutorOptions options);

  SourceExecutor(const SourceExecutor&) = delete;
  SourceExecutor& operator=(const SourceExecutor&) = delete;

  /// True when construction succeeded; check before first use.
  Status Init() const { return init_status_; }

  /// Buffers input records for the next epoch.
  void Ingest(stream::RecordBatch batch);

  /// Runs one epoch: routes buffered input through the proxies, processes
  /// queued records within the CPU budget (profiling mode executes operators
  /// one at a time on equal budget slices), advances the watermark, and
  /// reports drained records plus the epoch observation.
  Result<SourceEpochOutput> RunEpoch(Micros watermark, bool profile_mode);

  /// Applies a new data-level partitioning plan (one factor per operator).
  void SetLoadFactors(const std::vector<double>& lfs);

  /// Requests that pending proxy queues be drained to the stream processor
  /// at the start of the next epoch (plan reconfiguration flush).
  void RequestFlush() { flush_pending_ = true; }

  /// Serializes the executor's recoverable state as an epoch-aligned
  /// checkpoint body (core/checkpoint.h): the routing entry conditions
  /// (pending-flush flag, per-proxy load factors), then per stage the
  /// pending queue and the operator's state delta (ExportStateDelta), then
  /// the deferred epoch input. Non-destructive: the
  /// epoch continues unaffected. kFull keyframes re-encode all operator
  /// state; queues are always snapshotted whole (they replace on restore).
  Status ExportCheckpointBody(ser::BufferWriter* w, stream::StateExport mode);

  /// Applies one checkpoint body on top of current state. Restoring a
  /// checkpoint chain calls this once per retained payload in epoch order
  /// on a freshly built executor: entry conditions and queues replace
  /// (last write wins), operator deltas apply incrementally.
  Status RestoreCheckpointBody(ser::BufferReader* r);

  /// Changes the compute budget (models foreground-service demand shifts).
  void SetCpuBudget(double fraction) {
    options_.cpu_budget_fraction = fraction;
  }

  /// Installs the overload controller's admission limits for subsequent
  /// epochs (sticky). See IngressLimits.
  void SetIngressLimits(IngressLimits limits) { ingress_ = limits; }

  /// Records currently deferred in the epoch input buffer.
  uint64_t buffered_input() const { return input_buffer_.size(); }

  size_t num_ops() const { return proxies_.size(); }
  const ControlProxy& proxy(size_t i) const { return proxies_[i]; }
  double cpu_budget_fraction() const { return options_.cpu_budget_fraction; }

 private:
  /// Routes a batch emitted by operator `emitter` onwards: through proxy
  /// `emitter+1` when one exists, otherwise to the stream processor.
  void RouteOutputs(size_t emitter, stream::RecordBatch&& batch,
                    SourceEpochOutput* out);
  void Drain(size_t entry_op, stream::Record&& rec, SourceEpochOutput* out);
  /// Drains a whole batch to the same entry operator (one reserve, one
  /// accounting pass).
  void DrainBatch(size_t entry_op, stream::RecordBatch&& batch,
                  SourceEpochOutput* out);
  /// Processes proxy `i`'s queue within the remaining budget, popping the
  /// affordable run of records as one batch through the operator.
  Status ProcessStage(size_t i, double* budget_left, double* spent,
                      SourceEpochOutput* out);
  /// Ships every record still queued at stage `i` to the stream processor,
  /// tagged to resume at operator `i`.
  void DrainPendingStage(size_t i, SourceEpochOutput* out);
  /// Oldest event time across the deferred epoch input, -1 when empty
  /// (the watermark clamp under ingress deferral).
  Micros OldestBufferedEventTime() const;

  std::unique_ptr<stream::Pipeline> pipeline_;
  std::vector<ControlProxy> proxies_;
  std::shared_ptr<const CostModel> cost_model_;
  SourceExecutorOptions options_;
  size_t total_ops_ = 0;  // full chain length (stream-processor side)
  // Epoch input buffer (records deferred by ingress throttling stay here).
  stream::RecordBatch input_buffer_;
  bool flush_pending_ = false;
  IngressLimits ingress_;
  Status init_status_;
  // Ingress-admission scratch (throttled epochs only): the admitted prefix
  // peeled off the epoch buffer.
  stream::RecordBatch row_admit_;
  // Hot-loop scratch, reused every epoch: stage input (rewritten in place by
  // its operator), window-close emissions, and proxy-drained records.
  stream::RecordBatch stage_input_;
  stream::RecordBatch stage_emitted_;
  stream::RecordBatch drained_scratch_;
};

}  // namespace jarvis::core

#endif  // JARVIS_CORE_SOURCE_EXECUTOR_H_
