#ifndef JARVIS_STREAM_PIPELINE_H_
#define JARVIS_STREAM_PIPELINE_H_

#include <memory>
#include <vector>

#include "stream/operator.h"

namespace jarvis::stream {

/// A straight-line chain of operators (queries deployed on data sources are
/// operator pipelines after the placement rules are applied, Section IV-B).
/// The hot path is PushBatch(): a whole batch cascades through the chain,
/// each stage rewriting it in place. Push() remains as the record-at-a-time
/// reference (one virtual hop and two scratch vectors per record per stage
/// — the cost the batch API exists to amortize).
class Pipeline {
 public:
  Pipeline() = default;

  /// Appends an operator; the pipeline takes ownership.
  void Add(OperatorPtr op) { ops_.push_back(std::move(op)); }

  size_t size() const { return ops_.size(); }
  Operator& op(size_t i) { return *ops_[i]; }
  const Operator& op(size_t i) const { return *ops_[i]; }

  /// Pushes one record through the whole chain; final outputs are appended
  /// to `out`.
  Status Push(Record&& rec, RecordBatch* out);

  /// Pushes a record through the suffix of the chain starting at operator
  /// `start` (used by the stream processor to resume drained records at the
  /// right operator).
  Status PushFrom(size_t start, Record&& rec, RecordBatch* out);

  /// Pushes a whole batch through the chain; final outputs are appended to
  /// `out` in order. Identical outputs and operator stats to pushing each
  /// record via Push(), but every stage rewrites the one batch in place.
  Status PushBatch(RecordBatch&& batch, RecordBatch* out);

  /// Batch analogue of PushFrom.
  Status PushBatchFrom(size_t start, RecordBatch&& batch, RecordBatch* out);

  /// For each start operator (and size(), which goes straight to the
  /// output): the most fields a row holds while PushBatchFrom rewrites it in
  /// place from there. The walk covers operators that keep no state and
  /// hand their input rows on (Window, Filter, Join, Project) and ends at
  /// the first Map or G+R, neither of which does; 0 where it ends at once.
  /// A decoder that reserves this many fields per row lets the Joins append
  /// without reallocating.
  std::vector<size_t> InPlaceWidths() const;

  /// Advances the watermark through the chain; emissions from operator i are
  /// processed in place by operators i+1..end before being appended to
  /// `out`.
  Status OnWatermark(Micros wm, RecordBatch* out);

  /// Flushes all accumulated state (end of run / checkpoint): each stateful
  /// operator exports partial records which flow through the rest of the
  /// chain.
  Status Flush(RecordBatch* out);

  /// Resets the per-operator stats counters (start of a profiling epoch).
  void ResetStats();

  /// Toggles byte-level stats on every operator. Profiling epochs need the
  /// relay-byte ratios; steady-state epochs skip the per-record WireSize
  /// walks entirely.
  void SetByteAccounting(bool enabled) {
    for (auto& op : ops_) op->set_byte_accounting(enabled);
  }

  /// Sum of output schema: the final operator's schema.
  const Schema& output_schema() const { return ops_.back()->output_schema(); }

 private:
  std::vector<OperatorPtr> ops_;
};

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_PIPELINE_H_
