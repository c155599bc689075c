#ifndef JARVIS_STREAM_OPERATOR_H_
#define JARVIS_STREAM_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "stream/record.h"

namespace jarvis::ser {
class BufferWriter;
class BufferReader;
}  // namespace jarvis::ser

namespace jarvis::stream {

/// How much state ExportStateDelta serializes: the delta since the previous
/// export, or a full keyframe re-encoding everything (what the checkpoint
/// ring compacts onto).
enum class StateExport : uint8_t { kDelta, kFull };

/// Streaming primitive kinds (Section II-A). The kind drives both the query
/// optimizer's placement rules and the calibrated cost model.
enum class OpKind {
  kWindow,
  kFilter,
  kMap,
  kJoin,
  kGroupAggregate,
  kProject,
};

std::string_view OpKindToString(OpKind kind);

/// Per-operator counters over a measurement interval (an epoch). The Jarvis
/// profiler derives relay ratios (r_j) and per-record costs (c_j) from these.
struct OperatorStats {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;

  void Reset() { *this = OperatorStats{}; }

  /// Ratio of output to input data size (r_j in Table II); 1.0 when no input
  /// has been observed yet.
  double RelayRatioBytes() const {
    return bytes_in == 0 ? 1.0
                         : static_cast<double>(bytes_out) /
                               static_cast<double>(bytes_in);
  }
  double RelayRatioRecords() const {
    return records_in == 0 ? 1.0
                           : static_cast<double>(records_out) /
                                 static_cast<double>(records_in);
  }
};

/// Base class for all stream operators. The hot path is batch-at-a-time
/// (ProcessBatch); control proxies apportion whole record runs between the
/// local copy and the replicated copy on the stream processor, so batching
/// does not change what the control plane can express. Process remains as
/// the record-at-a-time reference the batch path is checked against.
class Operator {
 public:
  Operator(std::string name, Schema output_schema)
      : name_(std::move(name)), output_schema_(std::move(output_schema)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  virtual OpKind kind() const = 0;

  /// Processes one record, appending any outputs to `out`. Updates stats.
  Status Process(Record&& rec, RecordBatch* out);

  /// Rewrites a whole batch in place into its outputs, in order. Produces
  /// exactly the outputs and stats of calling Process on each record in
  /// order, but with one stats pass and no per-record virtual dispatch.
  Status ProcessBatch(RecordBatch* batch);

  /// Toggles byte-level stats accounting (records are always counted).
  /// Walking every record's WireSize costs more than most operators
  /// themselves; the source executor enables it only for profiling epochs,
  /// where relay-byte ratios actually feed the LP. Defaults to on.
  void set_byte_accounting(bool enabled) { count_bytes_ = enabled; }

  /// Advances event time. Stateful operators flush windows closed by `wm`.
  virtual Status OnWatermark(Micros wm, RecordBatch* out) {
    (void)wm;
    (void)out;
    return Status::OK();
  }

  /// Drains all accumulated state as kPartial records (used for
  /// checkpointing and end-of-run flush); the stream-processor replica of
  /// this operator can merge them losslessly.
  virtual Status ExportPartialState(RecordBatch* out) {
    (void)out;
    return Status::OK();
  }

  /// Serializes operator state into `w` using the checkpoint state-delta
  /// grammar (self-delimiting):
  ///   [varint n_tombstones] n*[zigzag key]
  ///   [varint n_sections]   n*([zigzag key][varint len][len bytes])
  /// kDelta covers state created or changed since the previous export, with
  /// tombstones for state discarded since; kFull re-encodes everything and
  /// resets the delta tracking. Must not mutate processing-visible state.
  /// The base implementation writes an empty delta for stateless operators
  /// and *errors* for stateful ones — a stateful operator without an
  /// override is a bug, not a silently empty checkpoint.
  virtual Status ExportStateDelta(ser::BufferWriter* w, StateExport mode);

  /// Applies one exported delta on top of current state: tombstones erase by
  /// key, sections overwrite by key. Restoring a checkpoint chain applies
  /// the full keyframe and then each delta in order onto a freshly built
  /// operator. The base implementation requires an empty delta.
  virtual Status RestoreState(ser::BufferReader* r);

  /// True when this operator keeps cross-record state (grouping, joins with
  /// accumulated build sides).
  virtual bool IsStateful() const { return false; }

  const std::string& name() const { return name_; }
  const Schema& output_schema() const { return output_schema_; }
  const OperatorStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 protected:
  using TombstoneFn = std::function<Status(int64_t key)>;
  using SectionFn = std::function<Status(int64_t key, ser::BufferReader* body)>;

  virtual Status DoProcess(Record&& rec, RecordBatch* out) = 0;

  /// Batch hook: rewrites `batch` in place into this operator's outputs.
  virtual Status DoProcessBatch(RecordBatch* batch) = 0;

  /// Reads one state delta (the grammar above) from `r`, handing each
  /// tombstone key to `tombstone` and each section to `section` with a
  /// reader over exactly its bytes, which it must consume. A null callback
  /// rejects any tombstone or section.
  Status ReadStateDelta(ser::BufferReader* r, const TombstoneFn& tombstone,
                        const SectionFn& section) const;

  /// Appends one section of the grammar above: `key`, then `body`'s bytes.
  static void WriteStateSection(ser::BufferWriter* w, int64_t key,
                                const ser::BufferWriter& body);

  /// Lets subclasses account records emitted from OnWatermark /
  /// ExportPartialState in the output-side stats.
  void CountOutputs(const RecordBatch& out, size_t first);

  /// Sum of WireSize over a whole batch (input-side stats pass).
  static uint64_t BatchBytes(const RecordBatch& batch);

  std::string name_;
  Schema output_schema_;
  OperatorStats stats_;
  bool count_bytes_ = true;
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_OPERATOR_H_
