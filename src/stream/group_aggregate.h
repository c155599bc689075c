#ifndef JARVIS_STREAM_GROUP_AGGREGATE_H_
#define JARVIS_STREAM_GROUP_AGGREGATE_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ser/buffer.h"
#include "stream/columnar.h"
#include "stream/operator.h"

namespace jarvis::stream {

/// Incrementally updatable aggregations (rule R-1: only such aggregations may
/// run on data sources; exact quantiles, for example, may not).
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

std::string_view AggKindToString(AggKind kind);

/// One aggregation column: apply `kind` to input field `field`; emit it under
/// `out_name`. kCount ignores `field`.
struct AggSpec {
  AggKind kind;
  size_t field = 0;
  std::string out_name;
};

/// The fused GroupApply+Aggregate (G+R) operator: groups records by key
/// fields within each tumbling window and maintains mergeable accumulators.
///
/// Two output modes:
///  - finalize mode (stream processor): closed windows emit one kData row per
///    group with the finalized aggregate values;
///  - partial mode (data source): closed windows emit kPartial rows carrying
///    raw accumulators (count/sum/min/max per agg) that the stream-processor
///    replica merges before finalizing. This is what makes data-level
///    partitioning lossless.
class GroupAggregateOp : public Operator {
 public:
  GroupAggregateOp(std::string name, const Schema& input_schema,
                   std::vector<size_t> key_fields, std::vector<AggSpec> aggs,
                   Micros window_width, bool emit_partials);

  OpKind kind() const override { return OpKind::kGroupAggregate; }
  bool IsStateful() const override { return true; }
  bool HasInPlaceBatch() const override { return true; }

  Status OnWatermark(Micros wm, RecordBatch* out) override;
  Status ExportPartialState(RecordBatch* out) override;

  /// Checkpoint state API. Tombstones name windows flushed since the
  /// previous export; sections are keyed by window_start and carry the
  /// groups updated since then (a keyframe carries every group). Each group
  /// ships its whole accumulator, and restore overwrites the group with it:
  /// nothing is added in, so restored sums are bit-identical. A section is
  /// one columnar frame (SerializeColumnar) laid out like a kPartial row:
  /// one column per key field, then count/sum/min/max per aggregate.
  /// Restore rejects a section whose column types are not this operator's.
  /// Delta tracking starts at the first export or restore — before that, a
  /// delta degenerates to a full export, and non-checkpointed runs pay
  /// nothing.
  Status ExportStateDelta(ser::BufferWriter* w, StateExport mode) override;
  Status RestoreState(ser::BufferReader* r) override;

  /// Output schema for the finalize mode (keys then aggregate columns).
  static Schema MakeOutputSchema(const Schema& input,
                                 const std::vector<size_t>& keys,
                                 const std::vector<AggSpec>& aggs);

  /// Number of open (not yet flushed) windows; exposed for tests.
  size_t open_windows() const { return windows_.size(); }

 protected:
  Status DoProcess(Record&& rec, RecordBatch* out) override;
  Status DoProcessBatch(RecordBatch&& batch, RecordBatch* out) override;
  Status DoProcessBatchInPlace(RecordBatch* batch) override;

 private:
  /// Mergeable accumulator: enough to finalize any AggKind.
  struct Acc {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void AddValue(double v);
    void Merge(const Acc& other);
    Value Finalize(AggKind kind) const;
    /// kPartial row layout: count (i64), sum, min, max (f64).
    void AppendPartial(std::vector<Value>* fields) const;
    /// Reads the kPartial layout at fields[at, at + 4); the types must
    /// already be checked.
    static Acc FromPartial(const std::vector<Value>& fields, size_t at);
  };

  struct Group {
    std::vector<Value> keys;
    std::vector<Acc> accs;  // one per AggSpec
    bool dirty = false;     // updated since the previous checkpoint export
  };

  // window_start -> (encoded key -> group). std::map keeps window flush order
  // deterministic; groups are emitted sorted by encoded key. The transparent
  // comparator lets the hot path probe with a string_view over the reused
  // key buffer, allocating only when a new group is created.
  using GroupMap = std::map<std::string, Group, std::less<>>;

  /// Per-record cursor the batch path threads through consecutive records:
  /// the window map is looked up once per run of same-window records, not
  /// once per record.
  struct WindowCursor {
    Micros window_start = -1;
    GroupMap* groups = nullptr;
  };

  Status UpdateFromData(const Record& rec, WindowCursor* cursor);
  Status MergeFromPartial(const Record& rec, WindowCursor* cursor);
  void EmitWindow(Micros window_start, GroupMap& groups, RecordBatch* out);

  /// Appends one window's section ([zigzag window_start][varint len]
  /// [columnar frame]) to `w`: every group, or only the dirty ones. Clears
  /// the dirty flag of each group it writes.
  void WriteWindowSection(ser::BufferWriter* w, Micros window_start,
                          GroupMap& groups, bool dirty_only);
  /// Overwrites (or creates) the groups of `window_start` with the rows of
  /// the decoded section in section_ (consuming them).
  Status RestoreWindowSection(Micros window_start);
  /// Records that `window_start`'s contents changed (delta bookkeeping).
  void MarkDirty(Micros window_start) {
    if (delta_tracking_) dirty_windows_.insert(window_start);
  }

  /// Appends one key component's binary encoding to key_buf_.
  void AppendKeyValue(const Value& v);
  /// View of key_buf_'s contents as the map probe key.
  std::string_view EncodedKey() const;
  /// Finds or creates the group for the key currently in key_buf_;
  /// `make_keys` materializes the key column values only on first touch.
  template <typename MakeKeys>
  Group& FindOrCreateGroup(GroupMap& groups, MakeKeys&& make_keys);

  std::vector<size_t> key_fields_;
  std::vector<AggSpec> aggs_;
  Micros window_width_;
  bool emit_partials_;
  std::map<Micros, GroupMap> windows_;
  ser::BufferWriter key_buf_;  // reused across records; never shrinks

  // Checkpoint delta bookkeeping, active only once ExportStateDelta or
  // RestoreState has been called (no cost and no unbounded growth in
  // non-checkpointed runs).
  bool delta_tracking_ = false;
  std::set<Micros> dirty_windows_;    // changed since the previous export
  std::set<Micros> flushed_windows_;  // discarded since the previous export
  // Unnamed column types of a checkpoint section: the key fields' input
  // types, then i64 count and f64 sum/min/max per aggregate.
  Schema state_schema_;
  ColumnarBatch section_;          // reused section rows (export and restore)
  ser::BufferWriter section_buf_;  // reused encoded section
};

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_GROUP_AGGREGATE_H_
