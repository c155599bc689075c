#ifndef JARVIS_STREAM_GROUP_AGGREGATE_H_
#define JARVIS_STREAM_GROUP_AGGREGATE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ser/buffer.h"
#include "stream/operator.h"
#include "stream/record.h"

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
/// Either way a closed window emits its groups sorted by encoded key (a type
/// tag, then the little-endian value or the length-prefixed string bytes,
/// compared as unsigned bytes), never in hash or insertion order.
class GroupAggregateOp : public Operator {
 public:
  GroupAggregateOp(std::string name, const Schema& input_schema,
                   std::vector<size_t> key_fields, std::vector<AggSpec> aggs,
                   Micros window_width, bool emit_partials);

  OpKind kind() const override { return OpKind::kGroupAggregate; }
  bool IsStateful() const override { return true; }

  Status OnWatermark(Micros wm, RecordBatch* out) override;
  Status ExportPartialState(RecordBatch* out) override;

  /// Checkpoint state API. Tombstones name windows flushed since the
  /// previous export; sections are keyed by window_start and carry the
  /// groups updated since then (a keyframe carries every group). Each group
  /// ships its whole accumulator, and restore overwrites the group with it:
  /// nothing is added in, so restored sums are bit-identical. A section is
  /// one row batch (SerializeBatch with the state schema) of the groups'
  /// kPartial rows: the key fields, then count/sum/min/max per aggregate.
  /// Restore rejects a section whose header types are not this operator's;
  /// a group whose key is off its declared type rides the batch's tagged
  /// lane and is checked row by row. Sections list their groups in
  /// emission order. Delta tracking starts at the first export or restore
  /// — before that, a delta degenerates to a full export, and
  /// non-checkpointed runs pay only the per-group dirty flag.
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
  /// Consumes the whole batch into accumulator state and clears it: G+R
  /// emits on window close, not per record.
  Status DoProcessBatch(RecordBatch* batch) override;

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

  /// One window's groups in flat storage. Group ids are dense, in creation
  /// order. Each group's encoded key (AppendKeyValue's bytes) sits in one
  /// arena, and its accumulators in one vector, aggs_.size() per group, so
  /// creating a group allocates nothing beyond amortized growth. `slots` is
  /// an open-addressing table (linear probing, at most half full) from key
  /// hash to group id. Creation order is never observable: emission and
  /// checkpoint sections sort ids by encoded key (SortByKey).
  struct GroupTable {
    static constexpr uint32_t kNoGroup = UINT32_MAX;
    struct Slot {
      uint32_t group = kNoGroup;
      uint32_t hash = 0;
    };

    std::vector<Slot> slots;
    std::vector<uint8_t> keys;        // encoded keys, back to back
    std::vector<size_t> key_begin;    // per group: offset into keys
    std::vector<Acc> accs;            // aggs_.size() per group
    // Per group: updated since the previous checkpoint export. Restore
    // clears the flag, so a group it overwrote can be listed twice in
    // dirty_ids; writers skip ids whose flag they already cleared.
    std::vector<uint8_t> dirty;
    std::vector<uint32_t> dirty_ids;

    size_t size() const { return key_begin.size(); }
    std::string_view key(uint32_t g) const;
    /// Id of the group whose encoded key is `key`, created (with `width`
    /// zeroed accumulators) if absent.
    uint32_t FindOrCreate(std::string_view key, size_t width);
    /// Marks group `g` updated since the previous checkpoint export.
    void Touch(uint32_t g) {
      if (dirty[g]) return;
      dirty[g] = 1;
      dirty_ids.push_back(g);
    }
  };

  /// Per-record cursor the batch path threads through consecutive records:
  /// the window map is looked up once per run of same-window records, not
  /// once per record.
  struct WindowCursor {
    Micros window_start = -1;
    GroupTable* groups = nullptr;
  };

  Status UpdateFromData(const Record& rec, WindowCursor* cursor);
  Status MergeFromPartial(const Record& rec, WindowCursor* cursor);
  /// Points `cursor` at `window_start`'s table, creating it if absent.
  void SeekWindow(Micros window_start, WindowCursor* cursor);
  /// Overwrites `r` with group `g`'s row, stamped with the window's close
  /// time: its key fields, then per aggregate either count/sum/min/max (a
  /// kPartial row, what partial mode emits and checkpoint sections hold)
  /// or the finalized value (a kData row).
  Status FillGroupRow(Micros window_start, const GroupTable& groups,
                      uint32_t g, bool partial, Record* r) const;
  Status EmitWindow(Micros window_start, const GroupTable& groups,
                    RecordBatch* out);

  /// Appends one window's section (key window_start, body a row batch) to
  /// `w`: every group, or only the dirty ones. Clears every dirty flag and
  /// the dirty list.
  Status WriteWindowSection(ser::BufferWriter* w, Micros window_start,
                            GroupTable& groups, bool dirty_only);
  /// Overwrites (or creates) the groups of `window_start` with the row
  /// batch in `section`.
  Status RestoreWindowSection(Micros window_start, ser::BufferReader* section);
  /// Records that `window_start`'s contents changed (delta bookkeeping).
  void MarkDirty(Micros window_start) {
    if (delta_tracking_) dirty_windows_.insert(window_start);
  }

  /// Appends one key component's binary encoding to key_buf_.
  void AppendKeyValue(const Value& v);
  /// View of key_buf_'s contents as the table probe key.
  std::string_view EncodedKey() const;
  /// Appends the key values encoded in `key` to `out`.
  static Status DecodeKey(std::string_view key, std::vector<Value>* out);
  /// Sorts `ids` by their groups' encoded keys: std::string order, so a
  /// shorter key sorts before any key it prefixes.
  void SortByKey(const GroupTable& groups, std::vector<uint32_t>* ids);

  std::vector<size_t> key_fields_;
  std::vector<AggSpec> aggs_;
  Micros window_width_;
  bool emit_partials_;
  // window_start -> groups; std::map keeps window flush order deterministic
  // and its nodes stable under the cursor.
  std::map<Micros, GroupTable> windows_;
  ser::BufferWriter key_buf_;  // reused across records; never shrinks
  std::vector<uint32_t> ids_;  // reused sort order (emission and export)
  struct SortKey {
    uint64_t hi;  // key bytes [0, 8), big-endian
    uint64_t lo;  // key bytes [8, 16)
    uint32_t group;
  };
  std::vector<SortKey> sort_keys_;  // reused by SortByKey

  // Checkpoint delta bookkeeping, active only once ExportStateDelta or
  // RestoreState has been called (no cost and no unbounded growth in
  // non-checkpointed runs).
  bool delta_tracking_ = false;
  std::set<Micros> dirty_windows_;    // changed since the previous export
  std::set<Micros> flushed_windows_;  // discarded since the previous export
  // Unnamed field types of a checkpoint section: the key fields' input
  // types, then i64 count and f64 sum/min/max per aggregate.
  Schema state_schema_;
  // Reused section rows. Export fills a prefix and never shrinks it, so
  // each row keeps its field storage from one export to the next.
  RecordBatch section_rows_;
  std::vector<ValueType> section_tags_;  // a restored section's header types
  ser::BufferWriter section_buf_;        // reused encoded section
};

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_GROUP_AGGREGATE_H_
