#ifndef JARVIS_STREAM_OPS_H_
#define JARVIS_STREAM_OPS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "stream/operator.h"
#include "stream/predicate.h"

namespace jarvis::stream {

/// Tumbling-window assigner: stamps each record with
/// window_start = event_time - event_time % width and forwards it.
/// Downstream stateful operators use the stamp to scope their state.
class WindowOp : public Operator {
 public:
  WindowOp(std::string name, Schema schema, Micros width);

  OpKind kind() const override { return OpKind::kWindow; }
  Micros width() const { return width_; }

  /// The stamper holds no record state; a full export carries the window
  /// width as a config guard so restore onto a differently-shaped plan is
  /// an error rather than silent window drift.
  Status ExportStateDelta(ser::BufferWriter* w, StateExport mode) override;
  Status RestoreState(ser::BufferReader* r) override;

 protected:
  Status DoProcess(Record&& rec, RecordBatch* out) override;
  Status DoProcessBatch(RecordBatch* batch) override;

 private:
  Micros width_;
};

/// Stateless predicate filter; drops records for which the predicate is
/// false. Partial-state records pass through untouched (they carry already
/// aggregated data owned by a downstream operator).
///
/// Two predicate forms: the opaque `std::function` form (fully general —
/// arbitrary C++ over the record), and the typed `TypedPredicate` form
/// compiled at plan time, whose structure the optimizer can inspect and
/// fuse.
class FilterOp : public Operator {
 public:
  using Predicate = std::function<bool(const Record&)>;

  FilterOp(std::string name, Schema schema, Predicate pred);
  FilterOp(std::string name, Schema schema, TypedPredicate pred);

  OpKind kind() const override { return OpKind::kFilter; }

  /// The typed form when this filter was built from one (else nullptr).
  const TypedPredicate* typed_predicate() const {
    return has_typed_ ? &typed_ : nullptr;
  }

 protected:
  Status DoProcess(Record&& rec, RecordBatch* out) override;
  Status DoProcessBatch(RecordBatch* batch) override;

 private:
  Predicate pred_;
  TypedPredicate typed_;
  bool has_typed_ = false;
};

/// Stateless 1->N transform (parsing, splitting, bucketizing...). The
/// function may emit zero or more records into `out`.
class MapOp : public Operator {
 public:
  using MapFn = std::function<Status(Record&&, RecordBatch*)>;

  MapOp(std::string name, Schema output_schema, MapFn fn);

  OpKind kind() const override { return OpKind::kMap; }

 protected:
  Status DoProcess(Record&& rec, RecordBatch* out) override;
  /// Builds the outputs in a batch local to the call, then swaps it in: a
  /// member output batch would hold its peak capacity between calls.
  Status DoProcessBatch(RecordBatch* batch) override;

 private:
  /// Non-virtual per-record body shared by both process paths.
  Status MapOne(Record&& rec, RecordBatch* out);

  MapFn fn_;
};

/// Keeps only the given field indices (in the given order).
class ProjectOp : public Operator {
 public:
  ProjectOp(std::string name, const Schema& input_schema,
            std::vector<size_t> keep);

  OpKind kind() const override { return OpKind::kProject; }

 protected:
  Status DoProcess(Record&& rec, RecordBatch* out) override;
  Status DoProcessBatch(RecordBatch* batch) override;

 private:
  std::vector<size_t> keep_;
  std::vector<Value> field_scratch_;  // in-place projection swap buffer
};

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_OPS_H_
