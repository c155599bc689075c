#ifndef JARVIS_STREAM_JOIN_H_
#define JARVIS_STREAM_JOIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/operator.h"

namespace jarvis::stream {

/// A static lookup table for stream-table joins (e.g., server IP -> ToR
/// switch id in the T2TProbe query). Shared across operator replicas on the
/// data source and the stream processor.
class StaticTable {
 public:
  StaticTable(std::string key_name, Schema::Field value_field)
      : key_name_(std::move(key_name)), value_field_(std::move(value_field)) {}

  void Insert(int64_t key, Value value) { map_[key] = std::move(value); }

  /// Lookup; returns nullptr on miss.
  const Value* Find(int64_t key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  size_t size() const { return map_.size(); }
  const std::string& key_name() const { return key_name_; }
  const Schema::Field& value_field() const { return value_field_; }

 private:
  std::string key_name_;
  Schema::Field value_field_;
  std::unordered_map<int64_t, Value> map_;
};

/// Joins the input stream with a static table on an int64 stream field and
/// appends the table value as a new trailing field. Records whose key misses
/// the table are dropped (and counted). Per rule R-3, *stream-stream* joins
/// are never placed on data sources; stream-*table* joins like this one are
/// replicable because the build side is immutable.
class JoinOp : public Operator {
 public:
  JoinOp(std::string name, const Schema& input_schema,
         std::shared_ptr<const StaticTable> table, size_t stream_key_field);

  OpKind kind() const override { return OpKind::kJoin; }

  uint64_t misses() const { return misses_; }
  const StaticTable& table() const { return *table_; }

  /// The build side is immutable (why this op is replicable, rule R-3), so
  /// the only recoverable state is the miss counter: exported as a single
  /// replacement section (key 0) when it changed since the last export.
  Status ExportStateDelta(ser::BufferWriter* w, StateExport mode) override;
  Status RestoreState(ser::BufferReader* r) override;

 protected:
  Status DoProcess(Record&& rec, RecordBatch* out) override;
  Status DoProcessBatch(RecordBatch* batch) override;

 private:
  std::shared_ptr<const StaticTable> table_;
  size_t stream_key_field_;
  uint64_t misses_ = 0;
  uint64_t exported_misses_ = 0;  // value at the previous state export
};

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_JOIN_H_
