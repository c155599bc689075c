#include "stream/join.h"

#include "ser/buffer.h"

namespace jarvis::stream {

JoinOp::JoinOp(std::string name, const Schema& input_schema,
               std::shared_ptr<const StaticTable> table,
               size_t stream_key_field)
    : Operator(std::move(name), input_schema.Append(table->value_field())),
      table_(std::move(table)),
      stream_key_field_(stream_key_field) {}

Status JoinOp::DoProcess(Record&& rec, RecordBatch* out) {
  if (rec.kind == RecordKind::kPartial) {
    out->push_back(std::move(rec));
    return Status::OK();
  }
  if (stream_key_field_ >= rec.fields.size()) {
    return Status::OutOfRange("join key index out of range");
  }
  const Value* v = table_->Find(rec.i64(stream_key_field_));
  if (v == nullptr) {
    misses_ += 1;
    return Status::OK();
  }
  rec.fields.push_back(*v);
  out->push_back(std::move(rec));
  return Status::OK();
}

Status JoinOp::DoProcessBatch(RecordBatch* batch) {
  // Stable compaction over table misses; hits grow by the table value.
  size_t w = 0;
  for (size_t r = 0; r < batch->size(); ++r) {
    Record& rec = (*batch)[r];
    if (rec.kind != RecordKind::kPartial) {
      if (stream_key_field_ >= rec.fields.size()) {
        return Status::OutOfRange("join key index out of range");
      }
      const Value* v = table_->Find(rec.i64(stream_key_field_));
      if (v == nullptr) {
        misses_ += 1;
        continue;
      }
      rec.fields.push_back(*v);
    }
    if (w != r) (*batch)[w] = std::move(rec);
    ++w;
  }
  batch->resize(w);
  return Status::OK();
}

Status JoinOp::ExportStateDelta(ser::BufferWriter* w, StateExport mode) {
  w->PutVarU64(0);  // no tombstones: the counter is replaced, never dropped
  const bool changed =
      mode == StateExport::kFull || misses_ != exported_misses_;
  w->PutVarU64(changed ? 1 : 0);
  if (changed) {
    ser::BufferWriter section;
    section.PutVarU64(misses_);
    WriteStateSection(w, 0, section);  // section key 0: the miss counter
  }
  exported_misses_ = misses_;
  return Status::OK();
}

Status JoinOp::RestoreState(ser::BufferReader* r) {
  return ReadStateDelta(
      r, nullptr, [this](int64_t key, ser::BufferReader* section) {
        if (key != 0) {
          return Status::SerializationError("unknown join state section");
        }
        JARVIS_RETURN_IF_ERROR(section->GetVarU64(&misses_));
        exported_misses_ = misses_;
        return Status::OK();
      });
}

}  // namespace jarvis::stream
