#include "stream/ops.h"

#include "ser/buffer.h"

namespace jarvis::stream {

WindowOp::WindowOp(std::string name, Schema schema, Micros width)
    : Operator(std::move(name), std::move(schema)), width_(width) {}

Status WindowOp::DoProcess(Record&& rec, RecordBatch* out) {
  if (width_ <= 0) {
    return Status::InvalidArgument("window width must be positive");
  }
  if (rec.kind == RecordKind::kData) {
    rec.window_start = rec.event_time - (rec.event_time % width_);
  }
  out->push_back(std::move(rec));
  return Status::OK();
}

Status WindowOp::DoProcessBatch(RecordBatch* batch) {
  if (width_ <= 0) {
    return Status::InvalidArgument("window width must be positive");
  }
  for (Record& rec : *batch) {
    if (rec.kind == RecordKind::kData) {
      rec.window_start = rec.event_time - (rec.event_time % width_);
    }
  }
  return Status::OK();
}

Status WindowOp::ExportStateDelta(ser::BufferWriter* w, StateExport mode) {
  w->PutVarU64(0);  // no tombstones
  // Width never changes, so deltas are empty; a keyframe carries it as
  // section 0, the config guard.
  w->PutVarU64(mode == StateExport::kFull ? 1 : 0);
  if (mode == StateExport::kFull) {
    ser::BufferWriter section;
    section.PutVarU64(static_cast<uint64_t>(width_));
    WriteStateSection(w, 0, section);
  }
  return Status::OK();
}

Status WindowOp::RestoreState(ser::BufferReader* r) {
  return ReadStateDelta(
      r, nullptr, [this](int64_t key, ser::BufferReader* section) {
        if (key != 0) {
          return Status::SerializationError("unknown window state section");
        }
        uint64_t width = 0;
        JARVIS_RETURN_IF_ERROR(section->GetVarU64(&width));
        if (width != static_cast<uint64_t>(width_)) {
          return Status::SerializationError(
              "checkpoint window width does not match the deployed plan");
        }
        return Status::OK();
      });
}

FilterOp::FilterOp(std::string name, Schema schema, Predicate pred)
    : Operator(std::move(name), std::move(schema)), pred_(std::move(pred)) {}

FilterOp::FilterOp(std::string name, Schema schema, TypedPredicate pred)
    : Operator(std::move(name), std::move(schema)),
      typed_(std::move(pred)),
      has_typed_(true) {
  // Every process path evaluates the compiled tree through this closure,
  // which owns its copy of the tree rather than referencing this operator's
  // member.
  pred_ = [p = typed_](const Record& r) { return EvalPredicate(p, r); };
}

Status FilterOp::DoProcess(Record&& rec, RecordBatch* out) {
  if (rec.kind == RecordKind::kPartial || pred_(rec)) {
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

Status FilterOp::DoProcessBatch(RecordBatch* batch) {
  // Stable in-place compaction: survivors slide down over dropped slots.
  size_t w = 0;
  for (size_t r = 0; r < batch->size(); ++r) {
    Record& rec = (*batch)[r];
    if (rec.kind == RecordKind::kPartial || pred_(rec)) {
      if (w != r) (*batch)[w] = std::move(rec);
      ++w;
    }
  }
  batch->resize(w);
  return Status::OK();
}

MapOp::MapOp(std::string name, Schema output_schema, MapFn fn)
    : Operator(std::move(name), std::move(output_schema)),
      fn_(std::move(fn)) {}

Status MapOp::MapOne(Record&& rec, RecordBatch* out) {
  if (rec.kind == RecordKind::kPartial) {
    out->push_back(std::move(rec));
    return Status::OK();
  }
  return fn_(std::move(rec), out);
}

Status MapOp::DoProcess(Record&& rec, RecordBatch* out) {
  return MapOne(std::move(rec), out);
}

Status MapOp::DoProcessBatch(RecordBatch* batch) {
  RecordBatch out;
  out.reserve(batch->size());
  for (Record& rec : *batch) {
    JARVIS_RETURN_IF_ERROR(MapOne(std::move(rec), &out));
  }
  batch->swap(out);
  return Status::OK();
}

ProjectOp::ProjectOp(std::string name, const Schema& input_schema,
                     std::vector<size_t> keep)
    : Operator(std::move(name), input_schema.Select(keep)),
      keep_(std::move(keep)) {}

Status ProjectOp::DoProcess(Record&& rec, RecordBatch* out) {
  if (rec.kind == RecordKind::kPartial) {
    out->push_back(std::move(rec));
    return Status::OK();
  }
  Record projected;
  projected.event_time = rec.event_time;
  projected.window_start = rec.window_start;
  projected.kind = rec.kind;
  projected.fields.reserve(keep_.size());
  for (size_t i : keep_) {
    if (i >= rec.fields.size()) {
      return Status::OutOfRange("project index out of range");
    }
    projected.fields.push_back(std::move(rec.fields[i]));
  }
  out->push_back(std::move(projected));
  return Status::OK();
}

Status ProjectOp::DoProcessBatch(RecordBatch* batch) {
  // The scratch vector and each record's field vector swap roles every
  // iteration, so the steady state allocates nothing: a record's projected
  // fields land in the buffer freed by the previous record.
  for (Record& rec : *batch) {
    if (rec.kind == RecordKind::kPartial) continue;
    field_scratch_.clear();
    for (size_t i : keep_) {
      if (i >= rec.fields.size()) {
        return Status::OutOfRange("project index out of range");
      }
      field_scratch_.push_back(std::move(rec.fields[i]));
    }
    std::swap(rec.fields, field_scratch_);
  }
  return Status::OK();
}

}  // namespace jarvis::stream
