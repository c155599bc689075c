#include "stream/operator.h"

#include "ser/buffer.h"

namespace jarvis::stream {

std::string_view OpKindToString(OpKind kind) {
  switch (kind) {
    case OpKind::kWindow:
      return "Window";
    case OpKind::kFilter:
      return "Filter";
    case OpKind::kMap:
      return "Map";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kGroupAggregate:
      return "GroupAggregate";
    case OpKind::kProject:
      return "Project";
  }
  return "Unknown";
}

Status Operator::Process(Record&& rec, RecordBatch* out) {
  stats_.records_in += 1;
  if (count_bytes_) stats_.bytes_in += WireSize(rec);
  const size_t first = out->size();
  JARVIS_RETURN_IF_ERROR(DoProcess(std::move(rec), out));
  CountOutputs(*out, first);
  return Status::OK();
}

Status Operator::ProcessBatch(RecordBatch* batch) {
  stats_.records_in += batch->size();
  if (count_bytes_) stats_.bytes_in += BatchBytes(*batch);
  JARVIS_RETURN_IF_ERROR(DoProcessBatch(batch));
  CountOutputs(*batch, 0);
  return Status::OK();
}

Status Operator::ExportStateDelta(ser::BufferWriter* w, StateExport mode) {
  (void)mode;
  if (IsStateful()) {
    return Status::Unimplemented(name_ +
                                 ": stateful operator without ExportStateDelta");
  }
  w->PutVarU64(0);  // tombstones
  w->PutVarU64(0);  // sections
  return Status::OK();
}

Status Operator::RestoreState(ser::BufferReader* r) {
  if (IsStateful()) {
    return Status::Unimplemented(name_ +
                                 ": stateful operator without RestoreState");
  }
  return ReadStateDelta(r, nullptr, nullptr);
}

Status Operator::ReadStateDelta(ser::BufferReader* r,
                                const TombstoneFn& tombstone,
                                const SectionFn& section) const {
  uint64_t n_tombstones = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_tombstones));
  for (uint64_t i = 0; i < n_tombstones; ++i) {
    int64_t key = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarI64(&key));
    if (!tombstone) {
      return Status::SerializationError(name_ + ": unexpected state tombstone");
    }
    JARVIS_RETURN_IF_ERROR(tombstone(key));
  }
  uint64_t n_sections = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_sections));
  for (uint64_t i = 0; i < n_sections; ++i) {
    int64_t key = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarI64(&key));
    uint64_t len = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarU64(&len));
    if (len > r->remaining()) {
      return Status::SerializationError(name_ + ": state section overruns");
    }
    if (!section) {
      return Status::SerializationError(name_ + ": unexpected state section");
    }
    ser::BufferReader body(r->cursor(), len);
    r->Advance(len);
    JARVIS_RETURN_IF_ERROR(section(key, &body));
    if (!body.AtEnd()) {
      return Status::SerializationError(name_ +
                                        ": trailing bytes in state section");
    }
  }
  return Status::OK();
}

void Operator::WriteStateSection(ser::BufferWriter* w, int64_t key,
                                 const ser::BufferWriter& body) {
  w->PutVarI64(key);
  w->PutVarU64(body.size());
  w->PutBytes(body.data().data(), body.size());
}

uint64_t Operator::BatchBytes(const RecordBatch& batch) {
  uint64_t bytes = 0;
  for (const Record& rec : batch) bytes += WireSize(rec);
  return bytes;
}

void Operator::CountOutputs(const RecordBatch& out, size_t first) {
  if (count_bytes_) {
    for (size_t i = first; i < out.size(); ++i) {
      stats_.bytes_out += WireSize(out[i]);
    }
  }
  stats_.records_out += out.size() - first;
}

}  // namespace jarvis::stream
