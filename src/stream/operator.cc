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

Status Operator::ProcessBatch(RecordBatch&& batch, RecordBatch* out) {
  stats_.records_in += batch.size();
  if (count_bytes_) stats_.bytes_in += BatchBytes(batch);
  const size_t first = out->size();
  JARVIS_RETURN_IF_ERROR(DoProcessBatch(std::move(batch), out));
  CountOutputs(*out, first);
  return Status::OK();
}

Status Operator::ProcessBatchInPlace(RecordBatch* batch) {
  stats_.records_in += batch->size();
  if (count_bytes_) stats_.bytes_in += BatchBytes(*batch);
  JARVIS_RETURN_IF_ERROR(DoProcessBatchInPlace(batch));
  stats_.records_out += batch->size();
  if (count_bytes_) stats_.bytes_out += BatchBytes(*batch);
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
  uint64_t n_tombstones = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_tombstones));
  int64_t key = 0;
  for (uint64_t i = 0; i < n_tombstones; ++i) {
    JARVIS_RETURN_IF_ERROR(r->GetVarI64(&key));
  }
  uint64_t n_sections = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_sections));
  for (uint64_t i = 0; i < n_sections; ++i) {
    JARVIS_RETURN_IF_ERROR(r->GetVarI64(&key));
    uint64_t len = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarU64(&len));
    if (len > r->remaining()) {
      return Status::SerializationError(name_ + ": state section overruns");
    }
    r->Advance(len);
  }
  if (IsStateful()) {
    return Status::Unimplemented(name_ +
                                 ": stateful operator without RestoreState");
  }
  if (n_tombstones != 0 || n_sections != 0) {
    return Status::SerializationError(name_ +
                                      ": state delta for a stateless operator");
  }
  return Status::OK();
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
