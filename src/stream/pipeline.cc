#include "stream/pipeline.h"

#include <algorithm>

namespace jarvis::stream {

Status Pipeline::Push(Record&& rec, RecordBatch* out) {
  return PushFrom(0, std::move(rec), out);
}

Status Pipeline::PushFrom(size_t start, Record&& rec, RecordBatch* out) {
  if (start >= ops_.size()) {
    out->push_back(std::move(rec));
    return Status::OK();
  }
  RecordBatch current;
  JARVIS_RETURN_IF_ERROR(ops_[start]->Process(std::move(rec), &current));
  for (size_t i = start + 1; i < ops_.size() && !current.empty(); ++i) {
    RecordBatch next;
    for (Record& r : current) {
      JARVIS_RETURN_IF_ERROR(ops_[i]->Process(std::move(r), &next));
    }
    current = std::move(next);
  }
  MoveAppend(std::move(current), out);
  return Status::OK();
}

Status Pipeline::PushBatch(RecordBatch&& batch, RecordBatch* out) {
  return PushBatchFrom(0, std::move(batch), out);
}

Status Pipeline::PushBatchFrom(size_t start, RecordBatch&& batch,
                               RecordBatch* out) {
  for (size_t i = start; i < ops_.size() && !batch.empty(); ++i) {
    JARVIS_RETURN_IF_ERROR(ops_[i]->ProcessBatch(&batch));
  }
  MoveAppend(std::move(batch), out);
  return Status::OK();
}

std::vector<size_t> Pipeline::InPlaceWidths() const {
  // Walks back from the end: each covered operator passes on the width of
  // what follows it, raised to its own output arity.
  std::vector<size_t> widths(ops_.size() + 1, 0);
  for (size_t i = ops_.size(); i-- > 0;) {
    if (ops_[i]->kind() != OpKind::kMap && !ops_[i]->IsStateful()) {
      widths[i] =
          std::max(ops_[i]->output_schema().num_fields(), widths[i + 1]);
    }
  }
  return widths;
}

Status Pipeline::OnWatermark(Micros wm, RecordBatch* out) {
  // `carried` holds the emissions of upstream window closures; each operator
  // rewrites them in place, then appends its own.
  RecordBatch carried;
  for (const OperatorPtr& op : ops_) {
    if (!carried.empty()) JARVIS_RETURN_IF_ERROR(op->ProcessBatch(&carried));
    JARVIS_RETURN_IF_ERROR(op->OnWatermark(wm, &carried));
  }
  MoveAppend(std::move(carried), out);
  return Status::OK();
}

Status Pipeline::Flush(RecordBatch* out) {
  RecordBatch carried;
  for (const OperatorPtr& op : ops_) {
    if (!carried.empty()) JARVIS_RETURN_IF_ERROR(op->ProcessBatch(&carried));
    JARVIS_RETURN_IF_ERROR(op->ExportPartialState(&carried));
  }
  MoveAppend(std::move(carried), out);
  return Status::OK();
}

void Pipeline::ResetStats() {
  for (auto& op : ops_) op->ResetStats();
}

}  // namespace jarvis::stream
