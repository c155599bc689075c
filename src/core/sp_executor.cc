#include "core/sp_executor.h"

#include "ser/buffer.h"

namespace jarvis::core {

SpExecutor::SpExecutor(const query::CompiledQuery& query, size_t num_sources)
    : merger_(num_sources),
      expect_seq_(num_sources, 0),
      ckpt_stores_(num_sources) {
  for (CheckpointStore& s : ckpt_stores_) s.set_retain(ckpt_retain_);
  auto pipeline = query.MakeSpPipeline();
  if (!pipeline.ok()) {
    init_status_ = pipeline.status();
    return;
  }
  pipeline_ = std::move(pipeline).value();
  // Relay-byte ratios of the replica chain feed nothing (the partitioning
  // LP profiles on the source side), so its byte stats stay off.
  pipeline_->SetByteAccounting(false);
  entry_width_ = pipeline_->InPlaceWidths();
}

Status SpExecutor::Consume(size_t source_id, SourceEpochOutput&& out,
                           stream::RecordBatch* results) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  if (source_id >= merger_.num_inputs()) {
    return Status::OutOfRange("unknown source id");
  }
  // The drain arrives pre-chunked into maximal same-entry runs (whole proxy
  // queues, whole emitted batches), so each chunk is one batch traversal of
  // the chain suffix.
  for (DrainChunk& chunk : out.to_sp) {
    const size_t entry = chunk.sp_entry_op;
    if (entry > pipeline_->size()) {
      return Status::OutOfRange("drain entry operator out of range");
    }
    records_consumed_ += chunk.size();
    if (!chunk.rows.empty()) {
      JARVIS_RETURN_IF_ERROR(
          pipeline_->PushBatchFrom(entry, std::move(chunk.rows), results));
    }
  }
  // The control proxy replicates the source watermark onto the drain path;
  // one update covers both paths of this source.
  if (out.watermark >= 0) {
    merger_.Update(source_id, out.watermark);
  }
  return Status::OK();
}

Result<FrameDisposition> SpExecutor::ConsumeFrame(
    size_t source_id, const WireFrame& frame, stream::RecordBatch* results) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  if (source_id >= merger_.num_inputs()) {
    return Status::OutOfRange("unknown source id");
  }
  // Header first: a failed header checksum means even the sequence number
  // is untrustworthy, so the frame is rejected before any dedup decision.
  Result<WireFrameHeader> hdr = PeekFrameHeader(frame);
  if (!hdr.ok()) return FrameDisposition::kCorrupt;
  const uint32_t expect = expect_seq_[source_id];
  if (hdr->seq < expect) return FrameDisposition::kDuplicate;
  if (hdr->seq > expect) return FrameDisposition::kGap;
  if (hdr->lane == WireLane::kCheckpoint) {
    // Checkpoint lane: decompress (v2 frames) and validate the sealed
    // payload end to end before retaining it — a corrupt checkpoint is
    // NACKed like a corrupt data frame and recovers by retransmission,
    // never by storing garbage. The store keeps the *decompressed* sealed
    // payload, so restore-time readers are codec-oblivious.
    Result<std::pair<const uint8_t*, size_t>> payload =
        FramePayload(frame, *hdr, &payload_scratch_);
    if (!payload.ok()) return FrameDisposition::kCorrupt;
    Result<CheckpointHeader> ckpt =
        PeekCheckpointHeader(payload->first, payload->second);
    if (!ckpt.ok()) return FrameDisposition::kCorrupt;
    ckpt_stores_[source_id].Add(
        ckpt->full, ckpt->epoch, ckpt->fence,
        std::vector<uint8_t>(payload->first, payload->first + payload->second));
    expect_seq_[source_id] = expect + 1;
    return FrameDisposition::kDelivered;
  }
  if (hdr->entry_op > pipeline_->size()) {
    // Header checksum passed but the entry is impossible: encoder bug or a
    // colliding corruption. Either way, refuse to misroute records.
    return FrameDisposition::kCorrupt;
  }
  // Row lane: the batch payload carries its own checksum, so any corruption
  // the header missed fails the decode and nothing is consumed.
  Result<std::pair<const uint8_t*, size_t>> payload =
      FramePayload(frame, *hdr, &payload_scratch_);
  if (!payload.ok()) return FrameDisposition::kCorrupt;
  ser::BufferReader r(payload->first, payload->second);
  entry_batch_.clear();
  const Status decoded =
      stream::DeserializeBatch(&r, &entry_batch_, entry_width_[hdr->entry_op]);
  if (!decoded.ok() || !r.AtEnd()) return FrameDisposition::kCorrupt;
  JARVIS_RETURN_IF_ERROR(pipeline_->PushBatchFrom(
      hdr->entry_op, std::move(entry_batch_), results));
  entry_batch_.clear();
  expect_seq_[source_id] = expect + 1;
  records_consumed_ += frame.records;
  return FrameDisposition::kDelivered;
}

Status SpExecutor::RemoveSource(size_t source_id) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  if (source_id >= merger_.num_inputs()) {
    return Status::OutOfRange("unknown source id");
  }
  merger_.RemoveInput(source_id);
  return Status::OK();
}

Status SpExecutor::ReadmitSource(size_t source_id) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  if (source_id >= merger_.num_inputs()) {
    return Status::OutOfRange("unknown source id");
  }
  merger_.ReviveInput(source_id);
  return Status::OK();
}

Status SpExecutor::EndEpoch(stream::RecordBatch* results) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  const Micros merged = merger_.Merged();
  if (merged == stream::WatermarkMerger::kUninitialized ||
      merged <= applied_watermark_) {
    return Status::OK();
  }
  applied_watermark_ = merged;
  return pipeline_->OnWatermark(merged, results);
}

Status SpExecutor::Flush(stream::RecordBatch* results) {
  JARVIS_RETURN_IF_ERROR(init_status_);
  return pipeline_->Flush(results);
}

}  // namespace jarvis::core
