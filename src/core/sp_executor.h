#ifndef JARVIS_CORE_SP_EXECUTOR_H_
#define JARVIS_CORE_SP_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/checkpoint.h"
#include "core/drain_wire.h"
#include "core/source_executor.h"
#include "query/compile.h"
#include "stream/pipeline.h"
#include "stream/watermark.h"

namespace jarvis::core {

/// What the stream processor decided about one delivered wire frame. kGap
/// and kCorrupt are the NACK signals: the frame was not consumed and the
/// source should retransmit from its retained copy (kGap names the missing
/// sequence number via expected_seq()).
enum class FrameDisposition : uint8_t {
  kDelivered,  ///< verified, decoded, pushed; the sequence advanced
  kDuplicate,  ///< already-delivered sequence number; dropped, no effect
  kGap,        ///< sequence number ahead of expected — earlier frame missing
  kCorrupt,    ///< checksum/decode failure; nothing was consumed
};

/// The stream-processor side of one core building block (Figure 4b): runs
/// the full operator chain in finalize mode, resumes drained records at the
/// operator the control proxy tagged, merges partial aggregation state from
/// data sources, and advances event time by the *minimum* watermark across
/// sources (Section V).
class SpExecutor {
 public:
  SpExecutor(const query::CompiledQuery& query, size_t num_sources);

  Status Init() const { return init_status_; }

  /// Ingests one data source's epoch output: each drain chunk resumes at
  /// its tagged operator as one batch. Final query results (closed windows,
  /// completed records) are appended to `results`.
  Status Consume(size_t source_id, SourceEpochOutput&& out,
                 stream::RecordBatch* results);

  /// Call after all sources delivered their epoch: advances the merged
  /// watermark, flushing windows that are closed across *all* sources.
  Status EndEpoch(stream::RecordBatch* results);

  /// End-of-run flush of any remaining operator state.
  Status Flush(stream::RecordBatch* results);

  /// Registers one more source (join churn): returns its id. The merged
  /// watermark holds until the newcomer's first epoch output arrives.
  size_t AddSource() {
    expect_seq_.push_back(0);
    ckpt_stores_.emplace_back();
    ckpt_stores_.back().set_retain(ckpt_retain_);
    return merger_.AddInput();
  }

  /// Ingests one wire frame from `source_id` with integrity and exactly-once
  /// checks: header + payload checksums verified, duplicates dropped by
  /// sequence number, gaps NACKed without consuming. Only a genuine pipeline
  /// failure is a Status error; transmission problems come back as the
  /// disposition so the caller can drive retransmission.
  Result<FrameDisposition> ConsumeFrame(size_t source_id,
                                        const WireFrame& frame,
                                        stream::RecordBatch* results);

  /// Applies `source_id`'s epoch watermark (the caller advances it only
  /// after the epoch's frames all delivered — a partially delivered epoch
  /// must not promise event-time progress).
  void ConsumeWatermark(size_t source_id, Micros wm) {
    if (wm >= 0) merger_.Update(source_id, wm);
  }

  /// The next sequence number this source must deliver (the NACK content).
  uint32_t expected_seq(size_t source_id) const {
    return expect_seq_[source_id];
  }

  /// Quarantines a source: its watermark input is released so the merge and
  /// the epoch barrier stop waiting on it (surviving sources keep closing
  /// windows — degraded mode keeps serving).
  Status RemoveSource(size_t source_id);

  /// Re-admits a quarantined source through the join rule: its watermark
  /// input restarts uninitialized, holding the merge until its first
  /// post-readmission delivery (AddSource newcomer semantics, same id).
  Status ReadmitSource(size_t source_id);

  /// Re-synchronizes the expected sequence after a readmission that
  /// discarded in-flight frames (crash recovery): delivery resumes at the
  /// source's current counter instead of NACKing unrecoverable history.
  void ResyncSequence(size_t source_id, uint32_t expect) {
    expect_seq_[source_id] = expect;
  }

  Micros merged_watermark() const { return merger_.Merged(); }

  /// Data records this SP has consumed across all sources (in-memory chunks
  /// and delivered data frames; checkpoint frames excluded). The per-epoch
  /// delta is the overload controller's SP-inflow pressure signal.
  uint64_t records_consumed() const { return records_consumed_; }

  /// Sets the checkpoint ring size (K) on every per-source store.
  void SetCheckpointRetain(size_t k) {
    ckpt_retain_ = k == 0 ? 1 : k;
    for (CheckpointStore& s : ckpt_stores_) s.set_retain(ckpt_retain_);
  }

  /// Per-source retained checkpoints (crash recovery reads these).
  const CheckpointStore& checkpoint_store(size_t source_id) const {
    return ckpt_stores_[source_id];
  }
  /// Test hook: corruption-fallback tests flip bytes in retained payloads.
  CheckpointStore& mutable_checkpoint_store(size_t source_id) {
    return ckpt_stores_[source_id];
  }

 private:
  std::unique_ptr<stream::Pipeline> pipeline_;
  stream::WatermarkMerger merger_;
  Micros applied_watermark_ = -1;
  Status init_status_;
  // Reused per ConsumeFrame call: decompression scratch for v2 frames and
  // the decoded rows of a data frame.
  std::vector<uint8_t> payload_scratch_;
  stream::RecordBatch entry_batch_;
  // Pipeline::InPlaceWidths, per entry operator: ConsumeFrame decodes each
  // frame's rows with that much room, so the SP's Joins append in place.
  std::vector<size_t> entry_width_;
  // Per-source next expected wire sequence number (exactly-once delivery).
  std::vector<uint32_t> expect_seq_;
  uint64_t records_consumed_ = 0;
  // Per-source retained checkpoint rings (WireLane::kCheckpoint frames).
  std::vector<CheckpointStore> ckpt_stores_;
  size_t ckpt_retain_ = 4;
};

}  // namespace jarvis::core

#endif  // JARVIS_CORE_SP_EXECUTOR_H_
