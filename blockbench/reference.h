#ifndef JARVIS_BLOCKBENCH_REFERENCE_H_
#define JARVIS_BLOCKBENCH_REFERENCE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "ser/buffer.h"
#include "stream/record.h"
#include "workload.h"

namespace blockbench {

/// One (window, group) result key. S2S: (srcIp, dstIp); T2T: (srcToR,
/// dstToR); LogAnalytics: (hash of the tenant, stat index * 16 + bucket).
struct Key {
  int64_t window = 0;
  int64_t a = 0;
  int64_t b = 0;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  size_t operator()(const Key& k) const;
};

/// Mergeable accumulator of one group, plus the checker's record of what
/// the system emitted for it.
struct Group {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  // --- filled by CheckAgainstReference ---
  int emitted = 0;        // rows the system emitted for this key
  bool equal = false;     // the single emitted row matched exactly
  int64_t merged_count = 0;
};

/// Failure accounting. An operation is one key the reference emits; it
/// fails when the system's rows for it are missing, more than one, or
/// different (counts, min and max exact; averages within 1e-9 relative).
struct Verdict {
  uint64_t attempted = 0;
  uint64_t missing = 0;
  uint64_t duplicated = 0;
  uint64_t different = 0;
  /// Rows for keys the reference never emits (invented output).
  uint64_t extra = 0;
  /// Diagnostic only: keys whose rows, merged with the aggregate's own
  /// merge rule, still do not equal the reference (data lost or corrupted,
  /// not merely split). An average split over several rows cannot be
  /// merged and counts here.
  uint64_t merged_mismatch = 0;

  uint64_t failed() const { return missing + duplicated + different; }
  /// Every key emitted exactly once and equal, and no invented rows.
  bool correct() const { return failed() == 0 && extra == 0; }
};

/// Streams result rows to a file while a run is timed, so the harness's
/// memory stays flat (peak RSS is part of the measurement), and reads them
/// back for the check.
class RowSpill {
 public:
  explicit RowSpill(std::string path) : path_(std::move(path)) {}
  /// Closes the file and removes it.
  ~RowSpill();
  RowSpill(const RowSpill&) = delete;
  RowSpill& operator=(const RowSpill&) = delete;

  jarvis::Status Open();
  /// Writes one block: [u64 length][the rows, SerializeRecord format].
  void Append(const jarvis::stream::RecordBatch& rows);
  jarvis::Status Close();
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  FILE* file_ = nullptr;
  jarvis::ser::BufferWriter buf_;
  bool write_failed_ = false;
};

/// What checking a run against the reference found, and what the reference
/// loop itself cost.
struct CheckResult {
  Verdict verdict;
  uint64_t records = 0;  // input records the reference loop consumed
  double seconds = 0.0;  // wall time of the loop, generation included
};

/// The plain single-threaded loop over the generated input: one hash map
/// keyed by window and group, no executor, no wire, no runtime. It is both
/// the correctness oracle and the COST baseline (McSherry, Isard, Murray,
/// HotOS 2015): it calls the same generators the block does, so it pays the
/// same input-generation cost. It runs window by window over epochs
/// [first, end) while the spilled rows stream past, so memory holds a few
/// windows; a window is settled once rows two windows later appear, and a
/// row later than that counts as extra.
jarvis::Result<CheckResult> CheckAgainstReference(
    const Workload& w, const Inputs& in, const std::string& spill_path,
    int64_t first, int64_t end);

/// Order-sensitive 64-bit digest of result rows over the exact bits of
/// every field (strings by hash): equal digests stand for bit-identical
/// results.
uint64_t RowsDigest(const jarvis::stream::RecordBatch& rows);

}  // namespace blockbench

#endif  // JARVIS_BLOCKBENCH_REFERENCE_H_
