#ifndef JARVIS_STREAM_COLUMNAR_H_
#define JARVIS_STREAM_COLUMNAR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "ser/buffer.h"
#include "stream/record.h"

namespace jarvis::stream {

/// One typed value vector of a ColumnarBatch; only the member matching
/// `type` is populated. Kept as plain vectors (not a variant of vectors) so
/// operator hot loops index without a dispatch per element.
struct Column {
  ValueType type = ValueType::kInt64;

  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;

  size_t size() const {
    switch (type) {
      case ValueType::kInt64:
        return i64.size();
      case ValueType::kDouble:
        return f64.size();
      case ValueType::kString:
        return str.size();
    }
    return 0;
  }
  /// Drops values, keeps capacity.
  void Clear() {
    i64.clear();
    f64.clear();
    str.clear();
  }
};

/// Column-major (structure-of-arrays) batch: per-field typed value vectors
/// plus packed event-time/window-start arrays for the rows that conform to
/// the schema ("dense" rows: kData kind, exact arity and types), and a
/// lossless row-form side lane for everything else (kPartial accumulator
/// rows, schema-divergent records). A per-row density bitmap preserves the
/// original interleaving, so row<->column conversion is exact in both
/// directions and any operation over a ColumnarBatch can reproduce the
/// row-path ordering bit-for-bit.
///
/// This is the data plane's vectorized representation: stateless operators
/// rewrite it in place (Operator::ProcessColumnar), the source executor keeps
/// whole stage queues in it, and the drain path serializes it column-wise
/// (SerializeColumnar) without ever materializing row records.
class ColumnarBatch {
 public:
  ColumnarBatch() = default;
  explicit ColumnarBatch(Schema schema) { Reset(std::move(schema)); }

  /// Rebinds the schema and drops all rows; column/array capacities are kept
  /// where the field count allows, so a reused batch allocates nothing in
  /// steady state.
  void Reset(Schema schema);

  /// Drops all rows, keeps schema and capacities.
  void Clear();

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return is_dense_.size(); }
  size_t num_dense() const { return event_time_.size(); }
  size_t num_fallback() const { return fallback_.size(); }
  bool empty() const { return is_dense_.empty(); }

  // -- Row <-> column conversion ------------------------------------------

  /// Appends one record: conforming kData rows split into the columns,
  /// everything else lands in the fallback lane, both losslessly.
  void AppendRow(Record&& rec);

  /// Bulk AppendRow (consumes `rows`): the value transfer runs column-major
  /// with the per-column type dispatch hoisted out of the row loop, so this
  /// is the ingest-boundary conversion every hot path should use.
  void AppendRows(RecordBatch&& rows);

  /// Builds a batch from a whole row batch (consumes `rows`).
  static ColumnarBatch FromRows(RecordBatch&& rows, Schema schema);

  /// Materializes every row (in original order) onto the end of `out` and
  /// leaves this batch empty. The inverse of FromRows/AppendRow.
  void MoveToRows(RecordBatch* out);

  // -- Column-born append (generators, columnar ingest) --------------------

  /// Mutable column access for column-born producers. Contract: append the
  /// same number of values to every dense column and to event_times() /
  /// window_starts(), then call CommitDenseRows(n) once to extend the
  /// density bitmap. Directly appended rows are dense by definition;
  /// non-conforming rows must go through AppendRow instead.
  Column& column_mut(size_t j) { return columns_[j]; }

  /// Marks the `n` values just appended to every column (and time array) as
  /// `n` new dense rows at the end of the batch.
  void CommitDenseRows(size_t n) { is_dense_.insert(is_dense_.end(), n, 1); }

  /// Appends every row of `other` (in row order) onto this batch and leaves
  /// `other` empty. Same-schema batches append column-to-column (bulk vector
  /// appends, an O(1) buffer swap when this batch is empty); a schema
  /// mismatch degrades losslessly to row conversion. This is how the
  /// columnar ingest buffer accumulates column-born batches across Ingest
  /// calls without touching row records.
  void AppendBatch(ColumnarBatch&& other);

  // -- Structure access (operators, predicates, serialization) ------------

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t j) const { return columns_[j]; }
  std::vector<Micros>& event_times() { return event_time_; }
  const std::vector<Micros>& event_times() const { return event_time_; }
  std::vector<Micros>& window_starts() { return window_start_; }
  const std::vector<Micros>& window_starts() const { return window_start_; }
  /// Per-row density bitmap in row order (1 = dense/conforming row).
  const std::vector<uint8_t>& density() const { return is_dense_; }
  /// Non-conforming rows in row order; mutable so operators can rewrite
  /// them through the row-path logic.
  std::vector<Record>& fallback() { return fallback_; }
  const std::vector<Record>& fallback() const { return fallback_; }

  // -- Vectorized structural edits ----------------------------------------

  /// Stable in-place filter: keeps dense row d iff keep_dense[d] and
  /// fallback row f iff keep_fallback[f]. Pointers must cover num_dense()
  /// and num_fallback() entries respectively.
  void Retain(const uint8_t* keep_dense, const uint8_t* keep_fallback);

  /// Projects the dense columns to `indices` (in order) by column-pointer
  /// swaps — no per-value work; duplicate indices copy. Replaces the schema
  /// with schema().Select(indices). Fails with OutOfRange when an index is
  /// past the column count (the same condition the row path reports per
  /// record). Fallback rows are NOT touched: the caller owns their
  /// projection via the row path.
  Status SelectColumns(const std::vector<size_t>& indices);

  /// Routing split in arrival order: row r goes to `forwarded` (appended,
  /// staying columnar; must share this batch's schema) when decisions[r] is
  /// nonzero, otherwise it is materialized onto `drained`. Leaves this batch
  /// empty. This is how control proxies apportion a columnar run between the
  /// local operator and the drain path without a row detour.
  void Partition(const uint8_t* decisions, ColumnarBatch* forwarded,
                 RecordBatch* drained);

  /// Fully columnar routing split: like the row-draining overload, but
  /// drained rows also stay in column form (`drained` must share this
  /// batch's schema). The native drain path uses this so no row record
  /// materializes between the source operators and the wire.
  void Partition(const uint8_t* decisions, ColumnarBatch* forwarded,
                 ColumnarBatch* drained);

  /// Moves the first `n` rows (in row order) into `front` (which is reset to
  /// this batch's schema), keeping the rest. Whole-batch takes are O(1)
  /// swaps; partial takes are one linear pass. Used to pop the affordable
  /// run off a columnar stage queue.
  void SplitFront(size_t n, ColumnarBatch* front);

  /// Appends dense rows [d0, d1) — dense indices, not row indices — onto
  /// `dst` (same schema), moving string payloads out of this batch. The
  /// drain path slices a mixed batch into per-run chunks with this in one
  /// left-to-right pass (no front erasure, so a batch of r runs costs O(n)
  /// total, not O(r * n)); the donor batch is consumed run by run and must
  /// be Clear()ed by the caller when the walk finishes.
  void MoveDenseRange(size_t d0, size_t d1, ColumnarBatch* dst);

  /// Exact record-format wire bytes of the whole batch — the same number a
  /// row-path WireSize() sum would produce — computed column-wise. Keeps
  /// byte-level operator stats identical between the row and columnar paths.
  uint64_t RowWireBytes() const;

 private:
  friend Status DeserializeColumnarBatch(ser::BufferReader* in,
                                         ColumnarBatch* out);

  /// Materializes dense row `d` (moves string payloads out of the columns).
  Record MaterializeDense(size_t d);

  /// Appends dense row `d` onto `dst` (same schema), moving string payloads.
  void MoveDenseRowTo(size_t d, ColumnarBatch* dst);

  Schema schema_;
  std::vector<Column> columns_;       // dense rows only, one per schema field
  std::vector<Micros> event_time_;    // dense rows only
  std::vector<Micros> window_start_;  // dense rows only
  std::vector<uint8_t> is_dense_;     // all rows, in row order
  std::vector<Record> fallback_;      // non-conforming rows, in row order
  // Buffers of columns dropped by SelectColumns, recycled by Reset: a batch
  // cycling through a projecting pipeline (the executor's in-flight run
  // does, every stage, every epoch) keeps its column capacities instead of
  // reallocating the dropped columns each cycle.
  std::vector<Column> spares_;
  // Retain scratch: the per-row keep mask expanded through the density
  // bitmap. Carries no batch state — kept only for its capacity.
  std::vector<uint8_t> keep_rows_;
};

// ---------------------------------------------------------------------------
// Columnar drain wire format
// ---------------------------------------------------------------------------
// True column-wise emission with per-column encodings:
//   - row flags (kind/density) are run-length encoded,
//   - event-time and window-start columns are delta + zigzag varints,
//   - int64 value columns are delta + zigzag varints,
//   - double columns are packed 8-byte LE,
//   - string columns are dictionary-coded when the column is low-cardinality
//     (first-occurrence dictionary, u8 codes), plain length-prefixed
//     otherwise — the encoder picks whichever is smaller per column,
//   - fallback rows carry inline-tagged fields exactly like the record
//     format, so any batch round-trips losslessly.
// The format is self-describing; the read side needs no schema and produces
// row records (the stream processor consumes rows).
//
// Version 3 wraps the body in an integrity header:
//   [u8 version=3][u32 payload_len][u32 FrameChecksum(payload)][payload]
// so the consuming stream processor detects bit flips, truncation, and
// splices before any decode work touches the payload. It is the only version
// the decoders accept.

inline constexpr uint8_t kColumnarFormatVersion = 3;

/// Serializes the batch column-wise and returns the bytes written.
size_t SerializeColumnar(const ColumnarBatch& batch, ser::BufferWriter* out);

/// Decodes a batch previously written by SerializeColumnar into row records.
/// Verifies the v3 integrity header (checksum + exact payload length) and
/// fails with SerializationError — never UB — on any corrupt, truncated, or
/// bit-flipped input.
Status DeserializeColumnar(ser::BufferReader* in, RecordBatch* out);

/// Decodes a SerializeColumnar frame straight into column form: dense values
/// land in bulk in the typed column vectors and packed time arrays (no
/// per-row record fan-out — the SP-side decode-worker fast path), fallback
/// rows rebuild their records exactly as DeserializeColumnar would. The
/// decoded batch carries an unnamed schema reconstructed from the wire's
/// type tags (the format is name-free); MoveToRows() on the result is
/// bit-identical to DeserializeColumnar's row output. Same integrity
/// guarantees and corruption hardening as DeserializeColumnar.
Status DeserializeColumnarBatch(ser::BufferReader* in, ColumnarBatch* out);

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_COLUMNAR_H_
