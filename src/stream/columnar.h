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
/// directions.
///
/// This is the container of GroupAggregate's checkpoint sections: the
/// exporter fills the columns group by group, SerializeColumnar packs them
/// one column per field, and restore decodes them back with
/// DeserializeColumnarBatch.
class ColumnarBatch {
 public:
  ColumnarBatch() = default;
  explicit ColumnarBatch(Schema schema) { Reset(std::move(schema)); }

  /// Rebinds the schema and drops all rows; column/array capacities are kept
  /// where the field count allows, so a reused batch allocates nothing in
  /// steady state.
  void Reset(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return is_dense_.size(); }
  size_t num_dense() const { return event_time_.size(); }
  size_t num_fallback() const { return fallback_.size(); }
  bool empty() const { return is_dense_.empty(); }

  // -- Row <-> column conversion ------------------------------------------

  /// Appends one record: conforming kData rows split into the columns,
  /// everything else lands in the fallback lane, both losslessly.
  void AppendRow(Record&& rec);

  /// Materializes every row (in original order) onto the end of `out` and
  /// leaves this batch empty. The inverse of AppendRow.
  void MoveToRows(RecordBatch* out);

  // -- Column-born append --------------------------------------------------

  /// Mutable column access for column-born producers. Contract: append the
  /// same number of values to every dense column and to event_times() /
  /// window_starts(), then call CommitDenseRows(n) once to extend the
  /// density bitmap. Directly appended rows are dense by definition;
  /// non-conforming rows must go through AppendRow instead.
  Column& column_mut(size_t j) { return columns_[j]; }

  /// Marks the `n` values just appended to every column (and time array) as
  /// `n` new dense rows at the end of the batch.
  void CommitDenseRows(size_t n) { is_dense_.insert(is_dense_.end(), n, 1); }

  // -- Structure access (serialization) -----------------------------------

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t j) const { return columns_[j]; }
  std::vector<Micros>& event_times() { return event_time_; }
  const std::vector<Micros>& event_times() const { return event_time_; }
  std::vector<Micros>& window_starts() { return window_start_; }
  const std::vector<Micros>& window_starts() const { return window_start_; }
  /// Per-row density bitmap in row order (1 = dense/conforming row).
  const std::vector<uint8_t>& density() const { return is_dense_; }
  /// Non-conforming rows in row order.
  const std::vector<Record>& fallback() const { return fallback_; }

 private:
  friend Status DeserializeColumnarBatch(ser::BufferReader* in,
                                         ColumnarBatch* out);

  /// Drops all rows, keeps schema and capacities.
  void Clear();

  /// Materializes dense row `d` (moves string payloads out of the columns).
  Record MaterializeDense(size_t d);

  Schema schema_;
  std::vector<Column> columns_;       // dense rows only, one per schema field
  std::vector<Micros> event_time_;    // dense rows only
  std::vector<Micros> window_start_;  // dense rows only
  std::vector<uint8_t> is_dense_;     // all rows, in row order
  std::vector<Record> fallback_;      // non-conforming rows, in row order
};

// ---------------------------------------------------------------------------
// Columnar wire format
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
// The format is self-describing; the read side needs no schema.
//
// Version 3 wraps the body in an integrity header:
//   [u8 version=3][u32 payload_len][u32 FrameChecksum(payload)][payload]
// so a reader detects bit flips, truncation, and splices before any decode
// work touches the payload. It is the only version the decoder accepts.

inline constexpr uint8_t kColumnFormatVersion = 3;

/// Serializes the batch column-wise and returns the bytes written.
size_t SerializeColumnar(const ColumnarBatch& batch, ser::BufferWriter* out);

/// Decodes a SerializeColumnar frame into column form: dense values land in
/// bulk in the typed column vectors and packed time arrays, fallback rows
/// rebuild their records. The decoded batch carries an unnamed schema
/// reconstructed from the wire's type tags (the format is name-free).
/// Verifies the v3 integrity header (checksum + exact payload length) and
/// fails with SerializationError — never UB — on any corrupt, truncated, or
/// bit-flipped input.
Status DeserializeColumnarBatch(ser::BufferReader* in, ColumnarBatch* out);

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_COLUMNAR_H_
