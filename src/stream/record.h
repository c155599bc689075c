#ifndef JARVIS_STREAM_RECORD_H_
#define JARVIS_STREAM_RECORD_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "ser/buffer.h"

namespace jarvis::ser {
class ChunkWriter;
}  // namespace jarvis::ser

namespace jarvis::stream {

/// Field value: monitoring streams carry numeric metrics (Pingmesh) and
/// unstructured text (LogAnalytics).
using Value = std::variant<int64_t, double, std::string>;

enum class ValueType : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

inline ValueType TypeOf(const Value& v) {
  return static_cast<ValueType>(v.index());
}

/// Renders a value for debugging and golden tests.
std::string ValueToString(const Value& v);

/// Record kinds on the wire. Stateful operators drain accumulated *partial
/// state* (not raw records) so the stream processor can merge it losslessly
/// (Section V, "Accurate query processing").
enum class RecordKind : uint8_t { kData = 0, kPartial = 1 };

/// A single stream element. `window_start` is assigned by the Window operator
/// (-1 before assignment); `kind` distinguishes raw data from exported
/// partial aggregation state.
struct Record {
  Micros event_time = 0;
  Micros window_start = -1;
  RecordKind kind = RecordKind::kData;
  std::vector<Value> fields;

  Record() = default;
  Record(Micros t, std::vector<Value> f)
      : event_time(t), fields(std::move(f)) {}

  int64_t i64(size_t i) const { return std::get<int64_t>(fields[i]); }
  double f64(size_t i) const { return std::get<double>(fields[i]); }
  const std::string& str(size_t i) const {
    return std::get<std::string>(fields[i]);
  }

  /// Numeric view of field i (int64 fields widen to double).
  double AsDouble(size_t i) const;

  bool operator==(const Record& other) const = default;
};

using RecordBatch = std::vector<Record>;

/// Grows `out` so `extra` more elements fit, preserving vector-style
/// geometric growth. A bare reserve(size()+extra) per appended chunk caps
/// capacity at the exact requested size, which turns chunked appends
/// quadratic; this helper is what every batch hot loop must use instead.
/// Templated so drain-record vectors share the one definition.
template <typename T>
inline void GrowForAppend(std::vector<T>* out, size_t extra) {
  const size_t need = out->size() + extra;
  if (need > out->capacity()) {
    out->reserve(std::max(need, out->capacity() * 2));
  }
}

/// Moves every record of `batch` onto the end of `out`. When `out` is empty
/// and has less capacity than the batch, the buffers are swapped (O(1))
/// instead of moved element-wise; swapping rather than move-assigning keeps
/// the donor's buffer alive for reuse by the caller's scratch.
inline void MoveAppend(RecordBatch&& batch, RecordBatch* out) {
  if (out->empty() && out->capacity() < batch.size()) {
    std::swap(*out, batch);
    return;
  }
  GrowForAppend(out, batch.size());
  for (Record& rec : batch) out->push_back(std::move(rec));
}

/// Named, typed columns. Operators validate inputs against schemas at plan
/// compile time, not per record.
class Schema {
 public:
  struct Field {
    std::string name;
    ValueType type;
    bool operator==(const Field&) const = default;
  };

  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  static Schema Of(std::initializer_list<Field> fields) {
    return Schema(std::vector<Field>(fields));
  }

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the named field or kNotFound status.
  Result<size_t> IndexOf(std::string_view name) const;

  /// Returns a schema with `extra` appended.
  Schema Append(Field extra) const;

  /// Returns a schema keeping only the given indices, in order.
  Schema Select(const std::vector<size_t>& indices) const;

  std::string ToString() const;

  bool operator==(const Schema&) const = default;

 private:
  std::vector<Field> fields_;
};

/// Exact wire size of a record in bytes without serializing it (varint widths
/// are computed, not estimated): WireSize(r) == SerializeRecord(r) output
/// size, always. Used for drain-byte accounting on hot paths so reported
/// network bytes never drift from what serialization would actually ship.
size_t WireSize(const Record& rec);

/// Serializes a record to the drain-path wire format.
void SerializeRecord(const Record& rec, ser::BufferWriter* out);

/// Decodes a record previously written by SerializeRecord.
Status DeserializeRecord(ser::BufferReader* in, Record* out);

// ---------------------------------------------------------------------------
// Schema-elided batch wire format
// ---------------------------------------------------------------------------
// The record-at-a-time format repeats a type tag per field per record even
// though the schema is fixed at query-compile time. The batch format writes
// the schema's type tags once per batch and the payload as packed columns
// (zigzag varints for int64, 8-byte LE doubles, strings as below), so the
// per-record overhead drops to one flag byte plus the two time varints.
// Records that do not match the schema — a kPartial accumulator row among
// raw rows has a different arity — are flagged and serialized with inline
// tags after the columns, so any batch round-trips losslessly.
//
// A string column starts with an encoding byte: 0, then each value
// length-prefixed; or 1, a first-occurrence dictionary (a varint entry
// count of at most 255, the length-prefixed entries, then one u8 code per
// value). The encoder picks whichever is smaller, so low-cardinality
// columns (hosts, tenants, stat names) ship a byte per value.
//
// The body sits behind an integrity header — [u8 version=3][u32
// payload_len][u32 FrameChecksum(payload)] — so every drain wire frame and
// checkpoint section is corruption-checked before decode. Version 3 is the
// only version the decoder accepts.

inline constexpr uint8_t kBatchFormatVersion = 3;

/// True when the record's fields match the schema's arity and types exactly
/// (such records serialize tag-free in the column section). Inline: called
/// once per record on the drain serialization path.
inline bool ConformsToSchema(const Record& rec, const Schema& schema) {
  if (rec.fields.size() != schema.num_fields()) return false;
  for (size_t j = 0; j < rec.fields.size(); ++j) {
    if (TypeOf(rec.fields[j]) != schema.field(j).type) return false;
  }
  return true;
}

/// The unnamed schema of the first record's field types (empty for an empty
/// batch). Row lanes serialize by it: a batch of same-shaped rows — raw
/// records and kPartial accumulator rows alike — packs schema-elided, and
/// only rows of another shape fall back to inline tags.
Schema FirstRowSchema(const RecordBatch& rows);

/// Serializes a whole batch in the schema-elided format and returns the
/// number of bytes written, so callers get network-byte accounting from the
/// serialization pass itself instead of a separate WireSize walk. Takes a
/// span so a caller can serialize the prefix of a reused row vector.
size_t SerializeBatch(std::span<const Record> batch, const Schema& schema,
                      ser::BufferWriter* out);

/// Decodes a batch previously written by SerializeBatch. The format is
/// self-describing (type tags ride in the batch header), so no schema is
/// needed on the read side. Each row's field vector is sized to its arity.
Status DeserializeBatch(ser::BufferReader* in, RecordBatch* out);

/// The same decode, with room reserved for max(arity, `width`) fields in
/// every row: a consumer whose operators append fields in place (the SP's
/// Joins) passes the widest arity its rows reach, so no append reallocates.
/// When `tags` is non-null it receives the header's schema type tags, so a
/// reader that expects one schema can reject a batch written by another.
Status DeserializeBatch(ser::BufferReader* in, RecordBatch* out,
                        size_t width, std::vector<ValueType>* tags = nullptr);

/// Writes one value with its inline type tag (the record-format payload
/// encoding). The batch format's non-conforming rows use it, so the two
/// wire formats agree on tagged-value bytes.
void WriteTaggedValue(const Value& v, ser::ChunkWriter* w);

/// Decodes one inline-tagged value written by WriteTaggedValue (or the
/// record format's field encoding).
Status ReadTaggedValue(ser::BufferReader* in, Value* out);

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_RECORD_H_
