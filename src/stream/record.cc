#include "stream/record.h"

#include <array>
#include <functional>
#include <sstream>

#include "ser/chunk_writer.h"
#include "ser/codec.h"

namespace jarvis::stream {

std::string ValueToString(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kInt64:
      return std::to_string(std::get<int64_t>(v));
    case ValueType::kDouble: {
      std::ostringstream os;
      os << std::get<double>(v);
      return os.str();
    }
    case ValueType::kString:
      return std::get<std::string>(v);
  }
  return "?";
}

double Record::AsDouble(size_t i) const {
  const Value& v = fields[i];
  if (TypeOf(v) == ValueType::kInt64) {
    return static_cast<double>(std::get<int64_t>(v));
  }
  return std::get<double>(v);
}

Result<size_t> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return Status::NotFound(std::string("no field named ") + std::string(name));
}

Schema Schema::Append(Field extra) const {
  std::vector<Field> f = fields_;
  f.push_back(std::move(extra));
  return Schema(std::move(f));
}

Schema Schema::Select(const std::vector<size_t>& indices) const {
  std::vector<Field> f;
  f.reserve(indices.size());
  for (size_t i : indices) {
    // Out-of-range indices are skipped here; operators validate them per
    // record and report OutOfRange at runtime.
    if (i < fields_.size()) f.push_back(fields_[i]);
  }
  return Schema(std::move(f));
}

std::string Schema::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += fields_[i].name;
    switch (fields_[i].type) {
      case ValueType::kInt64:
        out += ":i64";
        break;
      case ValueType::kDouble:
        out += ":f64";
        break;
      case ValueType::kString:
        out += ":str";
        break;
    }
  }
  out += "}";
  return out;
}

using ser::VarIntSize;

size_t WireSize(const Record& rec) {
  // kind (1) + event_time varint + window_start varint + field count varint.
  size_t n = 1 + VarIntSize(ser::ZigZagEncode(rec.event_time)) +
             VarIntSize(ser::ZigZagEncode(rec.window_start)) +
             VarIntSize(rec.fields.size());
  for (const Value& v : rec.fields) {
    n += 1;  // type tag
    switch (TypeOf(v)) {
      case ValueType::kInt64:
        n += VarIntSize(ser::ZigZagEncode(std::get<int64_t>(v)));
        break;
      case ValueType::kDouble:
        n += 8;
        break;
      case ValueType::kString: {
        const auto& s = std::get<std::string>(v);
        n += VarIntSize(s.size()) + s.size();
        break;
      }
    }
  }
  return n;
}

void SerializeRecord(const Record& rec, ser::BufferWriter* out) {
  out->PutU8(static_cast<uint8_t>(rec.kind));
  out->PutVarI64(rec.event_time);
  out->PutVarI64(rec.window_start);
  out->PutVarU64(rec.fields.size());
  for (const Value& v : rec.fields) {
    out->PutU8(static_cast<uint8_t>(TypeOf(v)));
    switch (TypeOf(v)) {
      case ValueType::kInt64:
        out->PutVarI64(std::get<int64_t>(v));
        break;
      case ValueType::kDouble:
        out->PutDouble(std::get<double>(v));
        break;
      case ValueType::kString:
        out->PutString(std::get<std::string>(v));
        break;
    }
  }
}

namespace {

/// Rejects a tagged-field count the reader's remaining bytes cannot hold
/// before anything is reserved for it: every tagged value takes at least
/// two bytes (its tag and a one-byte payload), so a count read from a few
/// corrupt bytes cannot make the decoder reserve megabytes.
Status CheckTaggedFieldCount(uint64_t nfields, const ser::BufferReader& in) {
  if (nfields > in.remaining() / 2) {
    return Status::SerializationError("implausible field count");
  }
  return Status::OK();
}

}  // namespace

Status DeserializeRecord(ser::BufferReader* in, Record* out) {
  uint8_t kind;
  JARVIS_RETURN_IF_ERROR(in->GetU8(&kind));
  if (kind > static_cast<uint8_t>(RecordKind::kPartial)) {
    return Status::SerializationError("bad record kind");
  }
  out->kind = static_cast<RecordKind>(kind);
  JARVIS_RETURN_IF_ERROR(in->GetVarI64(&out->event_time));
  JARVIS_RETURN_IF_ERROR(in->GetVarI64(&out->window_start));
  uint64_t nfields;
  JARVIS_RETURN_IF_ERROR(in->GetVarU64(&nfields));
  JARVIS_RETURN_IF_ERROR(CheckTaggedFieldCount(nfields, *in));
  out->fields.clear();
  out->fields.reserve(nfields);
  for (uint64_t i = 0; i < nfields; ++i) {
    Value v;
    JARVIS_RETURN_IF_ERROR(ReadTaggedValue(in, &v));
    out->fields.push_back(std::move(v));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Schema-elided batch format
// ---------------------------------------------------------------------------

namespace {

// Batch header flag bits (one flag byte per record).
constexpr uint8_t kFlagPartial = 0x01;     // RecordKind::kPartial
constexpr uint8_t kFlagConforming = 0x02;  // fields match the batch schema
constexpr uint8_t kFlagKnownMask = kFlagPartial | kFlagConforming;

// String column encodings (the byte each string column starts with).
constexpr uint8_t kStrPlain = 0;
constexpr uint8_t kStrDict = 1;

/// Most entries a string column's dictionary holds: codes are one byte.
constexpr size_t kMaxDictEntries = 255;

/// First-occurrence dictionary of a string column, in fixed storage so
/// building one allocates nothing. Entries are views into the batch's
/// records; `slots_` is an open-addressing table (linear probing, at most
/// half full) holding entry index + 1, 0 for empty.
class StringDict {
 public:
  /// The code of `s`, added as the next entry if new; -1 when `s` would be
  /// entry kMaxDictEntries + 1.
  int Code(std::string_view s) {
    // Sorted key columns repeat a value row after row: those skip the hash.
    if (last_ >= 0 && s == entries_[last_]) return last_;
    size_t i = std::hash<std::string_view>{}(s) & (kSlots - 1);
    while (slots_[i] != 0 && entries_[slots_[i] - 1] != s) {
      i = (i + 1) & (kSlots - 1);
    }
    if (slots_[i] == 0) {
      if (size_ == kMaxDictEntries) return -1;
      entries_[size_] = s;
      slots_[i] = static_cast<uint8_t>(++size_);
    }
    last_ = slots_[i] - 1;
    return last_;
  }
  size_t size() const { return size_; }
  std::string_view entry(size_t e) const { return entries_[e]; }

 private:
  static constexpr size_t kSlots = 512;
  std::array<std::string_view, kMaxDictEntries> entries_;
  std::array<uint8_t, kSlots> slots_{};
  size_t size_ = 0;
  int last_ = -1;  // the previous lookup's code
};

/// Emits column `j` of the conforming rows: the dictionary layout when the
/// column has at most 255 distinct values and that layout is smaller, the
/// plain layout otherwise.
void WriteStringColumn(std::span<const Record> batch,
                       const std::vector<uint8_t>& conforming, size_t j,
                       ser::ChunkWriter* w) {
  const auto value = [&](size_t i) -> const std::string& {
    return *std::get_if<std::string>(&batch[i].fields[j]);
  };
  StringDict dict;
  size_t values = 0, plain_bytes = 0, entry_bytes = 0;
  bool dict_fits = true;
  for (size_t i = 0; i < batch.size() && dict_fits; ++i) {
    if (!conforming[i]) continue;
    const std::string& s = value(i);
    const size_t bytes = VarIntSize(s.size()) + s.size();
    const size_t entries = dict.size();
    dict_fits = dict.Code(s) >= 0;
    if (dict.size() > entries) entry_bytes += bytes;
    plain_bytes += bytes;
    ++values;
  }
  const size_t dict_bytes = VarIntSize(dict.size()) + entry_bytes + values;
  if (dict_fits && dict_bytes < plain_bytes) {
    w->Byte(kStrDict);
    w->VarU64(dict.size());
    for (size_t e = 0; e < dict.size(); ++e) w->String(dict.entry(e));
    for (size_t i = 0; i < batch.size(); ++i) {
      if (conforming[i]) w->Byte(static_cast<uint8_t>(dict.Code(value(i))));
    }
    return;
  }
  w->Byte(kStrPlain);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (conforming[i]) w->String(value(i));
  }
}

}  // namespace

void WriteTaggedValue(const Value& v, ser::ChunkWriter* w) {
  w->Byte(static_cast<uint8_t>(TypeOf(v)));
  switch (TypeOf(v)) {
    case ValueType::kInt64:
      w->VarI64(std::get<int64_t>(v));
      break;
    case ValueType::kDouble:
      w->Double(std::get<double>(v));
      break;
    case ValueType::kString:
      w->String(std::get<std::string>(v));
      break;
  }
}

Status ReadTaggedValue(ser::BufferReader* in, Value* out) {
  uint8_t tag;
  JARVIS_RETURN_IF_ERROR(in->GetU8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kInt64: {
      int64_t v;
      JARVIS_RETURN_IF_ERROR(in->GetVarI64(&v));
      *out = v;
      return Status::OK();
    }
    case ValueType::kDouble: {
      double v;
      JARVIS_RETURN_IF_ERROR(in->GetDouble(&v));
      *out = v;
      return Status::OK();
    }
    case ValueType::kString: {
      std::string v;
      JARVIS_RETURN_IF_ERROR(in->GetString(&v));
      *out = std::move(v);
      return Status::OK();
    }
    default:
      return Status::SerializationError("bad value tag");
  }
}

Schema FirstRowSchema(const RecordBatch& rows) {
  if (rows.empty()) return Schema();
  std::vector<Schema::Field> fields;
  fields.reserve(rows.front().fields.size());
  for (const Value& v : rows.front().fields) fields.push_back({"", TypeOf(v)});
  return Schema(std::move(fields));
}

size_t SerializeBatch(std::span<const Record> batch, const Schema& schema,
                      ser::BufferWriter* out) {
  const size_t start = out->size();
  const size_t n = batch.size();
  const size_t nf = schema.num_fields();
  // Header + roughly flag/time bytes; the chunked column writer amortizes
  // the rest of the growth.
  out->Reserve(32 + nf + n * 8);
  out->PutU8(kBatchFormatVersion);
  // Integrity header: payload length + checksum, patched once the body is
  // written (the encoder stays single-pass, no staging buffer).
  const size_t len_pos = out->size();
  out->PutU32(0);
  out->PutU32(0);
  const size_t body_start = out->size();
  out->PutVarU64(n);
  out->PutVarU64(nf);
  for (size_t j = 0; j < nf; ++j) {
    out->PutU8(static_cast<uint8_t>(schema.field(j).type));
  }

  // Header rows: one flag byte plus two *delta-encoded* time varints per
  // record, in one pass; the payload follows as packed columns. Event times
  // are near-monotone, so deltas keep the varints at one or two bytes;
  // ser::DeltaEncoder makes the wraparound arithmetic exact.
  std::vector<uint8_t> conforming(n);
  ser::ChunkWriter w(out);
  ser::DeltaEncoder et_enc, ws_enc;
  for (size_t i = 0; i < n; ++i) {
    const Record& r = batch[i];
    conforming[i] = ConformsToSchema(r, schema) ? 1 : 0;
    uint8_t flags = r.kind == RecordKind::kPartial ? kFlagPartial : 0;
    if (conforming[i]) flags |= kFlagConforming;
    w.Header(flags, et_enc.Delta(r.event_time), ws_enc.Delta(r.window_start));
  }

  for (size_t j = 0; j < nf; ++j) {
    switch (schema.field(j).type) {
      // Types were verified by the conformance pass; get_if skips the
      // per-access variant check std::get would re-do.
      case ValueType::kInt64:
        for (size_t i = 0; i < n; ++i) {
          if (conforming[i]) w.VarI64(*std::get_if<int64_t>(&batch[i].fields[j]));
        }
        break;
      case ValueType::kDouble:
        for (size_t i = 0; i < n; ++i) {
          if (conforming[i]) w.Double(*std::get_if<double>(&batch[i].fields[j]));
        }
        break;
      case ValueType::kString:
        WriteStringColumn(batch, conforming, j, &w);
        break;
    }
  }

  // Non-conforming records (kPartial accumulator rows, schema-divergent
  // arities) carry their own tags, exactly like the record-at-a-time format.
  for (size_t i = 0; i < n; ++i) {
    if (conforming[i]) continue;
    w.VarU64(batch[i].fields.size());
    for (const Value& v : batch[i].fields) WriteTaggedValue(v, &w);
  }
  w.Flush();
  const size_t body_len = out->size() - body_start;
  out->PatchU32(len_pos, static_cast<uint32_t>(body_len));
  out->PatchU32(len_pos + 4,
                ser::FrameChecksum(out->data().data() + body_start, body_len));
  return out->size() - start;
}

namespace {

/// Decodes one string column (its encoding byte, then the values) onto the
/// conforming rows of `out`. A dictionary's entry count and codes are
/// outside input: the count is checked against the bytes left (one length
/// byte at least per entry) before any entry is read, and every code
/// against the count.
Status ReadStringColumn(ser::BufferReader* in,
                        const std::vector<uint8_t>& flags, RecordBatch* out) {
  uint8_t encoding;
  JARVIS_RETURN_IF_ERROR(in->GetU8(&encoding));
  const size_t n = out->size();
  if (encoding == kStrPlain) {
    for (size_t i = 0; i < n; ++i) {
      if (!(flags[i] & kFlagConforming)) continue;
      std::string v;
      JARVIS_RETURN_IF_ERROR(in->GetString(&v));
      (*out)[i].fields.emplace_back(std::move(v));
    }
    return Status::OK();
  }
  if (encoding != kStrDict) {
    return Status::SerializationError("bad string column encoding");
  }
  uint64_t size;
  JARVIS_RETURN_IF_ERROR(in->GetVarU64(&size));
  if (size == 0 || size > kMaxDictEntries || size > in->remaining()) {
    return Status::SerializationError("bad string dictionary size");
  }
  std::array<std::string_view, kMaxDictEntries> entries;
  for (uint64_t e = 0; e < size; ++e) {
    JARVIS_RETURN_IF_ERROR(in->GetStringView(&entries[e]));
  }
  for (size_t i = 0; i < n; ++i) {
    if (!(flags[i] & kFlagConforming)) continue;
    uint8_t code;
    JARVIS_RETURN_IF_ERROR(in->GetU8(&code));
    if (code >= size) {
      return Status::SerializationError("bad string dictionary code");
    }
    (*out)[i].fields.emplace_back(std::string(entries[code]));
  }
  return Status::OK();
}

/// Decodes the batch body (everything after the integrity header) and its
/// header's type tags. Each row reserves room for max(its arity, `width`)
/// fields.
Status DecodeBatchBody(ser::BufferReader* in, RecordBatch* out, size_t width,
                       std::vector<ValueType>* tags) {
  uint64_t n;
  JARVIS_RETURN_IF_ERROR(in->GetVarU64(&n));
  // Every record costs at least a flag byte plus two time varints, so a
  // count beyond the remaining bytes is corrupt (and a DoS guard).
  if (n > in->remaining()) {
    return Status::SerializationError("implausible batch record count");
  }
  uint64_t nf;
  JARVIS_RETURN_IF_ERROR(in->GetVarU64(&nf));
  // One tag byte per schema field.
  if (nf > in->remaining()) {
    return Status::SerializationError("implausible schema field count");
  }
  tags->resize(nf);
  for (uint64_t j = 0; j < nf; ++j) {
    uint8_t tag;
    JARVIS_RETURN_IF_ERROR(in->GetU8(&tag));
    if (tag > static_cast<uint8_t>(ValueType::kString)) {
      return Status::SerializationError("bad schema type tag");
    }
    (*tags)[j] = static_cast<ValueType>(tag);
  }

  // Decoded rows are not recycled: callers clear the batch first, and the
  // SP's G+R consumes every row it is pushed. So each row allocates its
  // field vector here, once, at max(arity, width), and the SP's Joins then
  // append in place. Sized to the wire arity alone, the first Join's append
  // reallocates it: 1.89 allocations per row ConsumeFrame consumes on
  // t2t_split, against 1.00 with the width (80 epochs, seeds 1-3).
  out->resize(n);
  std::vector<uint8_t> flags(n);
  ser::DeltaDecoder et_dec, ws_dec;
  // Column values the conforming rows so far need, one byte at least each:
  // more than the remaining bytes is corrupt, checked before reserving.
  uint64_t column_values = 0;
  const size_t conforming_reserve = std::max<size_t>(nf, width);
  for (uint64_t i = 0; i < n; ++i) {
    Record& rec = (*out)[i];
    JARVIS_RETURN_IF_ERROR(in->GetU8(&flags[i]));
    if ((flags[i] & ~kFlagKnownMask) != 0) {
      return Status::SerializationError("bad batch record flags");
    }
    rec.kind = (flags[i] & kFlagPartial) ? RecordKind::kPartial
                                         : RecordKind::kData;
    int64_t et_delta, ws_delta;
    JARVIS_RETURN_IF_ERROR(in->GetVarI64(&et_delta));
    JARVIS_RETURN_IF_ERROR(in->GetVarI64(&ws_delta));
    rec.event_time = et_dec.Next(et_delta);
    rec.window_start = ws_dec.Next(ws_delta);
    rec.fields.clear();
    if (flags[i] & kFlagConforming) {
      column_values += nf;
      if (column_values > in->remaining()) {
        return Status::SerializationError("implausible batch column size");
      }
      rec.fields.reserve(conforming_reserve);
    }
  }
  for (uint64_t j = 0; j < nf; ++j) {
    switch ((*tags)[j]) {
      case ValueType::kInt64:
        for (uint64_t i = 0; i < n; ++i) {
          if (!(flags[i] & kFlagConforming)) continue;
          int64_t v;
          JARVIS_RETURN_IF_ERROR(in->GetVarI64(&v));
          (*out)[i].fields.emplace_back(v);
        }
        break;
      case ValueType::kDouble:
        for (uint64_t i = 0; i < n; ++i) {
          if (!(flags[i] & kFlagConforming)) continue;
          double v;
          JARVIS_RETURN_IF_ERROR(in->GetDouble(&v));
          (*out)[i].fields.emplace_back(v);
        }
        break;
      case ValueType::kString:
        JARVIS_RETURN_IF_ERROR(ReadStringColumn(in, flags, out));
        break;
    }
  }

  for (uint64_t i = 0; i < n; ++i) {
    if (flags[i] & kFlagConforming) continue;
    Record& rec = (*out)[i];
    uint64_t nfields;
    JARVIS_RETURN_IF_ERROR(in->GetVarU64(&nfields));
    JARVIS_RETURN_IF_ERROR(CheckTaggedFieldCount(nfields, *in));
    rec.fields.reserve(std::max<size_t>(nfields, width));
    for (uint64_t f = 0; f < nfields; ++f) {
      Value v;
      JARVIS_RETURN_IF_ERROR(ReadTaggedValue(in, &v));
      rec.fields.push_back(std::move(v));
    }
  }
  return Status::OK();
}

}  // namespace

Status DeserializeBatch(ser::BufferReader* in, RecordBatch* out) {
  return DeserializeBatch(in, out, /*width=*/0);
}

Status DeserializeBatch(ser::BufferReader* in, RecordBatch* out,
                        size_t width, std::vector<ValueType>* tags) {
  uint8_t version;
  JARVIS_RETURN_IF_ERROR(in->GetU8(&version));
  if (version != kBatchFormatVersion) {
    return Status::SerializationError("bad batch format version");
  }
  uint32_t body_len, crc;
  JARVIS_RETURN_IF_ERROR(in->GetU32(&body_len));
  JARVIS_RETURN_IF_ERROR(in->GetU32(&crc));
  if (body_len > in->remaining()) {
    return Status::SerializationError("truncated batch frame");
  }
  if (ser::FrameChecksum(in->cursor(), body_len) != crc) {
    return Status::SerializationError("batch frame checksum mismatch");
  }
  // Bounded body decode: corruption can never read past the frame, and a
  // short decode (trailing garbage inside the frame) is itself corruption.
  ser::BufferReader body(in->cursor(), body_len);
  std::vector<ValueType> header_tags;
  JARVIS_RETURN_IF_ERROR(DecodeBatchBody(
      &body, out, width, tags != nullptr ? tags : &header_tags));
  if (!body.AtEnd()) {
    return Status::SerializationError("batch frame payload length mismatch");
  }
  in->Advance(body_len);
  return Status::OK();
}

}  // namespace jarvis::stream
