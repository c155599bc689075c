#include "stream/columnar.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "ser/chunk_writer.h"
#include "ser/codec.h"
#include "stream/kernels.h"

namespace jarvis::stream {

namespace {

/// True when the record can live in the dense columns: kData kind and an
/// exact arity/type match against the schema. kPartial rows always take the
/// fallback lane even when their fields happen to match — their kind bit
/// must survive every structural edit, and the row lane does that for free.
bool IsDenseRow(const Record& rec, const Schema& schema) {
  return rec.kind == RecordKind::kData && ConformsToSchema(rec, schema);
}

}  // namespace

void ColumnarBatch::Reset(Schema schema) {
  schema_ = std::move(schema);
  const size_t nf = schema_.num_fields();
  columns_.resize(nf);
  for (size_t j = 0; j < nf; ++j) {
    columns_[j].type = schema_.field(j).type;
    columns_[j].Clear();
  }
  event_time_.clear();
  window_start_.clear();
  is_dense_.clear();
  fallback_.clear();
}

void ColumnarBatch::Clear() {
  for (Column& c : columns_) c.Clear();
  event_time_.clear();
  window_start_.clear();
  is_dense_.clear();
  fallback_.clear();
}

void ColumnarBatch::AppendRow(Record&& rec) {
  if (!IsDenseRow(rec, schema_)) {
    is_dense_.push_back(0);
    fallback_.push_back(std::move(rec));
    return;
  }
  event_time_.push_back(rec.event_time);
  window_start_.push_back(rec.window_start);
  for (size_t j = 0; j < columns_.size(); ++j) {
    Column& col = columns_[j];
    switch (col.type) {
      case ValueType::kInt64:
        col.i64.push_back(*std::get_if<int64_t>(&rec.fields[j]));
        break;
      case ValueType::kDouble:
        col.f64.push_back(*std::get_if<double>(&rec.fields[j]));
        break;
      case ValueType::kString:
        col.str.push_back(std::move(*std::get_if<std::string>(&rec.fields[j])));
        break;
    }
  }
  is_dense_.push_back(1);
}

Record ColumnarBatch::MaterializeDense(size_t d) {
  Record rec;
  rec.event_time = event_time_[d];
  rec.window_start = window_start_[d];
  rec.fields.reserve(columns_.size());
  for (Column& col : columns_) {
    switch (col.type) {
      case ValueType::kInt64:
        rec.fields.emplace_back(col.i64[d]);
        break;
      case ValueType::kDouble:
        rec.fields.emplace_back(col.f64[d]);
        break;
      case ValueType::kString:
        rec.fields.emplace_back(std::move(col.str[d]));
        break;
    }
  }
  return rec;
}

void ColumnarBatch::MoveToRows(RecordBatch* out) {
  GrowForAppend(out, num_rows());
  size_t d = 0, fb = 0;
  for (uint8_t dense : is_dense_) {
    if (dense) {
      out->push_back(MaterializeDense(d++));
    } else {
      out->push_back(std::move(fallback_[fb++]));
    }
  }
  Clear();
}

// ---------------------------------------------------------------------------
// Columnar wire format
// ---------------------------------------------------------------------------

namespace {

// Per-row flag values carried in the RLE section. Dense rows are kData by
// construction, so the two bits are mutually exclusive.
constexpr uint8_t kColFlagPartial = 0x01;
constexpr uint8_t kColFlagDense = 0x02;

// String columns: per-column encoding marker.
constexpr uint8_t kStrPlain = 0;
constexpr uint8_t kStrDict = 1;

uint8_t RowFlags(const ColumnarBatch& batch, size_t row, size_t* fb) {
  if (batch.density()[row]) return kColFlagDense;
  const Record& rec = batch.fallback()[(*fb)++];
  return rec.kind == RecordKind::kPartial ? kColFlagPartial : 0;
}

/// Block size for the kernelized delta+zigzag varint column steps: values
/// are staged (or encoded) kEncBlock at a time through stack buffers, so
/// column emission is a sequence of KernelTable::delta_varint_encode calls
/// plus bulk byte appends, with no per-value writer hop.
constexpr size_t kEncBlock = 512;

/// Emits one time column (over ALL rows in row order, merging the packed
/// dense array with the fallback records) as delta + zigzag varints. The
/// all-dense fast path encodes straight from the packed array; mixed
/// batches stage each block through a gather buffer first. Delta arithmetic
/// lives in ser::DeltaEncoder/the kernels: it goes through uint64_t so
/// wraparound is well-defined and the decoder's addition inverts it exactly.
template <typename GetFallbackTime>
void WriteTimeColumn(const ColumnarBatch& batch,
                     const std::vector<Micros>& dense_times,
                     GetFallbackTime get_fb, ser::ChunkWriter* w) {
  const kernels::KernelTable& k = kernels::Active();
  uint8_t enc[kEncBlock * 10];
  uint64_t prev = 0;
  if (batch.num_fallback() == 0) {
    const int64_t* p = dense_times.data();  // Micros is int64_t
    const size_t n = dense_times.size();
    for (size_t off = 0; off < n; off += kEncBlock) {
      const size_t m = std::min(kEncBlock, n - off);
      w->Bytes(enc, k.delta_varint_encode(p + off, m, &prev, enc));
    }
    return;
  }
  int64_t vals[kEncBlock];
  const std::vector<uint8_t>& density = batch.density();
  const size_t n = density.size();
  size_t d = 0, fb = 0;
  for (size_t r = 0; r < n;) {
    size_t m = 0;
    for (; m < kEncBlock && r < n; ++r) {
      vals[m++] = density[r] ? dense_times[d++] : get_fb(batch.fallback()[fb++]);
    }
    w->Bytes(enc, k.delta_varint_encode(vals, m, &prev, enc));
  }
}

void WriteStringColumn(const std::vector<std::string>& values,
                       ser::ChunkWriter* w) {
  using ser::VarIntSize;
  // First-occurrence dictionary, u8 codes. Worth it only when the column is
  // low-cardinality; the encoder compares exact encoded sizes and keeps the
  // plain layout otherwise. Codes are captured during the sizing scan so
  // the emit pass never re-hashes a value.
  std::unordered_map<std::string_view, uint8_t> dict;
  std::vector<const std::string*> entries;
  std::vector<uint8_t> codes;
  codes.reserve(values.size());
  size_t plain_bytes = 0, dict_entry_bytes = 0;
  bool dict_viable = true;
  for (const std::string& s : values) {
    plain_bytes += VarIntSize(s.size()) + s.size();
    if (!dict_viable) continue;
    const auto [it, inserted] =
        dict.try_emplace(s, static_cast<uint8_t>(dict.size()));
    if (inserted) {
      if (dict.size() > 255) {
        dict_viable = false;
        continue;
      }
      entries.push_back(&s);
      dict_entry_bytes += VarIntSize(s.size()) + s.size();
    }
    codes.push_back(it->second);
  }
  const size_t dict_bytes =
      VarIntSize(dict.size()) + dict_entry_bytes + values.size();
  if (dict_viable && dict_bytes < plain_bytes) {
    w->Byte(kStrDict);
    w->VarU64(dict.size());
    for (const std::string* s : entries) w->String(*s);
    for (uint8_t code : codes) w->Byte(code);
    return;
  }
  w->Byte(kStrPlain);
  for (const std::string& s : values) w->String(s);
}

}  // namespace

size_t SerializeColumnar(const ColumnarBatch& batch, ser::BufferWriter* out) {
  const size_t start = out->size();
  const size_t n = batch.num_rows();
  const size_t nf = batch.num_columns();
  out->Reserve(32 + nf + n * 4);
  out->PutU8(kColumnFormatVersion);
  // Integrity header: payload length + checksum, patched in place once the
  // body is written (the encoder stays single-pass, no staging buffer).
  const size_t len_pos = out->size();
  out->PutU32(0);
  out->PutU32(0);
  const size_t body_start = out->size();
  out->PutVarU64(n);
  out->PutVarU64(nf);
  for (size_t j = 0; j < nf; ++j) {
    out->PutU8(static_cast<uint8_t>(batch.schema().field(j).type));
  }

  ser::ChunkWriter w(out);

  // Row flags, run-length encoded: long stretches of conforming data rows
  // (the common case) cost two bytes total instead of one byte per record.
  {
    size_t fb = 0;
    size_t run_start = 0;
    uint8_t run_flag = 0;
    for (size_t r = 0; r < n; ++r) {
      const uint8_t f = RowFlags(batch, r, &fb);
      if (r == 0) {
        run_flag = f;
        continue;
      }
      if (f != run_flag) {
        w.Byte(run_flag);
        w.VarU64(r - run_start);
        run_start = r;
        run_flag = f;
      }
    }
    if (n > 0) {
      w.Byte(run_flag);
      w.VarU64(n - run_start);
    }
  }

  // Time columns over all rows; near-monotone event times delta down to one
  // or two bytes each.
  WriteTimeColumn(batch, batch.event_times(),
                  [](const Record& r) { return r.event_time; }, &w);
  WriteTimeColumn(batch, batch.window_starts(),
                  [](const Record& r) { return r.window_start; }, &w);

  // Dense value columns with per-type encodings.
  const size_t ndense = batch.num_dense();
  for (size_t j = 0; j < nf; ++j) {
    const Column& col = batch.column(j);
    switch (col.type) {
      case ValueType::kInt64: {
        const kernels::KernelTable& k = kernels::Active();
        uint8_t enc[kEncBlock * 10];
        uint64_t prev = 0;
        for (size_t off = 0; off < ndense; off += kEncBlock) {
          const size_t m = std::min(kEncBlock, ndense - off);
          w.Bytes(enc, k.delta_varint_encode(col.i64.data() + off, m, &prev,
                                             enc));
        }
        break;
      }
      case ValueType::kDouble:
        for (double v : col.f64) w.Double(v);
        break;
      case ValueType::kString:
        if (ndense > 0) WriteStringColumn(col.str, &w);
        break;
    }
  }

  // Fallback rows carry their own tags, exactly like the record format.
  for (const Record& rec : batch.fallback()) {
    w.VarU64(rec.fields.size());
    for (const Value& v : rec.fields) WriteTaggedValue(v, &w);
  }
  w.Flush();
  const size_t body_len = out->size() - body_start;
  out->PatchU32(len_pos, static_cast<uint32_t>(body_len));
  out->PatchU32(len_pos + 4,
                ser::FrameChecksum(out->data().data() + body_start, body_len));
  return out->size() - start;
}

Status DeserializeColumnarBatch(ser::BufferReader* in, ColumnarBatch* out) {
  // Decodes the frame body straight into column form: dense values land in
  // the typed column vectors / packed time arrays in bulk, fallback rows
  // rebuild their records.
  const auto decode_body = [out](ser::BufferReader* in) -> Status {
    uint64_t n;
    JARVIS_RETURN_IF_ERROR(in->GetVarU64(&n));
    if (n > in->remaining()) {
      return Status::SerializationError("implausible columnar record count");
    }
    uint64_t nf;
    JARVIS_RETURN_IF_ERROR(in->GetVarU64(&nf));
    if (nf > (1u << 20)) {
      return Status::SerializationError("implausible schema field count");
    }
    // The wire is name-free, so the reconstructed schema carries empty field
    // names; the checkpoint restore that reads it is positional.
    std::vector<Schema::Field> decoded_fields(nf);
    for (uint64_t j = 0; j < nf; ++j) {
      uint8_t tag;
      JARVIS_RETURN_IF_ERROR(in->GetU8(&tag));
      if (tag > static_cast<uint8_t>(ValueType::kString)) {
        return Status::SerializationError("bad schema type tag");
      }
      decoded_fields[j].type = static_cast<ValueType>(tag);
    }
    out->Reset(Schema(std::move(decoded_fields)));

    // Flags RLE -> density bitmap + pre-created fallback records (kind set
    // now; times and fields filled by the later passes in row order).
    std::vector<uint8_t> flags(n);
    uint64_t covered = 0;
    while (covered < n) {
      uint8_t f;
      JARVIS_RETURN_IF_ERROR(in->GetU8(&f));
      if (f != 0 && f != kColFlagPartial && f != kColFlagDense) {
        return Status::SerializationError("bad columnar row flags");
      }
      uint64_t run;
      JARVIS_RETURN_IF_ERROR(in->GetVarU64(&run));
      if (run == 0 || run > n - covered) {
        return Status::SerializationError("bad columnar flag run length");
      }
      std::fill(flags.begin() + covered, flags.begin() + covered + run, f);
      covered += run;
    }
    uint64_t ndense = 0;
    out->is_dense_.resize(n);
    for (uint64_t r = 0; r < n; ++r) {
      const bool dense = (flags[r] & kColFlagDense) != 0;
      out->is_dense_[r] = dense ? 1 : 0;
      if (dense) {
        ++ndense;
      } else {
        Record rec;
        rec.kind = (flags[r] & kColFlagPartial) ? RecordKind::kPartial
                                                : RecordKind::kData;
        out->fallback_.push_back(std::move(rec));
      }
    }

    // Time columns: kernel block decode, dense values appended to the packed
    // arrays, fallback values scattered onto their records in row order.
    const kernels::KernelTable& k = kernels::Active();
    int64_t vals[kEncBlock];
    const auto decode_times = [&](std::vector<Micros>* dense_times,
                                  auto set_fb) -> Status {
      dense_times->reserve(ndense);
      uint64_t prev = 0;
      size_t fb = 0;
      for (uint64_t r = 0; r < n;) {
        const size_t m = std::min<uint64_t>(kEncBlock, n - r);
        const size_t used = k.delta_varint_decode(in->cursor(),
                                                  in->remaining(), m, &prev,
                                                  vals);
        if (used == 0) {
          return Status::SerializationError("bad time column varint");
        }
        in->Advance(used);
        for (size_t j = 0; j < m; ++j) {
          if (flags[r + j] & kColFlagDense) {
            dense_times->push_back(vals[j]);
          } else {
            set_fb(out->fallback_[fb++], vals[j]);
          }
        }
        r += m;
      }
      return Status::OK();
    };
    JARVIS_RETURN_IF_ERROR(decode_times(
        &out->event_time_,
        [](Record& rec, Micros t) { rec.event_time = t; }));
    JARVIS_RETURN_IF_ERROR(decode_times(
        &out->window_start_,
        [](Record& rec, Micros t) { rec.window_start = t; }));

    // Dense value columns decode contiguously into the column vectors — the
    // bulk fast path this decoder exists for.
    for (uint64_t j = 0; j < nf; ++j) {
      Column& col = out->columns_[j];
      switch (col.type) {
        case ValueType::kInt64: {
          col.i64.resize(ndense);
          uint64_t prev = 0;
          uint64_t done = 0;
          while (done < ndense) {
            const size_t m = std::min<uint64_t>(kEncBlock, ndense - done);
            const size_t used =
                k.delta_varint_decode(in->cursor(), in->remaining(), m, &prev,
                                      col.i64.data() + done);
            if (used == 0) {
              return Status::SerializationError("bad int64 column varint");
            }
            in->Advance(used);
            done += m;
          }
          break;
        }
        case ValueType::kDouble:
          col.f64.resize(ndense);
          for (uint64_t i = 0; i < ndense; ++i) {
            JARVIS_RETURN_IF_ERROR(in->GetDouble(&col.f64[i]));
          }
          break;
        case ValueType::kString: {
          if (ndense == 0) break;
          uint8_t marker;
          JARVIS_RETURN_IF_ERROR(in->GetU8(&marker));
          col.str.reserve(ndense);
          if (marker == kStrDict) {
            uint64_t dict_size;
            JARVIS_RETURN_IF_ERROR(in->GetVarU64(&dict_size));
            if (dict_size == 0 || dict_size > 255) {
              return Status::SerializationError("bad string dictionary size");
            }
            std::vector<std::string> dict(dict_size);
            for (uint64_t e = 0; e < dict_size; ++e) {
              JARVIS_RETURN_IF_ERROR(in->GetString(&dict[e]));
            }
            for (uint64_t i = 0; i < ndense; ++i) {
              uint8_t code;
              JARVIS_RETURN_IF_ERROR(in->GetU8(&code));
              if (code >= dict_size) {
                return Status::SerializationError("bad string dictionary code");
              }
              col.str.push_back(dict[code]);
            }
          } else if (marker == kStrPlain) {
            for (uint64_t i = 0; i < ndense; ++i) {
              std::string v;
              JARVIS_RETURN_IF_ERROR(in->GetString(&v));
              col.str.push_back(std::move(v));
            }
          } else {
            return Status::SerializationError("bad string column marker");
          }
          break;
        }
      }
    }

    // Fallback rows (inline-tagged), in row order.
    {
      size_t fb = 0;
      for (uint64_t r = 0; r < n; ++r) {
        if (flags[r] & kColFlagDense) continue;
        Record& rec = out->fallback_[fb++];
        uint64_t nfields;
        JARVIS_RETURN_IF_ERROR(in->GetVarU64(&nfields));
        if (nfields > (1u << 20)) {
          return Status::SerializationError("implausible field count");
        }
        rec.fields.reserve(nfields);
        for (uint64_t f = 0; f < nfields; ++f) {
          Value v;
          JARVIS_RETURN_IF_ERROR(ReadTaggedValue(in, &v));
          rec.fields.push_back(std::move(v));
        }
      }
    }
    return Status::OK();
  };

  uint8_t version;
  JARVIS_RETURN_IF_ERROR(in->GetU8(&version));
  if (version != kColumnFormatVersion) {
    return Status::SerializationError("bad columnar format version");
  }
  uint32_t body_len, crc;
  JARVIS_RETURN_IF_ERROR(in->GetU32(&body_len));
  JARVIS_RETURN_IF_ERROR(in->GetU32(&crc));
  if (body_len > in->remaining()) {
    return Status::SerializationError("truncated columnar frame");
  }
  if (ser::FrameChecksum(in->cursor(), body_len) != crc) {
    return Status::SerializationError("columnar frame checksum mismatch");
  }
  ser::BufferReader body(in->cursor(), body_len);
  JARVIS_RETURN_IF_ERROR(decode_body(&body));
  if (!body.AtEnd()) {
    return Status::SerializationError("columnar frame payload length mismatch");
  }
  in->Advance(body_len);
  return Status::OK();
}

}  // namespace jarvis::stream
