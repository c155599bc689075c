#include "stream/group_aggregate.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "ser/buffer.h"

namespace jarvis::stream {

std::string_view AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

void GroupAggregateOp::Acc::AddValue(double v) {
  if (count == 0) {
    min = v;
    max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  count += 1;
  sum += v;
}

void GroupAggregateOp::Acc::Merge(const Acc& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

void GroupAggregateOp::Acc::AppendPartial(std::vector<Value>* fields) const {
  fields->emplace_back(count);
  fields->emplace_back(sum);
  fields->emplace_back(min);
  fields->emplace_back(max);
}

GroupAggregateOp::Acc GroupAggregateOp::Acc::FromPartial(
    const std::vector<Value>& fields, size_t at) {
  Acc acc;
  acc.count = std::get<int64_t>(fields[at]);
  acc.sum = std::get<double>(fields[at + 1]);
  acc.min = std::get<double>(fields[at + 2]);
  acc.max = std::get<double>(fields[at + 3]);
  return acc;
}

Value GroupAggregateOp::Acc::Finalize(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
      return Value(count);
    case AggKind::kSum:
      return Value(sum);
    case AggKind::kAvg:
      return Value(count == 0 ? 0.0 : sum / static_cast<double>(count));
    case AggKind::kMin:
      return Value(min);
    case AggKind::kMax:
      return Value(max);
  }
  return Value(int64_t{0});
}

Schema GroupAggregateOp::MakeOutputSchema(const Schema& input,
                                          const std::vector<size_t>& keys,
                                          const std::vector<AggSpec>& aggs) {
  std::vector<Schema::Field> fields;
  fields.reserve(keys.size() + aggs.size());
  for (size_t k : keys) fields.push_back(input.field(k));
  for (const AggSpec& a : aggs) {
    ValueType t =
        a.kind == AggKind::kCount ? ValueType::kInt64 : ValueType::kDouble;
    fields.push_back({a.out_name, t});
  }
  return Schema(std::move(fields));
}

GroupAggregateOp::GroupAggregateOp(std::string name,
                                   const Schema& input_schema,
                                   std::vector<size_t> key_fields,
                                   std::vector<AggSpec> aggs,
                                   Micros window_width, bool emit_partials)
    : Operator(std::move(name),
               MakeOutputSchema(input_schema, key_fields, aggs)),
      key_fields_(std::move(key_fields)),
      aggs_(std::move(aggs)),
      window_width_(window_width),
      emit_partials_(emit_partials) {
  std::vector<Schema::Field> fields;
  fields.reserve(key_fields_.size() + 4 * aggs_.size());
  for (size_t k = 0; k < key_fields_.size(); ++k) {
    fields.push_back({"", output_schema().field(k).type});
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    fields.push_back({"", ValueType::kInt64});
    for (int j = 0; j < 3; ++j) fields.push_back({"", ValueType::kDouble});
  }
  state_schema_ = Schema(std::move(fields));
}

void GroupAggregateOp::AppendKeyValue(const Value& v) {
  key_buf_.PutU8(static_cast<uint8_t>(TypeOf(v)));
  switch (TypeOf(v)) {
    case ValueType::kInt64:
      key_buf_.PutU64(static_cast<uint64_t>(std::get<int64_t>(v)));
      break;
    case ValueType::kDouble:
      key_buf_.PutDouble(std::get<double>(v));
      break;
    case ValueType::kString:
      key_buf_.PutString(std::get<std::string>(v));
      break;
  }
}

std::string_view GroupAggregateOp::EncodedKey() const {
  return std::string_view(
      reinterpret_cast<const char*>(key_buf_.data().data()), key_buf_.size());
}

Status GroupAggregateOp::DecodeKey(std::string_view key,
                                   std::vector<Value>* out) {
  ser::BufferReader r(reinterpret_cast<const uint8_t*>(key.data()),
                      key.size());
  while (!r.AtEnd()) {
    uint8_t type = 0;
    JARVIS_RETURN_IF_ERROR(r.GetU8(&type));
    switch (static_cast<ValueType>(type)) {
      case ValueType::kInt64: {
        uint64_t v = 0;
        JARVIS_RETURN_IF_ERROR(r.GetU64(&v));
        out->emplace_back(static_cast<int64_t>(v));
        break;
      }
      case ValueType::kDouble: {
        double v = 0.0;
        JARVIS_RETURN_IF_ERROR(r.GetDouble(&v));
        out->emplace_back(v);
        break;
      }
      case ValueType::kString: {
        std::string v;
        JARVIS_RETURN_IF_ERROR(r.GetString(&v));
        out->emplace_back(std::move(v));
        break;
      }
      default:
        return Status::Internal("corrupt group key");
    }
  }
  return Status::OK();
}

namespace {

// Big-endian word of key bytes [at, at + 8), zero-padded past the end:
// comparing two such words compares those bytes as unsigned, so words that
// differ order their keys, and only equal words need the full key.
uint64_t KeyWord(std::string_view key, size_t at) {
  uint64_t w = 0;
  for (size_t i = at; i < at + 8; ++i) {
    w = (w << 8) | (i < key.size() ? static_cast<uint8_t>(key[i]) : 0);
  }
  return w;
}

}  // namespace

void GroupAggregateOp::SortByKey(const GroupTable& groups,
                                 std::vector<uint32_t>* ids) {
  // The first 16 key bytes ride along as two words, so most comparisons
  // touch neither the arena nor key_begin: 32,768 two-int64 keys sort in
  // ~4 ms instead of ~6.5 ms (4-vCPU x86-64 guest).
  sort_keys_.clear();
  for (const uint32_t g : *ids) {
    const std::string_view key = groups.key(g);
    sort_keys_.push_back({KeyWord(key, 0), KeyWord(key, 8), g});
  }
  std::sort(sort_keys_.begin(), sort_keys_.end(),
            [&groups](const SortKey& a, const SortKey& b) {
              if (a.hi != b.hi) return a.hi < b.hi;
              if (a.lo != b.lo) return a.lo < b.lo;
              return groups.key(a.group) < groups.key(b.group);
            });
  for (size_t i = 0; i < ids->size(); ++i) (*ids)[i] = sort_keys_[i].group;
}

std::string_view GroupAggregateOp::GroupTable::key(uint32_t g) const {
  const size_t end = g + 1 < key_begin.size() ? key_begin[g + 1] : keys.size();
  return std::string_view(reinterpret_cast<const char*>(keys.data()) +
                              key_begin[g],
                          end - key_begin[g]);
}

uint32_t GroupAggregateOp::GroupTable::FindOrCreate(std::string_view key,
                                                    size_t width) {
  if (2 * (size() + 1) > slots.size()) {
    // Double, and re-place every group by its stored hash.
    std::vector<Slot> grown(std::max<size_t>(16, 2 * slots.size()));
    const size_t mask = grown.size() - 1;
    for (const Slot& s : slots) {
      if (s.group == kNoGroup) continue;
      size_t i = s.hash & mask;
      while (grown[i].group != kNoGroup) i = (i + 1) & mask;
      grown[i] = s;
    }
    slots = std::move(grown);
  }
  const uint32_t hash = ser::FrameChecksum(
      reinterpret_cast<const uint8_t*>(key.data()), key.size());
  const size_t mask = slots.size() - 1;
  size_t i = hash & mask;
  for (; slots[i].group != kNoGroup; i = (i + 1) & mask) {
    if (slots[i].hash == hash && this->key(slots[i].group) == key) {
      return slots[i].group;
    }
  }
  const auto g = static_cast<uint32_t>(size());
  slots[i] = {g, hash};
  key_begin.push_back(keys.size());
  keys.insert(keys.end(), key.begin(), key.end());
  accs.resize(accs.size() + width);
  dirty.push_back(0);
  return g;
}

void GroupAggregateOp::SeekWindow(Micros window_start, WindowCursor* cursor) {
  if (cursor->groups != nullptr && cursor->window_start == window_start) {
    return;
  }
  // std::map nodes are stable, so the cached pointer survives inserts of
  // other windows within the same batch.
  cursor->groups = &windows_[window_start];
  cursor->window_start = window_start;
  MarkDirty(window_start);
}

Status GroupAggregateOp::UpdateFromData(const Record& rec,
                                        WindowCursor* cursor) {
  if (rec.window_start < 0) {
    return Status::FailedPrecondition(
        "GroupAggregate requires windowed input (no window_start)");
  }
  key_buf_.Clear();
  for (size_t k : key_fields_) {
    if (k >= rec.fields.size()) {
      return Status::OutOfRange("group key index out of range");
    }
    AppendKeyValue(rec.fields[k]);
  }
  SeekWindow(rec.window_start, cursor);
  GroupTable& t = *cursor->groups;
  const uint32_t g = t.FindOrCreate(EncodedKey(), aggs_.size());
  t.Touch(g);
  Acc* accs = t.accs.data() + g * aggs_.size();
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    if (a.kind == AggKind::kCount) {
      accs[i].AddValue(0.0);
    } else {
      if (a.field >= rec.fields.size()) {
        return Status::OutOfRange("aggregate field index out of range");
      }
      accs[i].AddValue(rec.AsDouble(a.field));
    }
  }
  return Status::OK();
}

Status GroupAggregateOp::MergeFromPartial(const Record& rec,
                                          WindowCursor* cursor) {
  // Partial layout: keys..., then per agg: count(i64), sum(f64), min(f64),
  // max(f64).
  const size_t nk = key_fields_.size();
  const size_t expected = nk + 4 * aggs_.size();
  if (rec.fields.size() != expected) {
    return Status::SerializationError("partial record arity mismatch");
  }
  key_buf_.Clear();
  for (size_t k = 0; k < nk; ++k) AppendKeyValue(rec.fields[k]);
  SeekWindow(rec.window_start, cursor);
  GroupTable& t = *cursor->groups;
  const uint32_t g = t.FindOrCreate(EncodedKey(), aggs_.size());
  t.Touch(g);
  Acc* accs = t.accs.data() + g * aggs_.size();
  for (size_t i = 0; i < aggs_.size(); ++i) {
    accs[i].Merge(Acc::FromPartial(rec.fields, nk + 4 * i));
  }
  return Status::OK();
}

Status GroupAggregateOp::DoProcess(Record&& rec, RecordBatch* out) {
  (void)out;  // G+R emits on window close, not per record.
  WindowCursor cursor;
  if (rec.kind == RecordKind::kPartial) return MergeFromPartial(rec, &cursor);
  return UpdateFromData(rec, &cursor);
}

Status GroupAggregateOp::DoProcessBatch(RecordBatch* batch) {
  WindowCursor cursor;
  for (const Record& rec : *batch) {
    if (rec.kind == RecordKind::kPartial) {
      JARVIS_RETURN_IF_ERROR(MergeFromPartial(rec, &cursor));
    } else {
      JARVIS_RETURN_IF_ERROR(UpdateFromData(rec, &cursor));
    }
  }
  batch->clear();
  return Status::OK();
}

Status GroupAggregateOp::FillGroupRow(Micros window_start,
                                      const GroupTable& groups, uint32_t g,
                                      bool partial, Record* r) const {
  r->event_time = window_start + window_width_;
  r->window_start = window_start;
  r->kind = partial ? RecordKind::kPartial : RecordKind::kData;
  r->fields.clear();
  r->fields.reserve(key_fields_.size() + aggs_.size() * (partial ? 4 : 1));
  JARVIS_RETURN_IF_ERROR(DecodeKey(groups.key(g), &r->fields));
  const Acc* accs = groups.accs.data() + g * aggs_.size();
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (partial) {
      accs[i].AppendPartial(&r->fields);
    } else {
      r->fields.push_back(accs[i].Finalize(aggs_[i].kind));
    }
  }
  return Status::OK();
}

Status GroupAggregateOp::EmitWindow(Micros window_start,
                                    const GroupTable& groups,
                                    RecordBatch* out) {
  GrowForAppend(out, groups.size());
  ids_.resize(groups.size());
  std::iota(ids_.begin(), ids_.end(), uint32_t{0});
  SortByKey(groups, &ids_);
  for (const uint32_t g : ids_) {
    Record r;
    JARVIS_RETURN_IF_ERROR(
        FillGroupRow(window_start, groups, g, emit_partials_, &r));
    out->push_back(std::move(r));
  }
  return Status::OK();
}

Status GroupAggregateOp::OnWatermark(Micros wm, RecordBatch* out) {
  const size_t first = out->size();
  auto it = windows_.begin();
  while (it != windows_.end() && it->first + window_width_ <= wm) {
    if (delta_tracking_) {
      flushed_windows_.insert(it->first);
      dirty_windows_.erase(it->first);
    }
    JARVIS_RETURN_IF_ERROR(EmitWindow(it->first, it->second, out));
    it = windows_.erase(it);
  }
  CountOutputs(*out, first);
  return Status::OK();
}

Status GroupAggregateOp::ExportPartialState(RecordBatch* out) {
  const size_t first = out->size();
  const bool saved = emit_partials_;
  emit_partials_ = true;
  Status st;
  for (auto& [start, groups] : windows_) {
    if (delta_tracking_) {
      flushed_windows_.insert(start);
      dirty_windows_.erase(start);
    }
    st = EmitWindow(start, groups, out);
    if (!st.ok()) break;
  }
  emit_partials_ = saved;
  JARVIS_RETURN_IF_ERROR(st);
  windows_.clear();
  CountOutputs(*out, first);
  return Status::OK();
}

Status GroupAggregateOp::WriteWindowSection(ser::BufferWriter* w,
                                            Micros window_start,
                                            GroupTable& groups,
                                            bool dirty_only) {
  ids_.clear();
  if (dirty_only) {
    for (const uint32_t g : groups.dirty_ids) {
      if (groups.dirty[g]) ids_.push_back(g);
      groups.dirty[g] = 0;
    }
  } else {
    for (const uint32_t g : groups.dirty_ids) groups.dirty[g] = 0;
    ids_.resize(groups.size());
    std::iota(ids_.begin(), ids_.end(), uint32_t{0});
  }
  groups.dirty_ids.clear();
  SortByKey(groups, &ids_);
  const size_t n = ids_.size();
  if (section_rows_.size() < n) section_rows_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    JARVIS_RETURN_IF_ERROR(FillGroupRow(window_start, groups, ids_[i],
                                        /*partial=*/true, &section_rows_[i]));
  }
  section_buf_.Clear();
  SerializeBatch(std::span<const Record>(section_rows_.data(), n),
                 state_schema_, &section_buf_);
  WriteStateSection(w, window_start, section_buf_);
  return Status::OK();
}

Status GroupAggregateOp::ExportStateDelta(ser::BufferWriter* w,
                                          StateExport mode) {
  // Before the first export there is no "previous export" to delta against,
  // so a delta request degenerates to a full keyframe.
  const bool full = mode == StateExport::kFull || !delta_tracking_;
  delta_tracking_ = true;
  if (full) {
    w->PutVarU64(0);  // a keyframe re-encodes everything; no tombstones
    w->PutVarU64(windows_.size());
    for (auto& [start, groups] : windows_) {
      JARVIS_RETURN_IF_ERROR(
          WriteWindowSection(w, start, groups, /*dirty_only=*/false));
    }
  } else {
    // A window flushed and reopened since the previous export is both a
    // tombstone and a section: restore erases it, then rebuilds it from the
    // groups the new records created.
    w->PutVarU64(flushed_windows_.size());
    for (Micros start : flushed_windows_) w->PutVarI64(start);
    size_t n_sections = 0;
    for (Micros start : dirty_windows_) {
      n_sections += windows_.count(start) != 0 ? 1 : 0;
    }
    w->PutVarU64(n_sections);
    for (Micros start : dirty_windows_) {
      auto it = windows_.find(start);
      if (it != windows_.end()) {
        JARVIS_RETURN_IF_ERROR(
            WriteWindowSection(w, start, it->second, /*dirty_only=*/true));
      }
    }
  }
  flushed_windows_.clear();
  dirty_windows_.clear();
  return Status::OK();
}

Status GroupAggregateOp::RestoreWindowSection(Micros window_start,
                                              ser::BufferReader* section) {
  JARVIS_RETURN_IF_ERROR(DeserializeBatch(section, &section_rows_,
                                          /*width=*/0, &section_tags_));
  const std::vector<Schema::Field>& fields = state_schema_.fields();
  if (!std::equal(section_tags_.begin(), section_tags_.end(), fields.begin(),
                  fields.end(), [](ValueType t, const Schema::Field& f) {
                    return t == f.type;
                  })) {
    return Status::SerializationError(
        "checkpoint section does not match the group keys and aggregates");
  }
  // Conforming rows match state_schema_ by the check above; rows from the
  // inline-tagged lane are checked one by one.
  const size_t nk = key_fields_.size();
  GroupTable& groups = windows_[window_start];
  for (const Record& rec : section_rows_) {
    if (rec.fields.size() != state_schema_.num_fields()) {
      return Status::SerializationError("group row arity mismatch");
    }
    for (size_t j = nk; j < rec.fields.size(); ++j) {
      if (TypeOf(rec.fields[j]) != state_schema_.field(j).type) {
        return Status::SerializationError("accumulator type mismatch");
      }
    }
    key_buf_.Clear();
    for (size_t k = 0; k < nk; ++k) AppendKeyValue(rec.fields[k]);
    const uint32_t g = groups.FindOrCreate(EncodedKey(), aggs_.size());
    Acc* accs = groups.accs.data() + g * aggs_.size();
    for (size_t i = 0; i < aggs_.size(); ++i) {
      accs[i] = Acc::FromPartial(rec.fields, nk + 4 * i);
    }
    groups.dirty[g] = 0;
  }
  return Status::OK();
}

Status GroupAggregateOp::RestoreState(ser::BufferReader* r) {
  // The restored state is what the exporter's next delta is taken against.
  delta_tracking_ = true;
  return ReadStateDelta(
      r,
      [this](int64_t start) {
        windows_.erase(start);
        dirty_windows_.erase(start);
        flushed_windows_.erase(start);
        return Status::OK();
      },
      [this](int64_t start, ser::BufferReader* section) {
        JARVIS_RETURN_IF_ERROR(RestoreWindowSection(start, section));
        dirty_windows_.erase(start);
        flushed_windows_.erase(start);
        return Status::OK();
      });
}

}  // namespace jarvis::stream
