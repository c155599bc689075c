#include "reference.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "trace.h"

namespace blockbench {

namespace {

using jarvis::Micros;
using jarvis::Result;
using jarvis::Status;
using jarvis::stream::Record;
using jarvis::stream::RecordBatch;
using jarvis::stream::Value;
using jarvis::stream::ValueType;

constexpr Micros kWindow = jarvis::Seconds(kWindowEpochs);

using Groups = std::unordered_map<Key, Group, KeyHash>;

/// Field positions in the Pingmesh schema.
constexpr size_t kSrcIp = 0;
constexpr size_t kDstIp = 2;
constexpr size_t kRtt = 4;
constexpr size_t kErrCode = 5;

/// LogAnalytics (Listing 3), re-implemented: the patterns the filter keeps
/// and the statistics the parse extracts, in output-name order.
constexpr std::string_view kPatterns[] = {"tenant name", "job running time",
                                          "cpu util", "memory util"};
struct Stat {
  std::string_view key;
  std::string_view name;
  double scale;
};
constexpr Stat kStats[] = {{"job running time", "job_ms", 0.01},
                           {"cpu util", "cpu", 1.0},
                           {"memory util", "mem", 1.0}};

void AddValue(Group* g, double v) {
  if (g->count == 0) {
    g->min = v;
    g->max = v;
  } else {
    g->min = std::min(g->min, v);
    g->max = std::max(g->max, v);
  }
  ++g->count;
  g->sum += v;
}

int64_t TenantKey(std::string_view tenant) {
  return static_cast<int64_t>(std::hash<std::string_view>()(tenant) >> 1);
}

/// The text after the first "<key>=" up to the next space ("" when absent).
std::string_view ValueAfter(std::string_view s, std::string_view key) {
  for (size_t at = s.find(key); at != std::string_view::npos;
       at = s.find(key, at + 1)) {
    const size_t eq = at + key.size();
    if (eq < s.size() && s[eq] == '=') {
      const size_t begin = eq + 1;
      const size_t end = s.find(' ', begin);
      return s.substr(begin, end == std::string_view::npos ? end : end - begin);
    }
  }
  return {};
}

void PingmeshLoop(const RecordBatch& batch,
                  const std::unordered_map<int64_t, int64_t>* tor,
                  Groups* groups) {
  for (const Record& r : batch) {
    if (r.i64(kErrCode) != 0) continue;
    int64_t a = r.i64(kSrcIp);
    int64_t b = r.i64(kDstIp);
    if (tor != nullptr) {
      const auto x = tor->find(a);
      const auto y = tor->find(b);
      if (x == tor->end() || y == tor->end()) continue;
      a = x->second;
      b = y->second;
    }
    const Micros window = r.event_time - r.event_time % kWindow;
    AddValue(&(*groups)[Key{window, a, b}], r.f64(kRtt));
  }
}

void LogLoop(const RecordBatch& batch, std::string* line, Groups* groups) {
  for (const Record& r : batch) {
    const std::string& raw = r.str(0);
    const size_t b = raw.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    const size_t e = raw.find_last_not_of(" \t");
    line->assign(raw, b, e - b + 1);
    for (char& c : *line) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const std::string_view s = *line;
    bool keep = false;
    for (std::string_view p : kPatterns) keep = keep || s.find(p) != s.npos;
    if (!keep) continue;
    const std::string_view tenant = ValueAfter(s, "tenant name");
    if (tenant.empty()) continue;
    const int64_t tenant_key = TenantKey(tenant);
    const Micros window = r.event_time - r.event_time % kWindow;
    for (size_t i = 0; i < std::size(kStats); ++i) {
      const std::string_view v = ValueAfter(s, kStats[i].key);
      if (v.empty()) continue;
      const double x = std::stod(std::string(v)) * kStats[i].scale;
      const int64_t bucket =
          static_cast<int64_t>(std::clamp(std::floor(x / 10.0), 0.0, 9.0));
      ++(*groups)[Key{window, tenant_key,
                      static_cast<int64_t>(i) * 16 + bucket}]
            .count;
    }
  }
}

/// The values one result row carries.
struct RowValues {
  double avg = 0.0;
  double max = 0.0;
  double min = 0.0;
  int64_t count = 0;
};

bool Is(const Record& r, size_t i, ValueType t) {
  return i < r.fields.size() && jarvis::stream::TypeOf(r.fields[i]) == t;
}

/// Parses a system result row into its key and values; false when the row
/// does not have the query's result shape.
bool RowKey(QueryKind q, const Record& r, Key* k, RowValues* v) {
  k->window = r.window_start;
  if (q == QueryKind::kLog) {
    if (r.fields.size() != 4 || !Is(r, 0, ValueType::kString) ||
        !Is(r, 1, ValueType::kString) || !Is(r, 2, ValueType::kDouble) ||
        !Is(r, 3, ValueType::kInt64)) {
      return false;
    }
    size_t stat = std::size(kStats);
    for (size_t i = 0; i < std::size(kStats); ++i) {
      if (r.str(1) == kStats[i].name) stat = i;
    }
    if (stat == std::size(kStats)) return false;
    k->a = TenantKey(r.str(0));
    k->b = static_cast<int64_t>(stat) * 16 + static_cast<int64_t>(r.f64(2));
    v->count = r.i64(3);
    return true;
  }
  if (r.fields.size() != 5 || !Is(r, 0, ValueType::kInt64) ||
      !Is(r, 1, ValueType::kInt64) || !Is(r, 2, ValueType::kDouble) ||
      !Is(r, 3, ValueType::kDouble) || !Is(r, 4, ValueType::kDouble)) {
    return false;
  }
  k->a = r.i64(0);
  k->b = r.i64(1);
  v->avg = r.f64(2);
  v->max = r.f64(3);
  v->min = r.f64(4);
  return true;
}

bool Equal(QueryKind q, const Group& g, const RowValues& v) {
  if (q == QueryKind::kLog) return v.count == g.count;
  const double avg = g.sum / static_cast<double>(g.count);
  const double tol = 1e-9 * std::max(std::fabs(avg), std::fabs(v.avg));
  return std::fabs(avg - v.avg) <= tol && v.max == g.max && v.min == g.min;
}

/// Books the verdict of one settled window.
void Settle(QueryKind q, const Groups& groups, Verdict* v) {
  for (const auto& [key, g] : groups) {
    ++v->attempted;
    if (g.emitted == 0) {
      ++v->missing;
      ++v->merged_mismatch;
    } else if (g.emitted > 1) {
      ++v->duplicated;
      // Counts merge by addition; a split average cannot be merged back.
      if (q != QueryKind::kLog || g.merged_count != g.count) {
        ++v->merged_mismatch;
      }
    } else if (!g.equal) {
      ++v->different;
      ++v->merged_mismatch;
    }
  }
}

}  // namespace

size_t KeyHash::operator()(const Key& k) const {
  uint64_t h = jarvis::SplitMix64(static_cast<uint64_t>(k.window));
  h = jarvis::SplitMix64(h ^ static_cast<uint64_t>(k.a));
  h = jarvis::SplitMix64(h ^ static_cast<uint64_t>(k.b));
  return static_cast<size_t>(h);
}

RowSpill::~RowSpill() {
  if (file_ != nullptr) std::fclose(file_);
  std::remove(path_.c_str());
}

Status RowSpill::Open() {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) return Status::Internal("cannot open " + path_);
  return Status::OK();
}

void RowSpill::Append(const RecordBatch& rows) {
  if (file_ == nullptr || rows.empty()) return;
  buf_.Clear();
  for (const Record& r : rows) jarvis::stream::SerializeRecord(r, &buf_);
  const uint64_t len = buf_.size();
  if (std::fwrite(&len, sizeof(len), 1, file_) != 1 ||
      std::fwrite(buf_.data().data(), 1, buf_.size(), file_) != buf_.size()) {
    write_failed_ = true;
  }
}

Status RowSpill::Close() {
  if (file_ != nullptr && std::fclose(file_) != 0) write_failed_ = true;
  file_ = nullptr;
  if (write_failed_) return Status::Internal("cannot write " + path_);
  return Status::OK();
}

Result<CheckResult> CheckAgainstReference(const Workload& w,
                                          const Inputs& in,
                                          const std::string& spill_path,
                                          int64_t first, int64_t end) {
  // The join table of the T2T query, as a plain hash map built the way
  // MakeIpToTorTable builds the engine's.
  std::unordered_map<int64_t, int64_t> tor;
  if (w.query == QueryKind::kT2T) {
    for (int64_t ip = kT2tFirstIp; ip < kT2tFirstIp + T2tTableSize(w); ++ip) {
      tor.emplace(ip, ip / kServersPerTor);
    }
  }
  CheckResult result;
  Verdict& v = result.verdict;
  std::string line;
  // Open windows, oldest first: (window start, reference groups).
  std::deque<std::pair<Micros, Groups>> open;
  int64_t next_epoch = first;  // first epoch of the next window to compute
  const auto compute_through = [&](Micros window) {
    while (next_epoch < end && jarvis::Seconds(next_epoch) <= window) {
      open.emplace_back(jarvis::Seconds(next_epoch), Groups());
      Groups& groups = open.back().second;
      const int64_t t0 = NowNs();
      for (int64_t e = next_epoch; e < next_epoch + kWindowEpochs; ++e) {
        for (size_t s = 0; s < w.sources; ++s) {
          const RecordBatch batch =
              in.generate[s](jarvis::Seconds(e), jarvis::Seconds(e + 1));
          result.records += batch.size();
          if (w.query == QueryKind::kLog) {
            LogLoop(batch, &line, &groups);
          } else {
            PingmeshLoop(batch, w.query == QueryKind::kT2T ? &tor : nullptr,
                         &groups);
          }
        }
      }
      result.seconds += static_cast<double>(NowNs() - t0) * 1e-9;
      next_epoch += kWindowEpochs;
    }
  };
  const auto settle_before = [&](Micros window) {
    while (!open.empty() && open.front().first < window) {
      Settle(w.query, open.front().second, &v);
      open.pop_front();
    }
  };

  FILE* f = std::fopen(spill_path.c_str(), "rb");
  if (f == nullptr) return Status::Internal("cannot read " + spill_path);
  std::vector<uint8_t> block;
  Record rec;
  Status st;
  uint64_t len = 0;
  while (st.ok() && std::fread(&len, sizeof(len), 1, f) == 1) {
    block.resize(len);
    if (std::fread(block.data(), 1, len, f) != len) {
      st = Status::SerializationError("truncated spill block");
      break;
    }
    jarvis::ser::BufferReader reader(block);
    while (st.ok() && !reader.AtEnd()) {
      st = jarvis::stream::DeserializeRecord(&reader, &rec);
      if (!st.ok()) break;
      if (rec.window_start < jarvis::Seconds(first) ||
          rec.window_start >= jarvis::Seconds(end)) {
        continue;
      }
      compute_through(rec.window_start);
      settle_before(rec.window_start - kWindow);
      Key k;
      RowValues row;
      Group* g = nullptr;
      for (auto& [window, groups] : open) {
        if (window != rec.window_start || !RowKey(w.query, rec, &k, &row)) {
          continue;
        }
        const auto it = groups.find(k);
        if (it != groups.end()) g = &it->second;
      }
      if (g == nullptr) {
        ++v.extra;
        continue;
      }
      if (g->emitted == 0) g->equal = Equal(w.query, *g, row);
      g->merged_count += row.count;
      ++g->emitted;
    }
  }
  std::fclose(f);
  JARVIS_RETURN_IF_ERROR(st);
  compute_through(jarvis::Seconds(end));
  settle_before(jarvis::Seconds(end));
  return result;
}

uint64_t RowsDigest(const RecordBatch& rows) {
  uint64_t h = 0x6A09E667F3BCC909ULL;
  const auto mix = [&h](uint64_t x) { h = jarvis::SplitMix64(h ^ x); };
  for (const Record& r : rows) {
    mix(static_cast<uint64_t>(r.event_time));
    mix(static_cast<uint64_t>(r.window_start));
    mix(static_cast<uint64_t>(r.kind));
    mix(r.fields.size());
    for (const Value& f : r.fields) {
      mix(f.index());
      if (const int64_t* i = std::get_if<int64_t>(&f)) {
        mix(static_cast<uint64_t>(*i));
      } else if (const double* d = std::get_if<double>(&f)) {
        uint64_t bits = 0;
        std::memcpy(&bits, d, sizeof(bits));
        mix(bits);
      } else {
        const std::string& s = std::get<std::string>(f);
        mix(s.size());
        mix(std::hash<std::string>()(s));
      }
    }
  }
  return h;
}

}  // namespace blockbench
