#include "core/overload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/env.h"
#include "common/rng.h"

namespace jarvis::core {

namespace {

constexpr std::string_view kTrafficKindNames[] = {"burst", "ramp", "skew",
                                                  "leave"};

/// Multipliers beyond this are implausible and would only blow up memory;
/// the shaper clamps rather than erroring so ramp endpoints stay scriptable.
constexpr double kMaxRateMultiplier = 64.0;

Result<TrafficKind> ParseTrafficKind(std::string_view s) {
  for (size_t i = 0; i < std::size(kTrafficKindNames); ++i) {
    if (s == kTrafficKindNames[i]) return static_cast<TrafficKind>(i);
  }
  return Status::InvalidArgument("unknown traffic kind: " + std::string(s));
}

Result<uint64_t> ParseTrafficU64(std::string_view s) {
  uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("bad number in traffic spec: " +
                                   std::string(s));
  }
  return v;
}

uint64_t DefaultFactor(TrafficKind kind) {
  switch (kind) {
    case TrafficKind::kBurst:
    case TrafficKind::kRamp:
      return 4;
    case TrafficKind::kSkew:
      return 50;
    case TrafficKind::kLeave:
      return 1;
  }
  return 1;
}

/// Deterministic per-record coin in [0, 1): a pure function of the plan
/// seed and the (source, epoch, record index, salt) coordinates, so shaped
/// output is identical across thread counts and on crash replay.
double Hash01(uint64_t seed, size_t source, int64_t epoch, uint64_t index,
              uint64_t salt) {
  const uint64_t coord = (static_cast<uint64_t>(source) << 40) ^
                         (static_cast<uint64_t>(epoch) << 8) ^ salt;
  const uint64_t h = SplitMix64(seed ^ SplitMix64(coord) ^
                                index * 0x9e3779b97f4a7c15ULL);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr uint64_t kReplicateSalt = 0x5eed;
constexpr uint64_t kSkewSalt = 0xabcd;

bool Active(const TrafficEvent& ev, size_t source, int64_t epoch) {
  return ev.source == source && epoch >= ev.epoch &&
         epoch < ev.epoch + ev.count;
}

}  // namespace

std::string_view TrafficKindToString(TrafficKind k) {
  return kTrafficKindNames[static_cast<size_t>(k)];
}

Result<TrafficPlan> TrafficPlan::Parse(std::string_view spec) {
  TrafficPlan plan;
  while (!spec.empty()) {
    const size_t semi = spec.find(';');
    std::string_view tok = spec.substr(0, semi);
    spec = (semi == std::string_view::npos) ? std::string_view()
                                            : spec.substr(semi + 1);
    if (tok.empty()) continue;
    if (tok.substr(0, 5) == "seed=") {
      JARVIS_ASSIGN_OR_RETURN(plan.seed, ParseTrafficU64(tok.substr(5)));
      continue;
    }
    // kind@epoch:source[#field][xcount][*factor]
    const size_t at = tok.find('@');
    if (at == std::string_view::npos) {
      return Status::InvalidArgument("traffic event missing '@': " +
                                     std::string(tok));
    }
    TrafficEvent ev;
    JARVIS_ASSIGN_OR_RETURN(ev.kind, ParseTrafficKind(tok.substr(0, at)));
    std::string_view rest = tok.substr(at + 1);
    const size_t colon = rest.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("traffic event missing ':': " +
                                     std::string(tok));
    }
    JARVIS_ASSIGN_OR_RETURN(uint64_t epoch,
                            ParseTrafficU64(rest.substr(0, colon)));
    ev.epoch = static_cast<int64_t>(epoch);
    rest = rest.substr(colon + 1);
    // Optional suffixes, innermost-last: #field, then xcount, then *factor.
    const size_t star = rest.find('*');
    std::string_view factor_part;
    if (star != std::string_view::npos) {
      factor_part = rest.substr(star + 1);
      rest = rest.substr(0, star);
      if (factor_part.empty()) {
        return Status::InvalidArgument(
            "traffic event has '*' but no factor: " + std::string(tok));
      }
    }
    const size_t x = rest.find('x');
    std::string_view count_part;
    if (x != std::string_view::npos) {
      count_part = rest.substr(x + 1);
      rest = rest.substr(0, x);
      if (count_part.empty()) {
        return Status::InvalidArgument("traffic event has 'x' but no count: " +
                                       std::string(tok));
      }
    }
    const size_t hash = rest.find('#');
    std::string_view field_part;
    if (hash != std::string_view::npos) {
      field_part = rest.substr(hash + 1);
      rest = rest.substr(0, hash);
      if (field_part.empty()) {
        return Status::InvalidArgument("traffic event has '#' but no field: " +
                                       std::string(tok));
      }
    }
    JARVIS_ASSIGN_OR_RETURN(uint64_t source, ParseTrafficU64(rest));
    ev.source = static_cast<size_t>(source);
    if (!field_part.empty()) {
      JARVIS_ASSIGN_OR_RETURN(uint64_t field, ParseTrafficU64(field_part));
      ev.field = static_cast<size_t>(field);
    }
    if (!count_part.empty()) {
      JARVIS_ASSIGN_OR_RETURN(uint64_t count, ParseTrafficU64(count_part));
      if (count == 0) {
        return Status::InvalidArgument("traffic count must be positive");
      }
      ev.count = static_cast<int>(count);
    }
    if (!factor_part.empty()) {
      JARVIS_ASSIGN_OR_RETURN(ev.factor, ParseTrafficU64(factor_part));
      if (ev.factor == 0) {
        return Status::InvalidArgument("traffic factor must be positive");
      }
    } else {
      ev.factor = DefaultFactor(ev.kind);
    }
    plan.events.push_back(ev);
  }
  return plan;
}

std::string TrafficPlan::ToString() const {
  std::string out = "seed=" + std::to_string(seed);
  for (const TrafficEvent& ev : events) {
    out += ';';
    out += TrafficKindToString(ev.kind);
    out += '@' + std::to_string(ev.epoch) + ':' + std::to_string(ev.source);
    if (ev.field != 0) out += '#' + std::to_string(ev.field);
    if (ev.count != 1) out += 'x' + std::to_string(ev.count);
    if (ev.factor != DefaultFactor(ev.kind)) {
      out += '*' + std::to_string(ev.factor);
    }
  }
  return out;
}

Result<std::unique_ptr<TrafficShaper>> TrafficShaper::FromEnv() {
  std::optional<std::string> spec = env::Raw("JARVIS_TRAFFIC");
  if (!spec) return std::unique_ptr<TrafficShaper>();
  Result<TrafficPlan> plan = TrafficPlan::Parse(*spec);
  if (!plan.ok()) {
    return Status::InvalidArgument("JARVIS_TRAFFIC: " +
                                   plan.status().message());
  }
  return std::make_unique<TrafficShaper>(*std::move(plan));
}

double TrafficShaper::RateMultiplier(size_t source, int64_t epoch) const {
  double m = 1.0;
  for (const TrafficEvent& ev : plan_.events) {
    if (!Active(ev, source, epoch)) continue;
    switch (ev.kind) {
      case TrafficKind::kBurst:
        m *= static_cast<double>(ev.factor);
        break;
      case TrafficKind::kRamp: {
        // Linear climb toward the peak: offset k of a count-epoch ramp runs
        // at 1 + (factor-1) * (k+1)/count, hitting factor on the last epoch.
        const double k = static_cast<double>(epoch - ev.epoch);
        m *= 1.0 + (static_cast<double>(ev.factor) - 1.0) * (k + 1.0) /
                       static_cast<double>(ev.count);
        break;
      }
      case TrafficKind::kSkew:
      case TrafficKind::kLeave:
        break;
    }
  }
  return std::min(m, kMaxRateMultiplier);
}

bool TrafficShaper::Suppressed(size_t source, int64_t epoch) const {
  for (const TrafficEvent& ev : plan_.events) {
    if (ev.kind == TrafficKind::kLeave && Active(ev, source, epoch)) {
      return true;
    }
  }
  return false;
}

void TrafficShaper::Shape(size_t source, int64_t epoch,
                          stream::RecordBatch* batch) const {
  if (Suppressed(source, epoch)) {
    batch->clear();
    return;
  }
  const double m = RateMultiplier(source, epoch);
  if (m > 1.0 && !batch->empty()) {
    // Replicate in place, copies adjacent to their original so event-time
    // order is preserved. A fractional multiplier is realized by an
    // error-diffusing per-record coin, so the expected rate is exact and
    // the realized count is a pure function of (seed, source, epoch).
    const uint64_t base = static_cast<uint64_t>(m);
    const double frac = m - static_cast<double>(base);
    stream::RecordBatch shaped;
    shaped.reserve(static_cast<size_t>(
        static_cast<double>(batch->size()) * m + 1.0));
    for (size_t i = 0; i < batch->size(); ++i) {
      uint64_t copies = base;
      if (Hash01(plan_.seed, source, epoch, i, kReplicateSalt) < frac) {
        ++copies;
      }
      for (uint64_t c = 0; c + 1 < copies; ++c) {
        shaped.push_back((*batch)[i]);
      }
      shaped.push_back(std::move((*batch)[i]));
    }
    *batch = std::move(shaped);
  }
  for (const TrafficEvent& ev : plan_.events) {
    if (ev.kind != TrafficKind::kSkew || !Active(ev, source, epoch)) continue;
    // Rewrite `factor`% of int64 keys in field #field to one hot value:
    // a key-popularity flip the planner must chase, never a timestamp edit.
    const double frac =
        std::min(1.0, static_cast<double>(ev.factor) / 100.0);
    const int64_t hot = static_cast<int64_t>(
        SplitMix64(plan_.seed ^ kSkewSalt ^ (ev.field * 0x9e3779b9ULL)) &
        0x7fffffffULL);
    for (size_t i = 0; i < batch->size(); ++i) {
      if (Hash01(plan_.seed, source, epoch, i, kSkewSalt ^ ev.field) >= frac) {
        continue;
      }
      stream::Record& rec = (*batch)[i];
      if (ev.field < rec.fields.size() &&
          std::holds_alternative<int64_t>(rec.fields[ev.field])) {
        rec.fields[ev.field] = hot;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// OverloadController
// ---------------------------------------------------------------------------

std::string_view OverloadLevelToString(OverloadLevel level) {
  switch (level) {
    case OverloadLevel::kSteady:
      return "steady";
    case OverloadLevel::kThrottled:
      return "throttled";
    case OverloadLevel::kShedding:
      return "shedding";
    case OverloadLevel::kQuarantined:
      return "quarantined";
  }
  return "?";
}

OverloadController::OverloadController(OverloadOptions opts, size_t n)
    : opts_(opts), src_(n) {}

void OverloadController::AddSource() { src_.emplace_back(); }

void OverloadController::NoteSpInflow(uint64_t records) {
  if (opts_.sp_capacity_records == 0) return;
  // Modeled consume queue: whatever this epoch's inflow exceeds capacity by
  // carries into the next epoch as backlog.
  const uint64_t load = sp_backlog_ + records;
  sp_backlog_ = load > opts_.sp_capacity_records
                    ? load - opts_.sp_capacity_records
                    : 0;
  if (sp_backlog_ > stats_.max_sp_backlog) {
    stats_.max_sp_backlog = sp_backlog_;
  }
}

IngressDirective OverloadController::DirectiveFor(const SourceState& st,
                                                  double cap) const {
  IngressDirective d;
  d.level = st.level;
  if (st.level == OverloadLevel::kSteady || cap <= 0.0) return d;
  const auto records = [](double x) {
    return static_cast<uint64_t>(std::ceil(std::max(x, 0.0)));
  };
  switch (st.level) {
    case OverloadLevel::kSteady:
      break;
    case OverloadLevel::kThrottled:
      d.admit_cap = records(cap * opts_.catchup);
      d.defer_cap = records(cap * opts_.defer_epochs);
      d.pressure = opts_.pressure_gain;
      break;
    case OverloadLevel::kShedding:
      d.admit_cap = records(cap * opts_.catchup);
      d.defer_cap = records(cap * opts_.defer_epochs);
      d.pressure = 2.0 * opts_.pressure_gain;
      break;
    case OverloadLevel::kQuarantined:
      // Ingress blackout: nothing admitted, nothing deferred — everything
      // offered sheds, so the watermark keeps advancing while the source
      // sits out the storm.
      d.admit_cap = 0;
      d.defer_cap = 0;
      d.pressure = 4.0 * opts_.pressure_gain;
      break;
  }
  return d;
}

IngressDirective OverloadController::Tick(size_t source,
                                          const PressureSample& sample) {
  escalated_last_tick_ = false;
  SourceState& st = src_[source];
  const double offered = static_cast<double>(sample.offered);
  if (opts_.source_capacity_records == 0 && st.baseline <= 0.0 &&
      offered > 0.0) {
    st.baseline = offered;
  }
  const double cap = opts_.source_capacity_records > 0
                         ? static_cast<double>(opts_.source_capacity_records)
                         : st.baseline;
  double score = cap > 0.0 ? offered / cap : 0.0;
  if (opts_.sp_capacity_records > 0 && sp_backlog_ > 0) {
    // SP-side pressure in epochs-of-capacity above 1.0; shared by every
    // source, so SP overload degrades the whole edge, not one scapegoat.
    const double sp_score =
        1.0 + static_cast<double>(sp_backlog_) /
                  static_cast<double>(opts_.sp_capacity_records);
    score = std::max(score, sp_score);
  }
  st.score = score;
  // Learn capacity only from calm epochs, so a burst never inflates the
  // baseline it is judged against.
  if (opts_.source_capacity_records == 0 && offered > 0.0 &&
      score < opts_.throttle_at) {
    st.baseline = 0.7 * st.baseline + 0.3 * offered;
  }
  const OverloadLevel target =
      score >= opts_.quarantine_at  ? OverloadLevel::kQuarantined
      : score >= opts_.shed_at      ? OverloadLevel::kShedding
      : score >= opts_.throttle_at  ? OverloadLevel::kThrottled
                                    : OverloadLevel::kSteady;
  if (target > st.level) {
    // Escalate one rung per epoch: throttle (and let the re-plan move
    // operators toward the source) before shedding, shed before blackout.
    st.level = static_cast<OverloadLevel>(static_cast<uint8_t>(st.level) + 1);
    st.calm_streak = 0;
    ++stats_.escalations;
    escalated_last_tick_ = true;
  } else if (score < opts_.calm_below) {
    if (++st.calm_streak >= opts_.calm_epochs &&
        st.level > OverloadLevel::kSteady) {
      st.level =
          static_cast<OverloadLevel>(static_cast<uint8_t>(st.level) - 1);
      st.calm_streak = 0;
      ++stats_.deescalations;
    }
  } else {
    st.calm_streak = 0;
  }
  if (sample.deferred > stats_.max_deferred) {
    stats_.max_deferred = sample.deferred;
  }
  switch (st.level) {
    case OverloadLevel::kSteady:
      break;
    case OverloadLevel::kThrottled:
      ++stats_.throttled_epochs;
      break;
    case OverloadLevel::kShedding:
      ++stats_.shedding_epochs;
      break;
    case OverloadLevel::kQuarantined:
      ++stats_.quarantined_epochs;
      break;
  }
  return DirectiveFor(st, cap);
}

}  // namespace jarvis::core
