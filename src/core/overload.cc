#include "core/overload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/env.h"
#include "common/rng.h"
#include "core/fault.h"

namespace jarvis::core {

namespace {

constexpr std::string_view kTrafficKindNames[] = {"burst", "ramp", "skew",
                                                  "leave"};

/// Multipliers beyond this are implausible and would only blow up memory;
/// the shaper clamps rather than erroring so ramp endpoints stay scriptable.
constexpr double kMaxRateMultiplier = 64.0;

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

TrafficPlan WithDefaultFactors(TrafficPlan plan) {
  for (TrafficEvent& ev : plan.events) {
    if (ev.factor == 0) ev.factor = DefaultFactor(ev.kind);
  }
  return plan;
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

/// Pressure-score thresholds for the target rung (score 1.0 = at capacity).
/// Escalation still walks one rung per epoch.
constexpr double kThrottleAt = 1.5;
constexpr double kShedAt = 3.0;
constexpr double kQuarantineAt = 8.0;
/// De-escalate one rung after kCalmEpochs consecutive epochs with score <
/// kCalmBelow.
constexpr double kCalmBelow = 1.2;
constexpr int kCalmEpochs = 2;
/// Throttled admission cap = capacity * kCatchup (> 1 so the deferred
/// backlog drains once the burst passes instead of persisting forever).
constexpr double kCatchup = 1.5;
/// Defer buffer = capacity * kDeferEpochs before the shedder fires.
constexpr double kDeferEpochs = 2.0;
/// OperatorProfile::pressure contribution per rung (throttled = 1x,
/// shedding = 2x, quarantined = 4x) — the degrade-before-drop signal the
/// LP prices into its bandwidth term.
constexpr double kPressureGain = 1.0;

bool Active(const TrafficEvent& ev, size_t source, int64_t epoch) {
  return ev.source == source && epoch >= ev.epoch &&
         epoch < ev.epoch + ev.count;
}

}  // namespace

std::string_view TrafficKindToString(TrafficKind k) {
  return kTrafficKindNames[static_cast<size_t>(k)];
}

Result<TrafficPlan> TrafficPlan::Parse(std::string_view spec) {
  JARVIS_ASSIGN_OR_RETURN(
      PlanSpec parsed,
      ParsePlanSpec(spec, kTrafficKindNames, "traffic", /*with_factor=*/true));
  TrafficPlan plan;
  plan.seed = parsed.seed;
  for (const PlanEvent& ev : parsed.events) {
    const auto kind = static_cast<TrafficKind>(ev.kind);
    plan.events.push_back({kind, ev.source, ev.epoch, ev.index, ev.count,
                           ev.factor != 0 ? ev.factor : DefaultFactor(kind)});
  }
  return plan;
}

std::string TrafficPlan::ToString() const {
  PlanSpec spec;
  spec.seed = seed;
  for (const TrafficEvent& ev : events) {
    spec.events.push_back(
        {static_cast<size_t>(ev.kind), ev.source, ev.epoch, ev.field,
         ev.count, ev.factor != DefaultFactor(ev.kind) ? ev.factor : 0});
  }
  return FormatPlanSpec(spec, kTrafficKindNames);
}

TrafficShaper::TrafficShaper(TrafficPlan plan)
    : plan_(WithDefaultFactors(std::move(plan))) {}

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
      d.admit_cap = records(cap * kCatchup);
      d.defer_cap = records(cap * kDeferEpochs);
      d.pressure = kPressureGain;
      break;
    case OverloadLevel::kShedding:
      d.admit_cap = records(cap * kCatchup);
      d.defer_cap = records(cap * kDeferEpochs);
      d.pressure = 2.0 * kPressureGain;
      break;
    case OverloadLevel::kQuarantined:
      // Ingress blackout: nothing admitted, nothing deferred — everything
      // offered sheds, so the watermark keeps advancing while the source
      // sits out the storm.
      d.admit_cap = 0;
      d.defer_cap = 0;
      d.pressure = 4.0 * kPressureGain;
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
      score < kThrottleAt) {
    st.baseline = 0.7 * st.baseline + 0.3 * offered;
  }
  const OverloadLevel target =
      score >= kQuarantineAt ? OverloadLevel::kQuarantined
      : score >= kShedAt     ? OverloadLevel::kShedding
      : score >= kThrottleAt ? OverloadLevel::kThrottled
                             : OverloadLevel::kSteady;
  if (target > st.level) {
    // Escalate one rung per epoch: throttle (and let the re-plan move
    // operators toward the source) before shedding, shed before blackout.
    st.level = static_cast<OverloadLevel>(static_cast<uint8_t>(st.level) + 1);
    st.calm_streak = 0;
    ++stats_.escalations;
    escalated_last_tick_ = true;
  } else if (score < kCalmBelow) {
    if (++st.calm_streak >= kCalmEpochs && st.level > OverloadLevel::kSteady) {
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
