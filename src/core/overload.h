#ifndef JARVIS_CORE_OVERLOAD_H_
#define JARVIS_CORE_OVERLOAD_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "stream/record.h"

namespace jarvis::core {

// ---------------------------------------------------------------------------
// Scripted traffic dynamics + overload control
// ---------------------------------------------------------------------------
// Monitoring traffic is adversarial in shape: flash bursts, diurnal ramps,
// key-skew flips, and source churn are precisely what the adaptive placement
// exists to absorb. This header holds both halves of the story:
//
//   * TrafficShaper — a seeded, scripted transform layered over the workload
//     generators (JARVIS_TRAFFIC, same idiom as JARVIS_FAULTS) that makes the
//     benign steady generators hostile on demand. Pure: the shaped batch is
//     a function of (plan, source, epoch, input batch) only, so a shaped run
//     is exactly replayable and bit-identical across thread counts.
//
//   * OverloadController — per-source pressure sampling at every epoch
//     barrier, walking a deterministic escalation ladder
//     steady → throttled → shedding → quarantined, with every decision a
//     pure function of the pressure snapshot, so recovery from overload is
//     as fingerprintable as recovery from faults. Shedding is watermark-safe
//     (ingress only: the oldest deferred input beyond the defer buffer sheds
//     first) and first-class in the accounting: the conservation invariant
//     widens to  sent == delivered + lost + shed + in_flight.

// ---------------------------------------------------------------------------
// Traffic plans
// ---------------------------------------------------------------------------

/// How the traffic misbehaves.
enum class TrafficKind : uint8_t {
  kBurst,  ///< flat rate multiplier `factor`x for `count` epochs
  kRamp,   ///< rate climbs linearly from ~1x to `factor`x across `count`
  kSkew,   ///< `factor`% of records rewrite int64 field `field` to one hot key
  kLeave,  ///< the source produces nothing for `count` epochs (rejoin after)
};

std::string_view TrafficKindToString(TrafficKind k);

/// One scripted traffic event at a (source, epoch) coordinate, active for
/// the epoch window [epoch, epoch + count).
struct TrafficEvent {
  TrafficKind kind = TrafficKind::kBurst;
  size_t source = 0;
  int64_t epoch = 0;
  /// Field index rewritten by kSkew.
  size_t field = 0;
  /// Epochs the event stays active.
  int count = 1;
  /// kBurst/kRamp: peak rate multiplier; kSkew: hot-key percentage.
  uint64_t factor = 0;  // 0 = kind default (burst/ramp 4, skew 50)

  bool operator==(const TrafficEvent&) const = default;
};

/// A complete traffic schedule plus the seed deriving every "random" choice
/// (which records replicate on a fractional multiplier, which rewrite to the
/// hot key). Spec grammar (ParsePlanSpec, core/fault.h), round-tripped by
/// Parse/ToString:
///
///   seed=N;kind@epoch:source[#field][xcount][*factor];...
///
/// e.g. "seed=7;burst@8:0x6*5;ramp@2:1x4*3;skew@5:2#1x2*80;leave@9:3x2".
struct TrafficPlan {
  uint64_t seed = 1;
  std::vector<TrafficEvent> events;

  static Result<TrafficPlan> Parse(std::string_view spec);
  std::string ToString() const;
  bool empty() const { return events.empty(); }
};

/// Applies a TrafficPlan to generator output. Const and stateless after
/// construction: safe to call from concurrent source tasks, and replaying an
/// epoch (crash recovery) reproduces the shaped batch bit for bit.
class TrafficShaper {
 public:
  /// Events with factor 0 run at their kind's default factor.
  explicit TrafficShaper(TrafficPlan plan);

  /// Builds a shaper from the JARVIS_TRAFFIC environment variable.
  /// Returns nullptr when unset, an error when set but unparsable.
  static Result<std::unique_ptr<TrafficShaper>> FromEnv();

  /// Transforms one epoch's generated batch in place. Replication keeps
  /// copies adjacent to the original (event-time order — and therefore the
  /// watermark contract — is untouched); skew rewrites keys but never
  /// timestamps; leave empties the batch while the epoch still reports its
  /// watermark, so a left source holds nothing back.
  void Shape(size_t source, int64_t epoch, stream::RecordBatch* batch) const;

  /// Combined rate multiplier at (source, epoch); 1.0 when steady.
  double RateMultiplier(size_t source, int64_t epoch) const;

  /// True when a kLeave window suppresses this source's output entirely.
  bool Suppressed(size_t source, int64_t epoch) const;

  const TrafficPlan& plan() const { return plan_; }

 private:
  const TrafficPlan plan_;
};

// ---------------------------------------------------------------------------
// Overload control
// ---------------------------------------------------------------------------

/// The escalation ladder. Rungs are ordered: escalation moves at most one
/// rung per epoch (degrade-before-drop — the planner gets a chance to move
/// operators toward the source before the shedder fires), de-escalation
/// requires sustained calm.
enum class OverloadLevel : uint8_t {
  kSteady = 0,      ///< no intervention
  kThrottled = 1,   ///< per-epoch admission capped; overflow deferred
  kShedding = 2,    ///< + bounded defer buffer; overflow sheds at ingress
  kQuarantined = 3, ///< ingress blackout: everything offered is shed
};

std::string_view OverloadLevelToString(OverloadLevel level);

/// One epoch's pressure signals for one source, sampled at the barrier.
struct PressureSample {
  uint64_t offered = 0;    ///< records waiting in the epoch input buffer
  uint64_t admitted = 0;   ///< records actually routed this epoch
  uint64_t deferred = 0;   ///< records left buffered for later epochs
  uint64_t shed = 0;       ///< records dropped at ingress this epoch
  uint64_t drained = 0;    ///< records shipped to the SP this epoch
  uint64_t pending = 0;    ///< records parked in source-side stage queues

  bool operator==(const PressureSample&) const = default;
};

/// What one source must do next epoch. A pure function of the controller
/// state; captured by value into the epoch task, traced for crash replay.
struct IngressDirective {
  static constexpr uint64_t kUnlimited =
      std::numeric_limits<uint64_t>::max();

  uint64_t admit_cap = kUnlimited;  ///< records routed per epoch
  uint64_t defer_cap = kUnlimited;  ///< records the input buffer may hold back
  double pressure = 0.0;            ///< fed into OperatorProfile::pressure
  OverloadLevel level = OverloadLevel::kSteady;

  bool operator==(const IngressDirective&) const = default;
};

/// Capacities the controller judges pressure against. The ladder's
/// thresholds are fixed (overload.cc) and steady traffic (score ~1) never
/// leaves kSteady, so enabling overload control on a benign run is a no-op.
struct OverloadOptions {
  /// Per-source per-epoch record capacity. 0 = learn an EWMA baseline from
  /// calm epochs (initialized from the first epoch's offered load).
  uint64_t source_capacity_records = 0;
  /// Modeled SP consume capacity (records/epoch) shared by all sources.
  /// 0 disables the SP-side pressure signal.
  uint64_t sp_capacity_records = 0;
};

/// Aggregate overload accounting; compared across thread counts alongside
/// FaultStats, so shedding itself is part of the determinism fingerprint.
struct OverloadStats {
  uint64_t records_shed_ingress = 0;
  uint64_t throttled_epochs = 0;
  uint64_t shedding_epochs = 0;
  uint64_t quarantined_epochs = 0;
  uint64_t escalations = 0;
  uint64_t deescalations = 0;
  uint64_t max_deferred = 0;
  uint64_t max_sp_backlog = 0;

  bool operator==(const OverloadStats&) const = default;
};

/// Walks the escalation ladder from per-source pressure snapshots. All
/// methods run on the consumer thread at the epoch barrier in ascending
/// source order, so the controller's evolution is independent of worker
/// scheduling — threads 1 vs 4 see the same snapshots in the same order and
/// make bit-identical decisions.
class OverloadController {
 public:
  OverloadController(OverloadOptions opts, size_t num_sources);

  /// Feeds the modeled SP consume signal once per epoch, before the
  /// per-source ticks: `records` is what actually entered the SP this
  /// epoch; the modeled backlog is what capacity could not absorb.
  void NoteSpInflow(uint64_t records);

  /// One source's epoch tick. Consumes the barrier's pressure sample and
  /// returns the directive governing the source's NEXT epoch.
  IngressDirective Tick(size_t source, const PressureSample& sample);

  /// True when the last Tick escalated this source (the caller triggers a
  /// re-plan so placement adapts before the next rung is needed).
  bool EscalatedLastTick() const { return escalated_last_tick_; }

  void AddSource();

  OverloadLevel level(size_t source) const { return src_[source].level; }
  double last_score(size_t source) const { return src_[source].score; }
  uint64_t sp_backlog() const { return sp_backlog_; }
  const OverloadOptions& options() const { return opts_; }
  const OverloadStats& stats() const { return stats_; }
  OverloadStats& mutable_stats() { return stats_; }

 private:
  struct SourceState {
    OverloadLevel level = OverloadLevel::kSteady;
    int calm_streak = 0;
    double baseline = 0.0;  ///< learned capacity (EWMA over calm epochs)
    double score = 0.0;
  };

  IngressDirective DirectiveFor(const SourceState& st, double cap) const;

  OverloadOptions opts_;
  std::vector<SourceState> src_;
  uint64_t sp_backlog_ = 0;
  bool escalated_last_tick_ = false;
  OverloadStats stats_;
};

}  // namespace jarvis::core

#endif  // JARVIS_CORE_OVERLOAD_H_
