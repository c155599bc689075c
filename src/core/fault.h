#ifndef JARVIS_CORE_FAULT_H_
#define JARVIS_CORE_FAULT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/drain_wire.h"

namespace jarvis::core {

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------
// Every fault the chaos harness can inject is decided from a seeded script —
// never from the wall clock or an unseeded RNG — so a faulty run is exactly
// replayable and bit-identical across thread counts. That turns the
// determinism harness into a chaos harness: recovery itself is a
// reproducible computation the tests can fingerprint.

/// What goes wrong.
enum class FaultKind : uint8_t {
  kCrash,     ///< the source's epoch task dies before producing output
  kStraggle,  ///< the source's drain arrives `count` epochs late
  kDrop,      ///< drain frame `chunk` is lost in transit
  kDup,       ///< drain frame `chunk` arrives twice
  kFlip,      ///< one bit of frame `chunk` flips, on `count` transmissions
              ///< (original + count-1 retransmits — models a bad link)
  kStall,     ///< the SP does not consume this source's drain this epoch
};

std::string_view FaultKindToString(FaultKind k);

/// One scripted fault at a (source, epoch) coordinate.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  size_t source = 0;
  int64_t epoch = 0;
  /// Frame index within the epoch's drain (kDrop/kDup/kFlip).
  size_t chunk = 0;
  /// kStraggle: epochs late; kFlip: corrupted transmissions.
  int count = 1;

  bool operator==(const FaultEvent&) const = default;
};

// ---------------------------------------------------------------------------
// Plan grammar, shared by fault plans (JARVIS_FAULTS) and traffic plans
// (JARVIS_TRAFFIC):
//
//   seed=N;kind@epoch:source[#index][xcount][*factor];...
//
// Each plan names its kinds in a table (in enum order) and maps the parsed
// fields onto its own event type.
// ---------------------------------------------------------------------------

/// One event as the grammar spells it.
struct PlanEvent {
  size_t kind = 0;  ///< index into the plan's kind table
  size_t source = 0;
  int64_t epoch = 0;
  size_t index = 0;     ///< `#`: frame (faults) or field (traffic)
  int count = 1;        ///< `x`: at least 1
  uint64_t factor = 0;  ///< `*`: at least 1 when given, 0 when absent
};

struct PlanSpec {
  uint64_t seed = 1;
  std::vector<PlanEvent> events;
};

/// Parses a plan spec. `what` ("fault", "traffic") opens every error. A
/// spec is rejected, never wrapped, when a number does not fit its field or
/// an event's epoch + count passes INT64_MAX; `*factor` is rejected unless
/// `with_factor`.
Result<PlanSpec> ParsePlanSpec(std::string_view spec,
                               std::span<const std::string_view> kinds,
                               std::string_view what, bool with_factor);
/// The spec ParsePlanSpec reads back to `plan`: `#0`, `x1` and an absent
/// factor are left out.
std::string FormatPlanSpec(const PlanSpec& plan,
                           std::span<const std::string_view> kinds);

/// A complete fault schedule plus the seed that derives every "random"
/// choice (which bit flips). Spec grammar (ParsePlanSpec, without
/// `*factor`), round-tripped by Parse/ToString:
///
///   seed=N;kind@epoch:source[#chunk][xcount];...
///
/// e.g. "seed=9;crash@3:1;straggle@4:2x2;drop@5:0#1;flip@6:1#2x4;stall@7:0".
struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultEvent> events;

  static Result<FaultPlan> Parse(std::string_view spec);
  std::string ToString() const;
  bool empty() const { return events.empty(); }
};

/// Applies a FaultPlan to a run. Const queries (crash/straggle/stall) read
/// the immutable plan and are thread-safe by construction; the tampering
/// calls mutate the flip budget under a mutex, so concurrent source tasks
/// stay race-free — and deterministic, because each call's effect depends
/// only on its own (source, seq, attempt) coordinates, never on call order.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Builds an injector from the JARVIS_FAULTS environment variable.
  /// Returns nullptr when unset, an error when set but unparsable.
  static Result<std::unique_ptr<FaultInjector>> FromEnv();

  bool ShouldCrash(size_t source, int64_t epoch) const;
  /// 0 when the source is on time, otherwise how many epochs late its
  /// drain delivery arrives.
  int StraggleEpochs(size_t source, int64_t epoch) const;
  bool ShouldStall(size_t source, int64_t epoch) const;

  /// Applies this (source, epoch)'s drop/dup/flip events to the in-flight
  /// wire copy: flips corrupt one deterministic bit per affected frame (and
  /// register any remaining flip budget against future retransmits), drops
  /// remove frames, dups insert a second copy after the original.
  void TamperTransmission(size_t source, int64_t epoch, WireDrain* wire);

  /// Corrupts a retransmitted frame while its flip budget lasts (a kFlip
  /// event with count > 1 keeps hitting the retransmits until the budget is
  /// spent — or, if the budget outlasts the retry bound, until the source
  /// exhausts its retries and is quarantined).
  void TamperRetransmit(size_t source, uint32_t seq, WireFrame* frame);

  const FaultPlan& plan() const { return plan_; }

 private:
  void FlipBit(size_t source, uint32_t seq, uint64_t attempt,
               WireFrame* frame) const;

  const FaultPlan plan_;
  std::mutex mu_;
  /// (source, seq) -> remaining retransmission corruptions.
  std::unordered_map<uint64_t, int> flip_budget_;
};

}  // namespace jarvis::core

#endif  // JARVIS_CORE_FAULT_H_
