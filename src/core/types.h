#ifndef JARVIS_CORE_TYPES_H_
#define JARVIS_CORE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "stream/record.h"

namespace jarvis::core {

/// Per-proxy counters for one epoch. The Jarvis runtime classifies the query
/// state from these (Section IV-C).
struct ProxyObservation {
  uint64_t arrived = 0;    // records that reached this proxy
  uint64_t forwarded = 0;  // routed to the local downstream operator
  uint64_t drained = 0;    // routed to the stream processor
  uint64_t processed = 0;  // actually consumed by the local operator
  uint64_t pending = 0;    // still queued locally at epoch end
  double load_factor = 0.0;
};

/// Per-operator estimates produced by the Profile phase: compute cost per
/// record (c_j), and relay ratios (r_j) in record and byte terms. `sampled`
/// is the number of records the estimate is based on; estimates based on too
/// few records are noisy, which is exactly what breaks pure model-based
/// refinement (Section VI-C).
struct OperatorProfile {
  double cost_per_record = 0.0;
  double relay_records = 1.0;
  double relay_bytes = 1.0;
  /// Measured wire-bytes multiplier for records drained after this operator:
  /// actual encoded frame bytes (packed row lanes + LZ4 framing +
  /// checkpoint-frame overhead) per modeled record-format byte. 1.0 until a
  /// profiling epoch measures the real drain (BuildingBlock folds
  /// WireByteProfile ratios in); the LP's bandwidth term scales by it so
  /// placement prices the wire that actually ships.
  double wire_ratio = 1.0;
  /// Overload pressure at the source this profile came from (0 = calm; the
  /// OverloadController raises it one unit per escalation rung). The LP's
  /// bandwidth term scales by (1 + pressure), so a pressured source's wire
  /// gets expensive and the planner pulls operators toward the source —
  /// degrade-before-drop — before the shedder fires.
  double pressure = 0.0;
  uint64_t sampled = 0;
};

/// Everything the control plane learns from one epoch of execution. Produced
/// identically by the real executor (core::SourceExecutor) and the cluster
/// simulator (sim::SourceNodeSim), so StepWise-Adapt is oblivious to which
/// data plane is running.
struct EpochObservation {
  std::vector<ProxyObservation> proxies;
  std::vector<OperatorProfile> profiles;
  bool profiles_valid = false;
  double cpu_budget_seconds = 0.0;
  double cpu_spent_seconds = 0.0;
  uint64_t input_records = 0;
  double epoch_seconds = 1.0;
};

/// Query-level state (Figure 6): non-stable states trigger adaptation.
enum class QueryState { kIdle, kStable, kCongested };

std::string_view QueryStateToString(QueryState s);

/// A record drained by a control proxy, tagged with the operator index on
/// the stream processor that must resume its processing (Section V,
/// "Accurate query processing"). kPartial records enter *at* the emitting
/// operator (state merge); kData records enter at the next operator.
/// This is the flattened (row) view of the drain stream — tests and
/// row-format relays materialize it; the wire representation is DrainChunk.
struct DrainRecord {
  size_t sp_entry_op = 0;
  stream::Record record;
};

/// One run of consecutively drained records sharing a stream-processor entry
/// operator; it ships as one row-lane wire frame. Flattening the chunks in
/// order reproduces the record-at-a-time drain sequence bit for bit.
struct DrainChunk {
  size_t sp_entry_op = 0;
  stream::RecordBatch rows;

  size_t size() const { return rows.size(); }
};

}  // namespace jarvis::core

#endif  // JARVIS_CORE_TYPES_H_
