#ifndef JARVIS_CORE_CONTROL_PROXY_H_
#define JARVIS_CORE_CONTROL_PROXY_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/types.h"
#include "stream/record.h"

namespace jarvis::core {

/// The light-weight routing element bridging two adjacent stream operators
/// (Section IV-A). A proxy forwards a fraction `load_factor` of arriving
/// records to its local downstream operator and drains the rest to the
/// replicated operator on the stream processor.
///
/// Routing is deterministic fractional apportioning (error diffusion): after
/// n arrivals, the number forwarded is floor-or-ceil of n*p, never a random
/// draw. This keeps every test and benchmark bit-reproducible and the split
/// exact even for tiny epochs.
class ControlProxy {
 public:
  explicit ControlProxy(size_t op_index) : op_index_(op_index) {}

  size_t op_index() const { return op_index_; }

  double load_factor() const { return load_factor_; }
  void set_load_factor(double p);

  /// Routes an arriving record: returns true to forward locally (the caller
  /// enqueues it), false to drain it to the stream processor. Updates epoch
  /// counters.
  bool Route();

  /// Routes a whole arriving batch with the same error-diffusion decision
  /// sequence as per-record Route(): forwarded records append to the local
  /// queue, drained records append to `*drained`, both in arrival order.
  void RouteBatch(stream::RecordBatch&& batch, stream::RecordBatch* drained);

  /// The local queue of forwarded-but-unprocessed records. The executor pops
  /// from it as CPU budget allows; what remains at epoch end is backpressure.
  std::deque<stream::Record>& queue() { return queue_; }
  const std::deque<stream::Record>& queue() const { return queue_; }

  /// Marks `n` records as consumed by the local operator.
  void CountProcessed(uint64_t n) { processed_ += n; }

  /// Resets epoch counters (queue contents persist across epochs).
  void BeginEpoch();

  /// Snapshot of this epoch's counters plus queue depth.
  ProxyObservation Observe() const;

 private:
  size_t op_index_;
  double load_factor_ = 0.0;
  double route_accum_ = 0.0;

  uint64_t arrived_ = 0;
  uint64_t forwarded_ = 0;
  uint64_t drained_ = 0;
  uint64_t processed_ = 0;
  std::deque<stream::Record> queue_;
};

}  // namespace jarvis::core

#endif  // JARVIS_CORE_CONTROL_PROXY_H_
