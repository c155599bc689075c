#include "core/control_proxy.h"

#include <algorithm>

namespace jarvis::core {

void ControlProxy::set_load_factor(double p) {
  load_factor_ = std::clamp(p, 0.0, 1.0);
}

bool ControlProxy::Route() {
  arrived_ += 1;
  route_accum_ += load_factor_;
  // A small epsilon absorbs floating point drift so p == 1.0 forwards every
  // record.
  if (route_accum_ >= 1.0 - 1e-9) {
    route_accum_ -= 1.0;
    forwarded_ += 1;
    return true;
  }
  drained_ += 1;
  return false;
}

void ControlProxy::RouteBatch(stream::RecordBatch&& batch,
                              stream::RecordBatch* drained) {
  for (stream::Record& rec : batch) {
    if (Route()) {
      queue_.push_back(std::move(rec));
    } else {
      drained->push_back(std::move(rec));
    }
  }
}

void ControlProxy::BeginEpoch() {
  arrived_ = 0;
  forwarded_ = 0;
  drained_ = 0;
  processed_ = 0;
}

ProxyObservation ControlProxy::Observe() const {
  ProxyObservation obs;
  obs.arrived = arrived_;
  obs.forwarded = forwarded_;
  obs.drained = drained_;
  obs.processed = processed_;
  obs.pending = queue_.size();
  obs.load_factor = load_factor_;
  return obs;
}

}  // namespace jarvis::core
