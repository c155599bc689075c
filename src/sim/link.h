#ifndef JARVIS_SIM_LINK_H_
#define JARVIS_SIM_LINK_H_

#include <algorithm>
#include <vector>

namespace jarvis::sim {

/// Bandwidth-limited network path carrying categorized traffic (records
/// bucketed by their stream-processor entry operator, each with its own wire
/// size). Backlog above capacity queues; delivery within an epoch is
/// proportional across categories, which models fair interleaving of the
/// per-proxy drain streams.
class LinkSim {
 public:
  /// `category_bytes[i]` is the wire size of category-i records.
  /// `backlog_bound_seconds` caps the send queue (bounded socket buffers /
  /// backpressure); excess offered traffic is shed. <= 0 means unbounded.
  LinkSim(double capacity_bytes_per_sec, std::vector<double> category_bytes,
          double backlog_bound_seconds = 5.0)
      : capacity_(capacity_bytes_per_sec),
        bound_seconds_(backlog_bound_seconds),
        category_bytes_(std::move(category_bytes)),
        backlog_records_(category_bytes_.size(), 0.0) {}

  struct Delivered {
    std::vector<double> records;  // per category
    double bytes = 0.0;
    double shed_bytes = 0.0;
  };

  /// Adds this epoch's offered records per category, transmits up to
  /// capacity, returns what reached the other end.
  Delivered Transfer(const std::vector<double>& offered_records,
                     double epoch_seconds);

  /// Time to drain the current backlog at full capacity.
  double DelaySeconds() const {
    return capacity_ <= 0 ? (BacklogBytes() > 0 ? 3600.0 : 0.0)
                          : BacklogBytes() / capacity_;
  }

  double BacklogBytes() const {
    double total = 0.0;
    for (size_t i = 0; i < backlog_records_.size(); ++i) {
      total += backlog_records_[i] * category_bytes_[i];
    }
    return total;
  }

 private:
  double capacity_;
  double bound_seconds_;
  std::vector<double> category_bytes_;
  std::vector<double> backlog_records_;
};

inline LinkSim::Delivered LinkSim::Transfer(
    const std::vector<double>& offered_records, double epoch_seconds) {
  for (size_t i = 0; i < backlog_records_.size() && i < offered_records.size();
       ++i) {
    backlog_records_[i] += offered_records[i];
  }
  Delivered out;
  out.records.assign(backlog_records_.size(), 0.0);
  const double total_bytes = BacklogBytes();
  const double cap = capacity_ * epoch_seconds;
  if (total_bytes <= 0) return out;
  const double fraction = std::min(1.0, cap / total_bytes);
  for (size_t i = 0; i < backlog_records_.size(); ++i) {
    out.records[i] = backlog_records_[i] * fraction;
    backlog_records_[i] -= out.records[i];
    out.bytes += out.records[i] * category_bytes_[i];
  }
  // Bounded send queue: shed proportionally beyond the bound.
  if (bound_seconds_ > 0 && capacity_ > 0) {
    const double remaining = BacklogBytes();
    const double limit = bound_seconds_ * capacity_;
    if (remaining > limit) {
      const double keep = limit / remaining;
      for (size_t i = 0; i < backlog_records_.size(); ++i) {
        const double shed = backlog_records_[i] * (1.0 - keep);
        out.shed_bytes += shed * category_bytes_[i];
        backlog_records_[i] -= shed;
      }
    }
  }
  return out;
}

}  // namespace jarvis::sim

#endif  // JARVIS_SIM_LINK_H_
