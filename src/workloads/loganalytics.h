#ifndef JARVIS_WORKLOADS_LOGANALYTICS_H_
#define JARVIS_WORKLOADS_LOGANALYTICS_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "stream/record.h"

namespace jarvis::workloads {

/// Synthetic Helios-style analytics-cluster log stream (Scenario 2 /
/// Listing 3): unstructured text lines carrying tenant name, job running
/// time, and CPU/memory utilization, plus a fraction of unrelated lines that
/// the pattern filter drops.
struct LogAnalyticsConfig {
  uint64_t seed = 7;
  int64_t num_tenants = 50;
  double lines_per_sec = 2000.0;
  /// Fraction of lines that match none of the query patterns.
  double noise_fraction = 0.10;
};

class LogAnalyticsGenerator {
 public:
  explicit LogAnalyticsGenerator(LogAnalyticsConfig config);

  /// Single text field per record.
  static stream::Schema Schema();

  /// Log lines with event_time in [from, to), one record per line in line
  /// order; window_start is left at -1 for the window operator to stamp.
  stream::RecordBatch Generate(Micros from, Micros to);

  /// Deterministic content of the i-th line overall (ground truth for
  /// tests): returns the formatted line.
  std::string LineAt(uint64_t index) const;
  bool LineIsNoise(uint64_t index) const;
  int64_t LineTenant(uint64_t index) const;

 private:
  LogAnalyticsConfig config_;
};

}  // namespace jarvis::workloads

#endif  // JARVIS_WORKLOADS_LOGANALYTICS_H_
