#ifndef JARVIS_WORKLOADS_PINGMESH_H_
#define JARVIS_WORKLOADS_PINGMESH_H_

#include <cstdint>

#include "common/rng.h"
#include "common/units.h"
#include "stream/record.h"

namespace jarvis::workloads {

/// Synthetic Pingmesh probe stream for one data source (server), replacing
/// the proprietary Microsoft trace. Matches the paper's published layout
/// (86 B records: ts, srcIp, srcCluster, dstIp, dstCluster, rtt us, errCode;
/// Section II-B), the probe fan-out (num_pairs peers every probe_interval),
/// the 14% filter-out rate (errCode != 0), and sparse high-latency anomaly
/// episodes lasting tens of seconds — the property that makes sampling-based
/// synopses miss alerts (Section VI-D).
struct PingmeshConfig {
  uint64_t seed = 42;
  int64_t source_ip = 1;          // this server's IP (also RNG salt)
  int64_t num_pairs = 20000;      // peers probed by this server
  Micros probe_interval = Seconds(5);
  double error_rate = 0.14;       // fraction with errCode != 0
  double base_rtt_us = 300.0;     // healthy round-trip time scale
  /// Fraction of probes with moderate congestion-induced latency in
  /// [1, 4.8] ms: below the 5 ms alert threshold, but large enough that a
  /// sample missing them misestimates a pair's latency range by >1 ms.
  double moderate_rate = 0.10;
  /// Fraction of pairs whose probes are elevated during an anomaly episode.
  double anomaly_pair_fraction = 0.02;
  double anomaly_rtt_us_lo = 5000.0;
  double anomaly_rtt_us_hi = 50000.0;
  /// An episode starts every `episode_period`, lasting `episode_duration`
  /// (the paper reports 40-60 s network-issue spikes).
  Micros episode_period = Seconds(120);
  Micros episode_duration = Seconds(50);
};

class PingmeshGenerator {
 public:
  explicit PingmeshGenerator(PingmeshConfig config);

  /// ts is implicit (Record::event_time); fields are as published.
  static stream::Schema Schema();

  /// Field indices within Schema().
  enum Field : size_t {
    kSrcIp = 0,
    kSrcCluster = 1,
    kDstIp = 2,
    kDstCluster = 3,
    kRttUs = 4,
    kErrCode = 5,
  };

  /// All probe records with event_time in [from, to), round by round, each
  /// round one record per pair in pair order. Fields are laid out as
  /// Schema(); window_start is left at -1 for the window operator to stamp.
  stream::RecordBatch Generate(Micros from, Micros to);

  /// Ground truth (recomputable without storing the stream): whether `pair`
  /// is anomalous at time `t`, and the exact rtt of a given probe.
  bool PairAnomalous(int64_t pair, Micros t) const;
  double ProbeRtt(int64_t pair, Micros probe_time) const;
  bool ProbeError(int64_t pair, Micros probe_time) const;

  const PingmeshConfig& config() const { return config_; }

 private:
  uint64_t HashProbe(int64_t pair, Micros probe_time, uint64_t salt) const;

  PingmeshConfig config_;
};

}  // namespace jarvis::workloads

#endif  // JARVIS_WORKLOADS_PINGMESH_H_
