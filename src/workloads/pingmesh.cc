#include "workloads/pingmesh.h"

namespace jarvis::workloads {

using stream::Record;
using stream::RecordBatch;
using stream::Schema;
using stream::ValueType;

PingmeshGenerator::PingmeshGenerator(PingmeshConfig config)
    : config_(config) {}

Schema PingmeshGenerator::Schema() {
  return Schema::Of({{"srcIp", ValueType::kInt64},
                     {"srcCluster", ValueType::kInt64},
                     {"dstIp", ValueType::kInt64},
                     {"dstCluster", ValueType::kInt64},
                     {"rtt", ValueType::kDouble},
                     {"errCode", ValueType::kInt64}});
}

uint64_t PingmeshGenerator::HashProbe(int64_t pair, Micros probe_time,
                                      uint64_t salt) const {
  uint64_t h = config_.seed;
  h = SplitMix64(h ^ static_cast<uint64_t>(config_.source_ip));
  h = SplitMix64(h ^ static_cast<uint64_t>(pair));
  h = SplitMix64(h ^ static_cast<uint64_t>(probe_time));
  h = SplitMix64(h ^ salt);
  return h;
}

bool PingmeshGenerator::PairAnomalous(int64_t pair, Micros t) const {
  if (config_.episode_period <= 0) return false;
  const Micros phase = t % config_.episode_period;
  if (phase >= config_.episode_duration) return false;
  const int64_t episode = t / config_.episode_period;
  // Deterministic per-(pair, episode) membership.
  uint64_t h = SplitMix64(config_.seed ^ static_cast<uint64_t>(pair) ^
                          (static_cast<uint64_t>(episode) * 0x9e3779b9ULL));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < config_.anomaly_pair_fraction;
}

double PingmeshGenerator::ProbeRtt(int64_t pair, Micros probe_time) const {
  const uint64_t h = HashProbe(pair, probe_time, /*salt=*/1);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (PairAnomalous(pair, probe_time)) {
    return config_.anomaly_rtt_us_lo +
           u * (config_.anomaly_rtt_us_hi - config_.anomaly_rtt_us_lo);
  }
  const uint64_t h2 = HashProbe(pair, probe_time, /*salt=*/3);
  const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
  if (u2 < config_.moderate_rate) {
    // Transient congestion: elevated but below the alert threshold.
    return 1000.0 + u * 3800.0;
  }
  // Healthy rtts: base scale with a long-ish but bounded tail.
  return config_.base_rtt_us * (0.5 + 1.5 * u * u);
}

bool PingmeshGenerator::ProbeError(int64_t pair, Micros probe_time) const {
  const uint64_t h = HashProbe(pair, probe_time, /*salt=*/2);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < config_.error_rate;
}

RecordBatch PingmeshGenerator::Generate(Micros from, Micros to) {
  RecordBatch batch;
  if (config_.probe_interval <= 0 || config_.num_pairs <= 0) return batch;
  // Probe rounds are aligned to the interval grid; each round probes every
  // configured pair once.
  Micros first = from - (from % config_.probe_interval);
  if (first < from) first += config_.probe_interval;
  if (first < to) {
    const int64_t rounds = (to - first - 1) / config_.probe_interval + 1;
    batch.reserve(static_cast<size_t>(rounds * config_.num_pairs));
  }
  const int64_t src_cluster = config_.source_ip / 1000;
  for (Micros t = first; t < to; t += config_.probe_interval) {
    for (int64_t pair = 0; pair < config_.num_pairs; ++pair) {
      const int64_t dst_ip = config_.source_ip + 1 + pair;
      Record& rec = batch.emplace_back();
      rec.event_time = t;
      rec.window_start = -1;
      rec.fields.reserve(6);
      rec.fields.emplace_back(config_.source_ip);
      rec.fields.emplace_back(src_cluster);
      rec.fields.emplace_back(dst_ip);
      rec.fields.emplace_back(dst_ip / 1000);
      rec.fields.emplace_back(ProbeRtt(pair, t));
      rec.fields.emplace_back(ProbeError(pair, t) ? int64_t{1} : int64_t{0});
    }
  }
  return batch;
}

}  // namespace jarvis::workloads
