#include "workloads/loganalytics.h"

#include <cmath>

namespace jarvis::workloads {

using stream::Record;
using stream::RecordBatch;
using stream::Schema;
using stream::ValueType;

LogAnalyticsGenerator::LogAnalyticsGenerator(LogAnalyticsConfig config)
    : config_(config) {}

Schema LogAnalyticsGenerator::Schema() {
  return Schema::Of({{"line", ValueType::kString}});
}

bool LogAnalyticsGenerator::LineIsNoise(uint64_t index) const {
  const uint64_t h = SplitMix64(config_.seed ^ (index * 3 + 1));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < config_.noise_fraction;
}

int64_t LogAnalyticsGenerator::LineTenant(uint64_t index) const {
  const uint64_t h = SplitMix64(config_.seed ^ (index * 3 + 2));
  return static_cast<int64_t>(h % static_cast<uint64_t>(config_.num_tenants));
}

std::string LogAnalyticsGenerator::LineAt(uint64_t index) const {
  if (LineIsNoise(index)) {
    return "svc heartbeat ok node=" + std::to_string(index % 997) +
           " build=20260612 status=healthy uptime_hint=stable";
  }
  const uint64_t h = SplitMix64(config_.seed ^ (index * 3 + 3));
  const int64_t tenant = LineTenant(index);
  const int64_t job_ms = 50 + static_cast<int64_t>(h % 9900);
  const int64_t cpu = static_cast<int64_t>(SplitMix64(h) % 100);
  const int64_t mem = static_cast<int64_t>(SplitMix64(h + 1) % 100);
  // Mixed case exercises the trim/lowercase map in Listing 3.
  return "  Tenant Name=t" + std::to_string(tenant) +
         " Job Running Time=" + std::to_string(job_ms) +
         " Cpu Util=" + std::to_string(cpu) +
         " Memory Util=" + std::to_string(mem) + "  ";
}

RecordBatch LogAnalyticsGenerator::Generate(Micros from, Micros to) {
  RecordBatch batch;
  if (config_.lines_per_sec <= 0 || to <= from) return batch;
  const double per_us = config_.lines_per_sec / kMicrosPerSecond;
  const uint64_t first = static_cast<uint64_t>(
      std::ceil(static_cast<double>(from) * per_us));
  const uint64_t last = static_cast<uint64_t>(
      std::ceil(static_cast<double>(to) * per_us));
  batch.reserve(last > first ? last - first : 0);
  for (uint64_t i = first; i < last; ++i) {
    Record& rec = batch.emplace_back();
    rec.event_time = static_cast<Micros>(static_cast<double>(i) / per_us);
    rec.window_start = -1;
    rec.fields.reserve(1);
    rec.fields.emplace_back(LineAt(i));
  }
  return batch;
}

}  // namespace jarvis::workloads
