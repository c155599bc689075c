#ifndef JARVIS_BLOCKBENCH_WORKLOAD_H_
#define JARVIS_BLOCKBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/building_block.h"
#include "core/cost_model.h"
#include "query/compile.h"
#include "stream/record.h"

namespace blockbench {

/// Event time is simulated: 1 s epochs, 10 s tumbling windows.
inline constexpr int64_t kWindowEpochs = 10;
/// Two window periods before the first timed epoch: the control loop of
/// every workload has left its start-up phase by then.
inline constexpr int64_t kWarmupEpochs = 2 * kWindowEpochs;
/// Every workload runs the ExecPool paths on 2 workers (3 threads on 4
/// vCPUs). A serial epoch rides one vCPU of a shared host: on the serial
/// path t2t_split's run medians spread 28-36% (IQR/median, 10 seeds) and
/// log_ckpt's set-up time moved 31% between two sets, against about 5-10%
/// on the pool in the same minutes.
inline constexpr int kWorkers = 2;

/// T2T IP -> ToR mapping: 40 servers per ToR, one table covering every
/// source's and peer's address (sources sit kT2tSourceSpacing apart).
inline constexpr int64_t kServersPerTor = 40;
inline constexpr int64_t kT2tFirstIp = 40000;
inline constexpr int64_t kT2tSourceSpacing = 4040;

enum class QueryKind { kS2S, kT2T, kLog };

struct Workload {
  const char* name;
  QueryKind query;
  size_t sources;
  /// Probe pairs per source (Pingmesh, one probe round per 1 s epoch) or
  /// log lines per second per source (LogAnalytics).
  int64_t per_source;
  /// The fault-tolerant path: per-epoch checkpoints, LZ4 wire, crash plan.
  bool fault_tolerant;
  /// CPU budget as a fraction of one core; the cost model is scaled so the
  /// whole query needs kBudgetOverload times this (1.0 with a near-zero
  /// cost model means the budget never binds).
  double budget;
  /// Window periods per scripted cycle (budget step or crash cadence). The
  /// timed region is whole cycles, so every run has the same mix.
  int64_t cycle_periods;
};

const Workload* FindWorkload(std::string_view name);

/// Addresses the T2T IP -> ToR table covers, from kT2tFirstIp.
int64_t T2tTableSize(const Workload& w);

using GenerateFn =
    std::function<jarvis::stream::RecordBatch(jarvis::Micros, jarvis::Micros)>;

/// What set-up builds before the block: the compiled query (with its
/// tables), the cost model, and one pure generator per source. The block,
/// the traced replica and the reference loop all call these generators, so
/// all three see the same input.
struct Inputs {
  std::unique_ptr<jarvis::query::CompiledQuery> query;
  std::shared_ptr<const jarvis::core::CostModel> cost;
  std::vector<GenerateFn> generate;
};

jarvis::Result<Inputs> MakeInputs(const Workload& w, uint64_t seed);

/// Input records per (source, epoch), filled by the generate callbacks (a
/// crash replay regenerates an interval and rewrites the same count).
class Ledger {
 public:
  explicit Ledger(size_t sources) : counts_(sources) {}
  // Wrapped generators hold pointers into counts_.
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;
  /// Wraps source `s`'s generator so every call is booked. The callback
  /// runs on the source's own task, so each source's vector has one writer.
  GenerateFn Wrap(size_t s, GenerateFn gen);
  /// Input records with event time in epochs [first, end).
  uint64_t Records(int64_t first, int64_t end) const;

 private:
  std::vector<std::vector<uint32_t>> counts_;
};

/// CPU budget of epoch `e` (the t2t_split budget step halves it for the
/// last third of every cycle after the warm-up).
double BudgetAt(const Workload& w, int64_t e);

/// log_ckpt's crash plan: one crash every cycle, on the next source in
/// turn, starting after the warm-up.
jarvis::core::FaultPlan CrashPlan(const Workload& w);

/// Options of the fault-tolerant path (log_ckpt): checkpoint every epoch,
/// fixed re-admission backoff so every recovery costs the same.
jarvis::core::FaultToleranceOptions FaultOptions();

/// Codec, threads, traffic plan and checkpointing set explicitly, so the
/// environment cannot change the workload.
jarvis::Result<std::unique_ptr<jarvis::core::BuildingBlock>> MakeBlock(
    const Workload& w, const Inputs& in, Ledger* ledger, bool crash_plan);

}  // namespace blockbench

#endif  // JARVIS_BLOCKBENCH_WORKLOAD_H_
