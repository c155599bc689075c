#ifndef JARVIS_BLOCKBENCH_REPLICA_H_
#define JARVIS_BLOCKBENCH_REPLICA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/building_block.h"
#include "stream/record.h"
#include "workload.h"

namespace blockbench {

/// Counts the traced replica books per epoch, summed over sources.
struct EpochCounters {
  uint64_t records_local = 0;    // records processed by source operators
  uint64_t records_drained = 0;  // records shipped to the SP
  uint64_t pending = 0;          // records left in source stage queues
  uint64_t modeled_bytes = 0;    // drained_bytes: the LP's modeled volume
  uint64_t frames = 0;           // data frames
  uint64_t wire_bytes = 0;       // data frame bytes
  uint64_t ckpt_bytes = 0;       // checkpoint frame bytes
  uint64_t sp_records = 0;       // records the SP consumed
  uint64_t pool_tasks = 0;       // ExecPool submissions
  uint64_t profile_sources = 0;  // sources that ran the epoch profiling

  EpochCounters& operator+=(const EpochCounters& x);
};

/// BuildingBlock's epoch rebuilt from the public calls it makes, with a span
/// around every call into a layer. The two pool paths of building_block.cc
/// that the workloads run (kWorkers workers, more than one source): the
/// default ExecPool loop (tiny-source grouping, ShardedHandoff, WaitIdle
/// barrier) and the fault-tolerant loop (one task per source, checkpoint
/// frames, ConsumeFrame). Two private behaviours are copied:
/// the wire-ratio fold the LP prices and the tiny-source grouping. Without
/// a fault plan its results equal the block's bit for bit; the benchmark
/// checks that on every traced run.
class Replica {
 public:
  Replica(const Workload& w, const Inputs& in);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  jarvis::Status Init() const { return init_; }

  /// Runs the next epoch, appending closed windows' rows to `results`.
  jarvis::Status RunEpoch(jarvis::stream::RecordBatch* results,
                          EpochCounters* c);

  void SetCpuBudget(double fraction);
  size_t num_sources() const { return sources_.size(); }
  const jarvis::core::JarvisRuntime& runtime(size_t s) const {
    return *runtimes_[s];
  }

 private:
  /// What one source's epoch task hands the consumer.
  struct Envelope {
    jarvis::Status status;
    jarvis::core::SourceEpochOutput out;  // default path
    // Fault-tolerant path.
    jarvis::core::WireDrain wire;
    std::vector<jarvis::core::WireFrame> pristine;
    jarvis::Micros watermark = -1;
    uint32_t ckpt_fence = 0;
    bool profile_next = false;
  };
  jarvis::stream::RecordBatch Generate(size_t s, jarvis::Micros from,
                                       jarvis::Micros to, uint64_t parent);
  /// Generate, Ingest + RunEpoch: the source layer of every path.
  jarvis::Result<jarvis::core::SourceEpochOutput> RunSource(
      size_t s, jarvis::Micros from, jarvis::Micros to, uint64_t parent);
  /// BuildingBlock::RunSourceEpoch (ExecPool path), traced.
  void SourceTask(size_t s, jarvis::Micros from, jarvis::Micros to,
                  uint64_t parent);
  /// BuildingBlock::RunSourceEpochFT without faults or overload, traced.
  void SourceTaskFT(size_t s, jarvis::Micros from, jarvis::Micros to,
                    uint64_t parent);

  /// The runtime's decision for the next epoch, installed on the source.
  void Decide(size_t s, const jarvis::core::EpochObservation& obs);

  jarvis::Status RunParallel(jarvis::stream::RecordBatch* results,
                             uint64_t root, EpochCounters* c);
  jarvis::Status RunFaultTolerant(jarvis::stream::RecordBatch* results,
                                  uint64_t root, EpochCounters* c);
  /// BuildingBlock::ProcessEnvelope + DeliverWire for a clean channel:
  /// every frame delivers on the first attempt.
  jarvis::Status Deliver(size_t s, Envelope* env,
                         jarvis::stream::RecordBatch* results, uint64_t root,
                         EpochCounters* c);

  Workload w_;
  std::vector<GenerateFn> generate_;
  std::vector<std::unique_ptr<jarvis::core::SourceExecutor>> sources_;
  std::vector<std::unique_ptr<jarvis::core::JarvisRuntime>> runtimes_;
  std::unique_ptr<jarvis::core::SpExecutor> sp_;
  jarvis::core::TrafficShaper shaper_;
  jarvis::core::WireCodecOptions codec_;
  jarvis::core::FaultToleranceOptions ft_;
  std::vector<uint32_t> next_seq_;
  std::vector<uint8_t> profile_next_;
  std::vector<uint64_t> last_input_records_;
  /// Per-source counts, written only by the source's own task.
  std::vector<EpochCounters> counts_;
  /// Fault-tolerant path: retained frames per source, pruned below the
  /// oldest restorable checkpoint as the block does.
  std::vector<std::map<uint32_t, jarvis::core::WireFrame>> retained_;
  std::unique_ptr<jarvis::core::ExecPool> pool_;
  std::unique_ptr<jarvis::core::ShardedHandoff<Envelope>> handoff_;
  jarvis::Micros now_ = 0;
  int32_t epoch_ = 0;
  jarvis::Status init_;
};

}  // namespace blockbench

#endif  // JARVIS_BLOCKBENCH_REPLICA_H_
