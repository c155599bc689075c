#ifndef JARVIS_BLOCKBENCH_TRACE_H_
#define JARVIS_BLOCKBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace blockbench {

/// Allocations made so far by the calling thread. The benchmark binary
/// replaces the global operator new (alloc_count.cc) with a thread-local
/// counter, so the difference around a call is exactly what that call
/// allocated on this thread.
uint64_t ThreadAllocs();

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer a traced call belongs to, named after the repository module
/// that implements it.
enum class Layer : uint8_t {
  kEpoch,        // core/building_block: one root span per epoch
  kTask,         // core/exec_pool: one pool task on a worker thread
  kGen,          // workloads: the SourceSpec::generate callback
  kSource,       // core/source_executor: Ingest + RunEpoch
  kWireEncode,   // core/drain_wire: SerializeDrain
  kWireDecode,   // core/drain_wire: DecodeDrain
  kSpConsume,    // core/sp_executor: Consume, or ConsumeFrame of data frames
  kSpEndEpoch,   // core/sp_executor: EndEpoch
  kControl,      // core/runtime: wire-ratio fold, OnEpochEnd, plan install
  kPoolWait,     // core/exec_pool: consumer blocked on the next envelope
  kPoolBarrier,  // core/exec_pool: WaitIdle
  kPoolHandoff,  // core/exec_pool: ShardedHandoff::Put of a task's envelope
  kCkptExport,   // core/checkpoint: ExportCheckpointBody, seal, frame
  kCkptStore,    // core/checkpoint: ConsumeFrame of checkpoint frames
  kNumLayers,
};

const char* LayerName(Layer layer);

/// One traced call. Spans of one epoch share `epoch`; `parent` is the id of
/// the span that caused this one (0 for an epoch root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t allocs = 0;
  int32_t epoch = 0;
  int32_t source = -1;  // -1 when the call is not per source
  uint16_t thread = 0;
  Layer layer = Layer::kEpoch;
};

/// Records one span, from construction to destruction, into the calling
/// thread's in-memory buffer.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, int32_t epoch, uint64_t parent, int32_t source = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  uint64_t allocs_at_start_ = 0;
};

/// Every span recorded since the last ClearSpans, from all threads. Call
/// only while no thread is recording.
std::vector<Span> CollectSpans();
void ClearSpans();

/// Writes spans as CSV (one line per span). Returns false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace blockbench

#endif  // JARVIS_BLOCKBENCH_TRACE_H_
