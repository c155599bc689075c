#ifndef JARVIS_CORE_EXEC_POOL_H_
#define JARVIS_CORE_EXEC_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace jarvis::core {

/// Resolves a thread-count knob: `requested` > 0 wins; `requested` == 0 means
/// all hardware threads; `requested` < 0 reads the JARVIS_THREADS environment
/// variable (same convention), defaulting to 1 — tasks run inline on the
/// caller's thread — when unset or unparsable.
int ResolveThreads(int requested);

/// The number of hardware threads, never less than 1.
int HardwareThreads();

/// Fixed worker pool with per-source task queues (the executor kernel of the
/// multithreaded runtime). Tasks submitted under the same key run serially in
/// submission order — a source's epoch work is single-threaded with respect
/// to itself, so SourceExecutor needs no internal locking — while distinct
/// keys run concurrently across the workers. One idle barrier (WaitIdle) per
/// adaptation round gives `stepwise_adapt` and profile collection a
/// consistent epoch boundary.
///
/// Scheduling is intentionally simple and fair: keys with runnable work wait
/// in one FIFO ready list, each worker pops a key, runs exactly one of its
/// tasks, and re-queues the key behind everyone else if more tasks remain.
///
/// Submit/WaitIdle are safe from any thread (including pool tasks); Stop()
/// belongs to one control thread.
class ExecPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ExecPool(size_t num_threads);

  ExecPool(const ExecPool&) = delete;
  ExecPool& operator=(const ExecPool&) = delete;

  /// Drains pending work, then joins the workers (Stop()).
  ~ExecPool();

  /// Enqueues `fn` on `key`'s serial queue. Returns false (and drops the
  /// task) once Stop() has begun.
  bool Submit(size_t key, std::function<void()> fn);

  /// Epoch barrier: blocks until every submitted task has finished. Tasks
  /// submitted by other threads while waiting extend the wait.
  void WaitIdle();

  /// Stops accepting work, runs everything already queued, joins the
  /// workers. Idempotent.
  void Stop();

  size_t num_threads() const;

 private:
  struct SourceQueue {
    std::deque<std::function<void()>> tasks;
    /// True while a worker is executing this key's front task; at most one
    /// worker services a key at any time (per-source serialization).
    bool running = false;
  };

  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: ready work or quit
  std::condition_variable idle_cv_;   // WaitIdle: pending_ == 0
  std::vector<std::thread> workers_;
  std::unordered_map<size_t, SourceQueue> queues_;
  std::deque<size_t> ready_;  // keys with runnable (not running) work, FIFO
  size_t pending_ = 0;        // submitted, not yet finished
  bool accepting_ = true;
  bool quit_ = false;  // workers return at the next dispatch point
  bool stopped_ = false;
};

/// Mutex-sharded per-key hand-off of epoch outputs into the SP consumer: a
/// producer Puts its key's value once per round, and the consumer Takes keys
/// in a fixed order — the stable merge order that makes the epoch
/// bit-identical at every thread count. Keys hash across independent
/// mutex shards so unrelated sources never contend.
template <typename T>
class ShardedHandoff {
 public:
  explicit ShardedHandoff(size_t num_keys, size_t num_shards = 8)
      : shards_(num_shards ? num_shards : 1), slots_(num_keys) {}

  /// Resets every slot to empty and resizes for the next round. Call only
  /// while quiescent (no concurrent Put/Take) — in the epoch loop that is
  /// anywhere between the idle barrier and the next round's submissions.
  void Reset(size_t num_keys) { slots_.assign(num_keys, std::nullopt); }

  /// Empties one slot under its shard lock. The BuildingBlock epoch loop
  /// uses this instead of the quiescent Reset: when a straggler's Put may
  /// still be in flight for *its* slot, the other slots can still be
  /// recycled safely one key at a time.
  void ClearSlot(size_t key) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lk(shard.mu);
    slots_[key].reset();
  }

  /// Grows the slot vector to hold `num_keys` keys (never shrinks; existing
  /// values survive). Takes every shard lock, so it is safe against
  /// concurrent Put/Take on other keys — growth may reallocate the vector.
  void EnsureCapacity(size_t num_keys) {
    if (slots_.size() >= num_keys) return;
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (Shard& s : shards_) locks.emplace_back(s.mu);
    if (slots_.size() < num_keys) slots_.resize(num_keys);
  }

  void Put(size_t key, T v) {
    Shard& shard = ShardOf(key);
    {
      std::lock_guard<std::mutex> lk(shard.mu);
      slots_[key] = std::move(v);
    }
    shard.cv.notify_all();
  }

  /// Blocks until `key`'s slot is filled, then moves it out.
  T Take(size_t key) {
    Shard& shard = ShardOf(key);
    std::unique_lock<std::mutex> lk(shard.mu);
    shard.cv.wait(lk, [&] { return slots_[key].has_value(); });
    T v = std::move(*slots_[key]);
    slots_[key].reset();
    return v;
  }

  /// Deadline-bounded Take: waits at most `timeout` for `key`'s slot, then
  /// returns nullopt. The straggler detector's probe — a missed deadline is
  /// a suspect signal, and the producer's eventual Put stays valid: a later
  /// TryTakeFor/Take on the same key picks the value up.
  template <typename Rep, typename Period>
  std::optional<T> TryTakeFor(size_t key,
                              std::chrono::duration<Rep, Period> timeout) {
    Shard& shard = ShardOf(key);
    std::unique_lock<std::mutex> lk(shard.mu);
    if (!shard.cv.wait_for(lk, timeout,
                           [&] { return slots_[key].has_value(); })) {
      return std::nullopt;
    }
    T v = std::move(*slots_[key]);
    slots_[key].reset();
    return v;
  }

 private:
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
  };

  Shard& ShardOf(size_t key) { return shards_[key % shards_.size()]; }

  std::vector<Shard> shards_;
  std::vector<std::optional<T>> slots_;
};

}  // namespace jarvis::core

#endif  // JARVIS_CORE_EXEC_POOL_H_
