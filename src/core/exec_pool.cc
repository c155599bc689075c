#include "core/exec_pool.h"

#include "common/env.h"

namespace jarvis::core {

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  if (requested == 0) return HardwareThreads();
  // JARVIS_THREADS=0 means "use every hardware thread"; a malformed value
  // aborts at startup instead of silently running single-threaded.
  const long v = env::IntOrDie("JARVIS_THREADS", 1, 0, 4096);
  return v == 0 ? HardwareThreads() : static_cast<int>(v);
}

ExecPool::ExecPool(size_t num_threads) {
  const size_t n = num_threads == 0 ? 1 : num_threads;
  std::lock_guard<std::mutex> lk(mu_);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ExecPool::~ExecPool() { Stop(); }

bool ExecPool::Submit(size_t key, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!accepting_) return false;
    SourceQueue& q = queues_[key];
    q.tasks.push_back(std::move(fn));
    ++pending_;
    // The key sits in the ready list exactly once whenever it has queued
    // work and no worker is on it; a worker that leaves the queue non-empty
    // re-queues it itself.
    if (!q.running && q.tasks.size() == 1) ready_.push_back(key);
  }
  work_cv_.notify_one();
  return true;
}

void ExecPool::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return quit_ || !ready_.empty(); });
    if (quit_) return;
    const size_t key = ready_.front();
    ready_.pop_front();
    SourceQueue& q = queues_[key];
    q.running = true;
    std::function<void()> fn = std::move(q.tasks.front());
    q.tasks.pop_front();
    lk.unlock();
    fn();
    fn = nullptr;  // destroy captures outside the lock
    lk.lock();
    q.running = false;
    if (!q.tasks.empty()) {
      ready_.push_back(key);
      work_cv_.notify_one();
    }
    if (--pending_ == 0) idle_cv_.notify_all();
  }
}

void ExecPool::WaitIdle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] { return pending_ == 0; });
}

void ExecPool::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    stopped_ = true;
    accepting_ = false;
  }
  // Graceful shutdown: everything already queued still runs (no lost drain
  // chunks), then the workers exit.
  WaitIdle();
  std::vector<std::thread> crew;
  {
    std::lock_guard<std::mutex> lk(mu_);
    quit_ = true;
    crew.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& w : crew) w.join();
}

size_t ExecPool::num_threads() const {
  std::lock_guard<std::mutex> lk(mu_);
  return workers_.size();
}

}  // namespace jarvis::core
