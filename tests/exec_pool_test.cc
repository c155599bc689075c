// ExecPool determinism harness: pool lifecycle (start/stop/resize), strict
// per-key task ordering, epoch-barrier semantics, shutdown with pending
// work, and the ShardedHandoff's ordered takes — each also fuzzed across
// JARVIS_FUZZ_ITERS seeds with randomized keys, task counts, resizes, and
// barriers. The suite carries the `concurrency` label so the TSan CI leg
// verifies that the claimed serialization (per-key queues, barrier
// happens-before) is real synchronization, not luck: per-key state below is
// deliberately accessed without test-side locks wherever the pool's own
// guarantees make that safe.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/exec_pool.h"
#include "testing/test_util.h"

namespace jarvis::core {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(ExecPoolTest, RunsEverySubmittedTask) {
  ExecPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit(i % 7, [&] { ++ran; }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ExecPoolTest, PerKeyTasksRunInSubmissionOrder) {
  ExecPool pool(4);
  constexpr size_t kKeys = 5;
  constexpr int kTasks = 200;
  // No lock: consecutive tasks of one key are serialized by the pool, and
  // its internal mutex publishes each task's writes to the next. TSan
  // validates that this claim holds.
  std::vector<std::vector<int>> seen(kKeys);
  for (int i = 0; i < kTasks; ++i) {
    for (size_t k = 0; k < kKeys; ++k) {
      pool.Submit(k, [&seen, k, i] { seen[k].push_back(i); });
    }
  }
  pool.WaitIdle();
  for (size_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(seen[k].size(), static_cast<size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i) EXPECT_EQ(seen[k][i], i);
  }
}

TEST(ExecPoolTest, DistinctKeysMakeProgressPastABlockedKey) {
  // Key 0 blocks until key 1's task has run: completes only if distinct
  // keys really run on distinct workers.
  ExecPool pool(2);
  std::atomic<bool> unblocked{false};
  pool.Submit(0, [&] {
    while (!unblocked.load()) SleepMs(1);
  });
  pool.Submit(1, [&] { unblocked.store(true); });
  pool.WaitIdle();
  EXPECT_TRUE(unblocked.load());
}

TEST(ExecPoolTest, WaitIdleIsAnEpochBarrier) {
  ExecPool pool(3);
  for (int epoch = 0; epoch < 5; ++epoch) {
    std::atomic<int> done{0};
    for (size_t k = 0; k < 8; ++k) {
      pool.Submit(k, [&done, k] {
        if (k == 3) SleepMs(5);  // straggler source
        ++done;
      });
    }
    pool.WaitIdle();
    // Every source finished — including its decision tail — before the
    // barrier released; nothing from this epoch leaks into the next.
    EXPECT_EQ(done.load(), 8);
  }
}

TEST(ExecPoolTest, StopDrainsPendingWorkExactlyOnce) {
  std::atomic<int> ran{0};
  {
    ExecPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit(i % 3, [&] {
        SleepMs(1);
        ++ran;
      });
    }
    pool.Stop();  // shutdown with pending work: drains, never drops
    EXPECT_FALSE(pool.Submit(0, [&] { ++ran; }));  // rejected after stop
    pool.Stop();                                   // idempotent
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ExecPoolTest, DestructorDrainsPendingWork) {
  std::atomic<int> ran{0};
  {
    ExecPool pool(2);
    for (int i = 0; i < 32; ++i) pool.Submit(i, [&] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ExecPoolTest, ShardedHandoffDeliversInTakeOrder) {
  constexpr size_t kKeys = 16;
  ShardedHandoff<int> handoff(kKeys, 4);
  ExecPool pool(4);
  for (int round = 0; round < 3; ++round) {
    handoff.Reset(kKeys);
    for (size_t k = 0; k < kKeys; ++k) {
      pool.Submit(k, [&handoff, k, round] {
        handoff.Put(k, static_cast<int>(k) * 100 + round);
      });
    }
    // Consumer takes in ascending key order — the stable merge order —
    // regardless of production order.
    for (size_t k = 0; k < kKeys; ++k) {
      EXPECT_EQ(handoff.Take(k), static_cast<int>(k) * 100 + round);
    }
    pool.WaitIdle();
  }
}

TEST(ExecPoolTest, ShardedHandoffTryTakeForMissesThenPicksUpLatePut) {
  ShardedHandoff<int> handoff(4, 2);
  // Nothing produced: the deadline take misses — the straggler signal.
  EXPECT_FALSE(handoff.TryTakeFor(2, std::chrono::milliseconds(1)).has_value());
  // The producer's eventual Put stays valid for a later take.
  handoff.Put(2, 42);
  auto v = handoff.TryTakeFor(2, std::chrono::milliseconds(1));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  std::thread producer([&] {
    SleepMs(5);
    handoff.Put(3, 43);
  });
  auto late = handoff.TryTakeFor(3, std::chrono::seconds(10));
  producer.join();
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(*late, 43);
}

TEST(ExecPoolTest, ShardedHandoffClearSlotAndEnsureCapacity) {
  ShardedHandoff<int> handoff(2, 2);
  handoff.Put(0, 5);
  // ClearSlot recycles one key without the quiescence Reset requires.
  handoff.ClearSlot(0);
  EXPECT_FALSE(handoff.TryTakeFor(0, std::chrono::milliseconds(1)).has_value());
  handoff.Put(1, 6);
  // Growth preserves existing values and makes new keys usable.
  handoff.EnsureCapacity(6);
  EXPECT_EQ(handoff.Take(1), 6);
  handoff.Put(5, 7);
  EXPECT_EQ(handoff.Take(5), 7);
}

TEST(ExecPoolTest, ResolveThreadsConventions) {
  EXPECT_EQ(ResolveThreads(3), 3);
  EXPECT_EQ(ResolveThreads(0), HardwareThreads());
  EXPECT_GE(HardwareThreads(), 1);
  // -1 falls back to JARVIS_THREADS; without the variable it is the serial
  // loop. (CI sets the variable for some legs, so only sanity-check range.)
  EXPECT_GE(ResolveThreads(-1), 1);
}

// ---------------------------------------------------------------------------
// Fuzzed lifecycle: random keys, task counts, and barriers must never lose,
// duplicate, or reorder per-key work.
// ---------------------------------------------------------------------------

class ExecPoolFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecPoolFuzzTest, RandomizedLifecyclePreservesPerKeyHistory) {
  Rng rng(GetParam() * 7919);
  const size_t threads = 1 + rng.NextBounded(4);
  const size_t keys = 1 + rng.NextBounded(12);
  ExecPool pool(threads);
  std::vector<std::vector<uint32_t>> seen(keys);  // per-key: pool-serialized
  std::vector<uint32_t> next_tag(keys, 0);

  const int rounds = 3 + static_cast<int>(rng.NextBounded(5));
  for (int r = 0; r < rounds; ++r) {
    const int tasks = static_cast<int>(rng.NextBounded(120));
    for (int t = 0; t < tasks; ++t) {
      const size_t k = rng.NextBounded(keys);
      const uint32_t tag = next_tag[k]++;
      const bool dawdle = rng.NextBounded(64) == 0;
      ASSERT_TRUE(pool.Submit(k, [&seen, k, tag, dawdle] {
        if (dawdle) SleepMs(1);
        seen[k].push_back(tag);
      }));
    }
    // A barrier one round in four; otherwise keep piling on.
    if (rng.NextBounded(4) == 0) pool.WaitIdle();
  }
  pool.Stop();  // drains everything still queued
  for (size_t k = 0; k < keys; ++k) {
    ASSERT_EQ(seen[k].size(), next_tag[k]) << "key " << k;
    for (uint32_t i = 0; i < next_tag[k]; ++i) {
      ASSERT_EQ(seen[k][i], i) << "key " << k << " position " << i;
    }
  }
}

TEST_P(ExecPoolFuzzTest, RandomizedHandoffRoundsStayOrdered) {
  Rng rng(GetParam() * 104729);
  const size_t keys = 1 + rng.NextBounded(24);
  const size_t shards = 1 + rng.NextBounded(8);
  ExecPool pool(1 + rng.NextBounded(4));
  ShardedHandoff<uint64_t> handoff(keys, shards);
  const int rounds = 2 + static_cast<int>(rng.NextBounded(6));
  for (int r = 0; r < rounds; ++r) {
    handoff.Reset(keys);
    for (size_t k = 0; k < keys; ++k) {
      const uint64_t v = (static_cast<uint64_t>(r) << 32) | k;
      pool.Submit(k, [&handoff, k, v] { handoff.Put(k, v); });
    }
    for (size_t k = 0; k < keys; ++k) {
      EXPECT_EQ(handoff.Take(k), (static_cast<uint64_t>(r) << 32) | k);
    }
    pool.WaitIdle();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecPoolFuzzTest,
                         ::testing::ValuesIn(jarvis::testing::FuzzSeeds()));

}  // namespace
}  // namespace jarvis::core
