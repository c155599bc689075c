#ifndef JARVIS_TESTS_TESTING_TEST_UTIL_H_
#define JARVIS_TESTS_TESTING_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "ser/buffer.h"
#include "stream/record.h"

namespace jarvis::testing {

// ---------------------------------------------------------------------------
// Environment pinning
// ---------------------------------------------------------------------------

/// Sets (or, with nullptr, clears) an environment variable for one scope,
/// restoring the previous value on destruction. Tests run serially within a
/// binary, so there are no env races. Use to pin a JARVIS_* knob a test's
/// semantics depend on — CI layers chaos env (JARVIS_TRAFFIC, JARVIS_FAULTS,
/// JARVIS_OVERLOAD, ...) over whole suites, and any test asserting behavior
/// specific to one configuration must not inherit it from the environment.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

// ---------------------------------------------------------------------------
// Record / batch builders
// ---------------------------------------------------------------------------

/// Converts a C++ literal to a stream::Value with the field types the engine
/// actually uses: integral -> int64, floating -> double, text -> string.
inline stream::Value V(int64_t v) { return stream::Value(v); }
inline stream::Value V(int v) { return stream::Value(static_cast<int64_t>(v)); }
inline stream::Value V(double v) { return stream::Value(v); }
inline stream::Value V(const char* v) { return stream::Value(std::string(v)); }
inline stream::Value V(std::string v) { return stream::Value(std::move(v)); }

/// Builds a data record at `event_time` from literal field values:
///   MakeRecord(Seconds(1), 7, 2.5, "host-a")
template <typename... Args>
stream::Record MakeRecord(Micros event_time, Args&&... fields) {
  stream::Record r;
  r.event_time = event_time;
  r.fields = {V(std::forward<Args>(fields))...};
  return r;
}

/// Builds a record already assigned to a tumbling window.
template <typename... Args>
stream::Record MakeWindowedRecord(Micros event_time, Micros window_start,
                                  Args&&... fields) {
  stream::Record r = MakeRecord(event_time, std::forward<Args>(fields)...);
  r.window_start = window_start;
  return r;
}

/// The two-column {int64 key, double value} schema most operator tests use.
inline stream::Schema KvSchema(const char* key_name = "k",
                               const char* val_name = "v") {
  return stream::Schema::Of({{key_name, stream::ValueType::kInt64},
                             {val_name, stream::ValueType::kDouble}});
}

/// Wraps a batch body in a fresh, valid integrity header
/// ([u8 version][u32 length][u32 checksum]), so whatever the body holds
/// passes the frame checks and reaches the body decoder itself.
inline std::vector<uint8_t> SealBatchBody(const std::vector<uint8_t>& body) {
  ser::BufferWriter w;
  w.PutU8(stream::kBatchFormatVersion);
  w.PutU32(static_cast<uint32_t>(body.size()));
  w.PutU32(ser::FrameChecksum(body));
  w.PutBytes(body.data(), body.size());
  return w.Release();
}

/// Builds a batch by calling `make(i)` for i in [0, n).
inline stream::RecordBatch MakeBatch(
    size_t n, const std::function<stream::Record(size_t)>& make) {
  stream::RecordBatch batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) batch.push_back(make(i));
  return batch;
}

// ---------------------------------------------------------------------------
// Float-tolerant batch comparison
// ---------------------------------------------------------------------------

/// Compares two values: exact for int64/string, within `tol` for doubles.
inline ::testing::AssertionResult ValueNear(const stream::Value& a,
                                            const stream::Value& b,
                                            double tol) {
  if (stream::TypeOf(a) != stream::TypeOf(b)) {
    return ::testing::AssertionFailure()
           << "type mismatch: " << stream::ValueToString(a) << " vs "
           << stream::ValueToString(b);
  }
  if (std::holds_alternative<double>(a)) {
    const double da = std::get<double>(a), db = std::get<double>(b);
    if (std::isnan(da) && std::isnan(db)) return ::testing::AssertionSuccess();
    if (std::fabs(da - db) > tol) {
      return ::testing::AssertionFailure()
             << da << " vs " << db << " differ by more than " << tol;
    }
    return ::testing::AssertionSuccess();
  }
  if (!(a == b)) {
    return ::testing::AssertionFailure() << stream::ValueToString(a) << " vs "
                                         << stream::ValueToString(b);
  }
  return ::testing::AssertionSuccess();
}

/// Structural batch equality with numeric tolerance on double fields.
/// Compares kind, window, event time, arity, and every field, and reports
/// the first mismatching position on failure.
inline ::testing::AssertionResult BatchNear(const stream::RecordBatch& got,
                                            const stream::RecordBatch& want,
                                            double tol = 1e-9) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "batch size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const stream::Record& g = got[i];
    const stream::Record& w = want[i];
    if (g.kind != w.kind || g.event_time != w.event_time ||
        g.window_start != w.window_start) {
      return ::testing::AssertionFailure()
             << "record " << i << " header mismatch: kind/time/window ("
             << static_cast<int>(g.kind) << "," << g.event_time << ","
             << g.window_start << ") vs (" << static_cast<int>(w.kind) << ","
             << w.event_time << "," << w.window_start << ")";
    }
    if (g.fields.size() != w.fields.size()) {
      return ::testing::AssertionFailure()
             << "record " << i << " arity " << g.fields.size() << " vs "
             << w.fields.size();
    }
    for (size_t f = 0; f < g.fields.size(); ++f) {
      auto res = ValueNear(g.fields[f], w.fields[f], tol);
      if (!res) {
        return ::testing::AssertionFailure()
               << "record " << i << " field " << f << ": " << res.message();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Seeded randomness
// ---------------------------------------------------------------------------

/// Reads a positive integer from the environment, or `def` when unset/bad.
inline uint64_t EnvOrDefault(const char* name, uint64_t def) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  if (*s == '-' || *s == '+') return def;  // strtoull wraps negatives
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v == 0) return def;
  return static_cast<uint64_t>(v);
}

/// Base seed for randomized tests. Fixed by default so CI is deterministic;
/// override with JARVIS_TEST_SEED=<n> to explore other sequences locally.
inline uint64_t TestSeed() { return EnvOrDefault("JARVIS_TEST_SEED", 42); }

/// Fixture providing a deterministic per-test RNG. The seed mixes the base
/// seed with the test's full name, so reordering or sharding suites never
/// changes any individual test's sequence, and the seed is logged so any
/// failure is reproducible with JARVIS_TEST_SEED.
class SeededTest : public ::testing::Test {
 protected:
  SeededTest() : seed_(MixWithTestName(TestSeed())), rng_(seed_) {}

  void SetUp() override {
    RecordProperty("jarvis_seed", std::to_string(seed_));
  }

  uint64_t seed() const { return seed_; }
  Rng& rng() { return rng_; }

 private:
  static uint64_t MixWithTestName(uint64_t base) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    if (info == nullptr) return base;
    uint64_t h = base;
    const std::string name =
        std::string(info->test_suite_name()) + "." + info->name();
    for (const char c : name) {
      h = SplitMix64(h ^ static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    return h;
  }

  uint64_t seed_;
  Rng rng_;
};

/// Seeds for randomized/fuzz suites: a window of N consecutive seeds, where
/// N comes from JARVIS_FUZZ_ITERS (default 6, keeping CI fast; crank it up
/// locally for deeper runs, e.g. JARVIS_FUZZ_ITERS=64 ctest -L fuzz). The
/// window starts at TestSeed() - 41, so the default base of 42 yields the
/// historical {1, 2, ..., N} corpus while an overridden JARVIS_TEST_SEED
/// (CI rotates it from the run id) slides the whole window to a fresh
/// neighborhood — every run explores new plans, and a failure's seed is in
/// the log for an exact replay.
inline std::vector<uint64_t> FuzzSeeds() {
  // Capped so an absurd override can't abort at static-init time.
  const uint64_t n =
      std::min<uint64_t>(EnvOrDefault("JARVIS_FUZZ_ITERS", 6), 1 << 20);
  const uint64_t base = TestSeed() - 42;  // wrapping is fine: any u64 seeds
  std::vector<uint64_t> seeds(n);
  for (uint64_t i = 0; i < n; ++i) seeds[i] = base + i + 1;
  return seeds;
}

}  // namespace jarvis::testing

#endif  // JARVIS_TESTS_TESTING_TEST_UTIL_H_
