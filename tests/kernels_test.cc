// Scalar <-> vector kernel equivalence. Both KernelTable entry points (the
// delta + zigzag varint block codec) are fuzzed against the scalar
// reference with randomized lengths 0..4096, odd (misaligned) head offsets,
// ragged tails and truncated or overlong input, and G+R checkpoint sections
// are checked end to end — the guarantee JARVIS_SIMD relies on: wire bytes
// and carried state are bit-identical across ISAs.

#include "stream/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ser/buffer.h"
#include "ser/codec.h"
#include "stream/group_aggregate.h"
#include "testing/test_util.h"

namespace jarvis::stream::kernels {
namespace {

using jarvis::testing::FuzzSeeds;

constexpr size_t kMaxLen = 4096;
constexpr size_t kSlack = 16;  // head-offset room: lengths stay exact

/// ISAs with a table on this build/CPU, scalar excluded.
std::vector<Isa> VectorIsas() {
  std::vector<Isa> isas;
  for (Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    if (TableFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

/// Restores the dispatched ISA after tests that ForceIsa.
class IsaGuard {
 public:
  IsaGuard() : saved_(ActiveIsa()) {}
  ~IsaGuard() { ForceIsa(saved_); }

 private:
  Isa saved_;
};

/// A length in 0..4096 biased toward vector-width edge cases (multiples of
/// the block sizes plus/minus a little, and tiny tails).
size_t FuzzLen(Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0:
      return rng->NextBounded(kMaxLen + 1);
    case 1:
      return rng->NextBounded(40);  // below every vector width
    case 2: {
      const size_t base = 32 * rng->NextBounded(kMaxLen / 32);
      return base + rng->NextBounded(3);  // ragged tail on a block edge
    }
    default:
      return std::min(kMaxLen, 512 * rng->NextBounded(kMaxLen / 512 + 1) +
                                   rng->NextBounded(5));
  }
}

size_t FuzzOffset(Rng* rng) { return rng->NextBounded(8); }

int64_t FuzzI64(Rng* rng, int64_t pivot) {
  switch (rng->NextBounded(4)) {
    case 0:
      return pivot + static_cast<int64_t>(rng->NextBounded(7)) - 3;
    case 1:
      return static_cast<int64_t>(rng->NextU64());
    case 2:
      return static_cast<int64_t>(rng->NextBounded(1000));
    default:
      return -static_cast<int64_t>(rng->NextBounded(1000));
  }
}

class KernelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelFuzzTest, DeltaVarintEncodeMatchesScalarAndCrossDecodes) {
  const std::vector<Isa> isas = VectorIsas();
  Rng rng(GetParam() * 1039);
  for (int iter = 0; iter < 12; ++iter) {
    const size_t n = FuzzLen(&rng);
    const size_t off = FuzzOffset(&rng);
    std::vector<int64_t> vals(n + kSlack);
    // Four flavors: near-monotone times (the one-byte fast path), mixed
    // magnitudes, full-range randoms (multi-byte varints), and coarse
    // deltas whose zigzags are almost all two bytes with one-byte values
    // sprinkled in, including every boundary mix of the two widths.
    const uint64_t flavor = rng.NextBounded(4);
    int64_t acc = FuzzI64(&rng, 0);
    for (size_t i = 0; i < n; ++i) {
      if (flavor == 0) {
        acc += static_cast<int64_t>(rng.NextBounded(50));
        vals[off + i] = acc;
      } else if (flavor == 1) {
        vals[off + i] = FuzzI64(&rng, 1000);
      } else if (flavor == 2) {
        vals[off + i] = static_cast<int64_t>(rng.NextU64());
      } else {
        acc += rng.NextBounded(8) == 0
                   ? static_cast<int64_t>(rng.NextBounded(64))
                   : 64 + static_cast<int64_t>(rng.NextBounded(8000));
        vals[off + i] = acc;
      }
    }
    const uint64_t prev0 = rng.NextU64();

    std::vector<uint8_t> want_bytes(n * 10 + kSlack, 0xAB);
    uint64_t want_prev = prev0;
    const size_t want_len = Scalar().delta_varint_encode(
        vals.data() + off, n, &want_prev, want_bytes.data());

    for (Isa isa : isas) {
      std::vector<uint8_t> got_bytes(n * 10 + kSlack, 0xCD);
      uint64_t got_prev = prev0;
      const size_t got_len = TableFor(isa)->delta_varint_encode(
          vals.data() + off, n, &got_prev, got_bytes.data());
      ASSERT_EQ(want_len, got_len) << "isa=" << IsaName(isa) << " n=" << n;
      ASSERT_EQ(want_prev, got_prev) << "isa=" << IsaName(isa);
      ASSERT_EQ(0, std::memcmp(want_bytes.data(), got_bytes.data(), want_len))
          << "isa=" << IsaName(isa) << " n=" << n << " flavor=" << flavor;
    }

    // Cross-ISA decode (scalar included): every decoder inverts every
    // encoder's bytes exactly, consuming exactly the encoded length, and
    // agrees with the BufferReader reference decoder.
    if (n == 0) continue;
    std::vector<int64_t> ref(n);
    {
      ser::BufferReader r(want_bytes.data(), want_len);
      ser::DeltaDecoder dec{prev0};
      for (size_t i = 0; i < n; ++i) {
        int64_t delta;
        ASSERT_TRUE(r.GetVarI64(&delta).ok());
        ref[i] = dec.Next(delta);
      }
      ASSERT_TRUE(r.AtEnd());
      ASSERT_EQ(0, std::memcmp(ref.data(), vals.data() + off, n * 8));
    }
    std::vector<Isa> all{Isa::kScalar};
    all.insert(all.end(), isas.begin(), isas.end());
    for (Isa isa : all) {
      std::vector<int64_t> out(n + kSlack, -1);
      uint64_t prev = prev0;
      const size_t used = TableFor(isa)->delta_varint_decode(
          want_bytes.data(), want_len, n, &prev, out.data());
      ASSERT_EQ(want_len, used) << "isa=" << IsaName(isa) << " n=" << n;
      ASSERT_EQ(want_prev, prev) << "isa=" << IsaName(isa);
      ASSERT_EQ(0, std::memcmp(ref.data(), out.data(), n * 8))
          << "isa=" << IsaName(isa) << " n=" << n;
    }
  }
}

TEST_P(KernelFuzzTest, DeltaVarintDecodeRejectsBadInputEverywhere) {
  const std::vector<Isa> isas = VectorIsas();
  Rng rng(GetParam() * 1049);
  std::vector<Isa> all{Isa::kScalar};
  all.insert(all.end(), isas.begin(), isas.end());
  for (int iter = 0; iter < 12; ++iter) {
    const size_t n = 1 + FuzzLen(&rng) % 512;
    std::vector<int64_t> vals(n);
    for (size_t i = 0; i < n; ++i) vals[i] = FuzzI64(&rng, 0);
    std::vector<uint8_t> bytes(n * 10 + kSlack);
    uint64_t prev = 0;
    const size_t len =
        Scalar().delta_varint_encode(vals.data(), n, &prev, bytes.data());

    // Truncation at a random point: asking for all n values must fail in
    // every implementation (never read past `avail`).
    const size_t cut = rng.NextBounded(len);
    for (Isa isa : all) {
      std::vector<int64_t> out(n);
      uint64_t p = 0;
      ASSERT_EQ(0u, TableFor(isa)->delta_varint_decode(bytes.data(), cut, n,
                                                       &p, out.data()))
          << "isa=" << IsaName(isa) << " cut=" << cut << "/" << len;
    }

    // An overlong varint (11 continuation bytes) must be rejected exactly
    // like BufferReader::GetVarU64 rejects it.
    std::vector<uint8_t> overlong(12, 0x80);
    overlong[11] = 0x01;
    for (Isa isa : all) {
      int64_t out;
      uint64_t p = 0;
      ASSERT_EQ(0u, TableFor(isa)->delta_varint_decode(
                        overlong.data(), overlong.size(), 1, &p, &out))
          << "isa=" << IsaName(isa);
    }
  }
}

/// G+R checkpoint sections are where the varint kernels run: the same
/// randomized groups exported as a keyframe and then a delta must produce
/// identical bytes under the scalar table and under BestIsa(), and each
/// export must restore under the other ISA to the rows the live operator
/// emits.
TEST_P(KernelFuzzTest, GroupAggregateSectionsBitIdenticalAcrossIsas) {
  IsaGuard guard;
  Rng rng(GetParam() * 1051);
  const Schema schema = Schema::Of({{"k", ValueType::kInt64},
                                    {"v", ValueType::kDouble},
                                    {"s", ValueType::kString}});
  const auto make_op = [&] {
    return std::make_unique<GroupAggregateOp>(
        "g", schema, std::vector<size_t>{0, 2},
        std::vector<AggSpec>{{AggKind::kCount, 0, "n"},
                             {AggKind::kAvg, 1, "avg"},
                             {AggKind::kMax, 1, "max"}},
        Seconds(1), /*emit_partials=*/true);
  };
  const auto make_batch = [&](size_t n) {
    RecordBatch rows;
    for (size_t i = 0; i < n; ++i) {
      Record r;
      r.event_time = static_cast<Micros>(rng.NextBounded(3 * Seconds(1)));
      r.window_start = r.event_time - r.event_time % Seconds(1);
      r.fields = {Value(FuzzI64(&rng, 50)),
                  Value((rng.NextDouble() - 0.5) * 1e6),
                  Value(std::string("h-") +
                        std::to_string(rng.NextBounded(8)))};
      rows.push_back(std::move(r));
    }
    return rows;
  };
  for (int iter = 0; iter < 4; ++iter) {
    // The keyframe follows `first`; the delta covers the groups `second`
    // creates or updates.
    const RecordBatch first = make_batch(1 + FuzzLen(&rng) % 1024);
    const RecordBatch second = make_batch(1 + FuzzLen(&rng) % 1024);

    struct Export {
      std::vector<uint8_t> keyframe, delta;
      RecordBatch live;  // what the exporting operator itself emits
    };
    const auto export_under = [&](Isa isa) {
      EXPECT_TRUE(ForceIsa(isa));
      auto op = make_op();
      Export e;
      RecordBatch sink, in = first;
      EXPECT_TRUE(op->ProcessBatch(std::move(in), &sink).ok());
      ser::BufferWriter kw;
      EXPECT_TRUE(op->ExportStateDelta(&kw, StateExport::kFull).ok());
      in = second;
      EXPECT_TRUE(op->ProcessBatch(std::move(in), &sink).ok());
      ser::BufferWriter dw;
      EXPECT_TRUE(op->ExportStateDelta(&dw, StateExport::kDelta).ok());
      EXPECT_TRUE(sink.empty());
      EXPECT_TRUE(op->OnWatermark(Seconds(10), &e.live).ok());
      e.keyframe = kw.data();
      e.delta = dw.data();
      return e;
    };
    const auto restore_under = [&](Isa isa, const Export& e) {
      EXPECT_TRUE(ForceIsa(isa));
      auto op = make_op();
      ser::BufferReader kr(e.keyframe);
      EXPECT_TRUE(op->RestoreState(&kr).ok());
      EXPECT_TRUE(kr.AtEnd());
      ser::BufferReader dr(e.delta);
      EXPECT_TRUE(op->RestoreState(&dr).ok());
      EXPECT_TRUE(dr.AtEnd());
      RecordBatch out;
      EXPECT_TRUE(op->OnWatermark(Seconds(10), &out).ok());
      return out;
    };

    const Isa best = BestIsa();
    const Export scalar = export_under(Isa::kScalar);
    const Export vec = export_under(best);
    ASSERT_FALSE(scalar.live.empty());
    EXPECT_EQ(scalar.keyframe, vec.keyframe) << "isa=" << IsaName(best);
    EXPECT_EQ(scalar.delta, vec.delta) << "isa=" << IsaName(best);
    EXPECT_TRUE(jarvis::testing::BatchNear(vec.live, scalar.live, 0.0));
    EXPECT_TRUE(jarvis::testing::BatchNear(restore_under(best, scalar),
                                           scalar.live, 0.0))
        << "isa=" << IsaName(best);
    EXPECT_TRUE(jarvis::testing::BatchNear(restore_under(Isa::kScalar, vec),
                                           scalar.live, 0.0))
        << "isa=" << IsaName(best);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzzTest,
                         ::testing::ValuesIn(FuzzSeeds()));

TEST(KernelDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_NE(TableFor(Isa::kScalar), nullptr);
  EXPECT_EQ(TableFor(Isa::kScalar), &Scalar());
}

TEST(KernelDispatchTest, ForceIsaRoundTrips) {
  IsaGuard guard;
  ASSERT_TRUE(ForceIsa(Isa::kScalar));
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_EQ(&Active(), &Scalar());
  for (Isa isa : VectorIsas()) {
    ASSERT_TRUE(ForceIsa(isa));
    EXPECT_EQ(ActiveIsa(), isa);
    EXPECT_EQ(&Active(), TableFor(isa));
  }
}

TEST(KernelDispatchTest, ForceUnavailableIsaIsRejected) {
  IsaGuard guard;
  ASSERT_TRUE(ForceIsa(Isa::kScalar));
  // At most one of AVX2/NEON can exist in a single build; the other must be
  // rejected without disturbing the current dispatch.
  for (Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    if (TableFor(isa) != nullptr) continue;
    EXPECT_FALSE(ForceIsa(isa));
    EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  }
}

TEST(KernelDispatchTest, BestIsaIsDispatchable) {
  EXPECT_NE(TableFor(BestIsa()), nullptr);
}

TEST(KernelDispatchTest, EmptyInputsAreSafe) {
  std::vector<Isa> all{Isa::kScalar};
  for (Isa isa : VectorIsas()) all.push_back(isa);
  for (Isa isa : all) {
    const KernelTable& k = *TableFor(isa);
    uint64_t prev = 7;
    EXPECT_EQ(k.delta_varint_encode(nullptr, 0, &prev, nullptr), 0u);
    EXPECT_EQ(prev, 7u);
  }
}

}  // namespace
}  // namespace jarvis::stream::kernels
