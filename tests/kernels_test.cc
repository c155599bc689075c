// Scalar <-> vector kernel equivalence. Every KernelTable entry point is
// fuzzed against the scalar reference with randomized lengths 0..4096, odd
// (misaligned) head offsets, ragged tails, empty/full selection bitmaps,
// adversarial doubles (NaN/inf/-0.0), and fallback rows interleaved through
// the density bitmap — the guarantee JARVIS_SIMD relies on: outputs, wire
// bytes, and carried state are bit-identical across ISAs.

#include "stream/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "ser/buffer.h"
#include "ser/codec.h"
#include "stream/columnar.h"
#include "stream/ops.h"
#include "stream/pipeline.h"
#include "stream/predicate.h"
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

double FuzzF64(Rng* rng, double pivot) {
  switch (rng->NextBounded(8)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return -0.0;
    case 4:
      return pivot;
    default:
      return (rng->NextDouble() - 0.5) * 100.0;
  }
}

std::vector<uint8_t> FuzzSel(Rng* rng, size_t n) {
  std::vector<uint8_t> sel(n + kSlack);
  const double p = rng->NextDouble();  // includes near-empty and near-full
  for (size_t i = 0; i < n; ++i) {
    sel[i] = rng->NextBernoulli(p) ? 1 : 0;
  }
  if (n > 0 && rng->NextBounded(4) == 0) {
    std::fill(sel.begin(), sel.begin() + n,
              static_cast<uint8_t>(rng->NextBounded(2)));  // all-0 / all-1
  }
  return sel;
}

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

class KernelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelFuzzTest, CmpFillI64MatchesScalar) {
  const std::vector<Isa> isas = VectorIsas();
  Rng rng(GetParam() * 1009);
  for (int iter = 0; iter < 12; ++iter) {
    const size_t n = FuzzLen(&rng);
    const size_t off = FuzzOffset(&rng);
    const int64_t c = FuzzI64(&rng, 42);
    std::vector<int64_t> buf(n + kSlack);
    for (size_t i = 0; i < n; ++i) buf[off + i] = FuzzI64(&rng, c);
    std::vector<uint8_t> want(n + kSlack), got(n + kSlack);
    for (CmpOp op : kAllOps) {
      Scalar().cmp_fill_i64(buf.data() + off, n, c, op, want.data() + off);
      for (Isa isa : isas) {
        std::fill(got.begin(), got.end(), uint8_t{0xAA});
        TableFor(isa)->cmp_fill_i64(buf.data() + off, n, c, op,
                                    got.data() + off);
        ASSERT_EQ(0, std::memcmp(want.data() + off, got.data() + off, n))
            << "isa=" << IsaName(isa) << " op=" << CmpOpToString(op)
            << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST_P(KernelFuzzTest, CmpFillF64MatchesScalar) {
  const std::vector<Isa> isas = VectorIsas();
  Rng rng(GetParam() * 1013);
  for (int iter = 0; iter < 12; ++iter) {
    const size_t n = FuzzLen(&rng);
    const size_t off = FuzzOffset(&rng);
    const double c = FuzzF64(&rng, 0.5);
    std::vector<double> buf(n + kSlack);
    for (size_t i = 0; i < n; ++i) buf[off + i] = FuzzF64(&rng, c);
    std::vector<uint8_t> want(n + kSlack), got(n + kSlack);
    for (CmpOp op : kAllOps) {
      Scalar().cmp_fill_f64(buf.data() + off, n, c, op, want.data() + off);
      for (Isa isa : isas) {
        std::fill(got.begin(), got.end(), uint8_t{0xAA});
        TableFor(isa)->cmp_fill_f64(buf.data() + off, n, c, op,
                                    got.data() + off);
        ASSERT_EQ(0, std::memcmp(want.data() + off, got.data() + off, n))
            << "isa=" << IsaName(isa) << " op=" << CmpOpToString(op)
            << " n=" << n << " off=" << off << " c=" << c;
      }
    }
  }
}

TEST_P(KernelFuzzTest, SelCombinesMatchScalar) {
  const std::vector<Isa> isas = VectorIsas();
  Rng rng(GetParam() * 1019);
  for (int iter = 0; iter < 16; ++iter) {
    const size_t n = FuzzLen(&rng);
    const size_t off = FuzzOffset(&rng);
    const std::vector<uint8_t> a = FuzzSel(&rng, n + off);
    const std::vector<uint8_t> b = FuzzSel(&rng, n + off);
    std::vector<uint8_t> want, got;
    for (Isa isa : isas) {
      const KernelTable& k = *TableFor(isa);

      want = a;
      Scalar().sel_and(want.data() + off, b.data() + off, n);
      got = a;
      k.sel_and(got.data() + off, b.data() + off, n);
      ASSERT_EQ(want, got) << "and isa=" << IsaName(isa) << " n=" << n;

      want = a;
      Scalar().sel_or(want.data() + off, b.data() + off, n);
      got = a;
      k.sel_or(got.data() + off, b.data() + off, n);
      ASSERT_EQ(want, got) << "or isa=" << IsaName(isa) << " n=" << n;

      want.assign(n + kSlack, 0xCC);
      Scalar().sel_not(want.data(), a.data() + off, n);
      got.assign(n + kSlack, 0xCC);
      k.sel_not(got.data(), a.data() + off, n);
      ASSERT_EQ(want, got) << "not isa=" << IsaName(isa) << " n=" << n;

      ASSERT_EQ(Scalar().sel_count(a.data() + off, n),
                k.sel_count(a.data() + off, n))
          << "count isa=" << IsaName(isa) << " n=" << n;
    }
  }
}

TEST_P(KernelFuzzTest, Compact64MatchesScalar) {
  const std::vector<Isa> isas = VectorIsas();
  Rng rng(GetParam() * 1021);
  for (int iter = 0; iter < 16; ++iter) {
    const size_t n = FuzzLen(&rng);
    const size_t off = FuzzOffset(&rng);
    const std::vector<uint8_t> keep = FuzzSel(&rng, n);
    // Raw 8-byte payloads (covers i64, f64 bit patterns, Micros alike).
    std::vector<uint64_t> data(n + kSlack);
    for (size_t i = 0; i < n; ++i) data[off + i] = rng.NextU64();
    std::vector<uint64_t> want = data;
    const size_t want_n =
        Scalar().compact64(want.data() + off, keep.data(), n);
    for (Isa isa : isas) {
      std::vector<uint64_t> got = data;
      const size_t got_n =
          TableFor(isa)->compact64(got.data() + off, keep.data(), n);
      ASSERT_EQ(want_n, got_n) << "isa=" << IsaName(isa) << " n=" << n;
      ASSERT_EQ(0, std::memcmp(want.data() + off, got.data() + off,
                               want_n * sizeof(uint64_t)))
          << "isa=" << IsaName(isa) << " n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelFuzzTest, Compact8MatchesScalar) {
  const std::vector<Isa> isas = VectorIsas();
  Rng rng(GetParam() * 1031);
  for (int iter = 0; iter < 16; ++iter) {
    const size_t n = FuzzLen(&rng);
    const size_t off = FuzzOffset(&rng);
    const std::vector<uint8_t> keep = FuzzSel(&rng, n);
    std::vector<uint8_t> data(n + kSlack);
    for (size_t i = 0; i < n; ++i) {
      data[off + i] = static_cast<uint8_t>(rng.NextBounded(256));
    }
    std::vector<uint8_t> want = data;
    const size_t want_n = Scalar().compact8(want.data() + off, keep.data(), n);
    for (Isa isa : isas) {
      std::vector<uint8_t> got = data;
      const size_t got_n =
          TableFor(isa)->compact8(got.data() + off, keep.data(), n);
      ASSERT_EQ(want_n, got_n) << "isa=" << IsaName(isa) << " n=" << n;
      ASSERT_EQ(0, std::memcmp(want.data() + off, got.data() + off, want_n))
          << "isa=" << IsaName(isa) << " n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelFuzzTest, DensityExpandMatchesScalar) {
  const std::vector<Isa> isas = VectorIsas();
  Rng rng(GetParam() * 1033);
  for (int iter = 0; iter < 16; ++iter) {
    const size_t n = FuzzLen(&rng);
    const size_t off = FuzzOffset(&rng);
    // Density patterns: interleaved fallback rows at several rates, plus
    // the uniform all-dense / all-fallback chunks the vector fast path eats.
    std::vector<uint8_t> density(n + kSlack, 0);
    const double dense_p =
        (rng.NextBounded(4) == 0) ? static_cast<double>(rng.NextBounded(2))
                                  : rng.NextDouble();
    size_t nd = 0;
    for (size_t i = 0; i < n; ++i) {
      density[off + i] = rng.NextBernoulli(dense_p) ? 1 : 0;
      nd += density[off + i];
    }
    const std::vector<uint8_t> keep_dense = FuzzSel(&rng, nd);
    const std::vector<uint8_t> keep_fallback = FuzzSel(&rng, n - nd);
    std::vector<uint8_t> want(n + kSlack, 0xEE), got(n + kSlack, 0xEE);
    Scalar().density_expand(density.data() + off, n, keep_dense.data(),
                            keep_fallback.data(), want.data() + off);
    for (Isa isa : isas) {
      std::fill(got.begin(), got.end(), uint8_t{0xEE});
      TableFor(isa)->density_expand(density.data() + off, n, keep_dense.data(),
                                    keep_fallback.data(), got.data() + off);
      ASSERT_EQ(want, got) << "isa=" << IsaName(isa) << " n=" << n
                           << " off=" << off;
    }
  }
}

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

/// End-to-end bit-identity: the same randomized batches (fallback rows
/// interleaved) through the same columnar pipeline and drain codec must
/// yield identical rows, identical operator stats, and identical wire bytes
/// under every JARVIS_SIMD setting.
TEST_P(KernelFuzzTest, ColumnarPipelineBitIdenticalAcrossIsas) {
  IsaGuard guard;
  Rng rng(GetParam() * 1051);
  const Schema schema = Schema::Of({{"k", ValueType::kInt64},
                                    {"v", ValueType::kDouble},
                                    {"s", ValueType::kString}});
  for (int iter = 0; iter < 4; ++iter) {
    // One shared input: conforming rows, kPartial accumulators, and
    // schema-divergent records (short arity) interleaved.
    RecordBatch rows;
    const size_t n = 1 + FuzzLen(&rng) % 1024;
    for (size_t i = 0; i < n; ++i) {
      Record r;
      r.event_time = static_cast<Micros>(i) * 997;
      const uint64_t kind = rng.NextBounded(10);
      if (kind == 0) {
        r.kind = RecordKind::kPartial;
        r.fields = {Value(static_cast<int64_t>(rng.NextBounded(100)))};
      } else if (kind == 1) {
        r.fields = {Value(static_cast<int64_t>(rng.NextBounded(100)))};
      } else {
        r.fields = {Value(FuzzI64(&rng, 50)), Value(FuzzF64(&rng, 0.5)),
                    Value(std::string("h-") +
                          std::to_string(rng.NextBounded(8)))};
      }
      rows.push_back(std::move(r));
    }

    const TypedPredicate pred =
        PredOr({PredAnd({PredI64(0, CmpOp::kLt, 60), PredF64(1, CmpOp::kGe, 0.0)}),
                PredStr(2, CmpOp::kEq, "h-3")});

    struct RunResult {
      RecordBatch out;
      std::vector<uint8_t> wire;
      uint64_t filter_in = 0, filter_out = 0;
    };
    const auto run = [&](Isa isa) {
      EXPECT_TRUE(ForceIsa(isa));
      Pipeline pipe;
      pipe.Add(std::make_unique<WindowOp>("w", schema, Seconds(1)));
      pipe.Add(std::make_unique<FilterOp>("f", schema, pred));
      pipe.Add(std::make_unique<ProjectOp>("p", schema,
                                           std::vector<size_t>{0, 1, 2}));
      RecordBatch copy = rows;
      ColumnarBatch cb = ColumnarBatch::FromRows(std::move(copy), schema);
      EXPECT_TRUE(pipe.PushColumnar(&cb).ok());
      RunResult res;
      ser::BufferWriter w;
      SerializeColumnar(cb, &w);
      res.wire = w.data();
      cb.MoveToRows(&res.out);
      res.filter_in = pipe.op(1).stats().records_in;
      res.filter_out = pipe.op(1).stats().records_out;
      // The wire must decode back to the same rows under this ISA too.
      ser::BufferReader r(res.wire);
      RecordBatch decoded;
      EXPECT_TRUE(DeserializeColumnar(&r, &decoded).ok());
      EXPECT_TRUE(jarvis::testing::BatchNear(decoded, res.out, 0.0));
      return res;
    };

    const RunResult want = run(Isa::kScalar);
    for (Isa isa : VectorIsas()) {
      const RunResult got = run(isa);
      EXPECT_TRUE(jarvis::testing::BatchNear(got.out, want.out, 0.0))
          << "isa=" << IsaName(isa);
      EXPECT_EQ(want.wire, got.wire) << "isa=" << IsaName(isa);
      EXPECT_EQ(want.filter_in, got.filter_in) << "isa=" << IsaName(isa);
      EXPECT_EQ(want.filter_out, got.filter_out) << "isa=" << IsaName(isa);
    }
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
    uint8_t sel = 0xAA;
    k.cmp_fill_i64(nullptr, 0, 0, CmpOp::kEq, nullptr);
    k.cmp_fill_f64(nullptr, 0, 0.0, CmpOp::kLt, nullptr);
    k.sel_and(nullptr, nullptr, 0);
    k.sel_or(nullptr, nullptr, 0);
    k.sel_not(nullptr, nullptr, 0);
    EXPECT_EQ(k.sel_count(nullptr, 0), 0u);
    EXPECT_EQ(k.compact64(nullptr, nullptr, 0), 0u);
    EXPECT_EQ(k.compact8(nullptr, nullptr, 0), 0u);
    k.density_expand(nullptr, 0, nullptr, nullptr, nullptr);
    uint64_t prev = 7;
    EXPECT_EQ(k.delta_varint_encode(nullptr, 0, &prev, nullptr), 0u);
    EXPECT_EQ(prev, 7u);
    (void)sel;
  }
}

}  // namespace
}  // namespace jarvis::stream::kernels
