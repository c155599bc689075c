#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "ser/buffer.h"
#include "testing/test_util.h"

namespace jarvis::ser {
namespace {

TEST(ZigZagTest, KnownValues) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  EXPECT_EQ(ZigZagEncode(2), 4u);
}

TEST(ZigZagTest, RoundTripExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(BufferTest, FixedWidthRoundTrip) {
  BufferWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutDouble(3.14159);

  BufferReader r(w.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, VarIntSmallValuesAreOneByte) {
  for (uint64_t v : {0ull, 1ull, 127ull}) {
    BufferWriter w;
    w.PutVarU64(v);
    EXPECT_EQ(w.size(), 1u) << v;
  }
}

TEST(BufferTest, VarIntBoundaries) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{16383}, uint64_t{16384},
                     std::numeric_limits<uint64_t>::max()}) {
    BufferWriter w;
    w.PutVarU64(v);
    BufferReader r(w.data());
    uint64_t out;
    ASSERT_TRUE(r.GetVarU64(&out).ok());
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(BufferTest, SignedVarIntRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-1000000},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    BufferWriter w;
    w.PutVarI64(v);
    BufferReader r(w.data());
    int64_t out;
    ASSERT_TRUE(r.GetVarI64(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(BufferTest, StringRoundTrip) {
  BufferWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string(1000, 'x'));
  BufferReader r(w.data());
  std::string a, b, c;
  ASSERT_TRUE(r.GetString(&a).ok());
  ASSERT_TRUE(r.GetString(&b).ok());
  ASSERT_TRUE(r.GetString(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'x'));
}

TEST(BufferTest, TruncatedReadsFail) {
  BufferWriter w;
  w.PutU64(42);
  BufferReader r(w.data().data(), 4);  // half the bytes
  uint64_t out;
  EXPECT_EQ(r.GetU64(&out).code(), StatusCode::kSerializationError);
}

TEST(BufferTest, TruncatedStringFails) {
  BufferWriter w;
  w.PutVarU64(100);  // claims 100 bytes follow
  w.PutU8('x');
  BufferReader r(w.data());
  std::string out;
  EXPECT_EQ(r.GetString(&out).code(), StatusCode::kSerializationError);
}

TEST(BufferTest, OverlongVarIntFails) {
  // 11 continuation bytes exceed the 64-bit range.
  std::vector<uint8_t> bad(11, 0x80);
  BufferReader r(bad.data(), bad.size());
  uint64_t out;
  EXPECT_EQ(r.GetVarU64(&out).code(), StatusCode::kSerializationError);
}

TEST(BufferTest, HugeStringLengthFailsWithoutWrapping) {
  // Lengths near 2^64 wrap `position + length` below the span end; the
  // check must compare against what is left, or the string copy is asked
  // for ~2^64 bytes and throws.
  for (const uint64_t len :
       {~uint64_t{0}, ~uint64_t{2}, uint64_t{1} << 63, uint64_t{1} << 32}) {
    BufferWriter w;
    w.PutVarU64(len);
    w.PutBytes(reinterpret_cast<const uint8_t*>("abcdefgh"), 8);
    BufferReader r(w.data());
    std::string out = "kept";
    EXPECT_EQ(r.GetString(&out).code(), StatusCode::kSerializationError)
        << len;
    EXPECT_EQ(out, "kept");
  }
}

TEST(BufferTest, VarIntNearTheEndDecodesLikeTheFastPath) {
  // The same varints read with a full varint's worth of bytes left (the
  // inline path) and as the span's last bytes (the byte-checked path).
  for (const uint64_t seed : jarvis::testing::FuzzSeeds()) {
    Rng rng(seed);
    const uint64_t v = rng.NextU64() >> rng.NextBounded(64);
    BufferWriter exact;
    exact.PutVarU64(v);
    BufferWriter padded;
    padded.PutVarU64(v);
    padded.PutBytes(std::vector<uint8_t>(kMaxVarIntBytes, 0).data(),
                    kMaxVarIntBytes);
    BufferReader slow(exact.data()), fast(padded.data());
    uint64_t a = 0, b = 0;
    ASSERT_TRUE(slow.GetVarU64(&a).ok()) << v;
    ASSERT_TRUE(fast.GetVarU64(&b).ok()) << v;
    EXPECT_EQ(a, v);
    EXPECT_EQ(b, v);
    EXPECT_EQ(slow.position(), fast.position());
    EXPECT_TRUE(slow.AtEnd());
    // Every cut of it fails on the byte-checked path and leaves zero.
    for (size_t cut = 0; cut < exact.size(); ++cut) {
      BufferReader r(exact.data().data(), cut);
      uint64_t out = 7;
      EXPECT_EQ(r.GetVarU64(&out).code(), StatusCode::kSerializationError);
      EXPECT_EQ(out, 0u);
    }
  }
}

TEST(BufferTest, EmptyReaderReportsAtEnd) {
  BufferReader r(nullptr, 0);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.remaining(), 0u);
  uint8_t out;
  EXPECT_FALSE(r.GetU8(&out).ok());
}

TEST(BufferTest, ClearResets) {
  BufferWriter w;
  w.PutU64(1);
  EXPECT_GT(w.size(), 0u);
  w.Clear();
  EXPECT_EQ(w.size(), 0u);
}

TEST(BufferTest, VarIntSizeMatchesEncodedLength) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{16383}, uint64_t{16384}, uint64_t{1} << 35,
                     std::numeric_limits<uint64_t>::max()}) {
    BufferWriter w;
    w.PutVarU64(v);
    EXPECT_EQ(VarIntSize(v), w.size()) << v;
    uint8_t tmp[10];
    EXPECT_EQ(EncodeVarU64(v, tmp), w.size()) << v;
    EXPECT_EQ(0, std::memcmp(tmp, w.data().data(), w.size())) << v;
  }
}

TEST(BufferTest, ReserveDoesNotChangeContents) {
  BufferWriter w;
  w.PutU32(0xdeadbeef);
  w.Reserve(1 << 16);
  EXPECT_EQ(w.size(), 4u);
  w.PutU32(0xfeedface);
  BufferReader r(w.data());
  uint32_t a, b;
  ASSERT_TRUE(r.GetU32(&a).ok());
  ASSERT_TRUE(r.GetU32(&b).ok());
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0xfeedfaceu);
}

// Property sweep: random mixed payloads round-trip exactly.
class SerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerPropertyTest, MixedPayloadRoundTrip) {
  Rng rng(GetParam());
  BufferWriter w;
  std::vector<int> kinds;
  std::vector<uint64_t> u64s;
  std::vector<int64_t> i64s;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  for (int i = 0; i < 200; ++i) {
    const int kind = static_cast<int>(rng.NextBounded(4));
    kinds.push_back(kind);
    switch (kind) {
      case 0: {
        const uint64_t v = rng.NextU64() >> rng.NextBounded(64);
        u64s.push_back(v);
        w.PutVarU64(v);
        break;
      }
      case 1: {
        const int64_t v =
            static_cast<int64_t>(rng.NextU64() >> rng.NextBounded(64)) -
            static_cast<int64_t>(rng.NextBounded(1000));
        i64s.push_back(v);
        w.PutVarI64(v);
        break;
      }
      case 2: {
        const double v = rng.NextGaussian() * 1e6;
        doubles.push_back(v);
        w.PutDouble(v);
        break;
      }
      default: {
        std::string s(rng.NextBounded(40), ' ');
        for (char& c : s) c = static_cast<char>('a' + rng.NextBounded(26));
        strings.push_back(s);
        w.PutString(s);
      }
    }
  }
  BufferReader r(w.data());
  size_t iu = 0, ii = 0, id = 0, is = 0;
  for (int kind : kinds) {
    switch (kind) {
      case 0: {
        uint64_t v;
        ASSERT_TRUE(r.GetVarU64(&v).ok());
        EXPECT_EQ(v, u64s[iu++]);
        break;
      }
      case 1: {
        int64_t v;
        ASSERT_TRUE(r.GetVarI64(&v).ok());
        EXPECT_EQ(v, i64s[ii++]);
        break;
      }
      case 2: {
        double v;
        ASSERT_TRUE(r.GetDouble(&v).ok());
        EXPECT_DOUBLE_EQ(v, doubles[id++]);
        break;
      }
      default: {
        std::string v;
        ASSERT_TRUE(r.GetString(&v).ok());
        EXPECT_EQ(v, strings[is++]);
      }
    }
  }
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace jarvis::ser
