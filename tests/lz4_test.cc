#include "third_party/lz4/lz4_block.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "testing/test_util.h"

// Direct tests of the vendored LZ4 block codec, independent of the drain
// wire: the wire layer assumes Compress output always round-trips and that
// Decompress rejects every malformed stream with `false` instead of
// undefined behavior. The sanitizer CI legs are the real judge on the
// corruption sweeps here — a "return false" that read out of bounds first
// still fails the build.

namespace jarvis {
namespace {

using ::jarvis::testing::SeededTest;

std::vector<uint8_t> RoundTrip(const std::vector<uint8_t>& src) {
  std::vector<uint8_t> dst(lz4::CompressBound(src.size()));
  const size_t n =
      lz4::Compress(src.data(), src.size(), dst.data(), dst.size());
  EXPECT_GT(n, 0u) << "compress failed at CompressBound capacity";
  dst.resize(n);
  std::vector<uint8_t> back(src.size());
  EXPECT_TRUE(lz4::Decompress(dst.data(), dst.size(), back.data(),
                              back.size()));
  EXPECT_EQ(back, src);
  return dst;
}

class Lz4Test : public SeededTest {};

TEST_F(Lz4Test, EmptyInputRoundTrips) {
  // Valid (non-null) buffers with zero logical length: memcpy with a null
  // pointer is UB even at size 0, and the codec forwards its arguments.
  std::vector<uint8_t> scratch(1);
  std::vector<uint8_t> dst(lz4::CompressBound(0));
  const size_t n = lz4::Compress(scratch.data(), 0, dst.data(), dst.size());
  ASSERT_GT(n, 0u);
  EXPECT_TRUE(lz4::Decompress(dst.data(), n, scratch.data(), 0));
}

TEST_F(Lz4Test, TinyInputsAreAllLiterals) {
  // Below kMfLimit (12 bytes) no match can legally start, so every tiny
  // input must round-trip through the literals-only closing sequence.
  for (size_t len = 1; len <= 16; ++len) {
    std::vector<uint8_t> src(len);
    for (size_t i = 0; i < len; ++i) {
      src[i] = static_cast<uint8_t>(rng().NextU64());
    }
    RoundTrip(src);
  }
}

TEST_F(Lz4Test, RepetitiveInputCompresses) {
  const std::string unit = "GET /api/v1/users/12345/profile HTTP/1.1 ";
  std::vector<uint8_t> src;
  for (int i = 0; i < 64; ++i) {
    src.insert(src.end(), unit.begin(), unit.end());
  }
  const std::vector<uint8_t> packed = RoundTrip(src);
  EXPECT_LT(packed.size(), src.size() / 4)
      << "64x-repeated template should compress at least 4:1";
}

TEST_F(Lz4Test, LongRunsExerciseOverlappedCopies) {
  // offset < match length forces the decoder's overlap-correct byte copy;
  // a memcpy-based decoder corrupts this case.
  std::vector<uint8_t> src(4096, 0xAB);
  for (size_t i = 0; i < src.size(); i += 257) {
    src[i] = static_cast<uint8_t>(i >> 3);
  }
  RoundTrip(src);
}

TEST_F(Lz4Test, IncompressibleRandomRoundTrips) {
  for (const size_t len : {13u, 64u, 255u, 256u, 4096u, 70000u}) {
    std::vector<uint8_t> src(len);
    for (size_t i = 0; i < len; ++i) {
      src[i] = static_cast<uint8_t>(rng().NextU64());
    }
    const std::vector<uint8_t> packed = RoundTrip(src);
    EXPECT_LE(packed.size(), lz4::CompressBound(len));
  }
}

TEST_F(Lz4Test, MixedPayloadFuzzRoundTrips) {
  // Interleaved runs, random noise, and repeated templates at random
  // lengths: the shapes real drain and checkpoint payloads take.
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<uint8_t> src;
    const size_t target = 1 + rng().NextBounded(20000);
    while (src.size() < target) {
      switch (rng().NextBounded(3)) {
        case 0: {  // literal noise
          const size_t n = 1 + rng().NextBounded(40);
          for (size_t i = 0; i < n; ++i) {
            src.push_back(static_cast<uint8_t>(rng().NextU64()));
          }
          break;
        }
        case 1: {  // byte run
          const size_t n = 4 + rng().NextBounded(300);
          src.insert(src.end(), n, static_cast<uint8_t>(rng().NextU64()));
          break;
        }
        default: {  // copy an earlier window (guaranteed match material)
          if (src.empty()) break;
          const size_t off = rng().NextBounded(src.size());
          const size_t n =
              1 + rng().NextBounded(std::min<size_t>(src.size() - off, 500));
          // Self-insert: vector growth may invalidate, so copy out first.
          const std::vector<uint8_t> win(src.begin() + off,
                                         src.begin() + off + n);
          src.insert(src.end(), win.begin(), win.end());
          break;
        }
      }
    }
    RoundTrip(src);
  }
}

TEST_F(Lz4Test, CompressReturnsZeroWhenCapacityTooSmall) {
  std::vector<uint8_t> src(512);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(rng().NextU64());
  }
  std::vector<uint8_t> dst(lz4::CompressBound(src.size()));
  const size_t full =
      lz4::Compress(src.data(), src.size(), dst.data(), dst.size());
  ASSERT_GT(full, 0u);
  for (const size_t cap : {size_t{0}, size_t{1}, full / 2, full - 1}) {
    std::vector<uint8_t> small(cap == 0 ? 1 : cap);
    EXPECT_EQ(lz4::Compress(src.data(), src.size(), small.data(), cap), 0u)
        << "cap=" << cap << " must not fit a " << full << "-byte stream";
  }
}

TEST_F(Lz4Test, DecompressRejectsEveryTruncation) {
  const std::string unit = "edge-cache response_served_from=edge-cache ";
  std::vector<uint8_t> src;
  for (int i = 0; i < 32; ++i) {
    src.insert(src.end(), unit.begin(), unit.end());
    src.push_back(static_cast<uint8_t>(i));
  }
  std::vector<uint8_t> packed = RoundTrip(src);
  std::vector<uint8_t> out(src.size());
  for (size_t keep = 0; keep < packed.size(); ++keep) {
    EXPECT_FALSE(lz4::Decompress(packed.data(), keep, out.data(), out.size()))
        << "prefix of " << keep << "/" << packed.size()
        << " bytes must not decode to the full length";
  }
}

TEST_F(Lz4Test, DecompressRejectsWrongOutputLength) {
  std::vector<uint8_t> src(1000);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(i * 31);
  }
  const std::vector<uint8_t> packed = RoundTrip(src);
  std::vector<uint8_t> big(src.size() + 1);
  EXPECT_FALSE(
      lz4::Decompress(packed.data(), packed.size(), big.data(), big.size()));
  if (!src.empty()) {
    std::vector<uint8_t> small(src.size() - 1);
    EXPECT_FALSE(lz4::Decompress(packed.data(), packed.size(), small.data(),
                                 small.size()));
  }
}

TEST_F(Lz4Test, DecompressSurvivesBitFlipsWithoutUB) {
  // Flipping any bit either still decodes (the flip landed in literal
  // bytes — LZ4 has no internal checksum; the wire's CRC catches that) or
  // returns false. Either way no out-of-bounds access: ASan/UBSan judge.
  const std::string unit = "host-17 rtt_us=250 src=10.0.0.1 dst=10.0.0.2 ";
  std::vector<uint8_t> src;
  for (int i = 0; i < 24; ++i) {
    src.insert(src.end(), unit.begin(), unit.end());
  }
  const std::vector<uint8_t> packed = RoundTrip(src);
  std::vector<uint8_t> out(src.size());
  for (size_t bit = 0; bit < packed.size() * 8; ++bit) {
    std::vector<uint8_t> mut = packed;
    mut[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    if (lz4::Decompress(mut.data(), mut.size(), out.data(), out.size())) {
      EXPECT_EQ(out.size(), src.size());
    }
  }
}

TEST_F(Lz4Test, DecompressRejectsRandomGarbage) {
  std::vector<uint8_t> out(4096);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> junk(1 + rng().NextBounded(512));
    for (size_t i = 0; i < junk.size(); ++i) {
      junk[i] = static_cast<uint8_t>(rng().NextU64());
    }
    // Must terminate with a verdict, no OOB either way.
    (void)lz4::Decompress(junk.data(), junk.size(), out.data(), out.size());
  }
}

TEST_F(Lz4Test, CompressionIsDeterministic) {
  std::vector<uint8_t> src;
  for (int i = 0; i < 500; ++i) {
    const std::string line =
        "op=" + std::to_string(i % 7) + " user=" + std::to_string(i) + "\n";
    src.insert(src.end(), line.begin(), line.end());
  }
  const std::vector<uint8_t> a = RoundTrip(src);
  const std::vector<uint8_t> b = RoundTrip(src);
  EXPECT_EQ(a, b) << "same input must produce the same stream bytes "
                     "(bit-identical retransmit/replay relies on this)";
}

}  // namespace
}  // namespace jarvis
