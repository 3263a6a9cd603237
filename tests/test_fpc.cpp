/**
 * @file
 * FPC codec: per-pattern encodings, exact sizes, round trips, and the
 * size-only classifiers (compressedBits(), which runs an AVX2 twin on
 * AVX2 CPUs, and the portable scalarBits()) against the encoder.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "compress/fpc.hpp"

namespace dice
{
namespace
{

Line
lineOfWords(const std::uint32_t (&words)[16])
{
    Line l{};
    std::memcpy(l.data(), words, sizeof words);
    return l;
}

Line
fillWords(std::uint32_t v)
{
    std::uint32_t w[16];
    for (auto &x : w)
        x = v;
    return lineOfWords(w);
}

TEST(Fpc, ZeroLineCompressesToOneToken)
{
    FpcCodec fpc;
    const Line zero{};
    const Encoded enc = fpc.compress(zero);
    ASSERT_EQ(enc.algo, CompAlgo::Fpc);
    // 16 zero words = two runs of 8 = 2 x (3+3) bits = 12 bits.
    EXPECT_EQ(enc.bits, 12u);
    EXPECT_EQ(fpc.decompress(enc), zero);
}

TEST(Fpc, Sign4Pattern)
{
    FpcCodec fpc;
    const Line l = fillWords(0xFFFFFFF9u); // -7 fits 4 bits
    const Encoded enc = fpc.compress(l);
    ASSERT_EQ(enc.algo, CompAlgo::Fpc);
    EXPECT_EQ(enc.bits, 16u * 7u);
    EXPECT_EQ(fpc.decompress(enc), l);
}

TEST(Fpc, Sign8Pattern)
{
    FpcCodec fpc;
    const Line l = fillWords(100); // needs 8 bits
    const Encoded enc = fpc.compress(l);
    EXPECT_EQ(enc.bits, 16u * 11u);
    EXPECT_EQ(fpc.decompress(enc), l);
}

TEST(Fpc, Sign16Pattern)
{
    FpcCodec fpc;
    const Line l = fillWords(0xFFFF8000u); // -32768 needs 16 bits
    const Encoded enc = fpc.compress(l);
    EXPECT_EQ(enc.bits, 16u * 19u);
    EXPECT_EQ(fpc.decompress(enc), l);
}

TEST(Fpc, HalfwordPaddedWithZeros)
{
    FpcCodec fpc;
    const Line l = fillWords(0xABCD0000u); // low half zero
    const Encoded enc = fpc.compress(l);
    EXPECT_EQ(enc.bits, 16u * 19u);
    EXPECT_EQ(fpc.decompress(enc), l);
}

TEST(Fpc, TwoSignedBytes)
{
    FpcCodec fpc;
    const Line l = fillWords(0x007F00FFu); // halves 0x007F, 0x00FF
    // 0x00FF as signed-16 is 255, does not fit int8: falls elsewhere.
    const Line l2 = fillWords(0x0011FFF6u); // 0x0011=17, 0xFFF6=-10
    const Encoded enc = fpc.compress(l2);
    EXPECT_EQ(enc.bits, 16u * 19u);
    EXPECT_EQ(fpc.decompress(enc), l2);
    EXPECT_EQ(fpc.decompress(fpc.compress(l)), l);
}

TEST(Fpc, RepeatedBytes)
{
    FpcCodec fpc;
    const Line l = fillWords(0x5A5A5A5Au);
    const Encoded enc = fpc.compress(l);
    EXPECT_EQ(enc.bits, 16u * 11u);
    EXPECT_EQ(fpc.decompress(enc), l);
}

TEST(Fpc, IncompressibleFallsBackToRaw)
{
    FpcCodec fpc;
    Line l{};
    Rng rng(7);
    for (auto &b : l)
        b = static_cast<std::uint8_t>(rng.between(1, 255)) | 0x81;
    // High-entropy words: each costs 35 bits, 16*35 = 560 > 512.
    const Encoded enc = fpc.compress(l);
    EXPECT_EQ(enc.algo, CompAlgo::None);
    EXPECT_EQ(enc.sizeBytes(), kLineSize);
    EXPECT_EQ(fpc.decompress(enc), l);
}

TEST(Fpc, MixedPatternsRoundTrip)
{
    FpcCodec fpc;
    const std::uint32_t words[16] = {
        0,          0,          5,          0xFFFFFF80u,
        0x12340000u, 0x00050003u, 0x77777777u, 0xDEADBEEFu,
        0,          1,          0xFFFFFFFFu, 0x7FFF0000u,
        0x01020304u, 0x40u,      0xFFFF8001u, 0,
    };
    const Line l = lineOfWords(words);
    const Encoded enc = fpc.compress(l);
    EXPECT_EQ(fpc.decompress(enc), l);
}

TEST(Fpc, ZeroRunLongerThanEightSplits)
{
    FpcCodec fpc;
    std::uint32_t words[16] = {};
    words[15] = 0xDEADBEEFu;
    const Line l = lineOfWords(words);
    const Encoded enc = fpc.compress(l);
    // 15 zeros = run(8) + run(7) = 12 bits, plus 35 for the tail word.
    EXPECT_EQ(enc.bits, 12u + 35u);
    EXPECT_EQ(fpc.decompress(enc), l);
}

/**
 * A word of FPC pattern @p p: a signed value of the pattern's width, a
 * high halfword, two sign-extended bytes, a repeated byte, or any word
 * (ZeroRun draws 0). The signed draws span their whole range, so they
 * also land in the narrower patterns and cross every priority edge.
 */
std::uint32_t
wordOf(FpcCodec::Pattern p, Rng &rng)
{
    const auto sext = [&rng](std::uint32_t bits) {
        const std::uint64_t half = std::uint64_t{1} << (bits - 1);
        return static_cast<std::uint32_t>(rng.below(2 * half) - half);
    };
    switch (p) {
      case FpcCodec::ZeroRun:
        return 0;
      case FpcCodec::Sign4:
        return sext(4);
      case FpcCodec::Sign8:
        return sext(8);
      case FpcCodec::Sign16:
        return sext(16);
      case FpcCodec::HalfZeroPad:
        return static_cast<std::uint32_t>(rng.below(1u << 16)) << 16;
      case FpcCodec::TwoSignedBytes: {
        const std::uint32_t hi = sext(8) & 0xFFFF;
        return (hi << 16) | (sext(8) & 0xFFFF);
      }
      case FpcCodec::RepeatedByte:
        return static_cast<std::uint32_t>(rng.below(256)) * 0x01010101u;
      default:
        return static_cast<std::uint32_t>(rng.next());
    }
}

TEST(Fpc, SizeClassifiersMatchTheEncoderOnEveryPattern)
{
    const FpcCodec fpc;
    Rng rng(0xF9C);
    const auto expectAgree = [&fpc](const std::uint32_t (&words)[16]) {
        const Line l = lineOfWords(words);
        const std::uint32_t bits = fpc.compress(l).bits;
        EXPECT_EQ(fpc.compressedBits(l), bits);
        EXPECT_EQ(FpcCodec::scalarBits(l), bits);
    };
    // Every word from any of the eight patterns (zero runs included).
    std::uint32_t words[16];
    for (int iter = 0; iter < 4000; ++iter) {
        for (auto &w : words)
            w = wordOf(static_cast<FpcCodec::Pattern>(rng.below(8)), rng);
        expectAgree(words);
    }
    // A zero run of every length 1-16 at every start, among words of
    // the seven other patterns.
    for (std::uint32_t len = 1; len <= 16; ++len) {
        for (std::uint32_t start = 0; start + len <= 16; ++start) {
            for (int rep = 0; rep < 8; ++rep) {
                for (auto &w : words) {
                    w = wordOf(static_cast<FpcCodec::Pattern>(
                                   1 + rng.below(7)),
                               rng);
                }
                for (std::uint32_t i = start; i < start + len; ++i)
                    words[i] = 0;
                expectAgree(words);
            }
        }
    }
}

/** Property sweep: random lines of several entropy classes round-trip. */
class FpcRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(FpcRoundTrip, RandomLinesRoundTrip)
{
    FpcCodec fpc;
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int iter = 0; iter < 200; ++iter) {
        Line l{};
        const int mode = iter % 4;
        for (std::uint32_t w = 0; w < 16; ++w) {
            std::uint32_t v;
            switch (mode) {
              case 0:
                v = static_cast<std::uint32_t>(rng.next());
                break;
              case 1:
                v = static_cast<std::uint32_t>(rng.between(0, 255));
                break;
              case 2:
                v = rng.chance(0.5)
                        ? 0
                        : static_cast<std::uint32_t>(rng.next());
                break;
              default:
                v = static_cast<std::uint32_t>(
                    static_cast<std::int32_t>(rng.between(0, 60000)) -
                    30000);
                break;
            }
            std::memcpy(l.data() + 4 * w, &v, 4);
        }
        const Encoded enc = fpc.compress(l);
        EXPECT_EQ(fpc.decompress(enc), l) << "seed " << GetParam()
                                          << " iter " << iter;
        EXPECT_LE(enc.sizeBytes(), kLineSize);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FpcRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace dice
