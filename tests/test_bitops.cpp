/**
 * @file
 * Bit-manipulation helper tests.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"

namespace dice
{
namespace
{

TEST(Bitops, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo((1ull << 40) + 1));
}

TEST(Bitops, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(~0ull), 63u);
}

TEST(Bitops, FloorLog2MatchesTheShiftLoopAtEveryBit)
{
    for (std::uint32_t b = 0; b < 64; ++b) {
        const std::uint64_t p = std::uint64_t{1} << b;
        EXPECT_EQ(floorLog2(p), b);
        EXPECT_EQ(floorLog2(p | (p >> 1)), b);
        EXPECT_EQ(floorLog2(p + (p - 1)), b);
    }
}

TEST(Bitops, ReciprocalQuotientAndRemainderAreExact)
{
    const std::uint32_t divisors[] = {1,  2,  3,  4,           7,
                                      16, 28, 32, 0x7FFFFFFFu, 0xFFFFFFFFu};
    Rng rng(0xD1CEull);
    for (const std::uint32_t d : divisors) {
        const Reciprocal r(d);
        EXPECT_EQ(r.divisor(), d);
        std::vector<std::uint64_t> dividends = {
            0, d - 1ull, d, 0xFFFFFFFFull, 1ull << 32, ~0ull};
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t v = rng.next();
            dividends.push_back(v);
            dividends.push_back(v >> 32); // the multiply-high range
            dividends.push_back(v >> (v & 63));
        }
        for (const std::uint64_t n : dividends) {
            const Reciprocal::QuotRem qr = r.divmod(n);
            ASSERT_EQ(qr.quot, n / d) << n << " / " << d;
            ASSERT_EQ(qr.rem, n % d) << n << " % " << d;
        }
    }
}

TEST(Bitops, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(Bitops, BitsExtraction)
{
    EXPECT_EQ(bits(0xABCD, 15, 8), 0xABu);
    EXPECT_EQ(bits(0xABCD, 7, 0), 0xCDu);
    EXPECT_EQ(bits(0xFF, 3, 2), 0x3u);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
    EXPECT_EQ(bit(0b100, 2), 1u);
    EXPECT_EQ(bit(0b100, 1), 0u);
}

TEST(Bitops, InsertBits)
{
    EXPECT_EQ(insertBits(0, 4, 4, 0xF), 0xF0u);
    EXPECT_EQ(insertBits(0xFF, 0, 4, 0), 0xF0u);
    EXPECT_EQ(insertBits(0xF0F0, 4, 8, 0xAB), 0xFAB0u);
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(signExtend(0xF, 4), -1);
    EXPECT_EQ(signExtend(0x7, 4), 7);
    EXPECT_EQ(signExtend(0x8, 4), -8);
    EXPECT_EQ(signExtend(0xFF, 8), -1);
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0x7FFF, 16), 32767);
    EXPECT_EQ(signExtend(0xFFFFFFFFFFFFFFFFull, 64), -1);
}

TEST(Bitops, FitsSigned)
{
    EXPECT_TRUE(fitsSigned(0, 1));
    EXPECT_TRUE(fitsSigned(-1, 1));
    EXPECT_FALSE(fitsSigned(1, 1));
    EXPECT_TRUE(fitsSigned(127, 8));
    EXPECT_FALSE(fitsSigned(128, 8));
    EXPECT_TRUE(fitsSigned(-128, 8));
    EXPECT_FALSE(fitsSigned(-129, 8));
    EXPECT_TRUE(fitsSigned(INT64_MIN, 64));
}

TEST(Bitops, FitsUnsigned)
{
    EXPECT_TRUE(fitsUnsigned(255, 8));
    EXPECT_FALSE(fitsUnsigned(256, 8));
    EXPECT_TRUE(fitsUnsigned(~0ull, 64));
}

TEST(Bitops, SignExtendRoundTripProperty)
{
    for (std::uint32_t n = 2; n <= 32; ++n) {
        for (std::int64_t v : {-5ll, -1ll, 0ll, 1ll, 5ll}) {
            if (!fitsSigned(v, n))
                continue;
            const std::uint64_t enc = static_cast<std::uint64_t>(v);
            EXPECT_EQ(signExtend(enc, n), v) << "n=" << n << " v=" << v;
        }
    }
}

} // namespace
} // namespace dice
