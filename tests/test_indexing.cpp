/**
 * @file
 * Indexing-scheme invariants (paper Section 4.5, Figure 6): spatial
 * pairing, the 50% TSI-invariance of BAI, the neighbor-set property,
 * and DRAM-row co-location of the two candidate sets.
 */

#include <gtest/gtest.h>

#include "core/indexing.hpp"
#include "dram/dram.hpp"

namespace dice
{
namespace
{

TEST(Indexing, PaperFigure6Example)
{
    // 8 sets, lines A0..A15 — exactly the paper's worked example.
    SetIndexer idx(3);

    // TSI: consecutive lines to consecutive sets.
    for (LineAddr l = 0; l < 16; ++l)
        EXPECT_EQ(idx.tsi(l), l % 8);

    // NSI: pairs share a set, sets walk sequentially.
    for (LineAddr l = 0; l < 16; ++l)
        EXPECT_EQ(idx.nsi(l), (l / 2) % 8);

    // BAI (Figure 6c): set0={A0,A1}, set1={A8,A9}, set2={A2,A3},
    // set3={A10,A11}, set4={A4,A5}, set5={A12,A13}, set6={A6,A7},
    // set7={A14,A15}.
    const std::uint64_t expected[16] = {0, 0, 2, 2, 4, 4, 6, 6,
                                        1, 1, 3, 3, 5, 5, 7, 7};
    for (LineAddr l = 0; l < 16; ++l)
        EXPECT_EQ(idx.bai(l), expected[l]) << "line " << l;
}

TEST(Indexing, BaiMapsSpatialPairsTogether)
{
    SetIndexer idx(14);
    for (LineAddr l = 0; l < 100000; l += 17) {
        const LineAddr even = l & ~LineAddr{1};
        EXPECT_EQ(idx.bai(even), idx.bai(even | 1));
    }
}

TEST(Indexing, ExactlyHalfTheLinesKeepTheirTsiSet)
{
    SetIndexer idx(10);
    std::uint64_t same = 0;
    const std::uint64_t n = 1u << 16; // full period of the relevant bits
    for (LineAddr l = 0; l < n; ++l) {
        if (idx.bai(l) == idx.tsi(l))
            ++same;
        EXPECT_EQ(idx.bai(l) == idx.tsi(l), idx.baiInvariant(l));
    }
    EXPECT_EQ(same, n / 2);
}

TEST(Indexing, BaiAndTsiDifferOnlyInSetBitZero)
{
    SetIndexer idx(12);
    for (LineAddr l = 0; l < 100000; l += 13) {
        const std::uint64_t t = idx.tsi(l);
        const std::uint64_t b = idx.bai(l);
        EXPECT_TRUE(t == b || (t ^ b) == 1) << "line " << l;
        if (t != b) {
            EXPECT_EQ(SetIndexer::alternateSet(t), b);
        }
    }
}

TEST(Indexing, NsiMovesNearlyEveryLine)
{
    // The motivation for BAI: NSI leaves almost no line in its TSI set.
    SetIndexer idx(10);
    std::uint64_t same = 0;
    const std::uint64_t n = 1u << 16;
    for (LineAddr l = 0; l < n; ++l) {
        if (idx.nsi(l) == idx.tsi(l))
            ++same;
    }
    EXPECT_LT(static_cast<double>(same) / n, 0.01);
}

TEST(Indexing, SchemeDispatch)
{
    SetIndexer idx(8);
    const LineAddr l = 0x12345;
    EXPECT_EQ(idx.set(l, IndexScheme::TSI), idx.tsi(l));
    EXPECT_EQ(idx.set(l, IndexScheme::NSI), idx.nsi(l));
    EXPECT_EQ(idx.set(l, IndexScheme::BAI), idx.bai(l));
}

TEST(Indexing, PairHelpers)
{
    EXPECT_EQ(SetIndexer::pairBase(7), 6u);
    EXPECT_EQ(SetIndexer::pairBase(6), 6u);
    EXPECT_EQ(SetIndexer::spatialNeighbor(6), 7u);
    EXPECT_EQ(SetIndexer::spatialNeighbor(7), 6u);
}

TEST(Indexing, MapperPacks28TadsPerRow)
{
    DramAddressMapper mapper(DramTiming::stackedL4());
    EXPECT_EQ(mapper.unitsPerRow(), 28u); // 2048 / 72
}

TEST(Indexing, CandidateSetsShareADramRow)
{
    // The BAI/TSI alternate sets (s, s^1) must decode to the same
    // channel/bank/row so the second probe is a row-buffer hit.
    DramAddressMapper mapper(DramTiming::stackedL4());
    for (std::uint64_t set = 0; set < 200000; set += 2) {
        const DramCoord a = mapper.coord(set);
        const DramCoord b = mapper.coord(set ^ 1);
        EXPECT_EQ(a.channel, b.channel);
        EXPECT_EQ(a.bank, b.bank);
        EXPECT_EQ(a.row, b.row);
    }
}

TEST(Indexing, MapperStripesRowGroupsAcrossChannels)
{
    DramAddressMapper mapper(DramTiming::stackedL4());
    const DramCoord a = mapper.coord(0);
    const DramCoord b = mapper.coord(28); // next row group
    EXPECT_NE(a.channel, b.channel);
}

/** The decode as it was written before it shared Reciprocal divides. */
DramCoord
dividedCoord(const DramTiming &t, std::uint32_t unit_bytes,
             std::uint64_t unit)
{
    const std::uint64_t row_group = unit / (t.row_bytes / unit_bytes);
    DramCoord c;
    c.channel = static_cast<std::uint32_t>(row_group % t.channels);
    c.bank = static_cast<std::uint32_t>((row_group / t.channels) %
                                        t.banks_per_channel);
    c.row = row_group /
            (static_cast<std::uint64_t>(t.channels) * t.banks_per_channel);
    return c;
}

void
expectSameDecode(const DramTiming &t, std::uint32_t unit_bytes,
                 std::uint64_t first, std::uint64_t last)
{
    const DramAddressMapper mapper(t, unit_bytes);
    for (std::uint64_t u = first; u < last; ++u) {
        const DramCoord got = mapper.coord(u);
        const DramCoord want = dividedCoord(t, unit_bytes, u);
        ASSERT_EQ(got.channel, want.channel) << u;
        ASSERT_EQ(got.bank, want.bank) << u;
        ASSERT_EQ(got.row, want.row) << u;
    }
}

TEST(Indexing, MapperMatchesTheDividedDecode)
{
    // Every set of the 8-MiB L4 (2^17 TADs), at the stacked preset and
    // at the doubled-channel timing of the 2x-bandwidth studies.
    const std::uint64_t sets = 8_MiB / kLineSize;
    expectSameDecode(DramTiming::stackedL4(), 72, 0, sets);
    DramTiming wide = DramTiming::stackedL4();
    wide.channels *= 2;
    expectSameDecode(wide, 72, 0, sets);
    // Main memory decodes 64-B lines: a sweep from 0, one across the
    // 2^32 boundary where the decode switches to the hardware divide,
    // and one far above it.
    const DramTiming ddr = DramTiming::mainMemoryDdr();
    expectSameDecode(ddr, kLineSize, 0, 1 << 20);
    expectSameDecode(ddr, kLineSize, (1ull << 32) - 4096,
                     (1ull << 32) + 4096);
    expectSameDecode(wide, 72, (1ull << 37) - 4096, (1ull << 37) + 4096);
    expectSameDecode(ddr, kLineSize, ~0ull - 4096, ~0ull);
}

TEST(Indexing, IndexSchemeNames)
{
    EXPECT_STREQ(indexSchemeName(IndexScheme::TSI), "TSI");
    EXPECT_STREQ(indexSchemeName(IndexScheme::NSI), "NSI");
    EXPECT_STREQ(indexSchemeName(IndexScheme::BAI), "BAI");
}

/** Parameterized: the invariants hold at every cache size. */
class IndexingAtSize : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(IndexingAtSize, CoreInvariants)
{
    SetIndexer idx(GetParam());
    const std::uint64_t sets = idx.numSets();
    for (LineAddr l = 0; l < 4096; ++l) {
        EXPECT_LT(idx.tsi(l), sets);
        EXPECT_LT(idx.bai(l), sets);
        EXPECT_LT(idx.nsi(l), sets);
        EXPECT_EQ(idx.bai(l & ~LineAddr{1}), idx.bai(l | 1));
        const std::uint64_t t = idx.tsi(l);
        const std::uint64_t b = idx.bai(l);
        EXPECT_TRUE(t == b || (t ^ b) == 1);
    }
}

INSTANTIATE_TEST_SUITE_P(SetBits, IndexingAtSize,
                         ::testing::Values(3u, 6u, 10u, 14u, 20u, 24u));

} // namespace
} // namespace dice
