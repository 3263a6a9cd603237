/**
 * @file
 * Compressed DRAM cache tests: every policy, pair formation, CIP-driven
 * reads, duplicate scrubbing, capacity behavior, and the KNL variant.
 */

#include <gtest/gtest.h>

#include "core/compressed.hpp"
#include "workloads/datagen.hpp"

namespace dice
{
namespace
{

/** Data source with a fixed class for every line. */
class FixedClassSource : public LineDataSource
{
  public:
    explicit FixedClassSource(CompClass cls) : cls_(cls) {}

    Line
    bytes(LineAddr line, std::uint64_t version) const override
    {
        return DataGenerator::synthesize(cls_, line, version);
    }

  private:
    CompClass cls_;
};

CompressedCacheConfig
smallConfig(CompressionPolicy policy)
{
    CompressedCacheConfig c;
    c.base.capacity = 1_MiB; // 16384 sets
    c.policy = policy;
    return c;
}

TEST(CompressedCache, ReadMissThenHitDice)
{
    FixedClassSource src(CompClass::Int);
    CompressedDramCache l4(smallConfig(CompressionPolicy::Dice), src);
    EXPECT_FALSE(l4.read(100, 0).hit);
    l4.install(100, 1, false, 0, true);
    const L4ReadResult r = l4.read(100, 0);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.payload, 1u);
}

TEST(CompressedCache, CompressibleLinesGoBai)
{
    FixedClassSource src(CompClass::Int); // 20 B <= 36 B threshold
    CompressedDramCache l4(smallConfig(CompressionPolicy::Dice), src);
    // Pick a non-invariant line so an actual decision is made.
    LineAddr line = 2;
    while (l4.indexer().baiInvariant(line))
        ++line;
    l4.install(line, 0, false, 0, true);
    EXPECT_EQ(l4.installsBai(), 1u);
    EXPECT_EQ(l4.installsTsi(), 0u);
    // The line sits in its BAI set.
    EXPECT_TRUE(l4.contains(line));
}

TEST(CompressedCache, IncompressibleLinesGoTsi)
{
    FixedClassSource src(CompClass::Rand);
    CompressedDramCache l4(smallConfig(CompressionPolicy::Dice), src);
    LineAddr line = 2;
    while (l4.indexer().baiInvariant(line))
        ++line;
    l4.install(line, 0, false, 0, true);
    EXPECT_EQ(l4.installsTsi(), 1u);
    EXPECT_EQ(l4.installsBai(), 0u);
}

TEST(CompressedCache, InvariantLinesNeedNoDecision)
{
    FixedClassSource src(CompClass::Int);
    CompressedDramCache l4(smallConfig(CompressionPolicy::Dice), src);
    LineAddr line = 2;
    while (!l4.indexer().baiInvariant(line))
        ++line;
    l4.install(line, 0, false, 0, true);
    EXPECT_EQ(l4.installsInvariant(), 1u);
}

TEST(CompressedCache, SpatialPairFormsSharedTagItem)
{
    FixedClassSource src(CompClass::C36); // pair -> exactly 68 B
    CompressedDramCache l4(smallConfig(CompressionPolicy::BaiOnly), src);
    l4.install(200, 0, false, 0, true);
    l4.install(201, 0, false, 0, true);
    EXPECT_EQ(l4.pairInstalls(), 1u);
    EXPECT_TRUE(l4.contains(200));
    EXPECT_TRUE(l4.contains(201));
}

TEST(CompressedCache, PairedHitReturnsFreeNeighbor)
{
    FixedClassSource src(CompClass::C36);
    CompressedDramCache l4(smallConfig(CompressionPolicy::BaiOnly), src);
    l4.install(200, 5, false, 0, true);
    l4.install(201, 6, false, 0, true);
    const L4ReadResult r = l4.read(200, 0);
    ASSERT_TRUE(r.hit);
    EXPECT_TRUE(r.has_extra);
    EXPECT_EQ(r.extra_line, 201u);
    EXPECT_EQ(r.extra_payload, 6u);
    EXPECT_EQ(l4.extraLinesSupplied(), 1u);
}

TEST(CompressedCache, TsiNeverSeesSpatialNeighbors)
{
    FixedClassSource src(CompClass::C36);
    CompressedDramCache l4(smallConfig(CompressionPolicy::TsiOnly), src);
    l4.install(200, 5, false, 0, true);
    l4.install(201, 6, false, 0, true);
    const L4ReadResult r = l4.read(200, 0);
    ASSERT_TRUE(r.hit);
    EXPECT_FALSE(r.has_extra); // neighbors live in different sets
    EXPECT_EQ(l4.pairInstalls(), 0u);
}

TEST(CompressedCache, TsiCompressionStillAddsCapacity)
{
    // Far-apart lines mapping to the same TSI set co-reside when
    // compressed — the capacity-only benefit of Figure 1(b).
    FixedClassSource src(CompClass::Int); // 20 B each
    CompressedDramCache l4(smallConfig(CompressionPolicy::TsiOnly), src);
    const std::uint64_t sets = l4.indexer().numSets();
    l4.install(5, 1, false, 0, true);
    l4.install(5 + sets, 2, false, 0, true);
    EXPECT_TRUE(l4.contains(5));
    EXPECT_TRUE(l4.contains(5 + sets));
    EXPECT_EQ(l4.validLines(), 2u);
}

TEST(CompressedCache, IncompressibleLimitsSetToOneLine)
{
    FixedClassSource src(CompClass::Rand);
    CompressedDramCache l4(smallConfig(CompressionPolicy::TsiOnly), src);
    const std::uint64_t sets = l4.indexer().numSets();
    l4.install(5, 1, false, 0, true);
    l4.install(5 + sets, 2, false, 0, true);
    EXPECT_FALSE(l4.contains(5)); // evicted: 64-B lines cannot share
    EXPECT_TRUE(l4.contains(5 + sets));
}

TEST(CompressedCache, BaiThrashingWithIncompressibleNeighbors)
{
    // Figure 6: under BAI, incompressible neighbors fight for one set.
    FixedClassSource src(CompClass::Rand);
    CompressedDramCache l4(smallConfig(CompressionPolicy::BaiOnly), src);
    l4.install(200, 1, false, 0, true);
    l4.install(201, 2, false, 0, true);
    EXPECT_FALSE(l4.contains(200));
    EXPECT_TRUE(l4.contains(201));
}

TEST(CompressedCache, DirtyEvictionWritesBack)
{
    FixedClassSource src(CompClass::Rand);
    CompressedDramCache l4(smallConfig(CompressionPolicy::BaiOnly), src);
    l4.install(200, 9, true, 0, false);
    const L4WriteResult r = l4.install(201, 2, false, 0, true);
    ASSERT_EQ(r.writebacks.size(), 1u);
    EXPECT_EQ(r.writebacks[0].line, 200u);
    EXPECT_EQ(r.writebacks[0].payload, 9u);
}

TEST(CompressedCache, UpdateOfResidentLineNeverWritesBackStaleCopy)
{
    FixedClassSource src(CompClass::Int);
    CompressedDramCache l4(smallConfig(CompressionPolicy::Dice), src);
    l4.install(100, 1, true, 0, false);
    const L4WriteResult r = l4.install(100, 2, true, 0, false);
    EXPECT_TRUE(r.writebacks.empty()); // superseded, not written back
    EXPECT_EQ(l4.read(100, 0).payload, 2u);
    EXPECT_EQ(l4.validLines(), 1u);
}

TEST(CompressedCache, DuplicateScrubOnSchemeFlip)
{
    // A line whose compressibility changes sides of the threshold
    // must never be valid under both indexings.
    class FlippingSource : public LineDataSource
    {
      public:
        Line
        bytes(LineAddr line, std::uint64_t version) const override
        {
            return DataGenerator::synthesize(
                version == 0 ? CompClass::Int : CompClass::Rand, line,
                version);
        }
    } src;

    CompressedDramCache l4(smallConfig(CompressionPolicy::Dice), src);
    LineAddr line = 2;
    while (l4.indexer().baiInvariant(line))
        ++line;

    l4.install(line, 0, false, 0, true); // compressible -> BAI
    EXPECT_EQ(l4.installsBai(), 1u);
    l4.install(line, 1, true, 0, false); // now incompressible -> TSI
    EXPECT_EQ(l4.installsTsi(), 1u);
    EXPECT_EQ(l4.duplicateScrubs(), 1u);
    EXPECT_EQ(l4.validLines(), 1u);
    const L4ReadResult r = l4.read(line, 0);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.payload, 1u);
}

TEST(CompressedCache, MispredictedReadProbesTwiceAndStillHits)
{
    // A page with mixed compressibility defeats the page-granularity
    // LTT: install a compressible line (BAI, trains the page to BAI),
    // then an incompressible one in the same page (TSI, re-trains to
    // TSI); reading the first line now mispredicts.
    class MixedPageSource : public LineDataSource
    {
      public:
        Line
        bytes(LineAddr line, std::uint64_t version) const override
        {
            return DataGenerator::synthesize(
                (line & 2) ? CompClass::Rand : CompClass::Int, line,
                version);
        }
    } src;

    CompressedDramCache l4(smallConfig(CompressionPolicy::Dice), src);
    LineAddr line_a = 0;
    while (l4.indexer().baiInvariant(line_a) || (line_a & 2))
        ++line_a;
    LineAddr line_b = line_a;
    while (l4.indexer().baiInvariant(line_b) || !(line_b & 2))
        ++line_b;
    ASSERT_EQ(pageOfLine(line_a), pageOfLine(line_b));

    l4.install(line_a, 3, false, 0, true); // Int -> BAI, LTT := BAI
    l4.install(line_b, 4, false, 0, true); // Rand -> TSI, LTT := TSI

    const L4ReadResult r1 = l4.read(line_a, 0); // predicts TSI, is BAI
    EXPECT_TRUE(r1.hit);
    EXPECT_EQ(r1.dram_accesses, 2u);
    EXPECT_EQ(l4.secondProbes(), 1u);
    EXPECT_EQ(r1.payload, 3u);
    // CIP learned the page's last outcome: next read takes one access.
    const L4ReadResult r2 = l4.read(line_a, 0);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.dram_accesses, 1u);
}

TEST(CompressedCache, MissNeedsOnlyOneAccessInAlloyMode)
{
    FixedClassSource src(CompClass::Int);
    CompressedDramCache l4(smallConfig(CompressionPolicy::Dice), src);
    LineAddr line = 2;
    while (l4.indexer().baiInvariant(line))
        ++line;
    const L4ReadResult r = l4.read(line, 0);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.dram_accesses, 1u); // neighbor tag rules out the alt set
}

TEST(CompressedCache, KnlMissProbesBothCandidates)
{
    FixedClassSource src(CompClass::Int);
    CompressedCacheConfig cfg = smallConfig(CompressionPolicy::Dice);
    cfg.knl_mode = true;
    CompressedDramCache l4(cfg, src);
    LineAddr line = 2;
    while (l4.indexer().baiInvariant(line))
        ++line;
    const L4ReadResult miss = l4.read(line, 0);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.dram_accesses, 2u); // no free neighbor tag

    LineAddr inv = 2;
    while (!l4.indexer().baiInvariant(inv))
        ++inv;
    EXPECT_EQ(l4.read(inv, 0).dram_accesses, 1u); // single candidate
}

TEST(CompressedCache, NsiPolicyCoLocatesPairs)
{
    FixedClassSource src(CompClass::C36);
    CompressedDramCache l4(smallConfig(CompressionPolicy::NsiOnly), src);
    l4.install(200, 0, false, 0, true);
    l4.install(201, 0, false, 0, true);
    EXPECT_EQ(l4.pairInstalls(), 1u);
    EXPECT_TRUE(l4.read(200, 0).has_extra);
}

TEST(CompressedCache, EffectiveCapacityExceedsPhysicalLines)
{
    FixedClassSource src(CompClass::Ptr); // 16 B singles, 24-B pairs
    CompressedDramCache l4(smallConfig(CompressionPolicy::BaiOnly), src);
    // Fill a handful of sets with several compressed lines each.
    for (LineAddr l = 0; l < 64; ++l)
        l4.install(l, 0, false, 0, true);
    EXPECT_EQ(l4.validLines(), 64u);
    // 64 lines of Ptr data occupy only 32 BAI sets; an uncompressed
    // direct-mapped cache would hold 32 at most in those sets.
    EXPECT_LE(l4.bytesUsed(), 32u * 72u);
}

TEST(CompressedCache, PairCompressionCanBeDisabled)
{
    FixedClassSource src(CompClass::C36);
    CompressedCacheConfig cfg = smallConfig(CompressionPolicy::BaiOnly);
    cfg.pair_compression = false;
    CompressedDramCache l4(cfg, src);
    // Two 36-B neighbors need 2 x (4 + 36) = 80 B as singles: they do
    // not fit one 72-B set without the shared-tag pair encoding.
    l4.install(200, 0, false, 0, true);
    l4.install(201, 0, false, 0, true);
    EXPECT_EQ(l4.pairInstalls(), 0u);
    EXPECT_FALSE(l4.contains(200)); // evicted: no pair sharing
    EXPECT_TRUE(l4.contains(201));
}

TEST(CompressedCache, OrganizationNames)
{
    FixedClassSource src(CompClass::Int);
    EXPECT_STREQ(
        CompressedDramCache(smallConfig(CompressionPolicy::Dice), src)
            .organization(),
        "dice");
    EXPECT_STREQ(
        CompressedDramCache(smallConfig(CompressionPolicy::TsiOnly), src)
            .organization(),
        "comp-tsi");
}

TEST(CompressedCache, ThresholdZeroDegeneratesToTsi)
{
    FixedClassSource src(CompClass::Int);
    CompressedCacheConfig cfg = smallConfig(CompressionPolicy::Dice);
    cfg.threshold_bytes = 0;
    CompressedDramCache l4(cfg, src);
    LineAddr line = 2;
    while (l4.indexer().baiInvariant(line))
        ++line;
    l4.install(line, 0, false, 0, true);
    EXPECT_EQ(l4.installsTsi(), 1u); // 20 B > 0 B threshold
}

TEST(CompressedCache, ThresholdSixtyFourDegeneratesToBai)
{
    FixedClassSource src(CompClass::Rand);
    CompressedCacheConfig cfg = smallConfig(CompressionPolicy::Dice);
    cfg.threshold_bytes = 64;
    CompressedDramCache l4(cfg, src);
    LineAddr line = 2;
    while (l4.indexer().baiInvariant(line))
        ++line;
    l4.install(line, 0, false, 0, true);
    EXPECT_EQ(l4.installsBai(), 1u);
}

/** Parameterized: basic read-your-install across every policy. */
class CompressedPolicy
    : public ::testing::TestWithParam<CompressionPolicy>
{
};

TEST_P(CompressedPolicy, InstallThenReadAcrossClasses)
{
    for (const CompClass cls :
         {CompClass::Zero, CompClass::Ptr, CompClass::Int, CompClass::C36,
          CompClass::Half, CompClass::Rand}) {
        FixedClassSource src(cls);
        CompressedDramCache l4(smallConfig(GetParam()), src);
        for (LineAddr l = 100; l < 140; ++l) {
            l4.install(l, l, false, 0, true);
            const L4ReadResult r = l4.read(l, 0);
            EXPECT_TRUE(r.hit) << compClassName(cls) << " line " << l;
            EXPECT_EQ(r.payload, l);
        }
    }
}

TEST_P(CompressedPolicy, LineNeverResidentInTwoSets)
{
    FixedClassSource src(CompClass::Int);
    CompressedDramCache l4(smallConfig(GetParam()), src);
    for (LineAddr l = 0; l < 200; ++l) {
        l4.install(l, 0, (l % 3) == 0, 0, false);
        // validLines counts every copy; <= #installs distinct lines.
    }
    EXPECT_LE(l4.validLines(), 200u);
    std::uint64_t found = 0;
    for (LineAddr l = 0; l < 200; ++l)
        found += l4.contains(l) ? 1 : 0;
    EXPECT_EQ(found, l4.validLines());
}

/**
 * Counts bytes() calls. A version of kRandVersion or more synthesizes
 * an incompressible line; anything below is a small-integer line.
 */
class CountingSource : public LineDataSource
{
  public:
    static constexpr std::uint64_t kRandVersion = 1000;

    Line
    bytes(LineAddr line, std::uint64_t version) const override
    {
        ++calls;
        return DataGenerator::synthesize(version >= kRandVersion
                                             ? CompClass::Rand
                                             : CompClass::Int,
                                         line, version);
    }

    mutable std::uint64_t calls = 0;
};

TEST(CompressedCache, EachInstallSynthesizesItsLineOnce)
{
    CountingSource src;
    CompressedDramCache l4(smallConfig(CompressionPolicy::Dice), src);
    // A non-invariant even line: its Int (20-B) data goes BAI, where
    // its odd neighbor lands too.
    LineAddr line = 2;
    while (l4.indexer().baiInvariant(line))
        line += 2;
    const LineAddr neighbor = line ^ 1;

    // A single install sizes its own line and nothing else.
    l4.install(line, 1, false, 0, true);
    EXPECT_EQ(src.calls, 1u);
    EXPECT_EQ(l4.pairInstalls(), 0u);

    // The neighbor merges into a pair. The singles sum to 40 B, past
    // the 24-B floor of the shared-base modes, so the joint pass runs
    // and synthesizes the resident half: one call more than a single.
    l4.install(neighbor, 2, false, 0, true);
    EXPECT_EQ(src.calls, 3u);
    EXPECT_EQ(l4.pairInstalls(), 1u);

    // Reinstalled incompressible, the line goes TSI, and the scrub of
    // its BAI copy splits the pair: the survivor is re-sized (one
    // call) besides the line itself (one call). Nothing else is
    // synthesized: the line's TSI set holds no neighbor.
    l4.install(line, CountingSource::kRandVersion, false, 0, false);
    EXPECT_EQ(src.calls, 5u);
    EXPECT_EQ(l4.duplicateScrubs(), 1u);
    EXPECT_EQ(l4.pairInstalls(), 1u);
    EXPECT_TRUE(l4.contains(line));
    EXPECT_TRUE(l4.contains(neighbor));
    EXPECT_EQ(l4.validLines(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CompressedPolicy,
    ::testing::Values(CompressionPolicy::TsiOnly,
                      CompressionPolicy::NsiOnly,
                      CompressionPolicy::BaiOnly,
                      CompressionPolicy::Dice));

} // namespace
} // namespace dice
