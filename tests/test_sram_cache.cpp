/**
 * @file
 * SRAM cache model: hits/misses, LRU replacement, write-back state,
 * payload propagation, and occupancy accounting.
 */

#include <gtest/gtest.h>

#include "cache/sram_cache.hpp"
#include "common/rng.hpp"
#include "ref_sram_cache.hpp"

namespace dice
{
namespace
{

SramCacheConfig
smallConfig(std::uint32_t ways = 2)
{
    SramCacheConfig c;
    c.name = std::string("t");
    c.size_bytes = 64 * 64; // 64 lines
    c.ways = ways;
    c.hit_latency = 4;
    return c;
}

TEST(SramCache, Geometry)
{
    SramCache c(smallConfig(2));
    EXPECT_EQ(c.numSets(), 32u);
    SramCache c8(smallConfig(8));
    EXPECT_EQ(c8.numSets(), 8u);
}

TEST(SramCache, MissThenHit)
{
    SramCache c(smallConfig());
    EXPECT_FALSE(c.access(100, AccessType::Read));
    EXPECT_FALSE(c.install(100, false, 7).has_value());
    EXPECT_TRUE(c.access(100, AccessType::Read));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.payloadOf(100), 7u);
}

TEST(SramCache, WriteMarksDirtyAndUpdatesPayload)
{
    SramCache c(smallConfig());
    c.install(100, false, 1);
    EXPECT_TRUE(c.access(100, AccessType::Write, 2));
    const auto ev = c.invalidate(100);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->payload, 2u);
}

TEST(SramCache, CleanInvalidateReturnsNothing)
{
    SramCache c(smallConfig());
    c.install(100, false, 1);
    EXPECT_FALSE(c.invalidate(100).has_value());
    EXPECT_FALSE(c.contains(100));
}

TEST(SramCache, LruEvictsLeastRecentlyUsed)
{
    SramCache c(smallConfig(2)); // 32 sets, 2 ways
    // Three lines in the same set (set 0): 0, 32, 64.
    c.install(0, false, 10);
    c.install(32, false, 20);
    c.access(0, AccessType::Read); // 0 becomes MRU
    const auto ev = c.install(64, false, 30);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 32u); // LRU victim
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(64));
    EXPECT_FALSE(c.contains(32));
}

TEST(SramCache, DirtyEvictionCarriesPayload)
{
    SramCache c(smallConfig(1));
    c.install(0, true, 99);
    const auto ev = c.install(c.numSets(), false, 1); // same set, new tag
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 0u);
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->payload, 99u);
    EXPECT_EQ(c.dirtyEvictions(), 1u);
}

TEST(SramCache, ReinstallRefreshesInPlace)
{
    SramCache c(smallConfig(1));
    c.install(0, false, 1);
    EXPECT_FALSE(c.install(0, true, 2).has_value());
    const auto ev = c.invalidate(0);
    ASSERT_TRUE(ev.has_value()); // dirty merged in
    EXPECT_EQ(ev->payload, 2u);
}

TEST(SramCache, EvictedLineAddressReconstruction)
{
    SramCache c(smallConfig(1)); // 64 sets... (64 lines, 1 way)
    const LineAddr big = (7ull << 20) | 5; // set 5 with a high tag
    c.install(big, true, 3);
    const auto ev = c.install(big + c.numSets(), false, 4);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, big);
}

TEST(SramCache, HitRateAndOccupancy)
{
    SramCache c(smallConfig(2));
    for (LineAddr l = 0; l < 16; ++l)
        c.install(l, false, 0);
    EXPECT_EQ(c.validLines(), 16u);
    for (LineAddr l = 0; l < 16; ++l)
        EXPECT_TRUE(c.access(l, AccessType::Read));
    EXPECT_FALSE(c.access(1000, AccessType::Read));
    EXPECT_NEAR(c.hitRate(), 16.0 / 17.0, 1e-12);
    c.resetStats();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.validLines(), 16u); // contents survive stat reset
}

TEST(SramCache, StatsGroup)
{
    SramCache c(smallConfig());
    c.access(5, AccessType::Read);
    c.install(5, false, 0);
    const StatGroup g = c.stats();
    EXPECT_DOUBLE_EQ(g.get("misses"), 1.0);
    EXPECT_DOUBLE_EQ(g.get("installs"), 1.0);
}

/** Parameterized associativity sweep: LRU order holds at any width. */
class SramCacheWays : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SramCacheWays, FullSetEvictsExactlyInLruOrder)
{
    const std::uint32_t ways = GetParam();
    SramCacheConfig cfg;
    cfg.name = "w";
    cfg.size_bytes = static_cast<std::uint64_t>(ways) * 8 * kLineSize;
    cfg.ways = ways;
    SramCache c(cfg);
    const std::uint32_t sets = c.numSets();

    // Fill one set.
    for (std::uint32_t i = 0; i < ways; ++i)
        c.install(static_cast<LineAddr>(i) * sets, false, i);
    // Touch in reverse so line (ways-1)*sets is LRU... touch order:
    for (std::uint32_t i = 0; i < ways; ++i)
        c.access(static_cast<LineAddr>(i) * sets, AccessType::Read);
    // Now victims should come out in install order 0, 1, 2, ...
    for (std::uint32_t i = 0; i < ways; ++i) {
        const auto ev = c.install(
            static_cast<LineAddr>(ways + i) * sets, false, 0);
        ASSERT_TRUE(ev.has_value());
        EXPECT_EQ(ev->line, static_cast<LineAddr>(i) * sets);
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, SramCacheWays,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

/** The plane layout against the array-of-ways model it replaced. */
class SramCacheDifferential : public ::testing::TestWithParam<std::uint32_t>
{
};

void
expectSameVictim(const std::optional<EvictedLine> &got,
                 const std::optional<EvictedLine> &want, int step)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (got) {
        EXPECT_EQ(got->line, want->line) << "step " << step;
        EXPECT_EQ(got->dirty, want->dirty) << "step " << step;
        EXPECT_EQ(got->payload, want->payload) << "step " << step;
    }
}

TEST_P(SramCacheDifferential, RandomOpsMatchTheArrayOfWaysModel)
{
    const std::uint32_t ways = GetParam();
    SramCacheConfig cfg;
    cfg.name = "diff";
    cfg.size_bytes = static_cast<std::uint64_t>(ways) * 16 * kLineSize;
    cfg.ways = ways;
    SramCache cache(cfg);
    RefSramCache ref(cfg);
    // Four lines per way of capacity keep every set under pressure; a
    // high tag bit exercises the victim-address rebuild.
    const std::uint64_t span = std::uint64_t{ways} * 16 * 4;
    Rng rng(0x5A4Cull + ways);
    for (int step = 0; step < 60000; ++step) {
        const LineAddr line =
            rng.below(span) | (rng.below(4) == 0 ? (1ull << 40) : 0);
        const std::uint64_t payload = rng.next();
        switch (rng.below(6)) {
          case 0:
            ASSERT_EQ(cache.access(line, AccessType::Read),
                      ref.access(line, AccessType::Read))
                << "step " << step;
            break;
          case 1:
            ASSERT_EQ(cache.access(line, AccessType::Write, payload),
                      ref.access(line, AccessType::Write, payload))
                << "step " << step;
            break;
          case 2:
          case 3: {
            const bool dirty = rng.below(2) == 0;
            expectSameVictim(cache.install(line, dirty, payload),
                             ref.install(line, dirty, payload), step);
            break;
          }
          case 4:
            expectSameVictim(cache.invalidate(line),
                             ref.invalidate(line), step);
            break;
          default:
            ASSERT_EQ(cache.contains(line), ref.contains(line))
                << "step " << step;
            ASSERT_EQ(cache.payloadOf(line), ref.payloadOf(line))
                << "step " << step;
            break;
        }
        if (step % 512 == 0) {
            ASSERT_EQ(cache.validLines(), ref.validLines())
                << "step " << step;
        }
    }
    EXPECT_EQ(cache.validLines(), ref.validLines());
    EXPECT_EQ(cache.hits(), ref.hits());
    EXPECT_EQ(cache.misses(), ref.misses());
    EXPECT_EQ(cache.evictions(), ref.evictions());
    EXPECT_EQ(cache.dirtyEvictions(), ref.dirtyEvictions());
    EXPECT_EQ(cache.installs(), ref.installs());
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_GT(cache.dirtyEvictions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, SramCacheDifferential,
                         ::testing::Values(1u, 2u, 8u, 16u));

} // namespace
} // namespace dice
