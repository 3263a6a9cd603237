/**
 * @file
 * Tests of the hot-loop storage primitives: FlatMap (open-addressed
 * map with backward-shift erasure), the page-mapped allocator behind
 * the set arrays and per-line maps, and SmallVector (inline-first
 * writeback buffer). The randomized FlatMap test cross-checks every
 * operation against std::unordered_map, with heavy erasure to exercise
 * the probe-chain repair paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/page_alloc.hpp"
#include "common/rng.hpp"
#include "common/small_vector.hpp"

namespace dice
{
namespace
{

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, std::uint32_t> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), nullptr);

    EXPECT_TRUE(m.insert_or_assign(7, 70));
    EXPECT_FALSE(m.insert_or_assign(7, 71)); // overwrite, not insert
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 71u);
    EXPECT_EQ(m.size(), 1u);

    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, OperatorIndexDefaultConstructs)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    EXPECT_EQ(m[42], 0u);
    m[42] += 5;
    m[42] += 5;
    EXPECT_EQ(m.valueOr(42, 0), 10u);
    EXPECT_EQ(m.valueOr(43, 99), 99u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, GrowthPreservesContents)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 10'000; ++k)
        m.insert_or_assign(k, k * 3);
    EXPECT_EQ(m.size(), 10'000u);
    for (std::uint64_t k = 0; k < 10'000; ++k) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), k * 3);
    }
}

TEST(FlatMap, ReserveRunsInsertionsWithoutRehash)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    m.reserve(1000);
    const std::size_t cap = m.capacity();
    EXPECT_GE(cap * 3 / 4, 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k)
        m.insert_or_assign(k, k);
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, ClearKeepsCapacity)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m.insert_or_assign(k, k);
    const std::size_t cap = m.capacity();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.find(5), nullptr);
    m.insert_or_assign(5, 50);
    EXPECT_EQ(*m.find(5), 50u);
}

/** Identity hash forces adjacent keys into one probe chain. */
struct IdentityHash
{
    std::uint64_t operator()(std::uint64_t k) const { return k; }
};

TEST(FlatMap, BackwardShiftEraseRepairsProbeChains)
{
    // Keys 16, 32, 48... all hash (mod capacity 16.. after growth) to
    // clustered slots; erasing the head of the chain must keep the
    // displaced successors findable.
    FlatMap<std::uint64_t, std::uint64_t, IdentityHash> m;
    m.reserve(12);
    const std::size_t cap = m.capacity();
    // Three keys with the same home slot, plus neighbors.
    const std::uint64_t a = cap, b = 2 * cap, c = 3 * cap;
    m.insert_or_assign(a, 1);
    m.insert_or_assign(b, 2);
    m.insert_or_assign(c, 3);
    m.insert_or_assign(1, 10); // displaced by the chain above

    EXPECT_TRUE(m.erase(a));
    ASSERT_NE(m.find(b), nullptr);
    EXPECT_EQ(*m.find(b), 2u);
    ASSERT_NE(m.find(c), nullptr);
    EXPECT_EQ(*m.find(c), 3u);
    ASSERT_NE(m.find(1), nullptr);
    EXPECT_EQ(*m.find(1), 10u);

    EXPECT_TRUE(m.erase(b));
    EXPECT_TRUE(m.erase(c));
    ASSERT_NE(m.find(1), nullptr);
    EXPECT_EQ(*m.find(1), 10u);
}

/** Random inserts, erases and finds on @p flat against std::unordered_map. */
template <typename Map>
void
expectMatchesUnorderedMap(Map &flat)
{
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    std::uint64_t state = 12345;
    auto next = [&state] { return state = mix64(state); };

    for (int op = 0; op < 50'000; ++op) {
        const std::uint64_t r = next();
        const std::uint64_t key = (r >> 8) % 512; // dense → collisions
        switch (r % 3) {
          case 0: {
            const std::uint64_t val = next();
            flat.insert_or_assign(key, val);
            ref[key] = val;
            break;
          }
          case 1: {
            EXPECT_EQ(flat.erase(key), ref.erase(key) == 1) << key;
            break;
          }
          default: {
            const auto it = ref.find(key);
            const std::uint64_t *v = flat.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(v, nullptr) << key;
            } else {
                ASSERT_NE(v, nullptr) << key;
                EXPECT_EQ(*v, it->second) << key;
            }
            break;
          }
        }
        EXPECT_EQ(flat.size(), ref.size());
    }
    for (const auto &[k, v] : ref) {
        ASSERT_NE(flat.find(k), nullptr) << k;
        EXPECT_EQ(*flat.find(k), v) << k;
    }
}

TEST(FlatMap, RandomizedAgainstUnorderedMap)
{
    FlatMap<std::uint64_t, std::uint64_t> flat;
    expectMatchesUnorderedMap(flat);
}

TEST(FlatMap, PageAllocatedRandomizedAgainstUnorderedMap)
{
    // The per-line maps' instantiation: each growth maps a new block
    // and hands the old one to the idle pool.
    FlatMap<std::uint64_t, std::uint64_t, Mix64Hash, PageAllocator> flat;
    expectMatchesUnorderedMap(flat);
}

TEST(PageAlloc, BlockEndsAtAGuardPage)
{
    constexpr std::size_t kBytes = 3 * 4096 + 24;
    auto *p = static_cast<std::uint8_t *>(mapPages(kBytes));
    std::fill(p, p + kBytes, std::uint8_t{0xA5}); // all of it is writable
    EXPECT_DEATH(static_cast<volatile std::uint8_t *>(p)[kBytes] = 1, "");
    unmapPages(p, kBytes);
}

TEST(PageAlloc, FreedBlockIsReusedBySameSizeOnly)
{
    constexpr std::size_t kBytes = 5 * 4096 + 8;
    const std::size_t handed_out = pageBlocksHandedOut();
    void *a = mapPages(kBytes);
    unmapPages(a, kBytes);
    void *b = mapPages(kBytes);
    EXPECT_EQ(b, a); // taken back from the idle pool
    void *c = mapPages(kBytes + 8);
    EXPECT_NE(c, a);
    EXPECT_EQ(pageBlocksHandedOut(), handed_out + 3);
    unmapPages(b, kBytes);
    unmapPages(c, kBytes + 8);
}

TEST(SmallVector, InlineThenSpill)
{
    SmallVector<int, 4> v;
    EXPECT_TRUE(v.empty());
    for (int i = 0; i < 4; ++i)
        v.push_back(i);
    EXPECT_EQ(v.size(), 4u);
    // Fifth element spills to the heap; earlier elements migrate.
    v.push_back(4);
    ASSERT_EQ(v.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(v[i], i) << i;

    int sum = 0;
    for (int x : v)
        sum += x;
    EXPECT_EQ(sum, 10);

    v.clear();
    EXPECT_TRUE(v.empty());
    v.push_back(99);
    EXPECT_EQ(v[0], 99);
    EXPECT_EQ(v.size(), 1u);
}

TEST(SmallVector, LargeGrowth)
{
    SmallVector<std::uint64_t, 6> v;
    for (std::uint64_t i = 0; i < 1'000; ++i)
        v.push_back(i * i);
    ASSERT_EQ(v.size(), 1'000u);
    for (std::uint64_t i = 0; i < 1'000; ++i)
        EXPECT_EQ(v[i], i * i) << i;
}

} // namespace
} // namespace dice
