/**
 * @file
 * Tests of the hot-loop storage primitives: FlatMap (open-addressed
 * map with backward-shift erasure), BoundedMemo (fixed-footprint
 * generation-versioned memo), and SmallVector (inline-first writeback
 * buffer). The randomized FlatMap test cross-checks every operation
 * against std::unordered_map, with heavy erasure to exercise the
 * probe-chain repair paths.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
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

TEST(FlatMap, RandomizedAgainstUnorderedMap)
{
    FlatMap<std::uint64_t, std::uint64_t> flat;
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

TEST(BoundedMemo, MemoizesAndStaysBounded)
{
    using Memo = BoundedMemo<std::uint64_t, std::uint32_t>;
    Memo memo(4); // 16 buckets
    const std::size_t footprint = memo.capacityBytes();
    EXPECT_EQ(memo.slotCount(), (std::size_t{1} << 4) * Memo::kWays);

    memo.put(7, 70);
    ASSERT_NE(memo.find(7), nullptr);
    EXPECT_EQ(*memo.find(7), 70u);

    // Push far more distinct keys than slots: the memo must keep
    // serving lookups (possibly recomputing) at constant footprint.
    for (std::uint64_t k = 0; k < 10'000; ++k)
        memo.put(k, static_cast<std::uint32_t>(k));
    EXPECT_EQ(memo.capacityBytes(), footprint);

    // Whatever is found must be correct — collisions evict, never lie.
    std::size_t hits = 0;
    for (std::uint64_t k = 0; k < 10'000; ++k) {
        if (const std::uint32_t *v = memo.find(k)) {
            EXPECT_EQ(*v, static_cast<std::uint32_t>(k));
            ++hits;
        }
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LE(hits, memo.slotCount());
}

TEST(BoundedMemo, GenerationClearInvalidatesEverything)
{
    BoundedMemo<std::uint64_t, std::uint32_t> memo(4);
    for (std::uint64_t k = 0; k < 32; ++k)
        memo.put(k, 1);
    memo.clear();
    for (std::uint64_t k = 0; k < 32; ++k)
        EXPECT_EQ(memo.find(k), nullptr) << k;
    memo.put(3, 33);
    ASSERT_NE(memo.find(3), nullptr);
    EXPECT_EQ(*memo.find(3), 33u);
}

TEST(BoundedMemo, DeterministicReplacement)
{
    BoundedMemo<std::uint64_t, std::uint32_t> a(4);
    BoundedMemo<std::uint64_t, std::uint32_t> b(4);
    for (std::uint64_t k = 0; k < 5'000; ++k) {
        a.put(k * 17, static_cast<std::uint32_t>(k));
        b.put(k * 17, static_cast<std::uint32_t>(k));
    }
    for (std::uint64_t k = 0; k < 5'000; ++k) {
        const std::uint32_t *va = a.find(k * 17);
        const std::uint32_t *vb = b.find(k * 17);
        ASSERT_EQ(va == nullptr, vb == nullptr) << k;
        if (va) {
            EXPECT_EQ(*va, *vb) << k;
        }
    }
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
