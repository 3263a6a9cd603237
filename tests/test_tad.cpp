/**
 * @file
 * TAD set-layout tests: capacity accounting, shared-tag pairs, LRU
 * eviction, the 72-B / 28-line invariants of Figure 5, and the storage
 * stages a set passes through (inline first item, spilled and grown
 * heap blocks) under every geometry the organizations use.
 */

#include <gtest/gtest.h>

#include "core/tad.hpp"
#include "ref_tad_set.hpp"

namespace dice
{
namespace
{

TEST(TadSet, EmptySet)
{
    TadSet s;
    EXPECT_EQ(s.bytesUsed(), 0u);
    EXPECT_EQ(s.lineCount(), 0u);
    EXPECT_FALSE(s.lookup(5).found);
    EXPECT_FALSE(s.contains(5));
}

TEST(TadSet, SingleInsertAccounting)
{
    TadSet s;
    s.insertSingle(10, 20, false, 1, true, 1);
    EXPECT_EQ(s.bytesUsed(), 24u); // 4-B tag + 20-B payload
    EXPECT_EQ(s.lineCount(), 1u);
    const TadLookup lk = s.lookup(10);
    EXPECT_TRUE(lk.found);
    EXPECT_FALSE(lk.dirty);
    EXPECT_TRUE(lk.bai);
    EXPECT_FALSE(lk.in_pair);
    EXPECT_EQ(lk.payload, 1u);
}

TEST(TadSet, UncompressedSingleFitsExactlyOnce)
{
    TadSet s;
    EXPECT_TRUE(s.fits(64, 1));
    s.insertSingle(10, 64, false, 0, false, 1);
    EXPECT_EQ(s.bytesUsed(), 68u);
    // 68 + 4 (tag) = 72 fits exactly; any payload byte would not.
    EXPECT_TRUE(s.fits(0, 1));
    EXPECT_FALSE(s.fits(1, 1));
}

TEST(TadSet, ZeroByteLineSharesTheLastFourBytes)
{
    TadSet s;
    s.insertSingle(10, 64, false, 0, false, 1);
    EXPECT_TRUE(s.fits(0, 1));
    s.insertSingle(42, 0, false, 0, false, 2);
    EXPECT_EQ(s.bytesUsed(), 72u);
    EXPECT_EQ(s.lineCount(), 2u);
}

TEST(TadSet, PairInsertAndLookup)
{
    TadSet s;
    s.insertPair(20, 68, true, 11, false, 22, true, 1);
    EXPECT_EQ(s.bytesUsed(), 72u);
    EXPECT_EQ(s.lineCount(), 2u);

    const TadLookup even = s.lookup(20);
    EXPECT_TRUE(even.found);
    EXPECT_TRUE(even.dirty);
    EXPECT_TRUE(even.in_pair);
    EXPECT_EQ(even.payload, 11u);
    EXPECT_TRUE(even.neighbor_present);
    EXPECT_EQ(even.neighbor_payload, 22u);

    const TadLookup odd = s.lookup(21);
    EXPECT_TRUE(odd.found);
    EXPECT_FALSE(odd.dirty);
    EXPECT_EQ(odd.payload, 22u);
}

TEST(TadSet, NeighborAcrossSeparateItems)
{
    TadSet s;
    s.insertSingle(30, 16, false, 5, true, 1);
    s.insertSingle(31, 16, false, 6, true, 2);
    const TadLookup lk = s.lookup(30);
    EXPECT_TRUE(lk.neighbor_present);
    EXPECT_EQ(lk.neighbor_payload, 6u);
    EXPECT_FALSE(lk.in_pair);
}

TEST(TadSet, RemoveSingle)
{
    TadSet s;
    s.insertSingle(10, 20, true, 9, false, 1);
    const auto wb = s.remove(10, 0);
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->line, 10u);
    EXPECT_EQ(wb->payload, 9u);
    EXPECT_EQ(s.lineCount(), 0u);
    EXPECT_EQ(s.bytesUsed(), 0u);
}

TEST(TadSet, RemoveCleanReturnsNothing)
{
    TadSet s;
    s.insertSingle(10, 20, false, 9, false, 1);
    EXPECT_FALSE(s.remove(10, 0).has_value());
}

TEST(TadSet, RemoveHalfOfPairLeavesSurvivorSingle)
{
    TadSet s;
    s.insertPair(20, 68, false, 11, true, 22, true, 1);
    const auto wb = s.remove(20, 36); // survivor re-sized to 36 B
    EXPECT_FALSE(wb.has_value());     // even half was clean
    EXPECT_FALSE(s.contains(20));
    EXPECT_TRUE(s.contains(21));
    EXPECT_EQ(s.bytesUsed(), 40u); // 4 + 36
    const TadLookup lk = s.lookup(21);
    EXPECT_TRUE(lk.dirty);
    EXPECT_FALSE(lk.in_pair);
    EXPECT_EQ(lk.payload, 22u);
}

TEST(TadSet, RemoveDirtyHalfOfPairWritesBack)
{
    TadSet s;
    s.insertPair(20, 68, false, 11, true, 22, true, 1);
    const auto wb = s.remove(21, 36);
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->line, 21u);
    EXPECT_EQ(wb->payload, 22u);
}

TEST(TadSet, EvictLruPicksOldestWholeItem)
{
    TadSet s;
    s.insertSingle(10, 10, false, 0, false, /*lru=*/5);
    s.insertSingle(42, 10, true, 7, false, /*lru=*/2);
    WritebackList wbs;
    EXPECT_TRUE(s.evictLru(/*protect=*/10, wbs));
    EXPECT_FALSE(s.contains(42));
    ASSERT_EQ(wbs.size(), 1u);
    EXPECT_EQ(wbs[0].line, 42u);
    EXPECT_EQ(wbs[0].payload, 7u);
}

TEST(TadSet, EvictLruNeverEvictsProtectedLine)
{
    TadSet s;
    s.insertSingle(10, 10, false, 0, false, 1);
    WritebackList wbs;
    EXPECT_FALSE(s.evictLru(10, wbs));
    EXPECT_TRUE(s.contains(10));
}

TEST(TadSet, EvictLruProtectsThePairOfTheProtectedLine)
{
    TadSet s;
    s.insertPair(20, 30, false, 0, false, 0, true, 1);
    WritebackList wbs;
    // Protecting line 21 protects the whole (20,21) item.
    EXPECT_FALSE(s.evictLru(21, wbs));
}

TEST(TadSet, EvictingPairWritesBackBothDirtyHalves)
{
    TadSet s;
    s.insertPair(20, 30, true, 1, true, 2, true, 1);
    WritebackList wbs;
    EXPECT_TRUE(s.evictLru(99, wbs));
    ASSERT_EQ(wbs.size(), 2u);
    EXPECT_EQ(wbs[0].line, 20u);
    EXPECT_EQ(wbs[1].line, 21u);
}

TEST(TadSet, TouchUpdatesLruOrder)
{
    TadSet s;
    s.insertSingle(10, 10, false, 0, false, 1);
    s.insertSingle(42, 10, false, 0, false, 2);
    s.touch(10, 3); // 10 becomes MRU; 42 is now LRU
    WritebackList wbs;
    EXPECT_TRUE(s.evictLru(999, wbs));
    EXPECT_TRUE(s.contains(10));
    EXPECT_FALSE(s.contains(42));
}

TEST(TadSet, MarkDirtyReplacesPayload)
{
    TadSet s;
    s.insertSingle(10, 10, false, 1, false, 1);
    EXPECT_TRUE(s.markDirty(10, 99));
    EXPECT_FALSE(s.markDirty(11, 0));
    const TadLookup lk = s.lookup(10);
    EXPECT_TRUE(lk.dirty);
    EXPECT_EQ(lk.payload, 99u);
}

TEST(TadSet, ManyTinyLinesUpTo28)
{
    // 28 zero-byte (ZCA) lines cost 28 tags = 112 B > 72 B, so the
    // byte budget binds first; with 2-B... with 4-B tags 17 lines fit.
    TadSet s;
    std::uint32_t inserted = 0;
    for (LineAddr l = 0; l < 100; l += 2) {
        if (!s.fits(0, 1))
            break;
        s.insertSingle(l, 0, false, 0, false, l);
        ++inserted;
    }
    EXPECT_EQ(inserted, 18u); // 18 * 4 = 72
    EXPECT_EQ(s.bytesUsed(), 72u);
}

TEST(TadSet, LineCapBindsWithSharedTags)
{
    // With shared-tag pairs of ZCA lines (4 B per 2 lines), the
    // 28-line cap binds before the byte budget.
    TadSet s;
    std::uint32_t lines = 0;
    for (LineAddr base = 0; base < 200; base += 2) {
        if (!s.fits(0, 2))
            break;
        s.insertPair(base, 0, false, 0, false, 0, true, base);
        lines += 2;
    }
    EXPECT_EQ(lines, 28u);
    EXPECT_EQ(s.bytesUsed(), 14u * 4u);
}

TEST(TadSet, CustomBudgetForAssociativeOrganizations)
{
    TadSet s(8 * 72, 32, 2); // SCC-style set
    for (LineAddr l = 0; l < 64; l += 2) {
        if (!s.fits(16, 1))
            break;
        s.insertSingle(l, 16, false, 0, false, l);
    }
    EXPECT_EQ(s.lineCount(), 32u); // line cap binds
}

/** The TadSet geometries the organizations build. */
struct Geometry
{
    const char *name;
    std::uint32_t budget;
    std::uint32_t max_lines;
    std::uint32_t tag_bytes;
    /** Items a full set of zero-byte lines holds. */
    std::uint32_t capacity;
};

constexpr Geometry kGeometries[] = {
    {"dice", kTadSetBytes, kTadMaxLines, kTadTagBytes, 18},
    {"alloy_tag", kTadSetBytes, kTadMaxLines, kAlloyTagBytes, 9},
    {"touche", kTadSetBytes, kTadMaxLines, /*signature tag=*/1, 28},
    {"scc", /*8 ways=*/8 * kTadSetBytes, 32, 2, 32},
};

/** Lines past its region base that one fill may place (4 per item). */
constexpr LineAddr kRegionLines = 4 * 64;

/**
 * @p s reports what @p model does: counters, a clean storage audit,
 * and the lookup of every line of @p region, resident or not.
 */
void
expectMatchesModel(const TadSet &s, const RefTadSet &model,
                   LineAddr region)
{
    ASSERT_TRUE(s.auditStorage());
    EXPECT_EQ(s.itemCount(), model.itemCount());
    EXPECT_EQ(s.bytesUsed(), model.bytesUsed());
    EXPECT_EQ(s.lineCount(), model.lineCount());
    for (LineAddr line = region; line < region + kRegionLines; ++line)
        expectSameLookup(s.lookup(line), model.lookup(line), line);
}

/**
 * Evicting from copies of @p s and @p model (keeping @p protect)
 * writes back the same lines and leaves the same items.
 */
void
expectSameLruVictim(const TadSet &s, const RefTadSet &model,
                    LineAddr protect, LineAddr region)
{
    TadSet set_copy(s);
    RefTadSet model_copy(model);
    WritebackList wb_set, wb_model;
    ASSERT_EQ(set_copy.evictLru(protect, wb_set),
              model_copy.evictLru(protect, wb_model));
    expectSameWritebacks(wb_set, wb_model);
    expectMatchesModel(set_copy, model_copy, region);
}

/**
 * Fill @p s and @p model with zero-byte items up to @p geo's capacity,
 * comparing them after every insert. Items cycle through an even
 * single, its odd neighbor as a separate single (they share a key),
 * and a shared-tag pair while the line cap leaves room for one line
 * per remaining item (else an odd single). LRU stamps are a
 * permutation, so the victim moves around.
 */
void
fillToCapacity(TadSet &s, RefTadSet &model, const Geometry &geo,
               LineAddr region)
{
    for (std::uint32_t k = model.itemCount(); k < geo.capacity; ++k) {
        const std::uint64_t lru = 1 + (k * 7) % 64;
        const bool dirty = k % 4 == 1;
        const bool bai = k % 2 == 1;
        const std::uint64_t payload = region + 1000 + k;
        const LineAddr even = region + 4 * k;
        const bool pair =
            k % 3 == 2 && model.lineCount() + 2 + (geo.capacity - k - 1) <=
                              geo.max_lines;
        ASSERT_TRUE(s.fits(0, pair ? 2 : 1)) << geo.name << " item " << k;
        if (pair) {
            s.insertPair(even, 0, dirty, payload, !dirty, payload + 500,
                         bai, lru);
            model.insertPair(even, 0, dirty, payload, !dirty,
                             payload + 500, bai, lru);
        } else {
            // k % 3 == 1: the previous item's odd neighbor.
            const LineAddr line = k % 3 == 0   ? even
                                  : k % 3 == 1 ? (even - 4) | 1
                                               : even | 1;
            s.insertSingle(line, 0, dirty, payload, bai, lru);
            model.insertSingle(line, 0, dirty, payload, bai, lru);
        }

        SCOPED_TRACE(testing::Message() << geo.name << " after item " << k);
        expectMatchesModel(s, model, region);
        expectSameLruVictim(s, model, /*protect=*/region, region);
    }
}

TEST(TadSet, GrowsOneItemAtATimeToCapacityInEveryGeometry)
{
    for (const Geometry &geo : kGeometries) {
        TadSet s(geo.budget, geo.max_lines, geo.tag_bytes);
        RefTadSet model(geo.budget, geo.max_lines, geo.tag_bytes);
        fillToCapacity(s, model, geo, /*region=*/0x1000);
        ASSERT_EQ(s.itemCount(), geo.capacity) << geo.name;
        // Full: no further item fits, by tag bytes or by line cap.
        EXPECT_FALSE(s.fits(0, 1)) << geo.name;
    }
}

TEST(TadSet, CopiesAreDeepAtEveryStorageStage)
{
    constexpr LineAddr kRegion = 0x1000;
    // Empty, inline (one item), spilled once, and grown past the
    // first heap block.
    for (const std::uint32_t items : {0u, 1u, 3u, 7u}) {
        SCOPED_TRACE(testing::Message() << items << " items");
        TadSet orig;
        RefTadSet model(kTadSetBytes, kTadMaxLines, kTadTagBytes);
        for (std::uint32_t k = 0; k < items; ++k) {
            orig.insertSingle(kRegion + 2 * k, 4, k % 2 == 0, 100 + k,
                              false, k + 1);
            model.insertSingle(kRegion + 2 * k, 4, k % 2 == 0, 100 + k,
                               false, k + 1);
        }

        TadSet constructed(orig);
        // Assign over a set of another geometry that has spilled.
        TadSet assigned(8 * kTadSetBytes, 32, 2);
        for (LineAddr l = 500; l < 510; l += 2)
            assigned.insertSingle(l, 30, true, l, true, l);
        assigned = orig;

        for (TadSet *copy : {&constructed, &assigned}) {
            expectMatchesModel(*copy, model, kRegion);
            // The copy took the original's geometry: a 64-B line fits
            // the 72-B set only while it is empty.
            EXPECT_EQ(copy->fits(64, 1), items == 0);

            // Mutate the copy alongside a copy of the model.
            RefTadSet copy_model(model);
            copy->insertSingle(kRegion + 99, 0, true, 7, true, 99);
            copy_model.insertSingle(kRegion + 99, 0, true, 7, true, 99);
            if (items != 0) {
                const LineAddr last = kRegion + 2 * (items - 1);
                EXPECT_TRUE(copy->markDirty(kRegion, 555));
                copy_model.markDirty(kRegion, 555);
                copy->touch(kRegion, 1000);
                copy_model.touch(kRegion, 1000);
                expectSameEviction(copy->remove(last, 0),
                                   copy_model.remove(last, 0));
            }
            expectMatchesModel(*copy, copy_model, kRegion);
            expectMatchesModel(orig, model, kRegion);
        }
    }
}

TEST(TadSet, DrainedSpilledSetRefills)
{
    constexpr LineAddr kFirst = 0x2000;
    constexpr LineAddr kSecond = 0x3000;
    for (const Geometry &geo : kGeometries) {
        SCOPED_TRACE(geo.name);
        TadSet s(geo.budget, geo.max_lines, geo.tag_bytes);
        RefTadSet model(geo.budget, geo.max_lines, geo.tag_bytes);
        fillToCapacity(s, model, geo, kFirst);

        // Drain: evict the LRU item, or remove the highest resident
        // line — a pair's odd half first, so the survivor turns single
        // before it goes.
        for (std::uint32_t step = 0; model.itemCount() != 0; ++step) {
            if (step % 2 == 0) {
                WritebackList wb_set, wb_model;
                ASSERT_TRUE(s.evictLru(/*protect=*/0, wb_set));
                ASSERT_TRUE(model.evictLru(/*protect=*/0, wb_model));
                expectSameWritebacks(wb_set, wb_model);
            } else {
                LineAddr line = kFirst + kRegionLines - 1;
                while (!model.lookup(line).found)
                    --line;
                expectSameEviction(s.remove(line, 0),
                                   model.remove(line, 0));
            }
            expectMatchesModel(s, model, kFirst);
        }
        EXPECT_EQ(s.bytesUsed(), 0u);
        EXPECT_EQ(s.lineCount(), 0u);

        fillToCapacity(s, model, geo, kSecond);
        EXPECT_EQ(s.itemCount(), geo.capacity);
        expectMatchesModel(s, model, kFirst);
    }
}

TEST(TadSetDeathTest, RejectsOutOfRangeGeometry)
{
    EXPECT_DEATH(TadSet(70000, 28, 4), "out of range"); // budget > u16
    EXPECT_DEATH(TadSet(72, 300, 4), "out of range");   // lines > u8
    EXPECT_DEATH(TadSet(72, 0, 4), "out of range");     // no line fits
    EXPECT_DEATH(TadSet(72, 28, 0), "out of range");    // free tags
    EXPECT_DEATH(TadSet(4, 28, 8), "out of range");     // no tag fits
    EXPECT_DEATH(TadSet(8 * 72, 128, 1), "out of range"); // > 64 items
}

} // namespace
} // namespace dice
