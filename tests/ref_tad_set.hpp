/**
 * @file
 * RefTadSet: a plain array-of-structs reference model of TadSet's
 * contract, and the comparisons the TadSet tests make against it
 * (lookups, evicted lines, writeback lists).
 */

#ifndef DICE_TESTS_REF_TAD_SET_HPP
#define DICE_TESTS_REF_TAD_SET_HPP

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/tad.hpp"

namespace dice
{

/** Transparent reference implementation of TadSet's contract. */
class RefTadSet
{
  public:
    RefTadSet(std::uint32_t budget, std::uint32_t max_lines,
              std::uint32_t tag_bytes)
        : budget_(budget), max_lines_(max_lines), tag_bytes_(tag_bytes)
    {
    }

    struct Item
    {
        std::uint64_t key;
        std::uint64_t lru;
        std::uint64_t payload[2];
        std::uint32_t data_bytes;
        bool pair;
        bool valid[2];
        bool dirty[2];
        bool bai;
        bool odd; // singles: line's low bit
    };

    std::uint32_t
    bytesUsed() const
    {
        std::uint32_t b = 0;
        for (const Item &it : items_)
            b += tag_bytes_ + it.data_bytes;
        return b;
    }

    std::uint32_t
    lineCount() const
    {
        std::uint32_t l = 0;
        for (const Item &it : items_)
            l += (it.valid[0] ? 1 : 0) + (it.valid[1] ? 1 : 0);
        return l;
    }

    std::uint32_t itemCount() const
    {
        return static_cast<std::uint32_t>(items_.size());
    }

    bool
    fits(std::uint32_t extra_data, std::uint32_t extra_lines) const
    {
        return bytesUsed() + tag_bytes_ + extra_data <= budget_ &&
               lineCount() + extra_lines <= max_lines_;
    }

    TadLookup
    lookup(LineAddr line) const
    {
        TadLookup res;
        const std::size_t it = holderOf(line);
        if (it == items_.size())
            return res;
        const Item &item = items_[it];
        const std::uint32_t slot =
            item.pair ? static_cast<std::uint32_t>(line & 1) : 0u;
        res.found = true;
        res.item = static_cast<std::uint32_t>(it);
        res.dirty = item.dirty[slot];
        res.bai = item.bai;
        res.in_pair = item.pair;
        res.payload = item.payload[slot];
        const std::size_t nb = holderOf(line ^ 1);
        if (nb != items_.size()) {
            const Item &nitem = items_[nb];
            const std::uint32_t nslot =
                nitem.pair ? static_cast<std::uint32_t>(~line & 1) : 0u;
            res.neighbor_present = true;
            res.neighbor_payload = nitem.payload[nslot];
        }
        return res;
    }

    void
    touch(LineAddr line, std::uint64_t stamp)
    {
        const std::size_t it = holderOf(line);
        if (it != items_.size())
            items_[it].lru = stamp;
    }

    bool
    markDirty(LineAddr line, std::uint64_t payload)
    {
        const std::size_t it = holderOf(line);
        if (it == items_.size())
            return false;
        Item &item = items_[it];
        const std::uint32_t slot =
            item.pair ? static_cast<std::uint32_t>(line & 1) : 0u;
        item.dirty[slot] = true;
        item.payload[slot] = payload;
        return true;
    }

    std::optional<EvictedLine>
    remove(LineAddr line, std::uint32_t remaining_bytes)
    {
        const std::size_t i = holderOf(line);
        if (i == items_.size())
            return std::nullopt;
        Item &item = items_[i];
        std::optional<EvictedLine> out;
        if (!item.pair) {
            if (item.dirty[0])
                out = EvictedLine{line, true, item.payload[0]};
            items_.erase(items_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            return out;
        }
        const auto slot = static_cast<std::uint32_t>(line & 1);
        if (item.dirty[slot])
            out = EvictedLine{line, true, item.payload[slot]};
        item.valid[slot] = false;
        item.dirty[slot] = false;
        const std::uint32_t other = slot ^ 1u;
        if (!item.valid[other]) {
            items_.erase(items_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            return out;
        }
        // Pair shrinks to a single holding the survivor.
        Item single = item;
        single.pair = false;
        single.odd = other != 0;
        single.valid[0] = true;
        single.valid[1] = false;
        single.dirty[0] = item.dirty[other];
        single.dirty[1] = false;
        single.payload[0] = item.payload[other];
        single.payload[1] = 0;
        single.data_bytes = remaining_bytes;
        items_[i] = single;
        return out;
    }

    bool
    evictLru(LineAddr protect, WritebackList &writebacks)
    {
        // The one unevictable item: first index whose key matches
        // protect and that is a pair or actually holds protect.
        std::size_t skip = items_.size();
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (items_[i].key != (protect >> 1))
                continue;
            if (items_[i].pair || holds(items_[i], protect)) {
                skip = i;
                break;
            }
        }
        std::size_t victim = items_.size();
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i == skip)
                continue;
            if (victim == items_.size() ||
                items_[i].lru < items_[victim].lru)
                victim = i;
        }
        if (victim == items_.size())
            return false;
        const Item &item = items_[victim];
        for (std::uint32_t slot = 0; slot < 2; ++slot) {
            if (item.valid[slot] && item.dirty[slot]) {
                writebacks.push_back(EvictedLine{
                    baseOf(item) | slot, true, item.payload[slot]});
            }
        }
        items_.erase(items_.begin() +
                     static_cast<std::ptrdiff_t>(victim));
        return true;
    }

    void
    insertSingle(LineAddr line, std::uint32_t data_bytes, bool dirty,
                 std::uint64_t payload, bool bai, std::uint64_t stamp)
    {
        Item it{};
        it.key = line >> 1;
        it.lru = stamp;
        it.payload[0] = payload;
        it.data_bytes = data_bytes;
        it.valid[0] = true;
        it.dirty[0] = dirty;
        it.bai = bai;
        it.odd = (line & 1) != 0;
        items_.push_back(it);
    }

    void
    insertPair(LineAddr base, std::uint32_t data_bytes, bool dirty0,
               std::uint64_t payload0, bool dirty1,
               std::uint64_t payload1, bool bai, std::uint64_t stamp)
    {
        Item it{};
        it.key = base >> 1;
        it.lru = stamp;
        it.payload[0] = payload0;
        it.payload[1] = payload1;
        it.data_bytes = data_bytes;
        it.pair = true;
        it.valid[0] = it.valid[1] = true;
        it.dirty[0] = dirty0;
        it.dirty[1] = dirty1;
        it.bai = bai;
        items_.push_back(it);
    }

    /** Data bytes of the item holding @p line (0 when absent). */
    std::uint32_t
    dataBytesOf(LineAddr line) const
    {
        const std::size_t it = holderOf(line);
        return it != items_.size() ? items_[it].data_bytes : 0;
    }

  private:
    static bool
    holds(const Item &it, LineAddr line)
    {
        if (it.key != (line >> 1))
            return false;
        if (it.pair)
            return it.valid[line & 1];
        return it.valid[0] && (it.odd == ((line & 1) != 0));
    }

    static LineAddr
    baseOf(const Item &it)
    {
        return (it.key << 1) | (it.odd ? 1 : 0);
    }

    std::size_t
    holderOf(LineAddr line) const
    {
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (holds(items_[i], line))
                return i;
        }
        return items_.size();
    }

    std::uint32_t budget_;
    std::uint32_t max_lines_;
    std::uint32_t tag_bytes_;
    std::vector<Item> items_;
};

inline void
expectSameLookup(const TadLookup &a, const TadLookup &b, LineAddr line)
{
    EXPECT_EQ(a.found, b.found) << "line " << line;
    if (!a.found || !b.found)
        return;
    EXPECT_EQ(a.dirty, b.dirty) << "line " << line;
    EXPECT_EQ(a.bai, b.bai) << "line " << line;
    EXPECT_EQ(a.in_pair, b.in_pair) << "line " << line;
    EXPECT_EQ(a.payload, b.payload) << "line " << line;
    EXPECT_EQ(a.neighbor_present, b.neighbor_present) << "line " << line;
    EXPECT_EQ(a.neighbor_payload, b.neighbor_payload) << "line " << line;
    EXPECT_EQ(a.item, b.item) << "line " << line;
}

inline void
expectSameEviction(const std::optional<EvictedLine> &a,
                   const std::optional<EvictedLine> &b)
{
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a)
        return;
    EXPECT_EQ(a->line, b->line);
    EXPECT_EQ(a->dirty, b->dirty);
    EXPECT_EQ(a->payload, b->payload);
}

inline void
expectSameWritebacks(const WritebackList &a, const WritebackList &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].line, b[i].line);
        EXPECT_EQ(a[i].dirty, b[i].dirty);
        EXPECT_EQ(a[i].payload, b[i].payload);
    }
}

} // namespace dice

#endif // DICE_TESTS_REF_TAD_SET_HPP
