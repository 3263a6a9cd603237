/**
 * @file
 * Flexible tag-and-data (TAD) set layout for the compressed DRAM cache
 * (paper Figure 5).
 *
 * Each physical set provides 72 bytes that the controller may interpret
 * freely as tag or data. Every resident item pays one 4-B tag (18-b tag,
 * valid/dirty/BAI/shared-tag/next-tag-valid flags, and up to 9 bits of
 * FPC/BDI metadata) plus its compressed payload. A spatially-contiguous
 * pair compressed together shares a single tag ("shared tag" bit) and,
 * under BDI, a single base — that is what lets two lines fit when their
 * joint payload is <= 68 B. At most 28 logical lines fit in one set.
 *
 * Storage is structure-of-arrays: the per-item fields live in lockstep
 * packed planes (scan keys, LRU stamps, data-version payloads, payload
 * byte counts, flag bytes) of one block whose plane stride is the
 * block's current item capacity, so each operation touches only the
 * planes it needs — the tag probe scans keys + a flag byte per rare
 * key match, the LRU victim scan reads the lru plane alone, and the
 * byte audit sums the data_bytes plane. Most DICE and Touché sets
 * hold one item, so the first item's planes live inline in the 64-B
 * set object, and a probe of such a set reads nothing else; a second
 * item spills the planes to a heap block sized to occupancy (see
 * grow()). The scans are plain inline loops: a probe of a one-item set
 * is one key compare.
 */

#ifndef DICE_CORE_TAD_HPP
#define DICE_CORE_TAD_HPP

#include <cstdint>
#include <memory>
#include <optional>

#include "cache/sram_cache.hpp" // EvictedLine
#include "common/log.hpp"
#include "common/types.hpp"

namespace dice
{

/** Physical bytes available per set (the Alloy 72-B TAD). */
inline constexpr std::uint32_t kTadSetBytes = 72;

/** Bytes charged per (possibly shared) tag entry. */
inline constexpr std::uint32_t kTadTagBytes = 4;

/** Maximum logical lines one set may hold (Figure 5). */
inline constexpr std::uint32_t kTadMaxLines = 28;

/** Tag size of the baseline uncompressed Alloy TAD (Figure 2). */
inline constexpr std::uint32_t kAlloyTagBytes = 8;

/** Result of looking a line up within a set. */
struct TadLookup
{
    bool found = false;
    bool dirty = false;
    bool bai = false;
    /** True when the line lives inside a shared-tag pair item. */
    bool in_pair = false;
    std::uint64_t payload = 0;
    /**
     * Payload bytes of the holding item: the line's compressed size
     * when it is a single, the joint size when it is in a pair.
     */
    std::uint32_t data_bytes = 0;
    /** True when the spatial neighbor (line^1) is also in this set. */
    bool neighbor_present = false;
    std::uint64_t neighbor_payload = 0;
    /**
     * Index of the holding item when found. Valid until the set next
     * mutates; lets touchAt()/removeAt() skip a second key scan.
     */
    std::uint32_t item = 0;
};

/** One compressed DRAM-cache set: packed item planes + accounting. */
class TadSet
{
  public:
    /**
     * @param budget_bytes Physical bytes the set provides (72 for the
     *        Alloy TAD; larger for associative organizations like SCC).
     * @param max_lines Logical-line cap (28 for the Alloy TAD format).
     * @param tag_bytes Bytes charged per (possibly shared) tag.
     */
    explicit TadSet(std::uint32_t budget_bytes = kTadSetBytes,
                    std::uint32_t max_lines = kTadMaxLines,
                    std::uint32_t tag_bytes = kTadTagBytes)
        : max_lines_(static_cast<std::uint8_t>(max_lines)),
          tag_bytes_(static_cast<std::uint8_t>(tag_bytes)),
          budget_bytes_(static_cast<std::uint16_t>(budget_bytes))
    {
        // Inline, so a cache's default-constructed set array builds in
        // a store loop. The counters are narrow, and the key-match mask
        // has one bit per item, so a set may hold at most 64.
        dice_assert(budget_bytes <= 0xFFFF && max_lines >= 1 &&
                        max_lines <= 0xFF && tag_bytes >= 1 &&
                        tag_bytes <= budget_bytes && tag_bytes <= 0xFF &&
                        capacity() <= 64,
                    "TAD geometry %u/%u/%u out of range", budget_bytes,
                    max_lines, tag_bytes);
    }

    // The heap block makes the set move-only by default; SCC and
    // Touché fill-construct their sets from a prototype, so deep-copy
    // too.
    TadSet(const TadSet &other);
    TadSet &operator=(const TadSet &other);
    TadSet(TadSet &&) noexcept = default;
    TadSet &operator=(TadSet &&) noexcept = default;
    ~TadSet() = default;

    /**
     * Bytes currently consumed by tags + payloads. Maintained
     * incrementally: fits() runs inside every install's eviction loop,
     * so the answer must not cost a scan of the items.
     */
    std::uint32_t bytesUsed() const { return bytes_used_; }

    /** Valid logical lines resident (incremental, like bytesUsed). */
    std::uint32_t lineCount() const { return line_count_; }

    /** Resident items (a shared-tag pair counts once). */
    std::uint32_t itemCount() const { return n_; }

    /**
     * Base line address of resident item @p i (the even half for a
     * shared-tag pair). For organizations that scan resident tags —
     * e.g. signature-tag aliasing checks.
     */
    LineAddr
    itemLine(std::uint32_t i) const
    {
        dice_assert(i < n_, "itemLine past live items");
        return baseOf(i);
    }

    /**
     * True when an item with @p extra_data payload bytes (plus one
     * tag) holding @p extra_lines lines would still fit.
     */
    bool
    fits(std::uint32_t extra_data, std::uint32_t extra_lines) const
    {
        return bytesUsed() + tag_bytes_ + extra_data <= budget_bytes_ &&
               lineCount() + extra_lines <= max_lines_;
    }

    /**
     * Look up @p line; also reports a co-resident spatial neighbor.
     * Inline (with findIndex/contains below): these run on every cache
     * probe, and the scans are short enough that the call overhead
     * would rival the work.
     */
    TadLookup
    lookup(LineAddr line) const
    {
        // One key scan resolves both the line and its spatial
        // neighbor (they share a key; the neighbor is reported only
        // when the line itself is resident).
        TadLookup res;
        const std::uint32_t n = n_;
        std::uint64_t m = keyMatches(keyOf(line));
        std::uint32_t it = n;
        std::uint32_t nb = n;
        for (; m != 0; m &= m - 1) {
            const auto i = static_cast<std::uint32_t>(
                __builtin_ctzll(m));
            if (it == n && holdsAt(i, line))
                it = i;
            if (nb == n && holdsAt(i, line ^ 1))
                nb = i;
            if (it != n && nb != n)
                break;
        }
        if (it == n)
            return res;

        const std::uint8_t f = flags()[it];
        const std::uint32_t slot =
            (f & kPair) ? static_cast<std::uint32_t>(line & 1) : 0u;
        res.found = true;
        res.item = it;
        res.dirty = (f & dirtyBit(slot)) != 0;
        res.bai = (f & kBai) != 0;
        res.in_pair = (f & kPair) != 0;
        res.payload = payloads()[it].p[slot];
        res.data_bytes = dataBytes()[it];

        if (nb != n) {
            const std::uint8_t nf = flags()[nb];
            const std::uint32_t nslot =
                (nf & kPair) ? static_cast<std::uint32_t>(~line & 1)
                             : 0u;
            res.neighbor_present = true;
            res.neighbor_payload = payloads()[nb].p[nslot];
        }
        return res;
    }

    /** True when @p line is resident. */
    bool contains(LineAddr line) const { return findIndex(line) != n_; }

    /** Refresh LRU state of the item holding @p line. */
    void
    touch(LineAddr line, std::uint64_t lru_stamp)
    {
        const std::uint32_t i = findIndex(line);
        if (i != n_)
            lru()[i] = lru_stamp;
    }

    /**
     * Refresh LRU state of item @p item — a TadLookup::item from a
     * lookup with no intervening mutation; skips the key re-scan.
     */
    void
    touchAt(std::uint32_t item, std::uint64_t lru_stamp)
    {
        dice_assert(item < n_, "touchAt past live items");
        lru()[item] = lru_stamp;
    }

    /** Mark a resident line dirty and replace its payload. */
    bool
    markDirty(LineAddr line, std::uint64_t payload)
    {
        const std::uint32_t i = findIndex(line);
        if (i == n_)
            return false;
        const std::uint32_t slot =
            (flags()[i] & kPair) ? static_cast<std::uint32_t>(line & 1)
                                 : 0u;
        flags()[i] |= dirtyBit(slot);
        payloads()[i].p[slot] = payload;
        return true;
    }

    /**
     * Remove @p line. A pair containing it keeps its other half (the
     * item reverts to a single with @p remaining_bytes payload bytes).
     * @return the removed line's state when it was dirty.
     */
    std::optional<EvictedLine> remove(LineAddr line,
                                      std::uint32_t remaining_bytes);

    /**
     * remove() for a line whose item index is already known (a
     * TadLookup::item with no intervening mutation): skips the scan.
     */
    std::optional<EvictedLine> removeAt(std::uint32_t item, LineAddr line,
                                        std::uint32_t remaining_bytes);

    /**
     * Evict the least-recently-used whole item, never the item holding
     * @p protect. Dirty halves are appended to @p writebacks.
     * @return false when nothing evictable remains.
     */
    bool evictLru(LineAddr protect, WritebackList &writebacks);

    /** Insert a single-line item; caller must have made room. */
    void insertSingle(LineAddr line, std::uint32_t data_bytes, bool dirty,
                      std::uint64_t payload, bool bai,
                      std::uint64_t lru_stamp);

    /**
     * Insert (or replace the singles with) a shared-tag pair for lines
     * (base, base^1); caller must have made room *after* accounting for
     * the removal of any existing singles of the pair.
     */
    void insertPair(LineAddr base, std::uint32_t data_bytes,
                    bool dirty0, std::uint64_t payload0, bool dirty1,
                    std::uint64_t payload1, bool bai,
                    std::uint64_t lru_stamp);

    /**
     * Recompute byte/line accounting from the planes and check it
     * against the incremental counters (plus per-item flag sanity).
     * O(items) — for tests and debug sweeps, not the hot loop.
     */
    bool auditStorage() const;

  private:
    // flags_ bit layout. Singles keep their line in slot 0 and record
    // the address low bit in kOdd; pairs use slot = line & 1 and an
    // always-even base, so kOdd stays clear.
    static constexpr std::uint8_t kValid0 = 1u << 0;
    static constexpr std::uint8_t kValid1 = 1u << 1;
    static constexpr std::uint8_t kDirty0 = 1u << 2;
    static constexpr std::uint8_t kDirty1 = 1u << 3;
    static constexpr std::uint8_t kPair = 1u << 4;
    static constexpr std::uint8_t kBai = 1u << 5;
    static constexpr std::uint8_t kOdd = 1u << 6;

    static constexpr std::uint8_t
    validBit(std::uint32_t slot)
    {
        return slot != 0 ? kValid1 : kValid0;
    }

    static constexpr std::uint8_t
    dirtyBit(std::uint32_t slot)
    {
        return slot != 0 ? kDirty1 : kDirty0;
    }

    /** Data-version payloads of slots [0]=even and [1]=odd half. */
    struct PayloadPair
    {
        std::uint64_t p[2];
    };

    /**
     * Item capacity: every item consumes at least one tag and holds at
     * least one line, so this bound can never be exceeded.
     */
    std::uint32_t
    capacity() const
    {
        const std::uint32_t by_tags = budget_bytes_ / tag_bytes_;
        return by_tags < max_lines_ ? by_tags : max_lines_;
    }

    /** Items the inline buffer holds before the planes spill. */
    static constexpr std::uint32_t kInlineItems = 1;
    /** Item capacity of the first heap block; later blocks double. */
    static constexpr std::uint32_t kFirstSpillItems = 4;

    /** 64-bit words a block of @p c items spans (35 bytes per item). */
    static constexpr std::size_t
    blockWords(std::uint32_t c)
    {
        return (35u * c + 7u) / 8u;
    }

    /** The live block: the inline buffer until the first spill. */
    std::uint64_t *
    base()
    {
        return cap_ == kInlineItems ? inline_ : block_.get();
    }
    const std::uint64_t *
    base() const
    {
        return cap_ == kInlineItems ? inline_ : block_.get();
    }

    // Plane accessors into the live block. Layout (c = cap_):
    // [0, 8c) keys | [8c, 16c) lru | [16c, 32c) payloads |
    // [32c, 34c) data_bytes | [34c, 35c) flags. All plane starts are
    // 2-byte-aligned or better for their element type.
    std::uint64_t *keys() { return base(); }
    const std::uint64_t *keys() const { return base(); }
    std::uint64_t *lru() { return base() + cap_; }
    const std::uint64_t *lru() const { return base() + cap_; }
    PayloadPair *
    payloads()
    {
        return reinterpret_cast<PayloadPair *>(base() + 2 * cap_);
    }
    const PayloadPair *
    payloads() const
    {
        return reinterpret_cast<const PayloadPair *>(base() + 2 * cap_);
    }
    std::uint16_t *
    dataBytes()
    {
        return reinterpret_cast<std::uint16_t *>(base() + 4 * cap_);
    }
    const std::uint16_t *
    dataBytes() const
    {
        return reinterpret_cast<const std::uint16_t *>(base() +
                                                       4 * cap_);
    }
    std::uint8_t *
    flags()
    {
        return reinterpret_cast<std::uint8_t *>(dataBytes() + cap_);
    }
    const std::uint8_t *
    flags() const
    {
        return reinterpret_cast<const std::uint8_t *>(dataBytes() +
                                                      cap_);
    }

    /**
     * Make room for one more item: move the planes to a block of
     * kFirstSpillItems items, then of twice the current capacity,
     * clamped to capacity(). Blocks never shrink, so a set that has
     * grown once stays allocation-free.
     */
    void grow();

    /** True when item @p i (whose key already matched) holds @p line. */
    bool
    holdsAt(std::uint32_t i, LineAddr line) const
    {
        const std::uint8_t f = flags()[i];
        if (f & kPair)
            return (f & validBit(static_cast<std::uint32_t>(line & 1))) !=
                   0;
        return (f & kValid0) != 0 &&
               ((f & kOdd) != 0) == ((line & 1) != 0);
    }

    /** Index of the item holding @p line, or itemCount() when absent. */
    std::uint32_t
    findIndex(LineAddr line) const
    {
        std::uint64_t m = keyMatches(keyOf(line));
        for (; m != 0; m &= m - 1) {
            const auto i = static_cast<std::uint32_t>(
                __builtin_ctzll(m));
            if (holdsAt(i, line))
                return i;
        }
        return n_;
    }

    /** Bit i set iff item i has scan key @p key (n_ <= 64). */
    std::uint64_t
    keyMatches(std::uint64_t key) const
    {
        const std::uint64_t *k = keys();
        std::uint64_t mask = 0;
        for (std::uint32_t i = 0; i < n_; ++i) {
            if (k[i] == key)
                mask |= std::uint64_t{1} << i;
        }
        return mask;
    }

    /** Base line address of item @p i (even line for pairs). */
    LineAddr
    baseOf(std::uint32_t i) const
    {
        const LineAddr even = keys()[i] << 1;
        return (flags()[i] & kOdd) ? (even | 1) : even;
    }

    /** Scan key of an item: a line and its pair neighbor share one. */
    static std::uint64_t
    keyOf(LineAddr line)
    {
        return line >> 1;
    }

    void eraseAt(std::uint32_t i);

    /** Charge one inserted item's tag, payload and lines. */
    void account(std::uint32_t data_bytes, std::uint32_t lines);

    /** The planes of the first kInlineItems items (35 of 40 B used). */
    std::uint64_t inline_[5]{};
    /** Resident item count (live prefix length of every plane). */
    std::uint8_t n_ = 0;
    /** Items the live block holds: the stride of every plane. */
    std::uint8_t cap_ = kInlineItems;
    std::uint8_t line_count_ = 0;
    std::uint8_t max_lines_;
    std::uint8_t tag_bytes_;
    std::uint16_t bytes_used_ = 0;
    std::uint16_t budget_bytes_;
    /** The spilled planes once the set has held a second item. */
    std::unique_ptr<std::uint64_t[]> block_;
};

// A probe of an inline set reads only this record: keep it one cache
// line wide. (Not alignas(64): std::vector would then allocate the
// sets through the aligned-allocation path; see DESIGN.md §5b.)
static_assert(sizeof(TadSet) == 64, "TadSet must stay a 64-B record");

} // namespace dice

#endif // DICE_CORE_TAD_HPP
