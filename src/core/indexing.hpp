/**
 * @file
 * Cache set-indexing schemes (paper Section 4.5, Figure 6).
 *
 * For a cache with S = 2^k sets and line address L:
 *
 *  - TSI (Traditional Set Indexing):  set = L[k-1:0]
 *    consecutive lines -> consecutive sets.
 *  - NSI (Naive Spatial Indexing):    set = L[k:1]
 *    pairs map together, but nearly every line moves relative to TSI.
 *  - BAI (Bandwidth-Aware Indexing):  set = { L[k-1:1], L[k] }
 *    pairs (2m, 2m+1) map together, exactly half of all lines keep
 *    their TSI set (those with L[0] == L[k]), and a line's BAI set
 *    always differs from its TSI set in bit 0 only — i.e. it is the
 *    *neighboring* set, guaranteed to live in the same DRAM row.
 */

#ifndef DICE_CORE_INDEXING_HPP
#define DICE_CORE_INDEXING_HPP

#include <cstdint>

#include "common/bitops.hpp"
#include "common/types.hpp"

namespace dice
{

/** Which set-index function a line was (or should be) placed with. */
enum class IndexScheme : std::uint8_t
{
    TSI,
    NSI,
    BAI,
};

/** Printable name of an indexing scheme. */
const char *indexSchemeName(IndexScheme scheme);

/** Set-index math for a direct-mapped cache of 2^k sets. */
class SetIndexer
{
  public:
    /** @param set_bits k = log2(number of sets). */
    explicit SetIndexer(std::uint32_t set_bits) : set_bits_(set_bits) {}

    std::uint32_t setBits() const { return set_bits_; }
    std::uint64_t numSets() const { return std::uint64_t{1} << set_bits_; }

    /** Traditional set index. */
    std::uint64_t
    tsi(LineAddr line) const
    {
        return line & (numSets() - 1);
    }

    /** Naive spatial index. */
    std::uint64_t
    nsi(LineAddr line) const
    {
        return (line >> 1) & (numSets() - 1);
    }

    /** Bandwidth-aware index. */
    std::uint64_t
    bai(LineAddr line) const
    {
        const std::uint64_t high = bits(line, set_bits_ - 1, 1);
        return (high << 1) | bit(line, set_bits_);
    }

    /** Set for @p line under @p scheme. */
    std::uint64_t set(LineAddr line, IndexScheme scheme) const;

    /**
     * True when the line's TSI and BAI sets coincide (half of all
     * lines); such lines need no insertion decision or prediction.
     */
    bool
    baiInvariant(LineAddr line) const
    {
        return bit(line, 0) == bit(line, set_bits_);
    }

    /**
     * The alternate candidate set: TSI and BAI sets differ only in set
     * bit 0, so each is the other's neighbor.
     */
    static std::uint64_t
    alternateSet(std::uint64_t set)
    {
        return set ^ 1;
    }

    /**
     * The even line of the spatial pair that maps (under BAI) to the
     * same set as @p line.
     */
    static LineAddr
    pairBase(LineAddr line)
    {
        return line & ~LineAddr{1};
    }

    /** The spatial neighbor that BAI co-locates with @p line. */
    static LineAddr
    spatialNeighbor(LineAddr line)
    {
        return line ^ 1;
    }

  private:
    std::uint32_t set_bits_;
};

} // namespace dice

#endif // DICE_CORE_INDEXING_HPP
