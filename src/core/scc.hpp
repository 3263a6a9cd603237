/**
 * @file
 * Skewed Compressed Cache (SCC) applied to a DRAM cache — the
 * bandwidth-inefficiency baseline of paper Section 7.3 / Figure 15.
 *
 * SCC (Sardashti, Seznec & Wood, MICRO 2014) was designed for SRAM: an
 * 8-way skewed-associative cache whose superblock tags address up to 4x
 * compressed lines. Its lookups touch several skewed locations, which
 * is cheap in SRAM but, on a DRAM cache, turns every request into four
 * DRAM accesses (three for the distributed tag arrays, one for data).
 *
 * Model (documented in DESIGN.md): an 8-way set-associative compressed
 * structure indexed by 4-line superblock, with a per-set byte budget of
 * eight 72-B ways and shared superblock tags (2 B amortized per line).
 * Every read issues three parallel tag probes plus a data access on a
 * hit; every install issues the tag probes plus a data write. Hit rate
 * is therefore generous (associativity + compression) and the 22%
 * slowdown the paper reports emerges purely from tag bandwidth — the
 * effect the experiment exists to demonstrate.
 */

#ifndef DICE_CORE_SCC_HPP
#define DICE_CORE_SCC_HPP

#include "common/page_alloc.hpp"
#include "compress/hybrid.hpp"
#include "core/data_source.hpp"
#include "core/dram_cache.hpp"
#include "core/indexing.hpp"
#include "core/tad.hpp"

namespace dice
{

/** SCC-on-DRAM-cache baseline. */
class SccCache : public DramCache
{
  public:
    SccCache(const DramCacheConfig &config, const LineDataSource &source,
             std::string name = "scc_l4");

    L4ReadResult read(LineAddr line, Cycle now) override;
    L4WriteResult install(LineAddr line, std::uint64_t payload, bool dirty,
                          Cycle now, bool after_read_miss) override;
    bool contains(LineAddr line) const override;
    std::uint64_t validLines() const override;
    const char *organization() const override { return "scc"; }

  private:
    static constexpr std::uint32_t kWays = 8;
    static constexpr std::uint32_t kSuperblockLines = 4;
    /** Tag probes per request (tags distributed over skewed arrays). */
    static constexpr std::uint32_t kTagProbes = 3;

    std::uint64_t setOf(LineAddr line) const;
    /** Issue the tag probes; returns the cycle all tags are known. */
    Cycle probeTags(std::uint64_t set, Cycle now, std::uint32_t &accesses,
                    bool demand);

    std::uint64_t num_sets_;
    DramAddressMapper mapper_;
    const LineDataSource &source_;
    HybridCodec codec_;
    /** Dense per-set state, directly indexed by set number. */
    PageVector<TadSet> sets_;
    std::uint64_t lru_clock_ = 0;
    /** Resident logical lines, maintained across install's mutations. */
    std::uint64_t valid_lines_ = 0;
};

} // namespace dice

#endif // DICE_CORE_SCC_HPP
