/**
 * @file
 * Uncompressed Alloy Cache baseline (Qureshi & Loh, MICRO 2012;
 * paper Figure 2): direct-mapped, one 72-B TAD per set, accessed as an
 * 80-B burst that also streams the neighboring set's tag. All speedups
 * in the study are normalized to this organization.
 *
 * Ideal variants for the motivation/limit studies (Figure 1f, 7, 10 and
 * Table 8) are plain configuration changes: doubled capacity, doubled
 * channel count, halved latency.
 */

#ifndef DICE_CORE_ALLOY_HPP
#define DICE_CORE_ALLOY_HPP

#include <vector>

#include "core/dram_cache.hpp"
#include "core/indexing.hpp"

namespace dice
{

/** Direct-mapped uncompressed Alloy DRAM cache. */
class AlloyCache : public DramCache
{
  public:
    explicit AlloyCache(const DramCacheConfig &config,
                        std::string name = "alloy_l4");

    L4ReadResult read(LineAddr line, Cycle now) override;
    L4WriteResult install(LineAddr line, std::uint64_t payload, bool dirty,
                          Cycle now, bool after_read_miss) override;
    bool contains(LineAddr line) const override;
    std::uint64_t validLines() const override;
    const char *organization() const override { return "alloy"; }

    const SetIndexer &indexer() const { return indexer_; }

  private:
    struct Entry
    {
        LineAddr line = 0;
        std::uint64_t payload = 0;
        bool valid = false;
        bool dirty = false;
    };

    SetIndexer indexer_;
    DramAddressMapper mapper_;
    /** Dense direct-mapped array indexed by set: one resident TAD. */
    std::vector<Entry> sets_;
    std::uint64_t valid_count_ = 0;
};

/** Convenience factories for the ideal limit-study configurations. */
DramCacheConfig doubledCapacity(DramCacheConfig config);
DramCacheConfig doubledBandwidth(DramCacheConfig config);
DramCacheConfig halvedLatency(DramCacheConfig config);

} // namespace dice

#endif // DICE_CORE_ALLOY_HPP
