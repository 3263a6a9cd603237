/**
 * @file
 * Touché-style signature tags over the compressed Alloy layout (Hong
 * et al. — see PAPERS.md).
 *
 * Touché's observation: a compressed DRAM-cache set can hold many
 * lines, but full tags eat the space the compression freed. Storing a
 * short *hashed signature* per resident item instead makes tags nearly
 * free (1 B here vs the 4-B full tag of the DICE TAD format), so more
 * compressed lines fit per 72-B set — at the price of aliasing:
 *
 *  - A probe whose signature matches a resident item may be a false
 *    positive. Confirming a match needs the full residual tag, which
 *    lives in the per-set ECC/metadata region and costs an extra
 *    narrow DRAM burst. That aliasing-check traffic is charged to
 *    this device's timing model — signature collisions literally
 *    consume cache bandwidth, which is the trade-off the organization
 *    exists to study.
 *
 *  - A miss whose signature matches nothing is known from the 80-B
 *    probe alone (like Alloy).
 *
 * Model: direct-mapped TSI sets of 72 B, singles-only compressed
 * items (HybridCodec sizes, 1-B signature tags), LRU within the set.
 * The functional truth (which lines are resident) stays exact; the
 * signatures only inject verification *traffic*, never wrong data.
 */

#ifndef DICE_CORE_TOUCHE_HPP
#define DICE_CORE_TOUCHE_HPP

#include "common/page_alloc.hpp"
#include "compress/hybrid.hpp"
#include "core/data_source.hpp"
#include "core/dram_cache.hpp"
#include "core/indexing.hpp"
#include "core/l4_registry.hpp"
#include "core/tad.hpp"

namespace dice
{

/** Signature-tagged compressed DRAM cache. */
class ToucheCache : public DramCache
{
  public:
    /** Bytes charged per signature tag. */
    static constexpr std::uint32_t kSignatureTagBytes = 1;
    /** Bytes of the aliasing-verification burst (residual tags). */
    static constexpr std::uint32_t kVerifyBytes = 16;

    ToucheCache(const DramCacheConfig &config,
                const ToucheL4Params &params, const LineDataSource &source,
                std::string name = "touche_l4");

    L4ReadResult read(LineAddr line, Cycle now) override;
    L4WriteResult install(LineAddr line, std::uint64_t payload, bool dirty,
                          Cycle now, bool after_read_miss) override;
    bool contains(LineAddr line) const override;
    std::uint64_t validLines() const override;
    std::uint64_t bytesUsed() const override;
    const char *organization() const override { return "touche"; }

    void resetStats() override;
    StatGroup stats() const override;

    /** Probes that needed a verification burst (white-box for tests). */
    std::uint64_t aliasChecks() const { return alias_checks_; }
    /** Verifications that turned out to be misses (pure waste). */
    std::uint64_t falsePositives() const { return false_positives_; }

  private:
    std::uint32_t signatureOf(LineAddr line) const;

    /**
     * True when any resident item of @p set other than @p line itself
     * carries @p line's signature (an aliasing candidate).
     */
    bool aliased(const TadSet &set, LineAddr line) const;

    ToucheL4Params params_;
    SetIndexer indexer_;
    DramAddressMapper mapper_;
    const LineDataSource &source_;
    HybridCodec codec_;
    std::uint32_t sig_mask_;

    /** Dense per-set state, directly indexed by TSI set number. */
    PageVector<TadSet> sets_;
    std::uint64_t lru_clock_ = 0;
    /** Resident logical lines, maintained across install's mutations. */
    std::uint64_t valid_lines_ = 0;

    std::uint64_t alias_checks_ = 0;
    std::uint64_t false_positives_ = 0;
};

} // namespace dice

#endif // DICE_CORE_TOUCHE_HPP
