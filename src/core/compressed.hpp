/**
 * @file
 * The compressed DRAM cache (paper Sections 4 and 5).
 *
 * One class implements the whole design space via its policy knob:
 *
 *  - TsiOnly: compression for capacity only (Figure 1b / "TSI" bars).
 *  - NsiOnly: naive spatial indexing (Section 4.5's strawman).
 *  - BaiOnly: static bandwidth-aware indexing ("BAI" bars).
 *  - Dice:    dynamic TSI/BAI selection by compressed size at insertion
 *             (threshold 36 B) with CIP index prediction on access.
 *
 * The KNL mode models Intel Knights Landing's tags-in-ECC organization
 * (Section 6.6): 72-B accesses with no free neighbor tag, so when the
 * two candidate sets differ a miss (or mispredicted hit) must probe
 * both; the controller merges the two probes (same DRAM row).
 */

#ifndef DICE_CORE_COMPRESSED_HPP
#define DICE_CORE_COMPRESSED_HPP

#include "common/page_alloc.hpp"
#include "common/ring_trace.hpp"
#include "compress/hybrid.hpp"
#include "core/cip.hpp"
#include "core/data_source.hpp"
#include "core/dram_cache.hpp"
#include "core/indexing.hpp"
#include "core/tad.hpp"

namespace dice
{

/** Which install-indexing policy the compressed cache runs. */
enum class CompressionPolicy : std::uint8_t
{
    TsiOnly,
    NsiOnly,
    BaiOnly,
    Dice,
};

/** Printable policy name. */
const char *policyName(CompressionPolicy policy);

/** Configuration of the compressed cache. */
struct CompressedCacheConfig
{
    DramCacheConfig base;
    CompressionPolicy policy = CompressionPolicy::Dice;
    /** BAI-vs-TSI insertion threshold (Table 4; default 36 B). */
    std::uint32_t threshold_bytes = 36;
    /** CIP Last-Time-Table entries (Section 5.3; default 2048). */
    std::uint32_t cip_entries = 2048;
    /** Model the KNL tags-in-ECC organization instead of Alloy. */
    bool knl_mode = false;
    /**
     * Merge co-resident spatial neighbors into shared-tag pair items
     * (Section 4.2/4.3). Disable for ablation: lines then pack as
     * independent singles with private tags.
     */
    bool pair_compression = true;
};

/** One install decision (decision-trace ring record). */
struct InstallTrace
{
    LineAddr line = 0;
    std::uint32_t size_bytes = 0;      ///< Compressed single-line size.
    IndexScheme scheme = IndexScheme::TSI;
    bool invariant = false; ///< TSI == BAI for this line (no choice).
    bool paired = false;    ///< Merged with its neighbor into a pair.
};

/** Compressed Alloy-style DRAM cache with dynamic indexing. */
class CompressedDramCache : public DramCache
{
  public:
    /** Install decisions the decision-trace ring retains. */
    static constexpr std::size_t kInstallTraceDepth = 256;
    CompressedDramCache(const CompressedCacheConfig &config,
                        const LineDataSource &source,
                        std::string name = "comp_l4");

    L4ReadResult read(LineAddr line, Cycle now) override;
    L4WriteResult install(LineAddr line, std::uint64_t payload, bool dirty,
                          Cycle now, bool after_read_miss) override;
    bool contains(LineAddr line) const override;
    std::uint64_t validLines() const override;
    const char *organization() const override;
    L4Metrics metrics() const override;
    void registerExtraStats(StatRegistry &registry) const override;

    const SetIndexer &indexer() const { return indexer_; }
    const Cip &cip() const { return cip_; }
    const CompressedCacheConfig &compressedConfig() const { return cfg_; }

    /** Install-decision counters (Figure 11). */
    std::uint64_t installsInvariant() const { return installs_invariant_; }
    std::uint64_t installsBai() const { return installs_bai_; }
    std::uint64_t installsTsi() const { return installs_tsi_; }
    /** Pair (shared-tag) installs. */
    std::uint64_t pairInstalls() const { return pair_installs_; }
    /** Reads needing a second DRAM access (CIP misprediction). */
    std::uint64_t secondProbes() const { return second_probes_; }
    /** Stale alternate-location copies removed on scheme flips. */
    std::uint64_t duplicateScrubs() const { return duplicate_scrubs_; }

    /** Bytes of compressed payload + tags currently resident. */
    std::uint64_t bytesUsed() const override;

    void resetStats() override;

    StatGroup stats() const override;

    /** Turn the install decision-trace ring on/off (cleared on off). */
    void enableDecisionTrace(bool enabled);

    /** CIP trace control shares the same switch (tests). */
    Cip &cipForTest() { return cip_; }

    /** The install-decision ring, oldest record first. */
    const DecisionRing<InstallTrace, kInstallTraceDepth> &
    installRing() const
    {
        return install_ring_;
    }

  private:
    /** Candidate sets a line may occupy under the current policy. */
    struct Candidates
    {
        std::uint64_t primary;   ///< Set probed first.
        std::uint64_t secondary; ///< Alternate set (== primary if none).
        IndexScheme primary_scheme;
        bool single; ///< True when only one location is possible.
    };

    Candidates readCandidates(LineAddr line) const;

    /** Scheme the install policy picks for a line of @p size bytes. */
    IndexScheme installScheme(LineAddr line, std::uint32_t size,
                              bool &invariant) const;

    /**
     * Compressed size (bytes) of the pair @p line (bytes @p line_bytes,
     * single size @p line_size) forms with its resident single
     * neighbor @p nb. Synthesizes the neighbor only when the joint
     * pass runs.
     */
    std::uint32_t pairSize(LineAddr line, const Line &line_bytes,
                           std::uint32_t line_size,
                           const TadLookup &nb) const;

    /**
     * Remove @p line from @p set given its lookup @p lk (still valid:
     * no mutation of @p set since), re-sizing the surviving half when
     * the line was in a pair.
     */
    void removeResident(TadSet &set, LineAddr line, const TadLookup &lk);

    std::uint32_t readBytes() const { return cfg_.knl_mode ? 72 : 80; }

    CompressedCacheConfig cfg_;
    SetIndexer indexer_;
    DramAddressMapper mapper_;
    const LineDataSource &source_;
    HybridCodec codec_;
    Cip cip_;

    /** Dense per-set state, directly indexed by set number. */
    PageVector<TadSet> sets_;
    std::uint64_t lru_clock_ = 0;
    /** Resident logical lines, maintained across install's mutations. */
    std::uint64_t valid_lines_ = 0;

    std::uint64_t installs_invariant_ = 0;
    std::uint64_t installs_bai_ = 0;
    std::uint64_t installs_tsi_ = 0;
    std::uint64_t pair_installs_ = 0;
    std::uint64_t second_probes_ = 0;
    std::uint64_t duplicate_scrubs_ = 0;

    /** Install decision trace (off by default; DICE_DECISION_TRACE). */
    bool trace_enabled_ = false;
    DecisionRing<InstallTrace, kInstallTraceDepth> install_ring_;
};

} // namespace dice

#endif // DICE_CORE_COMPRESSED_HPP
