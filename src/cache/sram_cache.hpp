/**
 * @file
 * Set-associative SRAM cache model used for the shared on-chip L3.
 *
 * The model is functional + statistical: it tracks tag/valid/dirty/LRU
 * state and a 64-bit payload per line (the workload "data version", used
 * to check end-to-end value correctness), while latency is charged by
 * the system model. Write-back, write-allocate.
 */

#ifndef DICE_CACHE_SRAM_CACHE_HPP
#define DICE_CACHE_SRAM_CACHE_HPP

#include <optional>
#include <string>
#include <vector>

#include "common/small_vector.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dice
{

/** Configuration of one SRAM cache level. */
struct SramCacheConfig
{
    std::string name = "cache";
    std::uint64_t size_bytes = 32_KiB;
    std::uint32_t ways = 8;
    /** Access latency charged on a hit, in CPU cycles. */
    Cycle hit_latency = 4;
};

/** A line pushed out of the cache by an install. */
struct EvictedLine
{
    LineAddr line = 0;
    bool dirty = false;
    /** Data version carried by the line (see workloads/datagen). */
    std::uint64_t payload = 0;
};

/**
 * Dirty victims produced by one install. Inline capacity covers the
 * overwhelmingly common case (an install evicts at most a few items),
 * so building the list performs no heap allocation.
 */
using WritebackList = SmallVector<EvictedLine, 6>;

/** Set-associative, LRU, write-back, write-allocate SRAM cache. */
class SramCache
{
  public:
    explicit SramCache(const SramCacheConfig &config);

    /**
     * Look up @p line; on a hit the LRU state is updated and, for
     * writes, the line is marked dirty with its payload replaced.
     * @return true on hit.
     */
    bool access(LineAddr line, AccessType type, std::uint64_t payload = 0);

    /**
     * Install @p line (write-allocate or demand fill). Marks the way
     * MRU. Returns the victim when a valid line had to be evicted.
     */
    std::optional<EvictedLine> install(LineAddr line, bool dirty,
                                       std::uint64_t payload);

    /** True when the line is resident (no LRU side effects). */
    bool contains(LineAddr line) const;

    /** Payload of a resident line; nullopt when absent. */
    std::optional<std::uint64_t> payloadOf(LineAddr line) const;

    /** Drop @p line if resident; returns its state when it was dirty. */
    std::optional<EvictedLine> invalidate(LineAddr line);

    const SramCacheConfig &config() const { return config_; }
    std::uint32_t numSets() const { return num_sets_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t dirtyEvictions() const { return dirty_evictions_; }
    std::uint64_t installs() const { return installs_; }

    /** Hit fraction over all accesses (0 when idle). */
    double hitRate() const;

    /** Number of currently-valid lines (for occupancy checks). */
    std::uint64_t validLines() const;

    void resetStats();

    StatGroup stats() const;

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t payload = 0;
        std::uint64_t lru = 0; // larger = more recently used
        bool valid = false;
        bool dirty = false;
    };

    std::uint32_t setOf(LineAddr line) const;
    std::uint64_t tagOf(LineAddr line) const;

    Way *findWay(LineAddr line);
    const Way *findWay(LineAddr line) const;

    SramCacheConfig config_;
    std::uint32_t num_sets_;
    std::vector<Way> ways_; // num_sets_ * config_.ways, row-major
    std::uint64_t lru_clock_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t dirty_evictions_ = 0;
    std::uint64_t installs_ = 0;
};

} // namespace dice

#endif // DICE_CACHE_SRAM_CACHE_HPP
